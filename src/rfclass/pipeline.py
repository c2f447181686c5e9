"""End-to-end workflow: ingest -> merge -> preprocess -> tune -> train ->
evaluate (train/test/independent) -> explain -> report.

A run writes a self-describing directory: config snapshot with versions,
preprocessed datasets with an audit sidecar, tuning trace, serialized
model, per-role evaluation reports, importance summary, and a one-row
summary table. Two runs with equal config and seed produce byte-identical
artifacts.
"""

import json
import platform
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .booster import Hyperparameters, predict_class, serialize_ensemble, train
from .dataset import (Database, DatabaseTag, ReservoirRecord, canonical_schema,
                      deduplicate, merge, parse_database, parse_tag,
                      serialize_database)
from .errors import ConfigError, PipelineError
from .explain import importance_from_database
from .metrics import EvaluationReport, summary_csv
from .preprocess import (SplitSpec, apply_transforms, complete_cases,
                         filter_ranges, fit_transforms, impute, prune_missing,
                         stratified_split, to_matrix)
from .synth import generate, preset
from .tuner import SearchGrid, default_grid, pairwise_grid_search

#: The database held out entirely for final evaluation, per combination.
INDEPENDENT_SOURCE = {
    DatabaseTag.TC: DatabaseTag.ATLAS,
    DatabaseTag.TA: DatabaseTag.COMMERCIAL,
    DatabaseTag.CA: DatabaseTag.TORIS,
    DatabaseTag.TCA: None,
}

_PRESET_BY_TAG = {
    DatabaseTag.TORIS: "toris",
    DatabaseTag.COMMERCIAL: "commercial",
    DatabaseTag.ATLAS: "atlas",
}


@dataclass(frozen=True)
class SourceConfig:
    path: str
    key_column: str = "key"
    rf_column: str = "RF"
    column_map: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class SynthConfig:
    n: int = 2000
    divergence: float = 1.0


def _positive_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    return value


def _section(data: dict, key: str) -> dict | None:
    """`data[key]` when it is a JSON object; None when absent or null."""
    value = data.get(key)
    if value is not None and not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class PipelineConfig:
    combo: DatabaseTag
    seed: int = 0
    sources: dict[DatabaseTag, SourceConfig] | None = None
    synth: SynthConfig | None = None
    test_fraction: float = 0.1
    k_folds: int = 10
    hyperparameters: Hyperparameters | None = None
    grid: SearchGrid | None = None
    feature_threshold: float = 0.70
    record_threshold: float = 0.55
    range_overrides: dict[str, tuple[float, float]] = field(default_factory=dict)
    shap_sample: int = 100
    early_stopping_patience: int | None = None
    raw: dict = field(default_factory=dict, compare=False)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        try:
            combo = parse_tag(data["combo"])
        except KeyError:
            raise ConfigError("config requires a 'combo' entry") from None
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if combo.is_source:
            raise ConfigError(f"combo must be a merge combination, got {combo.value}")

        sources = None
        raw_sources = _section(data, "sources")
        if raw_sources:
            sources = {}
            for name, spec in raw_sources.items():
                try:
                    tag = parse_tag(name)
                except ValueError as exc:
                    raise ConfigError(str(exc)) from None
                if not tag.is_source:
                    raise ConfigError(f"source entry {name!r} is not a source database")
                if not isinstance(spec, dict) or "path" not in spec:
                    raise ConfigError(f"source entry {name!r} needs a 'path'")
                sources[tag] = SourceConfig(
                    path=spec["path"],
                    key_column=spec.get("key_column", "key"),
                    rf_column=spec.get("rf_column", "RF"),
                    column_map=spec.get("column_map", {}),
                )
        synth = None
        raw_synth = _section(data, "synth")
        if raw_synth is not None:
            synth = SynthConfig(
                n=int(raw_synth.get("n", 2000)),
                divergence=float(raw_synth.get("divergence", 1.0)),
            )
        if (sources is None) == (synth is None):
            raise ConfigError("config needs exactly one of 'sources' or 'synth'")

        hp = None
        if data.get("hyperparameters") is not None:
            try:
                hp = Hyperparameters.from_dict(data["hyperparameters"])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad hyperparameters: {exc}") from None
        grid = None
        raw_grid = _section(data, "grid")
        if raw_grid is not None:
            try:
                if raw_grid.get("candidates"):
                    grid = SearchGrid(
                        candidates=raw_grid.get("candidates", {}),
                        pairs=tuple(tuple(p) for p in raw_grid.get("pairs", ())),
                        max_sweeps=int(raw_grid.get("max_sweeps", 3)),
                    )
                else:  # "grid": {} asks for the default search space
                    grid = default_grid()
                    if "max_sweeps" in raw_grid:
                        grid = SearchGrid(candidates=grid.candidates, pairs=grid.pairs,
                                          max_sweeps=int(raw_grid["max_sweeps"]))
            except ValueError as exc:
                raise ConfigError(f"bad grid: {exc}") from None
        if hp is not None and grid is not None:
            raise ConfigError("provide either fixed 'hyperparameters' or a 'grid', not both")

        split = _section(data, "split") or {}
        if not 0 < float(split.get("test_fraction", 0.1)) < 1:
            raise ConfigError("split.test_fraction must lie in (0, 1)")
        if int(split.get("k_folds", 10)) < 2:
            raise ConfigError("split.k_folds must be at least 2")
        overrides = {
            name: (float(lo), float(hi))
            for name, (lo, hi) in (_section(data, "range_overrides") or {}).items()
        }
        prune = _section(data, "prune") or {}
        # checked here, so a bad value fails before any stage has run
        shap_sample = _positive_int(data.get("shap_sample", 100), "shap_sample")
        patience = data.get("early_stopping_patience")
        if patience is not None:
            _positive_int(patience, "early_stopping_patience")
        try:
            return cls(
                combo=combo,
                seed=int(data.get("seed", 0)),
                sources=sources,
                synth=synth,
                test_fraction=float(split.get("test_fraction", 0.1)),
                k_folds=int(split.get("k_folds", 10)),
                hyperparameters=hp,
                grid=grid,
                feature_threshold=float(prune.get("feature_threshold", 0.70)),
                record_threshold=float(prune.get("record_threshold", 0.55)),
                range_overrides=overrides,
                shap_sample=shap_sample,
                early_stopping_patience=patience,
                raw=data,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_json(cls, text: str) -> "PipelineConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        return cls.from_dict(data)


@dataclass
class RunResult:
    run_dir: Path
    reports: dict[str, EvaluationReport]
    hyperparameters: Hyperparameters
    model_path: Path
    summary_path: Path
    importance_path: Path
    importance_ranking: tuple[str, ...]


class StageFailure(Exception):
    """Wraps a stage's error so the CLI can tag diagnostics and exit codes."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


def _stage_seed(seed: int, index: int) -> int:
    # cheap deterministic derivation; stages never share a stream
    return (seed * 2654435761 + index * 97003) % (2**31 - 1)


def _dump_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def load_sources(config: PipelineConfig, needed: list[DatabaseTag]) -> dict[DatabaseTag, Database]:
    """Parse or generate each needed source database."""
    schema = canonical_schema(config.range_overrides)
    out = {}
    for tag in needed:
        if config.sources is not None:
            if tag not in config.sources:
                raise PipelineError(f"combo {config.combo.value} needs source {tag.value}, "
                                    f"but the config does not provide it")
            src = config.sources[tag]
            path = Path(src.path)
            if not path.exists():
                raise PipelineError(f"missing input file for {tag.value}: {path}")
            out[tag] = parse_database(
                path.read_text(), tag, schema,
                key_column=src.key_column, rf_column=src.rf_column,
                column_map=src.column_map,
            )
        else:
            spec = preset(_PRESET_BY_TAG[tag], config.synth.divergence)
            seed = _stage_seed(config.seed, 1 + list(_PRESET_BY_TAG).index(tag))
            db = generate(spec, config.synth.n, seed)
            # generated under the default schema; rebuild under the override one
            out[tag] = Database(tag=db.tag, schema=schema, records=db.records)
    return out


def prepare_independent(
    independent: Database,
    merged_keys: set[str],
    surviving: tuple[str, ...],
    params,
) -> Database:
    """Independent-database path: range filter, drop cross-database duplicates,
    keep the surviving features, complete-case filter, apply train transforms.
    Never imputes and never refits."""
    db = filter_ranges(independent)
    db = db.with_records(r for r in db.records if r.key not in merged_keys)
    keep = [i for i, name in enumerate(db.schema.names) if name in set(surviving)]
    schema = db.schema.subset([db.schema.names[i] for i in keep])
    records = tuple(
        ReservoirRecord(
            key=rec.key,
            values=tuple(rec.values[i] for i in keep),
            rf=rec.rf,
            source=rec.source,
        )
        for rec in db.records
    )
    db = complete_cases(Database(tag=db.tag, schema=schema, records=records))
    if not db.records:
        raise PipelineError(
            f"independent database {independent.tag.value} is empty after complete-case filtering"
        )
    return apply_transforms(db, params)


def run_pipeline(config: PipelineConfig, out_dir: str | Path) -> RunResult:
    run_dir = Path(out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    reports_dir = run_dir / "reports"
    reports_dir.mkdir(exist_ok=True)

    snapshot = {
        "config": config.raw,
        "seed": config.seed,
        "versions": {
            "rfclass": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    _dump_json(run_dir / "config_snapshot.json", snapshot)

    independent_tag = INDEPENDENT_SOURCE[config.combo]
    needed = list(config.combo.source_tags)
    if independent_tag is not None:
        needed.append(independent_tag)

    try:
        sources = load_sources(config, needed)
    except Exception as exc:
        raise StageFailure("ingest", exc) from exc

    try:
        merged = deduplicate(merge([sources[t] for t in config.combo.source_tags], config.combo))
        (run_dir / "merged.csv").write_text(serialize_database(merged))
    except Exception as exc:
        raise StageFailure("merge", exc) from exc

    try:
        n_merged = len(merged)
        filtered = filter_ranges(merged)
        pruned = prune_missing(filtered, config.feature_threshold, config.record_threshold)
        dropped_features = [n for n in merged.schema.names if n not in pruned.schema.names]
        split_spec = SplitSpec(
            test_fraction=config.test_fraction,
            k_folds=config.k_folds,
            seed=_stage_seed(config.seed, 10),
        )
        train_db, test_db = stratified_split(pruned, split_spec)
        imputed_counts = {
            role: {
                name: int(np.isnan(db.feature_matrix()[:, j]).sum())
                for j, name in enumerate(db.schema.names)
            }
            for role, db in (("train", train_db), ("test", test_db))
        }
        train_db = impute(train_db)
        test_db = impute(test_db)
        params = fit_transforms(train_db)
        train_t = apply_transforms(train_db, params)
        test_t = apply_transforms(test_db, params)
        (run_dir / "train.csv").write_text(serialize_database(train_t))
        (run_dir / "test.csv").write_text(serialize_database(test_t))
        meta = {
            "records_ingested": n_merged,
            "records_after_range_filter": len(filtered),
            "records_after_prune": len(pruned),
            "dropped_features": dropped_features,
            "imputed_cells": imputed_counts,
            "split": {"train": len(train_db), "test": len(test_db),
                      "test_fraction": config.test_fraction},
            "transform_params": params.to_dict(),
        }
        _dump_json(run_dir / "preprocess_meta.json", meta)
    except StageFailure:
        raise
    except Exception as exc:
        raise StageFailure("preprocess", exc) from exc

    try:
        if config.grid is not None:
            trace_path = run_dir / "tuning_trace.jsonl"
            with trace_path.open("w") as handle:
                def sink(entry: dict) -> None:
                    handle.write(json.dumps(entry, sort_keys=True) + "\n")
                result = pairwise_grid_search(
                    train_t, config.grid, _stage_seed(config.seed, 20),
                    k=config.k_folds, trace_sink=sink,
                )
            hp = result.hyperparameters
        elif config.hyperparameters is not None:
            hp = config.hyperparameters
        else:
            hp = Hyperparameters()  # tuning is opt-in via "grid"
        _dump_json(run_dir / "hyperparameters.json", hp.to_dict())
    except StageFailure:
        raise
    except Exception as exc:
        raise StageFailure("tune", exc) from exc

    try:
        X_train, y_train = to_matrix(train_t)
        eval_set = None
        patience = None
        if config.early_stopping_patience:
            X_test, y_test = to_matrix(test_t)
            eval_set = (X_test, y_test)
            patience = config.early_stopping_patience
        model = train(
            X_train, y_train, hp, _stage_seed(config.seed, 30),
            feature_names=train_t.schema.names,
            eval_set=eval_set, early_stopping_patience=patience,
        )
        model_path = run_dir / "model.json"
        model_path.write_text(serialize_ensemble(model))
    except StageFailure:
        raise
    except Exception as exc:
        raise StageFailure("train", exc) from exc

    try:
        reports: dict[str, EvaluationReport] = {}
        for role, db in (("train", train_t), ("test", test_t)):
            X, y = to_matrix(db)
            pred = predict_class(model, X)
            reports[role] = EvaluationReport.from_predictions(
                role, config.combo.value, pred, y, hp.num_class
            )
        independent_report = None
        if independent_tag is not None:
            merged_keys = {r.key for r in merged.records}
            indep = prepare_independent(
                sources[independent_tag], merged_keys, train_t.schema.names, params
            )
            (run_dir / "independent.csv").write_text(serialize_database(indep))
            X, y = to_matrix(indep)
            pred = predict_class(model, X)
            independent_report = EvaluationReport.from_predictions(
                "independent", independent_tag.value, pred, y, hp.num_class
            )
            reports["independent"] = independent_report
        for role, report in reports.items():
            _dump_json(reports_dir / f"{role}.json", report.to_dict())
            (reports_dir / f"bubbles_{role}.csv").write_text(report.bubbles_csv())
        summary_path = reports_dir / "summary.csv"
        summary_path.write_text(
            summary_csv(config.combo.value, reports["train"], reports["test"], independent_report)
        )
    except StageFailure:
        raise
    except Exception as exc:
        raise StageFailure("evaluate", exc) from exc

    try:
        importance = importance_from_database(
            model, train_t, sample=config.shap_sample, seed=_stage_seed(config.seed, 40)
        )
        importance_path = reports_dir / "importance.csv"
        importance_path.write_text(importance.to_csv())
    except StageFailure:
        raise
    except Exception as exc:
        raise StageFailure("explain", exc) from exc

    return RunResult(
        run_dir=run_dir,
        reports=reports,
        hyperparameters=hp,
        model_path=model_path,
        summary_path=summary_path,
        importance_path=importance_path,
        importance_ranking=importance.ranking,
    )
