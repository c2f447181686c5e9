"""End-to-end workflow, one function per stage: ingest -> preprocess ->
tune -> train (`fit`) -> evaluate (one role per call) -> explain.

`run_pipeline` calls the stages in order, passing results in memory, and
writes a self-describing directory: config snapshot with versions,
preprocessed datasets with an audit sidecar, tuning trace, serialized
model, per-role evaluation reports, importance summary, and a one-row
summary table. Each `rfclass` subcommand calls the same stage function on
the files it reads, so its outputs equal the run directory's files. Two
runs with equal config and seed produce byte-identical artifacts.
"""

import json
import platform
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from . import __version__
from .booster import Ensemble, Hyperparameters, predict_class, serialize_ensemble, train
from .dataset import (Database, DatabaseTag, FeatureSchema, canonical_schema, deduplicate,
                      merge, parse_database, parse_tag, serialize_database)
from .errors import ConfigError, PipelineError
from .explain import ImportanceSummary, importance_from_database
from .metrics import EvaluationReport, summary_csv
from .preprocess import (N_CLASSES, SplitSpec, apply_transforms, check_prune_thresholds,
                         complete_cases, filter_ranges, fit_transforms, impute,
                         prune_missing, stratified_split, to_matrix)
from .synth import generate, preset
from .tuner import SearchGrid, default_grid, pairwise_grid_search

#: The database held out entirely for final evaluation, per combination.
INDEPENDENT_SOURCE = {
    DatabaseTag.TC: DatabaseTag.ATLAS,
    DatabaseTag.TA: DatabaseTag.COMMERCIAL,
    DatabaseTag.CA: DatabaseTag.TORIS,
    DatabaseTag.TCA: None,
}

#: Share of each class of the training set held out as the early-stopping
#: eval set when `early_stopping_patience` is set.
EARLY_STOPPING_FRACTION = 0.1

@dataclass(frozen=True)
class SourceConfig:
    path: str
    key_column: str = "key"
    rf_column: str = "RF"
    column_map: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not all(isinstance(v, str) for v in (self.path, self.key_column, self.rf_column)):
            raise ValueError("path, key_column and rf_column must be strings")
        if not isinstance(self.column_map, dict) or not all(
                isinstance(v, str) for v in self.column_map.values()):
            raise ValueError(f"column_map must map feature names to column names, "
                             f"got {self.column_map!r}")


@dataclass(frozen=True)
class SynthConfig:
    n: int = 2000
    divergence: float = 1.0

    def __post_init__(self):
        for tag in DatabaseTag.TCA.source_tags:  # a divergence a preset rejects
            preset(tag.value, self.divergence)


def _integer(value, name: str, minimum: int | None = None) -> int:
    """A JSON integer, at least `minimum` when one is given."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be a number written as a JSON integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value}")
    return value


def _real(value, name: str) -> float:
    """A JSON number that a float holds."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _range_pair(name: str, bounds) -> tuple[float, ...]:
    if not isinstance(bounds, list) or len(bounds) != 2:
        raise ConfigError(f"range_overrides entry {name!r} must be a [lo, hi] pair "
                          f"of numbers, got {bounds!r}")
    return tuple(_real(b, f"range_overrides entry {name!r}") for b in bounds)


def _build(section: str, make, *args, **kwargs):
    """`make(*args, **kwargs)`; a bad value's error becomes a ConfigError naming `section`."""
    try:
        return make(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad {section}: {exc}") from None


def read_hyperparameters(data) -> Hyperparameters:
    """Hyperparameters from a config's section or a `tune` output. The
    labels are the N_CLASSES tenths of RF, so num_class must match them."""
    hp = Hyperparameters.from_dict(data)
    if hp.num_class != N_CLASSES:
        raise ConfigError(f"num_class must be {N_CLASSES}, one class per tenth of RF, "
                          f"got {hp.num_class}")
    return hp


def _section(data: dict, key: str) -> dict | None:
    """`data[key]` when it is a JSON object; None when absent or null."""
    value = data.get(key)
    if value is not None and not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class PipelineConfig:
    """A run's settings; `schema` holds the range overrides, and stages set `split.seed`."""

    combo: DatabaseTag
    schema: FeatureSchema
    seed: int = 0
    sources: dict[DatabaseTag, SourceConfig] | None = None
    synth: SynthConfig | None = None
    split: SplitSpec = SplitSpec()
    hyperparameters: Hyperparameters | None = None
    grid: SearchGrid | None = None
    feature_threshold: float = 0.70
    record_threshold: float = 0.55
    shap_sample: int = 100
    early_stopping_patience: int | None = None
    raw: dict = field(default_factory=dict, compare=False)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        """The config of a JSON document. Only JSON types are checked here; the
        settings' constructors check ranges, so a bad value fails before any stage."""
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        if "combo" not in data:
            raise ConfigError("config requires a 'combo' entry")
        if not isinstance(data["combo"], str):
            raise ConfigError(f"combo must be a string, got {data['combo']!r}")
        combo = _build("combo", parse_tag, data["combo"])
        if combo.is_source:
            raise ConfigError(f"combo must be a merge combination, got {combo.value}")

        sources = None
        raw_sources = _section(data, "sources")
        if raw_sources:
            sources = {}
            for name, spec in raw_sources.items():
                tag = _build("sources", parse_tag, name)
                if not tag.is_source:
                    raise ConfigError(f"source entry {name!r} is not a source database")
                if not isinstance(spec, dict) or "path" not in spec:
                    raise ConfigError(f"source entry {name!r} needs a 'path'")
                sources[tag] = _build(f"source entry {name!r}", SourceConfig, **{
                    f.name: spec[f.name] for f in fields(SourceConfig) if f.name in spec})
        synth = None
        raw_synth = _section(data, "synth")
        if raw_synth is not None:
            synth = _build("synth", SynthConfig,
                           n=_integer(raw_synth.get("n", 2000), "synth.n", 1),
                           divergence=_real(raw_synth.get("divergence", 1.0), "synth.divergence"))
        if (sources is None) == (synth is None):
            raise ConfigError("config needs exactly one of 'sources' or 'synth'")

        hp = None
        if data.get("hyperparameters") is not None:
            hp = _build("hyperparameters", read_hyperparameters, data["hyperparameters"])
        grid = None
        raw_grid = _section(data, "grid")
        if raw_grid is not None:  # "grid": {} asks for the default search space
            default = default_grid()
            grid = _build("grid", SearchGrid,
                          candidates=raw_grid.get("candidates", default.candidates),
                          pairs=raw_grid.get("pairs", default.pairs),
                          max_sweeps=_integer(raw_grid.get("max_sweeps", 3), "grid.max_sweeps"))
        if hp is not None and grid is not None:
            raise ConfigError("provide either fixed 'hyperparameters' or a 'grid', not both")

        split = _section(data, "split") or {}
        prune = _section(data, "prune") or {}
        thresholds = (_real(prune.get("feature_threshold", 0.70), "prune.feature_threshold"),
                      _real(prune.get("record_threshold", 0.55), "prune.record_threshold"))
        _build("prune", check_prune_thresholds, *thresholds)
        overrides = {name: _range_pair(name, bounds)
                     for name, bounds in (_section(data, "range_overrides") or {}).items()}
        patience = data.get("early_stopping_patience")
        return cls(
            combo=combo,
            schema=_build("range_overrides", canonical_schema, overrides),
            seed=_integer(data.get("seed", 0), "seed"),
            sources=sources,
            synth=synth,
            split=_build("split", SplitSpec,
                         test_fraction=_real(split.get("test_fraction", 0.1),
                                             "split.test_fraction"),
                         k_folds=_integer(split.get("k_folds", 10), "split.k_folds")),
            hyperparameters=hp,
            grid=grid,
            feature_threshold=thresholds[0],
            record_threshold=thresholds[1],
            shap_sample=_integer(data.get("shap_sample", 100), "shap_sample", 1),
            early_stopping_patience=None if patience is None else _integer(
                patience, "early_stopping_patience", 1),
            raw=data,
        )

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


@contextmanager
def _stage(name: str):
    """Tag any error raised inside the block with the stage's name."""
    try:
        yield
    except Exception as exc:
        raise StageFailure(name, exc) from exc


def _stage_seed(seed: int, index: int) -> int:
    # cheap deterministic derivation; stages never share a stream
    return (seed * 2654435761 + index * 97003) % (2**31 - 1)


def _dump_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def load_sources(config: PipelineConfig, tags) -> list[Database]:
    """Parse or generate each source database in `tags`, in that order."""
    out = []
    for tag in tags:
        if config.sources is not None:
            if tag not in config.sources:
                raise PipelineError(f"combo {config.combo.value} needs source {tag.value}, "
                                    f"but the config does not provide it")
            src = config.sources[tag]
            path = Path(src.path)
            if not path.exists():
                raise PipelineError(f"missing input file for {tag.value}: {path}")
            out.append(parse_database(
                path.read_text(), tag, config.schema,
                key_column=src.key_column, rf_column=src.rf_column,
                column_map=src.column_map,
            ))
        else:
            spec = preset(tag.value, config.synth.divergence)
            seed = _stage_seed(config.seed, 1 + list(DatabaseTag).index(tag))
            # generated under the default schema; rebuild under the override one
            out.append(replace(generate(spec, config.synth.n, seed), schema=config.schema))
    return out


def read_prepared(path: Path, config: PipelineConfig) -> Database:
    """Parse a CSV a stage wrote (merged, train, test or independent set),
    under the config's schema restricted to the file's feature columns."""
    text = path.read_text()
    names = [h.strip() for h in text.partition("\n")[0].split(",")
             if h.strip() not in ("key", "source", "RF")]
    schema = config.schema.subset(names)
    if len(schema.names) != len(names):  # non-canonical feature set
        raise PipelineError(f"unrecognized feature columns in {path}")
    return parse_database(text, config.combo, schema)


def ingest(config: PipelineConfig) -> Database:
    """Load the combination's source databases, merge them and drop repeated keys."""
    return deduplicate(merge(load_sources(config, config.combo.source_tags), config.combo))


def held_out(config: PipelineConfig, required: bool = True) -> Database | None:
    """The database the combination holds out, None for TCA. Unless
    `required`, also None when the config's `sources` do not list it."""
    tag = INDEPENDENT_SOURCE[config.combo]
    if tag is None or (not required and config.sources is not None and tag not in config.sources):
        return None
    return load_sources(config, [tag])[0]


class Prepared(NamedTuple):
    train: Database
    test: Database
    independent: Database | None
    meta: dict

    def write(self, out: Path) -> None:
        """train.csv, test.csv, independent.csv (when prepared) and preprocess_meta.json."""
        for name, db in (("train", self.train), ("test", self.test),
                         ("independent", self.independent)):
            if db is not None:
                (out / f"{name}.csv").write_text(serialize_database(db))
        _dump_json(out / "preprocess_meta.json", self.meta)


def preprocess(merged: Database, config: PipelineConfig,
               independent: Database | None = None) -> Prepared:
    """Range filter, prune, split, impute and transform a merged database,
    and prepare the held-out `independent` database when one is given.

    Transform parameters are fitted on the training set; `meta` is the audit
    record of preprocess_meta.json.
    """
    filtered = filter_ranges(merged)
    pruned = prune_missing(filtered, config.feature_threshold, config.record_threshold)
    train_db, test_db = stratified_split(
        pruned, replace(config.split, seed=_stage_seed(config.seed, 10)))
    imputed_counts = {
        role: dict(zip(db.schema.names, np.isnan(db.values).sum(axis=0).tolist()))
        for role, db in (("train", train_db), ("test", test_db))
    }
    train_db, test_db = impute(train_db), impute(test_db)
    params = fit_transforms(train_db)
    meta = {
        "records_ingested": len(merged),
        "records_after_range_filter": len(filtered),
        "records_after_prune": len(pruned),
        "dropped_features": [n for n in merged.schema.names if n not in pruned.schema.names],
        "imputed_cells": imputed_counts,
        "split": {"train": len(train_db), "test": len(test_db),
                  "test_fraction": config.split.test_fraction},
        "transform_params": params.to_dict(),
    }
    if independent is not None:
        # drop keys already merged, keep the surviving features, then complete
        # cases only: the held-out set is never imputed and nothing is refitted
        db = filter_ranges(independent)
        db = db.take(~np.isin(db.keys, merged.keys))
        db = complete_cases(db.select_features(
            [i for i, name in enumerate(db.schema.names) if name in pruned.schema.names]))
        if not len(db):
            raise PipelineError(f"independent database {independent.tag.value} "
                                f"is empty after complete-case filtering")
        independent = apply_transforms(db, params)
    return Prepared(apply_transforms(train_db, params), apply_transforms(test_db, params),
                    independent, meta)


def tune(train_t: Database, config: PipelineConfig,
         trace_path: Path | None = None) -> Hyperparameters:
    """The pairwise search's pick when the config has a `grid` (its trace
    written to `trace_path`), else the fixed `hyperparameters` or the defaults."""
    if config.grid is None:
        return config.hyperparameters or Hyperparameters()
    trace: list[dict] = []
    result = pairwise_grid_search(train_t, config.grid, _stage_seed(config.seed, 20),
                                  k=config.split.k_folds, trace_sink=trace.append)
    if trace_path is not None:
        trace_path.write_text("".join(json.dumps(e, sort_keys=True) + "\n" for e in trace))
    return result.hyperparameters


def fit(train_t: Database, hp: Hyperparameters, config: PipelineConfig) -> Ensemble:
    """Train the ensemble. With `early_stopping_patience`, a stratified slice
    of the training set picks the stopping round, never the test set."""
    fit_t, eval_set, patience = train_t, None, config.early_stopping_patience
    if patience:
        fit_t, eval_t = stratified_split(train_t, SplitSpec(
            test_fraction=EARLY_STOPPING_FRACTION, seed=_stage_seed(config.seed, 31)))
        eval_set = to_matrix(eval_t)
    X, y = to_matrix(fit_t)
    return train(X, y, hp, _stage_seed(config.seed, 30), feature_names=train_t.schema.names,
                 eval_set=eval_set, early_stopping_patience=patience)


def evaluate(model: Ensemble, db: Database, role: str,
             config: PipelineConfig) -> EvaluationReport:
    """Score one role's prepared set, tagged with the combination, or for
    `independent` with the held-out database."""
    tag = INDEPENDENT_SOURCE[config.combo] if role == "independent" else config.combo
    if tag is None:
        raise ConfigError(f"combo {config.combo.value} holds no database out")
    X, y = to_matrix(db)
    return EvaluationReport.from_predictions(role, tag.value, predict_class(model, X), y)


def explain(model: Ensemble, train_t: Database, config: PipelineConfig) -> ImportanceSummary:
    """Importance summary over `shap_sample` rows drawn from the training set."""
    return importance_from_database(model, train_t, sample=config.shap_sample,
                                    seed=_stage_seed(config.seed, 40))


def run_pipeline(config: PipelineConfig, out_dir: str | Path) -> RunResult:
    run_dir = Path(out_dir)
    reports_dir = run_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    _dump_json(run_dir / "config_snapshot.json", {
        "config": config.raw,
        "seed": config.seed,
        "versions": {
            "rfclass": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    })

    with _stage("ingest"):
        merged = ingest(config)
        independent = held_out(config)
        (run_dir / "merged.csv").write_text(serialize_database(merged))

    with _stage("preprocess"):
        prepared = preprocess(merged, config, independent)
        prepared.write(run_dir)

    with _stage("tune"):
        hp = tune(prepared.train, config, run_dir / "tuning_trace.jsonl")
        _dump_json(run_dir / "hyperparameters.json", hp.to_dict())

    with _stage("train"):
        model = fit(prepared.train, hp, config)
        model_path = run_dir / "model.json"
        model_path.write_text(serialize_ensemble(model))

    with _stage("evaluate"):
        roles = (("train", prepared.train), ("test", prepared.test),
                 ("independent", prepared.independent))
        reports = {role: evaluate(model, db, role, config) for role, db in roles if db is not None}
        for role, report in reports.items():
            _dump_json(reports_dir / f"{role}.json", report.to_dict())
            (reports_dir / f"bubbles_{role}.csv").write_text(report.bubbles_csv())
        summary_path = reports_dir / "summary.csv"
        summary_path.write_text(summary_csv(config.combo.value, reports["train"], reports["test"],
                                            reports.get("independent")))

    with _stage("explain"):
        importance = explain(model, prepared.train, config)
        importance_path = reports_dir / "importance.csv"
        importance_path.write_text(importance.to_csv())

    return RunResult(
        run_dir=run_dir,
        reports=reports,
        hyperparameters=hp,
        model_path=model_path,
        summary_path=summary_path,
        importance_path=importance_path,
        importance_ranking=importance.ranking,
    )
