"""End-to-end workflow, one function per stage: ingest -> preprocess ->
tune -> train (`fit`) -> evaluate (one role per call) -> explain.

`run_pipeline` calls the stages in order, passing results in memory, and
writes a self-describing directory: config snapshot with versions,
preprocessed datasets with an audit sidecar, tuning trace, serialized
model, per-role evaluation reports, importance summary, and a one-row
summary table. It builds the directory beside `out_dir` and publishes it
whole once the last stage ends, so a run that fails leaves `out_dir` as it
was. merged.csv is written with the prepared sets at the end of the
preprocess stage, each file by a forked worker when the run is large
enough (`Prepared.write`). Each `rfclass` subcommand calls the same stage
function on the files it reads, so its outputs equal the run directory's
files. Two runs with equal config and seed produce byte-identical
artifacts.

Every input file, the config, the sources, the prepared CSVs, a `--hp` file
and a model, is read by `read_input`, which turns a file that is missing or
cannot be read as text into one error naming it.
"""

import json
import os
import platform
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from . import __version__
from .booster import (Ensemble, Hyperparameters, forked, json_fields, json_value,
                      predict_class, serialize_ensemble, train)
from .dataset import (Database, DatabaseTag, FeatureSchema, canonical_schema, deduplicate,
                      merge, parse_database, parse_tag, serialize_database)
from .errors import ConfigError, IngestError, PipelineError
from .explain import ImportanceSummary, importance_from_database
from .metrics import EvaluationReport, summary_csv
from .preprocess import (PruneSpec, SplitSpec, apply_transforms, complete_cases,
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

#: The file every run directory holds; `run_pipeline` replaces only a
#: directory that has it, or an empty one.
SNAPSHOT = "config_snapshot.json"

#: Share of each class of the training set held out as the early-stopping
#: eval set when `early_stopping_patience` is set.
EARLY_STOPPING_FRACTION = 0.1

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

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"synth.n must be at least 1, got {self.n}")
        for tag in DatabaseTag.TCA.source_tags:  # a divergence a preset rejects
            preset(tag.value, self.divergence)


def _build(section: str, make, *args, **kwargs):
    """`make(*args, **kwargs)`; a bad value's error becomes a ConfigError naming `section`."""
    try:
        return make(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad {section}: {exc}") from None


def _read(kind, value, where: str, skip=(), make=None):
    """`make` (by default `kind`) called with the fields of `kind` that the
    JSON object `value` holds."""
    return _build(where, make or kind, **json_fields(kind, value, where, skip))


@dataclass(frozen=True)
class PipelineConfig:
    """A run's settings, one field per config key; `schema` is the canonical
    schema under `range_overrides`, and stages set `split.seed`."""

    combo: DatabaseTag
    seed: int = 0
    sources: dict[DatabaseTag, SourceConfig] | None = None
    synth: SynthConfig | None = None
    split: SplitSpec = SplitSpec()
    hyperparameters: Hyperparameters | None = None
    grid: SearchGrid | None = None
    prune: PruneSpec = PruneSpec()
    range_overrides: dict[str, list[float]] = field(default_factory=dict)
    shap_sample: int = 100
    early_stopping_patience: int | None = None
    raw: dict = field(default_factory=dict, compare=False)
    schema: FeatureSchema = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """The rules across fields and the counts' ranges. A config built in
        Python gets the ValueError whose message `from_dict` turns into a
        ConfigError."""
        if self.combo.is_source:
            raise ValueError(f"combo must be a merge combination, got {self.combo.value}")
        if (self.sources is None) == (self.synth is None):
            raise ValueError("config needs exactly one of 'sources' or 'synth'")
        if self.sources is not None:
            for tag in self.sources:
                if not tag.is_source:
                    raise ValueError(f"source entry {tag.value!r} is not a source database")
            lacking = [tag.value for tag in self.combo.source_tags if tag not in self.sources]
            if lacking:
                raise ValueError(f"combo {self.combo.value} needs 'sources' entries for "
                                 f"{', '.join(lacking)}")
        if self.hyperparameters is not None and self.grid is not None:
            raise ValueError("provide either fixed 'hyperparameters' or a 'grid', not both")
        for name in ("shap_sample", "early_stopping_patience"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        for name, bounds in self.range_overrides.items():
            if len(bounds) != 2:
                raise ValueError(f"range_overrides entry {name!r} must be a [lo, hi] pair of "
                                 f"numbers, got {bounds!r}")
        object.__setattr__(self, "schema", canonical_schema(self.range_overrides))

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        """The config of a JSON document. `json_fields` reads it and each of
        its sections into new dicts, so `raw` keeps `data` as written, and the
        settings' constructors check ranges, so a bad value fails before any
        stage."""
        try:
            kw = json_fields(cls, data, "config", skip=("raw",))
            kw["combo"] = parse_tag(json_value(kw["combo"], str, "config.combo"))
            if kw.get("sources") is not None:
                names, sources = {}, {}
                for name, spec in kw["sources"].items():
                    tag = parse_tag(name)  # ignores case, so two keys may name one source
                    if tag in names:
                        raise ValueError(f"sources {names[tag]!r} and {name!r} both name "
                                         f"{tag.value}")
                    names[tag] = name
                    sources[tag] = _read(SourceConfig, spec, f"source entry {name!r}")
                kw["sources"] = sources
            if kw.get("synth") is not None:
                kw["synth"] = _read(SynthConfig, kw["synth"], "synth")
            if "split" in kw:  # the stages set the seed
                kw["split"] = _read(SplitSpec, kw["split"], "split", skip=("seed",))
            if "prune" in kw:
                kw["prune"] = _read(PruneSpec, kw["prune"], "prune")
            if kw.get("grid") is not None:  # "grid": {} asks for the default search space
                kw["grid"] = _read(SearchGrid, kw["grid"], "grid",
                                   make=partial(replace, default_grid()))
            if kw.get("hyperparameters") is not None:
                kw["hyperparameters"] = _build("hyperparameters", Hyperparameters.from_dict,
                                               kw["hyperparameters"])
            return cls(**kw, raw=data)
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


@contextmanager
def _stage(name: str):
    """Tag any error raised inside the block with the stage's name; one
    already tagged by an inner stage passes unchanged."""
    try:
        yield
    except StageFailure:
        raise
    except Exception as exc:
        raise StageFailure(name, exc) from exc


def _stage_seed(seed: int, index: int) -> int:
    # cheap deterministic derivation; stages never share a stream
    return (seed * 2654435761 + index * 97003) % (2**31 - 1)


#: Characters of CSV text encoded and written at a time. `Path.write_text`
#: encodes the whole text into a second buffer as large, which set the
#: peak memory of a run that writes its prepared sets.
WRITE_SLICE = 1 << 20


def write_csv(path, db: Database) -> None:
    """Write `db` as CSV to `path`, WRITE_SLICE characters at a time; the
    bytes are those of `Path.write_text(serialize_database(db))`."""
    text = serialize_database(db)
    with open(path, "w") as out:
        for start in range(0, len(text), WRITE_SLICE):
            out.write(text[start:start + WRITE_SLICE])


def _dump_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def read_input(path, what: str, error=PipelineError) -> str:
    """The text of the input file at `path`. A file that is missing, is not
    a readable file or is not UTF-8 raises `error`, naming `what` and the
    file. The config, the sources, the prepared CSVs, `--hp` files and
    models are all read here."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # an OSError's own message repeats the path
        raise error(f"cannot read {what} {path}: {reason}") from None


def load_sources(config: PipelineConfig, tags) -> list[Database]:
    """Parse or generate each source database in `tags`, in that order."""
    out = []
    for tag in tags:
        if config.sources is not None:
            src = config.sources[tag]
            text = read_input(src.path, f"source {tag.value}")
            try:
                out.append(parse_database(
                    text, tag, config.schema,
                    key_column=src.key_column, rf_column=src.rf_column,
                    column_map=src.column_map,
                ))
            except IngestError as exc:  # the message alone fits any source
                raise IngestError(f"{exc} (source {tag.value}: {src.path})") from None
        else:
            spec = preset(tag.value, config.synth.divergence)
            seed = _stage_seed(config.seed, 1 + list(DatabaseTag).index(tag))
            # generated under the default schema; rebuild under the override one
            out.append(replace(generate(spec, config.synth.n, seed), schema=config.schema))
    return out


def read_prepared(path, what: str, config: PipelineConfig) -> Database:
    """Parse the CSV `what` that a stage wrote (merged, train, test or
    independent set), under the config's schema restricted to the file's
    feature columns."""
    text = read_input(path, what)
    try:
        names = [h.strip() for h in text.partition("\n")[0].split(",")
                 if h.strip() not in ("key", "source", "RF")]
        schema = config.schema.subset(names)
        if len(schema.names) != len(names):  # non-canonical feature set
            raise PipelineError(f"unrecognized feature columns in {path}")
        return parse_database(text, config.combo, schema)
    except IngestError as exc:  # the message alone fits any file
        raise IngestError(f"{exc} ({path})") from None


def ingest(config: PipelineConfig) -> Database:
    """Load the combination's source databases, merge them and drop repeated keys."""
    return deduplicate(merge(load_sources(config, config.combo.source_tags), config.combo))


def held_out(config: PipelineConfig) -> Database | None:
    """The database the combination holds out: None for TCA, and when the
    config's `sources` do not list it."""
    tag = INDEPENDENT_SOURCE[config.combo]
    if tag is None or (config.sources is not None and tag not in config.sources):
        return None
    return load_sources(config, [tag])[0]


def _cells(item) -> int:
    """The cells of the file written from `item`: a database's rows times
    its columns, or the values of a JSON document, a list counting its
    items."""
    if isinstance(item, Database):
        return len(item) * (len(item.schema.names) + 3)
    if isinstance(item, dict):
        return sum(map(_cells, item.values()))
    return len(item) if isinstance(item, list) else 1


class Prepared(NamedTuple):
    train: Database
    test: Database
    independent: Database | None
    meta: dict

    def write(self, out: Path, merged: Database | None = None) -> None:
        """Write merged.csv (when given), train.csv, test.csv,
        independent.csv (when prepared) and preprocess_meta.json into `out`.

        Each file is one `forked` task, so on two CPUs two files are
        serialized and written at once. The sets reach the workers through
        the fork, held by the task, whose argument is an index: no database
        and no text is pickled either way. The tasks go largest first by
        `_cells`, so that dealing them by index gives the workers like
        shares. A write that fails raises its error here, and the CSV files
        other tasks wrote stay. The meta is written under a hidden name and
        put in place only once every file is written, so a new meta never
        sits beside the CSV files of an earlier write into `out`.
        """
        part = out / ".preprocess_meta.json.part"
        files = {"merged.csv": merged, "train.csv": self.train, "test.csv": self.test,
                 "independent.csv": self.independent, part.name: self.meta}
        sizes = {name: _cells(item) for name, item in files.items() if item is not None}
        names = sorted(sizes, key=lambda name: -sizes[name])

        def write(i: int) -> None:
            item = files[names[i]]
            if isinstance(item, Database):
                write_csv(out / names[i], item)
            else:
                _dump_json(out / names[i], item)

        try:
            with forked(write, PipelineError("a file writer process exited mid-write"),
                        len(names), cells=sum(sizes.values())) as run:
                run([(i,) for i in range(len(names))])
            part.replace(out / "preprocess_meta.json")
        finally:
            part.unlink(missing_ok=True)


def preprocess(merged: Database, config: PipelineConfig,
               independent: Database | None = None) -> Prepared:
    """Range filter, prune, split, impute and transform a merged database,
    and prepare the held-out `independent` database when one is given.

    Transform parameters are fitted on the training set; `meta` is the audit
    record of preprocess_meta.json.
    """
    filtered = filter_ranges(merged)
    pruned = prune_missing(filtered, config.prune)
    train_db, test_db = stratified_split(
        pruned, replace(config.split, seed=_stage_seed(config.seed, 10)))
    if not len(test_db):  # stratified_split holds out a record of each class of two or more
        raise PipelineError(f"the test set is empty: no class of the {len(pruned)} records "
                            f"left after pruning has two members")
    imputed_counts = {}
    for role, db in (("train", train_db), ("test", test_db)):
        missing = np.isnan(db.values).sum(axis=0)
        empty = np.flatnonzero(missing == len(db))
        if empty.size:  # pruning saw the whole set, imputation sees one split
            j = empty[0]
            raise PipelineError(
                f"feature {db.schema.names[j]!r} is missing from every record of the {role} "
                f"split; prune.feature_threshold {config.prune.feature_threshold} kept it, "
                f"as it is missing from {np.isnan(pruned.values[:, j]).sum()} of all "
                f"{len(pruned)} records")
        imputed_counts[role] = dict(zip(db.schema.names, missing.tolist()))
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


def tune(train_t: Database, config: PipelineConfig) -> tuple[Hyperparameters, str | None]:
    """The pairwise search's pick and its trace as JSON lines when the config
    has a `grid`, else the fixed `hyperparameters` or the defaults and no trace."""
    if config.grid is None:
        return config.hyperparameters or Hyperparameters(), None
    result = pairwise_grid_search(train_t, config.grid, _stage_seed(config.seed, 20),
                                  k=config.split.k_folds)
    return result.hyperparameters, "".join(json.dumps(e, sort_keys=True) + "\n"
                                           for e in result.trace)


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


def _check_out(out: Path) -> None:
    """Refuse an `out_dir` that publishing a run would destroy: a file, or a
    non-empty directory that holds no run."""
    if out.exists() and not out.is_dir():
        raise PipelineError(f"run directory {out} is a file")
    if out.is_dir() and not (out / SNAPSHOT).exists() and any(out.iterdir()):
        raise ConfigError(f"run directory {out} is not empty and holds no run "
                          f"(no {SNAPSHOT}); it is left as it is")


def run_pipeline(config: PipelineConfig, out_dir: str | Path) -> RunResult:
    """Run every stage, then publish the run directory at `out_dir` whole.

    The run is written into a holder directory made beside `out_dir`. After
    the last stage, an earlier run or an empty directory at `out_dir` moves
    into the holder and the new run takes its place. The holder is then
    deleted, as it is when a stage fails or the run is interrupted, so a run
    that does not finish leaves `out_dir` as it was.
    """
    out = Path(out_dir)
    _check_out(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    holder = Path(tempfile.mkdtemp(prefix=".rfclass-run-", dir=out.parent))
    try:
        run_dir = holder / "run"
        reports_dir = run_dir / "reports"
        reports_dir.mkdir(parents=True)  # under the umask: mkdtemp's own mode is 0700
        _dump_json(run_dir / SNAPSHOT, {
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

        with _stage("preprocess"):  # merged.csv is written with the prepared sets
            prepared = preprocess(merged, config, held_out(config))
            prepared.write(run_dir, merged)

        with _stage("tune"):
            hp, trace = tune(prepared.train, config)
            _dump_json(run_dir / "hyperparameters.json", hp.to_dict())
            if trace is not None:
                (run_dir / "tuning_trace.jsonl").write_text(trace)

        with _stage("train"):
            model = fit(prepared.train, hp, config)
            (run_dir / "model.json").write_text(serialize_ensemble(model))

        with _stage("evaluate"):
            roles = (("train", prepared.train), ("test", prepared.test),
                     ("independent", prepared.independent))
            reports = {role: evaluate(model, db, role, config)
                       for role, db in roles if db is not None}
            for role, report in reports.items():
                _dump_json(reports_dir / f"{role}.json", report.to_dict())
                (reports_dir / f"bubbles_{role}.csv").write_text(report.bubbles_csv())
            (reports_dir / "summary.csv").write_text(summary_csv(
                config.combo.value, reports["train"], reports["test"], reports.get("independent")))

        with _stage("explain"):
            importance = explain(model, prepared.train, config)
            (reports_dir / "importance.csv").write_text(importance.to_csv())

        if out.exists():  # an earlier run or an empty directory, as `_check_out` allows
            os.replace(out, holder / "previous")
        os.replace(run_dir, out)
    finally:
        shutil.rmtree(holder, ignore_errors=True)

    return RunResult(
        run_dir=out,
        reports=reports,
        hyperparameters=hp,
        model_path=out / "model.json",
        summary_path=out / "reports" / "summary.csv",
        importance_path=out / "reports" / "importance.csv",
        importance_ranking=importance.ranking,
    )
