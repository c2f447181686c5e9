"""The four benchmark workloads.

Each workload writes its own inputs from the ``rfclass.synth`` presets and a
seed (set-up), then repeats one operation through rfclass's public functions.
The program sees only the CSV files and the config the set-up wrote. Every
operation's outputs are checked; a failed check counts the operation as
failed. Each outcome also carries a digest of its outputs, which must repeat
within a run (the program promises byte-identical results for equal inputs)
and is compared with the reference digests in ``fingerprints.json``.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import rfclass.booster
import rfclass.cli
import rfclass.dataset
import rfclass.explain
import rfclass.synth
import rfclass.tuner

#: Hyperparameters of the acceptance runs (60 rounds at depth 4).
ACCEPTANCE_HP = {
    "max_depth": 4, "min_child_weight": 2, "learning_rate": 0.1,
    "subsample": 0.9, "colsample_bytree": 1.0, "colsample_bylevel": 1.0,
    "alpha": 0.2, "lambda": 0.03, "gamma": 0.01, "max_delta_step": 0.2,
    "num_class": 10, "num_rounds": 60,
}

_PRESET = {"TORIS": "toris", "Commercial": "commercial", "Atlas": "atlas"}
_COMBO_SOURCES = {"TC": ("TORIS", "Commercial"), "TCA": ("TORIS", "Commercial", "Atlas")}
_N_CLASSES = 10


@dataclass
class Outcome:
    """What one operation produced, as seen by the checks."""

    errors: list[str] = field(default_factory=list)
    digest: dict[str, str] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    layer_counts: dict[str, float] = field(default_factory=dict)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _derive(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index * 7919) % (2**31 - 1)


def _rf_class(rf: float) -> int:
    return min(int(math.floor(rf * 10.0)), _N_CLASSES - 1)


def _read_prepared(path: Path, feature_names) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix (in the model's feature order) and RF classes of a
    prepared CSV, read without the program's parser."""
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    cols = [header.index(name) for name in feature_names]
    rf_col = header.index("RF")
    X = np.array([[float(row[c]) for c in cols] for row in rows[1:]], dtype=float)
    y = np.array([_rf_class(float(row[rf_col])) for row in rows[1:]], dtype=np.int64)
    return X, y


def _write_source(path: Path, source: str, n: int, seed: int, rename=None) -> int:
    """Generate one source database to CSV; returns its record count.

    ``rename`` maps record positions to replacement keys (duplicate
    injection); the keys are written in another case and spacing, which the
    program must normalise before de-duplicating.
    """
    db = rfclass.synth.generate(rfclass.synth.preset(_PRESET[source]), n, seed)
    if rename:
        records = list(db.records)
        for pos, key in rename.items():
            records[pos] = replace(records[pos], key=key)
        db = db.with_records(records)
    path.write_text(rfclass.dataset.serialize_database(db))
    return len(db)


def _quiet_main(argv: list[str]) -> tuple[int, str]:
    """rfclass.cli.main with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rfclass.cli.main(argv)
    return code, err.getvalue().strip()


def _cli_or_raise(argv: list[str]) -> None:
    code, err = _quiet_main(argv)
    if code != 0:
        raise RuntimeError(f"rfclass {argv[0]} exited {code}: {err}")


def _accuracy_check(outcome: Outcome, model, run_dir: Path, csv_name: str, role: str) -> None:
    """Reloaded model + prepared CSV must reproduce the reported accuracy."""
    X, y = _read_prepared(run_dir / csv_name, model.feature_names)
    accuracy = float(np.mean(rfclass.booster.predict_class(model, X) == y))
    reported = json.loads((run_dir / "reports" / f"{role}.json").read_text())
    if abs(accuracy - reported["accuracy"]) > 1e-12:
        outcome.errors.append(f"{role}: reloaded model scores {accuracy}, "
                              f"report says {reported['accuracy']}")
    outcome.quality[f"{role}_accuracy"] = reported["accuracy"]
    if role == "independent":
        outcome.quality["independent_macro_f1"] = reported["macro_f1"]


class Workload:
    #: unit of work for the throughput line, e.g. merged input records
    items_name = ""

    def __init__(self, seed: int, sizes: dict):
        self.seed = seed
        self.sizes = sizes
        self.items_per_op = 0

    def setup(self, work: Path) -> None:
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def check(self, result) -> Outcome:
        raise NotImplementedError

    def after_op(self) -> None:
        """Remove what the operation left behind (outside the timed region)."""


class RunWorkload(Workload):
    """One ``rfclass run`` from CSV sources into a fresh run directory."""

    items_name = "records_per_s"

    def setup(self, work: Path) -> None:
        s = self.sizes
        sources = _COMBO_SOURCES[s["combo"]]
        needed = sources + (("Atlas",) if s["combo"] == "TC" else ())
        paths = {}
        renames = self._duplicate_keys(s["n"]) if s.get("dup_fraction") else {}
        self.injected = len(renames)
        total = 0
        for index, source in enumerate(needed):
            path = work / f"{source.lower()}.csv"
            count = _write_source(path, source, s["n"], _derive(self.seed, 1 + index),
                                  renames if source == "Commercial" else None)
            if source in sources:
                total += count
            paths[source] = {"path": str(path)}
        self.items_per_op = total
        hp = dict(ACCEPTANCE_HP, **s.get("hp", {}))
        config = {
            "combo": s["combo"], "seed": self.seed, "sources": paths,
            "hyperparameters": hp, "shap_sample": s["shap_sample"],
        }
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(config, indent=1, sort_keys=True))
        self.run_dir = work / "run"

    def _duplicate_keys(self, n: int) -> dict[int, str]:
        """Positions of Commercial records and the distinct TORIS keys they repeat."""
        rng = np.random.default_rng(_derive(self.seed, 99))
        count = int(round(self.sizes["dup_fraction"] * n))
        positions = rng.choice(n, size=count, replace=False)
        targets = rng.choice(n, size=count, replace=False)
        return {int(p): f"  TORIS-{int(t):05d} " for p, t in zip(positions, targets)}

    def op(self):
        return _quiet_main(["run", "--config", str(self.config_path), "--out", str(self.run_dir)])

    def check(self, result) -> Outcome:
        code, err = result
        outcome = Outcome()
        if code != 0:
            outcome.errors.append(f"rfclass run exited {code}: {err}")
            return outcome
        run_dir = self.run_dir
        model_bytes = (run_dir / "model.json").read_bytes()
        model = rfclass.booster.load_ensemble(model_bytes.decode())
        _accuracy_check(outcome, model, run_dir, "test.csv", "test")
        if (run_dir / "independent.csv").exists():
            _accuracy_check(outcome, model, run_dir, "independent.csv", "independent")
        meta = json.loads((run_dir / "preprocess_meta.json").read_text())
        dropped = self.items_per_op - meta["records_ingested"]
        if dropped != self.injected:
            outcome.errors.append(f"de-duplication dropped {dropped} records, "
                                  f"{self.injected} duplicate keys were injected")
        outcome.digest = {
            "model.json": _sha(model_bytes),
            "summary.csv": _sha((run_dir / "reports" / "summary.csv").read_bytes()),
            "importance.csv": _sha((run_dir / "reports" / "importance.csv").read_bytes()),
        }
        outcome.layer_counts["pipeline.artifact_bytes"] = sum(
            p.stat().st_size for p in run_dir.rglob("*") if p.is_file())
        return outcome

    def after_op(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)


def _prepare_tc(work: Path, seed: int, n: int, hp: dict) -> Path:
    """Write TC sources and a config, then ingest and preprocess them with the
    CLI; returns the directory holding train.csv."""
    paths = {}
    for index, source in enumerate(_COMBO_SOURCES["TC"]):
        path = work / f"{source.lower()}.csv"
        _write_source(path, source, n, _derive(seed, 1 + index))
        paths[source] = {"path": str(path)}
    config = work / "config.json"
    config.write_text(json.dumps({"combo": "TC", "seed": seed, "sources": paths,
                                  "hyperparameters": hp}, sort_keys=True))
    _cli_or_raise(["ingest", "--config", str(config), "--out", str(work / "merged.csv")])
    _cli_or_raise(["preprocess", "--config", str(config), "--data", str(work / "merged.csv"),
                   "--out", str(work / "prepared")])
    return work / "prepared"


def _parse_prepared(path: Path) -> rfclass.dataset.Database:
    text = path.read_text()
    names = [h for h in text.splitlines()[0].split(",") if h not in ("key", "source", "RF")]
    schema = rfclass.dataset.canonical_schema().subset(names)
    return rfclass.dataset.parse_database(text, rfclass.dataset.DatabaseTag.TC, schema)


class TuneWorkload(Workload):
    """One pairwise grid search with k-fold CV on a prepared TC training set."""

    items_name = "evaluations_per_s"

    def setup(self, work: Path) -> None:
        s = self.sizes
        prepared = _prepare_tc(work, self.seed, s["n"], ACCEPTANCE_HP)
        self.train_db = _parse_prepared(prepared / "train.csv")
        self.grid = rfclass.tuner.SearchGrid(
            candidates=s["candidates"], pairs=s["pairs"], max_sweeps=1)
        self.start = rfclass.booster.Hyperparameters(**s["start"])
        # the start setting plus every candidate of every pair, once per sweep
        self.items_per_op = 1 + sum(math.prod(len(s["candidates"][name]) for name in pair)
                                    for pair in s["pairs"])

    def op(self):
        return rfclass.tuner.pairwise_grid_search(
            self.train_db, self.grid, _derive(self.seed, 20), k=self.sizes["k"], start=self.start)

    def check(self, result) -> Outcome:
        outcome = Outcome()
        hp = result.hyperparameters
        for name, values in self.grid.candidates.items():
            if getattr(hp, name) not in values:
                outcome.errors.append(f"adopted {name}={getattr(hp, name)} is not a candidate")
        restored = {name: getattr(self.start, name) for name in self.grid.candidates}
        if replace(hp, **restored) != self.start:
            outcome.errors.append("the search changed a hyperparameter it was not asked to tune")
        if not (math.isfinite(result.cv_score) and result.cv_score > 0):
            outcome.errors.append(f"CV score is not a finite positive loss: {result.cv_score}")
        if result.evaluations + 1 != self.items_per_op:
            outcome.errors.append(f"{result.evaluations} candidates scored, "
                                  f"expected {self.items_per_op - 1}")
        outcome.quality["cv_mlogloss"] = result.cv_score
        outcome.digest = {
            "hyperparameters": _sha(json.dumps(hp.to_dict(), sort_keys=True).encode()),
            "cv_score": _sha(float(result.cv_score).hex().encode()),
        }
        return outcome


class ExplainWorkload(Workload):
    """TreeSHAP attribution and importance aggregation over sampled rows of a
    trained TC model."""

    items_name = "shap_rows_per_s"

    def setup(self, work: Path) -> None:
        s = self.sizes
        hp = dict(ACCEPTANCE_HP, **s.get("hp", {}))
        prepared = _prepare_tc(work, self.seed, s["n"], hp)
        config = work / "config.json"
        model_path = work / "model.json"
        _cli_or_raise(["train", "--config", str(config), "--train", str(prepared / "train.csv"),
                       "--out", str(model_path)])
        self.model = rfclass.booster.load_ensemble(model_path.read_text())
        X, _ = _read_prepared(prepared / "train.csv", self.model.feature_names)
        rng = np.random.default_rng(_derive(self.seed, 40))
        self.X = X[np.sort(rng.choice(X.shape[0], size=s["rows"], replace=False))]
        self.margins = self.model.margins(self.X)
        self.items_per_op = s["rows"]

    def op(self):
        attribution = rfclass.explain.attribute(self.model, self.X)
        return attribution, rfclass.explain.aggregate_importance(attribution)

    def check(self, result) -> Outcome:
        attribution, summary = result
        outcome = Outcome()
        n, k, d = self.X.shape[0], self.model.hp.num_class, self.model.num_features
        if attribution.phi.shape != (n, k, d) or summary.per_class.shape != (k, d):
            outcome.errors.append(f"attribution shape {attribution.phi.shape}, expected {(n, k, d)}")
            return outcome
        gap = np.abs(attribution.base[None, :] + attribution.phi.sum(axis=2) - self.margins)
        if not gap.max() <= 1e-6:
            outcome.errors.append(f"base + sum(phi) misses the margin by {gap.max():.3g}")
        outcome.digest = {
            "phi": _sha(attribution.phi.tobytes() + attribution.base.tobytes()),
        }
        return outcome


WORKLOADS = {
    "pipeline_tc": RunWorkload,
    "tune_tc": TuneWorkload,
    "explain_tc": ExplainWorkload,
    "ingest_tca_large": RunWorkload,
}

#: Benchmark sizes. ``tiny`` is the self-test's size for the same code paths.
SIZES = {
    "full": {
        "pipeline_tc": {"combo": "TC", "n": 2000, "shap_sample": 40},
        "tune_tc": {
            "n": 600, "k": 5,
            "candidates": {"learning_rate": [0.1, 0.2], "num_rounds": [10, 20],
                           "max_depth": [2, 3]},
            "pairs": (("learning_rate", "num_rounds"), ("max_depth",)),
            "start": {"learning_rate": 0.1, "num_rounds": 10, "max_depth": 2},
        },
        "explain_tc": {"n": 1000, "rows": 150},
        "ingest_tca_large": {"combo": "TCA", "n": 15000, "dup_fraction": 0.3,
                             "shap_sample": 5, "hp": {"num_rounds": 1, "max_depth": 2}},
    },
    "tiny": {
        "pipeline_tc": {"combo": "TC", "n": 200, "shap_sample": 4,
                        "hp": {"num_rounds": 3, "max_depth": 2}},
        "tune_tc": {
            "n": 150, "k": 2,
            "candidates": {"learning_rate": [0.1, 0.2], "num_rounds": [1, 2],
                           "max_depth": [2, 3]},
            "pairs": (("learning_rate", "num_rounds"), ("max_depth",)),
            "start": {"learning_rate": 0.1, "num_rounds": 1, "max_depth": 2},
        },
        "explain_tc": {"n": 150, "rows": 6, "hp": {"num_rounds": 3}},
        "ingest_tca_large": {"combo": "TCA", "n": 400, "dup_fraction": 0.3,
                             "shap_sample": 4, "hp": {"num_rounds": 1, "max_depth": 2}},
    },
}
