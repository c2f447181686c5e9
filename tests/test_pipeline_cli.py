import contextlib
import copy
import functools
import json
import math
import multiprocessing
import operator
import os
import shutil
import stat
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfclass import booster, cli, explain, pipeline, tuner
from rfclass.cli import main
from rfclass.errors import ConfigError, PipelineError, TrainingError
from rfclass.booster import Hyperparameters
from rfclass.pipeline import (INDEPENDENT_SOURCE, PipelineConfig, StageFailure,
                              SynthConfig, run_pipeline)
from rfclass.dataset import DatabaseTag, serialize_database
from rfclass.synth import generate, preset
from rfclass.tuner import default_grid

from conftest import bounded_wait

FAST_HP = {
    "max_depth": 3, "min_child_weight": 1, "learning_rate": 0.2,
    "subsample": 1.0, "colsample_bytree": 1.0, "colsample_bylevel": 1.0,
    "alpha": 0.1, "lambda": 0.05, "gamma": 0.0, "max_delta_step": 0.2,
    "num_class": 10, "num_rounds": 8,
}


def _prepared(path):
    """Feature rows of a prepared CSV, in file order."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cols = [i for i, name in enumerate(header) if name not in ("key", "source", "RF")]
    return [[float(line.split(",")[i]) for i in cols] for line in lines[1:]]


def _row_set(rows):
    return {tuple(float(v) for v in row) for row in rows}


def _write_sources(tmp_path, names, n=200):
    """A `sources` config object: one generated CSV in tmp_path per database name."""
    sources = {}
    for index, name in enumerate(names):
        path = tmp_path / f"{name}.csv"
        path.write_text(serialize_database(generate(preset(name.lower()), n, seed=index)))
        sources[name] = {"path": str(path)}
    return sources


def _file_bytes(root):
    """Every file under `root`, by relative path."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


#: Valid configs that between them set every config key.
VALID_CONFIGS = [
    {"combo": "TC", "seed": 3, "synth": {"n": 50, "divergence": 1.5},
     "split": {"test_fraction": 0.2, "k_folds": 3}, "hyperparameters": dict(FAST_HP),
     "prune": {"feature_threshold": 0.7, "record_threshold": 0.55},
     "range_overrides": {"gor": [0, 60], "bo": [1.0, 2.5]}, "shap_sample": 5,
     "early_stopping_patience": 2},
    {"combo": "TCA", "sources": {
        "TORIS": {"path": "toris.csv", "key_column": "name", "rf_column": "rf",
                  "column_map": {"gor": "GOR", "bo": "Bo"}},
        "Commercial": {"path": "commercial.csv"}, "Atlas": {"path": "atlas.csv"}},
     "grid": {"candidates": {"max_depth": [2, 3], "learning_rate": [0.1, 0.2],
                             "lambda_": [0.01]},
              "pairs": [["max_depth", "learning_rate"], ["lambda_"]], "max_sweeps": 2}},
    {"combo": "CA", "synth": {}, "grid": {"max_sweeps": 1}},
]

JSON_VALUES = st.sampled_from([None, True, False, 0, -1, 7, 0.5, "TC", "x", [], [1], [[1]],
                               {}, {"a": 1}])
EXTREME_NUMBERS = st.one_of(
    st.integers(), st.floats(),
    st.sampled_from([-1, 0, 1, 2, 1.0, 1.5, -0.5, 10**400, -10**400, 2**63, 1e308]))


def _locations(doc, path=()):
    """The path of every value inside `doc`, nested ones included."""
    if not isinstance(doc, (dict, list)):
        return
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield path + (key,)
        yield from _locations(value, path + (key,))


def tiny_config(combo="TC", seed=5, **extra):
    data = {
        "combo": combo,
        "seed": seed,
        "synth": {"n": 350, "divergence": 1.0},
        "hyperparameters": dict(FAST_HP),
        "shap_sample": 12,
    }
    data.update(extra)
    return PipelineConfig.from_dict(data)


class TestConfigValidation:
    def test_missing_combo(self):
        with pytest.raises(ConfigError, match="combo"):
            PipelineConfig.from_dict({"synth": {"n": 10}})

    def test_source_tag_not_allowed_as_combo(self):
        with pytest.raises(ConfigError, match="merge combination"):
            PipelineConfig.from_dict({"combo": "TORIS", "synth": {"n": 10}})

    def test_needs_exactly_one_data_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            PipelineConfig.from_dict({"combo": "TC"})
        with pytest.raises(ConfigError, match="exactly one"):
            PipelineConfig.from_dict({
                "combo": "TC", "synth": {"n": 10},
                "sources": {"TORIS": {"path": "x.csv"}},
            })

    def test_hp_and_grid_conflict(self):
        with pytest.raises(ConfigError, match="not both"):
            PipelineConfig.from_dict({
                "combo": "TC", "synth": {"n": 10},
                "hyperparameters": FAST_HP,
                "grid": {"candidates": {"max_depth": [2]},
                         "pairs": [["max_depth"]]},
            })

    @pytest.mark.parametrize("grid, message", [
        ({"pairs": [["max_depth"]]}, "bad grid"), ({"candidates": {}}, "bad grid"),
        ({"candidates": 0, "pairs": 5}, "grid.candidates must be a JSON object")],
        ids=["pairs_only", "empty_candidates", "falsy_candidates"])
    def test_grid_entries_never_fall_back_to_the_default_grid(self, grid, message):
        with pytest.raises(ConfigError, match=message):
            PipelineConfig.from_dict({"combo": "TC", "synth": {}, "grid": grid})

    def test_bad_hyperparameters(self):
        with pytest.raises(ConfigError, match="bad hyperparameters"):
            PipelineConfig.from_dict({
                "combo": "TC", "synth": {"n": 10},
                "hyperparameters": {"max_depth": 0},
            })

    @pytest.mark.parametrize("settings_, doc, message", [
        ({"synth": SynthConfig(), "shap_sample": 0}, {"synth": {}, "shap_sample": 0},
         "shap_sample must be at least 1"),
        ({}, {}, "exactly one of 'sources' or 'synth'"),
        ({"synth": SynthConfig(), "hyperparameters": Hyperparameters(), "grid": default_grid()},
         {"synth": {}, "hyperparameters": {}, "grid": {}}, "not both"),
    ], ids=["shap_sample_zero", "no_data_source", "hyperparameters_and_grid"])
    def test_config_built_in_python_is_refused_like_json(self, settings_, doc, message):
        with pytest.raises(ValueError, match=message):
            PipelineConfig(combo=DatabaseTag.TC, **settings_)
        with pytest.raises(ConfigError, match=message):
            PipelineConfig.from_dict({"combo": "TC", **doc})

    def test_defaults_are_the_settings_objects_defaults(self):
        assert (PipelineConfig.from_dict({"combo": "TC", "synth": {}})
                == PipelineConfig(combo=DatabaseTag.TC, synth=SynthConfig()))

    def test_bad_json(self):
        with pytest.raises(ConfigError, match="valid JSON"):
            PipelineConfig.from_json("{nope")

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_mutated_configs_raise_only_config_errors(self, data):
        doc = copy.deepcopy(data.draw(st.sampled_from(VALID_CONFIGS)))
        for _ in range(data.draw(st.integers(1, 3))):
            *path, key = data.draw(st.sampled_from(list(_locations(doc))))
            parent = functools.reduce(operator.getitem, path, doc)
            mutation = data.draw(st.sampled_from(["drop", "retype", "out_of_range"]))
            if mutation == "drop":
                del parent[key]
            else:
                value = data.draw(JSON_VALUES if mutation == "retype" else EXTREME_NUMBERS)
                parent[key] = copy.deepcopy(value)  # the sampled values are shared
        try:
            config = PipelineConfig.from_dict(json.loads(json.dumps(doc)))
        except ConfigError:
            return
        assert isinstance(config, PipelineConfig)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_models_raise_only_value_errors(self, trained_run, data):
        doc = json.loads((trained_run / "model.json").read_text())
        for _ in range(data.draw(st.integers(1, 3))):
            *path, key = data.draw(st.sampled_from(list(_locations(doc))))
            parent = functools.reduce(operator.getitem, path, doc)
            mutation = data.draw(st.sampled_from(["drop", "retype", "out_of_range"]))
            if mutation == "drop":
                del parent[key]
            else:
                value = data.draw(JSON_VALUES if mutation == "retype" else EXTREME_NUMBERS)
                parent[key] = copy.deepcopy(value)  # the sampled values are shared
        text = json.dumps(doc)
        try:
            model = booster.load_ensemble(text)
        except ValueError:
            return
        # a document that loads is one serialize_ensemble writes
        assert json.loads(booster.serialize_ensemble(model)) == json.loads(text)

    def test_independent_mapping(self):
        assert INDEPENDENT_SOURCE[DatabaseTag.TC] is DatabaseTag.ATLAS
        assert INDEPENDENT_SOURCE[DatabaseTag.TA] is DatabaseTag.COMMERCIAL
        assert INDEPENDENT_SOURCE[DatabaseTag.CA] is DatabaseTag.TORIS
        assert INDEPENDENT_SOURCE[DatabaseTag.TCA] is None


class TestRunPipeline:
    def test_tc_run_artifacts(self, tmp_path):
        result = run_pipeline(tiny_config(), tmp_path / "run")
        expected = [
            "config_snapshot.json", "merged.csv", "train.csv", "test.csv",
            "independent.csv", "preprocess_meta.json", "hyperparameters.json",
            "model.json", "reports/train.json", "reports/test.json",
            "reports/independent.json", "reports/summary.csv",
            "reports/importance.csv", "reports/bubbles_train.csv",
        ]
        for rel in expected:
            assert (result.run_dir / rel).exists(), rel
        assert result.reports["independent"].tag == "Atlas"
        meta = json.loads((result.run_dir / "preprocess_meta.json").read_text())
        assert "transform_params" in meta and "imputed_cells" in meta

    def test_csv_files_are_written_in_slices_with_the_serialized_bytes(self, tmp_path,
                                                                        monkeypatch):
        db = generate(preset("toris"), 30, seed=0)
        monkeypatch.setattr(pipeline, "WRITE_SLICE", 100)
        pipeline.write_csv(tmp_path / "toris.csv", db)
        text = serialize_database(db)
        assert len(text) > 10 * 100
        assert (tmp_path / "toris.csv").read_bytes() == text.encode()

    def test_tca_has_no_independent(self, tmp_path):
        result = run_pipeline(tiny_config("TCA"), tmp_path / "run")
        assert "independent" not in result.reports
        assert not (result.run_dir / "independent.csv").exists()
        summary = (result.run_dir / "reports/summary.csv").read_text()
        assert summary.splitlines()[1].endswith(",,,,")

    def test_byte_identical_reruns(self, tmp_path):
        a = run_pipeline(tiny_config(seed=9), tmp_path / "a")
        b = run_pipeline(tiny_config(seed=9), tmp_path / "b")
        assert (a.summary_path.read_bytes() == b.summary_path.read_bytes())
        assert (a.model_path.read_bytes() == b.model_path.read_bytes())

    def test_importance_csv_is_the_same_at_one_and_two_cpus(self, tmp_path):
        runs, forks = [], []
        for n_cpus in (1, 2):
            # every fit and attribution of the run forks its workers when it may
            with mock.patch.object(os, "sched_getaffinity", return_value=set(range(n_cpus))), \
                    mock.patch.dict(booster.FORK_AT, row_rounds=0, row_leaves=0), \
                    mock.patch.object(os, "fork", wraps=os.fork) as fork:
                result = run_pipeline(tiny_config(seed=9), tmp_path / f"cpus{n_cpus}")
            runs.append([(result.run_dir / name).read_bytes()
                         for name in ("reports/importance.csv", "model.json")])
            forks.append(fork.call_count)
        assert runs[0] == runs[1]
        assert forks == [0, 4]  # at 2 CPUs, two tree workers and two attribution workers

    def test_different_seeds_differ(self, tmp_path):
        a = run_pipeline(tiny_config(seed=1), tmp_path / "a")
        b = run_pipeline(tiny_config(seed=2), tmp_path / "b")
        assert a.model_path.read_bytes() != b.model_path.read_bytes()

    def test_missing_source_file_is_stage_failure(self, tmp_path):
        config = PipelineConfig.from_dict({
            "combo": "TC", "seed": 0,
            "sources": {
                "TORIS": {"path": str(tmp_path / "nope.csv")},
                "Commercial": {"path": str(tmp_path / "nope2.csv")},
                "Atlas": {"path": str(tmp_path / "nope3.csv")},
            },
            "hyperparameters": dict(FAST_HP),
        })
        with pytest.raises(StageFailure, match=r"\[ingest\] cannot read source TORIS .*nope.csv: "
                                               r"No such file or directory"):
            run_pipeline(config, tmp_path / "run")

    def test_tuning_path_writes_trace(self, tmp_path):
        config = tiny_config(
            hyperparameters=None,
            grid={"candidates": {"max_depth": [2, 3]},
                  "pairs": [["max_depth"]], "max_sweeps": 1},
            split={"test_fraction": 0.1, "k_folds": 3},
        )
        result = run_pipeline(config, tmp_path / "run")
        trace = (result.run_dir / "tuning_trace.jsonl").read_text().splitlines()
        assert len(trace) >= 3
        events = [json.loads(line)["event"] for line in trace]
        assert events[0] == "start" and events[-1] == "done"
        tuned = json.loads((result.run_dir / "hyperparameters.json").read_text())
        assert tuned["max_depth"] in (2, 3)

    def test_early_stopping_holds_out_training_rows(self, tmp_path):
        with mock.patch.object(pipeline, "train", wraps=pipeline.train) as spy:
            result = run_pipeline(tiny_config(early_stopping_patience=2), tmp_path / "run")
        X_fit = spy.call_args.args[0]
        X_eval, y_eval = spy.call_args.kwargs["eval_set"]
        assert len(X_eval) > 0 and len(y_eval) == len(X_eval)
        train_csv = _prepared(result.run_dir / "train.csv")
        assert _row_set(X_eval).isdisjoint(_row_set(_prepared(result.run_dir / "test.csv")))
        assert _row_set(X_eval) <= _row_set(train_csv)
        assert _row_set(X_eval).isdisjoint(_row_set(X_fit))
        assert len(X_fit) + len(X_eval) == len(train_csv)

    def test_file_sources_round_trip(self, tmp_path):
        from rfclass.dataset import serialize_database
        from rfclass.synth import generate, preset
        paths = {}
        for name in ("toris", "commercial", "atlas"):
            db = generate(preset(name), 320, seed=hash(name) % 1000)
            p = tmp_path / f"{name}.csv"
            p.write_text(serialize_database(db))
            paths[name] = p
        config = PipelineConfig.from_dict({
            "combo": "TC", "seed": 3,
            "sources": {
                "TORIS": {"path": str(paths["toris"])},
                "Commercial": {"path": str(paths["commercial"])},
                "Atlas": {"path": str(paths["atlas"])},
            },
            "hyperparameters": dict(FAST_HP),
            "shap_sample": 10,
        })
        result = run_pipeline(config, tmp_path / "run")
        assert result.reports["train"].sample_count > 0
        assert result.reports["independent"].tag == "Atlas"


def _internal_node(doc):
    """The first internal root node of a serialized ensemble."""
    return next(tree for round_trees in doc["trees"] for tree in round_trees if "leaf" not in tree)


def _leaf(doc):
    """The leftmost leaf under `_internal_node(doc)`."""
    node = _internal_node(doc)
    while "leaf" not in node:
        node = node["left"]
    return node


def _twelve_classes(doc):
    """Make a serialized ensemble a well-formed 12-class model."""
    doc["hyperparameters"]["num_class"] = 12
    for round_trees in doc["trees"]:
        round_trees.extend(round_trees[:2])


#: For each stage that forks workers: what its workers call, the exit code
#: of a failure in them and the error of a worker that dies.
WORKERS = {
    "tune": ((tuner, "train"), 4, "a fold worker process exited mid-search"),
    "train": ((booster, "_grow_tree"), 4, "a tree worker process exited mid-round"),
    "explain": ((explain._PathGroup, "contributions"), 3,
                "an attribution worker process exited mid-call"),
}


def in_workers(stage, action, *, here=False):
    """Patch what the stage's workers call to run `action()` first in a
    forked worker, and in this process too when `here`."""
    (owner, name), _, _ = WORKERS[stage]
    parent, original = os.getpid(), getattr(owner, name)

    def wrapped(*args, **kwargs):
        if here or os.getpid() != parent:
            action()
        return original(*args, **kwargs)
    return mock.patch.object(owner, name, wrapped)


@contextlib.contextmanager
def forking(cpus):
    """Limit the workers to `cpus`, and let every fit and attribution fork
    them whatever its size."""
    with mock.patch.object(os, "sched_getaffinity", return_value=set(range(cpus))), \
            mock.patch.dict(booster.FORK_AT, row_rounds=0, row_leaves=0):
        yield


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained") / "run"
    run_pipeline(tiny_config(), out)
    return out


class TestCli:
    def _write_config(self, tmp_path, **extra):
        data = {
            "combo": "TC",
            "seed": 4,
            "synth": {"n": 300, "divergence": 1.0},
            "hyperparameters": dict(FAST_HP),
            "shap_sample": 10,
        }
        data.update(extra)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return path

    def test_run_subcommand(self, tmp_path, capsys):
        config = self._write_config(tmp_path)
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "run")])
        assert code == 0
        out = capsys.readouterr().out
        assert "train" in out and "independent" in out
        assert (tmp_path / "run" / "reports" / "summary.csv").exists()

    @pytest.mark.parametrize("settings_", [
        {"hyperparameters": dict(FAST_HP, num_rounds=3)},
        {"hyperparameters": None, "split": {"test_fraction": 0.1, "k_folds": 2},
         "grid": {"candidates": {"max_depth": [2], "num_rounds": [3]},
                  "pairs": [["max_depth", "num_rounds"]], "max_sweeps": 1}},
    ], ids=["hyperparameters", "grid"])
    def test_snapshot_holds_the_config_as_written(self, tmp_path, settings_):
        sources = _write_sources(tmp_path, ["TORIS", "Commercial", "Atlas"], n=120)
        sources["TORIS"]["column_map"] = {"gor": "gor"}
        config = self._write_config(tmp_path, synth=None, sources=sources,
                                    range_overrides={"gor": [0, 60]}, **settings_)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
        snapshot = json.loads((tmp_path / "run" / pipeline.SNAPSHOT).read_text())
        assert snapshot["config"] == json.loads(config.read_text())

    def test_stagewise_chain(self, tmp_path, capsys):
        config = self._write_config(tmp_path)
        merged = tmp_path / "merged.csv"
        prep = tmp_path / "prep"
        hp_path = tmp_path / "hp.json"
        model = tmp_path / "model.json"
        report = tmp_path / "report.json"
        importance = tmp_path / "importance.csv"

        assert main(["synth", "--preset", "toris", "--n", "50", "--seed", "1",
                     "--out", str(tmp_path / "synth.csv")]) == 0
        assert main(["ingest", "--config", str(config), "--out", str(merged)]) == 0
        assert main(["preprocess", "--config", str(config), "--data", str(merged),
                     "--out", str(prep)]) == 0
        tune_config = self._write_config(
            tmp_path, hyperparameters=None,
            grid={"candidates": {"max_depth": [2]}, "pairs": [["max_depth"]]},
            split={"test_fraction": 0.1, "k_folds": 3},
        )
        assert main(["tune", "--config", str(tune_config),
                     "--train", str(prep / "train.csv"),
                     "--out", str(hp_path), "--trace", str(tmp_path / "trace.jsonl")]) == 0
        assert json.loads(hp_path.read_text())["max_depth"] == 2
        assert main(["train", "--config", str(config),
                     "--train", str(prep / "train.csv"),
                     "--hp", str(hp_path), "--out", str(model)]) == 0
        assert main(["evaluate", "--config", str(config), "--model", str(model),
                     "--data", str(prep / "test.csv"),
                     "--role", "test", "--out", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["role"] == "test" and data["sample_count"] > 0
        assert main(["explain", "--config", str(config), "--model", str(model),
                     "--data", str(prep / "train.csv"),
                     "--out", str(importance)]) == 0
        assert importance.read_text().startswith("feature,class_0")

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert (f"cannot read config {tmp_path / 'absent.json'}: No such file or directory"
                in capsys.readouterr().err)

    def test_missing_artifact_exits_3_and_names_file(self, tmp_path, capsys):
        config = self._write_config(tmp_path)
        code = main(["preprocess", "--config", str(config),
                     "--data", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "prep")])
        assert code == 3
        err = capsys.readouterr().err
        assert "absent.csv" in err and "ingest" in err

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"combo": "XX", "synth": {"n": 10}}))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == 2

    @pytest.mark.parametrize("extra, message", [
        ({"shap_sample": 0}, "shap_sample"),
        ({"early_stopping_patience": "x"}, "early_stopping_patience"),
        ({"synth": None, "sources": {"TORIS": {"key_column": "key"}}}, "needs a 'path'"),
        ({"synth": None, "sources": {"FOO": {"path": "foo.csv"}}}, "unknown database tag"),
        ({"synth": None, "sources": ["toris.csv"]}, "sources must be a JSON object"),
        ({"synth": 300}, "synth must be a JSON object"),
        ({"hyperparameters": None, "grid": [2]}, "grid must be a JSON object"),
        ({"split": 0.1}, "split must be a JSON object"),
        ({"prune": 0.5}, "prune must be a JSON object"),
        ({"range_overrides": [[0, 1]]}, "range_overrides must be a JSON object"),
        ({"combo": 5}, "combo must be a string"),
        ({"combo": ["TC"]}, "combo must be a string"),
        ({"range_overrides": {"gor": 60}},
         "config.range_overrides.gor must be a JSON array, got 60"),
        ({"synth": {"n": "many"}}, "synth.n must be a number"),
        ({"synth": {"n": 0}}, "synth.n must be at least 1"),
        ({"synth": {"n": -3}}, "synth.n must be at least 1"),
        ({"synth": {"n": 300, "divergence": "far"}}, "synth.divergence must be a number"),
        ({"synth": {"n": 300, "divergence": 1e6}}, "bad synth: median and spread must be positive"),
        ({"split": {"k_folds": "ten"}}, "split.k_folds must be a number"),
        ({"split": {"test_fraction": "tenth"}}, "split.test_fraction must be a number"),
        ({"hyperparameters": dict(FAST_HP, num_class=12)}, "num_class must be 10"),
        ({"hyperparameters": dict(FAST_HP, num_class=5)}, "num_class must be 10"),
        ({"prune": {"feature_threshold": 1.5}}, "prune thresholds must lie in (0, 1)"),
        ({"prune": {"record_threshold": 0}}, "prune thresholds must lie in (0, 1)"),
        ({"range_overrides": {"depth": [0, 1]}}, "unknown feature"),
        ({"range_overrides": {"gor": [60, 0]}}, "lower bound must be below upper bound"),
        ({"hyperparameters": None,
          "grid": {"candidates": {"max_depth": 3}, "pairs": [["max_depth"]]}},
         "grid.candidates.max_depth must be a JSON array, got 3"),
        ({"hyperparameters": None,
          "grid": {"candidates": {"max_depth": ["deep"]}, "pairs": [["max_depth"]]}},
         "hyperparameters.max_depth must be a number written as a JSON integer"),
        ({"hyperparameters": None,
          "grid": {"candidates": {"max_depth": [2]}, "pairs": 5}},
         "grid.pairs must be a JSON array, got 5"),
        ({"hyperparameters": None,
          "grid": {"candidates": {"max_depth": [2]}, "pairs": [["max_depth", "max_depth"]]}},
         "pairs must hold one or two names, each once"),
        ({"hyperparameters": None, "grid": {"candidates": [1]}},
         "grid.candidates must be a JSON object, got list"),
        ({"seed": 1.7}, "seed must be a number written as a JSON integer"),
        ({"split": {"k_folds": 3.9}}, "split.k_folds must be a number written as a JSON integer"),
        ({"synth": {"n": 120.9}}, "synth.n must be a number written as a JSON integer"),
        ({"synth": None, "sources": {"TORIS": {"path": "toris.csv", "column_map": [1]}}},
         "source entry 'TORIS'.column_map must be a JSON object, got list"),
        ({"hyperparameters": dict(FAST_HP, objective="reg:squarederror")},
         "objective must be 'multi:softmax'"),
        ({"hyperparameters": dict(FAST_HP, num_rounds=2.5)},
         "hyperparameters.num_rounds must be a number written as a JSON integer"),
        ({"hyperparameters": dict(FAST_HP, alpha=math.nan)},
         "hyperparameters.alpha must be a number, got nan"),
        ({"hyperparameters": dict(FAST_HP, num_class=10.0)}, "num_class must be 10, got 10.0"),
        ({"hyperparameters": dict(FAST_HP, num_class=True)}, "num_class must be 10, got True"),
        ({"hyperparameters": dict(FAST_HP, lambda_=0.05)},
         "bad hyperparameters: hyperparameters name both 'lambda' and 'lambda_'"),
        ({"shap_sampel": 5}, "unknown key in config: 'shap_sampel'"),
        ({"hyperparameters": None, "grid": {"candidates": {"max_depth": [2]},
                                            "pairs": [["max_depth"]], "pair": []}},
         "unknown key in grid: 'pair'"),
        ({"synth": None, "sources": {"TORIS": {"path": "toris.csv", "colum_map": {}}}},
         "unknown key in source entry 'TORIS': 'colum_map'"),
        ({"synth": {"n": 300, "size": 10}}, "unknown key in synth: 'size'"),
        ({"split": {"test_fraction": 0.1, "seed": 3}}, "unknown key in split: 'seed'"),
        ({"prune": {"feature_treshold": 0.5}}, "unknown key in prune: 'feature_treshold'"),
        ({"synth": None, "sources": {"TORIS": {"path": "toris.csv"}}},
         "combo TC needs 'sources' entries for Commercial"),
        ({"sources": {}}, "exactly one of 'sources' or 'synth'"),
        ({"split": None}, "split must be a JSON object"),
        ({"synth": None, "sources": {"TORIS": {"path": "toris.csv"},
                                     "toris": {"path": "commercial.csv"},
                                     "Commercial": {"path": "commercial.csv"}}},
         "sources 'TORIS' and 'toris' both name TORIS"),
    ], ids=["shap_sample_zero", "patience_not_integer", "source_without_path",
            "unknown_source_tag", "sources_not_object", "synth_not_object",
            "grid_not_object", "split_not_object", "prune_not_object",
            "range_overrides_not_object", "combo_number", "combo_list",
            "range_override_not_pair", "synth_n_not_number", "synth_n_zero",
            "synth_n_negative",
            "synth_divergence_not_number", "synth_divergence_too_large", "k_folds_not_number",
            "test_fraction_not_number", "num_class_12", "num_class_5",
            "feature_threshold_above_one", "record_threshold_zero",
            "range_override_unknown_feature", "range_override_inverted",
            "grid_candidates_not_list", "grid_candidate_not_number", "grid_pairs_number",
            "grid_pair_repeats_a_name",
            "grid_candidates_list", "seed_fraction", "k_folds_fraction", "synth_n_fraction",
            "column_map_not_object", "objective_not_softmax", "num_rounds_fraction",
            "alpha_nan", "num_class_float", "num_class_true", "lambda_twice",
            "unknown_top_level_key",
            "unknown_grid_key", "unknown_source_key", "unknown_synth_key", "split_seed",
            "unknown_prune_key", "sources_lack_combo_source", "empty_sources_beside_synth",
            "split_null", "sources_case_duplicate"])
    def test_config_field_error_exits_2_before_any_stage(self, tmp_path, capsys, extra, message):
        config = self._write_config(tmp_path, **extra)
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "run")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("extra", [
        {},
        {"early_stopping_patience": 2},
        pytest.param({"hyperparameters": None, "split": {"test_fraction": 0.1, "k_folds": 3},
                      "grid": {"candidates": {"max_depth": [2, 3]}, "pairs": [["max_depth"]],
                               "max_sweeps": 1}}, marks=pytest.mark.slow),
        {"synth": None, "sources": ["TORIS", "Commercial"]},
    ], ids=["fixed", "early_stopping", "grid", "no_held_out"])
    def test_stages_reproduce_run_byte_for_byte(self, tmp_path, extra):
        if "sources" in extra:  # files written here, the held-out Atlas left out
            extra = dict(extra, sources=_write_sources(tmp_path, extra["sources"]))
        hp = dict(FAST_HP, max_depth=2, num_rounds=5)
        config = str(self._write_config(tmp_path, seed=5, **{"hyperparameters": hp, **extra}))
        run, stages = tmp_path / "run", tmp_path / "stages"
        prep, model = stages / "prep", str(stages / "model.json")
        assert main(["run", "--config", config, "--out", str(run)]) == 0
        stages.mkdir()
        chain = [
            ["ingest", "--out", str(stages / "merged.csv")],
            ["preprocess", "--data", str(stages / "merged.csv"), "--out", str(prep)],
            ["train", "--train", str(prep / "train.csv"), "--out", model],
            ["evaluate", "--model", model, "--data", str(prep / "test.csv"),
             "--out", str(stages / "test.json")],
            ["evaluate", "--model", model, "--data", str(prep / "independent.csv"),
             "--role", "independent", "--out", str(stages / "independent.json")],
            ["explain", "--model", model, "--data", str(prep / "train.csv"),
             "--out", str(stages / "importance.csv")],
        ]
        pairs = [("merged.csv", "merged.csv"), ("prep/train.csv", "train.csv"),
                 ("prep/test.csv", "test.csv"), ("prep/independent.csv", "independent.csv"),
                 ("prep/preprocess_meta.json", "preprocess_meta.json"),
                 ("model.json", "model.json"), ("test.json", "reports/test.json"),
                 ("independent.json", "reports/independent.json"),
                 ("importance.csv", "reports/importance.csv")]
        if "grid" in extra:
            chain.insert(2, ["tune", "--train", str(prep / "train.csv"),
                             "--out", str(stages / "hp.json"),
                             "--trace", str(stages / "trace.jsonl")])
            chain[3] += ["--hp", str(stages / "hp.json")]
            pairs += [("hp.json", "hyperparameters.json"), ("trace.jsonl", "tuning_trace.jsonl")]
        if "sources" in extra:  # no independent.csv to evaluate
            chain = [step for step in chain if "independent" not in step]
            pairs = [pair for pair in pairs if "independent" not in pair[0]]
        for command, *rest in chain:
            assert main([command, "--config", config, *rest]) == 0, command
        for staged, name in pairs:
            assert (stages / staged).read_bytes() == (run / name).read_bytes(), name
        if "sources" in extra:
            assert not (prep / "independent.csv").exists()
            assert not (run / "independent.csv").exists()
            assert (run / "reports" / "summary.csv").read_text().splitlines()[1].endswith(",,,,")

    def test_preprocess_without_held_out_source(self, tmp_path, capsys):
        sources = _write_sources(tmp_path, ["TORIS", "Commercial"])
        config = self._write_config(tmp_path, synth=None, sources=sources)
        merged, prep = tmp_path / "merged.csv", tmp_path / "prep"
        assert main(["ingest", "--config", str(config), "--out", str(merged)]) == 0
        assert main(["preprocess", "--config", str(config), "--data", str(merged),
                     "--out", str(prep)]) == 0
        for name in ("train.csv", "test.csv", "preprocess_meta.json"):
            assert (prep / name).exists(), name
        assert not (prep / "independent.csv").exists()
        assert "independent.csv not written" in capsys.readouterr().out

    def _grid_config(self, tmp_path):
        return self._write_config(
            tmp_path, hyperparameters=None, split={"test_fraction": 0.2, "k_folds": 3},
            grid={"candidates": {"max_depth": [2, 3], "num_rounds": [2, 4]},
                  "pairs": [["max_depth", "num_rounds"]], "max_sweeps": 1})

    def _tune(self, trained_run, tmp_path, cpus, out):
        """`rfclass tune --trace` on the trained run's training set, with the
        fold workers limited to `cpus`."""
        config = self._grid_config(tmp_path)
        with mock.patch.object(os, "sched_getaffinity", return_value=set(range(cpus))):
            assert booster.worker_count(3) == cpus
            return main(["tune", "--config", str(config), "--train", str(trained_run / "train.csv"),
                         "--out", str(tmp_path / f"{out}.json"),
                         "--trace", str(tmp_path / f"{out}.jsonl")])

    def test_tune_writes_the_same_bytes_with_one_worker_and_two(self, trained_run, tmp_path):
        for cpus in (1, 2):
            assert self._tune(trained_run, tmp_path, cpus, f"cpus{cpus}") == 0
        for suffix in (".json", ".jsonl"):
            assert ((tmp_path / f"cpus1{suffix}").read_bytes()
                    == (tmp_path / f"cpus2{suffix}").read_bytes())

    def _worker_stage(self, stage, trained_run, tmp_path):
        """The argv of `rfclass <stage>` on the trained run, and the files it
        writes."""
        out, trace = tmp_path / f"{stage}.out", tmp_path / "trace.jsonl"
        train_csv = str(trained_run / "train.csv")
        if stage == "tune":
            return (["tune", "--config", str(self._grid_config(tmp_path)), "--train", train_csv,
                     "--out", str(out), "--trace", str(trace)], [out, trace])
        config = str(self._write_config(tmp_path))
        if stage == "train":
            return ["train", "--config", config, "--train", train_csv, "--out", str(out)], [out]
        return (["explain", "--config", config, "--model", str(trained_run / "model.json"),
                 "--data", train_csv, "--out", str(out)], [out])

    @pytest.mark.parametrize("stage, error", [("tune", TrainingError("no split left")),
                                              ("train", TrainingError("no split left")),
                                              ("explain", PipelineError("no path left"))],
                             ids=["tune", "train", "explain"])
    def test_an_error_in_a_worker_exits_like_one_in_process(self, trained_run, tmp_path, capfd,
                                                            stage, error):
        argv, _ = self._worker_stage(stage, trained_run, tmp_path)

        def fail():
            raise error
        outcomes = []
        for cpus in (1, 2):  # at 2 CPUs only a forked worker raises
            with forking(cpus), in_workers(stage, fail, here=cpus == 1), bounded_wait():
                outcomes.append((main(argv), capfd.readouterr().err))
            assert multiprocessing.active_children() == []
        assert outcomes == [(WORKERS[stage][1], f"error [{stage}] {error}\n")] * 2

    @pytest.mark.parametrize("stage", WORKERS)
    def test_a_worker_that_exits_is_one_error_line(self, trained_run, tmp_path, capfd, stage):
        argv, outs = self._worker_stage(stage, trained_run, tmp_path)
        _, code, message = WORKERS[stage]
        with forking(2), in_workers(stage, lambda: os._exit(1)), bounded_wait():
            assert (main(argv), capfd.readouterr().err) == (code, f"error [{stage}] {message}\n")
        assert multiprocessing.active_children() == []
        assert not [out for out in outs if out.exists()]

    def test_tune_without_grid_removes_a_stale_trace(self, trained_run, tmp_path, capsys):
        assert self._tune(trained_run, tmp_path, 1, "hp") == 0
        trace = tmp_path / "hp.jsonl"
        assert trace.exists()
        assert main(["tune", "--config", str(self._write_config(tmp_path)),
                     "--train", str(trained_run / "train.csv"),
                     "--out", str(tmp_path / "hp.json"), "--trace", str(trace)]) == 0
        assert not trace.exists()
        assert f"{trace} not written" in capsys.readouterr().out

    def test_preprocess_without_held_out_source_removes_a_stale_independent_csv(self, tmp_path,
                                                                              capsys):
        sources = _write_sources(tmp_path, ["TORIS", "Commercial", "Atlas"])
        with_atlas = self._write_config(tmp_path, synth=None, sources=sources)
        merged, prep = tmp_path / "merged.csv", tmp_path / "prep"
        assert main(["ingest", "--config", str(with_atlas), "--out", str(merged)]) == 0
        assert main(["preprocess", "--config", str(with_atlas), "--data", str(merged),
                     "--out", str(prep)]) == 0
        assert (prep / "independent.csv").exists()
        del sources["Atlas"]
        without = self._write_config(tmp_path, synth=None, sources=sources)
        assert main(["preprocess", "--config", str(without), "--data", str(merged),
                     "--out", str(prep)]) == 0
        assert not (prep / "independent.csv").exists()
        assert "independent.csv not written" in capsys.readouterr().out

    def test_source_parse_error_names_the_source_and_its_file(self, tmp_path, capfd):
        sources = _write_sources(tmp_path, ["TORIS", "Commercial"], n=20)
        header, rest = (tmp_path / "Commercial.csv").read_text().split("\n", 1)
        (tmp_path / "Commercial.csv").write_text(f"{header}\n{rest.replace(',', ',,', 1)}")
        config = self._write_config(tmp_path, synth=None, sources=sources)
        for command in ("ingest", "run"):
            assert main([command, "--config", str(config),
                         "--out", str(tmp_path / command)]) == 3
            err = capfd.readouterr().err
            assert err.startswith("error [ingest] line 2: expected "), err
            assert err.rstrip().endswith(f"(source Commercial: {tmp_path / 'Commercial.csv'})")

    def test_a_source_cell_naming_a_merged_tag_exits_3(self, tmp_path, capfd):
        sources = _write_sources(tmp_path, ["TORIS", "Commercial"], n=20)
        path = tmp_path / "TORIS.csv"
        path.write_text(path.read_text().replace(",TORIS,", ",TC,", 1))
        config = self._write_config(tmp_path, synth=None, sources=sources)
        assert main(["ingest", "--config", str(config), "--out", str(tmp_path / "m.csv")]) == 3
        assert capfd.readouterr().err == (f"error [ingest] line 2, column 'source': 'TC' is not "
                                          f"a source tag (source TORIS: {path})\n")

    @pytest.mark.parametrize("argv, code, message", [
        (["ingest", "--out", "{tmp}/absent/merged.csv"], 3, ""),
        (["run", "--out", "{tmp}/file"], 3, ""),
        (["run", "--out", "{tmp}/run", "--config", "{tmp}"], 2, ""),  # the last --config wins
        (["run", "--out", "{tmp}/run", "--config", "{tmp}/file"], 2, ""),
        (["train", "--train", "{run}/train.csv", "--hp", "{tmp}/eta.json",
          "--out", "{tmp}/model.json"], 3, ""),
        (["train", "--train", "{run}/train.csv", "--hp", "{tmp}/list.json",
          "--out", "{tmp}/model.json"], 3, ""),
        (["train", "--train", "{run}/train.csv", "--hp", "{tmp}/deep.json",
          "--out", "{tmp}/model.json"], 3, ""),
        (["train", "--train", "{run}/train.csv", "--hp", "{tmp}/twelve.json",
          "--out", "{tmp}/model.json"], 3, ""),
        (["train", "--train", "{run}/train.csv", "--hp", "{tmp}/ten_float.json",
          "--out", "{tmp}/model.json"], 3, ""),
        (["train", "--train", "{run}/train.csv", "--hp", "{tmp}/ten_true.json",
          "--out", "{tmp}/model.json"], 3, ""),
        (["evaluate", "--model", "{tmp}/list.json", "--data", "{run}/test.csv",
          "--out", "{tmp}/report.json"], 3, ""),
        (["ingest", "--config", "{tmp}/wide.json", "--out", "{tmp}/merged.csv"], 3,
         "error [ingest] line 2: field larger than field limit (131072)"),
        (["run", "--config", "{tmp}/wide.json", "--out", "{tmp}/run"], 3,
         "error [ingest] line 2: field larger than field limit (131072)"),
        (["train", "--train", "{run}/train.csv", "--hp", "{tmp}/comma.json",
          "--out", "{tmp}/model.json"], 3,
         "error [train] Expecting ',' delimiter: line 2 column 1 (char 16) ({tmp}/comma.json)\n"),
        (["evaluate", "--model", "{tmp}/blank.json", "--data", "{run}/test.csv",
          "--out", "{tmp}/report.json"], 3,
         "error [evaluate] Expecting value: line 2 column 1 (char 1) ({tmp}/blank.json)\n"),
        (["ingest", "--config", "{tmp}/latin.json", "--out", "{tmp}/merged.csv"], 3,
         "error [ingest] cannot read source TORIS {tmp}/latin.csv: 'utf-8' codec can't decode "
         "byte 0xff in position 7: invalid start byte\n"),
        (["preprocess", "--data", "{tmp}/latin.csv", "--out", "{tmp}/prep"], 3,
         "error [preprocess] cannot read merged CSV from `ingest` {tmp}/latin.csv: 'utf-8' codec "
         "can't decode byte 0xff in position 7: invalid start byte\n"),
        (["train", "--train", "{run}/train.csv", "--hp", "{tmp}/lambda_twice.json",
          "--out", "{tmp}/model.json"], 3,
         "error [train] hyperparameters name both 'lambda' and 'lambda_'\n"),
    ], ids=["ingest_out_in_missing_dir", "run_out_is_file", "config_is_directory",
            "config_not_utf8", "hp_unknown_key", "hp_not_object", "hp_value_not_number",
            "hp_num_class_12", "hp_num_class_float", "hp_num_class_true", "model_not_object",
            "ingest_field_over_csv_limit", "run_field_over_csv_limit", "hp_not_json",
            "model_not_json", "source_not_utf8", "prepared_not_utf8", "hp_lambda_twice"])
    def test_bad_path_is_diagnosed_without_traceback(self, trained_run, tmp_path, capfd,
                                                      argv, code, message):
        config = self._write_config(tmp_path)
        (tmp_path / "file").write_bytes(b"\xff\xfe{")
        (tmp_path / "eta.json").write_text('{"eta": 0.3}')
        (tmp_path / "list.json").write_text("[1, 2]")
        (tmp_path / "deep.json").write_text('{"max_depth": "deep"}')
        (tmp_path / "twelve.json").write_text(json.dumps(dict(FAST_HP, num_class=12)))
        (tmp_path / "ten_float.json").write_text(json.dumps(dict(FAST_HP, num_class=10.0)))
        (tmp_path / "ten_true.json").write_text(json.dumps(dict(FAST_HP, num_class=True)))
        (tmp_path / "lambda_twice.json").write_text(json.dumps(dict(FAST_HP, lambda_=0.05)))
        sources = _write_sources(tmp_path, ["TORIS", "Commercial"], n=20)
        header, rest = (tmp_path / "TORIS.csv").read_text().split("\n", 1)
        # line 2 holds a quoted key over the csv module's field size limit
        (tmp_path / "TORIS.csv").write_text(f'{header}\n"{"k" * 200_000}"\n{rest}')
        (tmp_path / "wide.json").write_text(json.dumps({"combo": "TC", "sources": sources}))
        (tmp_path / "comma.json").write_text('{"max_depth": 2\n"gamma": 0}')
        (tmp_path / "blank.json").write_text("\n")
        (tmp_path / "latin.csv").write_bytes(b"key,RF\n\xff,0.3\n")
        (tmp_path / "latin.json").write_text(json.dumps(
            {"combo": "TC", "sources": dict(sources, TORIS={"path": str(tmp_path / "latin.csv")})}))
        command, *rest = [arg.format(tmp=tmp_path, run=trained_run) for arg in argv]
        assert main([command, "--config", str(config), *rest]) == code
        err = capfd.readouterr().err
        assert err.startswith("error [") and "Traceback" not in err
        assert err.startswith(message.format(tmp=tmp_path))

    @pytest.mark.parametrize("argv, message", [
        (["synth", "--preset", "toris", "--out", "{tmp}/absent/toris.csv"],
         "no directory for output file {tmp}/absent/toris.csv: {tmp}/absent does not exist"),
        (["ingest", "--config", "{config}", "--out", "{tmp}"],
         "output file {tmp} is a directory"),
        (["preprocess", "--config", "{config}", "--data", "{run}/merged.csv",
          "--out", "{config}"], "output directory {config} is a file"),
        (["tune", "--config", "{config}", "--train", "{run}/train.csv", "--out", "{tmp}/hp.json",
          "--trace", "{tmp}/absent/trace.jsonl"],
         "no directory for output file {tmp}/absent/trace.jsonl: {tmp}/absent does not exist"),
        (["tune", "--config", "{config}", "--train", "{run}/train.csv", "--out", "{tmp}"],
         "output file {tmp} is a directory"),
        (["train", "--config", "{config}", "--train", "{run}/train.csv",
          "--out", "{tmp}/absent/model.json"],
         "no directory for output file {tmp}/absent/model.json: {tmp}/absent does not exist"),
        (["evaluate", "--config", "{config}", "--model", "{run}/model.json",
          "--data", "{run}/test.csv", "--out", "{tmp}/absent/test.json"],
         "no directory for output file {tmp}/absent/test.json: {tmp}/absent does not exist"),
        (["explain", "--config", "{config}", "--model", "{run}/model.json",
          "--data", "{run}/train.csv", "--out", "{tmp}"], "output file {tmp} is a directory"),
    ], ids=["synth_out_in_missing_dir", "ingest_out_is_directory", "preprocess_out_is_file",
            "tune_trace_in_missing_dir", "tune_out_is_directory", "train_out_in_missing_dir",
            "evaluate_out_in_missing_dir", "explain_out_is_directory"])
    def test_unwritable_output_exits_3_before_any_work(self, trained_run, tmp_path, capfd,
                                                        argv, message):
        config = self._write_config(tmp_path)
        names = dict(tmp=tmp_path, run=trained_run, config=config)
        work = RuntimeError("the command started work")
        with mock.patch.object(cli, "read_input", side_effect=work), \
                mock.patch.object(cli, "generate", side_effect=work), \
                mock.patch.object(cli, "fit", side_effect=work), \
                mock.patch.object(cli, "tune", side_effect=work):
            assert main([arg.format(**names) for arg in argv]) == 3
        assert capfd.readouterr().err == f"error [{argv[0]}] {message.format(**names)}\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("corrupt, message", [
        (lambda doc: _internal_node(doc).update(feature=99), "feature 99 is outside"),
        (lambda doc: doc["trees"][0].__delitem__(slice(3, None)), "round 0 holds 3 trees"),
        (lambda doc: _internal_node(doc).pop("feature"), "tree node needs a 'feature'"),
        (lambda doc: doc["hyperparameters"].update(eta=0.3),
         "unknown key in hyperparameters: 'eta'"),
        (lambda doc: doc.pop("num_features"), "model needs a 'num_features'"),
        (lambda doc: doc.pop("trees"), "model needs a 'trees'"),
        (lambda doc: doc["trees"].__setitem__(0, 7), "model.trees[0] must be a JSON array, got 7"),
        (lambda doc: _internal_node(doc).update(threshold=math.inf),
         "tree node.threshold must be a number, got inf"),
        (lambda doc: _internal_node(doc)["left"].update(leaf=math.nan),  # a split there
         "unknown key in tree node: 'feature', 'gain', 'left', 'right', 'threshold'"),
        (_twelve_classes, "num_class must be 10, got 12"),
        (lambda doc: doc.update(trees={}), "model.trees must be a JSON array, got dict"),
        (lambda doc: doc.update(training_loss="x"),
         "model.training_loss must be a JSON array, got 'x'"),
        (lambda doc: doc["training_loss"].pop(), "training_loss must be a list of"),
        (lambda doc: doc.update(best_round="z"),
         "model.best_round must be a number written as a JSON integer, got 'z'"),
        (lambda doc: doc.update(num_features=doc["num_features"] + 0.7),
         "model.num_features must be a number written as a JSON integer"),
        (lambda doc: doc["feature_names"].pop(), "feature_names must be a list of"),
        (lambda doc: doc["hyperparameters"].update(num_class=10.0), "num_class must be 10"),
        (lambda doc: doc["hyperparameters"].update(num_class=True), "num_class must be 10"),
        (lambda doc: doc["hyperparameters"].update(max_depth=1), "deeper than max_depth = 1"),
        (lambda doc: _internal_node(doc).update(gain=-0.5), "split gain -0.5 is negative"),
        (lambda doc: _internal_node(doc)["left"].update(cover=0.5),
         "child cover 0.5 is below min_child_weight = 1"),
        (lambda doc: _leaf(doc).update(leaf=0.05), "leaf 0.05 exceeds the learning_rate"),
        (lambda doc: doc.update(base_margin=3.0), "base_margin must be 0.0, got 3.0"),
        (lambda doc: _internal_node(doc).update(leaf=0.0),
         "unknown key in tree node: 'feature', 'gain', 'left', 'right', 'threshold'"),
        (lambda doc: doc.update(note="x"), "unknown key in model: 'note'"),
        (lambda doc: _leaf(doc).update(depth=2), "unknown key in tree node: 'depth'"),
        (lambda doc: doc["training_loss"].__setitem__(1, math.nan),
         "model.training_loss[1] must be a number, got nan"),
        (lambda doc: doc.update(version=True),
         "model.version must be a number written as a JSON integer, got True"),
        (lambda doc: doc.pop("best_round"), "model needs a 'best_round'"),
        (lambda doc: _leaf(doc).update(leaf=math.nan), "tree node.leaf must be a number, got nan"),
        (lambda doc: doc["hyperparameters"].update(lambda_=0.05),
         "hyperparameters name both 'lambda' and 'lambda_'"),
        (lambda doc: doc["hyperparameters"].pop("gamma"), "model.hyperparameters needs a 'gamma'"),
    ], ids=["feature_out_of_range", "round_of_three_trees", "node_without_feature",
            "unknown_hyperparameter", "no_num_features", "no_trees", "round_not_list",
            "infinite_threshold", "nan_leaf", "twelve_classes", "trees_object",
            "training_loss_string", "training_loss_short", "best_round_string", "num_features_fraction",
            "feature_names_short", "num_class_float", "num_class_true", "deeper_than_max_depth",
            "negative_gain", "child_below_min_child_weight", "leaf_beyond_clip",
            "base_margin_three", "split_with_leaf_key", "unknown_top_level_key",
            "unknown_node_key", "nan_loss", "version_true", "no_best_round", "nan_leaf_value",
            "lambda_twice", "hyperparameter_missing"])
    def test_corrupted_model_exits_3(self, trained_run, tmp_path, capsys, corrupt, message):
        doc = json.loads((trained_run / "model.json").read_text())
        corrupt(doc)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        code = main(["evaluate", "--config", str(self._write_config(tmp_path)),
                     "--model", str(model), "--data", str(trained_run / "test.csv"),
                     "--out", str(tmp_path / "report.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error [evaluate]") and message in err

    @pytest.mark.parametrize("divergence", ["nan", "inf"])
    def test_synth_non_finite_divergence_exits_3(self, tmp_path, capsys, divergence):
        out = tmp_path / "synth.csv"
        assert main(["synth", "--preset", "toris", "--divergence", divergence,
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error [synth] divergence must be finite")
        assert not out.exists()

    def test_synth_one_record(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        assert main(["synth", "--preset", "toris", "--n", "1", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2  # header and one record

    def test_feature_missing_from_a_split_names_split_and_threshold(self, tmp_path, capfd):
        # pruning keeps 'permeability' (1 of 6 records lack it), but that
        # record is the test split's only one of its class
        config = self._write_config(tmp_path, seed=0, synth={"n": 3})
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 3
        err = capfd.readouterr().err
        assert err.startswith("error [preprocess] feature 'permeability' is missing from "
                              "every record of the test split; prune.feature_threshold 0.7 "
                              "kept it")
        assert not (tmp_path / "run" / "hyperparameters.json").exists()

    @pytest.mark.parametrize("n", [1, 2])
    def test_run_without_a_test_set_ends_at_preprocess(self, tmp_path, capfd, n):
        config = self._write_config(tmp_path, synth={"n": n})
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 3
        err = capfd.readouterr().err
        assert err.startswith("error [preprocess] the test set is empty")
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "hyperparameters.json").exists()

    def test_independent_role_without_held_out_database_exits_2(self, trained_run, tmp_path,
                                                                 capsys):
        config = self._write_config(tmp_path, combo="TCA")
        code = main(["evaluate", "--config", str(config), "--model", str(trained_run / "model.json"),
                     "--data", str(trained_run / "test.csv"), "--role", "independent",
                     "--out", str(tmp_path / "report.json")])
        assert code == 2
        assert "holds no database out" in capsys.readouterr().err

    def test_top_level_array_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps([{"combo": "TC"}]))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "JSON object" in capsys.readouterr().err

    def test_seed_override(self, tmp_path):
        config = self._write_config(tmp_path)
        assert main(["run", "--config", str(config), "--seed", "77",
                     "--out", str(tmp_path / "a")]) == 0
        snapshot = json.loads((tmp_path / "a" / "config_snapshot.json").read_text())
        assert snapshot["seed"] == 77

    def _run(self, tmp_path, out="run", **extra):
        return main(["run", "--config", str(self._write_config(tmp_path, **extra)),
                     "--out", str(tmp_path / out)])

    def test_failed_run_leaves_no_directory(self, tmp_path, capfd):
        assert self._run(tmp_path, synth={"n": 2}) == 3
        assert capfd.readouterr().err.startswith("error [preprocess] the test set is empty")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]  # no run, no holder

    def test_failed_run_leaves_an_earlier_run_byte_identical(self, trained_run, tmp_path):
        shutil.copytree(trained_run, tmp_path / "run")
        before = _file_bytes(tmp_path / "run")
        assert self._run(tmp_path, synth={"n": 2}) == 3
        assert _file_bytes(tmp_path / "run") == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "run"]

    def test_interrupted_run_leaves_out_untouched(self, trained_run, tmp_path):
        shutil.copytree(trained_run, tmp_path / "run")
        before = _file_bytes(tmp_path / "run")
        with mock.patch.object(pipeline, "fit", side_effect=KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                self._run(tmp_path)
        assert _file_bytes(tmp_path / "run") == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "run"]

    def test_tca_run_replaces_a_tc_run_whole(self, trained_run, tmp_path):
        shutil.copytree(trained_run, tmp_path / "run")
        assert self._run(tmp_path, combo="TCA") == 0
        run = tmp_path / "run"
        for name in ("independent.csv", "reports/independent.json",
                     "reports/bubbles_independent.csv"):
            assert not (run / name).exists(), name
        assert (run / "reports" / "summary.csv").read_text().splitlines()[1].startswith("TCA,")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "run"]

    def test_fixed_run_replaces_a_grid_run_whole(self, tmp_path):
        grid = {"candidates": {"max_depth": [2], "num_rounds": [3]},
                "pairs": [["max_depth", "num_rounds"]], "max_sweeps": 1}
        assert self._run(tmp_path, hyperparameters=None, grid=grid,
                         split={"test_fraction": 0.1, "k_folds": 3}) == 0
        assert (tmp_path / "run" / "tuning_trace.jsonl").exists()
        assert self._run(tmp_path) == 0
        assert not (tmp_path / "run" / "tuning_trace.jsonl").exists()
        assert json.loads((tmp_path / "run" / "hyperparameters.json").read_text())[
            "num_rounds"] == FAST_HP["num_rounds"]

    def test_non_empty_directory_without_a_run_exits_2_untouched(self, tmp_path, capfd):
        out = tmp_path / "notes"
        out.mkdir()
        (out / "notes.txt").write_text("keep me\n")
        assert self._run(tmp_path, out="notes") == 2
        err = capfd.readouterr().err
        assert err.startswith("error [run] run directory") and "holds no run" in err
        assert _file_bytes(out) == {"notes.txt": b"keep me\n"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "notes"]

    def test_published_directory_has_the_mode_of_a_plain_mkdir(self, tmp_path):
        (tmp_path / "empty").mkdir()  # an empty directory is replaced like a run
        result = run_pipeline(tiny_config(), tmp_path / "empty")
        (tmp_path / "sibling").mkdir()
        assert result.run_dir == tmp_path / "empty"
        assert result.model_path == tmp_path / "empty" / "model.json"
        assert result.model_path.exists() and result.importance_path.exists()
        for name in (".", "reports"):
            assert (stat.S_IMODE((tmp_path / "empty" / name).stat().st_mode)
                    == stat.S_IMODE((tmp_path / "sibling").stat().st_mode)), name
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty", "sibling"]

    def test_default_sizes_chain_under_five_minutes(self, tmp_path):
        import time
        start = time.perf_counter()
        for name in ("toris", "commercial", "atlas"):
            assert main(["synth", "--preset", name, "--n", "2000",
                         "--seed", "1", "--out", str(tmp_path / f"{name}.csv")]) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "combo": "TCA", "seed": 1,
            "sources": {
                "TORIS": {"path": str(tmp_path / "toris.csv")},
                "Commercial": {"path": str(tmp_path / "commercial.csv")},
                "Atlas": {"path": str(tmp_path / "atlas.csv")},
            },
        }))
        merged = tmp_path / "merged.csv"
        assert main(["ingest", "--config", str(config), "--out", str(merged)]) == 0
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
        assert time.perf_counter() - start < 300

    def test_exit_code_mapping(self):
        from rfclass.cli import _exit_code
        from rfclass.errors import (ConfigError, IngestError, PipelineError,
                                    TrainingError)
        assert _exit_code(ConfigError("x")) == 2
        assert _exit_code(IngestError("x")) == 3
        assert _exit_code(PipelineError("x")) == 3
        assert _exit_code(ValueError("x")) == 3
        assert _exit_code(TrainingError("x")) == 4
        assert _exit_code(StageFailure("train", TrainingError("x"))) == 4
        assert _exit_code(StageFailure("ingest", ConfigError("x"))) == 2
