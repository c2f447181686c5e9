import json

import pytest

from rfclass.cli import main
from rfclass.errors import ConfigError
from rfclass.pipeline import (INDEPENDENT_SOURCE, PipelineConfig, StageFailure,
                              run_pipeline)
from rfclass.dataset import DatabaseTag

FAST_HP = {
    "max_depth": 3, "min_child_weight": 1, "learning_rate": 0.2,
    "subsample": 1.0, "colsample_bytree": 1.0, "colsample_bylevel": 1.0,
    "alpha": 0.1, "lambda": 0.05, "gamma": 0.0, "max_delta_step": 0.2,
    "num_class": 10, "num_rounds": 8,
}


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

    def test_bad_hyperparameters(self):
        with pytest.raises(ConfigError, match="bad hyperparameters"):
            PipelineConfig.from_dict({
                "combo": "TC", "synth": {"n": 10},
                "hyperparameters": {"max_depth": 0},
            })

    def test_bad_json(self):
        with pytest.raises(ConfigError, match="valid JSON"):
            PipelineConfig.from_json("{nope")

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
        with pytest.raises(StageFailure, match=r"\[ingest\].*missing input file"):
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
        assert main(["evaluate", "--model", str(model),
                     "--data", str(prep / "test.csv"),
                     "--role", "test", "--out", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["role"] == "test" and data["sample_count"] > 0
        assert main(["explain", "--model", str(model),
                     "--data", str(prep / "train.csv"), "--sample", "8",
                     "--out", str(importance)]) == 0
        assert importance.read_text().startswith("feature,class_0")

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "config file not found" in capsys.readouterr().err

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
    ], ids=["shap_sample_zero", "patience_not_integer", "source_without_path",
            "unknown_source_tag", "sources_not_object", "synth_not_object",
            "grid_not_object", "split_not_object", "prune_not_object",
            "range_overrides_not_object"])
    def test_config_field_error_exits_2_before_any_stage(self, tmp_path, capsys, extra, message):
        config = self._write_config(tmp_path, **extra)
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "run")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

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
