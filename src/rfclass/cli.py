"""Command-line entry point.

Subcommands mirror the workflow stages and each one runs in isolation given
the previous stage's on-disk artifacts:

    synth       generate a synthetic source database CSV
    ingest      parse + merge + de-duplicate into merged.csv
    preprocess  filter/prune/split/impute/transform to train.csv + test.csv
    tune        pairwise grid search on a preprocessed training CSV
    train       fit the boosted ensemble to model.json
    evaluate    score a saved model against a preprocessed CSV
    explain     importance summary for a saved model
    run         the whole workflow into a run directory

Exit codes: 0 success, 2 config error, 3 data error, 4 training error.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .booster import Hyperparameters, load_ensemble, predict_class, serialize_ensemble, train
from .dataset import canonical_schema, deduplicate, merge, parse_database, serialize_database
from .errors import ConfigError, IngestError, PipelineError, TrainingError
from .explain import importance_from_database
from .metrics import EvaluationReport
from .pipeline import (PipelineConfig, StageFailure, load_sources, preprocess,
                       run_pipeline, _stage_seed)
from .preprocess import to_matrix
from .synth import generate, preset
from .tuner import default_grid, pairwise_grid_search

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAINING = 4


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, StageFailure):
        return _exit_code(exc.cause)
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, TrainingError):
        return EXIT_TRAINING
    return EXIT_DATA


def _load_config(path: str) -> PipelineConfig:
    config_path = Path(path)
    if not config_path.exists():
        raise ConfigError(f"config file not found: {config_path}")
    return PipelineConfig.from_json(config_path.read_text())


def _require(path: str, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise PipelineError(f"missing {what}: expected file {p}")
    return p


def cmd_synth(args) -> int:
    spec = preset(args.preset, args.divergence)
    db = generate(spec, args.n, args.seed)
    Path(args.out).write_text(serialize_database(db))
    print(f"wrote {len(db)} records to {args.out}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    config = _load_config(args.config)
    sources = load_sources(config, list(config.combo.source_tags))
    merged = deduplicate(merge([sources[t] for t in config.combo.source_tags], config.combo))
    Path(args.out).write_text(serialize_database(merged))
    print(f"merged {config.combo.value}: {len(merged)} records -> {args.out}")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    config = _load_config(args.config)
    merged_path = _require(args.data, "merged database (run `ingest` first)")
    schema = canonical_schema(config.range_overrides)
    merged = parse_database(merged_path.read_text(), config.combo, schema)
    train_t, test_t, params, _ = preprocess(merged, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "train.csv").write_text(serialize_database(train_t))
    (out / "test.csv").write_text(serialize_database(test_t))
    (out / "transform_params.json").write_text(json.dumps(params.to_dict(), sort_keys=True))
    print(f"preprocessed: train={len(train_t)} test={len(test_t)} -> {out}")
    return EXIT_OK


def _parse_train_csv(path: Path):
    text = path.read_text()
    header = text.splitlines()[0].split(",")
    names = [h for h in header if h not in ("key", "source", "RF")]
    schema = canonical_schema().subset(names)
    if len(schema.names) != len(names):  # non-canonical feature set
        raise PipelineError(f"unrecognized feature columns in {path}")
    from .dataset import DatabaseTag
    return parse_database(text, DatabaseTag.TCA, schema)


def cmd_tune(args) -> int:
    config = _load_config(args.config)
    train_path = _require(args.train, "preprocessed training CSV (run `preprocess` first)")
    train_db = _parse_train_csv(train_path)
    grid = config.grid if config.grid is not None else default_grid()
    sink = None
    handle = None
    if args.trace:
        handle = Path(args.trace).open("w")
        sink = lambda entry: handle.write(json.dumps(entry, sort_keys=True) + "\n")
    try:
        result = pairwise_grid_search(train_db, grid, _stage_seed(config.seed, 20),
                                      k=config.k_folds, trace_sink=sink)
    finally:
        if handle:
            handle.close()
    Path(args.out).write_text(json.dumps(result.hyperparameters.to_dict(), sort_keys=True))
    print(f"tuned: cv mlogloss {result.cv_score:.6f} after {result.evaluations} evaluations")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _load_config(args.config)
    train_path = _require(args.train, "preprocessed training CSV (run `preprocess` first)")
    train_db = _parse_train_csv(train_path)
    if args.hp:
        hp = Hyperparameters.from_dict(json.loads(_require(args.hp, "hyperparameters JSON").read_text()))
    elif config.hyperparameters is not None:
        hp = config.hyperparameters
    else:
        raise ConfigError("no hyperparameters: pass --hp or set them in the config")
    X, y = to_matrix(train_db)
    model = train(X, y, hp, _stage_seed(config.seed, 30), feature_names=train_db.schema.names)
    Path(args.out).write_text(serialize_ensemble(model))
    print(f"trained {model.num_rounds_trained} rounds -> {args.out}")
    return EXIT_OK


def _load_model(path: str):
    return load_ensemble(_require(path, "model JSON (run `train` first)").read_text())


def cmd_evaluate(args) -> int:
    model = _load_model(args.model)
    data_path = _require(args.data, "preprocessed evaluation CSV")
    db = _parse_train_csv(data_path)
    if db.schema.names != model.feature_names:
        raise PipelineError("evaluation CSV features do not match the model's features")
    X, y = to_matrix(db)
    report = EvaluationReport.from_predictions(
        args.role, db.tag.value, predict_class(model, X), y, model.hp.num_class
    )
    Path(args.out).write_text(json.dumps(report.to_dict(), sort_keys=True))
    print(f"{args.role}: accuracy {report.accuracy:.4f} "
          f"({report.neighborhood_accuracy:.4f}), f1 {report.macro_f1:.4f}")
    return EXIT_OK


def cmd_explain(args) -> int:
    model = _load_model(args.model)
    data_path = _require(args.data, "preprocessed CSV")
    db = _parse_train_csv(data_path)
    if db.schema.names != model.feature_names:
        raise PipelineError("CSV features do not match the model's features")
    summary = importance_from_database(model, db, sample=args.sample, seed=args.seed)
    Path(args.out).write_text(summary.to_csv())
    print("importance ranking:", ", ".join(summary.ranking[:4]), "...")
    return EXIT_OK


def cmd_run(args) -> int:
    config = _load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    result = run_pipeline(config, args.out)
    for role in ("train", "test", "independent"):
        report = result.reports.get(role)
        if report is None:
            continue
        print(f"{role:12s} acc {report.accuracy:.4f} ({report.neighborhood_accuracy:.4f}) "
              f"f1 {report.macro_f1:.4f}  n={report.sample_count}")
    print(f"artifacts in {result.run_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfclass",
        description="Recovery-factor class estimation workflow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic source database CSV")
    p.add_argument("--preset", choices=["toris", "commercial", "atlas"], required=True)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--divergence", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="parse, merge and de-duplicate the combo sources")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("preprocess", help="prepare train/test CSVs from a merged CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True, help="merged.csv from `ingest`")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("tune", help="pairwise hyperparameter search")
    p.add_argument("--config", required=True)
    p.add_argument("--train", required=True, help="train.csv from `preprocess`")
    p.add_argument("--out", required=True, help="tuned hyperparameters JSON")
    p.add_argument("--trace", help="tuning trace JSONL path")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("train", help="fit the boosted ensemble")
    p.add_argument("--config", required=True)
    p.add_argument("--train", required=True, help="train.csv from `preprocess`")
    p.add_argument("--hp", help="hyperparameters JSON from `tune`")
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a saved model on a preprocessed CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--role", default="test")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("explain", help="importance summary for a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--sample", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="importance CSV path")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("run", help="full workflow into a run directory")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StageFailure as exc:
        print(f"error {exc}", file=sys.stderr)
        return _exit_code(exc)
    except (ConfigError, IngestError, PipelineError, TrainingError, ValueError) as exc:
        print(f"error [{args.command}] {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
