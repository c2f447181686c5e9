"""Command-line entry point.

`main` checks the output paths, loads `--config` and hands the config to
the subcommand. Each stage subcommand reads the previous stage's on-disk
artifacts, makes one call to the stage function `run_pipeline` also calls
(`rfclass.pipeline`), and writes the result to `--out`. Its output equals
the matching file of a run directory byte for byte.

    synth       generate a synthetic source database CSV
    ingest      parse + merge + de-duplicate into merged.csv
    preprocess  filter/prune/split/impute/transform into train.csv, test.csv,
                preprocess_meta.json and (given the held-out source) independent.csv
    tune        hyperparameters.json (and the tuning trace) from train.csv
    train       fit the boosted ensemble to model.json
    evaluate    score a saved model on one role's prepared CSV
    explain     importance summary for a saved model
    run         the whole workflow into a run directory, published whole

Every subcommand checks its output paths before it reads any input, and
reports an error as `error [<stage>] <message>` on stderr, where the stage
is the subcommand's name or, under `run`, the failing stage's. Exit codes:
0 success, 2 config error, 3 data error, 4 training error.
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .booster import Hyperparameters, load_ensemble, serialize_ensemble
from .errors import ConfigError, PipelineError, TrainingError
from .pipeline import (PipelineConfig, StageFailure, SynthConfig, _dump_json, _stage,
                       evaluate, explain, fit, held_out, ingest, preprocess, read_input,
                       read_prepared, run_pipeline, tune, write_csv)
from .synth import _PRESETS, generate, preset

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


def _check_outputs(args) -> None:
    """Refuse, before any work, an output the command could not write: a
    `--out` or `--trace` file must not be a directory and must lie in one
    that exists, and the directory `preprocess --out` makes must not be a
    file. `run_pipeline` checks a run directory itself."""
    if args.command == "preprocess":
        if Path(args.out).exists() and not Path(args.out).is_dir():
            raise PipelineError(f"output directory {args.out} is a file")
    elif args.command != "run":
        for path in map(Path, filter(None, (args.out, getattr(args, "trace", None)))):
            if path.is_dir():
                raise PipelineError(f"output file {path} is a directory")
            if not path.parent.is_dir():
                raise PipelineError(f"no directory for output file {path}: "
                                    f"{path.parent} does not exist")


def _read_json(path: str, what: str, load=json.loads):
    """`load` of the text of the JSON file at `path`; a decoding error also
    names the file."""
    text = read_input(path, what)
    try:
        return load(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{exc} ({path})") from None


def _read_for(model, path: str, config: PipelineConfig):
    """The prepared CSV at `path`, checked against the model's features."""
    db = read_prepared(path, "prepared CSV from `preprocess`", config)
    if db.schema.names != model.feature_names:
        raise PipelineError(f"features of {path} do not match the model's features")
    return db


def cmd_synth(args, config: None) -> int:
    spec = preset(args.preset, args.divergence)
    db = generate(spec, args.n, args.seed)
    write_csv(args.out, db)
    print(f"wrote {len(db)} records to {args.out}")
    return EXIT_OK


def cmd_ingest(args, config: PipelineConfig) -> int:
    merged = ingest(config)
    write_csv(args.out, merged)
    print(f"merged {merged.tag.value}: {len(merged)} records -> {args.out}")
    return EXIT_OK


def cmd_preprocess(args, config: PipelineConfig) -> int:
    merged = read_prepared(args.data, "merged CSV from `ingest`", config)
    prepared = preprocess(merged, config, held_out(config))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    prepared.write(out)
    print(f"preprocessed: train={len(prepared.train)} test={len(prepared.test)} -> {out}")
    if prepared.independent is None:
        # else an independent.csv an earlier call left in --out would pass for this one's
        (out / "independent.csv").unlink(missing_ok=True)
        print(f"no held-out database in the config for {config.combo.value}: "
              f"independent.csv not written")
    return EXIT_OK


def cmd_tune(args, config: PipelineConfig) -> int:
    train_db = read_prepared(args.train, "training CSV from `preprocess`", config)
    hp, trace = tune(train_db, config)
    if args.trace and trace is not None:
        Path(args.trace).write_text(trace)
    elif args.trace:
        # else a trace an earlier call left at --trace would pass for this one's
        Path(args.trace).unlink(missing_ok=True)
        print(f"no grid in the config, so no search to trace: {args.trace} not written")
    _dump_json(Path(args.out), hp.to_dict())
    print(f"hyperparameters -> {args.out}")
    return EXIT_OK


def cmd_train(args, config: PipelineConfig) -> int:
    train_db = read_prepared(args.train, "training CSV from `preprocess`", config)
    if args.hp:
        hp = Hyperparameters.from_dict(_read_json(args.hp, "hyperparameters JSON"))
    else:
        hp, _ = tune(train_db, config)
    model = fit(train_db, hp, config)
    Path(args.out).write_text(serialize_ensemble(model))
    print(f"trained {model.num_rounds_trained} rounds -> {args.out}")
    return EXIT_OK


def _load_model(path: str):
    return _read_json(path, "model JSON from `train`", load_ensemble)


def cmd_evaluate(args, config: PipelineConfig) -> int:
    model = _load_model(args.model)
    report = evaluate(model, _read_for(model, args.data, config), args.role, config)
    _dump_json(Path(args.out), report.to_dict())
    print(f"{args.role}: accuracy {report.accuracy:.4f} "
          f"({report.neighborhood_accuracy:.4f}), f1 {report.macro_f1:.4f}")
    return EXIT_OK


def cmd_explain(args, config: PipelineConfig) -> int:
    model = _load_model(args.model)
    summary = explain(model, _read_for(model, args.data, config), config)
    Path(args.out).write_text(summary.to_csv())
    print("importance ranking:", ", ".join(summary.ranking[:4]), "...")
    return EXIT_OK


def cmd_run(args, config: PipelineConfig) -> int:
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
    stage = argparse.ArgumentParser(add_help=False)
    stage.add_argument("--config", required=True)

    p = sub.add_parser("synth", help="generate a synthetic source database CSV")
    p.add_argument("--preset", choices=list(_PRESETS), required=True)
    p.add_argument("--n", type=int, default=SynthConfig.n)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--divergence", type=float, default=SynthConfig.divergence)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", parents=[stage], help="merge and de-duplicate the sources")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("preprocess", parents=[stage], help="prepare the sets of merged.csv")
    p.add_argument("--data", required=True, help="merged.csv from `ingest`")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("tune", parents=[stage], help="pairwise hyperparameter search")
    p.add_argument("--train", required=True, help="train.csv from `preprocess`")
    p.add_argument("--out", required=True, help="tuned hyperparameters JSON")
    p.add_argument("--trace", help="tuning trace JSONL path")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("train", parents=[stage], help="fit the boosted ensemble")
    p.add_argument("--train", required=True, help="train.csv from `preprocess`")
    p.add_argument("--hp", help="hyperparameters JSON from `tune`")
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[stage], help="score a saved model on one role")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--role", choices=["train", "test", "independent"], default="test")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("explain", parents=[stage], help="importance summary for a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="train.csv from `preprocess`")
    p.add_argument("--out", required=True, help="importance CSV path")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("run", parents=[stage], help="full workflow into a run directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _stage(args.command):
            _check_outputs(args)
            config = (PipelineConfig.from_json(read_input(args.config, "config", ConfigError))
                      if "config" in args else None)
            return args.func(args, config)
    except StageFailure as exc:
        print(f"error {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
