"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload untraced and traced on tiny inputs and checks that every
metric BENCHMARK.json names is emitted with its unit, that the spans nest
(a run whose layer self times miss its traced wall is not ``correct``), and
that the per-layer counts match what each workload calls. Then plants a
failing operation (a source path that does not exist, which ``rfclass run``
answers with exit code 3) and checks that it raises the error rate without
stopping the harness. Last, it checks that the benchmark refuses to run,
without printing a result, where the program's sources are absent. Exits 0
when every check holds; takes a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)
        print("FAIL", message)


def _drive(name: str, trace: bool, work: Path, sabotage=None) -> dict:
    m, wl = run.run(name, seed=7, seconds=0.0, trace=trace, work=work,
                    sizes="tiny", sabotage=sabotage)
    result, _ = run.summarize(name, 7, trace, m, wl, run.metric_units(trace))
    return result


def check_metrics(work: Path) -> None:
    for name in run.WORKLOAD_NAMES:
        for trace in (False, True):
            result = _drive(name, trace, work)
            label = f"{name} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0,
                   f"{label}: operations failed or checks did not hold")
            for metric, unit in run.metric_units(trace).items():
                got = result["metrics"].get(metric)
                expect(got is not None and got["unit"] == unit,
                       f"{label}: metric {metric} missing or not in {unit}")
            if not trace:
                expect(all(v["value"] > 0 for v in result["metrics"].values()),
                       f"{label}: an end-to-end metric reads 0")
                continue
            v = {k: entry["value"] for k, entry in result["metrics"].items()}
            if name in ("pipeline_tc", "ingest_tca_large"):
                expect(v["cli.main_s"] >= v["pipeline.run_s"] >= v["booster.train_s"] > 0,
                       f"{label}: cli > pipeline > booster nesting not seen")
                expect(v["dataset.parse_rows"] > 0 and v["preprocess.rows_kept"] > 0
                       and v["explain.rows"] > 0 and v["metrics.rows_scored"] > 0,
                       f"{label}: a pipeline layer was not traced")
            if name == "tune_tc":
                expect(v["tuner.evaluations"] == 7 and v["tuner.fits"] == 14,
                       f"{label}: expected 7 evaluations and 14 fits (k=2), "
                       f"got {v['tuner.evaluations']} and {v['tuner.fits']}")
            if name == "explain_tc":
                expect(v["explain.rows"] == 6 and v["booster.train_s"] == 0
                       and v["booster.load_s"] > 0,
                       f"{label}: explain should attribute 6 rows and train only in set-up")
            if name == "ingest_tca_large":
                expect(v["dataset.dedupe_dropped"] == 120,
                       f"{label}: 120 injected duplicates, {v['dataset.dedupe_dropped']} dropped")


def check_failing_operation(work: Path) -> None:
    def missing_source(wl):
        config = json.loads(wl.config_path.read_text())
        config["sources"]["TORIS"]["path"] = str(work / "does-not-exist.csv")
        wl.config_path.write_text(json.dumps(config))

    result = _drive("pipeline_tc", False, work, sabotage=missing_source)
    expect(result["attempted"] >= 1 and result["failed"] == result["attempted"]
           and not result["correct"],
           "a run with a missing source was not counted as failed")


def check_refuses_without_sources(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, str(Path(run.HERE.name) / "run.py"), "--workload", "pipeline_tc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    work = run.ROOT / ".perfbench_work" / "selftest"
    try:
        check_metrics(work / "runs")
        check_failing_operation(work / "runs")
        check_refuses_without_sources(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print("selftest:", "ok" if not FAILURES else f"{len(FAILURES)} failure(s)")
    return 0 if not FAILURES else 1


if __name__ == "__main__":
    sys.exit(main())
