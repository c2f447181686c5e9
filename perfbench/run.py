"""Closed-loop benchmark of rfclass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. One caller drives one workload in
this process: set-up runs three times (the last one's state is kept), then
operations run back to back, each starting when the previous one returned,
until about S seconds have passed. No threads, pools or subprocesses are
started. The program is imported from ``src/`` of the checkout; scratch
files go to ``.perfbench_work/`` there and are removed on exit.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` operations alternate between untraced
and traced, and the JSON holds the per-layer metrics of the traced ones. The
lines before it give the machine, the measurement limits, every operation's
time, the workload's own throughput and quality figures, and output digests.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
MAX_ERROR_LINES = 5
WORKLOAD_NAMES = ("pipeline_tc", "tune_tc", "explain_tc", "ingest_tca_large")

LIMITS = ("shared machine; page cache not dropped; no system-wide tracing; "
          "peak RSS is getrusage(RUSAGE_SELF).ru_maxrss of this fresh process, "
          "set-up included")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _load_references() -> dict:
    path = HERE / "fingerprints.json"
    return json.loads(path.read_text()) if path.exists() else {}


@dataclass
class Measurement:
    """Everything one run observed."""

    setup_s: list[float] = field(default_factory=list)
    untraced_s: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    harness_errors: list[str] = field(default_factory=list)
    digest: dict | None = None
    quality: dict[str, float] = field(default_factory=dict)
    layer_rows: list[dict] = field(default_factory=list)
    setup_rows: list[dict] = field(default_factory=list)


def run(workload_name: str, seed: int, seconds: float, trace: bool, work: Path,
        sizes: str = "full", sabotage=None) -> tuple[Measurement, object]:
    """Set up and drive one workload; ``sabotage`` may alter the workload
    after set-up (the self-test uses it to plant a failing operation)."""
    import tracing
    import workloads

    tracer = tracing.Tracer() if trace else None
    m = Measurement()
    wl = None
    for _ in range(SETUP_REPEATS):
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        wl = workloads.WORKLOADS[workload_name](seed, workloads.SIZES[sizes][workload_name])
        gc.collect()
        if tracer is not None:
            first = len(tracer.spans)
            with tracing.instrumented(tracer), tracer.span("harness.setup") as root:
                wl.setup(work)
            m.setup_s.append(root.duration)
            m.setup_rows.append(tracing.setup_metrics(tracer.spans, first))
        else:
            start = perf_counter()
            wl.setup(work)
            m.setup_s.append(perf_counter() - start)
    if sabotage is not None:
        sabotage(wl)

    loop_start = perf_counter()
    while True:
        traced = tracer is not None and m.attempted % 2 == 1
        m.attempted += 1
        gc.collect()
        first = len(tracer.spans) if traced else 0
        try:
            if traced:
                with tracing.instrumented(tracer), tracer.span("harness.op") as root:
                    result = wl.op()
                m.traced_s.append(root.duration)
            else:
                start = perf_counter()
                result = wl.op()
                m.untraced_s.append(perf_counter() - start)
            outcome = wl.check(result)
        except Exception as exc:  # an operation that raises counts as failed
            outcome = workloads.Outcome(errors=[f"{type(exc).__name__}: {exc}"])
            traced = False
        else:
            if m.digest is None:
                m.digest = outcome.digest
            elif outcome.digest != m.digest:
                outcome.errors.append("outputs differ from the run's first operation")
            m.quality = outcome.quality
        if outcome.errors:
            m.failed += 1
            m.errors.extend(f"op {m.attempted}: {e}" for e in outcome.errors)
        if traced:
            m.layer_rows.append(_layer_row(tracer, first, wl, outcome, m.harness_errors))
        wl.after_op()
        if _done(m, loop_start, seconds, trace):
            return m, wl


def _layer_row(tracer, first: int, wl, outcome, harness_errors: list[str]) -> dict:
    """Per-layer metrics of the traced operation whose root span is ``first``,
    with the span checks that do not depend on the workload's own checks."""
    import tracing

    # only the run workloads write a run directory
    row = {"pipeline.artifact_bytes": 0, **tracing.root_metrics(tracer.spans, first),
           **outcome.layer_counts}
    if row["trace.unaccounted_s"] > 1e-6:
        harness_errors.append(
            f"layer self times miss the traced wall by {row['trace.unaccounted_s']:.3g} s")
    expected = getattr(wl, "injected", None)
    if expected is not None and row["dataset.dedupe_dropped"] != expected:
        harness_errors.append(f"span count dataset.dedupe_dropped="
                              f"{row['dataset.dedupe_dropped']}, injected {expected}")
    return row


def _done(m: Measurement, loop_start: float, seconds: float, trace: bool) -> bool:
    """Stop once less than half an operation's time is left; at least one
    operation, and one of each kind when tracing."""
    if m.attempted < (2 if trace else 1):
        return False
    walls = m.untraced_s + m.traced_s
    left = seconds - (perf_counter() - loop_start)
    return not walls or left < 0.5 * statistics.median(walls)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def summarize(workload_name: str, seed: int, trace: bool, m: Measurement, wl,
              units: dict[str, str]) -> tuple[dict, list[str]]:
    """The report lines and the result object of one run; ``units`` maps
    each metric the run must emit to its unit."""
    import tracing

    lines = []
    info = machine()
    lines.append(f"perfbench workload={workload_name} seed={seed} trace={int(trace)} "
                 f"closed loop, 1 caller")
    lines.append("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    lines.append("limits: " + LIMITS)
    lines.append("setup_s each: " + " ".join(f"{t:.4f}" for t in m.setup_s))
    lines.append(f"operations: attempted={m.attempted} failed={m.failed} "
                 f"error_rate={m.failed / m.attempted:.4f}")
    if m.untraced_s:
        lines.append("untraced op wall_s: " + " ".join(f"{t:.4f}" for t in m.untraced_s))
    if m.traced_s:
        lines.append("traced op wall_s: " + " ".join(f"{t:.4f}" for t in m.traced_s))
    if m.untraced_s and wl is not None and wl.items_per_op:
        rate = wl.items_per_op / statistics.median(m.untraced_s)
        lines.append(f"{wl.items_name} {rate:.6g} 1/s ({wl.items_per_op} per op)")
    for name, value in sorted(m.quality.items()):
        lines.append(f"{name} {value!r} {'nats' if name.endswith('mlogloss') else 'fraction'}")
    references = _load_references().get(workload_name, {}).get(str(seed))
    for name, digest in sorted((m.digest or {}).items()):
        if references is None:
            verdict = "no reference for this seed"
        elif references.get(name) == digest:
            verdict = "matches reference"
        else:
            verdict = "DIFFERS from reference"
        lines.append(f"fingerprint {name} sha256={digest} ({verdict})")

    metrics = {}
    if not trace and m.untraced_s:
        metrics["setup_s"] = _metric(statistics.median(m.setup_s), "s")
        metrics["wall_s"] = _metric(statistics.median(m.untraced_s), "s")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = _metric(rss_kb / 1024.0, "MB")
    elif trace and m.layer_rows:
        values = tracing.median_metrics(m.layer_rows)
        values.update(tracing.median_metrics(m.setup_rows))
        untraced = statistics.median(m.untraced_s)
        values["trace_overhead_pct"] = 100.0 * (statistics.median(m.traced_s) - untraced) / untraced
        lines.append(f"trace_overhead_pct {values['trace_overhead_pct']:.3f} % "
                     f"(median traced vs untraced op wall)")
        lines.append(f"span check: layer self times sum to the traced wall within "
                     f"{max(r['trace.unaccounted_s'] for r in m.layer_rows):.3g} s")
        for name, unit in units.items():
            if name in values:
                metrics[name] = _metric(values[name], unit)
    missing = [name for name in units if name not in metrics]
    if missing:
        m.harness_errors.append(f"metrics not measured: {missing}")
    errors = m.harness_errors + m.errors
    lines.extend("error: " + err for err in errors[:MAX_ERROR_LINES])
    if len(errors) > MAX_ERROR_LINES:
        lines.append(f"error: ... and {len(errors) - MAX_ERROR_LINES} more")
    result = {
        "correct": m.failed == 0 and not m.harness_errors and not missing,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }
    return result, lines


def metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {entry["name"]: entry["unit"] for entry in spec[key]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "rfclass" / "__init__.py").is_file():
        print(f"perfbench: no rfclass sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        m, wl = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
        result, lines = summarize(args.workload, args.seed, bool(args.trace), m, wl,
                                  metric_units(bool(args.trace)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
