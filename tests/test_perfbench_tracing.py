"""The benchmark drives rfclass through its CLI and public functions and
traces it by wrapping module and class attributes by name (`perfbench/`).
Renaming a traced name, or breaking a flag or stage the workloads' set-up
uses, would break the next benchmark run; these tests make it fail the suite
instead."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL_AND_RESTORE = """
import tracing
with tracing.instrumented(tracing.Tracer()):
    pass
print("targets: ok")
"""

TINY_WORKLOADS = """
import sys
from pathlib import Path
import run
for name in run.WORKLOAD_NAMES:
    m, wl = run.run(name, seed=7, seconds=0.0, trace=False, work=Path(sys.argv[1]) / name,
                    sizes="tiny")
    result, lines = run.summarize(name, 7, False, m, wl, run.metric_units(False))
    print(name, result["correct"], result["failed"], *lines[-3:], sep=" | ")
"""


def _perfbench(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    return subprocess.run([sys.executable, "-c", script, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_every_traced_name_exists():
    proc = _perfbench(INSTALL_AND_RESTORE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "targets: ok"


def test_every_workload_runs_correct_at_tiny_size(tmp_path):
    proc = _perfbench(TINY_WORKLOADS, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(" | ") for line in proc.stdout.splitlines()]
    assert [row[0] for row in rows] == ["pipeline_tc", "tune_tc", "explain_tc",
                                        "ingest_tca_large"]
    for name, correct, failed, *detail in rows:
        assert correct == "True" and failed == "0", (name, detail)


TRACED_INGEST = """
import sys
from pathlib import Path
import run
m, wl = run.run("ingest_tca_large", seed=7, seconds=0.0, trace=True, work=Path(sys.argv[1]),
                sizes="tiny")
result, lines = run.summarize("ingest_tca_large", 7, True, m, wl, run.metric_units(True))
print(*(result["metrics"][name]["value"]
        for name in ("dataset.serialize_s", "dataset.serialize_bytes")))
"""


def test_a_traced_run_times_its_csv_writing(tmp_path):
    """The benchmark times CSV writing by wrapping `pipeline.serialize_database`,
    so a run must write its CSVs through that name."""
    proc = _perfbench(TRACED_INGEST, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    seconds, size = map(float, proc.stdout.split())
    assert seconds > 0 and size > 0
