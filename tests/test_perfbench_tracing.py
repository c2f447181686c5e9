"""The benchmark traces rfclass by wrapping module and class attributes by
name (`perfbench/tracing.py`). Renaming or removing one of them would break
`perfbench/run.py --trace 1` with a KeyError; this test makes it fail the
suite instead."""

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


def test_every_traced_name_exists():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", INSTALL_AND_RESTORE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "targets: ok"
