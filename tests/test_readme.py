"""The README's documented library use runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "no python block under '## Library use'"
    exec(compile(block.group(1), f"{README.name} (Library use)", "exec"), {})
