"""Every fenced ``python`` block of README.md runs."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
# (line of the opening fence, code) for each block
BLOCKS = [
    (TEXT.count("\n", 0, m.start()) + 1, m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"line{ln}" for ln, _ in BLOCKS])
def test_readme_block_runs(line, code):
    # compile with the fence's offset so a traceback names the README line
    exec(compile("\n" * line + code, str(README), "exec"), {})
