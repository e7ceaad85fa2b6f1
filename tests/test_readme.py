"""README's Quick start runs as written and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_blocks():
    text = README.read_text(encoding="utf-8")
    start = text.index("## Quick start")
    section = text[start:text.index("\n## ", start)]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_quick_start_runs_and_prints_its_totals(capsys):
    blocks = quick_start_blocks()
    assert len(blocks) == 2
    # the totals and the verdict the first block states in its comments
    expected = ["4152672 937886", "True"]
    assert [line.rpartition("# ")[2] for line in blocks[0].splitlines()
            if line.startswith("print(")][:2] == expected
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md Quick start block {i}", "exec"), namespace)
    assert capsys.readouterr().out.splitlines()[:2] == expected
