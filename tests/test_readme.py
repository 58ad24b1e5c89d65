"""Every ```python block of README.md runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_block_runs(code, capsys):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    capsys.readouterr()
