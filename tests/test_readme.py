"""The README's library quick start runs against the current API."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert blocks, "no python block under 'Library quick start'"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue().startswith("6 (")
