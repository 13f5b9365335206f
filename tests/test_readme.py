"""The README "Library use" example runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_prints_f_near_its_limit():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_use_block(), str(README), "exec"), {})
    f, limit = map(float, out.getvalue().split())
    # measured 2.41060 against 1 + sqrt(2) = 2.41421 at N = 1e5
    assert abs(limit - (1 + 2**0.5)) < 1e-9
    assert abs(f - limit) < 0.01
