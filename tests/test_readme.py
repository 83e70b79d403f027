"""The README's library example runs as printed against the current API."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    match = re.search(r"^## Library\n+```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.S | re.M)
    assert match, "README has no python block right under '## Library'"
    return match.group(1)


def test_library_example_prints_the_distance_table():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_block(), str(README), "exec"), {})
    header = out.getvalue().splitlines()[0].split("\t")
    assert header[:2] == ["d_1f", "d_1l"]
