"""The README's library example runs against the current API."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    section = text[text.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 2
    assert float(lines[1]) <= 0.05  # practical consensus, as in criterion 7
