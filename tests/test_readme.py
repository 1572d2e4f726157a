"""README's Python quick start, run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    section = README.read_text().split("## Quick start (Python)\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_what_its_comments_say():
    code = quick_start()
    comments = [line.split("# ", 1)[1] for line in code.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments) == 4
    for line, comment in zip(printed, comments):
        # a comment is the printed value, maybe followed by a note in parens
        assert comment == line or comment.startswith(line + " (")
