"""README's Python quick start and command-line examples, run as
written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from qdepth.cli import main

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


def command_examples() -> list[tuple[str, list[str]]]:
    """Each `$ qdepth ...` block under "Command line": the command and the
    lines it prints."""
    section = README.read_text().split("## Command line\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```text\n\$ (qdepth .*?)\n(.*?)```", section, re.S)
    return [(command, output.splitlines()) for command, output in blocks]


EXAMPLES = command_examples()


@pytest.mark.parametrize("command,expected", EXAMPLES,
                         ids=[command for command, _ in EXAMPLES])
def test_command_line_example_prints_what_it_shows(command, expected, capsys):
    assert main(shlex.split(command)[1:]) == 0
    printed = capsys.readouterr().out.splitlines()
    # a last line "..." stands for the rest of the output
    if expected[-1] == "...":
        expected = expected[:-1]
        printed = printed[:len(expected)]
    assert printed == expected
