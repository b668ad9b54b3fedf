"""README examples run as written, so the README cannot go stale.

The ``python`` block of the Library section is executed. Each ``nle``
command of the Quick start block runs through ``nle.cli.main`` and must exit
0; the comment lines under it either give ``name = value`` pairs, each
matched within 1e-6 by the same name in the output, or (with no pair) a
line the output must contain. The Errors table lists every error code.
"""

import re
import shlex
from pathlib import Path

import pytest

from nle import errors
from nle.cli import EXIT_DOMAIN, EXIT_PARSE, main

README = (Path(__file__).parents[1] / "README.md").read_text()
PAIR = re.compile(r"(\w+) = (-?\d+\.\d+)")


def _block(section: str, language: str) -> str:
    body = README.split(f"\n## {section}\n", 1)[1]
    return body.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def _quick_start():
    """(argv, expected comment lines) of each Quick start command."""
    commands = []
    for line in _block("Quick start", "sh").splitlines():
        if line.startswith("nle "):
            commands.append((shlex.split(line, comments=True)[1:], []))
        elif line.startswith("#"):
            commands[-1][1].append(line.lstrip("#").strip())
    return [pytest.param(argv, expected, id=" ".join(argv)) for argv, expected in commands]


def test_library_block_runs():
    exec(compile(_block("Library", "python"), "README.md", "exec"), {})


@pytest.mark.parametrize("argv,expected", _quick_start())
def test_quick_start_command(capsys, argv, expected):
    assert main(argv) == 0
    out = capsys.readouterr().out
    printed = dict(PAIR.findall(out))
    for comment in expected:
        pairs = PAIR.findall(comment)
        if not pairs:
            assert comment in out
        for name, value in pairs:
            assert abs(float(printed[name]) - float(value)) <= 1e-6, (name, printed[name], value)


def test_error_table_lists_every_code_with_its_exit():
    body = README.split("\n### Errors\n", 1)[1].split("\n#", 1)[0]
    listed = dict(re.findall(r"^\| `([a-z-]+)` \| (\d) \|", body, re.M))
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.NleError)]
    assert sorted(listed) == sorted(c.code for c in classes)
    for c in classes:
        assert int(listed[c.code]) == (EXIT_PARSE if c is errors.FileFormatError else EXIT_DOMAIN), c.code
