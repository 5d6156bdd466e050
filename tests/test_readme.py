"""The examples of README.md run, and give the values it states."""

import pathlib

import pytest

from toricurves.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, lang: str) -> list[str]:
    """The lines of the first ```lang block under the heading."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0].splitlines()


COMMANDS = [line.split("#")[0].split()[1:]
            for line in _block("Command line", "sh")
            if line.startswith("toricurves ")]


def test_the_command_line_block_is_read():
    assert len(COMMANDS) == 8


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_line_example_succeeds(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""


def test_library_comments_are_the_values():
    """Each commented line of the snippet evaluates to what its comment
    says; the other lines are run in order before it."""
    namespace = {}
    checked = []
    for line in _block("Library", "python"):
        code, _, comment = line.partition("#")
        if comment:
            assert str(eval(code, namespace)) == comment.strip(), line
            checked.append(code.strip())
        else:
            exec(code, namespace)
    assert checked == ["hom_class(p2, (1, 1, 1))", "tamagawa(p2, 12)"]
