"""The README's command lines run, and its map expressions mean what it says."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from preper.cli import MapSyntaxError, main, parse_map

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
F = Fraction


def _sh_command_lines() -> list[str]:
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", README, flags=re.S):
        lines += [ln.strip() for ln in block.splitlines() if ln.strip().startswith("preper ")]
    return lines


def _map_expression_spans() -> list[str]:
    """The backticked examples under "Map expressions", `--map` values unwrapped."""
    section = README.split("### Map expressions", 1)[1].split("\n### ", 1)[0]
    spans = []
    for span in re.findall(r"`([^`]+)`", section):
        if span != "--map":
            spans.append(re.sub(r"^--map[ =]", "", span))
    return spans


# each example under "Map expressions": its (numerator, denominator) in
# ascending coefficients, or None where the text calls it a syntax error
_EXPECTED = {
    "x^2+1": ((1, 0, 1), (1,)),
    "(x-1)*(x-2)/x^2": ((2, -3, 1), (0, 0, 1)),
    "(x^3+1)/x": ((1, 0, 0, 1), (0, 1)),
    "2/3*x^2": ((0, 0, F(2, 3)), (1,)),
    "1/x + x^2": None,
    "((x+1)/x)": None,
    "(x+1)/x": ((1, 1), (0, 1)),
    "-x^2/(x+1)": ((0, 0, -1), (1, 1)),
    "-x^2+3": ((3, 0, -1), (1,)),
}


def test_readme_lists_command_lines():
    assert len(_sh_command_lines()) >= 8


@pytest.mark.parametrize("line", _sh_command_lines())
def test_readme_command_line_exits_zero(line, tmp_path, capsys):
    argv = shlex.split(line.split("|", 1)[0], comments=True)[1:]
    out = None
    if "--out" in argv:
        k = argv.index("--out") + 1
        out = argv[k] = str(tmp_path / argv[k])
    assert main(argv) == 0, capsys.readouterr().err
    assert (Path(out).read_text() if out else capsys.readouterr().out).strip()


def test_readme_map_examples_are_the_checked_ones():
    assert sorted(set(_map_expression_spans())) == sorted(_EXPECTED)


@pytest.mark.parametrize("text", sorted(_EXPECTED))
def test_readme_map_example_parses_as_described(text):
    if _EXPECTED[text] is None:
        with pytest.raises(MapSyntaxError):
            parse_map(text)
    else:
        expr = parse_map(text)
        assert (expr.num, expr.den) == _EXPECTED[text]


def test_readme_minus_spellings_agree(capsys):
    assert main(["analyze", "--map", "-x^2+3"]) == 0
    separate = capsys.readouterr()
    assert main(["analyze", "--map=-x^2+3"]) == 0
    assert capsys.readouterr() == separate
