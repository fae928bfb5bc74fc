"""The README's command lines and quick start run; its map expressions mean what it says."""

import builtins
import importlib
import pkgutil
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

import preper
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
    "x^4096*x": None,
    "(x^64+1)^65": None,
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


def test_readme_python_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})  # asserts bundle.all_hold itself
    assert "-2 falls to 2 after 1 steps" in capsys.readouterr().out.splitlines()


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


MODULES = sorted(info.name for info in pkgutil.iter_modules(preper.__path__))


def _resolves(path: list[str]) -> bool:
    """Whether preper.<path[0]>.<path[1]>... exists; the empty path is preper."""
    if path and path[0] not in MODULES:
        return False
    obj = importlib.import_module(".".join(["preper", *path[:1]]))
    for name in path[1:]:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def _code_names(text: str) -> dict[str, bool]:
    """The backticked names in text that point into preper, each with whether it resolves.

    A dotted `module.name` or `preper.module.name` names a module of preper
    and an attribute path in it.  A call `name(...)` or a `_private` name,
    not one of Python's builtins, must be defined in some module of preper.
    Fenced code blocks are left out; the command-line tests run those.
    """
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    names = {}
    for span in re.findall(r"`([^`]+)`", prose):
        m = re.fullmatch(r"([A-Za-z_]\w*(?:\.\w+)*)(\(.*\))?", span)
        if m is None:
            continue
        dotted, call = m.groups()
        path = dotted.split(".")
        if path[0] == "preper":
            names[dotted] = _resolves(path[1:])
        elif len(path) > 1 and path[0] in MODULES:
            names[dotted] = _resolves(path)
        elif len(path) == 1 and (call or dotted.startswith("_")):
            if not hasattr(builtins, dotted):
                names[dotted] = any(_resolves([module, dotted]) for module in MODULES)
    return names


def test_readme_code_names_resolve():
    names = _code_names(README)
    assert {
        "dynmap.apply",
        "dynmap.image_pair",
        "dynmap.image_row",
        "portrait.default_period_cap",
        "preper.cli.portrait_from_json",
        "preper.cli.portrait_to_json_dict",
        "dynatomic_records",
        "escape_height",
        "preperiodic_height_bound",
        "_bareiss",
        "preper.qarith",
    } <= set(names)
    assert [name for name, ok in names.items() if not ok] == []


def test_readme_code_name_check_finds_a_stale_name():
    text = (
        "`dynmap.image_row` and `preper.forms` stay, `qarith._wheel` is gone, "
        "and `str(int)`, `fractions.Fraction` and `Portrait.cycles` are not checked"
    )
    assert _code_names(text) == {
        "dynmap.image_row": True,
        "preper.forms": True,
        "qarith._wheel": False,
    }
    assert _code_names("`_bareiss` and `escape_height(phi)` but `_gone(x)`") == {
        "_bareiss": True,
        "escape_height": True,
        "_gone": False,
    }
