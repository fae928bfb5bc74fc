"""Tests for the expression parser, subcommands, and output formats."""

import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from preper import cli, forms
from preper.certify import make_certificates
from preper.cli import (
    MAX_EXPONENT,
    MAX_NESTING,
    MapExpr,
    MapSyntaxError,
    expr_to_text,
    main,
    parse_map,
    portrait_from_json,
    portrait_to_dot,
    portrait_to_json_dict,
)
from preper.dynmap import DegenerateMapError, InvariantViolation, build_map
from preper.families import FamilySpec, generate
from preper.portrait import build_portrait, default_period_cap
from preper.qarith import ProjPoint


F = Fraction
DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def test_parse_plain_polynomial():
    expr = parse_map("x^2+1")
    assert expr.num == (F(1), F(0), F(1))
    assert expr.den == (F(1),)


def test_parse_split_map():
    expr = parse_map("(x-1)*(x-2)/x^2")
    assert expr.num == (F(2), F(-3), F(1))
    assert expr.den == (F(0), F(0), F(1))


def test_parse_rational_literal_is_not_a_split():
    expr = parse_map("2/3*x^2")
    assert expr.num == (F(0), F(0), F(2, 3))
    assert expr.den == (F(1),)


def test_parse_leading_minus_and_unicode_minus():
    assert parse_map("-x^2 + 1").num == (F(1), F(0), F(-1))
    unicode_form = parse_map("x^2 − 1")
    ascii_form = parse_map("x^2 - 1")
    assert (unicode_form.num, unicode_form.den) == (ascii_form.num, ascii_form.den)


def test_parse_rejects_division_inside_a_sum():
    with pytest.raises(MapSyntaxError):
        parse_map("1/x + x^2")


def test_parse_rejects_second_division():
    with pytest.raises(MapSyntaxError):
        parse_map("x^2/(x-1)/x")
    with pytest.raises(MapSyntaxError):
        parse_map("x^2/(x-1)*x")


def test_parse_leading_minus_negates_the_numerator_of_a_split():
    expr = parse_map("-x^2/(x+1)")
    assert expr.num == (F(0), F(0), F(-1))
    assert expr.den == (F(1), F(1))
    phi = build_map(*parse_map("-(x-1)*(x-2)/x^2"))
    ex52 = generate(FamilySpec("ex52", 2))
    assert phi.F.coeffs == tuple(-c for c in ex52.F.coeffs)
    assert phi.G == ex52.G


@pytest.mark.parametrize("text", ["(x/3)", "((x+1)/x)", "(-x/3)", "2*((x+1)/x)"])
def test_parse_rejects_a_split_inside_parentheses(text):
    with pytest.raises(MapSyntaxError, match="may only split the whole expression once"):
        parse_map(text)


@pytest.mark.parametrize(
    "text, pos", [("1/x + x^2", 1), ("x^2/(x-1)/x", 3), ("x^2/(x-1)*x", 3), ("-x/2+1", 2)]
)
def test_split_error_names_the_split_and_its_position(text, pos):
    with pytest.raises(MapSyntaxError) as err:
        parse_map(text)
    assert err.value.pos == pos
    assert str(err.value) == (
        "'/' may only split the whole expression once; "
        f"write a single fraction like (x^3+1)/x (at position {pos})"
    )


def test_parse_rejects_zero_denominator_literal():
    with pytest.raises(MapSyntaxError):
        parse_map("1/0")


def test_parse_error_carries_position():
    try:
        parse_map("x^2 + $")
    except MapSyntaxError as e:
        assert e.pos == 6
        assert "position 6" in str(e)
    else:
        raise AssertionError("expected a syntax error")


@pytest.mark.parametrize("text, pos", [("x^2+2\u00b2", 5), ("x^2+\u0663", 4)])
def test_parse_takes_only_ascii_digits(text, pos, capsys):
    # str.isdigit holds for a superscript two and an Arabic-Indic three, but
    # neither is a digit of the grammar
    with pytest.raises(MapSyntaxError) as err:
        parse_map(text)
    assert err.value.pos == pos
    assert str(err.value) == f"unexpected character {text[pos]!r} (at position {pos})"
    assert main(["analyze", "--map", text]) == 2
    assert capsys.readouterr().err == f"error: {err.value}\n"


def test_parse_bounds_the_nesting_depth(capsys):
    # deep parentheses would exhaust Python's recursion limit: past
    # MAX_NESTING levels the opening parenthesis is a syntax error
    def nested(depth):
        return "(" * depth + "x^2" + ")" * depth

    assert parse_map(nested(MAX_NESTING)) == parse_map("x^2")
    for depth in (MAX_NESTING + 1, 200, 5000):
        with pytest.raises(MapSyntaxError) as err:
            parse_map(nested(depth))
        assert err.value.pos == MAX_NESTING
        assert str(err.value) == (
            f"parentheses nested deeper than {MAX_NESTING} (at position {MAX_NESTING})"
        )
    assert main(["analyze", "--map", nested(200)]) == 2
    assert capsys.readouterr().err == f"error: {err.value}\n"


@pytest.mark.parametrize(
    "text, pos, degree",
    [("(x^64+1)^65", 8, 4160), ("x^4096*x", 6, 4097), ("((x^16)^16)^17", 11, 4352)],
)
def test_parse_bounds_the_degree_of_products_and_powers(text, pos, degree, capsys):
    # nesting cannot get round MAX_EXPONENT: it bounds the degree of every
    # product and power too, checked at the operator before the polynomial
    # is built
    with pytest.raises(MapSyntaxError) as err:
        parse_map(text)
    assert str(err.value) == f"degree {degree} exceeds {MAX_EXPONENT} (at position {pos})"
    assert main(["analyze", "--map", text]) == 2
    assert capsys.readouterr().err == f"error: {err.value}\n"


def test_parse_allows_the_degree_bound_itself():
    for text in ("x^4096", "(x^64+1)^64"):
        assert len(parse_map(text).num) == MAX_EXPONENT + 1, text


def test_parse_raises_powers_by_repeated_squaring(monkeypatch):
    # a power takes at most two products per bit of its exponent, counted
    # at the top level only, so Karatsuba's own recursion is left out; up
    # to the cube it takes one product per factor, as before
    real, depth, calls = forms._product, [0], [0]

    def counted(a, b):
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            return real(a, b)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(forms, "_product", counted)
    monkeypatch.setattr(cli, "_product", counted)
    for k in (1, 2, 3, 1000):
        calls[0] = 0
        expr = parse_map(f"(x+1)^{k}")
        assert expr.num == tuple(math.comb(k, i) for i in range(k + 1)), k
        bound = 2 * math.ceil(math.log2(k)) if k > 3 else k
        assert calls[0] <= bound and (k > 3 or calls[0] == k), (k, calls)
    assert parse_map("(x+1)^0") == MapExpr((F(1),), (F(1),))


def test_parse_rejects_malformed_input():
    for bad in ("", "()", "2x", "x^-1", "x^2^3", "x +", "(x", "x)", "*x", "x^5000"):
        with pytest.raises(MapSyntaxError):
            parse_map(bad)


def test_cancelled_top_term_is_trimmed(capsys):
    assert main(["analyze", "--map", "x^3-x^3+x^2", "--format", "json"]) == 0
    cancelled = capsys.readouterr().out
    assert main(["analyze", "--map", "x^2", "--format", "json"]) == 0
    assert cancelled == capsys.readouterr().out


def test_parse_ignores_whitespace():
    spaced = parse_map(" ( x - 1 ) * ( x - 2 ) / x ^ 2 ")
    tight = parse_map("(x-1)*(x-2)/x^2")
    assert (spaced.num, spaced.den) == (tight.num, tight.den)


def test_parsed_map_matches_family_generator():
    phi = build_map(*parse_map("(x-1)*(x-2)/x^2"))
    assert phi == generate(FamilySpec("ex52", 2))


def test_print_parse_is_a_fixed_point_on_samples():
    samples = [
        "x^2+1",
        "(x-1)*(x-2)/x^2",
        "2/3*x^2 - x + 5",
        "-x^3 + 1/2",
        "(x^3+1)/x",
        "(7*x^4 - 2/5*x)/(x^2 + 3)",
    ]
    for text in samples:
        once = parse_map(text)
        rendered = expr_to_text(once)
        again = parse_map(rendered)
        assert (again.num, again.den) == (once.num, once.den)
        assert expr_to_text(again) == rendered


def test_print_parse_fixed_point_random():
    rng = random.Random(4150)
    for _ in range(60):
        num = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 5))]
        den = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 4))]
        num[-1] = num[-1] if num[-1] else F(1)
        den[-1] = den[-1] if den[-1] else F(1)
        expr = MapExpr(tuple(num), tuple(den))
        reparsed = parse_map(expr_to_text(expr))
        assert reparsed.num == expr.num
        assert reparsed.den == expr.den


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_code_on_syntax_error(capsys):
    assert main(["analyze", "--map", "1/0"]) == 2
    assert main(["analyze", "--map", "1/x + x^2"]) == 2
    assert "error" in capsys.readouterr().err


def test_exit_code_on_degenerate_map(capsys):
    assert main(["analyze", "--map", "x"]) == 3
    assert main(["analyze", "--map", "0"]) == 3
    assert "degenerate" in capsys.readouterr().err
    # a zero denominator is not a shared factor, and a zero numerator is
    # the constant map 0
    for text, reason in (
        ("x^2/0", "the denominator is zero"),
        ("0/(x^2+1)", "map degree 0 < 2"),
        ("(x^2-1)/(x-1)", "zero resultant: numerator and denominator share a factor"),
    ):
        assert main(["analyze", "--map", text]) == 3
        assert capsys.readouterr().err == f"degenerate map: {reason}\n", text


def test_exit_code_on_bad_family_parameters(capsys):
    assert main(["analyze", "--family", "ex52", "--d", "1"]) == 2
    assert main(["analyze", "--family", "ex52"]) == 2
    assert main(["analyze"]) == 2
    assert main(["analyze", "--family", "ex52", "--d-range", "4:2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["analyze", "bounds", "certify", "oracle"])
def test_family_without_a_parameter_names_only_real_flags(command, capsys):
    # only analyze has --d-range
    assert main([command, "--family", "ex52"]) == 2
    flags = "--d or --d-range" if command == "analyze" else "--d"
    assert capsys.readouterr() == ("", f"error: --family needs {flags}\n")


def test_flag_errors_carry_no_parse_position(capsys):
    # a flag problem is not a map syntax error, so no "(at position 0)"
    assert main(["analyze", "--family", "ex52", "--d-range", "a:b"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --d-range wants A:B, got 'a:b'\n"


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["analyze", "--map", "x^2-2", "--family", "ex52", "--d", "2"], "--map and --family"),
        (["analyze", "--map", "x^2", "--d", "5"], "--map and --d"),
        (["analyze", "--family", "ex52", "--d", "2", "--d-range", "3:3"], "--d and --d-range"),
        (["bounds", "--s", "2", "--d", "2", "--map", "x^2"], "--s and --map"),
        # the bound formulas alone build no portrait, and DOT has no oracle
        (["bounds", "--s", "2", "--d", "3", "--max-period", "5"], "--s and --max-period"),
        (
            ["analyze", "--map", "x^2-2", "--format", "dot", "--height-oracle", "5"],
            "--height-oracle and --format dot",
        ),
    ],
)
def test_conflicting_map_selectors_are_rejected(capsys, monkeypatch, argv, flags):
    # neither flag is silently dropped: the command fails and names both,
    # before any portrait is built
    built = []
    monkeypatch.setattr(cli, "build_portrait", lambda *a: built.append(a))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flags} cannot be combined")
    assert built == []


def test_exit_codes_seen_by_a_shell():
    # `python -m preper.cli` exits with main's return code
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cases = [
        (["analyze", "--map", "x^2", "--max-period", "1"], 0, ""),
        (["analyze", "--map", "x^"], 2, "error: "),
        (["analyze", "--map", "x"], 3, "degenerate map: "),
    ]
    for argv, code, err in cases:
        done = subprocess.run(
            [sys.executable, "-m", "preper.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == code, done.stderr
        assert done.stderr.startswith(err) and (code != 0 or done.stderr == "")
        assert (done.stdout != "") == (code == 0)


def test_exit_code_on_invariant_failure(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise InvariantViolation("forced for the test")

    monkeypatch.setattr(cli, "build_portrait", explode)
    assert main(["analyze", "--map", "x^2"]) == 4
    assert "invariant" in capsys.readouterr().err


def test_map_value_may_start_with_a_minus(capsys, monkeypatch):
    # a separate value that starts with "-" is the map, as with "--map=..."
    for value, code in (("-x^2+3", 0), ("-x^2/(x+1)", 0), ("-x", 3)):
        assert main(["analyze", f"--map={value}", "--max-period", "3"]) == code
        joined = capsys.readouterr()
        assert main(["analyze", "--map", value, "--max-period", "3"]) == code
        assert capsys.readouterr() == joined
        monkeypatch.setattr(sys, "argv", ["preper", "analyze", "--map", value, "--max-period", "3"])
        assert main() == code
        assert capsys.readouterr() == joined
        assert (f"== {value} ==" in joined.out) == (code == 0)


def test_exit_code_success(capsys):
    assert main(["analyze", "--map", "x^2"]) == 0
    out = capsys.readouterr().out
    assert "cycle" in out and "tails" in out


# ---------------------------------------------------------------------------
# JSON output
# ---------------------------------------------------------------------------


def test_json_schema_and_string_integers(capsys):
    assert main(["analyze", "--map", "x^2-x", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) >= {"map", "periodic", "cycles", "tails", "counts", "completeness"}
    assert set(data["map"]) == {
        "num", "den", "degree", "resultant", "res_cofactor", "bad_primes",
    }
    assert all(isinstance(c, str) for c in data["map"]["num"])
    assert isinstance(data["map"]["resultant"], str)
    for tail in data["tails"]:
        assert set(tail) == {"point", "depth", "image"}
        assert isinstance(tail["point"]["x"], str)
        assert isinstance(tail["point"]["y"], str)
    assert data["counts"]["preperiodic"] == data["counts"]["periodic"] + data["counts"]["tails"]


def test_json_round_trip_rebuilds_equal_portraits():
    for num, den in [
        ([0, 0, 1], [1]),          # squaring
        ([-2, 0, 1], [1]),         # depth-two tail into a fixed point
        ([0, -1, 1], [1]),         # formal period two at a fixed point
        ([2, -3, 1], [0, 0, 1]),   # three-cycle with tails
        ([1, 1, 0], [1, -4, -3]),  # tails of depth 3 and 4 into a two-cycle
    ]:
        portrait = build_portrait(build_map(num, den), 6)
        data = json.loads(json.dumps(portrait_to_json_dict(portrait)))
        rebuilt = portrait_from_json(data)
        assert rebuilt == portrait
        assert hash(rebuilt) == hash(portrait)
        # later documents may carry more flags, which the reader skips, and
        # the map's derived keys are not read at all
        data["completeness"]["extra_flag"] = True
        for key in ("degree", "resultant", "res_cofactor", "bad_primes"):
            del data["map"][key]
        assert portrait_from_json(data) == portrait


def test_json_reader_rejects_points_phi_does_not_map_into_themselves():
    # the reader reassembles the document's point set: a tail 5 -> 1 added
    # under z^2 maps to 25, outside the set
    data = portrait_to_json_dict(build_portrait(build_map([0, 0, 1], [1]), 4))
    five, one = {"x": "5", "y": "1"}, {"x": "1", "y": "1"}
    data["tails"].append({"point": five, "depth": 1, "image": one})
    with pytest.raises(InvariantViolation, match="5 maps to 25, outside the preperiodic set"):
        portrait_from_json(json.loads(json.dumps(data)))


def _z2_minus_2():
    """The portrait of z^2 - 2 and its document, decoded from the JSON text."""
    portrait = build_portrait(build_map([-2, 0, 1], [1]), 4)
    return portrait, json.loads(json.dumps(portrait_to_json_dict(portrait)))


def test_json_reader_derives_the_bad_primes():
    # the reader rebuilds the map from its forms, so an edited resultant or
    # bad-prime list changes neither the map nor S = {inf}, Res being 1
    portrait, data = _z2_minus_2()
    data["map"].update(resultant="2", bad_primes=["2"])
    rebuilt = portrait_from_json(data)
    assert rebuilt == portrait
    bundle = make_certificates(rebuilt)
    assert str(bundle.primes) == "{inf}" and bundle.certificates
    assert bundle == make_certificates(portrait)


@pytest.mark.parametrize(
    "section, edit, error, message",
    [
        # X / Y^2 is z, whatever the formal degree of the denominator
        ("map", {"num": ["1", "0"], "den": ["0", "0", "1"]}, DegenerateMapError, "map degree 1 < 2"),
        (
            "completeness",
            {"n_max": 0},
            ValueError,
            "the cycle-length horizon must be at least 1, got 0",
        ),
    ],
)
def test_json_reader_refuses_what_the_builders_refuse(section, edit, error, message):
    _, data = _z2_minus_2()
    data[section].update(edit)
    with pytest.raises(error) as err:
        portrait_from_json(data)
    assert str(err.value) == message


def test_json_names_the_proof_of_completeness():
    # scan_height is the height bound when the scan built the portrait and
    # null after the Phi*_n search; a document without the key still reads
    scanned = build_portrait(build_map([0, 0, 1], [1]), 6)
    searched = build_portrait(build_map([-9, 18, 3], [15, 3, -4]), 4)
    assert scanned.flags.scan_height == 1 and searched.flags.scan_height is None
    for portrait in (scanned, searched):
        data = json.loads(json.dumps(portrait_to_json_dict(portrait)))
        assert data["completeness"]["scan_height"] == portrait.flags.scan_height
        del data["completeness"]["scan_height"]
        rebuilt = portrait_from_json(data)
        assert rebuilt.flags == portrait.flags._replace(scan_height=None)


def test_json_round_trip_past_the_int_digit_cap():
    # the resultant 2^16000 has 4817 decimal digits, past Python's default
    # cap of 4300 on str(int) and int(str); the caller's cap comes back
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    portrait = build_portrait(build_map([0, 0, 1], [2**8000]), 2)
    assert portrait.phi.res == 2**16000
    # its height bound 2^8000 is past every float, and the scan budget is
    # compared in integers: the map goes to the Phi*_n search
    assert portrait.flags.scan_height is None
    rebuilt = portrait_from_json(json.loads(json.dumps(portrait_to_json_dict(portrait))))
    assert rebuilt == portrait
    assert hash(rebuilt) == hash(portrait)
    if cap is not None:
        assert sys.get_int_max_str_digits() == cap


def test_json_output_is_bit_stable(capsys):
    argv = ["analyze", "--family", "ex52", "--d", "3", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    data = json.loads(first)
    assert json.dumps(data, sort_keys=True, indent=2) + "\n" == first


@pytest.mark.parametrize(
    "argv, recorded",
    [
        (["--family", "ex51", "--d-range", "1:3"], "analyze_ex51_d1-3.json"),
        (["--map", "(2*x^3-7*x+5)/(3*x^2+11)", "--max-period", "4"], "analyze_cubic_n4.json"),
        (["--family", "ex52", "--d-range", "2:8"], "analyze_ex52_d2-8.json"),
    ],
)
def test_json_output_matches_recorded_bytes(capsys, argv, recorded):
    # recorded before the residue screen of root candidates, except that
    # ex51 d=1..3 and the cubic were re-recorded when a screen prime with no
    # root came to prove root searches complete (one "roots_complete" line
    # each, false -> true); a change that is meant only to be faster must
    # keep these documents byte for byte
    assert main(["analyze", *argv, "--format", "json"]) == 0
    assert capsys.readouterr().out == (DATA / recorded).read_text()


@pytest.mark.parametrize(
    "argv, recorded",
    [
        (["analyze", "--family", "ex52", "--d-range", "2:3"], "analyze_ex52_d2-3.txt"),
        (["analyze", "--family", "ex52", "--d-range", "2:3", "--format", "dot"], "analyze_ex52_d2-3.dot"),
        (["analyze", "--map", "x^2-x", "--height-oracle", "30"], "analyze_oracle_x2-x.txt"),
        (
            ["analyze", "--family", "ex52", "--d-range", "2:3", "--height-oracle", "20", "--format", "json"],
            "analyze_oracle_ex52_d2-3.json",
        ),
        (["certify", "--family", "ex52", "--d", "2"], "certify_ex52_d2.txt"),
        (["certify", "--family", "ex52", "--d", "2", "--format", "json"], "certify_ex52_d2.json"),
        (["bounds", "--family", "ex52", "--d", "2"], "bounds_ex52_d2.txt"),
        (["bounds", "--family", "ex52", "--d", "2", "--format", "json"], "bounds_ex52_d2.json"),
        (["bounds", "--s", "2", "--d", "3"], "bounds_s2_d3.txt"),
        (["bounds", "--s", "2", "--d", "3", "--format", "json"], "bounds_s2_d3.json"),
        (["oracle", "--map", "x^2-x"], "oracle_x2-x.txt"),
        (["oracle", "--map", "x^2-x", "--format", "json"], "oracle_x2-x.json"),
    ],
)
def test_output_matches_recorded_bytes(capsys, argv, recorded):
    # every subcommand in every format, recorded before the subcommands
    # shared one request path
    assert main(argv) == 0
    assert capsys.readouterr().out == (DATA / recorded).read_text()


def test_json_points_listed_in_canonical_order(capsys):
    assert main(["analyze", "--family", "ex52", "--d", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    tail_points = [ProjPoint(int(t["point"]["x"]), int(t["point"]["y"])) for t in data["tails"]]
    assert tail_points == sorted(tail_points, key=ProjPoint.sort_key)


# ---------------------------------------------------------------------------
# DOT output
# ---------------------------------------------------------------------------

_NODE_RE = re.compile(r'^  "([^"]+)"( \[shape=doublecircle\])?;$')
_EDGE_RE = re.compile(r'^  "([^"]+)" -> "([^"]+)";$')


def _check_dot(text):
    """Small structural validator; returns (nodes, doubled, edges)."""
    lines = text.strip().split("\n")
    assert lines[0] == "digraph portrait {"
    assert lines[1] == "  rankdir=LR;"
    assert lines[2] == "  node [shape=circle];"
    assert lines[-1] == "}"
    nodes, doubled, edges = [], set(), []
    for line in lines[3:-1]:
        m = _NODE_RE.match(line)
        if m:
            nodes.append(m.group(1))
            if m.group(2):
                doubled.add(m.group(1))
            continue
        m = _EDGE_RE.match(line)
        assert m is not None, f"unparseable DOT line: {line!r}"
        edges.append((m.group(1), m.group(2)))
    assert len(set(nodes)) == len(nodes)
    targets = {b for _, b in edges}
    assert {a for a, _ in edges} == set(nodes)
    assert targets <= set(nodes)
    assert len(edges) == len(nodes)
    return nodes, doubled, edges


def test_dot_structure_for_three_cycle_family():
    portrait = build_portrait(generate(FamilySpec("ex52", 2)), 6)
    nodes, doubled, edges = _check_dot(portrait_to_dot(portrait))
    assert nodes == ["inf", "0", "1", "2", "2/3"]
    assert doubled == {"inf", "0", "1"}
    assert ("inf", "1") in edges and ("0", "inf") in edges and ("1", "0") in edges
    assert ("2", "0") in edges and ("2/3", "1") in edges


def test_dot_marks_exactly_the_periodic_points():
    for num, den in [([0, 0, 1], [1]), ([-2, 0, 1], [1]), ([0, -1, 1], [1])]:
        portrait = build_portrait(build_map(num, den), 6)
        _, doubled, _ = _check_dot(portrait_to_dot(portrait))
        assert doubled == {str(pp.point) for pp in portrait.periodic}


def test_dot_via_cli(capsys):
    assert main(["analyze", "--map", "x^2", "--format", "dot"]) == 0
    nodes, doubled, _ = _check_dot(capsys.readouterr().out)
    assert nodes == ["inf", "-1", "0", "1"]
    assert doubled == {"inf", "0", "1"}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def test_bounds_formula_only(capsys):
    assert main(["bounds", "--s", "2", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "4294967299" in out
    assert "per_bound_tails3" in out


def test_bounds_formula_only_needs_both_flags(capsys):
    assert main(["bounds", "--s", "2"]) == 2
    assert main(["bounds"]) == 2
    capsys.readouterr()


def test_bounds_against_a_portrait(capsys):
    assert main(["bounds", "--family", "ex52", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "checks against the portrait" in out
    assert "FAIL" not in out
    assert "4294967299" in out  # s = 2 for this family


def test_bounds_json(capsys):
    assert main(["bounds", "--s", "1", "--d", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["bounds"]["per_bound_tails3"] == "65539"
    assert data["bounds"]["per_bound_degree"] == str(2**128 + 3)
    assert "checks" not in data


def test_bounds_json_prints_integers_past_the_str_digit_cap(capsys):
    # 5 * 2^16384 + 3 has 4933 digits, past the 4300 that Python 3.11+ lets
    # str() print by default; the cap must be back in force afterwards
    get_cap = getattr(sys, "get_int_max_str_digits", lambda: 0)
    cap = get_cap()
    assert main(["bounds", "--family", "ex52", "--d", "8", "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)["bounds"]["preper_bound_degree"]
    assert get_cap() == cap
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        assert got == str(5 * 2 ** (16 * 2 * 8**3) + 3)
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


def test_bounds_refuse_a_size_they_cannot_print(capsys):
    # the formulas at s = 2, d = 40 are multiples of 2^2048000, which took
    # 20 s to print in decimal; refused, the call exits 2 at once
    start = time.perf_counter()
    assert main(["bounds", "--s", "2", "--d", "40", "--format", "json"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == "" and "2^2048000" in captured.err


def test_certify_family(capsys):
    assert main(["certify", "--family", "ex52", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "certificates hold: 6 pairs checked" in out
    assert "FAIL" not in out


def test_certify_json(capsys):
    assert main(["certify", "--family", "ex52", "--d", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["all_hold"] is True
    assert data["primes"] == ["2"]
    assert len(data["certificates"]) == 6
    assert sum(1 for c in data["certificates"] if c["excluded"]) == 2


def test_oracle_squaring_map_at_height_100(capsys):
    assert main(["oracle", "--map", "x^2", "--height-oracle", "100"]) == 0
    assert "diff empty" in capsys.readouterr().out


def test_oracle_json_agreement(capsys):
    argv = ["oracle", "--map", "x^2-x", "--height-oracle", "40", "--format", "json"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["agree"] is True
    assert data["portrait_only"] == [] and data["brute_only"] == []


def test_analyze_with_inline_oracle(capsys):
    assert main(["analyze", "--map", "x^2", "--height-oracle", "50"]) == 0
    assert "diff empty" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--map", "x^2", "--height-oracle", "50"],
        ["analyze", "--map", "x^2", "--height-oracle", "50"],
    ],
)
def test_oracle_disagreement_names_points_as_the_text_does(capsys, monkeypatch, argv):
    # a brute force that misses infinity and finds a stray 2 under z^2
    brute_force = cli.brute_force_preperiodic

    def tampered(phi, height):
        return brute_force(phi, height) - {ProjPoint(1, 0)} | {ProjPoint(2, 1)}

    monkeypatch.setattr(cli, "brute_force_preperiodic", tampered)
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "oracle at height 50: DISAGREEMENT" in lines
    assert "  portrait only: inf" in lines
    assert "  brute force only: 2" in lines


def test_d_range_sweep_is_ordered_and_deterministic(capsys):
    argv = ["analyze", "--family", "ex52", "--d-range", "2:5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    headers = [f"== ex52 d={d} ==" for d in range(2, 6)]
    positions = [first.find(h) for h in headers]
    assert all(p >= 0 for p in positions)
    assert positions == sorted(positions)
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_d_range_json_is_an_array(capsys):
    argv = ["analyze", "--family", "ex52", "--d-range", "2:3", "--format", "json"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert isinstance(data, list) and len(data) == 2
    assert [entry["map"]["degree"] for entry in data] == [2, 3]


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "portrait.json"
    argv = ["analyze", "--map", "x^2", "--format", "json", "--out", str(target)]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    on_disk = json.loads(target.read_text())
    assert main(["analyze", "--map", "x^2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == on_disk


@pytest.mark.parametrize("where", ["missing/dir/portrait.json", "."])
def test_out_path_that_cannot_be_written_is_a_parameter_error(tmp_path, capsys, where):
    # a missing directory, or a directory given as the file: exit 2 with the
    # path and the reason, not a traceback after the portrait is built
    target = tmp_path / where
    assert main(["analyze", "--map", "x^2", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = "No such file or directory" if where != "." else "Is a directory"
    assert captured.err == f"error: cannot write --out {target}: {reason}\n"


def test_max_period_help_states_the_default_period_cap():
    # "default 6 up to degree 3, 4 up to degree 5, else 3" read back as a
    # rule, against portrait.default_period_cap
    (sub,) = (a for a in cli.make_parser()._actions if a.dest == "command")
    (action,) = (a for a in sub.choices["analyze"]._actions if a.dest == "max_period")
    text = action.help
    steps = [(int(c), int(d)) for c, d in re.findall(r"(\d+) up to degree (\d+)", text)]
    (rest,) = map(int, re.findall(r"else (\d+)", text))
    assert steps
    for d in range(2, 9):
        stated = next((cap for cap, top in steps if d <= top), rest)
        assert stated == default_period_cap(d), d


def test_max_period_flag_limits_the_search(capsys):
    # a 3-cycle is invisible when the horizon stops at 2
    argv = ["analyze", "--family", "ex52", "--d", "2", "--max-period", "2", "--format", "json"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["counts"]["periodic"] == 0
    assert data["completeness"]["n_max"] == 2


def test_max_period_below_one_is_rejected(capsys):
    for horizon in ("0", "-2"):
        assert main(["analyze", "--map", "x^2", "--max-period", horizon]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err and "at least 1" in captured.err


def test_bad_height_oracle_is_rejected_before_any_portrait(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_portrait", lambda *a: built.append(a))
    # each message names what its subcommand accepts: analyze takes 0 for
    # "no oracle", oracle needs a height
    analyze = "error: analyze --height-oracle takes 0 (no oracle) or a height of at least 1, got {}\n"
    oracle = "error: oracle --height-oracle takes a height of at least 1, got {}\n"
    cases = [
        (["analyze", "--family", "ex52", "--d-range", "2:6", "--height-oracle", "-1"], analyze.format(-1)),
        (["analyze", "--map", "x^2", "--height-oracle", "-3"], analyze.format(-3)),
        (["oracle", "--map", "x^2", "--height-oracle", "0"], oracle.format(0)),
        (["oracle", "--map", "x^2", "--height-oracle", "-3"], oracle.format(-3)),
    ]
    for argv, message in cases:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message
    assert built == []


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    built = []
    make_parser = cli.make_parser

    def counted():
        built.append(1)
        return make_parser()

    monkeypatch.setattr(cli, "make_parser", counted)
    monkeypatch.setattr(cli, "_parser", None)
    # oracle's --height-oracle defaults to 25 and analyze's to 0
    assert main(["oracle", "--map", "x^2"]) == 0
    assert capsys.readouterr().out == "== x^2 ==\noracle at height 25: diff empty\n"
    assert main(["analyze", "--map", "x^2"]) == 0
    assert "oracle" not in capsys.readouterr().out
    assert main(["bounds", "--s", "2", "--d", "3"]) == 0
    assert capsys.readouterr().out == (DATA / "bounds_s2_d3.txt").read_text()
    # neither --s nor --d of the call before: a portrait check, not formulas
    assert main(["bounds", "--family", "ex52", "--d", "2"]) == 0
    assert capsys.readouterr().out == (DATA / "bounds_ex52_d2.txt").read_text()
    assert main(["bounds"]) == 2
    assert "needs both --s and --d" in capsys.readouterr().err
    assert len(built) == 1
