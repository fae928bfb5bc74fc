"""Command line interface: expression parser, subcommands, JSON and DOT output.

The map grammar is deliberately small. A map is a polynomial in x, or a
product of factors, optionally negated, over a single factor:

    expr     := ["-"] term "/" factor | poly
    poly     := ["-"] term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := base ("^" uint)?
    base     := rational | "x" | "(" poly ")"
    rational := int ("/" uint)?

A slash directly between integer literals is a rational constant (2/3); any
other slash is the numerator/denominator split, which the grammar allows
only once, at the top of the expression. That rule makes "1/x + x^2" and
"(x/3)" syntax errors (write "(x^3+1)/x" and "x/3") while
"(x-1)*(x-2)/x^2" parses as intended, and "-x^2/(x+1)" has the numerator
-x^2. A Unicode minus sign is accepted anywhere an ASCII hyphen is.

Exit codes: 0 success, 2 expression or parameter error or an --out file
that cannot be written, 3 degenerate map, 4 internal invariant failure.
"""

import argparse
import json
import math
import sys
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from .certify import (
    BoundCheckItem,
    BoundReport,
    CertificateBundle,
    check_bounds,
    evaluate_bounds,
    make_certificates,
)
from .dynmap import DegenerateMapError, InvariantViolation, RationalMap, build_map
from .families import FAMILY_TOKENS, FamilySpec, generate
from .forms import BinaryForm, _add, _product
from .portrait import (
    Portrait,
    PortraitOverflowError,
    _assemble,
    brute_force_preperiodic,
    build_portrait,
    classify,
)
from .qarith import PrimeSet, ProjPoint

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_INVARIANT = 4

MAX_EXPONENT = 4096
MAX_NESTING = 100  # nested parentheses: the parser recurses once per level


class MapSyntaxError(ValueError):
    """Expression rejected, with the character position that caused it."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# lexer and parser
# ---------------------------------------------------------------------------


class _Token(NamedTuple):
    kind: str  # 'num', 'x', one of '+-*/^()', or 'end'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    src = text.replace("−", "-")
    toks = []
    i = depth = 0  # depth: the parentheses open at src[i]
    while i < len(src):
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if "0" <= c <= "9":
            j = i
            while j < len(src) and "0" <= src[j] <= "9":
                j += 1
            toks.append(_Token("num", src[i:j], i))
            i = j
        elif c == "x":
            toks.append(_Token("x", c, i))
            i += 1
        elif c in "+-*/^()":
            depth += (c == "(") - (c == ")")
            if depth > MAX_NESTING:
                raise MapSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", i)
            toks.append(_Token(c, c, i))
            i += 1
        else:
            raise MapSyntaxError(f"unexpected character {c!r}", i)
    toks.append(_Token("end", "", len(src)))
    return toks


_SPLIT_ONCE = (
    "'/' may only split the whole expression once; write a single fraction like (x^3+1)/x"
)


class _Parser:
    """Recursive descent: each rule returns its polynomial as it parses."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.take()
        if t.kind != kind:
            raise MapSyntaxError(f"expected {kind!r}, found {t.text or 'end'!r}", t.pos)
        return t

    def parse(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        """expr: the numerator and the denominator."""
        num = self.signed_term()
        if self.peek().kind == "/":
            slash = self.take()
            num_den = num, self.factor()
            if self.peek().kind in ("+", "-", "*", "/"):
                raise MapSyntaxError(_SPLIT_ONCE, slash.pos)
        else:
            num_den = self.poly(num), (Fraction(1),)
        t = self.peek()
        if t.kind != "end":
            raise MapSyntaxError(f"unexpected {t.text!r}", t.pos)
        return num_den

    def signed_term(self):
        if self.peek().kind == "-":
            self.take()
            return _pneg(self.term())
        return self.term()

    def poly(self, first=None):
        out = self.signed_term() if first is None else first
        while self.peek().kind in ("+", "-"):
            op = self.take()
            rhs = self.term()
            out = _ptrim(_add(out, rhs if op.kind == "+" else _pneg(rhs)))
        if self.peek().kind == "/":  # a split after a sum or inside parentheses
            raise MapSyntaxError(_SPLIT_ONCE, self.peek().pos)
        return out

    def term(self):
        out = self.factor()
        while self.peek().kind == "*":
            star = self.take()
            rhs = self.factor()
            _check_degree(len(out) + len(rhs) - 2, star)
            out = _ptrim(_product(out, rhs))
        return out

    def factor(self):
        base = self.base()
        if self.peek().kind != "^":
            return base
        caret = self.take()
        t = self.expect("num")
        k = int(t.text)
        if k > MAX_EXPONENT:
            raise MapSyntaxError(f"exponent {k} exceeds {MAX_EXPONENT}", t.pos)
        _check_degree((len(base) - 1) * k, caret)
        out = (Fraction(1),)
        for _ in range(k):
            out = _ptrim(_product(out, base))
        return out

    def base(self):
        t = self.take()
        if t.kind == "num":
            value = Fraction(int(t.text))
            # an integer directly followed by /uint is a rational literal
            if self.peek().kind == "/" and self.tokens[self.i + 1].kind == "num":
                slash = self.take()
                den = int(self.take().text)
                if den == 0:
                    raise MapSyntaxError("zero denominator in rational literal", slash.pos)
                value /= den
            return (value,)
        if t.kind == "x":
            return (Fraction(0), Fraction(1))
        if t.kind == "(":
            out = self.poly()
            self.expect(")")
            return out
        raise MapSyntaxError(f"expected a polynomial, found {t.text or 'end'!r}", t.pos)


def _check_degree(degree: int, op: _Token) -> None:
    """Products and powers stay of degree MAX_EXPONENT at most, checked before they are built."""
    if degree > MAX_EXPONENT:
        raise MapSyntaxError(f"degree {degree} exceeds {MAX_EXPONENT}", op.pos)


# ascending Fraction tuples: sums and products are the forms kernel's, trimmed


def _ptrim(c: list[Fraction]) -> tuple[Fraction, ...]:
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pneg(a):
    return tuple(-c for c in a)


class MapExpr(NamedTuple):
    """A parsed map: numerator and denominator as ascending coefficients."""

    num: tuple[Fraction, ...]
    den: tuple[Fraction, ...]


def parse_map(text: str) -> MapExpr:
    """Parse an expression into exact numerator/denominator polynomials."""
    return MapExpr(*_Parser(_tokenize(text)).parse())


def _poly_to_text(coeffs: Sequence[Fraction]) -> str:
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        mag = -c if c < 0 else c
        if e == 0:
            body = str(mag)
        else:
            xpow = "x" if e == 1 else f"x^{e}"
            body = xpow if mag == 1 else f"{mag}*{xpow}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts) if parts else "0"


def expr_to_text(expr: MapExpr) -> str:
    """Render a MapExpr so that parsing the text reproduces it exactly."""
    num = _poly_to_text(expr.num)
    if expr.den == (Fraction(1),):
        return num
    return f"({num})/({_poly_to_text(expr.den)})"


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


@contextmanager
def _uncapped_int_digits():
    """Lift the cap that Python 3.11+ puts on str(int) and int(str), then restore it.

    Resultants and bounds run to thousands of digits, past the default cap
    of 4300.  The caller's cap comes back on exit, and a cap already lifted
    stays lifted.
    """
    cap = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else 0
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


def _point_json(P: ProjPoint) -> dict:
    return {"x": str(P.x), "y": str(P.y)}


def _point_from_json(d: dict) -> ProjPoint:
    return ProjPoint(int(d["x"]), int(d["y"]))


@_uncapped_int_digits()
def portrait_to_json_dict(portrait: Portrait) -> dict:
    phi = portrait.phi
    counts = classify(portrait)
    return {
        "map": {
            "num": [str(c) for c in phi.F.coeffs],
            "den": [str(c) for c in phi.G.coeffs],
            "degree": phi.degree,
            "resultant": str(phi.res),
            "res_cofactor": None if phi.res_cofactor is None else str(phi.res_cofactor),
            "bad_primes": [str(p) for p in phi.bad_primes],
        },
        "periodic": [
            {
                "point": _point_json(pp.point),
                "period": pp.primitive_period,
                "multiplier": str(pp.multiplier),
                "formal_periods": list(pp.formal_periods),
            }
            for pp in portrait.periodic
        ],
        "cycles": [[_point_json(P) for P in cyc] for cyc in portrait.cycles],
        "tails": [
            {"point": _point_json(t.point), "depth": t.depth, "image": _point_json(t.image)}
            for t in portrait.tails
        ],
        "counts": {
            "periodic": counts.periodic,
            "tails": counts.tails,
            "preperiodic": counts.preperiodic,
            "cycle_lengths": list(counts.cycle_lengths),
            "max_tail_depth": counts.max_tail_depth,
            "longest_orbit": counts.longest_orbit,
        },
        "completeness": {
            "n_max": portrait.flags.n_max,
            "roots_complete": portrait.flags.roots_complete,
            "preimages_complete": portrait.flags.preimages_complete,
            "bad_primes_complete": portrait.flags.bad_primes_complete,
            "scan_height": portrait.flags.scan_height,
        },
    }


@_uncapped_int_digits()
def portrait_from_json(data: dict) -> Portrait:
    """Rebuild a Portrait from its JSON form: its map, points and search flags.

    The portrait assembler builds the rest, so a genuine document comes back
    exactly, and a point set that phi does not map into itself raises
    InvariantViolation.  Other completeness keys are ignored.
    """
    m = data["map"]
    phi = RationalMap(
        F=BinaryForm(tuple(int(c) for c in m["num"])),
        G=BinaryForm(tuple(int(c) for c in m["den"])),
        res=int(m["resultant"]),
        bad_primes=PrimeSet(tuple(int(p) for p in m["bad_primes"])),
        res_cofactor=None if m["res_cofactor"] is None else int(m["res_cofactor"]),
    )
    points = {_point_from_json(e["point"]) for e in data["periodic"] + data["tails"]}
    c = data["completeness"]
    return _assemble(
        phi, points, c["n_max"], c["roots_complete"], c["preimages_complete"], c.get("scan_height")
    )


# ---------------------------------------------------------------------------
# DOT and text rendering
# ---------------------------------------------------------------------------


def portrait_to_dot(portrait: Portrait) -> str:
    """GraphViz digraph: every point a node, solid edges P -> phi(P)."""
    periodic = {pp.point for pp in portrait.periodic}
    points = portrait.points()
    lines = ["digraph portrait {", "  rankdir=LR;", "  node [shape=circle];"]
    for P in points:
        shape = ' [shape=doublecircle]' if P in periodic else ""
        lines.append(f'  "{P}"{shape};')
    edges = {t.point: t.image for t in portrait.tails}
    for cyc in portrait.cycles:
        edges.update(zip(cyc, cyc[1:] + cyc[:1]))
    for P in points:
        lines.append(f'  "{P}" -> "{edges[P]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _render_big(v: Union[int, Decimal]) -> str:
    if isinstance(v, Decimal):
        return f"{v:.6E}"
    if -(10**15) < v < 10**15:
        return str(v)
    return f"~2^{math.log2(v):.1f}"


def portrait_to_text(portrait: Portrait) -> str:
    phi = portrait.phi
    counts = classify(portrait)
    period_of = {pp.point: pp for pp in portrait.periodic}
    out = [
        f"map: {phi}",
        f"degree: {phi.degree}   bad primes: {phi.bad_primes}   resultant: {phi.res}",
        f"counts: periodic={counts.periodic} tails={counts.tails} "
        f"preperiodic={counts.preperiodic} longest_orbit={counts.longest_orbit}",
    ]
    for cyc in portrait.cycles:
        route = " -> ".join(str(P) for P in cyc)
        out.append(f"cycle (length {len(cyc)}): {route}")
        for P in cyc:
            pp = period_of[P]
            out.append(
                f"  {P}: multiplier {pp.multiplier}, formal periods "
                + ", ".join(str(n) for n in pp.formal_periods)
            )
    if portrait.tails:
        out.append("tails:")
        for t in portrait.tails:
            out.append(f"  {t.point} -> {t.image} (depth {t.depth}, enters at {t.entry})")
    f = portrait.flags
    out.append(
        f"completeness: n_max={f.n_max} roots={f.roots_complete} "
        f"preimages={f.preimages_complete} bad_primes={f.bad_primes_complete} "
        f"closed={f.closed}"
    )
    return "\n".join(out) + "\n"


# the evaluated bounds: every BoundReport field after s and degree
_BOUND_FIELDS = BoundReport._fields[2:]


def bounds_to_json_dict(report: BoundReport, items: Optional[tuple[BoundCheckItem, ...]]) -> dict:
    data = {
        "s": report.s,
        "degree": report.degree,
        "bounds": {name: str(getattr(report, name)) for name in _BOUND_FIELDS},
    }
    if items is not None:
        data["checks"] = [
            {
                "name": it.name,
                "applicable": it.applicable,
                "observed": str(it.observed),
                "bound": str(it.bound),
                "holds": it.holds,
            }
            for it in items
        ]
    return data


def bounds_to_text(report: BoundReport, items: Optional[tuple[BoundCheckItem, ...]]) -> str:
    out = [f"s = {report.s}, degree = {report.degree}"]
    for name in _BOUND_FIELDS:
        out.append(f"  {name:24s} {_render_big(getattr(report, name))}")
    if items is not None:
        out.append("checks against the portrait:")
        for it in items:
            status = "pass" if it.holds else "FAIL"
            applic = "applies" if it.applicable else "hypothesis unmet"
            out.append(
                f"  {it.name:22s} {applic:16s} observed {_render_big(it.observed):>12s}"
                f"  bound {_render_big(it.bound):>12s}  {status}"
            )
    return "\n".join(out) + "\n"


def certificates_to_json_dict(bundle: CertificateBundle) -> dict:
    return {
        "primes": [str(p) for p in bundle.primes],
        "primes_complete": bundle.primes_complete,
        "all_hold": bundle.all_hold,
        "certificates": [
            {
                "tail": _point_json(c.tail),
                "periodic": _point_json(c.periodic),
                "cycle_length": c.cycle_length,
                "excluded_point": _point_json(c.excluded_point),
                "cross": str(c.cross),
                "s_unit_ok": c.s_unit_ok,
                "excluded": c.excluded,
            }
            for c in bundle.certificates
        ],
    }


def certificates_to_text(bundle: CertificateBundle) -> str:
    out = [f"S = {bundle.primes} (complete: {bundle.primes_complete})"]
    for c in bundle.certificates:
        mark = "excluded" if c.excluded else ("ok" if c.s_unit_ok else "FAIL")
        out.append(
            f"  tail {str(c.tail):>8s}  periodic {str(c.periodic):>8s}  "
            f"cross {c.cross}  {mark}"
        )
    verdict = "hold" if bundle.all_hold else "FAIL"
    out.append(f"certificates {verdict}: {len(bundle.certificates)} pairs checked")
    return "\n".join(out) + "\n"


def oracle_to_json_dict(portrait: Portrait, height: int) -> dict:
    """The portrait's points up to height against brute_force_preperiodic's.

    Independent of the Phi*_n search but not of the scan: when
    flags.scan_height is set, this re-runs the scan the portrait was read
    from, so agree checks only the horizon and the assembly. The tests
    comparing the scan with portrait._search_portrait cover the point search.
    """
    brute = brute_force_preperiodic(portrait.phi, height)
    mine = {P for P in portrait.points() if P.height() <= height}
    return {
        "height": height,
        "agree": brute == mine,
        "portrait_only": [_point_json(P) for P in sorted(mine - brute, key=ProjPoint.sort_key)],
        "brute_only": [_point_json(P) for P in sorted(brute - mine, key=ProjPoint.sort_key)],
    }


def oracle_to_text(portrait: Portrait, height: int) -> str:
    data = oracle_to_json_dict(portrait, height)
    if data["agree"]:
        return f"oracle at height {height}: diff empty\n"
    lines = [f"oracle at height {height}: DISAGREEMENT"]
    for key, name in (("portrait_only", "portrait only"), ("brute_only", "brute force only")):
        if data[key]:
            pts = ", ".join(str(_point_from_json(d)) for d in data[key])
            lines.append(f"  {name}: {pts}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


_CONFLICTING_FLAGS = (
    ("s", "map"), ("s", "family"), ("map", "family"),
    ("map", "d"), ("map", "d_range"), ("d", "d_range"), ("s", "max_period"),
)


def _selected_maps(args) -> list[tuple[Optional[str], Optional[RationalMap]]]:
    """Resolve --map / --family [--d | --d-range] to labeled maps.

    Returns (label, map) pairs in deterministic order. `bounds` with --s,
    or with neither --map nor --family, selects no map: its one pair is
    (None, None), for the bound formulas alone. Two flags that name the
    maps in different ways, or --s and a horizon for no portrait, are
    rejected together, not one of them ignored.
    """
    for a, b in _CONFLICTING_FLAGS:
        if getattr(args, a, None) is not None and getattr(args, b, None) is not None:
            a, b = (f"--{name.replace('_', '-')}" for name in (a, b))
            raise ValueError(f"{a} and {b} cannot be combined")
    if "s" in args and args.map is None and args.family is None:
        if args.s is None or args.d is None:
            raise ValueError("formula-only mode needs both --s and --d")
        return [(None, None)]
    if args.map is not None:
        return [(args.map, build_map(*parse_map(args.map)))]
    if args.family is None:
        raise ValueError("one of --map or --family is required")
    d_values = []
    if getattr(args, "d_range", None):
        lo, _, hi = args.d_range.partition(":")
        try:
            d_values = list(range(int(lo), int(hi) + 1))
        except ValueError:
            raise ValueError(f"--d-range wants A:B, got {args.d_range!r}") from None
        if not d_values:
            raise ValueError(f"empty --d-range {args.d_range!r}")
    elif args.d is not None:
        d_values = [args.d]
    else:
        raise ValueError("--family needs --d or --d-range")
    return [(f"{args.family} d={d}", generate(FamilySpec(args.family, d))) for d in d_values]


def _emit(text: str, out_path: Optional[str]) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise ValueError(f"cannot write --out {out_path}: {e.strerror or e}") from None


def _render_analyze(portrait: Portrait, args) -> Union[dict, str]:
    if args.format == "json":
        data = portrait_to_json_dict(portrait)
        if args.height_oracle:
            data["oracle"] = oracle_to_json_dict(portrait, args.height_oracle)
        return data
    if args.format == "dot":
        return portrait_to_dot(portrait)
    text = portrait_to_text(portrait)
    if args.height_oracle:
        text += oracle_to_text(portrait, args.height_oracle)
    return text


def _render_bounds(portrait: Optional[Portrait], args) -> Union[dict, str]:
    """The bounds checked against the portrait, or the formulas alone without one."""
    if portrait is None:
        report, items = evaluate_bounds(args.s, args.d), None
    else:
        report = evaluate_bounds(portrait.phi.bad_primes.s, portrait.phi.degree)
        items = check_bounds(classify(portrait), report)
    if args.format == "json":
        return bounds_to_json_dict(report, items)
    return bounds_to_text(report, items)


def _render_certify(portrait: Portrait, args) -> Union[dict, str]:
    bundle = make_certificates(portrait)
    if args.format == "json":
        return certificates_to_json_dict(bundle)
    return certificates_to_text(bundle)


def _render_oracle(portrait: Portrait, args) -> Union[dict, str]:
    if args.format == "json":
        return oracle_to_json_dict(portrait, args.height_oracle)
    return oracle_to_text(portrait, args.height_oracle)


def _run(args) -> int:
    """Every subcommand: build and render each selected portrait, then write once.

    JSON is one document, or a list of them for several maps; text puts
    each piece under its label; DOT pieces are concatenated.
    """
    # checked here, before any portrait is built
    height = getattr(args, "height_oracle", 1)
    if args.command == "oracle" and height < 1:
        raise ValueError(f"oracle --height-oracle takes a height of at least 1, got {height}")
    if height < 0:
        raise ValueError(
            f"analyze --height-oracle takes 0 (no oracle) or a height of at least 1, got {height}"
        )
    if height and args.format == "dot":
        raise ValueError("--height-oracle and --format dot cannot be combined: DOT has no oracle")
    pieces = []
    for label, phi in _selected_maps(args):  # a --map literal is parsed under the cap
        portrait = None if phi is None else build_portrait(phi, args.max_period)
        with _uncapped_int_digits():
            piece = args.render(portrait, args)
        if args.format == "text" and label is not None:
            piece = f"== {label} ==\n" + piece
        pieces.append(piece)
    if args.format == "json":
        payload = pieces[0] if len(pieces) == 1 else pieces
        pieces = [json.dumps(payload, sort_keys=True, indent=2) + "\n"]
    _emit("".join(pieces), args.out)
    return EXIT_OK


_COMMANDS = (
    ("analyze", "compute a full preperiodic portrait", _render_analyze),
    ("bounds", "evaluate and check the cardinality bounds", _render_bounds),
    ("certify", "emit S-unit certificates for a portrait", _render_certify),
    ("oracle", "diff the portrait against brute-force search", _render_oracle),
)


def make_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="preper",
        description="exact rational preperiodic portraits, certificates, and bounds",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, help_text, render in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--map", help="rational map expression in x")
        p.add_argument("--family", choices=FAMILY_TOKENS, help="built-in family")
        p.add_argument("--d", type=int, help="family parameter")
        if name == "analyze":
            p.add_argument("--d-range", dest="d_range", help="family parameter sweep A:B")
        p.add_argument(
            "--max-period",
            dest="max_period",
            type=int,
            help="cycle-length horizon (default 6 up to degree 3, 4 up to degree 5, else 3)",
        )
        p.add_argument("--out", help="write output to this file instead of stdout")
        if name == "bounds":
            p.add_argument(
                "--s", type=int, help="formula-only: number of places including infinity"
            )
        formats = ["text", "json", "dot"] if name == "analyze" else ["text", "json"]
        p.add_argument("--format", choices=formats, default="text")
        if name in ("analyze", "oracle"):
            p.add_argument(
                "--height-oracle",
                dest="height_oracle",
                type=int,
                default=25 if name == "oracle" else 0,
                help="brute-force points up to this height and diff (default %(default)s)",
            )
        p.set_defaults(render=render)
    return top


_parser: Optional[argparse.ArgumentParser] = None


def _join_map_values(argv: Sequence[str]) -> list[str]:
    """argv with every `--map VALUE` written `--map=VALUE`.

    argparse reads a separate value that starts with '-', as in
    `--map -x^2+3`, as an option and rejects it; joined to its flag it is
    the value.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--map":
            out[-1] = f"--map={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:  # once per process, through the module's make_parser binding
        _parser = make_parser()
    args = _parser.parse_args(_join_map_values(sys.argv[1:] if argv is None else argv))
    try:
        return _run(args)
    except DegenerateMapError as e:
        print(f"degenerate map: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as e:
        # covers MapSyntaxError plus out-of-range family or flag parameters
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (InvariantViolation, PortraitOverflowError) as e:
        print(f"invariant failure: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
