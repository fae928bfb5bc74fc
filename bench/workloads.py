"""The benchmark's workloads: fixed lists of `preper` command lines.

Every request is one `preper` command line without the program name and
without `--out`, which the worker adds. The maps live in `maps.json`, which
`record_reference.py` draws once from a fixed seed. Every run of a workload
does the same requests; the `--seed` of a run sets their order. Maps drawn
afresh per seed made the work itself differ between seeds (generic maps
cost 0.14 s to 14 s each), which no bound on a timing could absorb.

No map repeats within a list: `dynatomic_record` caches by map value, and a
repeated map would time a cache hit instead of the work.

This module uses only the standard library, so the driver can build the
list without importing the program under test.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

MAPS_FILE = Path(__file__).with_name("maps.json")

WORKLOADS = {
    "family-sweep": (
        "the paper's sharpness families (ex52 d=2..8, ex51 d=1..3) at the family "
        "horizons: iterate composition and dynatomic division dominate, and only "
        "these sweeps run the thread pool in cmd_analyze"
    ),
    "generic-roots": (
        "generic degree-2 maps with coefficients in [-20, 20] at --max-period 5, plus "
        "the cubic (2*x^3-7*x+5)/(3*x^2+11): rational root search and factoring dominate"
    ),
    "oracle-small": (
        "small maps (|coeff| <= 6, half planted monic quadratics) rotating through "
        "analyze --height-oracle, certify and bounds: forward iteration, preimage "
        "closure, certificates and per-request CLI costs"
    ),
}

FAMILY_SWEEPS = (
    ("--family", "ex52", "--d-range", "2:8"),
    ("--family", "ex51", "--d-range", "1:3"),
)
CUBIC = "(2*x^3-7*x+5)/(3*x^2+11)"
GENERIC_MAX_PERIOD = 5
CUBIC_MAX_PERIOD = 4
SMALL_MAX_PERIOD = 4
ORACLE_HEIGHT = 50
SMALL_COMMANDS = ("analyze", "certify", "bounds")


@dataclass(frozen=True)
class Request:
    """One command line, and the key of the map it names (None for a sweep)."""

    command: str
    args: tuple[str, ...]
    key: str | None

    @property
    def ref_id(self) -> str:
        """Where the request's reference portraits are filed."""
        return self.key if self.key is not None else " ".join(self.args)

    @property
    def is_sweep(self) -> bool:
        return "--d-range" in self.args


def _poly_text(coeffs: list[int]) -> str:
    """Ascending integer coefficients as an expression in the CLI grammar."""
    text = ""
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        mono = "" if e == 0 else ("*x" if e == 1 else f"*x^{e}")
        sign = "-" if c < 0 else ("+" if text else "")
        text += f"{sign}{abs(c)}{mono}"
    return text or "0"


def map_text(num: list[int], den: list[int]) -> str:
    return f"({_poly_text(num)})/({_poly_text(den)})"


def normalized_key(F: list[int], G: list[int]) -> str:
    """The map [F : G] up to a common scalar, as a string.

    F and G are the coordinate forms with coefficients listed from X^d down
    to Y^d, as in the JSON output. Content and sign are divided out, so two
    lists name the same map exactly when their keys are equal.
    """
    F = [int(c) for c in F]
    G = [int(c) for c in G]
    coeffs = F + G
    g = math.gcd(*coeffs)
    lead = next(c for c in coeffs if c != 0)
    if lead < 0:
        g = -g
    F = [c // g for c in F]
    G = [c // g for c in G]
    return ",".join(map(str, F)) + "/" + ",".join(map(str, G))


def map_key(num: list[int], den: list[int]) -> str:
    """normalized_key of the map num(x)/den(x), ascending coefficients."""
    d = max(
        max((i for i, c in enumerate(num) if c), default=0),
        max((i for i, c in enumerate(den) if c), default=0),
    )
    F = [num[i] if i < len(num) else 0 for i in range(d, -1, -1)]
    G = [den[i] if i < len(den) else 0 for i in range(d, -1, -1)]
    return normalized_key(F, G)


def load_maps() -> dict:
    with open(MAPS_FILE) as fh:
        return json.load(fh)


def _map_request(command: str, num, den, *extra: str) -> Request:
    args = ("--format", "json", *extra, "--map", map_text(num, den))
    return Request(command, args, map_key(num, den))


def build_requests(workload: str, seed: int, maps: dict | None = None) -> list[Request]:
    """The request list of one run: same workload and seed, same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    maps = load_maps() if maps is None else maps
    if workload == "family-sweep":
        reqs = [Request("analyze", ("--format", "json", *sweep), None) for sweep in FAMILY_SWEEPS]
    elif workload == "generic-roots":
        mp = ("--max-period", str(GENERIC_MAX_PERIOD))
        reqs = [_map_request("analyze", num, den, *mp) for num, den in maps["generic-roots"]]
        reqs.append(
            Request(
                "analyze",
                ("--format", "json", "--max-period", str(CUBIC_MAX_PERIOD), "--map", CUBIC),
                map_key([5, -7, 0, 2], [11, 0, 3]),
            )
        )
    else:
        reqs = []
        for i, (num, den) in enumerate(maps["oracle-small"]):
            command = SMALL_COMMANDS[i % len(SMALL_COMMANDS)]
            extra = ["--max-period", str(SMALL_MAX_PERIOD)]
            if command == "analyze":
                extra += ["--height-oracle", str(ORACLE_HEIGHT)]
            reqs.append(_map_request(command, num, den, *extra))
    rng.shuffle(reqs)
    keys = [r.key for r in reqs if r.key is not None]
    if len(set(keys)) != len(keys):
        raise ValueError(f"{workload} seed {seed}: a map repeats in the request list")
    return reqs
