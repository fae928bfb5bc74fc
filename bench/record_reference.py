"""Draw the benchmark's maps and record the reference portraits.

    python3 bench/record_reference.py

Run it from a checkout of the commit whose results should be the reference.
It writes `bench/maps.json` (the maps, drawn from a fixed seed) and
`bench/reference.json.gz` (a summary of every portrait each request makes,
from the program's own JSON output at the workload's horizon). The draws
leave out only the maps that `build_map` rejects as degenerate, and every
map is kept whether or not its portrait comes back closed.
"""

from __future__ import annotations

import gzip
import json
import math
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from preper import cli  # noqa: E402
from preper.dynmap import DegenerateMapError, build_map  # noqa: E402

import workloads as wl  # noqa: E402
from check import REFERENCE_FILE, summarize  # noqa: E402

MAP_SEED = 1608
GENERIC_ROOTS_MAPS = 6


def _draw(rng, count, draw_one, seen):
    out = []
    while len(out) < count:
        num, den = draw_one(rng)
        key = wl.map_key(num, den)
        if key in seen:
            continue
        try:
            build_map(num, den)
        except DegenerateMapError:
            continue
        seen.add(key)
        out.append([num, den])
    return out


def _generic_roots_map(rng):
    """Coefficients in [-20, 20], a degree-2 denominator that is not monic."""
    num = [rng.randint(-20, 20) for _ in range(3)]
    den = [rng.randint(-20, 20) for _ in range(2)] + [rng.choice([-1, 1]) * rng.randint(2, 20)]
    return num, den


def _small_map(rng):
    return [rng.randint(-6, 6) for _ in range(3)], [rng.randint(-6, 6) for _ in range(3)]


def planted_quadratics() -> list:
    """x^2 + b*x + c, |b|, |c| <= 6, with a rational fixed point or 2-cycle."""
    out = []
    for b in range(-6, 7):
        for c in range(-6, 7):
            fixed = (b - 1) ** 2 - 4 * c  # discriminant of x^2 + (b-1)x + c
            two_cycle = (b + 1) ** 2 - 4 * (b + c + 1)  # of Phi*_2 = x^2 + (b+1)x + b+c+1
            if any(D >= 0 and math.isqrt(D) ** 2 == D for D in (fixed, two_cycle)):
                out.append([[c, b, 1], [1]])
    return out


def draw_maps() -> dict:
    """The generic-roots maps, and oracle-small's planted and general maps, mixed."""
    rng = random.Random(MAP_SEED)
    generic_roots = _draw(rng, GENERIC_ROOTS_MAPS, _generic_roots_map, set())
    planted = planted_quadratics()
    seen = {wl.map_key(num, den) for num, den in planted}
    small = planted + _draw(rng, len(planted), _small_map, seen)
    rng.shuffle(small)
    return {"generic-roots": generic_roots, "oracle-small": small}


def _analyze(args, out_path: Path) -> list:
    rc = cli.main(["analyze", *args, "--out", str(out_path)])
    if rc != 0:
        raise SystemExit(f"analyze {' '.join(args)} exited with {rc}")
    doc = json.loads(out_path.read_text())
    return [summarize(m) for m in (doc if isinstance(doc, list) else [doc])]


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    head = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    dirty = subprocess.run(
        ["git", "-C", str(ROOT), "status", "--porcelain", "src"], capture_output=True, text=True
    ).stdout.strip()
    return head + ("+dirty-src" if dirty else "")


def main() -> int:
    maps = draw_maps()
    wl.MAPS_FILE.write_text(json.dumps(maps, separators=(",", ":")) + "\n")
    plan = {
        "family-sweep": [r.args for r in wl.build_requests("family-sweep", 0, maps)],
        "generic-roots": [r.args for r in wl.build_requests("generic-roots", 0, maps)],
        "oracle-small": [
            ("--format", "json", "--max-period", str(wl.SMALL_MAX_PERIOD), "--map", wl.map_text(num, den))
            for num, den in maps["oracle-small"]
        ],
    }
    refs: dict = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out_path = Path(tmp) / "out.json"
        for workload, arg_lists in plan.items():
            refs[workload] = {}
            for args in arg_lists:
                members = _analyze(args, out_path)
                ref_id = members[0]["key"] if "--map" in args else " ".join(args)
                refs[workload][ref_id] = members
            print(f"{workload}: {len(arg_lists)} requests recorded", file=sys.stderr)
    reference = {
        "commit": _commit(),
        "python": sys.version.split()[0],
        "workloads": refs,
    }
    with gzip.GzipFile(REFERENCE_FILE, "wb", mtime=0) as fh:
        fh.write((json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n").encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
