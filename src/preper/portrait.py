"""Complete rational preperiodic portraits.

A preperiodic point is one with a finite forward orbit: after some number of
steps (its tail depth) it lands on a cycle. The rational preperiodic points
form a finite set that phi maps into itself, and no point of it lies above
the map's preperiodic height bound E (`dynmap.preperiodic_height_bound`: the
Call-Silverman escape height, or for a polynomial the smaller bound its
places give). `build_portrait` proves that set complete in one of two ways,
which differ only in how they find the points.

- The scan to E. When E is small, `brute_force_preperiodic(phi, E)` is the
  whole set, whatever the cycle lengths. No dynatomic form is built and
  nothing is factored. The flags record E as scan_height.
- The dynatomic search. Otherwise the rational cycles of length up to n_max
  are found as roots of the dynatomic forms Phi*_n, and the set is saturated
  under rational preimages: the set of rational preperiodic points is closed
  under them, and every point of it sits above a rational cycle. Both stages
  report whether their root searches were exhaustive, and the portrait
  carries those flags.

Either set goes to one assembler, which checks that phi maps it into
itself, walks each point to its cycle, keeps the cycles of length up to
n_max and the tails above them, and reads each kept cycle's multiplier and
formal periods (PeriodicPoint). So a portrait does not depend on which
proof found its points. No other code builds a Portrait, PeriodicPoint,
TailRecord or CompletenessFlags: the Phi*_n search returns bare points,
and the JSON reader (`cli.portrait_from_json`) rebuilds a document's map
with `dynmap.build_map` and reassembles its point set through the assembler.

`brute_force_preperiodic` is also the independent cross-check for the
search: it classifies every point up to a height bound by direct
iteration, sharing verdicts along orbits so large scans stay cheap. An
orbit that passes E wanders, and no point above E is ever enumerated or
iterated further. The scan walks bare coordinate pairs a row (one y) at a
time and steps each row through `dynmap.image_row`, the one map-step
kernel, which checks that gcd(F, G) divides Res(F, G) at every pair.
Nearly every scanned point leaves the bound in one step; such a point is
settled by that one step, with no verdict or path kept, and only the
points returned are made into ProjPoints.
"""

import math
from fractions import Fraction
from typing import AbstractSet, Iterator, NamedTuple, Optional

from .dynatomic import _cycle_multiplier, rational_periodic_points
from .dynmap import (
    RationalMap,
    apply,
    image_pair,
    image_row,
    preimages,
    preperiodic_height_bound,
)
from .qarith import InvariantViolation, ProjPoint

MAX_PORTRAIT_POINTS = 10**5

# build_portrait reads the portrait off the scan to the height bound when
# that scan steps fewer coprime pairs than this, and otherwise searches the
# dynatomic forms.  For degree-2 rational maps the two paths cross near 500
# pairs at n_max = 4 and near 2500 at n_max = 6; the budget lies between
# (BENCH_scan_portrait.json)
_SCAN_BUDGET = 1000


class PortraitOverflowError(RuntimeError):
    """Raised when a portrait exceeds MAX_PORTRAIT_POINTS points."""


def default_period_cap(degree: int) -> int:
    """Default search depth for cycle lengths, smaller for costly degrees.

    Every degree keeps the periods 3 and 2 that the ex52 and ex51 claims need.
    """
    if degree <= 3:
        return 6
    return 4 if degree <= 5 else 3


class PeriodicPoint(NamedTuple):
    """A rational point of primitive period m, with its cycle's multiplier.

    formal_periods are the n <= n_max with Phi*_n(point) = 0.  A point of
    primitive period m and multiplier lambda is a root of Phi*_n exactly
    when n = m, or n = m*r with lambda a primitive r-th root of unity
    (Morton and Silverman, "Periodic points, multiplicities, and dynamical
    units", 1995; Silverman, The Arithmetic of Dynamical Systems, Sec. 4.1).
    Over Q that root of unity can only be -1, so the formal periods are m
    and, when lambda = -1 and 2m <= n_max, 2m.
    """

    point: ProjPoint
    primitive_period: int
    multiplier: Fraction
    formal_periods: tuple[int, ...]


class TailRecord(NamedTuple):
    """A strictly preperiodic point and its route into the cycles.

    depth is the least k >= 1 with phi^k(point) periodic, image is the single
    forward step phi(point), and entry is phi^depth(point), the first periodic
    point the orbit reaches.
    """

    point: ProjPoint
    depth: int
    image: ProjPoint
    entry: ProjPoint


class CompletenessFlags(NamedTuple):
    """What the portrait computation can vouch for, and by which proof.

    closed means the portrait provably contains every rational preperiodic
    point whose cycle length is at most n_max; longer cycles, if any exist,
    are outside the horizon. The two proofs differ only in how they found
    the point set:
    - scan_height is E = preperiodic_height_bound(phi) when the set is the
      scan of every point up to E. No rational preperiodic point lies above
      E, so the scan holds them all, and roots_complete and
      preimages_complete are True by that theorem.
    - scan_height is None when the set came from the Phi*_n root searches
      and the preimage closure. roots_complete covers the dynatomic root
      searches and preimages_complete the root searches during preimage
      saturation.
    bad_primes_complete covers the factorization of the resultant.
    """

    n_max: int
    roots_complete: bool
    preimages_complete: bool
    bad_primes_complete: bool
    scan_height: Optional[int] = None

    @property
    def closed(self) -> bool:
        return self.roots_complete and self.preimages_complete


class PortraitCounts(NamedTuple):
    periodic: int
    tails: int
    preperiodic: int
    cycle_lengths: tuple[int, ...]
    max_tail_depth: int
    longest_orbit: int


class Portrait(NamedTuple):
    """All rational preperiodic points of a map, with orbit structure.

    One assembler builds it from the point set of either proof
    (flags.scan_height says which). cycles are the ones of length up to
    flags.n_max, each listed once in orbit order from its least point, and
    the cycles by their least points. tails are the points above them.
    """

    phi: RationalMap
    periodic: tuple[PeriodicPoint, ...]
    cycles: tuple[tuple[ProjPoint, ...], ...]
    tails: tuple[TailRecord, ...]
    flags: CompletenessFlags

    def points(self) -> list[ProjPoint]:
        """Every preperiodic point, in the canonical (y, x) order."""
        pts = [pp.point for pp in self.periodic] + [t.point for t in self.tails]
        return sorted(pts, key=ProjPoint.sort_key)


def build_portrait(phi: RationalMap, n_max: Optional[int] = None) -> Portrait:
    """Compute the rational preperiodic portrait of phi, up to cycle length n_max.

    No rational preperiodic point lies above E = preperiodic_height_bound(phi).
    When the scan to E steps fewer coprime pairs than _SCAN_BUDGET, the
    point set is that scan. Otherwise cycles of length up to n_max are found
    from the dynatomic forms and the preimage closure is taken
    (_search_portrait). The one assembler builds the portrait from either
    set, so a portrait does not depend on which proof found it;
    flags.scan_height says which one did.
    """
    if n_max is None:
        n_max = default_period_cap(phi.degree)
    height = preperiodic_height_bound(phi)
    # about 6/pi^2 of the (2E + 1) * E pairs of the rows y = 1..E are
    # coprime; compared in integers, since E can have thousands of digits
    if 6079 * (2 * height + 1) * height < 10000 * _SCAN_BUDGET:
        # no root search runs, so both of its flags hold by the theorem
        points = _preperiodic_up_to(phi, height, height)
        return _assemble(phi, points, n_max, True, True, scan_height=height)
    return _search_portrait(phi, n_max)


def _search_portrait(phi: RationalMap, n_max: int) -> Portrait:
    """The portrait from the Phi*_n root search and the preimage closure.

    Cycles of length up to n_max are found first, then the set is closed
    under rational preimages. Saturation always terminates on genuine
    inputs because the portrait is finite, but a hard cap guards the search
    anyway.
    """
    search = rational_periodic_points(phi, n_max)
    points = set(search.points)
    frontier = list(points)
    preimages_complete = True
    while frontier:
        fresh = []
        for Q in frontier:
            pre = preimages(phi, Q)
            preimages_complete = preimages_complete and pre.complete
            fresh += [P for P in pre.points if P not in points]
        points.update(fresh)
        if len(points) > MAX_PORTRAIT_POINTS:
            raise PortraitOverflowError(f"preimage closure exceeded {MAX_PORTRAIT_POINTS} points")
        frontier = fresh
    return _assemble(phi, points, n_max, search.roots_complete, preimages_complete)


def _assemble(
    phi: RationalMap,
    points: AbstractSet[ProjPoint],
    n_max: int,
    roots_complete: bool,
    preimages_complete: bool,
    scan_height: Optional[int] = None,
) -> Portrait:
    """The portrait of a set of rational preperiodic points, found by either proof.

    The image of a preperiodic point is preperiodic, so every image lies in
    the set; each one is checked. Each point is walked forward until it
    meets a point already placed or its own path. Meeting its own path
    closes a new cycle, and every other point of the path hangs above its
    image, one step deeper and with the same entry. The cycles longer than
    n_max and the tails above them are dropped, as the Phi*_n search never
    finds them. Each kept cycle gets its multiplier and formal periods here.
    Every portrait passes through here, so this is where an n_max below 1 is refused.
    """
    if n_max < 1:
        raise ValueError(f"the cycle-length horizon must be at least 1, got {n_max}")
    image = {}
    for P in points:
        Q = apply(phi, P)
        if Q not in points:
            raise InvariantViolation(f"{P} maps to {Q}, outside the preperiodic set")
        image[P] = Q
    route: dict[ProjPoint, tuple[int, ProjPoint]] = {}  # point -> (depth, entry)
    periodic: list[PeriodicPoint] = []
    cycles = []
    for start in sorted(points, key=ProjPoint.sort_key):
        path: dict[ProjPoint, int] = {}  # the walk's points, by their step
        P = start
        while P not in route and P not in path:
            path[P] = len(path)
            P = image[P]
        walked = list(path)
        if P in path:
            cycle = walked[path[P]:]
            del walked[path[P]:]
            route.update((c, (0, c)) for c in cycle)
            m = len(cycle)
            if m <= n_max:
                lam = _cycle_multiplier(phi, cycle)
                formal = (m, 2 * m) if lam == -1 and 2 * m <= n_max else (m,)
                periodic += [PeriodicPoint(c, m, lam, formal) for c in cycle]
                i = min(range(m), key=lambda j: cycle[j].sort_key())
                cycles.append(tuple(cycle[i:] + cycle[:i]))
        for R in reversed(walked):
            depth, entry = route[image[R]]
            route[R] = (depth + 1, entry)
    kept = {pp.point for pp in periodic}
    tails = [
        TailRecord(point=P, depth=depth, image=image[P], entry=entry)
        for P, (depth, entry) in route.items()
        if depth and entry in kept
    ]
    if len(kept) + len(tails) > MAX_PORTRAIT_POINTS:
        raise PortraitOverflowError(f"the portrait exceeded {MAX_PORTRAIT_POINTS} points")
    periodic.sort(key=lambda pp: pp.point.sort_key())
    cycles.sort(key=lambda c: c[0].sort_key())
    tails.sort(key=lambda t: t.point.sort_key())
    flags = CompletenessFlags(
        n_max=n_max,
        roots_complete=roots_complete,
        preimages_complete=preimages_complete,
        bad_primes_complete=phi.bad_primes_complete,
        scan_height=scan_height,
    )
    return Portrait(
        phi=phi, periodic=tuple(periodic), cycles=tuple(cycles), tails=tuple(tails), flags=flags
    )


def classify(portrait: Portrait) -> PortraitCounts:
    """Headline statistics of a portrait."""
    period_of = {pp.point: pp.primitive_period for pp in portrait.periodic}
    cycle_lengths = tuple(sorted(len(c) for c in portrait.cycles))
    max_depth = max((t.depth for t in portrait.tails), default=0)
    orbit_lengths = [pp.primitive_period for pp in portrait.periodic]
    orbit_lengths += [t.depth + period_of[t.entry] for t in portrait.tails]
    return PortraitCounts(
        periodic=len(portrait.periodic),
        tails=len(portrait.tails),
        preperiodic=len(portrait.periodic) + len(portrait.tails),
        cycle_lengths=cycle_lengths,
        max_tail_depth=max_depth,
        longest_orbit=max(orbit_lengths, default=0),
    )


def _coprime_rows(height_bound: int) -> Iterator[tuple[int, list[int]]]:
    """The normal-form pairs of rational_points_up_to by rows (y, xs), in its order.

    The row y = 0 holds infinity alone; each row y >= 1 holds the x in
    [-height_bound, height_bound] coprime to y.
    """
    if height_bound < 1:
        raise ValueError("height bound must be at least 1")
    yield 0, [1]
    for y in range(1, height_bound + 1):
        # a non-coprime pair repeats a point already listed
        yield y, [x for x in range(-height_bound, height_bound + 1) if math.gcd(x, y) == 1]


def rational_points_up_to(height_bound: int) -> Iterator[ProjPoint]:
    """All points [x : y] with max(|x|, |y|) <= height_bound, plus infinity."""
    for y, xs in _coprime_rows(height_bound):
        for x in xs:
            yield ProjPoint(x, y)


def brute_force_preperiodic(phi: RationalMap, height_bound: int) -> frozenset[ProjPoint]:
    """Classify every point up to a height bound by direct iteration.

    Orbits share verdicts: once a point is known preperiodic or wandering,
    everything that flowed through it inherits the answer. No preperiodic
    point lies above preperiodic_height_bound(phi), the smaller of the
    escape height and, for a polynomial, its local bound, and every point
    on the orbit of a preperiodic point is preperiodic. So the scan stops
    there: only points up to min(height_bound, preperiodic_height_bound(phi))
    are enumerated, and an orbit that passes the bound settles as wandering.

    The scan walks the rows of bare coordinate pairs of
    rational_points_up_to and steps each row's pairs that have no verdict
    yet with one dynmap.image_row call, the one map-step kernel, so every
    step checks that gcd(F, G) divides Res(F, G). Most points leave in one
    step: a pair whose image is above the bound wanders with no bookkeeping
    at all; no verdict is kept, and an orbit that reaches it from a later
    row steps it again. Otherwise its orbit is followed on from that image,
    and every pair on the path gets the verdict; a pair of the current row
    on the path takes its image from the row's results. Each step is
    followed by one height test, so no pair above the bound is ever
    stepped. ProjPoints are made only for the points returned.
    """
    cutoff = preperiodic_height_bound(phi)
    return _preperiodic_up_to(phi, min(height_bound, cutoff), cutoff)


def _preperiodic_up_to(phi: RationalMap, bound: int, cutoff: int) -> frozenset[ProjPoint]:
    """brute_force_preperiodic's scan to bound <= cutoff = preperiodic_height_bound(phi)."""
    verdict: dict[tuple[int, int], bool] = {}

    def settle(path: set[tuple[int, int]], x: int, y: int) -> None:
        # (x, y) is at or below the cutoff: the image of the pair
        # last added to path
        while True:
            key = (x, y)
            v = verdict.get(key)
            if v is not None:
                break
            if key in path:
                v = True  # the orbit looped, so the whole path is preperiodic
                break
            path.add(key)
            if y == row_y and abs(x) <= bound:
                # a pair of the current row with no verdict, so stepped with
                # the row: its image is in row unless it escaped
                image = row.get(x)
                if image is None:
                    v = False
                    break
                x, y = image
            else:
                x, y = image_pair(phi, x, y)
                if abs(x) > cutoff or y > cutoff:  # y >= 0 in normal form
                    v = False
                    break
        for key in path:
            verdict[key] = v

    for row_y, xs in _coprime_rows(bound):
        todo = [x for x in xs if (x, row_y) not in verdict]
        # the images at or below the cutoff, by x
        row = {
            x: (fx, fy)
            for x, (fx, fy) in zip(todo, image_row(phi, row_y, todo))
            if abs(fx) <= cutoff and fy <= cutoff
        }
        for x, (fx, fy) in row.items():
            if (x, row_y) not in verdict:
                settle({(x, row_y)}, fx, fy)
    return frozenset(
        ProjPoint(x, y) for (x, y), v in verdict.items() if v and abs(x) <= bound and y <= bound
    )
