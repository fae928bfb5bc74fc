"""Per-layer spans, recorded by wrapping the program's functions from outside.

Each public function is wrapped at the binding its caller uses: `cli` calls
`build_portrait` through `preper.cli.build_portrait`, so that is the name
replaced, and a wrapper on `preper.portrait.build_portrait` alone would see
none of those calls. `BinaryForm.__mul__` is wrapped on the class.

Every request gets its own span tree, rooted at a `cli.main` span; a span's
parent is the innermost open span on the same thread. A span's self time is
the CPU time of its thread while it was open, minus that of its children.
CPU time rather than wall time, because the sweep's worker threads take
turns holding the interpreter lock: on the wall clock a span would also
count the time its thread waited for the lock while other threads ran.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter, thread_time


def _bits(coeffs) -> int:
    return max((abs(c).bit_length() for c in coeffs), default=0)


# Counters: each updates the layer's totals from one call's arguments and result.


def _count_factor(c, args, kwargs, result):
    c["complete"] += result.complete
    c["input_bits_max"] = max(c["input_bits_max"], abs(args[0]).bit_length())


def _count_roots(c, args, kwargs, result):
    f = args[0]
    c["complete"] += result.complete
    c["input_degree_max"] = max(c["input_degree_max"], f.degree)
    c["input_bits_max"] = max(c["input_bits_max"], _bits(f.coeffs))


def _count_compose(c, args, kwargs, result):
    n = args[2] if len(args) > 2 else kwargs["n"]
    c["steps"] += n - 1
    c["out_bits_max"] = max(c["out_bits_max"], _bits(result[0].coeffs), _bits(result[1].coeffs))


def _count_mul(c, args, kwargs, result):
    a, b = args
    c["coeff_products"] += sum(1 for x in a.coeffs if x) * sum(1 for y in b.coeffs if y)


def _count_star(c, args, kwargs, result):
    star = result.star_form
    c["star_degree_max"] = max(c["star_degree_max"], star.degree)
    c["star_bits_max"] = max(c["star_bits_max"], _bits(star.coeffs))


def _count_preimages(c, args, kwargs, result):
    c["points"] += len(result.points)
    c["complete"] += result.complete


def _count_certificates(c, args, kwargs, result):
    c["certificates"] += len(result.certificates)


RENDERERS = (
    "portrait_to_json_dict",
    "portrait_to_text",
    "portrait_to_dot",
    "oracle_to_json_dict",
    "oracle_to_text",
    "bounds_to_json_dict",
    "bounds_to_text",
    "certificates_to_json_dict",
    "certificates_to_text",
    "_emit",
)

# (layer, attribute, modules of preper whose binding is wrapped, counter)
BINDINGS = (
    ("qarith.factor", "factor", ("forms", "dynmap", "dynatomic"), _count_factor),
    ("forms.rational_roots", "rational_roots", ("dynatomic", "dynmap"), _count_roots),
    ("forms.compose_pair", "compose_pair", ("dynatomic",), _count_compose),
    ("forms.exact_divide", "exact_divide", ("dynatomic", "forms"), None),
    ("forms.resultant", "resultant", ("dynmap",), None),
    # dynatomic_record builds Phi*_n; dynatomic_polynomial is a thin accessor
    # that the CLI path never calls
    ("dynatomic.dynatomic_polynomial", "dynatomic_record", ("dynatomic",), _count_star),
    ("dynatomic.formal_period_orders", "formal_period_orders", ("dynatomic",), None),
    ("dynatomic.multiplier", "multiplier", ("dynatomic",), None),
    ("dynatomic.rational_periodic_points", "rational_periodic_points", ("portrait",), None),
    ("dynmap.build_map", "build_map", ("cli", "families"), None),
    ("dynmap.apply", "apply", ("dynmap", "dynatomic", "portrait", "certify", "cli"), None),
    ("dynmap.preimages", "preimages", ("portrait",), _count_preimages),
    ("families.generate", "generate", ("cli",), None),
    ("portrait.build_portrait", "build_portrait", ("cli", "families"), None),
    ("portrait.brute_force_preperiodic", "brute_force_preperiodic", ("cli",), None),
    ("certify.make_certificates", "make_certificates", ("cli",), _count_certificates),
    ("certify.bounds", "evaluate_bounds", ("cli",), None),
    ("certify.bounds", "check_bounds", ("cli",), None),
    ("cli.parse", "parse_map", ("cli",), None),
    *(("cli.render", name, ("cli",), None) for name in RENDERERS),
)

# per-layer metrics and their units, as the traced run reports them
PER_LAYER = (
    ("qarith.factor.self_s", "s"),
    ("qarith.factor.calls", "count"),
    ("qarith.factor.complete_share", "share"),
    ("qarith.factor.input_bits_max", "bits"),
    ("forms.rational_roots.self_s", "s"),
    ("forms.rational_roots.calls", "count"),
    ("forms.rational_roots.complete_share", "share"),
    ("forms.rational_roots.input_degree_max", "count"),
    ("forms.rational_roots.input_bits_max", "bits"),
    ("forms.compose_pair.self_s", "s"),
    ("forms.compose_pair.calls", "count"),
    ("forms.compose_pair.steps", "count"),
    ("forms.compose_pair.out_bits_max", "bits"),
    ("forms.mul.self_s", "s"),
    ("forms.mul.calls", "count"),
    ("forms.mul.coeff_products", "count"),
    ("forms.exact_divide.self_s", "s"),
    ("forms.exact_divide.calls", "count"),
    ("forms.resultant.self_s", "s"),
    ("dynatomic.dynatomic_polynomial.self_s", "s"),
    ("dynatomic.dynatomic_polynomial.calls", "count"),
    ("dynatomic.dynatomic_polynomial.star_degree_max", "count"),
    ("dynatomic.dynatomic_polynomial.star_bits_max", "bits"),
    ("dynatomic.formal_period_orders.self_s", "s"),
    ("dynatomic.formal_period_orders.calls", "count"),
    ("dynatomic.multiplier.self_s", "s"),
    ("dynatomic.rational_periodic_points.self_s", "s"),
    ("dynmap.build_map.self_s", "s"),
    ("dynmap.apply.self_s", "s"),
    ("dynmap.apply.calls", "count"),
    ("dynmap.preimages.self_s", "s"),
    ("dynmap.preimages.calls", "count"),
    ("dynmap.preimages.points", "count"),
    ("dynmap.preimages.complete_share", "share"),
    ("families.generate.self_s", "s"),
    ("portrait.build_portrait.self_s", "s"),
    ("portrait.brute_force_preperiodic.self_s", "s"),
    ("certify.make_certificates.self_s", "s"),
    ("certify.make_certificates.certificates", "count"),
    ("certify.bounds.self_s", "s"),
    ("cli.parse.self_s", "s"),
    ("cli.render.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.sweep.busy_ratio", "ratio"),
    ("trace.overhead_s", "s"),
)


class _JsonProxy:
    """Stands in for the `json` module inside `preper.cli`, timing `dumps`."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Spans and counts for the requests of one traced pass."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spans: list = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.sweep_busy_s = 0.0
        self.sweep_wall_s = 0.0
        self.missing: list[str] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, layer: str, counter=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            # [layer, parent on this thread, wall start, wall end, cpu start, cpu end]
            span = [layer, stack[-1] if stack else None, perf_counter(), None, thread_time(), None]
            self._spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = thread_time()
                span[3] = perf_counter()
                stack.pop()
            with self._lock:
                totals = self.counts[layer]
                totals["calls"] += 1
                if counter is not None:
                    counter(totals, args, kwargs, result)
            return result

        return traced

    def install(self, preper) -> None:
        """Replace every binding in BINDINGS, `BinaryForm.__mul__` and cli's json."""
        for layer, attr, modules, counter in BINDINGS:
            for name in modules:
                module = getattr(preper, name)
                if not hasattr(module, attr):
                    self.missing.append(f"preper.{name}.{attr}")
                    continue
                setattr(module, attr, self.wrap(getattr(module, attr), layer, counter))
        form = preper.forms.BinaryForm
        form.__mul__ = self.wrap(form.__mul__, "forms.mul", _count_mul)
        cli = preper.cli
        cli.json = _JsonProxy(cli.json, self.wrap(cli.json.dumps, "cli.render"))

        make_parser = cli.make_parser

        def traced_make_parser():
            parser = make_parser()
            parser.parse_args = self.wrap(parser.parse_args, "cli.parse")
            return parser

        cli.make_parser = self.wrap(traced_make_parser, "cli.parse")

    @contextmanager
    def request(self, sweep: bool):
        """One request's span tree, folded into the totals when it closes."""
        root = ["cli.main", None, perf_counter(), None, thread_time(), None]
        self._spans = [root]
        self._stack()[:] = [root]
        try:
            yield
        finally:
            root[5] = thread_time()
            root[3] = perf_counter()
            self._stack().clear()
            self._fold(sweep)

    def _fold(self, sweep: bool) -> None:
        children_cpu = defaultdict(float)
        for span in self._spans:
            if span[1] is not None:
                children_cpu[id(span[1])] += span[5] - span[4]
        for span in self._spans:
            self.self_s[span[0]] += (span[5] - span[4]) - children_cpu[id(span)]
        if sweep:
            root = self._spans[0]
            self.sweep_wall_s += root[3] - root[2]
            self.sweep_busy_s += sum(
                s[3] - s[2] for s in self._spans if s[0] == "portrait.build_portrait"
            )
        self._spans = []

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric but the overhead; 0 where the layer did not run."""
        out = {}
        for name, _ in PER_LAYER:
            layer, _, field = name.rpartition(".")
            totals = self.counts.get(layer, {})
            if field == "self_s":
                out[name] = self.self_s.get(layer, 0.0)
            elif field == "complete_share":
                calls = totals.get("calls", 0)
                out[name] = totals.get("complete", 0) / calls if calls else 0.0
            elif name == "cli.sweep.busy_ratio":
                out[name] = self.sweep_busy_s / self.sweep_wall_s if self.sweep_wall_s else 0.0
            elif layer != "trace":
                out[name] = totals.get(field, 0)
        return out
