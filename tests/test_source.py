"""Properties of the library source itself."""

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "preper"


def _assert_lines(tree):
    """Lines of the assert statements in a parsed module."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_assert_statements():
    # invariants must raise real exceptions: python -O strips asserts
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line in _assert_lines(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
    assert _assert_lines(ast.parse("def f(x):\n    y = x\n    assert y > 0, y")) == [3]
    clean = "def f(x):\n    if x <= 0:\n        raise ValueError('assert x > 0')\n    assert_(x)"
    assert _assert_lines(ast.parse(clean)) == []


def test_public_names_resolve():
    import preper

    missing = [name for name in preper.__all__ if not hasattr(preper, name)]
    assert missing == []
    namespace: dict = {}
    exec("from preper import *", namespace)
    assert set(preper.__all__) <= set(namespace)


def _unbounded_caches(tree):
    """Lines of functools.cache, and of lru_cache with no maxsize or maxsize None."""
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            yield from (node.lineno for alias in node.names if alias.name == "cache")
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                yield node.lineno
        elif getattr(node, "id", getattr(node, "attr", None)) == "lru_cache":
            call = calls.get(id(node))
            sizes = [] if call is None else call.args[:1] + [
                k.value for k in call.keywords if k.arg == "maxsize"
            ]
            if not sizes or any(isinstance(v, ast.Constant) and v.value is None for v in sizes):
                yield node.lineno


def test_caches_are_bounded():
    # memory stays bounded in a long-lived process: every lru_cache passes a
    # maxsize that is not None, and functools.cache, which has none, is unused
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _unbounded_caches(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
    flagged = (
        "@lru_cache\ndef f(): pass",
        "@lru_cache()\ndef f(): pass",
        "@lru_cache(None)\ndef f(): pass",
        "@functools.lru_cache(maxsize=None)\ndef f(): pass",
        "@functools.cache\ndef f(): pass",
        "from functools import cache",
    )
    for source in flagged:
        assert list(_unbounded_caches(ast.parse(source))) != [], source
    bounded = "@lru_cache(maxsize=64)\ndef f(): pass\n@functools.lru_cache(8)\ndef g(): pass"
    assert list(_unbounded_caches(ast.parse(bounded))) == []


def _factor_calls_with_keywords(tree):
    """Lines of the calls of a function or method named factor that pass a keyword."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.keywords:
            if getattr(node.func, "id", getattr(node.func, "attr", None)) == "factor":
                yield node.lineno


def test_factor_sets_its_own_budget():
    # qarith.factor owns its curve budget: it takes n alone, and no call
    # under src/ passes it a keyword, ** included
    import inspect

    from preper import qarith

    assert list(inspect.signature(qarith.factor).parameters) == ["n"]
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _factor_calls_with_keywords(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
    for source in ("factor(n, curves=6)", "qarith.factor(n, **budget)"):
        assert list(_factor_calls_with_keywords(ast.parse(source))) == [1], source
    clean = "factor(n)\nfactor(trail)\nfr = self.factor()\nsplit(n, curves=6)"
    assert list(_factor_calls_with_keywords(ast.parse(clean))) == []


def _dataclass_names(tree):
    """Names of the classes decorated with dataclass, bare or called, dotted or not."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
                    yield node.name


def test_dataclasses_are_the_value_types():
    # the value types check their input, or, as RationalMap, must stay
    # weak-referenceable; every other record is a NamedTuple, which costs
    # a fraction of a dataclass to define when the package is imported
    found = [
        name
        for path in sorted(SRC.glob("*.py"))
        for name in _dataclass_names(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert sorted(found) == ["BinaryForm", "FamilySpec", "PrimeSet", "ProjPoint", "RationalMap"]
    sample = (
        "@dataclass(frozen=True)\nclass A: pass\n"
        "@dataclasses.dataclass\nclass B: pass\n"
        "@total_ordering\nclass C: pass\n"
        "class D(NamedTuple):\n    x: int\n"
    )
    assert list(_dataclass_names(ast.parse(sample))) == ["A", "B"]


_PORTRAIT_RECORDS = {"Portrait", "PeriodicPoint", "TailRecord", "CompletenessFlags"}
_MAP_RECORDS = {"RationalMap", "PrimeSet"}


def _record_builds(tree, records=_PORTRAIT_RECORDS, scope=None):
    """(innermost enclosing function, record, line) of each call of one of the records."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in records:
                yield scope, name, node.lineno
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _record_builds(node, records, inner)


def _src_builds(records):
    """{(file, innermost enclosing function): {"record:line", ...}} over src/."""
    builds = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, name, line in _record_builds(tree, records):
            builds.setdefault((path.name, scope), set()).add(f"{name}:{line}")
    return builds


def test_one_assembler_builds_the_portrait_records():
    # the Phi*_n search returns bare points and the JSON reader reassembles
    # its document, so every portrait record comes from portrait._assemble
    builds = _src_builds(_PORTRAIT_RECORDS)
    assembled = builds.pop(("portrait.py", "_assemble"))
    assert builds == {}
    assert {b.split(":")[0] for b in assembled} == _PORTRAIT_RECORDS
    sample = (
        "def f():\n    return Portrait(phi=1)\n"
        "def _assemble():\n    def g():\n        return preper.TailRecord(1)\n    return g\n"
        "flags = CompletenessFlags(7, True, True, True)\n"
        "p = portrait._replace(tails=())\nclassify(Portrait)\nPortraitCounts(1)\n"
    )
    assert [b[:2] for b in _record_builds(ast.parse(sample))] == [
        ("f", "Portrait"),
        ("g", "TailRecord"),
        (None, "CompletenessFlags"),
    ]


def test_build_map_is_the_one_map_constructor():
    # the JSON reader rebuilds its map from the two forms too, so no
    # resultant or bad-prime set is ever taken on trust from a caller
    builds = _src_builds(_MAP_RECORDS)
    built = builds.pop(("dynmap.py", "build_map"))
    assert builds == {}
    assert {b.split(":")[0] for b in built} == _MAP_RECORDS
    sample = "def reader(m):\n    return RationalMap(F, G, res, qarith.PrimeSet(()))\n"
    assert [b[:2] for b in _record_builds(ast.parse(sample), _MAP_RECORDS)] == [
        ("reader", "RationalMap"),
        ("reader", "PrimeSet"),
    ]


def _imported_names(tree):
    """(bound name, line) for every import except __future__ ones."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    """Names loaded anywhere, or listed in __all__ (the package's re-exports)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def test_no_unused_imports():
    # pyflakes-style check with the standard library only: an import that
    # outlives the code using it, such as a leftover factor, fails here
    found = []
    paths = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")]
    for path in sorted(paths):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        found += [
            f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in _imported_names(tree)
            if name not in used
        ]
    assert found == []


def test_doctests_pass():
    # the examples in the docstrings are documentation a reader may run
    import doctest
    import importlib

    results = {
        path.stem: doctest.testmod(importlib.import_module(f"preper.{path.stem}"))
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    }
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
    assert sum(r.attempted for r in results.values()) > 0


# the bindings of bench/tracing.py that no module of the package has; the
# layers behind them read 0 in a traced benchmark run
DEAD_TRACER_BINDINGS = {
    "preper.dynatomic.factor",
    "preper.dynatomic.compose_pair",
    "preper.dynatomic.dynatomic_record",
    "preper.dynatomic.formal_period_orders",
    "preper.certify.apply",
    "preper.cli.apply",
}


def test_bench_tracer_installs():
    # bench/tracing.py wraps functions at the bindings their callers use: a
    # renamed module makes install raise, a moved import leaves one more
    # layer untraced, and a binding that comes back must leave the pinned
    # set; a fresh process keeps the wrappers there, and -B keeps bench/
    # free of bytecode files
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(SRC.parent)!r}, {str(ROOT / 'bench')!r}]\n"
        "import preper, preper.cli\n"
        "from tracing import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install(preper)\n"
        "print(json.dumps(tracer.missing))\n"
    )
    done = subprocess.run([sys.executable, "-B", "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert set(json.loads(done.stdout)) == DEAD_TRACER_BINDINGS
