"""Correctness of request outputs, judged against the recorded reference.

The reference holds, per request, a summary of each portrait the request
produced at the commit where it was recorded: cycles, multipliers, tails,
bad primes and completeness flags. A new output must match it, with two
allowances for later work: a completeness flag may go from False to True
(never back), and where the reference was not closed its points need only
be a subset of the new ones. The horizon n_max is not compared.
"""

from __future__ import annotations

import gzip
import json
from itertools import product
from pathlib import Path

from workloads import Request, normalized_key

REFERENCE_FILE = Path(__file__).with_name("reference.json.gz")
FLAGS = ("roots_complete", "preimages_complete", "bad_primes_complete")


def load_reference() -> dict:
    with gzip.open(REFERENCE_FILE, "rt") as fh:
        return json.load(fh)


def _pt(d: dict) -> str:
    return f'{d["x"]}/{d["y"]}'


def _rotated(cycle: list[str]) -> list[str]:
    i = cycle.index(min(cycle))
    return cycle[i:] + cycle[:i]


def summarize(doc: dict) -> dict:
    """The parts of one analyze JSON portrait that a correct run keeps."""
    m = doc["map"]
    return {
        "key": normalized_key(m["num"], m["den"]),
        "degree": m["degree"],
        "bad_primes": m["bad_primes"],
        "cycles": sorted(_rotated([_pt(P) for P in cyc]) for cyc in doc["cycles"]),
        "multipliers": {_pt(e["point"]): e["multiplier"] for e in doc["periodic"]},
        "tails": {_pt(t["point"]): [t["depth"], _pt(t["image"])] for t in doc["tails"]},
        "flags": {f: doc["completeness"][f] for f in FLAGS},
    }


def is_closed(summary: dict) -> bool:
    return summary["flags"]["roots_complete"] and summary["flags"]["preimages_complete"]


def _set_matches(what: str, new: set, ref: set, exact: bool) -> list[str]:
    if exact and new != ref:
        return [f"{what} differ: {sorted(new ^ ref)[:4]}"]
    if not ref <= new:
        return [f"{what} lost: {sorted(ref - new)[:4]}"]
    return []


def _dict_matches(what: str, new: dict, ref: dict, exact: bool) -> list[str]:
    problems = _set_matches(what, set(new), set(ref), exact)
    changed = [k for k in ref if k in new and new[k] != ref[k]]
    if changed:
        problems.append(f"{what} changed at {changed[:4]}")
    return problems


def compare_portrait(new: dict, ref: dict) -> list[str]:
    if new["key"] != ref["key"]:
        return [f"map {new['key']} where the reference has {ref['key']}"]
    problems = [f"{f} went from True to False" for f in FLAGS if ref["flags"][f] and not new["flags"][f]]
    closed = is_closed(ref)
    problems += _set_matches(
        "cycles", {tuple(c) for c in new["cycles"]}, {tuple(c) for c in ref["cycles"]}, closed
    )
    problems += _dict_matches("multipliers", new["multipliers"], ref["multipliers"], closed)
    problems += _dict_matches("tails", new["tails"], ref["tails"], closed)
    problems += _set_matches(
        "bad primes", set(new["bad_primes"]), set(ref["bad_primes"]), ref["flags"]["bad_primes_complete"]
    )
    return problems


def _check_certify(doc: dict, ref: dict) -> list[str]:
    problems = [] if doc["all_hold"] is True else ["certificates do not all hold"]
    problems += _set_matches(
        "certificate primes", set(doc["primes"]), set(ref["bad_primes"]), ref["flags"]["bad_primes_complete"]
    )
    pairs = {(_pt(c["tail"]), _pt(c["periodic"])) for c in doc["certificates"]}
    problems += _set_matches(
        "certificate pairs", pairs, set(product(ref["tails"], ref["multipliers"])), is_closed(ref)
    )
    return problems


def _check_bounds(doc: dict, ref: dict) -> list[str]:
    problems = [f"bound {c['name']} fails" for c in doc["checks"] if c["applicable"] and c["holds"] is not True]
    if doc["degree"] != ref["degree"]:
        problems.append(f"degree {doc['degree']}, reference {ref['degree']}")
    if ref["flags"]["bad_primes_complete"] and doc["s"] != len(ref["bad_primes"]) + 1:
        problems.append(f"s = {doc['s']}, reference {len(ref['bad_primes']) + 1}")
    if is_closed(ref):
        observed = {c["name"]: c["observed"] for c in doc["checks"]}
        expected = {"periodic_degree": len(ref["multipliers"]), "tails_degree": len(ref["tails"])}
        problems += [f"{k} observed {observed.get(k)}, reference {v}" for k, v in expected.items() if observed.get(k) != str(v)]
    return problems


def check_output(req: Request, text: str, refs: dict) -> tuple[list[str], list[dict]]:
    """Problems with one request's output, and the portraits it produced."""
    doc = json.loads(text)
    ref = refs[req.ref_id]
    if req.command == "certify":
        return _check_certify(doc, ref[0]), []
    if req.command == "bounds":
        return _check_bounds(doc, ref[0]), []
    members = doc if isinstance(doc, list) else [doc]
    if len(members) != len(ref):
        return [f"{len(members)} portraits, reference has {len(ref)}"], []
    problems, summaries = [], []
    for member, r in zip(members, ref):
        new = summarize(member)
        summaries.append(new)
        problems += compare_portrait(new, r)
        if "--height-oracle" in req.args and member["oracle"]["agree"] is not True:
            problems.append(f"height oracle disagrees on {new['key']}")
    return problems, summaries
