"""Benchmark `preper analyze` end to end, or per layer with `--trace 1`.

    python3 bench/run.py --workload family-sweep --seed 0 --seconds 40 --trace 0

Workloads are fixed lists of `preper` command lines (see workloads.py). A run
first times set-up in several fresh interpreters that stop once the request
list is built. It then runs passes: each pass is one fresh interpreter that
sends every request of the list, in order and one at a time, through
`preper.cli.main`. With `--trace 0` passes repeat until the next one would
end after `--seconds` (at least two); end-to-end metrics are medians over
them. With `--trace 1` one untraced pass is followed by one traced pass that
gives the per-layer metrics and the tracing overhead.

A shared host runs the same code up to a third slower for tens of seconds
at a time. So each pass runs on one core (worker.pin_to_one_core), and
times are calibrated: untraced passes sample a fixed kernel's speed while
they run (worker.Calibrator), and every time is scaled to
REFERENCE_KERNEL_S. The report prints the uncalibrated times too.

Every output is checked against the reference recorded in reference.json.gz
(see check.py), the first and last pass must produce identical outputs, and
no map may repeat within a pass. The report goes to stdout; its last line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import check_output, is_closed, load_reference  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, build_requests  # noqa: E402

SETUP_SPAWNS = 10
MIN_PASSES = 2
DEADLINE_S = 160
TAIL_SAMPLES = 10
# the reference machine speed that timings are scaled to: the thread CPU time
# of worker.calibration_kernel, as sampled during a pass, typical of a quiet
# 2-core x86-64 host with Python 3.11
REFERENCE_KERNEL_S = 350e-6
# the fewest calibration samples a request's scale is taken from (2 s of them)
LOCAL_SAMPLES = 40

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("request_p50_s", "s"),
    ("request_tail_s", "s"),
    ("closed_share", "share"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run: no result is printed."""


class Worker:
    """Starts worker.py passes in fresh interpreters, within one deadline."""

    def __init__(self, workload: str, seed: int, tmp: Path, deadline: float):
        self.base = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(tmp)]
        self.tmp = tmp
        self.deadline = deadline
        self.count = 0

    def spawn(self, *flags: str) -> tuple[float, dict | None]:
        """(set-up seconds, the pass's result or None with --setup-only)."""
        self.count += 1
        result = self.tmp / f"result{self.count}.json"
        # same hashing in every pass; bytecode cached in the checkout, as an
        # installed package has it, whatever the caller's environment says
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        t0 = perf_counter()
        proc = subprocess.Popen(
            [*self.base, str(result), *flags],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
        )
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - t0
            proc.communicate(timeout=max(1.0, self.deadline - monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("a worker ran past the benchmark's deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"worker {' '.join(flags)} exited with {proc.returncode}")
        if "--setup-only" in flags:
            return setup_s, None
        return setup_s, json.loads(result.read_text())


def calibrated_times(data: dict) -> list[float]:
    """A pass's request times, each scaled to the reference machine speed.

    A request's scale comes from the calibration samples taken while it ran,
    widened on both sides to at least LOCAL_SAMPLES of them.
    """
    samples = data["calibration_s"]
    scaled = []
    for t, (lo, hi) in zip(data["times"], data["calibration_marks"]):
        while hi - lo < LOCAL_SAMPLES and (lo > 0 or hi < len(samples)):
            lo, hi = max(0, lo - 1), min(len(samples), hi + 1)
        scaled.append(t * REFERENCE_KERNEL_S / statistics.median(samples[lo:hi]))
    return scaled


def pass_scale(data: dict) -> float:
    """Factor that brings a pass's wall time to the reference machine speed."""
    return sum(calibrated_times(data)) / sum(data["times"])


def request_times(passes: list[dict]) -> list[float]:
    """Each request's median calibrated time over the passes, in request order."""
    return [statistics.median(ts) for ts in zip(*(calibrated_times(p) for p in passes))]


def tail(times: list[float]) -> tuple[str, float]:
    """(how it was taken, value) of request_tail_s over per-request times.

    The highest percentile with TAIL_SAMPLES requests above it. Below p90 it
    would say little about the tail, so for short request lists the slowest
    request stands in for it.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 10 * TAIL_SAMPLES:
        return f"slowest of {n} requests", ordered[-1]
    return f"p{100 * (n - TAIL_SAMPLES) / n:.1f} of {n} requests", ordered[n - TAIL_SAMPLES - 1]


def judge(requests, passes: list[dict], refs: dict) -> dict:
    """Check every output of every pass; count failures and closed portraits."""
    attempted = failed = closed = portraits = 0
    problems: list[str] = []
    for number, data in enumerate(passes, start=1):
        seen_maps: set[str] = set()
        for req, code, error, output in zip(requests, data["codes"], data["errors"], data["outputs"]):
            attempted += 1
            if code != 0 or output is None:
                found = [f"exit code {code}" + (f": {error.strip().splitlines()[-1]}" if error else "")]
            else:
                try:
                    found, summaries = check_output(req, output, refs)
                except (ValueError, KeyError, TypeError) as e:
                    found, summaries = [f"unreadable output: {e!r}"], []
                for s in summaries:
                    if s["key"] in seen_maps:
                        found.append(f"map {s['key']} repeats within the pass")
                    seen_maps.add(s["key"])
                portraits += len(summaries)
                closed += sum(is_closed(s) for s in summaries)
            if found:
                failed += 1
                problems.append(f"pass {number}: {req.command} {' '.join(req.args)}: {'; '.join(found)}")
    if passes[0]["outputs"] != passes[-1]["outputs"]:
        problems.append("the first and last pass produced different outputs")
    return {
        "attempted": attempted,
        "failed": failed,
        "closed": closed,
        "portraits": portraits,
        "problems": problems,
    }


def end_to_end(setups: list[float], passes: list[dict], verdict: dict) -> tuple[dict, str]:
    times = request_times(passes)
    note, tail_value = tail(times)
    # set-up is too short to sample; the run's passes give its scale
    run_scale = REFERENCE_KERNEL_S / statistics.median(s for p in passes for s in p["calibration_s"])
    metrics = {
        "setup_s": statistics.median(setups) * run_scale,
        "wall_s": statistics.median(p["wall_s"] * pass_scale(p) for p in passes),
        "request_p50_s": statistics.median(times),
        "request_tail_s": tail_value,
        "closed_share": verdict["closed"] / verdict["portraits"] if verdict["portraits"] else 0.0,
        "ok_share": 1 - verdict["failed"] / verdict["attempted"],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return metrics, note


def environment() -> list[str]:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or commit
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return [
        f"python {platform.python_version()}  nproc {cores}  commit {commit}",
        f"src/ line count {src_lines} (informational)",
    ]


def baseline_facts(workload: str, reference: dict, verdict: dict) -> list[str]:
    """Known incompleteness at the reference commit, next to this run's share."""
    refs = reference["workloads"][workload]
    members = [(ref_id, i, m) for ref_id, ms in refs.items() for i, m in enumerate(ms)]
    not_closed = [
        f"{ref_id} (member {i + 1})" if len(refs[ref_id]) > 1 else ref_id
        for ref_id, i, m in members
        if not is_closed(m)
    ]
    lines = [
        f"reference ({reference['commit']}): {len(members) - len(not_closed)} of {len(members)} "
        f"portraits closed; this run: {verdict['closed']} of {verdict['portraits']} over all passes"
    ]
    lines += [f"  not closed at the reference: {label}" for label in not_closed]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its worker and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    if not (ROOT / "src" / "preper" / "__init__.py").is_file():
        print(f"no preper sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    requests = build_requests(args.workload, args.seed)
    reference = load_reference()
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        worker = Worker(args.workload, args.seed, tmp, monotonic() + DEADLINE_S)
        worker.spawn("--setup-only")  # warm-up: compiles bytecode, not timed
        setups = [worker.spawn("--setup-only")[0] for _ in range(SETUP_SPAWNS)]
        passes: list[dict] = []
        started = monotonic()
        while True:
            setup_s, data = worker.spawn()
            setups.append(setup_s)
            passes.append(data)
            if args.trace:
                break
            elapsed = monotonic() - started
            per_pass = elapsed / len(passes)
            if len(passes) >= MIN_PASSES and elapsed + per_pass > args.seconds:
                break
            if monotonic() + per_pass > worker.deadline:
                break
        traced = worker.spawn("--trace")[1] if args.trace else None
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    refs = reference["workloads"][args.workload]
    verdict = judge(requests, passes + ([traced] if traced else []), refs)
    e2e, tail_note = end_to_end(setups, passes, verdict)
    correct = not verdict["problems"]

    print(f"workload {args.workload} (seed {args.seed}): {WORKLOADS[args.workload]}")
    for line in environment():
        print(line)
    print(
        f"{len(requests)} requests per pass, {len(passes)} untraced pass(es)"
        f"{', 1 traced pass' if traced else ''}, {len(setups)} timed set-ups"
    )
    print(
        "uncalibrated wall_s of each pass: " + " ".join(f"{p['wall_s']:.4g}" for p in passes) + " s; "
        "calibration factor of each pass: " + " ".join(f"{pass_scale(p):.3f}" for p in passes)
    )
    print(f"uncalibrated setup_s: median {statistics.median(setups):.4g} s")
    for name, unit in END_TO_END:
        extra = f"  ({tail_note}, each its median over {len(passes)} passes)" if name == "request_tail_s" else ""
        print(f"{name} = {e2e[name]:.6g} {unit}{extra}")
    print(f"failed_share = {verdict['failed'] / verdict['attempted']:.6g} share "
          f"({verdict['failed']} of {verdict['attempted']} requests)")
    for line in baseline_facts(args.workload, reference, verdict):
        print(line)
    for problem in verdict["problems"][:20]:
        print(f"FAILED {problem}")

    if traced:
        layers = dict(traced["layers"], **{"trace.overhead_s": traced["wall_s"] - passes[0]["wall_s"]})
        print(f"traced wall_s = {traced['wall_s']:.6g} s; tracing overhead = {layers['trace.overhead_s']:.6g} s")
        for name in traced["missing_bindings"]:
            print(f"binding not found, layer not traced there: {name}")
        for name, unit in PER_LAYER:
            print(f"{name} = {layers[name]:.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": verdict["attempted"],
                "failed": verdict["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
