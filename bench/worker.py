"""One pass of a workload in a fresh interpreter; started by run.py.

    python3 bench/worker.py WORKLOAD SEED OUTDIR RESULT [--trace] [--setup-only]

Set-up is importing `preper` from this checkout's `src/` and building the
request list. The worker then prints `ready`, so the parent can time set-up,
and unless `--setup-only` runs every request in order through
`preper.cli.main`, each writing to its own file under OUTDIR. The request
times, the outputs, the peak resident memory and the calibration samples
(see Calibrator) go to RESULT as JSON.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter, thread_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import preper  # noqa: E402
import preper.cli  # noqa: E402

from workloads import build_requests  # noqa: E402


CALIBRATION_PERIOD_S = 0.05


def calibration_kernel() -> int:
    """A fixed piece of pure-Python integer arithmetic, a few tenths of a ms."""
    acc = 1
    x = 3**90
    slots = [0] * 16
    for i in range(1400):
        acc = (acc * x + i) % 1000000007
        slots[i & 15] += acc
    return acc


class Calibrator:
    """Samples the machine's speed while the program runs.

    Every CALIBRATION_PERIOD_S of wall time a timer signal runs
    calibration_kernel in the main thread and records the thread CPU time it
    took. The host's speed drifts by a quarter over tens of seconds, and the
    kernel drifts with it, so run.py can scale the program's times by it. CPU
    time rather than wall time, so that the program's own threads or
    processes, which would delay the kernel on the wall clock, do not move
    it. `spent` is the wall time spent in the handler, which the request
    times leave out.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        calibration_kernel()  # warms the caches the program left cold
        c0 = thread_time()
        calibration_kernel()
        self.samples.append(thread_time() - c0)
        self.spent += perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def pin_to_one_core() -> None:
    """Run the pass, its threads included, on one core.

    The sweeps' thread pool hands the interpreter lock between threads every
    few milliseconds. Spread over two cores of a shared host, each handoff
    waits until the host runs the other core again: the same sweep then
    idled for 0 to 30% of its wall time, depending on the host's load. The
    lock lets one thread run at a time, so one core is all the pool uses.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_pass(requests, outdir: Path, tracer, calibrator) -> dict:
    times, codes, errors, marks = [], [], [], []
    start = perf_counter()
    for i, req in enumerate(requests):
        argv = [req.command, *req.args, "--out", str(outdir / f"{i}.out")]
        error = None
        spent = calibrator.spent
        first_sample = len(calibrator.samples)
        t0 = perf_counter()
        try:
            if tracer is None:
                code = preper.cli.main(argv)
            else:
                with tracer.request(req.is_sweep):
                    code = preper.cli.main(argv)
        except SystemExit as e:  # argparse rejects a command line this way
            code = e.code
        except Exception:  # a request that raises counts as failed; keep going
            code, error = None, traceback.format_exc(limit=3)
        times.append(perf_counter() - t0 - (calibrator.spent - spent))
        marks.append((first_sample, len(calibrator.samples)))
        codes.append(code)
        errors.append(error)
    wall = perf_counter() - start - calibrator.spent
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outputs = []
    for i in range(len(requests)):
        path = outdir / f"{i}.out"
        outputs.append(path.read_text() if path.exists() else None)
        path.unlink(missing_ok=True)
    return {
        "wall_s": wall,
        "times": times,
        "codes": codes,
        "errors": errors,
        "outputs": outputs,
        "peak_rss_mb": peak_rss_mb,
        "calibration_s": calibrator.samples,
        "calibration_marks": marks,
    }


def main(argv: list[str]) -> int:
    workload, seed, outdir, result = argv[:4]
    if Path(preper.__file__).resolve().parent != ROOT / "src" / "preper":
        print(f"imported preper from {preper.__file__}, not from src/", file=sys.stderr)
        return 2
    requests = build_requests(workload, int(seed))
    tracer = None
    if "--trace" in argv:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(preper)
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0
    pin_to_one_core()
    # the traced pass gives CPU self times, which the kernel would inflate
    calibrator = Calibrator()
    if tracer is None:
        with calibrator:
            data = run_pass(requests, Path(outdir), tracer, calibrator)
    else:
        data = run_pass(requests, Path(outdir), tracer, calibrator)
    if tracer is not None:
        data["layers"] = tracer.metrics()
        data["missing_bindings"] = tracer.missing
    Path(result).write_text(json.dumps(data))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
