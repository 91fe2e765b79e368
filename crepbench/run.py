"""Run one workload of the crep benchmark, check its outputs, print its metrics.

    python3 crepbench/run.py --workload hitting-ring5 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: crep is imported from ``src/`` there, never
from an installed copy, and the run fails without printing a result when
those sources are missing.  The workload's inputs come from ``--seed``.  The
timed section is one round of the workload's operations, repeated whole for
``--seconds``; ``run_s`` is the median round.  ``setup_s`` is the median wall
time of fresh processes that import crep, build the inputs and make one warm
call.  With ``--trace 1`` untraced and traced rounds alternate; the run
writes the traced rounds' spans to ``.crepbench/`` and prints their per-layer
metrics, with ``trace.overhead_s`` their median round less the untraced one.  The last line of standard output
is the JSON result; notes go to standard error.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: where traced runs write their spans (ignored by git)
TRACE_DIR = HERE.parent / ".crepbench"

#: fresh processes timed for setup_s
SETUP_PROBES = 7
#: BLAS pools are held to one thread: the hitting workload's two worker
#: threads already fill the two cores, and on two cores OpenBLAS's default
#: pool made the dense stages slower and their timings noisy
SINGLE_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def use_checkout_crep() -> None:
    """Import crep from this checkout's ``src/``; exit when it is not there."""
    if not (SRC / "crep" / "__init__.py").is_file():
        sys.exit(f"crepbench: no crep sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import crep

    if Path(crep.__file__).resolve().parent != SRC / "crep":
        sys.exit(f"crepbench: imported crep from {crep.__file__}, not from {SRC}")


def seed_value(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return seed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("hitting-ring5", "sweep-grid", "optimize-ring5"))
    parser.add_argument("--seed", type=seed_value, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, make the warm call and exit (a setup_s probe)")
    return parser.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of SETUP_PROBES fresh setup processes."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def call(op):
    """Run one operation; an exception is its output, judged by the checks."""
    try:
        return op()
    except Exception as exc:  # the checks count it as a failed operation
        return exc


def run_rounds(workload, seconds: float, tracer=None):
    """Repeat whole rounds for ``seconds``; alternate traced rounds if tracing.

    Returns (first round's outputs, untraced round times, traced round times,
    per operation the number of later rounds whose output differed).
    """
    from workloads import same_output

    ops = workload.operations()
    first = None
    differed = [0] * len(ops)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        traced_round = tracer is not None and len(traced) < len(plain)
        if traced_round:
            tracer.install()
        try:
            start = time.perf_counter()
            outputs = [call(op) for op in ops]
            elapsed = time.perf_counter() - start
        finally:
            if traced_round:
                tracer.uninstall()
        (traced if traced_round else plain).append(elapsed)
        if first is None:
            first = outputs
        else:
            for i, (a, b) in enumerate(zip(first, outputs)):
                differed[i] += not same_output(a, b)
        done = time.perf_counter() >= deadline
        if done and (tracer is None or len(traced) == len(plain)):
            return first, plain, traced, differed


def result_line(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> str:
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in SINGLE_THREAD_ENV:
        os.environ[var] = "1"
    use_checkout_crep()
    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        cls(args.seed).warm()
        return 0

    setup_s = setup_seconds(args.workload, args.seed) if not args.trace else None
    workload = cls(args.seed)
    workload.warm()
    tracer = tracing.Tracer() if args.trace else None
    first, plain, traced, differed = run_rounds(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdict = workload.check(first)
    rounds = len(plain) + len(traced)
    attempted = rounds * len(first)
    failed = sum(rounds if op in verdict.failed else differed[op] for op in range(len(first)))
    for op, problems in sorted(verdict.failed.items()):
        for problem in problems:
            print(f"{args.workload}: operation {op} failed: {problem}", file=sys.stderr)
    for op, count in enumerate(differed):
        if count:
            print(f"{args.workload}: operation {op} changed its output in {count} rounds",
                  file=sys.stderr)
    for problem in verdict.claims:
        print(f"{args.workload}: claim failed: {problem}", file=sys.stderr)

    run_s = statistics.median(plain)
    print(
        f"{args.workload}: {len(plain)} untraced and {len(traced)} traced rounds, "
        f"median round {run_s:.4f} s, {workload.work() / run_s:.2f} "
        f"{workload.work_unit}/s, {attempted} operations, {failed} failed",
        file=sys.stderr,
    )
    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        spans_path = TRACE_DIR / f"spans-{args.workload}-{args.seed}.json"
        tracer.write(spans_path)
        print(f"{args.workload}: {len(tracer.spans)} spans written to {spans_path}",
              file=sys.stderr)
        values = tracing.layer_metrics(tracer.spans, len(traced))
        values["trace.overhead_s"] = statistics.median(traced) - run_s
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        values = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb}
        units = {name: unit for name, unit, _ in END_TO_END}
    print(result_line(not verdict.claims, attempted, failed, values, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
