#!/usr/bin/env python3
"""Benchmark of xoppak: four closed-loop workloads, one client in one process.

    python3 bench/run.py --workload eigen-grid --seed 1 --seconds 27 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run warms up on a small round of the workload, then
repeats whole rounds of its operations for ``--seconds`` and reports the
end-to-end metrics.  With ``--trace 1`` it runs one round untraced and one
with every layer wrapped (see tracing.py) and reports the per-layer metrics.
Every output is checked after the timed part.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the run context and a raw record of the run go to
``bench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# name -> unit of every end-to-end metric
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
# interpreter starts timed for setup_s before the timed rounds, and as many
# after them, so that one slow phase of the host does not decide the median
SETUP_SAMPLES = 4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_times() -> list:
    """Times from a fresh interpreter until `import xoppak.cli` returns."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import xoppak.cli"], env=env, cwd=ROOT,
                       check=True)
        times.append(perf_counter() - t0)
    return times


def git_sha():
    """Commit of the checkout, read from .git without running git; None
    outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def context(args) -> dict:
    import mpmath
    from xoppak import exact

    backend = exact.Rational
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rational_backend": f"{backend.__module__}.{backend.__name__}",
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mp_dps": mpmath.mp.dps,
        "git_sha": git_sha(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "cpus": os.cpu_count(),
        "jobs": 1,
    }


def measure(workload, seconds):
    """Whole rounds for `seconds`: a round starts only if, taking as long as
    the one before, it ends in time.  At least one round."""
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start + rounds[-1].wall_s <= seconds:
        rounds.append(workload.run_round())
    return rounds


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "xoppak" / "cli.py").is_file():
        print(f"bench: no xoppak sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)

    if args.trace:
        rounds = [workload.run_round()]
        with tracing.Tracer() as tracer:
            rounds.append(workload.run_round())
        values = tracer.metrics()
        values["trace.overhead_s"] = rounds[1].wall_s - rounds[0].wall_s
        units = {name: unit for name, unit, _ in tracing.METRICS}
    else:
        # untimed and uncounted: loads the lazy imports and runs the
        # workload's code once at a small size, so that the first timed
        # round is not the slowest
        workloads.WORKLOADS[args.workload](args.seed, small=True).run_round()
        setup = setup_times()
        rounds = measure(workload, args.seconds)
        setup += setup_times()
        # The host's speed changes in phases of seconds to minutes.  Means
        # over the rounds follow the share of a run spent in a slow phase;
        # a median over a few rounds jumps from one speed to the other.
        # Each operation's mean over the rounds also keeps one slow round
        # from deciding which side of a gap in the latencies the median
        # over the operations falls on.
        per_op = [statistics.fmean(s) for s in zip(*(r.op_s for r in rounds))]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.fmean(r.wall_s for r in rounds),
            "op_p50_ms": 1000 * statistics.median(per_op),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    attempted = sum(len(r.op_s) for r in rounds)
    failed = sum(r.failed for r in rounds)

    problems = workload.check(rounds)
    for line in problems:
        print(f"bench: check failed: {line}", file=sys.stderr)

    ctx = context(args)
    record = {
        "context": ctx,
        "rounds": [{"wall_s": r.wall_s, "op_s": r.op_s, "failed": r.failed} for r in rounds],
        "problems": problems,
        "metrics": values,
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"context": ctx}))
    print(f"{args.workload}: {len(rounds)} rounds of {len(rounds[0].op_s)} operations, "
          f"{attempted} attempted, {failed} failed, "
          f"checks {'passed' if not problems else 'FAILED'}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
