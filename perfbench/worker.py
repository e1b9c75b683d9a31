"""Run one workload in this process and print its measurements as JSON.

Started by ``run.py`` in a fresh interpreter whose environment pins
numpy/BLAS to one thread and puts the checkout's ``src`` first on the path.
The sequence is: build the inputs several times (their median is the input
part of ``setup_s``), one cold repetition (``cold_run_s``), then warm
repetitions (``run_s``, at least one) until ``--seconds`` are measured in
all.  With ``--trace 1`` a traced set-up follows the cold repetition, and
untraced and traced repetitions alternate for ``--seconds``.  Every
repetition's output is checked.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYERS, Tracer, merge_groups

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


def timed_rep(workload, state, outcomes: list) -> float:
    """One repetition; its output is checked after the clock stops."""
    t0 = time.perf_counter()
    output = workload.run(state)
    elapsed = time.perf_counter() - t0
    outcomes.append(workload.check(state, output))
    return elapsed


def repeat_for(seconds: float, step) -> list:
    """Call ``step`` until the next call would end past ``seconds`` (judged
    by the median call so far); at least once.  ``step`` returns the seconds
    it measured, or a tuple of them."""
    results: list = []
    spent: list[float] = []
    while not spent or sum(spent) + statistics.median(spent) <= seconds:
        t0 = time.perf_counter()
        results.append(step())
        spent.append(time.perf_counter() - t0)
    return results


# Work counts of the first traced seed-0 repetition, as measured when this
# benchmark was defined: (label, enclosing spans, count, expected value).
# They repeat exactly until a change alters the solver's work.
BASELINE_COUNTS = {
    "cli_configs": [
        ("2D CLI minimize outer cycles",
         ("cli.run.two_phase_2d_h128",), "outer_cycles", 7),
        ("2D CLI minimize CG iterations",
         ("cli.run.two_phase_2d_h128", "minimize.minimize"), "cg_iters", 3280),
        ("2D CLI audit harmonic CG iterations",
         ("cli.run.two_phase_2d_h128", "competitors.audit"), "cg_iters", 2730),
    ],
    "fine_descent": [
        ("minimize outer cycles", ("minimize.minimize",), "outer_cycles", 16),
        ("minimize CG iterations", ("minimize.minimize",), "cg_iters", 14348),
    ],
}


def traced_run(workload, workloads, state, args, workdir: Path, outcomes: list):
    """Untraced and traced repetitions, alternating for ``--seconds``
    so that ``trace.overhead_s`` compares repetitions made at the same time.
    Returns the untraced times and the trace's results."""
    tracer = Tracer()
    with tracer.installed(workloads):
        traced_state = workload.setup(args.seed, workdir / "traced")

    def traced_rep() -> float:
        tracer.group += 1
        with tracer.installed(workloads):
            return timed_rep(workload, traced_state, outcomes)

    pairs = repeat_for(
        args.seconds, lambda: (timed_rep(workload, state, outcomes), traced_rep())
    )
    untraced = [u for u, _ in pairs]
    traced_run_s = statistics.median(t for _, t in pairs)
    per_layer = merge_groups(tracer, 0, list(range(1, len(pairs) + 1)))
    per_layer["trace.overhead_s"] = traced_run_s - statistics.median(untraced)
    result = {
        "per_layer": per_layer,
        "traced_run_s": traced_run_s,
        "layer_shares": {
            layer: per_layer.get(f"{layer}.self_s", 0.0) / traced_run_s for layer in LAYERS
        },
        "missing": tracer.missing,
    }
    if args.seed == 0:
        result["self_check"] = [
            (label, tracer.count_below(1, spans, key), expected)
            for label, spans, key, expected in BASELINE_COUNTS.get(args.workload, [])
        ]
    return untraced, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    import numpy
    import phasemin

    if Path(phasemin.__file__).resolve().parent != ROOT / "src" / "phasemin":
        print(f"phasemin comes from {phasemin.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](ROOT)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench_", dir=ROOT))
    try:
        setup_times = []
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = workload.setup(args.seed, workdir / f"setup{k}")
            setup_times.append(time.perf_counter() - t0)
        outcomes: list = []
        cold = timed_rep(workload, state, outcomes)
        if args.trace:
            warm, result = traced_run(workload, workloads, state, args, workdir, outcomes)
        else:
            warm = repeat_for(
                args.seconds - cold, lambda: timed_rep(workload, state, outcomes)
            )
            result = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    accuracy: dict[str, list[float]] = {}
    for outcome in outcomes:
        for key, value in outcome.accuracy.items():
            accuracy.setdefault(key, []).append(value)
    result.update(
        setup_samples=setup_times,
        cold_run_s=cold,
        run_samples=warm,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions=f"python {platform.python_version()} numpy {numpy.__version__}",
        attempted=sum(o.attempted for o in outcomes),
        failures=[f for o in outcomes for f in o.failures],
        # largest magnitude over the repetitions; a deterministic program
        # repeats each figure exactly
        accuracy={k: max(v, key=abs) for k, v in accuracy.items()},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
