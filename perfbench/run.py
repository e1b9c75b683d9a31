"""phasemin benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli_configs --seed 0 --seconds 15 --trace 0

Workloads: cli_configs, fine_descent, structure_scan (see README.md).  The
workload runs in fresh worker processes, one after another, with
OMP/OpenBLAS/MKL pinned to one thread and phasemin imported from the
checkout's ``src``.  With ``--trace 0`` up to ``WORKERS`` of them run, each
measuring one cold repetition and then warm ones for its share of
``--seconds``, until the measured time reaches ``--seconds``; with
``--trace 1`` a single worker makes the traced run.  The output is
a report, one metric per line with its unit, followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1``
its per-layer ones, from a traced run.  Exits 2 without a result on a
negative seed, when the checkout has no ``src/phasemin`` or ``configs``, or
when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli_configs", "fine_descent", "structure_scan")
IMPORT_PROBES = 9
WORKERS = 5
TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def import_seconds(env: dict[str, str]) -> float:
    """Median time of ``import phasemin`` in fresh interpreters."""
    code = (
        "import time; t = time.perf_counter(); import phasemin; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def run_worker(args, seconds: float, env: dict[str, str], timeout: float) -> dict | None:
    """One worker process measuring ``seconds``; its JSON result, or None."""
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", repr(seconds),
            "--trace", str(args.trace),
        ],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(timeout, 1.0),
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: worker exited with status {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="phasemin benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        return fail("--seed must be >= 0 (it seeds numpy's generator)")

    if not (ROOT / "src" / "phasemin" / "__init__.py").is_file():
        return fail(f"no src/phasemin under {ROOT}; run from a phasemin checkout")
    if not (ROOT / "configs").is_dir():
        return fail(f"no configs directory under {ROOT}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    env = worker_env()
    started = time.perf_counter()
    runs: list[dict] = []
    measured = 0.0
    try:
        import_s = import_seconds(env)
        # a slow workload gets one worker (one cold and one warm repetition);
        # a fast one gets up to WORKERS cold samples and the same warm time
        last_wall = 0.0
        while not runs or (
            not args.trace
            and len(runs) < WORKERS
            and measured < args.seconds
            and time.perf_counter() - started + 2 * last_wall < TIMEOUT_S
        ):
            share = args.seconds if args.trace else args.seconds / WORKERS
            t0 = time.perf_counter()
            res = run_worker(args, share, env, TIMEOUT_S - (t0 - started))
            if res is None:
                return fail("worker exited without a result")
            last_wall = time.perf_counter() - t0
            runs.append(res)
            measured += res["cold_run_s"] + sum(res["run_samples"])
    except (subprocess.SubprocessError, ValueError) as err:
        return fail(f"worker did not complete: {err}")
    res = runs[0]
    colds = [r["cold_run_s"] for r in runs]
    warm = [t for r in runs for t in r["run_samples"]]
    setups = [t for r in runs for t in r["setup_samples"]]
    q1, _, q3 = statistics.quantiles(warm, n=4) if len(warm) > 1 else (warm[0],) * 3
    end_to_end = {
        "setup_s": import_s + statistics.median(setups),
        "cold_run_s": statistics.median(colds),
        "run_s": statistics.median(warm),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    failed = len(failures)
    accuracy: dict[str, float] = {}
    for r in runs:
        for key, value in r["accuracy"].items():
            accuracy[key] = max(accuracy.get(key, value), value, key=abs)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}; nproc {os.cpu_count()} {res['versions']}")
    print(f"setup_s {end_to_end['setup_s']:.4f} s (import {import_s:.4f} s, median of "
          f"{IMPORT_PROBES} fresh interpreters; inputs {statistics.median(setups):.4f} s, "
          f"median of {len(setups)})")
    print(f"cold_run_s {end_to_end['cold_run_s']:.4f} s (first repetition in a fresh "
          f"process, median of {len(colds)} processes: "
          f"{', '.join(f'{c:.4f}' for c in colds)})")
    print(f"run_s {end_to_end['run_s']:.4f} s (median of {len(warm)} warm repetitions, "
          f"q1 {q1:.4f} s, q3 {q3:.4f} s)")
    print(f"peak_rss_mb {end_to_end['peak_rss_mb']:.1f} MB (largest over the processes)")
    for key, value in sorted(accuracy.items()):
        print(f"{key} {value!r} 1")
    print(f"fail_ratio {failed / attempted!r} 1 "
          f"({failed} failed of {attempted} operations)")
    for failure in failures:
        print(f"failed: {failure}")

    if args.trace:
        values = res["per_layer"]
        shares = ", ".join(f"{k} {v:.3f}" for k, v in res["layer_shares"].items())
        print(f"traced run_s {res['traced_run_s']:.4f} s; self-time shares: {shares}")
        for label, got, want in res.get("self_check", []):
            verdict = "match" if got == want else "MISMATCH"
            print(f"self-check {label}: {got:g} (baseline {want}) {verdict}")
        for name in res["missing"]:
            print(f"missing from the package, reported as 0: {name}")
        wanted = spec["per_layer"]
    else:
        values = end_to_end
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        if args.trace:
            print(f"{m['name']} {metrics[m['name']]['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
