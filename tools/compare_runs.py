"""Compare two ``phasemin run --out`` directories, artifact by artifact, or
the ``fine_descent`` minimize results of two source trees.

    python3 tools/compare_runs.py A B [--rtol R]
    python3 tools/compare_runs.py --descent TREE_A TREE_B [--rtol R]

Both directories must hold the same set of files.  A ``*.pgm`` raster must
match byte for byte.  Every other artifact is text, compared token by
token, with tokens split at whitespace and commas: words and integer
tokens must match exactly, and float tokens must agree within ``R``
relative to the larger magnitude (default 0, exact; nan matches nan).
For each file it prints the largest absolute and relative difference of
its float tokens and whether it matches.

With ``--descent``, A and B are source trees (each with ``src/phasemin``
and ``perfbench/workloads.py``).  Each tree runs ``fine_descent``'s setup
and ``minimize`` at seeds 0, 1, 2 and 3 in a subprocess that
imports only that tree's code.  Per seed it prints whether the labels are
equal, the largest field difference (absolute, and relative to the larger
largest field), the largest relative ``j_history`` difference and the two
cycle counts; a seed matches when labels and cycle counts are equal and
both relative differences are at most ``R``.

Exit status 0 if everything matches, 1 otherwise, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

INTEGER = re.compile(r"[+-]?\d+")
SEPARATORS = re.compile(r"[\s,]+")
DESCENT_SEEDS = [0, 1, 2, 3]


def _is_float(token: str) -> bool:
    if INTEGER.fullmatch(token):
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def largest_gaps(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Largest absolute and relative difference of two equal-shape float
    arrays, relative to the larger magnitude; nan matches nan."""
    differ = ~((x == y) | (np.isnan(x) & np.isnan(y)))
    if not np.any(differ):
        return 0.0, 0.0
    x, y = x[differ], y[differ]
    with np.errstate(invalid="ignore"):
        gap = np.abs(x - y)
        rel = gap / np.maximum(np.abs(x), np.abs(y))
    # a nan against a number, or an inf against anything else, is infinitely far
    gap[np.isnan(gap)] = np.inf
    rel[np.isnan(rel)] = np.inf
    return float(gap.max()), float(rel.max())


def compare_text(a: str, b: str, rtol: float) -> tuple[float, float, str | None]:
    """``(max_abs, max_rel, problem)`` of two artifacts' text; ``problem``
    is None when they match."""
    ta = [t for t in SEPARATORS.split(a) if t]
    tb = [t for t in SEPARATORS.split(b) if t]
    if len(ta) != len(tb):
        return 0.0, 0.0, f"{len(ta)} tokens against {len(tb)}"
    xs, ys = [], []
    for k, (x, y) in enumerate(zip(ta, tb)):
        if _is_float(x) and _is_float(y):
            xs.append(float(x))
            ys.append(float(y))
        elif x != y:
            return 0.0, 0.0, f"token {k}: {x!r} against {y!r}"
    max_abs, max_rel = largest_gaps(np.array(xs), np.array(ys))
    if max_rel > rtol:
        return max_abs, max_rel, f"relative difference {max_rel:.3g} above {rtol:g}"
    return max_abs, max_rel, None


def compare_dirs(a: Path, b: Path, rtol: float) -> bool:
    """Print one line per artifact; True if every artifact matches."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    same = True
    for name, only in ((a, files_a - files_b), (b, files_b - files_a)):
        for rel in sorted(only):
            print(f"{rel}: only in {name}")
            same = False
    for rel in sorted(files_a & files_b):
        bytes_a, bytes_b = (a / rel).read_bytes(), (b / rel).read_bytes()
        if rel.suffix == ".pgm":
            problem = None if bytes_a == bytes_b else "bytes differ"
            print(f"{rel}: {'matches' if problem is None else problem}")
        else:
            max_abs, max_rel, problem = compare_text(
                bytes_a.decode("utf-8"), bytes_b.decode("utf-8"), rtol
            )
            verdict = "matches" if problem is None else problem
            print(f"{rel}: max_abs {max_abs:.3g} max_rel {max_rel:.3g} {verdict}")
        same = same and problem is None
    return same


DESCENT = """
import sys
from pathlib import Path

import numpy as np

tree, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
from phasemin.minimize import minimize
from workloads import FineDescent

bench, arrays = FineDescent(tree), {}
for seed in sys.argv[3:]:
    state = bench.setup(int(seed), out)
    u, w, report = minimize(state.spec, init=state.init)
    arrays["labels_" + seed] = w.labels
    arrays["fields_" + seed] = np.stack([f.values for f in u.fields])
    arrays["j_history_" + seed] = np.array(report.j_history)
    arrays["cycles_" + seed] = np.array(report.iterations)
np.savez(out / "descent.npz", **arrays)
"""


def run_descents(trees: list[Path], seeds: list[int]) -> list[dict[str, np.ndarray]]:
    """Each tree's ``fine_descent`` minimize results at ``seeds``, keyed
    ``labels_<seed>``, ``fields_<seed>``, ``j_history_<seed>`` and
    ``cycles_<seed>``; the trees run side by side, one subprocess each."""
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / str(k) for k in range(len(trees))]
        procs = []
        for tree, out in zip(trees, outs):
            out.mkdir()
            argv = [sys.executable, "-c", DESCENT, str(tree.resolve()), str(out)]
            procs.append(subprocess.Popen(argv + [str(s) for s in seeds]))
        codes = [proc.wait() for proc in procs]
        if any(codes):
            raise RuntimeError(f"a descent subprocess failed (exit statuses {codes})")
        results = []
        for out in outs:
            with np.load(out / "descent.npz") as data:
                results.append(dict(data))
        return results


def compare_descents(a: dict, b: dict, seeds: list[int], rtol: float) -> bool:
    """Print one line per seed; True if every seed matches (module docstring)."""
    same = True
    for seed in seeds:
        la, lb = a[f"labels_{seed}"], b[f"labels_{seed}"]
        fa, fb = a[f"fields_{seed}"], b[f"fields_{seed}"]
        ca, cb = int(a[f"cycles_{seed}"]), int(b[f"cycles_{seed}"])
        ja, jb = a[f"j_history_{seed}"], b[f"j_history_{seed}"]
        labels_equal = bool(np.array_equal(la, lb))
        field_abs = field_rel = j_rel = float("inf")
        if fa.shape == fb.shape:
            field_abs = largest_gaps(fa, fb)[0]
            top = max(float(np.max(np.abs(fa))), float(np.max(np.abs(fb))))
            field_rel = field_abs / top if field_abs > 0.0 else 0.0
        if ja.shape == jb.shape:
            j_rel = largest_gaps(ja, jb)[1]
        ok = labels_equal and ca == cb and field_rel <= rtol and j_rel <= rtol
        print(
            f"seed {seed}: labels {'equal' if labels_equal else 'differ'},"
            f" field max_abs {field_abs:.3g} max_rel {field_rel:.3g},"
            f" j_history max_rel {j_rel:.3g}, cycles {ca} {cb}"
            f" {'matches' if ok else 'differs'}"
        )
        same = same and ok
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="first --out directory (or source tree)")
    parser.add_argument("b", type=Path, help="second --out directory (or source tree)")
    parser.add_argument(
        "--rtol", type=float, default=0.0, help="relative tolerance of float values (0)"
    )
    parser.add_argument(
        "--descent", action="store_true", help="compare the fine_descent results of two trees"
    )
    args = parser.parse_args(argv)
    for d in (args.a, args.b):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
        if args.descent and not (d / "perfbench" / "workloads.py").is_file():
            parser.error(f"{d} has no perfbench/workloads.py")
    if not args.rtol >= 0.0:
        parser.error(f"--rtol must be >= 0, got {args.rtol}")
    if args.descent:
        results = run_descents([args.a, args.b], DESCENT_SEEDS)
        same = compare_descents(*results, DESCENT_SEEDS, args.rtol)
    else:
        same = compare_dirs(args.a, args.b, args.rtol)
    print("same" if same else "different")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
