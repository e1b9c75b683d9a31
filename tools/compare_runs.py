"""Compare two ``phasemin run --out`` directories, artifact by artifact.

    python3 tools/compare_runs.py A B [--rtol R]

Both directories must hold the same set of files.  A ``*.pgm`` raster must
match byte for byte.  Every other artifact is text, compared token by
token, with tokens split at whitespace and commas: words and integer
tokens must match exactly, and float tokens must agree within ``R``
relative to the larger magnitude (default 0, exact; nan matches nan).
For each file it prints the largest absolute and relative difference of
its float tokens and whether it matches.  Exit status 0 if every file
matches, 1 otherwise, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

INTEGER = re.compile(r"[+-]?\d+")
SEPARATORS = re.compile(r"[\s,]+")


def _is_float(token: str) -> bool:
    if INTEGER.fullmatch(token):
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


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
    x, y = np.array(xs), np.array(ys)
    differ = ~((x == y) | (np.isnan(x) & np.isnan(y)))
    if not np.any(differ):
        return 0.0, 0.0, None
    x, y = x[differ], y[differ]
    with np.errstate(invalid="ignore"):
        gap = np.abs(x - y)
        rel = gap / np.maximum(np.abs(x), np.abs(y))
    # a nan against a number, or an inf against anything else, is infinitely far
    gap[np.isnan(gap)] = np.inf
    rel[np.isnan(rel)] = np.inf
    max_abs, max_rel = float(gap.max()), float(rel.max())
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="first --out directory")
    parser.add_argument("b", type=Path, help="second --out directory")
    parser.add_argument(
        "--rtol", type=float, default=0.0, help="relative tolerance of float tokens (0)"
    )
    args = parser.parse_args(argv)
    for d in (args.a, args.b):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    if not args.rtol >= 0.0:
        parser.error(f"--rtol must be >= 0, got {args.rtol}")
    same = compare_dirs(args.a, args.b, args.rtol)
    print("same" if same else "different")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
