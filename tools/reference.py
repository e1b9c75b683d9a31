"""The committed reference of the shipped results, and the command that writes it.

    python3 tools/reference.py

runs each shipped config ``configs/<name>.txt`` through ``cli.run`` at
``--seed 0`` and rewrites ``tests/reference/<name>/`` from the run's
artifacts: its text artifacts (``summary.txt``, ``solve_report.csv``,
``audit_report.csv``, the ``profile_*.csv`` files and
``interface_report.txt``, those the run writes) as they are, and
``fields.txt`` in place of the field files and rasters.  ``fields.txt``
holds the SHA-256 of the labels raster ``partition.pgm`` (the labels, one
gray level per label) and, per field file, the count, minimum, maximum, sum
and sum of squares of its values.  ``tests/test_reference.py`` compares a
fresh run with the reference by ``tools/compare_runs.py``'s token rule.
"""

from __future__ import annotations

import hashlib
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from phasemin.cli import run  # noqa: E402
from phasemin.grid import format_float, load_field  # noqa: E402

REFERENCE = ROOT / "tests" / "reference"
TEXT = ("summary.txt", "solve_report.csv", "audit_report.csv", "interface_report.txt")


def shipped_configs() -> list[str]:
    """The names of the shipped configs, sorted."""
    return sorted(p.stem for p in (ROOT / "configs").glob("*.txt"))


def fields_digest(run_dir: Path) -> str:
    """The text of ``fields.txt`` for one run directory."""
    lines = []
    labels = run_dir / "partition.pgm"
    if labels.exists():
        digest = hashlib.sha256(labels.read_bytes()).hexdigest()
        lines.append(f"labels partition.pgm sha256 {digest}")
    for path in sorted(run_dir.glob("*.txt")):
        if path.name in TEXT or path.name.endswith(".meta.txt"):
            continue
        v = load_field(path).values
        stats = {"min": np.min(v), "max": np.max(v), "sum": np.sum(v), "sum_sq": np.sum(v * v)}
        text = " ".join(f"{key} {format_float(x)}" for key, x in stats.items())
        lines.append(f"{path.name} count {v.size} {text}")
    return "\n".join(lines) + "\n"


def view(run_dir: Path) -> dict[str, str]:
    """The reference files of one run directory, by name."""
    names = [n for n in TEXT if (run_dir / n).exists()]
    names += sorted(p.name for p in run_dir.glob("profile_*.csv"))
    files = {n: (run_dir / n).read_text(encoding="utf-8") for n in names}
    files["fields.txt"] = fields_digest(run_dir)
    return files


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name in shipped_configs():
            out = Path(tmp) / name
            if run(ROOT / "configs" / f"{name}.txt", out, seed=0) != 0:
                print(f"{name}: run failed", file=sys.stderr)
                return 1
            dest = REFERENCE / name
            shutil.rmtree(dest, ignore_errors=True)
            dest.mkdir(parents=True)
            for file_name, text in view(out).items():
                (dest / file_name).write_text(text, encoding="utf-8")
            print(f"wrote {dest.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
