"""Tests for tools/compare_runs.py on real ``phasemin run`` artifact directories."""

from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

import pytest

from phasemin.cli import run

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_runs.py"
_spec = importlib.util.spec_from_file_location("compare_runs", TOOL)
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)

CONFIG = """
grid.dim = 2
grid.shape = 24 24
grid.spacing = 0.041666666666666664
spec.num_phases = 2
spec.g.1 = 4.0
spec.g.2 = 4.0
volume_term.kind = power_law
volume_term.a = 0.05
init.seeds = 0.25 0.5 ; 0.75 0.5
pipeline.stages = minimize diagnose audit
diagnose.radii = 0.15 0.2
probes.count = 2
probes.radius = 0.1
"""


@pytest.fixture(scope="module")
def reruns(tmp_path_factory):
    """Two output directories of the same config."""
    root = tmp_path_factory.mktemp("runs")
    cfg = root / "c.txt"
    cfg.write_text(CONFIG, encoding="utf-8")
    for name in ("a", "b"):
        assert run(cfg, root / name) == 0
    return root / "a", root / "b"


def compare(capsys, *args) -> tuple[int, str]:
    """Exit status and printed report of ``compare_runs.main(args)``."""
    code = compare_runs.main([str(a) for a in args])
    return code, capsys.readouterr().out


def copy_of(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def test_reruns_compare_equal(reruns, capsys):
    a, b = reruns
    code, out = compare(capsys, a, b)
    assert code == 0
    assert "summary.txt: max_abs 0 max_rel 0 matches" in out
    assert "partition.pgm: matches" in out
    assert out.rstrip().endswith("same")


def test_one_perturbed_float_token(reruns, tmp_path, capsys):
    a, _ = reruns
    b = copy_of(a, tmp_path / "b")
    text = (b / "audit_report.csv").read_text()
    row = text.splitlines()[1]
    value = row.rsplit(",", 1)[1]
    bumped = repr(float(value) * (1.0 + 1e-12))
    (b / "audit_report.csv").write_text(text.replace(row, row[: -len(value)] + bumped))
    code, out = compare(capsys, a, b)
    assert code == 1
    assert "audit_report.csv: max_abs" in out and "above 0" in out
    assert out.rstrip().endswith("different")
    # within a tolerance set above the change, the copy matches
    assert compare(capsys, a, b, "--rtol", "1e-11")[0] == 0


def test_one_perturbed_integer_token(reruns, tmp_path, capsys):
    a, _ = reruns
    b = copy_of(a, tmp_path / "b")
    text = (b / "summary.txt").read_text()
    line = next(row for row in text.splitlines() if row.startswith("minimize iterations"))
    count = int(line.split()[-1])
    (b / "summary.txt").write_text(text.replace(line, f"minimize iterations {count + 1}"))
    # integers match exactly whatever the tolerance
    code, out = compare(capsys, a, b, "--rtol", "1")
    assert code == 1
    assert f"'{count}' against '{count + 1}'" in out


def test_flipped_raster_byte_and_missing_file(reruns, tmp_path, capsys):
    a, _ = reruns
    b = copy_of(a, tmp_path / "b")
    raw = bytearray((b / "partition.pgm").read_bytes())
    raw[-2] = ord("1") if raw[-2] != ord("1") else ord("2")
    (b / "partition.pgm").write_bytes(bytes(raw))
    (b / "profile_energy.csv").unlink()
    code, out = compare(capsys, a, b, "--rtol", "1")
    assert code == 1
    assert "partition.pgm: bytes differ" in out
    assert "profile_energy.csv: only in" in out


@pytest.mark.parametrize(
    "a, b, rtol, same",
    [
        ("x 1 0.5,nan", "x 1 0.5,nan", 0.0, True),
        ("x 1 0.5", "y 1 0.5", 1.0, False),
        ("1 0.5", "1.0 0.5", 1.0, False),
        ("0.5 inf", "0.5 inf", 0.0, True),
        ("0.5 inf", "0.5 1e308", 1.0, False),
        ("0.5 0.25", "0.5 0.25 0.125", 1.0, False),
        ("-0.0", "0.0", 0.0, True),
        ("1.0 2.0", "1.0 2.000000001", 1e-9, True),
    ],
)
def test_token_rules(a, b, rtol, same):
    assert (compare_runs.compare_text(a, b, rtol)[2] is None) is same


@pytest.fixture(scope="module")
def descent():
    """This tree's fine_descent result at seed 0, run in a subprocess."""
    return compare_runs.run_descents([TOOL.parent.parent], [0])[0]


def test_descent_compares_equal_to_itself(descent, capsys):
    assert compare_runs.compare_descents(descent, descent, [0], 0.0)
    out = capsys.readouterr().out
    assert "seed 0: labels equal, field max_abs 0 max_rel 0, j_history max_rel 0" in out
    cycles = int(descent["cycles_0"])
    assert cycles > 0 and f"cycles {cycles} {cycles} matches" in out


def test_flipped_label_compares_unequal(descent, capsys):
    flipped = dict(descent, labels_0=descent["labels_0"].copy())
    flipped["labels_0"][0, 0] = 3 - flipped["labels_0"][0, 0]
    assert not compare_runs.compare_descents(descent, flipped, [0], 1.0)
    assert "labels differ" in capsys.readouterr().out


def test_descent_tolerance_and_cycles(descent, capsys):
    nudged = dict(descent, j_history_0=descent["j_history_0"] * (1.0 + 1e-14))
    assert not compare_runs.compare_descents(descent, nudged, [0], 0.0)
    assert compare_runs.compare_descents(descent, nudged, [0], 1e-13)
    longer = dict(descent, cycles_0=descent["cycles_0"] + 1)
    assert not compare_runs.compare_descents(descent, longer, [0], 1.0)
    capsys.readouterr()


def test_descent_main(descent, monkeypatch, capsys):
    tree = TOOL.parent.parent
    flipped = dict(descent, labels_0=1 - descent["labels_0"])
    monkeypatch.setattr(compare_runs, "DESCENT_SEEDS", [0])
    for results, want, verdict in (([descent, descent], 0, "same"), ([descent, flipped], 1, "different")):
        monkeypatch.setattr(compare_runs, "run_descents", lambda trees, seeds, r=results: r)
        code, out = compare(capsys, "--descent", tree, tree)
        assert code == want
        assert out.rstrip().endswith(verdict)


def test_descent_needs_source_trees(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        compare_runs.main(["--descent", str(tmp_path), str(tmp_path)])
    assert exc.value.code == 2
    assert "perfbench/workloads.py" in capsys.readouterr().err
