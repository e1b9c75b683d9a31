"""The four shipped configs at ``--seed 0`` against their committed reference.

``tests/reference/<config>/`` holds what ``tools/reference.py`` writes for
each shipped config (``python3 tools/reference.py`` regenerates it): the
run's text artifacts and ``fields.txt``, a digest of its labels plus a few
statistics of each field file.  A fresh run through ``cli.run`` must match
it by ``tools/compare_runs.py``'s token rule: words, integers and the labels
digest exactly, floats within ``RTOL`` relative to the larger magnitude.

``RTOL`` sits between rounding and results.  The audit's dense LAPACK
solves are the one part of a run whose rounding depends on the machine
(BLAS threads, build): under two BLAS threads 36 of the 2D config's 120
audit rows move, by at most 7.2e-14 relative.  A changed solve tolerance
or smoother damping moves the fields' statistics and the audit by far
more than ``RTOL``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from phasemin.cli import run

TOOLS = Path(__file__).resolve().parent.parent / "tools"
RTOL = 1e-10


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_runs = _load("compare_runs")
reference = _load("reference")


def test_every_shipped_config_has_a_reference():
    assert sorted(p.name for p in reference.REFERENCE.iterdir()) == reference.shipped_configs()


@pytest.mark.parametrize("config", reference.shipped_configs())
def test_shipped_config_matches_reference(tmp_path, config):
    out = tmp_path / config
    assert run(reference.ROOT / "configs" / f"{config}.txt", out, seed=0) == 0
    got = reference.view(out)
    want = {p.name: p.read_text(encoding="utf-8") for p in (reference.REFERENCE / config).iterdir()}
    assert sorted(got) == sorted(want)
    for name in sorted(want):
        problem = compare_runs.compare_text(want[name], got[name], RTOL)[2]
        assert problem is None, f"{config}/{name}: {problem}"
