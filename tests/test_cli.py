"""Tests for the batch runner: config parsing, artifacts, and exit codes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phasemin import cli
from phasemin.cli import (
    ConfigError,
    RunPlan,
    build_plan,
    export_raster,
    main,
    parse_config,
    run,
    solve_report_csv,
)
from phasemin.competitors import seeded_probes
from phasemin.elliptic import solve_landscape
from phasemin.functional import PerRegion, PowerLaw, make_functional_spec, make_partition
from phasemin.grid import cell_centers, load_field, make_field, make_grid, save_field
from phasemin.minimize import SolveReport, initial_partition, minimize


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def with_line(text, line):
    """Config text with ``line`` replacing any line that sets the same key."""
    key = line.split("=", 1)[0].strip()
    kept = [row for row in text.splitlines() if row.split("=", 1)[0].strip() != key]
    return "\n".join(kept + [line]) + "\n"


LAW = PowerLaw(0.1, 0.0)


def spec_on(grid):
    """BASE's functional: one phase, f = g = 0."""
    return make_functional_spec(grid, [0.0], [0.0], "nonnegative", LAW)


BASE = """
grid.dim = 2
grid.shape = 16 16
grid.spacing = 0.0625
spec.num_phases = 1
volume_term.kind = power_law
volume_term.a = 0.1
pipeline.stages = minimize
"""


class TestParseConfig:
    def test_comments_and_blanks(self, tmp_path):
        p = write_config(
            tmp_path / "c.txt",
            "# header\n\ngrid.dim = 2   # trailing\n  grid.shape = 8 8\n",
        )
        table = parse_config(p)
        assert table == {"grid.dim": "2", "grid.shape": "8 8"}

    def test_missing_equals(self, tmp_path):
        p = write_config(tmp_path / "c.txt", "grid.dim 2\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(p)

    def test_duplicate_key(self, tmp_path):
        p = write_config(tmp_path / "c.txt", "a.b = 1\na.b = 2\n")
        with pytest.raises(ConfigError, match="a.b"):
            parse_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.txt")


class TestBuildPlan:
    def test_base_config(self, tmp_path):
        plan = build_plan(write_config(tmp_path / "c.txt", BASE))
        assert plan.grid.shape == (16, 16)
        assert plan.spec.num_phases == 1
        assert isinstance(plan.spec.volume_term, PowerLaw)
        assert plan.stages == ("minimize",)

    @pytest.mark.parametrize(
        "override,key",
        [
            ("grid.dim = 3", "grid.dim"),
            ("grid.spacing = 0", "grid.spacing"),
            ("volume_term.a = -1", "volume_term.a"),
            ("volume_term.alpha = 0", "volume_term.alpha"),
            ("spec.f.1 = -2", "spec.f.1"),
            ("spec.sign.1 = odd", "spec.sign.1"),
            ("pipeline.max_outer = 0", "pipeline.max_outer"),
            ("probes.radius = -0.1", "probes.radius"),
            ("nonsense.key = 1", "nonsense.key"),
            ("grid.shape = 2 2", "grid.shape"),
            ("grid.spacing = inf", "grid.spacing"),
            ("volume_term.a = inf", "volume_term.a"),
            ("spec.f.1 = nan", "spec.f.1"),
            ("landscape.potential = inf", "landscape.potential"),
            ("grid.shape = 16 inf", "grid.shape"),
            ("pipeline.tol_j = nan", "pipeline.tol_j"),
            ("probes.seed = -1", "probes.seed"),
            ("init.seeds = nan 0.5", "init.seeds"),
            ("diagnose.point = 5 5", "diagnose.point"),
            ("grid.spacing = 1e300", "grid.spacing"),
            ("grid.spacing = 1e-170", "grid.spacing"),
            ("spec.signs = odd", "spec.signs"),
        ],
    )
    def test_errors_name_the_key(self, tmp_path, override, key):
        p = write_config(tmp_path / "c.txt", with_line(BASE, override))
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            build_plan(p)

    @pytest.mark.parametrize(
        "override,library",
        [
            ("spec.f.1 = -2", lambda g: make_functional_spec(g, [-2.0], [0.0], "free", LAW)),
            ("spec.sign.1 = odd", lambda g: make_functional_spec(g, [0.0], [0.0], "odd", LAW)),
            ("spec.signs = odd", lambda g: make_functional_spec(g, [0.0], [0.0], "odd", LAW)),
            ("grid.spacing = 1e300", lambda g: make_grid(2, (16, 16), 1e300)),
            ("pipeline.max_outer = 0", lambda g: minimize(spec_on(g), max_outer=0)),
            ("pipeline.tol_solve = -1", lambda g: minimize(spec_on(g), tol_solve=-1.0)),
            ("landscape.potential = -1", lambda g: solve_landscape(g, -1.0)),
            ("probes.radius = -0.1", lambda g: seeded_probes(g, 20, -0.1, 0)),
            ("probes.radius = inf", lambda g: seeded_probes(g, 20, np.inf, 0)),
            ("probes.seed = -1", lambda g: seeded_probes(g, 20, 0.1, -1)),
        ],
    )
    def test_one_body_per_rule(self, tmp_path, override, library):
        # the CLI refuses a value with the library's own words after the keys
        # the rule covers; BASE stages minimize only, so no rule waits for
        # its stage
        with pytest.raises(ValueError) as lib_err:
            library(make_grid(2, (16, 16), 0.0625))
        p = write_config(tmp_path / "c.txt", with_line(BASE, override))
        with pytest.raises(ConfigError) as cli_err:
            build_plan(p)
        keys, words = str(cli_err.value).split(": ", 1)
        assert override.split(" = ")[0] in keys.split(", ")
        assert words == str(lib_err.value)

    @pytest.mark.parametrize("count", ["0", "1000001", "100000000000"])
    def test_probe_count_bound(self, tmp_path, monkeypatch, count):
        # rejected before any probe center is drawn, so nothing is allocated
        def no_draw(*args):
            raise AssertionError("probe centers drawn")

        monkeypatch.setattr(cli, "seeded_probes", no_draw)
        text = with_line(BASE, "pipeline.stages = minimize audit")
        p = write_config(tmp_path / "c.txt", with_line(text, f"probes.count = {count}"))
        with pytest.raises(ConfigError, match=r"probes\.count: must be in \[1, 1000000\]"):
            build_plan(p)

    def test_probe_count_at_bound(self, tmp_path):
        p = write_config(tmp_path / "c.txt", with_line(BASE, f"probes.count = {cli.MAX_PROBES}"))
        assert build_plan(p).probe_count == cli.MAX_PROBES

    def test_missing_required_key(self, tmp_path):
        text = BASE.replace("volume_term.kind = power_law\n", "")
        text = text.replace("volume_term.a = 0.1\n", "")
        p = write_config(tmp_path / "c.txt", text)
        with pytest.raises(ConfigError, match=r"volume_term\.kind"):
            build_plan(p)

    def test_diagnose_requires_minimize(self, tmp_path):
        text = BASE.replace(
            "pipeline.stages = minimize", "pipeline.stages = diagnose"
        )
        with pytest.raises(ConfigError, match=r"pipeline\.stages"):
            build_plan(write_config(tmp_path / "c.txt", text))

    def test_per_region_weights(self, tmp_path):
        text = BASE.replace(
            "volume_term.kind = power_law\nvolume_term.a = 0.1\n",
            "volume_term.kind = per_region\nvolume_term.q.1 = -0.5\n",
        )
        plan = build_plan(write_config(tmp_path / "c.txt", text))
        assert isinstance(plan.spec.volume_term, PerRegion)
        assert plan.spec.volume_term.weights[0].values[0, 0] == -0.5

    def test_field_file_coefficient(self, tmp_path):
        grid = make_grid(2, (16, 16), 0.0625)
        g = make_field(grid, 1.0 + cell_centers(grid)[..., 0])
        save_field(g, tmp_path / "g.txt")
        text = BASE + "spec.g.1 = file:g.txt\n"
        plan = build_plan(write_config(tmp_path / "c.txt", text))
        assert np.allclose(plan.spec.g[0].values, g.values)

    def test_field_file_wrong_grid(self, tmp_path):
        other = make_grid(2, (8, 8), 0.125)
        save_field(make_field(other, 1.0), tmp_path / "g.txt")
        text = BASE + "spec.g.1 = file:g.txt\n"
        with pytest.raises(ConfigError, match=r"spec\.g\.1"):
            build_plan(write_config(tmp_path / "c.txt", text))

    def test_seed_count_must_match_phases(self, tmp_path):
        text = BASE + "init.seeds = 0.5 0.5 ; 0.2 0.2\n"
        with pytest.raises(ConfigError, match=r"init\.seeds"):
            build_plan(write_config(tmp_path / "c.txt", text))

    def test_initial_pair_without_seeds_is_none(self, tmp_path):
        plan = build_plan(write_config(tmp_path / "c.txt", BASE))
        assert plan.initial_pair() is None

    def test_initial_pair_from_seeds(self, tmp_path):
        text = with_line(BASE, "spec.num_phases = 2")
        text = with_line(text, "init.seeds = 0.2 0.5 ; 0.8 0.5")
        plan = build_plan(write_config(tmp_path / "c.txt", text))
        u, w = plan.initial_pair()
        assert all(np.all(f.values == 0.0) for f in u.fields)
        x = cell_centers(plan.grid)[..., 0]
        assert np.array_equal(w.labels, np.where(x < 0.5, 1, 2))

    @pytest.mark.parametrize(
        "stages,override,key",
        [
            ("minimize audit", "probes.radius = 0.6", "probes.radius"),
            ("minimize diagnose", "diagnose.radii = 0.1 0.2", "diagnose.radii"),
            ("minimize diagnose", "diagnose.radii = 0.5 0.6 inf", "diagnose.radii"),
            ("minimize diagnose", "diagnose.radii = 0.3 0.4 1e300", "diagnose.radii"),
        ],
    )
    def test_stage_values_checked_when_requested(self, tmp_path, stages, override, key):
        text = with_line(BASE, override)
        plan = build_plan(write_config(tmp_path / "a.txt", text))
        assert plan.stages == ("minimize",)
        text = with_line(text, f"pipeline.stages = {stages}")
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            build_plan(write_config(tmp_path / "b.txt", text))


# Each key with a value that builds a plan together with the others.
FUZZ_VALID = {
    "grid.dim": "2",
    "grid.shape": "8 8",
    "grid.spacing": "0.125",
    "spec.num_phases": "2",
    "spec.f.1": "1.5",
    "spec.g.1": "4",
    "spec.g.2": "4",
    "spec.signs": "nonnegative",
    "spec.sign.2": "free",
    "volume_term.kind": "power_law",
    "volume_term.a": "0.05",
    "volume_term.b": "0.5",
    "volume_term.alpha": "1",
    "volume_term.q.1": "0.5",
    "pipeline.stages": "landscape minimize diagnose audit",
    "pipeline.max_outer": "5",
    "pipeline.tol_j": "1e-8",
    "pipeline.tol_solve": "1e-8",
    "init.seeds": "0.25 0.5 ; 0.75 0.5",
    "landscape.potential": "1",
    "diagnose.point": "0.5 0.5",
    "diagnose.radii": "0.3 0.4",
    "probes.count": "3",
    "probes.radius": "0.1",
    "probes.seed": "1",
}
FUZZ_BAD = ("0", "-1", "-0.5", "inf", "-inf", "nan", "abc", "1 x")


@st.composite
def fuzz_configs(draw):
    lines = []
    for key, valid in FUZZ_VALID.items():
        value = draw(st.one_of(st.just(valid), st.none(), st.sampled_from(FUZZ_BAD)))
        if value is not None:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=fuzz_configs())
def test_fuzzed_config_builds_or_raises_config_error(tmp_path, text):
    path = write_config(tmp_path / "fuzz.txt", text)
    try:
        plan = build_plan(path)
    except ConfigError:
        return
    assert isinstance(plan, RunPlan)


def field_file_lines(tmp_path):
    """The lines of a valid field file on BASE's grid."""
    grid = make_grid(2, (16, 16), 0.0625)
    save_field(make_field(grid, 1.0 + cell_centers(grid)[..., 0]), tmp_path / "g.txt")
    return (tmp_path / "g.txt").read_text(encoding="ascii").splitlines()


def config_with_field_file(tmp_path, lines):
    """BASE with ``spec.g.1`` read from a field file holding ``lines``."""
    (tmp_path / "g.txt").write_text("\n".join(lines) + "\n", encoding="ascii")
    return write_config(tmp_path / "c.txt", BASE + "spec.g.1 = file:g.txt\n")


FIELD_KEYS = ("dim", "shape", "spacing", "origin", "dims", "values")
FIELD_JUNK = ("x", "nan", "inf", "-", "1e999", "0x10", "2.5", "-3")


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_fuzzed_field_file_builds_or_names_the_key(tmp_path, data):
    lines = field_file_lines(tmp_path)
    for _ in range(data.draw(st.integers(1, 3))):
        if not lines:
            break
        edit = data.draw(st.sampled_from(("drop", "empty", "rename", "bare", "junk")))
        last = min(3, len(lines) - 1) if edit in ("empty", "rename") else len(lines) - 1
        i = data.draw(st.integers(0, last))
        words = lines[i].split()
        if edit == "drop":
            del lines[i]
        elif edit == "empty":
            lines[i] = ""
        elif edit == "rename":
            lines[i] = " ".join([data.draw(st.sampled_from(FIELD_KEYS))] + words[1:])
        elif edit == "bare":
            lines[i] = " ".join(words[:1])
        else:
            k = data.draw(st.integers(0, len(words)))
            n = data.draw(st.integers(0, 1))  # insert or replace a word
            words[k : k + n] = [data.draw(st.sampled_from(FIELD_JUNK))]
            lines[i] = " ".join(words)
    try:
        plan = build_plan(config_with_field_file(tmp_path, lines))
    except ConfigError as err:
        assert str(err).startswith("spec.g.1: ")
        return
    assert isinstance(plan, RunPlan)


class TestExportRaster:
    def test_constant_field_uniform(self, tmp_path):
        grid = make_grid(2, (4, 4), 0.25)
        export_raster(make_field(grid, 7.0), tmp_path / "f.pgm")
        lines = (tmp_path / "f.pgm").read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "4 4"
        assert lines[2] == "255"
        assert all(line == "0 0 0 0" for line in lines[3:])
        meta = (tmp_path / "f.pgm.meta.txt").read_text()
        assert "min 7.0" in meta and "max 7.0" in meta

    def test_linear_map_endpoints(self, tmp_path):
        grid = make_grid(1, (3,), 1.0)
        export_raster(make_field(grid, np.array([1.0, 2.0, 3.0])), tmp_path / "f.pgm")
        lines = (tmp_path / "f.pgm").read_text().splitlines()
        assert lines[1] == "3 1"
        assert lines[3] == "0 128 255"

    def test_half_plane_partition(self, tmp_path):
        grid = make_grid(2, (128, 128), 1.0 / 128)
        labels = np.where(cell_centers(grid)[..., 0] < 0.5, 1, 2)
        export_raster(make_partition(grid, 2, labels), tmp_path / "p.pgm")
        rows = (tmp_path / "p.pgm").read_text().splitlines()[3:]
        grays = {v for row in rows for v in row.split()}
        assert grays == {"127", "255"}
        assert rows[0] == " ".join(["127"] * 128)
        assert rows[-1] == " ".join(["255"] * 128)

    def test_field_text_round_trip(self, tmp_path):
        grid = make_grid(2, (9, 5), 0.37)
        rng = np.random.default_rng(7)
        f = make_field(grid, rng.normal(size=grid.shape))
        save_field(f, tmp_path / "f.txt")
        g = load_field(tmp_path / "f.txt", grid)
        assert np.array_equal(f.values, g.values)


class TestSolveReportCsv:
    def test_shape(self):
        rep = SolveReport(
            iterations=2,
            j_history=(1.0, 0.5, 0.25),
            converged=True,
            final_volumes=(0.5, 0.25),
            zero_set_fraction=0.25,
            outer_j=(1.0, 0.5, 0.25),
            outer_volumes=((1.0, 0.0), (0.75, 0.25), (0.5, 0.25)),
        )
        lines = solve_report_csv(rep).strip().splitlines()
        assert lines[0] == "iteration,J,vol_1,vol_2"
        assert lines[1] == "0,1.0,1.0,0.0"
        assert lines[3] == "2,0.25,0.5,0.25"


class TestRun:
    def test_trivial_single_phase(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt", BASE)
        out = tmp_path / "out"
        assert run(cfg, out) == 0
        summary = (out / "summary.txt").read_text()
        assert "minimize J 0.0" in summary
        assert "minimize volumes 0.0" in summary
        assert (out / "partition.pgm").exists()
        assert (out / "u1.txt").exists()
        assert (out / "solve_report.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt", BASE + "volume_term.alpha = -1\n")
        assert run(cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "volume_term.alpha" in err

    @pytest.mark.parametrize(
        "lines,key",
        [
            (["grid.shape = 2 2"], "grid.shape"),
            (["grid.spacing = inf"], "grid.spacing"),
            (["volume_term.a = inf"], "volume_term.a"),
            (["spec.f.1 = nan"], "spec.f.1"),
            (
                ["pipeline.stages = landscape", "landscape.potential = inf"],
                "landscape.potential",
            ),
            (
                ["pipeline.stages = minimize audit", "probes.radius = 0.6"],
                "probes.radius",
            ),
            (
                [
                    "grid.shape = 32 32",
                    "grid.spacing = 0.03125",
                    "pipeline.stages = minimize diagnose audit",
                ],
                "diagnose.radii",
            ),
            (
                [
                    "grid.shape = 32 32",
                    "grid.spacing = 0.03125",
                    "spec.g.1 = 8.0",
                    "pipeline.stages = minimize diagnose",
                    "diagnose.radii = 0.1 0.2",
                    "diagnose.point = nan 0.5",
                ],
                "diagnose.point",
            ),
            (["diagnose.point = 5 5"], "diagnose.point"),
            (["grid.spacing = 1e300"], "grid.spacing"),
            (["spec.signs = odd"], "spec.signs"),
        ],
    )
    def test_bad_values_exit_2_naming_the_key(self, tmp_path, capsys, lines, key):
        text = BASE
        for line in lines:
            text = with_line(text, line)
        out = tmp_path / "out"
        assert run(write_config(tmp_path / "c.txt", text), out) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "cut",
        [lambda lines: lines[:2], lambda lines: ["dim"] + lines[1:]],
        ids=["header_ends_after_shape", "dim_without_value"],
    )
    def test_truncated_field_file_exit_2(self, tmp_path, capsys, cut):
        cfg = config_with_field_file(tmp_path, cut(field_file_lines(tmp_path)))
        assert run(cfg, tmp_path / "out") == 2
        assert "phasemin: config error: spec.g.1: " in capsys.readouterr().err

    @pytest.mark.parametrize("key,extra", [("dim", "7"), ("spacing", "x")])
    def test_extra_field_header_token_exit_2(self, tmp_path, capsys, key, extra):
        lines = field_file_lines(tmp_path)
        lines = [f"{ln} {extra}" if ln.split()[0] == key else ln for ln in lines]
        cfg = config_with_field_file(tmp_path, lines)
        assert run(cfg, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "phasemin: config error: spec.g.1: " in err
        assert f"one value after '{key}'" in err

    def test_seed_partition_built_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return initial_partition(*args)

        monkeypatch.setattr(cli, "initial_partition", counted)
        text = with_line(BASE, "spec.num_phases = 2")
        text = with_line(text, "init.seeds = 0.2 0.5 ; 0.8 0.5")
        assert run(write_config(tmp_path / "c.txt", text), tmp_path / "out") == 0
        assert len(calls) == 1

    def test_negative_seed_flag_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt", BASE)
        args = ["run", str(cfg), "--out", str(tmp_path / "out"), "--seed", "-1"]
        assert main(args) == 2
        assert "--seed" in capsys.readouterr().err

    def test_main_cli_surface(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt", BASE)
        code = main(["run", str(cfg), "--out", str(tmp_path / "out"), "--workers", "1"])
        assert code == 0

    def test_landscape_stage(self, tmp_path):
        text = BASE.replace("pipeline.stages = minimize", "pipeline.stages = landscape")
        cfg = write_config(tmp_path / "c.txt", text)
        out = tmp_path / "out"
        assert run(cfg, out) == 0
        assert (out / "w0.txt").exists()
        assert (out / "w0.pgm.meta.txt").exists()
        summary = (out / "summary.txt").read_text()
        assert "landscape max_w0" in summary

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_landscape_huge_finite_potential(self, tmp_path):
        # finite, nonnegative and valid: the solve must not overflow on the
        # coarse levels, and w0 is about 1/V
        text = BASE.replace("pipeline.stages = minimize", "pipeline.stages = landscape")
        text = with_line(text, "landscape.potential = 1e308")
        out = tmp_path / "out"
        assert run(write_config(tmp_path / "c.txt", text), out) == 0
        assert "landscape max_w0 1e-308" in (out / "summary.txt").read_text()

    def test_full_pipeline_small(self, tmp_path):
        text = """
grid.dim = 2
grid.shape = 48 48
grid.spacing = 0.0208333333333333333
spec.num_phases = 2
spec.g.1 = 6.0
spec.g.2 = 6.0
volume_term.kind = power_law
volume_term.a = 0.05
init.seeds = 0.25 0.5 ; 0.75 0.5
pipeline.stages = minimize diagnose audit
diagnose.radii = 0.1 0.15 0.2
probes.count = 3
probes.radius = 0.1
"""
        cfg = write_config(tmp_path / "c.txt", text)
        out = tmp_path / "out"
        assert run(cfg, out) == 0
        for name in (
            "u1.txt",
            "u2.pgm",
            "partition.pgm",
            "solve_report.csv",
            "profile_energy.csv",
            "profile_acf_1.csv",
            "profile_acf_product.csv",
            "profile_weiss_2.csv",
            "audit_report.csv",
            "interface_report.txt",
            "summary.txt",
        ):
            assert (out / name).exists(), name
        body = (out / "audit_report.csv").read_text().splitlines()
        assert body[0] == "kind,a,main,r,x0_0,x0_1,delta_j"

    def test_rerun_byte_identical(self, tmp_path):
        text = """
grid.dim = 1
grid.shape = 64
grid.spacing = 0.015625
spec.num_phases = 2
spec.g.1 = 4.0
spec.g.2 = 4.0
volume_term.kind = power_law
volume_term.a = 0.05
init.seeds = 0.25 ; 0.75
pipeline.stages = minimize diagnose audit
diagnose.point = 0.5
diagnose.radii = 0.1 0.2
probes.count = 4
probes.radius = 0.1
"""
        cfg = write_config(tmp_path / "c.txt", text)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(cfg, out1) == 0
        assert run(cfg, out2) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_workers_match_serial(self, tmp_path):
        text = """
grid.dim = 2
grid.shape = 32 32
grid.spacing = 0.03125
spec.num_phases = 2
spec.g.1 = 6.0
spec.g.2 = 6.0
volume_term.kind = power_law
volume_term.a = 0.05
init.seeds = 0.25 0.5 ; 0.75 0.5
pipeline.stages = minimize audit
probes.count = 4
probes.radius = 0.1
"""
        cfg = write_config(tmp_path / "c.txt", text)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(cfg, out1, workers=1) == 0
        assert run(cfg, out2, workers=3) == 0
        a = (out1 / "audit_report.csv").read_bytes()
        b = (out2 / "audit_report.csv").read_bytes()
        assert a == b
