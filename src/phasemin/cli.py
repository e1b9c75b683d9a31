"""Batch front door: config in, solver/diagnostic artifacts out.

A run configuration is flat ``key = value`` text with ``#`` comments and
dotted section keys.  Recognized keys:

    grid.dim             1 or 2
    grid.shape           one int per axis (space- or comma-separated)
    grid.spacing         cell width h > 0
    spec.num_phases      number of phases N >= 1
    spec.f.<i>           reaction coefficient: constant or file:<path>  (0)
    spec.g.<i>           source: constant or file:<path>               (0)
    spec.signs           'nonnegative' | 'free', all phases   (nonnegative)
    spec.sign.<i>        per-phase override
    volume_term.kind     'power_law' | 'per_region'
    volume_term.a        power_law linear weight, >= 0
    volume_term.b        power_law superlinear weight, >= 0            (0)
    volume_term.alpha    power_law exponent, > 0                       (1)
    volume_term.q.<i>    per_region weight: constant or file:<path>
    pipeline.stages      subset of: landscape minimize diagnose audit
    pipeline.max_outer   outer iteration cap                           (100)
    pipeline.tol_j       relative objective tolerance                  (1e-8)
    pipeline.tol_solve   field-solve residual tolerance                (1e-8)
    init.seeds           region seed points 'x y ; x y ; ...'  (index stripes)
    landscape.potential  potential V: constant or file:<path>          (0)
    diagnose.point       point in the grid's box (nearest free-boundary cell to center)
    diagnose.radii       profile radii, each in (2h, box diameter]   (0.05 0.1 0.2)
    probes.count         audit probe count, at most 1000000            (20)
    probes.radius        audit ball radius                             (0.1)
    probes.seed          audit probe RNG seed                          (0)

File paths are relative to the config file.  Every artifact is plain text
(field dumps, CSVs, a summary report) or a P2 graymap; nothing carries a
timestamp, so a rerun with the same config reproduces every byte.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .competitors import (
    audit,
    audit_report_csv,
    check_radius,
    check_seed,
    seeded_probes,
)
from .diagnostics import (
    InterfaceReport,
    Phase,
    _check_radii,
    acf_product,
    acf_profile,
    density_report,
    el_interface_check,
    free_boundary_cells,
    interface_measure,
    phase_count_at,
    profile_csv,
    radial_energy,
    report_text,
    weiss_profile,
)
from .elliptic import SolverError, check_options, solve_landscape
from .functional import (
    NONNEGATIVE,
    FunctionalSpec,
    Partition,
    PerRegion,
    PhaseField,
    PowerLaw,
    check_reaction,
    check_sign,
    check_source,
    make_functional_spec,
    make_phase_field,
    volume_marginal,
)
from .grid import (
    Grid,
    ScalarField,
    as_point,
    axis_centers,
    bounding_box,
    cell_centers,
    format_float,
    load_field,
    make_field,
    make_grid,
    save_field,
    text_rows,
)
from .minimize import SolveReport, initial_partition, minimize
from .oracle import oracle_two_phase_1d

__all__ = [
    "ConfigError",
    "RunPlan",
    "parse_config",
    "build_plan",
    "export_raster",
    "solve_report_csv",
    "run",
    "main",
]

STAGES = ("landscape", "minimize", "diagnose", "audit")
# far above any audit that finishes, yet its probe centers fit in memory
MAX_PROBES = 1_000_000
GRAY_LEVELS = [str(k) for k in range(256)]  # the text of each graymap level


class ConfigError(ValueError):
    """A configuration problem; the message names the offending key."""


def parse_config(path) -> dict[str, str]:
    """Read flat ``key = value`` text; '#' starts a comment.

    Raises:
        ConfigError: on unreadable files, lines without '=', or duplicates.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"config file: {err}") from err
    table: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"config line {lineno}: empty key")
        if key in table:
            raise ConfigError(f"{key}: duplicate key")
        table[key] = value
    return table


def _parse(key: str, raw: str, kind, what: str):
    """``kind(raw)``; its ValueError becomes a ConfigError naming ``key``."""
    try:
        return kind(raw)
    except ValueError as err:
        raise ConfigError(f"{key}: expected {what}, got {raw!r}") from err


def _floats(key: str, text: str) -> tuple[float, ...]:
    """The space- or comma-separated numbers in ``text``."""
    try:
        return tuple(float(t) for t in text.replace(",", " ").split())
    except ValueError as err:
        raise ConfigError(f"{key}: expected numbers, got {text!r}") from err


class _Reader:
    """Typed accessors over the flat table; every error names its key.

    A default is config text, parsed like a value from the file; a key
    without one is required."""

    def __init__(self, table: dict[str, str], base_dir: Path):
        self.table = table
        self.base_dir = base_dir
        self.consumed: set[str] = set()

    def get_str(self, key: str, default: str | None = None) -> str:
        self.consumed.add(key)
        if key in self.table:
            return self.table[key]
        if default is None:
            raise ConfigError(f"{key}: required key is missing")
        return default

    def get_int(self, key: str, default: str | None = None) -> int:
        return _parse(key, self.get_str(key, default), int, "an integer")

    def get_float(self, key: str, default: str | None = None) -> float:
        return _parse(key, self.get_str(key, default), float, "a number")

    def get_floats(self, key: str, default: str | None = None) -> tuple[float, ...]:
        vals = _floats(key, self.get_str(key, default))
        if not vals:
            raise ConfigError(f"{key}: expected at least one number")
        return vals

    def get_ints(self, key: str) -> tuple[int, ...]:
        vals = self.get_floats(key)
        if not all(float(v).is_integer() for v in vals):
            raise ConfigError(f"{key}: expected integers")
        return tuple(int(v) for v in vals)

    def get_coeff(
        self, key: str, grid: Grid, default: str | None = None
    ) -> ScalarField:
        """A field from a constant or from ``file:<path>``."""
        raw = self.get_str(key, default)
        if raw.startswith("file:"):
            path = self.base_dir / raw[len("file:") :].strip()
            try:
                return load_field(path, grid)
            except (OSError, ValueError) as err:
                raise ConfigError(f"{key}: {err}") from err
        value = _parse(key, raw, float, "a number or 'file:<path>'")
        return _construct(key, make_field, grid, value)

    def get_points(self, key: str, dim: int) -> list[tuple[float, ...]] | None:
        """Points 'x y ; x y' of ``dim`` coordinates each; None when absent."""
        if key not in self.table:
            return None
        points = []
        for part in self.get_str(key).split(";"):
            coords = _floats(key, part)
            if len(coords) != dim:
                raise ConfigError(
                    f"{key}: point {part.strip()!r} needs {dim} coordinates"
                )
            points.append(coords)
        return points

    def reject_unknown(self) -> None:
        unknown = sorted(set(self.table) - self.consumed)
        if unknown:
            raise ConfigError(f"{unknown[0]}: unknown key")


def _construct(key: str, build, *args, **kwargs):
    """Call a library constructor or value rule; its ValueError becomes a ConfigError."""
    try:
        return build(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(f"{key}: {err}") from err


@dataclass(frozen=True)
class RunPlan:
    """Everything a run needs, assembled and validated from one config."""

    grid: Grid
    spec: FunctionalSpec
    stages: tuple[str, ...]
    max_outer: int
    tol_j: float
    tol_solve: float
    seed_partition: Partition | None
    potential: ScalarField
    diag_point: tuple[float, ...] | None
    diag_radii: tuple[float, ...]
    probe_count: int
    probe_radius: float
    probe_seed: int
    config_name: str

    def initial_pair(self) -> tuple[PhaseField, Partition] | None:
        """Zero fields on the seeds' Voronoi partition; None without seeds."""
        if self.seed_partition is None:
            return None
        return make_phase_field(self.grid, [0.0] * self.spec.num_phases), self.seed_partition


def build_plan(config_path) -> RunPlan:
    """Parse and validate a config file into a RunPlan.

    Raises:
        ConfigError: naming the offending key on any validation failure.
    """
    path = Path(config_path)
    reader = _Reader(parse_config(path), path.parent)

    dim = reader.get_int("grid.dim")
    shape = reader.get_ints("grid.shape")
    spacing = reader.get_float("grid.spacing")
    grid = _construct(
        "grid.dim, grid.shape, grid.spacing", make_grid, dim, shape, spacing
    )

    num_phases = reader.get_int("spec.num_phases")
    if num_phases < 1:
        raise ConfigError(f"spec.num_phases: must be >= 1, got {num_phases}")

    f_list, g_list, signs = [], [], []
    default_sign = reader.get_str("spec.signs", NONNEGATIVE)
    _construct("spec.signs", check_sign, default_sign)
    for i in range(1, num_phases + 1):
        f_list.append(reader.get_coeff(f"spec.f.{i}", grid, "0"))
        _construct(f"spec.f.{i}", check_reaction, f_list[-1].values, f"f_{i}")
        g_list.append(reader.get_coeff(f"spec.g.{i}", grid, "0"))
        _construct(f"spec.g.{i}", check_source, g_list[-1].values, grid, f"g_{i}")
        signs.append(reader.get_str(f"spec.sign.{i}", default_sign))
        _construct(f"spec.sign.{i}", check_sign, signs[-1])

    kind = reader.get_str("volume_term.kind")
    if kind == "power_law":
        a = reader.get_float("volume_term.a")
        b = reader.get_float("volume_term.b", "0")
        alpha = reader.get_float("volume_term.alpha", "1")
        volume_term = _construct(
            "volume_term.a, volume_term.b, volume_term.alpha", PowerLaw, a, b, alpha
        )
    elif kind == "per_region":
        weights = tuple(
            reader.get_coeff(f"volume_term.q.{i}", grid)
            for i in range(1, num_phases + 1)
        )
        volume_term = PerRegion(weights)
    else:
        raise ConfigError(
            f"volume_term.kind: must be 'power_law' or 'per_region', got {kind!r}"
        )

    spec = make_functional_spec(grid, f_list, g_list, signs, volume_term)

    stage_text = reader.get_str("pipeline.stages").split()
    if not stage_text:
        raise ConfigError("pipeline.stages: at least one stage required")
    for s in stage_text:
        if s not in STAGES:
            raise ConfigError(f"pipeline.stages: unknown stage {s!r}")
    stages = tuple(s for s in STAGES if s in stage_text)
    if ("diagnose" in stages or "audit" in stages) and "minimize" not in stages:
        raise ConfigError("pipeline.stages: diagnose/audit require minimize")

    max_outer = reader.get_int("pipeline.max_outer", "100")
    tol_j = reader.get_float("pipeline.tol_j", "1e-8")
    tol_solve = reader.get_float("pipeline.tol_solve", "1e-8")
    keys = "pipeline.max_outer, pipeline.tol_j, pipeline.tol_solve"
    _construct(keys, check_options, max_outer, tol_j=tol_j, tol_solve=tol_solve)

    seeds = reader.get_points("init.seeds", dim)
    if seeds is not None:
        seeds = _construct("init.seeds", initial_partition, grid, num_phases, seeds)

    potential = reader.get_coeff("landscape.potential", grid, "0")
    _construct("landscape.potential", check_reaction, potential.values, "potential")

    diag_point = reader.get_points("diagnose.point", dim)
    if diag_point is not None:
        if len(diag_point) != 1:
            raise ConfigError("diagnose.point: exactly one point expected")
        diag_point = diag_point[0]
        _construct("diagnose.point", as_point, grid, diag_point)
    diag_radii = reader.get_floats("diagnose.radii", "0.05 0.1 0.2")
    if "diagnose" in stages:
        _construct("diagnose.radii", _check_radii, grid, diag_radii)

    probe_count = reader.get_int("probes.count", "20")
    if not 1 <= probe_count <= MAX_PROBES:
        raise ConfigError(f"probes.count: must be in [1, {MAX_PROBES}], got {probe_count}")
    probe_radius = reader.get_float("probes.radius", "0.1")
    _construct("probes.radius", check_radius, probe_radius)
    probe_seed = reader.get_int("probes.seed", "0")
    _construct("probes.seed", check_seed, probe_seed)
    if "audit" in stages:
        _construct(
            "probes.radius", seeded_probes, grid, probe_count, probe_radius, probe_seed
        )

    reader.reject_unknown()
    return RunPlan(
        grid=grid,
        spec=spec,
        stages=stages,
        max_outer=max_outer,
        tol_j=tol_j,
        tol_solve=tol_solve,
        seed_partition=seeds,
        potential=potential,
        diag_point=diag_point,
        diag_radii=diag_radii,
        probe_count=probe_count,
        probe_radius=probe_radius,
        probe_seed=probe_seed,
        config_name=path.name,
    )


def export_raster(obj: ScalarField | Partition, path) -> None:
    """Write a P2 graymap; ScalarFields get a min/max sidecar.

    A ScalarField maps [min, max] linearly onto 0..255 (constant fields
    render as gray 0) with the range recorded in ``<path>.meta.txt``; a
    Partition maps label L of N phases to floor(255 * L / N).  A 1D array
    becomes one raster row.
    """
    if isinstance(obj, Partition):
        pixels = (255 * obj.labels) // obj.num_phases
    else:
        vals = obj.values
        vmin = float(vals.min())
        vmax = float(vals.max())
        if vmax > vmin:
            pixels = np.rint(255.0 * (vals - vmin) / (vmax - vmin)).astype(int)
        else:
            pixels = np.zeros(vals.shape, dtype=int)
        meta = f"min {format_float(vmin)}\nmax {format_float(vmax)}\n"
        Path(str(path) + ".meta.txt").write_text(meta, encoding="ascii")
    pixels = np.atleast_2d(pixels)
    height, width = pixels.shape
    text = f"P2\n{width} {height}\n255\n" + text_rows(pixels, GRAY_LEVELS.__getitem__)
    Path(path).write_text(text, encoding="ascii")


def solve_report_csv(report: SolveReport) -> str:
    """CSV of the outer-iteration trace: iteration, J, per-phase volumes."""
    n = len(report.outer_volumes[0]) if report.outer_volumes else 0
    header = "iteration,J" + "".join(f",vol_{i}" for i in range(1, n + 1))
    lines = [header]
    for it, (j, vols) in enumerate(zip(report.outer_j, report.outer_volumes)):
        row = f"{it},{format_float(j)}"
        row += "".join("," + format_float(v) for v in vols)
        lines.append(row)
    return "\n".join(lines) + "\n"


def _interface_1d(w: Partition) -> float | None:
    """First face coordinate where adjacent cells carry different regions."""
    labels = w.labels
    xs = axis_centers(w.grid, 0)
    change = np.nonzero(labels[:-1] != labels[1:])[0]
    both = [k for k in change if labels[k] != 0 and labels[k + 1] != 0]
    pick = both[0] if both else (change[0] if len(change) else None)
    if pick is None:
        return None
    return float(0.5 * (xs[pick] + xs[pick + 1]))


def _default_probe(u: PhaseField, grid: Grid) -> np.ndarray | None:
    """Free-boundary cell (any phase, positive part) nearest the box center."""
    lo, hi = bounding_box(grid)
    center = 0.5 * (lo + hi)
    centers = cell_centers(grid).reshape(-1, grid.dim)
    best = None
    best_d = np.inf
    for i in range(1, len(u.fields) + 1):
        fb = free_boundary_cells(u, Phase(i)).reshape(-1)
        if not fb.any():
            continue
        pts = centers[fb]
        d = np.linalg.norm(pts - center, axis=1)
        k = int(np.argmin(d))
        if d[k] < best_d:
            best_d = float(d[k])
            best = pts[k]
    return best


class _Run:
    """One pipeline execution; ``stage_<name>`` methods append artifacts and summary."""

    def __init__(self, plan: RunPlan, out_dir: Path, seed: int | None):
        self.plan = plan
        self.out = out_dir
        self.seed = plan.probe_seed if seed is None else seed
        self.lines: list[str] = []
        self.u: PhaseField | None = None
        self.w: Partition | None = None

    def say(self, line: str) -> None:
        self.lines.append(line)

    def write(self, name: str, text: str) -> None:
        (self.out / name).write_text(text, encoding="ascii")

    def stage_landscape(self) -> None:
        plan = self.plan
        w0 = solve_landscape(plan.grid, plan.potential, tol=plan.tol_solve)
        save_field(w0, self.out / "w0.txt")
        export_raster(w0, self.out / "w0.pgm")
        self.say(f"landscape max_w0 {format_float(float(w0.values.max()))}")

    def stage_minimize(self) -> None:
        plan = self.plan
        self.u, self.w, report = minimize(
            plan.spec,
            init=plan.initial_pair(),
            max_outer=plan.max_outer,
            tol_j=plan.tol_j,
            tol_solve=plan.tol_solve,
        )
        for i, field in enumerate(self.u.fields, start=1):
            save_field(field, self.out / f"u{i}.txt")
            export_raster(field, self.out / f"u{i}.pgm")
        export_raster(self.w, self.out / "partition.pgm")
        self.write("solve_report.csv", solve_report_csv(report))
        j_final = report.outer_j[-1]
        self.say(f"minimize J {format_float(j_final)}")
        self.say(f"minimize iterations {report.iterations}")
        self.say(f"minimize converged {report.converged}")
        self.say(
            "minimize volumes "
            + " ".join(format_float(v) for v in report.final_volumes)
        )
        self.say(
            f"minimize zero_set_fraction {format_float(report.zero_set_fraction)}"
        )
        self._oracle_summary(j_final)

    def _oracle_summary(self, j_final: float) -> None:
        """1D two-phase runs report the scan oracle's split and the gap."""
        plan = self.plan
        vt = plan.spec.volume_term
        if not (
            plan.grid.dim == 1
            and plan.spec.num_phases == 2
            and isinstance(vt, PowerLaw)
            and vt.b == 0.0
        ):
            return
        xs = axis_centers(plan.grid, 0)
        g1 = plan.spec.g[0].values
        g2 = plan.spec.g[1].values
        result = oracle_two_phase_1d(
            lambda t: np.interp(t, xs, g1),
            lambda t: np.interp(t, xs, g2),
            vt.a,
            vt.a,
        )
        loc = _interface_1d(self.w)
        if loc is not None:
            self.say(f"interface location {format_float(loc)}")
        self.say(f"oracle s_split {format_float(result.s_split)}")
        self.say(f"oracle j_split {format_float(result.j_split)}")
        self.say(f"oracle gap {format_float(abs(j_final - result.j_split))}")

    def stage_diagnose(self) -> None:
        plan, u, w, spec = self.plan, self.u, self.w, self.plan.spec
        pt = plan.diag_point
        if pt is None:
            found = _default_probe(u, plan.grid)
            if found is None:
                self.say("diagnose skipped: no free boundary found")
                return
            pt = tuple(float(v) for v in found)
        self.say("diagnose probe " + " ".join(format_float(v) for v in pt))
        radii = plan.diag_radii
        r_max = radii[-1]

        self.write("profile_energy.csv", profile_csv(radial_energy(u, pt, radii)))
        for i in range(1, spec.num_phases + 1):
            prof = acf_profile(u, Phase(i), pt, radii)
            self.write(f"profile_acf_{i}.csv", profile_csv(prof))
            lam = volume_marginal(w, spec.volume_term, at=pt)[i - 1]
            prof = weiss_profile(u, i, lam, pt, radii)
            self.write(f"profile_weiss_{i}.csv", profile_csv(prof))
        if spec.num_phases >= 2:
            prof, violation = acf_product(u, Phase(1), Phase(2), pt, radii)
            self.write("profile_acf_product.csv", profile_csv(prof))
            self.say(f"diagnose acf_violation {format_float(violation)}")

        checks = {
            "interface_measure": lambda: interface_measure(u, 1, pt, radii, spec=spec),
            "el_interface_check": lambda: el_interface_check(u, w, spec, pt, r_max),
            "density_report": lambda: density_report(u, w, 1, pt, r_max),
            "phase_count_at": lambda: InterfaceReport(
                phase_count=phase_count_at(u, pt, r_max)
            ),
        }
        fields: dict = {}
        for name, check in checks.items():
            try:
                rep = check()
            except ValueError as err:
                self.say(f"diagnose skipped {name}: {err}")
                continue
            fields.update((k, v) for k, v in vars(rep).items() if v is not None)
        self.write("interface_report.txt", report_text(InterfaceReport(**fields)))

    def stage_audit(self) -> None:
        plan = self.plan
        probes = seeded_probes(
            plan.grid, plan.probe_count, plan.probe_radius, self.seed
        )
        report = audit(self.u, self.w, plan.spec, probes)
        self.write("audit_report.csv", audit_report_csv(report))
        self.say(f"audit entries {len(report.entries)}")
        self.say(f"audit skipped {len(report.skipped)}")
        self.say(f"audit min_delta_j {format_float(report.min_delta_j)}")

    def execute(self) -> int:
        plan = self.plan
        shape = "x".join(str(s) for s in plan.grid.shape)
        self.say(f"config {plan.config_name}")
        self.say(
            f"grid dim {plan.grid.dim} shape {shape} "
            f"spacing {format_float(plan.grid.spacing)}"
        )
        self.say(f"phases {plan.spec.num_phases}")
        self.say("stages " + " ".join(plan.stages))
        for stage in plan.stages:
            try:
                getattr(self, f"stage_{stage}")()
            except SolverError as err:
                note = f"stage {stage} aborted: {err}"
                self.say(note)
                self.write("partial_artifacts.txt", note + "\n")
                self.write("summary.txt", "\n".join(self.lines) + "\n")
                print(f"phasemin: {note}; artifacts are partial", file=sys.stderr)
                return 1
        self.write("summary.txt", "\n".join(self.lines) + "\n")
        return 0


def run(config_path, out_dir, workers: int = 1, seed: int | None = None) -> int:
    """Execute the configured pipeline; returns the process exit status.

    Artifacts land in ``out_dir`` (created if needed).  Status 0 means all
    stages ran; 2 flags a config problem (reported with the offending key);
    1 flags a solver failure after a partial-artifact note is written.
    ``workers`` must be at least 1 and has no other effect: the audit runs
    its probes in order in this process.
    """
    try:
        plan = build_plan(config_path)
        if workers < 1:
            raise ConfigError("--workers must be >= 1")
        if seed is not None:
            _construct("--seed", check_seed, seed)
    except ConfigError as err:
        print(f"phasemin: config error: {err}", file=sys.stderr)
        return 2
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _Run(plan, out, seed).execute()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="phasemin",
        description="Minimize multi-phase free-boundary energies on grids "
        "and export solver, profile, and audit artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a run configuration")
    runp.add_argument("config", help="path to the run configuration file")
    runp.add_argument("--out", required=True, help="artifact output directory")
    runp.add_argument("--workers", type=int, default=1, help="no effect; must be >= 1")
    runp.add_argument("--seed", type=int, default=None, help="probe RNG seed")
    args = parser.parse_args(argv)
    return run(args.config, args.out, workers=args.workers, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
