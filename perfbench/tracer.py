"""Spans around the public entry points of each phasemin layer.

The wrappers live here, in the benchmark, not in the package.  Modules bind
imported names at import time (``minimize`` does ``from .elliptic import
solve_phase``; ``cli`` imports ``minimize``, ``audit``, ``total``,
``load_field`` and ``save_field`` by name), so each wrapped function is
replaced in every loaded phasemin module that holds it, and restored when
the ``Tracer.installed`` block ends.  Modules are looked up through
``sys.modules`` because the package attribute ``phasemin.minimize`` is the
function, not the module.

CG iteration counts have no public source: they are read from the return
value of ``elliptic._pcg``, the only private name touched here, and added
to the innermost open span.  A name the package no longer has is listed in
``Tracer.missing`` and its metrics read 0.

Spans are kept in memory.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LAYERS = (
    "grid",
    "functional",
    "elliptic",
    "minimize",
    "competitors",
    "diagnostics",
    "oracle",
    "cli",
)

DIAGNOSTICS = (
    "density_report",
    "acf_profile",
    "acf_product",
    "weiss_profile",
    "interface_measure",
    "el_interface_check",
    "flatness",
    "phase_count_map",
    "lipschitz_estimate",
    "blowup_rescale",
    "radial_energy",
    "phase_count_at",
    "free_boundary_cells",
)

ENTRY_POINTS = {
    "grid": ("load_field", "save_field"),
    "functional": ("total", "restrict_support"),
    "elliptic": ("solve_phase", "solve_landscape"),
    "minimize": ("minimize", "update_fields", "update_partition"),
    "competitors": ("audit", "cutoff_competitor", "harmonic_competitor"),
    "diagnostics": DIAGNOSTICS,
    "oracle": ("oracle_two_phase_1d", "make_cone"),
    "cli": ("build_plan", "export_raster", "run"),
}


@dataclass
class Span:
    """One call of a wrapped function; ``group`` is the repetition id."""

    name: str
    parent: int | None
    group: int
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))


def _tree_size(path) -> int:
    root = Path(path)
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class Tracer:
    """Records spans while installed; ``group`` tags the spans that follow."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.group = 0
        self.missing: list[str] = []
        self._bound: list[tuple[object, str, object]] = []
        self._last_sweep_labels = None

    # -- installation -------------------------------------------------------

    @contextmanager
    def installed(self, *callers):
        """Wrap the entry points in every phasemin module and in ``callers``
        (benchmark modules that imported them by name) for a ``with`` block."""
        self._install(callers)
        try:
            yield self
        finally:
            for module, attr, original in reversed(self._bound):
                setattr(module, attr, original)
            self._bound.clear()

    def _install(self, callers) -> None:
        modules = [
            m
            for name, m in sys.modules.items()
            if m is not None and (name == "phasemin" or name.startswith("phasemin."))
        ]
        modules.extend(callers)
        self.missing = []
        hooks = {
            "grid.load_field": self._on_load,
            "grid.save_field": self._on_save,
            "minimize.minimize": self._on_minimize,
            "minimize.update_partition": self._on_sweep,
            "competitors.audit": self._on_audit,
            "cli.run": self._on_cli_run,
        }
        for layer, names in ENTRY_POINTS.items():
            module = sys.modules[f"phasemin.{layer}"]
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                key = f"{layer}.{name}"
                self._rebind(modules, fn, self._span_wrapper(key, fn, hooks.get(key)))
        pcg = getattr(sys.modules["phasemin.elliptic"], "_pcg", None)
        if pcg is None:
            self.missing.append("elliptic._pcg")
        else:
            self._rebind(modules, pcg, self._cg_counter(pcg))

    def _rebind(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._bound.append((module, attr, original))

    def _span_wrapper(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span = Span(name, parent, tracer.group, time.perf_counter())
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return wrapper

    def _cg_counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counter(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.stack:
                counts = tracer.spans[tracer.stack[-1]].counts
                counts["cg_iters"] += result[2]
                counts["cg_calls"] += 1
            return result

        return counter

    # -- per-call counts (taken after the span closes) ----------------------

    def _on_load(self, span, args, kwargs, result):
        span.counts["bytes"] += os.path.getsize(args[0])

    def _on_save(self, span, args, kwargs, result):
        span.counts["bytes"] += os.path.getsize(args[1])

    def _on_sweep(self, span, args, kwargs, result):
        w_in = args[2] if len(args) > 2 else kwargs["w"]
        span.counts["relabelled"] += int(np.count_nonzero(result.labels != w_in.labels))
        self._last_sweep_labels = result.labels

    def _on_minimize(self, span, args, kwargs, result):
        _, w, report = result
        span.counts["outer_cycles"] += report.iterations
        # minimize can only discard its last sweep, after which it returns
        # the partition that sweep started from
        last = self._last_sweep_labels
        rejected = last is not None and not np.array_equal(last, w.labels)
        span.counts["sweeps_rejected"] += int(rejected)
        self._last_sweep_labels = None

    def _on_audit(self, span, args, kwargs, result):
        span.counts["entries"] += len(result.entries)
        span.counts["skipped"] += len(result.skipped)

    def _on_cli_run(self, span, args, kwargs, result):
        config = args[0] if args else kwargs["config_path"]
        out_dir = args[1] if len(args) > 1 else kwargs["out_dir"]
        span.name = f"cli.run.{Path(config).stem}"
        span.counts["artifact_bytes"] += _tree_size(out_dir)

    # -- aggregation ---------------------------------------------------------

    def _indices(self, group: int) -> list[int]:
        return [k for k, s in enumerate(self.spans) if s.group == group]

    def _self_times(self, group: int) -> dict[int, float]:
        idx = self._indices(group)
        out = {k: self.spans[k].end - self.spans[k].start for k in idx}
        for k in idx:
            parent = self.spans[k].parent
            if parent is not None:
                out[parent] -= self.spans[k].end - self.spans[k].start
        return out

    def function_totals(self, group: int) -> dict[str, float]:
        """``<layer>.<function>.s`` (self time) and ``.calls`` for one group."""
        out: dict[str, float] = defaultdict(float)
        for k, self_s in self._self_times(group).items():
            name = self.spans[k].name
            out[f"{name}.s"] += self_s
            out[f"{name}.calls"] += 1
        return dict(out)

    def group_metrics(self, group: int) -> dict[str, float]:
        """Every per-layer value of one repetition; names a repetition did not
        reach are absent and read 0."""
        out = defaultdict(float, self.function_totals(group))
        sums: dict[str, float] = defaultdict(float)
        for k, self_s in self._self_times(group).items():
            span = self.spans[k]
            layer = span.name.split(".", 1)[0]
            out[f"{layer}.self_s"] += self_s
            for key, value in span.counts.items():
                sums[f"{span.name}:{key}"] += value
                sums[f"{layer}:{key}"] += value

        cg_calls = sums["elliptic:cg_calls"]
        out["elliptic.cg_iters"] = sums["elliptic:cg_iters"]
        out["elliptic.cg_iters_per_solve"] = (
            sums["elliptic:cg_iters"] / cg_calls if cg_calls else 0.0
        )
        out["competitors.harmonic.cg_iters"] = sums[
            "competitors.harmonic_competitor:cg_iters"
        ]
        out["competitors.audit.entries"] = sums["competitors.audit:entries"]
        out["competitors.audit.skipped"] = sums["competitors.audit:skipped"]
        tried = out["competitors.audit.entries"] + out["competitors.audit.skipped"]
        out["competitors.audit.useful_ratio"] = (
            out["competitors.audit.entries"] / tried if tried else 0.0
        )
        out["minimize.outer_cycles"] = sums["minimize.minimize:outer_cycles"]
        out["minimize.relabelled_cells"] = sums["minimize.update_partition:relabelled"]
        sweeps = out["minimize.update_partition.calls"]
        rejected = sums["minimize.minimize:sweeps_rejected"]
        out["minimize.sweep_accept_ratio"] = (sweeps - rejected) / sweeps if sweeps else 0.0
        out["grid.load_field.bytes"] = sums["grid.load_field:bytes"]
        out["grid.save_field.bytes"] = sums["grid.save_field:bytes"]
        out["cli.artifact_bytes"] = sums["cli:artifact_bytes"]
        return dict(out)

    def count_below(self, group: int, ancestors: tuple[str, ...], key: str) -> float:
        """Sum ``counts[key]`` over the spans of one group whose chain of
        enclosing spans (the span itself included) has every name in
        ``ancestors``."""
        total = 0.0
        for k in self._indices(group):
            span = self.spans[k]
            if key not in span.counts:
                continue
            chain = set()
            node: Span | None = span
            while node is not None:
                chain.add(node.name)
                node = self.spans[node.parent] if node.parent is not None else None
            if chain.issuperset(ancestors):
                total += span.counts[key]
        return total


def merge_groups(
    tracer: Tracer, setup_group: int, rep_groups: list[int]
) -> dict[str, float]:
    """Per-repetition medians over ``rep_groups`` plus the set-up group's
    function totals (set-up calls such as ``make_cone`` happen once)."""
    reps = [tracer.group_metrics(g) for g in rep_groups]
    setup = tracer.function_totals(setup_group)
    names = set(setup).union(*reps)
    return {
        name: setup.get(name, 0.0) + statistics.median(r.get(name, 0.0) for r in reps)
        for name in names
    }
