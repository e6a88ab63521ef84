"""Span recorders wrapped around the public functions of each divproj layer.

``install(recorder)`` replaces every layer function in every ``divproj``
module namespace that binds it (and the layer methods on their classes) by
a wrapper that records a span ``(name, start, end, parent span, op id)`` in
memory, or bumps a counter for the names that only count (``linprog``,
``minimize``, ``fd_jacobian``, ``score_matrix``).  ``uninstall`` puts every
original object back.  Spans are aggregated per op: a layer's self time is
its spans' durations minus the time their direct child spans cover, and a
layer's call count counts entries from another layer (a layer function
calling its sibling, such as ``eval_member`` -> ``member_with_normalizer``,
is one call).

``time.perf_counter`` is CLOCK_MONOTONIC on Linux, so spans recorded in a
child process (the cli launcher) share the parent's timeline.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# metric stem -> (owner, attribute names).  An owner "module:Class" patches
# the class attribute; a plain module owner is searched for in every divproj
# namespace that binds the same function object.
SPANS = {
    "measures.distribution": ("divproj.measures:Distribution", ("__post_init__",)),
    "divergences.scalar": (
        "divproj.divergences",
        ("divergence", "kl", "renyi_d", "density_power", "rel_alpha_entropy"),
    ),
    "divergences.rows": ("divproj.divergences", ("divergence_rows", "divergence_fixed_p")),
    "families.eval_member": ("divproj.families", ("eval_member", "member_with_normalizer")),
    "families.normalizer_root": ("divproj.families", ("normalizer_root",)),
    "families.eval_members_batch": ("divproj.families", ("eval_members_batch",)),
    "families.fit_family_form": ("divproj.families", ("fit_family_form",)),
    "families.linear.construct": ("divproj.families:LinearFamilySpec", ("__post_init__",)),
    "families.linear.support_mask": ("divproj.families:LinearFamilySpec", ("support_mask",)),
    "families.linear.sample_member": ("divproj.families:LinearFamilySpec", ("sample_member",)),
    "estimators.estimating_residual": ("divproj.estimators", ("estimating_residual",)),
    "estimators.likelihood": ("divproj.estimators", ("likelihood",)),
    "estimators.maximize_likelihood": ("divproj.estimators", ("maximize_likelihood",)),
    "solvers.solve_residual": ("divproj.solvers", ("solve_residual",)),
    "projection.projection_residual": ("divproj.projection", ("projection_residual",)),
    "projection.forward_dpd_projection": ("divproj.projection", ("forward_dpd_projection",)),
    "projection.reverse_dpd_projection": ("divproj.projection", ("reverse_dpd_projection",)),
    "projection.pythagorean_gap": ("divproj.projection", ("pythagorean_gap",)),
    "projection.fit_projection_form": ("divproj.projection", ("fit_projection_form",)),
    "oracle.grid_reverse_min": ("divproj.oracle", ("grid_reverse_min",)),
    "oracle.grid_forward_min": ("divproj.oracle", ("grid_forward_min",)),
    "oracle.simplex_points": ("divproj.oracle:SimplexGrid", ("points",)),
    "fileio.load": (
        "divproj.fileio",
        ("load_distribution", "load_sample", "load_family", "load_linear_family"),
    ),
}

# counter name -> (module, attribute): the name as the module binds it
COUNTERS = {
    "estimators.score_matrix.calls": ("divproj.estimators", "score_matrix"),
    "solvers.fd_jacobian.calls": ("divproj.solvers", "fd_jacobian"),
    "families.linear.lp_calls": ("divproj.families", "linprog"),
    "projection.slsqp_fallbacks": ("divproj.projection", "minimize"),
}

# totals the wrappers (and the cli workload) add beside the call counters
TOTALS = ("solvers.iterations", "oracle.grid_reverse_min.points", "cli.import_scipy_ms")

# spans the benchmark opens itself: the op, and the cli launcher's phases
OP, CLI_IMPORT, CLI_HANDLER = "op", "cli.import", "cli.handler"
NAMES = (OP, CLI_IMPORT, CLI_HANDLER, *SPANS)
NAME_ID = {name: i for i, name in enumerate(NAMES)}


class Recorder:
    """Spans and counters of one process, kept in flat arrays."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.stack = []
        self.op = -1
        self.counts = {}  # (op, counter) -> total

    def enter(self, name: str) -> None:
        self.stack.append(len(self.name))
        self.name.append(NAME_ID[name])
        self.parent.append(self.stack[-2] if len(self.stack) > 1 else -1)
        self.op_of.append(self.op)
        self.end.append(0.0)
        self.start.append(time.perf_counter())

    def exit(self) -> None:
        self.end[self.stack.pop()] = time.perf_counter()

    def record(self, name: str, start: float, end: float) -> None:
        """A finished span measured before the recorder existed."""
        self.enter(name)
        self.stack.pop()
        self.start[-1], self.end[-1] = start, end

    def count(self, name: str, amount=1, op: int | None = None) -> None:
        key = (self.op if op is None else op, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    def extend(self, other: dict, op: int, parent: int) -> None:
        """Adopt the spans of a child process as children of span ``parent``."""
        base = len(self.name)
        for name, start, end, par in zip(other["name"], other["start"], other["end"], other["parent"]):
            self.name.append(name)
            self.start.append(start)
            self.end.append(end)
            self.parent.append(base + par if par >= 0 else parent)
            self.op_of.append(op)
        for counter, amount in other["counts"].items():
            self.count(counter, amount, op)

    def to_json(self) -> dict:
        counts = {}
        for (_, counter), amount in self.counts.items():
            counts[counter] = counts.get(counter, 0) + amount
        return {
            "name": list(self.name), "start": list(self.start), "end": list(self.end),
            "parent": list(self.parent), "counts": counts,
        }

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(NAMES), name=np.asarray(self.name), start=np.asarray(self.start),
            end=np.asarray(self.end), parent=np.asarray(self.parent), op=np.asarray(self.op_of),
        )


# --- wrappers -------------------------------------------------------------------


def _span(fn, name, rec, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        if after is not None:
            after(rec, args, kwargs, result)
        return result

    wrapper.__bench_original__ = fn
    return wrapper


def _counter(fn, name, rec):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)

    wrapper.__bench_original__ = fn
    return wrapper


def _count_iterations(rec, args, kwargs, report):
    rec.count("solvers.iterations", report.iterations)


def _count_points(rec, args, kwargs, result):
    grid = kwargs.get("theta_grid", args[4] if len(args) > 4 else None)
    rec.count("oracle.grid_reverse_min.points", int(np.prod(grid.steps)))


AFTER = {"solve_residual": _count_iterations, "grid_reverse_min": _count_points}


def _divproj_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "divproj" or name.startswith("divproj."))]


def _owner(spec: str):
    """The module or class named by ``spec``; None if the process never imported it."""
    module, _, cls = spec.partition(":")
    mod = sys.modules.get(module)
    return getattr(mod, cls) if cls and mod is not None else mod


def install(rec: Recorder):
    """Wrap every layer function; returns the patch list for ``uninstall``."""
    patches = []
    modules = _divproj_modules()

    def rebind(original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    for name, (owner_spec, attrs) in SPANS.items():
        owner = _owner(owner_spec)
        if owner is None:
            continue
        for attr in attrs:
            original = vars(owner)[attr]
            wrapper = _span(original, name, rec, AFTER.get(attr))
            if isinstance(owner, type):
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                rebind(original, wrapper)
    for name, (module, attr) in COUNTERS.items():
        original = getattr(_owner(module), attr, None)
        if original is not None:
            rebind(original, _counter(original, name, rec))
    return patches


def uninstall(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# --- aggregation ----------------------------------------------------------------


def _self_times(start, end, parent):
    dur = end - start
    covered = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def layer_metrics(rec: Recorder, ops: int) -> dict:
    """Per-op layer metrics: ``<layer>.ms`` self time, ``<layer>.calls`` entries."""
    name = np.asarray(rec.name, dtype=int)
    start, end = np.asarray(rec.start), np.asarray(rec.end)
    parent = np.asarray(rec.parent, dtype=int)
    in_op = np.asarray(rec.op_of, dtype=int) >= 0
    self_ms = _self_times(start, end, parent) * 1e3
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
    entry = parent_name != name
    out = {}
    for idx, layer in enumerate(NAMES):
        mask = in_op & (name == idx)
        out[f"{layer}.ms"] = float(self_ms[mask].sum()) / ops
        out[f"{layer}.calls"] = float(np.count_nonzero(mask & entry)) / ops
    totals = {}
    for (op, counter), amount in rec.counts.items():
        if op >= 0:
            totals[counter] = totals.get(counter, 0) + amount
    for counter in (*COUNTERS, *TOTALS):
        out[counter] = totals.get(counter, 0) / ops
    jacobians = totals.get("solvers.fd_jacobian.calls", 0)
    out["solvers.jacobian_useful_ratio"] = (
        totals.get("solvers.iterations", 0) / jacobians if jacobians else 0.0
    )
    op_mask = in_op & (name == NAME_ID[OP])
    out["trace.op_ms"] = float(((end - start)[op_mask]).sum()) * 1e3 / ops
    out["trace.unattributed_ms"] = out.pop(f"{OP}.ms")
    del out[f"{OP}.calls"]
    for span in (CLI_IMPORT, CLI_HANDLER):
        out[f"{span}_ms"] = out.pop(f"{span}.ms")
        del out[f"{span}.calls"]
    return out


def scipy_import_ms(importtime_stderr: str) -> float:
    """Self time of every scipy module in ``python -X importtime`` output."""
    total_us = 0
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, module = line[len("import time:"):].split("|")
        module = module.strip()
        if (module == "scipy" or module.startswith("scipy.")) and self_us.strip().isdigit():
            total_us += int(self_us)
    return total_us / 1e3
