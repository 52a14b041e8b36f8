"""Spans around every call into the package's public functions.

The tracer rebinds each public function of the layer modules at every place
the package imported it (``renorml1.witness.tnorm_sq`` as well as
``renorml1.renorm.tnorm_sq``), plus the arithmetic operators of
``DyadicStep``. Nothing under ``src/`` changes. Spans are recorded only while
an op is being timed; they stay in memory and are written out once, when the
run ends.

Span times come from the run's clock, which leaves out the speed probe's
timer handler (see run.py). A span's self time is its duration minus the
durations of its direct child spans, so the self times of all spans add up to
the time spent inside the package, and the rest of the timed wall time is the
benchmark's own.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "witness", "probes", "renorm", "dyadic", "ell1", "ured")

# Per-value helpers: called once per cell (2**15 times for one witness at
# K = 13), so a span each would measure the tracer, not the package. Their
# time counts toward the span that calls them.
UNTRACED = {"dyadic.to_frac", "dyadic.frac_str", "dyadic.as_index"}

STEP_METHODS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__abs__", "__eq__", "is_zero")


def _collect_result(name, args, result, counts):
    """Size counters read from arguments and results of selected calls."""
    if name == "renorm.dual_norm_estimate":
        counts["renorm.dual_norm_estimate.iterations"] += result.iterations
        counts["renorm.dual_norm_estimate.converged"] += int(result.converged)
    elif name == "witness.split_pair":
        counts["witness.split_level_max"] = max(counts["witness.split_level_max"], args[1] + 2)
    elif name == "ured.ured_recursion":
        counts["ured.steps"] += args[2]


class Tracer:
    """Installs the span wrappers into an imported renorml1 and aggregates."""

    def __init__(self, mods, clock=perf_counter):
        self.mods = mods
        self.clock = clock
        self.step_type = mods.dyadic.DyadicStep
        self.active = False
        self.op = -1
        self.names: list[str] = []
        # one row per span
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.stack: list[list] = []  # [row, time covered by children]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.cells: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        nid = len(self.names)
        self.names.append(name)
        step_type = self.step_type
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            row = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.op_id.append(tracer.op)
            tracer.end.append(0.0)
            frame = [row, 0.0]
            stack.append(frame)
            t0 = clock()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer.end[row] = t1
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                own = dur - frame[1]
                tracer.calls[name] += 1
                tracer.total_s[name] += dur
                tracer.self_s[name] += own
                tracer.layer_self_s[layer] += own
                cells = 0
                for a in args:
                    if isinstance(a, step_type):
                        cells += 1 << a.level
                tracer.cells[name] += cells
            _collect_result(name, args, result, tracer.counts)
            return result

        return traced

    def install(self) -> None:
        package = [m for n, m in sys.modules.items() if n == "renorml1" or n.startswith("renorml1.")]
        for layer in LAYERS:
            mod = getattr(self.mods, layer)
            for fname, fn in list(vars(mod).items()):
                name = f"{layer}.{fname}"
                if (
                    fname.startswith("_")
                    or name in UNTRACED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrapper = self._wrap(name, layer, fn)
                for site in package:
                    for attr, val in list(vars(site).items()):
                        if val is fn:
                            self._rebind(site, attr, wrapper)
        cls = self.step_type
        wrapped = {}
        for meth in STEP_METHODS:
            fn = cls.__dict__[meth]
            if fn not in wrapped:
                wrapped[fn] = self._wrap(f"dyadic.DyadicStep.{fn.__name__}", "dyadic", fn)
            self._rebind(cls, meth, wrapped[fn])

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def metrics(self, scale: float, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Per-layer metrics; span times are multiplied by `scale`, the speed
        adjustment of the traced pass, so they add up to `traced_wall`."""

        def layer_sum(table, layer):
            return sum(v for k, v in table.items() if k.startswith(layer + "."))

        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.layer_self_s[layer] * scale
        m["dyadic.calls"] = layer_sum(self.calls, "dyadic")
        m["dyadic.cells"] = layer_sum(self.cells, "dyadic")
        m["renorm.tnorm_sq.calls"] = self.calls["renorm.tnorm_sq"]
        m["renorm.tnorm_sq.s"] = self.total_s["renorm.tnorm_sq"] * scale
        m["renorm.tnorm_sq.cells"] = self.cells["renorm.tnorm_sq"]
        m["witness.d2p_witness.calls"] = self.calls["witness.d2p_witness"]
        m["witness.d2p_witness.self_s"] = self.self_s["witness.d2p_witness"] * scale
        m["witness.split_pair.s"] = self.total_s["witness.split_pair"] * scale
        m["witness.split_level_max"] = self.counts["witness.split_level_max"]
        m["probes.calls"] = layer_sum(self.calls, "probes")
        dual_calls = self.calls["renorm.dual_norm_estimate"]
        m["renorm.dual_norm_estimate.s"] = self.total_s["renorm.dual_norm_estimate"] * scale
        m["renorm.dual_norm_estimate.iterations"] = self.counts["renorm.dual_norm_estimate.iterations"]
        m["renorm.dual_norm_estimate.converged_ratio"] = (
            self.counts["renorm.dual_norm_estimate.converged"] / dual_calls if dual_calls else 0.0
        )
        m["ell1.combo_l1.calls"] = self.calls["ell1.combo_l1"]
        m["ell1.combo_l1.s"] = self.total_s["ell1.combo_l1"] * scale
        m["ured.ured_recursion.s"] = self.total_s["ured.ured_recursion"] * scale
        m["ured.verify_claim.s"] = self.total_s["ured.verify_claim"] * scale
        m["ured.segment_check.s"] = self.total_s["ured.segment_check"] * scale
        m["ured.steps"] = self.counts["ured.steps"]
        m["cli.main.calls"] = self.calls["cli.main"]
        m["cli.main.self_s"] = self.self_s["cli.main"] * scale
        m["spans"] = len(self.start)
        m["traced_wall_s"] = traced_wall
        m["unattributed_s"] = traced_wall - sum(self.layer_self_s.values()) * scale
        m["trace_overhead_ratio"] = traced_wall / untraced_wall
        return m

    def write(self, path) -> None:
        """Spans as gzipped CSV: name, start, end, parent row, op id."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8", newline="\n") as fh:
            fh.write("row,name,start,end,parent,op\n")
            names = self.names
            for row, (nid, t0, t1, par, op) in enumerate(
                zip(self.name_id, self.start, self.end, self.parent, self.op_id)
            ):
                fh.write(f"{row},{names[nid]},{t0:.9f},{t1:.9f},{par},{op}\n")
