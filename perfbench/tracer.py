"""Spans around the calls into each layer of extbounds, recorded from the
benchmark's own code.

The tracer replaces public functions by wrappers that record one span per
call: name, parent span, operation id, start and end.  Several modules
bind these functions by name (``from .fields import energy_norm``), so
every binding of the same function object in the package and its
modules is replaced, and restored by ``uninstall``.  ``math.fsum`` in
``traces`` is reached through a proxy for that module's ``math``.

``layer_metrics`` turns a list of spans into the per-layer metrics, all
additive over spans, so totals of several processes or rounds add up.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import math
import sys
from time import perf_counter

import numpy as np

# span name -> (module, function names) whose calls it records
LAYERS = {
    "geometry.build_quadrature": ("geometry", ("build_quadrature",)),
    "geometry.reduce": ("geometry", ("exact_dot", "integrate")),
    "fields.norm": ("fields", ("weighted_norm", "log_weighted_norm", "energy_norm")),
    "traces.project": ("traces", ("analyze", "normal_trace")),
    "traces.sobolev_norm": ("traces", ("sobolev_norm",)),
    "constants.bundle": ("majorant", ("constants_bundle",)),
    "constants.friedrichs": ("constants", ("interior_friedrichs_constant",)),
    "constants.extension": ("constants", ("boundary_extension_constant",)),
    "constants.trace": ("constants", ("interface_trace_constant",)),
    "majorant.estimate": ("majorant", ("estimate_I", "estimate_II", "estimate_III")),
    "majorant.boundary_term": ("majorant", ("boundary_term",)),
    "minorant.report": ("minorant", ("minorant_report",)),
    "problems.builtin": ("problems", ("builtin",)),
    "problems.perturb": ("problems", ("perturb",)),
    "problems.true_error": ("problems", ("true_error",)),
    "poincare.verify": ("poincare", ("verify_power_weight", "verify_log_weight",
                                     "verify_halfline", "verify_corollary_chain")),
    "poincare.identity": ("poincare", ("partial_integration_identity",)),
}

COMMANDS = ("majorant", "minorant", "sandwich", "sweep", "constants", "verify-poincare")

METRICS = (
    ("geometry.build_quadrature.calls", "count", "lower"),
    ("geometry.build_quadrature.s", "s", "lower"),
    ("geometry.reduce.calls", "count", "lower"),
    ("geometry.reduce.values", "count", "lower"),
    ("geometry.reduce.s", "s", "lower"),
    ("fields.norm.calls", "count", "lower"),
    ("fields.norm.nodes", "count", "lower"),
    ("fields.norm.self_s", "s", "lower"),
    ("traces.project.calls", "count", "lower"),
    ("traces.project.s", "s", "lower"),
    ("constants.bundle.calls", "count", "lower"),
    ("constants.bundle.s", "s", "lower"),
    ("constants.solve.calls", "count", "lower"),
    ("constants.friedrichs.s", "s", "lower"),
    ("constants.extension.s", "s", "lower"),
    ("constants.trace.s", "s", "lower"),
    ("majorant.estimate.calls", "count", "lower"),
    ("majorant.estimate.self_s", "s", "lower"),
    ("majorant.term.residual.s", "s", "lower"),
    ("majorant.term.flux.s", "s", "lower"),
    ("majorant.term.interface.s", "s", "lower"),
    ("majorant.term.boundary.s", "s", "lower"),
    ("majorant.scale.s", "s", "lower"),
    ("minorant.report.calls", "count", "lower"),
    ("minorant.report.s", "s", "lower"),
    ("minorant.report.self_s", "s", "lower"),
    ("minorant.basis_nodes", "count", "lower"),
    ("minorant.gram_pairs", "count", "lower"),
    ("minorant.gram_pairs_overlapping", "count", "lower"),
    ("problems.builtin.s", "s", "lower"),
    ("problems.perturb.s", "s", "lower"),
    ("problems.true_error.calls", "count", "lower"),
    ("problems.true_error.s", "s", "lower"),
    ("poincare.checks", "count", "higher"),
    ("poincare.identities", "count", "higher"),
    ("poincare.verify.s", "s", "lower"),
    ("poincare.identity.s", "s", "lower"),
    ("cli.import.s", "s", "lower"),
    *((f"cli.{c}.{k}", u, "lower") for c in COMMANDS for k, u in (("s", "s"), ("rss_mb", "MB"))),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
METRIC_NAMES = tuple(name for name, _, _ in METRICS)
UNITS = {name: unit for name, unit, _ in METRICS}


class Span:
    __slots__ = ("name", "fn", "parent", "op", "start", "end", "attrs")

    def __init__(self, name, fn, parent, op):
        self.name, self.fn, self.parent, self.op = name, fn, parent, op
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_row(self, ids) -> list:
        parent = None if self.parent is None else ids.get(id(self.parent))
        return [ids[id(self)], parent, self.op, self.name, self.fn,
                self.start, self.end, self.attrs]


class _MathProxy:
    """Stands in for ``math`` inside ``extbounds.traces`` so that its
    ``fsum`` reductions are recorded; everything else is ``math``'s."""

    def __init__(self, fsum):
        self.fsum = fsum

    def __getattr__(self, name):
        return getattr(math, name)


class Tracer:
    """Records spans while installed; ``op`` tags the spans of one
    benchmark operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[Span] = []
        self._saved: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, attrs=None, around=None):
        """``attrs(args, kwargs, result)`` annotates the span; ``around``
        may substitute the arguments and returns a hook run after the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = None
            if around is not None:
                args, kwargs, after = around(args, kwargs)
            span = Span(name, fn.__name__, tracer._stack[-1] if tracer._stack else None,
                        tracer.op)
            tracer._stack.append(span)
            result = None
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
                tracer.spans.append(span)
                if attrs is not None:
                    span.attrs = attrs(args, kwargs, result)
                if after is not None:
                    after(span)

        return traced

    @staticmethod
    def _attrs_for(name):
        if name == "geometry.reduce":
            return lambda a, k, r: {"values": len(a[0])}
        if name == "fields.norm":
            return lambda a, k, r: {
                "nodes": len(k["rule"] if "rule" in k else a[-1]),
                "mode": k.get("mode", a[2] if len(a) == 4 else None)}
        if name == "poincare.verify":
            return lambda a, k, r: {"records": len(r) if isinstance(r, list) else 1}
        return None

    def _around_for(self, name):
        return self._count_basis if name == "minorant.report" else None

    # -- minorant basis accounting ---------------------------------------

    def _count_basis(self, args, kwargs):
        """Evaluate the basis through counting closures: how many nodes each
        basis gradient is evaluated on, and where each function is nonzero
        on the problem's whole-domain rule."""
        args = list(args)
        p = args[0] if args else kwargs["p"]
        in_args = len(args) >= 3
        basis = args[2] if in_args else kwargs["basis"]
        rule_nodes = p.quads.whole.nodes
        seen = [dict(nodes=0, mask=None) for _ in basis.fields]

        def counted(field, rec):
            def note(pts, nonzero):
                if pts is rule_nodes:
                    rec["mask"] = nonzero if rec["mask"] is None else rec["mask"] | nonzero

            def value(pts):
                out = field.value(pts)
                note(pts, np.asarray(out) != 0.0)
                return out

            def gradient(pts):
                out = field.gradient(pts)
                rec["nodes"] += len(pts)
                note(pts, np.any(np.asarray(out) != 0.0, axis=1))
                return out

            return dataclasses.replace(field, value=value, gradient=gradient)

        wrapped = dataclasses.replace(
            basis, fields=tuple(counted(f, rec) for f, rec in zip(basis.fields, seen)))
        if in_args:
            args[2] = wrapped
        else:
            kwargs["basis"] = wrapped

        def after(span):
            masks = []
            for field, rec in zip(basis.fields, seen):
                mask = rec["mask"]
                if mask is None:  # evaluated on a subset of the rule only: look directly
                    mask = (np.asarray(field.value(rule_nodes)) != 0.0) | np.any(
                        np.asarray(field.gradient(rule_nodes)) != 0.0, axis=1)
                masks.append(mask)
            n = len(masks)
            span.attrs = {
                "basis_nodes": sum(rec["nodes"] for rec in seen),
                "gram_pairs": n * (n + 1) // 2,
                "gram_pairs_overlapping": sum(
                    bool(np.any(masks[j] & masks[k])) for j in range(n) for k in range(j, n)),
            }

        return tuple(args), kwargs, after

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every binding of the traced functions in the package."""
        wrappers = {}
        for name, (home, fns) in LAYERS.items():
            module = importlib.import_module(f"extbounds.{home}")
            for fn_name in fns:
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = (fn, self._wrap(name, fn, self._attrs_for(name),
                                                   self._around_for(name)))
        mods = [sys.modules["extbounds"]] + [
            m for key, m in sorted(sys.modules.items())
            if key.startswith("extbounds.") and m is not None]
        for module in mods:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        traces = sys.modules["extbounds.traces"]
        self._saved.append((traces, "math", traces.math))
        traces.math = _MathProxy(self._wrap(
            "geometry.reduce", math.fsum,
            lambda a, k, r: {"values": len(a[0]) if hasattr(a[0], "__len__") else 0}))

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _under(span, names):
    return span.parent is not None and span.parent.name in names


def layer_metrics(spans) -> dict:
    """Per-layer metrics of a list of spans (every value additive)."""
    m = dict.fromkeys(METRIC_NAMES, 0.0)
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[id(s.parent)] = child_time.get(id(s.parent), 0.0) + s.duration

    def self_time(s):
        return s.duration - child_time.get(id(s), 0.0)

    for s in spans:
        d = s.duration
        if s.name == "geometry.build_quadrature":
            m["geometry.build_quadrature.calls"] += 1
            if not _under(s, ("geometry.build_quadrature",)):
                m["geometry.build_quadrature.s"] += d
        elif s.name == "geometry.reduce":
            m["geometry.reduce.calls"] += 1
            m["geometry.reduce.values"] += s.attrs["values"]
            m["geometry.reduce.s"] += d
        elif s.name == "fields.norm":
            m["fields.norm.calls"] += 1
            m["fields.norm.nodes"] += s.attrs["nodes"]
            m["fields.norm.self_s"] += self_time(s)
            if _under(s, ("majorant.estimate",)):
                if s.fn != "energy_norm":
                    m["majorant.term.residual.s"] += d
                elif s.attrs["mode"] == "A_inverse":
                    m["majorant.term.flux.s"] += d
                else:
                    m["majorant.scale.s"] += d
        elif s.name in ("traces.project", "traces.sobolev_norm"):
            if s.name == "traces.project":
                m["traces.project.calls"] += 1
                m["traces.project.s"] += d
            if _under(s, ("majorant.estimate",)):
                m["majorant.term.interface.s"] += d
        elif s.name == "constants.bundle":
            m["constants.bundle.calls"] += 1
            m["constants.bundle.s"] += d
        elif s.name.startswith("constants."):
            m["constants.solve.calls"] += 1
            m[s.name + ".s"] += d
        elif s.name == "majorant.estimate":
            m["majorant.estimate.calls"] += 1
            m["majorant.estimate.self_s"] += self_time(s)
        elif s.name == "majorant.boundary_term":
            if _under(s, ("majorant.estimate",)):
                m["majorant.term.boundary.s"] += d
        elif s.name == "minorant.report":
            m["minorant.report.calls"] += 1
            m["minorant.report.s"] += d
            m["minorant.report.self_s"] += self_time(s)
            for key in ("basis_nodes", "gram_pairs", "gram_pairs_overlapping"):
                m["minorant." + key] += s.attrs[key]
        elif s.name == "problems.true_error":
            m["problems.true_error.calls"] += 1
            m["problems.true_error.s"] += d
        elif s.name in ("problems.builtin", "problems.perturb"):
            m[s.name + ".s"] += d
        elif s.name == "poincare.verify":
            if not _under(s, ("poincare.verify",)):
                m["poincare.verify.s"] += d
            m["poincare.checks"] += s.attrs.get("records", 1)
        elif s.name == "poincare.identity":
            m["poincare.identities"] += 1
            m["poincare.identity.s"] += d
    return m


def spans_to_rows(spans) -> list:
    ids = {id(s): k for k, s in enumerate(spans)}
    return [s.as_row(ids) for s in spans]
