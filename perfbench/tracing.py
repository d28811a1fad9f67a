"""Spans around the library's public functions, patched in from outside.

Modules import functions by name (``from .autodiff import eval_with_grad``),
so each function is patched where it is looked up, not only where it is
defined.  A span records its name, start, end and parent span; spans are kept
in flat arrays and written out when the run ends.  A layer's self time is the
duration of its spans minus the part covered by their direct children.

Counts the program already returns (``SaturationReport``, ``FitResult``,
``RunLog``, ``Catalog``) are read by hooks at the same boundaries, so the
traced run sees, for example, how many canonicalizations stopped on the
e-graph node budget without any change to the program.
"""

from __future__ import annotations

import math
import os
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

from esrlab import (analysis, egraph, enumeration, expr, fitting, gp,
                    objectives, random_search, runlog, simplify)
from esrlab.expr import HOLE
from workloads import tail

ROOT = "bench"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = [-1]
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)
        self._saved: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def current(self) -> str | None:
        top = self.stack[-1]
        return None if top < 0 else self.names[self.name[top]]

    def span(self, name: str, fn, hook=None):
        """``fn`` wrapped in a span; calls made directly from inside a span
        of the same name (recursion) are folded into the outer one."""
        nid = self.name_id(name)
        stack, names, parents = self.stack, self.name, self.parent
        starts, ends, clock = self.start, self.end, time.perf_counter

        def wrapper(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and names[top] == nid:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(top)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return wrapper

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, hook))

    def __enter__(self):
        for owner, attr, name, hook in _PATCHES:
            self.patch(owner, attr, name, hook)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def root(self, fn, *args):
        """Run ``fn(*args)`` under the root span (the benchmark's own time)."""
        return self.span(ROOT, fn)(*args)

    # -- analysis ------------------------------------------------------------

    def arrays(self):
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        return name, parent, dur

    def summary(self) -> dict:
        """Calls, inclusive and self seconds per span name; inclusive
        seconds of direct children per (parent name, child name)."""
        name, parent, dur = self.arrays()
        n = len(dur)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=n)
        self_s = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_s, minlength=k)
        pairs = name[parent[has_parent]] * k + name[has_parent]
        sums = np.bincount(pairs, weights=dur[has_parent], minlength=k * k)
        child_incl = {(self.names[i // k], self.names[i % k]): float(sums[i])
                      for i in np.nonzero(sums)[0]}
        out = {}
        for i, nm in enumerate(self.names):
            out[nm] = {"calls": int(calls[i]), "incl_s": float(incl[i]),
                       "self_s": float(own[i])}
        return {"spans": out, "child_incl": child_incl, "n_spans": n}

    def durations(self, span_name: str) -> np.ndarray:
        name, _, dur = self.arrays()
        return dur[name == self._ids.get(span_name, -1)]

    def dump(self, path: str) -> None:
        name, parent, _ = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=np.array(self.start),
                            end=np.array(self.end))


# -- hooks: counts read from return values --------------------------------------

def _on_saturate(t: Tracer, args, kwargs, report) -> None:
    t.counts["egraph.iterations"] += report.iterations
    t.counts[f"egraph.stop.{report.stop_reason}"] += 1
    t.samples["egraph.nodes_at_stop"].append(report.n_nodes)


def _has_hole(e) -> bool:
    return e.kind == HOLE or any(_has_hole(c) for c in e.children)


def _on_canonicalizer(t: Tracer, args, kwargs, cf) -> None:
    if t.current() == "enumeration.build_catalog":
        kind = "partial" if _has_hole(args[1]) else "complete"
        t.counts[f"enumeration.{kind}_trees"] += 1


def _on_build_catalog(t: Tracer, args, kwargs, catalog) -> None:
    t.counts["enumeration.unique"] += len(catalog)


def _on_fit(t: Tracer, args, kwargs, res) -> None:
    objective = args[2] if len(args) > 2 else kwargs.get("objective", "mse")
    pre = f"fitting.{objective}."
    c = t.counts
    c[pre + "fits"] += 1
    c[pre + "restarts"] += res.restarts_used
    c[pre + "obj_evals"] += res.n_obj_evals
    c[pre + "grad_evals"] += res.n_grad_evals
    c[pre + "converged"] += res.terminations.count("converged")
    c[pre + "iter_limit"] += res.terminations.count("iter_limit")
    c[pre + "degenerate"] += "degenerate" in res.terminations


def _on_run_gp(t: Tracer, args, kwargs, log) -> None:
    c = t.counts
    c["gp.evals"] += len(log.records)
    c["gp.overlength"] += sum(1 for r in log.records
                              if r.sem_hash == 0 and math.isinf(r.fitness))
    c["gp.unique"] += len({r.sem_hash for r in log.records if r.sem_hash})
    c["gp.init_discards"] += int(log.config.get("init_discards", 0))


def _on_write_runlog(t: Tracer, args, kwargs, _) -> None:
    t.counts["runlog.bytes"] += os.path.getsize(args[1])


_PATCHES = [
    (simplify, "normalize", "normalize", None),
    (simplify, "canonicalize", "simplify.canonicalize", None),
    (simplify.Canonicalizer, "__call__", "simplify.cache", _on_canonicalizer),
    (egraph.EGraph, "add_expr", "egraph.add_expr", None),
    (egraph.EGraph, "rebuild", "egraph.rebuild", None),
    (egraph.EGraph, "saturate", "egraph.saturate", _on_saturate),
    (egraph.EGraph, "extract", "egraph.extract", None),
    (enumeration, "build_catalog", "enumeration.build_catalog",
     _on_build_catalog),
    (enumeration, "write_catalog", "enumeration.write_catalog", None),
    (fitting, "eval_with_grad", "autodiff.eval_with_grad", None),
    (objectives, "eval_with_grad", "autodiff.eval_with_grad", None),
    (objectives, "eval_expr", "autodiff.eval_expr", None),
    (fitting, "mse", "objectives.mse", None),
    (fitting, "mnr_loglik", "objectives.mnr_loglik", None),
    (fitting, "fit", "fitting.fit", _on_fit),
    (gp, "fit", "fitting.fit", _on_fit),
    (random_search, "fit", "fitting.fit", _on_fit),
    (fitting, "minimize", "fitting.minimize", None),
    (gp, "run_gp", "gp.run_gp", _on_run_gp),
    (expr, "parse", "expr.parse", None),
    (expr, "render", "expr.render", None),
    (expr, "structural_hash", "expr.structural_hash", None),
    (random_search, "run_rs", "random_search.run_rs", None),
    (analysis, "ecdf", "analysis.ecdf", None),
    (analysis, "duplicate_stats", "analysis.duplicate_stats", None),
    (runlog, "write_runlog", "runlog.write_runlog", _on_write_runlog),
]


# -- per-layer metrics -------------------------------------------------------------

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(t: Tracer, wall_s: float) -> dict:
    """{name: (value, unit)} for every per-layer metric of the traced pass;
    a layer the workload does not exercise reads 0."""
    summary = t.summary()
    spans, child = summary["spans"], summary["child_incl"]
    c = t.counts

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def incl_s(name):
        return spans.get(name, {}).get("incl_s", 0.0)

    m = {}
    for name in ("normalize", "simplify.canonicalize", "simplify.cache",
                 "autodiff.eval_with_grad", "autodiff.eval_expr",
                 "objectives.mse", "objectives.mnr_loglik", "fitting.fit"):
        m[f"{name}.calls"] = (calls(name), "count")
    for name in ("normalize", "egraph.saturate", "egraph.rebuild",
                 "egraph.extract", "egraph.add_expr", "simplify.canonicalize",
                 "simplify.cache", "enumeration.build_catalog",
                 "autodiff.eval_with_grad", "autodiff.eval_expr",
                 "objectives.mse", "objectives.mnr_loglik", "fitting.fit",
                 "fitting.minimize", "gp.run_gp", "expr.parse", "expr.render",
                 "expr.structural_hash", "random_search.run_rs",
                 "analysis.ecdf", "analysis.duplicate_stats",
                 "runlog.write_runlog", ROOT):
        m[f"{name}.self_s"] = (self_s(name), "s")

    m["egraph.iterations"] = (c["egraph.iterations"], "count")
    for reason in ("fixpoint", "iter_limit", "node_budget"):
        m[f"egraph.stop.{reason}"] = (c[f"egraph.stop.{reason}"], "count")
    nodes = t.samples["egraph.nodes_at_stop"]
    m["egraph.nodes_at_stop_mean"] = (float(np.mean(nodes)) if nodes else 0.0,
                                      "count")

    us = 1e6 * t.durations("simplify.canonicalize")
    value, pct, _ = tail(us)
    m["simplify.canonicalize.p50_us"] = (float(np.median(us)) if len(us)
                                         else 0.0, "us")
    m["simplify.canonicalize.tail_us"] = (float(value), "us")
    m["simplify.canonicalize.tail_pct"] = (pct, "%")
    m["simplify.hit_rate"] = (
        1.0 - _ratio(calls("simplify.canonicalize"), calls("simplify.cache"))
        if calls("simplify.cache") else 0.0, "frac")

    complete = c["enumeration.complete_trees"]
    m["enumeration.complete_trees"] = (complete, "count")
    m["enumeration.partial_trees"] = (c["enumeration.partial_trees"], "count")
    m["enumeration.unique_frac"] = (_ratio(c["enumeration.unique"], complete),
                                    "frac")
    m["enumeration.write_catalog_s"] = (incl_s("enumeration.write_catalog"),
                                        "s")

    m["autodiff.eval_with_grad.us_per_call"] = (
        1e6 * _ratio(self_s("autodiff.eval_with_grad"),
                     calls("autodiff.eval_with_grad")), "us")

    objective_s = sum(child.get(("fitting.minimize", name), 0.0)
                      for name in ("autodiff.eval_with_grad", "objectives.mse",
                                   "objectives.mnr_loglik"))
    m["fitting.overhead_ratio"] = (_ratio(self_s("fitting.minimize"),
                                          objective_s), "ratio")
    for o in ("mse", "mnr"):
        fits, restarts = c[f"fitting.{o}.fits"], c[f"fitting.{o}.restarts"]
        m[f"fitting.{o}.restarts_per_entry"] = (_ratio(restarts, fits), "count")
        m[f"fitting.{o}.obj_evals_per_entry"] = (
            _ratio(c[f"fitting.{o}.obj_evals"], fits), "count")
        m[f"fitting.{o}.grad_evals_per_entry"] = (
            _ratio(c[f"fitting.{o}.grad_evals"], fits), "count")
        m[f"fitting.{o}.converged_frac"] = (
            _ratio(c[f"fitting.{o}.converged"], restarts), "frac")
        m[f"fitting.{o}.iter_limit_frac"] = (
            _ratio(c[f"fitting.{o}.iter_limit"], restarts), "frac")
        m[f"fitting.{o}.degenerate_frac"] = (
            _ratio(c[f"fitting.{o}.degenerate"], fits), "frac")

    evals = c["gp.evals"]
    m["gp.evals"] = (evals, "count")
    m["gp.overlength_frac"] = (_ratio(c["gp.overlength"], evals), "frac")
    m["gp.unique_frac"] = (_ratio(c["gp.unique"], evals), "frac")
    m["gp.init_discards"] = (c["gp.init_discards"], "count")
    m["gp.fit_share"] = (_ratio(child.get(("gp.run_gp", "fitting.fit"), 0.0),
                                incl_s("gp.run_gp")), "frac")
    m["runlog.bytes"] = (c["runlog.bytes"], "B")

    own = sum(s["self_s"] for s in spans.values())
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.residual_s"] = (wall_s - own, "s")
    m["trace.spans"] = (summary["n_spans"], "count")
    return m
