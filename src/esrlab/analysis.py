"""Analyses over run logs and fit results: success-probability ECDFs,
duplicate-rate curves, and fitness-distribution summaries.

All outputs are plot-ready TSV tables rather than rendered figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import expr as ex
from ._files import atomic_write
from .enumeration import Catalog
from .runlog import RunLog
from .simplify import Canonicalizer

__all__ = [
    "Ecdf", "ecdf", "write_ecdf_tsv",
    "DupStats", "duplicate_stats", "write_dupstats_tsv",
    "FitnessDistribution", "fitness_distribution", "write_distribution_tsv",
]


# -- success probability -------------------------------------------------------

@dataclass(frozen=True)
class Ecdf:
    """Success probability over a budget axis for one objective threshold.

    ``first_success`` holds one entry per run: the budget value at which the
    threshold was first reached, or None when the run never reached it
    (censored runs stay in the denominator forever).  The curve (xs, ys) is a
    right-continuous step function with ys in [0, 1].
    """
    threshold: float
    axis: str
    first_success: tuple
    xs: tuple
    ys: tuple

    def value_at(self, x: float) -> float:
        succeeded = sum(1 for s in self.first_success
                        if s is not None and s <= x)
        return succeeded / len(self.first_success)


def ecdf(logs: list, thresholds, axis: str = "visited") -> list:
    """One curve per threshold; success is the first record with fitness at
    or below the threshold (all objectives are minimized)."""
    if axis not in ("visited", "fevals"):
        raise ValueError(f"unknown axis {axis!r}")
    if not logs:
        raise ValueError("need at least one run log")
    if axis == "fevals":
        for log in logs:
            if log.records and all(r.fevals == 0 for r in log.records):
                raise ValueError(
                    "axis=fevals requires function-evaluation counters")
    out = []
    for thr in thresholds:
        firsts = []
        for log in logs:
            hit = None
            for i, r in enumerate(log.records):
                if r.fitness <= thr:
                    hit = (i + 1) if axis == "visited" else r.fevals
                    break
            firsts.append(hit)
        events = sorted(s for s in firsts if s is not None)
        xs, ys = [], []
        n = len(firsts)
        done = 0
        for s in events:
            done += 1
            if xs and xs[-1] == s:
                ys[-1] = done / n
            else:
                xs.append(s)
                ys.append(done / n)
        out.append(Ecdf(thr, axis, tuple(firsts), tuple(xs), tuple(ys)))
    return out


def write_ecdf_tsv(curves: list, path: str) -> None:
    with atomic_write(path) as f:
        f.write("threshold\taxis\tx\tsuccess_probability\n")
        for c in curves:
            for x, y in zip(c.xs, c.ys):
                f.write(f"{c.threshold!r}\t{c.axis}\t{x}\t{y!r}\n")


# -- duplicate statistics --------------------------------------------------------

@dataclass(frozen=True)
class DupStats:
    """Fractions of distinct candidates per generation and cumulatively.

    Series: ``expr`` distinguishes (structure, fitted parameters rounded to
    1e-12); ``structures`` distinct structural hashes; ``simplified``
    distinct semantic hashes; ``constant`` the fraction whose canonical form
    is a lone parameter or literal.  Over-length sentinel records count as
    visited but are excluded from the denominators.
    """
    gens: tuple
    per_gen: dict
    cumulative: dict
    coverage: Optional[float] = None


def _theta_key(theta: tuple) -> tuple:
    """Parameters rounded to 1e-12.  A value that does not scale to a
    finite number (non-finite, or above about 1.8e296 in magnitude) is
    keyed by itself, in a tuple so that it cannot equal a rounded one."""
    out = []
    for v in theta:
        scaled = v * 1e12
        out.append(round(scaled) if math.isfinite(scaled) else (v,))
    return tuple(out)


# each distinct-candidate series by the identity of a record it counts
_SERIES = {
    "expr": lambda r: (r.struct_hash, _theta_key(r.theta)),
    "structures": lambda r: r.struct_hash,
    "simplified": lambda r: r.sem_hash,
}


def duplicate_stats(log: RunLog,
                    catalog: Optional[Catalog] = None) -> DupStats:
    """Distinct-candidate fractions in the style of per-generation and
    whole-run views.  Constants are classified under the ``EqSatConfig``
    defaults, the definition GP and the catalog hash under."""
    canon = Canonicalizer()
    const_cache: dict[int, bool] = {}

    def is_const(rec) -> bool:
        got = const_cache.get(rec.struct_hash)
        if got is None:
            try:
                got = canon(ex.parse(rec.text)).is_constant
            except ValueError as err:   # ParseError, or a repeated index
                raise ValueError(f"eval_id {rec.eval_id}: {err}") from None
            const_cache[rec.struct_hash] = got
        return got

    by_gen: dict[int, list] = {}
    for r in log.records:
        by_gen.setdefault(r.gen, []).append(r)
    gens = tuple(sorted(by_gen))

    per_gen = {k: [] for k in (*_SERIES, "constant")}
    cumulative = {k: [] for k in _SERIES}
    seen = {k: set() for k in _SERIES}
    total = 0
    for g in gens:
        recs = [r for r in by_gen[g] if r.sem_hash != 0]
        n = len(recs)
        total += n
        for k, identity in _SERIES.items():
            ids = [identity(r) for r in recs]
            per_gen[k].append(len(set(ids)) / n if n else 0.0)
            seen[k].update(ids)
            cumulative[k].append(len(seen[k]) / max(total, 1))
        per_gen["constant"].append(
            sum(1 for r in recs if is_const(r)) / n if n else 0.0)

    coverage = None
    if catalog is not None and len(catalog) > 0:
        in_catalog = seen["simplified"] & {e.semantic_hash
                                           for e in catalog.entries}
        coverage = len(in_catalog) / len(catalog)
    return DupStats(gens, per_gen, cumulative, coverage)


def write_dupstats_tsv(stats: DupStats, path: str) -> None:
    with atomic_write(path) as f:
        cols = ["gen", "expr", "structures", "simplified", "constant",
                "cum_expr", "cum_structures", "cum_simplified"]
        f.write("\t".join(cols) + "\n")
        for i, g in enumerate(stats.gens):
            row = [str(g)]
            for k in ("expr", "structures", "simplified", "constant"):
                row.append(repr(stats.per_gen[k][i]))
            for k in ("expr", "structures", "simplified"):
                row.append(repr(stats.cumulative[k][i]))
            f.write("\t".join(row) + "\n")
        if stats.coverage is not None:
            f.write(f"#coverage={stats.coverage!r}\n")


# -- fitness distribution ----------------------------------------------------------

@dataclass(frozen=True)
class FitnessDistribution:
    quantiles: dict
    baselines: tuple  # (name, objective, fraction of entries better)
    top: tuple        # (text, objective, params) ascending objective
    n_finite: int
    n_total: int


def fitness_distribution(results: dict, catalog: Optional[Catalog] = None,
                         baselines: Optional[list] = None,
                         top_k: int = 5) -> FitnessDistribution:
    """Summary of a results table {hash: FitResult}.

    ``baselines`` entries are (name, objective value) pairs; the report
    carries the fraction of finite entries strictly better than each.
    """
    texts = {}
    if catalog is not None:
        texts = {e.semantic_hash: e.text for e in catalog.entries}
    rows = []
    for h, res in results.items():
        rows.append((res.objective, texts.get(h, str(h)), res.params))
    finite = sorted((r for r in rows if math.isfinite(r[0])),
                    key=lambda r: r[0])
    values = np.array([r[0] for r in finite]) if finite else np.array([])
    qs = {}
    if len(values):
        for q in (0.0, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0):
            qs[q] = float(np.quantile(values, q, method="lower"))
    base_rows = []
    for name, value in (baselines or []):
        better = int(np.sum(values < value)) if len(values) else 0
        frac = better / len(values) if len(values) else 0.0
        base_rows.append((name, value, frac))
    top = tuple((t, o, p) for o, t, p in finite[:top_k])
    return FitnessDistribution(qs, tuple(base_rows), top, len(finite),
                               len(rows))


def write_distribution_tsv(dist: FitnessDistribution, path: str) -> None:
    with atomic_write(path) as f:
        f.write(f"#finite={dist.n_finite}\t#total={dist.n_total}\n")
        f.write("quantile\tobjective\n")
        for q, v in dist.quantiles.items():
            f.write(f"{q}\t{v!r}\n")
        if dist.baselines:
            f.write("baseline\tobjective\tfraction_better\n")
            for name, value, frac in dist.baselines:
                f.write(f"{name}\t{value!r}\t{frac!r}\n")
        f.write("rank\tobjective\texpression\tparams\n")
        for i, (text, obj, params) in enumerate(dist.top, 1):
            ptxt = ",".join(repr(float(v)) for v in params)
            f.write(f"{i}\t{obj!r}\t{text}\t{ptxt}\n")
