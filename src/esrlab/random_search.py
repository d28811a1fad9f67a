"""Idealized random search over an enumerated catalog.

Each run walks the catalog entries in an independent uniform permutation,
without replacement, so a full run always ends at the catalog-wide optimum.
Per-entry fit results come from ``fitting.fit_catalog`` (or a results file
it wrote) and depend only on (global seed, entry hash), never on the
permutation, so they are shared across runs; the visited-expression counter
advances once per entry while the cumulative function-evaluation counter
reflects the full multi-restart fitting effort.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr as ex
from .dataset import Dataset
from .enumeration import Catalog
# ``fit`` is not called here; it stays importable because the benchmark's
# traced run (perfbench/tracing.py) patches it on this module by name.
from .fitting import ESR_FIT, FitConfig, fit, fit_catalog
from .runlog import LogRecord, RunLog

__all__ = ["run_rs"]


def run_rs(catalog: Catalog, data: Dataset, objective: str = "mse",
           config: FitConfig = ESR_FIT, runs: int = 1, seed: int = 0,
           results: dict | None = None, progress=None) -> list:
    """Random-search baseline; returns one RunLog per run.

    ``results`` may carry precomputed per-entry fits ({hash: FitResult}, as
    returned by ``fitting.fit_catalog`` or ``fitting.read_results``); the
    entries it lacks are fitted through ``fit_catalog`` with per-entry seeds
    derived from ``seed``.
    """
    results = dict(results or {})
    missing = [e for e in catalog.entries if e.semantic_hash not in results]
    if missing:
        results.update(fit_catalog(Catalog(catalog.max_len, missing,
                                           catalog.meta),
                                   data, objective, config, seed,
                                   progress=progress))
    struct_hashes = {e.semantic_hash: ex.structural_hash(ex.parse(e.text))
                     for e in catalog.entries}
    logs = []
    n = len(catalog.entries)
    for r in range(runs):
        rng = np.random.default_rng([seed, r])
        order = rng.permutation(n)
        records = []
        fevals = 0
        for i, idx in enumerate(order):
            entry = catalog.entries[idx]
            h = entry.semantic_hash
            res = results[h]
            fitness = res.objective if math.isfinite(res.objective) \
                else math.inf
            fevals += res.n_obj_evals
            records.append(LogRecord(0, i + 1, struct_hashes[h], h, fitness,
                                     entry.text, fevals, res.params))
        logs.append(RunLog(records, {
            "algorithm": "rs", "objective": objective, "run": str(r),
            "catalog_len": str(catalog.max_len), "entries": str(n),
        }, seed))
    return logs
