"""GP against idealized random search on one small search space.

A scaled-down version of the full experiment: enumerate a catalog, run a few
GP runs and a few random-search runs at the same length limit, then compare
success probabilities and duplicate rates.

Run: python demos/05_gp_vs_random_search.py   (a few minutes)
"""

import os
import tempfile

import numpy as np

from esrlab.analysis import duplicate_stats, ecdf, write_ecdf_tsv
from esrlab.dataset import synthetic_dataset
from esrlab.enumeration import build_catalog
from esrlab.fitting import FitConfig, fit_catalog
from esrlab.gp import GpConfig, run_gps
from esrlab.random_search import run_rs

data = synthetic_dataset()
max_len = 6
runs = 8

catalog = build_catalog(max_len)
print(f"catalog({max_len}): {len(catalog)} unique expressions")

fit_cfg = FitConfig(restarts=12, restart_patience=5)
results = fit_catalog(catalog, data, "mse", fit_cfg, seed=7)
values = sorted(v.objective for v in results.values()
                if np.isfinite(v.objective))
print(f"best achievable mse: {values[0]:.4e}; "
      f"10th best: {values[9]:.4e}")

rs_logs = run_rs(catalog, data, "mse", fit_cfg, runs=runs, seed=7,
                 results=results)

gp_cfg = GpConfig(pop_size=24, generations=20, max_len=max_len,
                  optim_iterations=10)
gp_logs = list(run_gps(gp_cfg, data, [100 + r for r in range(runs)]))

threshold = values[9]
for name, logs in (("random search", rs_logs), ("GP", gp_logs)):
    curves = ecdf(logs, [threshold])
    hits = [s for s in curves[0].first_success if s is not None]
    print(f"{name:14}: top-10 threshold reached in {len(hits)}/{runs} runs"
          + (f", median visits {sorted(hits)[len(hits)//2]}" if hits else ""))

stats = duplicate_stats(gp_logs[0], catalog=catalog)
print(f"\nGP run 0 duplicate profile:")
print(f"  cumulative distinct structures (simplified): "
      f"{stats.cumulative['simplified'][-1]:.2f}")
print(f"  mean per-generation constant fraction:       "
      f"{float(np.mean(stats.per_gen['constant'])):.2f}")
print(f"  catalog coverage: {stats.coverage:.2%}")

out = os.path.join(tempfile.gettempdir(), "ecdf_demo.tsv")
write_ecdf_tsv(ecdf(rs_logs + gp_logs, [threshold, values[0]]), out)
print(f"\nwrote {out} (plot-ready success curves)")
