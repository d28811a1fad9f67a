"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Fast criteria always run.  The long-running reproductions (full catalog
builds, 50-run GP bands, random-search dominance over the length-10 catalog)
are gated behind ESRLAB_SLOW=1; the real-dataset reproductions run only when
the dataset files are supplied via ESRLAB_NIKURADSE_CSV / ESRLAB_RAR_CSV.
"""

import math
import os
import random
import time

import numpy as np
import pytest

from esrlab import expr as ex
from esrlab.analysis import duplicate_stats, ecdf
from esrlab.autodiff import eval_expr, eval_with_grad
from esrlab.dataset import Dataset, load_csv, synthetic_dataset
from esrlab.egraph import RULES
from esrlab.enumeration import build_catalog, enumerate_trees
from esrlab.fitting import ESR_FIT, FitConfig, fit, fit_catalog
from esrlab.gp import GpConfig, run_gps
from esrlab.objectives import MnrParams, mnr_loglik
from esrlab.random_search import run_rs
from esrlab.simplify import canonicalize

from conftest import slow
from oracles import mnr_quadrature, trees_cumulative
from test_egraph import check_rule_soundness

pytestmark = pytest.mark.acceptance


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {status}: {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_c01_enumeration_matches_counting_oracle():
    t0 = time.time()
    counts = []
    for max_len in range(1, 9):
        got = sum(1 for _ in enumerate_trees(max_len))
        want = trees_cumulative(max_len)
        counts.append((max_len, got, want))
    elapsed = time.time() - t0
    ok = all(g == w for _, g, w in counts) and elapsed < 60.0
    _report("C1 enumeration equals recursive counting oracle", ok,
            f"counts={[(g, w) for _, g, w in counts]}, {elapsed:.1f}s")


@slow
def test_c02_unique_count_length10():
    cat = build_catalog(10)
    ok = abs(len(cat) - 80407) <= 0.03 * 80407
    _report("C2 unique count at max length 10 within 3% of 80407", ok,
            f"got {len(cat)}")


@slow
def test_c02_unique_count_length12():
    if not os.environ.get("ESRLAB_VERY_SLOW"):
        pytest.skip("length-12 build takes many hours; set ESRLAB_VERY_SLOW=1")
    cat = build_catalog(12)
    ok = abs(len(cat) - 1083803) <= 0.03 * 1083803
    _report("C2 unique count at max length 12 within 3% of 1083803", ok,
            f"got {len(cat)}")


def test_c03_rule_soundness_1000_samples_each():
    rng = random.Random(20240817)
    for rule in RULES:
        check_rule_soundness(rule, 1000, rng, rel_tol=1e-12)
    _report("C3 rule soundness: 1000 guarded instantiations per rule", True,
            f"{len(RULES)} rules")


def test_c04_canonicalization_pairs():
    pairs = [
        ("x * (x + p1)", "p1 * x + x * x"),
        ("p1 * (x + p2)", "p1 * x + p2"),
    ]
    ok = True
    for left, right in pairs:
        ok &= (canonicalize(ex.parse(left)).semantic_hash
               == canonicalize(ex.parse(right)).semantic_hash)
    for const_text in ("p1 + p2", "p1 / p2 ^ p3"):
        cf = canonicalize(ex.parse(const_text))
        ok &= cf.text == "p1"
    _report("C4 canonicalization pairs and constant folds", ok)


def test_c05_mnr_matches_quadrature_on_200_instances():
    rng = np.random.default_rng(6021)
    shapes = ["p1 * x + p2", "p1 * x + p2 * |x| ^ 2.0",
              "p1 ^ x + p2", "1.0 / (p1 + |p2 + x| ^ 2.0)"]
    t0 = time.time()
    worst = 0.0
    for i in range(200):
        n = int(rng.integers(3, 9))
        data = Dataset(rng.uniform(-2, 2, n), rng.uniform(-2, 2, n),
                       rng.uniform(0.05, 0.5, n), rng.uniform(0.05, 0.5, n))
        e = ex.parse(shapes[i % len(shapes)])
        k = ex.param_count(e)
        p = MnrParams(tuple(rng.uniform(-2, 2, k)),
                      float(rng.uniform(-1, 1)),
                      float(rng.uniform(0.3, 2.0)),
                      float(rng.uniform(0.0, 0.5)))
        mine = mnr_loglik(e, p, data)
        if not math.isfinite(mine):
            continue
        f, g = eval_with_grad(e, p.theta, data.x, wrt="x")
        if not np.all(np.isfinite(g)):
            continue
        oracle = mnr_quadrature(g[0], f - g[0] * data.x, data, p.mu,
                                p.omega, p.sigma_int)
        worst = max(worst, abs(mine - oracle) / max(abs(oracle), 1e-12))
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 120.0
    _report("C5 marginal likelihood matches per-point quadrature (200 cases)",
            ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s")


@slow
def test_c06_gradients_on_catalog8():
    cat = build_catalog(8)
    rng = np.random.default_rng(99)
    h = 1e-6
    worst = 0.0
    for entry in cat.entries:
        e = ex.parse(entry.text)
        theta = rng.uniform(-2.5, 2.5, entry.n_params)
        xs = rng.uniform(-2.5, 2.5, 100)
        v, g = eval_with_grad(e, theta, xs, wrt="params")
        _, gx = eval_with_grad(e, theta, xs, wrt="x")
        for i in range(entry.n_params):
            def probe(d, i=i):
                t = theta.copy()
                t[i] += d
                return eval_expr(e, t, xs)
            worst = max(worst, _rel_err(v, g[i], probe, h))
        worst = max(worst, _rel_err(
            v, gx[0], lambda d: eval_expr(e, theta, xs + d), h))
    ok = worst < 1e-5
    _report("C6 autodiff matches central differences on catalog(8)", ok,
            f"{len(cat)} structures, worst rel err {worst:.2e}")


def _rel_err(value, grad, probe, h):
    # finite differences count as an oracle only where self-consistent
    # (h and h/2 agree) and above the cancellation noise floor eps|f|/h
    with np.errstate(all="ignore"):
        fd1 = (probe(h) - probe(-h)) / (2 * h)
        fd2 = (probe(h / 2) - probe(-h / 2)) / h
        fd = (4.0 * fd2 - fd1) / 3.0
        consistent = np.abs(fd1 - fd2) <= 1e-7 * np.maximum(np.abs(fd2),
                                                            1e-12)
        noise = 2.3e-16 * np.abs(value) / h
        signal = np.maximum(np.abs(fd), np.abs(grad))
        mask = (np.isfinite(fd) & np.isfinite(grad) & (np.abs(grad) > 1e-6)
                & consistent & (noise <= 1e-6 * signal))
        if not np.any(mask):
            return 0.0
        return float(np.max(np.abs(grad[mask] - fd[mask])
                            / np.maximum(np.abs(fd[mask]), 1e-9)))


def _dataset_from_env(var: str):
    path = os.environ.get(var)
    if not path or not os.path.exists(path):
        pytest.skip(f"real dataset not supplied; set {var} to a CSV path")
    return load_csv(path)


def test_c07_nikuradse_reproduction():
    data = _dataset_from_env("ESRLAB_NIKURADSE_CSV")
    e = ex.parse("p1 / (1.0 / (p2 + x) - p3 ^ x)")
    res = fit(e, data, "mse", ESR_FIT, seed=1)
    ok = abs(res.objective - 2.699e-3) <= 0.01 * 2.699e-3
    detail = f"row-6 structure mse {res.objective:.4e}"
    if os.environ.get("ESRLAB_SLOW"):
        cat = build_catalog(10)
        results = fit_catalog(cat, data, "mse", ESR_FIT, seed=1)
        best = min(r.objective for r in results.values()
                   if math.isfinite(r.objective))
        ok &= abs(best - 2.70e-3) <= 0.01 * 2.70e-3
        detail += f", catalog(10) best {best:.4e}"
    _report("C7 flow-in-rough-pipes reproduction", ok, detail)


def test_c07_rar_reproduction():
    data = _dataset_from_env("ESRLAB_RAR_CSV")
    if not os.environ.get("ESRLAB_SLOW"):
        pytest.skip("full catalog(10) fit is slow; set ESRLAB_SLOW=1")
    cat = build_catalog(10)
    results = fit_catalog(cat, data, "mnr", ESR_FIT, seed=1)
    best = min(r.objective for r in results.values()
               if math.isfinite(r.objective))
    ok = abs(best - (-1002.34)) <= 0.5
    _report("C7 radial-acceleration reproduction", ok,
            f"best neg logL {best:.2f}")


@slow
def test_c08_gp_behavior_bands():
    data = synthetic_dataset()
    cfg = GpConfig(max_len=10)  # the length-10 preset
    elitism_ok = 0
    uniq_fracs = []
    const_fracs = []
    for log in run_gps(cfg, data, [1000 + r for r in range(50)]):
        by_gen: dict = {}
        for rec in log.records:
            by_gen.setdefault(rec.gen, []).append(rec.fitness)
        cum = []
        best = math.inf
        for g in sorted(by_gen):
            best = min(best, min(by_gen[g]))
            cum.append(best)
        if cum == sorted(cum, reverse=True):
            elitism_ok += 1
        stats = duplicate_stats(log)
        uniq_fracs.append(stats.cumulative["simplified"][-1])
        const_fracs.append(float(np.mean(stats.per_gen["constant"])))
    mean_uniq = float(np.mean(uniq_fracs))
    mean_const = float(np.mean(const_fracs))
    ok = (elitism_ok == 50
          and 0.05 <= mean_uniq <= 0.45
          and 0.1 <= mean_const <= 0.8)
    _report("C8 GP behavior bands over 50 runs", ok,
            f"elitism {elitism_ok}/50, unique-simplified {mean_uniq:.3f}, "
            f"constant fraction {mean_const:.3f}")


@slow
def test_c09_random_search_dominance():
    data = synthetic_dataset()
    cat = build_catalog(10)
    results = fit_catalog(cat, data, "mse",
                          FitConfig(restarts=20, restart_patience=6),
                          seed=4)
    values = sorted(v.objective for v in results.values()
                    if math.isfinite(v.objective))
    optimum = values[0]
    n = len(cat)
    logs = run_rs(cat, data, "mse", runs=50, seed=4, results=results)
    curves = ecdf(logs, [optimum])
    ok = curves[0].value_at(n) == 1.0
    detail = f"optimum reached in 50/50 runs over {n} entries"
    m = 100
    threshold = values[m - 1]
    firsts = []
    for log in logs:
        for i, rec in enumerate(log.records, 1):
            if rec.fitness <= threshold:
                firsts.append(i)
                break
    median = sorted(firsts)[len(firsts) // 2]
    expected = (n + 1) / (m + 1)
    ok &= expected / 2 <= median <= expected * 2
    detail += f", median first-success {median} vs expected {expected:.0f}"
    _report("C9 random-search dominance and order statistics", ok, detail)


def test_c10_analysis_invariants():
    # full-scan invariants on freshly produced GP and RS logs
    data = synthetic_dataset(n=32)
    cat = build_catalog(4)
    gp_cfg = GpConfig(pop_size=16, generations=6, max_len=8,
                      optim_iterations=5)
    logs = list(run_gps(gp_cfg, data, (1, 2)))
    logs += run_rs(cat, data, "mse", FitConfig(restarts=2), runs=2, seed=9)
    ok = True
    thresholds = [0.5, 0.05, 0.005]
    curves = ecdf(logs, thresholds)
    for c in curves:
        ok &= list(c.ys) == sorted(c.ys)
        ok &= all(0.0 <= y <= 1.0 for y in c.ys)
    for t1, t2 in zip(curves, curves[1:]):
        # thresholds are decreasing: tighter threshold never exceeds looser
        xs = sorted(set(t1.xs) | set(t2.xs) | {1, 10, 1000})
        ok &= all(t2.value_at(x) <= t1.value_at(x) for x in xs)
    for log in logs:
        stats = duplicate_stats(log, catalog=cat)
        for i in range(len(stats.gens)):
            ok &= (0.0 <= stats.per_gen["simplified"][i]
                   <= stats.per_gen["structures"][i]
                   <= stats.per_gen["expr"][i] <= 1.0)
    _report("C10 ECDF monotonicity and duplicate-stats ordering", ok,
            f"{len(logs)} logs scanned")
