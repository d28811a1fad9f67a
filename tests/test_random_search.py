import math
from collections import Counter

import pytest

from esrlab.fitting import FitConfig, fit_catalog
from esrlab.random_search import run_rs

FAST_FIT = FitConfig(restarts=2, max_iters=60)


@pytest.fixture(scope="module")
def rs_logs(catalog4, linear_data):
    results = fit_catalog(catalog4, linear_data, "mse", FAST_FIT, seed=3)
    return run_rs(catalog4, linear_data, "mse", FAST_FIT, runs=12, seed=3,
                  results=results), results


def test_full_traversal(rs_logs, catalog4):
    logs, _ = rs_logs
    for log in logs:
        assert len(log.records) == len(catalog4)


def test_no_revisits_within_run(rs_logs):
    logs, _ = rs_logs
    for log in logs:
        hashes = [r.sem_hash for r in log.records]
        assert len(hashes) == len(set(hashes))


def test_final_best_is_catalog_optimum(rs_logs):
    logs, results = rs_logs
    optimum = min(v.objective for v in results.values())
    for log in logs:
        assert min(r.fitness for r in log.records) == optimum


def test_cumulative_best_monotone(rs_logs):
    logs, _ = rs_logs
    for log in logs:
        best = math.inf
        series = []
        for r in log.records:
            best = min(best, r.fitness)
            series.append(best)
        assert series == sorted(series, reverse=True)


def test_fevals_accumulate(rs_logs):
    logs, _ = rs_logs
    for log in logs:
        fevals = [r.fevals for r in log.records]
        assert all(b > a for a, b in zip(fevals, fevals[1:]))


def test_partial_results_are_completed(rs_logs, catalog4, linear_data):
    # entries missing from ``results`` are fitted with the same per-entry
    # seeds, so the logs equal those from full results
    logs, results = rs_logs
    partial = dict(list(results.items())[::2])
    again = run_rs(catalog4, linear_data, "mse", FAST_FIT, runs=12, seed=3,
                   results=partial)
    assert [log.records for log in again] == [log.records for log in logs]
    assert len(partial) < len(results)


def test_runs_differ_but_reproduce(catalog4, linear_data):
    results = fit_catalog(catalog4, linear_data, "mse", FAST_FIT, seed=3)
    a = run_rs(catalog4, linear_data, "mse", FAST_FIT, runs=2, seed=3,
               results=results)
    b = run_rs(catalog4, linear_data, "mse", FAST_FIT, runs=2, seed=3,
               results=results)
    assert a[0].records == b[0].records
    assert a[0].records != a[1].records


def test_permutation_uniform_first_element(catalog4, linear_data):
    # first-visited entry over many seeded runs is uniform within 4 sigma
    results = fit_catalog(catalog4, linear_data, "mse", FAST_FIT, seed=3)
    small = type(catalog4)(catalog4.max_len, catalog4.entries[:10],
                           catalog4.meta)
    logs = run_rs(small, linear_data, "mse", FAST_FIT, runs=10000, seed=11,
                  results=results)
    counts = Counter(log.records[0].sem_hash for log in logs)
    n, k = 10000, 10
    expected = n / k
    sigma = math.sqrt(n * (1 / k) * (1 - 1 / k))
    for h, c in counts.items():
        assert abs(c - expected) < 4 * sigma


def test_first_success_rank_matches_order_statistics(catalog4, linear_data):
    # threshold met by m of N entries: expected first-success rank is
    # (N+1)/(m+1); check the empirical mean within a loose band
    results = fit_catalog(catalog4, linear_data, "mse", FAST_FIT, seed=3)
    values = sorted(v.objective for v in results.values())
    m = 4
    threshold = values[m - 1]
    n_entries = len(values)
    logs = run_rs(catalog4, linear_data, "mse", FAST_FIT, runs=400, seed=29,
                  results=results)
    firsts = []
    for log in logs:
        for i, r in enumerate(log.records, 1):
            if r.fitness <= threshold:
                firsts.append(i)
                break
    expected = (n_entries + 1) / (m + 1)
    mean = sum(firsts) / len(firsts)
    assert len(firsts) == 400
    assert expected / 2 < mean < expected * 2
