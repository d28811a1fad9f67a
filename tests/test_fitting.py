import math

import numpy as np
import pytest

from esrlab import expr as ex
from esrlab.dataset import Dataset, bundled_synthetic_path, load_csv
from esrlab.fitting import (ESR_FIT, GP_FIT, FitConfig, entry_seed, fit,
                            fit_catalog, read_results)
from esrlab.objectives import mnr_loglik
from esrlab.simplify import canonicalize


def test_constant_fit_closed_form(synth):
    res = fit(ex.parse("p1"), synth, "mse", FitConfig(restarts=3), seed=1)
    assert res.theta[0] == pytest.approx(float(np.mean(synth.y)), abs=1e-8)
    assert res.objective == pytest.approx(float(np.var(synth.y)), rel=1e-10)


def test_linear_fit_exact(linear_data):
    res = fit(ex.parse("p1 * x + p2"), linear_data, "mse",
              FitConfig(restarts=2), seed=5)
    assert res.theta[0] == pytest.approx(1.75, abs=1e-8)
    assert res.theta[1] == pytest.approx(-0.5, abs=1e-8)
    assert res.objective < 1e-14


def test_single_restart_convex_reaches_optimum(linear_data):
    res = fit(ex.parse("p1 * x + p2"), linear_data, "mse",
              FitConfig(restarts=1), seed=9)
    assert res.objective < 1e-8


def test_zero_parameter_counts(synth):
    res = fit(ex.parse("x"), synth, "mse", seed=0)
    assert res.n_obj_evals == 1
    assert res.n_grad_evals == 0
    assert res.restarts_used == 0
    assert res.terminations == ("constant",)


def test_deterministic_given_seed(synth):
    e = ex.parse("p1 / (1.0 / (p2 + x) - p3 ^ x)")
    a = fit(e, synth, "mse", FitConfig(restarts=6), seed=77)
    b = fit(e, synth, "mse", FitConfig(restarts=6), seed=77)
    assert a == b
    c = fit(e, synth, "mse", FitConfig(restarts=6), seed=78)
    assert c.theta != a.theta or c.objective == a.objective


def test_more_restarts_never_worse(synth):
    e = ex.parse("p1 - |p2 + 1.0 / (p3 + x)| ^ p4")
    prev = math.inf
    for restarts in (1, 3, 8, 16):
        res = fit(e, synth, "mse", FitConfig(restarts=restarts), seed=13)
        assert res.objective <= prev + 1e-15
        prev = res.objective


def test_degenerate_everywhere_nonfinite():
    data = Dataset(np.array([1.0, 2.0]), np.array([0.0, 1.0]))
    res = fit(ex.parse("1.0 / (x - x)"), data, "mse",
              FitConfig(restarts=2), seed=0)
    assert not math.isfinite(res.objective)
    assert "degenerate" in res.terminations
    res = fit(ex.parse("p1 / (x - x)"), data, "mse",
              FitConfig(restarts=2), seed=0)
    assert not math.isfinite(res.objective)
    assert "degenerate" in res.terminations


def test_restart_patience_stops_early(synth):
    cfg = FitConfig(restarts=200, restart_patience=4)
    res = fit(ex.parse("p1 * x + p2"), synth, "mse", cfg, seed=3)
    assert res.restarts_used <= 12  # convex: converges immediately


def test_mnr_fit_on_linear(noisy_linear_mnr):
    res = fit(ex.parse("p1 * x + p2"), noisy_linear_mnr, "mnr",
              FitConfig(restarts=8), seed=21)
    assert math.isfinite(res.objective)
    assert res.mnr is not None
    assert res.theta[0] == pytest.approx(0.8, abs=0.1)
    assert res.mnr.omega > 0 and res.mnr.sigma_int >= 0
    # reported params follow the (theta..., sigma_int, mu, omega) layout
    assert res.params[:2] == res.theta
    assert res.params[2] == res.mnr.sigma_int


def test_mnr_omega_underflow_is_a_bad_point():
    # on the bundled data some restarts drive log(omega) so low that omega
    # underflows to 0.0; that point is rejected instead of raising
    e = ex.parse("1.0 / |x| ^ (p1 ^ x)")
    data = load_csv(bundled_synthetic_path())
    res = fit(e, data, "mnr", ESR_FIT,
              entry_seed(0, canonicalize(e).semantic_hash))
    assert math.isfinite(res.objective)
    assert res.mnr.omega > 0
    assert res.objective == -mnr_loglik(e, res.mnr, data)


def test_entry_seed_stable():
    assert entry_seed(1, 42) == entry_seed(1, 42)
    assert entry_seed(1, 42) != entry_seed(2, 42)
    assert entry_seed(1, 42) != entry_seed(1, 43)


def test_fit_catalog_and_results_file(tmp_path, linear_data, catalog4):
    out = tmp_path / "results.tsv"
    results = fit_catalog(catalog4, linear_data, "mse",
                          FitConfig(restarts=2), seed=5, out_path=str(out))
    assert len(results) == len(catalog4)
    back = read_results(str(out))
    assert set(back) == set(results)
    for h, res in results.items():
        assert back[h].objective == res.objective
        assert back[h].params == pytest.approx(res.params)
    # x entry fits exactly (slope 1.75 through origin is not in data, so the
    # best linear entry is p1 * x + p2 style; here just check p1 tracks mean)
    from esrlab.simplify import canonicalize
    h = canonicalize(ex.parse("p1")).semantic_hash
    assert results[h].objective == pytest.approx(
        float(np.var(linear_data.y)), rel=1e-9)


def test_fit_catalog_resumes_partial(tmp_path, linear_data, catalog4):
    out = tmp_path / "results.tsv"
    full = fit_catalog(catalog4, linear_data, "mse", FitConfig(restarts=2),
                       seed=5, out_path=str(out))
    text = out.read_text().splitlines(keepends=True)
    entry_lines = [l for l in text if not l.startswith("#")]
    half = len(entry_lines) // 2
    out.write_text("".join(entry_lines[:half]))  # simulate an interrupt
    resumed = fit_catalog(catalog4, linear_data, "mse", FitConfig(restarts=2),
                          seed=5, out_path=str(out))
    assert {h: r.objective for h, r in resumed.items()} == \
        {h: r.objective for h, r in full.items()}
    assert out.read_text().rstrip().endswith("#done")


def test_rerun_on_complete_file_changes_nothing(tmp_path, linear_data,
                                                catalog4):
    out = tmp_path / "results.tsv"
    first = fit_catalog(catalog4, linear_data, "mse", FitConfig(restarts=2),
                        seed=5, out_path=str(out))
    text = out.read_text()
    again = fit_catalog(catalog4, linear_data, "mse", FitConfig(restarts=2),
                        seed=6, out_path=str(out))
    assert out.read_text() == text
    assert text.count("#done") == 1
    assert {h: r.objective for h, r in again.items()} == \
        {h: r.objective for h, r in first.items()}


def test_fit_catalog_order_independent_seeds(linear_data, catalog4):
    # per-entry results depend only on (seed, hash), not processing order
    reversed_catalog = type(catalog4)(catalog4.max_len,
                                      list(reversed(catalog4.entries)),
                                      catalog4.meta)
    a = fit_catalog(catalog4, linear_data, "mse", FitConfig(restarts=2),
                    seed=5)
    b = fit_catalog(reversed_catalog, linear_data, "mse",
                    FitConfig(restarts=2), seed=5)
    assert {h: r.objective for h, r in a.items()} == \
        {h: r.objective for h, r in b.items()}


def test_presets_follow_documented_shapes():
    assert ESR_FIT.restarts == 340
    assert ESR_FIT.rel_tol == 1e-8 and ESR_FIT.abs_tol == 1e-8
    assert GP_FIT.restarts == 1
    assert GP_FIT.max_iters == 10
    assert GP_FIT.init_lo == -3.0 and GP_FIT.init_hi == 3.0
