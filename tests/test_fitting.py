import math

import numpy as np
import pytest

from esrlab import expr as ex, fitting
from esrlab.dataset import Dataset, bundled_synthetic_path, load_csv
from esrlab.fitting import (ESR_FIT, GP_FIT, FitConfig, entry_seed, fit,
                            fit_catalog, read_results)
from esrlab.objectives import mnr_loglik
from esrlab.simplify import canonicalize

from conftest import slow


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


@pytest.mark.parametrize("cut", ["inside_hash", "inside_last_number"])
def test_torn_results_line_is_rejected(tmp_path, linear_data, catalog4, cut):
    out = tmp_path / "results.tsv"
    fit_catalog(catalog4, linear_data, "mse", FitConfig(restarts=2), seed=5,
                out_path=str(out))
    lines = out.read_text().splitlines(keepends=True)
    assert lines[1].count("\t") == 3 and lines[1][-4:-1].isdigit()
    # a cut inside the last number leaves a line that would still parse
    keep = 5 if cut == "inside_hash" else len(lines[1]) - 3
    out.write_text(lines[0] + lines[1][:keep])
    with pytest.raises(ValueError, match=r"results\.tsv:2: "):
        read_results(str(out))


_WORKER_PROBE = """
import json
import os
import sys

import esrlab
import numpy as np
from esrlab.dataset import Dataset
from esrlab.enumeration import Catalog
from esrlab.fitting import GP_FIT, fit_catalog
from esrlab.simplify import CanonicalForm

VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def seen_by_worker(out_dir):
    # runs where the dataset is unpickled: in a fit worker
    with open(os.path.join(out_dir, f"{os.getpid()}.json"), "w") as f:
        json.dump({v: os.environ.get(v) for v in VARS}, f)
    return Dataset(np.zeros(1), np.zeros(1))


class Probe(Dataset):
    def __reduce__(self):
        return seen_by_worker, (sys.argv[1],)


if __name__ == "__main__":
    catalog = Catalog(1, [CanonicalForm(h, 1, 0, "x") for h in (1, 2)])
    fit_catalog(catalog, Probe(np.zeros(1), np.zeros(1)), "mse", GP_FIT,
                workers=2)
"""


def test_a_new_structure_compiles_one_kernel_per_layout_it_uses(synth):
    """A GP-preset fit of a structure not seen before compiles one kernel,
    for one point and bound to the data, and an ESR-preset fit two, for one
    point and for a batch: the end points' mse reuses the fit's kernels."""
    from esrlab import autodiff

    for config, literal, want in ((GP_FIT, "1.375", 1), (ESR_FIT, "1.625", 2)):
        before = autodiff._kernel.cache_info().misses
        fit(ex.parse(f"p1 * x + p2 * |x| ^ {literal}"), synth, "mse", config,
            seed=3)
        assert autodiff._kernel.cache_info().misses - before == want


_UNPICKLE_PROBE = """
import os
import sys

import numpy as np
from esrlab.dataset import Dataset
from esrlab.enumeration import Catalog
from esrlab.fitting import GP_FIT, fit_catalog
from esrlab.simplify import CanonicalForm


def unpickled(path):
    with open(path, "a") as f:
        f.write(f"{os.getpid()}\\n")
    return Dataset(np.linspace(1.0, 2.0, 5), np.linspace(1.0, 2.0, 5))


class Probe(Dataset):
    def __reduce__(self):
        return unpickled, (sys.argv[1],)


if __name__ == "__main__":
    catalog = Catalog(1, [CanonicalForm(h, 1, 0, "x") for h in range(1, 9)])
    fit_catalog(catalog, Probe(np.zeros(5), np.zeros(5)), "mse", GP_FIT,
                workers=2)
"""


def test_fit_workers_get_the_dataset_once(tmp_path):
    """Each fit worker unpickles the dataset once, however many entries it
    fits: a bound kernel is cached per dataset object."""
    import os
    import subprocess
    import sys

    script = tmp_path / "probe.py"
    script.write_text(_UNPICKLE_PROBE)
    seen = tmp_path / "unpickled"
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, str(script), str(seen)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    pids = seen.read_text().split()
    assert 1 <= len(pids) <= 2 and len(set(pids)) == len(pids)


def test_fit_workers_inherit_the_blas_pin(tmp_path):
    """Importing esrlab pins BLAS to one thread where the environment does
    not already set the thread count, and spawned fit workers inherit it."""
    import json
    import os
    import subprocess
    import sys

    script = tmp_path / "probe.py"
    script.write_text(_WORKER_PROBE)
    seen = tmp_path / "seen"
    seen.mkdir()
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["OMP_NUM_THREADS"] = "3"    # the caller's own setting wins
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, str(script), str(seen)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    reports = [json.loads(p.read_text()) for p in seen.iterdir()]
    assert reports and all(
        r == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3",
              "MKL_NUM_THREADS": "1"} for r in reports)


@pytest.mark.parametrize("probe", [
    "import esrlab.cli\n"
    "assert 'scipy.optimize._lbfgsb' in sys.modules\n"
    "assert 'scipy.optimize' not in sys.modules\n"
    "assert 'scipy.linalg' not in sys.modules\n",
    "from esrlab import fitting\n"
    "from scipy.optimize import _lbfgsb\n"
    "assert fitting.setulb is _lbfgsb.setulb\n",
    "from scipy.optimize import _lbfgsb\n"
    "from esrlab import fitting\n"
    "assert fitting.setulb is _lbfgsb.setulb\n",
], ids=["cli_loads_lbfgsb_alone", "fitting_first", "scipy_first"])
def test_import_loads_only_the_lbfgsb_extension(probe):
    """Importing esrlab loads scipy's compiled L-BFGS-B module, not the
    ``scipy.optimize`` package around it, and the routine is the one
    object whichever of the two a fresh interpreter imports first."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", "import sys\n" + probe],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


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
                                      list(reversed(catalog4.entries)))
    a = fit_catalog(catalog4, linear_data, "mse", FitConfig(restarts=2),
                    seed=5)
    b = fit_catalog(reversed_catalog, linear_data, "mse",
                    FitConfig(restarts=2), seed=5)
    assert {h: r.objective for h, r in a.items()} == \
        {h: r.objective for h, r in b.items()}


def test_a_crawling_restart_stops_at_the_point_budget():
    """One restart of this fit crawls, most of its 500 iterations spent in
    line searches; the 2,000-point budget stops it early, and the best
    objective, found by another restart, is kept to the last bit."""
    e = ex.parse("1.0 / p1 ^ (x * x)")
    data = load_csv(bundled_synthetic_path())
    res = fit(e, data, "mse", ESR_FIT,
              entry_seed(0, canonicalize(e).semantic_hash))
    assert repr(res.objective) == "0.3563444101520543"
    assert res.restarts_used == 21
    assert res.n_obj_evals == 2448      # 9414 without the budget
    assert res.terminations.count("eval_limit") == 1
    assert "iter_limit" not in res.terminations


def test_point_budget_never_loosens_a_limit(synth, monkeypatch):
    """The evaluation limit ``fit`` passes to ``minimize`` is 2,000 points
    under ESR_FIT; it is never looser than ``max(20 * max_iters, 100)``,
    and for ``mse`` with at most 100 iterations, GP_FIT's 10 among them,
    it is exactly that, so GP logs cannot drift."""
    limits = []
    minimize = fitting.minimize

    def recording(*args):
        limits.append(args[-1])
        return minimize(*args)

    monkeypatch.setattr(fitting, "minimize", recording)
    # an mnr point costs 1 + dim evaluations: 2,000 of them pass 10,000
    # unless mnr fits the hyperparameters alone (dim 3)
    for text, objective, esr in (("p1 / (x + p2)", "mse", 2000),
                                 ("p1 / (x + p2)", "mnr", 10000),
                                 ("x", "mnr", 8000)):
        for max_iters in (GP_FIT.max_iters, ESR_FIT.max_iters):
            fit(ex.parse(text), synth, objective,
                FitConfig(max_iters=max_iters), seed=0)
        assert limits == [200, esr]
        del limits[:]
    for max_iters in range(1, 1001):
        config = FitConfig(max_iters=max_iters)
        today = max(20 * max_iters, 100)
        for dim in range(1, 12):
            assert fitting._max_evals(config, False, dim) <= today
            limit = fitting._max_evals(config, True, dim)
            assert limit == today if max_iters <= 100 else limit <= today


def test_presets_follow_documented_shapes():
    assert ESR_FIT.restarts == 340
    assert fitting._REL_TOL == 1e-8 and fitting._ABS_TOL == 1e-8
    assert GP_FIT.restarts == 1
    assert GP_FIT.max_iters == 10
    assert fitting._INIT_LO == -3.0 and fitting._INIT_HI == 3.0


def _objective_fun(e, data, objective):
    """The batched function ``fit`` minimizes, counting the rows it
    evaluates: [objective rows, gradient rows]."""
    if objective == "mse":
        fun = fitting._mse_value_grad(e, data)
    else:
        fun = fitting._mnr_value(e, data, ex.param_count(e))
    counts = [0, 0]

    def counted(points):
        counts[0] += len(points)
        counts[1] += len(points) if objective == "mse" else 0
        return fun(points)

    return counted, counts


def _options(config, maxfun=None):
    return dict(maxiter=config.max_iters, ftol=fitting._REL_TOL * 1e-3,
                gtol=fitting._ABS_TOL * 1e-3,
                maxfun=maxfun or max(config.max_iters * 20, 100))


def _lbfgsb_both(e, data, objective, config, x0, maxfun=None):
    """One start under ``fitting.minimize`` and under scipy's L-BFGS-B, with
    the tolerances and iteration limit ``fit`` uses and the evaluation limit
    ``maxfun``, by default ``max(20 * max_iters, 100)``; returns both
    results and the (objective, gradient) evaluations each made."""
    from scipy.optimize import minimize as scipy_minimize

    opts = _options(config, maxfun)
    fun, counts = _objective_fun(e, data, objective)
    res = fitting.minimize(fun, x0[None], objective == "mse", **opts)[0]
    assert res.nobj == counts[0]
    runs = [(res, tuple(counts))]
    fun, counts = _objective_fun(e, data, objective)
    if objective == "mse":
        def one(x):
            values, grads = fun(x[None])
            return values[0], grads[0]
    else:
        def one(x):
            return fun(x[None])[0]
    res = scipy_minimize(one, x0, jac=True if objective == "mse" else None,
                         method="L-BFGS-B", options=opts)
    runs.append((res, tuple(counts)))
    return runs


@pytest.mark.parametrize("case",
                         ["mse", "mnr", "gp_cap", "maxfun", "nan", "bad"])
def test_minimize_matches_scipy_lbfgsb(case, synth):
    """The in-house driver reproduces scipy's L-BFGS-B bit for bit; a scipy
    whose compiled routine changes makes this fail rather than drift."""
    rng = np.random.default_rng(11)
    text, objective, config, x0 = {
        "mse": ("p1 / (x + p2)", "mse", ESR_FIT, rng.uniform(-3, 3, 2)),
        "mnr": ("p1 * x ^ p2", "mnr", ESR_FIT, rng.uniform(-3, 3, 5)),
        "gp_cap": ("p1 * |x| ^ (p2 * x)", "mse", GP_FIT,
                   rng.uniform(-3, 3, 2)),
        "maxfun": ("p1 / (x + p2)", "mse", ESR_FIT, rng.uniform(-3, 3, 2)),
        # the line search drives p1 to NaN, where the objective is bad
        "nan": ("|x| ^ p1", "mse", ESR_FIT,
                np.random.default_rng(2).uniform(-300, 300, 1)),
        # omega = exp(-800) underflows, so the start is a bad point; at
        # p1 = 1e9 the finite-difference step 1e-8 would not move p1
        "bad": ("p1 * x + p2", "mnr", ESR_FIT,
                np.array([1e9, 0.0, 0.0, -800.0, 0.0])),
    }[case]
    (ours, our_evals), (theirs, their_evals) = _lbfgsb_both(
        ex.parse(text), synth, objective, config, x0,
        maxfun=30 if case == "maxfun" else None)
    assert ours.x.tobytes() == theirs.x.tobytes()
    assert repr(ours.fun) == repr(float(theirs.fun))
    assert (ours.nfev, ours.njev, ours.success) == \
        (theirs.nfev, theirs.njev, theirs.success)
    assert our_evals == their_evals
    if case == "gp_cap":
        assert theirs.nit == GP_FIT.max_iters and not theirs.success
        assert ours.stop == 504 and "ITERATIONS REACHED LIMIT" in \
            theirs.message
    if case == "maxfun":
        assert theirs.nfev > 30 and not theirs.success
        assert ours.stop == 502 and "EVALUATIONS EXCEEDS LIMIT" in \
            theirs.message
    if case == "nan":
        assert np.isnan(theirs.x).any() and their_evals[0] > theirs.nfev
    if case == "bad":
        assert theirs.fun == 1e300


# every fourth catalog(5) entry under mse; under mnr a spread of 0-, 1- and
# 2-parameter entries, one of them degenerate
_GOLDEN_MSE = slice(None, None, 4)
_GOLDEN_MNR = (2, 4, 52, 56, 63, 82, 93)
_GOLDEN_FITS = {"mse": "543fc15584f4a15f", "mnr": "26c981bf9fe696a2"}


@pytest.mark.parametrize("objective", ["mse", "mnr"])
def test_golden_esr_fits(objective, synth):
    """ESR-preset fits at seed 0 are pinned to the last bit: objective,
    evaluation counts, restarts used, parameters and terminations."""
    import dataclasses
    import hashlib
    from esrlab.enumeration import build_catalog

    catalog = build_catalog(5)
    if objective == "mse":
        entries = catalog.entries[_GOLDEN_MSE]
    else:
        entries = [catalog.entries[i] for i in _GOLDEN_MNR]
    subset = dataclasses.replace(catalog, entries=entries)
    results = fit_catalog(subset, synth, objective, ESR_FIT, seed=0)
    h = hashlib.sha256()
    for entry in entries:
        r = results[entry.semantic_hash]
        h.update(f"{entry.text}\t{r.objective!r}\t{r.n_obj_evals}\t"
                 f"{r.n_grad_evals}\t{r.restarts_used}\t{r.params!r}\t"
                 f"{r.terminations}\n".encode())
    assert h.hexdigest()[:16] == _GOLDEN_FITS[objective]


def _counted_mnr_value(monkeypatch, text, data):
    """``fitting._mnr_value`` for ``text`` and the list of thetas at which
    the expression is evaluated, one (U, k) array per call."""
    from esrlab import objectives

    calls = []
    real = objectives.eval_with_grad

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(objectives, "eval_with_grad", counting)
    e = ex.parse(text)
    return fitting._mnr_value(e, data, ex.param_count(e)), calls


def test_mnr_hyperparameter_moves_reuse_the_expression(monkeypatch,
                                                       noisy_linear_mnr):
    fun, calls = _counted_mnr_value(monkeypatch, "p1 * x + p2",
                                    noisy_linear_mnr)
    x = np.array([0.7, 0.2, 0.1, -1.0, -2.0])
    fun(x[None])
    assert len(calls) == 1 and len(calls[0]) == 1
    moved = np.repeat(x[None], 4, axis=0)
    for i in (2, 3, 4):
        moved[i - 1, i] += 0.5
    calls.clear()
    fun(moved)
    assert len(calls) == 1 and len(calls[0]) == 1
    # a forward-difference gradient evaluates the expression at the centre
    # and once per expression parameter: 1 + k distinct thetas, and a round
    # of two runs makes one call
    calls.clear()
    fitting._evaluate(fun, False, [fitting._Run(x), fitting._Run(-x)])
    assert len(calls) == 1 and len(calls[0]) == 2 * (1 + 2)


def test_mnr_signed_zero_theta_is_evaluated_afresh(monkeypatch,
                                                   noisy_linear_mnr):
    # 0.0 == -0.0, but the rows must not share each other's terms
    fun, calls = _counted_mnr_value(monkeypatch, "x * p1", noisy_linear_mnr)
    fun(np.array([[0.0, 0.1, -1.0, -2.0], [-0.0, 0.1, -1.0, -2.0]]))
    assert len(calls) == 1 and len(calls[0]) == 2
    assert np.signbit(calls[0][1, 0]) and not np.signbit(calls[0][0, 0])


@pytest.mark.parametrize("objective", ["mse", "mnr"])
def test_lockstep_rows_match_runs_alone(objective, synth):
    """Every row of a lockstep batch ends where its start ends alone, with
    the same evaluations: a normal start, the NaN start (mse) or the bad
    start (mnr) of the scipy parity test, and a start that stops on the
    evaluation limit."""
    if objective == "mse":
        e, maxfun = ex.parse("|x| ^ p1"), 10
        x0 = np.array([[-0.00433283],
                       np.random.default_rng(2).uniform(-300, 300, 1),
                       [-2.82786595]])
    else:
        e, maxfun = ex.parse("p1 * x + p2"), 250
        rng = np.random.default_rng(3)
        slow, normal = rng.uniform(-3, 3, 5), rng.uniform(-3, 3, 5)
        x0 = np.array([normal, [1e9, 0.0, 0.0, -800.0, 0.0], slow])
    opts = _options(ESR_FIT, maxfun)
    fun, counts = _objective_fun(e, synth, objective)
    batch = fitting.minimize(fun, x0, objective == "mse", **opts)
    evals = [0, 0]
    for row, res in zip(x0, batch):
        fun, alone_counts = _objective_fun(e, synth, objective)
        alone, = fitting.minimize(fun, row[None], objective == "mse", **opts)
        assert res.x.tobytes() == alone.x.tobytes()
        assert repr(res.fun) == repr(alone.fun)
        assert (res.nfev, res.njev, res.success, res.nobj, res.stop) == \
            (alone.nfev, alone.njev, alone.success, alone_counts[0],
             alone.stop)
        evals[0] += alone_counts[0]
        evals[1] += alone_counts[1]
    assert counts == evals
    assert batch[0].success and batch[1].fun == 1e300
    assert batch[2].nfev > maxfun and batch[2].stop == 502
    if objective == "mse":
        assert np.isnan(batch[1].x).any() and counts[0] > sum(
            res.nfev for res in batch)


@pytest.mark.parametrize("text, objective, config", [
    ("p1 / (x + p2)", "mse", GP_FIT), ("p1 / (x + p2)", "mse", ESR_FIT),
    ("p1 / (x + p2)", "mnr", GP_FIT), ("p1 / (x + p2)", "mnr", ESR_FIT),
    ("x * x", "mse", ESR_FIT),
    # their fits ask for points holding a NaN, which are evaluated twice
    ("|x| ^ (1.0 / (x + p1))", "mse", ESR_FIT),
    ("1.0 / |x| ^ (|x| ^ p1)", "mse", ESR_FIT),
])
def test_fit_seeds_match_fits_alone(text, objective, config, synth,
                                    monkeypatch):
    """Each seed of one ``fit_seeds`` call gets the result, counts included,
    of ``fit`` with that seed alone, whatever the other seeds' restarts."""
    e = ex.parse(text)
    seeds = [0, 1, 2, 3, 4, 5, 3]
    runs = []
    minimize = fitting.minimize

    def recording(*args):
        res = minimize(*args)
        runs.extend(res)
        return res

    monkeypatch.setattr(fitting, "minimize", recording)
    together = fitting.fit_seeds(e, synth, objective, config, seeds)
    assert len(together) == len(seeds)
    for seed, res in zip(seeds, together):
        assert repr(res) == repr(fit(e, synth, objective, config, seed))
    if config is ESR_FIT and ex.param_count(e) > 1:
        assert len({res.restarts_used for res in together}) > 2
    if "|x| ^" in text:
        assert any(res.nobj > res.nfev for res in runs)
    if text == "x * x":
        assert together[0].n_obj_evals == 1 and not runs


# the benchmark's fits: every entry of perfbench/data/catalog_l6.tsv under
# mse and a 32-entry spread under mnr, at fit seed 0 on the bundled data;
# and `esrlab fit` results files for catalog(5)
_GOLDEN_L6_MNR = slice(0, 320, 10)
_GOLDEN_L6 = {"mse": "c1e7f69b2efeb12f", "mnr": "803544e64327d6f9"}
_GOLDEN_RESULTS_L5 = {"mse": "9de8433a2db4f391", "mnr": "79fafc12161c171b"}


@slow
@pytest.mark.parametrize("objective", ["mse", "mnr"])
def test_golden_benchmark_fits_slow(objective):
    import hashlib
    import os
    from esrlab.enumeration import read_catalog

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    catalog = read_catalog(os.path.join(root, "perfbench", "data",
                                        "catalog_l6.tsv"))
    assert len(catalog.entries) == 334
    entries = catalog.entries if objective == "mse" else \
        catalog.entries[_GOLDEN_L6_MNR]
    data = load_csv(bundled_synthetic_path())
    h = hashlib.sha256()
    for entry in entries:
        r = fit(ex.parse(entry.text), data, objective, ESR_FIT,
                entry_seed(0, entry.semantic_hash))
        h.update(f"{entry.text}\t{r.objective!r}\t{r.n_obj_evals}\t"
                 f"{r.n_grad_evals}\t{r.restarts_used}\t{r.params!r}\t"
                 f"{r.terminations}\n".encode())
    assert h.hexdigest()[:16] == _GOLDEN_L6[objective]


@slow
@pytest.mark.parametrize("objective", ["mse", "mnr"])
def test_golden_results_files_slow(objective, tmp_path):
    import hashlib
    from esrlab.cli import main

    catalog = tmp_path / "c5.tsv"
    assert main(["enumerate", "--max-length", "5", "--out",
                 str(catalog)]) == 0
    digests = []
    for workers in (1, 2):
        out = tmp_path / f"{objective}-{workers}.tsv"
        assert main(["fit", "--catalog", str(catalog), "--data",
                     bundled_synthetic_path(), "--objective", objective,
                     "--out", str(out), "--workers", str(workers)]) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest()[:16])
    assert digests == [_GOLDEN_RESULTS_L5[objective]] * 2
