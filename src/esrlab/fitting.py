"""Parameter fitting: multi-restart quasi-Newton maximum likelihood.

Each restart draws a start uniformly from the configured box and runs
L-BFGS-B to the configured tolerances.  For the marginal likelihood the
optimization vector is [theta, mu, log omega, log sigma_int], maximized
jointly; a point where omega underflows to zero counts as a bad point.
Restarts stop early once ``restart_patience`` consecutive starts fail to
improve the best objective by more than the absolute tolerance.

``fit_catalog`` is the one loop that fits catalog entries, serially or in a
process pool; the random-search baseline and the command line both go
through it.  Each entry's seed derives from (global seed, entry hash), so
results do not depend on the order or the process an entry is fitted in.

Results files are tab-separated text, one line per catalog entry, in
catalog order:

    <hash>\t<objective>\t<n_evals>\t<comma-joined parameters>

For the marginal likelihood the parameter list carries the expression
parameters followed by sigma_int, mu, omega.  A trailing ``#done`` line
marks a complete file; without it the file is a resumable partial result.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from . import expr as ex
from .expr import Expr
from .autodiff import eval_with_grad
from .dataset import Dataset
from .objectives import MnrParams, mse, mnr_loglik

__all__ = [
    "FitConfig", "FitResult", "fit", "fit_catalog",
    "ESR_FIT", "GP_FIT", "read_results", "entry_seed",
]


@dataclass(frozen=True)
class FitConfig:
    restarts: int = 1
    init_lo: float = -3.0
    init_hi: float = 3.0
    max_iters: int = 500
    rel_tol: float = 1e-8
    abs_tol: float = 1e-8
    restart_patience: int = 20

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


# the exhaustive-search preset (deep multi-restart search) and the preset
# used inside GP evaluations (a single short run)
ESR_FIT = FitConfig(restarts=340, max_iters=500, restart_patience=20)
GP_FIT = FitConfig(restarts=1, max_iters=10)

_BAD = 1e300


@dataclass(frozen=True)
class FitResult:
    theta: tuple
    objective: float
    restarts_used: int
    n_obj_evals: int
    n_grad_evals: int
    terminations: tuple
    mnr: Optional[MnrParams] = None

    @property
    def params(self) -> tuple:
        """Parameters as written to results files (theta then hypers)."""
        if self.mnr is None:
            return self.theta
        return self.theta + (self.mnr.sigma_int, self.mnr.mu, self.mnr.omega)


class _Counter:
    __slots__ = ("obj", "grad")

    def __init__(self):
        self.obj = 0
        self.grad = 0


def _mse_value_grad(e: Expr, data: Dataset, counter: _Counter):
    y = data.y
    n = len(y)

    def fun(vec):
        counter.obj += 1
        counter.grad += 1
        with np.errstate(all="ignore"):
            f, g = eval_with_grad(e, vec, data.x, wrt="params")
            r = f - y
            val = float(np.mean(r * r))
            grad = (2.0 / n) * (g @ r)
        if not math.isfinite(val):
            return _BAD, np.zeros_like(vec)
        if not np.all(np.isfinite(grad)):
            grad = np.zeros_like(vec)
        return val, grad

    return fun


def _mnr_value(e: Expr, data: Dataset, n_params: int, counter: _Counter):
    def fun(vec):
        counter.obj += 1
        theta = tuple(vec[:n_params])
        mu = vec[n_params]
        omega = math.exp(min(vec[n_params + 1], 300.0))
        if not omega > 0:
            return _BAD
        sigma_int = math.exp(min(vec[n_params + 2], 300.0))
        val = -mnr_loglik(e, MnrParams(theta, mu, omega, sigma_int), data)
        if not math.isfinite(val):
            return _BAD
        return val

    return fun


def _objective_value(e: Expr, data: Dataset, objective: str, vec) -> float:
    if objective == "mse":
        return mse(e, vec, data)
    n_params = ex.param_count(e)
    theta = tuple(vec[:n_params])
    mu = vec[n_params]
    omega = math.exp(vec[n_params + 1])
    if not omega > 0:
        return math.inf
    sigma_int = math.exp(vec[n_params + 2])
    return -mnr_loglik(e, MnrParams(theta, mu, omega, sigma_int), data)


def fit(e: Expr, data: Dataset, objective: str = "mse",
        config: FitConfig = FitConfig(), seed: int = 0) -> FitResult:
    """Fit the parameters of ``e`` to ``data``; deterministic given seed.

    objective "mse" minimizes the mean squared error with analytic
    gradients; "mnr" maximizes the marginal log-likelihood jointly in theta,
    mu, omega and sigma_int (the reported objective is the negative
    log-likelihood).  Expressions with nothing to optimize are evaluated
    once.
    """
    if objective not in ("mse", "mnr"):
        raise ValueError(f"unknown objective {objective!r}")
    if objective == "mnr" and not data.has_uncertainties:
        raise ValueError("mnr objective requires sigma_x and sigma_y columns")
    n_params = ex.param_count(e)
    dim = n_params + (3 if objective == "mnr" else 0)
    counter = _Counter()

    if dim == 0:
        counter.obj += 1
        val = mse(e, (), data)
        reasons = ("constant",) if math.isfinite(val) else \
            ("constant", "degenerate")
        return FitResult((), val, 0, counter.obj, counter.grad, reasons)

    rng = np.random.default_rng(seed)
    if objective == "mse":
        fun = _mse_value_grad(e, data, counter)
        jac = True
    else:
        fun = _mnr_value(e, data, n_params, counter)
        jac = None

    best_vec = None
    best_val = math.inf
    terminations = []
    since_improve = 0
    used = 0
    for _ in range(config.restarts):
        used += 1
        x0 = rng.uniform(config.init_lo, config.init_hi, dim)
        # scipy tolerances sit well below the declared bounds so that convex
        # problems reach parameter-level accuracy at the declared tolerance
        res = minimize(
            fun, x0, jac=jac, method="L-BFGS-B",
            options={
                "maxiter": config.max_iters,
                "ftol": config.rel_tol * 1e-3,
                "gtol": config.abs_tol * 1e-3,
                "maxfun": max(config.max_iters * 20, 100),
            })
        if jac is None:
            counter.grad += int(res.njev) if hasattr(res, "njev") else 0
        val = _objective_value(e, data, objective, res.x)
        counter.obj += 1
        if res.success:
            terminations.append("converged")
        else:
            terminations.append("iter_limit")
        if math.isfinite(val) and val < best_val - config.abs_tol:
            best_val = val
            best_vec = np.array(res.x)
            since_improve = 0
        else:
            if math.isfinite(val) and val < best_val:
                best_val = val
                best_vec = np.array(res.x)
            since_improve += 1
        if since_improve >= config.restart_patience:
            break

    if best_vec is None:
        return FitResult(tuple(), math.inf, used, counter.obj, counter.grad,
                         tuple(terminations) + ("degenerate",))
    if objective == "mse":
        return FitResult(tuple(float(v) for v in best_vec), best_val, used,
                         counter.obj, counter.grad, tuple(terminations))
    theta = tuple(float(v) for v in best_vec[:n_params])
    hyper = MnrParams(theta, float(best_vec[n_params]),
                      math.exp(best_vec[n_params + 1]),
                      math.exp(best_vec[n_params + 2]))
    return FitResult(theta, best_val, used, counter.obj, counter.grad,
                     tuple(terminations), mnr=hyper)


def entry_seed(global_seed: int, semantic_hash: int) -> int:
    """Per-entry seed derived from the global seed and the entry hash."""
    payload = struct.pack("<qQ", global_seed, semantic_hash & (2**64 - 1))
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def fit_catalog(catalog, data: Dataset, objective: str = "mse",
                config: FitConfig = ESR_FIT, seed: int = 0,
                out_path: Optional[str] = None,
                progress=None, workers: int = 1) -> dict:
    """Fit every catalog entry; returns {semantic_hash: FitResult}.

    Entry seeds derive from (seed, hash) so results are independent of
    processing order.  When ``out_path`` is given, entries already in it
    are read back instead of fitted, and new results are appended line by
    line in catalog order: an interrupted run leaves a valid partial file
    that a rerun resumes.  The ``#done`` footer is written once.  With
    ``workers > 1`` the entries to fit go to a pool of that many processes;
    the results, and the file, are the same as with one.
    """
    done: dict = {}
    complete = False
    if out_path is not None:
        try:
            done, complete = _read_results(out_path)
        except FileNotFoundError:
            pass
    todo = [e for e in catalog.entries if e.semantic_hash not in done]
    pool = None
    if workers > 1 and len(todo) > 1:
        # imported here so that importing this module stays cheap
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from itertools import repeat
        pool = ProcessPoolExecutor(
            min(workers, len(todo)),
            mp_context=multiprocessing.get_context("spawn"))
        fits = pool.map(_fit_entry, todo, repeat(data), repeat(objective),
                        repeat(config), repeat(seed))
    else:
        fits = (_fit_entry(e, data, objective, config, seed) for e in todo)
    sink = None
    try:
        if out_path is not None and (todo or not complete):
            sink = open(out_path, "a", encoding="utf-8")
        for i, (entry, res) in enumerate(zip(todo, fits), 1):
            done[entry.semantic_hash] = res
            if sink is not None:
                sink.write(_result_line(entry.semantic_hash, res))
                sink.flush()
            if progress is not None and i % 100 == 0:
                progress(len(done), len(catalog.entries))
        if sink is not None and not complete:
            sink.write("#done\n")
    finally:
        if sink is not None:
            sink.close()
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return done


def _fit_entry(entry, data: Dataset, objective: str, config: FitConfig,
               seed: int) -> FitResult:
    return fit(ex.parse(entry.text), data, objective, config,
               entry_seed(seed, entry.semantic_hash))


def _result_line(h: int, res: FitResult) -> str:
    params = ",".join(repr(float(p)) for p in res.params)
    return f"{h}\t{res.objective!r}\t{res.n_obj_evals}\t{params}\n"


def read_results(path: str) -> dict:
    """Read a results file into {hash: FitResult} (partial files allowed)."""
    return _read_results(path)[0]


def _read_results(path: str) -> tuple:
    """({hash: FitResult}, whether the file carries the ``#done`` footer)."""
    out: dict = {}
    complete = False
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#done"):
                complete = True
            if line.startswith("#") or not line.strip():
                continue
            h, obj, n_evals, params = line.rstrip("\n").split("\t")
            vals = tuple(float(v) for v in params.split(",")) if params else ()
            out[int(h)] = FitResult(vals, float(obj), 0, int(n_evals), 0,
                                    ("loaded",))
    return out, complete
