"""Parameter fitting: multi-restart quasi-Newton maximum likelihood.

Each restart draws a start uniformly from the box [-3, 3] in every
coordinate and runs L-BFGS-B to relative and absolute tolerances of 1e-8.
``minimize`` drives scipy's compiled L-BFGS-B routine ``setulb`` directly:
the routine uses reverse communication, returning to its caller whenever it
needs the objective, so the caller owns the evaluation loop.  That lets one
``minimize`` run several restarts in lockstep: each keeps its own ``setulb``
state, and each round advances every active run until it asks for a new
point or stops, then evaluates all the points asked for, with their
forward-difference points, in one batched call of the objective.  Only the
evaluations are pooled, and ``minimize`` keeps each run's bookkeeping that
of ``scipy.optimize.minimize(method="L-BFGS-B")``, so every run takes the
same steps and makes the same evaluations as it would alone.
``setulb`` is loaded from the file of its compiled extension,
``scipy/optimize/_lbfgsb``, not through ``import scipy.optimize``: the
package's ``__init__`` loads linalg, sparse, linprog and more, which took
0.6 s and 40 MB (2-vCPU Xeon, Python 3.11, scipy 1.17) in every process
that imports this module, CLI commands and spawned fit workers alike,
against a few milliseconds for the extension.
The ``mse`` objective evaluates through ``autodiff.mse_kernel``: one
generated function, bound to the dataset, gives the mean squared errors and
their gradients at a batch of points, with every subtree that holds no
parameter computed once, when the kernel is compiled.  A fit compiles its
one-point and its batch kernel at first use, so a one-restart fit compiles
one.
For the marginal likelihood the optimization vector is
[theta, mu, log omega, log sigma_int], maximized jointly; a point where
omega underflows to zero counts as a bad point.  Restarts stop early once
``restart_patience`` consecutive starts fail to improve the best objective
by more than the absolute tolerance.  ``fit`` runs its restarts in batches
of min(restart_patience - starts since the last improvement, restarts
left): the fewest the one-at-a-time loop must still run before patience
could stop it.  Starts are drawn and results folded in restart order, so
the restarts used, evaluation counts and results are those of that loop.
``fit_seeds`` fits one expression under several seeds, and its lockstep
spans them: each round, the batches of every seed still running go to one
``minimize`` call.  Each seed draws from its own generator and each run
counts its own evaluations, so a seed's result, counts included, is that of
``fit`` with that seed alone; ``fit`` is ``fit_seeds`` with one seed.

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
import importlib.machinery
import importlib.util
import math
import os
import struct
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import expr as ex
from ._files import InputError, read_lines
from .expr import Expr
# the benchmark's tracer (perfbench/tracing.py) patches eval_with_grad, mse
# and mnr_loglik by name on this module, so all three stay bound here,
# eval_with_grad though nothing here calls it
from .autodiff import eval_with_grad, mse_kernel
from .dataset import Dataset
from .objectives import MnrBatch, MnrParams, mse, mnr_loglik, mnr_terms

__all__ = [
    "FitConfig", "FitResult", "fit", "fit_seeds", "fit_catalog",
    "ESR_FIT", "GP_FIT", "read_results", "entry_seed", "exit_with_parent",
]


def _load_setulb():
    """``setulb`` from scipy's ``optimize/_lbfgsb`` extension file, loaded
    without running the ``scipy`` or ``scipy.optimize`` package code.  The
    module is registered under its own name, so a later ``import
    scipy.optimize`` reuses it through ``sys.modules`` (though the package
    does not get it as an attribute), and one already loaded is reused
    here."""
    name = "scipy.optimize._lbfgsb"
    if name in sys.modules:
        return sys.modules[name].setulb
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    folder = os.path.join(scipy_spec.submodule_search_locations[0], "optimize")
    paths = [os.path.join(folder, "_lbfgsb" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"no compiled _lbfgsb extension in {folder}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module.setulb


setulb = _load_setulb()


@dataclass(frozen=True)
class FitConfig:
    restarts: int = 1
    max_iters: int = 500
    restart_patience: int = 20

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


# the box restarts draw their starts from, and the declared tolerances
_INIT_LO, _INIT_HI = -3.0, 3.0
_REL_TOL = _ABS_TOL = 1e-8


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


def _mse_value_grad(e: Expr, data: Dataset):
    kernels = [None, None]      # one theta, a batch: each bound at first use

    def fun(points):
        """Values and gradients at each row of ``points``, from ``e``'s
        kernel bound to ``data``; a row with a non-finite value is a bad
        point, and a non-finite gradient is zeroed."""
        batched = len(points) > 1
        kernel = kernels[batched]
        if kernel is None:
            kernel = kernels[batched] = mse_kernel(e, points.shape[1], data,
                                                   batched)
        _, _, values, grads = kernel(points if batched else points[0])
        if not (all(map(math.isfinite, values)) and np.isfinite(grads).all()):
            for i, value in enumerate(values):
                if not math.isfinite(value):
                    values[i] = _BAD
                    grads[i] = 0.0
                elif not np.isfinite(grads[i]).all():
                    grads[i] = 0.0
        return values, grads

    return fun


def _mnr_value(e: Expr, data: Dataset, n_params: int):
    def fun(points):
        """Negative log-likelihoods at each row of ``points``.  The
        theta-only terms are computed once per distinct theta, keyed on
        bytes, so -0.0 and 0.0 differ, a NaN matches only its own bits, and
        rows that move only the hyperparameters share them."""
        values = [_BAD] * len(points)
        rows, p = _mnr_batch(points, n_params, 300.0)
        if not rows:
            return values
        slots: dict = {}
        firsts, pick = [], []
        for i, theta in enumerate(p.theta):
            key = theta.tobytes()
            if key not in slots:
                slots[key] = len(firsts)
                firsts.append(i)
            pick.append(slots[key])
        terms = mnr_terms(e, p.theta[firsts], data)
        terms = tuple(t[pick] for t in terms)
        for i, v in zip(rows, mnr_loglik(e, p, data, terms)):
            if math.isfinite(v):
                values[i] = -v
        return values

    return fun


def _mnr_batch(points: np.ndarray, n_params: int, cap: float) -> tuple:
    """The rows of ``points`` where omega = exp(min(log omega, cap)) is
    positive, and their ``MnrBatch``; each hyperparameter is exponentiated
    and squared as a Python float, as for one ``MnrParams``."""
    rows, mus, w2s, s2s = [], [], [], []
    for i, row in enumerate(points.tolist()):
        omega = math.exp(min(row[n_params + 1], cap))
        if omega > 0:
            rows.append(i)
            mus.append(row[n_params])
            w2s.append(omega ** 2)
            s2s.append(math.exp(min(row[n_params + 2], cap)) ** 2)
    return rows, MnrBatch(points[rows, :n_params], np.array(mus),
                          np.array(w2s), np.array(s2s))


def _objective_values(e: Expr, data: Dataset, objective: str,
                      points: np.ndarray) -> list:
    """The objective at each row of ``points``, as ``fit`` reports it."""
    if objective == "mse":
        if len(points) == 1:     # the same bits, without a batch axis
            return [mse(e, points[0], data)]
        return mse(e, points, data)
    values = [math.inf] * len(points)
    rows, p = _mnr_batch(points, ex.param_count(e), math.inf)
    if rows:
        for i, v in zip(rows, mnr_loglik(e, p, data)):
            values[i] = -v
    return values


# scipy's L-BFGS-B defaults: stored corrections, line-search steps per
# iteration, and the absolute finite-difference step
_MAXCOR = 10
_MAXLS = 20
_FD_STEP = 1e-8
_EPS = np.finfo(float).eps


class OptResult(NamedTuple):
    x: np.ndarray
    fun: float
    nfev: int
    njev: int
    success: bool
    nobj: int


class _Run:
    """One L-BFGS-B run: the routine's reverse-communication state, the
    point it last asked for, scipy's counts and ``nobj`` (see minimize)."""

    __slots__ = ("x", "f", "g", "last", "nfev", "njev", "nit", "nobj", "nbd",
                 "bound", "wa", "iwa", "task", "ln_task", "lsave", "isave",
                 "dsave")

    def __init__(self, x0: np.ndarray):
        n = len(x0)
        self.x = np.array(x0, dtype=float)
        self.last = self.x.tolist()
        self.nfev = self.njev = self.nit = self.nobj = 0
        self.nbd = np.zeros(n, np.int32)   # no variable is bounded ...
        self.bound = np.zeros(n)           # ... so the bounds are never read
        self.wa = np.zeros(2 * _MAXCOR * n + 5 * n + 11 * _MAXCOR ** 2
                           + 8 * _MAXCOR)
        self.iwa = np.zeros(3 * n, np.int32)
        self.task = np.zeros(2, np.int32)
        self.ln_task = np.zeros(2, np.int32)
        self.lsave = np.zeros(4, np.int32)
        self.isave = np.zeros(44, np.int32)
        self.dsave = np.zeros(29)

    def advance(self, factr: float, gtol: float, maxiter: int,
                maxfun: int) -> bool:
        """Run the routine until it asks for a point other than the last
        one evaluated (True) or stops (False)."""
        x, f, g, bound, task = self.x, self.f, self.g, self.bound, self.task
        nbd, wa, iwa, lsave, isave, dsave, ln_task = (
            self.nbd, self.wa, self.iwa, self.lsave, self.isave, self.dsave,
            self.ln_task)
        while True:
            setulb(_MAXCOR, x, bound, bound, nbd, f, g, factr, gtol, wa, iwa,
                   task, lsave, isave, dsave, _MAXLS, ln_task)
            if task[0] == 3:      # the routine wants f and g at x
                point = x.tolist()
                if point != self.last:
                    self.last = point
                    return True
            elif task[0] == 1:    # a new iteration starts
                self.nit += 1
                if self.nit >= maxiter:
                    task[:] = 5, 504    # stop: iteration limit
                elif self.nfev > maxfun:
                    task[:] = 5, 502    # stop: evaluation limit
            else:                 # 4 converged, 5 stopped, 6-8 failed
                return False


def minimize(fun, x0: np.ndarray, jac: bool, maxiter: int, ftol: float,
             gtol: float, maxfun: int) -> list:
    """Unbounded L-BFGS-B from each row of ``x0``, in lockstep over scipy's
    ``setulb``; returns one ``OptResult`` per row.

    ``fun(points)`` takes a ``(R, dim)`` array and returns R values, with
    ``jac`` true also their ``(R, dim)`` gradients; otherwise each gradient
    is a 2-point forward difference.  It runs with numpy's floating-point
    errors ignored.  Every run keeps its own ``setulb`` state, and each
    round advances every active run until it asks for a new point or stops;
    the points asked for, with their forward-difference points, go to
    ``fun`` in one call.  Each row's bookkeeping is that of
    ``scipy.optimize.minimize(fun, x0, jac=jac or None, method="L-BFGS-B")``
    with these options, so a run takes the same steps, makes the same
    evaluations and ends at the same point as it would alone:
    ``fun`` is evaluated once at ``x0`` before the routine starts, and a
    requested point equal to the last one evaluated is not evaluated again.
    With ``jac`` a point holding a NaN is evaluated twice, as scipy's
    ``MemoizeJac`` did (it compares points with ==), which keeps evaluation
    counts, and so results files, unchanged; ``nfev`` counts it once and
    ``nobj``, the rows ``fun`` evaluated for the run, twice.  A
    run stops at iteration ``maxiter``, or once ``nfev`` exceeds ``maxfun``,
    checked as each iteration starts; ``success`` means the routine itself
    declared convergence.
    """
    factr = ftol / _EPS
    runs = [_Run(row) for row in x0]
    pending = runs
    with np.errstate(all="ignore"):
        while pending:
            _evaluate(fun, jac, pending)
            pending = [run for run in pending
                       if run.advance(factr, gtol, maxiter, maxfun)]
    return [OptResult(run.x, run.f, run.nfev, run.njev,
                      bool(run.task[0] == 4), run.nobj) for run in runs]


def _evaluate(fun, jac: bool, runs: list) -> None:
    """Set ``f`` and ``g`` of every run at its point, in one call of
    ``fun``, and a second call for points holding a NaN."""
    points = runs[0].x[None] if len(runs) == 1 else \
        np.array([run.last for run in runs])
    if jac:
        values, grads = fun(points)
        twice = [run for run in runs if any(map(math.isnan, run.last))]
        if twice:
            fun(np.array([run.last for run in twice]))
        for run, f, g in zip(runs, values, grads):
            run.f, run.g = f, g
            run.nfev += 1
            run.njev += 1
            run.nobj += 1 + (run in twice)
        return
    moved, step = _forward_points(points)
    r, n = points.shape
    values = np.array(fun(np.concatenate([points, moved.reshape(-1, n)])))
    f0 = values[:r]
    grads = (values[r:].reshape(r, n) - f0[:, None]) / ((points + step)
                                                        - points)
    for run, f, g in zip(runs, f0.tolist(), grads):
        run.f, run.g = f, g
        run.nfev += 1 + n
        run.njev += 1
        run.nobj += 1 + n


def _forward_points(points: np.ndarray) -> tuple:
    """scipy's 2-point gradient steps for each row of ``points``: step
    ``_FD_STEP``, or sqrt(eps) * sign(x) * max(1, |x|) where that step would
    not move x.  Returns the ``(R, dim, dim)`` moved points, row i of a
    block moving coordinate i, and the steps."""
    step = np.where((points + _FD_STEP) - points == 0,
                    _EPS ** 0.5 * np.where(points >= 0, 1.0, -1.0)
                    * np.maximum(1.0, np.abs(points)),
                    _FD_STEP)
    r, n = points.shape
    moved = np.repeat(points[:, None], n, axis=1)
    diag = np.arange(n)
    moved[:, diag, diag] = points + step
    return moved, step


def fit(e: Expr, data: Dataset, objective: str = "mse",
        config: FitConfig = FitConfig(), seed: int = 0) -> FitResult:
    """Fit the parameters of ``e`` to ``data``; deterministic given seed.

    objective "mse" minimizes the mean squared error with analytic
    gradients; "mnr" maximizes the marginal log-likelihood jointly in theta,
    mu, omega and sigma_int (the reported objective is the negative
    log-likelihood).  Expressions with nothing to optimize are evaluated
    once.
    """
    return fit_seeds(e, data, objective, config, [seed])[0]


def fit_seeds(e: Expr, data: Dataset, objective: str, config: FitConfig,
              seeds: list) -> list:
    """``fit(e, data, objective, config, seed)`` for each of ``seeds``, in
    order, with the restarts of all seeds in lockstep: each round, every
    seed still running draws its batch of starts, in seed order, and all
    the batches go to one ``minimize`` call.  Each seed keeps its own
    generator, patience count, best point and counts, so its result is
    the one it gets alone."""
    if objective not in ("mse", "mnr"):
        raise ValueError(f"unknown objective {objective!r}")
    if objective == "mnr" and not data.has_uncertainties:
        raise ValueError("mnr objective requires sigma_x and sigma_y columns")
    n_params = ex.param_count(e)
    dim = n_params + (3 if objective == "mnr" else 0)
    if dim == 0:
        val = mse(e, (), data)
        reasons = ("constant",) if math.isfinite(val) else \
            ("constant", "degenerate")
        return [FitResult((), val, 0, 1, 0, reasons)] * len(seeds)

    jac = objective == "mse"
    fun = _mse_value_grad(e, data) if jac else _mnr_value(e, data, n_params)
    loops = [_restarts(np.random.default_rng(seed), config, dim, n_params,
                       jac) for seed in seeds]
    results = [None] * len(loops)
    starts = {i: next(loop) for i, loop in enumerate(loops)}
    while starts:
        # optimizer tolerances sit well below the declared bounds so that
        # convex problems reach parameter-level accuracy at the declared
        # tolerance
        runs = minimize(fun, np.concatenate(list(starts.values())), jac,
                        config.max_iters, _REL_TOL * 1e-3, _ABS_TOL * 1e-3,
                        max(config.max_iters * 20, 100))
        vals = _objective_values(e, data, objective,
                                 np.array([res.x for res in runs]))
        end, todo = 0, {}
        for i, x0 in starts.items():
            rows = slice(end, end + len(x0))
            end = rows.stop
            try:
                todo[i] = loops[i].send((runs[rows], vals[rows]))
            except StopIteration as stop:
                results[i] = stop.value
        starts = todo
    return results


def _restarts(rng, config: FitConfig, dim: int, n_params: int, jac: bool):
    """One seed's restart loop, as a generator: it yields each batch of
    starts, is sent back the batch's ``minimize`` results and end-point
    objectives, and returns the ``FitResult``."""
    best_vec = None
    best_val = math.inf
    terminations = []
    since_improve = 0
    used = n_obj = n_grad = 0
    while True:
        # the restarts a one-at-a-time loop must still run before patience
        # could stop it, and at least one: an improvement resets the count,
        # and no other outcome stops the loop sooner
        batch = max(1, min(config.restart_patience - since_improve,
                           config.restarts - used))
        runs, vals = yield rng.uniform(_INIT_LO, _INIT_HI, (batch, dim))
        for res, val in zip(runs, vals):
            used += 1
            n_obj += res.nobj + 1       # and the end point's evaluation
            n_grad += res.nobj if jac else res.njev
            terminations.append("converged" if res.success else "iter_limit")
            if math.isfinite(val) and val < best_val - _ABS_TOL:
                best_val = val
                best_vec = np.array(res.x)
                since_improve = 0
            else:
                if math.isfinite(val) and val < best_val:
                    best_val = val
                    best_vec = np.array(res.x)
                since_improve += 1
        if used >= config.restarts or since_improve >= config.restart_patience:
            break

    if best_vec is None:
        return FitResult(tuple(), math.inf, used, n_obj, n_grad,
                         tuple(terminations) + ("degenerate",))
    theta = tuple(float(v) for v in best_vec[:n_params])
    hyper = None if jac else MnrParams(theta, float(best_vec[n_params]),
                                       math.exp(best_vec[n_params + 1]),
                                       math.exp(best_vec[n_params + 2]))
    return FitResult(theta, best_val, used, n_obj, n_grad,
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
    that a rerun resumes, after dropping a last line the interruption left
    without its newline.  The ``#done`` footer is written once.  With
    ``workers > 1`` the entries to fit go to a pool of that many processes,
    each sent the dataset once; the results, and the file, are the same as
    with one.
    """
    done: dict = {}
    complete = False
    if out_path is not None:
        try:
            _drop_torn_tail(out_path)
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
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_start_worker, initargs=(os.getpid(), data))
        fits = pool.map(_fit_in_worker, todo, repeat(objective),
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


def exit_with_parent(parent: int) -> None:
    """Pool initializer: end this worker once ``parent``, the process that
    started it, has gone, rather than let it compute for no one."""
    import threading
    import time

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


# the dataset of a fit_catalog pool worker, sent once, to the initializer,
# rather than with every entry: a kernel bound to it is cached by its
# identity, so a copy per entry would cache a kernel, and a dataset, per entry
_worker_data: Optional[Dataset] = None


def _start_worker(parent: int, data: Dataset) -> None:
    global _worker_data
    _worker_data = data
    exit_with_parent(parent)


def _fit_in_worker(entry, objective: str, config: FitConfig,
                   seed: int) -> FitResult:
    return _fit_entry(entry, _worker_data, objective, config, seed)


def _fit_entry(entry, data: Dataset, objective: str, config: FitConfig,
               seed: int) -> FitResult:
    return fit(ex.parse(entry.text), data, objective, config,
               entry_seed(seed, entry.semantic_hash))


def _result_line(h: int, res: FitResult) -> str:
    params = ",".join(repr(float(p)) for p in res.params)
    return f"{h}\t{res.objective!r}\t{res.n_obj_evals}\t{params}\n"


def _drop_torn_tail(path: str) -> None:
    """Cut off a last line that lacks its newline: the line an interrupted
    write left behind."""
    with open(path, "rb+") as f:
        body = f.read()
        if body and not body.endswith(b"\n"):
            f.truncate(body.rfind(b"\n") + 1)


def read_results(path: str) -> dict:
    """Read a results file into {hash: FitResult} (partial files allowed)."""
    return _read_results(path)[0]


def _read_results(path: str) -> tuple:
    """({hash: FitResult}, whether the file carries the ``#done`` footer);
    an InputError naming ``path:line`` for a line that is not one whole
    result."""
    out: dict = {}
    complete = False
    for lineno, line in read_lines(path):
        if line.startswith("#done"):
            complete = True
        if line.startswith("#") or not line.strip():
            continue
        # lines are written whole, newline included: a line without one
        # was cut short, perhaps inside a number that still parses
        if line.endswith("\n"):
            try:
                h, obj, n_evals, params = line[:-1].split("\t")
                vals = tuple(float(v) for v in params.split(",")) \
                    if params else ()
                out[int(h)] = FitResult(vals, float(obj), 0, int(n_evals),
                                        0, ("loaded",))
                continue
            except ValueError:
                pass
        raise InputError(f"{path}:{lineno}: malformed results line "
                         f"{line.rstrip()!r}")
    return out, complete
