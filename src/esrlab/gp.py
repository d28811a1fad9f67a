"""Generational tree GP for symbolic regression with parameter fitting.

The loop, per generation: select two parents by tournament, cross over with
probability p_cx (otherwise keep the first parent), then subtree-mutate; the
new population fully replaces the old one, after which the worst individual
is swapped for the best of all time (elitism).  A generation is bred whole
and then evaluated: every candidate is fitted with a short single-restart
quasi-Newton run, and the copies of one tree, which selection and crossover
make many of, are fitted in one ``fit_seeds`` call, each with its own seed
and so with the fit it gets alone.  An offspring over the length limit is
assigned an infinite sentinel fitness and no fitting effort.  Every
evaluation is appended to the run log, in breeding order, with the semantic
hash of its tree, canonicalized once per run and then remembered by the
tree's ``structural_key``.

Every parameter leaf is its own parameter, as in the catalog: evaluation
numbers a candidate's leaves 1..k (``renumber_params``), so copies made by
crossover and mutation fit independently, and GP searches the catalog's space.

A run given two workers or more forks one helper process (``_helper``).
The run's process breeds, selects and logs; the helper owns the run's
``Canonicalizer``.  Each tree the run logs for the first time is sent to
the helper, in log order, and canonicalized there while the run goes on;
its semantic hash comes back with a later reply, and the records take it
when the run ends.  The ``fit_seeds`` groups of each generation, and of
each window of initial draws (``init_population``), are fitted from both
ends: the helper takes them from the first forward, the run's process from
the last backward, each claiming its next group only while the other has
not claimed it, and they stop where they meet.  So each side fits as many
groups as its speed allows, and at most the group they meet at is fitted
twice.  The claims are two counters in memory shared with the helper, each
written by one process only, so no lock is needed.  No byte of the log
depends on this: ``fit_seeds`` is pure, so a group's fits are the same in
either process, and the helper's ``Canonicalizer`` is asked for the same
trees in the same order as a run alone asks its own, so every answer it
gives, which depends on the trees asked before, is the same too.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .expr import Expr
from .dataset import Dataset
from .egraph import EqSatConfig
# ``fit`` stays bound: perfbench/tracing.py patches ``gp.fit`` by name
from .fitting import FitConfig, GP_FIT, exit_with_parent, fit, fit_seeds
from .runlog import LogRecord, RunLog
from .simplify import Canonicalizer, usable_cpus

__all__ = ["GpConfig", "CONFIG_KEYS", "Individual", "run_gp", "run_gps",
           "init_population", "tournament_select", "crossover", "mutate",
           "grow", "gp_preset", "GpInitError"]

# the grammar's operator productions; random draws index them in table order
_FUNCTIONS = tuple(k for k in ex.PRODUCTIONS if ex.ARITY[k])


class GpInitError(RuntimeError):
    """Population initialization failed to find finite-fitness individuals."""


@dataclass(frozen=True)
class GpConfig:
    pop_size: int = 100
    generations: int = 250
    min_depth: int = 2
    max_depth: int = 4
    tournament_size: int = 2
    p_cx: float = 1.0
    p_mut: float = 0.25
    max_len: int = 10
    objective: str = "mse"
    optim_iterations: int = GP_FIT.max_iters
    eqsat: EqSatConfig = EqSatConfig()

    def __post_init__(self):
        # each bound is on one field alone, so a config file can check a
        # value on the line that sets it; the depth pair is checked last
        for name, lo, hi in (("pop_size", 1, math.inf),
                             ("generations", 0, math.inf),
                             ("max_len", 1, math.inf),
                             ("min_depth", 1, math.inf),
                             ("max_depth", 1, math.inf),
                             ("tournament_size", 1, math.inf),
                             ("optim_iterations", 1, math.inf),
                             ("p_cx", 0.0, 1.0), ("p_mut", 0.0, 1.0)):
            if not lo <= getattr(self, name) <= hi:
                raise ValueError(f"{name} must be in [{lo}, {hi}], "
                                 f"got {getattr(self, name)}")
        if self.objective not in ("mse", "mnr"):
            raise ValueError(
                f"objective must be mse or mnr, got {self.objective!r}")
        if self.min_depth > self.max_depth:
            raise ValueError(f"min_depth must be <= max_depth, got "
                             f"{self.min_depth} > {self.max_depth}")

    def as_dict(self) -> dict:
        """The config under its file keys, in ``CONFIG_KEYS`` order."""
        return {key: getattr(self, field)
                for key, (field, _) in CONFIG_KEYS.items()}


# config file key -> (GpConfig field, value type)
CONFIG_KEYS = {
    "pop_size": ("pop_size", int),
    "generations": ("generations", int),
    "min_depth": ("min_depth", int),
    "max_depth": ("max_depth", int),
    "tournament_size": ("tournament_size", int),
    "cx_prob": ("p_cx", float),
    "mut_prob": ("p_mut", float),
    "max_length": ("max_len", int),
    "objective": ("objective", str),
    "optim_iterations": ("optim_iterations", int),
}

# samples drawn for one initial individual before giving up
_INIT_RESAMPLE_CAP = 10_000
# initial individuals drawn ahead and fitted together by a run with a helper
_INIT_WINDOW = 10


def gp_preset(max_len: int) -> GpConfig:
    """Hyperparameter presets: length 10/12 use pop 100 and tournament 2,
    length 20 uses pop 500 and tournament 4."""
    if max_len >= 20:
        return GpConfig(pop_size=500, tournament_size=4, max_len=max_len)
    return GpConfig(max_len=max_len)


@dataclass(frozen=True)
class Individual:
    expr: Expr
    theta: tuple
    fitness: float
    eval_id: int


def _terminal(rng) -> Expr:
    return ex.var() if rng.random() < 0.5 else ex.param(1)


def _function_node(rng, gen_child) -> Expr:
    op = _FUNCTIONS[rng.integers(0, len(_FUNCTIONS))]
    arity = ex.ARITY[op]
    return Expr(op, None, tuple(gen_child() for _ in range(arity)))


def grow(rng, max_depth: int, min_depth: int = 1) -> Expr:
    """Grow method: below min_depth force functions, at max_depth force
    terminals, in between choose a function with probability 0.5.  With
    min_depth = max_depth this is the full method."""

    def gen(depth: int) -> Expr:
        if depth >= max_depth:
            return _terminal(rng)
        if depth < min_depth or rng.random() < 0.5:
            return _function_node(rng, lambda: gen(depth + 1))
        return _terminal(rng)

    return gen(1)


def tournament_select(pop: list, k: int, rng) -> Individual:
    """Sample k uniformly with replacement; fittest wins, ties at the best
    fitness are broken uniformly at random."""
    if k < 1:
        raise ValueError("tournament size must be >= 1")
    idx = rng.integers(0, len(pop), k)
    best = None
    tied = []
    for i in idx:
        f = pop[i].fitness
        if best is None or f < best:
            best = f
            tied = [i]
        elif f == best:
            tied.append(i)
    choice = tied[0] if len(tied) == 1 else tied[rng.integers(0, len(tied))]
    return pop[choice]


def _replace_node(e: Expr, target: int, repl: Expr) -> Expr:
    """Replace the pre-order node number ``target`` (0-based) with ``repl``."""
    counter = [-1]

    def walk(node: Expr) -> Expr:
        counter[0] += 1
        if counter[0] == target:
            return repl
        if not node.children:
            return node
        return Expr(node.kind, node.value,
                    tuple(walk(c) for c in node.children))

    return walk(e)


def _pick_subtree(e: Expr, index: int) -> Expr:
    for i, node in enumerate(ex.subtrees(e)):
        if i == index:
            return node
    raise IndexError(index)


def crossover(parent1: Expr, parent2: Expr, p_cx: float, rng) -> Expr:
    """Replace a uniformly chosen node of parent1 with a uniformly chosen
    subtree of parent2; with probability 1 - p_cx return parent1 unchanged."""
    if rng.random() >= p_cx:
        return parent1
    n1 = ex.length(parent1)
    n2 = ex.length(parent2)
    target = int(rng.integers(0, n1))
    donor = _pick_subtree(parent2, int(rng.integers(0, n2)))
    return _replace_node(parent1, target, donor)


def mutate(e: Expr, p_mut: float, rng) -> Expr:
    """Pre-order Bernoulli(p_mut) per node; the first success is replaced by
    a grow(depth <= 2) subtree; no success leaves the tree unchanged."""
    nodes = ex.length(e)
    for i in range(nodes):
        if rng.random() < p_mut:
            return _replace_node(e, i, grow(rng, max_depth=2))
    return e


class _Run:
    """Mutable state of one GP run."""

    def __init__(self, cfg: GpConfig, data: Dataset, seed: int,
                 workers: int = 1):
        self.cfg = cfg
        self.fit_config = FitConfig(restarts=1, max_iters=cfg.optim_iterations)
        self.data = data
        self.rng = np.random.default_rng(seed)
        # structural_key -> semantic hash, None while the helper owes it
        self.sem_hashes: dict[bytes, int | None] = {}
        self.records: list = []   # LogRecord fields, a key for sem_hash
        self.eval_id = 0
        self.fevals = 0
        self.init_discards = 0
        self.helper = None
        if workers > 1:
            import mmap   # here, so that importing stays cheap
            from ._helper import start
            # the groups both processes fit are numbered over the run, so
            # that a counter left by one generation claims none of the
            # next; the helper has claimed the groups below claims[0], the
            # run's process those from claims[1] on
            self.numbered = 0
            self.claims = memoryview(mmap.mmap(-1, 16)).cast("q")
            self.helper = start("GP", _serve, cfg.eqsat, data, cfg.objective,
                                self.fit_config, self.claims)
        self.canon = Canonicalizer(cfg.eqsat) if self.helper is None else None

    def prepare(self, tree: Expr) -> tuple:
        """``tree`` with its parameters numbered, its eval id and, within
        the length limit, its fit seed (None beyond it)."""
        tree = ex.renumber_params(tree)
        self.eval_id += 1
        seed = (int(self.rng.integers(0, 2**63 - 1))
                if ex.length(tree) <= self.cfg.max_len else None)
        return tree, self.eval_id, seed

    def evaluate(self, prepared: list, gen: int) -> list:
        """Individuals of ``prepare``d trees, fitted and logged in order."""
        return self.log(prepared, self.fit(prepared), gen)

    def fit(self, prepared: list) -> list:
        """Per ``prepare``d tree, its ``(FitResult, structural key)``, or
        None beyond the length limit.  The copies of one tree are fitted in
        one ``fit_seeds`` call, shared with the helper if there is one.
        Nothing is logged or counted, so a fit may be thrown away."""
        copies: dict = {}
        for i, (tree, _, seed) in enumerate(prepared):
            if seed is not None:
                # exact for GP trees, which hold no literals
                copies.setdefault(ex.structural_key(tree), []).append(i)
        groups = [(prepared[rows[0]][0], [prepared[i][2] for i in rows])
                  for rows in copies.values()]
        fits = [None] * len(prepared)
        results = self._fit_groups(groups)
        for (key, rows), group in zip(copies.items(), results):
            for i, res in zip(rows, group):
                fits[i] = (res, key)
        return fits

    def log(self, prepared: list, fits: list, gen: int) -> list:
        """Log ``prepare``d trees with their ``fit`` results, in order, as
        individuals; a tree not seen before is canonicalized, by the helper
        if there is one, which gets the run's trees in log order."""
        pop, new = [], []
        for (tree, eval_id, _), fitted in zip(prepared, fits):
            key, fitness, params = None, math.inf, ()
            if fitted is not None:
                res, key = fitted
                self.fevals += res.n_obj_evals
                if math.isfinite(res.objective):
                    fitness = res.objective
                params = res.params
                if key not in self.sem_hashes:
                    if self.helper is None:
                        self.sem_hashes[key] = self.canon(tree).semantic_hash
                    else:
                        self.sem_hashes[key] = None
                        self.helper.held.append(key)
                        new.append(tree)
            self.records.append((gen, eval_id, ex.structural_hash(tree), key,
                                 fitness, ex.render(tree), self.fevals,
                                 params))
            pop.append(Individual(tree, params, fitness, eval_id))
        if new:
            self.helper.send((new, 0, []))
        return pop

    def _fit(self, group: tuple) -> list:
        tree, seeds = group
        return fit_seeds(tree, self.data, self.cfg.objective,
                         self.fit_config, seeds)

    def _fit_groups(self, groups: list) -> list:
        """The ``fit_seeds`` results of ``groups``; with a helper, two or
        more are fitted from both ends: the run's process takes them from
        the last backward while the helper takes them from the first
        forward."""
        if self.helper is None or len(groups) < 2:
            return [self._fit(group) for group in groups]
        first = self.numbered
        # each side claims a group, by writing its own counter, only while
        # the other's shows it unclaimed; so no group is left unfitted,
        # and only the one they meet at can be fitted by both
        self.numbered = last = first + len(groups)
        self.claims[1] = last
        self.helper.send(([], first, groups))
        mine = []
        while last > first and last > self.claims[0]:
            last -= 1
            self.claims[1] = last
            mine.append(self._fit(groups[last - first]))
        fitted, hashes = self.helper.recv()
        self._take(hashes)
        return fitted[:last - first] + mine[::-1]

    def _take(self, hashes: list) -> None:
        """Give the oldest keys the helper owes their semantic hashes."""
        for h in hashes:
            self.sem_hashes[self.helper.held.popleft()] = h

    def log_records(self) -> list:
        """The run's records, each with its semantic hash (0 beyond the
        length limit), once the helper has sent every hash it owes."""
        if self.helper is not None:
            self.helper.send(None)
            self._take(self.helper.recv())
        records = self.records
        # in place, so that no moment holds two copies of the run's records
        for i, (gen, eval_id, struct, key, *rest) in enumerate(records):
            records[i] = LogRecord(gen, eval_id, struct,
                                   self.sem_hashes.get(key, 0), *rest)
        return records

    def close(self) -> None:
        if self.helper is not None:
            self.helper.close()


def _serve(conn, eqsat: EqSatConfig, data: Dataset, objective: str,
           fit_config: FitConfig, claims) -> None:
    """The helper's loop.  A message ``(trees, first, groups)`` queues
    ``trees`` to canonicalize, in order.  If ``groups`` (``(tree, seeds)``
    pairs, numbered from ``first``) is not empty, the helper fits them
    from the first forward, claiming each in ``claims[0]`` while
    ``claims[1]`` shows the run's process has not (``_Run._fit_groups``),
    and then answers with their ``fit_seeds`` results and the semantic
    hashes found since the last answer.  The queue is worked through while
    no message waits.  ``None`` ends the run: it is answered with the
    hashes still owed."""
    canon = Canonicalizer(eqsat)
    trees: deque = deque()
    hashes = []
    while True:
        if trees and not conn.poll():
            hashes.append(canon(trees.popleft()).semantic_hash)
            continue
        message = conn.recv()
        if message is None:
            conn.send(hashes + [canon(t).semantic_hash for t in trees])
            return
        new, first, groups = message
        trees.extend(new)
        if groups:
            fitted = []
            for i, (tree, seeds) in enumerate(groups, first):
                if i >= claims[1]:
                    break
                claims[0] = i + 1
                fitted.append(fit_seeds(tree, data, objective, fit_config,
                                        seeds))
            conn.send((fitted, hashes))
            hashes = []


def init_population(cfg: GpConfig, run: _Run) -> list:
    """Ramped half-and-half: cycle (depth, grow/full) combinations over
    depths 3..max_depth, full being grow with min_depth = depth; resample
    every individual until its fitness is finite (and within the length
    limit).

    With a helper, the draws run ahead: trees for up to ``_INIT_WINDOW``
    individuals are drawn on the guess that each within the length limit
    fits, and fitted as one evaluation.  The window is logged up to the
    first tree that fails to fit, and the draws after it are undone and
    made again.  So the log is that of one tree at a time, which is what a
    run without a helper does (a window of one)."""
    combos = [(d, lo) for d in range(min(3, cfg.max_depth), cfg.max_depth + 1)
              for lo in (cfg.min_depth, d)]
    window = _INIT_WINDOW if run.helper is not None else 1
    pop = []
    tries = 0   # samples drawn for individual len(pop)
    while len(pop) < cfg.pop_size:
        drawn, kept = [], []
        while (len(kept) < window and len(pop) + len(kept) < cfg.pop_size
               and tries < _INIT_RESAMPLE_CAP):
            depth, min_depth = combos[(len(pop) + len(kept)) % len(combos)]
            tries += 1
            drawn.append(run.prepare(grow(run.rng, depth, min_depth)))
            if drawn[-1][2] is not None:   # within the length limit
                kept.append((len(drawn), tries, run.rng.bit_generator.state))
                tries = 0
        fits = run.fit(drawn)
        end = len(drawn)
        for n, tried, state in kept:
            if not math.isfinite(fits[n - 1][0].objective):
                # undo the draws after the first tree that fails to fit
                end, tries = n, tried
                run.rng.bit_generator.state = state
                run.eval_id = drawn[n - 1][1]
                break
        for ind in run.log(drawn[:end], fits[:end], 0):
            if math.isfinite(ind.fitness):
                pop.append(ind)
            else:
                run.init_discards += 1
        if tries >= _INIT_RESAMPLE_CAP:
            raise GpInitError(f"no finite-fitness individual after "
                              f"{_INIT_RESAMPLE_CAP} samples")
    return pop


def run_gp(cfg: GpConfig, data: Dataset, seed: int = 0,
           workers: int | None = None) -> RunLog:
    """One full GP run; deterministic given the seed.

    ``workers`` (by default the CPUs this process may run on) bounds the
    run's processes.  With two or more, and outside a daemonic process, the
    run forks one helper, which canonicalizes every new tree and fits each
    generation with the run from the other end, as the module docstring
    says; the log is the same, byte for byte, for every ``workers``.  The
    helper is stopped when the run returns or raises; an exception raised
    in it is raised here, and a helper that dies fails the run with a
    ``RuntimeError`` naming its exit code."""
    run = _Run(cfg, data, seed, usable_cpus() if workers is None else workers)
    try:
        pop = init_population(cfg, run)
        best_ever = min(pop, key=lambda i: i.fitness)
        for gen in range(1, cfg.generations + 1):
            children = []
            for _ in range(cfg.pop_size):
                p1 = tournament_select(pop, cfg.tournament_size, run.rng)
                p2 = tournament_select(pop, cfg.tournament_size, run.rng)
                child = crossover(p1.expr, p2.expr, cfg.p_cx, run.rng)
                children.append(run.prepare(mutate(child, cfg.p_mut,
                                                   run.rng)))
            pop = run.evaluate(children, gen)
            gen_best = min(pop, key=lambda i: i.fitness)
            if gen_best.fitness < best_ever.fitness:
                best_ever = gen_best
            elif all(i.eval_id != best_ever.eval_id for i in pop):
                worst = max(range(len(pop)), key=lambda j: pop[j].fitness)
                pop[worst] = best_ever
        records = run.log_records()
    finally:
        run.close()
    config = cfg.as_dict()
    config["init_discards"] = run.init_discards
    return RunLog(records, config, seed)


def run_gps(cfg: GpConfig, data: Dataset, seeds, workers: int | None = None):
    """Yield the ``run_gp`` log of each of ``seeds`` (a sequence), in order.
    Of ``workers`` W (by default the CPUs this process may run on),
    ``min(W, len(seeds))`` processes make the runs, each run given
    ``W // min(W, len(seeds))`` workers: a lone run forks its helper, and
    pooled runs do not.  Logs are the same for every ``workers``, and are
    yielded so that a caller need not hold them all (a full run's holds
    about 10 MB).  A run that raises cancels the runs not yet started and
    is raised here."""
    workers = usable_cpus() if workers is None else workers
    pool = min(workers, len(seeds))
    if pool <= 1:
        yield from (run_gp(cfg, data, seed, workers) for seed in seeds)
        return
    # imported here, so that importing this module stays cheap
    from concurrent.futures import ProcessPoolExecutor
    from itertools import repeat
    executor = ProcessPoolExecutor(pool, initializer=exit_with_parent,
                                   initargs=(os.getpid(),))
    try:
        yield from executor.map(run_gp, repeat(cfg), repeat(data), seeds,
                                repeat(workers // pool))
    finally:
        executor.shutdown(cancel_futures=True)
