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
evaluation is appended to the run log, in breeding order.

Every parameter leaf is its own parameter, as in the catalog: evaluation
numbers a candidate's leaves 1..k (``renumber_params``), so copies made by
crossover and mutation fit independently, and GP searches the catalog's space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from . import expr as ex
from .expr import Expr
from .dataset import Dataset
from .egraph import EqSatConfig
# ``fit`` stays bound: perfbench/tracing.py patches ``gp.fit`` by name
from .fitting import FitConfig, GP_FIT, fit, fit_seeds
from .runlog import LogRecord, RunLog
from .simplify import Canonicalizer

__all__ = ["GpConfig", "CONFIG_KEYS", "Individual", "run_gp",
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

    def __init__(self, cfg: GpConfig, data: Dataset, seed: int):
        self.cfg = cfg
        self.fit_config = FitConfig(restarts=1, max_iters=cfg.optim_iterations)
        self.data = data
        self.rng = np.random.default_rng(seed)
        self.canon = Canonicalizer(cfg.eqsat)
        self.records: list = []
        self.eval_id = 0
        self.fevals = 0
        self.init_discards = 0

    def prepare(self, tree: Expr) -> tuple:
        """``tree`` with its parameters numbered, its eval id and, within
        the length limit, its fit seed (None beyond it)."""
        tree = ex.renumber_params(tree)
        self.eval_id += 1
        seed = (int(self.rng.integers(0, 2**63 - 1))
                if ex.length(tree) <= self.cfg.max_len else None)
        return tree, self.eval_id, seed

    def evaluate(self, prepared: list, gen: int) -> list:
        """Individuals of ``prepare``d trees, logged in order; the copies
        of one tree are fitted in one ``fit_seeds`` call."""
        copies: dict = {}
        for i, (tree, _, seed) in enumerate(prepared):
            if seed is not None:
                # exact for GP trees, which hold no literals
                copies.setdefault(ex.structural_key(tree), []).append(i)
        fits = {}
        for rows in copies.values():
            fits.update(zip(rows, fit_seeds(
                prepared[rows[0]][0], self.data, self.cfg.objective,
                self.fit_config, [prepared[i][2] for i in rows])))
        pop = []
        for i, (tree, eval_id, _) in enumerate(prepared):
            res = fits.get(i)
            if res is None:
                sem, fitness, params = 0, math.inf, ()
            else:
                self.fevals += res.n_obj_evals
                sem = self.canon(tree).semantic_hash
                fitness = res.objective if math.isfinite(res.objective) \
                    else math.inf
                params = res.params
            self.records.append(LogRecord(
                gen, eval_id, ex.structural_hash(tree), sem, fitness,
                ex.render(tree), self.fevals, params))
            pop.append(Individual(tree, params, fitness, eval_id))
        return pop


def init_population(cfg: GpConfig, run: _Run) -> list:
    """Ramped half-and-half: cycle (depth, grow/full) combinations over
    depths 3..max_depth, full being grow with min_depth = depth; resample
    every individual until its fitness is finite (and within the length
    limit)."""
    combos = [(d, lo) for d in range(min(3, cfg.max_depth), cfg.max_depth + 1)
              for lo in (cfg.min_depth, d)]
    pop = []
    for i in range(cfg.pop_size):
        depth, min_depth = combos[i % len(combos)]
        attempts = 0
        while True:
            attempts += 1
            if attempts > _INIT_RESAMPLE_CAP:
                raise GpInitError(
                    f"no finite-fitness individual after "
                    f"{_INIT_RESAMPLE_CAP} samples")
            tree = grow(run.rng, depth, min_depth)
            ind = run.evaluate([run.prepare(tree)], 0)[0]
            if math.isfinite(ind.fitness):
                pop.append(ind)
                break
            run.init_discards += 1
    return pop


def run_gp(cfg: GpConfig, data: Dataset, seed: int = 0) -> RunLog:
    """One full GP run; deterministic given the seed."""
    run = _Run(cfg, data, seed)
    pop = init_population(cfg, run)
    best_ever = min(pop, key=lambda i: i.fitness)
    for gen in range(1, cfg.generations + 1):
        children = []
        for _ in range(cfg.pop_size):
            p1 = tournament_select(pop, cfg.tournament_size, run.rng)
            p2 = tournament_select(pop, cfg.tournament_size, run.rng)
            child = crossover(p1.expr, p2.expr, cfg.p_cx, run.rng)
            children.append(run.prepare(mutate(child, cfg.p_mut, run.rng)))
        pop = run.evaluate(children, gen)
        gen_best = min(pop, key=lambda i: i.fitness)
        if gen_best.fitness < best_ever.fitness:
            best_ever = gen_best
        elif all(i.eval_id != best_ever.eval_id for i in pop):
            worst = max(range(len(pop)), key=lambda j: pop[j].fitness)
            pop[worst] = best_ever
    config = cfg.as_dict()
    config["init_discards"] = run.init_discards
    return RunLog(run.records, config, seed)
