"""Independent test oracles, written directly against the definitions and
kept free of the implementation paths they check."""

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

# -- tree counting -------------------------------------------------------------
#
# The grammar has two leaf productions, one unary and five binary operators;
# every node costs one unit of length.


@lru_cache(maxsize=None)
def trees_exact(n: int) -> int:
    """Number of complete derivations with exactly n nodes."""
    if n < 1:
        return 0
    total = 2 if n == 1 else 0
    total += trees_exact(n - 1)  # unary
    total += 5 * sum(trees_exact(i) * trees_exact(n - 1 - i)
                     for i in range(1, n - 1))
    return total


def trees_cumulative(max_len: int) -> int:
    return sum(trees_exact(n) for n in range(1, max_len + 1))


# -- finite differences -----------------------------------------------------------

def central_difference(f, x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


# -- marginal-likelihood quadrature ----------------------------------------------
#
# Per-point marginalization of the generative model with the model linearized
# at the observed x: true t ~ N(mu, omega^2), x_i ~ N(t, sigma_x^2),
# y_i ~ N(A t + B, sigma_y^2 + sigma_int^2).  Integrated in log space around
# every relevant peak so narrow factors are resolved and underflow cannot
# bite.  Adds back n log 2pi to match the dropped-constant convention.


def mnr_quadrature(A, B, data, mu: float, omega: float,
                   sigma_int: float) -> float:
    total = 0.0
    n = len(data.x)
    for i in range(n):
        xi, yi = data.x[i], data.y[i]
        sx = data.sigma_x[i]
        s2 = data.sigma_y[i] ** 2 + sigma_int ** 2
        a, b = A[i], B[i]

        def logf(t):
            return (-(xi - t) ** 2 / (2 * sx ** 2)
                    - np.log(2 * np.pi * sx ** 2) / 2
                    - (yi - a * t - b) ** 2 / (2 * s2)
                    - np.log(2 * np.pi * s2) / 2
                    - (t - mu) ** 2 / (2 * omega ** 2)
                    - np.log(2 * np.pi * omega ** 2) / 2)

        # the log-integrand is an exact downward parabola in t, so all the
        # mass sits within a few widths of the precision-weighted mean
        prec = 1 / sx ** 2 + a * a / s2 + 1 / omega ** 2
        peak = (xi / sx ** 2 + a * (yi - b) / s2 + mu / omega ** 2) / prec
        width = 1 / np.sqrt(prec)
        shift = logf(peak)
        val, _ = quad(lambda t: np.exp(logf(t) - shift),
                      peak - 40 * width, peak + 40 * width,
                      points=[peak - width, peak, peak + width],
                      limit=300, epsabs=1e-14, epsrel=1e-11)
        total += np.log(val) + shift
    return total + n * np.log(2 * np.pi)


# -- forward-mode reference walk -------------------------------------------------
#
# The recursive walk the compiled kernels replaced: a tree is evaluated node by
# node into full (n,) values and (lanes, n) derivative lanes.  Kernels perform
# the same numpy operations on the same shapes, so they must match it bit for
# bit, NaNs included.

def dual_walk(e, theta, pts, lanes: int, x_lane):
    from esrlab.expr import (VAR, PARAM, CONST, ADD, SUB, MUL, DIV, INV,
                             POWABS, NEG, ABS)
    k = e.kind
    n = pts.shape[-1]
    if k == VAR:
        d = np.zeros((lanes, n))
        if x_lane is not None and e.value == 1:
            d[x_lane] = 1.0
        return (pts if pts.ndim == 1 else pts[e.value - 1]), d
    if k == PARAM:
        d = np.zeros((lanes, n))
        if e.value - 1 < (lanes if x_lane is None else x_lane):
            d[e.value - 1] = 1.0
        return np.full(n, theta[e.value - 1]), d
    if k == CONST:
        return np.full(n, e.value), np.zeros((lanes, n))
    av, ad = dual_walk(e.children[0], theta, pts, lanes, x_lane)
    if k in (NEG, ABS, INV):
        if k == NEG:
            return -av, -ad
        if k == ABS:
            return np.abs(av), ad * np.sign(av)
        v = np.divide(1.0, av)
        return v, -ad * v * v
    bv, bd = dual_walk(e.children[1], theta, pts, lanes, x_lane)
    if k == ADD:
        return av + bv, ad + bd
    if k == SUB:
        return av - bv, ad - bd
    if k == MUL:
        return av * bv, ad * bv + bd * av
    if k == DIV:
        v = np.divide(av, bv)
        return v, np.divide(ad, bv) - np.divide(v * bd, bv)
    assert k == POWABS
    absa = np.abs(av)
    v = np.power(absa, bv)
    d = v * (bd * np.log(absa) + np.divide(bv * ad, av))
    at_zero = av == 0.0
    if np.any(at_zero):
        d = np.where(at_zero & (bv > 1.0), 0.0, d)
    return v, d


# -- least squares over the unbound kernels ------------------------------------------
#
# The mse and the fit's mse objective as they were before kernels were bound
# to a dataset: the model and its lanes from ``eval_with_grad`` over the
# points, then the residual, the reduction and the gradient product apart.
# The bound kernel runs the same operations on the same shapes, so it must
# match these bit for bit, NaNs and the non-finite -> bad-point mapping
# included.

BAD = 1e300


def mse_unbound(e, theta, data):
    from esrlab.autodiff import eval_expr
    with np.errstate(all="ignore"):
        r = eval_expr(e, theta, data.x) - data.y
        return (np.add.reduce(r * r, -1) / r.shape[-1]).tolist()


def mse_value_grad_unbound(e, data, points):
    from esrlab.autodiff import eval_with_grad
    y = data.y
    n = len(y)
    with np.errstate(all="ignore"):
        if len(points) == 1:
            f, g = eval_with_grad(e, points[0], data.x, wrt="params")
            r = f - y
            values = [float(np.add.reduce(r * r) / n)]
            grads = ((2.0 / n) * (g @ r))[None]
        else:
            f, g = eval_with_grad(e, points, data.x, wrt="params")
            r = f - y
            values = (np.add.reduce(r * r, -1) / n).tolist()
            grads = (2.0 / n) * (g @ r[..., None])[..., 0]
    for i, value in enumerate(values):
        if not math.isfinite(value):
            values[i] = BAD
            grads[i] = 0.0
        elif not np.isfinite(grads[i]).all():
            grads[i] = 0.0
    return values, grads


# -- e-graph rebuilding -----------------------------------------------------------
#
# EGraph.rebuild and EGraph._refresh_analyses as they were before deferred
# rebuilding: every round rehashes the whole hashcons, rebuilds every class's
# node list from it and re-derives every class's analysis until nothing
# changes.  The bodies are kept as they were; a round repeats while a union
# left work pending, where the engine then set a dirty flag.  Run on a graph
# the engine has just rebuilt, they must change nothing.

def full_rebuild(self) -> None:
    from esrlab.egraph import _LEAVES
    dirty = True
    while dirty:
        self._pending.clear()
        find = self.find
        # congruence closure over the hashcons
        old = self.hashcons
        self.hashcons = {}
        new = self.hashcons
        for node, cid in old.items():
            if node[0] in _LEAVES:
                cnode = node
            else:
                cnode = (node[0],) + tuple(find(ch) for ch in node[1:])
            ccid = find(cid)
            prev = new.get(cnode)
            if prev is None:
                new[cnode] = ccid
            elif find(prev) != ccid:
                self._union(prev, ccid)
        # rebuild class node lists (respecting folded classes)
        classes: dict[int, list] = {}
        for node, cid in new.items():
            r = find(cid)
            lst = classes.get(r)
            if lst is None:
                classes[r] = [node]
            elif node not in lst:
                lst.append(node)
        for c, a in self.analysis.items():
            if self.find(c) == c and a[3] is not None and c in classes:
                classes[c] = [a[3]]
        self.classes = classes
        # analysis fixpoint + folding
        _refresh_analyses(self)
        dirty = bool(self._pending)


def _refresh_analyses(self) -> None:
    changed = True
    while changed:
        changed = False
        for c in list(self.classes.keys()):
            if self.find(c) != c:
                continue
            for node in self.classes[c]:
                if self._join_analysis(c, self._make_analysis(node)):
                    changed = True
            before = self.analysis[c][3]
            self._fold(c)
            if self.analysis[self.find(c)][3] != before:
                changed = True


# -- e-graph repair of every merged root ------------------------------------------
#
# EGraph.rebuild as it was before unions flagged the merges that changed an
# analysis: after re-keying, every pending root is folded and has its
# parents' analyses re-made, whatever its merges joined.  It uses the same
# compiled rules and everything else of the engine, so in its place it must
# give every saturation the same report and every tree the same canonical
# form.

def every_root_rebuild(self) -> None:
    from esrlab.egraph import _LEAVES
    pending = self._pending
    find = self.find
    hashcons = self.hashcons
    uses = self._uses
    analysis = self.analysis
    touched = []
    while pending:
        grown = []
        while pending:
            c = find(pending.pop())
            todo, uses[c] = uses[c], []
            kept = []
            for use in todo:
                if not use[2]:
                    continue
                node = use[0]
                key = ((node[0], find(node[1])) if len(node) == 2
                       else (node[0], find(node[1]), find(node[2])))
                if key != node:
                    del hashcons[node]
                    touched.append(use[1])
                    other = hashcons.get(key)
                    if other is not None:
                        use[2] = False
                        self._union(other, use[1])
                        continue
                    hashcons[key] = use[1]
                    use[0] = key
                kept.append(use)
            c = find(c)
            uses[c].extend(kept)
            touched.append(c)
            grown.append(c)
        while grown:
            c = find(grown.pop())
            self._fold(c)
            for use in uses[find(c)]:
                p = find(use[1])
                if (use[2] and analysis[p][3] is None
                        and self._join_analysis(
                            p, self._make_analysis(use[0]))):
                    grown.append(p)
    classes = self.classes
    for c in set(map(find, touched)):
        leaf = analysis[c][3]
        if leaf is not None:
            classes[c] = [leaf]
            continue
        nodes = {}
        for node in classes[c]:
            if node[0] not in _LEAVES:
                node = (node[0],) + tuple(map(find, node[1:]))
            nodes[node] = None
        classes[c] = list(nodes)


# -- recursive parameter renumbering ---------------------------------------------
#
# expr._renumber as it was before it became one walk with a counter: a dict
# per renumbered kind, keyed by a fresh count for a parameter and by the
# index for a hole.  renumber_params and renumber_leaves must give the trees
# it gives.

def renumber_recursive(e, kinds: tuple):
    from esrlab.expr import Expr, HOLE
    mappings: dict = {k: {} for k in kinds}

    def walk(node):
        mapping = mappings.get(node.kind)
        if mapping is not None:
            key = node.value if node.kind == HOLE else len(mapping)
            idx = mapping.setdefault(key, len(mapping) + 1)
            return Expr(node.kind, idx) if idx != node.value else node
        if not node.children:
            return node
        kids = tuple(walk(c) for c in node.children)
        if all(k is c for k, c in zip(kids, node.children)):
            return node
        return Expr(node.kind, node.value, kids)

    return walk(e)


# -- Expr-keyed canonicalizer cache ----------------------------------------------
#
# simplify.Canonicalizer as it was when its cache kept the trees themselves as
# keys: the same two lookups, on the raw tree and then on its normal form, with
# Expr equality deciding a hit.  Fed the same trees in the same order, the
# real cache must give every tree the same canonical form.

class ExprKeyedCanonicalizer:
    def __init__(self, config):
        self.config = config
        self._cache = {}
        self.calls = self.raw_hits = 0

    def __call__(self, e):
        from esrlab.normalize import normalize
        from esrlab.simplify import canonicalize
        self.calls += 1
        got = self._cache.get(e)
        if got is not None:
            self.raw_hits += 1
            return got
        n = normalize(e)
        cf = self._cache.get(n)
        if cf is None:
            cf = canonicalize(e, self.config, n)
            self._cache[n] = cf
        self._cache[e] = cf
        return cf


# -- the catalog without partial pruning ------------------------------------------
#
# What build_catalog's pruning may not change: the semantic hashes of every
# complete derivation.  Each partial is still canonicalized, in derivation
# order, because a Canonicalizer's answers depend on what it saw before.

def unpruned_catalog_hashes(max_len: int) -> set:
    from esrlab.enumeration import enumerate_trees
    from esrlab.simplify import Canonicalizer
    canon = Canonicalizer()

    def keep(tree, key) -> bool:
        canon(tree)
        return True

    return {canon(tree).semantic_hash
            for tree in enumerate_trees(max_len, keep)}


# -- the catalog built one derivation at a time -------------------------------
#
# enumeration.build_catalog as it was before it went through the BFS one wave
# at a time: a single queue of derivations, each tree canonicalized as it is
# derived (through the Expr-keyed cache above, which gives the forms the real
# cache gives), and a partial kept or pruned before the next derivation is
# made.  ``progress`` is called every ``every`` complete trees.  The real
# build must give the same entries and the same progress calls for every
# number of workers.

def sequential_catalog(max_len: int, progress=None, every: int = 10000):
    from collections import deque
    from esrlab.egraph import EqSatConfig
    from esrlab.enumeration import _NT, _build_tree
    from esrlab.expr import ARITY, PRODUCTIONS
    canon = ExprKeyedCanonicalizer(EqSatConfig())
    seen_exprs, seen_partials, entries = set(), set(), []
    n_visited = 0
    queue = deque([((_NT,), 0, 1, (0,) * len(PRODUCTIONS))])
    while queue:
        tokens, n_term, n_nt, counts = queue.popleft()
        slot = tokens.index(_NT)
        for i, kind in enumerate(PRODUCTIONS):
            n_open = n_nt - 1 + ARITY[kind]
            if n_term + 1 + n_open > max_len:
                continue
            new = tokens[:slot] + (i,) + (_NT,) * ARITY[kind] \
                + tokens[slot + 1:]
            new_counts = counts[:i] + (counts[i] + 1,) + counts[i + 1:]
            cf = canon(_build_tree(new))
            if n_open:
                pk = cf.semantic_hash.to_bytes(8, "little") \
                    + bytes(new_counts + (n_open,))
                if pk not in seen_partials:
                    seen_partials.add(pk)
                    queue.append((new, n_term + 1, n_open, new_counts))
                continue
            if cf.semantic_hash not in seen_exprs:
                seen_exprs.add(cf.semantic_hash)
                entries.append(cf)
            n_visited += 1
            if progress is not None and n_visited % every == 0:
                progress(n_visited, len(entries))
    return entries


# -- GP evaluated one child at a time -------------------------------------------
#
# gp.run_gp as it was before a generation's copies of one tree were fitted in
# one call: each child is bred, numbered, given its fit seed, fitted by its own
# ``fit`` call, canonicalized and logged before the next child is bred, and an
# initial individual is drawn again until it fits, up to
# ``gp._INIT_RESAMPLE_CAP`` samples.  Given the same seed, the real run must
# write the same log, byte for byte, or raise ``GpInitError`` after the same
# records.  ``records``, if given, is the list the records are appended to, so
# that a caller sees them after a raise.

def gp_one_at_a_time(cfg, data, seed: int, records=None):
    import math
    from esrlab import expr as ex, gp
    from esrlab.fitting import FitConfig, fit
    from esrlab.gp import (GpInitError, Individual, crossover, grow, mutate,
                           tournament_select)
    from esrlab.runlog import LogRecord, RunLog
    from esrlab.simplify import Canonicalizer

    rng = np.random.default_rng(seed)
    canon = Canonicalizer(cfg.eqsat)
    fit_config = FitConfig(restarts=1, max_iters=cfg.optim_iterations)
    records = [] if records is None else records
    eval_id = fevals = 0

    def evaluate(tree, gen):
        nonlocal eval_id, fevals
        tree = ex.renumber_params(tree)
        eval_id += 1
        if ex.length(tree) > cfg.max_len:
            records.append(LogRecord(gen, eval_id, ex.structural_hash(tree),
                                     0, math.inf, ex.render(tree), fevals))
            return Individual(tree, (), math.inf, eval_id)
        res = fit(tree, data, cfg.objective, fit_config,
                  int(rng.integers(0, 2**63 - 1)))
        fevals += res.n_obj_evals
        fitness = res.objective if math.isfinite(res.objective) else math.inf
        records.append(LogRecord(gen, eval_id, ex.structural_hash(tree),
                                 canon(tree).semantic_hash, fitness,
                                 ex.render(tree), fevals, res.params))
        return Individual(tree, res.params, fitness, eval_id)

    combos = [(d, lo) for d in range(min(3, cfg.max_depth), cfg.max_depth + 1)
              for lo in (cfg.min_depth, d)]
    pop, discards = [], 0
    for i in range(cfg.pop_size):
        depth, min_depth = combos[i % len(combos)]
        for attempt in range(gp._INIT_RESAMPLE_CAP + 1):
            if attempt == gp._INIT_RESAMPLE_CAP:
                raise GpInitError(f"no finite-fitness individual after "
                                  f"{attempt} samples")
            ind = evaluate(grow(rng, depth, min_depth), 0)
            if math.isfinite(ind.fitness):
                break
            discards += 1
        pop.append(ind)
    best_ever = min(pop, key=lambda i: i.fitness)
    for gen in range(1, cfg.generations + 1):
        newpop = []
        for _ in range(cfg.pop_size):
            p1 = tournament_select(pop, cfg.tournament_size, rng)
            p2 = tournament_select(pop, cfg.tournament_size, rng)
            child = crossover(p1.expr, p2.expr, cfg.p_cx, rng)
            newpop.append(evaluate(mutate(child, cfg.p_mut, rng), gen))
        pop = newpop
        gen_best = min(pop, key=lambda i: i.fitness)
        if gen_best.fitness < best_ever.fitness:
            best_ever = gen_best
        elif all(i.eval_id != best_ever.eval_id for i in pop):
            worst = max(range(len(pop)), key=lambda j: pop[j].fitness)
            pop[worst] = best_ever
    config = cfg.as_dict()
    config["init_discards"] = discards
    return RunLog(records, config, seed)
