"""Canonical forms and semantic hashing via equality saturation.

``canonicalize`` inserts an expression into a fresh e-graph, saturates the
rewrite rules, extracts the cost-minimal representative, renumbers parameter
leaves left to right, and hashes the rendered text.  Two expressions have the
same semantic hash exactly when this pipeline maps them to the same canonical
form, which treats reparameterisations (for example ``p1*(x+p2)`` against
``p1*x + p2``) as the same function family.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as ex
from .expr import Expr, PARAM
from .egraph import EGraph, EqSatConfig
from .normalize import normalize

__all__ = ["CanonicalForm", "canonicalize", "Canonicalizer", "EqSatConfig"]


@dataclass(frozen=True)
class CanonicalForm:
    """A canonical form as a catalog line lists it, in column order; it
    keeps no tree (``expr.parse(text)`` rebuilds one)."""
    semantic_hash: int
    n_nodes: int
    n_params: int
    text: str

    @property
    def is_constant(self) -> bool:
        """True when the form is a lone parameter or literal: one leaf that
        is neither the variable ``x`` nor a hole (rendered ``?k``)."""
        return self.n_nodes == 1 and self.text[0] not in "x?"


def canonicalize(e: Expr, config: EqSatConfig = EqSatConfig(),
                 normal: Expr | None = None) -> CanonicalForm:
    """Canonical representative of all expressions congruent to ``e``.

    The expression is first brought to algebraic normal form (collapsing
    commutative orderings, sign variants, reciprocal/power chains and
    parameter-only subexpressions), then saturated in an e-graph under the
    configured budget, and the cost-minimal member is extracted.
    ``normal`` is ``normalize(e)`` when the caller already has it.
    """
    n = normalize(e) if normal is None else normal
    g = EGraph(config)
    root = g.add_expr(n)
    if n != e:
        # the raw tree anchors extraction: the canonical form can never cost
        # more than the input even when one-way rules cannot rebuild it
        g._union(root, g.add_expr(e))
    g.saturate()
    canon = ex.renumber_leaves(g.extract(g.find(root)))
    text = ex.render(canon)
    n_params = sum(1 for n2 in ex.subtrees(canon) if n2.kind == PARAM)
    return CanonicalForm(ex.text_hash(text), ex.length(canon), n_params,
                         text)


class Canonicalizer:
    """Caching front-end for canonicalize.

    Lookups happen twice: on the raw tree and on its normal form, so every
    tree in one commutative/sign orbit shares a single e-graph run.  GP runs
    revisit structures heavily and enumeration pours whole orbits through
    the same entries, so both workloads hit the cache hard.

    Both lookups key on ``expr.structural_key``, not on the ``Expr``: the
    cache then holds a few bytes per tree seen instead of the tree, and the
    trees are freed once canonicalized.  The key is an exact serialization
    (it decodes one way only), so two trees share an entry exactly when
    they are equal as ``Expr`` values; unlike a digest, it cannot collide.
    """

    def __init__(self, config: EqSatConfig = EqSatConfig()):
        self.config = config
        self._cache: dict[bytes, CanonicalForm] = {}

    def __call__(self, e: Expr) -> CanonicalForm:
        key = ex.structural_key(e)
        got = self._cache.get(key)
        if got is not None:
            return got
        n = normalize(e)
        normal_key = ex.structural_key(n)
        cf = self._cache.get(normal_key)
        if cf is None:
            cf = canonicalize(e, self.config, n)
            self._cache[normal_key] = cf
        self._cache[key] = cf
        return cf
