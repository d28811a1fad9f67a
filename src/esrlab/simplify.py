"""Canonical forms and semantic hashing via equality saturation.

``canonicalize`` inserts an expression into a fresh e-graph, saturates the
rewrite rules, extracts the cost-minimal representative, renumbers parameter
leaves left to right, and hashes the rendered text.  Two expressions have the
same semantic hash exactly when this pipeline maps them to the same canonical
form, which treats reparameterisations (for example ``p1*(x+p2)`` against
``p1*x + p2``) as the same function family.  ``Canonicalizer`` memoizes
forms by normal form, one entry per ``canonicalize`` call.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass

from . import expr as ex
from .expr import Expr, PARAM
from .egraph import EGraph, EqSatConfig
from .normalize import normalize

__all__ = ["CanonicalForm", "canonicalize", "Canonicalizer", "EqSatConfig",
           "usable_cpus"]


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


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the system has
    one (``os.cpu_count()`` also counts CPUs the mask excludes)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity masks on this system
        return os.cpu_count() or 1


# Misses per chunk, wherever it is canonicalized, and chunks a helper may
# hold at once, the one it works on included.  At length 7 a backlog of 2
# left the helper idle while the parent canonicalized chunks of its own.
_CHUNK = 8
_BACKLOG = 4


class _Miss:
    """A tree the cache missed: its canonical form once known, and until
    then the tree and its normal form; ``key`` is the normal form's."""

    __slots__ = ("tree", "normal", "key", "form")

    def __init__(self, tree: Expr, normal: Expr, key: bytes):
        self.tree, self.normal, self.key = tree, normal, key
        self.form = None


class Canonicalizer:
    """Caching front-end for canonicalize.

    Each tree is looked up by its normal form's ``expr.structural_key``,
    so every tree of one commutative/sign orbit shares one e-graph run, and
    a miss canonicalizes the tree itself, which anchors extraction.  The
    cache holds one entry per miss; a caller that revisits the same trees,
    as GP does, keeps its own memo in front of it.  The key is an exact
    serialization, a few bytes where the tree would be many: it decodes one
    way only, so two normal forms share an entry exactly when they are
    equal as ``Expr`` values, and unlike a digest it cannot collide.

    ``forms`` looks up many trees in order, and ``__call__`` is its
    one-tree case.  Whether a lookup hits depends only on which keys came
    before it, never on a form's value, and each miss is the pure call
    ``canonicalize(tree, config, normal)``.  So ``forms`` replays the
    lookups in order, with a placeholder for each miss, and gathers the
    misses into chunks of ``_CHUNK``.  With ``workers > 1`` a chunk goes to
    one of ``workers - 1`` helper processes, forked the first time one is
    needed (never in a daemonic process, such as a pool worker, which may
    not start any); the caller's process canonicalizes a chunk itself when
    every helper holds ``_BACKLOG`` chunks, so no more than ``workers``
    CPUs are busy.  The cache's contents, the misses and their order, and
    the forms returned are the same for every ``workers``.  ``close`` (or
    leaving a ``with`` block) stops the helpers.
    """

    def __init__(self, config: EqSatConfig = EqSatConfig(),
                 workers: int = 1):
        self.config = config
        self.workers = workers
        self._cache: dict[bytes, CanonicalForm | _Miss] = {}
        self._misses: list[_Miss] = []   # the chunk being gathered
        self._helpers: list = []   # of _helper.Helper

    def __call__(self, e: Expr) -> CanonicalForm:
        (cf, _), = self.forms(((e, None),))
        return cf

    def forms(self, items):
        """Yield ``(form, payload)`` for each ``(tree, payload)`` of
        ``items``, in order; a form is yielded once it and every form
        before it are known."""
        cache = self._cache
        window: deque = deque()   # (form or _Miss, payload), oldest first
        try:
            for tree, payload in items:
                n = normalize(tree)
                key = ex.structural_key(n)
                got = cache.get(key)
                if got is None:
                    got = cache[key] = _Miss(tree, n, key)
                    self._misses.append(got)
                    if len(self._misses) == _CHUNK:
                        self._hand_out(anywhere=True)
                window.append((got, payload))
                while window:
                    got, payload = window[0]
                    if type(got) is _Miss:
                        if got.form is None:
                            break
                        got = got.form
                    window.popleft()
                    yield got, payload
            if self._misses:
                self._hand_out(anywhere=False)
            self._collect(block=True)
        except GeneratorExit:
            raise   # the caller stopped early: nothing is lost
        except BaseException:
            self.close()
            raise
        for got, payload in window:
            yield (got.form if type(got) is _Miss else got), payload

    def _hand_out(self, anywhere: bool) -> None:
        """Canonicalize the gathered chunk: ``anywhere``, in a helper with
        room if there is one (started if fewer than ``workers - 1`` run),
        else here."""
        chunk, self._misses = self._misses, []
        if anywhere:
            self._collect(block=False)
            helper = next((h for h in self._helpers
                           if len(h.held) < _BACKLOG), None)
            if helper is None and len(self._helpers) < self.workers - 1:
                helper = self._start_helper()
            if helper is not None:
                helper.send([(m.tree, m.normal) for m in chunk])
                helper.held.append(chunk)
                for m in chunk:
                    m.tree = m.normal = None
                return
        self._resolve(chunk, [canonicalize(m.tree, self.config, m.normal)
                              for m in chunk])

    def _resolve(self, chunk: list, forms: list) -> None:
        cache = self._cache
        for m, cf in zip(chunk, forms):
            m.form = cache[m.key] = cf
            m.tree = m.normal = None

    def _collect(self, block: bool) -> None:
        """Take in the forms of every chunk a helper has finished; with
        ``block``, wait until no helper holds a chunk.  A helper's exception
        is raised here."""
        for helper in self._helpers:
            while helper.held and (block or helper.poll()):
                self._resolve(helper.held.popleft(), helper.recv())

    def _start_helper(self):
        from ._helper import start   # here, so that importing stays cheap
        helper = start("canonicalization", _serve, self.config)
        if helper is None:
            self.workers = 1   # a daemonic process may not start children
            return None
        self._helpers.append(helper)
        return helper

    def close(self) -> None:
        """Stop the helpers and wait for them to exit.  Entries still
        waiting for a form (the lookups of an unfinished ``forms``) are
        dropped from the cache."""
        helpers, self._helpers = self._helpers, []
        for helper in helpers:
            helper.close()
        self._misses = []
        for key in [k for k, v in self._cache.items() if type(v) is _Miss]:
            del self._cache[key]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _serve(conn, config: EqSatConfig) -> None:
    """A helper's loop: canonicalize each chunk of ``(tree, normal)`` pairs
    it receives and send back the forms."""
    while True:
        conn.send([canonicalize(t, config, n) for t, n in conn.recv()])
