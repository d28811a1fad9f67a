"""Breadth-first grammar enumeration with semantic de-duplication.

Derivations are sequences of grammar symbols; each step replaces the first
nonterminal with every production that still fits the length limit.  A
complete derivation is an expression tree.  De-duplication happens at two
points: completed expressions are kept only if their semantic hash is new,
and a partial derivation is pruned when an earlier enqueued partial with the
same symbol multiset has the same canonical form (nonterminals treated as
opaque leaves), since all of its completions would duplicate earlier ones.

The catalog file format is line-oriented UTF-8 text:

    #grammar=<id>
    #rules=<id>
    #eqsat=<config>
    #max_len=<L>
    <hash>\t<len>\t<nparams>\t<expression>     (one line per entry)
    #count=<N>,#crc=<crc32 of entry lines>
"""

from __future__ import annotations

import hashlib
import os
import struct
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Optional

from . import expr as ex
from .expr import Expr, DEFAULT_GRAMMAR, Grammar
from .egraph import EqSatConfig
from .simplify import Canonicalizer

__all__ = [
    "enumerate_trees", "build_catalog", "Catalog", "CatalogEntry",
    "write_catalog", "read_catalog", "RULESET_ID",
]

RULESET_ID = "table-eqsat-v1"

_NT = -1  # nonterminal marker in derivation token sequences


@dataclass(frozen=True)
class CatalogEntry:
    semantic_hash: int
    n_nodes: int
    n_params: int
    text: str


@dataclass
class Catalog:
    max_len: int
    entries: list
    meta: dict = field(default_factory=dict)
    _index: Optional[dict] = None

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, semantic_hash: int) -> Optional[CatalogEntry]:
        if self._index is None:
            self._index = {e.semantic_hash: e for e in self.entries}
        return self._index.get(semantic_hash)


def _build_tree(tokens, productions) -> Expr:
    """Build the pre-order expression for a (possibly partial) derivation."""
    pos = 0
    n_params = 0
    n_holes = 0

    def walk() -> Expr:
        nonlocal pos, n_params, n_holes
        tok = tokens[pos]
        pos += 1
        if tok == _NT:
            n_holes += 1
            return ex.hole(n_holes)
        name, kind, arity = productions[tok]
        if kind == ex.VAR:
            return ex.var(1)
        if kind == ex.PARAM:
            n_params += 1
            return ex.param(n_params)
        kids = tuple(walk() for _ in range(arity))
        return Expr(kind, None, kids)

    return walk()


def _expand(max_len: int, grammar: Grammar, keep=None) -> Iterator[Expr]:
    """Breadth-first derivation search (first-nonterminal expansion) that
    yields each complete derivation with length <= max_len once.

    A partial derivation is expanded further only if ``keep(tree, key)`` is
    true; ``key`` is its production counts followed by its number of open
    nonterminals.  Calls to ``keep`` and yields interleave in derivation
    order, the order ``build_catalog`` canonicalizes in.
    """
    if not 1 <= max_len <= 16:
        raise ValueError("max_len must be in 1..16")
    productions = grammar.productions
    queue: deque = deque()
    # tokens, terminal count, nonterminal count, production counts
    queue.append(((_NT,), 0, 1, (0,) * len(productions)))
    while queue:
        tokens, n_term, n_nt, counts = queue.popleft()
        slot = tokens.index(_NT)
        for i, (name, kind, arity) in enumerate(productions):
            n_open = n_nt - 1 + arity
            # minimal completed length if we apply this production
            if n_term + 1 + n_open > max_len:
                continue
            new = tokens[:slot] + (i,) + ((_NT,) * arity) + tokens[slot + 1:]
            new_counts = counts[:i] + (counts[i] + 1,) + counts[i + 1:]
            if n_open == 0:
                yield _build_tree(new, productions)
            elif keep is None or keep(_build_tree(new, productions),
                                      new_counts + (n_open,)):
                queue.append((new, n_term + 1, n_open, new_counts))


def enumerate_trees(max_len: int,
                    grammar: Grammar = DEFAULT_GRAMMAR) -> Iterator[Expr]:
    """Yield every complete derivation with length <= max_len exactly once,
    in breadth-first order (first-nonterminal expansion)."""
    return _expand(max_len, grammar)


def _partial_key(canon_hash: int, token_counts: tuple) -> int:
    payload = struct.pack("<Q", canon_hash) + bytes(token_counts)
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "little")


def build_catalog(max_len: int,
                  eqsat: EqSatConfig = EqSatConfig(),
                  grammar: Grammar = DEFAULT_GRAMMAR,
                  prune_partials: bool = True,
                  progress=None) -> Catalog:
    """Enumerate and de-duplicate all expressions up to ``max_len``.

    Deterministic for a given configuration: the same call rebuilds a
    bit-identical catalog.
    """
    canon = Canonicalizer(eqsat)
    seen_exprs: set[int] = set()
    seen_partials: set[int] = set()
    entries: list[CatalogEntry] = []

    # partials are canonicalized even without pruning: the cache's answers
    # depend on its history, so skipping them would change the catalog
    def keep(tree: Expr, key: tuple) -> bool:
        h = canon(tree).semantic_hash
        if not prune_partials:
            return True
        pk = _partial_key(h, key)
        if pk in seen_partials:
            return False
        seen_partials.add(pk)
        return True

    for n_visited, tree in enumerate(_expand(max_len, grammar, keep), 1):
        cf = canon(tree)
        if cf.semantic_hash not in seen_exprs:
            seen_exprs.add(cf.semantic_hash)
            entries.append(CatalogEntry(
                cf.semantic_hash, cf.n_nodes, cf.n_params, cf.text))
        if progress is not None and n_visited % 10000 == 0:
            progress(n_visited, len(entries))

    meta = {
        "grammar": grammar.name,
        "rules": RULESET_ID,
        "eqsat": eqsat.key(),
        "max_len": str(max_len),
    }
    return Catalog(max_len, entries, meta)


# -- catalog files -----------------------------------------------------------

def write_catalog(catalog: Catalog, path: str) -> None:
    """Write atomically; cleans up the partial file on failure."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            for k in ("grammar", "rules", "eqsat", "max_len"):
                f.write(f"#{k}={catalog.meta.get(k, '')}\n")
            crc = 0
            for e in catalog.entries:
                line = f"{e.semantic_hash}\t{e.n_nodes}\t{e.n_params}\t{e.text}\n"
                crc = zlib.crc32(line.encode("utf-8"), crc)
                f.write(line)
            f.write(f"#count={len(catalog.entries)},#crc={crc:08x}\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_catalog(path: str) -> Catalog:
    meta: dict = {}
    entries: list[CatalogEntry] = []
    crc = 0
    footer = None
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#"):
                body = line[1:].rstrip("\n")
                if body.startswith("count="):
                    footer = body
                else:
                    k, _, v = body.partition("=")
                    meta[k] = v
                continue
            crc = zlib.crc32(line.encode("utf-8"), crc)
            h, n, p, text = line.rstrip("\n").split("\t")
            entries.append(CatalogEntry(int(h), int(n), int(p), text))
    if footer is not None:
        fields = dict(part.split("=") for part in footer.replace("#", "").split(","))
        if int(fields["count"]) != len(entries):
            raise ValueError(f"catalog {path}: entry count mismatch")
        if fields["crc"] != f"{crc:08x}":
            raise ValueError(f"catalog {path}: checksum mismatch")
    return Catalog(int(meta.get("max_len", 0)), entries, meta)
