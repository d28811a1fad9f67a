"""Breadth-first grammar enumeration with semantic de-duplication.

Derivations are sequences of grammar symbols; each step replaces the first
nonterminal with every production that still fits the length limit.  A
complete derivation is an expression tree.  De-duplication happens at two
points: completed expressions are kept only if their semantic hash is new,
and a partial derivation is pruned when an earlier enqueued partial with the
same symbol multiset has the same canonical form (nonterminals treated as
opaque leaves), since all of its completions would duplicate earlier ones.

The search goes one wave at a time: a wave is every derivation one
expansion deeper than the partials kept from the wave before, so all of it
is known before any of its trees is canonicalized.  ``build_catalog`` hands
a wave's trees, in derivation order, to ``Canonicalizer.forms``, which
replays the cache's lookups in that order and may canonicalize the misses
in other processes.  Whether a lookup hits depends only on the keys looked
up before it, and a miss's form only on its tree, so every form, the
cache's contents and the order of the misses are those of one process
canonicalizing one tree after another.  The forms are then used in
derivation order (entries, pruning, the next wave, ``progress``), so the
catalog is byte-identical for any number of workers.

The catalog file format is line-oriented UTF-8 text:

    #grammar=<id>
    #rules=<id>
    #eqsat=<config>
    #max_len=<L>
    <hash>\t<len>\t<nparams>\t<expression>     (one line per entry)
    #count=<N>,#crc=<crc32 of entry lines>

An entry is a ``simplify.CanonicalForm``, whose fields are these columns.

The first three headers name the definition of unique the entries are
hashed under; ``read_catalog`` refuses a file without them or with another.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass
from typing import Iterator

from . import expr as ex
from ._files import InputError, atomic_write, read_lines
from .expr import ARITY, Expr, GRAMMAR_ID, PRODUCTIONS
from .egraph import EqSatConfig
from .simplify import CanonicalForm, Canonicalizer, usable_cpus

__all__ = [
    "enumerate_trees", "build_catalog", "Catalog", "write_catalog",
    "read_catalog", "RULESET_ID",
]

RULESET_ID = "table-eqsat-v1"

_NT = -1  # nonterminal marker in derivation token sequences
_PROGRESS_EVERY = 10000  # complete trees between two progress calls


@dataclass
class Catalog:
    max_len: int
    entries: list

    def __len__(self) -> int:
        return len(self.entries)


def _definition() -> dict:
    """The definition headers every catalog carries: the grammar, the rule
    set and the e-graph limits its entries are hashed under."""
    return {"grammar": GRAMMAR_ID, "rules": RULESET_ID,
            "eqsat": EqSatConfig().key()}


def _build_tree(tokens) -> Expr:
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
        kind = PRODUCTIONS[tok]
        if kind == ex.VAR:
            return ex.var()
        if kind == ex.PARAM:
            n_params += 1
            return ex.param(n_params)
        kids = tuple(walk() for _ in range(ARITY[kind]))
        return Expr(kind, None, kids)

    return walk()


# a queue item: tokens, terminal count, nonterminal count, production counts
_ROOT = ((_NT,), 0, 1, (0,) * len(PRODUCTIONS))


def _wave(queue: deque, max_len: int, partial_trees: bool = True):
    """Every derivation one expansion deeper than those of ``queue``, which
    it empties, in derivation order: ``(tree, None)`` for a complete one and
    ``(tree, item)`` for a partial, whose queue item is ``item`` and whose
    pruning key is ``_key(item)``.  Without ``partial_trees`` a partial's
    tree is None."""
    while queue:
        tokens, n_term, n_nt, counts = queue.popleft()
        slot = tokens.index(_NT)
        for i, kind in enumerate(PRODUCTIONS):
            arity = ARITY[kind]
            n_open = n_nt - 1 + arity
            # minimal completed length if we apply this production
            if n_term + 1 + n_open > max_len:
                continue
            new = tokens[:slot] + (i,) + ((_NT,) * arity) + tokens[slot + 1:]
            if n_open == 0:
                yield _build_tree(new), None
            else:
                new_counts = counts[:i] + (counts[i] + 1,) + counts[i + 1:]
                yield (_build_tree(new) if partial_trees else None,
                       (new, n_term + 1, n_open, new_counts))


def _key(item) -> tuple:
    """A partial's production counts followed by its number of open
    nonterminals."""
    return item[3] + (item[2],)


def _check_max_len(max_len: int) -> None:
    if not 1 <= max_len <= 16:
        raise ValueError("max_len must be in 1..16")


def enumerate_trees(max_len: int, keep=None) -> Iterator[Expr]:
    """Breadth-first derivation search (first-nonterminal expansion) that
    yields each complete derivation with length <= max_len once.

    With ``keep`` given, a partial derivation is expanded further only if
    ``keep(tree, key)`` is true; ``key`` is its production counts followed
    by its number of open nonterminals.  Calls to ``keep`` and yields
    interleave in derivation order, the order ``build_catalog``
    canonicalizes in.
    """
    _check_max_len(max_len)
    queue = deque([_ROOT])
    while queue:
        kept: deque = deque()
        for tree, item in _wave(queue, max_len, keep is not None):
            if item is None:
                yield tree
            elif keep is None or keep(tree, _key(item)):
                kept.append(item)
        queue = kept


def build_catalog(max_len: int, progress=None,
                  workers: int | None = None) -> Catalog:
    """Enumerate and de-duplicate all expressions up to ``max_len`` under
    the ``EqSatConfig`` defaults, which the catalog header records.

    A partial derivation is pruned when an earlier one has the same semantic
    hash and production counts, compared as exact bytes, so no collision can
    drop a partial.  ``progress(complete trees seen, entries)`` is called
    every ``_PROGRESS_EVERY`` (10,000) complete trees.  ``workers`` (by
    default the CPUs this process may run on) bounds the processes that
    canonicalize; the same call rebuilds a bit-identical catalog for every
    ``workers``.
    """
    _check_max_len(max_len)
    if workers is None:
        workers = usable_cpus()
    seen_exprs: set[int] = set()
    seen_partials: set[bytes] = set()
    entries: list[CanonicalForm] = []
    n_visited = 0
    queue = deque([_ROOT])
    with Canonicalizer(EqSatConfig(), workers) as canon:
        while queue:
            kept: deque = deque()
            for cf, item in canon.forms(_wave(queue, max_len)):
                if item is not None:
                    pk = (cf.semantic_hash.to_bytes(8, "little")
                          + bytes(_key(item)))
                    if pk not in seen_partials:
                        seen_partials.add(pk)
                        kept.append(item)
                    continue
                if cf.semantic_hash not in seen_exprs:
                    seen_exprs.add(cf.semantic_hash)
                    entries.append(cf)
                n_visited += 1
                if progress is not None and n_visited % _PROGRESS_EVERY == 0:
                    progress(n_visited, len(entries))
            queue = kept
    return Catalog(max_len, entries)


# -- catalog files -----------------------------------------------------------

def write_catalog(catalog: Catalog, path: str) -> None:
    """Write atomically; cleans up the partial file on failure."""
    with atomic_write(path) as f:
        for k, v in _definition().items():
            f.write(f"#{k}={v}\n")
        f.write(f"#max_len={catalog.max_len}\n")
        crc = 0
        for e in catalog.entries:
            line = f"{e.semantic_hash}\t{e.n_nodes}\t{e.n_params}\t{e.text}\n"
            crc = zlib.crc32(line.encode("utf-8"), crc)
            f.write(line)
        f.write(f"#count={len(catalog.entries)},#crc={crc:08x}\n")


def _check_entry(entry: CanonicalForm) -> None:
    """Raise ValueError unless the entry's text is a rendered expression
    whose text hash, length and parameter-leaf count the entry carries."""
    e = ex.parse(entry.text)
    if ex.render(e) != entry.text:
        raise ValueError(f"expression renders as {ex.render(e)!r}")
    if ex.text_hash(entry.text) != entry.semantic_hash:
        raise ValueError("hash is not the expression's text hash")
    n_params = sum(1 for node in ex.subtrees(e) if node.kind == ex.PARAM)
    if (ex.length(e), n_params) != (entry.n_nodes, entry.n_params):
        raise ValueError(f"expression has length {ex.length(e)} and "
                         f"{n_params} parameters")


def read_catalog(path: str) -> Catalog:
    """Read a catalog written by ``write_catalog``.  A file without its
    ``#count/#crc`` footer (a truncated one), or whose entries do not match
    it, raises InputError, as does a malformed entry line (naming
    ``path:line``): one whose expression does not parse, is not in rendered
    form, or disagrees with the line's hash, length or parameter count.  So
    does a file whose definition headers are missing or not this code's, or
    whose ``#max_len`` is missing or not an integer."""
    headers: dict = {}   # key -> ("path:line", value)
    entries: list[CanonicalForm] = []
    crc = 0
    footer = None
    for lineno, line in read_lines(path):
        if line.startswith("#"):
            body = line[1:].rstrip("\n")
            if body.startswith("count="):
                footer = f"{path}:{lineno}", body
            else:
                k, _, v = body.partition("=")
                headers[k] = f"{path}:{lineno}", v
            continue
        crc = zlib.crc32(line.encode("utf-8"), crc)
        try:
            h, n, p, text = line.rstrip("\n").split("\t")
            entry = CanonicalForm(int(h), int(n), int(p), text)
            _check_entry(entry)
        except ValueError as err:
            raise InputError(f"{path}:{lineno}: malformed catalog entry "
                             f"{line.rstrip()!r}: {err}") from None
        entries.append(entry)
    if footer is None:
        raise InputError(f"{path}: no #count/#crc footer (truncated?)")
    where, body = footer
    try:
        fields = dict(part.split("=")
                      for part in body.replace("#", "").split(","))
        count, want_crc = int(fields["count"]), fields["crc"]
    except (KeyError, ValueError):
        raise InputError(f"{where}: malformed footer {body!r}") from None
    if count != len(entries):
        raise InputError(f"{where}: entry count mismatch")
    if want_crc != f"{crc:08x}":
        raise InputError(f"{where}: checksum mismatch")
    for key, want in _definition().items():
        if key not in headers:
            raise InputError(f"{path}: no #{key} header")
        where, got = headers[key]
        if got != want:
            raise InputError(f"{where}: header #{key}={got} differs from "
                             f"{want}, the definition of unique this code "
                             "hashes under")
    where, max_len = headers.get("max_len", (path, ""))
    if max_len.isdecimal():
        try:
            return Catalog(int(max_len), entries)
        except ValueError:   # more digits than int() converts
            pass
    raise InputError(f"{where}: no integer #max_len header (got {max_len!r})")
