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
from .simplify import CanonicalForm, Canonicalizer

__all__ = [
    "enumerate_trees", "build_catalog", "Catalog", "write_catalog",
    "read_catalog", "RULESET_ID",
]

RULESET_ID = "table-eqsat-v1"

_NT = -1  # nonterminal marker in derivation token sequences


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


def enumerate_trees(max_len: int, keep=None) -> Iterator[Expr]:
    """Breadth-first derivation search (first-nonterminal expansion) that
    yields each complete derivation with length <= max_len once.

    With ``keep`` given, a partial derivation is expanded further only if
    ``keep(tree, key)`` is true; ``key`` is its production counts followed
    by its number of open nonterminals.  Calls to ``keep`` and yields
    interleave in derivation order, the order ``build_catalog``
    canonicalizes in.
    """
    if not 1 <= max_len <= 16:
        raise ValueError("max_len must be in 1..16")
    queue: deque = deque()
    # tokens, terminal count, nonterminal count, production counts
    queue.append(((_NT,), 0, 1, (0,) * len(PRODUCTIONS)))
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
            new_counts = counts[:i] + (counts[i] + 1,) + counts[i + 1:]
            if n_open == 0:
                yield _build_tree(new)
            elif keep is None or keep(_build_tree(new),
                                      new_counts + (n_open,)):
                queue.append((new, n_term + 1, n_open, new_counts))


def build_catalog(max_len: int, progress=None) -> Catalog:
    """Enumerate and de-duplicate all expressions up to ``max_len`` under
    the ``EqSatConfig`` defaults, which the catalog header records.

    A partial derivation is pruned when an earlier one has the same semantic
    hash and production counts, compared as exact bytes, so no collision can
    drop a partial.  The same call rebuilds a bit-identical catalog.
    """
    canon = Canonicalizer(EqSatConfig())
    seen_exprs: set[int] = set()
    seen_partials: set[bytes] = set()
    entries: list[CanonicalForm] = []

    def keep(tree: Expr, key: tuple) -> bool:
        pk = canon(tree).semantic_hash.to_bytes(8, "little") + bytes(key)
        if pk in seen_partials:
            return False
        seen_partials.add(pk)
        return True

    for n_visited, tree in enumerate(enumerate_trees(max_len, keep), 1):
        cf = canon(tree)
        if cf.semantic_hash not in seen_exprs:
            seen_exprs.add(cf.semantic_hash)
            entries.append(cf)
        if progress is not None and n_visited % 10000 == 0:
            progress(n_visited, len(entries))
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
