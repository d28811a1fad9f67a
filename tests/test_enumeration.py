import math
import multiprocessing
import os
import re
import signal
import time
import zlib

import pytest

from esrlab import enumeration, simplify
from esrlab import expr as ex
from esrlab._files import InputError
from esrlab.egraph import EqSatConfig
from esrlab.enumeration import (RULESET_ID, Catalog, build_catalog,
                                enumerate_trees, read_catalog, write_catalog)
from esrlab.simplify import CanonicalForm, canonicalize

from conftest import slow
from oracles import (sequential_catalog, trees_cumulative,
                     unpruned_catalog_hashes)


def test_raw_counts_match_recursive_oracle():
    t0 = time.time()
    for max_len in range(1, 9):
        got = sum(1 for _ in enumerate_trees(max_len))
        assert got == trees_cumulative(max_len), max_len
    assert time.time() - t0 < 60.0


def test_length_one_is_x_and_p():
    trees = list(enumerate_trees(1))
    assert [ex.render(t) for t in trees] == ["x", "p1"]


def test_each_tree_exactly_once():
    seen = set()
    for t in enumerate_trees(6):
        h = ex.structural_hash(t)
        assert h not in seen
        seen.add(h)
    assert len(seen) == trees_cumulative(6)


def test_trees_respect_length_budget():
    assert all(ex.length(t) <= 5 for t in enumerate_trees(5))


def test_growth_rate_sanity():
    # exponential fit of the raw counts has rate near the documented curve
    lo = math.log(trees_cumulative(9))
    hi = math.log(trees_cumulative(11))
    rate = (hi - lo) / 2.0
    assert 1.5 < rate < 2.1


def test_bad_max_len_rejected():
    with pytest.raises(ValueError):
        list(enumerate_trees(0))
    with pytest.raises(ValueError):
        build_catalog(17)


def test_catalog_smallest():
    cat = build_catalog(1)
    assert [e.text for e in cat.entries] == ["x", "p1"]


def test_catalog_invariants(catalog6):
    hashes = [e.semantic_hash for e in catalog6.entries]
    assert len(hashes) == len(set(hashes))
    assert all(e.n_nodes <= 6 for e in catalog6.entries)
    assert all(e.n_params <= e.n_nodes for e in catalog6.entries)


def test_catalog_subset_chain(catalog4, catalog6):
    small = {e.semantic_hash for e in catalog4.entries}
    large = {e.semantic_hash for e in catalog6.entries}
    assert small <= large


def test_unique_counts_monotone_and_bounded(catalog4, catalog6):
    assert len(catalog4) <= len(catalog6)
    assert len(catalog4) <= trees_cumulative(4)
    assert len(catalog6) <= trees_cumulative(6)


@pytest.mark.parametrize("max_len", [5, pytest.param(6, marks=pytest.mark.xfail(
    strict=True, reason="canonical forms depend on the cache's history and "
    "are not idempotent: at length 6 pruning gives 334 entries, without "
    "it 338"))])
def test_partial_pruning_is_sound(max_len):
    # pruning may only remove duplicates, never change the unique set
    pruned = build_catalog(max_len)
    assert {e.semantic_hash for e in pruned.entries} == \
        unpruned_catalog_hashes(max_len)


@pytest.mark.xfail(strict=True, reason="canonical forms depend on the "
                   "cache's history")
def test_fresh_form_is_in_catalog(catalog4):
    # |1.0 / x| ^ x and 1.0 / |x| ^ x share the normal form
    # |x| ^ (-1.0 * x), and the raw tree anchors extraction: the catalog
    # lists the orbit as 1.0 / |x| ^ x, while a fresh canonicalize of the
    # first tree gives |x| ^ (-x), so a GP record of that tree falls outside
    # the catalog
    cf = canonicalize(ex.parse("|1.0 / x| ^ x"))
    assert cf.semantic_hash in {e.semantic_hash for e in catalog4.entries}, \
        cf.text


@pytest.mark.parametrize("max_len, offered, kept", [
    (5, 412, 365), (6, 1630, 1344),
    pytest.param(7, 10099, 7994, marks=slow)])
def test_partial_pruning_counts(monkeypatch, max_len, offered, kept):
    # how many partials build_catalog is offered and keeps, pinned so that a
    # change to the pruning key shows up even where the catalog does not
    # (offered: partials a wave derives; kept: partials queued for the
    # next wave, the root aside)
    counts = [0, -1]
    wave = enumeration._wave

    def counting(queue, *args):
        counts[1] += len(queue)
        for tree, item in wave(queue, *args):
            counts[0] += item is not None
            yield tree, item

    monkeypatch.setattr(enumeration, "_wave", counting)
    build_catalog(max_len)
    assert counts == [offered, kept]


def test_rebuild_bit_identical(tmp_path, catalog4):
    again = build_catalog(4)
    assert again.entries == catalog4.entries
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    write_catalog(catalog4, str(p1))
    write_catalog(again, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_catalog_lookup(catalog4):
    by_hash = {e.semantic_hash: e for e in catalog4.entries}
    h = canonicalize(ex.parse("x")).semantic_hash
    assert by_hash[h].text == "x"
    h = canonicalize(ex.parse("p1 + p2")).semantic_hash
    assert by_hash[h].text == "p1"
    assert 12345 not in by_hash


def _headers(max_len):
    return [f"#grammar={ex.GRAMMAR_ID}\n", f"#rules={RULESET_ID}\n",
            f"#eqsat={EqSatConfig().key()}\n", f"#max_len={max_len}\n"]


def test_catalog_file_roundtrip(tmp_path, catalog6):
    path = tmp_path / "catalog.tsv"
    write_catalog(catalog6, str(path))
    back = read_catalog(str(path))
    assert back.entries == catalog6.entries
    assert back.max_len == catalog6.max_len
    assert path.read_text().splitlines(keepends=True)[:4] == _headers(6)


def test_catalog_headers_come_from_the_definition_and_max_len(tmp_path):
    """A Catalog built by hand writes the same headers as a built one."""
    path = tmp_path / "catalog.tsv"
    write_catalog(Catalog(2, build_catalog(2).entries), str(path))
    assert path.read_text().splitlines(keepends=True)[:4] == _headers(2)
    assert read_catalog(str(path)).max_len == 2


@pytest.mark.parametrize("old, new, names", [
    ("#grammar=", "#grammar=other\n", ":1: header #grammar=other differs"),
    ("#eqsat=", "", ": no #eqsat header"),
    ("#max_len=", "", r": no integer #max_len header \(got ''\)"),
    ("#max_len=", "#max_len=\n",
     r":4: no integer #max_len header \(got ''\)"),
    ("#max_len=", "#max_len=3.5\n",
     r":4: no integer #max_len header \(got '3.5'\)"),
    ("#max_len=", f"#max_len={'9' * 5000}\n",
     r":4: no integer #max_len header \(got '9999"),
], ids=["grammar", "no_eqsat", "no_max_len", "empty_max_len",
        "float_max_len", "huge_max_len"])
def test_catalog_headers_are_checked(tmp_path, catalog4, old, new, names):
    """A catalog hashed under another definition of unique, or without the
    headers that say which, is refused by path, line and header (the CLI
    test ``test_analyze_dups_checks_catalog_definition`` covers #rules and
    #eqsat values)."""
    path = tmp_path / "catalog.tsv"
    write_catalog(catalog4, str(path))
    lines = [new if line.startswith(old) else line
             for line in path.read_text().splitlines(keepends=True)]
    path.write_text("".join(lines))
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}{names}"):
        read_catalog(str(path))


def test_catalog_checksum_detects_corruption(tmp_path, catalog6):
    path = tmp_path / "catalog.tsv"
    write_catalog(catalog6, str(path))
    lines = path.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            lines[i] = line.replace("x", "p1", 1)
            break
    path.write_text("".join(lines))
    with pytest.raises(ValueError):
        read_catalog(str(path))


def test_truncated_catalog_is_rejected(tmp_path, catalog4):
    path = tmp_path / "catalog.tsv"
    write_catalog(catalog4, str(path))
    lines = path.read_text().splitlines(keepends=True)
    head = [l for l in lines if l.startswith("#") and "count=" not in l]
    body = [l for l in lines if not l.startswith("#")]
    assert len(body) == 27
    path.write_text("".join(head + body[:4]))
    with pytest.raises(ValueError, match="catalog.tsv: no #count/#crc"):
        read_catalog(str(path))


def test_malformed_catalog_line_names_its_line(tmp_path, catalog4):
    path = tmp_path / "catalog.tsv"
    write_catalog(catalog4, str(path))
    lines = path.read_text().splitlines(keepends=True)
    lines[5] = "12\tx\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=r"catalog\.tsv:6: malformed"):
        read_catalog(str(path))


def _entry(text, n_nodes=3, n_params=1, hashed=None):
    return CanonicalForm(ex.text_hash(hashed or text), n_nodes, n_params, text)


@pytest.mark.parametrize("entry, reason", [
    (_entry("x + ", 2, 0), "end of input"),
    (_entry("x+p1"), "renders as 'x \\+ p1'"),
    (_entry("x + p1", hashed="x - p1"), "hash is not"),
    (_entry("x + p1", n_nodes=4), "length 3 and 1 parameters"),
    (_entry("x + p1", n_params=2), "length 3 and 1 parameters"),
], ids=["unparsable", "unrendered", "hash", "length", "params"])
def test_catalog_entry_text_is_checked(tmp_path, catalog4, entry, reason):
    """An entry whose text, hash, length or parameter count disagree is
    rejected by name, though the footer matches the lines."""
    path = tmp_path / "catalog.tsv"
    write_catalog(Catalog(4, [entry] + catalog4.entries[1:]), str(path))
    with pytest.raises(ValueError,
                       match=rf"catalog\.tsv:5: malformed .*: .*{reason}"):
        read_catalog(str(path))


def test_entry_texts_parse_back(catalog6):
    for entry in catalog6.entries:
        e = ex.parse(entry.text)
        assert ex.length(e) == entry.n_nodes
        assert ex.param_count(e) == entry.n_params


# Golden (entry count, crc32 of the entry lines) per length: they pin the
# de-duplication semantics, so a change to enumeration, normalization or
# saturation that moves a catalog by one entry fails here.
GOLDEN = {4: (27, "b2e9792d"), 5: (129, "5d42a7e2"), 6: (334, "5ff16590"),
          7: (1713, "5a9e2dcc"), 8: (5275, "3991ba8c"),
          9: (26650, "bddd5256")}


def _digest(catalog):
    crc = 0
    for e in catalog.entries:
        line = f"{e.semantic_hash}\t{e.n_nodes}\t{e.n_params}\t{e.text}\n"
        crc = zlib.crc32(line.encode("utf-8"), crc)
    return len(catalog.entries), f"{crc:08x}"


def test_golden_catalogs(catalog4, catalog6):
    assert _digest(catalog4) == GOLDEN[4]
    assert _digest(build_catalog(5)) == GOLDEN[5]
    assert _digest(catalog6) == GOLDEN[6]


@slow
@pytest.mark.parametrize("max_len", [7, 8, 9])
def test_golden_catalogs_slow(max_len):
    assert _digest(build_catalog(max_len)) == GOLDEN[max_len]


# -- waves, helpers and the sequential reference ------------------------------

def _check_against_oracle(monkeypatch, max_len, workers):
    """Entries and progress calls (every 7 complete trees, so that there
    are some) match the sequential reference's, and no helper is left."""
    monkeypatch.setattr(enumeration, "_PROGRESS_EVERY", 7)
    want_calls, got_calls = [], []
    want = sequential_catalog(max_len, lambda *a: want_calls.append(a), 7)
    got = build_catalog(max_len, lambda *a: got_calls.append(a), workers)
    assert (got.entries, got_calls) == (want, want_calls)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("max_len", [1, 2, 3, 4, 5, 6])
def test_catalog_matches_sequential_oracle(monkeypatch, max_len, workers):
    """Going through the BFS a wave at a time, with the misses canonicalized
    in a helper or not, changes neither the entries nor the progress
    calls."""
    _check_against_oracle(monkeypatch, max_len, workers)


@slow
@pytest.mark.parametrize("workers", [1, 2])
def test_catalog_matches_sequential_oracle_slow(monkeypatch, workers):
    _check_against_oracle(monkeypatch, 7, workers)


def test_misses_are_the_same_for_every_workers(monkeypatch):
    """The chunks of misses handed out, each miss and their order, do not
    depend on how many processes canonicalize them."""
    hand_out = simplify.Canonicalizer._hand_out

    def recorded(self, anywhere):
        chunks.append([ex.structural_key(m.tree) for m in self._misses])
        hand_out(self, anywhere)

    monkeypatch.setattr(simplify.Canonicalizer, "_hand_out", recorded)
    runs = []
    for workers in (1, 2):
        chunks = []
        build_catalog(5, workers=workers)
        runs.append(chunks)
    assert runs[0] == runs[1]
    assert sum(len(c) for c in runs[0]) > 100


def test_no_helper_outlives_a_build_whose_progress_raises(monkeypatch):
    monkeypatch.setattr(enumeration, "_PROGRESS_EVERY", 50)
    running = []

    def progress(*_):
        running.append(len(multiprocessing.active_children()))
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        build_catalog(6, progress, workers=2)
    assert running == [1]
    assert multiprocessing.active_children() == []


def test_a_helpers_exception_reaches_the_caller(monkeypatch):
    """An exception raised while a helper canonicalizes reaches the caller
    with its type and message, and no helper is left running."""
    parent = os.getpid()
    canonicalize = simplify.canonicalize

    def failing(*args):
        if os.getpid() != parent:
            raise ArithmeticError("raised in a helper")
        return canonicalize(*args)

    monkeypatch.setattr(simplify, "canonicalize", failing)
    with pytest.raises(ArithmeticError, match="^raised in a helper$"):
        build_catalog(5, workers=2)
    assert multiprocessing.active_children() == []
    # a Canonicalizer that met the exception keeps no entry waiting for a
    # form that will never come, and answers from here on
    canon = simplify.Canonicalizer(workers=2)
    with pytest.raises(ArithmeticError):
        list(canon.forms((t, None) for t in enumerate_trees(5)))
    assert multiprocessing.active_children() == []
    assert all(isinstance(cf, CanonicalForm) for cf in canon._cache.values())
    monkeypatch.setattr(simplify, "canonicalize", canonicalize)
    tree = ex.parse("x * (x + p1)")
    assert canon(tree) == canonicalize(tree)


def test_a_helper_that_dies_is_named(monkeypatch):
    """A helper killed while it canonicalizes fails the build with a
    RuntimeError that names its exit, not a pipe error."""
    parent = os.getpid()
    canonicalize = simplify.canonicalize
    done = []

    def dying(*args):
        if os.getpid() != parent:
            done.append(1)
            if len(done) == 20:
                os.kill(os.getpid(), signal.SIGKILL)
        return canonicalize(*args)

    monkeypatch.setattr(simplify, "canonicalize", dying)
    with pytest.raises(RuntimeError, match=r"helper \d+ exited with code -9"):
        build_catalog(6, workers=2)
    assert multiprocessing.active_children() == []


def test_a_build_in_a_daemonic_worker_runs_alone():
    """A pool worker may not start processes of its own, so a build there
    canonicalizes every miss in the worker."""
    with multiprocessing.get_context("fork").Pool(1) as pool:
        catalog = pool.apply(build_catalog, (4, None, 2))
    assert _digest(catalog) == GOLDEN[4]
