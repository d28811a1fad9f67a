import math
import time
import zlib

import pytest

from esrlab import expr as ex
from esrlab.enumeration import (build_catalog, enumerate_trees, read_catalog,
                                write_catalog)
from esrlab.simplify import canonicalize

from conftest import slow
from oracles import trees_cumulative


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


def test_partial_pruning_is_sound():
    # pruning may only remove duplicates, never change the unique set
    pruned = build_catalog(5)
    full = build_catalog(5, prune_partials=False)
    assert {e.semantic_hash for e in pruned.entries} == \
        {e.semantic_hash for e in full.entries}


def test_rebuild_bit_identical(tmp_path, catalog4):
    again = build_catalog(4)
    assert again.entries == catalog4.entries
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    write_catalog(catalog4, str(p1))
    write_catalog(again, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_catalog_lookup(catalog4):
    h = canonicalize(ex.parse("x")).semantic_hash
    entry = catalog4.lookup(h)
    assert entry is not None and entry.text == "x"
    h = canonicalize(ex.parse("p1 + p2")).semantic_hash
    entry = catalog4.lookup(h)
    assert entry is not None and entry.text == "p1"
    assert catalog4.lookup(12345) is None


def test_catalog_file_roundtrip(tmp_path, catalog6):
    path = tmp_path / "catalog.tsv"
    write_catalog(catalog6, str(path))
    back = read_catalog(str(path))
    assert back.entries == catalog6.entries
    assert back.max_len == catalog6.max_len
    assert back.meta["grammar"] == catalog6.meta["grammar"]


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


def test_entry_texts_parse_back(catalog6):
    for entry in catalog6.entries:
        e = ex.parse(entry.text)
        assert ex.length(e) == entry.n_nodes
        assert ex.param_count(e) == entry.n_params


# Golden (entry count, crc32 of the entry lines) per length: they pin the
# de-duplication semantics, so a change to enumeration, normalization or
# saturation that moves a catalog by one entry fails here.
GOLDEN = {4: (27, "b2e9792d"), 5: (129, "5d42a7e2"), 6: (334, "5ff16590"),
          7: (1713, "5a9e2dcc"), 8: (5275, "3991ba8c")}


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
@pytest.mark.parametrize("max_len", [7, 8])
def test_golden_catalogs_slow(max_len):
    assert _digest(build_catalog(max_len)) == GOLDEN[max_len]
