"""Search-space enumeration: raw tree counts against unique expressions.

Run: python demos/03_enumeration.py   (about a minute)
"""

import os
import tempfile

from esrlab.enumeration import build_catalog, enumerate_trees, write_catalog

print("max length | raw trees | unique expressions")
for max_len in range(1, 7):
    raw = sum(1 for _ in enumerate_trees(max_len))
    cat = build_catalog(max_len)
    print(f"{max_len:10d} | {raw:9d} | {len(cat):10d}")

cat = build_catalog(6)
print("\nfirst entries of the length-6 catalog:")
for entry in cat.entries[:12]:
    print(f"  {entry.text:22} nodes={entry.n_nodes} params={entry.n_params}")

out = os.path.join(tempfile.gettempdir(), "catalog6.tsv")
write_catalog(cat, out)
print(f"\nwrote {out} (header, entries, checksum footer)")
