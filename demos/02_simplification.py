"""Equality saturation: canonical forms, semantic hashes, parameter folding.

Run: python demos/02_simplification.py
"""

from esrlab import expr as ex
from esrlab.egraph import dump_rules
from esrlab.simplify import canonicalize

# Two spellings of the same function family map to one canonical form.
for left, right in [
    ("x * (x + p1)", "p1 * x + x * x"),
    ("p1 * (x + p2)", "p1 * x + p2"),
]:
    a, b = canonicalize(ex.parse(left)), canonicalize(ex.parse(right))
    print(f"{left:18} -> {a.text:16} hash {a.semantic_hash:>20}")
    print(f"{right:18} -> {b.text:16} hash {b.semantic_hash:>20}")
    print("  same hash:", a.semantic_hash == b.semantic_hash)

# Parameter-only subexpressions collapse to a single fresh parameter; pure
# algebra folds to literals.
for text in ["p1 + p2", "p1 / p2 ^ p3", "x - x", "x / x"]:
    cf = canonicalize(ex.parse(text))
    print(f"{text:12} -> {cf.text:6} (constant family: {cf.is_constant})")

# The rewrite rule set is data; dump it for auditing.
print("\nfirst rules of the set:")
print("\n".join(dump_rules().splitlines()[:6]))
