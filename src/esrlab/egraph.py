"""Equality-saturation engine: e-graph, rewrite rules, canonical extraction.

Internally the reciprocal and powabs operators are desugared so the rewrite
rules operate on a small vocabulary with true-power semantics:

    inv(a)       ->  pow(a, -1)
    powabs(a, b) ->  pow(abs(a), b)

Every e-class carries an analysis value: NumericConst(v) when the class folds
to a literal, ParamOnly when it contains parameters/constants only (such a
class collapses to a single fresh parameter: reparameterisation equivalence),
or NotConstant.  ``_const_analysis`` defines it from the children's values,
and ``normalize`` folds through the same function.  A separate nonnegativity
flag drives ``abs(a) -> a``.

Rebuilding is deferred and incremental, as in egg (Willsey et al., "egg:
Fast and Extensible Equality Saturation", POPL 2021).  Each class has a use
list: the e-nodes that have it as a child.  A union concatenates the two use
lists and puts the surviving root on a pending list, and ``rebuild`` works
through that list in rounds.  For a pending root it re-keys only the nodes
in the root's use list; a key that now collides with another node's merges
the two classes.  Once no root is pending, it folds the merged classes and
re-makes their parents' analyses, joining each into its class; a class whose
analysis grew is repaired in turn, so analyses are repaired upward from the
merges.  As in egg, only a merge that changed an analysis is repaired: a
union flags its root when the join changes either side's (kind, value,
nonneg), which is all a parent's analysis reads, and a later union carries
the flag to its own root.  Nearly every union joins equal analyses, and
folding or re-making parents after one changes nothing.  A fold that merges
with a literal's class starts the next round.  Last, it re-canonicalizes the
node lists of the classes it touched.  Congruence comes before analyses, as
in the whole-graph rebuild this replaced, because the order in which folds
land decides which nodes a fold hides and how many fresh parameters exist.

A node sits in the use list of each of its children as one shared record,
[hashcons key, class, live].  Re-keying through one child updates the key
the other list sees, and a node merged into a congruent one is marked dead
for both.  With a copy of the key in each list, the second list would later
hold a key that is already gone, and the node's current key would stay in
the hashcons for good: ``n_nodes``, the size the node budget reads, would
grow.

Each directed rule is compiled once: its left-hand side into a matcher, its
right-hand side into a builder, straight-line code that adds the right
side's missing nodes bottom-up.  Two directions that are the same rule up to
the names of their variables, as both directions of ``a + b = b + a`` are,
are compiled once: the second would find the same matches and build the
same nodes.

Extraction returns the cost-minimal member under (parameter count, node
count, fixed total order).  Costs are counted on the surface form an e-node
prints as; ``EGraph._forms`` lists them, with one more node per operator:

    leaf       x, p, a literal or a hole
    plain      the operator over its children: a + b, a * b, abs(a), -a
    inv        pow(a, -1) and 1 / a print as inv(a)
    neg        -1 * a prints as -a
    neg(inv)   -1 / a prints as -inv(a), two nodes over a
    powabs     pow(a, b) prints as powabs(a, b) with an abs-free base: a base
               class may print its member abs(u) as u, at the cost of u
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import expr as ex
from .expr import (
    Expr, VAR, PARAM, CONST, ADD, SUB, MUL, DIV, INV, POWABS, NEG, ABS, HOLE,
)

__all__ = [
    "EGraph", "EGraphCapacityError", "ExtractionError", "SaturationReport",
    "RewriteRule", "RULES", "dump_rules", "EqSatConfig",
]

POW = 12  # internal true-power operator (not an Expr kind)

# analysis kinds, ordered by precision
_OTHER = 0
_PARAMONLY = 1
_CONST = 2

# first fresh parameter index used when folding parameter-only classes
_FRESH_BASE = 1 << 20

_LEAVES = (VAR, PARAM, CONST, HOLE)


def _neg_inv(a: Expr) -> Expr:
    return ex.neg(ex.inv(a))


def _unwrap(a: Expr) -> Expr:
    return a


# constructors of the plain surface forms, and the leaf forms with their
# costs (see the module docstring)
_PLAIN = {ADD: ex.add, SUB: ex.sub, MUL: ex.mul, DIV: ex.div, NEG: ex.neg,
          ABS: ex.abs_}
_LEAF_FORMS = {VAR: (((0, 1), lambda _: ex.var(), ()),),
               PARAM: (((1, 1), ex.param, ()),),
               CONST: (((0, 1), ex.const, ()),),
               HOLE: (((0, 1), ex.hole, ()),)}


class EGraphCapacityError(RuntimeError):
    """Configured node budget exceeded while inserting an expression."""


class ExtractionError(RuntimeError):
    """No finite extraction exists for the requested class."""


@dataclass
class SaturationReport:
    iterations: int
    stop_reason: str  # "fixpoint" | "iter_limit" | "node_budget"
    n_nodes: int
    n_classes: int


@dataclass(frozen=True)
class EqSatConfig:
    """Equality-saturation effort limits.

    This rule set does not always reach a finite fixpoint (power/exponent
    rules keep producing larger terms; 3,705 of the 6,559 saturations of a
    length-7 catalog build reach one), so canonicalization always runs
    under an iteration cap and a node budget.  The defaults are calibrated so that
    catalog deduplication matches the published unique-expression counts
    while one canonicalization stays in the low-millisecond range.
    """
    max_iters: int = 3
    node_budget: int = 600

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.node_budget < 1:
            raise ValueError(
                f"node_budget must be >= 1, got {self.node_budget}")

    def key(self) -> str:
        return f"iters={self.max_iters},budget={self.node_budget}"


# -- rewrite rules -----------------------------------------------------------
#
# Patterns are nested tuples: ("v", name) binds a pattern variable to an
# e-class; ("l", value) matches a class whose analysis is that literal; an
# operator pattern is (op, child patterns...).

def _v(name):
    return ("v", name)


def _l(value):
    return ("l", float(value))


@dataclass(frozen=True)
class RewriteRule:
    lhs: tuple
    rhs: tuple
    guard: Optional[str] = None  # "nonneg:x" | "pos_const:x" | "int_const:x" | "paramonly:x" | "not_zero:x"
    bidirectional: bool = False

    def directed(self):
        yield (self.lhs, self.rhs, self.guard)
        if self.bidirectional:
            yield (self.rhs, self.lhs, self.guard)


_a, _b, _c, _d = _v("a"), _v("b"), _v("c"), _v("d")

RULES: tuple[RewriteRule, ...] = (
    RewriteRule((ADD, _l(0), _a), _a),
    RewriteRule((MUL, _l(0), _a), _l(0)),
    RewriteRule((DIV, _l(0), _a), _l(0), guard="not_zero:a"),
    RewriteRule((MUL, _l(1), _a), _a),
    RewriteRule((SUB, _a, _a), _l(0)),
    RewriteRule((ADD, _a, _a), (MUL, _l(2), _a)),
    RewriteRule((DIV, _a, _a), _l(1), guard="not_zero:a"),
    RewriteRule((POW, _l(1), _a), _l(1)),
    RewriteRule((POW, _a, _l(1)), _a),
    RewriteRule((POW, _a, _l(0)), _l(1)),
    RewriteRule((POW, _l(0), _a), _l(0), guard="pos_const:a"),
    RewriteRule((ADD, _a, _b), (ADD, _b, _a), bidirectional=True),
    RewriteRule((MUL, _a, _b), (MUL, _b, _a), bidirectional=True),
    RewriteRule((ADD, _a, (ADD, _b, _c)), (ADD, (ADD, _a, _b), _c), bidirectional=True),
    RewriteRule((MUL, _a, (MUL, _b, _c)), (MUL, (MUL, _a, _b), _c), bidirectional=True),
    RewriteRule((DIV, _a, _b), (MUL, _a, (POW, _b, _l(-1))), bidirectional=True),
    RewriteRule((MUL, (POW, _a, _l(-1)), _b), (DIV, _b, _a)),
    RewriteRule((NEG, (NEG, _a)), _a),
    RewriteRule((NEG, _a), (MUL, _l(-1), _a), bidirectional=True),
    RewriteRule((SUB, _a, _b), (ADD, _a, (MUL, _l(-1), _b)), bidirectional=True),
    RewriteRule((ABS, _a), _a, guard="nonneg:a"),
    RewriteRule((ABS, (MUL, _l(-1), _a)), (ABS, _a)),
    RewriteRule((ABS, (SUB, _a, _b)), (ABS, (SUB, _b, _a)), bidirectional=True),
    RewriteRule((ADD, _a, (MUL, _b, _a)), (MUL, (ADD, _l(1), _b), _a)),
    RewriteRule((ADD, (MUL, _b, _a), (MUL, _c, _a)), (MUL, _a, (ADD, _b, _c)),
                bidirectional=True),
    RewriteRule((ADD, _a, (MUL, _b, _c)), (MUL, (ADD, (DIV, _a, _b), _c), _b),
                guard="paramonly:b"),
    RewriteRule((ADD, (MUL, _a, _c), (MUL, _b, _d)),
                (MUL, _b, (ADD, (MUL, (DIV, _a, _b), _c), _d)),
                guard="paramonly:b"),
    RewriteRule((MUL, (POW, _a, _b), (POW, _a, _c)), (POW, _a, (ADD, _b, _c))),
    RewriteRule((POW, (POW, _a, _b), _c), (POW, _a, (MUL, _b, _c)),
                guard="int_const:c"),
    RewriteRule((POW, (MUL, _a, _b), _c), (MUL, (POW, _a, _c), (POW, _b, _c)),
                guard="int_const:c"),
    RewriteRule((MUL, (POW, _a, _c), (POW, _b, _c)), (POW, (MUL, _a, _b), _c),
                guard="int_const:c"),
    RewriteRule((MUL, _a, _a), (POW, _a, _l(2)), bidirectional=True),
    RewriteRule((MUL, (POW, _a, _b), _a), (POW, _a, (ADD, _l(1), _b))),
)


def _compile_pattern(pat: tuple, slots: dict) -> tuple:
    tag = pat[0]
    if tag == "v":
        return ("v", slots.setdefault(pat[1], len(slots)))
    if tag == "l":
        return pat
    return (pat[0],) + tuple(_compile_pattern(s, slots) for s in pat[1:])


_GUARD_CODE = {
    "nonneg": "{a}[2]",
    "pos_const": "{a}[0] == 2 and {a}[1] > 0.0",
    "int_const": "{a}[0] == 2 and {a}[1] == int({a}[1])",
    "paramonly": "{a}[0] == 1",
    "not_zero": "not ({a}[0] == 2 and {a}[1] == 0.0)",
}


def _emit_match(lhs: tuple, guard, nvars: int) -> str:
    """Source of a specialized matcher appending (root class, bindings).

    The source is one nested chain: each check nests everything after it,
    so a variable, once bound, stays bound.  A depth-first worklist of
    (source, pattern) pairs emits it: an unbound variable is bound, a bound
    one or a literal is checked one level deeper, and an operator loops over
    the class's nodes of that op and puts its children at the front."""
    lines = ["def _match(classes, analysis, rows, out):",
             "    for cid, node in rows:"]
    indent = " " * 8
    tmp = 0
    bound: set = set()
    work = [(f"node[{i}]", sub) for i, sub in enumerate(lhs[1:], 1)]
    while work:
        src, pat = work.pop(0)
        if pat[0] == "v" and pat[1] not in bound:
            lines.append(f"{indent}v{pat[1]} = {src}")
            bound.add(pat[1])
            continue
        if pat[0] == "v":
            lines.append(f"{indent}if {src} == v{pat[1]}:")
        elif pat[0] == "l":
            lines.append(f"{indent}a{tmp} = analysis[{src}]")
            lines.append(f"{indent}if a{tmp}[0] == 2 and a{tmp}[1] == "
                         f"{pat[1]!r}:")
            tmp += 1
        else:
            n = f"n{tmp}"
            tmp += 1
            lines.append(f"{indent}for {n} in classes.get({src}, ()):")
            indent += "    "
            lines.append(f"{indent}if {n}[0] == {pat[0]}:")
            work[:0] = [(f"{n}[{i}]", sub) for i, sub in enumerate(pat[1:], 1)]
        indent += "    "
    if guard is not None:
        kind, slot = guard
        lines.append(f"{indent}g{tmp} = analysis[v{slot}]")
        lines.append(f"{indent}if {_GUARD_CODE[kind].format(a=f'g{tmp}')}:")
        indent += "    "
    binding = ", ".join(f"v{i}" for i in range(nvars))
    if nvars == 1:
        binding += ","
    lines.append(f"{indent}out.append((cid, ({binding})))")
    return "\n".join(lines)


def _emit_build(rhs: tuple) -> str:
    """Source of a specialized builder returning the class of ``rhs`` under
    the binding ``v``.  It passes each node to ``add`` bottom-up, left to
    right, re-finding the children of each (a fold while a sibling was
    added can move a root).  ``add`` inserts a missing node, or, past the
    node budget, only looks it up: the result is then None unless every node
    already exists, and merging continues past the budget."""
    lines = ["def _build(find, add, v):"]
    if rhs[0] == "v":
        lines.append(f"    return find(v[{rhs[1]}])")
        return "\n".join(lines)

    def node(pat: tuple) -> str:
        if pat[0] == "v":
            return f"v[{pat[1]}]"
        if pat[0] == "l":
            key = f"({CONST}, {pat[1]!r})"
        else:
            kids = "".join(f", find({node(sub)})" for sub in pat[1:])
            key = f"({pat[0]}{kids})"
        name = f"c{len(lines) // 3}"
        lines.extend([f"    {name} = add({key})",
                      f"    if {name} is None:",
                      "        return None"])
        return name

    lines.append(f"    return find({node(rhs)})")
    return "\n".join(lines)


def _pat_size(pat: tuple) -> int:
    if pat[0] in ("v", "l"):
        return 0
    return 1 + sum(_pat_size(sub) for sub in pat[1:])


def _compile_rules(rules) -> list:
    """Directed (rule id, root op, match function, build function), ordered
    so low-growth rules apply before expanding ones: the node budget is then
    spent on merges rather than on expansion.

    Variables are numbered in order of first appearance, left side first,
    so a direction that only renames another's variables compiles to the
    same (lhs, rhs, guard) and is dropped: the reverse directions of
    ``a + b = b + a``, ``a * b = b * a`` and ``abs(a - b) = abs(b - a)``."""
    compiled = []
    seen: set = set()
    rid = 0
    for rule in rules:
        for lhs, rhs, guard in rule.directed():
            slots: dict = {}
            clhs = _compile_pattern(lhs, slots)
            crhs = _compile_pattern(rhs, slots)
            cguard = None
            if guard is not None:
                kind, name = guard.split(":")
                cguard = (kind, slots[name])
            if (clhs, crhs, cguard) in seen:
                continue
            seen.add((clhs, crhs, cguard))
            src = (_emit_match(clhs, cguard, len(slots)) + "\n\n\n"
                   + _emit_build(crhs))
            ns: dict = {}
            exec(src, ns)  # closed vocabulary: patterns come from the table
            growth = _pat_size(crhs) - _pat_size(clhs)
            compiled.append((growth, rid, clhs[0], ns["_match"],
                             ns["_build"]))
            rid += 1
    compiled.sort(key=lambda t: (t[0], t[1]))
    return [t[1:] for t in compiled]


_COMPILED = _compile_rules(RULES)


def _pat_text(pat, parent_prec=0) -> str:
    tag = pat[0]
    if tag == "v":
        return pat[1]
    if tag == "l":
        v = pat[1]
        return str(int(v)) if v == int(v) else str(v)
    op = pat[0]
    if op == NEG:
        return f"-{_pat_text(pat[1], 3)}"
    if op == ABS:
        return f"abs({_pat_text(pat[1])})"
    sym = {ADD: "+", SUB: "-", MUL: "*", DIV: "/", POW: "^"}[op]
    prec = {ADD: 1, SUB: 1, MUL: 2, DIV: 2, POW: 4}[op]
    s = f"{_pat_text(pat[1], prec)} {sym} {_pat_text(pat[2], prec + 1)}"
    if prec < parent_prec:
        s = f"({s})"
    return s


_GUARD_TEXT = {
    "nonneg": "{} >= 0",
    "pos_const": "{} > 0",
    "int_const": "is_integer({})",
    "paramonly": "paramonly({})",
    "not_zero": "{} != 0",
}


def dump_rules(rules=RULES) -> str:
    """Audit dump, one rule per line: ``lhs -> rhs | guard``."""
    lines = []
    for r in rules:
        arrow = "=" if r.bidirectional else "->"
        line = f"{_pat_text(r.lhs)} {arrow} {_pat_text(r.rhs)}"
        if r.guard:
            kind, name = r.guard.split(":")
            line += " | " + _GUARD_TEXT[kind].format(name)
        lines.append(line)
    return "\n".join(lines) + "\n"


# -- the e-graph -------------------------------------------------------------

class EGraph:
    """Union-find backed congruence structure with analysis-driven folding."""

    def __init__(self, config: EqSatConfig):
        self.config = config
        self._parent: list[int] = []
        # class id -> list of e-nodes (tuples: (op, child ids...) or leaves)
        self.classes: dict[int, list[tuple]] = {}
        self.hashcons: dict[tuple, int] = {}
        # class id -> [kind, const value, nonneg, folded leaf or None]
        self.analysis: dict[int, list] = {}
        # class id -> the e-nodes using the class as a child, as records
        # [hashcons key, class id, live] shared by all the node's children
        self._uses: list = []
        # roots merged or grown since the last rebuild
        self._pending: list[int] = []
        # roots whose merges changed an analysis: their parents need repair
        self._changed: set[int] = set()
        self._fresh_params = 0

    # union-find ------------------------------------------------------------

    def find(self, c: int) -> int:
        parent = self._parent
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def _union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if ra > rb:  # keep the older id as root: stable, deterministic
            ra, rb = rb, ra
        self._parent[rb] = ra
        self.classes[ra].extend(self.classes.pop(rb))
        self._uses[ra].extend(self._uses[rb])
        self._uses[rb] = None
        mine, other = self.analysis[ra], self.analysis.pop(rb)
        if (self._join_analysis(ra, other) or mine[:3] != other[:3]
                or rb in self._changed):
            self._changed.add(ra)
        self._pending.append(ra)
        return True

    # analyses ----------------------------------------------------------------

    def _make_analysis(self, node: tuple) -> list:
        op = node[0]
        if op in _LEAVES:
            kids, payload = (), node[1]
        else:
            kids = [self.analysis[self.find(c)] for c in node[1:]]
            payload = None
        kind, v = _const_analysis(op, kids, payload)
        if kind == _CONST:
            return [_CONST, v, v >= 0.0, None]
        return [kind, None, _nonneg_eval(op, kids), None]

    def _join_analysis(self, c: int, other: list) -> bool:
        """Join ``other`` into the analysis of ``c``; True if it grew."""
        mine = self.analysis[c]
        changed = False
        if other[0] > mine[0]:
            mine[0], mine[1] = other[0], other[1]
            changed = True
        if other[2] and not mine[2]:
            mine[2] = True
            changed = True
        if mine[3] is None and other[3] is not None:
            mine[3] = other[3]
        return changed

    def _fold(self, c: int) -> None:
        """Collapse a constant class to its literal, a parameter-only class
        to a single fresh parameter."""
        a = self.analysis[c]
        if a[0] == _CONST:
            leaf = (CONST, a[1])
            if a[3] == leaf:
                return
            a[3] = leaf
            a[2] = a[1] >= 0.0
            existing = self.hashcons.get(leaf)
            if existing is not None and self.find(existing) != c:
                self._union(existing, c)
            else:
                self.hashcons[leaf] = c
                self.classes[self.find(c)] = [leaf]
        elif a[0] == _PARAMONLY:
            if a[3] is not None:
                return
            nodes = self.classes[c]
            leaf = next((n for n in nodes if n[0] == PARAM), None)
            if leaf is None:
                self._fresh_params += 1
                leaf = (PARAM, _FRESH_BASE + self._fresh_params)
                self.hashcons[leaf] = c
            a[3] = leaf
            a[2] = False  # a fresh parameter absorbs any sign
            self.classes[c] = [leaf]

    # construction ------------------------------------------------------------

    def _add_node(self, node: tuple) -> int:
        existing = self.hashcons.get(node)
        if existing is not None:
            return self.find(existing)
        c = len(self._parent)
        self._parent.append(c)
        self._uses.append([])
        self.hashcons[node] = c
        self.classes[c] = [node]
        if node[0] not in _LEAVES:  # children are roots here
            use = [node, c, True]
            self._uses[node[1]].append(use)
            if len(node) == 3 and node[2] != node[1]:
                self._uses[node[2]].append(use)
        self.analysis[c] = self._make_analysis(node)
        self._fold(c)
        return self.find(c)

    def _lookup(self, node: tuple) -> Optional[int]:
        """Class of ``node`` if it exists; adds nothing."""
        got = self.hashcons.get(node)
        return None if got is None else self.find(got)

    def add_expr(self, e: Expr) -> int:
        """Insert an expression (desugaring inv and powabs); returns its class."""
        if len(self.hashcons) > self.config.node_budget:
            raise EGraphCapacityError(
                f"node budget {self.config.node_budget} exceeded")
        k = e.kind
        if k in (VAR, PARAM, HOLE):
            return self._add_node((k, e.value))
        if k == CONST:
            return self._add_node((CONST, float(e.value)))
        # a child's class is found again after every insertion below it,
        # since an insertion can fold and union classes
        find = self.find
        if k == INV:
            a = self.add_expr(e.children[0])
            minus_one = self._add_node((CONST, -1.0))
            return self._add_node((POW, find(a), find(minus_one)))
        if k == POWABS:
            a = self.add_expr(e.children[0])
            b = self.add_expr(e.children[1])
            base = self._add_node((ABS, find(a)))
            return self._add_node((POW, find(base), find(b)))
        kids = [self.add_expr(c) for c in e.children]
        return self._add_node((k, *map(find, kids)))

    @property
    def n_nodes(self) -> int:
        return len(self.hashcons)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    # congruence maintenance ----------------------------------------------------

    def rebuild(self) -> None:
        """Restore congruence and the analyses after unions.

        Works only on what the unions touched, in rounds.  First the nodes
        in each pending root's use list are re-keyed; a key that now
        collides merges the two classes and retires the node.  Then each
        merged class whose analysis a merge changed is folded and its
        parents re-join their analyses; a parent whose analysis grew is
        handled in turn, and a fold's union waits for the next round.  A
        folded class lists only its leaf, so its other nodes no longer feed
        its analysis.  Last, the node lists of the touched classes get root
        children and lose duplicates.
        """
        pending = self._pending
        changed = self._changed
        find = self.find
        hashcons = self.hashcons
        uses = self._uses
        analysis = self.analysis
        touched = []
        while pending:
            grown = []
            while pending:
                c = find(pending.pop())
                # unions made while repairing append to the fresh list
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
                if c in changed:
                    grown.append(c)
            # each flagged root is in grown after its last merge
            changed.clear()
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

    # saturation ------------------------------------------------------------------
    #
    # Each directed rule is compiled once into a specialized match function
    # (flat nested loops over the class lists) and a build function for its
    # right-hand side.  Matching runs on a rebuilt graph, where node child
    # ids are already canonical.

    def saturate(self) -> SaturationReport:
        """Apply ``RULES`` under the configured iteration cap and node
        budget, starting from a rebuilt graph."""
        self.rebuild()
        budget = self.config.node_budget
        applied: set = set()
        it = 0
        while it < self.config.max_iters:
            it += 1
            index: dict[int, list] = {}
            for c, nodes in self.classes.items():
                for node in nodes:
                    index.setdefault(node[0], []).append((c, node))
            matches = []
            analysis = self.analysis
            classes = self.classes
            for rid, root_op, matcher, build in _COMPILED:
                rows = index.get(root_op)
                if rows:
                    found: list = []
                    matcher(classes, analysis, rows, found)
                    if found:
                        matches.append((rid, build, found))
            if not matches:
                reason = "fixpoint"
                break
            changed = False
            hit_budget = False
            find = self.find
            for rid, build, found in matches:
                for cid, binding in found:
                    key = (rid, find(cid)) + tuple(map(find, binding))
                    if key in applied:
                        continue
                    # growth is capped, but matches whose right side
                    # already exists still merge (congruence keeps going)
                    if len(self.hashcons) <= budget:
                        new = build(find, self._add_node, binding)
                    else:
                        hit_budget = True
                        new = build(find, self._lookup, binding)
                    if new is None:
                        continue
                    applied.add(key)
                    if self._union(self.find(cid), new):
                        changed = True
            self.rebuild()
            if not changed:
                reason = "node_budget" if hit_budget else "fixpoint"
                break
        else:
            reason = "node_budget" if hit_budget else "iter_limit"
        return SaturationReport(it, reason, self.n_nodes, self.n_classes)

    # extraction -------------------------------------------------------------------

    def extract(self, root: int) -> Expr:
        """Cost-minimal member of ``root``: fewest parameters, then fewest
        nodes, then first under a fixed total order.  Deterministic.

        Costs are measured on the surface forms ``_forms`` lists.
        """
        root = self.find(root)
        # phase 1: integer cost pairs (params, nodes) per class, plus the
        # cost when the class is consumed as a powabs base
        cost: dict[int, tuple] = {}
        bcost: dict[int, tuple] = {}
        changed = True
        while changed:
            changed = False
            for c, nodes in self.classes.items():
                cur = cost.get(c)
                bb = bcost.get(c)
                for node in nodes:
                    for nc, make, _ in self._forms(node, cost, bcost):
                        if make is not _unwrap and (cur is None or nc < cur):
                            cur = cost[c] = nc
                            changed = True
                        if bb is None or nc < bb:
                            bb = bcost[c] = nc
                            changed = True
        if root not in cost:
            raise ExtractionError("class has no finite extraction")
        # phase 2: realize the minimal expression, breaking remaining ties by
        # a fixed total order on serialized trees.
        memo: dict[tuple, Expr] = {}
        return self._build(root, False, cost, bcost, memo)

    def _literal(self, c: int):
        a = self.analysis[c]
        return a[1] if a[0] == _CONST else None

    def _forms(self, node: tuple, cost: dict, bcost: dict) -> list | tuple:
        """Each surface form of ``node`` whose children have costs, as
        (cost, constructor, child classes); see the module docstring.  A
        leaf's constructor takes its payload; ``_unwrap`` is a form only of
        a powabs base."""
        op = node[0]
        leaf = _LEAF_FORMS.get(op)
        if leaf is not None:
            return leaf
        find = self.find
        forms: list = []
        if op == POW:
            b, p = find(node[1]), find(node[2])
            nb = cost.get(b)
            if nb is not None and self._literal(p) == -1.0:
                forms.append(((nb[0], nb[1] + 1), ex.inv, (b,)))
            bb, np_ = bcost.get(b), cost.get(p)
            if bb is not None and np_ is not None:
                forms.append(((bb[0] + np_[0], bb[1] + np_[1] + 1),
                              ex.powabs, (b, p)))
            return forms
        if op in (ABS, NEG):
            u = find(node[1])
            k = cost.get(u)
            if k is None:
                return forms
            if op == ABS:
                forms.append((k, _unwrap, (u,)))
            forms.append(((k[0], k[1] + 1), _PLAIN[op], (u,)))
            return forms
        a, b = find(node[1]), find(node[2])
        ca, cb = cost.get(a), cost.get(b)
        if ca is None or cb is None:
            return forms
        if op in (MUL, DIV):
            lit = self._literal(a)
            if lit == -1.0:
                forms.append(((cb[0], cb[1] + 1), ex.neg, (b,)) if op == MUL
                             else ((cb[0], cb[1] + 2), _neg_inv, (b,)))
            elif op == DIV and lit == 1.0:
                forms.append(((cb[0], cb[1] + 1), ex.inv, (b,)))
        forms.append(((ca[0] + cb[0], ca[1] + cb[1] + 1), _PLAIN[op], (a, b)))
        return forms

    @staticmethod
    def _key_of(e: Expr) -> tuple:
        parts: list = []
        stack = [e]
        while stack:
            n = stack.pop()
            parts.append(n.kind)
            parts.append(float(n.value) if n.value is not None else -1.0)
            stack.extend(reversed(n.children))
        return tuple(parts)

    def _build(self, c: int, as_base: bool, cost, bcost, memo) -> Expr:
        c = self.find(c)
        got = memo.get((c, as_base))
        if got is not None:
            return got
        target = bcost[c] if as_base else cost[c]
        candidates: list[Expr] = []
        for node in self.classes[c]:
            for nc, make, kids in self._forms(node, cost, bcost):
                if nc != target or (make is _unwrap and not as_base):
                    continue
                if not kids:
                    candidates.append(make(node[1]))
                    continue
                candidates.append(make(*[
                    self._build(k, make is ex.powabs and i == 0, cost, bcost,
                                memo)
                    for i, k in enumerate(kids)]))
        if not candidates:
            raise ExtractionError("inconsistent extraction state")
        result = min(candidates, key=self._key_of)
        memo[(c, as_base)] = result
        return result


def _const_eval(op: int, vals: list) -> Optional[float]:
    """Value of ``op`` on literal operands; None unless finite and real."""
    try:
        if op == ADD:
            v = vals[0] + vals[1]
        elif op == SUB:
            v = vals[0] - vals[1]
        elif op == MUL:
            v = vals[0] * vals[1]
        elif op == DIV:
            v = vals[0] / vals[1]
        elif op == INV:
            v = 1.0 / vals[0]
        elif op == POWABS:
            v = abs(vals[0]) ** vals[1]
        elif op == POW:
            v = vals[0] ** vals[1]
            if isinstance(v, complex):
                return None
        elif op == NEG:
            v = -vals[0]
        elif op == ABS:
            v = abs(vals[0])
        else:
            return None
    except (OverflowError, ValueError, ZeroDivisionError):
        return None
    if v != v or v in (float("inf"), float("-inf")):
        return None
    return float(v)


def _const_analysis(op: int, kids, value=None) -> tuple:
    """Constant analysis of a node from its children's (kind, value), or of
    a leaf from its payload ``value``: (_CONST, v) for a literal, and for an
    operator whose children are all literals and which evaluates to the
    finite v; else (_PARAMONLY, None) when no variable or hole is below
    (such a term folds to a fresh parameter); else (_OTHER, None).  ``op``
    is an e-graph operator or an Expr kind (INV, POWABS)."""
    if not kids:
        if op == CONST:
            return _CONST, value
        return (_PARAMONLY if op == PARAM else _OTHER), None
    if all(k[0] == _CONST for k in kids):
        v = _const_eval(op, [k[1] for k in kids])
        if v is not None:
            return _CONST, v
    if all(k[0] != _OTHER for k in kids):
        return _PARAMONLY, None
    return _OTHER, None


def _nonneg_eval(op: int, kids: list) -> bool:
    if op == ABS:
        return True
    if op == POW:
        return kids[0][2]
    if op in (MUL, DIV, ADD):
        return kids[0][2] and kids[1][2]
    return False
