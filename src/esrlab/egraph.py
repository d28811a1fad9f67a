"""Equality-saturation engine: e-graph, rewrite rules, canonical extraction.

Internally the reciprocal and powabs operators are desugared so the rewrite
rules operate on a small vocabulary with true-power semantics:

    inv(a)       ->  pow(a, -1)
    powabs(a, b) ->  pow(abs(a), b)

Every e-class carries an analysis value: NumericConst(v) when the class folds
to a literal, ParamOnly when it contains parameters/constants only (such a
class collapses to a single fresh parameter: reparameterisation equivalence),
or NotConstant.  A separate nonnegativity flag drives ``abs(a) -> a``.

Extraction returns the cost-minimal member under (parameter count, node
count, fixed total order), where costs are measured on the resugared surface
form (an ``inv`` node is one node, the abs of a powabs base is free).
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

_OP_NAME = dict(ex.KIND_NAME)
_OP_NAME[POW] = "pow"

# analysis kinds, ordered by precision
_OTHER = 0
_PARAMONLY = 1
_CONST = 2

# first fresh parameter index used when folding parameter-only classes
_FRESH_BASE = 1 << 20


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

    This rule set does not reach a finite fixpoint (power/exponent rules keep
    producing larger terms), so canonicalization always runs under an
    iteration cap and a node budget.  The defaults are calibrated so that
    catalog deduplication matches the published unique-expression counts
    while one canonicalization stays in the low-millisecond range.
    """
    max_iters: int = 3
    node_budget: int = 600

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
    """Source of a specialized matcher appending (root class, bindings)."""
    lines = ["def _match(classes, analysis, rows, out):",
             "    for cid, node in rows:"]
    tmp = [0]
    bound: set = set()

    def child(src: str, pat: tuple, indent: str, rest) -> None:
        tag = pat[0]
        if tag == "v":
            slot = pat[1]
            if slot in bound:
                lines.append(f"{indent}if {src} == v{slot}:")
                rest(indent + "    ")
            else:
                lines.append(f"{indent}v{slot} = {src}")
                bound.add(slot)
                rest(indent)
                bound.discard(slot)
            return
        if tag == "l":
            a = f"a{tmp[0]}"
            tmp[0] += 1
            lines.append(f"{indent}{a} = analysis[{src}]")
            lines.append(f"{indent}if {a}[0] == 2 and {a}[1] == {pat[1]!r}:")
            rest(indent + "    ")
            return
        n = f"n{tmp[0]}"
        tmp[0] += 1
        lines.append(f"{indent}for {n} in classes.get({src}, ()):")
        lines.append(f"{indent}    if {n}[0] == {pat[0]}:")
        seq2(n, pat[1:], 1, indent + "        ", rest)

    # positional walker: emit children left to right
    def seq2(node_var: str, pats: tuple, pos: int, indent: str, rest) -> None:
        if not pats:
            rest(indent)
            return
        child(f"{node_var}[{pos}]", pats[0], indent,
              lambda ind: seq2(node_var, pats[1:], pos + 1, ind, rest))

    def finish(indent: str) -> None:
        if guard is not None:
            kind, slot = guard
            a = f"g{tmp[0]}"
            tmp[0] += 1
            lines.append(f"{indent}{a} = analysis[v{slot}]")
            lines.append(f"{indent}if {_GUARD_CODE[kind].format(a=a)}:")
            indent += "    "
        binding = ", ".join(f"v{i}" for i in range(nvars))
        if nvars == 1:
            binding += ","
        lines.append(f"{indent}out.append((cid, ({binding})))")

    seq2("node", lhs[1:], 1, "        ", finish)
    return "\n".join(lines)


def _pat_size(pat: tuple) -> int:
    if pat[0] in ("v", "l"):
        return 0
    return 1 + sum(_pat_size(sub) for sub in pat[1:])


def _compile_rules(rules) -> list:
    """Directed (rule id, root op, match function, rhs template, nvars),
    ordered so low-growth rules apply before expanding ones: the node budget
    is then spent on merges rather than on expansion."""
    compiled = []
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
            src = _emit_match(clhs, cguard, len(slots))
            ns: dict = {}
            exec(src, ns)  # closed vocabulary: patterns come from the table
            growth = _pat_size(crhs) - _pat_size(clhs)
            compiled.append((growth, rid, clhs[0], ns["_match"], crhs,
                             len(slots)))
            rid += 1
    compiled.sort(key=lambda t: (t[0], t[1]))
    return [t[1:] for t in compiled]


_COMPILED_CACHE: dict[int, list] = {}


def _compiled_for(rules) -> list:
    got = _COMPILED_CACHE.get(id(rules))
    if got is None:
        got = _compile_rules(rules)
        _COMPILED_CACHE[id(rules)] = got
    return got


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

    def __init__(self, node_budget: int = 100_000):
        self.node_budget = node_budget
        self._parent: list[int] = []
        # class id -> list of e-nodes (tuples: (op, child ids...) or leaves)
        self.classes: dict[int, list[tuple]] = {}
        self.hashcons: dict[tuple, int] = {}
        # class id -> [kind, const value, nonneg, folded leaf or None]
        self.analysis: dict[int, list] = {}
        self._fresh_params = 0
        self._dirty = False

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
        self._join_analysis(ra, self.analysis.pop(rb))
        self._dirty = True
        return True

    # analyses ----------------------------------------------------------------

    def _make_analysis(self, node: tuple) -> list:
        op = node[0]
        if op == CONST:
            v = node[1]
            return [_CONST, v, v >= 0.0, None]
        if op == PARAM:
            return [_PARAMONLY, None, False, None]
        if op in (VAR, HOLE):
            return [_OTHER, None, False, None]
        kids = [self.analysis[self.find(c)] for c in node[1:]]
        kinds = [k[0] for k in kids]
        if all(k == _CONST for k in kinds):
            v = _const_eval(op, [k[1] for k in kids])
            if v is not None:
                return [_CONST, v, v >= 0.0, None]
        if all(k != _OTHER for k in kinds):
            kind = _PARAMONLY
        else:
            kind = _OTHER
        nonneg = _nonneg_eval(op, kids)
        return [kind, None, nonneg, None]

    def _join_analysis(self, c: int, other: list) -> None:
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
        if changed:
            self._dirty = True

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
            self._dirty = True
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
            self._dirty = True

    # construction ------------------------------------------------------------

    def _add_node(self, node: tuple) -> int:
        existing = self.hashcons.get(node)
        if existing is not None:
            return self.find(existing)
        c = len(self._parent)
        self._parent.append(c)
        self.hashcons[node] = c
        self.classes[c] = [node]
        self.analysis[c] = self._make_analysis(node)
        self._fold(c)
        return self.find(c)

    def add(self, op: int, *children: int) -> int:
        node = (op,) + tuple(self.find(c) for c in children)
        return self._add_node(node)

    def add_leaf(self, op: int, payload) -> int:
        return self._add_node((op, payload))

    def add_expr(self, e: Expr) -> int:
        """Insert an expression (desugaring inv and powabs); returns its class."""
        if len(self.hashcons) > self.node_budget:
            raise EGraphCapacityError(
                f"node budget {self.node_budget} exceeded")
        k = e.kind
        if k in (VAR, PARAM, HOLE):
            return self.add_leaf(k, e.value)
        if k == CONST:
            return self.add_leaf(CONST, float(e.value))
        if k == INV:
            a = self.add_expr(e.children[0])
            return self.add(POW, a, self.add_leaf(CONST, -1.0))
        if k == POWABS:
            a = self.add_expr(e.children[0])
            b = self.add_expr(e.children[1])
            return self.add(POW, self.add(ABS, a), b)
        kids = [self.add_expr(c) for c in e.children]
        return self.add(k, *kids)

    @property
    def n_nodes(self) -> int:
        return len(self.hashcons)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    # congruence maintenance ----------------------------------------------------

    def rebuild(self) -> None:
        leaf_ops = (VAR, PARAM, CONST, HOLE)
        while self._dirty:
            self._dirty = False
            find = self.find
            # congruence closure over the hashcons
            old = self.hashcons
            self.hashcons = {}
            new = self.hashcons
            for node, cid in old.items():
                if node[0] in leaf_ops:
                    cnode = node
                else:
                    cnode = (node[0],) + tuple(find(ch) for ch in node[1:])
                ccid = find(cid)
                prev = new.get(cnode)
                if prev is None:
                    new[cnode] = ccid
                elif find(prev) != ccid:
                    self._union(prev, ccid)
            # rebuild class node lists (respecting folded classes)
            classes: dict[int, list] = {}
            for node, cid in new.items():
                r = find(cid)
                lst = classes.get(r)
                if lst is None:
                    classes[r] = [node]
                elif node not in lst:
                    lst.append(node)
            for c, a in self.analysis.items():
                if self.find(c) == c and a[3] is not None and c in classes:
                    classes[c] = [a[3]]
            self.classes = classes
            # analysis fixpoint + folding
            self._refresh_analyses()

    def _refresh_analyses(self) -> None:
        changed = True
        while changed:
            changed = False
            for c in list(self.classes.keys()):
                if self.find(c) != c:
                    continue
                a = self.analysis[c]
                for node in self.classes[c]:
                    made = self._make_analysis(node)
                    if made[0] > a[0]:
                        a[0], a[1] = made[0], made[1]
                        changed = True
                    if made[2] and not a[2]:
                        a[2] = True
                        changed = True
                before = a[3]
                self._fold(c)
                if self.analysis[self.find(c)][3] != before:
                    changed = True

    # pattern matching ----------------------------------------------------------
    #
    # Each directed rule is compiled once into a specialized match function
    # (flat nested loops over the class lists).  Matching runs on a rebuilt
    # graph, where node child ids are already canonical.

    def _instantiate(self, pat: tuple, binding: tuple) -> int:
        tag = pat[0]
        if tag == "v":
            return self.find(binding[pat[1]])
        if tag == "l":
            return self.add_leaf(CONST, pat[1])
        kids = [self._instantiate(sub, binding) for sub in pat[1:]]
        return self.add(pat[0], *kids)

    def _probe(self, pat: tuple, binding: tuple):
        """Class of the instantiated pattern if it already exists (no
        growth), else None.  Lets merging continue past the node budget."""
        tag = pat[0]
        if tag == "v":
            return self.find(binding[pat[1]])
        if tag == "l":
            got = self.hashcons.get((CONST, pat[1]))
            return None if got is None else self.find(got)
        kids = []
        for sub in pat[1:]:
            c = self._probe(sub, binding)
            if c is None:
                return None
            kids.append(c)
        got = self.hashcons.get((pat[0],) + tuple(kids))
        return None if got is None else self.find(got)

    # saturation ------------------------------------------------------------------

    def saturate(self, rules=RULES, max_iters: int = 30,
                 node_budget: Optional[int] = None) -> SaturationReport:
        if max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        budget = self.node_budget if node_budget is None else node_budget
        compiled = _compiled_for(rules)
        applied: set = set()
        reason = "iter_limit"
        it = 0
        while it < max_iters:
            it += 1
            index: dict[int, list] = {}
            for c, nodes in self.classes.items():
                for node in nodes:
                    index.setdefault(node[0], []).append((c, node))
            matches = []
            analysis = self.analysis
            classes = self.classes
            for rid, root_op, matcher, rhs, nvars in compiled:
                rows = index.get(root_op)
                if rows:
                    found: list = []
                    matcher(classes, analysis, rows, found)
                    if found:
                        matches.append((rid, rhs, found))
            if not matches:
                reason = "fixpoint"
                break
            changed = False
            hit_budget = False
            find = self.find
            for rid, rhs, found in matches:
                for cid, binding in found:
                    key = (rid, find(cid)) + tuple(map(find, binding))
                    if key in applied:
                        continue
                    if len(self.hashcons) > budget:
                        # growth is capped, but matches whose right side
                        # already exists still merge (congruence keeps going)
                        hit_budget = True
                        new = self._probe(rhs, binding)
                        if new is None:
                            continue
                    else:
                        new = self._instantiate(rhs, binding)
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

        Costs are measured on the resugared surface form: pow(abs(a), b)
        counts as one powabs node, pow(a, -1) as one inv node, mul(-1, a) as
        one neg node.
        """
        root = self.find(root)
        # phase 1: integer cost pairs (params, nodes) per class, plus the
        # variant cost when the class is consumed as a powabs base (a member
        # abs(u) is then free).
        cost: dict[int, tuple] = {}
        bcost: dict[int, tuple] = {}
        changed = True
        while changed:
            changed = False
            for c, nodes in self.classes.items():
                cur = cost.get(c)
                for node in nodes:
                    nc = self._node_cost(node, cost, bcost)
                    if nc is not None and (cur is None or nc < cur):
                        cur = nc
                        cost[c] = nc
                        changed = True
                bb = bcost.get(c)
                if cur is not None and (bb is None or cur < bb):
                    bb = cur
                    bcost[c] = cur
                    changed = True
                for node in nodes:
                    if node[0] == ABS:
                        inner = cost.get(self.find(node[1]))
                        if inner is not None and (bb is None or inner < bb):
                            bb = inner
                            bcost[c] = inner
                            changed = True
        if root not in cost:
            raise ExtractionError("class has no finite extraction")
        # phase 2: realize the minimal expression, breaking remaining ties by
        # a fixed total order on serialized trees.
        memo: dict[tuple, Expr] = {}
        return self._build(root, False, cost, bcost, memo)

    def _node_cost(self, node, cost, bcost):
        op = node[0]
        if op == PARAM:
            return (1, 1)
        if op in (VAR, CONST, HOLE):
            return (0, 1)
        find = self.find
        if op == POW:
            b = find(node[1])
            p = find(node[2])
            best = None
            pa = self.analysis[p]
            if pa[0] == _CONST and pa[1] == -1.0:
                nb = cost.get(b)
                if nb is not None:
                    best = (nb[0], nb[1] + 1)
            bb = bcost.get(b)
            np_ = cost.get(p)
            if bb is not None and np_ is not None:
                alt = (bb[0] + np_[0], bb[1] + np_[1] + 1)
                if best is None or alt < best:
                    best = alt
            return best
        if op in (ABS, NEG):
            k = cost.get(find(node[1]))
            return None if k is None else (k[0], k[1] + 1)
        a = cost.get(find(node[1]))
        b = cost.get(find(node[2]))
        if a is None or b is None:
            return None
        if op in (MUL, DIV):
            la = self.analysis[find(node[1])]
            if la[0] == _CONST and la[1] == -1.0:
                alt = (b[0], b[1] + (1 if op == MUL else 2))
                reg = (a[0] + b[0], a[1] + b[1] + 1)
                return min(alt, reg)
            if op == DIV and la[0] == _CONST and la[1] == 1.0:
                return min((b[0], b[1] + 1), (a[0] + b[0], a[1] + b[1] + 1))
        return (a[0] + b[0], a[1] + b[1] + 1)

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
        find = self.find
        target = bcost[c] if as_base else cost[c]
        candidates: list[Expr] = []
        for node in self.classes[c]:
            op = node[0]
            if as_base and op == ABS:
                u = find(node[1])
                if cost.get(u) == target:
                    candidates.append(self._build(u, False, cost, bcost, memo))
            if as_base and cost.get(c) != target:
                continue
            nc = self._node_cost(node, cost, bcost)
            if nc != target:
                continue
            if op == PARAM:
                candidates.append(ex.param(node[1]))
            elif op == VAR:
                candidates.append(ex.var(node[1]))
            elif op == CONST:
                candidates.append(ex.const(node[1]))
            elif op == HOLE:
                candidates.append(ex.hole(node[1]))
            elif op == ABS:
                candidates.append(ex.abs_(
                    self._build(node[1], False, cost, bcost, memo)))
            elif op == NEG:
                candidates.append(ex.neg(
                    self._build(node[1], False, cost, bcost, memo)))
            elif op == POW:
                b, p = find(node[1]), find(node[2])
                pa = self.analysis[p]
                nb = cost.get(b)
                if (pa[0] == _CONST and pa[1] == -1.0 and nb is not None
                        and (nb[0], nb[1] + 1) == target):
                    candidates.append(ex.inv(
                        self._build(b, False, cost, bcost, memo)))
                bb = bcost.get(b)
                np_ = cost.get(p)
                if (bb is not None and np_ is not None
                        and (bb[0] + np_[0], bb[1] + np_[1] + 1) == target):
                    candidates.append(ex.powabs(
                        self._build(b, True, cost, bcost, memo),
                        self._build(p, False, cost, bcost, memo)))
            else:
                a, b = find(node[1]), find(node[2])
                ca, cb = cost.get(a), cost.get(b)
                la = self.analysis[a]
                neg_one = la[0] == _CONST and la[1] == -1.0
                one = la[0] == _CONST and la[1] == 1.0
                if op == MUL and neg_one and cb is not None \
                        and (cb[0], cb[1] + 1) == target:
                    candidates.append(ex.neg(
                        self._build(b, False, cost, bcost, memo)))
                if op == DIV and one and cb is not None \
                        and (cb[0], cb[1] + 1) == target:
                    candidates.append(ex.inv(
                        self._build(b, False, cost, bcost, memo)))
                if op == DIV and neg_one and cb is not None \
                        and (cb[0], cb[1] + 2) == target:
                    candidates.append(ex.neg(ex.inv(
                        self._build(b, False, cost, bcost, memo))))
                if ca is not None and cb is not None \
                        and (ca[0] + cb[0], ca[1] + cb[1] + 1) == target:
                    builder = {ADD: ex.add, SUB: ex.sub,
                               MUL: ex.mul, DIV: ex.div}[op]
                    candidates.append(builder(
                        self._build(a, False, cost, bcost, memo),
                        self._build(b, False, cost, bcost, memo)))
        if not candidates:
            raise ExtractionError("inconsistent extraction state")
        result = min(candidates, key=self._key_of)
        memo[(c, as_base)] = result
        return result


def _const_eval(op: int, vals: list) -> Optional[float]:
    try:
        if op == ADD:
            v = vals[0] + vals[1]
        elif op == SUB:
            v = vals[0] - vals[1]
        elif op == MUL:
            v = vals[0] * vals[1]
        elif op == DIV:
            if vals[1] == 0.0:
                return None
            v = vals[0] / vals[1]
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


def _nonneg_eval(op: int, kids: list) -> bool:
    if op == ABS:
        return True
    if op == POW:
        return kids[0][2]
    if op in (MUL, DIV, ADD):
        return kids[0][2] and kids[1][2]
    return False
