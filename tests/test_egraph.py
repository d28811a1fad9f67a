import copy
import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from esrlab import expr as ex
from esrlab.egraph import (EGraph, EqSatConfig, ExtractionError, RULES,
                           dump_rules, POW, _COMPILED, _LEAVES)
from esrlab.enumeration import RULESET_ID, enumerate_trees
from esrlab.simplify import CanonicalForm, Canonicalizer, canonicalize

from conftest import slow
from oracles import every_root_rebuild, full_rebuild
from test_normalize import GOLDEN_RANDOM_FORMS, _derivations, _random_tree

CFG = EqSatConfig()


# -- rule soundness ----------------------------------------------------------
#
# Every rule is checked by instantiating its pattern variables with random
# finite reals that satisfy the guard and comparing both sides numerically
# (true-power semantics, as the rules are written).

def _pattern_vars(pat, out):
    if pat[0] == "v":
        out.add(pat[1])
    elif pat[0] != "l":
        for sub in pat[1:]:
            _pattern_vars(sub, out)


def _eval_pattern(pat, env):
    tag = pat[0]
    if tag == "v":
        return env[pat[1]]
    if tag == "l":
        return pat[1]
    args = [_eval_pattern(sub, env) for sub in pat[1:]]
    op = pat[0]
    if op == ex.ADD:
        return args[0] + args[1]
    if op == ex.SUB:
        return args[0] - args[1]
    if op == ex.MUL:
        return args[0] * args[1]
    if op == ex.DIV:
        return args[0] / args[1] if args[1] != 0 else math.nan
    if op == POW:
        try:
            v = args[0] ** args[1]
        except (OverflowError, ZeroDivisionError, ValueError):
            return math.nan
        return math.nan if isinstance(v, complex) else v
    if op == ex.NEG:
        return -args[0]
    if op == ex.ABS:
        return abs(args[0])
    raise AssertionError(op)


def _guard_ok(rule, env) -> bool:
    if rule.guard is None:
        return True
    kind, name = rule.guard.split(":")
    v = env[name]
    if kind == "nonneg":
        return v >= 0
    if kind == "pos_const":
        return v > 0
    if kind == "int_const":
        return v == int(v)
    if kind == "paramonly":
        return True  # any value: a parameter can take it
    if kind == "not_zero":
        return v != 0
    raise AssertionError(rule.guard)


def check_rule_soundness(rule, n_samples: int, rng, rel_tol: float = 1e-12):
    names: set = set()
    _pattern_vars(rule.lhs, names)
    _pattern_vars(rule.rhs, names)
    kind = rule.guard.split(":")[0] if rule.guard else None
    checked = 0
    attempts = 0
    while checked < n_samples and attempts < n_samples * 300:
        attempts += 1
        env = {}
        for n in names:
            if kind == "int_const" and rule.guard.endswith(":" + n):
                env[n] = float(rng.randint(-3, 3))
            elif kind == "nonneg" and rule.guard.endswith(":" + n):
                env[n] = rng.uniform(0.0, 3.0)
            elif kind == "pos_const" and rule.guard.endswith(":" + n):
                env[n] = rng.uniform(0.1, 3.0)
            else:
                env[n] = rng.uniform(-3.0, 3.0)
        if not _guard_ok(rule, env):
            continue
        lhs = _eval_pattern(rule.lhs, env)
        rhs = _eval_pattern(rule.rhs, env)
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            continue  # both sides must be defined
        checked += 1
        scale = max(abs(lhs), abs(rhs), 1e-30)
        assert abs(lhs - rhs) <= rel_tol * scale, (
            f"{dump_rules([rule])} at {env}: {lhs} vs {rhs}")
    assert checked == n_samples, "could not draw enough guarded samples"


@pytest.mark.parametrize("rule", RULES, ids=lambda r: dump_rules([r]).strip())
def test_rule_soundness_sampled(rule):
    check_rule_soundness(rule, 100, random.Random(1234))


# -- folding and canonical forms ----------------------------------------------

def test_add_then_saturate_folds_x_plus_zero():
    g = EGraph(EqSatConfig(max_iters=4))
    root = g.add_expr(ex.add(ex.var(), ex.const(0.0)))
    g.saturate()
    assert ex.render(g.extract(root)) == "x"


def test_hash_consing_shares_identical_subtrees():
    g = EGraph(CFG)
    a = g.add_expr(ex.var())
    b = g.add_expr(ex.var())
    assert a == b


def test_distinct_before_saturation():
    g = EGraph(EqSatConfig(max_iters=2))
    a = g.add_expr(ex.parse("x + p1"))
    b = g.add_expr(ex.parse("p1 + x"))
    assert a != b
    g.saturate()
    assert g.find(a) == g.find(b)


def test_class_count_bounded_by_node_count():
    g = EGraph(CFG)
    tree = ex.parse("p1 / (1.0 / (p2 + x) - p3 ^ x)")
    g.add_expr(tree)
    assert g.n_classes <= 12 + 2  # desugaring adds abs/-1 nodes


def test_param_only_folds_to_single_parameter():
    cf = canonicalize(ex.parse("p1 + p2"), CFG)
    assert cf.text == "p1"
    assert cf.n_params == 1
    cf = canonicalize(ex.parse("p1 / p2 ^ p3"), CFG)
    assert cf.text == "p1"


def test_numeric_folds():
    assert canonicalize(ex.parse("x - x"), CFG).text == "0.0"
    assert canonicalize(ex.parse("x / x"), CFG).text == "1.0"


def test_canonicalization_pairs_share_hash():
    pairs = [
        ("x * (x + p1)", "p1 * x + x * x"),
        ("p1 * (x + p2)", "p1 * x + p2"),
    ]
    for left, right in pairs:
        a = canonicalize(ex.parse(left), CFG)
        b = canonicalize(ex.parse(right), CFG)
        assert a.semantic_hash == b.semantic_hash, (left, right)
        assert a.text == b.text


def test_simplifies_to_constant():
    assert canonicalize(ex.parse("p1 + p2"), CFG).is_constant
    assert canonicalize(ex.parse("x - x"), CFG).is_constant
    assert not canonicalize(ex.parse("x + p1"), CFG).is_constant


def test_is_constant_reads_the_fields():
    """Over every form up to length 7, complete and partial, a form is
    constant exactly when its text parses to a lone parameter or literal;
    a form with a hole (rendered ``?k``) never is."""
    canon = Canonicalizer(CFG)
    forms = set()

    def keep(tree, key):
        forms.add(canon(tree))
        return True

    forms.update(canon(tree) for tree in enumerate_trees(7, keep))
    for cf in forms:
        if "?" in cf.text:
            assert not cf.is_constant, cf.text
        else:
            kind = ex.parse(cf.text).kind
            assert cf.is_constant == (kind in (ex.PARAM, ex.CONST)), cf.text
    assert CanonicalForm(ex.text_hash("?1"), 1, 0, "?1") in forms
    assert {cf.text for cf in forms if cf.is_constant} >= {"p1", "0.0"}


def test_saturation_report_reasons():
    g = EGraph(EqSatConfig(max_iters=50))
    g.add_expr(ex.parse("x + p1"))
    rep = g.saturate()
    assert rep.stop_reason in ("fixpoint", "iter_limit", "node_budget")
    g2 = EGraph(EqSatConfig(max_iters=50, node_budget=200))
    root = g2.add_expr(ex.parse("x * (x + p1) * (x + p2)"))
    rep2 = g2.saturate()
    assert rep2.stop_reason == "node_budget"
    g2.extract(root)  # extraction still works after budget stop


def test_extraction_error_on_cycle_only_class():
    g = EGraph(CFG)
    c = g.add_expr(ex.add(ex.var(), ex.var()))
    # orphan the class: make it reference only itself
    g.classes[c] = [(ex.ADD, c, c)]
    with pytest.raises(ExtractionError):
        g.extract(c)


def test_canonicalize_deterministic():
    e = ex.parse("p1 / (1.0 / (p2 + x) - p3 ^ x)")
    a = canonicalize(e, CFG)
    b = canonicalize(e, CFG)
    assert a == b


def test_idempotence_on_small_trees():
    from esrlab.enumeration import enumerate_trees
    for i, t in enumerate(enumerate_trees(5)):
        cf = canonicalize(t, CFG)
        again = canonicalize(ex.parse(cf.text), CFG)
        assert again.semantic_hash == cf.semantic_hash, ex.render(t)
        assert again.text == cf.text


@slow
def test_idempotence_exhaustive_length8():
    from esrlab.enumeration import enumerate_trees
    for t in enumerate_trees(8):
        cf = canonicalize(t, CFG)
        again = canonicalize(ex.parse(cf.text), CFG)
        assert again.text == cf.text


def test_param_count_monotone():
    rng = random.Random(5)
    from esrlab.enumeration import enumerate_trees
    trees = list(enumerate_trees(6))
    for t in rng.sample(trees, 150):
        cf = canonicalize(t, CFG)
        assert cf.n_params <= ex.param_count(t)
        assert cf.n_nodes <= ex.length(t)


def test_semantic_preservation_under_folding():
    # the canonical family must contain the original: best-fit error of the
    # canonical form is never worse (up to optimizer slack)
    from esrlab.dataset import Dataset
    from esrlab.fitting import FitConfig, fit
    rng = np.random.default_rng(11)
    cases = ["p1 * (x + p2)", "p1 + p2 * x + p3", "x * (x + p1)",
             "1.0 / (p1 + p2 + x)", "p1 * x + p2 * x"]
    cfg = FitConfig(restarts=40)
    for text in cases:
        e = ex.parse(text)
        cf = canonicalize(e, CFG)
        x = rng.uniform(-2, 2, 32)
        y = rng.uniform(-2, 2, 32)
        data = Dataset(x, y)
        orig = fit(e, data, "mse", cfg, seed=3).objective
        canon = fit(ex.parse(cf.text), data, "mse", cfg, seed=4).objective
        assert canon <= orig + 1e-6, (text, cf.text, orig, canon)


# sha256 of dump_rules(): compiling fewer directions changes no rule
_DUMP_RULES_SHA256 = (
    "fbdd2909cd15a18da8de3e0ded61905ce032e2f0659ced614b26ce18f5546a5f")


def _renames(first, second) -> bool:
    """True when the directed rule ``first`` (lhs, rhs, guard) is
    ``second`` with its pattern variables renamed one to one."""
    names: set = set()
    _pattern_vars(first[0], names)
    _pattern_vars(first[1], names)
    other: set = set()
    _pattern_vars(second[0], other)
    _pattern_vars(second[1], other)
    if len(names) != len(other):
        return False

    def rename(pat, to):
        if pat[0] == "v":
            return ("v", to[pat[1]])
        if pat[0] == "l":
            return pat
        return (pat[0],) + tuple(rename(sub, to) for sub in pat[1:])

    for image in itertools.permutations(sorted(other)):
        to = dict(zip(sorted(names), image))
        guard = first[2]
        if guard is not None:
            kind, name = guard.split(":")
            guard = f"{kind}:{to[name]}"
        if (rename(first[0], to), rename(first[1], to), guard) == second:
            return True
    return False


def test_compiled_rules_drop_renamed_directions():
    """Each directed rule that only renames the variables of one before it
    is compiled once: 43 directions, 40 compiled rules.  The rule table,
    its dump and the rule-set id do not change."""
    kept, skipped = [], []
    for rule in RULES:
        for direction in rule.directed():
            if any(_renames(direction, k) for k in kept):
                skipped.append((rule, direction))
            else:
                kept.append(direction)
    assert len(kept) + len(skipped) == 43
    assert len(_COMPILED) == len(kept) == 40
    assert [(dump_rules([rule]).strip(), d == (rule.rhs, rule.lhs, None))
            for rule, d in skipped] == [("a + b = b + a", True),
                                        ("a * b = b * a", True),
                                        ("abs(a - b) = abs(b - a)", True)]
    assert hashlib.sha256(dump_rules().encode()).hexdigest() == \
        _DUMP_RULES_SHA256
    assert RULESET_ID == "table-eqsat-v1"


def test_dump_rules_format():
    text = dump_rules()
    lines = text.strip().split("\n")
    assert len(lines) == len(RULES)
    for line in lines:
        assert (" -> " in line) or (" = " in line)
    assert "abs(a) -> a | a >= 0" in text
    assert "0 ^ a -> 0 | a > 0" in text
    assert any("is_integer(c)" in line for line in lines)


# -- incremental rebuilding ----------------------------------------------------

def _state(g):
    find = g.find
    return ({node: find(c) for node, c in g.hashcons.items()},
            [find(c) for c in range(len(g._parent))],
            {c: sorted(map(repr, nodes)) for c, nodes in g.classes.items()},
            {c: list(a) for c, a in g.analysis.items()})


@pytest.mark.parametrize("config", [CFG, EqSatConfig(max_iters=6,
                                                     node_budget=40)],
                         ids=["default", "small_budget"])
def test_rebuild_matches_full_rebuild(monkeypatch, config):
    """After every rebuild inside saturate, the whole-graph rehash and
    analysis refresh the engine used before deferred rebuilding change
    nothing: hashcons, class partition, node sets and analyses."""
    rebuild = EGraph.rebuild
    rebuilds = [0]

    def checked(g):
        rebuild(g)
        rebuilds[0] += 1
        find = g.find
        for node in g.hashcons:
            if node[0] not in _LEAVES:
                assert all(find(ch) == ch for ch in node[1:]), node
        for nodes in g.classes.values():
            assert len(set(nodes)) == len(nodes), nodes
        state = _state(g)
        oracle = copy.deepcopy(g)
        full_rebuild(oracle)
        assert _state(oracle) == state

    saturate = EGraph.saturate
    stops = {}

    def counted(g):
        report = saturate(g)
        stops[report.stop_reason] = stops.get(report.stop_reason, 0) + 1
        return report

    monkeypatch.setattr(EGraph, "rebuild", checked)
    monkeypatch.setattr(EGraph, "saturate", counted)
    trees = []
    trees.extend(enumerate_trees(5, lambda t, key: trees.append(t) or True))
    rng = np.random.default_rng(2024)
    trees.extend(ex.renumber_params(_random_tree(rng, 4))
                 for _ in range(1500))
    for t in trees:
        canonicalize(t, config)
    assert sum(stops.values()) == len(trees)
    assert rebuilds[0] > len(trees)
    if config.node_budget < CFG.node_budget:
        assert stops.get("node_budget", 0) > 0, stops



def test_a_later_union_carries_the_repair_flag():
    """x * x joins |x| ^ 2, which is nonnegative, and is then absorbed into
    the older class of abs(x) * abs(x), which already is: the second join
    changes no analysis, but the parents of x * x still need repair."""
    g = EGraph(CFG)
    older = g.add_expr(ex.parse("abs(x) * abs(x)"))
    square = g.add_expr(ex.parse("x * x"))
    parent = g.add_expr(ex.parse("x * x * (x * x)"))
    nonneg = g.add_expr(ex.parse("|x| ^ 2.0"))
    assert older < square < nonneg
    assert not g.analysis[parent][2]
    g._union(square, nonneg)
    g._union(older, square)
    oracle = copy.deepcopy(g)
    g.rebuild()
    every_root_rebuild(oracle)
    assert g.analysis[g.find(parent)][2]
    assert _state(g) == _state(oracle)

def _forms_and_reports(monkeypatch, trees, config, rebuild):
    """Canonical forms of ``trees``, the reports of their saturations and
    the number of folds made, with ``rebuild`` as the engine's rebuild."""
    reports, folds = [], [0]
    saturate, fold = EGraph.saturate, EGraph._fold

    def recorded(g):
        reports.append(saturate(g))
        return reports[-1]

    def counted(g, c):
        folds[0] += 1
        return fold(g, c)

    with monkeypatch.context() as m:
        m.setattr(EGraph, "rebuild", rebuild)
        m.setattr(EGraph, "saturate", recorded)
        m.setattr(EGraph, "_fold", counted)
        forms = [canonicalize(t, config) for t in trees]
    return forms, reports, folds[0]


@pytest.mark.parametrize("config", [CFG, EqSatConfig(max_iters=8,
                                                     node_budget=200)],
                         ids=["default", "iters8_budget200"])
def test_flagged_repair_matches_every_root_repair(monkeypatch, config):
    """Repairing only the merges that changed an analysis gives every
    derivation up to length 6 and every random tree of the golden digest
    the saturation report and canonical form that repairing every merged
    root gives, with fewer folds."""
    rng = np.random.default_rng(2024)
    trees = _derivations(6) + [ex.renumber_params(_random_tree(rng, 4))
                               for _ in range(GOLDEN_RANDOM_FORMS[0])]
    want = _forms_and_reports(monkeypatch, trees, config,
                              every_root_rebuild)
    got = _forms_and_reports(monkeypatch, trees, config, EGraph.rebuild)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2] < want[2]
    if config != CFG:
        assert any(r.stop_reason == "node_budget" for r in got[1])
