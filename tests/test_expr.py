import pickle

import pytest
from hypothesis import given, settings, strategies as st

from esrlab import expr as ex
from esrlab.enumeration import enumerate_trees

from conftest import slow
from oracles import renumber_recursive


def test_pickle_round_trip_keeps_equality_hash_and_key():
    """A tree rebuilt from its pickle is the same ``Expr``, down to a
    ``-0.0`` literal and a hole; forked canonicalization helpers receive
    their trees this way."""
    a, b = ex.param(2), ex.const(-0.0)
    tree = ex.add(ex.sub(ex.mul(ex.var(), a), ex.div(b, ex.hole(1))),
                  ex.powabs(ex.inv(ex.neg(ex.abs_(a))), ex.param(1)))
    assert {n.kind for n in ex.subtrees(tree)} == set(ex.ARITY)
    back = pickle.loads(pickle.dumps(tree))
    assert back == tree and hash(back) == hash(tree)
    assert ex.structural_key(back) == ex.structural_key(tree)
    assert ex.render(back) == ex.render(tree)
    assert str(back.children[0].children[1].children[0].value) == "-0.0"


def test_length_examples():
    assert ex.length(ex.parse("x")) == 1
    assert ex.length(ex.parse("powabs(x, p1)")) == 3
    assert ex.length(ex.parse("p1 / (1.0 / (p2 + x) - p3 ^ x)")) == 10


def test_length_is_additive():
    a = ex.parse("x + p1")
    b = ex.parse("1.0 / x")
    assert ex.length(ex.mul(a, b)) == ex.length(a) + ex.length(b) + 1


def test_render_display_conventions():
    assert ex.render(ex.inv(ex.var())) == "1.0 / x"
    assert ex.render(ex.powabs(ex.var(), ex.param(1))) == "|x| ^ p1"
    assert ex.render(ex.powabs(ex.param(1), ex.var())) == "p1 ^ x"
    assert ex.render(ex.neg(ex.inv(ex.add(ex.param(1), ex.var())))) == \
        "-1.0 / (p1 + x)"
    assert ex.render(ex.abs_(ex.var())) == "abs(x)"


def test_parse_roundtrip_examples():
    for text in [
        "x", "p1", "1.0 / x", "|x| ^ p1", "p1 ^ x",
        "p1 / (1.0 / (p2 + x) - p3 ^ x)",
        "p1 - |p2 + -1.0 / (p3 + x)| ^ p4",
        "1.0 / (p1 + |p2 + p3 ^ x| ^ p4)",
        "x + x + x", "x - (x - x)", "x * (x * x)",
        "abs(x + p1)", "|(|x| ^ p1)| ^ p2",
    ]:
        e = ex.parse(text)
        assert ex.parse(ex.render(e)) == e


def test_parse_table_row_is_ten_nodes():
    e = ex.parse("p1 / (1.0 / (p2 + x) - p3 ^ x)")
    assert ex.length(e) == 10
    assert ex.param_count(e) == 3


def test_parse_error_position():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("x + ")
    assert err.value.position == 5
    with pytest.raises(ex.ParseError):
        ex.parse("q + 1")
    with pytest.raises(ex.ParseError):
        ex.parse("x + (x")


def deep_text(shape: str, n: int) -> str:
    """Text whose tree (``product``) or syntax (``parens``) is n levels
    deep."""
    if shape == "product":
        return " * ".join(["x"] * n)
    return "(" * (n - 1) + "x" + ")" * (n - 1)


@pytest.mark.parametrize("shape, bound, message", [
    ("product", 64, "expression deeper than 64 levels"),
    ("parens", 128, "expression nested deeper than 128 levels")])
def test_parse_bounds_depth_and_nesting(shape, bound, message):
    assert ex.MAX_DEPTH == 64
    ex.parse(deep_text(shape, bound))
    text = deep_text(shape, bound + 1)
    with pytest.raises(ex.ParseError, match=message) as err:
        ex.parse(text)
    # the operand that went one level too deep: the last factor, or the x
    # inside the parentheses
    assert err.value.position == \
        {"product": len(text) + 1, "parens": text.index("x") + 1}[shape]


@pytest.mark.parametrize("text", [
    deep_text("product", 64),
    "x * (" * 63 + "x" + ")" * 63,
    "|" * 63 + "x" + "|" * 63,
    "inv(" * 63 + "x" + ")" * 63,
    "x ^ " * 63 + "x",
    " - ".join(["p1 * x"] * 63),
], ids=["left_product", "right_product", "abs", "inv", "pow", "params"])
def test_deepest_trees_go_through_the_pipeline(text):
    """A tree at the depth bound renders into text that parses back, and
    nothing downstream of ``parse`` recurses too deep for it."""
    from esrlab.dataset import synthetic_dataset
    from esrlab.fitting import GP_FIT, fit
    from esrlab.simplify import canonicalize
    e = ex.parse(text)
    assert ex.parse(ex.render(e)) == e
    canonicalize(ex.renumber_params(e))
    fit(e, synthetic_dataset(32), "mse", GP_FIT)


@pytest.mark.parametrize("text", ["1e400", "x * 1e400", "x + 1e999 - 1e999"])
def test_non_finite_literal_rejected(text):
    with pytest.raises(ex.ParseError) as err:
        ex.parse(text)
    assert "numeric literal out of range" in str(err.value)
    assert err.value.position == text.index("1e") + 1


def test_structural_hash_properties():
    a = ex.parse("x + p1")
    b = ex.parse("p1 + x")
    assert ex.structural_hash(a) == ex.structural_hash(ex.parse("x + p1"))
    assert ex.structural_hash(a) != ex.structural_hash(b)


def test_structural_hash_distinct_across_small_trees():
    hashes = [ex.structural_hash(t) for t in enumerate_trees(6)]
    assert len(hashes) == len(set(hashes))


def test_structural_key_injective_over_derivations():
    partials = []

    def keep(t, key):
        partials.append(t)
        return True

    trees = partials + list(enumerate_trees(6, keep))
    assert any(ex.length(t) == 6 for t in trees)
    assert len(set(trees)) == len(trees)
    assert len({ex.structural_key(t) for t in trees}) == len(trees)


def test_structural_key_literals():
    key, digest = ex.structural_key, ex.structural_hash
    zero = ex.add(ex.var(), ex.const(0.0))
    minus_zero = ex.add(ex.var(), ex.const(-0.0))
    assert zero == minus_zero
    assert key(zero) == key(minus_zero)
    assert digest(zero) == digest(minus_zero)
    for a, b in [(ex.const(1.0), ex.const(2.0)),
                 (ex.param(1), ex.param(2)),
                 (ex.var(), ex.param(1)),
                 (ex.mul(ex.var(), ex.const(1.0)),
                  ex.mul(ex.var(), ex.const(2.0)))]:
        assert a != b
        assert key(a) != key(b)


def test_roundtrip_exhaustive_small():
    for t in enumerate_trees(6):
        assert ex.parse(ex.render(t)) == t


@slow
def test_roundtrip_exhaustive_length8():
    for t in enumerate_trees(8):
        assert ex.parse(ex.render(t)) == t


def test_renumber_params():
    e = ex.parse("p3 + p5 * p3")
    r = ex.renumber_params(e)
    assert ex.render(r) == "p1 + p2 * p3"
    assert ex.param_count(r) == 3
    assert ex.param_count(e) == 5


def _leaf_tree_strategy():
    """Trees whose parameters carry any index, with holes among a few
    indices, so that holes repeat, and with x and literal leaves."""
    leaf = st.one_of(
        st.integers(1, 2**32 - 1).map(ex.param),
        st.integers(0, 3).map(ex.hole),
        st.sampled_from([ex.var(), ex.const(0.0), ex.const(-0.0),
                         ex.const(2.5)]))
    unary = [ex.inv, ex.abs_, ex.neg]
    binary = [ex.add, ex.sub, ex.mul, ex.div, ex.powabs]

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(unary), children).map(
                lambda t: t[0](t[1])),
            st.tuples(st.sampled_from(binary), children, children).map(
                lambda t: t[0](t[1], t[2])),
        )

    return st.recursive(leaf, extend, max_leaves=16)


@given(_leaf_tree_strategy())
@settings(max_examples=300, deadline=None)
def test_renumbering_matches_recursive_walk(tree):
    """The one-walk renumbering gives the trees the recursive walker with a
    dict per kind gave, as ``Expr`` values and as exact bytes."""
    for got, kinds in ((ex.renumber_params(tree), (ex.PARAM,)),
                       (ex.renumber_leaves(tree), (ex.PARAM, ex.HOLE))):
        want = renumber_recursive(tree, kinds)
        assert got == want
        assert ex.structural_key(got) == ex.structural_key(want)


def test_renumber_leaves_shares_repeated_holes():
    e = ex.parse("p7 + p7 * p2")
    e = ex.add(ex.mul(ex.hole(5), e), ex.add(ex.hole(2), ex.hole(5)))
    r = ex.renumber_leaves(e)
    assert ex.render(r) == "?1 * (p1 + p2 * p3) + (?2 + ?1)"
    assert ex.renumber_params(e).children[1] == e.children[1]


def test_arity_enforced():
    with pytest.raises(ValueError):
        ex.Expr(ex.ADD, None, (ex.var(),))


def _tree_strategy():
    # constant leaves are exercised by the example tests; a tree with
    # literal leaves can print as another tree's text, so such trees are
    # outside the tree round-trip contract: the parser reads "-<literal>" as
    # a negative constant, not neg(const), and div(-1.0, e) and div(1.0, e)
    # print as the display forms of neg(inv(e)) and inv(e)
    leaf = st.sampled_from([ex.var(), ex.param(1), ex.param(2)])
    unary = [ex.inv, ex.abs_, ex.neg]
    binary = [ex.add, ex.sub, ex.mul, ex.div, ex.powabs]

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(unary), children).map(
                lambda t: t[0](t[1])),
            st.tuples(st.sampled_from(binary), children, children).map(
                lambda t: t[0](t[1], t[2])),
        )

    return st.recursive(leaf, extend, max_leaves=12)


@given(_tree_strategy())
@settings(max_examples=200, deadline=None)
def test_roundtrip_random_trees(tree):
    assert ex.parse(ex.render(tree)) == tree


def test_div_by_literal_reads_back_as_its_display_form():
    """The text round-trips and the tree does not: div(-1.0, x) prints as
    the display form of neg(inv(x))."""
    e = ex.div(ex.const(-1.0), ex.var())
    assert ex.render(e) == "-1.0 / x"
    assert ex.parse("-1.0 / x") == ex.neg(ex.inv(ex.var())) != e
    assert ex.render(ex.parse("-1.0 / x")) == "-1.0 / x"


@given(_tree_strategy())
@settings(max_examples=100, deadline=None)
def test_hash_pure_function_of_structure(tree):
    assert ex.structural_hash(tree) == ex.structural_hash(
        ex.parse(ex.render(tree)))
