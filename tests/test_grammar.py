"""Pushdown/grammar pipeline: machines, triple construction, simplification,
shortest generated words, and the closed-path factor extraction."""

import hashlib
from functools import lru_cache
from itertools import product

import pytest

from loopfold.automata import build_tree_nfa, nfa_accepts
from loopfold.core import EMPTY, Presentation, Word, parse_word, render_word
from loopfold.fillings import ReferenceOracle
from loopfold.grammar import (
    BOTTOM,
    build_dyck_pda,
    build_product_pda,
    double_exp_experiment,
    generates,
    loop_factors,
    multiply_factors,
    parse_tree,
    pda_to_cfg,
    render_cfg,
    shortest_word,
    simplify_cfg,
    simulate_pda,
)
from loopfold.rewrite import RewriteSystem, SearchBudget

Z2 = Presentation(1, (parse_word("aa", 1),))
Z3 = Presentation(1, (parse_word("aaa", 1),))
LATTICE = Presentation(2, (parse_word("abAB", 2),))


def w(text, gens=1):
    return parse_word(text, gens)


def all_words_up_to(num_generators, n):
    yield EMPTY
    for length in range(1, n + 1):
        for codes in product(range(2 * num_generators), repeat=length):
            yield Word(codes)


@lru_cache(maxsize=None)
def product_pipeline(name, d=0):
    presentation, target, gens = {
        "z2": (Z2, "aa", 1),
        "z3": (Z3, "aaa", 1),
        "lattice": (LATTICE, "abAB", 2),
    }[name]
    tree = build_tree_nfa(presentation, d)
    pda = build_product_pda(w(target, gens), tree)
    raw = pda_to_cfg(pda)
    return tree, pda, raw, simplify_cfg(raw)


# -- pushdown machines --------------------------------------------------------


def test_dyck_pda_matches_free_reduction_exhaustively():
    for target in ("", "aa"):
        goal = w(target).reduce()
        pda = build_dyck_pda(w(target), 1)
        for z in all_words_up_to(1, 5):
            assert simulate_pda(pda, z) == (z.reduce() == goal), (target, z)


def test_dyck_pda_two_generators():
    pda = build_dyck_pda(w("ab", 2), 2)
    goal = w("ab", 2)
    for z in all_words_up_to(2, 4):
        assert simulate_pda(pda, z) == (z.reduce() == goal)


def test_dyck_pda_reduces_its_target():
    # aAaa and aa carve out the same language
    left = build_dyck_pda(w("aAaa"), 1)
    right = build_dyck_pda(w("aa"), 1)
    for z in all_words_up_to(1, 4):
        assert simulate_pda(left, z) == simulate_pda(right, z)


def test_dyck_pda_empty_target_accepts_cancellations():
    pda = build_dyck_pda(EMPTY, 1)
    assert simulate_pda(pda, EMPTY)
    assert simulate_pda(pda, w("aA"))
    assert simulate_pda(pda, w("Aa"))
    assert not simulate_pda(pda, w("a"))
    assert not simulate_pda(pda, w("aa"))


def test_product_pda_is_the_intersection():
    tree, pda, _, _ = product_pipeline("z2")
    goal = w("aa")
    for z in all_words_up_to(1, 4):
        expected = z.reduce() == goal and nfa_accepts(tree, z)
        assert simulate_pda(pda, z) == expected, z


def test_product_pda_accepts_its_target():
    for name, target, gens in [("z2", "aa", 1), ("z3", "aaa", 1), ("lattice", "abAB", 2)]:
        _, pda, _, _ = product_pipeline(name)
        assert simulate_pda(pda, w(target, gens))


def test_pda_shape():
    _, pda, _, _ = product_pipeline("z2")
    assert pda.start == (0, 2)
    assert pda.final == (0, -1)
    # every move pops the inspected top or pushes exactly one symbol above it
    for mv in pda.moves:
        assert mv.action[0] in ("push", "pop")
        if mv.inp is None:
            assert mv.action == ("pop",)


# -- triple construction ------------------------------------------------------


def test_cfg_rhs_never_longer_than_three():
    for name in ("z2", "z3", "lattice"):
        _, _, raw, simplified = product_pipeline(name)
        for g in (raw, simplified):
            assert max(len(rhs) for _, rhs in g.rules) <= 3
            # at most one letter, placed first, then triples: rules order as
            # plain tuples
            for _, rhs in g.rules:
                assert all(isinstance(s, tuple) for s in rhs[1:]), rhs


def test_toy_grammar_generates_cancelling_pairs():
    # target the empty word over one generator: the grammar speaks pure
    # cancellation
    cfg = pda_to_cfg(build_dyck_pda(EMPTY, 1))
    assert generates(cfg, w("aA"))
    assert generates(cfg, w("Aa"))
    assert generates(cfg, EMPTY)
    assert not generates(cfg, w("a"))
    assert not generates(cfg, w("aa"))


def test_raw_cfg_matches_pda():
    for name, gens in [("z2", 1), ("z3", 1)]:
        _, pda, raw, _ = product_pipeline(name)
        for z in all_words_up_to(gens, 4):
            assert generates(raw, z) == simulate_pda(pda, z), (name, z)


def test_simplification_preserves_the_language():
    cases = [("z2", 1, 4), ("z3", 1, 4), ("lattice", 2, 3)]
    for name, gens, depth in cases:
        _, pda, _, simplified = product_pipeline(name)
        for z in all_words_up_to(gens, depth):
            assert generates(simplified, z) == simulate_pda(pda, z), (name, z)


def test_simplification_structure():
    for name, target, gens in [("z2", "aa", 1), ("z3", "aaa", 1), ("lattice", "abAB", 2)]:
        tree, pda, raw, simplified = product_pipeline(name)
        m = len(w(target, gens))
        # both rooted at the single bottom-popping triple
        assert raw.start == simplified.start == (pda.start, BOTTOM, pda.final)
        # countdown states never appear on the consuming (left) side
        for nt in simplified.nonterminals():
            assert nt[0][1] == m, nt


def test_simplified_size_within_pumping_bound():
    # d = 0 trees: bound is (2|A|+1) * ||R||^2
    for name, p in [("z2", Z2), ("z3", Z3), ("lattice", LATTICE)]:
        _, _, _, simplified = product_pipeline(name)
        bound = (2 * p.num_generators + 1) * p.relator_total_length**2
        assert len(simplified.nonterminals()) <= bound


def test_simplified_z2_is_tiny():
    _, _, raw, simplified = product_pipeline("z2")
    assert len(raw.rules) == 17
    assert len(simplified.rules) == 15
    assert len(simplified.nonterminals()) == 7


# sha256 of render_cfg(simplified) for the product with the tree complex of
# radius d, taken from the triple construction over all state pairs followed
# by a productivity filter: the saturated construction must keep every rule.
SIMPLIFIED_DIGESTS = {
    ("z2", 0): "b53eee1dcfc4f0c9af4f782b7ec2c2eeb7305fbdc18362570924b2e4d3bc8290",
    ("z2", 1): "d1b888cd3e8b399482be6abf060d65e4e376baae855f5201f196ef6157065040",
    ("z3", 0): "9c4167a19ae88c806539214dab9bf0121d6f2e3fcb303b5f0eb29127f2741e79",
    ("z3", 1): "8a01ead10af919d93f4e223df4bfd61410158c1faf4642a3ea171763f6cbc693",
    ("lattice", 0): "671119cccaaa729273ce51f44e0aa36e20797a9f2222ad7879c776988c8e123f",
    ("lattice", 1): "592e1a4cd15c4eae1d82dd39d6871985b187352f8e42146e0ae7aaff612d5d26",
}


@pytest.mark.parametrize("name,d", sorted(SIMPLIFIED_DIGESTS))
def test_simplified_grammar_is_pinned(name, d):
    _, _, _, simplified = product_pipeline(name, d)
    digest = hashlib.sha256(render_cfg(simplified).encode()).hexdigest()
    assert digest == SIMPLIFIED_DIGESTS[name, d]


@pytest.mark.parametrize("name,d", sorted(SIMPLIFIED_DIGESTS))
def test_raw_rules_name_only_productive_triples(name, d):
    _, _, raw, _ = product_pipeline(name, d)
    heads = {lhs for lhs, _ in raw.rules}
    for lhs, rhs in raw.rules:
        for s in rhs:
            assert not isinstance(s, tuple) or s in heads, (lhs, rhs)


# -- shortest generated words -------------------------------------------------


def test_shortest_word_on_forced_grammar():
    cfg = _hand_cfg(
        2,
        ("S",),
        [
            (("S",), (("A",), ("B",))),
            (("A",), (0,)),
            (("B",), (2,)),
        ],
    )
    assert shortest_word(cfg) == (2, w("ab", 2))


def test_shortest_word_prefers_empty():
    cfg = _hand_cfg(
        1,
        ("S",),
        [
            (("S",), (0, ("S",), 1)),
            (("S",), ()),
        ],
    )
    assert shortest_word(cfg) == (0, EMPTY)


def test_shortest_word_empty_language():
    cfg = _hand_cfg(1, ("S",), [(("S",), (0, ("S",)))])
    assert shortest_word(cfg) is None


def test_shortest_word_breaks_ties_deterministically():
    cfg = _hand_cfg(1, ("S",), [(("S",), (1,)), (("S",), (0,))])
    assert shortest_word(cfg) == (1, w("a"))


def test_product_shortest_words():
    expected = {"z2": (2, w("aa")), "z3": (3, w("aaa")), "lattice": (4, w("abAB", 2))}
    for name, want in expected.items():
        _, _, raw, simplified = product_pipeline(name)
        assert shortest_word(simplified) == want
        assert shortest_word(raw) == want


def _tree_yield(node):
    sym, children = node
    return bytes((sym,)) if not isinstance(sym, tuple) else b"".join(map(_tree_yield, children))


def test_shortest_witness_is_generated():
    for name in ("z2", "z3", "lattice"):
        _, _, _, simplified = product_pipeline(name)
        length, witness = shortest_word(simplified)
        assert len(witness) == length
        assert generates(simplified, witness)
        assert Word(_tree_yield(parse_tree(simplified))) == witness


def _hand_cfg(num_generators, start, rules):
    from loopfold.grammar import Cfg

    return Cfg(num_generators, start, tuple(rules))


# -- minimal parse trees ------------------------------------------------------


def _walk(node, on_spine, out):
    sym, children = node
    out.append((sym, on_spine))
    for i, child in enumerate(children):
        _walk(child, on_spine and i == len(children) - 1, out)


def test_countdown_triples_sit_on_the_rightmost_path():
    _, _, _, simplified = product_pipeline("z2")
    tree = parse_tree(simplified)
    nodes = []
    _walk(tree, True, nodes)
    m = 2
    for sym, on_spine in nodes:
        if isinstance(sym, tuple) and isinstance(sym[0], tuple) and sym[2][1] != m:
            assert on_spine, sym


def test_no_repeated_nonterminal_on_root_paths():
    # minimality: a repeat would admit a shorter pump-down
    _, _, _, simplified = product_pipeline("z3")
    tree = parse_tree(simplified)

    def check(node, seen):
        sym, children = node
        if isinstance(sym, tuple):
            assert sym not in seen, sym
            seen = seen | {sym}
        for child in children:
            check(child, seen)

    check(tree, frozenset())


def test_parse_tree_follows_the_shortest_word_rules():
    # equal-cost unit rules A -> B and B -> A must not be chosen together
    a, b, c, d = ("A",), ("B",), ("C",), ("D",)
    cfg = _hand_cfg(1, a, [(a, (b,)), (b, (a,)), (a, (c,)), (c, ()), (b, (d,)), (d, ())])
    assert shortest_word(cfg) == (0, EMPTY)
    tree = parse_tree(cfg)
    assert Word(_tree_yield(tree)) == EMPTY
    assert tree[0] == a


def test_parse_tree_empty_language():
    cfg = _hand_cfg(1, ("S",), [(("S",), (0, ("S",)))])
    assert parse_tree(cfg) is None


# -- rendering ----------------------------------------------------------------


def test_render_cfg_layout():
    _, _, _, simplified = product_pipeline("z2")
    text = render_cfg(simplified)
    lines = text.splitlines()
    assert text.endswith("\n")
    assert lines == sorted(lines)
    assert "[q0s2,a,q0s1] -> 1" in lines
    assert "[q0s2,z,q0f] -> a [q1s2,a,q0s0]" in lines


def test_render_cfg_deterministic():
    tree = build_tree_nfa(Z2, 0)
    one = render_cfg(simplify_cfg(pda_to_cfg(build_product_pda(w("aa"), tree))))
    two = render_cfg(simplify_cfg(pda_to_cfg(build_product_pda(w("aa"), tree))))
    assert one == two


# -- closed-path factoring ----------------------------------------------------


def test_loop_factors_powers_of_the_relator():
    tree = build_tree_nfa(Z2, 0)
    factors = loop_factors(tree, Z2, w("aaaa"))
    assert factors == [(EMPTY, w("aa"), 1), (EMPTY, w("aa"), 1)]
    assert multiply_factors(factors) == w("aaaa")


def test_loop_factors_single_relator():
    tree = build_tree_nfa(Z3, 0)
    assert loop_factors(tree, Z3, w("aaa")) == [(EMPTY, w("aaa"), 1)]
    assert loop_factors(tree, Z3, w("AAA")) == [(EMPTY, w("aaa"), -1)]


def test_loop_factors_conjugated_relator():
    tree = build_tree_nfa(LATTICE, 1)
    word = w("AabABa", 2)
    assert nfa_accepts(tree, word)
    factors = loop_factors(tree, LATTICE, word)
    assert len(factors) <= len(word)
    for conj, relator, sign in factors:
        assert relator in LATTICE.relators
        assert sign in (-1, 1)
    assert multiply_factors(factors) == word.reduce()


def test_loop_factors_every_accepted_word():
    tree = build_tree_nfa(Z3, 0)
    checked = 0
    for z in all_words_up_to(1, 6):
        if not nfa_accepts(tree, z):
            continue
        factors = loop_factors(tree, Z3, z)
        assert len(factors) <= len(z)
        assert multiply_factors(factors) == z.reduce(), z
        checked += 1
    assert checked > 10


def test_loop_factors_requires_acceptance():
    tree = build_tree_nfa(Z2, 0)
    with pytest.raises(ValueError):
        loop_factors(tree, Z2, w("a"))


# -- the end-to-end experiment ------------------------------------------------


def test_bound_experiment_z2():
    reports = double_exp_experiment(
        RewriteSystem(Z2), 3, ReferenceOracle.cyclic(2), SearchBudget(max_word_length=6)
    )
    by_word = {render_word(r.word): r for r in reports}
    assert sorted(by_word) == ["1", "AA", "Aa", "aA", "aa"]
    assert all(r.holds for r in reports)
    top = by_word["aa"]
    assert (top.shortest_length, top.area, top.diameter) == (2, 1, 0)
    assert top.witness == w("aa")
    assert top.bound == 2 * 2**24
    assert by_word["1"].bound == 0
    assert by_word["aA"].shortest_length == 0


def test_bound_experiment_z3():
    reports = double_exp_experiment(
        RewriteSystem(Z3), 3, ReferenceOracle.cyclic(3), SearchBudget(max_word_length=6)
    )
    cubed = {render_word(r.word): r for r in reports}["aaa"]
    assert cubed.big_c == 54
    assert cubed.base == 4
    assert cubed.bound == 3 * 2**54
    assert cubed.shortest_length == 3
    assert cubed.area == 1
    assert all(r.holds for r in reports)
    for r in reports:
        assert r.witness.reduce() == r.word.reduce()
