"""Pushdown/grammar pipeline: machines, triple construction, simplification,
shortest generated words, and the closed-path factor extraction."""

import hashlib
from functools import lru_cache

import pytest

from loopfold import grammar, rewrite
from loopfold.automata import build_tree_nfa, nfa_accepts
from loopfold.bounds import SearchBudget
from loopfold.core import EMPTY, Presentation, parse_word, reduce_codes, render_word, words_up_to
from loopfold.fillings import ReferenceOracle, double_exp_bound, double_exp_constants
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
from loopfold.rewrite import RewriteSystem

Z2 = Presentation(1, (parse_word("aa", 1),))
Z3 = Presentation(1, (parse_word("aaa", 1),))
LATTICE = Presentation(2, (parse_word("abAB", 2),))


def w(text, gens=1):
    return parse_word(text, gens)


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
        goal = reduce_codes(w(target))
        pda = build_dyck_pda(w(target), 1)
        for z in words_up_to(2, 5):
            assert simulate_pda(pda, z) == (reduce_codes(z) == goal), (target, z)


def test_dyck_pda_two_generators():
    pda = build_dyck_pda(w("ab", 2), 2)
    goal = w("ab", 2)
    for z in words_up_to(4, 4):
        assert simulate_pda(pda, z) == (reduce_codes(z) == goal)


def test_dyck_pda_reduces_its_target():
    # aAaa and aa carve out the same language
    left = build_dyck_pda(w("aAaa"), 1)
    right = build_dyck_pda(w("aa"), 1)
    for z in words_up_to(2, 4):
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
    for z in words_up_to(2, 4):
        expected = reduce_codes(z) == goal and nfa_accepts(tree, z)
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
        assert mv.push is None or mv.push in range(2 * pda.num_generators)
        if mv.inp is None:
            assert mv.push is None


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
        for z in words_up_to(2 * gens, 4):
            assert generates(raw, z) == simulate_pda(pda, z), (name, z)


def test_simplification_preserves_the_language():
    cases = [("z2", 1, 4), ("z3", 1, 4), ("lattice", 2, 3)]
    for name, gens, depth in cases:
        _, pda, _, simplified = product_pipeline(name)
        for z in words_up_to(2 * gens, depth):
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
        assert _tree_yield(parse_tree(simplified)) == witness


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
    assert _tree_yield(tree) == EMPTY
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
    assert multiply_factors(factors) == reduce_codes(word)


def test_loop_factors_every_accepted_word():
    tree = build_tree_nfa(Z3, 0)
    checked = 0
    for z in words_up_to(2, 6):
        if not nfa_accepts(tree, z):
            continue
        factors = loop_factors(tree, Z3, z)
        assert len(factors) <= len(z)
        assert multiply_factors(factors) == reduce_codes(z), z
        checked += 1
    assert checked > 10


def test_cyclic_core_splits_every_word_as_the_pairwise_scan():
    # the split the factoring used before it shared core's conjugator scan
    def split(codes):
        codes = reduce_codes(codes)
        lo, hi = 0, len(codes)
        while hi - lo >= 2 and codes[lo] == codes[hi - 1] ^ 1:
            lo, hi = lo + 1, hi - 1
        return codes[:lo], codes[lo:hi]

    for z in words_up_to(4, 6):
        assert grammar._cyclic_core(z) == split(z), z
    assert grammar._cyclic_core(EMPTY) == (EMPTY, EMPTY)


def test_loop_factors_requires_acceptance():
    tree = build_tree_nfa(Z2, 0)
    with pytest.raises(ValueError):
        loop_factors(tree, Z2, w("a"))


# -- the end-to-end experiment ------------------------------------------------


def test_bound_experiment_z2():
    reports = double_exp_experiment(
        Z2, 3, ReferenceOracle.cyclic(2), SearchBudget(max_word_length=6)
    )
    by_word = {render_word(r.word): r for r in reports}
    assert sorted(by_word) == ["1", "AA", "Aa", "aA", "aa"]
    assert all(r.holds for r in reports)
    top = by_word["aa"]
    assert (top.shortest_length, top.area, top.diameter) == (2, 1, 0)
    assert top.witness == w("aa")
    assert double_exp_bound(Z2, top.n, top.diameter) == 2 * 2**24
    assert double_exp_bound(Z2, by_word["1"].n, by_word["1"].diameter) == 0
    assert by_word["aA"].shortest_length == 0


def test_bound_experiment_z3():
    reports = double_exp_experiment(
        Z3, 3, ReferenceOracle.cyclic(3), SearchBudget(max_word_length=6)
    )
    cubed = {render_word(r.word): r for r in reports}["aaa"]
    assert double_exp_constants(Z3) == (54, 4)
    assert double_exp_bound(Z3, cubed.n, cubed.diameter) == 3 * 2**54
    assert cubed.shortest_length == 3
    assert cubed.area == 1
    assert all(r.holds for r in reports)
    for r in reports:
        assert reduce_codes(r.witness) == reduce_codes(r.word)


@pytest.mark.parametrize("p, oracle, n_max", [
    (Z2, ReferenceOracle.cyclic(2), 7),
    (Z3, ReferenceOracle.cyclic(3), 7),
    (LATTICE, ReferenceOracle.free_abelian(2), 4),
], ids=["z2", "z3", "zxz"])
def test_bound_experiment_holds_is_the_int_comparison(p, oracle, n_max):
    # the experiment decides the bound by a shift, without building it
    reports = double_exp_experiment(p, n_max, oracle, SearchBudget())
    assert reports
    for r in reports:
        assert r.holds == (r.area <= r.shortest_length <= double_exp_bound(p, r.n, r.diameter)), r.word


# -- one grammar per input, the reading phase once per tree ---------------------

BS12 = Presentation(2, (parse_word("abABB", 2),))  # Baumslag–Solitar BS(1, 2)


def test_shared_solve_matches_the_per_word_chain():
    # every row's (ell, witness) is that of the whole simplified product
    # grammar, which depends on the word only through red(w)
    cases = [
        (Z2, ReferenceOracle.cyclic(2), 7),
        (Z3, ReferenceOracle.cyclic(3), 7),
        (LATTICE, ReferenceOracle.free_abelian(2), 4),
        (BS12, ReferenceOracle.rewrite_search(RewriteSystem(BS12), SearchBudget(max_word_length=6)), 5),
    ]
    for p, oracle, n_max in cases:
        reports = double_exp_experiment(p, n_max, oracle, SearchBudget())
        trees, chain = {}, {}
        for r in reports:
            key = (reduce_codes(r.word), r.diameter)
            if key not in chain:
                tree = trees.setdefault(r.diameter, build_tree_nfa(p, r.diameter))
                chain[key] = shortest_word(simplify_cfg(pda_to_cfg(build_product_pda(r.word, tree))))
            assert (r.shortest_length, r.witness) == chain[key], (p, r.word)


def test_one_countdown_part_per_input_and_one_reading_solve_per_tree(monkeypatch):
    # zxz at n = 6: 441 trivial words, 59 distinct (red(w), d), d ∈ {0, 2, 3}
    calls = {"_reading_words": 0, "_countdown_word": 0}
    for name in calls:
        def counted(*args, _name=name, _solve=getattr(grammar, name)):
            calls[_name] += 1
            return _solve(*args)
        monkeypatch.setattr(grammar, name, counted)
    reports = double_exp_experiment(
        LATTICE, 6, ReferenceOracle.free_abelian(2), SearchBudget(max_word_length=6)
    )
    assert len(reports) == 441
    assert calls == {"_reading_words": 3, "_countdown_word": 59}


@pytest.mark.parametrize("corrupt", [
    lambda factors: factors[:-1],  # no longer multiplies out to the word
    lambda factors: factors + [factors[0], (factors[0][0], factors[0][1], -factors[0][2])],  # past ell
], ids=["product", "count"])
def test_bound_experiment_rejects_a_bad_witness_factoring(monkeypatch, corrupt):
    def corrupted(tree, p, witness):
        factors = loop_factors(tree, p, witness)
        return corrupt(factors) if factors else factors  # the empty word has none

    monkeypatch.setattr(grammar, "loop_factors", corrupted)
    with pytest.raises(ValueError, match="witness factoring"):
        double_exp_experiment(Z2, 2, ReferenceOracle.cyclic(2), SearchBudget(max_word_length=6))


# -- areas from the witness's factor list ---------------------------------------

A4A6 = Presentation(1, (parse_word("aaaa", 1), parse_word("aaaaaa", 1)))  # ℤ/2, aa of area 2


@pytest.mark.parametrize("p, oracle, n_max, swept", [
    (Z2, ReferenceOracle.cyclic(2), 7, 0),
    (Z3, ReferenceOracle.cyclic(3), 7, 0),
    (LATTICE, ReferenceOracle.free_abelian(2), 4, 0),
    (BS12, ReferenceOracle.rewrite_search(RewriteSystem(BS12), SearchBudget(max_word_length=6)), 5, 0),
    (A4A6, ReferenceOracle.cyclic(2), 4, 10),
    (A4A6, ReferenceOracle.rewrite_search(RewriteSystem(A4A6), SearchBudget(max_word_length=6)), 4, 10),
], ids=["z2", "z3", "zxz", "bs12", "a4a6", "a4a6-rewrite"])
def test_factor_count_certifies_the_swept_area(monkeypatch, p, oracle, n_max, swept):
    # a witness's factor count bounds the area above; where it meets the
    # relators' lower bound the area needs no sweep, and it is the value
    # the uncut sweep finds; on ⟨a | a⁴, a⁶⟩ the ten words freely equal
    # to aa or AA (bound 1, area 2) fall back to the sweep, of the oracle's
    # rewrite system if it searches one, else of one built for the first
    calls, built = [], []
    measured = rewrite.min_isoperimetric
    monkeypatch.setattr(rewrite, "min_isoperimetric",
                        lambda word, *args: calls.append(word) or measured(word, *args))
    init = RewriteSystem.__init__
    monkeypatch.setattr(RewriteSystem, "__init__",
                        lambda system, presentation: built.append(system) or init(system, presentation))
    reports = double_exp_experiment(p, n_max, oracle, SearchBudget())
    assert len(calls) == swept
    # a searching oracle's system is the one the fallback searches
    assert len(built) == (1 if swept and oracle.system is None else 0)
    for r in reports:
        area = measured(r.word, RewriteSystem(p), SearchBudget())
        assert area.exact and area.value == r.area, (p, r.word)
