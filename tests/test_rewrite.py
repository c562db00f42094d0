import hashlib
import random
from collections import deque

import pytest

from loopfold.compression import compress
from loopfold.core import EMPTY, Presentation, Word, parse_word
from loopfold.rewrite import (
    OracleStatus,
    RewriteSystem,
    SearchBudget,
    filling_length,
    is_trivial,
    min_isoperimetric,
)

Z2 = Presentation(1, [parse_word("aa", 1)])
Z3 = Presentation(1, [parse_word("aaa", 1)])
LATTICE = Presentation(2, [parse_word("abAB", 2)])  # free abelian of rank 2
COLLAPSE = Presentation(2, [parse_word("ab", 2)])


def w(text, n=2):
    return parse_word(text, n)


def random_word(rng, alphabet_size, length):
    return Word(bytes(rng.randrange(alphabet_size) for _ in range(length)))


def naive_cost_to_empty(start, rs, cap):
    """Independent 0-1 BFS from the word itself, driven by the faithful
    single-step enumerator rather than the indexed search kernel."""
    dist = {start.codes: 0}
    dq = deque([(0, start)])
    while dq:
        cost, u = dq.popleft()
        if dist.get(u.codes) != cost:
            continue
        for rule, _pos, res in rs.apply_rule_positions(u):
            if len(res) > cap:
                continue
            c2 = cost + (1 if rule.from_relators else 0)
            if res.codes not in dist or c2 < dist[res.codes]:
                dist[res.codes] = c2
                if rule.from_relators:
                    dq.append((c2, res))
                else:
                    dq.appendleft((c2, res))
    return dist.get(b"")


class TestRuleSet:
    def test_rules_are_symmetric(self):
        for p in (Z2, Z3, LATTICE, COLLAPSE):
            rs = RewriteSystem(p)
            pairs = {(r.lhs.codes, r.rhs.codes) for r in rs.relator_rules}
            assert pairs == {(v, u) for u, v in pairs}
            fg = {(r.lhs.codes, r.rhs.codes) for r in rs.free_rules}
            assert fg == {(v, u) for u, v in fg}

    def test_rule_products_lie_in_symmetrized_relators(self):
        rs = RewriteSystem(LATTICE)
        rels = set(rs.symmetrized_presentation.relators)
        for rule in rs.relator_rules:
            assert (rule.lhs * rule.rhs.inverse()).reduce() in rels

    def test_apply_example_order_two(self):
        rs = RewriteSystem(Z2)
        steps = {(r.lhs, pos, res) for r, pos, res in rs.apply_rule_positions(w("aa", 1))}
        assert (w("aa", 1), 0, EMPTY) in steps

    def test_apply_on_empty_word_inserts_pairs(self):
        rs = RewriteSystem(COLLAPSE)
        free_results = {res for r, _, res in rs.apply_rule_positions(EMPTY) if not r.from_relators}
        assert free_results == {w("aA"), w("Aa"), w("bB"), w("Bb")}

    def test_single_steps_are_reversible(self):
        rng = random.Random(31)
        rs = RewriteSystem(LATTICE)
        for _ in range(40):
            u = random_word(rng, 4, rng.randrange(0, 5))
            for _rule, _pos, res in rs.apply_rule_positions(u):
                back = {r2 for _r, _p, r2 in rs.apply_rule_positions(res)}
                assert u in back

    def test_neighbors_match_faithful_enumerator(self):
        # Relators of mixed lengths and caps just above the word's length
        # make the room filter cut inside an option list.
        rng = random.Random(32)
        mixed = Presentation(2, [w("aa"), w("abAB"), w("bbb")])
        for p in (Z2, LATTICE, COLLAPSE, compress(Z2).combined, compress(Z3).combined, mixed):
            rs = RewriteSystem(p)
            for _ in range(30):
                u = random_word(rng, p.alphabet_size, rng.randrange(0, 5))
                for cap in range(len(u) + 1, len(u) + 5):
                    fast = {}
                    for cost, codes in rs._neighbors(u.codes, cap):
                        fast[codes] = min(cost, fast.get(codes, 2))
                    slow = {}
                    for rule, _pos, res in rs.apply_rule_positions(u):
                        if len(res) <= cap:
                            c = 1 if rule.from_relators else 0
                            slow[res.codes] = min(c, slow.get(res.codes, 2))
                    assert fast == slow, (p, u, cap)


class TestMinIsoperimetric:
    def test_order_two_examples(self):
        rs = RewriteSystem(Z2)
        budget = SearchBudget(max_word_length=6)
        assert min_isoperimetric(w("aa", 1), rs, budget) .value == 1
        assert min_isoperimetric(w("aaaa", 1), rs, budget).value == 2
        assert min_isoperimetric(w("aaaa", 1), rs, budget).status is OracleStatus.EXACT

    def test_freely_trivial_costs_nothing(self):
        rs = RewriteSystem(LATTICE)
        budget = SearchBudget(max_word_length=8)
        for text in ("", "aA", "abBA", "bAaB"):
            r = min_isoperimetric(w(text), rs, budget)
            assert (r.value, r.status) == (0, OracleStatus.EXACT)

    def test_zero_cost_iff_freely_trivial(self):
        rng = random.Random(33)
        rs = RewriteSystem(Z3)
        budget = SearchBudget(max_word_length=8)
        for _ in range(80):
            u = random_word(rng, 2, rng.randrange(0, 7))
            r = min_isoperimetric(u, rs, budget)
            if r.value == 0:
                assert u.reduce() == EMPTY
            if u.reduce() == EMPTY:
                assert r.value == 0

    def test_matches_naive_search_from_word(self):
        rng = random.Random(34)
        for p in (Z2, Z3, COLLAPSE):
            rs = RewriteSystem(p)
            cap = 6
            sweep = rs.explore(cap)
            for _ in range(25):
                u = random_word(rng, p.alphabet_size, rng.randrange(0, 5))
                assert sweep.costs.get(u.codes) == naive_cost_to_empty(u, rs, cap)

    def test_matches_naive_search_lattice(self):
        rs = RewriteSystem(LATTICE)
        sweep = rs.explore(6)
        for text in ("abAB", "aabABA", "abab", "a"):
            u = w(text)
            assert sweep.costs.get(u.codes) == naive_cost_to_empty(u, rs, 6)

    def test_budget_monotonicity(self):
        rs = RewriteSystem(Z2)
        vals = []
        for cap in (4, 6, 8, 10):
            r = min_isoperimetric(w("aaaa", 1), rs, SearchBudget(max_word_length=cap))
            vals.append(r.value)
        assert all(v is not None for v in vals)
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_cap_too_small_reports_lower_bound_only(self):
        rs = RewriteSystem(Z2)
        r = min_isoperimetric(w("aaaa", 1), rs, SearchBudget(max_word_length=2))
        # found only at the wider cap of the stabilization pair
        assert r.status is OracleStatus.LOWER_BOUND_ONLY
        assert r.value == 2

    def test_state_budget_exceeded(self):
        rs = RewriteSystem(LATTICE)
        r = min_isoperimetric(w("abAB"), rs, SearchBudget(max_word_length=6, max_states=3))
        assert r.status is OracleStatus.BUDGET_EXCEEDED

    def test_nontrivial_word_unreached(self):
        rs = RewriteSystem(Z2)
        r = min_isoperimetric(w("a", 1), rs, SearchBudget(max_word_length=6))
        assert r.value is None
        assert r.status is OracleStatus.LOWER_BOUND_ONLY


class TestFillingLength:
    def test_examples(self):
        rs = RewriteSystem(Z2)
        budget = SearchBudget(max_word_length=8)
        assert filling_length(EMPTY, rs, budget).value == 0
        assert filling_length(w("aa", 1), rs, budget).value == 2
        assert filling_length(w("aA", 1), rs, budget).value == 2

    def test_at_least_word_length_on_reduced_trivial_words(self):
        rs = RewriteSystem(Z3)
        budget = SearchBudget(max_word_length=9)
        for text in ("aaa", "aaaaaa", "AAA"):
            u = w(text, 1)
            assert u.reduce() == u
            r = filling_length(u, rs, budget)
            assert r.status is OracleStatus.EXACT
            assert r.value >= len(u)

    def test_agrees_with_direct_cap_scan(self):
        rng = random.Random(35)
        rs = RewriteSystem(Z2)
        budget = SearchBudget(max_word_length=8)
        for _ in range(60):
            u = random_word(rng, 2, rng.randrange(0, 7))
            r = filling_length(u, rs, budget)
            caps = [c for c in range(0, 9) if u.codes in rs.explore(c).costs]
            if r.value is None:
                assert not caps
            else:
                assert r.value == caps[0]

    def test_untriviable_word_unreached(self):
        rs = RewriteSystem(Z2)
        r = filling_length(w("aaa", 1), rs, SearchBudget(max_word_length=8))
        assert r.value is None

    def test_word_longer_than_cap(self):
        rs = RewriteSystem(Z2)
        r = filling_length(w("aaaa", 1), rs, SearchBudget(max_word_length=3))
        assert r.value is None
        assert r.status is OracleStatus.LOWER_BOUND_ONLY


class TestIsTrivial:
    def test_cyclic_three_examples(self):
        rs = RewriteSystem(Z3)
        budget = SearchBudget(max_word_length=8)
        assert is_trivial(w("aaaaaa", 1), rs, budget) == (True, OracleStatus.EXACT)
        verdict, status = is_trivial(w("aaaa", 1), rs, budget)
        assert verdict is False
        assert status is OracleStatus.LOWER_BOUND_ONLY
        assert is_trivial(EMPTY, rs, budget)[0] is True

    def test_agreement_with_closed_forms(self):
        budget = SearchBudget(max_word_length=8)
        cases = [
            (Z2, lambda u: sum(1 if c == 0 else -1 for c in u.codes) % 2 == 0),
            (Z3, lambda u: sum(1 if c == 0 else -1 for c in u.codes) % 3 == 0),
            (
                LATTICE,
                lambda u: sum(1 if c == 0 else -1 for c in u.codes if c < 2) == 0
                and sum(1 if c == 2 else -1 for c in u.codes if c >= 2) == 0,
            ),
        ]
        for p, closed_form in cases:
            rs = RewriteSystem(p)
            k = p.alphabet_size
            words = [Word(b"")]
            for _ in range(6):
                words = [Word(u.codes + bytes([c])) for u in words for c in range(k)]
                for u in words:
                    assert is_trivial(u, rs, budget)[0] == closed_form(u), u

    def test_symmetrization_preserves_word_problem(self):
        budget = SearchBudget(max_word_length=8)
        for p in (Z3, LATTICE):
            rs = RewriteSystem(p)
            rs_sym = RewriteSystem(p.symmetrized())
            rng = random.Random(36)
            for _ in range(60):
                u = random_word(rng, p.alphabet_size, rng.randrange(0, 7))
                assert is_trivial(u, rs, budget)[0] == is_trivial(u, rs_sym, budget)[0]


class TestDeterminism:
    def test_fresh_systems_explore_identically(self):
        a = RewriteSystem(LATTICE).explore(6)
        b = RewriteSystem(LATTICE).explore(6)
        assert a.costs == b.costs
        assert list(a.costs) == list(b.costs)


def _digest(pairs):
    h = hashlib.sha256()
    for a, b in pairs:
        h.update(a + b"|" + b + b";")
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def fused_lattice():
    return RewriteSystem(compress(LATTICE).combined)


class TestFusedLattice:
    """Sweeps of the fused lattice (3,200 relators up to length 16).  The
    successor order decides which states a budget-cut sweep settles and the
    order of the keys, so counts, cost sums and key-order digests are pinned."""

    @pytest.mark.parametrize("cap, max_states, complete, states, cost_sum, digest", [
        (6, 50, False, 253, 126, "5bb46e5341d0044b"),
        (8, 300, False, 3441, 1831, "612f8de14d594b00"),
        (6, 2_000_000, True, 441, 176, "7e0d3712e4c4b7e9"),
    ])
    def test_sweeps_keep_their_order(self, fused_lattice, cap, max_states, complete,
                                     states, cost_sum, digest):
        sweep = fused_lattice.explore(cap, max_states)
        assert sweep.complete is complete
        assert (len(sweep.costs), sum(sweep.costs.values())) == (states, cost_sum)
        assert _digest((k, str(c).encode()) for k, c in sweep.costs.items()) == digest

    def test_relator_rules_in_order(self, fused_lattice):
        rules = fused_lattice.relator_rules
        assert len(rules) == 168_880
        assert all(r.from_relators for r in rules)
        keys = [(len(r.lhs), r.lhs.codes, len(r.rhs), r.rhs.codes) for r in rules]
        assert all(a < b for a, b in zip(keys, keys[1:]))  # sorted, no repeats
        assert _digest((r.lhs.codes, r.rhs.codes) for r in rules) == "99779208c01989b6"
