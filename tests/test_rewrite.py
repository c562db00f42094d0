import hashlib
import itertools
import random
import time
import tracemalloc
from collections import deque

import pytest

from loopfold import rewrite
from loopfold.bounds import OracleStatus, SearchBudget, area_lower_bound
from loopfold.compression import compress
from loopfold.core import EMPTY, Presentation, Word, parse_word, symmetric_closure, words_up_to
from loopfold.rewrite import (
    RewriteSystem,
    filling_length,
    is_trivial,
    min_isoperimetric,
    trivial_words,
)

Z2 = Presentation(1, [parse_word("aa", 1)])
Z3 = Presentation(1, [parse_word("aaa", 1)])
LATTICE = Presentation(2, [parse_word("abAB", 2)])  # free abelian of rank 2
COLLAPSE = Presentation(2, [parse_word("ab", 2)])
CONJUGATE = Presentation(2, [parse_word("aab", 2), parse_word("abA", 2)])  # abA is not cyclically reduced
BS12 = Presentation(2, [parse_word("abABB", 2)])  # Baumslag–Solitar BS(1, 2)
TRIVIAL = Presentation(1, [parse_word("aaaaa", 1), parse_word("aaa", 1)])  # a and aa need cap 3


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
        rels = set(rs.presentation.symmetrized().relators)
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

    def test_successors_match_faithful_enumerator(self):
        # Relators of mixed lengths and caps from the word's length up make
        # the room filter cut inside an option list; at room 0 every relator
        # insertion is cut and a substitution must not lengthen the word.
        rng = random.Random(32)
        mixed = Presentation(2, [w("aa"), w("abAB"), w("bbb")])
        for p in (Z2, LATTICE, COLLAPSE, compress(Z2).combined, compress(Z3).combined, mixed,
                  HEISENBERG, BS12):
            rs = RewriteSystem(p)
            for _ in range(30):
                u = random_word(rng, p.alphabet_size, rng.randrange(0, 5))
                for cap in range(len(u), len(u) + 5):
                    fast = {}
                    for cost, codes in rs._successors(cap)(u.codes):
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
                assert sweep.cost(u.codes) == naive_cost_to_empty(u, rs, cap)

    def test_matches_naive_search_lattice(self):
        rs = RewriteSystem(LATTICE)
        sweep = rs.explore(6)
        for text in ("abAB", "aabABA", "abab", "a"):
            u = w(text)
            assert sweep.cost(u.codes) == naive_cost_to_empty(u, rs, 6)

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
        # 3 orbits cut the cap-6 sweep before it reaches aabAAB
        rs = RewriteSystem(LATTICE)
        r = min_isoperimetric(w("aabAAB"), rs, SearchBudget(max_word_length=6, max_states=3))
        assert r.status is OracleStatus.BUDGET_EXCEEDED

    def test_cut_sweep_at_the_bound_is_exact(self):
        # 10 orbits cut the cap-6 sweep of ℤ/3, which still holds aaa at
        # cost 1, its exponent-sum bound: a cut sweep's cost is that of a
        # real derivation, so the area is proved.  aaaaaa it misses.
        rs = RewriteSystem(Z3)
        budget = SearchBudget(max_word_length=6, max_states=10)
        assert not rs.explore(6, 10).complete
        r = min_isoperimetric(w("aaa", 1), rs, budget)
        assert (r.value, r.status) == (1, OracleStatus.EXACT)
        r = min_isoperimetric(w("aaaaaa", 1), rs, budget)
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
            caps = [c for c in range(0, 9) if rs.explore(c).cost(u.codes) is not None]
            if r.value is None:
                assert not caps
            else:
                assert r.value == caps[0]

    @pytest.mark.parametrize("p", [Z2, Z3, LATTICE, BS12, CONJUGATE],
                             ids=["z2", "z3", "lattice", "bs12", "conjugate"])
    @pytest.mark.parametrize("cap", [6, 8])
    def test_least_cap_whose_sweep_holds_the_word(self, p, cap):
        rs = RewriteSystem(p)
        budget = SearchBudget(max_word_length=cap)
        for u in words_up_to(p.alphabet_size, 6):
            held = [c for c in range(cap + 1) if rs.explore(c).cost(u.codes) is not None]
            expected = (held[0], OracleStatus.EXACT) if held else (None, OracleStatus.LOWER_BOUND_ONLY)
            assert filling_length(u, rs, budget) == expected, u

    def test_a_cut_sweep_that_holds_the_word_earns_exact(self):
        # six orbits hold the sweeps at caps 1 and 2, which miss a and aa,
        # but not the one at cap 3, which holds both
        rs = RewriteSystem(TRIVIAL)
        assert [rs.explore(c, 6).complete for c in (1, 2, 3)] == [True, True, False]
        budget = SearchBudget(max_word_length=8, max_states=6)
        for text in ("a", "aa"):
            assert filling_length(w(text, 1), rs, budget) == (3, OracleStatus.EXACT)

    def test_a_cut_sweep_that_misses_the_word_exceeds_the_budget(self):
        # four orbits cut the cap-3 sweep before it reaches a, but after aa
        rs = RewriteSystem(TRIVIAL)
        cut = rs.explore(3, 4)
        assert not cut.complete and cut.cost(w("a", 1).codes) is None
        budget = SearchBudget(max_word_length=8, max_states=4)
        assert filling_length(w("a", 1), rs, budget) == (None, OracleStatus.BUDGET_EXCEEDED)
        assert filling_length(w("aa", 1), rs, budget) == (3, OracleStatus.EXACT)

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


BS12 = Presentation(2, [parse_word("abABB", 2)])  # Baumslag-Solitar BS(1,2)
ASYMMETRIC = Presentation(2, [parse_word("aab", 2), parse_word("bbbaB", 2)])


class TestSymmetry:
    """Sweeps hold one word per orbit of the symmetry group: letter maps
    that commute with inversion and fix the symmetrized relators, each with
    and without ``w -> w^-1``."""

    def test_group_sizes(self, fused_lattice):
        sizes = [len(symmetry_maps(rs)) for rs in (RewriteSystem(LATTICE), fused_lattice,
                                                    RewriteSystem(Z3), RewriteSystem(ASYMMETRIC))]
        assert sizes == [16, 16, 4, 2]

    def test_maps_commute_with_inversion_and_fix_the_relators(self, fused_lattice):
        for rs in (RewriteSystem(LATTICE), fused_lattice, RewriteSystem(Z3), RewriteSystem(BS12)):
            rels = {r.codes for r in rs.presentation.symmetrized().relators}
            for t in rs.symmetries:
                assert all(t[c ^ 1] == t[c] ^ 1 for c in range(rs.presentation.alphabet_size))
            for m in symmetry_maps(rs):
                assert {m(r) for r in rels} == rels
                for r in list(rels)[:50]:
                    assert m(r[::-1].translate(INVERSE)) == m(r)[::-1].translate(INVERSE)

    def test_group_equals_a_brute_force(self, fused_lattice):
        # every signed generator permutation, checked against every
        # symmetrized relator
        for rs in (RewriteSystem(LATTICE), fused_lattice, RewriteSystem(Z3), RewriteSystem(BS12),
                   RewriteSystem(ASYMMETRIC), RewriteSystem(CONJUGATE)):
            closure = {r.codes for r in rs.presentation.symmetrized().relators}
            g = rs.presentation.num_generators
            expected = []
            for images in itertools.permutations(range(g)):
                for signs in itertools.product((0, 1), repeat=g):
                    table = bytearray(range(256))
                    for gen, (image, sign) in enumerate(zip(images, signs)):
                        table[2 * gen], table[2 * gen + 1] = 2 * image + sign, 2 * image + (sign ^ 1)
                    if {r.translate(table) for r in closure} == closure:
                        expected.append(bytes(table))
            assert sorted(rs.symmetries) == sorted(expected)
            assert len(set(rs.symmetries)) == len(rs.symmetries)

    @pytest.mark.parametrize("p, cap", [(LATTICE, 8), (Z3, 10), (BS12, 8), (ASYMMETRIC, 7)],
                             ids=["zxz", "z3", "bs12", "asymmetric"])
    def test_quotient_costs_equal_a_plain_sweep(self, p, cap):
        rs = RewriteSystem(p)
        plain = plain_sweep(rs, cap)
        sweep = rs.explore(cap)
        assert sweep.complete
        assert len(sweep.costs) < len(plain)
        assert all(rs.canonical(rep) == rep for rep in sweep.costs)
        assert expand_orbits(rs, sweep) == plain
        assert all(sweep.cost(codes) == cost for codes, cost in plain.items())

    def test_budget_caps_the_orbits_held(self):
        rs = RewriteSystem(LATTICE)
        reachable = len(rs.explore(8).costs)
        for k in (1, 2, 5, 50, reachable - 1, reachable, reachable + 1):
            sweep = rs.explore(8, k)
            assert len(sweep.costs) <= k
            assert sweep.complete is (k >= reachable)

    def test_large_groups_fall_back_to_inversion(self):
        start = time.perf_counter()
        rs = RewriteSystem(Presentation(8, []))  # 2·2^8·8! symmetries
        sweep = rs.explore(6)
        assert time.perf_counter() - start < 1.0
        assert len(symmetry_maps(rs)) == 2
        assert sweep.complete and sweep.cost(w("abcCBA", 8).codes) == 0


HEISENBERG = Presentation(3, [parse_word(t, 3) for t in ("abABC", "acAC", "bcBC")])
# the same group with its central generator first: a's letters must leave the
# projection before b and c are renumbered onto its codes
HEISENBERG_A = Presentation(3, [parse_word(t, 3) for t in ("bcBCA", "baBA", "caCA")])
A4_A6 = Presentation(1, [parse_word("aaaa", 1), parse_word("aaaaaa", 1)])


class TestAreaLowerBound:
    """:func:`~loopfold.bounds.area_lower_bound`, read off a presentation's
    relators without a rewrite system; the system's own bound delegates to
    it."""

    @pytest.mark.parametrize("make, cap, orbits", [
        (lambda: BS12, 8, 792),
        (lambda: HEISENBERG, 6, 463),
        (lambda: CONJUGATE, 8, 22_016),
        (lambda: A4_A6, 6, 29),
        (lambda: compress(LATTICE).combined, 6, 42),
    ], ids=["bs12", "heisenberg", "conjugate", "a4-a6", "fused-lattice"])
    def test_at_most_the_cost_of_every_reached_orbit(self, make, cap, orbits):
        # a sweep's cost is that of a real derivation, so no proved bound exceeds it
        p = make()
        bound = area_lower_bound(p)
        sweep = RewriteSystem(p).explore(cap)
        assert sweep.complete and len(sweep.costs) == orbits
        assert all(bound(codes) <= cost for codes, cost in sweep.costs.items())

    @pytest.mark.parametrize("p", [HEISENBERG, HEISENBERG_A], ids=["central-c", "central-a"])
    def test_meets_the_heisenberg_plane_areas(self, p):
        # the central generator's exponent sum is not 0 on the commutator
        # relator, so only the plane of the other two winds; the bound of 1
        # on words that are not freely trivial meets 124 more orbits
        bound = area_lower_bound(p)
        costs = RewriteSystem(p).explore(6).costs
        assert len(costs) == 463
        assert sum(bound(codes) == cost for codes, cost in costs.items()) == 431

    def test_a_word_that_is_not_freely_trivial_needs_a_step(self):
        # acAC has c-sum 0 and ab-winding 0, so only the rule that free moves
        # keep the free-group element bounds it: its area 1 is Exact from the
        # cut cap-6 sweep alone, which a cut cap-8 sweep could not confirm
        bound = area_lower_bound(HEISENBERG)
        assert bound(w("acCA", 3).codes) == 0
        assert bound(w("acAC", 3).codes) == 1
        rs = RewriteSystem(HEISENBERG)
        assert not rs.explore(6, 50).complete and not rs.explore(8, 50).complete
        result = min_isoperimetric(w("acAC", 3), rs, SearchBudget(6, 50))
        assert (result.value, result.status) == (1, OracleStatus.EXACT)

    @pytest.mark.parametrize("p, cap", [
        (Z2, 8), (Z3, 8), (LATTICE, 8), (BS12, 8), (HEISENBERG, 6),
    ], ids=["z2", "z3", "zxz", "bs12", "heisenberg"])
    def test_is_the_rewrite_systems_bound(self, p, cap):
        # every orbit a sweep reaches, and every image of it
        rs = RewriteSystem(p)
        bound = area_lower_bound(p)
        words = [image for key in rs.explore(cap).costs for image in rs.orbit(key)]
        assert [bound(u) for u in words] == [rs.area_lower_bound(u) for u in words]


class TestDeterminism:
    def test_fresh_systems_explore_identically(self):
        a = RewriteSystem(LATTICE).explore(6)
        b = RewriteSystem(LATTICE).explore(6)
        assert a.costs == b.costs
        assert list(a.costs) == list(b.costs)

    @pytest.mark.parametrize("max_states, orbits, cost_sum, digest", [
        (50, 50, 27, "2997e84b5683d1bd"),
        (300, 300, 108, "4f52db252631c9fc"),
    ])
    def test_cut_sweeps_keep_their_order(self, max_states, orbits, cost_sum, digest):
        # three generators and relators of odd and even length: the
        # successor order decides which orbits a cut sweep holds (a full
        # sweep holds 463) and the order of its keys
        sweep = RewriteSystem(HEISENBERG).explore(6, max_states)
        assert sweep.complete is False
        assert (len(sweep.costs), sum(sweep.costs.values())) == (orbits, cost_sum)
        assert _digest((k, str(c).encode()) for k, c in sweep.costs.items()) == digest


def expand_orbits(rs, sweep):
    """Every word of the sweep's orbits with its representative's cost."""
    costs = {}
    for rep, cost in sweep.costs.items():
        for m in symmetry_maps(rs):
            costs[m(rep)] = cost
    return costs


def symmetry_maps(rs):
    """The symmetry group of ``rs`` as functions on word codes: each letter
    map, and each letter map after inversion."""
    maps = [lambda codes, t=t: codes.translate(t) for t in rs.symmetries]
    return maps + [lambda codes, m=m: m(codes[::-1].translate(INVERSE)) for m in maps]


INVERSE = bytes(c ^ 1 for c in range(256))


def plain_sweep(rs, cap):
    """A 0-1 BFS from the empty word over every word, no quotient."""
    successors = rs._successors(cap)
    costs = {b"": 0}
    dq = deque([(0, b"")])
    while dq:
        cost, codes = dq.popleft()
        if costs[codes] != cost:
            continue
        for dcost, nxt in successors(codes):
            if nxt not in costs or cost + dcost < costs[nxt]:
                costs[nxt] = cost + dcost
                (dq.append if dcost else dq.appendleft)((cost + dcost, nxt))
    return costs


def _digest(pairs):
    h = hashlib.sha256()
    for a, b in pairs:
        h.update(a + b"|" + b + b";")
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def fused_lattice():
    return RewriteSystem(compress(LATTICE).combined)


class TestFusedLattice:
    """Sweeps of the fused lattice (3,200 relators up to length 16).  A
    complete sweep, its orbits expanded, must give every word the cost the
    unquotiented sweep gave it: digests of the sorted (word, cost) pairs
    pin those costs.  The successor order decides which orbits a budget-cut
    sweep holds and the order of its keys, so its counts, cost sum and
    key-order digest are pinned."""

    @pytest.mark.parametrize("cap, states, cost_sum, digest", [
        (6, 441, 176, "32b24f4bd23b5621"),
        (8, 5341, 3016, "dd172c3a72f1222d"),
    ])
    def test_full_sweeps_keep_their_costs(self, fused_lattice, cap, states, cost_sum, digest):
        sweep = fused_lattice.explore(cap)
        assert sweep.complete
        costs = expand_orbits(fused_lattice, sweep)
        assert (len(costs), sum(costs.values())) == (states, cost_sum)
        assert _digest((k, str(c).encode()) for k, c in sorted(costs.items())) == digest

    @pytest.mark.parametrize("cap, max_states, orbits, cost_sum, digest", [
        (6, 20, 20, 8, "c89c57f05935f139"),
        (8, 300, 300, 171, "bc3f2a9d1229fced"),
    ])
    def test_cut_sweeps_keep_their_order(self, fused_lattice, cap, max_states, orbits,
                                         cost_sum, digest):
        sweep = fused_lattice.explore(cap, max_states)
        assert sweep.complete is False
        assert (len(sweep.costs), sum(sweep.costs.values())) == (orbits, cost_sum)
        assert _digest((k, str(c).encode()) for k, c in sweep.costs.items()) == digest

    def test_relator_rules_in_order(self, fused_lattice):
        rules = fused_lattice.relator_rules
        assert len(rules) == 168_880
        assert all(r.from_relators for r in rules)
        keys = [(len(r.lhs), r.lhs.codes, len(r.rhs), r.rhs.codes) for r in rules]
        assert all(a < b for a, b in zip(keys, keys[1:]))  # sorted, no repeats
        assert _digest((r.lhs.codes, r.rhs.codes) for r in rules) == "99779208c01989b6"

    def test_fused_lattice_sweeps_index_only_what_they_use(self):
        # the sweeps of compress --verify on ℤ² at its default budget; with
        # all 168,880 rules indexed the peak is 33 MiB, with the 4,872 that
        # fit under cap 6 it is 5.7 MiB
        combined = compress(LATTICE).combined
        tracemalloc.start()
        try:
            rs = RewriteSystem(combined)
            rs.explore(4)
            rs.explore(6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20, peak


KLEIN = Presentation(2, [parse_word("abAb", 2)])
S3 = Presentation(2, [parse_word(t, 2) for t in ("aa", "bbb", "abab")])
Z6 = Presentation(2, [parse_word(t, 2) for t in ("aa", "bbb", "abAB")])
FUSED_SAMPLES = [Z2, Z3, LATTICE, COLLAPSE, CONJUGATE, A4_A6, KLEIN, S3, Z6,
                 Presentation(2, [parse_word("a", 2)]), Presentation(2, [parse_word("aaB", 2)])]
FUSED_IDS = ["z2", "z3", "zxz", "collapse", "conjugate", "a4-a6", "klein", "s3", "z6", "a", "aaB"]


class TestFusedSystem:
    """``RewriteSystem.fused`` reads the combined system's symmetries and
    area bound off the base system; the searched ones are the reference."""

    @pytest.mark.parametrize("p", FUSED_SAMPLES, ids=FUSED_IDS)
    def test_symmetries_and_bound_equal_the_searched_ones(self, p):
        c = compress(p)
        fused = RewriteSystem.fused(RewriteSystem(p), c.combined, c.m)
        searched = RewriteSystem(c.combined)
        assert fused.presentation == c.combined
        assert sorted(fused.symmetries) == sorted(searched.symmetries)
        words = [*(u.codes for u in words_up_to(p.alphabet_size, 6)),
                 *(r.codes for r in c.combined.relators)]
        assert [fused.area_lower_bound(u) for u in words] == [searched.area_lower_bound(u) for u in words]

    @pytest.mark.parametrize("p", FUSED_SAMPLES, ids=FUSED_IDS)
    def test_bound_is_the_base_bound_over_m(self, monkeypatch, p):
        # ⌈base bound / m⌉, with the bound read off the base relators alone
        read = []
        monkeypatch.setattr(rewrite, "area_lower_bound",
                            lambda presentation: read.append(presentation) or area_lower_bound(presentation))
        c = compress(p)
        fused = RewriteSystem.fused(RewriteSystem(p), c.combined, c.m)
        base = area_lower_bound(p)
        words = [*(u.codes for u in words_up_to(p.alphabet_size, 6)),
                 *(r.codes for r in c.combined.relators)]
        assert [fused.area_lower_bound(u) for u in words] == [-(-base(u) // c.m) for u in words]
        assert read == [p]

    @pytest.mark.parametrize("p", FUSED_SAMPLES, ids=FUSED_IDS)
    def test_each_derived_map_sends_the_combined_closure_onto_itself(self, p):
        c = compress(p)
        fused = RewriteSystem.fused(RewriteSystem(p), c.combined, c.m)
        closure = set(symmetric_closure(c.combined.relators))
        for m in symmetry_maps(fused):
            assert {m(r) for r in closure} == closure

    @pytest.mark.parametrize("p, not_cyclically_reduced", [
        (Z2, 0), (Z3, 0), (LATTICE, 784), (CONJUGATE, 200), (BS12, 19_168),
    ], ids=["z2", "z3", "zxz", "conjugate", "bs12"])
    def test_capped_closure_is_the_full_closure_cut(self, p, not_cyclically_reduced):
        # a sweep closes only the words of length ≤ 2·cap; the products
        # x·u·x^-1 among the fused ones have reduced rotations shorter than
        # themselves, down to the rotations of u
        c = compress(p)
        relators = c.combined.relators
        assert sum(r.codes[0] == r.codes[-1] ^ 1 for r in c.fused) == not_cyclically_reduced
        full = symmetric_closure(relators)
        for bound in range(max(map(len, relators)) + 1):
            assert symmetric_closure(relators, bound) == [r for r in full if len(r) <= bound], bound


ORBIT_SAMPLES = [*((p, True) for p in FUSED_SAMPLES),
                 *((p, False) for p in (BS12, HEISENBERG, Presentation(2, [parse_word("abaBAB", 2)]),
                                        Presentation(2, [])))]
ORBIT_IDS = [*FUSED_IDS, "bs12", "heisenberg", "abaBAB", "free2"]


class TestOrbits:
    """:meth:`RewriteSystem.orbit` lists a word's images.  ``measure_profile``
    reads P and f once per orbit, and ``fused`` derives its bound, on the
    fact that the area bound is constant on the orbit of a trivial word."""

    @pytest.mark.parametrize("p, fuse", ORBIT_SAMPLES, ids=ORBIT_IDS)
    def test_bound_and_least_image_are_constant_on_orbits(self, p, fuse):
        base = RewriteSystem(p)
        systems = [base]
        if fuse:
            c = compress(p)
            systems.append(RewriteSystem.fused(base, c.combined, c.m))
        n = 6 if p.num_generators < 3 else 5
        for u in trivial_words(base, SearchBudget(6), n):
            for rs in systems:
                images = rs.orbit(u.codes)
                assert u.codes in images
                assert len({rs.area_lower_bound(v) for v in images}) == 1, u
                assert len(set(map(rs.canonical, images))) == 1, u


def count_symmetry_searches(monkeypatch):
    calls = []
    search = rewrite._letter_maps
    monkeypatch.setattr(rewrite, "_letter_maps", lambda *args: calls.append(args) or search(*args))
    return calls


class TestSymmetrySearch:
    """The symmetry group is searched on its first read, once per system,
    and a fused system takes its base's without a search."""

    @pytest.mark.parametrize("p", [Z3, LATTICE, BS12], ids=["z3", "zxz", "bs12"])
    def test_a_base_system_searches_once(self, monkeypatch, p):
        calls = count_symmetry_searches(monkeypatch)
        rs = RewriteSystem(p)
        assert calls == []
        rs.explore(4)
        rs.explore(6)
        rs.canonical(p.relators[0].codes)
        trivial_words(rs, SearchBudget(4), 5)
        assert len(calls) == 1

    @pytest.mark.parametrize("p", [Z3, LATTICE, BS12], ids=["z3", "zxz", "bs12"])
    def test_a_fused_system_never_searches(self, monkeypatch, p):
        base = RewriteSystem(p)
        assert base.symmetries  # searched before the count starts
        calls = count_symmetry_searches(monkeypatch)
        c = compress(p)
        fused = RewriteSystem.fused(base, c.combined, c.m)
        fused.explore(4)
        fused.explore(6, 50)
        trivial_words(fused, SearchBudget(4), 5)
        assert calls == []
        assert fused.symmetries is base.symmetries


class TestTrivialWords:
    """The trivial words read off the sweeps are the words
    :func:`is_trivial` accepts one by one, cut sweeps and n past the length
    cap included."""

    @pytest.mark.parametrize("p, n", [(Z2, 7), (Z3, 7), (A4_A6, 7), (TRIVIAL, 6), (LATTICE, 5),
                                      (COLLAPSE, 5), (CONJUGATE, 5), (BS12, 5), (ASYMMETRIC, 5)],
                             ids=["z2", "z3", "a4-a6", "trivial", "zxz", "collapse", "conjugate",
                                  "bs12", "asymmetric"])
    def test_equal_deciding_every_word(self, p, n):
        rs = RewriteSystem(p)
        words = list(words_up_to(p.alphabet_size, n))
        for cap in range(1, 6):
            for max_states in (3, 50, 2_000_000):
                budget = SearchBudget(cap, max_states)
                expected = [u for u in words if is_trivial(u, rs, budget)[0]]
                assert trivial_words(rs, budget, n) == expected, (cap, max_states)
                assert trivial_words(rs, budget, cap - 1) == [u for u in expected if len(u) < cap]

    def test_none_below_length_zero(self):
        assert trivial_words(RewriteSystem(Z2), SearchBudget(), -1) == []


class TestSweepIndependence:
    """A sweep does not depend on the caps swept before it: a system swept
    in any cap order equals fresh systems key for key.  Each order goes
    down and up again, from a first cap below the longest relator (16, 3,
    5 and 5) to, for the last three, caps above it."""

    @pytest.mark.parametrize("make, caps", [
        (lambda: compress(LATTICE).combined, (6, 4, 8)),
        (lambda: Z3, (2, 1, 10, 8)),
        (lambda: BS12, (4, 2, 10, 8)),
        (lambda: ASYMMETRIC, (4, 2, 8, 6)),
    ], ids=["fused-zxz", "z3", "bs12", "asymmetric"])
    def test_sweeps_in_any_cap_order_match_fresh_systems(self, make, caps):
        p = make()
        rs = RewriteSystem(p)
        for cap in caps:
            swept = rs.explore(cap)
            fresh = RewriteSystem(p).explore(cap)
            assert list(swept.costs.items()) == list(fresh.costs.items()), cap
            assert swept.complete is fresh.complete


FREE2 = Presentation(2, ())


class TestTightDerivations:
    """A bound-tight derivation proves a key's area equal to its bound and
    its filling length equal to its length.  Each one returned is replayed
    rule by rule, and its values are checked against complete sweeps."""

    @pytest.mark.parametrize("p, n, keys, proved", [
        (Z2, 8, 101, 101),
        (Z3, 8, 56, 56),
        (LATTICE, 8, 396, 396),
        (FREE2, 8, 197, 197),
        (BS12, 6, 104, 104),
        (HEISENBERG, 6, 463, 431),
    ], ids=["z2", "z3", "zxz", "free2", "bs12", "heisenberg"])
    def test_each_derivation_replays_and_meets_the_sweeps(self, p, n, keys, proved):
        # the keys are those of every trivial word of length ≤ n, unreduced
        # ones included.  On Heisenberg the 431 proved are as many as the
        # orbits whose cap-6 cost meets the bound (TestAreaLowerBound)
        rs = RewriteSystem(p)
        bound = rs.area_lower_bound
        found = rewrite.tight_derivations(rs, list(rs.explore(n).costs), n)
        assert (len(rs.explore(n).costs), len(found)) == (keys, proved)
        for key, path in found.items():
            assert path[0] == key and path[-1] == b"", key
            assert max(map(len, path)) == len(key), key
            relator_steps = 0
            for u, v in zip(path, path[1:]):
                kinds = {rule.from_relators
                         for rule, _pos, res in rs.apply_rule_positions(Word(u)) if res.codes == v}
                assert len(kinds) == 1, (key, u, v)  # one rule application, of one kind
                if kinds == {True}:
                    relator_steps += 1
                    assert bound(v) == bound(u) - 1, (key, u, v)
                else:
                    assert bound(v) == bound(u) and len(v) < len(u), (key, u, v)
            assert relator_steps == bound(key), key
            # the uncut sweeps: the area at cap n, the filling length the
            # first cap that holds the key
            assert rs.explore(n).cost(key) == bound(key), key
            first = next(cap for cap in range(len(key), n + 1) if rs.explore(cap).cost(key) is not None)
            assert first == len(key), key

    def test_every_reduced_sample_key_is_certified(self):
        for p in (Z2, Z3, LATTICE, FREE2):
            rs = RewriteSystem(p)
            keys = [key for key in rs.explore(8).costs if Word(key).is_reduced()]
            assert set(rewrite.tight_derivations(rs, keys, 8)) == set(keys), p

    def test_a_bound_short_of_the_area_is_not_certified(self):
        # on ⟨a | a⁴, a⁶⟩, aa has bound ⌈2/6⌉ = 1 and area 2; aaaa is one relator
        rs = RewriteSystem(A4_A6)
        found = rewrite.tight_derivations(rs, [w("aa", 1).codes, w("aaaa", 1).codes], 8)
        assert list(found) == [w("aaaa", 1).codes]

    def test_keys_longer_than_the_cap_are_skipped(self):
        rs = RewriteSystem(Z2)
        assert list(rewrite.tight_derivations(rs, [b"", w("aa", 1).codes, w("aaaa", 1).codes], 3)) == [
            b"", w("aa", 1).codes]

    def test_the_visit_limit_gives_up(self, monkeypatch):
        # with room for the key alone, only the empty word, which needs no
        # step, is certified
        monkeypatch.setattr(rewrite, "_CERTIFICATE_VISITS", 1)
        rs = RewriteSystem(LATTICE)
        assert list(rewrite.tight_derivations(rs, [b"", w("abAB").codes], 8)) == [b""]
