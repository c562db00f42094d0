"""Profile measurements and inequality checks."""

import functools
import itertools
import sys

import pytest

from loopfold.automata import LabeledGraph, build_loop_complex, canonical_form, fold, trace
from loopfold.bounds import (
    BudgetFailure,
    OracleResult,
    OracleStatus,
    SearchBudget,
    area_lower_bound,
    prefix_maxima,
)
from loopfold.core import EMPTY, Presentation, is_reduced, parse_presentation, parse_word, words_up_to
from loopfold.fillings import (
    FillingProfile,
    ProfileRow,
    ReferenceOracle,
    check_inequalities,
    double_exp_bound,
    double_exp_constants,
    within_double_exp,
    measure_isodiametric,
    measure_profile,
    profile_to_csv,
)
from loopfold import _kernels, rewrite, toddcoxeter
from loopfold.grammar import double_exp_experiment
from loopfold.rewrite import RewriteSystem, filling_length, min_isoperimetric, tight_derivations

Z2 = parse_presentation("gens: a\nrels: aa")
Z3 = parse_presentation("gens: a\nrels: aaa")
LATTICE = parse_presentation("gens: a b\nrels: abAB")
FREE2 = Presentation(2, ())
LATTICE3 = parse_presentation("gens: a b c\nrels: abAB acAC bcBC")
A4_A6 = parse_presentation("gens: a\nrels: aaaa aaaaaa")  # ℤ/2 again

BUDGET = SearchBudget(max_word_length=6)


def w(text: str, gens: int = 2) -> bytes:
    return parse_word(text, gens)


@functools.lru_cache(maxsize=None)
def z2_profile() -> FillingProfile:
    return measure_profile(RewriteSystem(Z2), 4, ReferenceOracle.cyclic(2), BUDGET)


@functools.lru_cache(maxsize=None)
def z3_profile() -> FillingProfile:
    return measure_profile(RewriteSystem(Z3), 6, ReferenceOracle.cyclic(3), BUDGET)


@functools.lru_cache(maxsize=None)
def free_profile() -> FillingProfile:
    return measure_profile(RewriteSystem(FREE2), 4, ReferenceOracle.free(2), BUDGET)


@functools.lru_cache(maxsize=None)
def lattice_profile() -> FillingProfile:
    return measure_profile(RewriteSystem(LATTICE), 4, ReferenceOracle.free_abelian(2), BUDGET)


# -- reference oracles --------------------------------------------------------


def test_cyclic_oracle_matches_exponent_count():
    for k in (2, 3, 5):
        oracle = ReferenceOracle.cyclic(k)
        assert oracle.num_generators == 1
        for word in words_up_to(2, 5):
            exponent = sum(1 if c == 0 else -1 for c in word)
            assert oracle.decide(word) == (exponent % k == 0), (k, word)


def test_free_abelian_oracle():
    oracle = ReferenceOracle.free_abelian(2)
    assert oracle.num_generators == 2
    assert oracle.decide(w("abAB"))
    assert oracle.decide(w("aabAAB"))
    assert oracle.decide(w("aA"))
    assert not oracle.decide(w("ab"))
    assert not oracle.decide(w("abab"))
    assert not oracle.decide(w("aabA"))


def test_free_oracle():
    oracle = ReferenceOracle.free(2)
    assert oracle.decide(EMPTY)
    assert oracle.decide(w("abBA"))
    assert oracle.decide(w("aAbB"))
    assert not oracle.decide(w("abAB"))
    assert not oracle.decide(w("a"))


def test_rewrite_oracle_agrees_with_cyclic():
    by_search = ReferenceOracle.rewrite_search(RewriteSystem(Z3), BUDGET)
    closed_form = ReferenceOracle.cyclic(3)
    assert by_search.num_generators == 1
    for word in words_up_to(2, 5):
        assert by_search.decide(word) == closed_form.decide(word), word


def test_a_cut_search_keeps_its_status():
    # 3 orbits cut ℤ/3's cap-6 sweep after "", aA and aaa: aaa is trivial,
    # and the search can call neither aaaaaa, which the sweep missed, nor
    # aa non-trivial
    oracle = ReferenceOracle.rewrite_search(RewriteSystem(Z3), SearchBudget(6, 3))
    assert oracle.decide(w("aaa", 1)) is True
    for text in ("aaaaaa", "aa"):
        with pytest.raises(BudgetFailure, match=f"^triviality of {text} is BudgetExceeded; "):
            oracle.decide(w(text, 1))


@pytest.mark.parametrize("oracle, n", [
    (ReferenceOracle.cyclic(1), 4), (ReferenceOracle.cyclic(2), 6), (ReferenceOracle.cyclic(3), 7),
    (ReferenceOracle.free_abelian(1), 6), (ReferenceOracle.free_abelian(2), 6),
    (ReferenceOracle.free(1), 6), (ReferenceOracle.free(2), 6),
    (ReferenceOracle.rewrite_search(RewriteSystem(Z3), BUDGET), 5),
], ids=["cyclic-4", "cyclic-6", "cyclic-7", "free-abelian-6_0", "free-abelian-6_1",
        "free-6_0", "free-6_1", "rewrite-5"])  # family-n; _0 and _1 are ranks 1 and 2
def test_trivial_words_are_the_decided_words_in_order(oracle, n):
    words = words_up_to(2 * oracle.num_generators, n)
    assert oracle.trivial_words(n) == [u for u in words if oracle.decide(u)]


@pytest.mark.parametrize("oracle", [
    ReferenceOracle.cyclic(1), ReferenceOracle.cyclic(2), ReferenceOracle.cyclic(3),
    ReferenceOracle.free_abelian(1), ReferenceOracle.free_abelian(2), ReferenceOracle.free_abelian(3),
    ReferenceOracle.free(1), ReferenceOracle.free(2),
    ReferenceOracle.rewrite_search(RewriteSystem(Z3), SearchBudget(4)),
    ReferenceOracle.rewrite_search(RewriteSystem(LATTICE), SearchBudget(4, 30)),
    ReferenceOracle.rewrite_search(RewriteSystem(A4_A6), SearchBudget(2, 5)),
], ids=["cyclic-1", "cyclic-2", "cyclic-3", "free-abelian-1", "free-abelian-2", "free-abelian-3",
        "free-1", "free-2", "rewrite-z3", "rewrite-zxz-cut", "rewrite-a4-a6-cut"])
def test_reduced_listing_is_the_reduced_part_of_the_list(oracle):
    for n in (-1, 0, 1, 4, 6):
        expected = [u for u in oracle.trivial_words(n) if is_reduced(u)]
        assert oracle.reduced_trivial_words(n) == expected, n


def test_a_closed_form_list_is_held_by_its_reader_alone():
    # profile lays the reduced list out by length and drops it; a walk that
    # kept it in a reference cycle would hold it until a collection
    for oracle in (ReferenceOracle.cyclic(3), ReferenceOracle.free_abelian(2), ReferenceOracle.free(2)):
        for listing in (oracle.trivial_words, oracle.reduced_trivial_words):
            words = listing(4)
            assert sys.getrefcount(words) == 2, listing  # the name and the call's argument


def test_oracle_validation():
    with pytest.raises(ValueError):
        ReferenceOracle.cyclic(0)
    with pytest.raises(ValueError):
        ReferenceOracle.free_abelian(0)
    with pytest.raises(ValueError):
        ReferenceOracle.free(-1)


INFINITE = pytest.mark.parametrize("oracle", [
    ReferenceOracle.free_abelian(2), ReferenceOracle.free(2)], ids=["lattice", "free2"])


@INFINITE
def test_no_trivial_words_below_length_zero(oracle):
    # n = -3 asks for a ball of radius -1, which an infinite group never closes
    assert [oracle.trivial_words(n) for n in (-1, -2, -3, -8)] == [[], [], [], []]


@INFINITE
def test_cayley_ball_refuses_a_negative_radius(oracle):
    for radius in (-1, -3):
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            oracle.cayley_ball(radius)


def test_cayley_ball_cyclic():
    ball = ReferenceOracle.cyclic(3).cayley_ball(1)
    assert canonical_form(ball) == canonical_form(build_loop_complex(Z3, 0))
    # Radius past the group's diameter saturates at the full graph.
    assert ReferenceOracle.cyclic(2).cayley_ball(5).num_vertices == 2
    tiny = ReferenceOracle.cyclic(1).cayley_ball(3)
    assert tiny.num_vertices == 1
    assert tiny.edges() == [(0, 0, 0)]


def test_cayley_ball_free_abelian_radius_one():
    ball = ReferenceOracle.free_abelian(2).cayley_ball(1)
    assert ball.num_vertices == 5
    expected = LabeledGraph(2, num_vertices=5)
    expected.add_edge(0, 0, 1)  # east
    expected.add_edge(2, 0, 0)  # from the west neighbour
    expected.add_edge(0, 1, 3)  # north
    expected.add_edge(4, 1, 0)  # from the south neighbour
    assert canonical_form(ball) == canonical_form(fold(expected)[0])


def test_cayley_ball_free_tree():
    ball = ReferenceOracle.free(2).cayley_ball(2)
    assert ball.num_vertices == 1 + 4 + 12
    assert len(ball.edges()) == 16
    point = ReferenceOracle.free(2).cayley_ball(0)
    assert point.num_vertices == 1
    assert point.edges() == []


def test_cayley_ball_unavailable_for_rewrite_oracle():
    oracle = ReferenceOracle.rewrite_search(RewriteSystem(Z2), BUDGET)
    with pytest.raises(ValueError):
        oracle.cayley_ball(1)


def test_cayley_ball_deterministic():
    oracle = ReferenceOracle.free_abelian(2)
    first = oracle.cayley_ball(2)
    second = oracle.cayley_ball(2)
    assert first.edges() == second.edges()
    assert first.origin == second.origin


# -- isodiametric scan --------------------------------------------------------


def laid_out(p, n, words):
    """The layers both scans take: the reduced ``words`` of length ≤ n, by
    length, as a command lays them out once."""
    return _kernels.trivial_layers(words, n, p.alphabet_size)


def test_isodiametric_even_words():
    column = measure_isodiametric(Z2, laid_out(Z2, 4, ReferenceOracle.cyclic(2).trivial_words(4)))
    assert [(r.value, r.status) for r in column] == [(0, OracleStatus.EXACT)] * 5


def test_isodiametric_three_cycle():
    result = measure_isodiametric(Z3, laid_out(Z3, 3, ReferenceOracle.cyclic(3).trivial_words(3)))[3]
    assert (result.value, result.status) == (0, OracleStatus.EXACT)


def test_isodiametric_n_zero():
    for p, oracle in (
        (Z2, ReferenceOracle.cyclic(2)),
        (LATTICE, ReferenceOracle.free_abelian(2)),
        (FREE2, ReferenceOracle.free(2)),
    ):
        assert measure_isodiametric(p, laid_out(p, 0, oracle.trivial_words(0)))[0].value == 0


def test_isodiametric_lattice_values():
    layers = laid_out(LATTICE, 6, ReferenceOracle.free_abelian(2).trivial_words(6))
    column = measure_isodiametric(LATTICE, layers)
    assert [r.value for r in column] == [0, 0, 0, 0, 2, 2, 3]


def test_isodiametric_lattice_witnesses():
    # Radius 0 knows the relator cycle only from its own basepoint: the
    # relator and its inverse trace, proper rotations do not.
    g0 = build_loop_complex(LATTICE, 0)
    assert trace(g0, w("abAB")) == g0.origin
    assert trace(g0, w("baBA")) == g0.origin
    assert trace(g0, w("bABa")) != g0.origin
    # Radius 1 still misses rotations whose path leaves the five-cell patch.
    g1 = build_loop_complex(LATTICE, 1)
    assert trace(g1, w("bABa")) == g1.origin
    assert trace(g1, w("ABab")) != g1.origin
    assert trace(g1, w("aabAAB")) == g1.origin
    assert trace(g1, w("AABaab")) != g1.origin


def test_isodiametric_radius_cutoff():
    # ℤ/2's list holds aa, which no loop complex of ℤ/3 accepts: from n = 2
    # on, no radius j ≤ n decides
    column = measure_isodiametric(Z3, laid_out(Z3, 4, ReferenceOracle.cyclic(2).trivial_words(4)))
    assert column == [(0, OracleStatus.EXACT)] * 2 + [(None, OracleStatus.LOWER_BOUND_ONLY)] * 3


# -- profiles -----------------------------------------------------------------


def expand(profile: FillingProfile, field: str) -> list[int | None]:
    return [getattr(row, field).value for row in profile.rows]


def statuses(profile: FillingProfile, field: str) -> set[OracleStatus]:
    return {getattr(row, field).status for row in profile.rows}


def test_profile_even_cycle_values():
    profile = z2_profile()
    assert expand(profile, "area") == [0, 0, 1, 1, 2]
    assert expand(profile, "length") == [0, 0, 2, 2, 4]
    assert expand(profile, "diameter") == [0, 0, 0, 0, 0]
    assert expand(profile, "tc_radius") == [1, 1, 1, 1, 1]
    for field in ("area", "length", "diameter", "tc_radius"):
        assert statuses(profile, field) == {OracleStatus.EXACT}


def test_profile_three_cycle_values():
    profile = z3_profile()
    assert expand(profile, "area") == [0, 0, 0, 1, 1, 1, 2]
    assert expand(profile, "length") == [0, 0, 2, 3, 4, 5, 6]
    assert expand(profile, "diameter") == [0] * 7
    assert expand(profile, "tc_radius") == [1] * 7


def test_profile_free_group_all_zero():
    profile = free_profile()
    assert expand(profile, "area") == [0] * 5
    assert expand(profile, "diameter") == [0] * 5
    assert expand(profile, "tc_radius") == [0] * 5
    assert expand(profile, "length") == [0, 0, 2, 2, 4]


def test_profile_lattice_values():
    profile = lattice_profile()
    assert expand(profile, "area") == [0, 0, 0, 0, 1]
    assert expand(profile, "length") == [0, 0, 2, 2, 4]
    assert expand(profile, "diameter") == [0, 0, 0, 0, 2]
    rho = expand(profile, "tc_radius")
    # The first saturation round already covers a five-cell patch whose
    # farthest corner sits at distance 3.
    assert rho[:4] == [3, 3, 3, 3]
    assert rho[4] >= rho[3]
    assert statuses(profile, "tc_radius") == {OracleStatus.EXACT}


def test_profile_entries_nondecreasing():
    for profile in (z2_profile(), z3_profile(), free_profile(), lattice_profile()):
        for field in ("area", "length", "diameter", "tc_radius"):
            values = expand(profile, field)
            assert all(a <= b for a, b in zip(values, values[1:])), (field, values)


def test_profile_budget_propagates():
    tight = measure_profile(RewriteSystem(Z3), 6, ReferenceOracle.cyclic(3), SearchBudget(max_word_length=4))
    area6 = tight.rows[6].area
    assert (area6.value, area6.status) == (2, OracleStatus.LOWER_BOUND_ONLY)
    length6 = tight.rows[6].length
    assert length6.status is OracleStatus.LOWER_BOUND_ONLY
    assert length6.value == 4  # longest word the budget could certify
    # Small n are still exact under the tight budget.
    assert tight.rows[3].area == z3_profile().rows[3].area


# -- the reduced listing ------------------------------------------------------


def full_list_profile(system, n_max, oracle, budget):
    """The profile read off the oracle's full list: P and f over the orbits
    of every trivial word, unreduced ones included, and both scans over the
    list's reduced words.  The reference for :func:`measure_profile`."""
    trivial = oracle.trivial_words(n_max)
    orbits = list(dict.fromkeys(system.canonical(u) for u in trivial))
    area = prefix_maxima(orbits, n_max, lambda u: min_isoperimetric(u, system, budget))
    length = prefix_maxima(orbits, n_max, lambda u: filling_length(u, system, budget))
    layers = laid_out(system.presentation, n_max, [u for u in trivial if is_reduced(u)])
    diameter = measure_isodiametric(system.presentation, layers)
    tc = [OracleResult(None, OracleStatus.LOWER_BOUND_ONLY) if hit is None
          else OracleResult(hit[1], OracleStatus.EXACT)
          for hit in toddcoxeter.measure_tc_radius(system.presentation, layers)]
    rows = (ProfileRow(n, *cells) for n, cells in enumerate(zip(area, length, diameter, tc)))
    return FillingProfile(system.presentation, tuple(rows))


def test_each_measurement_lays_its_trivial_words_out_once(monkeypatch):
    # profile's four columns read one layering of the reduced list, and the
    # bound experiment's d(n) scan one of the full list
    laid, untouched = [], _kernels.trivial_layers
    monkeypatch.setattr(_kernels, "trivial_layers", lambda *args: laid.append(args[1:]) or untouched(*args))
    measure_profile(RewriteSystem(LATTICE), 6, ReferenceOracle.free_abelian(2), SearchBudget(max_word_length=4))
    assert laid == [(6, 4)]
    laid.clear()
    double_exp_experiment(Z3, 4, ReferenceOracle.cyclic(3), SearchBudget(max_word_length=4))
    assert laid == [(4, 2)]


@pytest.mark.parametrize("p, make_oracle, n_max", [
    (Z2, lambda system: ReferenceOracle.cyclic(2), 8),
    (Z3, lambda system: ReferenceOracle.cyclic(3), 8),
    (FREE2, lambda system: ReferenceOracle.free(2), 6),
    (LATTICE, lambda system: ReferenceOracle.free_abelian(2), 8),
    (Z3, lambda system: ReferenceOracle.rewrite_search(system, SearchBudget(6)), 6),
    (LATTICE, lambda system: ReferenceOracle.rewrite_search(system, SearchBudget(6)), 6),
], ids=["z2", "z3", "free2", "zxz", "z3-rewrite", "zxz-rewrite"])
@pytest.mark.parametrize("budget", [SearchBudget(8), SearchBudget(4), SearchBudget(8, 50),
                                    SearchBudget(5, 12)], ids=["uncut", "len-4", "states-50", "both"])
def test_profile_agrees_with_the_full_list(p, make_oracle, n_max, budget):
    # Byte-equal where no cap cuts a sweep.  Elsewhere the unreduced words
    # the full list adds can only make a cell worse: no status is better
    # than the reduced list's, and an Exact cell is the same
    system, reference_system = RewriteSystem(p), RewriteSystem(p)
    profile = measure_profile(system, n_max, make_oracle(system), budget)
    reference = full_list_profile(reference_system, n_max, make_oracle(reference_system), budget)
    cut = (n_max > budget.max_word_length
           or not all(sweep.complete for sweep in reference_system._sweeps.values()))
    if not cut:
        assert csv(profile) == csv(reference)
    ranks = list(OracleStatus)
    for row, old in zip(profile.rows, reference.rows):
        for cell, old_cell in zip(row[1:], old[1:]):
            assert ranks.index(cell.status) <= ranks.index(old_cell.status), (row, old)
            assert cell == old_cell or not old_cell.exact, (row, old)


def test_profile_reads_only_the_reduced_orbits(monkeypatch):
    # ℤ² at n = 8: 361 of the 5,341 trivial words are reduced, in 30 orbits
    oracle = ReferenceOracle.free_abelian(2)
    assert (len(oracle.trivial_words(8)), len(oracle.reduced_trivial_words(8))) == (5341, 361)
    calls, proved = [], []

    def tight(system, keys, cap):
        found = tight_derivations(system, keys, cap)
        proved.append((len(keys), len(found)))
        return found
    monkeypatch.setattr(rewrite, "tight_derivations", tight)
    monkeypatch.setattr(rewrite, "min_isoperimetric",
                        lambda *args: calls.append(args[0]) or min_isoperimetric(*args))
    measure_profile(RewriteSystem(LATTICE), 8, oracle, SearchBudget())
    # one certificate search over the 30 orbits proves them all
    assert proved == [(30, 30)]
    assert calls == []


@pytest.mark.parametrize("p, make_oracle, n_max, budget", [
    (Z2, lambda system: ReferenceOracle.cyclic(2), 8, SearchBudget()),
    (LATTICE, lambda system: ReferenceOracle.free_abelian(2), 8, SearchBudget()),
    (Z3, lambda system: ReferenceOracle.rewrite_search(system, SearchBudget(6)), 8, SearchBudget(6)),
    (A4_A6, lambda system: ReferenceOracle.cyclic(2), 6, SearchBudget(6)),
], ids=["z2", "zxz", "z3-rewrite", "a4-a6"])
def test_a_missed_certificate_takes_the_sweeps(monkeypatch, p, make_oracle, n_max, budget):
    # with room for the key alone, a search certifies the empty word only;
    # every other orbit takes the sweeps, and the profile is the same
    system = RewriteSystem(p)
    expected = csv(measure_profile(system, n_max, make_oracle(system), budget))
    monkeypatch.setattr(rewrite, "_CERTIFICATE_VISITS", 1)
    calls = []
    monkeypatch.setattr(rewrite, "filling_length",
                        lambda *args: calls.append(args[0]) or filling_length(*args))
    system = RewriteSystem(p)
    assert csv(measure_profile(system, n_max, make_oracle(system), budget)) == expected
    assert calls and EMPTY not in calls


@pytest.mark.parametrize("oracle_budget, cut", [
    (SearchBudget(6, 3), 1),  # the cap-6 sweep, which lists every length from 1 on
    (SearchBudget(6, 20), 7),  # the cap-7 sweep, which lists length 7
], ids=["cap-l", "past-l"])
def test_a_cut_list_exceeds_the_budget_from_its_first_listed_length(oracle_budget, cut):
    # the list may miss words of the lengths a cut sweep lists, so P and f
    # read BudgetExceeded from the first such length on, whatever the words
    # it holds prove
    system = RewriteSystem(Z3)
    oracle = ReferenceOracle.rewrite_search(system, oracle_budget)
    profile = measure_profile(system, 8, oracle, SearchBudget(8, oracle_budget.max_states))
    exceeded = [n for n, row in enumerate(profile.rows)
                if row.area.status is row.length.status is OracleStatus.BUDGET_EXCEEDED]
    assert exceeded == list(range(cut, 9))
    assert all(row.area.exact and row.length.exact for row in profile.rows[:cut])


# -- certified area -------------------------------------------------------------


def closed_form_bound(family: str, rank: int, p: Presentation, word: bytes) -> int:
    """The area lower bound proved for the closed-form group ``family`` of
    ``rank`` generators, kept as the reference for the one read off ``p``'s
    relators (:func:`~loopfold.bounds.area_lower_bound`): homological area
    for ℤ^r, exponent sum for ℤ/k, 0 for free groups, each over its largest
    value on a relator."""
    if family == "free":
        return 0

    def winding_area(codes: bytes) -> int:
        total = 0
        for i, j in itertools.combinations(range(rank), 2):
            x = y = 0
            crossings: dict[tuple[int, int], int] = {}
            for c in codes:
                if c >> 1 == i:
                    if c & 1:
                        x -= 1
                        crossings[x, y] = crossings.get((x, y), 0) - 1
                    else:
                        crossings[x, y] = crossings.get((x, y), 0) + 1
                        x += 1
                elif c >> 1 == j:
                    y += -1 if c & 1 else 1
            run = height = 0
            for (_, h), s in sorted(crossings.items()):
                total += abs(run) * (h - height)
                run += s
                height = h
        return total

    def exponent_sum(codes: bytes) -> int:
        return len(codes) - 2 * codes.count(1)

    functional = exponent_sum if family == "cyclic" else winding_area
    step = max((abs(functional(r)) for r in p.relators), default=0) or 1
    return -(-abs(functional(word)) // step)


def stop_rule(word: bytes, system: RewriteSystem, budget: SearchBudget) -> tuple[int | None, bool]:
    """The area at cap L + 2 and whether the caps L and L + 2 agree on it,
    with no lower bound: the rule every area rested on before the bound."""
    lo = system.explore(budget.max_word_length, budget.max_states)
    hi = system.explore(budget.max_word_length + 2, budget.max_states)
    value = hi.cost(word)
    return value, lo.complete and hi.complete and value is not None and lo.cost(word) == value


def test_area_lower_bound_values():
    lattice = area_lower_bound(LATTICE)
    assert [lattice(w(t)) for t in ("", "aA", "abAB", "aabbAABB", "abABabAB", "abABbaBA")] == [
        0, 0, 1, 4, 2, 0]
    lattice3 = area_lower_bound(LATTICE3)
    # the hexagon abcABC projects to one unit square in each of the three planes
    assert [lattice3(w(t, 3)) for t in ("acAC", "abcABC", "aabcAABC")] == [1, 3, 5]
    cyclic = area_lower_bound(Z3)
    assert [cyclic(w(t, 1)) for t in ("aaaaaa", "aaaAAA", "AAA", "aaaa")] == [2, 0, 1, 2]
    # no relator to divide by: only the freely trivial words fill
    assert area_lower_bound(FREE2)(w("abBA")) == 0
    # the ab-plane of the Heisenberg group: c's exponent sum is not 0 on abABC
    heisenberg = area_lower_bound(parse_presentation("gens: a b c\nrels: abABC acAC bcBC"))
    assert [heisenberg(w(t, 3)) for t in ("abABC", "aabbAABB", "cc")] == [
        1, 4, 2]


CLOSED_FORMS = pytest.mark.parametrize("p, oracle, group, n", [
    (LATTICE, ReferenceOracle.free_abelian(2), ("free-abelian", 2), 8),
    (Z2, ReferenceOracle.cyclic(2), ("cyclic", 1), 8),
    (Z3, ReferenceOracle.cyclic(3), ("cyclic", 1), 8),
    (LATTICE3, ReferenceOracle.free_abelian(3), ("free-abelian", 3), 6),
    (A4_A6, ReferenceOracle.cyclic(2), ("cyclic", 1), 8),
    (FREE2, ReferenceOracle.free(2), ("free", 2), 8),
], ids=["lattice", "z2", "z3", "lattice3", "a4-a6", "free2"])


@CLOSED_FORMS
def test_area_lower_bound_equals_the_closed_form_one(p, oracle, group, n):
    bound = area_lower_bound(p)
    for word in oracle.trivial_words(n):
        assert bound(word) == closed_form_bound(*group, p, word), word


@CLOSED_FORMS
def test_area_lower_bound_is_sound(p, oracle, group, n):
    # on every trivial word, the bound is at most the stop rule's area, and
    # where the stop rule says Exact the certified search gives the same result
    system, budget = RewriteSystem(p), SearchBudget(max_word_length=n)
    for word in oracle.trivial_words(n):
        value, exact = stop_rule(word, system, budget)
        assert value is not None and system.area_lower_bound(word) <= value, word
        if exact:
            assert min_isoperimetric(word, system, budget) == (value, OracleStatus.EXACT), word


def test_a_bound_short_of_the_area_falls_back_to_the_stop_rule():
    # aa = a^6 a^-4 takes two relator steps, the bound only ⌈2/6⌉ = 1
    system, budget = RewriteSystem(A4_A6), SearchBudget(max_word_length=6)
    word = w("aa", 1)
    assert system.area_lower_bound(word) == 1
    assert min_isoperimetric(word, system, budget) == (2, OracleStatus.EXACT)
    assert (8, budget.max_states) in system._sweeps


@pytest.mark.parametrize("run", [
    lambda system, oracle: measure_profile(system, 2, oracle, BUDGET),
    lambda system, oracle: double_exp_experiment(system.presentation, 2, oracle, BUDGET),
], ids=["profile", "experiment"])
@pytest.mark.parametrize("oracle, message", [
    (ReferenceOracle.cyclic(4), "does not kill every relator"),
    (ReferenceOracle.free_abelian(2), "different generator counts"),
    (ReferenceOracle.rewrite_search(RewriteSystem(Z3), BUDGET), "does not kill every relator"),
], ids=["keeps-a-relator", "two-generators", "searches-another-presentation"])
def test_an_oracle_that_does_not_fit_the_presentation_is_refused(run, oracle, message):
    # ℤ/4's list misses aa, trivial in ℤ/2; ℤ² speaks a letter ⟨a | aa⟩ lacks;
    # a search of ⟨a | aaa⟩ lists the trivial words of ℤ/3, which miss aa too
    with pytest.raises(ValueError, match=message):
        run(RewriteSystem(Z2), oracle)


# -- inequality checks --------------------------------------------------------


def test_inequality_constants():
    assert double_exp_constants(Z2) == (24, 4)
    assert double_exp_constants(LATTICE) == (160, 16)


def test_double_exp_bound_values():
    assert double_exp_bound(Z2, 4, 0) == 4 * 2**24
    assert double_exp_bound(Z2, 0, 0) == 0
    assert double_exp_bound(LATTICE, 1, 1).bit_length() == 160 * 16 + 1


def test_within_double_exp_matches_the_bound():
    for p in (Z2, LATTICE):
        for n in range(4):
            for d in range(2):
                bound = double_exp_bound(p, n, d)
                for value in (0, 1, 7, bound - 1, bound, bound + 1, 3 * bound + 5):
                    if value >= 0:
                        assert within_double_exp(p, n, d, value) == (value <= bound), (p, n, d, value)


def test_check_inequalities_even_cycle():
    report = check_inequalities(z2_profile())
    assert all(row.d_le_half_f is True for row in report.rows)
    assert all(row.double_exp is True for row in report.rows)
    assert all(row.d_equals_rho is False for row in report.rows)
    assert report.asserted_hold
    assert not report.equality_holds


def test_check_inequalities_free_group():
    report = check_inequalities(free_profile())
    assert all(row.d_equals_rho is True for row in report.rows)
    assert report.equality_holds
    assert report.asserted_hold


def test_check_inequalities_skips_non_exact():
    tight = measure_profile(RewriteSystem(Z3), 6, ReferenceOracle.cyclic(3), SearchBudget(max_word_length=4))
    report = check_inequalities(tight)
    assert report.rows[6].d_le_half_f is None
    assert report.rows[6].double_exp is None
    assert report.rows[3].d_le_half_f is True


# -- CSV emission -------------------------------------------------------------

Z2_CSV = """n,P,P_status,f,f_status,d,rhoTC,d_le_half_f,double_exp,d_eq_rhoTC
0,0,Exact,0,Exact,0,1,true,true,false
1,0,Exact,0,Exact,0,1,true,true,false
2,1,Exact,2,Exact,0,1,true,true,false
3,1,Exact,2,Exact,0,1,true,true,false
"""


def csv(profile: FillingProfile) -> str:
    return profile_to_csv(profile, check_inequalities(profile))


def test_csv_golden_even_cycle():
    profile = measure_profile(RewriteSystem(Z2), 3, ReferenceOracle.cyclic(2), BUDGET)
    assert csv(profile) == Z2_CSV


def test_csv_deterministic_across_runs():
    first = measure_profile(RewriteSystem(LATTICE), 3, ReferenceOracle.free_abelian(2), BUDGET)
    second = measure_profile(RewriteSystem(LATTICE), 3, ReferenceOracle.free_abelian(2), BUDGET)
    assert csv(first) == csv(second)


def test_csv_renders_skips():
    tight = measure_profile(RewriteSystem(Z3), 6, ReferenceOracle.cyclic(3), SearchBudget(max_word_length=4))
    lines = csv(tight).splitlines()
    assert lines[-1].startswith("6,2,LowerBoundOnly,")
    assert ",skipped," in lines[-1]

