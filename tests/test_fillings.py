"""Profile measurements, inequality checks, and loop decompositions."""

import functools
import itertools

import pytest

from loopfold.automata import (
    LabeledGraph,
    build_loop_complex,
    canonical_form,
    distances_from_origin,
    fold,
    radius,
    trace,
)
from loopfold.core import EMPTY, Presentation, Word, parse_presentation, parse_word
from loopfold.fillings import (
    FillingProfile,
    ReferenceOracle,
    _fit_base,
    check_inequalities,
    double_exp_bound,
    within_double_exp,
    measure_isodiametric,
    measure_profile,
    profile_to_csv,
    pull_apart,
    refold,
)
from loopfold.rewrite import OracleStatus, RewriteSystem, SearchBudget
from loopfold.toddcoxeter import coset_rounds, partial_cayley

Z2 = parse_presentation("gens: a\nrels: aa")
Z3 = parse_presentation("gens: a\nrels: aaa")
LATTICE = parse_presentation("gens: a b\nrels: abAB")
FREE2 = Presentation(2, ())

BUDGET = SearchBudget(max_word_length=6)


def w(text: str, gens: int = 2) -> Word:
    return parse_word(text, gens)


def all_words_up_to(alphabet_size: int, n: int):
    out = [Word()]
    frontier = [Word()]
    for _ in range(n):
        frontier = [Word(u.codes + bytes((c,))) for u in frontier for c in range(alphabet_size)]
        out.extend(frontier)
    return out


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
        for word in all_words_up_to(2, 5):
            exponent = sum(1 if c == 0 else -1 for c in word.codes)
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
    for word in all_words_up_to(2, 5):
        assert by_search.decide(word) == closed_form.decide(word), word


@pytest.mark.parametrize("oracle, n", [
    (ReferenceOracle.cyclic(1), 4), (ReferenceOracle.cyclic(2), 6), (ReferenceOracle.cyclic(3), 7),
    (ReferenceOracle.free_abelian(1), 6), (ReferenceOracle.free_abelian(2), 6),
    (ReferenceOracle.free(1), 6), (ReferenceOracle.free(2), 6),
    (ReferenceOracle.rewrite_search(RewriteSystem(Z3), BUDGET), 5),
], ids=lambda x: x.kind if isinstance(x, ReferenceOracle) else str(x))
def test_trivial_words_are_the_decided_words_in_order(oracle, n):
    words = sorted(all_words_up_to(2 * oracle.num_generators, n), key=lambda u: (len(u), u.codes))
    assert oracle.trivial_words(n) == [u for u in words if oracle.decide(u)]


def test_oracle_validation():
    with pytest.raises(ValueError):
        ReferenceOracle("parity")
    with pytest.raises(ValueError):
        ReferenceOracle.cyclic(0)
    with pytest.raises(ValueError):
        ReferenceOracle.free_abelian(0)
    with pytest.raises(ValueError):
        ReferenceOracle.free(-1)
    with pytest.raises(ValueError):
        ReferenceOracle("rewrite", system=RewriteSystem(Z2))


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


def test_isodiametric_even_words():
    column = measure_isodiametric(Z2, 4, ReferenceOracle.cyclic(2).trivial_words(4))
    assert [(r.value, r.status) for r in column] == [(0, OracleStatus.EXACT)] * 5


def test_isodiametric_three_cycle():
    result = measure_isodiametric(Z3, 3, ReferenceOracle.cyclic(3).trivial_words(3))[3]
    assert (result.value, result.status) == (0, OracleStatus.EXACT)


def test_isodiametric_n_zero():
    for p, oracle in (
        (Z2, ReferenceOracle.cyclic(2)),
        (LATTICE, ReferenceOracle.free_abelian(2)),
        (FREE2, ReferenceOracle.free(2)),
    ):
        assert measure_isodiametric(p, 0, oracle.trivial_words(0))[0].value == 0


def test_isodiametric_lattice_values():
    column = measure_isodiametric(LATTICE, 6, ReferenceOracle.free_abelian(2).trivial_words(6))
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
    column = measure_isodiametric(
        LATTICE, 4, ReferenceOracle.free_abelian(2).trivial_words(4), max_radius=1)
    assert [r.value for r in column[:4]] == [0, 0, 0, 0]
    result = column[4]
    assert result.value is None
    assert result.status is OracleStatus.LOWER_BOUND_ONLY


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


# -- inequality checks --------------------------------------------------------


def test_inequality_constants():
    assert check_inequalities(z2_profile()).big_c == 24
    assert check_inequalities(z2_profile()).base == 4
    report = check_inequalities(lattice_profile())
    assert report.big_c == 160
    assert report.base == 16


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
    assert report.fitted_area_base == 2
    assert report.fitted_length_base == 2


def test_check_inequalities_free_group():
    report = check_inequalities(free_profile())
    assert all(row.d_equals_rho is True for row in report.rows)
    assert report.equality_holds
    assert report.asserted_hold
    assert report.fitted_area_base == 2


def test_check_inequalities_skips_non_exact():
    tight = measure_profile(RewriteSystem(Z3), 6, ReferenceOracle.cyclic(3), SearchBudget(max_word_length=4))
    report = check_inequalities(tight)
    assert report.rows[6].d_le_half_f is None
    assert report.rows[6].double_exp is None
    assert report.rows[3].d_le_half_f is True


def test_fit_base():
    assert _fit_base([]) == 2
    assert _fit_base([(9, 2)]) == 3
    assert _fit_base([(10, 1)]) == 10
    assert _fit_base([(2**70, 1)]) is None
    assert _fit_base([(0, 0), (4, 2)]) == 2


# -- CSV emission -------------------------------------------------------------

Z2_CSV = """n,P,P_status,f,f_status,d,rhoTC,d_le_half_f,double_exp,d_eq_rhoTC
0,0,Exact,0,Exact,0,1,true,true,false
1,0,Exact,0,Exact,0,1,true,true,false
2,1,Exact,2,Exact,0,1,true,true,false
3,1,Exact,2,Exact,0,1,true,true,false
"""


def test_csv_golden_even_cycle():
    profile = measure_profile(RewriteSystem(Z2), 3, ReferenceOracle.cyclic(2), BUDGET)
    assert profile_to_csv(profile) == Z2_CSV


def test_csv_deterministic_across_runs():
    first = measure_profile(RewriteSystem(LATTICE), 3, ReferenceOracle.free_abelian(2), BUDGET)
    second = measure_profile(RewriteSystem(LATTICE), 3, ReferenceOracle.free_abelian(2), BUDGET)
    assert profile_to_csv(first) == profile_to_csv(second)


def test_csv_renders_skips():
    tight = measure_profile(RewriteSystem(Z3), 6, ReferenceOracle.cyclic(3), SearchBudget(max_word_length=4))
    lines = profile_to_csv(tight).splitlines()
    assert lines[-1].startswith("6,2,LowerBoundOnly,")
    assert ",skipped," in lines[-1]


# -- pulling a complex apart --------------------------------------------------


def loops_close(g, loops):
    """Every (r, u) of ``loops`` reads r as a closed walk at the tip of u, a
    geodesic no longer than the graph radius."""
    limit = radius(g)
    for rel, conjugator in loops:
        v = trace(g, conjugator)
        assert v is not None and trace(g, rel, v) == v
        assert len(conjugator) <= limit


def test_pull_apart_single_face():
    g = build_loop_complex(Z2, 0)
    # the one folded loop closes at both of its vertices
    assert pull_apart(g, Z2.relators) == [(w("aa", 1), EMPTY), (w("aa", 1), w("a", 1))]


def test_pull_apart_round_trip_loop_complexes():
    graphs = [(p, build_loop_complex(p, j)) for p in (Z2, Z3, LATTICE) for j in range(3)]
    graphs += [(p, partial_cayley(folder).graph)
               for p in (Z3, LATTICE) for folder in itertools.islice(coset_rounds(p), 3)]
    for p, g in graphs:
        loops = pull_apart(g, p.relators)
        loops_close(g, loops)
        assert all(rel in p.relators for rel, _ in loops)
        rebuilt = refold(p.num_generators, loops)
        assert canonical_form(rebuilt) == canonical_form(g), p


def test_pull_apart_saturation_graph():
    pcg = partial_cayley(next(coset_rounds(Z3)))
    loops = pull_apart(pcg.graph, Z3.relators)
    assert loops, "a saturated graph closes its relator somewhere"
    loops_close(pcg.graph, loops)
    assert all(rel == w("aaa", 1) for rel, _ in loops)
    rebuilt = refold(1, loops)
    assert canonical_form(rebuilt) == canonical_form(pcg.graph)


def test_pull_apart_lattice_saturation_round_trip():
    pcg = partial_cayley(next(coset_rounds(LATTICE)))
    loops = pull_apart(pcg.graph, LATTICE.relators)
    rebuilt = refold(2, loops)
    assert canonical_form(rebuilt) == canonical_form(pcg.graph)


def test_pull_apart_conjugators_trace_to_basepoints():
    g = build_loop_complex(LATTICE, 2)
    loops = pull_apart(g, LATTICE.relators)
    loops_close(g, loops)
    # basepoints come in breadth-first order, each once per closing relator
    basepoints = [trace(g, conjugator) for _, conjugator in loops]
    dist = distances_from_origin(g)
    assert basepoints == [v for v in dist if trace(g, LATTICE.relators[0], v) == v]
    assert [len(u) for _, u in loops] == [dist[v] for v in basepoints]


def test_pull_apart_no_faces():
    lonely, _ = fold(LabeledGraph(1))
    assert pull_apart(lonely, Z2.relators) == []
    rebuilt = refold(1, [])
    assert canonical_form(rebuilt) == (1, ())


def test_pull_apart_deterministic():
    g = build_loop_complex(LATTICE, 1)
    assert pull_apart(g, LATTICE.relators) == pull_apart(g, LATTICE.relators)
