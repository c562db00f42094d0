"""The contracts of loopfold's record types: value records compare and hash
by value and refuse attribute assignment, the search budget refuses caps
below 1, graph records compare by identity, and a partial Cayley graph's
radius is computed once, when it is built."""

from itertools import islice

import pytest

from loopfold import toddcoxeter
from loopfold.automata import FoldedGraph
from loopfold.bounds import OracleResult, OracleStatus, SearchBudget, budget_flags
from loopfold.core import Presentation, parse_word
from loopfold.fillings import ProfileRow, ReferenceOracle
from loopfold.toddcoxeter import PartialCayleyGraph, coset_rounds, partial_cayley

LATTICE = Presentation(2, [parse_word("abAB", 2)])
EXACT = OracleStatus.EXACT


@pytest.mark.parametrize("args", [(0,), (8, 0), (-1, 5), (0, 0)])
def test_search_budget_refuses_caps_below_one(args):
    with pytest.raises(ValueError, match="budget fields must be positive"):
        SearchBudget(*args)


def test_search_budget_defaults_and_value_equality():
    budget = SearchBudget()
    assert (budget.max_word_length, budget.max_states) == (8, 2_000_000)
    assert SearchBudget(6) == SearchBudget(max_word_length=6, max_states=2_000_000)
    assert SearchBudget(6) != SearchBudget(6, 5)
    assert hash(SearchBudget(6, 5)) == hash(SearchBudget(6, 5))
    with pytest.raises(AttributeError):
        budget.max_states = 5


def test_oracle_result_compares_and_hashes_by_value():
    a, b = OracleResult(3, EXACT), OracleResult(3, EXACT)
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != OracleResult(3, OracleStatus.LOWER_BOUND_ONLY)
    assert a != OracleResult(4, EXACT)
    assert len({a, b, OracleResult(None, OracleStatus.BUDGET_EXCEEDED)}) == 2
    assert (a.value, a.status, a.exact, a.render_value()) == (3, EXACT, True, "3")
    assert OracleResult(None, EXACT).render_value() == "unreached"
    with pytest.raises(AttributeError):
        a.value = 4


def test_profile_row_compares_and_hashes_by_value():
    cells = [OracleResult(k, EXACT) for k in range(4)]
    a, b = ProfileRow(2, *cells), ProfileRow(n=2, area=cells[0], length=cells[1],
                                             diameter=cells[2], tc_radius=cells[3])
    assert a == b and hash(a) == hash(b)
    assert a != ProfileRow(3, *cells)
    assert a.tc_radius == OracleResult(3, EXACT)


def test_presentation_compares_and_hashes_by_value():
    relator = parse_word("abAB", 2)
    a, b, c = (Presentation(2, [make(relator)]) for make in (bytes, bytearray, list))
    assert a == b == c and a is not b
    assert hash(a) == hash(b) == hash(c) == hash((2, (relator,)))
    assert len({a, b, c}) == 1
    assert a != Presentation(2, [parse_word("abAB", 2), parse_word("aa", 2)])
    assert a != Presentation(3, [relator])


def test_presentation_refuses_attribute_assignment():
    with pytest.raises(AttributeError):
        LATTICE.relators = ()
    with pytest.raises(AttributeError):
        LATTICE.num_generators = 3
    with pytest.raises(AttributeError):
        LATTICE.extra = 1
    assert LATTICE == Presentation(2, [parse_word("abAB", 2)])


def test_reference_oracle_refuses_attribute_assignment():
    oracle = ReferenceOracle.cyclic(3)
    with pytest.raises(AttributeError):
        oracle.identity = 1
    with pytest.raises(AttributeError):
        oracle.system = None
    with pytest.raises(AttributeError):
        oracle.extra = 1
    assert (oracle.num_generators, oracle.identity, oracle.system, oracle.budget) == (1, 0, None, None)


def test_budget_flags_name_the_cap_behind_each_status():
    assert budget_flags(OracleStatus.BUDGET_EXCEEDED) == "--budget-states"
    assert budget_flags(OracleStatus.LOWER_BOUND_ONLY, EXACT) == "--budget-len"
    assert budget_flags(OracleStatus.LOWER_BOUND_ONLY, OracleStatus.BUDGET_EXCEEDED) == (
        "--budget-states and --budget-len")


def test_folded_graph_keeps_identity_equality():
    a = FoldedGraph(1, 0, [[0], [0]])
    b = FoldedGraph(1, 0, [[0], [0]])
    assert a == a and a != b
    assert len({a, b}) == 2
    with pytest.raises(AttributeError):
        a.delta = [[-1], [-1]]


def test_partial_cayley_graph_is_a_value_record():
    graph = next(coset_rounds(LATTICE)).snapshot()
    order = (0, 1)
    pcg = PartialCayleyGraph(graph, 1, order)
    assert pcg == PartialCayleyGraph(graph, 1, order) and hash(pcg) == hash(PartialCayleyGraph(graph, 1, order))
    assert pcg != PartialCayleyGraph(graph, 2, order)
    assert pcg != PartialCayleyGraph(graph, 1, (1, 0))
    assert pcg != PartialCayleyGraph(next(coset_rounds(LATTICE)).snapshot(), 1, order)  # the graph by identity
    with pytest.raises(AttributeError):
        pcg.graph = graph


def test_partial_cayley_radius_is_computed_once(monkeypatch):
    breadth_first = toddcoxeter.breadth_first
    calls = []
    monkeypatch.setattr(toddcoxeter, "breadth_first", lambda g: calls.append(g) or breadth_first(g))
    pcg = partial_cayley(next(islice(coset_rounds(LATTICE), 1, None)).snapshot())
    assert calls == [pcg.graph]  # at construction
    order, dist = breadth_first(pcg.graph)
    assert pcg.radius == pcg.radius == dist[order[-1]]
    assert pcg.order == tuple(order)
    assert calls == [pcg.graph]
