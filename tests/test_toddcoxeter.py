import tracemalloc
from dataclasses import replace

import pytest

from loopfold import automata
from loopfold.automata import Folder, LabeledGraph, canonical_form, fold, restrict_to_radius, trace
from loopfold.core import EMPTY, Presentation, Word, parse_word, words_up_to
from loopfold.toddcoxeter import (
    PartialCayleyGraph,
    TcState,
    measure_tc_radius,
    partial_cayley,
    tc_decides,
    tc_round,
)

Z2 = Presentation(1, [parse_word("aa", 1)])
Z3 = Presentation(1, [parse_word("aaa", 1)])
LATTICE = Presentation(2, [parse_word("abAB", 2)])
FREE2 = Presentation(2, [])


def w(text, n=2):
    return parse_word(text, n)


def exponent_sum(u, gen):
    return sum(1 if c == 2 * gen else -1 for c in u.codes if c >> 1 == gen)


def oracle_for(p):
    if p is Z2:
        return lambda u: exponent_sum(u, 0) % 2 == 0
    if p is Z3:
        return lambda u: exponent_sum(u, 0) % 3 == 0
    if p is LATTICE:
        return lambda u: exponent_sum(u, 0) == 0 and exponent_sum(u, 1) == 0
    return lambda u: u.reduce() == EMPTY


def trivial_for(p, n):
    """The oracle's list of trivial words of length ≤ n."""
    return [u for u in words_up_to(p.alphabet_size, n, reduced=False) if oracle_for(p)(u)]


def three_cycle():
    g = LabeledGraph(1, 3)
    g.add_edge(0, 0, 1)
    g.add_edge(1, 0, 2)
    g.add_edge(2, 0, 0)
    return g


def reduced_words_up_to(alphabet_size, max_len):
    words = [Word(b"")]
    layer = [b""]
    for _ in range(max_len):
        layer = [u + bytes((c,)) for u in layer for c in range(alphabet_size) if not u or u[-1] != c ^ 1]
        words.extend(Word(u) for u in layer)
    return words


def unfolded(graph):
    """A copy of a folded graph as a :class:`LabeledGraph`, same numbering."""
    g = LabeledGraph(graph.num_generators, graph.num_vertices, graph.origin)
    for src, gen, dst in graph.edges():
        g.add_edge(src, gen, dst)
    for bp, rel in graph.faces:
        g.add_face(bp, rel)
    return g


def unfolded_round(p, graph):
    """One round built unfolded on a copy of ``graph`` and folded whole:
    the definition that :func:`tc_round` folds online."""
    g = unfolded(graph)
    for v in range(graph.num_vertices):
        for gen in range(p.num_generators):
            if not g.out[v].get(gen):
                g.add_edge(v, gen, g.add_vertex())
            if not g.inc[v].get(gen):
                g.add_edge(g.add_vertex(), gen, v)
    complete = fold(g)[0]  # g is still deterministic, so folding keeps its numbering
    need = [(v, r) for v in range(g.num_vertices) for r in p.relators if trace(complete, r, start=v) != v]
    for v, r in need:
        g.add_loop(v, r)
    return fold(g)[0]


class TestRound:
    def test_online_round_matches_folding_the_unfolded_round(self):
        bs12 = Presentation(2, [w("abABB")])
        mixed = Presentation(2, [w("aab"), w("abA")])  # abA is not cyclically reduced
        for p in (Z2, Z3, LATTICE, FREE2, bs12, mixed):
            state = TcState.initial(p)
            for _ in range(4):
                expected = unfolded_round(p, state.graph)
                state = tc_round(state)
                got = state.graph
                assert (got.num_vertices, got.origin, got.edges(), got.faces) == (
                    expected.num_vertices, expected.origin, expected.edges(), expected.faces), (p, state.round)

    def test_cyclic_three_first_round_gives_cycle(self):
        state = tc_round(TcState.initial(Z3))
        assert state.round == 1
        pcg = partial_cayley(state)
        assert canonical_form(pcg.graph) == canonical_form(fold(three_cycle())[0])
        assert pcg.radius == 1

    def test_free_group_rounds_grow_a_tree(self):
        state = tc_round(TcState.initial(FREE2))
        assert state.graph.num_vertices == 5  # origin plus four fresh ends
        assert partial_cayley(state).radius == 0
        state = tc_round(state)
        assert state.graph.num_vertices == 17  # ball of radius 2 in the tree
        assert partial_cayley(state).graph.num_vertices == 1

    def test_round_is_idempotent_on_complete_cayley_graph(self):
        state = TcState(Z3, Folder.of_graph(three_cycle()), 1)
        after = tc_round(state)
        assert canonical_form(partial_cayley(after).graph) == canonical_form(fold(three_cycle())[0])

    def test_rounds_fold_deterministic(self):
        state = TcState.initial(LATTICE)
        for _ in range(3):
            state = tc_round(state)
            graph = state.graph
            for code, row in enumerate(graph.delta):  # every edge stored both ways
                back = graph.delta[code ^ 1]
                assert all(t < 0 or back[t] == v for v, t in enumerate(row)), (state.round, code)
            refolded, vertex_map = fold(unfolded(graph))
            assert vertex_map == list(range(graph.num_vertices))
            assert (refolded.origin, refolded.edges()) == (graph.origin, graph.edges())

    def test_vertex_counts_nondecreasing(self):
        state = TcState.initial(Z2)
        sizes = []
        for _ in range(4):
            state = tc_round(state)
            sizes.append(state.graph.num_vertices)
        assert sizes == sorted(sizes)

    def test_faces_survive_to_partial_graph(self):
        state = tc_round(TcState.initial(Z3))
        pcg = partial_cayley(state)
        assert pcg.graph.faces
        assert all(rel == w("aaa", 1) for _bp, rel in pcg.graph.faces)


class TestSettled:
    def test_round_traces_no_root_below_settled(self, monkeypatch):
        traced = []
        untraced = Folder.trace

        def recording(folder, v, word):
            traced.append(v)
            return untraced(folder, v, word)

        monkeypatch.setattr(Folder, "trace", recording)
        state, total = TcState.initial(LATTICE), 0
        for _ in range(30):
            traced.clear()
            after = tc_round(state)
            assert traced and min(traced) >= state.settled, state.round
            assert after.settled == len(state.folder.parent)
            total += len(traced)
            state = after
        assert total == 11_344  # checking every class in every round traces 66,995

    def test_skipping_settled_classes_builds_the_graph_of_a_full_check(self):
        bs12 = Presentation(2, [w("abABB")])
        mixed = Presentation(2, [w("aab"), w("abA")])
        for p, rounds in ((Z3, 4), (LATTICE, 12), (FREE2, 4), (bs12, 5), (mixed, 4)):
            state = TcState.initial(p)
            for _ in range(rounds):
                full = tc_round(replace(state, settled=0))
                state = tc_round(state)
                assert len(state.folder.parent) == len(full.folder.parent), (p, state.round)
                got, expected = state.graph, full.graph
                assert (got.origin, got.delta, got.faces) == (expected.origin, expected.delta, expected.faces)


class TestMemory:
    def test_ceiling_bytes_per_vertex_cover_the_peak(self):
        # the calibration of the memory ceiling: 30 rounds of ℤ², each with
        # its snapshot and partial Cayley graph, as measure_tc_radius runs them
        tracemalloc.start()
        try:
            state = TcState.initial(LATTICE)
            for _ in range(30):
                state = tc_round(state)
                pcg = partial_cayley(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        allocated = len(state.folder.parent)
        assert pcg.graph.num_vertices == 6421
        assert peak / allocated <= automata._BYTES_PER_VERTEX, (peak, allocated)


class TestPartialCayley:
    def test_single_edge_collapses_to_origin(self):
        g = LabeledGraph(1, 2)
        g.add_edge(0, 0, 1)
        pcg = partial_cayley(TcState(Z2, Folder.of_graph(g), 1))
        assert pcg.graph.num_vertices == 1
        assert pcg.radius == 0

    def test_pendant_edge_on_cycle_is_ignored(self):
        g = three_cycle()
        g.add_edge(1, 0, g.add_vertex())
        pcg = partial_cayley(TcState(Z3, Folder.of_graph(g), 1))
        assert canonical_form(pcg.graph) == canonical_form(fold(three_cycle())[0])
        assert pcg.radius == 1

    def test_hair_chains_removed_transitively(self):
        g = three_cycle()
        v = g.add_vertex()
        u = g.add_vertex()
        t = g.add_vertex()
        g.add_edge(0, 0, v)
        g.add_edge(v, 0, u)
        g.add_edge(u, 0, t)
        pcg = partial_cayley(TcState(Z3, Folder.of_graph(g), 1))
        assert canonical_form(pcg.graph) == canonical_form(fold(three_cycle())[0])

    def test_requires_a_completed_round(self):
        with pytest.raises(ValueError):
            partial_cayley(TcState.initial(Z3))


class TestDecisions:
    def test_cyclic_three_traces(self):
        pcg = partial_cayley(tc_round(TcState.initial(Z3)))
        assert tc_decides(pcg, w("aaa", 1)) is True
        assert tc_decides(pcg, w("a", 1)) is False
        assert tc_decides(pcg, EMPTY) is True
        assert tc_decides(pcg, w("aAaaa", 1)) is True  # reduction first

    def test_soundness_at_every_round(self):
        for p in (Z3, LATTICE):
            oracle = oracle_for(p)
            state = TcState.initial(p)
            for _ in range(3):
                state = tc_round(state)
                pcg = partial_cayley(state)
                for u in reduced_words_up_to(p.alphabet_size, 4):
                    if tc_decides(pcg, u):
                        assert oracle(u), (p, state.round, u)


class TestMeasureRadius:
    def test_cyclic_groups(self):
        column = measure_tc_radius(Z3, 6, trivial_for(Z3, 6))
        assert [(rounds, rad) for rounds, rad, _pcg in column] == [(1, 1)] * 7
        rounds, rad, _pcg = measure_tc_radius(Z2, 4, trivial_for(Z2, 4))[4]
        assert (rounds, rad) == (1, 1)

    def test_free_group_radius_zero(self):
        rounds, rad, pcg = measure_tc_radius(FREE2, 3, trivial_for(FREE2, 3))[3]
        assert rounds == 1
        assert rad == 0
        assert pcg.graph.num_vertices == 1

    def test_lattice_small_lengths(self):
        _rounds, rad, pcg = measure_tc_radius(LATTICE, 2, trivial_for(LATTICE, 2))[2]
        assert rad >= 1
        ball = LabeledGraph(2, 5)
        ball.add_edge(0, 0, 1)
        ball.add_edge(2, 0, 0)
        ball.add_edge(0, 1, 3)
        ball.add_edge(4, 1, 0)
        assert canonical_form(restrict_to_radius(pcg.graph, 1)) == canonical_form(fold(ball)[0])

    def test_agreement_is_genuine(self):
        oracle = oracle_for(Z3)
        _rounds, _rad, pcg = measure_tc_radius(Z3, 5, trivial_for(Z3, 5))[5]
        for u in reduced_words_up_to(2, 5):
            assert tc_decides(pcg, u) == oracle(u)

    def test_trivial_list_out_of_order_is_refused(self):
        trivial = trivial_for(Z3, 4)
        with pytest.raises(ValueError):
            measure_tc_radius(Z3, 4, trivial[::-1])
        with pytest.raises(ValueError):
            measure_tc_radius(Z3, 4, trivial + trivial)
        with pytest.raises(ValueError):  # in order, but over a letter Z3 lacks
            measure_tc_radius(Z3, 4, trivial + [w("bbbb")])

    def test_nontermination_guard(self):
        every_word = list(words_up_to(4, 2, reduced=False))  # a list that lies
        column = measure_tc_radius(FREE2, 2, every_word, max_rounds=2)
        assert column[0][0] == 1  # the empty word is decided at once
        assert column[1:] == [None, None]  # two rounds never agree on a letter
        assert measure_tc_radius(FREE2, 1, every_word, max_rounds=-1) == [None, None]
