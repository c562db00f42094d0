import tracemalloc
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from loopfold import _kernels, automata, toddcoxeter
from loopfold.automata import (
    Folder,
    LabeledGraph,
    accepts_reduced,
    canonical_form,
    fold,
    loop_complexes,
    restrict_to_radius,
    trace,
)
from loopfold.bounds import SearchBudget
from loopfold.cli import main
from loopfold.core import EMPTY, Presentation, is_reduced, parse_presentation, parse_word, reduce_codes, words_up_to
from loopfold.fillings import ReferenceOracle, measure_isodiametric
from loopfold.rewrite import RewriteSystem
from loopfold.toddcoxeter import coset_rounds, measure_tc_radius, partial_cayley, tc_round

ZXZ = str(Path(__file__).resolve().parent.parent / "presentations" / "zxz.pres")

Z2 = Presentation(1, [parse_word("aa", 1)])
Z3 = Presentation(1, [parse_word("aaa", 1)])
LATTICE = Presentation(2, [parse_word("abAB", 2)])
FREE2 = Presentation(2, [])


def w(text, n=2):
    return parse_word(text, n)


def exponent_sum(u, gen):
    return sum(1 if c == 2 * gen else -1 for c in u if c >> 1 == gen)


def oracle_for(p):
    if p is Z2:
        return lambda u: exponent_sum(u, 0) % 2 == 0
    if p is Z3:
        return lambda u: exponent_sum(u, 0) % 3 == 0
    if p is LATTICE:
        return lambda u: exponent_sum(u, 0) == 0 and exponent_sum(u, 1) == 0
    return lambda u: reduce_codes(u) == EMPTY


def trivial_for(p, n, oracle=None):
    """The oracle's list of trivial words of length ≤ n."""
    oracle = oracle or oracle_for(p)
    return [u for u in words_up_to(p.alphabet_size, n) if oracle(u)]


def laid_out(p, n, words):
    """The layers both scans take: the reduced ``words`` of length ≤ n, by
    length, as a command lays them out once."""
    return _kernels.trivial_layers(words, n, p.alphabet_size)


def baumslag_solitar(k):
    """BS(1, k) = ⟨a, b | a b a⁻¹ = b^k⟩ and its faithful affine action on
    the rationals, a ↦ (x ↦ kx) and b ↦ (x ↦ x + 1): a word is trivial when
    it acts as the identity."""
    maps = [(Fraction(k), 0), (Fraction(1, k), 0), (1, 1), (1, -1)]  # a, A, b, B

    def oracle(u):
        m, t = Fraction(1), Fraction(0)
        for c in u:
            f, g = maps[c]
            m, t = m * f, m * g + t  # compose, the last letter acting first
        return m == 1 and t == 0

    return Presentation(2, [w("ab" + "A" + "B" * k)]), oracle


BS12, BS13 = baumslag_solitar(2), baumslag_solitar(3)

# The groups the ρ_TC scan is checked on, each with a closed-form oracle.
GROUPS = {
    "Z/2": (Z2, oracle_for(Z2)),
    "Z/3": (Z3, oracle_for(Z3)),
    "Z/4": (Presentation(1, [w("aaaa", 1)]), lambda u: exponent_sum(u, 0) % 4 == 0),
    "Z^2": (LATTICE, oracle_for(LATTICE)),
    "F_2": (FREE2, oracle_for(FREE2)),
    "Z/2xZ/2": (Presentation(2, [w("aa"), w("bb"), w("abAB")]),
                lambda u: exponent_sum(u, 0) % 2 == 0 == exponent_sum(u, 1) % 2),
    "BS(1,2)": BS12,
    "BS(1,3)": BS13,
    "<a,b|aab,abA>": (Presentation(2, [w("aab"), w("abA")]),  # abA makes b trivial
                      lambda u: exponent_sum(u, 0) % 2 == 0),
}


def three_cycle():
    g = LabeledGraph(1, 3)
    g.add_edge(0, 0, 1)
    g.add_edge(1, 0, 2)
    g.add_edge(2, 0, 0)
    return g


def unfolded(graph):
    """A copy of a folded graph as a :class:`LabeledGraph`, same numbering."""
    g = LabeledGraph(graph.num_generators, graph.num_vertices, graph.origin)
    for src, gen, dst in graph.edges():
        g.add_edge(src, gen, dst)
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
            graph = Folder(p.num_generators).snapshot()
            for i, folder in enumerate(islice(coset_rounds(p), 4), 1):
                expected = unfolded_round(p, graph)
                graph = folder.snapshot()
                assert (graph.num_vertices, graph.origin, graph.edges()) == (
                    expected.num_vertices, expected.origin, expected.edges()), (p, i)

    def test_rounds_fold_what_a_guarded_round_folds(self):
        # a round folds every relator loop in at every class from closed
        # on; one that the graph already closes changes nothing, so the
        # rounds equal those that fold only the loops the completed graph
        # does not close, down to the union-find's parent pointers
        def closes(folder, v, relator):
            u = v = folder.find(v)
            for c in relator:
                if (t := folder.delta[c][u]) < 0:
                    return False
                u = folder.find(t)
            return u == v

        def guarded_round(folder, p, settled, closed):
            start = len(folder.parent)
            folder.complete(settled)
            completed = len(folder.parent)
            need = [(v, r) for v in folder.vertices(closed) for r in p.relators
                    if not closes(folder, v, r)]
            for v, r in need:
                folder.add_loop(v, r)
            return start, completed

        heisenberg = Presentation(3, [w("abABC", 3), w("acAC", 3), w("bcBC", 3)])
        for p, rounds in ((LATTICE, 60), (Z2, 6), (Z3, 6), (BS12[0], 8), (heisenberg, 6)):
            guarded, settled, closed = Folder(p.num_generators), 0, 0
            for i, folder in enumerate(islice(coset_rounds(p), rounds), 1):
                settled, closed = guarded_round(guarded, p, settled, closed)
                assert (folder.parent, folder.delta) == (guarded.parent, guarded.delta), (p, i)

    def test_cyclic_three_first_round_gives_cycle(self):
        folder = next(coset_rounds(Z3))
        assert folder.what == "coset round 1"
        pcg = partial_cayley(folder.snapshot())
        assert canonical_form(pcg.graph) == canonical_form(fold(three_cycle())[0])
        assert pcg.radius == 1

    def test_free_group_rounds_grow_a_tree(self):
        rounds = coset_rounds(FREE2)
        folder = next(rounds)
        assert folder.snapshot().num_vertices == 5  # origin plus four fresh ends
        assert partial_cayley(folder.snapshot()).radius == 0
        assert next(rounds) is folder  # grown in place
        assert folder.snapshot().num_vertices == 17  # ball of radius 2 in the tree
        assert partial_cayley(folder.snapshot()).graph.num_vertices == 1

    def test_round_is_idempotent_on_complete_cayley_graph(self):
        folder = Folder.of_graph(three_cycle())
        assert tc_round(folder, Z3) == (3, 3)
        assert canonical_form(partial_cayley(folder.snapshot()).graph) == canonical_form(fold(three_cycle())[0])

    def test_rounds_fold_deterministic(self):
        for i, folder in enumerate(islice(coset_rounds(LATTICE), 3), 1):
            graph = folder.snapshot()
            for code, row in enumerate(graph.delta):  # every edge stored both ways
                back = graph.delta[code ^ 1]
                assert all(t < 0 or back[t] == v for v, t in enumerate(row)), (i, code)
            refolded, vertex_map = fold(unfolded(graph))
            assert vertex_map == list(range(graph.num_vertices))
            assert (refolded.origin, refolded.edges()) == (graph.origin, graph.edges())

    def test_vertex_counts_nondecreasing(self):
        sizes = [folder.snapshot().num_vertices for folder in islice(coset_rounds(Z2), 4)]
        assert sizes == sorted(sizes)

    def test_coset_rounds_take_no_snapshot(self, monkeypatch):
        snapshots = []
        monkeypatch.setattr(Folder, "snapshot", lambda self: snapshots.append(self))
        assert len(list(islice(coset_rounds(LATTICE), 5))) == 5
        assert snapshots == []


class TestOneFolder:
    """Coset saturation grows one folder: neither a command nor the ρ_TC
    scan builds a folder per round."""

    @pytest.fixture
    def folders(self, monkeypatch):
        built = []
        init = Folder.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Folder, "__init__", counting)
        return built

    def test_tc_command_builds_one_folder(self, folders, capsys):
        assert main(["tc", ZXZ, "--rounds", "30"]) == 0
        assert capsys.readouterr().out.startswith("rounds=30 ")
        assert len(folders) == 1

    def test_tc_radius_scan_builds_one_folder(self, folders):
        column = measure_tc_radius(LATTICE, laid_out(LATTICE, 4, trivial_for(LATTICE, 4)))
        assert max(rounds for rounds, _rad, _pcg in column) > 1
        assert len(folders) == 1


class TestSettled:
    def test_round_traces_no_root_below_settled(self, monkeypatch):
        traced = []
        add_loop = Folder.add_loop

        def recording(folder, v, relator):
            traced.append(v)
            add_loop(folder, v, relator)

        monkeypatch.setattr(Folder, "add_loop", recording)
        folder, settled, closed, total = Folder(LATTICE.num_generators), 0, 0, 0
        for i in range(30):
            traced.clear()
            start = len(folder.parent)
            after = tc_round(folder, LATTICE, settled, closed)
            assert traced and min(traced) >= closed >= settled, i
            assert after[0] == start
            total += len(traced)
            settled, closed = after
        # looping at every class from settled on walks 11,344, and checking
        # every class in every round 66,995
        assert total == 7_980

    def test_skipping_settled_classes_builds_the_graph_of_a_full_check(self):
        bs12 = Presentation(2, [w("abABB")])
        mixed = Presentation(2, [w("aab"), w("abA")])

        def replayed(p, rounds):
            """A fresh folder after ``rounds`` rounds, the last checking every class."""
            folder, settled, closed = Folder(p.num_generators), 0, 0
            for _ in range(rounds - 1):
                settled, closed = tc_round(folder, p, settled, closed)
            tc_round(folder, p)
            return folder

        for p, rounds in ((Z3, 4), (LATTICE, 12), (FREE2, 4), (bs12, 5), (mixed, 4)):
            for i, folder in enumerate(islice(coset_rounds(p), rounds), 1):
                full = replayed(p, i)
                assert len(folder.parent) == len(full.parent), (p, i)
                got, expected = folder.snapshot(), full.snapshot()
                assert (got.origin, got.delta) == (expected.origin, expected.delta)


# The six presentations whose rounds are pinned against re-walking rounds.
ROUND_SAMPLES = {
    "zxz": (LATTICE, 7),
    "z3": (Z3, 7),
    "BS(1,2)": (BS12[0], 7),
    "Heisenberg": (Presentation(3, [w("abABC", 3), w("acAC", 3), w("bcBC", 3)]), 7),
    "(2,3,3) triangle": (Presentation(2, [w("aa"), w("bbb"), w("ababab")]), 7),
    "<a,b|abaBAB>": (Presentation(2, [w("abaBAB")]), 5),
}


def rewalking_rounds(p):
    """Rounds that fold every relator loop in again at every class rooted
    at the previous round's starting count or later, the rule before loops
    were bounded by the count after completion: the reference the bounded
    rounds are checked against."""
    folder, settled = Folder(p.num_generators), 0
    while True:
        start = len(folder.parent)
        folder.complete(settled)
        for v in folder.vertices(settled):
            for r in p.relators:
                folder.add_loop(v, r)
        settled = start
        yield folder


class TestLoopBoundary:
    @pytest.mark.parametrize("name", ROUND_SAMPLES)
    def test_rounds_build_what_rewalking_rounds_build(self, name):
        p, rounds = ROUND_SAMPLES[name]
        pairs = zip(coset_rounds(p), rewalking_rounds(p))
        for i, (folder, reference) in enumerate(islice(pairs, rounds), 1):
            assert len(folder.parent) == len(reference.parent), (name, i)
            assert folder.snapshot().delta == reference.snapshot().delta, (name, i)

    @pytest.mark.parametrize("name", ["zxz", "z3", "BS(1,2)", "Heisenberg", "(2,3,3) triangle"])
    def test_each_class_folds_each_relator_loop_once(self, name, monkeypatch):
        # a round folds every relator's loop, in order, at each class rooted
        # between the previous and its own count after completion, and no
        # class twice over the rounds; a class still a root at the round's
        # end was one when its loops went in
        p, rounds = ROUND_SAMPLES[name]
        traced = []
        add_loop = Folder.add_loop
        monkeypatch.setattr(Folder, "add_loop",
                            lambda folder, v, r: traced.append((v, r)) or add_loop(folder, v, r))
        folder, settled, closed, seen = Folder(p.num_generators), 0, 0, set()
        for i in range(rounds):
            traced.clear()
            start = len(folder.parent)
            previous = closed
            settled, closed = tc_round(folder, p, settled, closed)
            assert settled == start
            looped = sorted({v for v, _ in traced})
            assert traced == [(v, r) for v in looped for r in p.relators], (name, i)
            assert all(previous <= v < closed for v in looped), (name, i)
            assert {v for v in folder.vertices(previous) if v < closed} <= set(looped), (name, i)
            assert seen.isdisjoint(looped), (name, i)
            seen.update(looped)


class OneAtATime(Folder):
    """The folder growing one vertex at a time: a missing edge of
    :meth:`complete`, and each vertex a loop's path lacks, appends its
    vertex on its own.  The reference the batched growth is checked
    against."""

    def grow(self, v, c):
        t = len(self.parent)
        self.parent.append(t)
        for row in self.delta:
            row.append(-1)
        self.delta[c][v], self.delta[c ^ 1][t] = t, v
        return t

    def complete(self, start=0):
        for v in self.vertices(start):
            for c, row in enumerate(self.delta):
                if row[v] < 0:
                    self.grow(v, c)

    def add_loop(self, basepoint, relator):
        find, delta = self.find, self.delta
        end, last = find(basepoint), len(relator)
        while last and (t := delta[relator[last - 1] ^ 1][end]) >= 0:  # the tail already there
            end, last = find(t), last - 1
        v = find(basepoint)
        if not last:
            self._merge(v, end)
            return
        for c in relator[:last - 1]:
            t = delta[c][v]
            v = self.grow(v, c) if t < 0 else find(t)
        c = relator[last - 1]  # the closing edge v --c--> end
        if (s := delta[c][v]) >= 0:
            self._merge(s, end)
        elif (t := delta[c ^ 1][end]) >= 0:
            self._merge(t, v)
        else:
            delta[c][v], delta[c ^ 1][end] = end, v


class TestBatchedGrowth:
    @pytest.mark.parametrize("p, rounds", [
        (LATTICE, 30),
        (BS12[0], 4),
        (FREE2, 6),
        (Presentation(2, [w("aa"), w("bbb"), w("ababab")]), 4),
    ], ids=["zxz", "BS(1,2)", "free2", "(2,3,3) triangle"])
    def test_rounds_match_one_vertex_at_a_time(self, p, rounds):
        reference, settled, closed = OneAtATime(p.num_generators), 0, 0
        for i, folder in enumerate(islice(coset_rounds(p), rounds), 1):
            settled, closed = tc_round(reference, p, settled, closed)
            assert (folder.parent, folder.delta) == (reference.parent, reference.delta), i


def dict_distances(graph):
    """Breadth-first distances kept in a dict, in the order met, trying
    letters a, A, b, B, …: the reference numbering of the DOT goldens."""
    dist = {graph.origin: 0}
    order = [graph.origin]
    for v in order:  # grows while read: breadth-first
        for row in graph.delta:
            if (u := row[v]) >= 0 and u not in dist:
                dist[u] = dist[v] + 1
                order.append(u)
    return dist


def dict_dot(graph):
    """The DOT text drawn from :func:`dict_distances`' numbering."""
    number = {v: i for i, v in enumerate(dict_distances(graph))}
    lines = ["digraph G {", "  rankdir=LR;"]
    lines += [f"  {i} [shape={'doublecircle' if i == 0 else 'circle'}];" for i in range(len(number))]
    edges = sorted((number[v], g, number[t]) for v, g, t in graph.edges() if v in number)
    lines += [f'  {v} -> {t} [label="{chr(ord("a") + g)}"];' for v, g, t in edges]
    return "\n".join(lines) + "\n}\n"


class TestBreadthFirst:
    @pytest.mark.parametrize("name", ROUND_SAMPLES)
    def test_radius_and_dot_match_the_dict_numbering(self, name):
        p, _rounds = ROUND_SAMPLES[name]
        for i, folder in enumerate(islice(coset_rounds(p), 4), 1):
            snapshot = folder.snapshot()
            pcg = partial_cayley(snapshot)
            for graph in (snapshot, pcg.graph):
                order, dist = automata.breadth_first(graph)
                assert order == list(dict_distances(graph)), (name, i)
                assert dist[order[-1]] == max(dict_distances(graph).values()), (name, i)
                assert automata.to_dot(graph) == dict_dot(graph), (name, i)
            assert pcg.radius == max(dict_distances(pcg.graph).values())
            assert pcg.order == tuple(dict_distances(pcg.graph))
            assert automata.to_dot(pcg.graph, pcg.order) == dict_dot(pcg.graph), (name, i)

    def test_strip_hairs_returns_a_hair_free_graph_as_it_is(self):
        for name, (p, _rounds) in ROUND_SAMPLES.items():
            stripped = partial_cayley(next(islice(coset_rounds(p), 2, None)).snapshot()).graph
            assert automata.strip_hairs(stripped) is stripped, name
        lone = Folder(1).snapshot()
        assert automata.strip_hairs(lone) is lone


class TestMemory:
    def test_ceiling_bytes_per_vertex_cover_the_peak(self):
        # the calibration of the memory ceiling: 30 rounds of ℤ², each with
        # its snapshot and partial Cayley graph; the last round's pair beside
        # the folder sets the peak, which is what `tc` pays at its last round:
        # 212 bytes per allocated vertex (Python 3.11), under the ceiling's 600
        tracemalloc.start()
        try:
            for folder in islice(coset_rounds(LATTICE), 30):
                pcg = partial_cayley(folder.snapshot())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        allocated = len(folder.parent)
        assert pcg.graph.num_vertices == 6421
        assert peak / allocated <= automata._BYTES_PER_VERTEX, (peak, allocated)


def single_edge():
    g = LabeledGraph(1, 2)
    g.add_edge(0, 0, 1)
    return g


def pendant_on_cycle():
    g = three_cycle()
    g.add_edge(1, 0, g.add_vertex())
    return g


def hair_chain():
    g = three_cycle()
    v = g.add_vertex()
    u = g.add_vertex()
    t = g.add_vertex()
    g.add_edge(0, 0, v)
    g.add_edge(v, 0, u)
    g.add_edge(u, 0, t)
    return g


class TestPartialCayley:
    def test_single_edge_collapses_to_origin(self):
        pcg = partial_cayley(Folder.of_graph(single_edge()).snapshot())
        assert pcg.graph.num_vertices == 1
        assert pcg.radius == 0

    def test_pendant_edge_on_cycle_is_ignored(self):
        pcg = partial_cayley(Folder.of_graph(pendant_on_cycle()).snapshot())
        assert canonical_form(pcg.graph) == canonical_form(fold(three_cycle())[0])
        assert pcg.radius == 1

    def test_hair_chains_removed_transitively(self):
        pcg = partial_cayley(Folder.of_graph(hair_chain()).snapshot())
        assert canonical_form(pcg.graph) == canonical_form(fold(three_cycle())[0])

    def test_order_numbers_the_graph_as_canonical_form_does(self):
        # the hand-built hair graphs, and free2, whose rounds strip down to
        # the origin
        snapshots = [Folder.of_graph(g()).snapshot() for g in (single_edge, pendant_on_cycle, hair_chain)]
        snapshots += [folder.snapshot() for folder in islice(coset_rounds(FREE2), 4)]
        for i, snapshot in enumerate(snapshots):
            pcg = partial_cayley(snapshot)
            number = {v: n for n, v in enumerate(pcg.order)}
            edges = tuple(sorted((number[v], g, number[t]) for v, g, t in pcg.graph.edges() if v in number))
            assert canonical_form(pcg.graph) == (len(pcg.order), edges), i
            assert automata.to_dot(pcg.graph, pcg.order) == automata.to_dot(pcg.graph), i
        assert pcg.order == (0,)


class TestDecisions:
    def test_cyclic_three_traces(self):
        pcg = partial_cayley(next(coset_rounds(Z3)).snapshot())
        assert accepts_reduced(pcg.graph, w("aaa", 1)) is True
        assert accepts_reduced(pcg.graph, w("a", 1)) is False
        assert accepts_reduced(pcg.graph, EMPTY) is True
        assert accepts_reduced(pcg.graph, w("aAaaa", 1)) is True  # reduction first

    def test_soundness_at_every_round(self):
        for p in (Z3, LATTICE):
            oracle = oracle_for(p)
            for i, folder in enumerate(islice(coset_rounds(p), 3), 1):
                pcg = partial_cayley(folder.snapshot())
                for u in filter(is_reduced, words_up_to(p.alphabet_size, 4)):
                    if accepts_reduced(pcg.graph, u):
                        assert oracle(u), (p, i, u)


class TestMonotone:
    """Both scans rely on their graphs only gaining words: each Λ_j and each
    coset round accepts every reduced word its predecessor accepts."""

    @staticmethod
    def assert_only_gain(sequence, count, n):
        for name, (p, _oracle) in GROUPS.items():
            words = list(filter(is_reduced, words_up_to(p.alphabet_size, n)))
            before = set()
            for i, folder in enumerate(islice(sequence(p), count)):
                graph = folder.snapshot()
                accepted = {u for u in words if accepts_reduced(graph, u)}
                assert before <= accepted, (name, i, sorted(before - accepted, key=len)[:3])
                before = accepted

    def test_loop_complexes_only_gain_words(self):
        self.assert_only_gain(loop_complexes, 4, 6)

    def test_coset_rounds_only_gain_words(self):
        self.assert_only_gain(coset_rounds, 4, 6)


class TestMeasureRadius:
    def test_cyclic_groups(self):
        column = measure_tc_radius(Z3, laid_out(Z3, 6, trivial_for(Z3, 6)))
        assert [(rounds, rad) for rounds, rad, _pcg in column] == [(1, 1)] * 7
        rounds, rad, _pcg = measure_tc_radius(Z2, laid_out(Z2, 4, trivial_for(Z2, 4)))[4]
        assert (rounds, rad) == (1, 1)

    def test_free_group_radius_zero(self):
        rounds, rad, pcg = measure_tc_radius(FREE2, laid_out(FREE2, 3, trivial_for(FREE2, 3)))[3]
        assert rounds == 1
        assert rad == 0
        assert pcg.graph.num_vertices == 1

    def test_lattice_small_lengths(self):
        _rounds, rad, pcg = measure_tc_radius(LATTICE, laid_out(LATTICE, 2, trivial_for(LATTICE, 2)))[2]
        assert rad >= 1
        ball = LabeledGraph(2, 5)
        ball.add_edge(0, 0, 1)
        ball.add_edge(2, 0, 0)
        ball.add_edge(0, 1, 3)
        ball.add_edge(4, 1, 0)
        assert canonical_form(restrict_to_radius(pcg.graph, 1)) == canonical_form(fold(ball)[0])

    def test_agreement_is_genuine(self):
        oracle = oracle_for(Z3)
        _rounds, _rad, pcg = measure_tc_radius(Z3, laid_out(Z3, 5, trivial_for(Z3, 5)))[5]
        for u in filter(is_reduced, words_up_to(2, 5)):
            assert accepts_reduced(pcg.graph, u) == oracle(u)

    def test_trivial_list_over_another_alphabet_is_refused(self):
        # both scans take their layers from the one layer builder, which
        # refuses a foreign letter in a word of any length, and skips a
        # word with a cancelling pair
        trivial = trivial_for(Z3, 4)
        for foreign in (w("bbbb"), w("aaabaa")):
            with pytest.raises(ValueError, match="outside the presentation's alphabet"):
                laid_out(Z3, 4, trivial + [foreign])
        assert laid_out(Z3, 4, [w("aAaA", 1)]) == [[], [], [], [], []]
        assert laid_out(Z3, 4, trivial) == [[b""], [], [], [w("aaa", 1), w("AAA", 1)], []]

    def test_words_past_n_max_are_skipped(self):
        trivial = trivial_for(Z3, 4)
        longer = trivial + [w("aaaaaa", 1)]
        assert laid_out(Z3, 4, longer) == laid_out(Z3, 4, trivial)
        assert (measure_isodiametric(Z3, laid_out(Z3, 4, longer))
                == measure_isodiametric(Z3, laid_out(Z3, 4, trivial)))
        assert ([hit[:2] for hit in measure_tc_radius(Z3, laid_out(Z3, 4, longer))]
                == [hit[:2] for hit in measure_tc_radius(Z3, laid_out(Z3, 4, trivial))])

    def test_scan_matches_the_deciding_definition(self):
        # The reference: among all reduced words of length ≤ n, the first
        # round whose partial Cayley graph accepts exactly the oracle's
        # trivial ones.  The scan checks only that the trivial ones are
        # accepted, since no round accepts a non-trivial word.
        # Graph i is round i + 1, tried at n only when i ≤ n.
        n_max = 6
        for name, (p, oracle) in GROUPS.items():
            verdicts = [(u, oracle(u)) for u in words_up_to(p.alphabet_size, n_max) if is_reduced(u)]
            # round i + 1 decides the words of length ≤ n when n < wrong[i]
            graphs, wrong = [], []
            for folder in islice(coset_rounds(p), n_max + 1):
                graphs.append(partial_cayley(folder.snapshot()))
                wrong.append(min((len(u) for u, trivial in verdicts
                                  if accepts_reduced(graphs[-1].graph, u) != trivial), default=n_max + 1))
                if wrong[-1] > n_max:
                    break  # this round decides every n, so no n reads a later one
            expected = []
            for n in range(n_max + 1):
                i = next((i for i in range(n + 1) if n < wrong[i]), None)
                expected.append(None if i is None else
                                (i + 1, graphs[i].radius, canonical_form(graphs[i].graph)))
            got = [None if hit is None else (hit[0], hit[1], canonical_form(hit[2].graph))
                   for hit in measure_tc_radius(p, laid_out(p, n_max, trivial_for(p, n_max, oracle)))]
            assert got == expected, name

    def test_hairs_are_stripped_only_from_reported_rounds(self, monkeypatch):
        # BS(1,3) at n = 6: round 2 is traced, misses layer 6 and is never
        # reported, so only rounds 1 and 3 lose their hairs
        stripped = []
        monkeypatch.setattr(toddcoxeter, "strip_hairs", lambda g: stripped.append(g) or automata.strip_hairs(g))
        p, oracle = BS13
        column = measure_tc_radius(p, laid_out(p, 6, trivial_for(p, 6, oracle)))
        assert [rounds for rounds, _rad, _pcg in column] == [1] * 6 + [3]
        assert len(stripped) == 2

    def test_scan_traces_only_the_reduced_trivial_words(self, monkeypatch):
        # zxz at n = 8: the trivial list holds 5,341 words, 361 of them
        # reduced; layers 4, 6 and 8 are traced twice, on the round that
        # misses each and on the next, the others once (the parent: 27,860)
        p = parse_presentation(Path(ZXZ).read_text(encoding="utf-8"))
        traced = []
        untraced = _kernels.trace_batch
        monkeypatch.setattr(_kernels, "trace_batch",
                            lambda delta, start, words: traced.extend(words) or untraced(delta, start, words))
        column = measure_tc_radius(p, laid_out(p, 8, ReferenceOracle.free_abelian(2).trivial_words(8)))
        assert [(rounds, rad) for rounds, rad, _pcg in column][-1] == (4, 12)
        assert len(traced) == 721

    def test_nontermination_guard(self, monkeypatch):
        # a list that lies: no round accepts a letter, and the scan stops at
        # round n_max + 1 instead of growing the free group's tree forever
        n_max, every_word = 2, list(words_up_to(4, 2))
        calls = []
        untimed = toddcoxeter.tc_round
        monkeypatch.setattr(toddcoxeter, "tc_round", lambda *args: calls.append(args) or untimed(*args))
        column = measure_tc_radius(FREE2, laid_out(FREE2, n_max, every_word))
        assert column[0][:2] == (1, 0)  # the empty word is decided at once
        assert column[1:] == [None, None]
        assert len(calls) <= n_max + 1


class TestProvedRelations:
    """rounds(n) ≤ max(d(n), 1): after round i ≥ 1 every word of length ≤ i
    traces from the origin and every relator closes at its tip, so the
    round-i graph accepts what Λ_i accepts.  ρ_TC(n) ≤ (1 + ⌊ℓ/2⌋)·rounds(n)
    for ℓ the longest relator: a round adds one edge layer, then loops whose
    new vertices lie within ⌊ℓ/2⌋ of their base, and neither folding nor
    stripping hairs lengthens a distance to the core."""

    @pytest.mark.parametrize("p, oracle, n_max", [
        (Z2, ReferenceOracle.cyclic(2), 8),
        (Z3, ReferenceOracle.cyclic(3), 8),
        (LATTICE, ReferenceOracle.free_abelian(2), 8),
        (FREE2, ReferenceOracle.free(2), 6),
        *((p, ReferenceOracle.rewrite_search(RewriteSystem(p), SearchBudget(max_word_length=8)), 5) for p in [
            BS12[0],
            BS13[0],
            Presentation(3, [w("abABC", 3), w("acAC", 3), w("bcBC", 3)]),
            Presentation(2, [w("aa"), w("bb"), w("abab")]),
            Presentation(2, [w("aa"), w("bbb"), w("abab")]),
            Presentation(2, [w("aab"), w("abA")]),
            Presentation(1, [w("aaaa", 1), w("aaaaaa", 1)]),
        ]),
    ], ids=["Z/2", "Z/3", "Z^2", "F_2"] + [f"{name}-rewrite:8" for name in [
        "BS(1,2)", "BS(1,3)", "Heisenberg", "Klein", "S_3", "<a,b|aab,abA>", "<a|a^4,a^6>"]])
    def test_rounds_and_radius_within_the_diameter(self, p, oracle, n_max):
        layers = laid_out(p, n_max, oracle.trivial_words(n_max))
        longest = max(map(len, p.relators), default=0)
        diameters = measure_isodiametric(p, layers)
        for n, (d, hit) in enumerate(zip(diameters, measure_tc_radius(p, layers))):
            # every d cell here is Exact, and the ρ_TC scan, which tries
            # rounds ≤ n + 1, reaches every n that d reaches
            assert d.exact and hit is not None, n
            rounds, radius, _pcg = hit
            assert rounds <= max(d.value, 1), n
            assert radius <= (1 + longest // 2) * max(d.value, 1), n
