import hashlib
import itertools
import random

import pytest

from loopfold.automata import (
    EmptyRelatorSet,
    Folder,
    LabeledGraph,
    MemoryCeilingError,
    accepts_reduced,
    build_loop_complex,
    build_tree_nfa,
    canonical_form,
    breadth_first,
    decide_word_problem,
    fold,
    nfa_accepts,
    radius,
    restrict_to_radius,
    strip_hairs,
    to_dot,
    trace,
)
from loopfold.core import EMPTY, Presentation, inverse, is_reduced, parse_word, reduce_codes, words_up_to

Z2 = Presentation(1, [parse_word("aa", 1)])
Z3 = Presentation(1, [parse_word("aaa", 1)])
LATTICE = Presentation(2, [parse_word("abAB", 2)])
FREE2 = Presentation(2, [])

TRIVIAL_ORACLES = {
    id(Z2): lambda u: sum(1 if c == 0 else -1 for c in u) % 2 == 0,
    id(Z3): lambda u: sum(1 if c == 0 else -1 for c in u) % 3 == 0,
    id(LATTICE): lambda u: sum(1 if c == 0 else -1 for c in u if c < 2) == 0
    and sum(1 if c == 2 else -1 for c in u if c >= 2) == 0,
}


# sha256 (first 16 hex digits) of (vertex count, origin, edges) of the tree
# automaton at radius 0 … 4, taken from a build that indexed tree vertices by
# their words; vertex numbering is part of the pin
TREE_NFA_PINS = {
    "zxz": ["954af2b9443bb943", "21df191f9e0c6f3b", "4090e0568b6239b3", "0758dec55a4e0a9f", "e8b5f31c2884efc3"],
    "z2": ["7a8e8db7918b8886", "5510ecd62de0a164", "955feb42b3f7b6e1", "ab8ccac0d8dd44ad", "54e55c31be7742b9"],
    "z3": ["9c2f2d9e6d79cf5f", "e047dbb624226cfb", "342f1023190cb016", "d97e2bfcf827ae1f", "64a6967458f0c021"],
}


def w(text, n=2):
    return parse_word(text, n)


def wedge(p, j):
    """The unfolded loop complex: one fresh path reading ``u`` with a fresh
    ``r``-cycle at its tip per pair of a relator ``r`` and a reduced word
    ``u`` with ``|u| ≤ j``; distinct pairs share only the origin."""
    g = LabeledGraph(p.num_generators)
    for u in filter(is_reduced, words_up_to(p.alphabet_size, j)):
        for r in p.relators:
            g.add_loop(g.add_path(g.origin, u), r)
    return g


def folded(graph):
    return fold(graph)[0]


def assert_folded(graph):
    """``delta`` stores every edge both ways: the rows of a letter and of
    its inverse are partial inverse maps, so no vertex has two same-label
    out-edges or in-edges."""
    n = graph.num_vertices
    for code, row in enumerate(graph.delta):
        assert len(row) == n
        back = graph.delta[code ^ 1]
        for v, t in enumerate(row):
            assert -1 <= t < n
            assert t < 0 or back[t] == v, (code, v, t)


def relabeled(graph, perm):
    g2 = LabeledGraph(graph.num_generators, graph.num_vertices, origin=perm[graph.origin])
    for src, g, dst in graph.edges():
        g2.add_edge(perm[src], g, perm[dst])
    return g2


class TestConstruction:
    def test_loop_complex_sizes_order_two(self):
        assert wedge(Z2, 0).num_vertices == 2
        assert wedge(Z2, 1).num_vertices == 6

    def test_loop_complex_size_formula(self):
        rng = random.Random(41)
        for _ in range(20):
            gens = rng.choice([1, 2])
            rels = []
            for _ in range(rng.randrange(1, 3)):
                word = reduce_codes(bytes(rng.randrange(2 * gens) for _ in range(rng.randrange(2, 5))))
                if len(word):
                    rels.append(word)
            if not rels:
                continue
            p = Presentation(gens, rels)
            j = rng.randrange(0, 3)
            g = wedge(p, j)
            k = p.alphabet_size
            sizes = [1] + [k * (k - 1) ** (i - 1) for i in range(1, j + 1)]
            expected = 1 + sum(
                n_k * (p.relator_total_length - len(p.relators) + i * len(p.relators))
                for i, n_k in enumerate(sizes)
            )
            assert g.num_vertices == expected
            # provable form of the size bound: per-pair cost is at most
            # ||R|| + |R|*j, with one path-plus-loop per reduced word
            assert g.num_vertices <= 1 + (p.relator_total_length + len(p.relators) * j) * sum(sizes)

    def test_loop_complex_of_free_group_is_a_point(self):
        g = build_loop_complex(FREE2, 3)
        assert g.num_vertices == 1
        assert g.edges() == []

    def test_tree_nfa_sizes(self):
        assert build_tree_nfa(Z2, 0).num_vertices == 2
        assert build_tree_nfa(LATTICE, 1).num_vertices == 20

    def test_tree_nfa_size_bound(self):
        for p, j in [(Z2, 2), (Z3, 3), (LATTICE, 2)]:
            g = build_tree_nfa(p, j)
            k = p.alphabet_size
            ball = 1 + sum(k * (k - 1) ** (i - 1) for i in range(1, j + 1))
            assert g.num_vertices == ball * (1 + p.relator_total_length - len(p.relators))
            assert g.num_vertices <= p.relator_total_length * ball

    @pytest.mark.parametrize("name,p", [("zxz", LATTICE), ("z2", Z2), ("z3", Z3)])
    def test_tree_nfa_matches_pins(self, name, p):
        def digest(g):
            return hashlib.sha256(repr((g.num_vertices, g.origin, g.edges())).encode()).hexdigest()[:16]

        assert [digest(build_tree_nfa(p, j)) for j in range(5)] == TREE_NFA_PINS[name]

    def test_tree_nfa_needs_relators(self):
        with pytest.raises(EmptyRelatorSet):
            build_tree_nfa(FREE2, 1)

    def test_memory_ceiling(self, monkeypatch):
        monkeypatch.setenv("FILLINGS_MEM_CEILING_MB", "0.001")
        with pytest.raises(MemoryCeilingError):
            build_loop_complex(LATTICE, 2)
        with pytest.raises(MemoryCeilingError):
            build_tree_nfa(LATTICE, 2)

    def test_unbounded_ceiling(self, monkeypatch):
        expected = build_loop_complex(LATTICE, 2)
        monkeypatch.setenv("FILLINGS_MEM_CEILING_MB", "inf")
        unbounded = build_loop_complex(LATTICE, 2)
        assert_folded(unbounded)
        assert (unbounded.origin, unbounded.edges()) == (expected.origin, expected.edges())


class TestFold:
    def test_single_fold_example(self):
        g = LabeledGraph(1, 3)
        g.add_edge(0, 0, 1)
        g.add_edge(0, 0, 2)
        folded, vmap = fold(g)
        assert folded.num_vertices == 2
        assert vmap[1] == vmap[2]

    def test_fixpoint_on_folded_graph(self):
        g = LabeledGraph(1, 2)
        g.add_edge(0, 0, 1)
        g.add_edge(1, 0, 0)
        graph, vertex_map = fold(g)
        assert (graph.num_vertices, graph.edges(), vertex_map) == (2, g.edges(), [0, 1])
        complex_ = build_loop_complex(LATTICE, 2)
        graph, vertex_map = fold(relabeled(complex_, list(range(complex_.num_vertices))))
        assert vertex_map == list(range(complex_.num_vertices))
        assert (graph.origin, graph.edges()) == (complex_.origin, complex_.edges())

    def test_fold_loop_complex_order_two(self):
        complex_ = build_loop_complex(Z2, 1)
        # the 2-cycle: Cayley graph of the order-two group
        expected = LabeledGraph(1, 2)
        expected.add_edge(0, 0, 1)
        expected.add_edge(1, 0, 0)
        assert canonical_form(complex_) == canonical_form(folded(expected))

    def test_folded_graphs_are_deterministic(self):
        for p, j in [(Z2, 2), (Z3, 2), (LATTICE, 1)]:
            assert_folded(build_loop_complex(p, j))
            assert_folded(folded(build_tree_nfa(p, j)))

    def test_confluence_under_relabeling(self):
        rng = random.Random(42)
        base = build_tree_nfa(LATTICE, 1)
        reference = canonical_form(fold(base)[0])
        for _ in range(10):
            perm = list(range(base.num_vertices))
            rng.shuffle(perm)
            shuffled = relabeled(base, perm)
            assert canonical_form(fold(shuffled)[0]) == reference

    def test_fold_of_tree_and_loop_complex_agree(self):
        for p in (Z2, Z3, LATTICE):
            for j in range(3):
                a = canonical_form(build_loop_complex(p, j))
                b = canonical_form(fold(build_tree_nfa(p, j))[0])
                assert a == b, (p, j)

    def test_vertex_map_preserves_edges_and_origin(self):
        g = build_tree_nfa(Z3, 1)
        graph, vmap = fold(g)
        assert graph.origin == vmap[g.origin]
        for src, gen, dst in g.edges():
            assert graph.delta[2 * gen][vmap[src]] == vmap[dst]

    def test_online_folding_matches_folding_the_wedge(self):
        rng = random.Random(45)
        cases = [(Z2, 2), (Z3, 2), (LATTICE, 2)]
        while len(cases) < 20:  # relators need not be cyclically reduced
            gens = rng.choice([1, 2])
            rels = [reduce_codes(bytes(rng.randrange(2 * gens) for _ in range(rng.randrange(1, 6))))
                    for _ in range(rng.randrange(1, 3))]
            if all(len(r) for r in rels):
                cases.append((Presentation(gens, rels), rng.randrange(0, 3)))
        for p, j in cases:
            online = build_loop_complex(p, j)
            whole, _ = fold(wedge(p, j))
            assert (online.num_vertices, online.origin, online.edges()) == (
                whole.num_vertices, whole.origin, whole.edges()), (p, j)

    def test_folder_allocates_only_missing_vertices(self):
        folder = Folder(2, 2)
        folder.add_edge(1, 1, 0)  # 1 --b--> 0
        folder.add_loop(0, w("ab"))  # closes onto the b-edge: one new a-edge 0 --a--> 1
        assert len(folder.parent) == 2
        folder.add_loop(1, w("ba"))  # traces already
        folder.step(folder.step(0, 0), 0)  # a fresh tip only for the second a
        assert len(folder.parent) == 3
        assert folder.snapshot().edges() == [(0, 0, 1), (1, 0, 2), (1, 1, 0)]


class TestAcceptance:
    def test_folded_examples_order_two(self):
        dfa = build_loop_complex(Z2, 0)
        assert accepts_reduced(dfa, w("aaaa", 1)) is True
        assert accepts_reduced(dfa, w("a", 1)) is False
        assert accepts_reduced(dfa, EMPTY) is True
        assert accepts_reduced(dfa, w("aA", 1)) is True  # reduces to empty

    def test_tree_language_radius_zero_order_two(self):
        nfa = build_tree_nfa(Z2, 0)
        for u in [bytes(cs) for n in range(7) for cs in itertools.product(range(2), repeat=n)]:
            assert nfa_accepts(nfa, u) == (len(u) % 2 == 0)

    def test_sampled_loop_words_are_sound(self):
        rng = random.Random(43)
        for p in (Z2, Z3, LATTICE):
            oracle = TRIVIAL_ORACLES[id(p)]
            complex_ = wedge(p, 2)
            dfa = build_loop_complex(p, 2)
            conjugators = list(filter(is_reduced, words_up_to(p.alphabet_size, 2)))
            for _ in range(40):
                parts = []
                for _ in range(rng.randrange(1, 4)):
                    u = rng.choice(conjugators)
                    r = rng.choice(p.relators)
                    core = r if rng.random() < 0.5 else inverse(r)
                    parts.append(u + core + inverse(u))
                z = b"".join(parts)
                assert nfa_accepts(complex_, z)
                assert accepts_reduced(dfa, z)
                assert oracle(z)

    def test_folded_acceptance_soundness_exhaustive(self):
        for p in (Z2, Z3, LATTICE):
            oracle = TRIVIAL_ORACLES[id(p)]
            for j in range(3):
                dfa = build_loop_complex(p, j)
                for u in filter(is_reduced, words_up_to(p.alphabet_size, 6)):
                    if accepts_reduced(dfa, u):
                        assert oracle(u), (p, j, u)

    def test_folded_acceptance_monotone_in_radius(self):
        for p in (Z2, Z3, LATTICE):
            dfas = [build_loop_complex(p, j) for j in range(3)]
            for u in filter(is_reduced, words_up_to(p.alphabet_size, 5)):
                accepted = [accepts_reduced(d, u) for d in dfas]
                for lo, hi in zip(accepted, accepted[1:]):
                    assert not (lo and not hi), (p, u)

    def test_decide_word_problem_examples(self):
        assert decide_word_problem(Z2, w("aaaa", 1), 0) is True
        for j in range(4):
            assert decide_word_problem(Z2, w("a", 1), j) is False
        assert decide_word_problem(LATTICE, w("abAB"), 1) is True
        assert decide_word_problem(FREE2, w("abBA"), 2) is True
        assert decide_word_problem(FREE2, w("ab"), 2) is False


class TestEarlyAnswer:
    BS12 = Presentation(2, [parse_word("abABB", 2)])

    @pytest.mark.parametrize("p", [LATTICE, Z3, BS12], ids=["zxz", "z3", "bs12"])
    def test_answer_is_acceptance_by_the_whole_complex(self, p):
        # random words, and random trivial ones: products of conjugated
        # relators, most of them accepted below the largest radius
        rng = random.Random(37)
        k = p.alphabet_size
        complexes = [build_loop_complex(p, j) for j in range(8)]
        words = [bytes(rng.randrange(k) for _ in range(rng.randint(0, 10))) for _ in range(40)]
        for _ in range(40):
            y = bytes(rng.randrange(k) for _ in range(rng.randint(0, 4)))
            r = rng.choice(p.relators)
            words.append(y + r + inverse(y))
        for u in words:
            for j, dfa in enumerate(complexes):
                assert decide_word_problem(p, u, j) == accepts_reduced(dfa, u), (p, u, j)

    def test_an_accepted_word_draws_no_complex_past_its_radius(self, monkeypatch):
        from loopfold import automata

        drawn = []
        complexes = automata.loop_complexes

        def counting(p):
            for radius, folder in enumerate(complexes(p)):
                drawn.append(radius)
                yield folder

        monkeypatch.setattr(automata, "loop_complexes", counting)
        conjugate = w("baabABAB")  # ba·abAB·(ba)⁻¹, accepted from radius 2 on
        for word, j, radii in ((w("abAB"), 7, [0]), (conjugate, 7, [0, 1, 2]), (conjugate, 1, [0, 1]),
                               (w("ab"), 3, [0, 1, 2, 3])):
            drawn.clear()
            decide_word_problem(LATTICE, word, j)
            assert drawn == radii, (word, j)
        assert decide_word_problem(LATTICE, conjugate, 2) and not decide_word_problem(LATTICE, conjugate, 1)


class TestGraphAnalysis:
    def test_trace_follows_in_edges_backwards(self):
        g = LabeledGraph(1, 2)
        g.add_edge(0, 0, 1)
        g = folded(g)
        assert trace(g, w("a", 1)) == 1
        assert trace(g, w("A", 1), start=1) == 0
        assert trace(g, w("A", 1)) is None

    def test_canonical_form_is_renumbering_invariant(self):
        rng = random.Random(44)
        base = folded(build_tree_nfa(Z3, 2))
        reference = canonical_form(base)
        for _ in range(8):
            perm = list(range(base.num_vertices))
            rng.shuffle(perm)
            assert canonical_form(folded(relabeled(base, perm))) == reference

    def test_canonical_form_meets_its_edges_sorted(self):
        # the edges come in search order without a sort; a shuffled
        # numbering and a second component keep that order from being free
        rng = random.Random(45)
        base = build_loop_complex(LATTICE, 2)
        for _ in range(4):
            perm = list(range(base.num_vertices))
            rng.shuffle(perm)
            g = relabeled(base, perm)
            g.add_edge(g.add_vertex(), 1, g.add_vertex())
            graph = folded(g)
            number = {v: i for i, v in enumerate(breadth_first(graph)[0])}
            edges = sorted((number[v], gen, number[t]) for v, gen, t in graph.edges() if v in number)
            assert canonical_form(graph) == (base.num_vertices, tuple(edges))

    def test_canonical_form_separates_cycles(self):
        two = LabeledGraph(1, 2)
        two.add_edge(0, 0, 1)
        two.add_edge(1, 0, 0)
        three = LabeledGraph(1, 3)
        three.add_edge(0, 0, 1)
        three.add_edge(1, 0, 2)
        three.add_edge(2, 0, 0)
        assert canonical_form(folded(two)) != canonical_form(folded(three))

    def test_folded_delta_reads_edges_both_ways(self):
        g = LabeledGraph(2, 3)
        g.add_edge(0, 0, 1)
        g.add_edge(1, 1, 2)
        assert folded(g).delta == [[1, -1, -1], [-1, 0, -1], [-1, 2, -1], [-1, -1, 1]]

    def test_distances_and_radius(self):
        g = LabeledGraph(1, 4)
        for i in range(3):
            g.add_edge(i, 0, i + 1)
        g = folded(g)
        assert breadth_first(g) == ([0, 1, 2, 3], [0, 1, 2, 3])
        assert radius(g) == 3

    def test_restrict_to_radius(self):
        g = LabeledGraph(1, 4)
        for i in range(3):
            g.add_edge(i, 0, i + 1)
        sub = restrict_to_radius(folded(g), 1)
        assert sub.num_vertices == 2
        assert sub.edges() == [(0, 0, 1)]

    def test_strip_hairs_removes_dangling_path(self):
        g = LabeledGraph(2, 5)
        g.add_edge(0, 0, 1)
        g.add_edge(1, 0, 0)  # 2-cycle at origin
        g.add_edge(1, 1, 2)  # hair chain 1 -> 2 -> 3 -> 4
        g.add_edge(2, 1, 3)
        g.add_edge(3, 1, 4)
        g = folded(g)
        stripped = strip_hairs(g)
        assert stripped.num_vertices == 2
        assert canonical_form(stripped) == canonical_form(restrict_to_radius(g, 1))

    def test_strip_hairs_keeps_origin(self):
        g = LabeledGraph(1, 2)
        g.add_edge(0, 0, 1)
        stripped = strip_hairs(folded(g))
        assert stripped.num_vertices == 1
        assert stripped.origin == 0
        assert stripped.edges() == []

    def test_strip_hairs_keeps_faces_on_survivors(self):
        g = LabeledGraph(2, 2)
        g.add_loop(0, w("aa"))
        g.add_edge(0, 1, 1)  # hair off the loop
        stripped = strip_hairs(folded(g))
        assert stripped.edges() == [(0, 0, 1), (1, 0, 0)]  # the aa-cycle, without the hair
        assert stripped.num_vertices == 2

    def test_dot_export_is_deterministic(self):
        a = to_dot(build_loop_complex(Z3, 1))
        b = to_dot(build_loop_complex(Z3, 1))
        assert a == b
        assert "doublecircle" in a
        assert a.endswith("}\n")
