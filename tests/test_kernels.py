import itertools

from loopfold import _kernels
from loopfold._kernels import first_deciding, trace_batch
from loopfold.automata import FoldedGraph
from loopfold.core import Word, words_up_to


def test_trace_batch_walks_table():
    # two-state automaton: letter 0 swaps the states, letter 1 is undefined at 1
    delta = [[1, 0], [0, -1]]
    words = [bytes(u) for u in [[], [0], [0, 0], [1], [0, 1], [1, 1, 0]]]
    assert trace_batch(delta, 0, words) == [0, 1, 0, 0, -1, 1]


def test_trace_batch_dead_state_sticks():
    delta = [[-1, -1]]
    assert trace_batch(delta, 1, [bytes([0, 0, 0])]) == [-1]


# Over one generator (codes 0 = a, 1 = A), a chain in which each graph
# accepts every word its predecessor accepts, as the scans' graphs do: no
# edge, the two-cycle of Z/2, a loop, and a second loop that no scan below
# should draw.
EMPTY_GRAPH = FoldedGraph(1, 0, [[-1], [-1]])
TWO_CYCLE = FoldedGraph(1, 0, [[1, 0], [1, 0]])
LOOP = FoldedGraph(1, 0, [[0], [0]])
LATE_LOOP = FoldedGraph(1, 0, [[0], [0]])
GRAPHS = {"empty": EMPTY_GRAPH, "cycle": TWO_CYCLE, "loop": LOOP, "late": LATE_LOOP}
NAMES = {id(g.delta): name for name, g in GRAPHS.items()}  # a graph's name by its table

# Words to accept, by length: the empty graph accepts layers 0 and 1, the
# two-cycle also layer 2, and only the loop layer 3.
LAYERS = [[b""], [], [b"\x00\x00", b"\x01\x01"], [b"\x00\x00\x00"]]


def scan(limits, monkeypatch):
    """Run the scan over the four graphs; returns its column by graph name,
    the graphs drawn, and every traced batch as (graph, layer index)."""
    drawn, batches = [], []

    def graphs():
        for name, g in GRAPHS.items():
            drawn.append(name)
            yield g

    def traced(delta, start, words):
        batches.append((NAMES[id(delta)], next(m for m, layer in enumerate(LAYERS) if layer is words)))
        return trace_batch(delta, start, words)

    monkeypatch.setattr(_kernels, "trace_batch", traced)
    column = first_deciding(graphs(), LAYERS, limits)
    return [None if hit is None else (hit[0], NAMES[id(hit[1].delta)]) for hit in column], drawn, batches


def test_first_deciding_never_retraces_an_accepted_layer(monkeypatch):
    # The empty graph accepts layers 0 and 1 and misses aa; the two-cycle
    # is tried from layer 2 on, the one the empty graph missed, and the
    # loop from layer 3 on.
    column, drawn, batches = scan([5] * 4, monkeypatch)
    assert column == [(0, "empty"), (0, "empty"), (1, "cycle"), (2, "loop")]
    assert drawn == ["empty", "cycle", "loop"]
    assert batches == [
        ("empty", 0), ("empty", 1), ("empty", 2),
        ("cycle", 2), ("cycle", 3),
        ("loop", 3),
    ]


def test_first_deciding_never_reports_a_missed_graph(monkeypatch):
    # At n = 2 the limit stops the scan after the empty graph missed; at
    # n = 3 the scan resumes with the next graph, from the layer the empty
    # graph missed, and never goes back to it.
    column, drawn, batches = scan([0, 0, 0, 2], monkeypatch)
    assert column == [(0, "empty"), (0, "empty"), None, (2, "loop")]
    assert drawn == ["empty", "cycle", "loop"]
    assert batches == [
        ("empty", 0), ("empty", 1), ("empty", 2),
        ("cycle", 2), ("cycle", 3),
        ("loop", 3),
    ]


def test_first_deciding_draws_nothing_below_limit_zero():
    drawn = []

    def graphs():
        drawn.append(EMPTY_GRAPH)
        yield EMPTY_GRAPH

    assert first_deciding(graphs(), LAYERS[:2], [-1, -1]) == [None, None]
    assert drawn == []


def of_length(k, L, reduced):
    return [u.codes for u in words_up_to(k, L, reduced=reduced) if len(u) == L]


def test_enumerate_all_words_counts():
    for k, L in [(2, 0), (2, 3), (4, 4), (3, 2)]:
        rows = of_length(k, L, reduced=False)
        assert len(rows) == k**L
        assert len(set(rows)) == len(rows)
        assert rows == sorted(rows)


def test_enumerate_reduced_words_counts():
    for k, L in [(2, 1), (2, 4), (4, 3), (6, 2)]:
        rows = of_length(k, L, reduced=True)
        assert len(rows) == k * (k - 1) ** (L - 1)
        assert rows == sorted(rows)
        assert all(Word(row).is_reduced() for row in rows)


def test_enumerate_reduced_is_filter_of_all():
    every = [u for u in words_up_to(4, 4, reduced=False) if u.is_reduced()]
    assert every == list(words_up_to(4, 4, reduced=True))


def test_enumeration_is_shortest_first():
    lengths = [len(u) for u in words_up_to(4, 4, reduced=False)]
    assert lengths == sorted(lengths)
    assert len(lengths) == sum(4**L for L in range(5))


def test_enumeration_matches_a_product_listing():
    for k, n, min_length in [(1, 4, 0), (2, 5, 2), (3, 4, 1), (4, 3, 3), (4, 2, 3)]:
        for reduced in (False, True):
            expected = [bytes(t) for L in range(min_length, n + 1)
                        for t in itertools.product(range(k), repeat=L)]
            if reduced:
                expected = [u for u in expected if Word(u).is_reduced()]
            got = [u.codes for u in words_up_to(k, n, reduced=reduced, min_length=min_length)]
            assert got == expected, (k, n, min_length, reduced)
