from loopfold import _kernels
from loopfold._kernels import first_deciding, trace_batch
from loopfold.automata import FoldedGraph
from loopfold.core import words_up_to


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

# A single letter at n = 1, which neither the empty graph (graph 0) nor the
# two-cycle (graph 1) accepts: no graph i ≤ 1 decides it.
ODD_LAYERS = [[b""], [b"\x00"], [b"\x00\x00"], [b"\x01\x01\x01"]]


def scan(layers, monkeypatch):
    """Run the scan over the four graphs; returns its column by graph name,
    the graphs drawn, and every traced batch as (graph, layer index)."""
    drawn, batches = [], []

    def graphs():
        for name, g in GRAPHS.items():
            drawn.append(name)
            yield g

    def traced(delta, start, words):
        batches.append((NAMES[id(delta)], next(m for m, layer in enumerate(layers) if layer is words)))
        return trace_batch(delta, start, words)

    monkeypatch.setattr(_kernels, "trace_batch", traced)
    column = first_deciding(graphs(), layers)
    return [None if hit is None else (hit[0], NAMES[id(hit[1].delta)]) for hit in column], drawn, batches


def test_first_deciding_never_retraces_an_accepted_layer(monkeypatch):
    # The empty graph accepts layers 0 and 1 and misses aa; the two-cycle
    # is tried from layer 2 on, the one the empty graph missed, and the
    # loop from layer 3 on.  Each graph i decides at some n ≥ i.
    column, drawn, batches = scan(LAYERS, monkeypatch)
    assert column == [(0, "empty"), (0, "empty"), (1, "cycle"), (2, "loop")]
    assert drawn == ["empty", "cycle", "loop"]
    assert batches == [
        ("empty", 0), ("empty", 1), ("empty", 2),
        ("cycle", 2), ("cycle", 3),
        ("loop", 3),
    ]


def test_first_deciding_never_reports_a_missed_graph(monkeypatch):
    # At n = 1 both graphs i ≤ 1 miss the letter a, so the entry is None;
    # at n = 2 the scan resumes with graph 2, from the layer the two-cycle
    # missed, and never goes back to an earlier graph.
    column, drawn, batches = scan(ODD_LAYERS, monkeypatch)
    assert column == [(0, "empty"), None, (2, "loop"), (2, "loop")]
    assert drawn == ["empty", "cycle", "loop"]
    assert batches == [
        ("empty", 0), ("empty", 1),
        ("cycle", 1),
        ("loop", 1), ("loop", 2), ("loop", 3),
    ]


def of_length(k, L):
    return [u.codes for u in words_up_to(k, L) if len(u) == L]


def test_enumerate_all_words_counts():
    for k, L in [(2, 0), (2, 3), (4, 4), (3, 2)]:
        rows = of_length(k, L)
        assert len(rows) == k**L
        assert len(set(rows)) == len(rows)
        assert rows == sorted(rows)


def test_enumeration_is_shortest_first():
    lengths = [len(u) for u in words_up_to(4, 4)]
    assert lengths == sorted(lengths)
    assert len(lengths) == sum(4**L for L in range(5))
