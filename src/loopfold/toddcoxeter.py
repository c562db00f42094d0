"""Round-based coset saturation producing partial Cayley graphs.

Starting from a single origin vertex, each round (1) gives every existing
vertex a full set of outgoing and incoming generator edges, growing fresh
vertices where edges are missing, and (2) folds in a relator cycle at every
vertex where the relator does not already trace a loop.  The folded graph
with all hairs removed is a partial Cayley graph: its origin loops decide
triviality soundly at every round, and completely for words up to a length
that grows with the rounds.  The radius of the first partial Cayley graph
whose decisions agree with a reference oracle on all words of length up to
``n`` is the saturation radius at ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import _kernels
from .core import Presentation, Word, words_up_to
from .automata import (
    Folder,
    FoldedGraph,
    accepts_reduced,
    radius as graph_radius,
    strip_hairs,
)


@dataclass(frozen=True, eq=False)
class TcState:
    """A presentation's coset graph after ``round`` rounds.

    Every class holding a vertex below ``settled`` is complete and closes
    every relator.  Folding only merges classes and never removes an edge,
    so such a class stays complete and closed in every later round, and so
    does any class rooted below ``settled``, a root being its class's least
    member.  The default 0 claims nothing: a hand-made state is checked in
    full."""

    presentation: Presentation
    folder: Folder  # owned by this state: a round advances a copy
    round: int
    settled: int = 0

    @classmethod
    def initial(cls, p: Presentation) -> "TcState":
        return cls(p, Folder(p.num_generators), 0)

    @cached_property
    def graph(self) -> FoldedGraph:
        """The round's folded graph, its classes numbered by least member."""
        return self.folder.snapshot()


@dataclass(frozen=True, eq=False)
class PartialCayleyGraph:
    graph: FoldedGraph  # hair-free

    @cached_property
    def radius(self) -> int:
        return graph_radius(self.graph)


def tc_round(s: TcState) -> TcState:
    """One saturation round: complete edges, attach missing relator loops,
    folding as they go.  Edge completion covers the vertices present when
    the round starts; loop guards are evaluated on the graph as it stands
    after completion, before any new loop is attached.

    Afterwards every class holding a vertex present when the round started
    is complete and closes every relator: completion and the attached loops
    saw to its root, or, for a root below ``s.settled``, an earlier round
    did.  Folding keeps both, so the next state is settled below the
    round's starting vertex count.  The roots below ``s.settled`` need no
    edge and no loop, so the round completes and traces only the roots from
    there on: it costs what the previous round added, and builds the graph
    that checking every root would.
    """
    p = s.presentation
    f = s.folder.copy()
    f.what = f"coset round {s.round + 1}"
    f.complete(s.settled)
    need = [(v, r) for v in f.vertices(s.settled) for r in p.relators if f.trace(v, r) != v]
    for v, r in need:
        f.add_loop(v, r)
    return TcState(p, f, s.round + 1, len(s.folder.parent))


def partial_cayley(s: TcState) -> PartialCayleyGraph:
    """Strip hairs (iteratively) from the round's folded graph."""
    if s.round < 1:
        raise ValueError("run at least one round first")
    return PartialCayleyGraph(strip_hairs(s.graph))


def tc_decides(g: PartialCayleyGraph, w: Word) -> bool:
    """Trace ``red(w)`` on the partial Cayley graph; True means trivial.

    Sound at every round; complete only once enough rounds have run for
    ``|w|`` (see :func:`measure_tc_radius`)."""
    return accepts_reduced(g.graph, w)


def measure_tc_radius(
    p: Presentation,
    n_max: int,
    trivial: list[Word],
    max_rounds: int = 24,
) -> list[tuple[int, int, PartialCayleyGraph] | None]:
    """Entry ``n`` (0 ≤ n ≤ n_max) is (rounds, radius, graph) for the first
    round whose partial Cayley graph decides every word of length ≤ ``n``
    the way ``trivial``, the oracle's list of trivial words of length ≤
    n_max, does, or None when ``max_rounds`` rounds do not reach such a
    graph.

    Triviality is invariant under free reduction on both sides, so agreement
    is checked on reduced words only: a round must accept the reduced words
    on the list and no other.  One run of rounds serves every n.

    The list must hold its reduced words in the order of
    :func:`~loopfold.core.words_up_to`, shortest first and lexicographic in
    codes within a length, each once, as the oracle lists them: one merge
    walk beside the enumeration marks them.  A list out of that order
    raises ValueError.
    """
    listed = (u.codes for u in trivial if len(u) <= n_max and u.is_reduced())
    nxt = next(listed, None)
    layers: list[tuple[list[bytes], list[bool]]] = [([], []) for _ in range(n_max + 1)]
    for u in words_up_to(p.alphabet_size, n_max, reduced=True):
        codes = u.codes
        words, verdicts = layers[len(codes)]
        words.append(codes)
        verdicts.append(codes == nxt)
        if codes == nxt:
            nxt = next(listed, None)
    if nxt is not None:  # the walk passed it by
        raise ValueError("trivial words must be listed shortest first, lexicographic "
                         "within a length, each once, over the presentation's alphabet")

    def rounds():
        state = TcState.initial(p)
        while True:
            state = tc_round(state)
            yield partial_cayley(state).graph

    hits = _kernels.first_deciding(rounds(), layers, [max_rounds - 1] * (n_max + 1))
    pcgs = {i: PartialCayleyGraph(g) for i, g in filter(None, hits)}
    return [None if hit is None else (hit[0] + 1, pcgs[hit[0]].radius, pcgs[hit[0]]) for hit in hits]
