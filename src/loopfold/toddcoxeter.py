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
from typing import Callable

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
    presentation: Presentation
    folder: Folder  # owned by this state: a round advances a copy
    round: int

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
    radius: int


def tc_round(s: TcState) -> TcState:
    """One saturation round: complete edges, attach missing relator loops,
    folding as they go.  Edge completion covers the vertices present when
    the round starts; loop guards are evaluated on the graph as it stands
    after completion, before any new loop is attached."""
    p = s.presentation
    f = s.folder.copy()
    f.what = f"coset round {s.round + 1}"
    f.complete()
    need = [(v, r) for v in f.vertices() for r in p.relators if f.trace(v, r) != v]
    for v, r in need:
        f.add_loop(v, r)
    return TcState(p, f, s.round + 1)


def partial_cayley(s: TcState) -> PartialCayleyGraph:
    """Strip hairs (iteratively) from the round's folded graph."""
    if s.round < 1:
        raise ValueError("run at least one round first")
    bald = strip_hairs(s.graph)
    return PartialCayleyGraph(bald, graph_radius(bald))


def tc_decides(g: PartialCayleyGraph, w: Word) -> bool:
    """Trace ``red(w)`` on the partial Cayley graph; True means trivial.

    Sound at every round; complete only once enough rounds have run for
    ``|w|`` (see :func:`measure_tc_radius`)."""
    return accepts_reduced(g.graph, w)


def _decides(g: FoldedGraph, words: list[bytes], verdicts: list[bool]) -> bool:
    """Whether ``g`` accepts exactly the reduced ``words`` marked trivial."""
    return [s == g.origin for s in _kernels.trace_batch(g.delta, g.origin, words)] == verdicts


def measure_tc_radius(
    p: Presentation,
    n_max: int,
    oracle: Callable[[Word], bool],
    max_rounds: int = 24,
) -> list[tuple[int, int, PartialCayleyGraph] | None]:
    """Entry ``n`` (0 ≤ n ≤ n_max) is (rounds, radius, graph) for the first
    round whose partial Cayley graph decides every word of length ≤ ``n``
    the way the reference oracle does, or None when ``max_rounds`` rounds
    do not reach such a graph.

    Triviality is invariant under free reduction on both sides, so agreement
    is checked on reduced words only.  A round that decides the words of
    length ≤ n + 1 also decides those of length ≤ n, so one run of rounds
    serves every n: the first deciding round only moves forward.
    """
    layers: list[tuple[list[bytes], list[bool]]] = [([], []) for _ in range(n_max + 1)]
    for u in words_up_to(p.alphabet_size, n_max, reduced=True):
        words, verdicts = layers[len(u)]
        words.append(u.codes)
        verdicts.append(oracle(u))
    state = TcState.initial(p)
    pcg = None
    column: list[tuple[int, int, PartialCayleyGraph] | None] = []
    for n in range(n_max + 1):
        pending = layers[n : n + 1]  # the current graph already decides shorter words
        while pcg is None or not all(_decides(pcg.graph, *layer) for layer in pending):
            if state.round >= max_rounds:
                return column + [None] * (n_max + 1 - n)
            state = tc_round(state)
            pcg = partial_cayley(state)
            pending = layers[: n + 1]
        column.append((state.round, pcg.radius, pcg))
    return column
