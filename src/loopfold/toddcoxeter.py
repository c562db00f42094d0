"""Round-based coset saturation producing partial Cayley graphs.

Starting from a single origin vertex, each round (1) gives every existing
vertex a full set of outgoing and incoming generator edges, growing fresh
vertices where edges are missing, and (2) folds in a relator cycle at every
vertex, which changes nothing where the relator already traces a loop, so
:func:`tc_round` folds each class's loops in once, at the round it appears.  The
folded graph with all hairs removed is a partial Cayley graph;
:func:`partial_cayley` builds it from a round's snapshot, for ``tc`` and
the ρ_TC scan alike.
It maps onto the Cayley graph, so its origin loops never accept a
non-trivial word, and they accept every trivial word up to a length that
grows with the rounds.  The radius of the first partial Cayley graph,
among rounds 1 … n + 1, that accepts every reduced trivial word of length
up to ``n`` in a reference oracle's list is the saturation radius at
``n``.  Round i ≥ 1 accepts everything the loop complex Λ_i accepts, so
those rounds reach every n that the isodiametric scan's radii 0 … n
reach.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

from . import _kernels
from .core import Presentation
from .automata import Folder, FoldedGraph, breadth_first, strip_hairs


class PartialCayleyGraph(NamedTuple):
    """A round's folded graph with its hairs stripped, its radius, and its
    vertices in breadth-first order, the numbering ``tc`` draws."""

    graph: FoldedGraph  # hair-free
    radius: int
    order: tuple[int, ...]  # as automata.breadth_first lists them


def tc_round(folder: Folder, p: Presentation, settled: int = 0, closed: int = 0) -> tuple[int, int]:
    """One saturation round, advancing ``folder`` in place: complete the
    classes rooted at ``settled`` or later, then fold in every relator's
    loop at every class rooted at ``closed`` or later, folding as they go.
    Edge completion covers the vertices present when the round starts.
    Returns the starting vertex count and the count after completion, the
    next round's ``settled`` and ``closed``.

    Every class rooted below ``settled`` must already be complete, and
    every class rooted below ``closed`` must already close every relator;
    the defaults 0 claim nothing and check every class.  Afterwards every
    class holding a vertex present when the round started is complete,
    every class holding a vertex present after completion closes every
    relator, and both stay so in every later round: folding only merges
    classes and never removes an edge, and a root is its class's least
    member.  So each class is completed once, and each relator loop is
    folded in once, at the class a round's completion or the loops before
    it created; walking it again at a class that already closes it would
    follow the edges back to the basepoint and merge nothing
    (:meth:`Folder.add_loop`).  The round costs what the previous round
    added, and builds the graph that checking every root would.
    """
    start = len(folder.parent)
    folder.complete(settled)
    completed = len(folder.parent)
    add_loop, relators = folder.add_loop, p.relators
    for v in folder.vertices(closed):
        for r in relators:
            add_loop(v, r)
    return start, completed


def coset_rounds(p: Presentation) -> Iterator[Folder]:
    """Rounds 1, 2, … of coset saturation, grown in one folder: each round
    advances the folder in place, and the folder itself is yielded, valid
    until the next round is drawn."""
    folder, settled, closed = Folder(p.num_generators), 0, 0
    for i in itertools.count(1):
        folder.what = f"coset round {i}"
        settled, closed = tc_round(folder, p, settled, closed)
        yield folder


def partial_cayley(graph: FoldedGraph) -> PartialCayleyGraph:
    """The partial Cayley graph of a round's snapshot ``graph``: its hairs
    stripped (iteratively), and the radius and breadth-first order of what
    remains, from one breadth-first pass."""
    stripped = strip_hairs(graph)
    order, dist = breadth_first(stripped)
    radius = dist[order[-1]]
    del dist  # the order's copy takes the distances' place, so the peak stays
    return PartialCayleyGraph(stripped, radius, tuple(order))


def measure_tc_radius(
    p: Presentation,
    layers: list[list[bytes]],
) -> list[tuple[int, int, PartialCayleyGraph] | None]:
    """Entry ``n`` (0 ≤ n < ``len(layers)``) is (rounds, radius, graph) for
    the first round ≤ n + 1 whose partial Cayley graph accepts every word
    of ``layers[m]``, m ≤ n, the reduced trivial words of length m
    (:func:`~loopfold._kernels.trivial_layers`), or None when no such round
    does.  As rounds(n) ≤ max(d(n), 1), that reaches every n the ``d``
    scan reaches.

    No round accepts a non-trivial word, so with a correct oracle that
    round decides every word of length ≤ ``n``.  A reduced closed walk
    never enters a hair, so rounds are traced on their snapshots, and
    only the rounds the column reports become partial Cayley graphs, once
    each (:func:`partial_cayley`).
    """
    graphs = (f.snapshot() for f in coset_rounds(p))
    hits = _kernels.first_deciding(graphs, layers)
    pcgs = {i: partial_cayley(g) for i, g in dict(filter(None, hits)).items()}
    return [None if hit is None else (hit[0] + 1, pcgs[hit[0]].radius, pcgs[hit[0]]) for hit in hits]
