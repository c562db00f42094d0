"""Rooted edge-labeled graphs as automata over a symmetric alphabet.

Edges carry generator indices; an edge ``u --g--> v`` is read forwards as the
generator and backwards as its inverse.  A graph is *folded* (deterministic)
when no vertex carries two same-label out-edges or two same-label in-edges.

A :class:`LabeledGraph` is an unfolded graph (an NFA of edge sets), a
:class:`Folder` folds paths and loops as they are added, and a
:class:`FoldedGraph` is a folder's snapshot.  A folded graph is its
successor table and nothing more: every consumer reads the per-letter
successor lists, and the loops folded in are not recorded, since the
graph's own closed walks give them back (Stallings 1983).  No command calls
the references :func:`fold` (whence the folder's pins) or
:func:`restrict_to_radius` (acceptance criterion 3); :func:`to_dot` draws
the numbering :func:`canonical_form` gives, the tests' isomorphism check.

Two graph families are built here: the loop complex ``Λ_j`` (the folded
wedge of conjugated-relator loops ``r^u`` over all reduced ``u`` with
``|u| ≤ j``) and its compact substitute for the grammar layer, the unfolded
free-group ball of radius ``j`` with a relator loop grafted onto every
vertex.  Folding either yields the same DFA, whose accepted reduced words of
bounded length are exactly the trivial ones once ``j`` is large enough.
"""

from __future__ import annotations

import itertools
import math
import os
from typing import Iterator

from .core import Presentation, reduce_codes

DEFAULT_MEM_CEILING_MB = 512.0
MEM_CEILING_ENV = "FILLINGS_MEM_CEILING_MB"
# Bytes per allocated vertex, above the peak measured with tracemalloc (Python
# 3.11).  A folder vertex takes about 95, and coset rounds grow one folder.
# `tc` pays the peak at its last round: 30 rounds of ℤ² peak at 284 with that
# round's snapshot and its hair-stripped graph (about 47 each) beside the
# folder.  The constant is kept at 600, so that a given ceiling keeps stopping
# the same commands.
_BYTES_PER_VERTEX = 600
_TREE_BYTES_PER_VERTEX = 1000  # unfolded tree automaton: 1.0 kB


class MemoryCeilingError(MemoryError):
    """Construction would exceed the configured memory ceiling."""


class CeilingSettingError(ValueError):
    """The memory ceiling setting is not a nonnegative number."""


class EmptyRelatorSet(ValueError):
    """Raised where a construction needs at least one relator."""


def _mem_ceiling_mb() -> float:
    """The ceiling in MB: unset or empty means the default, ``inf`` none."""
    raw = os.environ.get(MEM_CEILING_ENV, "")
    try:
        mb = float(raw) if raw else DEFAULT_MEM_CEILING_MB
    except ValueError:
        mb = math.nan
    if not mb >= 0:  # negative, or nan
        raise CeilingSettingError(
            f"{MEM_CEILING_ENV} must be a nonnegative number of megabytes, not {raw!r}")
    return mb


def _check_ceiling(vertices: int, bytes_per_vertex: int, what: str) -> None:
    mb = vertices * bytes_per_vertex / 1e6
    limit = _mem_ceiling_mb()
    if mb > limit:
        raise MemoryCeilingError(
            f"{what} needs {vertices} vertices or more (~{mb:.1f} MB), "
            f"over the {limit:g} MB ceiling ({MEM_CEILING_ENV})"
        )


class LabeledGraph:
    """An unfolded rooted graph: per-vertex sets of generator-labeled edges.
    Mutable while being built; fold it to get a :class:`FoldedGraph`.
    """

    def __init__(self, num_generators: int, num_vertices: int = 1, origin: int = 0):
        self.num_generators = num_generators
        self.num_vertices = num_vertices
        self.origin = origin
        self.out: list[dict[int, set[int]]] = [dict() for _ in range(num_vertices)]
        self.inc: list[dict[int, set[int]]] = [dict() for _ in range(num_vertices)]

    def add_vertex(self) -> int:
        self.out.append(dict())
        self.inc.append(dict())
        self.num_vertices += 1
        return self.num_vertices - 1

    def add_edge(self, src: int, gen: int, dst: int) -> None:
        self.out[src].setdefault(gen, set()).add(dst)
        self.inc[dst].setdefault(gen, set()).add(src)

    def add_loop(self, basepoint: int, relator: bytes) -> None:
        """Attach a cycle reading ``relator`` at ``basepoint``, through
        ``len(relator) - 1`` fresh vertices."""
        self.add_path(basepoint, relator, end=basepoint)

    def add_path(self, start: int, word: bytes, end: int | None = None) -> int:
        """Attach a path reading ``word`` from ``start`` through fresh vertices
        to ``end``, by default a fresh tip; returns its last vertex."""
        cur = start
        for i, c in enumerate(word):
            nxt = end if end is not None and i == len(word) - 1 else self.add_vertex()
            if c & 1:
                self.add_edge(nxt, c >> 1, cur)
            else:
                self.add_edge(cur, c >> 1, nxt)
            cur = nxt
        return cur

    def edges(self) -> list[tuple[int, int, int]]:
        return sorted((v, g, t) for v, adj in enumerate(self.out) for g, ts in adj.items() for t in ts)

    def step(self, vertex: int, code: int) -> set[int]:
        """All states reachable from ``vertex`` by one letter (NFA semantics)."""
        return set((self.inc if code & 1 else self.out)[vertex].get(code >> 1, ()))


class FoldedGraph:
    """A folded rooted graph.  ``delta[code][v]`` is the vertex that ``v``
    reaches by the letter ``code``, or -1; an edge ``u --g--> v`` is stored
    both ways, as ``delta[2g][u] = v`` and ``delta[2g + 1][v] = u``.
    The graph is this successor table and its origin, nothing more.  Two
    graphs are equal only when they are the same object; compare them
    through :func:`canonical_form`."""

    __slots__ = ("num_generators", "origin", "delta")

    def __init__(self, num_generators: int, origin: int, delta: list[list[int]]):
        object.__setattr__(self, "num_generators", num_generators)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "delta", delta)

    def __setattr__(self, name, value):
        raise AttributeError("FoldedGraph is immutable")

    @property
    def num_vertices(self) -> int:
        return len(self.delta[0])

    def edges(self) -> list[tuple[int, int, int]]:
        """Every edge ``(src, gen, dst)`` once, ascending."""
        forward = self.delta[::2]
        return [(v, g, row[v]) for v in range(self.num_vertices)
                for g, row in enumerate(forward) if row[v] >= 0]


# -- folding ------------------------------------------------------------------


class Folder:
    """Stallings folding done online: a union-find over vertices whose
    classes carry deterministic edges.  Each edge, path or loop added first
    follows the edges already there, makes a fresh vertex only where one is
    missing, and merges classes the moment two same-label edges meet.

    ``delta[code][v]`` is the vertex that ``v`` reaches by the letter
    ``code``, or -1, kept at the class root, its least member, and read
    through :meth:`find`.  Folding is confluent, so classes are those of
    folding the unfolded graph whole, numbered alike: a class's least member
    is the vertex that created it.  A vertex allocated past the memory
    ceiling raises :class:`MemoryCeilingError`.
    """

    def __init__(self, num_generators: int, num_vertices: int = 1, origin: int = 0):
        self.num_generators = num_generators
        self.origin = origin
        self.what = "folded graph"
        self.parent = list(range(num_vertices))
        self.delta = [[-1] * num_vertices for _ in range(2 * num_generators)]
        self._max_vertices = _mem_ceiling_mb() * 1e6 / _BYTES_PER_VERTEX

    @classmethod
    def of_graph(cls, graph: LabeledGraph) -> "Folder":
        """A folder holding ``graph`` folded; vertex ``v`` keeps index ``v``."""
        folder = cls(graph.num_generators, graph.num_vertices, graph.origin)
        for src, gen, dst in graph.edges():
            folder.add_edge(src, gen, dst)
        return folder

    def find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def vertices(self, start: int = 0) -> list[int]:
        """The class roots from ``start`` on, ascending."""
        parent = self.parent
        return [v for v in range(start, len(parent)) if parent[v] == v]

    def _grow(self, v: int, c: int) -> int:
        """A fresh vertex, reached from the root ``v`` by the letter ``c``."""
        t = len(self.parent)
        if t + 1 > self._max_vertices:
            _check_ceiling(t + 1, _BYTES_PER_VERTEX, self.what)
        self.parent.append(t)
        for row in self.delta:
            row.append(-1)
        self.delta[c][v] = t
        self.delta[c ^ 1][t] = v
        return t

    def _merge(self, a: int, b: int) -> None:
        """Merge the classes of ``a`` and ``b`` and every pair of classes
        that two same-label edges then force together."""
        find, parent, delta = self.find, self.parent, self.delta
        pending = [(a, b)]
        while pending:
            a, b = pending.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            parent[b] = a
            for row in delta:
                if (t := row[b]) >= 0:
                    if (s := row[a]) < 0:
                        row[a] = t
                    else:
                        pending.append((s, t))

    def _join(self, start: int, codes: bytes, end: int) -> int:
        """Fold in a path reading ``codes`` from ``start`` to ``end``;
        returns the class it ends in."""
        # an edge mostly ends at a root, which is its own class: find is
        # called only past a merge
        find, parent, delta = self.find, self.parent, self.delta
        end, last = find(end), len(codes)
        while last and (t := delta[codes[last - 1] ^ 1][end]) >= 0:  # the tail already there
            end, last = (t if parent[t] == t else find(t)), last - 1
        if not last:  # the whole path is there already
            if find(start) != end:
                self._merge(start, end)
            return find(end)
        last -= 1  # codes[last] is the closing edge
        v = find(start)
        for c in codes[:last]:
            t = delta[c][v]
            v = self._grow(v, c) if t < 0 else t if parent[t] == t else find(t)
        c = codes[last]  # one closing edge v --c--> end, folded onto any c-edge there
        if (s := delta[c][v]) >= 0:
            self._merge(s, end)
        elif (t := delta[c ^ 1][end]) >= 0:
            self._merge(t, v)
        else:
            delta[c][v], delta[c ^ 1][end] = end, v
        return find(end)

    def add_edge(self, src: int, gen: int, dst: int) -> None:
        self._join(src, bytes((2 * gen,)), dst)

    def step(self, v: int, c: int) -> int:
        """The class that ``v`` reaches by the letter ``c``, grown fresh
        when the edge is missing."""
        v = self.find(v)
        t = self.delta[c][v]
        return self._grow(v, c) if t < 0 else self.find(t)

    def complete(self, start: int = 0) -> None:
        """Give every class rooted at ``start`` or later an edge for every
        letter, growing a fresh vertex where one is missing."""
        for v in self.vertices(start):
            for c, row in enumerate(self.delta):
                if row[v] < 0:
                    self._grow(v, c)

    def add_loop(self, basepoint: int, relator: bytes) -> None:
        """Fold in a cycle reading ``relator`` at ``basepoint``."""
        self._join(basepoint, relator, basepoint)

    def closes(self, codes: bytes) -> bool:
        """Whether the walk reading ``codes`` from the origin stays on the
        graph and returns to the origin's class."""
        find, delta = self.find, self.delta
        v = origin = find(self.origin)
        for c in codes:
            if (t := delta[c][v]) < 0:
                return False
            v = find(t)
        return v == origin

    def _numbering(self) -> list[int]:
        """Entry ``v`` is the number of the class of ``v``, classes numbered
        by least member; one more entry, -1, is what a missing edge maps to."""
        number = [-1] * (len(self.parent) + 1)
        for i, root in enumerate(self.vertices()):
            number[root] = i
        for v in range(len(self.parent)):
            number[v] = number[self.find(v)]
        return number

    def snapshot(self) -> FoldedGraph:
        """The folded graph, its classes numbered by least member."""
        number = self._numbering()
        roots = self.vertices()
        delta = [[number[row[r]] for r in roots] for row in self.delta]
        return FoldedGraph(self.num_generators, number[self.origin], delta)


def fold(graph: LabeledGraph) -> tuple[FoldedGraph, list[int]]:
    """Stallings folding of an arbitrary graph: merge vertex pairs joined to
    a common vertex by equal-label co-oriented edges, until deterministic.
    Returns the folded graph, its classes numbered by least member, and the
    vertex map old-index -> new-index."""
    folder = Folder.of_graph(graph)
    return folder.snapshot(), folder._numbering()[: graph.num_vertices]


# -- construction -----------------------------------------------------------


def loop_complexes(p: Presentation) -> Iterator[Folder]:
    """The loop complexes ``Λ_0, Λ_1, …``, grown in one folder: radius ``j``
    folds in the loops ``r^u`` with ``|u| = j``.  Words are enumerated
    shortest first, so growing radius by radius builds the same graph as
    one pass over all ``|u| ≤ j``.  The folder itself is yielded, valid
    until the next radius is drawn; its snapshot is ``Λ_j``."""
    folder = Folder(p.num_generators)
    k = p.alphabet_size
    walked: set[tuple[int, int, int]] = set()

    def walk(v: int, last: int, left: int) -> None:
        """Conjugators extending the prefix that ends at ``v`` with
        ``left`` letters, depth first in code order.  Folding only merges
        classes, so ``v`` still marks the prefix's tip after the loops of
        earlier conjugators went in; its class is found afresh each step.
        A walk from a class already walked with the same ``last`` and
        ``left`` would only follow what the first one folded in, so it is
        skipped.  A radius then walks from each class root at most once
        per last letter and length left, not once per conjugator, of which
        there are 2k·(2k−1)^(j−1) at radius j."""
        key = (folder.find(v), last, left)
        if key in walked:
            return
        walked.add(key)
        if left == 0:
            for r in p.relators:
                folder.add_loop(v, r)
            return
        for c in range(k):
            if c != last ^ 1:
                walk(folder.step(v, c), c, left - 1)

    for radius in itertools.count():
        folder.what = f"loop complex at radius {radius}"
        walked.clear()
        if p.relators:
            walk(folder.origin, -2, radius)
        yield folder


def build_loop_complex(p: Presentation, j: int, until: bytes | None = None) -> FoldedGraph:
    """The folded wedge, at a single origin, of one loop ``r^u`` per pair
    of a relator ``r`` and a reduced word ``u`` with ``|u| ≤ j``: a path
    reading ``u`` with an ``r``-cycle at its tip.  Given a reduced word
    ``until``, the complex of the first radius ``≤ j`` whose origin loops
    read it, or of radius ``j`` when none does; the word is traced in the
    folder after each radius."""
    if j < 0:
        raise ValueError("radius must be nonnegative")
    for folder in itertools.islice(loop_complexes(p), j + 1):
        if until is not None and folder.closes(until):
            break
    return folder.snapshot()


def build_tree_nfa(p: Presentation, j: int) -> LabeledGraph:
    """The free-group ball of radius ``j`` (a tree rooted at the origin)
    with one fresh relator cycle grafted onto every tree vertex.  The ball
    grows a layer at a time, each tip extended by every letter but the
    inverse of its last, so tree vertices are numbered in shortlex order of
    the reduced words they end."""
    if j < 0:
        raise ValueError("radius must be nonnegative")
    if not p.relators:
        raise EmptyRelatorSet("tree automaton needs at least one relator")
    k = p.alphabet_size
    ball = 1 + sum(k * (k - 1) ** (i - 1) for i in range(1, j + 1))  # reduced words
    predicted = ball * (1 + p.relator_total_length - len(p.relators))
    _check_ceiling(predicted, _TREE_BYTES_PER_VERTEX, f"tree automaton at radius {j}")

    g = LabeledGraph(p.num_generators)
    letters = [bytes((c,)) for c in range(k)]
    layer = [(g.origin, -2)]  # the tips and their last letters
    for _ in range(j):
        layer = [(g.add_path(v, letters[c]), c) for v, last in layer for c in range(k) if c != last ^ 1]
    for v in range(g.num_vertices):  # the tree vertices, the origin first
        for r in p.relators:
            g.add_loop(v, r)
    return g


# -- decision procedures ------------------------------------------------------


def trace(graph: FoldedGraph, w: bytes, start: int | None = None) -> int | None:
    """Deterministic trace of ``w``; returns the final vertex or None if the
    trace falls off the graph."""
    v = graph.origin if start is None else start
    delta = graph.delta
    for c in w:
        v = delta[c][v]
        if v < 0:
            return None
    return v


def accepts_reduced(dfa: FoldedGraph, w: bytes) -> bool:
    """Reduce ``w``, trace it from the origin, accept iff it returns there."""
    return trace(dfa, reduce_codes(w)) == dfa.origin


def nfa_accepts(graph: LabeledGraph, w: bytes) -> bool:
    """Nondeterministic acceptance of the literal word (no free reduction)."""
    frontier = {graph.origin}
    for c in w:
        frontier = set().union(*(graph.step(v, c) for v in frontier))
        if not frontier:
            return False
    return graph.origin in frontier


def decide_word_problem(p: Presentation, w: bytes, j: int) -> bool:
    """Accept iff the folded radius-``j`` loop complex accepts ``red(w)``.

    ``Λ_i`` accepts a subset of what ``Λ_j`` accepts for ``i ≤ j``, so the
    answer is read off the first radius ``≤ j`` that accepts
    (:func:`build_loop_complex` stops there), and no complex past it is
    drawn.  A True answer always certifies triviality; completeness
    additionally needs ``j`` at least the isodiametric value at ``|w|``.
    """
    reduced = reduce_codes(w)
    return accepts_reduced(build_loop_complex(p, j, reduced), reduced)


# -- analysis helpers ---------------------------------------------------------


def breadth_first(graph: FoldedGraph) -> tuple[list[int], list[int]]:
    """The origin's component in breadth-first order, trying letters in the
    order a, a⁻¹, b, b⁻¹, …, and each vertex's undirected distance from the
    origin, indexed by vertex, -1 where the origin does not reach.  The
    order is the component's canonical numbering, and its last vertex lies
    farthest from the origin."""
    dist = [-1] * graph.num_vertices
    dist[graph.origin] = 0
    order = [graph.origin]
    rows = graph.delta
    for v in order:  # grows while read: breadth-first
        d = dist[v] + 1
        for row in rows:
            if (u := row[v]) >= 0 and dist[u] < 0:
                dist[u] = d
                order.append(u)
    return order, dist


def radius(graph: FoldedGraph) -> int:
    """Eccentricity of the origin over its reachable component."""
    order, dist = breadth_first(graph)
    return dist[order[-1]]


def _induced(graph: FoldedGraph, kept: list[int]) -> FoldedGraph:
    """The subgraph induced on the ascending vertex list ``kept``, renumbered
    in that order."""
    number = [-1] * (graph.num_vertices + 1)  # the last entry maps -1 to -1
    for i, v in enumerate(kept):
        number[v] = i
    delta = [[number[row[v]] for v in kept] for row in graph.delta]
    return FoldedGraph(graph.num_generators, number[graph.origin], delta)


def restrict_to_radius(graph: FoldedGraph, k: int) -> FoldedGraph:
    """Induced subgraph on vertices within distance ``k`` of the origin,
    renumbered ascending by original index."""
    _order, dist = breadth_first(graph)
    return _induced(graph, [v for v, d in enumerate(dist) if 0 <= d <= k])


def strip_hairs(graph: FoldedGraph) -> FoldedGraph:
    """Repeatedly delete non-origin vertices of total degree ≤ 1 (and their
    edges).  A reduced closed walk at the origin never enters a hair, so
    the stripped graph accepts the same reduced words from a smaller
    successor table.  A graph with no hair is returned as it is."""
    n, origin, delta = graph.num_vertices, graph.origin, graph.delta
    degree = [0] * n
    for row in delta:
        degree = [d + (t >= 0) for d, t in zip(degree, row)]
    hairs = [v for v, d in enumerate(degree) if d <= 1 and v != origin]
    if not hairs:
        return graph
    alive = [True] * n
    while hairs:
        v = hairs.pop()
        if alive[v]:
            alive[v] = False
            for row in delta:
                if (t := row[v]) >= 0 and alive[t]:
                    degree[t] -= 1
                    if t != origin and degree[t] <= 1:
                        hairs.append(t)
    return _induced(graph, [v for v in range(n) if alive[v]])


def canonical_form(graph: FoldedGraph) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """Isomorphism invariant of the origin's component: vertices are
    renumbered in the order of :func:`breadth_first`; returns
    (vertex count, edge tuple).  Walking the vertices in that order, each
    through its forward rows in letter order, meets the renumbered edges
    sorted, as a letter leaves a vertex once.  A folded graph is its
    successor table, so two graphs with one form are isomorphic and accept
    the same words."""
    order, _dist = breadth_first(graph)
    number = [-1] * graph.num_vertices
    for i, v in enumerate(order):
        number[v] = i
    forward = list(enumerate(graph.delta[::2]))
    edges = tuple((i, g, number[t]) for i, v in enumerate(order) for g, row in forward if (t := row[v]) >= 0)
    return len(order), edges


def to_dot(graph: FoldedGraph) -> str:
    """Graphviz rendering of the origin's component as
    :func:`canonical_form` numbers it, so that it is stable across runs; the
    origin (vertex 0) double-circled, edges labeled by letter."""
    count, edges = canonical_form(graph)
    lines = [
        "digraph G {",
        "  rankdir=LR;",
        "  0 [shape=doublecircle];",
        *(f"  {i} [shape=circle];" for i in range(1, count)),
        *(f'  {i} -> {t} [label="{chr(ord("a") + g)}"];' for i, g, t in edges),
        "}",
    ]
    return "\n".join(lines) + "\n"
