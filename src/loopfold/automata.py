"""Rooted edge-labeled graphs as automata over a symmetric alphabet.

Edges carry generator indices; an edge ``u --g--> v`` is read forwards as the
generator and backwards as its inverse, so inverse edges are interpreted, not
materialized.  A graph is *folded* (deterministic) when no vertex carries two
same-label out-edges or two same-label in-edges; folding merges such pairs to
a fixpoint with a union-find worklist.

Two graph families are built here: the loop complex ``Λ_j`` (a wedge of
conjugated-relator loops ``r^u`` over all reduced ``u`` with ``|u| ≤ j``) and
its compact substitute, the free-group ball of radius ``j`` with a relator
loop grafted onto every vertex.  Folding either one yields the same DFA,
whose accepted reduced words of bounded length are exactly the trivial ones
once ``j`` is large enough.
"""

from __future__ import annotations

import os
from collections import deque

from .core import Presentation, Word, words_up_to

DEFAULT_MEM_CEILING_MB = 512.0
MEM_CEILING_ENV = "FILLINGS_MEM_CEILING_MB"
_BYTES_PER_VERTEX = 400  # coarse adjacency-dict footprint estimate


class MemoryCeilingError(MemoryError):
    """Construction would exceed the configured memory ceiling."""


class EmptyRelatorSet(ValueError):
    """Raised where a construction needs at least one relator."""


def _mem_ceiling_mb() -> float:
    raw = os.environ.get(MEM_CEILING_ENV, "")
    try:
        return float(raw) if raw else DEFAULT_MEM_CEILING_MB
    except ValueError:
        return DEFAULT_MEM_CEILING_MB


def _check_ceiling(predicted_vertices: int, what: str) -> None:
    mb = predicted_vertices * _BYTES_PER_VERTEX / 1e6
    limit = _mem_ceiling_mb()
    if mb > limit:
        raise MemoryCeilingError(
            f"{what} needs about {predicted_vertices} vertices (~{mb:.0f} MB), "
            f"over the {limit:.0f} MB ceiling ({MEM_CEILING_ENV})"
        )


class LabeledGraph:
    """A rooted directed graph with generator-labeled edges and face records.

    Mutable while being built; algorithms in this module treat finished
    graphs as read-only and return new graphs.
    """

    def __init__(self, num_generators: int, num_vertices: int = 1, origin: int = 0):
        self.num_generators = num_generators
        self.num_vertices = num_vertices
        self.origin = origin
        self.out: list[dict[int, set[int]]] = [dict() for _ in range(num_vertices)]
        self.inc: list[dict[int, set[int]]] = [dict() for _ in range(num_vertices)]
        # None marks a graph whose face records were dropped (e.g. by a
        # radius restriction), as opposed to a graph with no faces.
        self.faces: list[tuple[int, Word]] | None = []

    def add_vertex(self) -> int:
        self.out.append(dict())
        self.inc.append(dict())
        self.num_vertices += 1
        return self.num_vertices - 1

    def add_edge(self, src: int, gen: int, dst: int) -> None:
        self.out[src].setdefault(gen, set()).add(dst)
        self.inc[dst].setdefault(gen, set()).add(src)

    def add_face(self, basepoint: int, relator: Word) -> None:
        if self.faces is None:
            raise ValueError("face records were dropped from this graph")
        self.faces.append((basepoint, relator))

    def add_loop(self, basepoint: int, relator: Word) -> None:
        """Attach a cycle reading ``relator`` at ``basepoint``, through
        ``len(relator) - 1`` fresh vertices, and record it as a face."""
        self.add_face(basepoint, relator)
        cur = basepoint
        for i, c in enumerate(relator.codes):
            nxt = basepoint if i == len(relator) - 1 else self.add_vertex()
            if c & 1:
                self.add_edge(nxt, c >> 1, cur)
            else:
                self.add_edge(cur, c >> 1, nxt)
            cur = nxt

    def add_path(self, start: int, word: Word) -> int:
        """Attach a fresh path reading ``word`` from ``start``; returns its tip."""
        cur = start
        for c in word.codes:
            nxt = self.add_vertex()
            if c & 1:
                self.add_edge(nxt, c >> 1, cur)
            else:
                self.add_edge(cur, c >> 1, nxt)
            cur = nxt
        return cur

    def copy(self) -> "LabeledGraph":
        g = LabeledGraph(self.num_generators, self.num_vertices, self.origin)
        g.out = [{gen: set(s) for gen, s in d.items()} for d in self.out]
        g.inc = [{gen: set(s) for gen, s in d.items()} for d in self.inc]
        g.faces = None if self.faces is None else list(self.faces)
        return g

    def edges(self) -> list[tuple[int, int, int]]:
        out = []
        for v in range(self.num_vertices):
            for g, targets in self.out[v].items():
                out.extend((v, g, t) for t in targets)
        out.sort()
        return out

    def step(self, vertex: int, code: int) -> set[int]:
        """All states reachable from ``vertex`` by one letter (NFA semantics)."""
        if code & 1:
            return set(self.inc[vertex].get(code >> 1, ()))
        return set(self.out[vertex].get(code >> 1, ()))

    def is_deterministic(self) -> bool:
        for v in range(self.num_vertices):
            if any(len(s) > 1 for s in self.out[v].values()):
                return False
            if any(len(s) > 1 for s in self.inc[v].values()):
                return False
        return True

    def neighbors(self, v: int) -> set[int]:
        out: set[int] = set()
        for s in self.out[v].values():
            out |= s
        for s in self.inc[v].values():
            out |= s
        return out


# -- construction -----------------------------------------------------------


def _reduced_ball_sizes(alphabet_size: int, j: int) -> list[int]:
    """Count of reduced words of each length 0..j."""
    return [1] + [alphabet_size * (alphabet_size - 1) ** (k - 1) for k in range(1, j + 1)]


def build_loop_complex(p: Presentation, j: int) -> LabeledGraph:
    """The wedge, at a single origin, of one loop ``r^u`` per pair of a
    relator ``r`` and a reduced word ``u`` with ``|u| ≤ j``: a fresh path
    reading ``u`` with a fresh ``r``-cycle at its tip.  Distinct pairs share
    only the origin."""
    if j < 0:
        raise ValueError("radius must be nonnegative")
    sizes = _reduced_ball_sizes(p.alphabet_size, j)
    total_r = p.relator_total_length
    predicted = 1 + sum(
        n_k * (total_r - len(p.relators) + k * len(p.relators)) for k, n_k in enumerate(sizes)
    )
    _check_ceiling(predicted, f"loop complex at radius {j}")

    g = LabeledGraph(p.num_generators)
    for u in words_up_to(p.alphabet_size, j, reduced=True):
        for r in p.relators:
            tip = g.add_path(g.origin, u)
            g.add_loop(tip, r)
    return g


def build_tree_nfa(p: Presentation, j: int) -> LabeledGraph:
    """The free-group ball of radius ``j`` (a tree rooted at the origin)
    with one fresh relator cycle grafted onto every tree vertex."""
    if j < 0:
        raise ValueError("radius must be nonnegative")
    if not p.relators:
        raise EmptyRelatorSet("tree automaton needs at least one relator")
    sizes = _reduced_ball_sizes(p.alphabet_size, j)
    ball = sum(sizes)
    predicted = ball * (1 + p.relator_total_length - len(p.relators))
    _check_ceiling(predicted, f"tree automaton at radius {j}")

    g = LabeledGraph(p.num_generators)
    index: dict[bytes, int] = {b"": g.origin}
    for u in words_up_to(p.alphabet_size, j, reduced=True):
        if u.codes:
            v = g.add_vertex()
            index[u.codes] = v
            parent = index[u.codes[:-1]]
            c = u.codes[-1]
            if c & 1:
                g.add_edge(v, c >> 1, parent)
            else:
                g.add_edge(parent, c >> 1, v)
    for v in index.values():  # the origin first, then in enumeration order
        for r in p.relators:
            g.add_loop(v, r)
    return g


# -- folding ------------------------------------------------------------------


def _min_rotation(codes: bytes) -> bytes:
    return min(codes[i:] + codes[:i] for i in range(len(codes))) if codes else codes


def fold(graph: LabeledGraph) -> tuple[LabeledGraph, list[int]]:
    """Stallings folding: merge vertex pairs joined to a common vertex by
    equal-label co-oriented edges, until deterministic.

    Returns the folded graph and the vertex map old-index -> new-index.
    The result is independent of merge order; the returned numbering keeps
    surviving union-find roots in ascending order.
    """
    n = graph.num_vertices
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    out = [{g: set(s) for g, s in graph.out[v].items()} for v in range(n)]
    inc = [{g: set(s) for g, s in graph.inc[v].items()} for v in range(n)]

    work = deque(range(n))
    queued = [True] * n

    def push(v: int) -> None:
        if not queued[v]:
            queued[v] = True
            work.append(v)

    def union(a: int, b: int) -> int:
        a, b = find(a), find(b)
        if a == b:
            return a
        if b < a:
            a, b = b, a
        parent[b] = a
        for g, s in out[b].items():
            out[a].setdefault(g, set()).update(s)
        for g, s in inc[b].items():
            inc[a].setdefault(g, set()).update(s)
        out[b] = {}
        inc[b] = {}
        push(a)
        return a

    while work:
        v = work.popleft()
        queued[v] = False
        v = find(v)
        rescan = True
        while rescan:
            rescan = False
            for adj in (out, inc):
                for g in list(adj[v].keys()):
                    roots = {find(x) for x in adj[v][g]}
                    adj[v][g] = roots
                    if len(roots) > 1:
                        ordered = sorted(roots)
                        acc = ordered[0]
                        for other in ordered[1:]:
                            acc = union(acc, other)
                        v = find(v)
                        rescan = True
                        break
                if rescan:
                    break

    roots = sorted({find(v) for v in range(n)})
    new_index = {r: i for i, r in enumerate(roots)}
    vertex_map = [new_index[find(v)] for v in range(n)]

    folded = LabeledGraph(graph.num_generators, num_vertices=len(roots), origin=vertex_map[graph.origin])
    for r in roots:
        for g, targets in out[r].items():
            for t in targets:
                folded.out[new_index[r]].setdefault(g, set()).add(new_index[find(t)])
    for v in range(folded.num_vertices):
        for g, targets in folded.out[v].items():
            for t in targets:
                folded.inc[t].setdefault(g, set()).add(v)

    if graph.faces is None:
        folded.faces = None
    else:
        seen_faces = set()
        for bp, rel in graph.faces:
            key = (vertex_map[bp], _min_rotation(rel.codes))
            if key not in seen_faces:
                seen_faces.add(key)
                folded.faces.append((vertex_map[bp], rel))
        folded.faces.sort(key=lambda f: (f[0], f[1].codes))
    return folded, vertex_map


# -- decision procedures ------------------------------------------------------


def trace(graph: LabeledGraph, w: Word, start: int | None = None) -> int | None:
    """Deterministic trace of ``w``; returns the final vertex or None if the
    trace falls off the graph.  The graph must be folded."""
    v = graph.origin if start is None else start
    for c in w.codes:
        targets = graph.step(v, c)
        if not targets:
            return None
        if len(targets) > 1:
            raise ValueError("trace requires a folded graph")
        (v,) = targets
    return v


def accepts_reduced(dfa: LabeledGraph, w: Word) -> bool:
    """Reduce ``w``, trace it from the origin, accept iff it returns there."""
    return trace(dfa, w.reduce()) == dfa.origin


def nfa_accepts(graph: LabeledGraph, w: Word) -> bool:
    """Nondeterministic acceptance of the literal word (no free reduction)."""
    frontier = {graph.origin}
    for c in w.codes:
        nxt: set[int] = set()
        for v in frontier:
            nxt |= graph.step(v, c)
        if not nxt:
            return False
        frontier = nxt
    return graph.origin in frontier


def decide_word_problem(p: Presentation, w: Word, j: int) -> bool:
    """Accept iff the folded radius-``j`` loop complex accepts ``red(w)``.

    A True answer always certifies triviality; completeness additionally
    needs ``j`` at least the isodiametric value at ``|w|``.
    """
    dfa, _ = fold(build_loop_complex(p, j))
    return accepts_reduced(dfa, w)


# -- analysis helpers ---------------------------------------------------------


def distances_from_origin(graph: LabeledGraph) -> dict[int, int]:
    """Undirected BFS distance of every reachable vertex from the origin."""
    dist = {graph.origin: 0}
    dq = deque([graph.origin])
    while dq:
        v = dq.popleft()
        for u in sorted(graph.neighbors(v)):
            if u not in dist:
                dist[u] = dist[v] + 1
                dq.append(u)
    return dist

def radius(graph: LabeledGraph) -> int:
    """Eccentricity of the origin over its reachable component."""
    return max(distances_from_origin(graph).values())


def restrict_to_radius(graph: LabeledGraph, k: int) -> LabeledGraph:
    """Induced subgraph on vertices within distance ``k`` of the origin,
    renumbered ascending by original index.  Face records are not carried
    over; compare restrictions through :func:`canonical_form`."""
    dist = distances_from_origin(graph)
    kept = [v for v, d in sorted(dist.items()) if d <= k]
    new_index = {v: i for i, v in enumerate(kept)}
    sub = LabeledGraph(graph.num_generators, num_vertices=len(kept), origin=new_index[graph.origin])
    for v in kept:
        for g, targets in graph.out[v].items():
            for t in targets:
                if t in new_index:
                    sub.add_edge(new_index[v], g, new_index[t])
    sub.faces = None
    return sub


def strip_hairs(graph: LabeledGraph) -> LabeledGraph:
    """Repeatedly delete non-origin vertices of total degree ≤ 1 (and their
    edges).  Face records survive when their basepoint does."""
    alive = [True] * graph.num_vertices
    out = [{g: set(s) for g, s in graph.out[v].items()} for v in range(graph.num_vertices)]
    inc = [{g: set(s) for g, s in graph.inc[v].items()} for v in range(graph.num_vertices)]

    def degree(v: int) -> int:
        return sum(len(s) for s in out[v].values()) + sum(len(s) for s in inc[v].values())

    dq = deque(v for v in range(graph.num_vertices) if v != graph.origin and degree(v) <= 1)
    while dq:
        v = dq.popleft()
        if not alive[v] or v == graph.origin or degree(v) > 1:
            continue
        alive[v] = False
        touched = set()
        for g, targets in out[v].items():
            for t in targets:
                inc[t][g].discard(v)
                touched.add(t)
        for g, sources in inc[v].items():
            for s in sources:
                out[s][g].discard(v)
                touched.add(s)
        out[v] = {}
        inc[v] = {}
        for t in touched:
            if alive[t] and t != graph.origin and degree(t) <= 1:
                dq.append(t)

    kept = [v for v in range(graph.num_vertices) if alive[v]]
    new_index = {v: i for i, v in enumerate(kept)}
    stripped = LabeledGraph(graph.num_generators, num_vertices=len(kept), origin=new_index[graph.origin])
    for v in kept:
        for g, targets in out[v].items():
            for t in targets:
                stripped.add_edge(new_index[v], g, new_index[t])
    if graph.faces is None:
        stripped.faces = None
    else:
        seen = set()
        for bp, rel in graph.faces:
            if alive[bp]:
                key = (new_index[bp], _min_rotation(rel.codes))
                if key not in seen:
                    seen.add(key)
                    stripped.faces.append((new_index[bp], rel))
        stripped.faces.sort(key=lambda f: (f[0], f[1].codes))
    return stripped


def canonical_form(graph: LabeledGraph) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """Isomorphism invariant of the origin's component of a folded graph:
    vertices are renumbered by BFS from the origin exploring letters in the
    fixed order a, a⁻¹, b, b⁻¹, ...; returns (vertex count, edge tuple).
    Face records are deliberately not part of the form."""
    number: dict[int, int] = {graph.origin: 0}
    order = [graph.origin]
    dq = deque([graph.origin])
    while dq:
        v = dq.popleft()
        for c in range(2 * graph.num_generators):
            targets = graph.step(v, c)
            if len(targets) > 1:
                raise ValueError("canonical form requires a folded graph")
            for t in targets:
                if t not in number:
                    number[t] = len(order)
                    order.append(t)
                    dq.append(t)
    edges = set()
    for v in order:
        for g, targets in graph.out[v].items():
            for t in targets:
                if t in number:
                    edges.add((number[v], g, number[t]))
    return len(order), tuple(sorted(edges))


def transition_table(graph: LabeledGraph) -> list[list[int]]:
    """Dense DFA table of a folded graph: ``delta[code][vertex]`` is the
    successor under that letter, ``-1`` where undefined."""
    delta = [[-1] * graph.num_vertices for _ in range(2 * graph.num_generators)]
    for src, g, dst in graph.edges():
        forward, backward = delta[2 * g], delta[2 * g + 1]
        if forward[src] not in (-1, dst) or backward[dst] not in (-1, src):
            raise ValueError("transition table requires a folded graph")
        forward[src] = dst
        backward[dst] = src
    return delta


def to_dot(graph: LabeledGraph) -> str:
    """Graphviz rendering; origin double-circled, edges labeled by letter."""
    lines = ["digraph G {", "  rankdir=LR;"]
    for v in range(graph.num_vertices):
        shape = "doublecircle" if v == graph.origin else "circle"
        lines.append(f'  {v} [shape={shape}];')
    for src, g, dst in graph.edges():
        lines.append(f'  {src} -> {dst} [label="{chr(ord("a") + g)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
