"""Batch DFA tracing of word sets, and the one monotone scan built on it.

Both d(n) and ρ_TC(n) are read off a growing sequence of folded graphs, the
loop complexes Λ_0, Λ_1, … and the coset rounds 1, 2, …: the first graph
i ≤ n that accepts every reduced trivial word of length ≤ n.  No graph of
either sequence accepts a non-trivial word (it maps onto the Cayley graph),
so neither scan traces one.  Words are ``bytes`` strings of letter codes; a
DFA is a folded graph's ``delta``, one list of successor states per letter.
"""

from __future__ import annotations

from typing import Iterable, TypeVar

from .core import is_reduced

G = TypeVar("G")  # a folded graph: ``delta`` and ``origin``


def trace_batch(delta: list[list[int]], start: int, words: list[bytes]) -> list[int]:
    """Run every word through a DFA given as a per-letter table.

    ``delta[c][s]`` is the successor state, ``-1`` when undefined; a word
    that falls off the graph ends in ``-1``.  Returns the final state per
    word.
    """
    out = []
    for word in words:
        s = start
        for c in word:
            s = delta[c][s]
            if s < 0:
                break
        out.append(s)
    return out


def trivial_layers(trivial: Iterable[bytes], n_max: int, alphabet_size: int) -> list[list[bytes]]:
    """The reduced words of ``trivial`` of length ≤ n_max, by length: the
    layers both scans hand :func:`first_deciding`.  Every listed
    word reduces to one of them.  Longer words are skipped; a letter outside
    the alphabet raises ValueError."""
    layers: list[list[bytes]] = [[] for _ in range(n_max + 1)]
    for u in trivial:
        if max(u, default=0) >= alphabet_size:
            raise ValueError(f"the word with letter codes {list(u)} has a letter outside "
                             "the presentation's alphabet")
        if len(u) <= n_max and is_reduced(u):
            layers[len(u)].append(u)
    return layers


def first_deciding(graphs: Iterable[G], layers: list[list[bytes]]) -> list[tuple[int, G] | None]:
    """Entry ``n`` is ``(i, graph)`` for the first graph ``i ≤ n`` of
    ``graphs`` that leads every word of every ``layers[m]``, ``m ≤ n``, from
    the origin back to the origin, or None when no graph up to ``n`` does.

    Each graph must accept every word its predecessor accepts, as graphs
    grown in a folder that only merges classes do.  So a layer once
    accepted stays accepted: each graph is traced only on the layers that
    no earlier graph accepted.  Graphs are drawn only when tried, so at most
    ``len(layers)`` of them.
    """
    graphs = iter(graphs)
    column: list[tuple[int, G] | None] = []
    i, g, accepted = 0, None, 0  # g is graph i once drawn; graphs from i on accept layers[:accepted]
    for n in range(len(layers)):
        while accepted <= n and i <= n:
            if g is None:
                g = next(graphs)
            if all(s == g.origin for s in trace_batch(g.delta, g.origin, layers[accepted])):
                accepted += 1
            else:
                i, g = i + 1, None
        column.append((i, g) if accepted > n else None)
    return column
