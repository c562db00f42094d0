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

from .core import _irregular

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
    """The reduced words of ``trivial`` of length ≤ n_max by length, in list
    order: the layers both scans take, laid out once per command.  Longer
    words and words with a cancelling pair are skipped; a letter outside
    the alphabet raises ValueError, in a word of any length.  One search
    per word passes a reduced word over the alphabet
    (:func:`~loopfold.core._irregular`)."""
    layers: list[list[bytes]] = [[] for _ in range(n_max + 1)]
    irregular = _irregular(alphabet_size).search
    for u in trivial:
        if irregular(u) is None:
            if len(u) <= n_max:
                layers[len(u)].append(u)
        elif max(u) >= alphabet_size:
            raise ValueError(f"the word with letter codes {list(u)} has a letter outside "
                             "the presentation's alphabet")
    return layers


def first_deciding(graphs: Iterable[G], layers: list[list[bytes]]) -> list[tuple[int, G] | None]:
    """Entry ``n < len(layers)`` is ``(i, graph)`` for the first graph
    ``i ≤ n`` of ``graphs`` that leads every word of every ``layers[m]``
    (:func:`trivial_layers`), ``m ≤ n``, from the origin back to the
    origin, or None when no graph up to ``n`` does.

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
