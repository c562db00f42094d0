"""Batch DFA tracing of word sets, and the one monotone scan built on it.

Both d(n) and ρ_TC(n) are read off a growing sequence of folded graphs: the
first graph that decides every word of length ≤ n.  The isodiametric scan
runs over the loop complexes Λ_0, Λ_1, … on the reduced trivial words; the
saturation scan runs over the coset rounds on every reduced word.  Words are
``bytes`` strings of letter codes; a DFA is a folded graph's ``delta``, one
list of successor states per letter.
"""

from __future__ import annotations

from typing import Iterable, TypeVar

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


def first_deciding(
    graphs: Iterable[G],
    layers: list[tuple[list[bytes], list[bool]]],
    limits: list[int],
) -> list[tuple[int, G] | None]:
    """Entry ``n`` is ``(i, graph)`` for the first graph ``i ≤ limits[n]``
    of ``graphs`` that decides every layer ``layers[m] = (words, verdicts)``
    with ``m ≤ n``, or None.  A graph decides a layer when the words it
    leads from the origin back to the origin are exactly those marked True.

    A graph that decides the layers ``≤ n + 1`` decides those ``≤ n``, so
    the first deciding graph only moves forward with ``n``: a graph that
    decided the layers below ``n`` is tried on layer ``n`` alone, and after
    a miss the next graph is tried on every layer ``≤ n``.  Graphs are drawn
    from ``graphs`` only when tried.
    """
    graphs = iter(graphs)
    column: list[tuple[int, G] | None] = []
    i, g, decided = 0, None, 0  # g is graph i once drawn; it decides layers[:decided]
    for n, limit in enumerate(limits):
        while i <= limit:
            if g is None:
                g, decided = next(graphs), 0
            if all(
                [s == g.origin for s in trace_batch(g.delta, g.origin, words)] == verdicts
                for words, verdicts in layers[decided : n + 1]
            ):
                decided = n + 1
                break
            i, g = i + 1, None
        column.append((i, g) if i <= limit else None)
    return column
