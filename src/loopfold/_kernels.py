"""Batch DFA tracing of word sets, for both monotone scans.

The isodiametric scan tests every reduced trivial word up to a length bound
against folded loop complexes, one batch per radius; the saturation scan
tests the reduced words of each length against the partial Cayley graph of
each round.  Words are ``bytes`` strings of letter codes; a DFA is a folded
graph's ``delta``, one list of successor states per letter.
"""

from __future__ import annotations


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
