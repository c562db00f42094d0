"""Batch DFA tracing of word sets.

The isodiametric scan tests every reduced trivial word up to a length bound
against folded loop complexes, one batch per radius.  Words are rows of an
``(N, L)`` int16 array of letter codes together with a length vector; cells
past a word's length are ignored.
"""

from __future__ import annotations

import numpy as np


def trace_batch(delta: np.ndarray, start: int, words: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Run every row through a DFA given as a ``(letters, states)`` table.

    ``delta[c, s]`` is the successor state, ``-1`` when undefined; a word that
    falls off the graph ends in ``-1``.  Returns the final state per row.
    """
    out = np.empty(words.shape[0], dtype=np.int32)
    for i in range(words.shape[0]):
        s = start
        for j in range(lengths[i]):
            s = delta[words[i, j], s]
            if s < 0:
                break
        out[i] = s
    return out
