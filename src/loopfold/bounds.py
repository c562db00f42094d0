"""What a command reads of a measurement without running a search: the
records of a capped search's results and caps, and the area lower bound a
presentation's relators give.

``grammar-bound`` proves most areas by a witness's factor count meeting
:func:`area_lower_bound`, and ``profile`` and the fusion check read their
columns through :func:`prefix_maxima`; the rewrite search of :mod:`~loopfold.rewrite`
takes these records and this bound, and is loaded only where a search
runs.
"""

from __future__ import annotations

import enum
import functools
from itertools import chain, combinations
from typing import Callable, Iterable, Iterator, NamedTuple

from .core import LimitError, Presentation, reduce_codes


class OracleStatus(enum.Enum):
    """Declared from best to worst."""

    EXACT = "Exact"
    LOWER_BOUND_ONLY = "LowerBoundOnly"
    BUDGET_EXCEEDED = "BudgetExceeded"

    def __str__(self) -> str:
        return self.value


class OracleResult(NamedTuple):
    """A measured value with its confidence; ``value`` is None for unreached."""

    value: int | None
    status: OracleStatus

    @property
    def exact(self) -> bool:
        return self.status is OracleStatus.EXACT

    def render_value(self) -> str:
        return "unreached" if self.value is None else str(self.value)


def prefix_maxima(
    words: Iterable[bytes] | Iterable[Iterable[bytes]],
    n_max: int,
    measure: Callable[[bytes], OracleResult],
) -> Iterator[OracleResult]:
    """Entry ``n`` is the largest value ``measure`` gives a word of length
    ≤ n, with the worst status among those words; the maximum over no words
    is exactly 0.  ``measure`` runs once per word, shortest first.

    ``words`` is either the words, of length ≤ n_max and in any order, or
    their layers: an iterable whose item ``k`` holds the words of length
    ``k``, and that may end early, where every later layer is empty.  The
    entries are yielded in order of n, entry ``n`` as soon as layer ``n`` is
    measured: layer ``n + 1`` is not asked for before entry ``n + 1`` is, so
    a generator of layers makes each one only when it is needed.  Flat
    words are laid out first, as any of them may be the shortest."""
    items = iter(words)
    first = next(items, None)
    if first is None or isinstance(first, bytes):
        layers: list[list[bytes]] = [[] for _ in range(n_max + 1)]
        for w in chain(() if first is None else [first], items):
            layers[len(w)].append(w)
        items = iter(layers)
    else:
        items = chain([first], items)
    ranks = list(OracleStatus)
    value = rank = 0
    for _ in range(n_max + 1):
        for w in next(items, ()):
            result = measure(w)
            if result.value is not None:
                value = max(value, result.value)
            rank = max(rank, ranks.index(result.status))
        yield OracleResult(value, ranks[rank])


class _Caps(NamedTuple):
    max_word_length: int = 8
    max_states: int = 2_000_000


class SearchBudget(_Caps):
    """The caps of a rewrite search: the longest intermediate word and the
    word orbits a sweep may hold.  Both must be at least 1."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        budget = super().__new__(cls, *args, **kwargs)
        if min(budget) < 1:
            raise ValueError("budget fields must be positive")
        return budget


class BudgetFailure(LimitError, RuntimeError):
    """A result that needs Exact values got one the budget could not settle."""


def budget_flags(*statuses: OracleStatus) -> str:
    """The command-line caps to raise for results short of Exact:
    ``--budget-states`` for BudgetExceeded (the state cap stopped a sweep)
    and ``--budget-len`` for LowerBoundOnly (the length cap left the value
    unsettled), joined by "and" when both occur."""
    flags = {OracleStatus.BUDGET_EXCEEDED: "--budget-states",
             OracleStatus.LOWER_BOUND_ONLY: "--budget-len"}
    return " and ".join(flag for status, flag in flags.items() if status in statuses)


def _exponent_sum(codes: bytes, g: int) -> int:
    """The exponent sum of generator ``g`` in a word."""
    return codes.count(2 * g) - codes.count(2 * g + 1)


def _winding_area(codes: bytes, rank: int) -> int:
    """The ℓ1 norm of the winding-number function of a closed word's loop in
    ℤ^rank, projected on each coordinate plane (i, j), summed over the
    planes.  The winding number about the unit square at column ``x`` and
    height ``h`` is the signed count of i-steps across column ``x`` at
    heights ≤ h; the loop is closed, so each column's count returns to 0."""
    total = 0
    for i, j in combinations(range(rank), 2):
        x = y = 0
        crossings: list[tuple[int, int, int]] = []  # (column, height, ±1) per i-step
        for c in codes:
            g = c >> 1
            if g == i:
                if c & 1:
                    x -= 1
                    crossings.append((x, y, -1))
                else:
                    crossings.append((x, y, 1))
                    x += 1
            elif g == j:
                y += -1 if c & 1 else 1
        run = height = 0
        for _, h, s in sorted(crossings):
            total += abs(run) * (h - height)
            run += s
            height = h
    return total


def area_lower_bound(p: Presentation) -> Callable[[bytes], int]:
    """A proved lower bound on the area of a word trivial in ``p``, read
    off the relators alone, as a function of the word's codes.

    A functional F that free moves leave unchanged, and that a relator
    step ``xuy -> xvy`` changes by at most ``|F(u v^-1)|``, bounds the
    area of ``w`` below by ``⌈|F(w)| / max_r |F(r)|⌉``.  The bound is the
    largest of these, or 0, over the exponent sum of each generator and,
    when at least two generators have exponent sum 0 on every relator,
    the homological area of the projection onto them (:func:`_winding_area`;
    Gersten 1999; Abrams, Brady, Dani & Young, PNAS 2013): it sends every
    word of a derivation, and every ``u v^-1``, to a closed loop in ℤ^k,
    and winding numbers add.  An F that is 0 on every relator is constant
    along a derivation, so it is left out.  A word whose free reduction
    is not empty has area at least 1, as free moves alone keep a word's
    element of the free group."""
    functionals = [functools.partial(_exponent_sum, g=g) for g in range(p.num_generators)]
    balanced = [g for g, f in enumerate(functionals) if not any(map(f, p.relators))]
    if len(balanced) >= 2:
        kept = bytes(c for g in balanced for c in (2 * g, 2 * g + 1))
        project = bytes.maketrans(kept, bytes(range(len(kept))))
        dropped = bytes(c for c in range(p.alphabet_size) if c not in kept)
        functionals.append(lambda codes: _winding_area(codes.translate(project, dropped),
                                                       len(balanced)))
    steps = [max((abs(f(r)) for r in p.relators), default=0) for f in functionals]
    nonzero = [(f, step) for f, step in zip(functionals, steps) if step]
    return lambda codes: (max((-(-abs(f(codes)) // step) for f, step in nonzero), default=0)
                          or int(bool(reduce_codes(codes))))
