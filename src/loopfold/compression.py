"""Relator fusion that halves the rewrite-application count.

Fusing the reduced products of 2..m symmetrized relators into the relator set
(``m`` being the longest base relator) yields a presentation of the same
group whose minimum application count obeys P'(n) ≤ ⌈P(n)/2 + n/2⌉: each new
relator does the work of two old ones.  The check runs both presentations
through the 0-1 BFS oracle and compares entrywise.
"""

from __future__ import annotations

from typing import NamedTuple

# bounds and rewrite are read through their modules, so plain `compress`
# loads neither (see loopfold/__init__.py)
from . import bounds, rewrite
from .core import Presentation

DEFAULT_PRODUCT_CAP = 200_000


class CombinatorialBlowupError(RuntimeError):
    """The fused-relator enumeration would exceed the configured cap."""


class CompressedPresentation(NamedTuple):
    base: Presentation
    symmetrized: tuple[bytes, ...]
    fused: tuple[bytes, ...]
    combined: Presentation
    m: int


def compress(p: Presentation) -> CompressedPresentation:
    """Adjoin every nonempty reduced product of 2..m symmetrized relators.

    Products reducing to the empty word are discarded; the fused set keeps
    literal reduced words (no cyclic identification).  Raises
    :class:`CombinatorialBlowupError` instead of truncating when the tuple
    count Σ |R_s|^i exceeds ``DEFAULT_PRODUCT_CAP``; the check runs before any
    product is formed.

    Products are built level by level rather than tuple by tuple: the
    reduced products of ``i`` relators are those of ``i - 1`` relators,
    empty word included, each times a relator.  Both factors are reduced,
    so only their seam cancels.
    """
    if not p.relators:
        raise ValueError("nothing to fuse: the relator set is empty")
    symmetrized = p.symmetrized().relators
    m = p.max_relator_length
    total = sum(len(symmetrized) ** i for i in range(2, m + 1))
    if total > DEFAULT_PRODUCT_CAP:
        raise CombinatorialBlowupError(
            f"{total} relator tuples exceed the cap of {DEFAULT_PRODUCT_CAP}"
        )
    level = set(symmetrized)
    fused: set[bytes] = set()
    for _ in range(2, m + 1):
        products = set()
        for u in level:
            n = len(u)
            for v in symmetrized:
                k = 0  # letters cancelled at the seam
                while k < n and k < len(v) and u[n - 1 - k] == v[k] ^ 1:
                    k += 1
                products.add(u[: n - k] + v[k:])
        fused |= products
        level = products
    fused.discard(b"")
    ordered = sorted(fused)
    ordered.sort(key=len)  # stable: shortlex
    return CompressedPresentation(
        base=p,
        symmetrized=symmetrized,
        fused=tuple(ordered),
        combined=Presentation(p.num_generators, [*symmetrized, *ordered]),
        m=m,
    )


class CompressionRow(NamedTuple):
    n: int
    base_area: bounds.OracleResult
    combined_area: bounds.OracleResult
    bound: int | None  # ⌈(P_base(n) + n) / 2⌉ when the base value is Exact
    holds: bool | None  # None when either area is not Exact


class CompressionReport(NamedTuple):
    rows: tuple[CompressionRow, ...]
    triviality_agreement: bool | None  # None: unequal lists, but the budget cut a sweep behind them

    @property
    def all_hold(self) -> bool:
        return self.triviality_agreement and all(r.holds is not False for r in self.rows)


def verify_compression(
    compressed: CompressedPresentation,
    n_max: int,
    budget: bounds.SearchBudget,
    base_system: rewrite.RewriteSystem,
) -> CompressionReport:
    """Entrywise check of P_combined(n) ≤ ⌈P_base(n)/2 + n/2⌉ for n ≤ n_max,
    plus a same-group cross-check: both systems' sweeps hold the same
    orbits of trivial words of length ≤ n_max
    (:func:`~loopfold.rewrite.sweep_keys`).  Both canonicalize under the
    base's symmetry group, so equal key sets mean equal lists of trivial
    words (:func:`~loopfold.rewrite.trivial_words`), and the systems agree
    on every word.  Where the state budget cut a sweep behind them, unequal
    sets decide nothing, and the agreement is None.  An area is constant on
    an orbit, so each column measures one word per base key.

    ``base_system`` is the rewrite system of ``compressed.base``; the
    combined system takes its symmetries and area bound from it
    (:meth:`~loopfold.rewrite.RewriteSystem.fused`)."""
    if base_system.presentation != compressed.base:
        raise ValueError("the rewrite system is not that of the base presentation")
    combined_system = rewrite.RewriteSystem.fused(base_system, compressed.combined, compressed.m)
    keys = rewrite.sweep_keys(base_system, budget, n_max)
    agreement = set(keys) == set(rewrite.sweep_keys(combined_system, budget, n_max))
    if not agreement and not all(rewrite.sweeps_complete(system, budget, n_max)
                                 for system in (base_system, combined_system)):
        agreement = None
    def areas(system):
        return bounds.prefix_maxima(keys, n_max,
                                    lambda w: rewrite.min_isoperimetric(w, system, budget))

    rows = []
    for n, (base_area, combined_area) in enumerate(zip(areas(base_system), areas(combined_system))):
        bound = None
        holds = None
        if base_area.exact:
            bound = (base_area.value + n + 1) // 2
            if combined_area.exact:
                holds = combined_area.value <= bound
        rows.append(CompressionRow(n, base_area, combined_area, bound, holds))
    return CompressionReport(tuple(rows), agreement)
