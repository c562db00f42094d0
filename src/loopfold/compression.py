"""Relator fusion that halves the rewrite-application count.

Fusing the reduced products of 2..m symmetrized relators into the relator set
(``m`` being the longest base relator) yields a presentation of the same
group whose minimum application count obeys P'(n) ≤ ⌈P(n)/2 + n/2⌉: each new
relator does the work of two old ones.  The check runs both presentations
through the 0-1 BFS oracle and compares entrywise.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Presentation, Word
from .fillings import ReferenceOracle
from .rewrite import (
    OracleResult,
    RewriteSystem,
    SearchBudget,
    min_isoperimetric,
    prefix_maxima,
)

DEFAULT_PRODUCT_CAP = 200_000


class CombinatorialBlowupError(RuntimeError):
    """The fused-relator enumeration would exceed the configured cap."""


class CompressedPresentation(NamedTuple):
    base: Presentation
    symmetrized: tuple[Word, ...]
    fused: tuple[Word, ...]
    combined: Presentation
    m: int


def compress(p: Presentation, max_products: int = DEFAULT_PRODUCT_CAP) -> CompressedPresentation:
    """Adjoin every nonempty reduced product of 2..m symmetrized relators.

    Products reducing to the empty word are discarded; the fused set keeps
    literal reduced words (no cyclic identification).  Raises
    :class:`CombinatorialBlowupError` instead of truncating when the tuple
    count Σ |R_s|^i exceeds ``max_products``; the check runs before any
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
    if total > max_products:
        raise CombinatorialBlowupError(
            f"{total} relator tuples exceed the cap of {max_products}"
        )
    relators = [r.codes for r in symmetrized]
    level = set(relators)
    fused: set[bytes] = set()
    for _ in range(2, m + 1):
        products = set()
        for u in level:
            n = len(u)
            for v in relators:
                k = 0  # letters cancelled at the seam
                while k < n and k < len(v) and u[n - 1 - k] == v[k] ^ 1:
                    k += 1
                products.add(u[: n - k] + v[k:])
        fused |= products
        level = products
    fused.discard(b"")
    ordered = sorted(fused)
    ordered.sort(key=len)  # stable: shortlex
    fused_words = tuple(map(Word, ordered))
    return CompressedPresentation(
        base=p,
        symmetrized=symmetrized,
        fused=fused_words,
        combined=Presentation(p.num_generators, symmetrized + fused_words),
        m=m,
    )


class CompressionRow(NamedTuple):
    n: int
    base_area: OracleResult
    combined_area: OracleResult
    bound: int | None  # ⌈(P_base(n) + n) / 2⌉ when the base value is Exact
    holds: bool | None  # None when either area is not Exact


class CompressionReport(NamedTuple):
    compressed: CompressedPresentation
    n_max: int
    rows: tuple[CompressionRow, ...]
    triviality_agreement: bool

    @property
    def all_hold(self) -> bool:
        return self.triviality_agreement and all(r.holds is not False for r in self.rows)


def verify_compression(
    compressed: CompressedPresentation,
    n_max: int,
    budget: SearchBudget,
    base_system: RewriteSystem,
) -> CompressionReport:
    """Entrywise check of P_combined(n) ≤ ⌈P_base(n)/2 + n/2⌉ for n ≤ n_max,
    plus a same-group cross-check: both systems' rewrite-search oracles list
    the same trivial words of length ≤ n_max.  Both lists come from one
    enumeration order, so they are equal exactly when the systems agree on
    every word.

    ``base_system`` is the rewrite system of ``compressed.base``."""
    if base_system.presentation != compressed.base:
        raise ValueError("the rewrite system is not that of the base presentation")
    combined_system = RewriteSystem(compressed.combined)
    trivial = ReferenceOracle.rewrite_search(base_system, budget).trivial_words(n_max)
    agreement = trivial == ReferenceOracle.rewrite_search(combined_system, budget).trivial_words(n_max)

    base_areas = prefix_maxima(trivial, n_max, lambda w: min_isoperimetric(w, base_system, budget))
    combined_areas = prefix_maxima(trivial, n_max, lambda w: min_isoperimetric(w, combined_system, budget))
    rows = []
    for n, (base_area, combined_area) in enumerate(zip(base_areas, combined_areas)):
        bound = None
        holds = None
        if base_area.exact:
            bound = (base_area.value + n + 1) // 2
            if combined_area.exact:
                holds = combined_area.value <= bound
        rows.append(CompressionRow(n, base_area, combined_area, bound, holds))
    return CompressionReport(
        compressed=compressed,
        n_max=n_max,
        rows=tuple(rows),
        triviality_agreement=agreement,
    )
