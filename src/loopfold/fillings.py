"""Filling-invariant profiles of a presentation, and their comparisons.

For every length bound ``n`` up to a limit, the profile aggregates, over the
trivial words of length ≤ n, all read off the reduced ones
(:func:`measure_profile`):

* ``P(n)`` — the largest minimum relator-application count, proved by a
  bound-tight derivation (:func:`~loopfold.rewrite.tight_derivations`) where
  one is found, else by rewrite search, certified where the two meet by
  the area lower bound the relators give
  (:func:`~loopfold.bounds.area_lower_bound`); a word has the area of its
  free reduction;
* ``f(n)`` — the largest filling length, |w| where a bound-tight derivation
  proves it, else by rewrite search; a word ``w`` has filling length
  max(|w|, FL(red w));
* ``d(n)`` — the smallest loop-complex radius whose folded DFA accepts every
  reduced trivial word (completeness scan; soundness holds at any radius);
* ``rhoTC(n)`` — the radius of the first partial Cayley graph that accepts
  every reduced trivial word (no round accepts a non-trivial word).

Ground truth for "trivial" comes from a :class:`ReferenceOracle`: a closed
form for the small classical groups, held as an identity and the action of a
letter, or the rewrite search; its ``check`` is the one rule for whether it
fits a presentation.  The profile feeds the inequality checks relating the
four functions, with the double-exponential bound instantiated at the
explicit constants ``C = 2(2|A|+1)·||R||²`` and ``c = (2|A|)²``.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, NamedTuple

# layers read through their modules, so `grammar-bound` loads neither
# toddcoxeter nor, with a closed-form oracle, rewrite (see loopfold/__init__.py)
from . import _kernels, automata, rewrite, toddcoxeter
from .bounds import BudgetFailure, OracleResult, OracleStatus, SearchBudget, prefix_maxima
from .core import Presentation, render_word


# -- reference oracles --------------------------------------------------------


class ReferenceOracle(NamedTuple):
    """Ground-truth triviality decider.  A closed form (cyclic, free abelian
    or free group) holds its group as data: the ``identity`` and
    ``act(element, code)``, the element times the letter ``code``.  The
    fallback holds the rewrite ``system`` it searches under ``budget``."""

    num_generators: int
    identity: object = None
    act: Callable[[object, int], object] | None = None
    system: rewrite.RewriteSystem | None = None
    budget: SearchBudget | None = None

    @classmethod
    def cyclic(cls, k: int) -> "ReferenceOracle":
        if k < 1:
            raise ValueError("cyclic order must be positive")
        return cls(1, identity=0, act=lambda e, code: (e + (-1 if code & 1 else 1)) % k)

    @classmethod
    def free_abelian(cls, rank: int) -> "ReferenceOracle":
        if rank < 1:
            raise ValueError("rank must be positive")

        def act(e, code):
            g, delta = code >> 1, -1 if code & 1 else 1
            return e[:g] + (e[g] + delta,) + e[g + 1 :]
        return cls(rank, identity=(0,) * rank, act=act)

    @classmethod
    def free(cls, rank: int) -> "ReferenceOracle":
        if rank < 1:
            raise ValueError("rank must be positive")

        def act(e, code):
            return e[:-1] if e and e[-1] == code ^ 1 else e + bytes((code,))
        return cls(rank, identity=b"", act=act)

    @classmethod
    def rewrite_search(cls, system: rewrite.RewriteSystem, budget: SearchBudget) -> "ReferenceOracle":
        """Search ``system``; sweeps it has already made are reused."""
        return cls(system.presentation.num_generators, system=system, budget=budget)

    def decide(self, w: bytes) -> bool:
        """Whether ``w`` is trivial; the rewrite search raises
        :class:`~loopfold.rewrite.BudgetFailure` when a sweep the state
        budget cut misses ``w``, which it then cannot call non-trivial."""
        if self.system is None:
            return self._kills(w)
        trivial, status = rewrite.is_trivial(w, self.system, self.budget)
        if status is OracleStatus.BUDGET_EXCEEDED:
            raise BudgetFailure(f"triviality of {render_word(w)} is BudgetExceeded; "
                                "raise --budget-states")
        return trivial

    def check(self, p: Presentation) -> None:
        """Raise ValueError unless the oracle speaks ``p``'s generators and
        its group kills every relator of ``p`` (a search: it searches ``p``),
        so its list holds ``p``'s trivial words.  Decides no word."""
        if self.num_generators != p.num_generators:
            raise ValueError(f"different generator counts: the oracle speaks "
                             f"{self.num_generators}, the presentation has {p.num_generators}")
        kills = (self.system.presentation == p if self.system is not None
                 else all(map(self._kills, p.relators)))
        if not kills:
            raise ValueError("its group does not kill every relator")

    def trivial_words(self, n: int) -> list[bytes]:
        """Every word of length ≤ n that the oracle calls trivial, shortest
        first and lexicographic in codes within a length; none when n < 0.
        A closed form walks prefixes through its Cayley ball and extends one
        only while the word norm of its element, its distance from the
        identity, is at most the number of letters left; the rewrite search
        reads the words its sweeps hold (:func:`~loopfold.rewrite.trivial_words`),
        the same list as deciding every word by :meth:`decide`.
        ``grammar-bound`` reads this full list, ``profile`` only
        :meth:`reduced_trivial_words`."""
        if self.system is not None:
            return rewrite.trivial_words(self.system, self.budget, n)
        return self._walk(n, reduced=False)

    def reduced_trivial_words(self, n: int) -> list[bytes]:
        """The freely reduced words of :meth:`trivial_words`, in its order,
        listed without the others: the closed-form walk never appends a
        letter's inverse, and the rewrite search expands only its reduced
        sweep keys (:func:`~loopfold.rewrite.reduced_trivial_words`)."""
        if self.system is not None:
            return rewrite.reduced_trivial_words(self.system, self.budget, n)
        return self._walk(n, reduced=True)

    def budget_cut(self, n: int) -> bool:
        """Whether the state budget cut a sweep that the lists up to length
        n are read from (:func:`~loopfold.rewrite.sweeps_complete`), so
        that they may miss trivial words; never for a closed form."""
        return self.system is not None and not rewrite.sweeps_complete(self.system, self.budget, n)

    def _walk(self, n: int, reduced: bool) -> list[bytes]:
        """The closed form's trivial words of length ≤ n, the reduced ones
        alone if ``reduced``."""
        if n < 0:
            return []
        # a prefix's element lies within n/2 of the identity, so its
        # neighbours all lie in the ball
        ball = self.cayley_ball(n // 2 + 1)
        _order, norm = automata.breadth_first(ball)
        out: list[bytes] = []

        def extend(prefix: bytes, v: int, left: int, banned: int) -> None:
            if left == 0:
                out.append(prefix)
                return
            for code, row in enumerate(ball.delta):
                if code != banned and norm[t := row[v]] < left:  # at most left - 1 letters remain
                    extend(prefix + bytes((code,)), t, left - 1, code ^ 1 if reduced else -1)

        for length in range(n + 1):
            extend(b"", ball.origin, length, -1)
        return out

    def cayley_ball(self, radius: int) -> automata.FoldedGraph:
        """The ball of the group's Cayley graph: vertices within ``radius``
        of the identity, with all edges between them, numbered in BFS order.
        Raises ValueError for a negative radius, and for the rewrite-search
        fallback, which has no closed form."""
        if self.system is not None:
            raise ValueError("the rewrite-search oracle has no closed-form Cayley graph")
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        act, identity = self.act, self.identity
        index = {identity: 0}
        order = [identity]
        dist = [0]
        head = 0
        while head < len(order):
            elem, d = order[head], dist[head]
            head += 1
            if d == radius:
                continue
            for code in range(2 * self.num_generators):
                nxt = act(elem, code)
                if nxt not in index:
                    index[nxt] = len(order)
                    order.append(nxt)
                    dist.append(d + 1)
        delta = [[-1] * len(order) for _ in range(2 * self.num_generators)]
        for v, elem in enumerate(order):
            for gen in range(self.num_generators):
                t = index.get(act(elem, 2 * gen))
                if t is not None:
                    delta[2 * gen][v], delta[2 * gen + 1][t] = t, v
        return automata.FoldedGraph(self.num_generators, 0, delta)

    def _kills(self, codes: bytes) -> bool:
        """Whether ``codes`` maps to the identity of the closed-form group."""
        return reduce(self.act, codes, self.identity) == self.identity


# -- isodiametric measurement -------------------------------------------------


def measure_isodiametric(p: Presentation, n_max: int, trivial: list[bytes]) -> list[OracleResult]:
    """Entry ``n`` (0 ≤ n ≤ n_max) is d(n), the smallest radius ``j ≤ n``
    whose folded loop complex accepts the reduction of every word of length
    ≤ n in ``trivial``, the oracle's list of trivial words of length ≤ n_max.

    Acceptance is sound at every radius, so only completeness is scanned,
    on the reduced words of the list (:func:`~loopfold._kernels.trivial_layers`).
    """
    layers = _kernels.trivial_layers(trivial, n_max, p.alphabet_size)
    graphs = (f.snapshot() for f in automata.loop_complexes(p))
    return [
        OracleResult(None, OracleStatus.LOWER_BOUND_ONLY) if hit is None
        else OracleResult(hit[0], OracleStatus.EXACT)
        for hit in _kernels.first_deciding(graphs, layers)
    ]


# -- profiles -----------------------------------------------------------------


class ProfileRow(NamedTuple):
    n: int
    area: OracleResult  # P(n)
    length: OracleResult  # f(n)
    diameter: OracleResult  # d(n)
    tc_radius: OracleResult  # rhoTC(n)


class FillingProfile(NamedTuple):
    presentation: Presentation
    rows: tuple[ProfileRow, ...]


def measure_profile(
    system: rewrite.RewriteSystem,
    n_max: int,
    oracle: ReferenceOracle,
    budget: SearchBudget,
) -> FillingProfile:
    """Profile of all four filling functions for 0 ≤ n ≤ n_max, in one pass.

    The oracle lists the reduced trivial words of length ≤ n_max once
    (:meth:`ReferenceOracle.reduced_trivial_words`), and all four columns
    read that list.  Free moves cost nothing and the rewrite graph is
    undirected, so a word ``w`` and its free reduction red(w) have the same
    area, and FL(w) = max(|w|, FL(red w)): reduce ``w`` within its length,
    then fill red(w); and a filling of ``w`` under a cap gives one of red(w)
    under it.  So ``P`` is the running maximum of
    :func:`~loopfold.rewrite.min_isoperimetric` over the reduced trivial
    words, and ``f`` is the larger of the running maximum of
    :func:`~loopfold.rewrite.filling_length` over them and t(min(n, L)),
    where t(m) is the longest trivial length ≤ m, a reduced trivial word padded
    with ``xX`` pairs, and L is the length cap.  ``f`` is ``LowerBoundOnly``
    once t(n) > L.  Both per-word measures are constant on the orbits of
    the system's symmetries, so they run once per orbit.  One search for
    bound-tight derivations (:func:`~loopfold.rewrite.tight_derivations`)
    runs first, over the orbits of length ≤ L, and each orbit it proves is
    ``Exact`` at the area bound and its own length with no sweep.  Of the
    others, an area that meets the bound ``system`` reads off its relators
    (:meth:`~loopfold.rewrite.RewriteSystem.area_lower_bound`) is
    ``Exact`` at the length cap; only the rest need the sweep at the cap
    plus 2.  When the state budget cut a sweep the oracle lists its words
    from, the list may miss words of the lengths that sweep lists, so ``P``
    and ``f`` read ``BudgetExceeded`` from the first such length on
    (:meth:`ReferenceOracle.budget_cut`).
    Both scans try graph i ≤ n at n, radius i for ``d`` and round i + 1
    for ``rhoTC``, and leave an n that no such graph decides ``unreached``
    and ``LowerBoundOnly``; as rounds(n) ≤ max(d(n), 1), ``rhoTC`` is
    reached wherever ``d`` is.  ``system`` is the presentation's rewrite
    system, shared with the caller so that no sweep of it runs twice.
    """
    p = system.presentation
    oracle.check(p)
    reduced = oracle.reduced_trivial_words(n_max)
    keys = list(dict.fromkeys(map(system.canonical, reduced)))
    cap = budget.max_word_length
    proved = rewrite.tight_derivations(system, keys, cap)
    area = prefix_maxima(keys, n_max, lambda w: (
        OracleResult(system.area_lower_bound(w), OracleStatus.EXACT) if w in proved
        else rewrite.min_isoperimetric(w, system, budget)))
    fills = prefix_maxima(keys, n_max, lambda w: (
        OracleResult(len(w), OracleStatus.EXACT) if w in proved
        else rewrite.filling_length(w, system, budget)))
    # t(m), the longest trivial length ≤ m: a reduced trivial word padded with xX pairs
    odd = min((len(w) for w in reduced if len(w) % 2), default=n_max + 1)
    longest = [m if m % 2 == 0 or m >= odd else m - 1 for m in range(n_max + 1)]
    diameter = measure_isodiametric(p, n_max, reduced)
    tc = [
        OracleResult(None, OracleStatus.LOWER_BOUND_ONLY) if hit is None
        else OracleResult(hit[1], OracleStatus.EXACT)
        for hit in toddcoxeter.measure_tc_radius(p, n_max, reduced)
    ]
    # a cut sweep may leave the list short from the first length it lists on
    cut = next((n for n in range(1, n_max + 1) if oracle.budget_cut(n)), n_max + 1)
    rows = []
    for n, (area_cell, fill, d_cell, tc_cell) in enumerate(zip(area, fills, diameter, tc)):
        status = fill.status
        if longest[n] > cap and status is OracleStatus.EXACT:
            status = OracleStatus.LOWER_BOUND_ONLY
        f_cell = OracleResult(max(fill.value, longest[min(n, cap)]), status)
        if n >= cut:
            area_cell, f_cell = (cell._replace(status=OracleStatus.BUDGET_EXCEEDED)
                                 for cell in (area_cell, f_cell))
        rows.append(ProfileRow(n, area_cell, f_cell, d_cell, tc_cell))
    return FillingProfile(p, tuple(rows))


# -- inequality checks --------------------------------------------------------


class InequalityRow(NamedTuple):
    n: int
    d_le_half_f: bool | None  # None when an input is not Exact
    double_exp: bool | None
    d_equals_rho: bool | None


class InequalityReport(NamedTuple):
    rows: tuple[InequalityRow, ...]

    @property
    def asserted_hold(self) -> bool:
        return all(
            (r.d_le_half_f is not False) and (r.double_exp is not False) for r in self.rows
        )

    @property
    def equality_holds(self) -> bool:
        return all(r.d_equals_rho is not False for r in self.rows)


def double_exp_constants(p: Presentation) -> tuple[int, int]:
    """The constants ``(C, c) = (2(2|A|+1)·||R||², (2|A|)²)`` of the
    double-exponential bound."""
    return 2 * (2 * p.num_generators + 1) * p.relator_total_length**2, (2 * p.num_generators) ** 2


def _double_exp_exponent(p: Presentation, d: int) -> int:
    """The exponent ``C·c^d`` of the double-exponential bound."""
    big_c, base = double_exp_constants(p)
    return big_c * base**d


def double_exp_bound(p: Presentation, n: int, d: int) -> int:
    """The explicit double-exponential isoperimetric bound n·2^(C·c^d)."""
    return n << _double_exp_exponent(p, d)


def within_double_exp(p: Presentation, n: int, d: int, value: int) -> bool:
    """Whether ``value ≤ n·2^E`` with ``E = C·c^d``, decided without building
    the bound (E bits, 1.3 MB at d = 4 for ℤ²): it holds exactly when
    ``n ≥ ⌈value / 2^E⌉``, and that ceiling is a shift."""
    return n >= -(-value >> _double_exp_exponent(p, d))


def check_inequalities(profile: FillingProfile) -> InequalityReport:
    """Per-n checks on Exact entries (others are skipped): d(n) ≤ ⌈f(n)/2⌉,
    P(n) ≤ n·2^(C·c^d(n)), and the d = rhoTC comparison."""
    p = profile.presentation
    rows = []
    for row in profile.rows:
        d_le_half_f = None
        if row.diameter.exact and row.length.exact:
            d_le_half_f = row.diameter.value <= -(-row.length.value // 2)
        double_exp = None
        if row.area.exact and row.diameter.exact:
            double_exp = within_double_exp(p, row.n, row.diameter.value, row.area.value)
        d_equals_rho = None
        if row.diameter.exact and row.tc_radius.exact:
            d_equals_rho = row.diameter.value == row.tc_radius.value
        rows.append(InequalityRow(row.n, d_le_half_f, double_exp, d_equals_rho))
    return InequalityReport(tuple(rows))


def profile_to_csv(profile: FillingProfile, report: InequalityReport) -> str:
    """Deterministic CSV: one row per n, statuses spelled out, inequality
    verdicts as true/false with 'skipped' for non-Exact inputs."""

    def render_bool(b: bool | None) -> str:
        return "skipped" if b is None else ("true" if b else "false")

    lines = ["n,P,P_status,f,f_status,d,rhoTC,d_le_half_f,double_exp,d_eq_rhoTC"]
    for row, checks in zip(profile.rows, report.rows):
        lines.append(
            ",".join(
                [
                    str(row.n),
                    row.area.render_value(),
                    str(row.area.status),
                    row.length.render_value(),
                    str(row.length.status),
                    row.diameter.render_value(),
                    row.tc_radius.render_value(),
                    render_bool(checks.d_le_half_f),
                    render_bool(checks.double_exp),
                    render_bool(checks.d_equals_rho),
                ]
            )
        )
    return "\n".join(lines) + "\n"

