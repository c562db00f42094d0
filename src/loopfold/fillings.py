"""Filling-invariant profiles of a presentation, and their comparisons.

For every length bound ``n`` up to a limit, the profile aggregates, over the
trivial words of length ≤ n:

* ``P(n)`` — the largest minimum relator-application count (rewrite search);
* ``f(n)`` — the largest filling length (rewrite search);
* ``d(n)`` — the smallest loop-complex radius whose folded DFA accepts every
  reduced trivial word (completeness scan; soundness holds at any radius);
* ``rhoTC(n)`` — the radius of the first partial Cayley graph that accepts
  every reduced trivial word (no round accepts a non-trivial word).

Ground truth for "trivial" comes from a :class:`ReferenceOracle` — a closed
form for the classical small groups, or the rewrite search itself as a
fallback.  The profile feeds the inequality checks relating the four
functions, with the double-exponential bound instantiated at the explicit
constants ``C = 2(2|A|+1)·||R||²`` and ``c = (2|A|)²``.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple, Sequence

from . import _kernels
from .automata import Folder, FoldedGraph, distances_from_origin, loop_complexes, trace
from .core import EMPTY, Presentation, Word, words_up_to
from .rewrite import (
    OracleResult,
    OracleStatus,
    RewriteSystem,
    SearchBudget,
    filling_length,
    is_trivial,
    min_isoperimetric,
    prefix_maxima,
)
from .toddcoxeter import measure_tc_radius


# -- reference oracles --------------------------------------------------------


class ReferenceOracle:
    """Ground-truth triviality decider: a closed form for cyclic, free
    abelian, and free groups, or the rewrite search as a fallback."""

    def __init__(self, kind: str, *, order: int = 0, rank: int = 0,
                 system: RewriteSystem | None = None,
                 budget: SearchBudget | None = None):
        if kind not in ("cyclic", "free-abelian", "free", "rewrite"):
            raise ValueError(f"unknown oracle kind {kind!r}")
        if kind == "rewrite" and (system is None or budget is None):
            raise ValueError("the rewrite-search oracle needs a rewrite system and a budget")
        self.kind = kind
        self.order = order
        self.rank = rank
        self.system = system
        self.budget = budget

    @classmethod
    def cyclic(cls, k: int) -> "ReferenceOracle":
        if k < 1:
            raise ValueError("cyclic order must be positive")
        return cls("cyclic", order=k)

    @classmethod
    def free_abelian(cls, rank: int) -> "ReferenceOracle":
        if rank < 1:
            raise ValueError("rank must be positive")
        return cls("free-abelian", rank=rank)

    @classmethod
    def free(cls, rank: int) -> "ReferenceOracle":
        if rank < 1:
            raise ValueError("rank must be positive")
        return cls("free", rank=rank)

    @classmethod
    def rewrite_search(cls, system: RewriteSystem, budget: SearchBudget) -> "ReferenceOracle":
        """Search ``system``; sweeps it has already made are reused."""
        return cls("rewrite", system=system, budget=budget)

    @property
    def num_generators(self) -> int:
        if self.kind == "cyclic":
            return 1
        if self.kind == "rewrite":
            return self.system.presentation.num_generators
        return self.rank

    def decide(self, w: Word) -> bool:
        if self.kind == "rewrite":
            return is_trivial(w, self.system, self.budget)[0]
        identity = self._identity()
        return reduce(self._multiplication(), w.codes, identity) == identity

    def trivial_words(self, n: int) -> list[Word]:
        """Every word of length ≤ n that the oracle calls trivial, shortest
        first and lexicographic in codes within a length.  A closed form
        walks prefixes through its Cayley ball and extends one only while
        the word norm of its element, its distance from the identity, is at
        most the number of letters left; the rewrite search decides every
        word."""
        if self.kind == "rewrite":
            return [w for w in words_up_to(2 * self.num_generators, n, reduced=False)
                    if self.decide(w)]
        # a prefix's element lies within n/2 of the identity, so its
        # neighbours all lie in the ball
        ball = self.cayley_ball(n // 2 + 1)
        norm = distances_from_origin(ball)
        out: list[Word] = []

        def extend(prefix: bytes, v: int, left: int) -> None:
            if left == 0:
                out.append(Word(prefix))
                return
            for code, row in enumerate(ball.delta):
                if norm[t := row[v]] < left:  # at most left - 1 letters remain
                    extend(prefix + bytes((code,)), t, left - 1)

        for length in range(n + 1):
            extend(b"", ball.origin, length)
        return out

    def cayley_ball(self, radius: int) -> FoldedGraph:
        """The ball of the group's Cayley graph: vertices within ``radius``
        of the identity, with all edges between them, numbered in BFS order.
        Not available for the rewrite-search fallback."""
        if self.kind == "rewrite":
            raise ValueError("the rewrite-search oracle has no closed-form Cayley graph")
        mult = self._multiplication()
        identity = self._identity()
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
                nxt = mult(elem, code)
                if nxt not in index:
                    index[nxt] = len(order)
                    order.append(nxt)
                    dist.append(d + 1)
        delta = [[-1] * len(order) for _ in range(2 * self.num_generators)]
        for v, elem in enumerate(order):
            for gen in range(self.num_generators):
                t = index.get(mult(elem, 2 * gen))
                if t is not None:
                    delta[2 * gen][v], delta[2 * gen + 1][t] = t, v
        return FoldedGraph(self.num_generators, 0, delta)

    def _identity(self):
        if self.kind == "cyclic":
            return 0
        if self.kind == "free-abelian":
            return (0,) * self.rank
        return b""

    def _multiplication(self):
        if self.kind == "cyclic":
            k = self.order
            return lambda e, code: (e + (-1 if code & 1 else 1)) % k
        if self.kind == "free-abelian":
            def mult(e, code):
                g, delta = code >> 1, -1 if code & 1 else 1
                return e[:g] + (e[g] + delta,) + e[g + 1 :]
            return mult

        def mult_free(e, code):
            if e and e[-1] == code ^ 1:
                return e[:-1]
            return e + bytes((code,))
        return mult_free


# -- isodiametric measurement -------------------------------------------------


def measure_isodiametric(
    p: Presentation,
    n_max: int,
    trivial: list[Word],
    max_radius: int | None = None,
) -> list[OracleResult]:
    """Entry ``n`` (0 ≤ n ≤ n_max) is d(n), the smallest radius ``j ≤
    max_radius`` (default ``n``) whose folded loop complex accepts the
    reduction of every word of length ≤ n in ``trivial``, the oracle's list
    of trivial words of length ≤ n_max.

    Acceptance is sound at every radius, so only completeness is scanned,
    on the reduced words of the list (:func:`~loopfold._kernels.trivial_layers`).
    """
    layers = _kernels.trivial_layers(trivial, n_max, p.alphabet_size)
    limits = [n if max_radius is None else max_radius for n in range(n_max + 1)]
    graphs = (f.snapshot() for f in loop_complexes(p))
    return [
        OracleResult(None, OracleStatus.LOWER_BOUND_ONLY) if hit is None
        else OracleResult(hit[0], OracleStatus.EXACT)
        for hit in _kernels.first_deciding(graphs, layers, limits)
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
    n_max: int
    rows: tuple[ProfileRow, ...]


def measure_profile(
    system: RewriteSystem,
    n_max: int,
    oracle: ReferenceOracle,
    budget: SearchBudget,
    max_rounds: int = 24,
) -> FillingProfile:
    """Profile of all four filling functions for 0 ≤ n ≤ n_max, in one pass.

    The oracle lists the trivial words of length ≤ n_max once.  ``P`` and
    ``f`` are running maxima of the per-word search oracles over the trivial
    words, non-reduced words included (the word's own length counts); both
    are constant on the orbits of the system's symmetries, so they are read
    once per orbit.  The ``d`` scan and the coset saturation read the
    list's reduced words, filtered once; ``rhoTC`` is ``unreached`` from
    the first n that ``max_rounds`` rounds do not decide.  ``system`` is the
    presentation's rewrite system, shared with the caller so that no sweep
    of it runs twice.
    """
    p = system.presentation
    if oracle.num_generators != p.num_generators:
        raise ValueError("the oracle and the presentation have different generator counts")
    trivial = oracle.trivial_words(n_max)
    orbits = [Word(codes) for codes in dict.fromkeys(system.canonical(w.codes) for w in trivial)]
    area = prefix_maxima(orbits, n_max, lambda w: min_isoperimetric(w, system, budget))
    length = prefix_maxima(orbits, n_max, lambda w: filling_length(w, system, budget))
    reduced = [w for w in trivial if w.is_reduced()]
    diameter = measure_isodiametric(p, n_max, reduced)
    tc = [
        OracleResult(None, OracleStatus.BUDGET_EXCEEDED) if hit is None
        else OracleResult(hit[1], OracleStatus.EXACT)
        for hit in measure_tc_radius(p, n_max, reduced, max_rounds=max_rounds)
    ]
    rows = (ProfileRow(n, *cells) for n, cells in enumerate(zip(area, length, diameter, tc)))
    return FillingProfile(p, n_max, tuple(rows))


# -- inequality checks --------------------------------------------------------


class InequalityRow(NamedTuple):
    n: int
    d_le_half_f: bool | None  # None when an input is not Exact
    double_exp: bool | None
    d_equals_rho: bool | None


class InequalityReport(NamedTuple):
    presentation: Presentation
    big_c: int  # C = 2(2|A|+1)||R||^2
    base: int  # c = (2|A|)^2
    rows: tuple[InequalityRow, ...]
    fitted_area_base: int | None  # least integer c >= 2 with P(n) <= c^f(n)
    fitted_length_base: int | None  # least integer c >= 2 with f(n) <= c^(d(n)+n)

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


def _fit_base(pairs: list[tuple[int, int]], cap: int = 64) -> int | None:
    """Least integer base c ≥ 2 with value ≤ c**exponent for every pair."""
    for c in range(2, cap + 1):
        if all(value <= c**exponent for value, exponent in pairs):
            return c
    return None


def check_inequalities(profile: FillingProfile) -> InequalityReport:
    """Per-n checks: d(n) ≤ ⌈f(n)/2⌉ and P(n) ≤ n·2^(C·c^d(n)) on Exact
    entries (others are skipped), the d = rhoTC comparison, and the fitted
    (reported, never asserted) bases for P vs f and f vs d+n."""
    p = profile.presentation
    big_c, base = double_exp_constants(p)

    rows = []
    area_pairs = []
    length_pairs = []
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
        if row.area.exact and row.length.exact:
            area_pairs.append((row.area.value, row.length.value))
        if row.length.exact and row.diameter.exact:
            length_pairs.append((row.length.value, row.diameter.value + row.n))

    return InequalityReport(
        presentation=p,
        big_c=big_c,
        base=base,
        rows=tuple(rows),
        fitted_area_base=_fit_base(area_pairs),
        fitted_length_base=_fit_base(length_pairs),
    )


def profile_to_csv(profile: FillingProfile, report: InequalityReport | None = None) -> str:
    """Deterministic CSV: one row per n, statuses spelled out, inequality
    verdicts as true/false with 'skipped' for non-Exact inputs."""
    if report is None:
        report = check_inequalities(profile)
    by_n = {r.n: r for r in report.rows}

    def render_bool(b: bool | None) -> str:
        return "skipped" if b is None else ("true" if b else "false")

    lines = ["n,P,P_status,f,f_status,d,rhoTC,d_le_half_f,double_exp,d_eq_rhoTC"]
    for row in profile.rows:
        checks = by_n[row.n]
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


# -- pulling a complex apart --------------------------------------------------
#
# A folded graph keeps no record of the loops folded into it.  Folding a wedge
# of closed walks gives a graph whose closed walks at the origin read exactly
# the subgroup the walks generate (Stallings), so the loops are read back off
# the graph: one per vertex and relator that closes there.


def pull_apart(graph: FoldedGraph, relators: Sequence[Word]) -> list[tuple[Word, Word]]:
    """One (relator, conjugator) pair for every vertex ``v`` reachable from
    the origin and every relator that reads a closed walk at ``v``, vertices
    in the order of :func:`~loopfold.automata.distances_from_origin`.  The
    conjugator labels ``v``'s breadth-first geodesic from the origin, so its
    length is at most the graph radius.  Re-folding the wedge of these
    loops (see :func:`refold`) gave back every loop complex and partial
    Cayley graph it was tried on."""
    paths: dict[int, Word] = {graph.origin: EMPTY}
    order = [graph.origin]
    for v in order:  # grows while read: the search of distances_from_origin
        for code, row in enumerate(graph.delta):
            if (t := row[v]) >= 0 and t not in paths:
                paths[t] = Word(paths[v].codes + bytes((code,)))
                order.append(t)
    return [(r, paths[v]) for v in order for r in relators if trace(graph, r, v) == v]


def refold(num_generators: int, loops: list[tuple[Word, Word]]) -> FoldedGraph:
    """Fold the wedge of conjugated relator loops r^x at a fresh origin."""
    folder = Folder(num_generators)
    for rel, conjugator in loops:
        folder.add_loop(folder.add_path(folder.origin, conjugator), rel)
    return folder.snapshot()
