"""The symmetric rewrite system of a presentation, with exhaustive oracles.

Every relator ``r`` in the symmetrized relator set contributes the factor
rewrite rules ``u -> v`` for all splits ``r = u * v^-1``; these cost one step.
Free insertion and cancellation of adjacent inverse pairs cost nothing.  The
resulting rewrite graph on words is undirected, so reachability and 0-1
shortest-path distance from the empty word give, for every word at once, its
triviality, its minimum relator-application count, and its filling length.

A system is built on ``bytes``: the symmetrized relators come from
:func:`~loopfold.core.symmetric_closure` once, in shortlex order, and no
:class:`Presentation` of them is made.  The fused ℤ² lattice's 3,200
relators close to 11,040 in 1,470 rotation scans, as a relator or inverse
already in the closure adds nothing.

Each sweep indexes the relator rules it can fire, as ``bytes``: the
insertions ``1 -> v`` and the substitutions keyed by left-hand side, each in
rule order, holding only the splits with |u| ≤ cap and |v| ≤ cap.  The fused
ℤ² lattice has 168,880 rules, and its sweeps at caps 4 and 6 index 408 and
4,872 of them.  The sweep cuts both indexes again to the right-hand sides
that fit in the room left under the cap, so it costs what its reachable
words need rather than what the rule count implies, and drops them all when
it ends.  The rules as :class:`Rule` objects, ``relator_rules`` (straight
from the symmetrized relators) and ``free_rules``, are made only when read:
with :meth:`RewriteSystem.apply_rule_positions`, the tests' reference for
the search.

Sweeps are taken up to symmetry (Emerson & Sistla, *Symmetry and model
checking*, 1996).  A signed generator permutation that maps the symmetrized
relator set onto itself, with or without ``w -> w^-1``, is an automorphism of
the rewrite graph that keeps costs, lengths and the empty word, so a sweep
holds one representative per orbit of such maps, its least image, and a
state budget counts orbits.  The first sweep searches the maps by checking
the presentation's own relators against the closure, which is enough (see
:func:`_letter_maps`); a fused system is given its base's instead
(:meth:`RewriteSystem.fused`).  :meth:`RewriteSystem.orbit` lists a word's
images, and a cost lookup canonicalizes the word first: see
:meth:`Exploration.cost`.

Searches are capped by a :class:`SearchBudget`, and no a-priori bound on
intermediate word length is available.  An area is reported ``Exact`` when
the cap-``L`` value meets the bound the system reads off its relators
(:meth:`RewriteSystem.area_lower_bound`; a sweep's value is the cost of a
real derivation, even when the state budget cut the sweep, so it is then
the minimum), or else when it has stabilized across two consecutive length
caps (``L`` and ``L + 2``).  The first is a proof; the second is a stop
rule, and the cap-``L + 2`` sweep runs only for the words that need it.  A filling length is the first cap,
tried upward from the word's length, whose sweep holds the word: ``Exact``
even if the state budget cut that sweep, as a sweep holds only words it
derived and every smaller cap's sweep was complete and missed the word.
"""

from __future__ import annotations

import enum
import functools
from collections import deque
from itertools import combinations, repeat
from typing import Callable, Iterable, Iterator, NamedTuple

from .core import _INVERSE, EMPTY, Presentation, Word, symmetric_closure


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
    words: Iterable[Word], n_max: int, measure: Callable[[Word], OracleResult]
) -> list[OracleResult]:
    """Entry ``n`` is the largest value ``measure`` gives a word of length
    ≤ n, with the worst status among those words; the maximum over no words
    is exactly 0.  ``measure`` runs once per word."""
    ranks = list(OracleStatus)
    best = [0] * (n_max + 1)
    worst = [0] * (n_max + 1)
    for w in words:
        result = measure(w)
        if result.value is not None:
            best[len(w)] = max(best[len(w)], result.value)
        worst[len(w)] = max(worst[len(w)], ranks.index(result.status))
    column = []
    value = rank = 0
    for n in range(n_max + 1):
        value, rank = max(value, best[n]), max(rank, worst[n])
        column.append(OracleResult(value, ranks[rank]))
    return column


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


class BudgetFailure(RuntimeError):
    """A result that needs Exact values got one the budget could not settle."""


def budget_flags(*statuses: OracleStatus) -> str:
    """The command-line caps to raise for results short of Exact:
    ``--budget-states`` for BudgetExceeded (the state cap stopped a sweep)
    and ``--budget-len`` for LowerBoundOnly (the length cap left the value
    unsettled), joined by "and" when both occur."""
    flags = {OracleStatus.BUDGET_EXCEEDED: "--budget-states",
             OracleStatus.LOWER_BOUND_ONLY: "--budget-len"}
    return " and ".join(flag for status, flag in flags.items() if status in statuses)


_IDENTITY = bytes(range(256))
# Past this many maps, least images cost more than the quotient saves, and
# finding them all would take longer than the sweep: a larger symmetry group
# (768 maps for rank-4 free abelian, 2·2^g·g! for a free group of rank g) is
# replaced by {id, w -> w^-1}.
_MAX_SYMMETRIES = 128


def _letter_maps(
    closure: frozenset[bytes], relators: Iterable[bytes], num_generators: int, limit: int
) -> list[bytes] | None:
    """Translation tables of the signed generator permutations (letter maps
    that commute with ``c ^ 1``) mapping ``closure``, the symmetric closure
    of ``relators``, onto itself, or None when there are more than
    ``limit``.  Backtracking assigns the most-used generators first, by
    their letter counts over the closure, and checks each given relator
    once all its generators have an image; a generator only maps to one
    used as often.

    Checking the given relators suffices.  Such a map σ is injective, keeps
    lengths and commutes with inversion, cyclic permutation and free
    reduction, so σ(closure(S)) = closure(σ(S)).  If σ(S) ⊆ closure(S),
    then σ maps the finite set closure(S) into itself, hence onto itself;
    the converse holds as S ⊆ closure(S).  So the same maps are found, in
    the same order, from the relators rather than all their rotations."""
    letters = b"".join(closure)
    counts = [letters.count(2 * g) + letters.count(2 * g + 1) for g in range(num_generators)]
    order = sorted(range(num_generators), key=lambda g: -counts[g])
    depth_of = bytearray(256)  # a letter's table: the depth its generator is assigned at
    for d, g in enumerate(order):
        depth_of[2 * g] = depth_of[2 * g + 1] = d
    due: list[list[bytes]] = [[] for _ in order]  # relators checkable at each depth
    for r in relators:
        due[max(r.translate(depth_of))].append(r)
    table = bytearray(_IDENTITY)
    taken = [False] * num_generators
    found: list[bytes] = []

    def extend(depth: int) -> bool:  # False once past the limit
        if depth == num_generators:
            found.append(bytes(table))
            return len(found) <= limit
        g = order[depth]
        for image in range(num_generators):
            if taken[image] or counts[image] != counts[g]:
                continue
            taken[image] = True
            for sign in (0, 1):
                table[2 * g], table[2 * g + 1] = 2 * image + sign, 2 * image + (sign ^ 1)
                images = map(bytes.translate, due[depth], repeat(table))
                if closure.issuperset(images) and not extend(depth + 1):
                    return False
            taken[image] = False
        return True

    return found if extend(0) else None


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


class Rule(NamedTuple):
    lhs: Word
    rhs: Word
    from_relators: bool  # True: relator rule (costs a step); False: free move


class Exploration(NamedTuple):
    """Everything reachable from the empty word under a length cap, one
    word per orbit of the system's symmetry group."""

    costs: dict[bytes, int]  # orbit representative -> minimum relator-rule count
    complete: bool  # False when the state budget stopped the frontier
    canonical: Callable[[bytes], bytes]  # word codes -> orbit representative

    def cost(self, codes: bytes) -> int | None:
        """The cost of any word, None when the sweep did not reach it: the
        cost of its orbit's representative."""
        return self.costs.get(self.canonical(codes))


class RewriteSystem:
    """Factor-rewriting rules of a presentation plus the free-group moves."""

    def __init__(self, presentation: Presentation):
        self.presentation = presentation
        # the symmetrized relators, shortlex, so those that fit under a cap
        # come first
        self._relators = tuple(symmetric_closure(presentation.relators))
        self._sweeps: dict[tuple[int, int], Exploration] = {}

    @functools.cached_property
    def symmetries(self) -> tuple[bytes, ...]:
        """The letter maps of the symmetry group, searched on the first read
        (:func:`_letter_maps`); past the search limit, the identity alone,
        which with ``w -> w^-1`` makes a group of two."""
        maps = _letter_maps(frozenset(self._relators), [r.codes for r in self.presentation.relators],
                            self.presentation.num_generators, _MAX_SYMMETRIES // 2)
        return tuple(maps or [_IDENTITY])

    @functools.cached_property
    def free_rules(self) -> tuple[Rule, ...]:
        """The free moves ``c c^-1 -> 1`` and ``1 -> c c^-1`` as rules."""
        rules = []
        for c in range(self.presentation.alphabet_size):
            pair = Word(bytes((c, c ^ 1)))
            rules += [Rule(pair, EMPTY, False), Rule(EMPTY, pair, False)]
        return tuple(rules)

    @classmethod
    def fused(cls, base: "RewriteSystem", combined: Presentation, m: int) -> "RewriteSystem":
        """The rewrite system of ``combined``, the symmetrized relators of
        ``base.presentation`` together with the reduced products of 2..m of
        them (:func:`~loopfold.compression.compress`), whose
        :attr:`symmetries` and :attr:`area_lower_bound` are set from
        ``base`` rather than searched over its own relators.

        Symmetries.  Every relator of ``combined`` is the free reduction of
        a product of at most m symmetrized base relators.  A letter map σ of
        ``base``, alone or composed with ``w -> w^-1``, sends symmetrized
        relators to symmetrized relators and commutes with products and
        free reduction, so it sends such products to such products, and the
        symmetric closure of ``combined`` onto itself: ``base``'s group is a
        subgroup of the combined system's.  Sweeps up to any such subgroup
        are sound.  Were the searched group larger, no cost would change;
        only a state budget, which counts orbits, could cut a sweep earlier.

        Area bound.  Each functional F of :attr:`area_lower_bound` (an
        exponent sum, or the winding-number function of the balanced
        projection) adds over products of closed words and is kept by free
        reduction, and |F| by rotation and inversion.  So the largest |F|
        over the combined relators is at most m times the largest over the
        base relators, and r^m reaches it.  As ⌈⌈x/s⌉/m⌉ = ⌈x/(s·m)⌉, the
        combined bound is ⌈base bound / m⌉."""
        system = cls(combined)
        system.symmetries = base.symmetries
        base_bound = base.area_lower_bound
        system.area_lower_bound = lambda codes: -(-base_bound(codes) // m)
        return system

    def orbit(self, codes: bytes) -> list[bytes]:
        """The images of ``codes`` under the symmetry group: σ(w) and
        σ(w^-1) for each letter map σ, repeats included."""
        inverse = codes[::-1].translate(_INVERSE)
        return [*map(codes.translate, self.symmetries), *map(inverse.translate, self.symmetries)]

    def canonical(self, codes: bytes) -> bytes:
        """The least image of ``codes`` under the symmetry group."""
        return min(self.orbit(codes))

    @functools.cached_property
    def relator_rules(self) -> tuple[Rule, ...]:
        """Every relator rule ``u -> v``, in (|u|, u, |v|, v) order."""
        pairs = {(r[:i], r[i:][::-1].translate(_INVERSE))
                 for r in self._relators for i in range(len(r) + 1)}
        ordered = sorted(pairs, key=lambda p: (len(p[0]), p[0], len(p[1]), p[1]))
        return tuple(Rule(Word(u), Word(v), True) for u, v in ordered)

    # -- rule application ------------------------------------------------

    def apply_rule_positions(self, w: Word) -> set[tuple[Rule, int, Word]]:
        """Every single-step rewrite of ``w``, as (rule, position, result)."""
        out = set()
        for rule in self.relator_rules + self.free_rules:
            k = len(rule.lhs)
            for i in range(len(w) - k + 1):
                if w.codes[i : i + k] == rule.lhs.codes:
                    out.add((rule, i, Word(w.codes[:i] + rule.rhs.codes + w.codes[i + k :])))
        return out

    def _successors(self, cap: int) -> Callable[[bytes], Iterator[tuple[int, bytes]]]:
        """The successor function of a sweep capped at ``cap``: it maps a
        word of length ≤ ``cap`` to its (cost, successor) pairs.

        Only the relator rules that can fire under the cap are indexed: the
        splits ``r = u * v^-1`` with |u| ≤ cap and |v| ≤ cap.  Any other
        rule has a left-hand side longer than every word or a result longer
        than the cap.  A relator longer than ``2 * cap`` has no such split,
        and the relators are in shortlex order, so the loop stops at the
        first one.

        Order: free cancellations, free insertions, relator insertions (by
        right-hand side, then position), substitutions (by left-hand length,
        position, right-hand side).  Right-hand sides are read from tables
        cut to the room left under the cap, so no option is tested for
        length per successor; a left-hand side's cut is made the first time
        it is met."""
        by_lhs: dict[bytes, set[bytes]] = {}
        for r in self._relators:
            n = len(r)
            if n > 2 * cap:
                break
            for i in range(max(0, n - cap), min(n, cap) + 1):
                by_lhs.setdefault(r[:i], set()).add(r[i:][::-1].translate(_INVERSE))
        relator_inserts = sorted(by_lhs.pop(b"", ()))
        subst = {u: sorted(vs) for u, vs in by_lhs.items()}
        lhs_lengths = sorted({len(u) for u in subst})
        pairs = [bytes((c, c ^ 1)) for c in range(self.presentation.alphabet_size)]
        inserts_within: dict[int, tuple[bytes, ...]] = {}  # room -> insertions that fit
        subst_within: dict[int, dict[bytes, tuple[bytes, ...]]] = {}  # room + |u| -> u -> vs

        def successors(codes: bytes) -> Iterator[tuple[int, bytes]]:
            n = len(codes)
            for i in range(n - 1):
                if codes[i + 1] == codes[i] ^ 1:
                    yield 0, codes[:i] + codes[i + 2 :]
            if n + 2 <= cap:
                for i in range(n + 1):
                    for pair in pairs:
                        yield 0, codes[:i] + pair + codes[i:]
            room = cap - n
            inserts = inserts_within.get(room)
            if inserts is None:
                inserts = tuple(v for v in relator_inserts if len(v) <= room)
                inserts_within[room] = inserts
            for v in inserts:
                for i in range(n + 1):
                    yield 1, codes[:i] + v + codes[i:]
            for k in lhs_lengths:
                if k > n:
                    break
                within = subst_within.setdefault(room + k, {})
                for i in range(n - k + 1):
                    u = codes[i : i + k]
                    options = within.get(u)
                    if options is None:
                        options = tuple(v for v in subst.get(u, ()) if len(v) <= room + k)
                        within[u] = options
                    for v in options:
                        yield 1, codes[:i] + v + codes[i + k :]

        return successors

    @functools.cached_property
    def area_lower_bound(self) -> Callable[[bytes], int]:
        """A proved lower bound on the area of a word trivial in the
        presentation, read off the relators alone; built on the first query.

        A functional F that free moves leave unchanged, and that a relator
        step ``xuy -> xvy`` changes by at most ``|F(u v^-1)|``, bounds the
        area of ``w`` below by ``⌈|F(w)| / max_r |F(r)|⌉``.  The bound is the
        largest of these, or 0, over the exponent sum of each generator and,
        when at least two generators have exponent sum 0 on every relator,
        the homological area of the projection onto them (:func:`_winding_area`;
        Gersten 1999; Abrams, Brady, Dani & Young, PNAS 2013): it sends every
        word of a derivation, and every ``u v^-1``, to a closed loop in ℤ^k,
        and winding numbers add.  An F that is 0 on every relator is constant
        along a derivation, so it is left out."""
        relators = [r.codes for r in self.presentation.relators]
        functionals = [functools.partial(_exponent_sum, g=g)
                       for g in range(self.presentation.num_generators)]
        balanced = [g for g, f in enumerate(functionals) if not any(map(f, relators))]
        if len(balanced) >= 2:
            kept = bytes(c for g in balanced for c in (2 * g, 2 * g + 1))
            project = bytes.maketrans(kept, bytes(range(len(kept))))
            dropped = bytes(c for c in range(self.presentation.alphabet_size) if c not in kept)
            functionals.append(lambda codes: _winding_area(codes.translate(project, dropped),
                                                           len(balanced)))
        steps = [max((abs(f(r)) for r in relators), default=0) for f in functionals]
        bounds = [(f, step) for f, step in zip(functionals, steps) if step]
        return lambda codes: max((-(-abs(f(codes)) // step) for f, step in bounds), default=0)

    # -- exhaustive search -----------------------------------------------

    def explore(self, cap: int, max_states: int = SearchBudget().max_states) -> Exploration:
        """0-1 BFS from the empty word over words of length ≤ ``cap``, on
        orbit representatives: each successor is replaced by its least image.

        By symmetry of the rule set, the cost recorded for ``w`` equals the
        minimum relator-rule count of a capped rewrite sequence from ``w``
        to the empty word.  The sweep holds at most ``max_states`` orbits;
        one more makes it incomplete.  Results are cached per (cap, state
        budget); the rule index a sweep reads (:meth:`_successors`) is built
        for its cap and dropped when it ends.
        """
        key = (cap, max_states)
        cached = self._sweeps.get(key)
        if cached is not None:
            return cached

        canonical = self.canonical
        successors = self._successors(cap)
        costs: dict[bytes, int] = {b"": 0}
        dq: deque[tuple[int, bytes]] = deque([(0, b"")])
        complete = True
        while dq and complete:
            cost, codes = dq.popleft()
            if costs[codes] != cost:
                continue
            for dcost, nxt in successors(codes):
                nc = cost + dcost
                old = costs.get(nxt)  # a key is its own least image
                if old is None:
                    nxt = canonical(nxt)
                    old = costs.get(nxt)
                    if old is None and len(costs) >= max_states:
                        complete = False
                        break
                if old is None or nc < old:
                    costs[nxt] = nc
                    if dcost:
                        dq.append((nc, nxt))
                    else:
                        dq.appendleft((nc, nxt))
        result = Exploration(costs, complete, canonical)
        self._sweeps[key] = result
        return result


def min_isoperimetric(w: Word, rs: RewriteSystem, budget: SearchBudget) -> OracleResult:
    """Minimum relator-rule count rewriting ``w`` to the empty word.

    Runs the capped search at ``L``.  When that sweep holds ``w`` at the
    system's proved lower bound on its area
    (:meth:`RewriteSystem.area_lower_bound`), the value is ``Exact`` by
    proof and no other sweep runs, even if the state budget cut the sweep:
    a sweep records only costs of derivations it found.  Otherwise the
    search also runs at ``L + 2``, and agreement of the two values is the
    evidence for ``Exact``.
    """
    lo = rs.explore(budget.max_word_length, budget.max_states)
    v_lo = lo.cost(w.codes)
    if v_lo is not None and v_lo == rs.area_lower_bound(w.codes):
        return OracleResult(v_lo, OracleStatus.EXACT)
    hi = rs.explore(budget.max_word_length + 2, budget.max_states)
    v_hi = hi.cost(w.codes)
    if not (lo.complete and hi.complete):
        return OracleResult(v_hi if v_hi is not None else v_lo, OracleStatus.BUDGET_EXCEEDED)
    if v_hi is None:
        return OracleResult(None, OracleStatus.LOWER_BOUND_ONLY)
    if v_lo == v_hi:
        return OracleResult(v_hi, OracleStatus.EXACT)
    return OracleResult(v_hi, OracleStatus.LOWER_BOUND_ONLY)


def filling_length(w: Word, rs: RewriteSystem, budget: SearchBudget) -> OracleResult:
    """The least cap from ``|w|`` to the length cap whose sweep holds ``w``,
    ``BudgetExceeded`` if a cut sweep misses it first."""
    for cap in range(len(w), budget.max_word_length + 1):
        sweep = rs.explore(cap, budget.max_states)
        if sweep.cost(w.codes) is not None:
            return OracleResult(cap, OracleStatus.EXACT)
        if not sweep.complete:
            return OracleResult(None, OracleStatus.BUDGET_EXCEEDED)
    return OracleResult(None, OracleStatus.LOWER_BOUND_ONLY)


def trivial_words(rs: RewriteSystem, budget: SearchBudget, n: int) -> list[Word]:
    """Every word of length ≤ n that :func:`is_trivial` calls trivial, in
    shortlex order, read off the sweeps rather than decided word by word.

    A word ``w`` is trivial when the cap-max(L, |w|) sweep holds its least
    image.  The maps form a group and a word's least image is one of its
    images, so the trivial words of length k are the images of that sweep's
    keys of length k: those of length ≤ min(n, L) of the cap-L sweep, and
    those of length k of the cap-k sweep for L < k ≤ n."""
    cap = budget.max_word_length
    keys = [key for key in rs.explore(cap, budget.max_states).costs if len(key) <= n]
    for k in range(cap + 1, n + 1):
        keys += [key for key in rs.explore(k, budget.max_states).costs if len(key) == k]
    images = {image for key in keys for image in rs.orbit(key)}
    ordered = sorted(images)
    ordered.sort(key=len)  # stable: shortlex
    return list(map(Word, ordered))


def is_trivial(w: Word, rs: RewriteSystem, budget: SearchBudget) -> tuple[bool, OracleStatus]:
    """Semidecision: True iff ``w`` rewrites to the empty word within budget."""
    cap = max(budget.max_word_length, len(w))
    sweep = rs.explore(cap, budget.max_states)
    if sweep.cost(w.codes) is not None:
        return True, OracleStatus.EXACT
    return False, (
        OracleStatus.LOWER_BOUND_ONLY if sweep.complete else OracleStatus.BUDGET_EXCEEDED
    )
