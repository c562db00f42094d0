"""The symmetric rewrite system of a presentation, with exhaustive oracles.

Every relator ``r`` in the symmetrized relator set contributes the factor
rewrite rules ``u -> v`` for all splits ``r = u * v^-1``; these cost one step.
Free insertion and cancellation of adjacent inverse pairs cost nothing.  The
resulting rewrite graph on words is undirected, so reachability and 0-1
shortest-path distance from the empty word give, for every word at once, its
triviality, its minimum relator-application count, and its filling length.

A system is built on ``bytes`` and holds only its presentation: each sweep
closes the relators it can fire, those whose symmetrized words fit twice
its cap (:func:`~loopfold.core.symmetric_closure` with a length bound), and
no :class:`Presentation` of them is made.  The fused ℤ² lattice's 3,200
relators close to 11,040 words, of which its sweeps at caps 4 and 6 close
the 296 of length ≤ 8 and the 2,648 of length ≤ 12; only the symmetry
search and the reference rules close them all.

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

Searches are capped by a :class:`~loopfold.bounds.SearchBudget`, and no
a-priori bound on intermediate word length is available; the budget, the
result records and the area bound live in :mod:`~loopfold.bounds`, which a
command that runs no search loads without this module.  An area is ``Exact`` by one of
three rules, tried in order.  First, a bound-tight derivation
(:func:`tight_derivations`): one whose every relator step lowers the bound
the system reads off its relators (:meth:`RewriteSystem.area_lower_bound`)
by exactly 1 and whose words are no longer than the first proves the area
equal to the bound and the filling length equal to the word's length, with
no sweep.  Second, the cap-``L`` value meets that bound (a sweep's value is
the cost of a real derivation, even when the state budget cut the sweep, so
it is then the minimum).  Third, the value has stabilized across two
consecutive length caps (``L`` and ``L + 2``).  The first two are proofs;
the third is a stop rule, and the cap-``L + 2`` sweep runs only for the
words that need it.  Otherwise a filling length is the first cap, tried
upward from the word's length, whose sweep holds the word: ``Exact`` even if
the state budget cut that sweep, as a sweep holds only words it derived and
every smaller cap's sweep was complete and missed the word.
"""

from __future__ import annotations

import functools
from collections import deque
from itertools import repeat
from typing import Callable, Iterable, Iterator, NamedTuple

from .bounds import OracleResult, OracleStatus, SearchBudget, area_lower_bound
from .core import EMPTY, Presentation, inverse, is_reduced, symmetric_closure


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


class Rule(NamedTuple):
    lhs: bytes
    rhs: bytes
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
        self._sweeps: dict[tuple[int, int], Exploration] = {}

    @functools.cached_property
    def symmetries(self) -> tuple[bytes, ...]:
        """The letter maps of the symmetry group, searched on the first read
        (:func:`_letter_maps`); past the search limit, the identity alone,
        which with ``w -> w^-1`` makes a group of two."""
        closure = frozenset(symmetric_closure(self.presentation.relators))
        maps = _letter_maps(closure, self.presentation.relators,
                            self.presentation.num_generators, _MAX_SYMMETRIES // 2)
        return tuple(maps or [_IDENTITY])

    @functools.cached_property
    def free_rules(self) -> tuple[Rule, ...]:
        """The free moves ``c c^-1 -> 1`` and ``1 -> c c^-1`` as rules."""
        rules = []
        for c in range(self.presentation.alphabet_size):
            pair = bytes((c, c ^ 1))
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
        combined bound is ⌈base bound / m⌉.  On a word that is not freely
        trivial it is still at least ⌈1/m⌉ = 1, and sound there, as such a
        word needs a relator step of the combined system too."""
        system = cls(combined)
        system.symmetries = base.symmetries
        base_bound = base.area_lower_bound
        system.area_lower_bound = lambda codes: -(-base_bound(codes) // m)
        return system

    def orbit(self, codes: bytes) -> list[bytes]:
        """The images of ``codes`` under the symmetry group: σ(w) and
        σ(w^-1) for each letter map σ, repeats included."""
        inv = inverse(codes)
        return [*map(codes.translate, self.symmetries), *map(inv.translate, self.symmetries)]

    def canonical(self, codes: bytes) -> bytes:
        """The least image of ``codes`` under the symmetry group."""
        return min(self.orbit(codes))

    @functools.cached_property
    def relator_rules(self) -> tuple[Rule, ...]:
        """Every relator rule ``u -> v``, in (|u|, u, |v|, v) order."""
        pairs = {(r[:i], inverse(r[i:]))
                 for r in symmetric_closure(self.presentation.relators)
                 for i in range(len(r) + 1)}
        ordered = sorted(pairs, key=lambda p: (len(p[0]), p[0], len(p[1]), p[1]))
        return tuple(Rule(u, v, True) for u, v in ordered)

    # -- rule application ------------------------------------------------

    def apply_rule_positions(self, w: bytes) -> set[tuple[Rule, int, bytes]]:
        """Every single-step rewrite of ``w``, as (rule, position, result)."""
        out = set()
        for rule in self.relator_rules + self.free_rules:
            k = len(rule.lhs)
            for i in range(len(w) - k + 1):
                if w[i : i + k] == rule.lhs:
                    out.add((rule, i, w[:i] + rule.rhs + w[i + k :]))
        return out

    def _successors(self, cap: int) -> Callable[[bytes], Iterator[tuple[int, bytes]]]:
        """The successor function of a sweep capped at ``cap``: it maps a
        word of length ≤ ``cap`` to its (cost, successor) pairs.

        Only the relator rules that can fire under the cap are indexed: the
        splits ``r = u * v^-1`` with |u| ≤ cap and |v| ≤ cap.  Any other
        rule has a left-hand side longer than every word or a result longer
        than the cap.  A symmetrized relator longer than ``2 * cap`` has no
        such split, so only those of length ≤ ``2 * cap`` are closed
        (:func:`~loopfold.core.symmetric_closure`).

        Order: free cancellations, free insertions, relator insertions (by
        right-hand side, then position), substitutions (by left-hand length,
        position, right-hand side).  Right-hand sides are read from tables
        cut to the room left under the cap, so no option is tested for
        length per successor; a left-hand side's cut is made the first time
        it is met."""
        by_lhs: dict[bytes, set[bytes]] = {}
        for r in symmetric_closure(self.presentation.relators, 2 * cap):
            n = len(r)
            for i in range(max(0, n - cap), min(n, cap) + 1):
                by_lhs.setdefault(r[:i], set()).add(inverse(r[i:]))
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
        """The proved lower bound on the area of a word trivial in the
        presentation that its relators give
        (:func:`~loopfold.bounds.area_lower_bound`); built on the first
        query."""
        return area_lower_bound(self.presentation)

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


def min_isoperimetric(w: bytes, rs: RewriteSystem, budget: SearchBudget) -> OracleResult:
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
    v_lo = lo.cost(w)
    if v_lo is not None and v_lo == rs.area_lower_bound(w):
        return OracleResult(v_lo, OracleStatus.EXACT)
    hi = rs.explore(budget.max_word_length + 2, budget.max_states)
    v_hi = hi.cost(w)
    if not (lo.complete and hi.complete):
        return OracleResult(v_hi if v_hi is not None else v_lo, OracleStatus.BUDGET_EXCEEDED)
    if v_hi is None:
        return OracleResult(None, OracleStatus.LOWER_BOUND_ONLY)
    if v_lo == v_hi:
        return OracleResult(v_hi, OracleStatus.EXACT)
    return OracleResult(v_hi, OracleStatus.LOWER_BOUND_ONLY)


def filling_length(w: bytes, rs: RewriteSystem, budget: SearchBudget) -> OracleResult:
    """The least cap from ``|w|`` to the length cap whose sweep holds ``w``,
    ``BudgetExceeded`` if a cut sweep misses it first."""
    for cap in range(len(w), budget.max_word_length + 1):
        sweep = rs.explore(cap, budget.max_states)
        if sweep.cost(w) is not None:
            return OracleResult(cap, OracleStatus.EXACT)
        if not sweep.complete:
            return OracleResult(None, OracleStatus.BUDGET_EXCEEDED)
    return OracleResult(None, OracleStatus.LOWER_BOUND_ONLY)


# The words a certificate search visits for one key before it gives up; a
# key it misses takes the sweeps, so the limit costs time, never a value.
_CERTIFICATE_VISITS = 2_000


def tight_derivations(
    rs: RewriteSystem, keys: Iterable[bytes], cap: int
) -> dict[bytes, list[bytes]]:
    """Bound-tight derivations of the ``keys`` of length ≤ ``cap``: each key
    ``w`` given one maps to the words of a derivation from ``w`` to the
    empty word in which every relator step lowers
    :attr:`~RewriteSystem.area_lower_bound` by exactly 1, no free pair is
    inserted, and no word is longer than ``w``.  Such a derivation takes
    bound(w) relator steps, so area(w) = bound(w), and stays within |w|, so
    FL(w) = |w|: it is a proof of both, with no sweep.

    Per key, a depth-first search over the successors of a sweep capped at
    |w| (:meth:`~RewriteSystem._successors`, built once per length) stops at
    the first success, or gives up after ``_CERTIFICATE_VISITS`` words.
    Free moves leave every functional of the bound, and the free reduction,
    unchanged, so the bound is evaluated on relator steps alone.  Each step
    lowers the bound or the length, so no word recurs on a path, and a word
    that failed once fails again: the search visits each word once."""
    bound = rs.area_lower_bound
    successors_at: dict[int, Callable[[bytes], Iterator[tuple[int, bytes]]]] = {}
    found = {}
    for key in keys:
        if len(key) > cap:
            continue
        successors = successors_at.get(len(key))
        if successors is None:
            successors = successors_at[len(key)] = rs._successors(len(key))
        path = [(key, bound(key), successors(key))]  # (word, its bound, untried steps)
        seen = {key}
        while path and path[-1][0]:
            word, left, steps = path[-1]
            for cost, nxt in steps:
                if nxt in seen or (bound(nxt) != left - 1 if cost else len(nxt) > len(word)):
                    continue
                if len(seen) == _CERTIFICATE_VISITS:
                    path.clear()
                    break
                seen.add(nxt)
                path.append((nxt, left - cost, successors(nxt)))
                break
            else:
                path.pop()
        if path:  # it ends at the empty word
            found[key] = [word for word, _, _ in path]
    return found


def trivial_words(rs: RewriteSystem, budget: SearchBudget, n: int) -> list[bytes]:
    """Every word of length ≤ n that :func:`is_trivial` calls trivial, in
    shortlex order: the images of the :func:`sweep_keys`, read off the
    sweeps rather than decided word by word."""
    return _images(rs, sweep_keys(rs, budget, n))


def reduced_trivial_words(rs: RewriteSystem, budget: SearchBudget, n: int) -> list[bytes]:
    """The freely reduced words of :func:`trivial_words`, in its order.
    Letter maps and inversion keep a word reduced, so an orbit is reduced
    exactly when its key is, and only the reduced keys are expanded."""
    return _images(rs, list(filter(is_reduced, sweep_keys(rs, budget, n))))


def sweep_keys(rs: RewriteSystem, budget: SearchBudget, n: int) -> list[bytes]:
    """One key, its least image, per orbit of the words of length ≤ n that
    :func:`is_trivial` calls trivial.

    A word ``w`` is trivial when the cap-max(L, |w|) sweep holds its least
    image.  The maps form a group and a word's least image is one of its
    images, so the keys are those of length ≤ min(n, L) of the cap-L sweep,
    and those of length k of the cap-k sweep for L < k ≤ n."""
    cap = budget.max_word_length
    keys = [key for key in rs.explore(cap, budget.max_states).costs if len(key) <= n]
    for k in range(cap + 1, n + 1):
        keys += [key for key in rs.explore(k, budget.max_states).costs if len(key) == k]
    return keys


def sweeps_complete(rs: RewriteSystem, budget: SearchBudget, n: int) -> bool:
    """Whether the state budget cut none of the sweeps that
    :func:`sweep_keys` reads, so that its keys are those the same sweeps
    would hold with no state budget."""
    caps = range(budget.max_word_length, max(budget.max_word_length, n) + 1)
    return all(rs.explore(cap, budget.max_states).complete for cap in caps)


def _images(rs: RewriteSystem, keys: list[bytes]) -> list[bytes]:
    """The images of ``keys`` (:meth:`RewriteSystem.orbit`), in shortlex order."""
    images = {image for key in keys for image in rs.orbit(key)}
    ordered = sorted(images)
    ordered.sort(key=len)  # stable: shortlex
    return ordered


def is_trivial(w: bytes, rs: RewriteSystem, budget: SearchBudget) -> tuple[bool, OracleStatus]:
    """Semidecision: True iff ``w`` rewrites to the empty word within budget."""
    cap = max(budget.max_word_length, len(w))
    sweep = rs.explore(cap, budget.max_states)
    if sweep.cost(w) is not None:
        return True, OracleStatus.EXACT
    return False, (
        OracleStatus.LOWER_BOUND_ONLY if sweep.complete else OracleStatus.BUDGET_EXCEEDED
    )
