"""Pushdown and grammar pipeline for the double-exponential area bound.

The chain: a pushdown machine tracking free reduction of the input against a
fixed target word, its product with a tree-complex NFA, the triple-construction
grammar for the product, simplification, and a shortest-generated-word
computation.  The shortest word bounds the rewrite application count from
above, and the pumping bound turns the grammar size into the explicit
estimate n·2^{C·c^d}.  The count itself is the witness's factor count
(:func:`loop_factors`) where that meets the lower bound the relators give
(:func:`~loopfold.bounds.area_lower_bound`), and the rewrite search
measures the rest, so :mod:`~loopfold.rewrite` loads only for a word the
factor count leaves unproved or for a searching oracle.

The grammar is built by saturation from the pop moves (CFL reachability,
Reps 1998; pushdown saturation, Bouajjani, Esparza & Maler 1997): a push
rule is made only once both triples on its right side derive some word, so
the grammar names productive nonterminals only and its size follows the
reachable triples rather than push moves times state pairs.

``grammar-bound`` builds one grammar per distinct (red(w), d(|w|)), and
solves its reading phase once per tree (see the section on it below).  It
checks each witness against the tree and through its factoring into
conjugated relators (:func:`loop_factors`).  The per-word chain ending in
:func:`shortest_word` stays as the reference that shared solve is tested
against.  No command calls :func:`build_dyck_pda`, :func:`simulate_pda`,
:func:`generates` (acceptance criterion 6), :func:`render_cfg` (sha256 pins),
:meth:`Cfg.nonterminals` (grammar sizes in tests) or :func:`shortest_word`.

PDA conventions: acceptance is by empty stack from initial stack ``(z,)``;
a move's ``push`` is the letter code it pushes above the inspected top, or
None for a move that pops the top.
A state pairs an NFA vertex with a stage: the countdown stages m..0 (stage
m doubles as the reading phase) plus -1 for the final state.  Both parts
are integers, so states order deterministically.
"""

from __future__ import annotations

import heapq
from typing import Iterable, NamedTuple

# rewrite is read through its module, so `grammar-bound` with a closed-form
# oracle does not load it (see loopfold/__init__.py)
from . import _kernels, rewrite
from .automata import LabeledGraph, build_tree_nfa, nfa_accepts
from .bounds import BudgetFailure, SearchBudget, area_lower_bound, budget_flags
from .core import _LETTERS, EMPTY, Presentation, _conjugator_length, inverse, reduce_codes, render_word
from .fillings import ReferenceOracle, measure_isodiametric, within_double_exp

BOTTOM = -1  # the stack-bottom marker, rendered "z"


class Move(NamedTuple):
    src: object
    inp: int | None  # None = empty-input move
    top: int  # inspected top of stack (letter code or BOTTOM)
    dst: object
    push: int | None  # the letter code pushed above top, or None = pop top


class Pda(NamedTuple):
    num_generators: int
    start: object
    final: object
    moves: tuple[Move, ...]


def _stack_alphabet(num_generators: int) -> list[int]:
    return [BOTTOM] + list(range(2 * num_generators))


def build_dyck_pda(w: bytes, num_generators: int) -> Pda:
    """Standalone machine accepting exactly the words freely equal to ``w``:
    the product with a one-vertex NFA that loops on every letter."""
    bouquet = LabeledGraph(num_generators)
    for gen in range(num_generators):
        bouquet.add_edge(0, gen, 0)
    return build_product_pda(w, bouquet)


def build_product_pda(w: bytes, tree: LabeledGraph) -> Pda:
    """Machine for the intersection: words freely equal to ``w`` that the
    tree complex accepts.  Reading moves step the NFA component; the
    countdown runs at the NFA origin only."""
    target = reduce_codes(w)
    m = len(target)
    k = tree.num_generators
    origin = tree.origin
    moves = []
    for v in range(tree.num_vertices):
        for a in range(2 * k):
            for p in sorted(tree.step(v, a)):
                for t in _stack_alphabet(k):
                    moves.append(Move((v, m), a, t, (p, m), None if t == a ^ 1 else a))
    for i in range(m, 0, -1):
        moves.append(Move((origin, i), None, target[i - 1], (origin, i - 1), None))
    moves.append(Move((origin, 0), None, BOTTOM, (origin, -1), None))
    return Pda(k, start=(origin, m), final=(origin, -1), moves=tuple(moves))


def simulate_pda(pda: Pda, codes: bytes) -> bool:
    """Empty-stack acceptance by breadth-first search over configurations."""
    by_input: dict[tuple, list[Move]] = {}
    for mv in pda.moves:
        by_input.setdefault((mv.src, mv.inp, mv.top), []).append(mv)
    start = (0, pda.start, (BOTTOM,))
    seen = {start}
    queue = [start]
    head = 0
    while head < len(queue):
        pos, state, stack = queue[head]
        head += 1
        if pos == len(codes) and not stack:
            return True
        if not stack:
            continue
        top = stack[-1]
        candidates = list(by_input.get((state, None, top), ()))
        if pos < len(codes):
            candidates += by_input.get((state, codes[pos], top), ())
        for mv in candidates:
            next_pos = pos if mv.inp is None else pos + 1
            next_stack = stack[:-1] if mv.push is None else stack + (mv.push,)
            config = (next_pos, mv.dst, next_stack)
            if config not in seen:
                seen.add(config)
                queue.append(config)
    return False


# -- grammars -----------------------------------------------------------------

class Cfg(NamedTuple):
    """Rules are (lhs, rhs) with terminal letter codes as ints and
    nonterminal triples (state, stack symbol, state) as tuples; the start
    symbol is a triple too.  Every right side the module builds holds at
    most one letter, placed first, followed by triples, so rules order as
    plain tuples: a letter is never compared with a triple."""

    num_generators: int
    start: tuple
    rules: tuple[tuple[tuple, tuple], ...]

    def nonterminals(self) -> set:
        out = {self.start}
        for lhs, rhs in self.rules:
            out.add(lhs)
            out.update(filter(_is_nonterminal, rhs))
        return out


def _state_text(state) -> str:
    vertex, stage = state
    return f"q{vertex}f" if stage == -1 else f"q{vertex}s{stage}"


def _letter_text(code: int) -> str:
    return "z" if code == BOTTOM else chr(_LETTERS[code])


def _symbol_text(sym) -> str:
    if _is_nonterminal(sym):
        p, c, q = sym
        return f"[{_state_text(p)},{_letter_text(c)},{_state_text(q)}]"
    return _letter_text(sym)


def _is_nonterminal(sym) -> bool:
    return isinstance(sym, tuple)


def pda_to_cfg(pda: Pda) -> Cfg:
    """Triple construction by saturation: ``[p, X, q]`` derives the inputs
    read while the machine goes from p to q, net effect popping X.  Pop
    moves give terminal rules; a push move from p to p' reading a that puts
    Y above X gives ``[p, X, r2] -> a [p', Y, r1] [r1, X, r2]`` once both
    right-hand triples are productive.  So every nonterminal on a right side
    is the left side of some rule.  Only the countdown's last move pops the
    stack bottom, into the final state, so the start symbol is the root
    triple ``[start, z, final]``."""
    rules, productive = set(), set()
    pushes: dict = {}  # (p', Y) -> push moves to p' that put Y on the stack
    ends: dict = {}  # (r1, X) -> every r2 of a productive [r1, X, r2]
    waiting: dict = {}  # (r1, X) -> push rules whose first triple ends at r1
    for mv in pda.moves:
        read = () if mv.inp is None else (mv.inp,)
        if mv.push is None:
            rules.add(((mv.src, mv.top, mv.dst), read))
        else:
            pushes.setdefault((mv.dst, mv.push), []).append((mv, read))
    worklist = [lhs for lhs, _ in rules]
    while worklist:
        triple = worklist.pop()
        if triple in productive:
            continue
        productive.add(triple)
        p, x, q = triple
        ends.setdefault((p, x), []).append(q)
        # triple as the second child of a waiting push rule, then as the first
        new = [
            ((mv.src, x, q), read + (first, triple))
            for mv, read, first in waiting.get((p, x), ())
        ]
        for mv, read in pushes.get((p, x), ()):
            waiting.setdefault((q, mv.top), []).append((mv, read, triple))
            new += [
                ((mv.src, mv.top, r), read + (triple, (q, mv.top, r)))
                for r in ends.get((q, mv.top), ())
            ]
        rules.update(new)
        worklist += [lhs for lhs, _ in new]
    return Cfg(pda.num_generators, (pda.start, BOTTOM, pda.final), tuple(sorted(rules)))


def _only_empty(rules) -> set:
    """Nonterminals that derive the empty word and nothing else, given that
    every rule derives some word."""
    nonempty = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in rules:
            if lhs not in nonempty and any(not _is_nonterminal(s) or s in nonempty for s in rhs):
                nonempty.add(lhs)
                changed = True
    return {lhs for lhs, _ in rules if lhs not in nonempty}


def simplify_cfg(g: Cfg) -> Cfg:
    """Substitute away the empty-word-only (countdown) nonterminals and
    prune the symbols unreachable from the start triple.  The
    generated language is unchanged; right sides stay within length 3.
    ``g`` comes from :func:`pda_to_cfg`, so every rule derives some word."""
    erase = _only_empty(g.rules)
    rules = [
        (lhs, tuple(s for s in rhs if s not in erase)) for lhs, rhs in g.rules if lhs not in erase
    ]
    start = g.start
    if start in erase:
        # The whole language is {empty word}; keep a single erased root.
        return Cfg(g.num_generators, start, ((start, ()),))

    reachable = {start}
    frontier = [start]
    by_lhs: dict = {}
    for lhs, rhs in rules:
        by_lhs.setdefault(lhs, []).append(rhs)
    while frontier:
        for rhs in by_lhs.get(frontier.pop(), ()):
            for s in rhs:
                if _is_nonterminal(s) and s not in reachable:
                    reachable.add(s)
                    frontier.append(s)
    kept = sorted({rule for rule in rules if rule[0] in reachable})
    return Cfg(g.num_generators, start, tuple(kept))


def generates(g: Cfg, codes: bytes) -> bool:
    """Membership by memoized span derivation (right sides are short, so no
    normal form is needed)."""
    by_lhs: dict = {}
    for lhs, rhs in g.rules:
        by_lhs.setdefault(lhs, []).append(rhs)
    memo: dict = {}

    def seq_derives(seq: tuple, lo: int, hi: int) -> bool:
        if not seq:
            return lo == hi
        if len(seq) == 1:
            return derives(seq[0], lo, hi)
        first = seq[0]
        return any(
            derives(first, lo, cut) and seq_derives(seq[1:], cut, hi)
            for cut in range(lo, hi + 1)
        )

    def derives(sym, lo: int, hi: int) -> bool:
        if not _is_nonterminal(sym):
            return hi == lo + 1 and lo < len(codes) and codes[lo] == sym
        key = (sym, lo, hi)
        if key in memo:
            return memo[key]
        memo[key] = False  # cycle guard; cycles cannot shorten a derivation
        memo[key] = any(seq_derives(rhs, lo, hi) for rhs in by_lhs.get(sym, ()))
        return memo[key]

    return derives(g.start, 0, len(codes))


def _best_rules(rules, known=None) -> dict:
    """Knuth's least-fixpoint search over nonterminal costs (priority queue;
    ties broken by the rule itself).  Maps every productive
    nonterminal to the index of the rule that settled it at its least
    derivable length, in the order they settled.  Expanding these rules
    always terminates: a rule settles only after every nonterminal on its
    right side has.  ``known`` gives the least costs of nonterminals that
    have no rules here."""
    known = known or {}
    occ: dict = {}  # nonterminal -> one rule index per occurrence on a right side
    remaining = []  # nonterminal occurrences not yet settled, per rule
    cost_acc = []  # letters plus the settled costs so far, per rule
    for idx, (lhs, rhs) in enumerate(rules):
        nts = [s for s in rhs if _is_nonterminal(s) and s not in known]
        remaining.append(len(nts))
        cost_acc.append(sum(known.get(s, 1) for s in rhs if s not in nts))
        for s in nts:
            occ.setdefault(s, []).append(idx)

    best_rule: dict = {}
    heap = [(cost_acc[idx], rule, idx) for idx, rule in enumerate(rules) if remaining[idx] == 0]
    heapq.heapify(heap)
    while heap:
        cost, _, idx = heapq.heappop(heap)
        lhs = rules[idx][0]
        if lhs in best_rule:
            continue
        best_rule[lhs] = idx
        for jdx in occ.get(lhs, ()):
            cost_acc[jdx] += cost
            remaining[jdx] -= 1
            if remaining[jdx] == 0:
                heapq.heappush(heap, (cost_acc[jdx], rules[jdx], jdx))
    return best_rule


def _settled_words(rules, words: dict) -> dict:
    """Extend ``words``, the shortest words of nonterminals that have no
    rules here, by the shortest word of every nonterminal the rules derive,
    each read off its best rule."""
    best = _best_rules(rules, {s: len(word) for s, word in words.items()})
    for lhs, idx in best.items():  # a rule's nonterminals settled before its left side
        words[lhs] = b"".join(words[s] if _is_nonterminal(s) else bytes((s,)) for s in rules[idx][1])
    return words


def shortest_word(g: Cfg) -> tuple[int, bytes] | None:
    """Minimum-length derivable string with a witness, read off the settled
    rules of :func:`_best_rules`.  ``None`` when the language is empty."""
    tree = parse_tree(g)
    if tree is None:
        return None

    def leaves(node) -> bytes:
        sym, children = node
        if not _is_nonterminal(sym):
            return bytes((sym,))
        return b"".join(leaves(child) for child in children)

    witness = leaves(tree)
    return len(witness), witness


def parse_tree(g: Cfg):
    """Best-rule derivation tree for the shortest word: (symbol, children),
    terminals as leaves.  ``None`` when the language is empty."""
    rules = g.rules
    best_rule = _best_rules(rules)
    if g.start not in best_rule:
        return None

    def build(sym):
        if not _is_nonterminal(sym):
            return (sym, ())
        return (sym, tuple(build(s) for s in rules[best_rule[sym]][1]))

    return build(g.start)


def render_cfg(g: Cfg) -> str:
    """One rule per line, nonterminals bracketed, terminals bare letters,
    the empty right side written ``1``."""
    lines = []
    for lhs, rhs in g.rules:
        body = " ".join(_symbol_text(s) for s in rhs) if rhs else "1"
        lines.append(f"{_symbol_text(lhs)} -> {body}")
    return "\n".join(sorted(lines)) + "\n"


# -- the reading phase solved once per tree ------------------------------------
#
# A product grammar's reading triples [(v, m), X, (v', m)] and their rules
# name reading states only, all at one stage m, so they do not depend on the
# target word, and their rules order alike at every m.  Every rule of a
# simplified product grammar that is not empty holds a letter, so each
# nonterminal settles on the least (cost, rule) among its own rules whatever
# the others are, and pruning keeps every rule of a kept nonterminal.  So the
# reading triples are solved once per tree, and per target only the
# countdown triples [(v, m), X, (origin, i)] are built and solved: the same
# shortest witness as :func:`shortest_word` of the simplified product grammar.


def _reading_words(tree: LabeledGraph) -> dict[int, list[tuple[int, int, bytes]]]:
    """The shortest word of every reading triple (p, X, v') of the tree's
    product grammars, as (p, X, word) listed under v'.  The triples are those
    of the empty target's grammar, at stage 0."""
    g = pda_to_cfg(build_product_pda(EMPTY, tree))
    words = _settled_words([rule for rule in g.rules if rule[0][2][1] == 0], {})  # not the final stage -1
    by_end: dict = {}
    for (p, x, q), word in words.items():
        by_end.setdefault(q[0], []).append((p[0], x, word))
    return by_end


def _countdown_word(target: bytes, tree: LabeledGraph, reading: dict) -> bytes | None:
    """The shortest word of the simplified product grammar for the reduced
    ``target`` over ``tree``, from its countdown triples alone, with
    :func:`_reading_words` for the reading triples on their right sides.

    The triples are saturated as in :func:`pda_to_cfg`.  A countdown triple
    [v, X, i] = ``[(v, m), X, (origin, i)]`` pops X on entering stage i, so
    X is ``target[i]``, or the stack bottom at i = -1.  A push from v to p
    reading a gives [v, X, i] -> a [p, a, u] [u, X, i], with [p, a, u] the
    reading triple ``[(p, m), a, (u, m)]``, and when a is ``target[i + 1]``
    also [v, X, i] -> a [p, a, i + 1] D, where D is the countdown's pop into
    stage i.  :func:`simplify_cfg` then erases the empty-only triples as it
    does on the whole grammar."""
    m, origin = len(target), tree.origin
    tops = (BOTTOM, *target)  # tops[i + 1] is popped on entering stage i

    def triple(v, i):
        return ((v, m), tops[i + 1], (origin, i))

    rules = {(triple(origin, m - 1), ())}  # the countdown's first pop, then the later ones
    for i in range(-1, m - 1):
        rules.add((((origin, i + 1), tops[i + 1], (origin, i)), ()))
    words = {}  # the reading triples on right sides, with their shortest words
    productive, worklist = set(), [(origin, m - 1)]
    while worklist:
        u, i = worklist.pop()
        if (u, i) in productive:
            continue
        productive.add((u, i))
        x = tops[i + 1]
        for p, a, word in reading.get(u, ()):  # [v, x, i] -> a [p, a, u] [u, x, i]
            if x != a ^ 1:
                first = ((p, m), a, (u, m))
                words[first] = word
                for v in tree.step(p, a ^ 1):
                    rules.add((triple(v, i), (a, first, triple(u, i))))
                    worklist.append((v, i))
        if i >= 0 and tops[i] != x ^ 1:  # [v, tops[i], i - 1] -> x [u, x, i] D, x = target[i]
            pop = ((origin, i), tops[i], (origin, i - 1))
            for v in tree.step(u, x ^ 1):
                rules.add((triple(v, i - 1), (x, triple(u, i), pop)))
                worklist.append((v, i - 1))
    g = simplify_cfg(Cfg(tree.num_generators, triple(origin, -1), tuple(rules)))
    return _settled_words(g.rules, words).get(g.start)


# -- closed-path factoring ----------------------------------------------------


def _accepting_path(tree: LabeledGraph, codes: bytes) -> list[int] | None:
    """Vertex sequence of the lexicographically first accepting run."""
    states = {(0, tree.origin): None}
    queue = [(0, tree.origin)]
    head = 0
    while head < len(queue):
        pos, v = queue[head]
        head += 1
        if pos == len(codes):
            continue
        for t in sorted(tree.step(v, codes[pos])):
            key = (pos + 1, t)
            if key not in states:
                states[key] = (pos, v)
                queue.append(key)
    if (len(codes), tree.origin) not in states:
        return None
    path = [tree.origin]
    key = (len(codes), tree.origin)
    while states[key] is not None:
        key = states[key]
        path.append(key[1])
    return path[::-1]


def _spanning_tree(tree: LabeledGraph) -> tuple[dict[int, bytes], set]:
    """Breadth-first geodesic words per vertex, plus the set of directed
    edges used as tree links."""
    words = {tree.origin: EMPTY}
    tree_edges = set()
    queue = [tree.origin]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for code in range(2 * tree.num_generators):
            for t in sorted(tree.step(v, code)):
                if t not in words:
                    words[t] = words[v] + bytes((code,))
                    edge = (v, code >> 1, t) if code % 2 == 0 else (t, code >> 1, v)
                    tree_edges.add(edge)
                    queue.append(t)
    return words, tree_edges


def _cyclic_core(w: bytes) -> tuple[bytes, bytes]:
    """Split red(w) = t · core · t⁻¹ with core cyclically reduced."""
    codes = reduce_codes(w)
    k = _conjugator_length(codes) if codes else 0
    return codes[:k], codes[k : len(codes) - k]


def _match_rotation(core: bytes, relators: Iterable[bytes]) -> tuple[bytes, bytes, int] | None:
    """Find (prefix, relator, sign) with core equal to the relator (or its
    inverse) rotated past the prefix."""
    for r in relators:
        for codes, sign in ((r, 1), (inverse(r), -1)):
            if len(codes) != len(core):
                continue
            doubled = codes + codes
            for k in range(len(codes)):
                if doubled[k : k + len(codes)] == core:
                    return codes[:k], r, sign
    return None


def loop_factors(
    tree: LabeledGraph, p: Presentation, w: bytes
) -> list[tuple[bytes, bytes, int]]:
    """Decompose an accepted word into conjugated relators.

    Returns (conjugator y, relator r, sign s) triples whose product
    y·r^s·y⁻¹ · … freely equals ``w``; there is one factor per traversal of
    a non-tree edge, so the count never exceeds ``len(w)``.
    """
    path = _accepting_path(tree, w)
    if path is None:
        raise ValueError("the complex does not accept this word")
    words, tree_edges = _spanning_tree(tree)
    factors = []
    for pos, code in enumerate(w):
        u, v = path[pos], path[pos + 1]
        edge = (u, code >> 1, v) if code % 2 == 0 else (v, code >> 1, u)
        if edge in tree_edges:
            continue
        src, gen, dst = edge
        shift, core = _cyclic_core(words[src] + bytes((2 * gen,)) + inverse(words[dst]))
        matched = _match_rotation(core, p.relators)
        if matched is None:
            raise ValueError("a non-tree edge does not close a relator cycle")
        prefix, relator, sign = matched
        conjugator = reduce_codes(shift + inverse(prefix))
        if code % 2 == 1:
            sign = -sign
        factors.append((conjugator, relator, sign))
    return factors


def multiply_factors(factors: list[tuple[bytes, bytes, int]]) -> bytes:
    """Reduced product of y·r^s·y⁻¹ over the factor list."""
    out = b""
    for y, r, s in factors:
        out += y + (r if s > 0 else inverse(r)) + inverse(y)
    return reduce_codes(out)


# -- the end-to-end bound experiment -------------------------------------------


class BoundReport(NamedTuple):
    """One trivial word's row: ``holds`` is area ≤ ell ≤ n·2^(C·c^d), with
    n = |word| and d = d(n).  The bound itself is left to whoever prints
    it (:func:`~loopfold.fillings.double_exp_bound`)."""

    word: bytes
    n: int
    diameter: int
    shortest_length: int
    witness: bytes
    area: int
    holds: bool


def double_exp_experiment(
    p: Presentation,
    n_max: int,
    oracle: ReferenceOracle,
    budget: SearchBudget,
) -> list[BoundReport]:
    """For every oracle-trivial word of length ≤ n_max: run the full product
    pipeline, extract the shortest intersecting word, and compare it against
    the brute-force application count below and the explicit
    double-exponential bound above, decided by
    :func:`~loopfold.fillings.within_double_exp` as ``profile`` decides
    it, without building the bound.  The lower bound ``p``'s relators give
    (:func:`~loopfold.bounds.area_lower_bound`) certifies the areas it
    meets, as in :func:`~loopfold.fillings.measure_profile`.  The
    witness's factor list writes ``w`` as a product of that many conjugated
    relators, so it bounds the area above; where the two bounds meet, the
    area is Exact with no sweep, and
    :func:`~loopfold.rewrite.min_isoperimetric` measures the rest, on the
    oracle's rewrite system if it searches one, else on one built for the
    first such word and shared by the others."""
    oracle.check(p)
    bound = area_lower_bound(p)
    system = oracle.system  # the rewrite system the fallback searches, once one is needed
    trivial = oracle.trivial_words(n_max)
    layers = _kernels.trivial_layers(trivial, n_max, p.alphabet_size)
    diameters = [d.value for d in measure_isodiametric(p, layers)]
    if None in diameters:
        raise BudgetFailure(f"diameter scan did not converge at n={diameters.index(None)}")
    trees: dict[int, tuple[LabeledGraph, dict]] = {}  # d -> (tree, its reading words)
    # (red(w), d) -> (ell, witness, the witness's factor count)
    found: dict[tuple[bytes, int], tuple[int, bytes, int]] = {}
    reports = []
    for candidate in trivial:
        length = len(candidate)
        d = diameters[length]
        if d not in trees:
            tree = build_tree_nfa(p, d)
            trees[d] = tree, _reading_words(tree)
        tree, reading = trees[d]
        key = (reduce_codes(candidate), d)
        if key not in found:
            witness = _countdown_word(key[0], tree, reading)
            if witness is None:
                raise ValueError(f"empty intersection for the trivial word {render_word(candidate)}")
            if reduce_codes(witness) != key[0]:
                raise ValueError("witness is not freely equal to its word")
            if not nfa_accepts(tree, witness):
                raise ValueError("witness rejected by the tree complex")
            factors = loop_factors(tree, p, witness)
            if multiply_factors(factors) != key[0]:
                raise ValueError("witness factoring does not multiply out to its word")
            if len(factors) > len(witness):
                raise ValueError("witness factoring has more factors than the witness has letters")
            found[key] = len(witness), witness, len(factors)
        ell, witness, factors = found[key]
        if factors == bound(candidate):
            area = factors
        else:
            if system is None:
                system = rewrite.RewriteSystem(p)
            result = rewrite.min_isoperimetric(candidate, system, budget)
            if not result.exact:
                raise BudgetFailure(
                    f"area of {render_word(candidate)} is {result.status}, not Exact; "
                    f"raise {budget_flags(result.status)}"
                )
            area = result.value
        reports.append(
            BoundReport(
                word=candidate,
                n=length,
                diameter=d,
                shortest_length=ell,
                witness=witness,
                area=area,
                holds=area <= ell and within_double_exp(p, length, d, ell),
            )
        )
    return reports

