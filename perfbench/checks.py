"""Output checks for the benchmark's commands, written without loopfold.

Every check compares a command's output with a closed form or with a
property the method must have.  Groups are modelled directly (exponent sums
for cyclic and free abelian groups, free reduction for free groups), so a
fault in loopfold cannot hide behind the same fault in its checker.  Each
``check_*`` function returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass


# -- words and presentations ---------------------------------------------------


def inverse_letter(ch: str) -> str:
    return ch.lower() if ch.isupper() else ch.upper()


def free_reduce(word: str) -> str:
    out: list[str] = []
    for ch in word:
        if out and out[-1] == inverse_letter(ch):
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def invert(word: str) -> str:
    return "".join(inverse_letter(ch) for ch in reversed(word))


def exponent_sums(word: str, num_generators: int) -> list[int]:
    sums = [0] * num_generators
    for ch in word:
        g = ord(ch.lower()) - ord("a")
        sums[g] += -1 if ch.isupper() else 1
    return sums


def letters(num_generators: int) -> list[str]:
    lower = [chr(ord("a") + g) for g in range(num_generators)]
    return [x for g in lower for x in (g, g.upper())]


def text_word(token: str) -> str:
    """The CLI writes the empty word as ``1``."""
    return "" if token == "1" else token


@dataclass(frozen=True)
class PresentationText:
    generators: tuple[str, ...]
    relators: tuple[str, ...]

    @property
    def total_length(self) -> int:
        return sum(len(r) for r in self.relators)

    def symmetrized(self) -> set[str]:
        """Cyclic permutations of every relator and its inverse, reduced."""
        out = set()
        for r in self.relators:
            for base in (r, invert(r)):
                out.update(free_reduce(base[i:] + base[:i]) for i in range(len(base)))
        return out


def parse_presentation_text(text: str) -> PresentationText:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2 or not lines[0].startswith("gens:") or not lines[1].startswith("rels:"):
        raise ValueError(f"not a presentation: {text[:80]!r}")
    gens = tuple(lines[0][len("gens:"):].split())
    rels = tuple(lines[1][len("rels:"):].split())
    return PresentationText(gens, rels)


# -- groups --------------------------------------------------------------------


@dataclass(frozen=True)
class Group:
    """The group a sample presentation presents: ``cyclic`` of order k,
    ``free-abelian`` of rank r, or ``free`` of rank r."""

    kind: str
    param: int

    @property
    def num_generators(self) -> int:
        return 1 if self.kind == "cyclic" else self.param

    def is_trivial(self, word: str) -> bool:
        if self.kind == "free":
            return free_reduce(word) == ""
        sums = exponent_sums(word, self.num_generators)
        if self.kind == "cyclic":
            return sums[0] % self.param == 0
        return not any(sums)

    def identity(self):
        return "" if self.kind == "free" else (0,) * self.num_generators

    def times(self, element, letter: str):
        if self.kind == "free":
            return free_reduce(element + letter)
        g = ord(letter.lower()) - ord("a")
        step = -1 if letter.isupper() else 1
        value = element[g] + step
        if self.kind == "cyclic":
            value %= self.param
        return element[:g] + (value,) + element[g + 1:]

    def has_trivial_word_of_length(self, length: int) -> bool:
        """A word of length L has exponent sums of total size ≤ L and of
        L's parity; pairs ``x x⁻¹`` fill the rest."""
        if length % 2 == 0:
            return True
        return self.kind == "cyclic" and self.param % 2 == 1 and self.param <= length

    def area(self, word: str) -> int:
        """Least number of relator applications for a trivial word."""
        if self.kind == "free":
            return 0
        if self.kind == "cyclic":
            return abs(exponent_sums(word, 1)[0]) // self.param
        raise ValueError("no closed-form area for this group")

    def max_area(self, n: int) -> int:
        """P(n): ⌊n/k⌋ for ⟨a; aᵏ⟩, ⌊m²/16⌋ for ℤ² (m the largest even
        number ≤ n), 0 for a free group."""
        if self.kind == "cyclic":
            return n // self.param
        if self.kind == "free":
            return 0
        if self.param == 2:
            m = n - n % 2
            return m * m // 16
        raise ValueError("no closed-form profile for this group")


def trivial_words_up_to(group: Group, n: int) -> list[str]:
    out = []
    alphabet = letters(group.num_generators)
    for length in range(n + 1):
        for combo in itertools.product(alphabet, repeat=length):
            word = "".join(combo)
            if group.is_trivial(word):
                out.append(word)
    return out


# -- the explicit bound ----------------------------------------------------------


def bound_exponent(p: PresentationText, d: int) -> int:
    """C·c^d with C = 2(2|A|+1)·‖R‖² and c = (2|A|)²."""
    a = len(p.generators)
    big_c = 2 * (2 * a + 1) * p.total_length**2
    return big_c * (2 * a) ** (2 * d)


def within_double_exp(value: int, p: PresentationText, n: int, d: int) -> bool:
    """value ≤ n·2^(C·c^d), without building the power when it is huge."""
    if n == 0:
        return value <= 0
    exponent = bound_exponent(p, d)
    if exponent >= value.bit_length():
        return True
    return value <= n << exponent


def double_exp_value(p: PresentationText, n: int, d: int) -> int:
    return n << bound_exponent(p, d)


# -- profile ---------------------------------------------------------------------

PROFILE_HEADER = "n,P,P_status,f,f_status,d,rhoTC,d_le_half_f,double_exp,d_eq_rhoTC"


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true/false, got {text!r}")
    return text == "true"


def check_profile(stdout: str, exit_code: int, group: Group, p: PresentationText, n_max: int) -> list[str]:
    lines = stdout.splitlines()
    if not lines or lines[0] != PROFILE_HEADER:
        return [f"profile header is {lines[:1]!r}"]
    if len(lines) != n_max + 2:
        return [f"profile has {len(lines) - 1} rows, expected {n_max + 1}"]
    problems = []
    previous = (0, 0, 0)
    other_false = False
    rho_false = False
    for expect_n, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != 10:
            problems.append(f"row {line!r} has {len(cells)} cells")
            continue
        try:
            n, area, f, d, rho = (int(cells[i]) for i in (0, 1, 3, 5, 6))
            flags = [_flag(c) for c in cells[7:]]
        except ValueError as exc:
            problems.append(f"row {line!r}: {exc}")
            continue
        if n != expect_n:
            problems.append(f"row n={n}, expected {expect_n}")
        if cells[2] != "Exact" or cells[4] != "Exact":
            problems.append(f"n={n}: statuses {cells[2]}/{cells[4]}, expected Exact")
        if area != group.max_area(n):
            problems.append(f"n={n}: P={area}, closed form gives {group.max_area(n)}")
        longest = max(L for L in range(n + 1) if group.has_trivial_word_of_length(L))
        if f < longest:
            problems.append(f"n={n}: f={f} is below the longest trivial word length {longest}")
        if any(now < before for now, before in zip((area, f, d), previous)):
            problems.append(f"n={n}: P, f, d = {area}, {f}, {d} decrease from {previous}")
        previous = (area, f, d)
        d_le = d <= -(-f // 2)
        dexp = within_double_exp(area, p, n, d)
        d_eq = d == rho
        for name, mine, theirs in (("d_le_half_f", d_le, flags[0]), ("double_exp", dexp, flags[1]),
                                   ("d_eq_rhoTC", d_eq, flags[2])):
            if mine != theirs:
                problems.append(f"n={n}: {name} column says {theirs}, recomputed {mine}")
        other_false = other_false or not (d_le and dexp)
        rho_false = rho_false or not d_eq
    if other_false:
        problems.append("an asserted inequality fails")
    expected_exit = 1 if rho_false else 0
    if exit_code != expected_exit:
        problems.append(f"profile exited {exit_code}, expected {expected_exit}")
    return problems


# -- grammar-bound ------------------------------------------------------------------

GRAMMAR_HEADER = "word,n,d,ell,witness,area,bound,holds"


def check_grammar_bound(stdout: str, exit_code: int, group: Group, p: PresentationText, n_max: int) -> list[str]:
    lines = stdout.splitlines()
    if not lines or lines[0] != GRAMMAR_HEADER:
        return [f"grammar-bound header is {lines[:1]!r}"]
    problems = []
    seen = []
    all_hold = True
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 8:
            problems.append(f"row {line!r} has {len(cells)} cells")
            continue
        word, witness = text_word(cells[0]), text_word(cells[4])
        try:
            n, d, ell, area, bound = (int(cells[i]) for i in (1, 2, 3, 5, 6))
            holds = _flag(cells[7])
        except ValueError as exc:
            problems.append(f"row {line!r}: {exc}")
            continue
        seen.append(word)
        if n != len(word):
            problems.append(f"{cells[0]}: n={n}, word length {len(word)}")
        if free_reduce(witness) != free_reduce(word):
            problems.append(f"{cells[0]}: witness {cells[4]} is not freely equal to it")
        if ell != len(witness):
            problems.append(f"{cells[0]}: ell={ell}, witness length {len(witness)}")
        if area != group.area(word):
            problems.append(f"{cells[0]}: area={area}, closed form gives {group.area(word)}")
        if bound != double_exp_value(p, n, d):
            problems.append(f"{cells[0]}: bound={bound}, recomputed {double_exp_value(p, n, d)}")
        mine = area <= ell <= bound
        if not mine:
            problems.append(f"{cells[0]}: area ≤ ell ≤ bound fails ({area}, {ell}, {bound})")
        if holds != mine:
            problems.append(f"{cells[0]}: holds column says {holds}, recomputed {mine}")
        all_hold = all_hold and mine
    expected = trivial_words_up_to(group, n_max)
    if len(seen) != len(set(seen)) or set(seen) != set(expected):
        missing = sorted(set(expected) - set(seen))[:3]
        extra = sorted(set(seen) - set(expected))[:3]
        problems.append(
            f"rows are not the {len(expected)} trivial words of length ≤ {n_max} "
            f"({len(seen)} rows; missing {missing}, extra {extra})"
        )
    expected_exit = 0 if all_hold else 1
    if exit_code != expected_exit:
        problems.append(f"grammar-bound exited {exit_code}, expected {expected_exit}")
    return problems


# -- tc ------------------------------------------------------------------------------

_VERTEX = re.compile(r"^\s*(\d+) \[shape=(circle|doublecircle)\];$")
_EDGE = re.compile(r'^\s*(\d+) -> (\d+) \[label="([a-z])"\];$')
_SUMMARY = re.compile(r"^rounds=(\d+) vertices=(\d+) radius=(\d+)$")


def check_tc(stdout: str, exit_code: int, dot: str, group: Group, rounds: int) -> list[str]:
    """Map the DOT graph into the group by BFS from the origin: every edge
    agrees with its generator, the map is injective, and the printed radius
    is the BFS radius."""
    if exit_code != 0:
        return [f"tc exited {exit_code}, expected 0"]
    summary = _SUMMARY.match(stdout.strip())
    if summary is None:
        return [f"tc summary line is {stdout.strip()!r}"]
    got_rounds, got_vertices, got_radius = (int(x) for x in summary.groups())
    vertices: list[int] = []
    origins: list[int] = []
    edges: list[tuple[int, str, int]] = []
    for line in dot.splitlines():
        if m := _VERTEX.match(line):
            vertices.append(int(m.group(1)))
            if m.group(2) == "doublecircle":
                origins.append(int(m.group(1)))
        elif m := _EDGE.match(line):
            edges.append((int(m.group(1)), m.group(3), int(m.group(2))))
        elif line.strip() not in ("digraph G {", "rankdir=LR;", "}"):
            return [f"unexpected DOT line {line!r}"]
    problems = []
    if got_rounds != rounds:
        problems.append(f"tc ran {got_rounds} rounds, asked for {rounds}")
    if got_vertices != len(vertices) or len(set(vertices)) != len(vertices):
        problems.append(f"tc printed {got_vertices} vertices, DOT declares {len(vertices)}")
    if len(origins) != 1:
        return problems + [f"DOT has {len(origins)} origins"]
    adjacent: dict[int, list[tuple[str, int]]] = {v: [] for v in vertices}
    for src, gen, dst in edges:
        if src not in adjacent or dst not in adjacent:
            return problems + [f"edge {src}->{dst} names an undeclared vertex"]
        adjacent[src].append((gen, dst))
        adjacent[dst].append((gen.upper(), src))
    element = {origins[0]: group.identity()}
    dist = {origins[0]: 0}
    queue = [origins[0]]
    for v in queue:
        for letter, w in adjacent[v]:
            if w not in element:
                element[w] = group.times(element[v], letter)
                dist[w] = dist[v] + 1
                queue.append(w)
    if len(element) != len(vertices):
        return problems + [f"{len(vertices) - len(element)} vertices are unreachable from the origin"]
    bad = [(s, g, t) for s, g, t in edges if group.times(element[s], g) != element[t]]
    if bad:
        problems.append(f"{len(bad)} edges disagree with their generator, e.g. {bad[0]}")
    if len(set(element.values())) != len(element):
        problems.append("two vertices map to the same group element")
    if max(dist.values()) != got_radius:
        problems.append(f"tc printed radius {got_radius}, BFS radius is {max(dist.values())}")
    return problems


# -- compress ---------------------------------------------------------------------------


def check_compress(stdout: str, exit_code: int, expected_exit: int, group: Group, p: PresentationText) -> list[str]:
    """Every fused relator is trivial in the group and the symmetrized base
    relators are present."""
    problems = []
    if exit_code != expected_exit:
        problems.append(f"compress exited {exit_code}, expected {expected_exit}")
    try:
        fused = parse_presentation_text(stdout)
    except ValueError as exc:
        return problems + [str(exc)]
    if fused.generators != p.generators:
        problems.append(f"generators {fused.generators} differ from {p.generators}")
    nontrivial = [r for r in fused.relators if not group.is_trivial(r)]
    if nontrivial:
        problems.append(f"{len(nontrivial)} fused relators are not trivial, e.g. {nontrivial[0]}")
    missing = p.symmetrized() - set(fused.relators)
    if missing:
        problems.append(f"symmetrized base relators missing: {sorted(missing)[:3]}")
    return problems


# -- wp --------------------------------------------------------------------------------------


def check_wp(stdout: str, exit_code: int, group: Group, word: str, radius: int) -> list[str]:
    """A word with zero exponent sums and length ≤ 2·radius is accepted;
    any other word of the drawn kind is not."""
    trivial = group.is_trivial(word)
    if trivial and len(word) > 2 * radius:
        raise ValueError("the drawn trivial word is longer than the radius covers")
    expected = ("trivial", 0) if trivial else (f"not-accepted-at-radius-{radius}", 1)
    got = (stdout.strip(), exit_code)
    if got != expected:
        return [f"wp {word}: got {got}, expected {expected}"]
    return []
