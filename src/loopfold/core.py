"""Words over a symmetric generator alphabet, and finite group presentations.

Letters are stored as small integer codes: generator ``g`` is ``2*g`` and its
formal inverse is ``2*g + 1``, so inversion of a single letter is ``code ^ 1``.
A word is a ``bytes`` string of codes, so length, equality, hashing,
concatenation and immutability are those of ``bytes``; :func:`reduce_codes`
freely reduces a word by cancelling adjacent ``x x^-1`` pairs,
:func:`inverse` inverts it and :func:`is_reduced` tests it.  The text form
writes generator ``g`` as a lowercase letter (``a``, ``b``, ...) and its
inverse as the corresponding uppercase letter.
:func:`words_up_to` is the one general word lister: every word up to a
length, shortest first and lexicographic in codes within a length, each
length taken from ``itertools.product``.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from typing import Iterable, Iterator, NamedTuple


_INVERSE = bytes(c ^ 1 for c in range(256))  # letter code -> inverse letter code


def reduce_codes(codes: bytes) -> bytes:
    """Freely reduce a code string by cancelling adjacent inverse pairs."""
    out = bytearray()
    for c in codes:
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return bytes(out)


def inverse(codes: bytes) -> bytes:
    """The formal inverse of a word: its letters reversed and inverted."""
    return codes[::-1].translate(_INVERSE)


def is_reduced(codes: bytes) -> bool:
    """No letter is followed by its inverse (compared at C level)."""
    return not any(map(operator.eq, codes[1:], codes.translate(_INVERSE)))


EMPTY = b""


def words_up_to(alphabet_size: int, n: int) -> Iterator[bytes]:
    """Every word of length at most ``n`` over the codes ``0 ..
    alphabet_size - 1``: shortest first, lexicographic in codes within a
    length, as ``itertools.product`` lists each length.  Words are made one
    at a time, never held as a list."""
    for length in range(n + 1):
        yield from map(bytes, itertools.product(range(alphabet_size), repeat=length))


class ParseError(ValueError):
    """A syntax error in presentation or word text, with 1-based position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def _letter_code(ch: str, num_generators: int, line: int, col: int) -> int:
    if "a" <= ch <= "z":
        g, sign_bit = ord(ch) - ord("a"), 0
    elif "A" <= ch <= "Z":
        g, sign_bit = ord(ch) - ord("A"), 1
    else:
        raise ParseError(f"invalid letter {ch!r}", line, col)
    if g >= num_generators:
        raise ParseError(f"letter {ch!r} is outside the declared alphabet", line, col)
    return 2 * g + sign_bit


def parse_word(text: str, num_generators: int, line: int = 1, col: int = 1) -> bytes:
    """Parse a word; ``""`` and ``"1"`` both denote the empty word."""
    if text == "" or text == "1":
        return EMPTY
    return bytes(_letter_code(ch, num_generators, line, col + i) for i, ch in enumerate(text))


# letter code -> text: generator g as the g-th lowercase letter, its inverse
# uppercase; codes past 26 generators have no text form
_LETTERS = bytes((ord("A") if c & 1 else ord("a")) + (c >> 1) for c in range(52))
_TEXT = _LETTERS.ljust(256)


def render_word(codes: bytes) -> str:
    if not codes:
        return "1"
    if max(codes) >= len(_LETTERS):
        raise ValueError("text form supports at most 26 generators")
    return codes.translate(_TEXT).decode("ascii")


@functools.cache
def _irregular(alphabet_size: int) -> re.Pattern[bytes]:
    """A pattern matching a cancelling pair ``c c^-1`` or a letter outside
    the alphabet: a nonempty word it does not match is a reduced word over
    the alphabet."""
    top = min(alphabet_size, 256) - 1  # letters are bytes
    pairs = [b"\\x%02x\\x%02x" % (c, c ^ 1) for c in range(top + 1)]
    return re.compile(b"|".join([*pairs, b"[^\\x00-\\x%02x]" % top]))


class _Relators(NamedTuple):
    num_generators: int
    relators: tuple[bytes, ...]


class Presentation(_Relators):
    """A finite presentation: a generator count and a tuple of relators.

    Each relator is taken as ``bytes(relator)``, so a ``bytearray`` or a
    list of codes is copied, and later changes to it do not reach the
    presentation; an ``int`` or a ``str`` relator is refused with a
    TypeError.  Relators are freely reduced on load, the empty relator is
    rejected, and literal duplicates are dropped.  Relators are kept in
    shortlex order so that everything built from a presentation is
    order-deterministic.
    """

    __slots__ = ()

    def __new__(cls, num_generators: int,
                relators: Iterable[bytes | bytearray | Iterable[int]] = ()):
        if not isinstance(num_generators, int) or num_generators < 1:
            raise ValueError("a presentation needs at least one generator")
        irregular = _irregular(2 * num_generators)
        reduced = []
        for r in relators:
            if isinstance(r, (int, str)):
                raise TypeError(f"relator {r!r} is not a word of letter codes")
            r = bytes(r)
            # most relators are reduced words over the alphabet already: one
            # C-level search finds them, and only the rest are reduced here
            if r and irregular.search(r) is None:
                reduced.append(r)
                continue
            r = reduce_codes(r)
            if len(r) == 0:
                raise ValueError("the empty word is not allowed as a relator")
            if max(r) >= 2 * num_generators:
                raise ValueError("relator uses a letter outside the alphabet")
            reduced.append(r)
        reduced.sort()
        reduced.sort(key=len)  # stable: shortlex
        return super().__new__(cls, num_generators, tuple(dict.fromkeys(reduced)))

    def __repr__(self) -> str:
        gens = " ".join(chr(ord("a") + g) for g in range(self.num_generators))
        rels = " ".join(render_word(r) for r in self.relators)
        return f"<Presentation gens: {gens}; rels: {rels}>"

    @property
    def relator_total_length(self) -> int:
        return sum(len(r) for r in self.relators)

    @property
    def max_relator_length(self) -> int:
        return max((len(r) for r in self.relators), default=0)

    @property
    def alphabet_size(self) -> int:
        """Size of the symmetric alphabet, ``2 * num_generators``."""
        return 2 * self.num_generators

    def symmetrized(self) -> "Presentation":
        """Close the relator set under inversion and cyclic permutation.

        Permutations of a relator that is not cyclically reduced are freely
        reduced; for cyclically reduced relators this is the literal
        closure.  The result presents the same group.
        """
        return Presentation(self.num_generators, symmetric_closure(self.relators))


def symmetric_closure(relators: Iterable[bytes], max_length: int | None = None) -> list[bytes]:
    """The freely reduced cyclic permutations of nonempty reduced relators
    and of their inverses, in shortlex order; with ``max_length``, only
    those of that length or less.

    A word already in the set is skipped: it is a reduced rotation of a word
    taken before, and the reduced rotations of a reduced rotation are among
    those of the word, so they are in the set too.  Every reduced rotation
    of a relator, and of its inverse, is at least as long as its cyclic
    core, so a relator whose core is longer than ``max_length`` is skipped
    before it is inverted.
    """
    closure: set[bytes] = set()
    for codes in relators:
        bound = len(codes) if max_length is None else max_length
        if len(codes) > bound and len(codes) - 2 * _conjugator_length(codes) > bound:
            continue
        for base in (codes, inverse(codes)):
            if base not in closure:
                closure |= _reduced_rotations(base, bound)
    ordered = sorted(closure)
    ordered.sort(key=len)  # stable: shortlex
    return ordered


def _conjugator_length(codes: bytes) -> int:
    """|x| where a nonempty reduced word is ``x u x^-1`` with ``u``
    cyclically reduced; the scan stops by the middle, as the word is
    reduced."""
    n, k = len(codes), 0
    while codes[k] == codes[n - 1 - k] ^ 1:
        k += 1
    return k


def _reduced_rotations(codes: bytes, max_length: int) -> set[bytes]:
    """The freely reduced cyclic permutations of length ≤ ``max_length`` of
    a nonempty reduced word.

    Write ``codes = x u x^-1`` with ``u`` cyclically reduced.  A rotation
    inside ``u`` reduces to a rotation of ``u``; one inside ``x`` or
    ``x^-1`` cancels at the seam down to ``y u y^-1`` for a suffix ``y`` of
    ``x``, the middle factor of ``codes`` that drops ``|x| - |y|`` letters
    from each end.  So no rotation has to be reduced letter by letter, and
    none longer than ``max_length`` is made.
    """
    n, k = len(codes), _conjugator_length(codes)
    m = n - 2 * k
    # y u y^-1 with |y| = k - i has length n - 2i
    rotations = {codes[i : n - i] for i in range(max(0, (n - max_length + 1) // 2), k)}
    if m <= max_length:
        uu = codes[k : n - k] * 2
        rotations.update(uu[i : i + m] for i in range(m))
    return rotations


def parse_presentation(text: str) -> Presentation:
    """Parse the two-line text format::

        gens: a b
        rels: abAB aab
    """
    lines = text.splitlines()
    significant = [(i + 1, ln) for i, ln in enumerate(lines) if ln.strip()]
    if len(significant) != 2:
        raise ParseError("expected exactly two lines: 'gens: ...' and 'rels: ...'", len(lines) or 1, 1)
    (gline, gtext), (rline, rtext) = significant

    if not gtext.startswith("gens:"):
        raise ParseError("first line must start with 'gens:'", gline, 1)
    names = gtext[len("gens:") :].split()
    if not names:
        raise ParseError("no generators declared", gline, len(gtext) + 1)
    for name in names:
        col = gtext.index(name) + 1
        if len(name) != 1 or not ("a" <= name <= "z"):
            raise ParseError(f"generator {name!r} must be a single lowercase letter", gline, col)
    expected = [chr(ord("a") + i) for i in range(len(names))]
    if names != expected:
        raise ParseError(f"generators must be consecutive letters {' '.join(expected)!r}", gline, len("gens: ") + 1)

    if not rtext.startswith("rels:"):
        raise ParseError("second line must start with 'rels:'", rline, 1)
    relators = []
    pos = len("rels:")
    for token in rtext[len("rels:") :].split():
        col = rtext.index(token, pos) + 1
        pos = col + len(token)
        w = parse_word(token, len(names), rline, col)
        if not reduce_codes(w):
            raise ParseError(f"relator {token!r} reduces to the empty word", rline, col)
        relators.append(w)
    return Presentation(len(names), relators)


def render_presentation(p: Presentation) -> str:
    gens = " ".join(chr(ord("a") + g) for g in range(p.num_generators))
    rels = " ".join(render_word(r) for r in p.relators)
    return f"gens: {gens}\nrels: {rels}\n"
