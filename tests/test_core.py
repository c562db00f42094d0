import random

import pytest

from loopfold.core import (
    EMPTY,
    ParseError,
    Presentation,
    Word,
    parse_presentation,
    parse_word,
    render_presentation,
    render_word,
    symmetric_closure,
    words_up_to,
)


def w(text, n=2):
    return parse_word(text, n)


def reduce_oracle(codes):
    """Reference free reduction: rescan from scratch after every cancellation."""
    codes = list(codes)
    changed = True
    while changed:
        changed = False
        for i in range(len(codes) - 1):
            if codes[i] ^ 1 == codes[i + 1]:
                del codes[i : i + 2]
                changed = True
                break
    return bytes(codes)


def random_word(rng, num_generators, length):
    return Word(bytes(rng.randrange(2 * num_generators) for _ in range(length)))


class TestWord:
    def test_reduce_example(self):
        assert w("abBAa").reduce() == w("a")

    def test_reduce_to_empty(self):
        assert w("aBbA").reduce() == EMPTY
        assert render_word(w("aA").reduce()) == "1"

    def test_reduce_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(500):
            u = random_word(rng, rng.choice([1, 2, 3]), rng.randrange(0, 30))
            assert u.reduce().codes == reduce_oracle(u.codes)

    def test_reduce_idempotent(self):
        rng = random.Random(8)
        for _ in range(200):
            u = random_word(rng, 2, rng.randrange(0, 25)).reduce()
            assert u.is_reduced()
            assert u.reduce() == u

    def test_inverse(self):
        assert w("abA").inverse() == w("aBA")
        assert EMPTY.inverse() == EMPTY

    def test_inverse_cancels(self):
        rng = random.Random(9)
        for _ in range(200):
            u = random_word(rng, 2, rng.randrange(0, 20))
            assert (u * u.inverse()).reduce() == EMPTY
            assert (u.inverse() * u).reduce() == EMPTY
            assert u.inverse().inverse() == u

    def test_cyclic_permutations(self):
        perms = w("aab").cyclic_permutations()
        assert perms == [w("aab"), w("aba"), w("baa")]
        assert EMPTY.cyclic_permutations() == [EMPTY]

    def test_word_is_immutable_and_hashable(self):
        u = w("ab")
        with pytest.raises(AttributeError):
            u.codes = b""
        assert len({u, w("ab"), w("ba")}) == 2


class TestPresentation:
    def test_relators_normalized_on_load(self):
        p = Presentation(2, [w("ba"), w("abBAa"), w("ab"), w("ba")])
        # reduced, literal duplicates dropped, shortlex order
        assert p.relators == (w("a"), w("ab"), w("ba"))

    def test_rejects_empty_relator(self):
        with pytest.raises(ValueError):
            Presentation(1, [w("aA", 1)])

    def test_rejects_foreign_letters(self):
        with pytest.raises(ValueError):
            Presentation(1, [w("ab")])

    def test_rejects_zero_generators(self):
        with pytest.raises(ValueError):
            Presentation(0, [])

    def test_sizes(self):
        p = Presentation(2, [w("abAB"), w("aa")])
        assert p.relator_total_length == 6
        assert p.max_relator_length == 4
        assert p.alphabet_size == 4

    def test_symmetrized_order_two(self):
        p = Presentation(1, [w("aa", 1)]).symmetrized()
        assert {render_word(r) for r in p.relators} == {"aa", "AA"}

    def test_symmetrized_two_generator(self):
        p = Presentation(2, [w("ab")]).symmetrized()
        assert {render_word(r) for r in p.relators} == {"ab", "ba", "BA", "AB"}

    def test_symmetrized_commutator(self):
        p = Presentation(2, [w("abAB")]).symmetrized()
        assert len(p.relators) == 8
        assert {render_word(r) for r in p.relators} == {
            "abAB", "bABa", "ABab", "BabA", "baBA", "aBAb", "BAba", "AbaB",
        }

    def test_symmetrized_idempotent(self):
        rng = random.Random(11)
        for _ in range(50):
            rels = []
            for _ in range(rng.randrange(1, 4)):
                u = random_word(rng, 2, rng.randrange(1, 7)).reduce()
                if len(u):
                    rels.append(u)
            if not rels:
                continue
            s = Presentation(2, rels).symmetrized()
            assert s.symmetrized() == s

    def test_symmetrized_closure_properties(self):
        rng = random.Random(12)
        for _ in range(50):
            u = random_word(rng, 2, rng.randrange(1, 8)).reduce()
            if not len(u):
                continue
            s = Presentation(2, [u]).symmetrized()
            rels = set(s.relators)
            for r in rels:
                assert r.inverse().reduce() in rels
                for perm in r.cyclic_permutations():
                    assert perm.reduce() in rels

    def test_symmetrized_reduces_every_rotation(self):
        # relators that are not cyclically reduced (conjugates x u x^-1)
        # reduce their rotations to rotations of u and middle factors
        rng = random.Random(13)
        for _ in range(200):
            x = random_word(rng, 2, rng.randrange(0, 4))
            u = random_word(rng, 2, rng.randrange(1, 6))
            r = (x * u * x.inverse()).reduce()
            if not len(r):
                continue
            expected = {reduce_oracle(base[i:] + base[:i])
                        for base in (r.codes, r.inverse().codes) for i in range(len(base))}
            s = Presentation(2, [r]).symmetrized()
            assert {q.codes for q in s.relators} == expected - {b""}, r


    def test_relators_sorted_shortlex_without_duplicates(self):
        rng = random.Random(14)
        for _ in range(100):
            rels = [random_word(rng, 2, rng.randrange(1, 6)).reduce() for _ in range(rng.randrange(1, 30))]
            rels = [r for r in rels if len(r)]
            rels += rng.sample(rels, len(rels) // 2)  # literal duplicates
            rng.shuffle(rels)
            expected = sorted({r.codes for r in rels}, key=lambda codes: (len(codes), codes))
            assert [r.codes for r in Presentation(2, rels).relators] == expected

    def test_symmetric_closure_equals_the_rotation_union(self):
        # every relator and inverse taken, none skipped, each rotation
        # reduced by the reference construction
        rng = random.Random(15)
        for _ in range(200):
            rels = []
            for _ in range(rng.randrange(1, 5)):
                x = random_word(rng, 2, rng.randrange(0, 3))
                u = random_word(rng, 2, rng.randrange(1, 6))
                r = (x * u * x.inverse()).reduce()
                if len(r):
                    rels.append(r)
            expected = set()
            for r in rels:
                for base in (r.codes, r.inverse().codes):
                    expected |= rotations_by_definition(base)
            closure = symmetric_closure(rels)
            assert closure == sorted(expected, key=lambda codes: (len(codes), codes)), rels
            assert symmetric_closure(map(Word, closure)) == closure


def rotations_by_definition(codes):
    """The reduced cyclic permutations of a reduced word ``x u x^-1`` (``u``
    cyclically reduced): its middle factors ``y u y^-1`` and the rotations
    of ``u``."""
    n = len(codes)
    k = 0
    while codes[k] == codes[n - 1 - k] ^ 1:
        k += 1
    u = codes[k : n - k]
    return {codes[i : n - i] for i in range(k)} | {u[i:] + u[:i] for i in range(len(u))}


class TestTextFormat:
    def test_parse_round_trip(self):
        text = "gens: a b\nrels: aa abAB\n"
        p = parse_presentation(text)
        assert p.num_generators == 2
        assert render_presentation(p) == text

    def test_parse_word_empty_forms(self):
        assert parse_word("", 2) == EMPTY
        assert parse_word("1", 2) == EMPTY
        assert render_word(EMPTY) == "1"

    def test_render_word_round_trip(self):
        for word in words_up_to(52, 2):
            assert parse_word(render_word(word), 26) == word
        assert render_word(EMPTY) == "1"
        with pytest.raises(ValueError):
            render_word(Word(bytes([0, 52])))

    def test_parse_ignores_blank_lines(self):
        p = parse_presentation("\ngens: a\n\nrels: aa\n\n")
        assert p == Presentation(1, [w("aa", 1)])

    def test_parse_error_positions(self):
        with pytest.raises(ParseError) as e:
            parse_presentation("gens: a\nrels: aba\n")
        assert (e.value.line, e.value.col) == (2, 8)  # 'b' inside 'aba'

        with pytest.raises(ParseError) as e:
            parse_presentation("gens: a\nrels: a?\n")
        assert (e.value.line, e.value.col) == (2, 8)

    def test_parse_error_on_bad_header(self):
        with pytest.raises(ParseError) as e:
            parse_presentation("generators: a\nrels: aa\n")
        assert e.value.line == 1

    def test_parse_error_on_empty_relator(self):
        with pytest.raises(ParseError) as e:
            parse_presentation("gens: a\nrels: aA\n")
        assert (e.value.line, e.value.col) == (2, 7)
        with pytest.raises(ParseError):
            parse_presentation("gens: a\nrels: 1\n")

    def test_parse_error_on_noncontiguous_generators(self):
        with pytest.raises(ParseError):
            parse_presentation("gens: a c\nrels: aa\n")
        with pytest.raises(ParseError):
            parse_presentation("gens: ab\nrels: aa\n")

    def test_parse_requires_two_lines(self):
        with pytest.raises(ParseError):
            parse_presentation("gens: a\n")
        with pytest.raises(ParseError):
            parse_presentation("gens: a\nrels: aa\nextra: x\n")
