import random

import pytest

from loopfold.core import (
    EMPTY,
    ParseError,
    Presentation,
    inverse,
    is_reduced,
    parse_presentation,
    parse_word,
    render_presentation,
    reduce_codes,
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
    return bytes(rng.randrange(2 * num_generators) for _ in range(length))


class TestWord:
    def test_reduce_example(self):
        assert reduce_codes(w("abBAa")) == w("a")

    def test_reduce_to_empty(self):
        assert reduce_codes(w("aBbA")) == EMPTY
        assert render_word(reduce_codes(w("aA"))) == "1"

    def test_reduce_matches_oracle(self):
        rng = random.Random(7)
        for _ in range(500):
            u = random_word(rng, rng.choice([1, 2, 3]), rng.randrange(0, 30))
            assert reduce_codes(u) == reduce_oracle(u)

    def test_reduce_idempotent(self):
        rng = random.Random(8)
        for _ in range(200):
            u = reduce_codes(random_word(rng, 2, rng.randrange(0, 25)))
            assert is_reduced(u)
            assert reduce_codes(u) == u

    def test_inverse(self):
        assert inverse(w("abA")) == w("aBA")
        assert inverse(EMPTY) == EMPTY

    def test_inverse_cancels(self):
        rng = random.Random(9)
        for _ in range(200):
            u = random_word(rng, 2, rng.randrange(0, 20))
            assert reduce_codes(u + inverse(u)) == EMPTY
            assert reduce_codes(inverse(u) + u) == EMPTY
            assert inverse(inverse(u)) == u


class TestPresentation:
    def test_relators_normalized_on_load(self):
        p = Presentation(2, [w("ba"), w("abBAa"), w("ab"), w("ba")])
        # reduced, literal duplicates dropped, shortlex order
        assert p.relators == (w("a"), w("ab"), w("ba"))

    def test_relators_of_any_code_sequence_are_bytes(self):
        expected = Presentation(2, [w("abAB"), w("aa")])
        for make in (bytearray, list, tuple, iter):
            p = Presentation(2, [make(w("abAB")), make(w("aa"))])
            assert p == expected
            assert all(type(r) is bytes for r in p.relators)

    def test_relators_are_copied_on_load(self):
        relator = bytearray(w("abAB"))
        p = Presentation(2, [relator])
        relator[:] = w("aa")
        assert p.relators == (w("abAB"),)

    def test_rejects_empty_relator(self):
        with pytest.raises(ValueError):
            Presentation(1, [w("aA", 1)])

    def test_rejects_foreign_letters(self):
        with pytest.raises(ValueError):
            Presentation(1, [w("ab")])

    @pytest.mark.parametrize("relator", [3, "aa"])
    def test_rejects_a_relator_that_is_not_a_word(self, relator):
        # an int would be that many zero codes, a str has no letter codes
        with pytest.raises(TypeError, match=f"relator {relator!r} is not a word"):
            Presentation(1, [w("aa", 1), relator])

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
                u = reduce_codes(random_word(rng, 2, rng.randrange(1, 7)))
                if len(u):
                    rels.append(u)
            if not rels:
                continue
            s = Presentation(2, rels).symmetrized()
            assert s.symmetrized() == s

    def test_symmetrized_closure_properties(self):
        rng = random.Random(12)
        for _ in range(50):
            u = reduce_codes(random_word(rng, 2, rng.randrange(1, 8)))
            if not len(u):
                continue
            s = Presentation(2, [u]).symmetrized()
            rels = set(s.relators)
            for r in rels:
                assert reduce_codes(inverse(r)) in rels
                for i in range(len(r)):
                    assert reduce_codes(r[i:] + r[:i]) in rels

    def test_symmetrized_reduces_every_rotation(self):
        # relators that are not cyclically reduced (conjugates x u x^-1)
        # reduce their rotations to rotations of u and middle factors
        rng = random.Random(13)
        for _ in range(200):
            x = random_word(rng, 2, rng.randrange(0, 4))
            u = random_word(rng, 2, rng.randrange(1, 6))
            r = reduce_codes(x + u + inverse(x))
            if not len(r):
                continue
            expected = {reduce_oracle(base[i:] + base[:i])
                        for base in (r, inverse(r)) for i in range(len(base))}
            s = Presentation(2, [r]).symmetrized()
            assert set(s.relators) == expected - {b""}, r


    def test_relators_sorted_shortlex_without_duplicates(self):
        rng = random.Random(14)
        for _ in range(100):
            rels = [reduce_codes(random_word(rng, 2, rng.randrange(1, 6))) for _ in range(rng.randrange(1, 30))]
            rels = [r for r in rels if len(r)]
            rels += rng.sample(rels, len(rels) // 2)  # literal duplicates
            rng.shuffle(rels)
            expected = sorted(set(rels), key=lambda codes: (len(codes), codes))
            assert list(Presentation(2, rels).relators) == expected

    def test_symmetric_closure_equals_the_rotation_union(self):
        # every relator and inverse taken, none skipped, each rotation
        # reduced by the reference construction
        rng = random.Random(15)
        for _ in range(200):
            rels = []
            for _ in range(rng.randrange(1, 5)):
                x = random_word(rng, 2, rng.randrange(0, 3))
                u = random_word(rng, 2, rng.randrange(1, 6))
                r = reduce_codes(x + u + inverse(x))
                if len(r):
                    rels.append(r)
            expected = set()
            for r in rels:
                for base in (r, inverse(r)):
                    expected |= rotations_by_definition(base)
            closure = symmetric_closure(rels)
            assert closure == sorted(expected, key=lambda codes: (len(codes), codes)), rels
            assert symmetric_closure(closure) == closure


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
            render_word(bytes([0, 52]))

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
