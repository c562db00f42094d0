import itertools

from loopfold._kernels import trace_batch
from loopfold.core import Word, words_up_to


def test_trace_batch_walks_table():
    # two-state automaton: letter 0 swaps the states, letter 1 is undefined at 1
    delta = [[1, 0], [0, -1]]
    words = [bytes(u) for u in [[], [0], [0, 0], [1], [0, 1], [1, 1, 0]]]
    assert trace_batch(delta, 0, words) == [0, 1, 0, 0, -1, 1]


def test_trace_batch_dead_state_sticks():
    delta = [[-1, -1]]
    assert trace_batch(delta, 1, [bytes([0, 0, 0])]) == [-1]


def of_length(k, L, reduced):
    return [u.codes for u in words_up_to(k, L, reduced=reduced) if len(u) == L]


def test_enumerate_all_words_counts():
    for k, L in [(2, 0), (2, 3), (4, 4), (3, 2)]:
        rows = of_length(k, L, reduced=False)
        assert len(rows) == k**L
        assert len(set(rows)) == len(rows)
        assert rows == sorted(rows)


def test_enumerate_reduced_words_counts():
    for k, L in [(2, 1), (2, 4), (4, 3), (6, 2)]:
        rows = of_length(k, L, reduced=True)
        assert len(rows) == k * (k - 1) ** (L - 1)
        assert rows == sorted(rows)
        assert all(Word(row).is_reduced() for row in rows)


def test_enumerate_reduced_is_filter_of_all():
    every = [u for u in words_up_to(4, 4, reduced=False) if u.is_reduced()]
    assert every == list(words_up_to(4, 4, reduced=True))


def test_enumeration_is_shortest_first():
    lengths = [len(u) for u in words_up_to(4, 4, reduced=False)]
    assert lengths == sorted(lengths)
    assert len(lengths) == sum(4**L for L in range(5))


def test_enumeration_matches_a_product_listing():
    for k, n, min_length in [(1, 4, 0), (2, 5, 2), (3, 4, 1), (4, 3, 3), (4, 2, 3)]:
        for reduced in (False, True):
            expected = [bytes(t) for L in range(min_length, n + 1)
                        for t in itertools.product(range(k), repeat=L)]
            if reduced:
                expected = [u for u in expected if Word(u).is_reduced()]
            got = [u.codes for u in words_up_to(k, n, reduced=reduced, min_length=min_length)]
            assert got == expected, (k, n, min_length, reduced)
