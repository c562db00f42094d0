"""Relator fusion and the application-count halving check."""

import pytest

from loopfold.compression import (
    CombinatorialBlowupError,
    compress,
    verify_compression,
)
from loopfold.core import Presentation, parse_presentation, parse_word, render_presentation
from loopfold.rewrite import OracleResult, OracleStatus, RewriteSystem, SearchBudget

Z2 = parse_presentation("gens: a\nrels: aa")
Z3 = parse_presentation("gens: a\nrels: aaa")
LATTICE = parse_presentation("gens: a b\nrels: abAB")

BUDGET = SearchBudget(max_word_length=6)


def words(texts, gens=1):
    return {parse_word(t, gens) for t in texts}


def test_compress_even_cycle():
    c = compress(Z2)
    assert c.m == 2
    assert set(c.symmetrized) == words(["aa", "AA"])
    assert set(c.fused) == words(["aaaa", "AAAA"])
    assert set(c.combined.relators) == words(["aa", "AA", "aaaa", "AAAA"])
    assert render_presentation(c.combined) == "gens: a\nrels: aa AA aaaa AAAA\n"


def test_compress_three_cycle():
    c = compress(Z3)
    assert c.m == 3
    # Triples with mixed signs reduce back to single relators; they stay,
    # as fusion keeps literal reduced products.
    assert set(c.fused) == words(["aaa", "AAA", "aaaaaa", "AAAAAA", "a" * 9, "A" * 9])
    assert set(c.combined.relators) == set(c.fused)


def test_compress_lattice():
    c = compress(LATTICE)
    assert c.m == 4
    assert len(c.symmetrized) == 8
    assert parse_word("abABabAB", 2) in set(c.fused)
    assert set(c.symmetrized) <= set(c.combined.relators)
    cap = sum(8**i for i in range(2, 5))
    assert len(c.combined.relators) <= 8 + cap


def test_compress_single_letter_relator():
    c = compress(Presentation(2, (parse_word("a", 2),)))
    assert c.m == 1
    assert c.fused == ()
    assert set(c.combined.relators) == words(["a", "A"], gens=2)


def test_compress_rejects_empty_relator_set():
    with pytest.raises(ValueError):
        compress(Presentation(2, ()))


def test_compress_blowup_guard():
    with pytest.raises(CombinatorialBlowupError):
        compress(LATTICE, max_products=100)


def test_no_empty_relator_in_combined():
    for p in (Z2, Z3, LATTICE):
        assert all(len(r) > 0 for r in compress(p).combined.relators)


def test_verify_even_cycle_rows():
    report = verify_compression(compress(Z2), 6, BUDGET, RewriteSystem(Z2))
    assert report.triviality_agreement
    assert [r.base_area.value for r in report.rows] == [0, 0, 1, 1, 2, 2, 3]
    assert [r.combined_area.value for r in report.rows] == [0, 0, 1, 1, 1, 1, 2]
    assert [r.bound for r in report.rows] == [0, 1, 2, 2, 3, 4, 5]
    assert all(r.holds for r in report.rows)
    assert report.all_hold


def test_verify_three_cycle_rows():
    report = verify_compression(compress(Z3), 6, BUDGET, RewriteSystem(Z3))
    assert [r.base_area.value for r in report.rows] == [0, 0, 0, 1, 1, 1, 2]
    assert [r.combined_area.value for r in report.rows] == [0, 0, 0, 1, 1, 1, 1]
    assert report.rows[6].bound == 4
    assert report.all_hold


def test_verify_lattice_holds():
    report = verify_compression(compress(LATTICE), 6, BUDGET, RewriteSystem(LATTICE))
    assert report.triviality_agreement
    assert report.all_hold
    assert report.rows[6].base_area == OracleResult(2, OracleStatus.EXACT)
    assert report.rows[6].bound == 4


def test_verify_spot_values_match_oracle():
    # The fused relator a^4 retires a^4 in one application instead of two.
    report = verify_compression(compress(Z2), 4, BUDGET, RewriteSystem(Z2))
    assert report.rows[4].base_area.value == 2
    assert report.rows[4].combined_area.value == 1
    assert report.rows[4].bound == 3


def test_verify_zero_row():
    report = verify_compression(compress(Z3), 0, BUDGET, RewriteSystem(Z3))
    assert report.rows[0].base_area.value == 0
    assert report.rows[0].combined_area.value == 0
    assert report.rows[0].holds is True


def test_verify_refuses_another_presentations_system():
    with pytest.raises(ValueError):
        verify_compression(compress(Z2), 2, BUDGET, RewriteSystem(Z3))
