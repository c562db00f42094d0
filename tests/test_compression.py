"""Relator fusion and the application-count halving check."""

import itertools

import pytest

from loopfold import compression, rewrite
from loopfold.bounds import OracleResult, OracleStatus, SearchBudget, prefix_maxima
from loopfold.compression import (
    CombinatorialBlowupError,
    CompressionReport,
    CompressionRow,
    compress,
    verify_compression,
)
from loopfold.core import Presentation, parse_presentation, parse_word, reduce_codes, render_presentation, words_up_to
from loopfold.rewrite import RewriteSystem, is_trivial, min_isoperimetric

Z2 = parse_presentation("gens: a\nrels: aa")
Z3 = parse_presentation("gens: a\nrels: aaa")
LATTICE = parse_presentation("gens: a b\nrels: abAB")
POWERS = parse_presentation("gens: a\nrels: aaaa aaaaaa")
# abA is a conjugate of b, not cyclically reduced
CONJUGATE = parse_presentation("gens: a b\nrels: aab abA")

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


def test_compress_blowup_guard(monkeypatch):
    monkeypatch.setattr(compression, "DEFAULT_PRODUCT_CAP", 100)
    with pytest.raises(CombinatorialBlowupError):
        compress(LATTICE)


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


BS12 = parse_presentation("gens: a b\nrels: abABB")  # Baumslag–Solitar BS(1, 2)


@pytest.mark.parametrize("p, n_max", [(Z2, 6), (Z3, 6), (LATTICE, 4), (BS12, 4)],
                         ids=["z2", "z3", "lattice", "bs12"])
def test_fusion_halves_every_word(p, n_max, monkeypatch):
    # area'(w) ≤ ⌈(area(w) + |w|)/2⌉ word by word, read off the sweeps the
    # per-n check runs: it measures each trivial word once per system
    base_system = RewriteSystem(p)
    areas = {}

    def measured(w, system, budget):
        result = min_isoperimetric(w, system, budget)
        areas.setdefault(w, {})[system is base_system] = result
        return result

    monkeypatch.setattr(rewrite, "min_isoperimetric", measured)
    budget = SearchBudget(max_word_length=n_max)
    assert verify_compression(compress(p), n_max, budget, base_system).all_hold
    assert areas
    for w, by_system in areas.items():
        base, combined = by_system[True], by_system[False]
        assert base.exact and combined.exact, w
        assert combined.value <= (base.value + len(w) + 1) // 2, w


def test_verify_cut_sweeps_leave_unequal_lists_undecided():
    # 15 orbits cut the sweeps of both systems, whose trivial-word lists
    # then differ: that refutes nothing
    report = verify_compression(compress(Z3), 6, SearchBudget(max_states=15), RewriteSystem(Z3))
    assert report.triviality_agreement is None
    assert not report.all_hold


def test_all_hold_is_false_when_the_agreement_is_undecided():
    report = verify_compression(compress(Z3), 6, SearchBudget(max_states=15), RewriteSystem(Z3))
    assert report.triviality_agreement is None
    assert report.all_hold is False


def test_prefix_maxima_takes_each_layer_only_when_its_entry_is_wanted():
    taken = []

    def layers():
        for k in (0, 1, 2):
            taken.append(k)
            yield [bytes(k), bytes(k)]

    exact = OracleStatus.EXACT
    column = prefix_maxima(layers(), 4, lambda w: OracleResult(len(w), exact))
    assert next(column) == OracleResult(0, exact) and taken == [0]
    assert next(column) == OracleResult(1, exact) and taken == [0, 1]
    # the layers end early: the later ones are empty
    assert list(column) == [OracleResult(2, exact)] * 3 and taken == [0, 1, 2]


def test_prefix_maxima_lays_flat_words_out_by_length():
    results = {b"": OracleResult(0, OracleStatus.EXACT),
               b"\x00\x00": OracleResult(3, OracleStatus.LOWER_BOUND_ONLY),
               b"\x01\x01": OracleResult(None, OracleStatus.BUDGET_EXCEEDED),
               b"\x00": OracleResult(1, OracleStatus.EXACT)}
    flat = list(prefix_maxima(results, 3, results.__getitem__))
    layered = list(prefix_maxima([[b""], [b"\x00"], [b"\x00\x00", b"\x01\x01"]], 3, results.__getitem__))
    assert flat == layered == [
        OracleResult(0, OracleStatus.EXACT),
        OracleResult(1, OracleStatus.EXACT),
        OracleResult(3, OracleStatus.BUDGET_EXCEEDED),
        OracleResult(3, OracleStatus.BUDGET_EXCEEDED),
    ]
    assert list(prefix_maxima([], 1, results.__getitem__)) == [OracleResult(0, OracleStatus.EXACT)] * 2


KLEIN = parse_presentation("gens: a b\nrels: abAb")


@pytest.mark.parametrize("p, n_max, budget", [
    (Z2, 6, BUDGET), (Z3, 6, BUDGET), (LATTICE, 4, SearchBudget(max_word_length=4)),
    (CONJUGATE, 4, SearchBudget(max_word_length=4)), (KLEIN, 4, SearchBudget(max_word_length=4)),
    (Z3, 6, SearchBudget(max_states=15)), (LATTICE, 4, SearchBudget(4, max_states=15)),
    (POWERS, 5, SearchBudget(3, max_states=15)),
], ids=["z2", "z3", "lattice", "conjugate", "klein", "z3-cut", "lattice-cut", "powers-cut"])
def test_verify_equals_the_searched_path(p, n_max, budget):
    # the reference decides every word of length ≤ n_max on its own, in a
    # combined system that searches its own symmetries and area bound, and
    # measures the area of every trivial word rather than one per orbit
    c = compress(p)
    report = verify_compression(c, n_max, budget, RewriteSystem(p))
    base, combined = RewriteSystem(p), RewriteSystem(c.combined)

    def decided(system):
        return [u for u in words_up_to(2 * p.num_generators, n_max) if is_trivial(u, system, budget)[0]]

    trivial = decided(base)
    agreement = trivial == decided(combined)
    if not agreement and any(not system.explore(max(budget.max_word_length, n), budget.max_states).complete
                             for system in (base, combined) for n in range(n_max + 1)):
        agreement = None

    def areas(system):
        return prefix_maxima(trivial, n_max, lambda u: min_isoperimetric(u, system, budget))

    rows = []
    for n, (base_area, combined_area) in enumerate(zip(areas(base), areas(combined))):
        bound = (base_area.value + n + 1) // 2 if base_area.exact else None
        holds = combined_area.value <= bound if base_area.exact and combined_area.exact else None
        rows.append(CompressionRow(n, base_area, combined_area, bound, holds))
    assert report == CompressionReport(tuple(rows), agreement)


def test_verify_refuses_another_presentations_system():
    with pytest.raises(ValueError):
        verify_compression(compress(Z2), 2, BUDGET, RewriteSystem(Z3))


def fused_by_definition(p):
    """The reduced products of 2..m symmetrized relators, tuple by tuple,
    each reduced letter by letter, with the tuple count the cap is read
    against."""
    symmetrized = p.symmetrized().relators
    m = p.max_relator_length
    fused = set()
    for i in range(2, m + 1):
        for combo in itertools.product(symmetrized, repeat=i):
            product = reduce_codes(b"".join(combo))
            if len(product) > 0:
                fused.add(product)
    ordered = tuple(sorted(fused, key=lambda u: (len(u), u)))
    total = sum(len(symmetrized) ** i for i in range(2, m + 1))
    return ordered, Presentation(p.num_generators, symmetrized + ordered), total


@pytest.mark.parametrize("p", [Z2, Z3, LATTICE, POWERS, CONJUGATE],
                         ids=["z2", "z3", "lattice", "powers", "conjugate"])
def test_fusion_equals_its_definition(p, monkeypatch):
    fused, combined, total = fused_by_definition(p)
    c = compress(p)
    assert c.fused == fused
    assert c.combined == combined
    monkeypatch.setattr(compression, "DEFAULT_PRODUCT_CAP", total - 1)
    with pytest.raises(CombinatorialBlowupError):
        compress(p)
    monkeypatch.setattr(compression, "DEFAULT_PRODUCT_CAP", total)
    assert compress(p).fused == fused
