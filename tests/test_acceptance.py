"""Acceptance gate: the nine primary criteria, one printed verdict line each.

Criterion 2 is implemented faithfully and fails: the snapshot radius of the
first deciding coset-enumeration graph does not coincide with the scan
diameter under the operational definitions in this package (for example
rho=1 vs d=0 at every n for ⟨a; aa⟩, because the first deciding snapshot
always carries at least one edge).  The analysis is in the "Known red
check" section of README.md.
"""

import os
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

from loopfold._kernels import trivial_layers
from loopfold.automata import (
    accepts_reduced,
    build_loop_complex,
    build_tree_nfa,
    canonical_form,
    nfa_accepts,
    restrict_to_radius,
    strip_hairs,
)
from loopfold.bounds import OracleStatus, SearchBudget
from loopfold.compression import compress, verify_compression
from loopfold.core import Presentation, parse_word, reduce_codes, render_word, words_up_to
from loopfold.fillings import (
    ReferenceOracle,
    check_inequalities,
    double_exp_bound,
    measure_isodiametric,
    measure_profile,
)
from loopfold.grammar import (
    build_product_pda,
    generates,
    pda_to_cfg,
    shortest_word,
    simplify_cfg,
    simulate_pda,
)
from loopfold.rewrite import RewriteSystem, min_isoperimetric
from loopfold.toddcoxeter import measure_tc_radius

REPO = Path(__file__).resolve().parent.parent

MATRIX = {
    "z2": (Presentation(1, (parse_word("aa", 1),)), ReferenceOracle.cyclic(2)),
    "z3": (Presentation(1, (parse_word("aaa", 1),)), ReferenceOracle.cyclic(3)),
    "lattice": (Presentation(2, (parse_word("abAB", 2),)), ReferenceOracle.free_abelian(2)),
}


def _report(capsys, name, ok, detail=""):
    with capsys.disabled():
        suffix = f"  ({detail})" if detail else ""
        print(f"\n{name}: {'pass' if ok else 'fail'}{suffix}")
    return ok


@lru_cache(maxsize=None)
def layers(name):
    """The oracle's trivial words of length ≤ 6, laid out once for both scans."""
    p, oracle = MATRIX[name]
    return trivial_layers(oracle.trivial_words(6), 6, p.alphabet_size)


@lru_cache(maxsize=None)
def diameters(name):
    p, _oracle = MATRIX[name]
    column = measure_isodiametric(p, layers(name))
    assert all(result.exact for result in column)
    return [result.value for result in column]


def diameter(name, n):
    return diameters(name)[n]


@lru_cache(maxsize=None)
def tc_snapshots(name):
    p, _oracle = MATRIX[name]
    return measure_tc_radius(p, layers(name))


def tc_snapshot(name, n):
    return tc_snapshots(name)[n]


@lru_cache(maxsize=None)
def profile6(name):
    p, oracle = MATRIX[name]
    profile = measure_profile(RewriteSystem(p), 6, oracle, SearchBudget(max_word_length=6))
    return profile, check_inequalities(profile)


def test_criterion_1_folding_correctness(capsys):
    started = time.monotonic()
    failures = []
    for name, (p, oracle) in MATRIX.items():
        d6 = diameter(name, 6)
        dfas = {
            j: build_loop_complex(p, j)
            for j in sorted({0, 1, 2, d6})
        }
        for w in words_up_to(p.alphabet_size, 6):
            trivial = oracle.decide(w)
            if accepts_reduced(dfas[d6], w) != trivial:
                failures.append((name, d6, w))
            for j in (0, 1, 2):
                if accepts_reduced(dfas[j], w) and not trivial:
                    failures.append((name, j, w))
    elapsed = time.monotonic() - started
    ok = not failures
    assert _report(capsys, "criterion-1", ok, f"{elapsed:.1f}s"), failures[:5]


def test_criterion_2_tc_equality(capsys):
    mismatches = []
    for name, (p, oracle) in MATRIX.items():
        for n in range(7):
            _, rho, pcg = tc_snapshot(name, n)
            d = diameter(name, n)
            lam = strip_hairs(build_loop_complex(p, d))
            same_graph = canonical_form(pcg.graph) == canonical_form(lam)
            if not (same_graph and rho == d):
                mismatches.append((name, n, rho, d, same_graph))
    ok = not mismatches
    assert _report(capsys, "criterion-2", ok), (
        "first deciding snapshot differs from the folded loop complex at the "
        f"scan diameter: (name, n, rho, d, same_graph) = {mismatches}; "
        "see the Known red check section of README.md for the analysis"
    )


def test_criterion_3_cayley_ball_agreement(capsys):
    failures = []
    for name, (p, oracle) in MATRIX.items():
        for n in (0, 2, 4, 6):
            _, _, pcg = tc_snapshot(name, n)
            ball = oracle.cayley_ball(n // 2)
            restricted = restrict_to_radius(pcg.graph, n // 2)
            if canonical_form(restricted) != canonical_form(ball):
                failures.append((name, n))
    ok = not failures
    assert _report(capsys, "criterion-3", ok), failures


def test_criterion_4_compression(capsys):
    budget = SearchBudget(max_word_length=6)
    failures = []
    for name, (p, _) in MATRIX.items():
        report = verify_compression(compress(p), 6, budget, RewriteSystem(p))
        if not report.triviality_agreement:
            failures.append((name, "triviality-agreement"))
        for row in report.rows:
            if not (row.base_area.exact and row.combined_area.exact):
                failures.append((name, row.n, "inexact"))
            elif not row.holds:
                failures.append((name, row.n, row.base_area.value, row.combined_area.value))
    ok = not failures
    assert _report(capsys, "criterion-4", ok), failures


def test_criterion_5_double_exp_pipeline(capsys):
    started = time.monotonic()
    budget = SearchBudget(max_word_length=8)
    failures = []
    checked = 0
    for name in ("z2", "z3"):
        p, oracle = MATRIX[name]
        rs = RewriteSystem(p)
        trees = {}
        for w in words_up_to(p.alphabet_size, 5):
            if not oracle.decide(w):
                continue
            d = diameter(name, len(w))
            if d not in trees:
                trees[d] = build_tree_nfa(p, d)
            tree = trees[d]
            cfg = simplify_cfg(pda_to_cfg(build_product_pda(w, tree)))
            found = shortest_word(cfg)
            if found is None:
                failures.append((name, w, "empty-language"))
                continue
            ell, witness = found
            area = min_isoperimetric(w, rs, budget)
            bound = double_exp_bound(p, len(w), d)
            good = (
                generates(cfg, witness)
                and reduce_codes(witness) == reduce_codes(w)
                and nfa_accepts(tree, witness)
                and area.exact
                and area.value <= ell <= bound
            )
            if not good:
                failures.append((name, w, ell, area, bound))
            checked += 1
    elapsed = time.monotonic() - started
    ok = not failures and checked >= 40
    assert _report(capsys, "criterion-5", ok, f"{checked} words, {elapsed:.1f}s"), failures[:5]


def test_criterion_6_pda_cfg_equivalence(capsys):
    cases = [
        ("z2", "aa"),
        ("z3", "aaa"),
        ("lattice", "abAB"),
    ]
    mismatches = []
    for name, target in cases:
        p, _ = MATRIX[name]
        tree = build_tree_nfa(p, 0)
        pda = build_product_pda(parse_word(target, p.num_generators), tree)
        cfg = simplify_cfg(pda_to_cfg(pda))
        for z in words_up_to(p.alphabet_size, 4):
            if simulate_pda(pda, z) != generates(cfg, z):
                mismatches.append((name, z))
    ok = not mismatches
    assert _report(capsys, "criterion-6", ok), mismatches[:5]


def test_criterion_7_inequality_suite(capsys):
    failures = []
    for name in MATRIX:
        _, report = profile6(name)
        for row in report.rows:
            if row.d_le_half_f is False or row.double_exp is False:
                failures.append((name, row.n))
    ok = not failures
    assert _report(capsys, "criterion-7", ok), failures


def test_criterion_8_oracle_self_consistency(capsys):
    budget = SearchBudget(max_word_length=8)
    pairs = list(MATRIX.items()) + [
        ("free2", (Presentation(2, ()), ReferenceOracle.free(2))),
    ]
    mismatches = []
    for name, (p, oracle) in pairs:
        search = ReferenceOracle.rewrite_search(RewriteSystem(p), budget)
        for w in words_up_to(p.alphabet_size, 8):
            if search.decide(w) != oracle.decide(w):
                mismatches.append((name, w))
    ok = not mismatches
    assert _report(capsys, "criterion-8", ok), mismatches[:5]


def test_criterion_9_determinism(capsys, tmp_path):
    commands = {
        "profile": ["profile", str(REPO / "presentations" / "z2.pres"),
                    "--n", "4", "--oracle", "cyclic:2"],
        "grammar-bound": ["grammar-bound", str(REPO / "presentations" / "z3.pres"),
                          "--n", "3", "--oracle", "cyclic:3"],
    }
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    ok = True
    for label, argv in commands.items():
        outputs = []
        for run in (1, 2):
            target = tmp_path / f"{label}-{run}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "loopfold", *argv, "--csv", str(target)],
                capture_output=True,
                text=True,
                cwd=REPO,
                env={"PYTHONHASHSEED": str(run), "PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath,
                     "PYTHONDONTWRITEBYTECODE": "1"},
            )
            expected = 1 if label == "profile" else 0  # the z2 profile's radius columns disagree
            assert proc.returncode == expected, (label, proc.returncode, proc.stderr)
            outputs.append(target.read_bytes())
        ok = ok and outputs[0] == outputs[1] and len(outputs[0]) > 0
    assert _report(capsys, "criterion-9", ok)
