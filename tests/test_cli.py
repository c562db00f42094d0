"""Command-line behavior: verdict lines, exit codes, golden CSV/DOT output,
and byte-identical reruns."""

import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from loopfold import automata, bounds, cli, compression, grammar, rewrite
from loopfold.cli import UsageError, main
from loopfold.core import InputError, LimitError, ParseError, parse_presentation, parse_word, words_up_to
from loopfold.fillings import ReferenceOracle, double_exp_bound
from loopfold.grammar import BoundReport
from loopfold.rewrite import RewriteSystem

REPO = Path(__file__).resolve().parent.parent
PRES = REPO / "presentations"

Z2 = str(PRES / "z2.pres")
Z3 = str(PRES / "z3.pres")
ZXZ = str(PRES / "zxz.pres")
FREE2 = str(PRES / "free2.pres")


def run_cli(*argv):
    return main(list(argv))


# -- wp -------------------------------------------------------------------------


def test_wp_trivial(capsys):
    assert run_cli("wp", Z2, "aaaa", "--radius", "0") == 0
    assert capsys.readouterr().out == "trivial\n"


def test_wp_negative_verdict(capsys):
    assert run_cli("wp", Z2, "a", "--radius", "2") == 1
    assert capsys.readouterr().out == "not-accepted-at-radius-2\n"


def test_wp_empty_word(capsys):
    assert run_cli("wp", Z2, "", "--radius", "0") == 0
    assert capsys.readouterr().out == "trivial\n"


def test_wp_bad_letter(capsys):
    assert run_cli("wp", Z2, "xy") == 2
    assert "alphabet" in capsys.readouterr().err


def test_wp_missing_file(capsys):
    assert run_cli("wp", str(PRES / "missing.pres"), "a") == 2
    assert "cannot read presentation" in capsys.readouterr().err


def test_wp_presentation_not_utf8(tmp_path, capsys):
    pres = tmp_path / "binary.pres"
    pres.write_bytes(b"\xff")
    assert run_cli("wp", str(pres), "a") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("loopfold: cannot read presentation: ")
    assert captured.err.count("\n") == 1


def test_wp_negative_radius(capsys):
    assert run_cli("wp", Z2, "a", "--radius", "-1") == 2


def test_wp_over_the_memory_ceiling(capsys, monkeypatch):
    monkeypatch.setenv("FILLINGS_MEM_CEILING_MB", "0.006")  # ten folder vertices
    assert run_cli("wp", ZXZ, "baabABAB", "--radius", "3") == 3  # accepted from radius 2 on
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("loopfold: loop complex at radius ")
    assert captured.err.count("\n") == 1 and "FILLINGS_MEM_CEILING_MB" in captured.err


# -- profile ---------------------------------------------------------------------


def test_profile_csv_and_negative_verdict(capsys):
    # the enumeration-radius and snapshot-radius columns disagree here, so the
    # command reports a negative verdict while still writing the full CSV
    assert run_cli("profile", Z2, "--n", "4", "--oracle", "cyclic:2") == 1
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "n,P,P_status,f,f_status,d,rhoTC,d_le_half_f,double_exp,d_eq_rhoTC"
    assert lines[1] == "0,0,Exact,0,Exact,0,1,true,true,false"
    assert lines[4] == "3,1,Exact,2,Exact,0,1,true,true,false"
    assert len(lines) == 6


def test_profile_free_group_passes(capsys):
    assert run_cli("profile", FREE2, "--n", "3", "--oracle", "free:2") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "0,0,Exact,0,Exact,0,0,true,true,true"


def test_profile_writes_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    run_cli("profile", Z2, "--n", "2", "--oracle", "cyclic:2", "--csv", str(target))
    assert capsys.readouterr().out == ""
    assert target.read_text().startswith("n,P,P_status,")


def test_profile_oracle_arity_mismatch(capsys):
    assert run_cli("profile", Z2, "--n", "2", "--oracle", "free-abelian:2") == 2
    assert "generator" in capsys.readouterr().err


def test_profile_unknown_oracle(capsys):
    assert run_cli("profile", Z2, "--n", "2", "--oracle", "dihedral:3") == 2


def test_profile_malformed_oracle(capsys):
    assert run_cli("profile", Z2, "--n", "2", "--oracle", "cyclic") == 2


def test_profile_requires_oracle(capsys):
    assert run_cli("profile", Z2, "--n", "2") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("loopfold: ") and captured.err.count("\n") == 1
    assert "--oracle" in captured.err


def test_profile_bad_budget(capsys):
    assert run_cli("profile", Z2, "--n", "2", "--oracle", "cyclic:2",
                   "--budget-len", "0") == 2


def watch_oracle(monkeypatch):
    """Record each listing the oracle makes, as (method name, length), and
    make any call to ``decide`` raise."""
    listed = []
    for name in ("trivial_words", "reduced_trivial_words"):
        method = getattr(ReferenceOracle, name)
        monkeypatch.setattr(ReferenceOracle, name, lambda self, n, _name=name, _method=method:
                            listed.append((_name, n)) or _method(self, n))
    monkeypatch.setattr(ReferenceOracle, "decide", None)
    return listed


@pytest.mark.parametrize("argv", [
    # each group misses a trivial word: abAB, aa and aaa
    ("profile", ZXZ, "--n", "4", "--oracle", "free:2"),
    ("profile", Z2, "--n", "2", "--oracle", "cyclic:4"),
    ("profile", Z3, "--n", "2", "--oracle", "cyclic:2"),
    ("grammar-bound", Z2, "--n", "2", "--oracle", "cyclic:4"),
])
def test_oracle_whose_group_keeps_a_relator_is_a_usage_error(monkeypatch, capsys, argv):
    listed = watch_oracle(monkeypatch)
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"loopfold: oracle {argv[-1]!r}: its group does not kill every relator\n"
    assert listed == []


@pytest.mark.parametrize("argv", [
    ("profile", Z2, "--n", "2", "--oracle", "free-abelian:2"),
    ("grammar-bound", Z2, "--n", "2", "--oracle", "free:2"),
])
def test_oracle_with_another_generator_count_is_a_usage_error(monkeypatch, capsys, argv):
    listed = watch_oracle(monkeypatch)
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"loopfold: oracle {argv[-1]!r}: different generator counts")
    assert captured.err.count("\n") == 1
    assert listed == []


def test_oracle_of_a_quotient_group_is_accepted(capsys):
    # ℤ² kills every relator of the free group (there are none), so its list
    # holds every trivial word of F2 and more
    assert run_cli("profile", FREE2, "--n", "2", "--oracle", "free-abelian:2") == 0
    assert capsys.readouterr().err == ""


def test_quotient_oracle_stops_the_round_scan_where_d_stops(capsys):
    # ℤ²'s list holds abAB, which no loop complex of F2 nor coset round
    # accepts: both scans stop at graph n, radius 4 and round 5, instead of
    # growing coset rounds of F2 into the memory ceiling
    assert run_cli("profile", FREE2, "--n", "4", "--oracle", "free-abelian:2") == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        "n,P,P_status,f,f_status,d,rhoTC,d_le_half_f,double_exp,d_eq_rhoTC",
        "0,0,Exact,0,Exact,0,0,true,true,true",
        "1,0,Exact,0,Exact,0,0,true,true,true",
        "2,0,Exact,2,Exact,0,0,true,true,true",
        "3,0,Exact,2,Exact,0,0,true,true,true",
        "4,0,LowerBoundOnly,4,LowerBoundOnly,unreached,unreached,skipped,skipped,skipped",
    ]


def test_profile_has_no_round_cap(capsys):
    # the ρ_TC scan's reach is worked out from n; only tc takes --rounds
    assert run_cli("profile", Z2, "--n", "2", "--oracle", "cyclic:2", "--rounds", "2") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("loopfold: ") and captured.err.count("\n") == 1
    assert "unrecognized arguments: --rounds 2" in captured.err


@pytest.mark.parametrize("oracle", ["cyclic:0", "free-abelian:0", "free:0", "rewrite:0"])
def test_profile_bad_oracle_parameter(capsys, oracle):
    assert run_cli("profile", Z2, "--n", "2", "--oracle", oracle) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"loopfold: oracle {oracle!r}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("compress", FREE2),
    ("compress", FREE2, "--verify"),
    ("profile", FREE2, "--n", "2", "--oracle", "free:2", "--verify"),
    ("grammar-bound", FREE2, "--n", "2", "--oracle", "free:2"),
])
def test_relator_free_presentation_is_a_usage_error(capsys, argv):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("loopfold: ")
    assert "at least one relator" in captured.err and captured.err.count("\n") == 1


def test_profile_enumerates_no_word(monkeypatch, capsys):
    # The oracle lists the reduced trivial words once; all four columns read
    # that list, so no module enumerates words, and no word is decided one
    # at a time.
    calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("loopfold.") and getattr(module, "words_up_to", None) is words_up_to:
            def recording(*args, _name=name):
                calls.append(_name)
                return words_up_to(*args)
            monkeypatch.setattr(module, "words_up_to", recording)
    listed = watch_oracle(monkeypatch)
    assert run_cli("profile", Z2, "--n", "4", "--oracle", "cyclic:2") == 1
    capsys.readouterr()
    assert listed == [("reduced_trivial_words", 4)]
    assert calls == []


def test_profile_state_budget_failure(tmp_path, capsys):
    # On ⟨a | a⁴, a⁶⟩, aa has bound ⌈2/6⌉ = 1 and area 2, so no certificate
    # settles it, and 2 orbits cut the cap-8 sweep before it holds aa: P(2)
    # is BudgetExceeded, the CSV is still written in full, and one line
    # names the first such cell.  aaaa is certified at area 1, which P(4)
    # carries
    pres = tmp_path / "a4a6.pres"
    pres.write_text("gens: a\nrels: aaaa aaaaaa\n", encoding="utf-8")
    assert run_cli("profile", str(pres), "--n", "4", "--oracle", "cyclic:2",
                   "--budget-states", "2") == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "n,P,P_status,f,f_status,d,rhoTC,d_le_half_f,double_exp,d_eq_rhoTC",
        "0,0,Exact,0,Exact,0,1,true,true,false",
        "1,0,Exact,0,Exact,0,1,true,true,false",
        "2,0,BudgetExceeded,2,BudgetExceeded,0,1,skipped,skipped,false",
        "3,0,BudgetExceeded,2,BudgetExceeded,0,1,skipped,skipped,false",
        "4,1,BudgetExceeded,4,BudgetExceeded,0,1,skipped,skipped,false",
    ]
    assert captured.err == "loopfold: P at n=2 is BudgetExceeded; raise --budget-states\n"


def test_profile_certifies_the_areas_a_cut_sweep_misses(capsys):
    # 50 orbits cut the sweep at the default length cap 8, which misses
    # aabAAB; its bound-tight derivation proves area 2 and filling length 6
    # with no sweep, so every cell is Exact
    assert run_cli("profile", ZXZ, "--n", "6", "--oracle", "rewrite:6",
                   "--budget-states", "50") == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "n,P,P_status,f,f_status,d,rhoTC,d_le_half_f,double_exp,d_eq_rhoTC",
        "0,0,Exact,0,Exact,0,3,true,true,false",
        "1,0,Exact,0,Exact,0,3,true,true,false",
        "2,0,Exact,2,Exact,0,3,true,true,false",
        "3,0,Exact,2,Exact,0,3,true,true,false",
        "4,1,Exact,4,Exact,2,6,true,true,false",
        "5,1,Exact,4,Exact,2,6,true,true,false",
        "6,2,Exact,6,Exact,3,9,true,true,false",
    ]
    assert captured.err == ""


def test_profile_of_a_free_group_needs_no_full_sweep(capsys):
    # F2's only reduced trivial word is the empty word, which every sweep
    # holds at its bound 0; the unreduced ones have its area 0 and filling
    # length their own length, so 50 orbits give every cell Exact
    assert run_cli("profile", FREE2, "--n", "6", "--oracle", "free:2",
                   "--budget-states", "50") == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[1:] == [
        "0,0,Exact,0,Exact,0,0,true,true,true",
        "1,0,Exact,0,Exact,0,0,true,true,true",
        "2,0,Exact,2,Exact,0,0,true,true,true",
        "3,0,Exact,2,Exact,0,0,true,true,true",
        "4,0,Exact,4,Exact,0,0,true,true,true",
        "5,0,Exact,4,Exact,0,0,true,true,true",
        "6,0,Exact,6,Exact,0,0,true,true,true",
    ]


def test_profile_filling_length_exact_at_a_cut_sweep(capsys):
    # 50 orbits hold the sweeps at caps 0 to 7 but not the one at cap 8.
    # Every listed word up to length 7 has a bound-tight derivation, so P
    # and f are Exact there, the cut sweep notwithstanding.  The oracle
    # lists the words of length 8 from the cut cap-8 sweep, which may miss
    # some, so P(8) and f(8) are BudgetExceeded and their checks skipped;
    # the line names the cut list
    assert run_cli("profile", Z3, "--n", "8", "--oracle", "rewrite:6",
                   "--budget-states", "50") == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == [
        "0,0,Exact,0,Exact,0,1,true,true,false",
        "1,0,Exact,0,Exact,0,1,true,true,false",
        "2,0,Exact,2,Exact,0,1,true,true,false",
        "3,1,Exact,3,Exact,0,1,true,true,false",
        "4,1,Exact,4,Exact,0,1,true,true,false",
        "5,1,Exact,5,Exact,0,1,true,true,false",
        "6,2,Exact,6,Exact,0,1,true,true,false",
        "7,2,Exact,7,Exact,0,1,true,true,false",
        "8,2,BudgetExceeded,8,BudgetExceeded,0,1,skipped,skipped,false",
    ]
    assert captured.err == CUT_LIST


# -- compress ---------------------------------------------------------------------


def test_compress_golden(capsys):
    assert run_cli("compress", Z2) == 0
    assert capsys.readouterr().out == "gens: a\nrels: aa AA aaaa AAAA\n"


def test_compress_verify_passes(capsys):
    assert run_cli("compress", Z2, "--verify") == 0


def test_compress_verify_z3(capsys):
    assert run_cli("compress", Z3, "--verify", "--n", "4") == 0


def test_compress_verify_bad_budget_writes_nothing(capsys):
    assert run_cli("compress", Z2, "--verify", "--budget-len", "0") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "loopfold: budget caps must be positive\n"


def test_compress_verify_negative_depth_writes_nothing(capsys):
    assert run_cli("compress", Z2, "--verify", "--n", "-1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "loopfold: --n must be nonnegative\n"


def test_compress_verify_budget_failure(capsys):
    # --budget-len 2 cannot settle the areas of the words of length 4, so
    # the halving check has no Exact row to judge there
    assert run_cli("compress", Z2, "--verify", "--n", "8", "--budget-len", "2") == 3
    captured = capsys.readouterr()
    assert captured.out == "gens: a\nrels: aa AA aaaa AAAA\n"
    assert "n=4 is not Exact" in captured.err


def test_profile_verify_budget_failure(capsys):
    assert run_cli("profile", Z2, "--n", "6", "--oracle", "cyclic:2", "--verify",
                   "--budget-len", "2") == 3
    assert "n=4 is not Exact" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("profile", ZXZ, "--n", "4", "--oracle", "free-abelian:2", "--verify", "--budget-len", "4"),
    ("profile", Z3, "--n", "6", "--oracle", "rewrite:6"),
])
def test_each_sweep_runs_once_per_command(monkeypatch, capsys, argv):
    # A sweep that runs returns a new Exploration, a cached one the same
    # object; two systems of one presentation would each run their own.
    explore = RewriteSystem.explore
    results = {}

    def recording(self, cap, max_states=2_000_000):
        result = explore(self, cap, max_states)
        results.setdefault((self.presentation, cap, max_states), []).append(result)
        return result

    monkeypatch.setattr(RewriteSystem, "explore", recording)
    assert run_cli(*argv) in (0, 1)
    capsys.readouterr()
    runs = [(len(p.relators), cap, max_states, len({id(r) for r in found}))
            for (p, cap, max_states), found in results.items()]
    assert runs and all(count == 1 for *_, count in runs), runs


def built_rewrite_systems(monkeypatch) -> list[RewriteSystem]:
    """Every rewrite system built from here on, in order."""
    built = []
    init = RewriteSystem.__init__

    def recording(self, presentation):
        built.append(self)
        init(self, presentation)

    monkeypatch.setattr(RewriteSystem, "__init__", recording)
    return built


@pytest.mark.parametrize("argv, count", [
    # each witness's factor count proves its area, so nothing is searched
    (("grammar-bound", Z2, "--n", "7", "--oracle", "cyclic:2"), 0),
    # the oracle's system, which a fallback would search too
    (("grammar-bound", Z3, "--n", "5", "--oracle", "rewrite:6"), 1),
    (("profile", Z2, "--n", "4", "--oracle", "cyclic:2"), 1),
    (("profile", Z3, "--n", "6", "--oracle", "rewrite:6"), 1),
], ids=["grammar-bound", "grammar-bound-rewrite", "profile", "profile-rewrite"])
def test_each_command_builds_a_rewrite_system_only_to_search(monkeypatch, capsys, argv, count):
    built = built_rewrite_systems(monkeypatch)
    assert run_cli(*argv) in (0, 1)
    capsys.readouterr()
    assert len(built) == count


@pytest.mark.parametrize("oracle", ["cyclic:2", "rewrite:6"])
def test_the_area_fallback_searches_one_rewrite_system(tmp_path, monkeypatch, capsys, oracle):
    # on ⟨a | a⁴, a⁶⟩ the ten words freely equal to aa or AA (bound 1,
    # area 2) fall back to the search: of the oracle's system if it
    # searches one, else of one built for the first of them
    pres = tmp_path / "a4a6.pres"
    pres.write_text("gens: a\nrels: aaaa aaaaaa\n", encoding="utf-8")
    built = built_rewrite_systems(monkeypatch)
    searched = []
    measure = rewrite.min_isoperimetric
    monkeypatch.setattr(rewrite, "min_isoperimetric",
                        lambda word, system, budget: searched.append(system) or measure(word, system, budget))
    assert run_cli("grammar-bound", str(pres), "--n", "4", "--oracle", oracle) == 0
    assert "\naa,2,0,10,aaaaaaAAAA,2," in capsys.readouterr().out
    assert len(searched) == 10 and len(built) == 1
    assert all(system is built[0] for system in searched)


def swept_caps(monkeypatch, capsys, argv, exit_codes=(0, 1)) -> set[int]:
    """The caps of the sweeps a command runs; it must exit with one of
    ``exit_codes``."""
    explore = RewriteSystem.explore
    caps = set()

    def recording(self, cap, max_states=2_000_000):
        caps.add(cap)
        return explore(self, cap, max_states)

    monkeypatch.setattr(RewriteSystem, "explore", recording)
    assert run_cli(*argv) in exit_codes
    capsys.readouterr()
    return caps


@pytest.mark.parametrize("argv, wider", [
    # the benchmark's commands: a bound-tight derivation proves every area
    # and filling length, so profile runs no sweep at all
    (("profile", ZXZ, "--n", "8", "--oracle", "free-abelian:2"), set()),
    (("profile", Z3, "--n", "8", "--oracle", "cyclic:3"), set()),
    (("profile", Z2, "--n", "8", "--oracle", "cyclic:2"), set()),
    (("profile", FREE2, "--n", "6", "--oracle", "free:2"), set()),
    # each witness's factor count meets the area bound, so grammar-bound
    # with a closed-form oracle runs no sweep either
    (("grammar-bound", Z2, "--n", "7", "--oracle", "cyclic:2"), set()),
    # the bound comes from the presentation, so the rewrite search gets it
    # too; profile sweeps only at the oracle's cap 6, to list its words
    (("profile", Z3, "--n", "6", "--oracle", "rewrite:6"), set()),
    (("compress", ZXZ, "--verify", "--n", "4", "--budget-len", "4"), set()),
    (("compress", Z2, "--verify", "--n", "8"), set()),
    (("compress", Z3, "--verify", "--n", "8"), set()),
    (("grammar-bound", Z3, "--n", "4"), set()),
])
def test_only_uncertified_areas_sweep_past_the_length_cap(monkeypatch, capsys, argv, wider):
    # the length cap L is --budget-len, 8 by default; a sweep past it is the
    # stop rule's L + 2
    cap = int(argv[argv.index("--budget-len") + 1]) if "--budget-len" in argv else 8
    caps = swept_caps(monkeypatch, capsys, argv)
    if argv[0] == "profile" or "--oracle" in argv:
        oracle = argv[argv.index("--oracle") + 1]
        assert caps == ({int(oracle[len("rewrite:"):])} if oracle.startswith("rewrite:") else set())
    else:
        assert cap in caps and {c for c in caps if c > cap} == wider


@pytest.mark.parametrize("argv, top", [
    # the first row short of Exact is n = 4, and L + 2 = 4
    (("compress", Z2, "--verify", "--n", "8", "--budget-len", "2"), 4),
    (("profile", Z2, "--n", "6", "--oracle", "cyclic:2", "--verify", "--budget-len", "2"), 4),
    # n = 6, and L + 2 = 6: no sweep at caps 7 to 12, which take seconds
    (("compress", ZXZ, "--verify", "--n", "12", "--budget-len", "4"), 6),
])
def test_fusion_check_sweeps_no_cap_past_its_first_row_short_of_exact(monkeypatch, capsys, argv, top):
    # row n reads the keys of the cap-max(L, n) sweep and their areas at
    # caps L and L + 2, so a budget failure at row n sweeps no cap above
    # max(L + 2, n)
    assert max(swept_caps(monkeypatch, capsys, argv, exit_codes=(3,))) <= top


def test_a_bound_short_of_the_area_sweeps_past_the_length_cap(tmp_path, monkeypatch, capsys):
    # on ⟨a | a⁴, a⁶⟩, aa has bound ⌈2/6⌉ = 1 and area 2
    pres = tmp_path / "a4a6.pres"
    pres.write_text("gens: a\nrels: aaaa aaaaaa\n", encoding="utf-8")
    caps = swept_caps(monkeypatch, capsys, ("profile", str(pres), "--n", "2", "--oracle", "cyclic:2"))
    assert {c for c in caps if c > 8} == {10}


def test_profile_areas_certified_under_a_state_budget_that_stops_cap_ten(capsys):
    # 1,000 orbits hold the cap-8 sweep but not the cap-10 one; the bound
    # earns every area at cap 8, so the CSV is the unbudgeted one
    assert run_cli("profile", ZXZ, "--n", "8", "--oracle", "free-abelian:2",
                   "--budget-states", "1000") == 1
    captured = capsys.readouterr()
    assert captured.out == (REPO / "tests" / "golden" / "profile-zxz-n8.csv").read_text(encoding="utf-8")
    assert captured.err == ""


CUT_LIST = ("loopfold: the state budget cut a sweep the oracle lists trivial words from; "
            "raise --budget-states\n")


def test_profile_under_a_cut_search_oracle_earns_every_exact(capsys):
    # aaaa is trivial in ℤ/2 with area 2 (cyclic:2 reads 4,2,Exact), but the
    # cut cap-4 sweep of rewrite:3 holds only "", aA and aa, so its list has
    # no word of length 4 and P(4) reads 1.  The CSV is still written in
    # full, as for a cell that reads BudgetExceeded, but the run is a budget
    # failure: no cell of it counts as a result
    assert run_cli("profile", Z2, "--n", "6", "--oracle", "rewrite:3", "--budget-states", "3") == 3
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 8
    assert captured.err == CUT_LIST


def test_grammar_bound_under_a_cut_search_oracle_is_a_budget_failure(capsys):
    # the same list would leave out every row of length 4 to 6
    assert run_cli("grammar-bound", Z2, "--n", "6", "--oracle", "rewrite:3",
                   "--budget-states", "3") == 3
    assert capsys.readouterr() == ("", CUT_LIST)


@pytest.mark.parametrize("argv, code, golden", [
    (("compress", ZXZ, "--verify", "--n", "4", "--budget-len", "4", "--budget-states", "20"),
     0, "compress-zxz-n4-verify.out"),
    (("compress", Z3, "--verify", "--n", "8", "--budget-states", "100"), 0, None),
    (("profile", Z3, "--n", "6", "--oracle", "rewrite:6", "--budget-states", "100"),
     1, "profile-z3-n6-rewrite6.csv"),
    (("grammar-bound", Z3, "--n", "4", "--budget-states", "100"), 0, "grammar-bound-z3-n4.csv"),
], ids=["compress-zxz", "compress-z3", "profile-z3-rewrite", "grammar-bound-z3"])
def test_areas_certified_under_a_state_budget_that_stops_cap_l_plus_2(capsys, argv, code, golden):
    # the state budget holds the cap-L sweeps but not the cap-L+2 ones, and
    # the presentation's bound earns every area at cap L
    assert run_cli(*argv) == code
    captured = capsys.readouterr()
    if golden is not None:
        assert captured.out == (REPO / "tests" / "golden" / golden).read_text(encoding="utf-8")
    assert captured.err == ""


@pytest.mark.parametrize("argv", [
    ("profile", Z2, "--n", "2", "--oracle", "cyclic:2", "--csv"),
    ("grammar-bound", Z2, "--n", "2", "--csv"),
    ("tc", Z3, "--rounds", "2", "--dot"),
])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.txt"
    assert run_cli(*argv, str(target)) == 2
    out, err = capsys.readouterr()
    assert out == ""  # tc's summary line included
    assert err.startswith("loopfold: cannot write output: ")
    assert err.count("\n") == 1 and str(target) in err


# -- tc ----------------------------------------------------------------------------


def test_tc_summary_and_three_cycle(tmp_path, capsys):
    dot = tmp_path / "z3.dot"
    assert run_cli("tc", Z3, "--rounds", "2", "--dot", str(dot)) == 0
    assert capsys.readouterr().out == "rounds=2 vertices=3 radius=1\n"
    assert dot.read_text() == (
        "digraph G {\n"
        "  rankdir=LR;\n"
        "  0 [shape=doublecircle];\n"
        "  1 [shape=circle];\n"
        "  2 [shape=circle];\n"
        '  0 -> 1 [label="a"];\n'
        '  1 -> 2 [label="a"];\n'
        '  2 -> 0 [label="a"];\n'
        "}\n"
    )


def test_tc_over_the_memory_ceiling(capsys, monkeypatch):
    monkeypatch.setenv("FILLINGS_MEM_CEILING_MB", "0.006")  # ten folder vertices
    assert run_cli("tc", ZXZ, "--rounds", "3") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("loopfold: coset round ")
    assert captured.err.count("\n") == 1 and "FILLINGS_MEM_CEILING_MB" in captured.err


# Round 3 of zxz completes its classes in one batch, from 41 vertices to 69,
# and a loop of that round grows a two-vertex path, to 73 and 74 vertices.
# A ceiling inside either batch names the count that growing one vertex at a
# time stopped at; the messages are those of doing so.
@pytest.mark.parametrize("ceiling, message", [
    ("0.03", "loopfold: coset round 3 needs 51 vertices or more (~0.0 MB), "
             "over the 0.03 MB ceiling (FILLINGS_MEM_CEILING_MB)\n"),
    ("0.04381", "loopfold: coset round 3 needs 74 vertices or more (~0.0 MB), "
                "over the 0.04381 MB ceiling (FILLINGS_MEM_CEILING_MB)\n"),
], ids=["in-completion", "in-a-loop"])
def test_tc_ceiling_inside_a_batch(tmp_path, capsys, monkeypatch, ceiling, message):
    monkeypatch.setenv("FILLINGS_MEM_CEILING_MB", ceiling)
    dot = tmp_path / "zxz.dot"
    assert run_cli("tc", ZXZ, "--rounds", "30", "--dot", str(dot)) == 3
    assert capsys.readouterr() == ("", message)
    assert not dot.exists()


def test_tc_dot_takes_one_breadth_first_pass(tmp_path, capsys, monkeypatch):
    # the radius and the DOT numbering come from one pass, wherever loopfold
    # binds the function
    original, calls = automata.breadth_first, []

    def counting(graph):
        calls.append(graph)
        return original(graph)

    for name, module in list(sys.modules.items()):
        if name == "loopfold" or name.startswith("loopfold."):
            for bound, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, bound, counting)
    assert run_cli("tc", ZXZ, "--rounds", "30", "--dot", str(tmp_path / "zxz.dot")) == 0
    assert capsys.readouterr().out == "rounds=30 vertices=6421 radius=90\n"
    assert len(calls) == 1


@pytest.mark.parametrize("value", ["1GB", "abc", "-1", "nan", "-inf"])
@pytest.mark.parametrize("argv", [("tc", Z3, "--rounds", "2"), ("wp", Z2, "aa", "--radius", "1")])
def test_malformed_memory_ceiling_is_a_usage_error(capsys, monkeypatch, argv, value):
    monkeypatch.setenv("FILLINGS_MEM_CEILING_MB", value)
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("loopfold: FILLINGS_MEM_CEILING_MB ")
    assert captured.err.count("\n") == 1 and repr(value) in captured.err


def test_tc_requires_rounds(capsys):
    assert run_cli("tc", Z3) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("loopfold: ") and captured.err.count("\n") == 1
    assert "--rounds" in captured.err


def test_tc_zero_rounds(capsys):
    assert run_cli("tc", Z3, "--rounds", "0") == 2


# -- grammar-bound ------------------------------------------------------------------


def test_grammar_bound_default_oracle(capsys):
    assert run_cli("grammar-bound", Z2, "--n", "2") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "word,n,d,ell,witness,area,bound,holds"
    assert lines[1] == "1,0,0,0,1,0,0,true"
    assert "aa,2,0,2,aa,1,33554432,true" in lines
    assert len(lines) == 6


def test_grammar_bound_explicit_oracle(tmp_path):
    target = tmp_path / "bound.csv"
    assert run_cli("grammar-bound", Z3, "--n", "3", "--oracle", "cyclic:3",
                   "--csv", str(target)) == 0
    rows = target.read_text().splitlines()
    assert any(row.startswith("aaa,3,0,3,aaa,1,") for row in rows)


def a8a12(tmp_path) -> str:
    """⟨a | a⁸, a¹²⟩ = ℤ/4, where aaaa has area 2 and the relators bound it
    by 1, so no factor count meets the bound and grammar-bound sweeps for
    it (ℤ/2's aaaa is certified by its two factors)."""
    pres = tmp_path / "a8a12.pres"
    pres.write_text("gens: a\nrels: aaaaaaaa aaaaaaaaaaaa\n", encoding="utf-8")
    return str(pres)


def test_grammar_bound_budget_failure(capsys, tmp_path):
    # --budget-len 2 cannot settle the area of aaaa
    assert run_cli("grammar-bound", a8a12(tmp_path), "--n", "4", "--oracle", "cyclic:4",
                   "--budget-len", "2") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "loopfold: area of aaaa is LowerBoundOnly, not Exact; raise --budget-len\n"


@pytest.mark.parametrize("argv, out, err", [
    (("compress", Z3, "--verify", "--n", "4", "--budget-states", "4"),
     "gens: a\nrels: aaa AAA aaaaaa AAAAAA aaaaaaaaa AAAAAAAAA\n",
     "loopfold: fusion check at n=4 is not Exact (base Exact, fused BudgetExceeded); "
     "raise --budget-states\n"),
    (("compress", Z2, "--verify", "--n", "8", "--budget-len", "2"),
     "gens: a\nrels: aa AA aaaa AAAA\n",
     "loopfold: fusion check at n=4 is not Exact (base LowerBoundOnly, fused LowerBoundOnly); "
     "raise --budget-len\n"),
    (("grammar-bound", "a8a12", "--n", "4", "--oracle", "cyclic:4", "--budget-states", "3"),
     "",
     "loopfold: area of aaaa is BudgetExceeded, not Exact; raise --budget-states\n"),
])
def test_budget_failure_names_the_cap_that_stopped_it(capsys, tmp_path, argv, out, err):
    # BudgetExceeded: the state cap stopped a sweep before it held the word
    # (a word it holds at its area bound is Exact); LowerBoundOnly: the
    # length cap left the value unsettled (grammar-bound's LowerBoundOnly
    # message is pinned by test_grammar_bound_budget_failure)
    argv = [a8a12(tmp_path) if arg == "a8a12" else arg for arg in argv]
    assert run_cli(*argv) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


def test_compress_verify_cut_sweeps_that_disagree_decide_nothing(capsys):
    # 15 orbits cut the sweeps of ℤ/3 and of its fused presentation, which
    # then list different trivial words: a budget failure, not a verdict
    assert run_cli("compress", Z3, "--verify", "--n", "6", "--budget-states", "15") == 3
    assert capsys.readouterr().err == (
        "loopfold: the two presentations list different trivial words where the state budget "
        "cut a sweep; raise --budget-states\n"
    )


def test_compress_verify_stops_at_the_first_row_short_of_exact(capsys):
    assert run_cli("compress", ZXZ, "--verify", "--n", "12", "--budget-len", "4") == 3
    captured = capsys.readouterr()
    assert captured.out == (REPO / "tests" / "golden" / "compress-zxz-n4-verify.out").read_text(encoding="utf-8")
    assert captured.err == (
        "loopfold: fusion check at n=6 is not Exact (base LowerBoundOnly, fused LowerBoundOnly); "
        "raise --budget-len\n"
    )


@pytest.mark.parametrize("argv", [
    ("compress", Z2, "--verify", "--n", "3", "--budget-states", "1"),
    ("profile", Z2, "--n", "3", "--oracle", "cyclic:2", "--verify", "--budget-states", "1"),
])
def test_fusion_check_refuses_lists_that_agree_where_the_budget_cut_a_sweep(capsys, argv):
    # one orbit cuts the cap-8 sweeps of ℤ/2 and of its fused presentation
    # at the empty word: both list it alone, so the lists agree and every
    # row reads Exact 0, though aa has area 1
    assert run_cli(*argv) == 3
    assert capsys.readouterr().err == (
        "loopfold: the state budget cut a sweep the fusion check lists trivial words from; "
        "raise --budget-states\n"
    )


def test_grammar_bound_lists_trivial_words_once_and_decides_none(monkeypatch, capsys):
    listed = watch_oracle(monkeypatch)
    assert run_cli("grammar-bound", Z3, "--n", "3", "--oracle", "cyclic:3") == 0
    assert "aaa,3,0,3,aaa,1," in capsys.readouterr().out
    assert listed == [("trivial_words", 3)]


def test_grammar_bound_renders_bounds_past_the_digit_limit(monkeypatch, capsys):
    # the ℤ² row at n = 4, d = 2, without the grammar work behind it
    with open(ZXZ, encoding="utf-8") as handle:
        p = parse_presentation(handle.read())
    word = parse_word("abAB", 2)
    bound = double_exp_bound(p, 4, 2)
    assert bound.bit_length() == 40_963
    report = BoundReport(word, 4, 2, 4, word, 1, True)
    # cli looks the experiment up in its layer's module
    monkeypatch.setattr(grammar, "double_exp_experiment", lambda *args: [report])
    limit = sys.get_int_max_str_digits()
    assert run_cli("grammar-bound", ZXZ, "--n", "4", "--oracle", "free-abelian:2") == 0
    assert sys.get_int_max_str_digits() == limit
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"abAB,4,2,4,abAB,1,{Decimal(bound)},true"


# -- argument parsing --------------------------------------------------------------


def reference_parser():
    """argparse built from ``cli.COMMANDS``: the reference the table's own
    parser is compared to."""
    import argparse

    parser = argparse.ArgumentParser(prog="loopfold")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, positionals, flags) in cli.COMMANDS.items():
        cmd = sub.add_parser(name, help=summary)
        for positional in positionals:
            cmd.add_argument(positional)
        for flag, (kind, default, text) in flags.items():
            if kind is bool:
                cmd.add_argument(flag, action="store_true", help=text)
            elif default is cli.REQUIRED:
                cmd.add_argument(flag, type=kind, required=True, help=text)
            else:
                cmd.add_argument(flag, type=kind, default=default, help=text)
        cmd.set_defaults(handler=handler)
    return parser


PARSED = [
    # the benchmark's commands, its wp words drawn by seed 0
    ("profile", ZXZ, "--n", "8", "--oracle", "free-abelian:2"),
    ("profile", Z3, "--n", "8", "--oracle", "cyclic:3"),
    ("profile", Z2, "--n", "8", "--oracle", "cyclic:2"),
    ("profile", FREE2, "--n", "6", "--oracle", "free:2"),
    ("compress", ZXZ, "--verify", "--n", "4", "--budget-len", "4"),
    ("compress", Z2, "--verify", "--n", "8"),
    ("compress", Z3, "--verify", "--n", "8"),
    ("compress", Z2, "--verify", "--n", "8", "--budget-len", "2"),
    ("grammar-bound", Z2, "--n", "7", "--oracle", "cyclic:2"),
    ("grammar-bound", Z3, "--n", "7", "--oracle", "cyclic:3"),
    ("tc", ZXZ, "--rounds", "30", "--dot", "out.dot"),
    ("tc", Z3, "--rounds", "4", "--dot", "out.dot"),
    ("wp", ZXZ, "abbbbBBBBbABBb", "--radius", "7"),
    ("wp", ZXZ, "aabBabBbABB", "--radius", "7"),
    # README examples
    ("wp", Z2, "aaaa", "--radius", "0"),
    ("profile", Z2, "--n", "4", "--oracle", "cyclic:2", "--csv", "out.csv"),
    ("compress", Z2, "--verify"),
    ("tc", Z3, "--rounds", "2", "--dot", "out.dot"),
    ("grammar-bound", Z2, "--n", "4"),
    ("wp", ZXZ, "abAB", "--radius", "12"),
    ("compress", Z3, "--verify", "--n", "8", "--budget-states", "100"),
    ("profile", ZXZ, "--n", "12", "--budget-len", "12", "--oracle", "free-abelian:2"),
    ("profile", Z2, "--n", "6", "--oracle", "rewrite:3", "--budget-states", "3"),
    ("tc", ZXZ, "--rounds", "90"),
    # --flag=value, flags before the positional, negative values, a
    # repeated flag (the last wins), the empty word
    ("profile", Z2, "--n=4", "--oracle=cyclic:2", "--budget-states=7"),
    ("profile", "--n", "4", "--oracle", "cyclic:2", Z2, "--verify"),
    ("wp", "--radius", "2", Z2, "aa"),
    ("wp", Z2, "--radius", "2", "aa"),
    ("wp", Z2, "a", "--radius", "-1"),
    ("compress", Z2, "--verify", "--n", "-1"),
    ("grammar-bound", Z2, "--n", "3", "--n", "5", "--oracle", "free:1", "--oracle", "cyclic:2"),
    ("wp", Z2, ""),
]


def argv_id(argv) -> str:
    return " ".join(Path(a).stem if a.endswith(".pres") else a or '""' for a in argv) or "no command"


@pytest.mark.parametrize("argv", PARSED, ids=argv_id)
def test_table_parser_reads_what_argparse_reads(argv):
    expected = vars(reference_parser().parse_args(argv))
    handler, args = cli.parse_argv(list(argv))
    assert expected.pop("command") == argv[0]
    assert handler is expected.pop("handler")
    assert vars(args) == expected


MISUSED = [
    (),
    ("dihedral", Z2),
    ("profile", Z2, "--n", "2"),
    ("tc", Z3, "--rounds", "2", "--radius", "1"),
    ("wp", Z2, "aa", "aa"),
    ("profile", Z2, "--n", "x", "--oracle", "cyclic:2"),
    ("profile", Z2, "--oracle", "cyclic:2", "--n"),
    ("profile", Z2, "--n", "--oracle", "cyclic:2"),
    ("compress", Z2, "--verify=1"),
]


@pytest.mark.parametrize("argv", MISUSED, ids=argv_id)
def test_usage_errors_exit_2_where_argparse_does(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        reference_parser().parse_args(argv)
    assert exit_.value.code == 2
    capsys.readouterr()
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("loopfold: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, named", [
    ((), "wp, profile, compress, tc, grammar-bound"),
    (("dihedral", Z2), "'dihedral'"),
    (("grammar-bound", Z2, "--n", "2", "--orac", "cyclic:2"), "unrecognized arguments: --orac cyclic:2"),
    (("tc", Z3), "required: --rounds"),
    (("wp", Z2), "required: word"),
    (("wp", Z2, "aa", "aa"), "unrecognized arguments: aa"),
    (("profile", Z2, "--n", "x", "--oracle", "cyclic:2"), "--n needs an integer, not 'x'"),
    (("profile", Z2, "--oracle", "cyclic:2", "--n"), "--n needs a value"),
    (("profile", Z2, "--n", "--oracle", "cyclic:2"), "--n needs a value"),
    (("compress", Z2, "--verify=1"), "--verify takes no value"),
])
def test_usage_errors_name_the_token_at_fault(capsys, argv, named):
    # no prefix abbreviations: --orac is not --oracle
    assert run_cli(*argv) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("--help",),
    ("-h",),
    *((name, "--help") for name in cli.COMMANDS),
    ("wp", Z2, "aa", "--radius", "1", "-h"),
    ("profile", Z2, "-h", "--n", "x"),
], ids=argv_id)
def test_help_names_every_flag_with_its_default(capsys, argv):
    # help for one command, or for all of them ahead of any command
    commands = list(cli.COMMANDS) if argv[0] in ("-h", "--help") else [argv[0]]
    assert run_cli(*argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    for name, (_handler, _summary, positionals, flags) in cli.COMMANDS.items():
        usage = [line for line in lines if line.startswith(f"usage: loopfold {name} ")]
        assert len(usage) == (name in commands)
        if name not in commands:
            continue
        assert all(p.upper() in usage[0] for p in positionals)
        for flag, (_kind, default, _text) in flags.items():
            line = lines[lines.index(usage[0]) + 2 + list(flags).index(flag)]
            assert line.split()[0] == flag
            assert ("(required)" in line) if default is cli.REQUIRED else ("(default " in line)


def test_help_exits_0_from_a_fresh_process():
    proc = _run_subprocess(["grammar-bound", "--help"], 0)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "--oracle TEXT" in proc.stdout and "(default rewrite:8)" in proc.stdout


# -- whole-process checks ------------------------------------------------------------


def _child_env(seed):
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=pythonpath)


def _run_subprocess(args, seed):
    return subprocess.run(
        [sys.executable, "-m", "loopfold", *args],
        capture_output=True,
        text=True,
        env=_child_env(seed),
        cwd=REPO,
    )


def test_profile_bytes_stable_across_hash_seeds(tmp_path):
    outputs = []
    for seed in (1, 2):
        target = tmp_path / f"profile-{seed}.csv"
        proc = _run_subprocess(
            ["profile", ZXZ, "--n", "3", "--oracle", "free-abelian:2",
             "--csv", str(target)],
            seed,
        )
        assert proc.returncode == 1  # radius columns disagree on this input
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]


def test_grammar_bound_bytes_stable_across_hash_seeds(tmp_path):
    outputs = []
    for seed in (3, 4):
        target = tmp_path / f"bound-{seed}.csv"
        proc = _run_subprocess(
            ["grammar-bound", Z3, "--n", "3", "--oracle", "cyclic:3",
             "--csv", str(target)],
            seed,
        )
        assert proc.returncode == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]


def test_module_entry_point_usage_error():
    proc = _run_subprocess(["wp"], 0)
    assert proc.returncode == 2  # argparse usage error


def test_runs_on_the_standard_library_only():
    script = (
        "import sys\n"
        "class StdlibOnly:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        top = name.partition('.')[0]\n"
        "        if top != 'loopfold' and top not in sys.stdlib_module_names:\n"
        "            raise ImportError(f'{name} is not in the standard library')\n"
        "sys.meta_path.insert(0, StdlibOnly())\n"
        "from loopfold.cli import main\n"
        f"sys.exit(main(['profile', {Z2!r}, '--n', '4', '--oracle', 'cyclic:2']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env(0), cwd=REPO
    )
    assert proc.returncode == 1, proc.stderr  # the z2 profile's radius columns disagree
    assert proc.stdout.startswith("n,P,P_status,f,f_status,d,rhoTC,")


def _run_fresh(script, **env):
    # -S keeps site hooks of the environment out of the check
    return subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True,
        env=dict(_child_env(0), **env), cwd=REPO,
    )


# modules no command imports
WATCHED = ("dataclasses", "inspect", "argparse", "gettext")


def _run_command_fresh(*argv):
    """Runs one command as ``python -m loopfold`` does, in a fresh process,
    and returns the process; the last line of its stdout is the command's
    exit code, the modules among ``WATCHED`` imported before or by the
    command, and the loopfold modules it executed.  ``type()`` of a lazily
    registered layer does not load it."""
    script = (
        "import runpy, sys, types\n"
        "import loopfold.cli\n"
        f"loaded = [m for m in {WATCHED!r} if m in sys.modules]\n"
        f"sys.argv = ['loopfold', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('loopfold', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        f"loaded += [m for m in {WATCHED!r} if m in sys.modules]\n"
        "executed = [n for n, m in sys.modules.items()\n"
        "            if n.startswith('loopfold.') and type(m) is types.ModuleType]\n"
        "print(code, sorted(set(loaded)), sorted(executed))\n"
    )
    proc = _run_fresh(script)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_start_up_imports_none_of_dataclasses_inspect_argparse_gettext():
    # dataclasses and inspect cost about 30 ms of every command's start-up,
    # argparse and gettext about 4 ms
    out = _run_command_fresh("wp", Z2, "aaaa").stdout
    assert out.startswith("trivial\n0 [] ")


LAYERS = {"_kernels", "automata", "bounds", "compression", "fillings", "grammar", "rewrite", "toddcoxeter"}


# ⟨a,b | abaBAB⟩, whose fused relators would take 3,257,424 relator tuples
BLOWUP = "gens: a b\nrels: abaBAB\n"


@pytest.mark.parametrize("argv, code, layers, err", [
    (("wp", ZXZ, "abAB", "--radius", "2"), 0, {"automata"}, ""),
    (("tc", ZXZ, "--rounds", "3"), 0, {"automata", "toddcoxeter"}, ""),
    (("profile", Z2, "--n", "4", "--oracle", "cyclic:2"), 1, LAYERS - {"compression", "grammar"}, ""),
    (("compress", Z2), 0, {"compression"}, ""),
    (("compress", Z2, "--verify", "--n", "3"), 0, {"bounds", "compression", "rewrite"}, ""),
    # a budget failure exits 3 and reads no class of a layer the command did not run
    (("compress", Z2, "--verify", "--n", "8", "--budget-len", "2"), 3,
     {"bounds", "compression", "rewrite"},
     "loopfold: fusion check at n=4 is not Exact (base LowerBoundOnly, fused LowerBoundOnly); "
     "raise --budget-len\n"),
    # the product cap exits 3 before anything is written or searched
    (("compress", BLOWUP), 3, {"compression"},
     "loopfold: 3257424 relator tuples exceed the cap of 200000\n"),
    # a closed-form oracle's areas are all proved by the witnesses' factor counts
    (("grammar-bound", Z2, "--n", "7", "--oracle", "cyclic:2"), 0,
     LAYERS - {"compression", "rewrite", "toddcoxeter"}, ""),
    (("grammar-bound", Z2, "--n", "2", "--oracle", "rewrite:4"), 0,
     LAYERS - {"compression", "toddcoxeter"}, ""),
], ids=["wp", "tc", "profile", "compress", "compress-verify", "compress-verify-budget",
        "compress-product-cap", "grammar-bound", "grammar-bound-rewrite"])
def test_each_command_executes_only_the_layers_it_calls(tmp_path, argv, code, layers, err):
    # every command compiles cli and core; each layer it never calls stays
    # registered but is neither compiled nor run
    if argv[1].startswith("gens:"):  # a presentation given as text is read from a file
        path = tmp_path / "given.pres"
        path.write_text(argv[1], encoding="utf-8")
        argv = (argv[0], str(path), *argv[2:])
    proc = _run_command_fresh(*argv)
    executed = {f"loopfold.{name}" for name in layers | {"cli", "core"}}
    assert proc.stdout.splitlines()[-1] == f"{code} [] {sorted(executed)}"
    assert proc.stderr == err


def test_layers_are_registered_lazily_and_load_on_first_use():
    script = (
        "import sys, types\n"
        "import loopfold.cli\n"
        f"layers = {sorted(LAYERS)!r}\n"
        "modules = [sys.modules.get('loopfold.' + name) for name in layers]\n"
        "print(None not in modules, [type(m) is types.ModuleType for m in modules])\n"
        "from loopfold.grammar import double_exp_experiment\n"
        "print(type(sys.modules['loopfold.grammar']) is types.ModuleType, double_exp_experiment.__name__)\n"
        "import loopfold\n"
        "print(loopfold.rewrite.RewriteSystem.__name__)\n"
    )
    proc = _run_fresh(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        f"True {[False] * len(LAYERS)}\nTrue double_exp_experiment\nRewriteSystem\n"
    )


def test_exit_codes_come_from_two_core_base_classes():
    # main maps InputError to exit 2 and LimitError to exit 3; each error
    # class keeps its builtin base
    for cls in (UsageError, ParseError, automata.CeilingSettingError):
        assert issubclass(cls, InputError) and issubclass(cls, ValueError), cls
    for cls, builtin in ((automata.MemoryCeilingError, MemoryError), (bounds.BudgetFailure, RuntimeError),
                         (compression.CombinatorialBlowupError, RuntimeError)):
        assert issubclass(cls, LimitError) and issubclass(cls, builtin), cls
    assert not issubclass(LimitError, ValueError)


def test_error_exit_resolves_its_exception_classes_lazily():
    # main catches the two base classes of core, so it names no class of a
    # layer that wp never loads
    script = (
        "import sys\n"
        "from loopfold.cli import main\n"
        f"sys.exit(main(['wp', {ZXZ!r}, 'baabABAB', '--radius', '3']))\n"
    )
    proc = _run_fresh(script, FILLINGS_MEM_CEILING_MB="0.006")  # ten folder vertices
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("loopfold: loop complex at radius ")
    assert proc.stderr.count("\n") == 1 and "FILLINGS_MEM_CEILING_MB" in proc.stderr
