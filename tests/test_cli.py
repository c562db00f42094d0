"""Command-line behavior: verdict lines, exit codes, golden CSV/DOT output,
and byte-identical reruns."""

import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from loopfold import cli
from loopfold.cli import main
from loopfold.core import parse_presentation, parse_word, words_up_to
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


def test_wp_negative_radius(capsys):
    assert run_cli("wp", Z2, "a", "--radius", "-1") == 2


def test_wp_over_the_memory_ceiling(capsys, monkeypatch):
    monkeypatch.setenv("FILLINGS_MEM_CEILING_MB", "0.006")  # ten folder vertices
    assert run_cli("wp", ZXZ, "abAB", "--radius", "3") == 3
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


def test_profile_requires_oracle():
    with pytest.raises(SystemExit) as err:
        run_cli("profile", Z2, "--n", "2")
    assert err.value.code == 2


def test_profile_bad_budget(capsys):
    assert run_cli("profile", Z2, "--n", "2", "--oracle", "cyclic:2",
                   "--budget-len", "0") == 2


def test_profile_rounds_must_be_positive(capsys):
    for rounds in ("0", "-3"):
        assert run_cli("profile", Z2, "--n", "2", "--oracle", "cyclic:2",
                       "--rounds", rounds) == 2
        captured = capsys.readouterr()
        assert "--rounds must be at least 1" in captured.err
        assert captured.out == ""


def watch_oracle(monkeypatch):
    """Record the lengths the oracle lists trivial words for, and make any
    call to ``decide`` raise."""
    trivial_words = ReferenceOracle.trivial_words
    listed = []
    monkeypatch.setattr(ReferenceOracle, "trivial_words",
                        lambda self, n: listed.append(n) or trivial_words(self, n))
    monkeypatch.setattr(ReferenceOracle, "decide", None)
    return listed


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


def test_profile_enumerates_reduced_words_once(monkeypatch, capsys):
    # The oracle lists the trivial words once; only the coset-saturation
    # scan, which must also see the non-trivial words, enumerates reduced
    # words, and no word is decided one at a time.
    calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("loopfold.") and getattr(module, "words_up_to", None) is words_up_to:
            def recording(*args, _name=name, **kwargs):
                calls.append((_name, kwargs.get("reduced")))
                return words_up_to(*args, **kwargs)
            monkeypatch.setattr(module, "words_up_to", recording)
    listed = watch_oracle(monkeypatch)
    assert run_cli("profile", Z2, "--n", "4", "--oracle", "cyclic:2") == 1
    capsys.readouterr()
    assert listed == [4]
    assert calls == [("loopfold.toddcoxeter", True)]


def test_profile_state_budget_failure(capsys):
    # 50 orbits stop every sweep, so every P cell is BudgetExceeded; the CSV
    # is still written in full
    assert run_cli("profile", FREE2, "--n", "6", "--oracle", "free:2",
                   "--budget-states", "50") == 3
    captured = capsys.readouterr()
    rows = captured.out.splitlines()
    assert len(rows) == 8
    assert all(row.split(",")[2] == "BudgetExceeded" for row in rows[1:])
    assert captured.err == "loopfold: P at n=0 is BudgetExceeded; raise --budget-states\n"


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


@pytest.mark.parametrize("value", ["1GB", "abc", "-1", "nan", "-inf"])
@pytest.mark.parametrize("argv", [("tc", Z3, "--rounds", "2"), ("wp", Z2, "aa", "--radius", "1")])
def test_malformed_memory_ceiling_is_a_usage_error(capsys, monkeypatch, argv, value):
    monkeypatch.setenv("FILLINGS_MEM_CEILING_MB", value)
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("loopfold: FILLINGS_MEM_CEILING_MB ")
    assert captured.err.count("\n") == 1 and repr(value) in captured.err


def test_tc_requires_rounds():
    with pytest.raises(SystemExit):
        run_cli("tc", Z3)


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


def test_grammar_bound_budget_failure(capsys):
    # --budget-len 2 cannot settle the area of aaaa
    assert run_cli("grammar-bound", Z2, "--n", "4", "--oracle", "cyclic:2",
                   "--budget-len", "2") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "loopfold: area of aaaa is LowerBoundOnly, not Exact; raise --budget-len\n"


def test_grammar_bound_lists_trivial_words_once_and_decides_none(monkeypatch, capsys):
    listed = watch_oracle(monkeypatch)
    assert run_cli("grammar-bound", Z3, "--n", "3", "--oracle", "cyclic:3") == 0
    assert "aaa,3,0,3,aaa,1," in capsys.readouterr().out
    assert listed == [3]


def test_grammar_bound_renders_bounds_past_the_digit_limit(monkeypatch, capsys):
    # the ℤ² row at n = 4, d = 2, without the grammar work behind it
    with open(ZXZ, encoding="utf-8") as handle:
        p = parse_presentation(handle.read())
    word = parse_word("abAB", 2)
    bound = double_exp_bound(p, 4, 2)
    assert bound.bit_length() == 40_963
    report = BoundReport(word, 4, 2, 4, word, 1, 160, 16, bound)
    monkeypatch.setattr(cli, "double_exp_experiment", lambda *args: [report])
    limit = sys.get_int_max_str_digits()
    assert run_cli("grammar-bound", ZXZ, "--n", "4", "--oracle", "free-abelian:2") == 0
    assert sys.get_int_max_str_digits() == limit
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"abAB,4,2,4,abAB,1,{Decimal(bound)},true"


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
