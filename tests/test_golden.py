"""Whole-command golden outputs: each command's CSV and exit code, byte for
byte, for the four sample presentations; the summary line and DOT snapshot
of the benchmark's ``tc`` commands; and the fused presentation that the
benchmark's heaviest ``compress --verify`` prints.  The files under
``golden/`` were written by the command lines below; regenerate one with
``PYTHONPATH=src python -m loopfold <args> > tests/golden/<name>.csv``
(``.out`` for the ``compress`` case), or for a ``tc`` case with
``PYTHONPATH=src python -m loopfold <args> --dot tests/golden/<name>.dot >
tests/golden/<name>.out``.  Outputs too large to keep are pinned by the
sha256 of their stdout (``... | sha256sum``)."""

import hashlib
from pathlib import Path

import pytest

from loopfold.cli import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "profile-z2-n6": ("profile presentations/z2.pres --n 6 --oracle cyclic:2", 1),
    "profile-z3-n6": ("profile presentations/z3.pres --n 6 --oracle cyclic:3", 1),
    "profile-free2-n6": ("profile presentations/free2.pres --n 6 --oracle free:2", 0),
    "profile-zxz-n5": ("profile presentations/zxz.pres --n 5 --oracle free-abelian:2", 1),
    # two rounds decide n ≤ 5 only, so n = 6 is unreached/BudgetExceeded
    "profile-zxz-n6-rounds2": (
        "profile presentations/zxz.pres --n 6 --oracle free-abelian:2 --rounds 2", 1),
    "profile-z3-n6-rewrite6": ("profile presentations/z3.pres --n 6 --oracle rewrite:6", 1),
    # the benchmark's profile commands; n = 8 on ℤ² runs the cap-10 sweep
    "profile-zxz-n8": ("profile presentations/zxz.pres --n 8 --oracle free-abelian:2", 1),
    "profile-z3-n8": ("profile presentations/z3.pres --n 8 --oracle cyclic:3", 1),
    "profile-z2-n8": ("profile presentations/z2.pres --n 8 --oracle cyclic:2", 1),
    # ℤ/4 does not kill the relator aa, so no area bound: the stop rule
    # earns every Exact
    "profile-z2-n8-cyclic4": ("profile presentations/z2.pres --n 8 --oracle cyclic:4", 1),
    "grammar-bound-z3-n4": ("grammar-bound presentations/z3.pres --n 4", 0),
    # the benchmark's grammar-bound commands; the witness among equally short
    # words depends on the rule set and its order
    "grammar-bound-z2-n7": ("grammar-bound presentations/z2.pres --n 7 --oracle cyclic:2", 0),
    "grammar-bound-z3-n7": ("grammar-bound presentations/z3.pres --n 7 --oracle cyclic:3", 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys, monkeypatch):
    command, exit_code = CASES[name]
    monkeypatch.chdir(REPO)
    assert main(command.split()) == exit_code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")


def test_golden_compress_output(capsys, monkeypatch):
    # the benchmark's heaviest fusion check: stdout is the fused presentation
    # (3,200 relators), and every row of the halving check holds
    monkeypatch.chdir(REPO)
    assert main("compress presentations/zxz.pres --verify --n 4 --budget-len 4".split()) == 0
    golden = GOLDEN / "compress-zxz-n4-verify.out"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_golden_compress_conjugate_digest(capsys, tmp_path):
    # abA conjugates b, so its rotations and the products' seams reduce; the
    # 5,796-byte fused presentation is pinned by its digest
    pres = tmp_path / "conjugate.pres"
    pres.write_text("gens: a b\nrels: aab abA\n", encoding="utf-8")
    assert main(["compress", str(pres)]) == 0
    digest = "5e3f45c067bd137f157981d2a0b7ff2339e506e4b312855e48c6faea17670426"
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# the benchmark's coset saturation commands; the DOT goes through the
# canonical renumbering, so it pins the folded snapshot up to isomorphism
TC_CASES = {
    "tc-zxz-r30": "tc presentations/zxz.pres --rounds 30",
    "tc-z3-r4": "tc presentations/z3.pres --rounds 4",
}


# two generators: the witness among equally short words depends on the rule
# order most here; the 445,041-byte CSV is pinned by its digest.  The ℤ²
# profile at n = 10 was pinned while its Exact cells still came from the
# caps 10 and 12 agreeing; the area bound now earns them at cap 10 alone.
DIGEST_CASES = {
    "grammar-bound presentations/zxz.pres --n 4 --oracle free-abelian:2": (
        "04f58fba6ccbb6a92cdf540efb9d89168913bd1aa6fba6c798be8799c8006d05", 0),
    "profile presentations/zxz.pres --n 10 --budget-len 10 --oracle free-abelian:2": (
        "f07a22655443ba6f928b89f3e07aa7eb1c49b9ecf7ec08ba8182baf68222e07e", 1),
}


@pytest.mark.parametrize("command", sorted(DIGEST_CASES))
def test_golden_output_digest(command, capsys, monkeypatch):
    digest, exit_code = DIGEST_CASES[command]
    monkeypatch.chdir(REPO)
    assert main(command.split()) == exit_code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sixty rounds, where a round leaves most of the graph unchecked as settled;
# the 2,070,818-byte DOT is pinned by its digest
TC_DIGEST_CASES = {
    "tc presentations/zxz.pres --rounds 60": (
        "rounds=60 vertices=25441 radius=180\n",
        "1732f6d257462443364b18a002f14791a21a2a68061d66691173eb10d6afd58f"),
}


@pytest.mark.parametrize("command", sorted(TC_DIGEST_CASES))
def test_golden_tc_output_digest(command, capsys, monkeypatch, tmp_path):
    summary, digest = TC_DIGEST_CASES[command]
    monkeypatch.chdir(REPO)
    dot = tmp_path / "out.dot"
    assert main(command.split() + ["--dot", str(dot)]) == 0
    assert capsys.readouterr().out == summary
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(TC_CASES))
def test_golden_tc_output(name, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(REPO)
    dot = tmp_path / f"{name}.dot"
    assert main(TC_CASES[name].split() + ["--dot", str(dot)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert dot.read_text(encoding="utf-8") == (GOLDEN / f"{name}.dot").read_text(encoding="utf-8")
