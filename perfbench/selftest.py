#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Runs small loopfold commands, confirms that every check accepts the genuine
output, then corrupts each output in one way and confirms that the check
rejects it.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Exits 0 when every check accepts every genuine output and rejects every
corrupted one.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from checks import invert
from run import FREE2, OUT_DIR, SRC, Z2, ZXZ, Command, compress_verify, grammar_bound, profile, tc, wp


def run(command: Command, out_file: Path) -> tuple[str, int, str]:
    argv = [a.replace("{out}", str(out_file)) for a in command.argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "loopfold", *argv], env=env, capture_output=True,
                          text=True, cwd=SRC.parent, timeout=120)
    return done.stdout, done.returncode, out_file.read_text(encoding="utf-8") if out_file.exists() else ""


def replace_cell(text: str, row: int, col: int, value) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = str(value)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def cell(text: str, row: int, col: int) -> str:
    return text.splitlines()[row].split(",")[col]


def invert_a_witness(csv: str) -> str:
    """Replace the first nonempty witness by its inverse: same length, and
    not freely equal to its word."""
    row = next(i for i, line in enumerate(csv.splitlines()) if i and line.split(",")[4] != "1")
    return replace_cell(csv, row, 4, invert(cell(csv, row, 4)))


def bump(summary: str, key: str) -> str:
    """Add one to ``key=N`` in a tc summary line."""
    m = re.search(key + r"=(\d+)", summary)
    return summary.replace(m.group(0), f"{key}={int(m.group(1)) + 1}")


def duplicate_origin_edge(dot: str) -> str:
    """Add a fresh vertex reached from the origin by an existing edge label,
    so BFS maps two vertices to the same group element."""
    lines = dot.splitlines()
    count = sum(1 for ln in lines if "shape=" in ln)
    edge = next(ln for ln in lines if ln.strip().startswith("0 -> "))
    label = edge.split('label="')[1][0]
    extra = [f"  {count} [shape=circle];", f'  0 -> {count} [label="{label}"];']
    return "\n".join(lines[:-1] + extra + lines[-1:]) + "\n"


def main() -> int:
    # (name, command, corruptions: description -> (stdout, exit code, file) transform)
    cases = [
        ("profile", profile(Z2, 6, "cyclic:2"), {
            "P off by one": lambda o, c, f: (replace_cell(o, 7, 1, int(cell(o, 7, 1)) + 1), c, f),
            "a d_eq_rhoTC cell flipped": lambda o, c, f: (replace_cell(o, 3, 9, "true"), c, f),
            "exit 0 although d_eq_rhoTC is false": lambda o, c, f: (o, 0, f),
            "a row missing": lambda o, c, f: ("\n".join(o.splitlines()[:-1]) + "\n", c, f),
        }),
        ("profile", profile(FREE2, 4, "free:2"), {
            "f below the longest trivial word": lambda o, c, f: (replace_cell(o, 5, 3, 2), c, f),
        }),
        ("grammar-bound", grammar_bound(Z2, 4, "cyclic:2"), {
            "a witness not freely equal to its word": lambda o, c, f: (invert_a_witness(o), c, f),
            "area off by one": lambda o, c, f: (replace_cell(o, 2, 5, int(cell(o, 2, 5)) + 1), c, f),
            "a trivial word missing": lambda o, c, f: ("\n".join(o.splitlines()[:-1]) + "\n", c, f),
        }),
        ("tc", tc(ZXZ, 6), {
            "two vertices mapped to one group element": lambda o, c, f: (
                bump(o, "vertices"), c, duplicate_origin_edge(f)),
            "an edge relabelled": lambda o, c, f: (o, c, f.replace('label="a"', 'label="b"', 1)),
            "radius off by one": lambda o, c, f: (bump(o, "radius"), c, f),
        }),
        ("compress", compress_verify(Z2, 4), {
            "a nontrivial fused relator": lambda o, c, f: (o.rstrip("\n") + " a\n", c, f),
            "a symmetrized base relator missing": lambda o, c, f: (o.replace(" AA", ""), c, f),
        }),
        ("compress", compress_verify(Z2, 4, ("--budget-len", "2"), expect_exit=3, known_fault=True), {}),
        ("wp", wp(ZXZ, "abAB", 2), {
            "a trivial word rejected": lambda o, c, f: ("not-accepted-at-radius-2\n", 1, f),
        }),
        ("wp", wp(ZXZ, "aab", 2), {
            "a nontrivial word accepted": lambda o, c, f: ("trivial\n", 0, f),
        }),
    ]
    bad = 0
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=OUT_DIR) as tmp:
        for i, (name, command, corruptions) in enumerate(cases):
            stdout, code, out_text = run(command, Path(tmp) / f"out{i}")
            problems = command.problems(stdout, code, out_text)
            label = " ".join(command.argv).replace("{out}", "OUT")
            if command.known_fault:  # exits 0 where a budget failure should exit 3
                verdict = "rejected (known fault)" if problems else "ACCEPTED"
                bad += not problems
            else:
                verdict = "accepted" if not problems else "REJECTED: " + "; ".join(problems)
                bad += bool(problems)
            print(f"{name:13s} genuine output of `{label}`: {verdict}")
            for what, corrupt in corruptions.items():
                problems = command.problems(*corrupt(stdout, code, out_text))
                print(f"{name:13s}   {what}: " + ("rejected: " + problems[0] if problems else "ACCEPTED"))
                bad += not problems
    print("self-test " + ("passed" if bad == 0 else f"FAILED ({bad})"))
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
