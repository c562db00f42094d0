"""Pins of the folded graphs: sha256 digests of (vertex count, origin,
out-edges, in-edges) of every loop complex Λ_j and every coset round.  A
folded graph is its successor table, so this record is the whole graph.
The pins were re-derived when graphs stopped keeping face records, on the
last code that kept them; that code still matched the earlier pins, which
came from the whole-graph fold that the online folder replaced.  Vertex
numbering is part of the digest, so the online folder must number classes
exactly as that fold did."""

import hashlib
import itertools
from pathlib import Path

import pytest

from loopfold.automata import Folder, build_loop_complex, loop_complexes
from loopfold.core import parse_presentation
from loopfold.toddcoxeter import coset_rounds

PRESENTATIONS = Path(__file__).resolve().parent.parent / "presentations"

# Λ_0, Λ_1, ... of each presentation, then the graph after round 1, 2, ...
PINS = {
    "loop-zxz": [
        "89f3bff4742d626c", "791bd93fe3ee3c50", "44e02d8dd71b5afe", "3c8c54c5bcedbe6f",
        "81276d2a14df5baa", "8efca68553fe204c", "90fc784025f4e235", "b4deca6bc7d828f1",
    ],
    "loop-z2": [
        "6f7e76796430f43f", "6f7e76796430f43f", "6f7e76796430f43f", "6f7e76796430f43f",
        "6f7e76796430f43f", "6f7e76796430f43f",
    ],
    "loop-z3": [
        "65652abe051d5195", "65652abe051d5195", "65652abe051d5195", "65652abe051d5195",
        "65652abe051d5195", "65652abe051d5195",
    ],
    "tc-zxz": [
        "6907973e8c8afcaf", "793305ba398f7e20", "53669f2618286463", "b6964f6aaba21396",
        "a7bb832ce9859c2b", "e95e2c4802a1aa7d", "81fbbed8df9f3035", "ecf58bcf5ab79eb1",
        "94e1a1fee08ab4bb", "119e614799104b17", "cc3fc932202a7607", "4e32d8df0de4a6d5",
        "3a5fb2daec6f7890", "44042d265a77336b", "c6734c312267114d", "7c4d191056e358af",
        "7db15469429595e8", "22badfd4a4c06623", "a912b8da0b2deaef", "68dec8cd3ce6c877",
        "f55e2e7022b73756", "98a66c19c316b5d3", "2cd32deb3b174639", "420f3d4a1f46a91f",
        "7613f35cd75c6ada", "8147a924464108ee", "84d3c1a8bd2bf585", "368493f588711e9d",
        "baaafdb037503dd3", "c769fe789d5b3562",
    ],
    "tc-free2": [
        "dac665d2468ac5a2", "47e8bbae49aa2f59", "82e32e97dd728094", "fb7de7483b471d65",
    ],
}


def digest(g):
    """The record of the pins, read off the successor lists: per vertex its
    out-edges from the even rows and its in-edges from the odd rows."""
    def adjacency(parity):
        rows = g.delta[parity::2]
        return tuple(
            tuple((gen, (row[v],)) for gen, row in enumerate(rows) if row[v] >= 0)
            for v in range(g.num_vertices)
        )
    record = (g.num_vertices, g.origin, adjacency(0), adjacency(1))
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


def presentation(name):
    return parse_presentation((PRESENTATIONS / f"{name}.pres").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["zxz", "z2", "z3"])
def test_loop_complexes_match_pins(name):
    p = presentation(name)
    pins = PINS[f"loop-{name}"]
    assert [digest(build_loop_complex(p, j)) for j in range(len(pins))] == pins


@pytest.mark.parametrize("name", ["zxz", "z2", "z3"])
def test_scanner_growth_equals_a_build_from_scratch(name):
    p = presentation(name)
    pins = PINS[f"loop-{name}"]
    grown = [digest(folder.snapshot()) for folder in itertools.islice(loop_complexes(p), len(pins))]
    assert grown == [digest(build_loop_complex(p, j)) for j in range(len(pins))] == pins


def test_loop_complex_build_snapshots_only_its_radius(monkeypatch):
    # loop_complexes yields the live folder; Λ_7 alone is snapshotted
    snapshot, taken = Folder.snapshot, []
    monkeypatch.setattr(Folder, "snapshot", lambda folder: taken.append(folder) or snapshot(folder))
    assert digest(build_loop_complex(presentation("zxz"), 7)) == PINS["loop-zxz"][7]
    assert len(taken) == 1


@pytest.mark.parametrize("name", ["zxz", "free2"])
def test_coset_rounds_match_pins(name):
    pins = PINS[f"tc-{name}"]
    rounds = itertools.islice(coset_rounds(presentation(name)), len(pins))
    assert [digest(folder.snapshot()) for folder in rounds] == pins
