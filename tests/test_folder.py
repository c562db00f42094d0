"""Pins of the folded graphs: sha256 digests of (vertex count, origin,
out-edges, in-edges, faces) of every loop complex Λ_j and every coset
round, taken from the whole-graph fold that the online folder replaced.
Vertex numbering is part of the digest, so the online folder must number
classes exactly as that fold did."""

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
        "7d423f7c5f667b9c", "983c199a5a37bb39", "4d900afbd853c320", "6350b51309e98b25",
        "18c18f9581cfe27c", "b19fd26addd9a216", "fc1a85eaa9ff07ec", "d486f9190e7faa72",
    ],
    "loop-z2": [
        "023c13f41da9e2fa", "92d8c171ce615433", "92d8c171ce615433", "92d8c171ce615433",
        "92d8c171ce615433", "92d8c171ce615433",
    ],
    "loop-z3": [
        "05e8f917de23dbde", "9d18cf8e48d1c4ac", "9d18cf8e48d1c4ac", "9d18cf8e48d1c4ac",
        "9d18cf8e48d1c4ac", "9d18cf8e48d1c4ac",
    ],
    "tc-zxz": [
        "1e3fb56d18163ba9", "92f0b182d29ce937", "5e3e2a39d02e9d08", "81ff27e183784505",
        "5488a6c937fc21b6", "315ef1bb2a672c69", "45af3fbeee1eab3b", "f2e51d4ffae148e8",
        "eaff3cc664b9e1ee", "cc5cbdfac6950cc8", "510959517d7773b5", "51c19fefc1b5a5c3",
        "ca2aac77963242f6", "4b4ad24faf45a469", "26fc8c36d2e3db5f", "02f617fd8cd747b3",
        "573023d8446e1360", "ebb5838415cb5c22", "cb09d8a002bc885f", "213ff2f4f3ede67f",
        "a78fd68eea037d47", "81d4e71ded0d1fea", "b4784252c755d2da", "659d87c4c02974a8",
        "9d7cad35e59e87a0", "403adec7e7b59e15", "a40a5ed21ee1f386", "1435236940794fd1",
        "fc5db12ad1fc974b", "28037ffd8b498a10",
    ],
    "tc-free2": [
        "c535def4d7944ba5", "ac00928a4801e101", "428fd0f408ab7ee4", "a83d03b12d1dc734",
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
    faces = None if g.faces is None else tuple((bp, rel.codes) for bp, rel in g.faces)
    record = (g.num_vertices, g.origin, adjacency(0), adjacency(1), faces)
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
