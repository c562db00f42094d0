"""Filling invariants of finite group presentations.

Measures isoperimetric, isodiametric, filling-length, and coset-saturation
radius functions of a finite presentation; relates them through folded loop
complexes, a relator-product rewriting system, and a context-free grammar
built from a pushdown automaton over the Dyck language.

Every layer but :mod:`~loopfold.core` is registered lazily: it is in
``sys.modules`` and an attribute of this package from the start, and its
code is compiled and run when one of its attributes is first read.  So a
command runs only the layers it calls.  ``import loopfold.grammar`` and
``from loopfold.grammar import …`` load the layer as usual.
"""

import importlib.util
import sys

from .core import (
    EMPTY,
    ParseError,
    Presentation,
    parse_presentation,
    parse_word,
    render_presentation,
    render_word,
)

__all__ = [
    "EMPTY",
    "ParseError",
    "Presentation",
    "parse_presentation",
    "parse_word",
    "render_presentation",
    "render_word",
]

__version__ = "0.1.0"


def _register_lazily(name: str) -> None:
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _layer in ("_kernels", "automata", "bounds", "compression", "fillings", "grammar", "rewrite",
               "toddcoxeter"):
    _register_lazily(_layer)
del _layer
