"""Filling invariants of finite group presentations.

Measures isoperimetric, isodiametric, filling-length, and coset-saturation
radius functions of a finite presentation; relates them through folded loop
complexes, a relator-product rewriting system, and a context-free grammar
built from a pushdown automaton over the Dyck language.
"""

from .core import (
    EMPTY,
    ParseError,
    Presentation,
    Word,
    parse_presentation,
    parse_word,
    render_presentation,
    render_word,
)

__all__ = [
    "EMPTY",
    "ParseError",
    "Presentation",
    "Word",
    "parse_presentation",
    "parse_word",
    "render_presentation",
    "render_word",
]

__version__ = "0.1.0"
