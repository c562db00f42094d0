"""The library surface that no code in ``src`` reaches, the one word
representation, and the one record idiom.

Every module-level function and class of ``loopfold``, and every public
method, must be referenced somewhere in ``src`` (as a name, an attribute or a
keyword) or be listed below with the reason it stays.  Code that only tests
reach either serves as a reference for a check, or it goes.

A word is ``bytes`` of letter codes in every layer: no module of ``src``
names a ``Word`` wrapper or reads a ``codes`` attribute, which a static scan
finds on paths no test runs too, and every producer of words returns
``bytes``.  No class of ``src`` but the identity record ``FoldedGraph``
writes its own equality, hash or attribute guard: value records are
NamedTuples."""

import ast
from pathlib import Path

from loopfold import compression, fillings, grammar, rewrite
from loopfold.automata import build_tree_nfa
from loopfold.bounds import SearchBudget
from loopfold.core import Presentation, parse_presentation, parse_word, words_up_to

SRC = Path(__file__).resolve().parent.parent / "src" / "loopfold"

KEPT = {
    "core.words_up_to": "lists every word: the per-word reference the sweep-read trivial words are checked against",
    "fillings.ReferenceOracle.decide": "decides one word: the per-word reference the sweep-read trivial words are checked against",
    "automata.fold": "the whole-graph fold the folder's pins came from; perfbench's tracer binds it by name",
    "automata.FoldedGraph.edges": "the edge lists the folder pins compare",
    "automata.restrict_to_radius": "acceptance criterion 3 compares Cayley balls with it",
    "grammar.build_dyck_pda": "acceptance criterion 6: the machine the grammar is checked against",
    "grammar.simulate_pda": "acceptance criterion 6: the machine's acceptance",
    "grammar.generates": "acceptance criterion 6: the grammar's membership",
    "grammar.render_cfg": "the text the grammar sha256 pins are taken of",
    "grammar.Cfg.nonterminals": "the tests' grammar-size measure",
    "grammar.shortest_word": "the per-word chain's last step, the reference for grammar-bound's shared solve",
    "rewrite.RewriteSystem.apply_rule_positions": "the single-step reference for the search",
}


def scan() -> tuple[dict[str, str], set[str]]:
    """The definitions of ``src`` (qualified name -> bare name) and every
    name a node of ``src`` reads."""
    definitions: dict[str, str] = {}
    names: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        definitions[f"{path.stem}.{node.name}.{item.name}"] = item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
    return definitions, names


def test_unreferenced_surface_is_the_kept_references():
    definitions, names = scan()
    unreferenced = {qualified for qualified, name in definitions.items() if name not in names}
    # the scan matches bare names: a kept definition that shares its name
    # with another one is hidden behind that one's uses
    bare = list(definitions.values())
    shared = {qualified for qualified, name in definitions.items() if bare.count(name) > 1}
    assert set(KEPT) <= set(definitions)
    assert unreferenced == set(KEPT) - shared


def test_src_has_no_word_wrapper():
    leftovers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("codes", "Word"):
                leftovers.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.Name) and node.id == "Word":
                leftovers.append((path.name, node.lineno, node.id))
            elif isinstance(node, ast.alias) and "Word" in (node.name, node.asname):
                leftovers.append((path.name, node.lineno, node.name))
            elif isinstance(node, ast.ClassDef) and node.name == "Word":
                leftovers.append((path.name, node.lineno, node.name))
            elif isinstance(node, ast.Constant) and node.value == "Word":  # a quoted annotation
                leftovers.append((path.name, node.lineno, node.value))
    assert leftovers == []


def test_records_are_named_tuples_or_the_identity_graph():
    # value records are NamedTuples; FoldedGraph, compared by identity, is
    # the one class that guards its own attributes
    handwritten = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                handwritten += [
                    f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name in ("__eq__", "__hash__", "__setattr__")
                ]
    assert handwritten == ["FoldedGraph.__setattr__"]


def _all_bytes(words) -> bool:
    words = list(words)
    return bool(words) and all(type(u) is bytes for u in words)


def test_every_word_producer_returns_bytes():
    z2 = parse_presentation("gens: a\nrels: aa\n")
    lattice = Presentation(2, [bytearray(parse_word("abAB", 2))])
    budget = SearchBudget(max_word_length=4)
    system = rewrite.RewriteSystem(z2)
    searching = fillings.ReferenceOracle.rewrite_search(system, budget)
    closed = fillings.ReferenceOracle.cyclic(2)
    assert _all_bytes(z2.relators) and _all_bytes(lattice.relators)
    assert _all_bytes(lattice.symmetrized().relators)
    assert type(parse_word("aB", 2)) is bytes and type(parse_word("1", 2)) is bytes
    assert _all_bytes(words_up_to(2, 2))
    for oracle in (closed, searching):
        assert _all_bytes(oracle.trivial_words(4))
        assert _all_bytes(oracle.reduced_trivial_words(4))
    assert _all_bytes(rewrite.trivial_words(system, budget, 4))
    assert _all_bytes(rewrite.reduced_trivial_words(system, budget, 4))
    assert _all_bytes(rewrite.sweep_keys(system, budget, 4))
    compressed = compression.compress(z2)
    assert _all_bytes(compressed.symmetrized) and _all_bytes(compressed.fused)
    rules = system.relator_rules + system.free_rules
    assert _all_bytes(rule.lhs for rule in rules) and _all_bytes(rule.rhs for rule in rules)
    reports = grammar.double_exp_experiment(z2, 3, closed, budget)
    assert _all_bytes(r.word for r in reports) and _all_bytes(r.witness for r in reports)
    factors = grammar.loop_factors(build_tree_nfa(z2, 0), z2, parse_word("aaaa", 1))
    assert _all_bytes(y for y, _r, _s in factors) and _all_bytes(r for _y, r, _s in factors)
    assert type(grammar.multiply_factors(factors)) is bytes
