"""The library surface that no code in ``src`` reaches.

Every module-level function and class of ``loopfold``, and every public
method, must be referenced somewhere in ``src`` (as a name, an attribute or a
keyword) or be listed below with the reason it stays.  Code that only tests
reach either serves as a reference for a check, or it goes."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "loopfold"

KEPT = {
    "core.words_up_to": "lists every word: the per-word reference the sweep-read trivial words are checked against",
    "fillings.ReferenceOracle.decide": "decides one word: the per-word reference the sweep-read trivial words are checked against",
    "automata.fold": "the whole-graph fold the folder's pins came from; perfbench times it",
    "automata.FoldedGraph.edges": "the edge lists the folder pins compare",
    "automata.restrict_to_radius": "acceptance criterion 3 compares Cayley balls with it",
    "automata.canonical_form": "the tests' isomorphism check of folded graphs",
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
