"""Command-line front end: word-problem checks, filling profiles with
inequality columns, relator fusion, coset enumeration snapshots, and the
grammar-based bound experiment.

Exit codes: 0 success, 1 negative verdict, 2 usage or configuration error,
3 budget or ceiling failure.  All output is deterministic for a fixed
configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import types
from itertools import islice

# Layers are read through their modules, which the package registers lazily
# (see loopfold/__init__.py), so a command compiles only the layers it calls.
from . import automata, bounds, compression, fillings, grammar, rewrite, toddcoxeter
from .core import (
    ParseError,
    Presentation,
    parse_presentation,
    parse_word,
    render_presentation,
    render_word,
)


class UsageError(ValueError):
    """Bad flags, bad files, or an oracle that does not fit the presentation."""


def _load_presentation(path: str) -> Presentation:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_presentation(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read presentation: {exc}") from exc


def _need_relators(p: Presentation, what: str) -> None:
    if not p.relators:
        raise UsageError(f"{what} needs a presentation with at least one relator")


def _budget(args) -> bounds.SearchBudget:
    if args.budget_len <= 0 or args.budget_states <= 0:
        raise UsageError("budget caps must be positive")
    return bounds.SearchBudget(max_word_length=args.budget_len, max_states=args.budget_states)


def _parse_oracle(text: str, p: Presentation, budget: bounds.SearchBudget) -> fillings.ReferenceOracle:
    """The oracle ``text`` names, checked against ``p``.  ``rewrite:L``
    searches a rewrite system of ``p`` built for it, which the command
    shares; a closed form builds none."""
    name, sep, arg = text.partition(":")
    if not sep or not arg:
        raise UsageError(f"oracle {text!r} is not of the form name:parameter")
    try:
        value = int(arg)
    except ValueError as exc:
        raise UsageError(f"oracle parameter {arg!r} is not an integer") from exc
    makers = {
        "cyclic": fillings.ReferenceOracle.cyclic,
        "free-abelian": fillings.ReferenceOracle.free_abelian,
        "free": fillings.ReferenceOracle.free,
        "rewrite": lambda length: fillings.ReferenceOracle.rewrite_search(
            rewrite.RewriteSystem(p),
            bounds.SearchBudget(max_word_length=length, max_states=budget.max_states)),
    }
    if name not in makers:
        raise UsageError(f"unknown oracle {name!r}")
    try:
        oracle = makers[name](value)
        oracle.check(p)
    except ValueError as exc:
        raise UsageError(f"oracle {text!r}: {exc}") from exc
    return oracle


@contextlib.contextmanager
def _output(path: str | None):
    """Standard output, or the file at ``path`` opened for writing."""
    if path is None:
        yield sys.stdout
        return
    try:
        handle = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from exc
    with handle:
        yield handle


def _need_whole_list(oracle: fillings.ReferenceOracle, n: int) -> None:
    """Refuse a search oracle's list of trivial words up to length ``n``
    that a cut sweep may have left short: every column read off it could
    then be too small."""
    if oracle.budget_cut(n):
        raise bounds.BudgetFailure(
            "the state budget cut a sweep the oracle lists trivial words from; "
            "raise --budget-states")


def _fusion_holds(
    compressed: compression.CompressedPresentation,
    system: rewrite.RewriteSystem,
    n: int,
    budget: bounds.SearchBudget,
) -> bool:
    """The halving check behind ``--verify``; every row must be Exact.
    ``system`` is the rewrite system of the base presentation."""
    report = compression.verify_compression(compressed, n, budget, system)
    for row in report.rows:
        if row.holds is None:
            raise bounds.BudgetFailure(
                f"fusion check at n={row.n} is not Exact (base {row.base_area.status}, "
                f"fused {row.combined_area.status}); "
                f"raise {bounds.budget_flags(row.base_area.status, row.combined_area.status)}"
            )
    if report.triviality_agreement is None:
        raise bounds.BudgetFailure(
            "the two presentations list different trivial words where the state budget "
            "cut a sweep; raise --budget-states"
        )
    return report.all_hold


def cmd_wp(args) -> int:
    p = _load_presentation(args.presentation)
    word = parse_word(args.word, p.num_generators)
    if args.radius < 0:
        raise UsageError("--radius must be nonnegative")
    if automata.decide_word_problem(p, word, args.radius):
        print("trivial")
        return 0
    print(f"not-accepted-at-radius-{args.radius}")
    return 1


def cmd_profile(args) -> int:
    p = _load_presentation(args.presentation)
    budget = _budget(args)
    oracle = _parse_oracle(args.oracle, p, budget)
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    if args.verify:
        _need_relators(p, "profile --verify")
    system = oracle.system or rewrite.RewriteSystem(p)  # the command's one rewrite system
    profile = fillings.measure_profile(system, args.n, oracle, budget)
    report = fillings.check_inequalities(profile)
    with _output(args.csv) as out:
        out.write(fillings.profile_to_csv(profile, report))
    _need_whole_list(oracle, args.n)
    for row in profile.rows:
        for name, cell in (("P", row.area), ("f", row.length)):
            if cell.status is bounds.OracleStatus.BUDGET_EXCEEDED:
                raise bounds.BudgetFailure(
                    f"{name} at n={row.n} is BudgetExceeded; raise --budget-states")
    ok = report.asserted_hold and report.equality_holds
    if args.verify:
        ok = _fusion_holds(compression.compress(p), system, args.n, budget) and ok
    return 0 if ok else 1


def cmd_compress(args) -> int:
    p = _load_presentation(args.presentation)
    _need_relators(p, "compress")
    budget = _budget(args) if args.verify else None
    if args.verify and args.n < 0:
        raise UsageError("--n must be nonnegative")
    compressed = compression.compress(p)
    sys.stdout.write(render_presentation(compressed.combined))
    if args.verify:
        if not _fusion_holds(compressed, rewrite.RewriteSystem(p), args.n, budget):
            return 1
    return 0


def cmd_tc(args) -> int:
    p = _load_presentation(args.presentation)
    if args.rounds < 1:
        raise UsageError("--rounds must be at least 1")
    last = next(islice(toddcoxeter.coset_rounds(p), args.rounds - 1, None))
    pcg = toddcoxeter.partial_cayley(last.snapshot())
    summary = f"rounds={args.rounds} vertices={pcg.graph.num_vertices} radius={pcg.radius}"
    if args.dot is None:
        print(summary)
        return 0
    with _output(args.dot) as out:  # opened first: an unwritable path prints nothing
        print(summary)
        out.write(automata.to_dot(pcg.graph))
    return 0


def _decimal(value: int) -> str:
    """Decimal text of an int of any size.  The bound n·2^(C·c^d) for ℤ² at
    n = 4, d = 2 has 40,963 bits, past the interpreter's 4,300-digit limit
    for int-to-str, so the limit is lifted for this one conversion."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_grammar_bound(args) -> int:
    p = _load_presentation(args.presentation)
    budget = _budget(args)
    oracle = _parse_oracle(args.oracle, p, budget)
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    _need_relators(p, "grammar-bound")
    _need_whole_list(oracle, args.n)
    reports = grammar.double_exp_experiment(p, args.n, oracle, budget)
    rendered: dict[tuple[int, int], str] = {}  # the bound depends on (n, d) only
    with _output(args.csv) as out:
        out.write("word,n,d,ell,witness,area,bound,holds\n")
        for r in reports:
            if (r.n, r.diameter) not in rendered:
                rendered[r.n, r.diameter] = _decimal(fillings.double_exp_bound(p, r.n, r.diameter))
            cells = (
                render_word(r.word),
                str(r.n),
                str(r.diameter),
                str(r.shortest_length),
                render_word(r.witness),
                str(r.area),
                rendered[r.n, r.diameter],
                "true" if r.holds else "false",
            )
            out.write(",".join(cells) + "\n")
    return 0 if all(r.holds for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopfold",
        description="Filling-function measurements over finite presentations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(cmd):
        cmd.add_argument("--budget-len", type=int, default=8,
                         help="search cap on rewrite word length (default %(default)d)")
        cmd.add_argument("--budget-states", type=int, default=2_000_000,
                         help="search cap on the word orbits a sweep holds (default %(default)d)")

    wp = sub.add_parser("wp", help="decide triviality against a folded loop complex")
    wp.add_argument("presentation")
    wp.add_argument("word")
    wp.add_argument("--radius", type=int, default=0, help="complex radius j (default 0)")
    wp.set_defaults(func=cmd_wp)

    profile = sub.add_parser("profile", help="measure filling profiles and inequality columns")
    profile.add_argument("presentation")
    profile.add_argument("--n", type=int, required=True, help="maximum word length")
    profile.add_argument("--oracle", required=True,
                         help="cyclic:k | free-abelian:r | free:r | rewrite:L")
    profile.add_argument("--csv", help="output path (default stdout)")
    profile.add_argument("--verify", action="store_true",
                         help="also require the relator-fusion halving check "
                              "(exit 3 when a row is not Exact)")
    add_budget(profile)
    profile.set_defaults(func=cmd_profile)

    compress_cmd = sub.add_parser("compress", help="emit the fused presentation")
    compress_cmd.add_argument("presentation")
    compress_cmd.add_argument("--verify", action="store_true",
                              help="check the halving bound up to --n; exit 1 on failure, "
                                   "3 when a row is not Exact")
    compress_cmd.add_argument("--n", type=int, default=4,
                              help="verification depth for --verify (default 4)")
    add_budget(compress_cmd)
    compress_cmd.set_defaults(func=cmd_compress)

    tc = sub.add_parser("tc", help="run coset-enumeration rounds and report the snapshot")
    tc.add_argument("presentation")
    tc.add_argument("--rounds", type=int, required=True, help="number of rounds to run")
    tc.add_argument("--dot", help="write the snapshot graph in DOT form")
    tc.set_defaults(func=cmd_tc)

    bound = sub.add_parser("grammar-bound",
                           help="per-word shortest-witness lengths against the explicit bound")
    bound.add_argument("presentation")
    bound.add_argument("--n", type=int, required=True, help="maximum word length")
    bound.add_argument("--oracle", default="rewrite:8",
                       help="cyclic:k | free-abelian:r | free:r | rewrite:L (default rewrite:8)")
    bound.add_argument("--csv", help="output path (default stdout)")
    add_budget(bound)
    bound.set_defaults(func=cmd_grammar_bound)

    return parser


def _reported(code: int) -> tuple[type[Exception], ...]:
    """The exception classes ``main`` reports with exit ``code``, 2 for a
    usage or configuration error and 3 for a budget or ceiling failure, of
    the layers that have run: one that has not raised nothing.  ``type()``
    of a lazily registered layer reads none of its names, so an error exit
    loads no layer the command did not run."""
    classes = {2: [UsageError, ParseError], 3: []}
    if type(automata) is types.ModuleType:
        classes[2].append(automata.CeilingSettingError)
        classes[3].append(automata.MemoryCeilingError)
    if type(bounds) is types.ModuleType:
        classes[3].append(bounds.BudgetFailure)
    if type(compression) is types.ModuleType:
        classes[3].append(compression.CombinatorialBlowupError)
    return tuple(classes[code])


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _reported(2) as exc:
        print(f"loopfold: {exc}", file=sys.stderr)
        return 2
    except _reported(3) as exc:
        print(f"loopfold: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
