"""Command-line front end: word-problem checks, filling profiles with
inequality columns, relator fusion, coset enumeration snapshots, and the
grammar-based bound experiment.

Exit codes: 0 success, 1 negative verdict, 2 usage or configuration error
(:class:`~loopfold.core.InputError`), 3 budget or ceiling failure
(:class:`~loopfold.core.LimitError`).  All output is deterministic for a fixed
configuration.
"""

from __future__ import annotations

import contextlib
import sys
from itertools import islice
from types import SimpleNamespace

# Layers are read through their modules, which the package registers lazily
# (see loopfold/__init__.py), so a command compiles only the layers it calls.
from . import automata, bounds, compression, fillings, grammar, rewrite, toddcoxeter
from .core import (
    InputError,
    LimitError,
    Presentation,
    parse_presentation,
    parse_word,
    render_presentation,
    render_word,
)


class UsageError(InputError):
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
    """The halving check behind ``--verify``: the rows of
    :func:`~loopfold.compression.verify_compression`, decided in order of n.
    The first row that is not Exact is a budget failure, raised before any
    sweep that only a later row needs runs.  Once every row is Exact, the
    trivial-word agreement is read; it is a budget failure too when a cut
    sweep leaves it undecided, or when the lists agree but the state budget
    cut a sweep they are read from, as both may then miss the same words.
    ``system`` is the rewrite system of the base presentation."""
    combined = compression.combined_system(compressed, system)
    rows = []
    for row in compression.compression_rows(system, combined, n, budget):
        if row.holds is None:
            raise bounds.BudgetFailure(
                f"fusion check at n={row.n} is not Exact (base {row.base_area.status}, "
                f"fused {row.combined_area.status}); "
                f"raise {bounds.budget_flags(row.base_area.status, row.combined_area.status)}"
            )
        rows.append(row)
    agreement = compression.triviality_agreement(system, combined, n, budget)
    if agreement is None:
        raise bounds.BudgetFailure(
            "the two presentations list different trivial words where the state budget "
            "cut a sweep; raise --budget-states"
        )
    if not all(rewrite.sweeps_complete(rs, budget, n) for rs in (system, combined)):
        raise bounds.BudgetFailure(
            "the state budget cut a sweep the fusion check lists trivial words from; "
            "raise --budget-states")
    return compression.CompressionReport(tuple(rows), agreement).all_hold


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
        out.write(automata.to_dot(pcg.graph, pcg.order))
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


# The command line, one entry per command: (handler, summary, positionals,
# flags).  A flag maps to (type, default, help): type ``bool`` is a switch
# that takes no value, and a ``REQUIRED`` default must be given.  The
# handler reads each value as an attribute, a flag's without its dashes and
# with ``_`` for ``-`` (``--budget-len`` -> ``budget_len``).
REQUIRED = object()

_BUDGET_FLAGS = {
    "--budget-len": (int, 8, "search cap on rewrite word length"),
    "--budget-states": (int, 2_000_000, "search cap on the word orbits a sweep holds"),
}
_ORACLES = "cyclic:k | free-abelian:r | free:r | rewrite:L"

COMMANDS = {
    "wp": (cmd_wp, "decide triviality against a folded loop complex", ("presentation", "word"), {
        "--radius": (int, 0, "complex radius j"),
    }),
    "profile": (cmd_profile, "measure filling profiles and inequality columns", ("presentation",), {
        "--n": (int, REQUIRED, "maximum word length"),
        "--oracle": (str, REQUIRED, _ORACLES),
        "--csv": (str, None, "output path (default stdout)"),
        "--verify": (bool, False, "also require the relator-fusion halving check, "
                                  "exiting 3 when a row is not Exact"),
        **_BUDGET_FLAGS,
    }),
    "compress": (cmd_compress, "emit the fused presentation", ("presentation",), {
        "--verify": (bool, False, "check the halving bound up to --n, exiting 1 on "
                                  "failure and 3 when a row is not Exact"),
        "--n": (int, 4, "verification depth for --verify"),
        **_BUDGET_FLAGS,
    }),
    "tc": (cmd_tc, "run coset-enumeration rounds and report the snapshot", ("presentation",), {
        "--rounds": (int, REQUIRED, "number of rounds to run"),
        "--dot": (str, None, "output path for the snapshot graph in DOT form (default none)"),
    }),
    "grammar-bound": (cmd_grammar_bound, "per-word shortest-witness lengths against the explicit bound",
                      ("presentation",), {
        "--n": (int, REQUIRED, "maximum word length"),
        "--oracle": (str, "rewrite:8", _ORACLES),
        "--csv": (str, None, "output path (default stdout)"),
        **_BUDGET_FLAGS,
    }),
}


def _help(names) -> str:
    """Usage of the commands ``names``, each flag with its default."""
    lines = ["Filling-function measurements over finite presentations."]
    for name in names:
        _handler, summary, positionals, flags = COMMANDS[name]
        lines += ["", f"usage: loopfold {name} {' '.join(p.upper() for p in positionals)} [flags]",
                  f"  {summary}"]
        for flag, (kind, default, text) in flags.items():
            if default is REQUIRED:
                text += " (required)"
            elif kind is bool:
                text += " (default off)"
            elif default is not None:
                text += f" (default {default})"
            spelled = flag if kind is bool else f"{flag} {'N' if kind is int else 'TEXT'}"
            lines.append(f"  {spelled:<22}{text}")
    return "\n".join(lines) + "\n"


def _show_help(text: str) -> int:
    sys.stdout.write(text)
    return 0


def parse_argv(argv: list[str]):
    """The handler ``argv`` names and what it passes that handler: the
    parsed arguments, or the help text to ``_show_help`` when ``-h`` or
    ``--help`` is among them.  A token that starts with ``--`` is a flag,
    given as ``--flag value`` or ``--flag=value``; every other token fills
    the next positional.  A flag given twice keeps its last value.  Raises
    :class:`UsageError` naming the command, flag or token at fault."""
    if not argv:
        raise UsageError(f"no command given; choose from {', '.join(COMMANDS)}")
    name, *rest = argv
    if name in ("-h", "--help"):
        return _show_help, _help(COMMANDS)
    if name not in COMMANDS:
        raise UsageError(f"unknown command {name!r}; choose from {', '.join(COMMANDS)}")
    if "-h" in rest or "--help" in rest:
        return _show_help, _help([name])
    handler, _summary, positionals, flags = COMMANDS[name]
    values = {flag: default for flag, (_kind, default, _text) in flags.items()}
    given: list[str] = []
    unrecognized: list[str] = []
    tokens = iter(rest)
    for token in tokens:
        if not token.startswith("--"):
            (given if len(given) < len(positionals) else unrecognized).append(token)
            continue
        flag, has_value, value = token.partition("=")
        if flag not in flags:
            unrecognized.append(token)
            continue
        kind = flags[flag][0]
        if kind is bool:
            if has_value:
                raise UsageError(f"{flag} takes no value")
            values[flag] = True
            continue
        if not has_value:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise UsageError(f"{flag} needs a value")
        try:
            values[flag] = kind(value)
        except ValueError:
            raise UsageError(f"{flag} needs an integer, not {value!r}") from None
    missing = [*positionals[len(given):], *(flag for flag, value in values.items() if value is REQUIRED)]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if unrecognized:
        raise UsageError(f"unrecognized arguments: {' '.join(unrecognized)}")
    args = dict(zip(positionals, given))
    args.update((flag[2:].replace("-", "_"), value) for flag, value in values.items())
    return handler, SimpleNamespace(**args)


def main(argv=None) -> int:
    try:
        handler, args = parse_argv(sys.argv[1:] if argv is None else argv)
        return handler(args)
    except (InputError, LimitError) as exc:
        print(f"loopfold: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 3


if __name__ == "__main__":
    sys.exit(main())
