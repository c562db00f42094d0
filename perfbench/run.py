#!/usr/bin/env python3
"""loopfold's benchmark: whole commands timed end to end, layers traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload profile-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` every command runs as a fresh ``python -m loopfold``
process, which is what a user waits on, and the run reports the end-to-end
metrics ``wall_s``, ``cpu_s``, ``peak_rss_mb`` and ``setup_s``.  With
``--trace 1`` the commands run through ``loopfold.cli.main`` inside this
process, alternating an untraced round with a round traced by
:mod:`tracing`, and the run reports the per-layer metrics.  Either way every
output is checked by :mod:`checks`, and the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

A run repeats whole rounds of its workload's commands until ``--seconds``
is used up and reports medians over rounds.  Times are scaled to a
reference CPU speed by :mod:`speed`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import speed
from checks import Group, parse_presentation_text
from tracing import LAYER_METRICS, ROOT_SPAN, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
COMMAND_TIMEOUT_S = 60.0
SETUP_REPEATS = 7
WP_RADIUS = 7
SETUP_CODE = (
    "import sys\n"
    "import loopfold.cli\n"
    "from loopfold.core import parse_presentation\n"
    "for path in sys.argv[1:]:\n"
    "    with open(path, encoding='utf-8') as handle:\n"
    "        parse_presentation(handle.read())\n"
)

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

ZXZ = ("presentations/zxz.pres", Group("free-abelian", 2))
Z3 = ("presentations/z3.pres", Group("cyclic", 3))
Z2 = ("presentations/z2.pres", Group("cyclic", 2))
FREE2 = ("presentations/free2.pres", Group("free", 2))


@dataclass(frozen=True)
class Command:
    """One loopfold invocation.  ``{out}`` in ``argv`` stands for a file
    the command writes; ``check(stdout, exit_code, out_text)`` returns the
    problems found in its output.  A ``known_fault`` command fails every
    time because of a fault in loopfold: it counts in ``failed`` but does
    not make the run incorrect."""

    argv: tuple[str, ...]
    check: Callable[[str, int, str], list[str]]
    known_fault: bool = False

    def problems(self, stdout: str, exit_code: int, out_text: str) -> list[str]:
        try:
            return self.check(stdout, exit_code, out_text)
        except (ValueError, IndexError, KeyError) as exc:  # output too malformed to check
            return [f"output check raised {exc!r}"]


def _presentation(path: str):
    return parse_presentation_text((ROOT / path).read_text(encoding="utf-8"))


def profile(sample, n: int, oracle: str) -> Command:
    path, group = sample
    check = lambda out, code, _f: checks.check_profile(out, code, group, _presentation(path), n)
    return Command(("profile", path, "--n", str(n), "--oracle", oracle), check)


def compress_verify(sample, n: int, extra: tuple[str, ...] = (), expect_exit: int = 0,
                    known_fault: bool = False) -> Command:
    path, group = sample
    check = lambda out, code, _f: checks.check_compress(out, code, expect_exit, group, _presentation(path))
    return Command(("compress", path, "--verify", "--n", str(n), *extra), check, known_fault)


def grammar_bound(sample, n: int, oracle: str) -> Command:
    path, group = sample
    check = lambda out, code, _f: checks.check_grammar_bound(out, code, group, _presentation(path), n)
    return Command(("grammar-bound", path, "--n", str(n), "--oracle", oracle), check)


def tc(sample, rounds: int) -> Command:
    path, group = sample
    check = lambda out, code, dot: checks.check_tc(out, code, dot, group, rounds)
    return Command(("tc", path, "--rounds", str(rounds), "--dot", "{out}"), check)


def wp(sample, word: str, radius: int) -> Command:
    path, group = sample
    check = lambda out, code, _f: checks.check_wp(out, code, group, word, radius)
    return Command(("wp", path, word, "--radius", str(radius)), check)


def draw_wp_words(rng: random.Random, radius: int) -> list[str]:
    """A word with zero exponent sums, of even length ≤ 2·radius and free
    reduction at least 4 long, and one with a nonzero exponent sum, over
    the letters of ℤ²."""
    alphabet = checks.letters(2)
    while True:
        half = [rng.choice(alphabet) for _ in range(rng.randint(radius // 2 + 1, radius))]
        letters = half + [checks.inverse_letter(ch) for ch in half]
        rng.shuffle(letters)
        trivial = "".join(letters)
        if len(checks.free_reduce(trivial)) >= 4:
            break
    while True:
        other = "".join(rng.choice(alphabet) for _ in range(rng.randint(radius, 2 * radius)))
        if any(checks.exponent_sums(other, 2)):
            return [trivial, other]


# Every workload attempts the same commands in every round.  Only the wp
# words of ``saturate`` depend on the seed; every other input is an
# exhaustive enumeration fixed by the flags.
WORKLOADS: dict[str, Callable[[random.Random], list[Command]]] = {
    "profile-sweep": lambda rng: [
        profile(ZXZ, 8, "free-abelian:2"),
        profile(Z3, 8, "cyclic:3"),
        profile(Z2, 8, "cyclic:2"),
        profile(FREE2, 6, "free:2"),
    ],
    "fusion-verify": lambda rng: [
        compress_verify(ZXZ, 4, ("--budget-len", "4")),
        compress_verify(Z2, 8),
        compress_verify(Z3, 8),
        # Known fault: rows 4..8 come back LowerBoundOnly and are never
        # checked, yet the command exits 0.  A budget failure should exit 3.
        compress_verify(Z2, 8, ("--budget-len", "2"), expect_exit=3, known_fault=True),
    ],
    "grammar-bound": lambda rng: [
        grammar_bound(Z2, 7, "cyclic:2"),
        grammar_bound(Z3, 7, "cyclic:3"),
    ],
    "saturate": lambda rng: [
        tc(ZXZ, 30),
        tc(Z3, 4),
        *(wp(ZXZ, word, WP_RADIUS) for word in draw_wp_words(rng, WP_RADIUS)),
    ],
}


@dataclass
class Outcome:
    exit_code: int | None  # None when the command was killed at the timeout
    problems: list[str]
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    scale: float = 1.0  # from this run's CPU speed to the reference speed


def _child_env(seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def _spawn(argv: list[str], env: dict[str, str], stdout, stderr) -> Outcome:
    """Run a child to its end on the currently fastest CPU and return its
    exit code, times and peak RSS.  Wall time leaves out the time the
    hypervisor took the CPU away.  CPU time and peak RSS come from ``wait4``
    on the child's own pid: ``RUSAGE_CHILDREN`` would keep a running maximum
    over all children."""
    cpu = speed.pin_to_fastest_cpu()
    stolen = speed.stolen_s(cpu)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr)
    probe = speed.SpeedProbe()
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], COMMAND_TIMEOUT_S)
        if not ready:
            proc.kill()  # not yet reaped, so the pid is still this child's
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
        scale = probe.stop()
    wall = time.perf_counter() - start
    wall = max(wall - (speed.stolen_s(cpu) - stolen), 0.0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        exit_code=proc.returncode if ready else None,
        problems=[],
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        scale=scale,
    )


def _judge(command: Command, stdout: str, exit_code: int, out_file: Path, stderr: str) -> list[str]:
    """Check a finished command's output; the file it wrote is removed."""
    out_text = out_file.read_text(encoding="utf-8") if out_file.exists() else ""
    out_file.unlink(missing_ok=True)
    problems = command.problems(stdout, exit_code, out_text)
    if problems and stderr.strip():
        problems.append("stderr: " + stderr.strip()[-300:])
    return problems


def run_subprocess(command: Command, env: dict[str, str], work: Path, index: int) -> Outcome:
    out_file = work / f"cmd{index}.out"
    argv = [a.replace("{out}", str(out_file)) for a in command.argv]
    stdout_path, stderr_path = work / f"cmd{index}.stdout", work / f"cmd{index}.stderr"
    with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
        outcome = _spawn([sys.executable, "-m", "loopfold", *argv], env, so, se)
    if outcome.exit_code is None:
        outcome.problems = [f"timed out after {COMMAND_TIMEOUT_S:.0f} s"]
    else:
        read = lambda path: path.read_text(encoding="utf-8", errors="replace")
        outcome.problems = _judge(command, read(stdout_path), outcome.exit_code, out_file, read(stderr_path))
    return outcome


def run_in_process(command: Command, work: Path, index: int, main) -> Outcome:
    out_file = work / f"cmd{index}.out"
    argv = [a.replace("{out}", str(out_file)) for a in command.argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - start
    return Outcome(code, _judge(command, stdout.getvalue(), code, out_file, stderr.getvalue()), wall_s=wall)


def measure_setup(presentations: list[str], env: dict[str, str]) -> float:
    """Median scaled wall time of a fresh interpreter that imports
    loopfold.cli and parses the presentation files.  One untimed start first
    writes the bytecode cache, which users pay once, not per command."""
    argv = [sys.executable, "-c", SETUP_CODE, *presentations]
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        run = _spawn(argv, env, subprocess.DEVNULL, subprocess.DEVNULL)
        if run.exit_code != 0:
            raise RuntimeError(f"setup interpreter exited {run.exit_code}: is {SRC} a loopfold source tree?")
        if attempt:
            times.append(run.wall_s * run.scale)
    return statistics.median(times)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0  # failures of commands not marked known_fault
        self.reported: set[str] = set()

    def add(self, command: Command, outcome: Outcome) -> None:
        self.attempted += 1
        if outcome.problems:
            self.failed += 1
            self.unexpected += not command.known_fault
            key = " ".join(command.argv)
            if key not in self.reported:  # a failure repeats every round; say it once
                self.reported.add(key)
                print(f"FAILED loopfold {key}: " + "; ".join(outcome.problems), file=sys.stderr)


def _rounds(seconds: float, run_round: Callable[[], None], min_rounds: int) -> None:
    """Run whole rounds until the next one would end nearer past the
    deadline than this one ends before it, and at least ``min_rounds``."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        run_round()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= min_rounds and elapsed + statistics.mean(durations) / 2 >= seconds:
            return


def end_to_end(commands: list[Command], seconds: float, seed: int, work: Path, tally: Tally) -> dict[str, float]:
    """Per command, the median over rounds of its scaled wall time, scaled
    CPU time and peak RSS; ``wall_s`` and ``cpu_s`` sum those medians over
    the commands, ``peak_rss_mb`` is the largest.  At least three rounds, so
    that one disturbed round cannot set a median.  Unscaled figures go to
    standard error for reference."""
    env = _child_env(seed)
    presentations = sorted({c.argv[1] for c in commands})
    setup = measure_setup(presentations, env)
    runs: list[list[Outcome]] = [[] for _ in commands]

    def run_round() -> None:
        for i, command in enumerate(commands):
            outcome = run_subprocess(command, env, work, i)
            tally.add(command, outcome)
            runs[i].append(outcome)

    _rounds(seconds, run_round, min_rounds=3)

    def summed(value: Callable[[Outcome], float]) -> float:
        return sum(statistics.median(value(o) for o in outcomes) for outcomes in runs)

    print(
        f"unscaled, over {len(runs[0])} rounds: wall {summed(lambda o: o.wall_s):.3f} s, "
        f"cpu {summed(lambda o: o.cpu_s):.3f} s, median scale {summed(lambda o: o.scale) / len(runs):.3f}",
        file=sys.stderr,
    )
    return {
        "wall_s": summed(lambda o: o.wall_s * o.scale),
        "cpu_s": summed(lambda o: o.cpu_s * o.scale),
        "peak_rss_mb": max(statistics.median(o.peak_rss_mb for o in outcomes) for outcomes in runs),
        "setup_s": setup,
    }


def traced(commands: list[Command], seconds: float, work: Path, tally: Tally, spans_path: Path) -> dict[str, float]:
    """Per-layer metrics: alternate an untraced and a traced round of the
    commands through ``loopfold.cli.main`` in this process.  Times are
    scaled to the reference CPU speed like the end-to-end ones, with a
    probe on this process's CPU during each round."""
    sys.path.insert(0, str(SRC))
    from loopfold import cli

    samples: list[dict[str, float]] = []
    overheads: list[float] = []
    last: list[Tracer] = []

    def run_round(main) -> tuple[float, float]:
        gc.collect()  # garbage left by the previous round is not this round's cost
        speed.pin_to_fastest_cpu()
        probe = speed.SpeedProbe()
        total = 0.0
        try:
            for i, command in enumerate(commands):
                outcome = run_in_process(command, work, i, main)
                tally.add(command, outcome)
                total += outcome.wall_s
        finally:
            scale = probe.stop()
        return total * scale, scale

    def run_pair() -> None:
        untraced, _ = run_round(cli.main)
        tracer = Tracer()
        tracer.install()
        try:
            traced_s, scale = run_round(tracer.wrap(ROOT_SPAN, cli.main))
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics()
        samples.append({m: v * scale if LAYER_METRICS[m][0] == "s" else v for m, v in metrics.items()})
        overheads.append(traced_s - untraced)
        last[:] = [tracer]

    # The first round in a fresh process also grows its heap; later rounds
    # reuse it, so the overhead is taken between later rounds only.
    run_round(cli.main)
    _rounds(seconds, run_pair, min_rounds=1)
    last[0].write_spans(spans_path)
    out = {name: statistics.median(s[name] for s in samples) for name in LAYER_METRICS}
    out["trace.overhead_s"] = statistics.median(overheads)
    return out


def layer_units() -> dict[str, str]:
    units = {name: unit for name, (unit, _better, _source) in LAYER_METRICS.items()}
    units["trace.overhead_s"] = "s"
    return units


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    commands = WORKLOADS[name](random.Random(seed))
    tally = Tally()
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        if trace:
            values = traced(commands, seconds, work, tally, OUT_DIR / f"spans-{name}.csv")
            units = layer_units()
        else:
            values = end_to_end(commands, seconds, seed, work, tally)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }


def _print_table(name: str, result: dict) -> None:
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:34s} {entry['value']:14.6f} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "loopfold" / "cli.py").is_file():
        print(f"perfbench: no loopfold sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_table(name, results[name])
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": e for n, r in results.items() for m, e in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
