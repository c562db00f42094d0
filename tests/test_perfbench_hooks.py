"""The benchmark's tracer binds loopfold entry points by name and reads
counts off their results.  A rename, or a result without ``.num_vertices``,
would leave ``perfbench/run.py --trace 1`` reading zeros without an error,
so this runs the tracer over three commands and checks that its vertex and
word counters move."""

import importlib.util
from pathlib import Path

from loopfold import cli

REPO = Path(__file__).resolve().parent.parent
PRES = REPO / "presentations"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", REPO / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_graph_vertices_and_traced_words(capsys):
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["tc", str(PRES / "z3.pres"), "--rounds", "2"]) == 0
        assert cli.main(["wp", str(PRES / "zxz.pres"), "abAB", "--radius", "2"]) == 0
        assert cli.main(["profile", str(PRES / "z2.pres"), "--n", "4", "--oracle", "cyclic:2"]) == 1
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.layer_metrics()
    for name in ("automata.loop_complex_vertices", "toddcoxeter.snapshot_vertices",
                 "kernels.trace_batch_words"):
        assert metrics[name] > 0, name


def test_tracer_sees_both_scans(capsys):
    # The d(n) scan, the saturation scan and the batch tracer under both are
    # called through their module globals, where the tracer binds them.
    tracing = load_tracing()
    runs = {
        "profile": (["profile", str(PRES / "z2.pres"), "--n", "4", "--oracle", "cyclic:2"], 1,
                    ["fillings.isodiametric", "toddcoxeter.tc_radius", "kernels.trace_batch"]),
        "grammar-bound": (["grammar-bound", str(PRES / "z2.pres"), "--n", "2", "--oracle", "cyclic:2"], 0,
                          ["fillings.isodiametric", "kernels.trace_batch"]),
    }
    for command, (argv, code, spans) in runs.items():
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert cli.main(argv) == code
        finally:
            tracer.uninstall()
        _self_s, calls = tracer.self_times()
        assert all(calls.get(span, 0) > 0 for span in spans), (command, calls)
    capsys.readouterr()


def test_tracer_counts_coset_rounds(capsys):
    # toddcoxeter.rounds counts the calls of tc_round made through its
    # module global, one per round
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["tc", str(PRES / "z3.pres"), "--rounds", "2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    _self_s, calls = tracer.self_times()
    assert calls["toddcoxeter.tc_round"] == 2
    assert tracer.layer_metrics()["toddcoxeter.rounds"] == 2
