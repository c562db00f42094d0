"""Per-layer tracing of loopfold, installed from outside the program.

:class:`Tracer` replaces each public entry point of loopfold's layers with
a wrapper that records a span (name, parent, start, end) and reads counts
from the return value.  A function is replaced at every place it is looked
up: ``fold``, for instance, is bound in ``automata``, ``toddcoxeter``,
``fillings`` and ``cli``, and every binding gets the same wrapper.  Methods
are replaced on their class.  Spans are kept in flat arrays in memory and
written out once, when the benchmark ends.

A span's self time is its duration minus the durations of its direct child
spans, so the self times of one command's spans add up to its root span.
"""

from __future__ import annotations

import functools
import sys
import weakref
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute) -> span name.  Modules are loopfold's layers.
FUNCTIONS = {
    ("rewrite", "min_isoperimetric"): "rewrite.min_isoperimetric",
    ("rewrite", "filling_length"): "rewrite.filling_length",
    ("rewrite", "is_trivial"): "rewrite.is_trivial",
    ("fillings", "measure_isodiametric"): "fillings.isodiametric",
    ("fillings", "measure_profile"): "fillings.profile",
    ("_kernels", "trace_batch"): "kernels.trace_batch",
    ("automata", "build_loop_complex"): "automata.loop_complex",
    ("automata", "fold"): "automata.fold",
    ("automata", "strip_hairs"): "automata.strip_hairs",
    ("automata", "build_tree_nfa"): "grammar.tree_nfa",
    ("toddcoxeter", "tc_round"): "toddcoxeter.tc_round",
    ("toddcoxeter", "partial_cayley"): "toddcoxeter.partial_cayley",
    ("toddcoxeter", "measure_tc_radius"): "toddcoxeter.tc_radius",
    ("compression", "compress"): "compression.compress",
    ("compression", "verify_compression"): "compression.verify",
    ("grammar", "build_product_pda"): "grammar.product_pda",
    ("grammar", "pda_to_cfg"): "grammar.pda_to_cfg",
    ("grammar", "simplify_cfg"): "grammar.simplify_cfg",
    ("grammar", "shortest_word"): "grammar.shortest_word",
    ("grammar", "double_exp_experiment"): "grammar.experiment",
}

# (module, class, method) -> span name
METHODS = {
    ("rewrite", "RewriteSystem", "__init__"): "rewrite.system_build",
    ("rewrite", "RewriteSystem", "explore"): "rewrite.explore",
    ("fillings", "ReferenceOracle", "decide"): "fillings.oracle_decide",
}

ROOT_SPAN = "cli.main"

# Per-layer metrics: name -> (unit, better, how to read it).  "self:X" is
# the summed self time of spans named X, "calls:X" their number, and any
# other source a counter filled from return values.
LAYER_METRICS = {
    "rewrite.system_build_s": ("s", "lower", "self:rewrite.system_build"),
    "rewrite.rules": ("count", "lower", "rules"),
    "rewrite.explore_s": ("s", "lower", "self:rewrite.explore"),
    "rewrite.explore_calls": ("count", "lower", "calls:rewrite.explore"),
    "rewrite.explore_sweeps": ("count", "lower", "sweeps"),
    "rewrite.explore_hit_ratio": ("ratio", "higher", "hit_ratio"),
    "rewrite.states_reached": ("count", "lower", "states_reached"),
    "rewrite.min_isoperimetric_s": ("s", "lower", "self:rewrite.min_isoperimetric"),
    "rewrite.min_isoperimetric_calls": ("count", "lower", "calls:rewrite.min_isoperimetric"),
    "rewrite.filling_length_s": ("s", "lower", "self:rewrite.filling_length"),
    "rewrite.filling_length_calls": ("count", "lower", "calls:rewrite.filling_length"),
    "rewrite.is_trivial_s": ("s", "lower", "self:rewrite.is_trivial"),
    "rewrite.is_trivial_calls": ("count", "lower", "calls:rewrite.is_trivial"),
    "fillings.oracle_decide_s": ("s", "lower", "self:fillings.oracle_decide"),
    "fillings.oracle_decide_calls": ("count", "lower", "calls:fillings.oracle_decide"),
    "fillings.isodiametric_s": ("s", "lower", "self:fillings.isodiametric"),
    "fillings.profile_self_s": ("s", "lower", "self:fillings.profile"),
    "kernels.trace_batch_s": ("s", "lower", "self:kernels.trace_batch"),
    "kernels.trace_batch_words": ("count", "lower", "trace_batch_words"),
    "automata.loop_complex_s": ("s", "lower", "self:automata.loop_complex"),
    "automata.loop_complex_vertices": ("count", "lower", "loop_complex_vertices"),
    "automata.fold_s": ("s", "lower", "self:automata.fold"),
    "automata.fold_calls": ("count", "lower", "calls:automata.fold"),
    "automata.fold_vertices_in": ("count", "lower", "fold_vertices_in"),
    "automata.fold_vertices_out": ("count", "lower", "fold_vertices_out"),
    "automata.strip_hairs_s": ("s", "lower", "self:automata.strip_hairs"),
    "toddcoxeter.tc_round_s": ("s", "lower", "self:toddcoxeter.tc_round"),
    "toddcoxeter.rounds": ("count", "lower", "calls:toddcoxeter.tc_round"),
    "toddcoxeter.snapshot_vertices": ("count", "lower", "snapshot_vertices"),
    "toddcoxeter.partial_cayley_s": ("s", "lower", "self:toddcoxeter.partial_cayley"),
    "toddcoxeter.tc_radius_s": ("s", "lower", "self:toddcoxeter.tc_radius"),
    "compression.compress_s": ("s", "lower", "self:compression.compress"),
    "compression.fused_relators": ("count", "lower", "fused_relators"),
    "compression.verify_self_s": ("s", "lower", "self:compression.verify"),
    "grammar.tree_nfa_s": ("s", "lower", "self:grammar.tree_nfa"),
    "grammar.product_pda_s": ("s", "lower", "self:grammar.product_pda"),
    "grammar.pda_moves": ("count", "lower", "pda_moves"),
    "grammar.pda_to_cfg_s": ("s", "lower", "self:grammar.pda_to_cfg"),
    "grammar.cfg_rules": ("count", "lower", "cfg_rules"),
    "grammar.simplify_cfg_s": ("s", "lower", "self:grammar.simplify_cfg"),
    "grammar.cfg_rules_kept": ("count", "lower", "cfg_rules_kept"),
    "grammar.rules_kept_ratio": ("ratio", "higher", "rules_kept_ratio"),
    "grammar.shortest_word_s": ("s", "lower", "self:grammar.shortest_word"),
    "grammar.experiment_self_s": ("s", "lower", "self:grammar.experiment"),
    "cli.self_s": ("s", "lower", "self:" + ROOT_SPAN),
    "trace.total_s": ("s", "lower", "total"),
}


class Tracer:
    """Spans and counters of one traced round of commands."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.names = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self._sweeps = weakref.WeakKeyDictionary()  # RewriteSystem -> seen keys
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn, on_return=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        nid = self._name_ids[name]
        names, parents, starts, ends, stack = self.names, self.parents, self.starts, self.ends, self._stack

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time and call count per span name."""
        child = [0.0] * len(self.starts)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[sid] - self.starts[sid]
        totals = [0.0] * len(self.span_names)
        calls = [0] * len(self.span_names)
        for sid, nid in enumerate(self.names):
            totals[nid] += self.ends[sid] - self.starts[sid] - child[sid]
            calls[nid] += 1
        return dict(zip(self.span_names, totals)), dict(zip(self.span_names, calls))

    def root_total(self) -> float:
        return sum(self.ends[s] - self.starts[s] for s, p in enumerate(self.parents) if p < 0)

    def write_spans(self, path) -> None:
        """One line per span: id, parent id (-1 for a root), name, start, end."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,name,start,end\n")
            for sid in range(len(self.starts)):
                out.write(
                    f"{sid},{self.parents[sid]},{self.span_names[self.names[sid]]},"
                    f"{self.starts[sid]:.9f},{self.ends[sid]:.9f}\n"
                )

    # -- counters read from return values -------------------------------------

    def _count(self, key: str, amount) -> None:
        self.counts[key] += amount

    def _on_system(self, args, _kwargs, _result) -> None:
        self._count("rules", len(args[0].relator_rules))

    def _on_explore(self, args, kwargs, result) -> None:
        system, cap = args[0], args[1] if len(args) > 1 else kwargs["cap"]
        max_states = args[2] if len(args) > 2 else kwargs.get("max_states", 2_000_000)
        seen = self._sweeps.setdefault(system, set())
        if (cap, max_states) not in seen:
            seen.add((cap, max_states))
            self._count("sweeps", 1)
            self._count("states_reached", len(result.costs))

    def _hooks(self) -> dict:
        count = self._count
        return {
            "rewrite.system_build": self._on_system,
            "rewrite.explore": self._on_explore,
            "kernels.trace_batch": lambda a, k, r: count("trace_batch_words", len(r)),
            "automata.loop_complex": lambda a, k, r: count("loop_complex_vertices", r.num_vertices),
            "automata.fold": lambda a, k, r: (
                count("fold_vertices_in", a[0].num_vertices),
                count("fold_vertices_out", r[0].num_vertices),
            ),
            "toddcoxeter.partial_cayley": lambda a, k, r: count("snapshot_vertices", r.graph.num_vertices),
            "compression.compress": lambda a, k, r: count("fused_relators", len(r.fused)),
            "grammar.product_pda": lambda a, k, r: count("pda_moves", len(r.moves)),
            "grammar.pda_to_cfg": lambda a, k, r: count("cfg_rules", len(r.rules)),
            "grammar.simplify_cfg": lambda a, k, r: count("cfg_rules_kept", len(r.rules)),
        }

    # -- installing the wrappers ----------------------------------------------

    def install(self) -> None:
        """Wrap every listed entry point wherever loopfold binds it."""
        hooks = self._hooks()
        modules = [m for n, m in sorted(sys.modules.items()) if n == "loopfold" or n.startswith("loopfold.")]
        for (module, attr), name in FUNCTIONS.items():
            original = getattr(sys.modules[f"loopfold.{module}"], attr)
            wrapped = self.wrap(name, original, hooks.get(name))
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, bound, original))
                        setattr(mod, bound, wrapped)
        for (module, cls_name, attr), name in METHODS.items():
            cls = getattr(sys.modules[f"loopfold.{module}"], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, hooks.get(name)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- per-layer metrics ------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        self_s, calls = self.self_times()
        derived = dict(self.counts)
        explore_calls = calls.get("rewrite.explore", 0)
        derived["hit_ratio"] = (
            (explore_calls - derived.get("sweeps", 0)) / explore_calls if explore_calls else 0.0
        )
        derived["rules_kept_ratio"] = (
            derived.get("cfg_rules_kept", 0) / derived["cfg_rules"] if derived.get("cfg_rules") else 0.0
        )
        derived["total"] = self.root_total()
        out = {}
        for metric, (_unit, _better, source) in LAYER_METRICS.items():
            kind, _, span = source.partition(":")
            if kind == "self":
                out[metric] = self_s.get(span, 0.0)
            elif kind == "calls":
                out[metric] = float(calls.get(span, 0))
            else:
                out[metric] = float(derived.get(source, 0.0))
        return out
