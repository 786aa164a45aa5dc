"""Spans and counters around the public functions of each cpspace layer.

`Tracer.install` replaces each target function with a wrapper in every
loaded module namespace that binds it, so a call made through an
imported name (`pfp` calls `eval_term` and `run`, `pebble` calls
`form_of`, the workloads call `decide` and `verify_duplicator`) is seen
as well as a call through the defining module.  Methods of
`Universe` are wrapped on the class.

A timed target opens a span: its inclusive time, and its self time
(span time minus the time of the traced spans it caused).  A recursive
target counts every call but opens a span only at its outermost call,
so no interval is counted twice.  Count-only targets add a counter and
no clock reads.  Spans are aggregated in memory per (parent, child)
edge and written out when the run ends; nothing is recorded while the
tracer is inactive, which the runner uses to keep output checks out of
the figures.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, attribute, timed): attribute may be "Class.method".
TARGETS = (
    ("hf", "Universe.tc", True),
    ("hf", "Universe.apply_perm", True),
    ("hf", "Universe.mk_set", False),
    ("syntax", "parse_program", True),
    ("machine", "eval_term", True),
    ("machine", "update_set", True),
    ("machine", "step", True),
    ("monitor", "run", True),
    ("monitor", "active_objects", True),
    ("pfp", "update_formula", True),
    ("pfp", "iterate_stages", True),
    ("pfp", "eval_formula", True),
    ("pfp", "mk_and", False),
    ("symmetry", "build_fragment", True),
    ("symmetry", "bulk_images", True),
    ("symmetry", "form_of", True),
    ("symmetry", "conf", False),
    ("symmetry", "support_within", True),
    ("symmetry", "form_apply", True),
    ("pebble", "verify_duplicator", True),
    ("pebble", "solve_game", True),
    ("pebble", "duplicator_respond", True),
    ("pebble", "partial_iso", True),
    ("cli", "main", True),
)

# Spans with traced children, whose self time says where their time goes.
SELF_TIMED = (
    "machine.step", "machine.update_set", "monitor.run", "pfp.iterate_stages",
    "pfp.eval_formula", "symmetry.build_fragment", "symmetry.form_of",
    "pebble.verify_duplicator", "pebble.duplicator_respond", "cli.main",
)

# (metric, unit, better) for every per-layer figure a traced run reports.
LAYER_METRICS = (
    ("hf.objects", "count", "lower"),
    ("hf.cache_entries", "count", "lower"),
    ("hf.tc_s", "s", "lower"),
    ("hf.tc_calls", "count", "lower"),
    ("hf.mk_set_calls", "count", "lower"),
    ("hf.apply_perm_s", "s", "lower"),
    ("syntax.parse_program_s", "s", "lower"),
    ("machine.eval_term_s", "s", "lower"),
    ("machine.eval_term_calls", "count", "lower"),
    ("machine.update_set_s", "s", "lower"),
    ("machine.step_s", "s", "lower"),
    ("monitor.run_s", "s", "lower"),
    ("monitor.steps", "count", "lower"),
    ("monitor.steps_per_s", "1/s", "higher"),
    ("monitor.active_objects_s", "s", "lower"),
    ("monitor.peak_active", "count", "lower"),
    ("pfp.update_formula_s", "s", "lower"),
    ("pfp.iterate_stages_s", "s", "lower"),
    ("pfp.stages", "count", "lower"),
    ("pfp.eval_formula_s", "s", "lower"),
    ("pfp.eval_formula_calls", "count", "lower"),
    ("pfp.mk_and_calls", "count", "lower"),
    ("symmetry.build_fragment_s", "s", "lower"),
    ("symmetry.bulk_images_s", "s", "lower"),
    ("symmetry.form_of_s", "s", "lower"),
    ("symmetry.form_of_calls", "count", "lower"),
    ("symmetry.conf_calls", "count", "lower"),
    ("symmetry.support_within_s", "s", "lower"),
    ("symmetry.form_apply_s", "s", "lower"),
    ("pebble.verify_moves", "count", "lower"),
    ("pebble.verify_moves_per_s", "1/s", "higher"),
    ("pebble.solve_nodes", "count", "lower"),
    ("pebble.solve_nodes_per_s", "1/s", "higher"),
    ("pebble.duplicator_respond_s", "s", "lower"),
    ("pebble.partial_iso_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
) + tuple((f"{key}_self_s", "s", "lower") for key in SELF_TIMED)


def memo_entries(u) -> int:
    """Entries held by a universe's memo tables: the permutation memo,
    the per-module caches and the filled transitive-closure slots."""
    entries = len(getattr(u, "_perm_memo", ()))
    entries += sum(len(table) for table in getattr(u, "caches", {}).values())
    entries += sum(1 for t in getattr(u, "_tc", ()) if t is not None)
    return entries


class Tracer:
    def __init__(self):
        self.active = False
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.edges: Counter = Counter()        # (parent, child) -> seconds
        self.edge_calls: Counter = Counter()   # (parent, child) -> spans
        self.work: Counter = Counter()         # counts read off results
        self.peak_active = 0
        self.universes: list = []
        self._depth: Counter = Counter()
        self._stack = [["round", 0.0]]

    def reset(self):
        """Forget everything recorded; called at the start of each round."""
        for table in (self.calls, self.total, self.self_time, self.edges,
                      self.edge_calls, self.work):
            table.clear()
        self.peak_active = 0
        self.universes = []

    # -- wrapping ---------------------------------------------------------

    def install(self):
        """Wrap every target; call after the benchmark's own modules are
        imported, since their `from cpspace... import` names are rebound too."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "cpspace" or name.startswith("cpspace.")}
        namespaces = [vars(mod) for mod in list(sys.modules.values())
                      if isinstance(getattr(mod, "__dict__", None), dict)]
        observers = {
            "monitor.run": self._saw_run,
            "pfp.iterate_stages": self._saw_stages,
            "pebble.verify_duplicator": self._saw_verify,
            "pebble.solve_game": self._saw_solve,
        }
        for module, attr, timed in TARGETS:
            key = f"{module}.{attr.rsplit('.', 1)[-1]}"
            home = modules.get(f"cpspace.{module}")
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(home, owner_name, None)
                original = getattr(owner, method, None)
                if original is not None:
                    setattr(owner, method, self._wrap(key, original, timed, observers.get(key)))
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(key, original, timed, observers.get(key))
            for namespace in namespaces:
                for name, value in list(namespace.items()):
                    if value is original:
                        namespace[name] = wrapper
        universe = modules["cpspace.hf"].Universe
        init = universe.__init__

        def registering_init(u, *args, **kwargs):
            init(u, *args, **kwargs)
            if self.active:
                self.universes.append(u)

        universe.__init__ = registering_init

    def _wrap(self, key, fn, timed, observe):
        calls = self.calls
        if not timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.active:
                    calls[key] += 1
                return fn(*args, **kwargs)
            return counted

        depth, stack, clock = self._depth, self._stack, time.perf_counter
        total, self_time = self.total, self.self_time
        edges, edge_calls = self.edges, self.edge_calls

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            calls[key] += 1
            if depth[key]:
                return fn(*args, **kwargs)
            depth[key] = 1
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[key] = 0
                parent = stack[-1]
                parent[1] += elapsed
                total[key] += elapsed
                self_time[key] += elapsed - frame[1]
                edges[(parent[0], key)] += elapsed
                edge_calls[(parent[0], key)] += 1
            if observe is not None:
                observe(out)
            return out

        return spanned

    def _saw_run(self, trace):
        self.peak_active = max(self.peak_active, trace.peak_active)

    def _saw_stages(self, result):
        self.work["pfp.stages"] += len(result.stages) - 1

    def _saw_verify(self, report):
        self.work["pebble.verify_moves"] += report.nodes

    def _saw_solve(self, result):
        self.work["pebble.solve_nodes"] += result.nodes

    # -- phases and results -------------------------------------------------

    def phase(self, name: str):
        """Open a root span for one phase of a round; returns its closer."""
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()

        def close():
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.edges[("round", name)] += elapsed
            self.edge_calls[("round", name)] += 1
            self.total[name] += elapsed
            self.self_time[name] += elapsed - frame[1]

        return close

    def metrics(self) -> dict[str, float]:
        """The per-layer figures of the round recorded since `reset`."""
        t, c, w = self.total, self.calls, self.work

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        out = {
            "hf.objects": sum(u.size() for u in self.universes),
            "hf.cache_entries": sum(memo_entries(u) for u in self.universes),
            "hf.tc_s": t["hf.tc"],
            "hf.tc_calls": c["hf.tc"],
            "hf.mk_set_calls": c["hf.mk_set"],
            "hf.apply_perm_s": t["hf.apply_perm"],
            "syntax.parse_program_s": t["syntax.parse_program"],
            "machine.eval_term_s": t["machine.eval_term"],
            "machine.eval_term_calls": c["machine.eval_term"],
            "machine.update_set_s": t["machine.update_set"],
            "machine.step_s": t["machine.step"],
            "monitor.run_s": t["monitor.run"],
            "monitor.steps": c["machine.step"],
            "monitor.steps_per_s": rate(c["machine.step"], t["monitor.run"]),
            "monitor.active_objects_s": t["monitor.active_objects"],
            "monitor.peak_active": self.peak_active,
            "pfp.update_formula_s": t["pfp.update_formula"],
            "pfp.iterate_stages_s": t["pfp.iterate_stages"],
            "pfp.stages": w["pfp.stages"],
            "pfp.eval_formula_s": t["pfp.eval_formula"],
            "pfp.eval_formula_calls": c["pfp.eval_formula"],
            "pfp.mk_and_calls": c["pfp.mk_and"],
            "symmetry.build_fragment_s": t["symmetry.build_fragment"],
            "symmetry.bulk_images_s": t["symmetry.bulk_images"],
            "symmetry.form_of_s": t["symmetry.form_of"],
            "symmetry.form_of_calls": c["symmetry.form_of"],
            "symmetry.conf_calls": c["symmetry.conf"],
            "symmetry.support_within_s": t["symmetry.support_within"],
            "symmetry.form_apply_s": t["symmetry.form_apply"],
            "pebble.verify_moves": w["pebble.verify_moves"],
            "pebble.verify_moves_per_s": rate(w["pebble.verify_moves"],
                                              t["pebble.verify_duplicator"]),
            "pebble.solve_nodes": w["pebble.solve_nodes"],
            "pebble.solve_nodes_per_s": rate(w["pebble.solve_nodes"],
                                             t["pebble.solve_game"]),
            "pebble.duplicator_respond_s": t["pebble.duplicator_respond"],
            "pebble.partial_iso_s": t["pebble.partial_iso"],
            "cli.main_s": t["cli.main"],
        }
        for key in SELF_TIMED:
            out[f"{key}_self_s"] = self.self_time[key]
        return out

    def span_table(self) -> list[dict]:
        """Aggregated spans of the round: one row per (parent, child) edge."""
        return [
            {"parent": parent, "span": child, "spans": self.edge_calls[(parent, child)],
             "seconds": seconds}
            for (parent, child), seconds in sorted(self.edges.items())
        ]

    def call_table(self) -> dict[str, dict]:
        """Calls, inclusive and self seconds of every traced function."""
        names = set(self.calls) | set(self.total)
        return {name: {"calls": self.calls[name], "seconds": self.total[name],
                       "self_seconds": self.self_time[name]}
                for name in sorted(names)}
