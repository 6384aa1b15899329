"""Layer spans recorded from outside the program.

``Tracer.install`` wraps rigsep's public functions where the importing
modules bound them, so the program itself is not edited: a call made
through ``partition.dist_omega`` or ``flows.dist_omega`` is recorded the
same as one through ``graph.dist_omega``.  Class constructors are wrapped
on the class, which every importer shares.  A span's self time is its
duration minus the time of the spans opened inside it.
"""
from __future__ import annotations

import functools
import sys
import time

# (label, module, attribute); a label may cover several attributes
FUNCTIONS = (
    ("graph.connected_components", "rigsep.graph", "connected_components"),
    ("graph.induced_subgraph", "rigsep.graph", "induced_subgraph"),
    ("graph.dist_omega", "rigsep.graph", "dist_omega"),
    ("graph.shortest_path_tree", "rigsep.graph", "shortest_path_tree"),
    ("rig.build_rig", "rigsep.rig", "build_rig"),
    ("strings.string_graph_from_polylines", "rigsep.strings",
     "string_graph_from_polylines"),
    ("generators.generate", "rigsep.generators", "generate"),
    ("spectral.spectral_bisection", "rigsep.spectral", "spectral_bisection"),
    ("spectral.laplacian_spectrum", "rigsep.spectral", "laplacian_spectrum"),
    ("partition.balanced_separator", "rigsep.partition", "balanced_separator"),
    ("partition.random_separator", "rigsep.partition", "random_separator"),
    ("partition.build_chopping_tree", "rigsep.partition",
     "build_chopping_tree"),
    ("partition.sweep_cut", "rigsep.partition", "sweep_cut"),
    ("partition.rounding", "rigsep.partition", "rounding_map_ball"),
    ("partition.rounding", "rigsep.partition", "rounding_map_coloring"),
    ("flows.cspread_lp", "rigsep.flows", "cspread_lp"),
    ("flows.vcong_lp", "rigsep.flows", "vcong_lp"),
    ("flows.check_duality", "rigsep.flows", "check_duality"),
    ("flows.linprog", "rigsep.flows", "linprog"),
    ("flows.minimize", "rigsep.flows", "minimize"),
    ("bench.separate", "rigsep.bench", "separate"),
)

# (label, module, class): the constructor is wrapped
CLASSES = (
    ("graph.Graph", "rigsep.graph", "Graph"),
    ("rig.RegionAssignment", "rigsep.rig", "RegionAssignment"),
)

# Per-layer metrics, in report order.  Every traced run prints all of them.
PER_LAYER = (
    "graph.Graph_s", "graph.Graph_calls",
    "graph.connected_components_s", "graph.connected_components_calls",
    "graph.induced_subgraph_s", "graph.induced_subgraph_calls",
    "graph.dist_omega_s", "graph.dist_omega_calls", "graph.dist_omega_entries",
    "graph.shortest_path_tree_s", "graph.shortest_path_tree_calls",
    "rig.RegionAssignment_s", "rig.RegionAssignment_calls",
    "rig.build_rig_s", "rig.build_rig_calls",
    "strings.string_graph_from_polylines_s",
    "strings.string_graph_from_polylines_calls",
    "generators.generate_s", "generators.generate_calls",
    "spectral.spectral_bisection_s", "spectral.spectral_bisection_calls",
    "spectral.laplacian_spectrum_s", "spectral.laplacian_spectrum_calls",
    "partition.balanced_separator_s", "partition.balanced_separator_calls",
    "partition.random_separator_s", "partition.random_separator_calls",
    "partition.build_chopping_tree_s", "partition.build_chopping_tree_calls",
    "partition.sweep_cut_s", "partition.sweep_cut_calls",
    "partition.rounding_s", "partition.rounding_calls",
    "flows.cspread_lp_s", "flows.cspread_lp_calls",
    "flows.vcong_lp_s", "flows.vcong_lp_calls",
    "flows.check_duality_s", "flows.check_duality_calls",
    "flows.linprog_s", "flows.linprog_calls",
    "flows.minimize_s", "flows.minimize_calls",
    "bench.separate_s", "bench.separate_calls",
    "trace.overhead_s",
)


class Tracer:
    """Self time, call counts and dist_omega entries per label."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.entries = 0
        self._stack: list[float] = []  # child time accumulated per open span
        self._undo: list = []

    def _wrap(self, label, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                child = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += span
                tracer.self_s[label] = tracer.self_s.get(label, 0.0) + span - child
                tracer.calls[label] = tracer.calls.get(label, 0) + 1
            if label == "graph.dist_omega":
                tracer.entries += int(out.dist.size)
            return out

        return wrapper

    def install(self):
        mods = [m for name, m in sys.modules.items()
                if name == "rigsep" or name.startswith("rigsep.")]
        for label, modname, attr in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(label, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, val))
                        setattr(mod, key, wrapped)
        for label, modname, attr in CLASSES:
            cls = getattr(sys.modules[modname], attr)
            self._undo.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._wrap(label, cls.__init__)

    def remove(self):
        while self._undo:
            obj, key, val = self._undo.pop()
            setattr(obj, key, val)

    def metrics(self, passes: int, scale: float) -> dict:
        """Per-pass figures; times are multiplied by the host factor."""
        out = {}
        for name in PER_LAYER:
            label, _, kind = name.rpartition("_")
            if name == "trace.overhead_s":
                continue
            if kind == "s":
                out[name] = self.self_s.get(label, 0.0) * scale / passes
            elif name == "graph.dist_omega_entries":
                out[name] = self.entries / passes
            else:
                out[name] = self.calls.get(label, 0) / passes
        return out
