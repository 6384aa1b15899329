"""The three workloads, as lists of operations built from a seed.

An operation runs one public rigsep call on plain data: sizes and seeds
for ``generate``, vertex counts and edge lists for everything else, so
``Graph`` construction is inside every timing.  Inputs that depend on
another operation's output (the edge list of a generated instance) are
taken from that operation's untimed warm-up output by ``prepare``.

Why these inputs:

* ``strings``: random-segment string graphs are dense and of unbounded
  degree, and their edge count grows about quadratically.  They load the
  exact arrangement, the region assignment and the O(n*m) spectral sweep,
  and they use the graph layer through many small induced subgraphs.
  The duality checks run on 12-vertex pieces of small arrangements.
* ``planar``: Delaunay triangulations have bounded degree, the paper's
  spectral regime.  Spectral separation runs on both sides of the dense/
  sparse eigensolver switch (2000 vertices); random separators run at
  scales that cut the graph into several pieces.  No strings or flows.
* ``duality``: small connected G(n, p) graphs, where the flows layer does
  the work: the p = inf duality, the p = 2 extremal spread and lp-round
  separation.  Five p = 2 duality checks on fixed graphs fail every time
  today (``l2 dual solve failed``); they stay in as counted failures.

Each workload sums many instances so that one seed's unusual instance
moves a stage total little: instance costs vary by a factor of several
from seed to seed (the number of column-generation rounds, spectral cuts
and ascent steps all depend on the instance).
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import checks

STAGES = ("generate", "separate", "certify")
SNAP = 10 ** 6


def sub_seed(seed: int, *path) -> int:
    """Seed of the instance named by ``path`` under the workload seed."""
    h = hashlib.blake2b(repr((int(seed),) + path).encode(), digest_size=4)
    return int.from_bytes(h.digest(), "big")


@dataclass
class Op:
    """One timed operation.

    ``prepare(warm)`` builds the call's plain arguments from the warm-up
    outputs of earlier operations; ``call(args)`` is what is timed;
    ``plain(output)`` turns the result into plain data, compared between
    repeats and handed to ``check(args, out, evidence)``.  ``evidence``
    computes extra outputs a check needs (a flow, a weight vector) once,
    after timing.  ``corrupt`` returns a wrong copy of (args, out,
    evidence) that the check must reject.
    """

    name: str
    stage: str
    kind: str
    prepare: Callable[[dict], Any]
    call: Callable[[Any], Any]
    plain: Callable[[Any], Any]
    check: Callable[[Any, Any, Any], None]
    corrupt: Callable[[Any, Any, Any], tuple]
    evidence: Callable[[Any], Any] | None = None
    separator: bool = False
    expect_error: str | None = None


def _edges(g) -> list:
    return [(int(u), int(v)) for u, v in g.edges]


def _bfs_piece(size: int):
    """The first ``size`` vertices of a breadth-first search from the
    smallest vertex of the largest component, as a connected graph
    relabeled in ascending order.  A fixed vertex count keeps the cost of
    the flow LPs from following the arrangement's component sizes."""
    def derive(graph: dict) -> dict:
        comps = checks._components(graph["n"], graph["edges"], ())
        big = max(comps, key=lambda c: (len(c), -min(c)))
        adj: dict = {v: [] for v in big}
        for u, v in graph["edges"]:
            if u in adj:
                adj[u].append(v)
                adj[v].append(u)
        order = [min(big)]
        seen = set(order)
        for v in order:
            for w in sorted(adj[v]):
                if w not in seen and len(order) < size:
                    seen.add(w)
                    order.append(w)
        pos = {v: i for i, v in enumerate(sorted(order))}
        edges = [(pos[u], pos[v]) for u, v in graph["edges"]
                 if u in pos and v in pos]
        return {"n": len(pos), "edges": edges}
    return derive


# ---------------------------------------------------------------------------
# operation kinds

def gen_op(rs, name, kind, size, seed) -> Op:
    def plain(inst):
        out = {"n": inst.graph.n, "edges": _edges(inst.graph)}
        if inst.polylines is not None:
            segs = []
            for line in inst.polylines.strings:
                scaled = [Fraction(c) * SNAP for p in line for c in p]
                segs.append(tuple(int(c) if c.denominator == 1 else c
                                  for c in scaled))
            out["segments"] = segs
        return out

    def check(args, out, ev):
        if kind == "random-segments":
            checks.check_string_graph(out["n"], out["edges"], out["segments"],
                                      size=size)
        elif kind == "grid":
            checks.check_grid(out["n"], out["edges"], side=size)
        else:
            checks.check_connected_simple(
                out["n"], out["edges"], size=size,
                planar=kind == "planar-triangulation")

    def corrupt(args, out, ev):
        if kind in ("gnp", "planar-triangulation"):  # isolate vertex 0
            edges = [e for e in out["edges"] if 0 not in e]
        else:
            edges = out["edges"][1:]
        return args, dict(out, edges=edges), ev

    return Op(name, "generate", "generate:" + kind,
              prepare=lambda warm: (kind, size, seed),
              call=lambda a: rs.generate(*a), plain=plain, check=check,
              corrupt=corrupt)


def _graph_args(source, derive=None):
    def prepare(warm):
        g = warm[source] if isinstance(source, str) else source
        g = {"n": g["n"], "edges": list(g["edges"])}
        return derive(g) if derive else g
    return prepare


def sep_op(rs, name, source, method, seed) -> Op:
    def call(a):
        inst = rs.Instance("bench", a["n"], seed, rs.Graph(a["n"], a["edges"]))
        sep, _, _ = rs.separate(inst, method=method, seed=seed)
        return sep

    def corrupt(args, out, ev):
        # a nonempty separator was needed, so dropping it breaks balance
        return args, (() if out else (args["n"],)), ev

    return Op(name, "separate", "separator", prepare=_graph_args(source),
              call=call, plain=lambda sep: tuple(int(v) for v in sep),
              check=lambda a, out, ev: checks.check_separator(a["n"], a["edges"], out),
              corrupt=corrupt, separator=True)


def duality_inf_op(rs, name, source, derive=None) -> Op:
    def call(a):
        return rs.check_duality(rs.Graph(a["n"], a["edges"]), math.inf)

    def plain(rep):
        return {"vcong": rep.vcong, "cspread": rep.cspread, "ok": rep.ok,
                "gap": rep.corrected_rel_gap}

    def evidence(a):
        g = rs.Graph(a["n"], a["edges"])
        flow = rs.vcong_lp(g, math.inf).flow.edge_paths
        omega = rs.cspread_lp(g, 1).omega
        return {"flow": {e: dict(b) for e, b in flow.items()},
                "omega": [float(x) for x in omega]}

    def check(a, out, ev):
        checks._require(out["ok"], f"duality report not ok, gap {out['gap']}")
        checks.check_duality_inf(a["n"], a["edges"], vcong=out["vcong"],
                                 cspread=out["cspread"], flow=ev["flow"],
                                 omega=ev["omega"])

    def corrupt(a, out, ev):
        return a, out, dict(ev, omega=[1.01 * x for x in ev["omega"]])

    return Op(name, "certify", "duality-inf",
              prepare=_graph_args(source, derive), call=call, plain=plain,
              check=check, corrupt=corrupt, evidence=evidence)


def duality_l2_op(rs, name, source) -> Op:
    def call(a):
        return rs.check_duality(rs.Graph(a["n"], a["edges"]), 2)

    def plain(rep):
        return {"vcong": rep.vcong, "corrected": rep.corrected_rhs}

    def corrupt(a, out, ev):
        return a, dict(out, corrected=out["corrected"] * 1.01 + 1.0), ev

    return Op(name, "certify", "duality-l2", prepare=_graph_args(source),
              call=call, plain=plain,
              check=lambda a, out, ev: checks.check_duality_l2(**out),
              corrupt=corrupt, expect_error="l2 dual solve failed")


def cspread_l2_op(rs, name, source) -> Op:
    def call(a):
        return rs.cspread_lp(rs.Graph(a["n"], a["edges"]), 2)

    def plain(res):
        return {"omega": [float(x) for x in res.omega], "value": res.value}

    def corrupt(a, out, ev):
        return a, dict(out, omega=[1.01 * x for x in out["omega"]]), ev

    return Op(name, "certify", "cspread-l2", prepare=_graph_args(source),
              call=call, plain=plain,
              check=lambda a, out, ev: checks.check_cspread_l2(
                  a["n"], a["edges"], omega=out["omega"], value=out["value"]),
              corrupt=corrupt)


def random_sep_op(rs, name, source, delta, h, seed) -> Op:
    def prepare(warm):
        return dict(_graph_args(source)(warm), delta=delta, h=h)

    def call(a):
        g = rs.Graph(a["n"], a["edges"])
        return rs.random_separator(g, np.ones(a["n"]), a["delta"], a["h"], seed)

    def plain(smp):
        return {"s": tuple(smp.s), "components": tuple(smp.components),
                "spaced": bool(smp.spaced_leaves)}

    def check(a, out, ev):
        checks.check_random_separator(
            a["n"], a["edges"], delta=a["delta"], h=a["h"], s=out["s"],
            components=out["components"], spaced=out["spaced"])

    def corrupt(a, out, ev):
        return dict(a, delta=a["delta"] / 1000.0), out, ev

    return Op(name, "certify", "random-separator", prepare=prepare, call=call,
              plain=plain, check=check, corrupt=corrupt)


# ---------------------------------------------------------------------------
# workloads

def _strings(rs, seed):
    ops = []
    for i in range(12):
        size = 56 + i
        g = f"gen/segments{size}"
        ops.append(gen_op(rs, g, "random-segments", size, sub_seed(seed, "seg", i)))
        s = sub_seed(seed, "sep", i)
        ops.append(sep_op(rs, f"sep/spectral/segments{size}", g, "spectral", s))
        ops.append(sep_op(rs, f"sep/chop/segments{size}", g, "chop", s))
    for i in range(60):
        g = f"gen/small{i}"
        ops.append(gen_op(rs, g, "random-segments", 20, sub_seed(seed, "small", i)))
        s = sub_seed(seed, "smallsep", i)
        ops.append(sep_op(rs, f"sep/spectral/small{i}", g, "spectral", s))
        ops.append(sep_op(rs, f"sep/chop/small{i}", g, "chop", s))
        ops.append(duality_inf_op(rs, f"dual-inf/small{i}", g, _bfs_piece(12)))
    return ops


def _planar(rs, seed):
    ops = []
    # spectral on both sides of the dense/sparse eigensolver switch at 2000
    for size in (700, 1000, 1300, 1900, 2200):
        g = f"gen/tri{size}"
        ops.append(gen_op(rs, g, "planar-triangulation", size, sub_seed(seed, "tri", size)))
        ops.append(sep_op(rs, f"sep/spectral/tri{size}", g, "spectral",
                          sub_seed(seed, "spectral", size)))
    for side in (16, 18, 20, 22, 24, 26):
        g = f"gen/grid{side}"
        ops.append(gen_op(rs, g, "grid", side, sub_seed(seed, "grid", side)))
        for j in range(4):
            ops.append(sep_op(rs, f"sep/chop/grid{side}-{j}", g, "chop",
                              sub_seed(seed, "chop", side, j)))
    for size in (1000, 2000):
        g = f"gen/rtri{size}"
        ops.append(gen_op(rs, g, "planar-triangulation", size, sub_seed(seed, "rtri", size)))
        for delta in (2.0, 3.0):
            ops.append(random_sep_op(rs, f"rsep/tri{size}/d{delta:g}", g, delta, 2,
                                     sub_seed(seed, "rsep", size, delta)))
    return ops


def _path_graph(n):
    return {"n": n, "edges": [(i, i + 1) for i in range(n - 1)]}


def _grid_graph(side):
    k = side + 1
    edges = [(v, v + 1) for v in range(k * k) if (v % k) + 1 < k]
    edges += [(v, v + k) for v in range(k * k - k)]
    return {"n": k * k, "edges": sorted(edges)}


def _duality(rs, seed):
    ops = []
    for i in range(12):
        g = f"gen/gnp20-{i}"
        ops.append(gen_op(rs, g, "gnp", 20, sub_seed(seed, "dual", i)))
        ops.append(duality_inf_op(rs, f"dual-inf/gnp20-{i}", g))
    for i in range(40):
        size = 12 + i % 5
        g = f"gen/lp{i}"
        ops.append(gen_op(rs, g, "gnp", size, sub_seed(seed, "lp", i)))
        ops.append(sep_op(rs, f"sep/lp-round/{i}", g, "lp-round",
                          sub_seed(seed, "lpsep", i)))
    # More G(n, p) draws than the solvers use: the generator redraws until
    # the graph is connected, so one draw's time follows a geometric count
    # of attempts, and a steady generate_s needs many draws.
    for i in range(150):
        ops.append(gen_op(rs, f"gen/pool{i}", "gnp", 24 + i % 17,
                          sub_seed(seed, "pool", i)))
    # Fixed graphs: check_duality(., 2) fails on all five today.  The p = 2
    # extremal spread runs on three of them rather than on seeded graphs,
    # because its ascent's run time has a heavy tail over G(n, p) seeds.
    fixed = [("path10", _path_graph(10)), ("grid3", _grid_graph(3))]
    for kind, size, s in (("gnp", 12, 0), ("gnp", 16, 1),
                          ("planar-triangulation", 14, 0)):
        g = f"gen/fixed-{kind}{size}-{s}"
        ops.append(gen_op(rs, g, kind, size, s))
        fixed.append((g, g))
    for label, source in fixed:
        ops.append(duality_l2_op(rs, f"dual-l2/{label}", source))
    for label, source in fixed[:1] + fixed[2:4]:
        ops.append(cspread_l2_op(rs, f"cspread2/{label}", source))
    return ops


WORKLOADS = {"strings": _strings, "planar": _planar, "duality": _duality}

# Seconds one pass over a workload's operations takes on the reference
# host; the number of timed passes is --seconds over this, at least two.
PASS_SECONDS = {"strings": 9.0, "planar": 9.0, "duality": 12.0}


def build(name: str, rs, seed: int) -> list:
    ops = WORKLOADS[name](rs, seed)
    order = {s: i for i, s in enumerate(STAGES)}
    return sorted(ops, key=lambda op: order[op.stage])
