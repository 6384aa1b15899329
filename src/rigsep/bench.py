"""Experiment driver: run separators on instances, validate, record.

Timing is reported but never serialized: artifacts written for a fixed
seed must be byte-identical across runs, so the JSON/CSV side carries
only reproducible fields and wall times go to the caller.  The trial
loop honors the RIGSEP_WORKERS environment variable; one worker (the
default) keeps everything on the calling thread.
"""
from __future__ import annotations

import io
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from ._rng import substream_seed
from .flows import _P1_MAX_N, cspread_lp
from .generators import Instance, generate
from .graph import connected_components
from .partition import balanced_separator

__all__ = [
    "ExperimentRecord",
    "separate",
    "ScalingStudy",
    "scaling_study",
    "worker_count",
]

METHODS = ("lp-round", "spectral", "chop")


def worker_count() -> int:
    try:
        k = int(os.environ.get("RIGSEP_WORKERS", "1"))
    except ValueError:
        return 1
    return max(1, k)


@dataclass(frozen=True)
class ExperimentRecord:
    """Everything needed to reproduce and judge one separator run."""

    kind: str
    size: int
    seed: int
    n: int
    m: int
    method: str
    separator_size: int
    balance: float
    wall_time: float | None
    lp_value: float | None
    params: dict

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["wall_time"] = None  # volatile; keep artifacts reproducible
        return d


def _validate_separator(graph, separator) -> tuple:
    s = sorted({int(v) for v in separator})
    for v in s:
        if not 0 <= v < graph.n:
            raise ValueError(f"separator vertex {v} out of range")
    sset = set(s)
    comps = connected_components(
        graph, subset=[v for v in range(graph.n) if v not in sset])
    total = graph.n
    for comp in comps:
        if 3 * len(comp) > 2 * total:
            raise ValueError(
                f"component of size {len(comp)} breaks 2/3 balance"
            )
        for v in comp:
            if v in sset:
                raise ValueError("separator overlaps a component")
    return comps


def separate(instance: Instance, method: str = "spectral", seed: int = 0,
             *, h: int = 2, delta: float | None = None):
    """Run one separator method on an instance.

    Returns (separator, components, record).  The separator is
    re-validated for balance and disjointness before anything is
    reported.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    graph = instance.graph
    params: dict = {"h": h}
    if delta is not None:
        params["delta"] = delta
    lp_value = None
    t0 = time.perf_counter()
    if (method == "lp-round" and 1 < graph.n <= _P1_MAX_N
            and len(connected_components(graph)) == 1):
        lp_value = float(cspread_lp(graph, 1).value)
    sep = balanced_separator(graph, strategy=method, seed=seed, h=h,
                             delta=delta)
    wall = time.perf_counter() - t0
    comps = _validate_separator(graph, sep)
    balance = max((len(c) for c in comps), default=0) / max(graph.n, 1)
    record = ExperimentRecord(
        kind=instance.kind, size=instance.size, seed=int(seed),
        n=graph.n, m=graph.m, method=method,
        separator_size=len(sep), balance=float(balance),
        wall_time=float(wall), lp_value=lp_value, params=params,
    )
    return sep, comps, record


def separator_json_dict(instance: Instance, separator, components,
                        record: ExperimentRecord) -> dict:
    return {
        "separator": [int(v) for v in separator],
        "components": [[int(v) for v in c] for c in components],
        "record": record.to_json_dict(),
    }


# ---------------------------------------------------------------------------
# scaling study

@dataclass(frozen=True)
class ScalingStudy:
    records: tuple
    exponent: float | None
    per_size: tuple  # rows (size, median_m, median_separator)

    def csv(self) -> str:
        buf = io.StringIO()
        buf.write("kind,size,trial,seed,n,m,method,separator_size,balance\n")
        for (_, trial), rec in self.records:
            buf.write(
                f"{rec.kind},{rec.size},{trial},{rec.seed},{rec.n},{rec.m},"
                f"{rec.method},{rec.separator_size},{rec.balance:.6f}\n"
            )
        return buf.getvalue()


def _run_trial(args):
    kind, size, trial, seed, method, h = args
    inst_seed = substream_seed(seed, "scale", kind, size, trial)
    instance = generate(kind, size, inst_seed)
    _, _, record = separate(instance, method=method, seed=inst_seed, h=h)
    return (size, trial), record


def scaling_study(kind: str = "random-segments", sizes=(), trials: int = 5,
                  seed: int = 0, *, method: str = "spectral",
                  h: int = 2) -> ScalingStudy:
    """Median separator size per instance size and its log-log slope
    against the edge count.

    Sizes must be ascending.  With fewer than two distinct median edge
    counts (or zero medians) the regression is degenerate and the
    exponent is reported as None.
    """
    sizes = [int(s) for s in sizes]
    if not sizes:
        raise ValueError("need at least one size")
    if sizes != sorted(sizes):
        raise ValueError("sizes must be ascending")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    jobs = [
        (kind, size, trial, seed, method, h)
        for size in sizes
        for trial in range(trials)
    ]
    workers = worker_count()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_trial, jobs))
    else:
        results = [_run_trial(j) for j in jobs]
    results.sort(key=lambda kv: kv[0])
    records = tuple(results)

    per_size = []
    for size in sizes:
        recs = [rec for (s, _), rec in records if s == size]
        med_m = float(np.median([r.m for r in recs]))
        med_sep = float(np.median([r.separator_size for r in recs]))
        per_size.append((size, med_m, med_sep))

    xs = [m for _, m, s in per_size if m > 0 and s > 0]
    ys = [s for _, m, s in per_size if m > 0 and s > 0]
    exponent = None
    if len(xs) >= 2 and len(set(xs)) >= 2:
        slope = np.polyfit(np.log(xs), np.log(ys), 1)[0]
        exponent = float(slope)
    return ScalingStudy(records=records, exponent=exponent,
                        per_size=tuple(per_size))


def dump_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def fmt_exponent(exponent) -> str:
    if exponent is None or (isinstance(exponent, float) and math.isnan(exponent)):
        return "undefined"
    return f"{exponent:.4f}"
