"""Command line front end.

Subcommands: gen (write an instance), sep (run a separator method),
lp (extremal spread weights), duality (congestion vs spread report),
spectrum (Laplacian eigenvalues), scale (the sqrt-m study), oracle
(brute-force references on small instances).  Outputs are plain JSON
and CSV; for a fixed seed every artifact is byte-identical across
runs, with wall times reported on stderr only.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import bench, oracles
from .flows import check_duality, cspread_lp
from .generators import GENERATOR_KINDS, Instance, generate
from .graph import load_graph_json
from .spectral import laplacian_spectrum

__all__ = ["main"]


def _load_instance(path: str) -> Instance:
    return Instance.from_json_dict(load_graph_json(path))


def _parse_p(text: str) -> float:
    if text in ("inf", "infinity", "oo"):
        return math.inf
    p = float(text)
    return int(p) if p.is_integer() else p


def _jsonable(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        if math.isnan(x):
            return "nan"
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(float(v)) for v in x]
    return x


def _emit(payload: dict, out: str | None):
    text = json.dumps(_jsonable(payload), sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_gen(args) -> int:
    instance = generate(args.kind, args.size, args.seed)
    out = args.out or f"{args.kind}-{args.size}-{args.seed}.json"
    bench.dump_json(out, instance.to_json_dict())
    g = instance.graph
    print(f"wrote {out}: kind={args.kind} n={g.n} m={g.m} seed={args.seed}")
    return 0


def _cmd_sep(args) -> int:
    instance = _load_instance(args.instance)
    sep, comps, record = bench.separate(
        instance, method=args.method, seed=args.seed, h=args.h,
        delta=args.delta,
    )
    payload = bench.separator_json_dict(instance, sep, comps, record)
    if args.out:
        bench.dump_json(args.out, payload)
    print(
        f"separator size={record.separator_size} "
        f"balance={record.balance:.6f} method={args.method} "
        f"n={record.n} m={record.m}"
    )
    print(f"wall time {record.wall_time:.3f}s", file=sys.stderr)
    return 0


def _cmd_lp(args) -> int:
    instance = _load_instance(args.instance)
    res = cspread_lp(instance.graph, int(args.p))
    payload = {
        "p": int(args.p),
        "value": res.value,
        "omega": [float(w) for w in res.omega],
    }
    _emit(payload, args.out)
    return 0


def _cmd_duality(args) -> int:
    instance = _load_instance(args.instance)
    report = check_duality(instance.graph, _parse_p(args.p))
    _emit(asdict(report), args.out)
    return 0


def _cmd_spectrum(args) -> int:
    instance = _load_instance(args.instance)
    k = min(instance.graph.n, 6) if args.k is None else args.k
    spec = laplacian_spectrum(instance.graph, k)
    payload = {"eigenvalues": [float(x) for x in spec.eigenvalues]}
    _emit(payload, args.out)
    return 0


def _cmd_scale(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    study = bench.scaling_study(
        kind=args.kind, sizes=sizes, trials=args.trials, seed=args.seed,
        method=args.method, h=args.h,
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(study.csv())
    for size, med_m, med_sep in study.per_size:
        print(f"size={size} median_m={med_m:.1f} median_separator={med_sep:.1f}")
    print(f"exponent: {bench.fmt_exponent(study.exponent)}")
    return 0


def _cmd_oracle(args) -> int:
    instance = _load_instance(args.instance)
    g = instance.graph
    if args.which == "expansion":
        phi, witness = oracles.vertex_expansion_exact(g)
        payload = {"phi": phi, "witness": list(witness)}
    elif args.which == "separator":
        size, s = oracles.min_balanced_separator_exact(g)
        payload = {"size": int(size), "separator": list(s)}
    else:
        val = oracles.cspread_exact_small(g, int(args.p))
        payload = {"p": int(args.p), "value": val}
    _emit(payload, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rigsep",
        description="balanced vertex separators on intersection graphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("kind", choices=GENERATOR_KINDS)
    p.add_argument("size", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("sep", help="run a separator method")
    p.add_argument("instance")
    p.add_argument("--method", choices=bench.METHODS, default="spectral")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", type=int, default=2)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sep)

    p = sub.add_parser("lp", help="extremal spread weights")
    p.add_argument("instance")
    p.add_argument("--p", default="1", choices=["1", "2"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lp)

    p = sub.add_parser("duality", help="congestion vs spread report")
    p.add_argument("instance")
    p.add_argument("--p", default="inf", choices=["1", "2", "inf"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_duality)

    p = sub.add_parser("spectrum", help="smallest Laplacian eigenvalues")
    p.add_argument("instance")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("scale", help="separator size scaling study")
    p.add_argument("--kind", choices=GENERATOR_KINDS,
                   default="random-segments")
    p.add_argument("--sizes", required=True,
                   help="comma-separated ascending instance sizes")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=bench.METHODS, default="spectral")
    p.add_argument("--h", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("oracle", help="brute-force references (small n)")
    p.add_argument("instance")
    p.add_argument("--which", choices=["expansion", "separator", "cspread"],
                   default="expansion")
    p.add_argument("--p", default="1", choices=["1", "2"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"rigsep: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
