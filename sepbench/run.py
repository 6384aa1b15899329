"""Benchmark runner for rigsep.

    python3 sepbench/run.py --workload strings --seed 1 --seconds 20 --trace 0

Runs one workload's operations from the seed: one untimed warm-up pass,
then timed passes.  A fixed reference computation (``hostref``) is timed
between blocks of operations; each operation's time is its best repeat
over the best reference sample paired with its repeats, in seconds on a
host where the reference takes ``hostref.NOMINAL_S``, summed per stage.
Every output is checked by ``checks`` (which never imports rigsep),
repeats must reproduce the warm-up output exactly, and each check must
reject a corrupted copy of a genuine output.  The last line of standard
output is one JSON object; the full record of the run goes to
``sepbench/results/``.

With ``--trace 1`` each timed pass is followed by a traced pass, and the
per-layer metrics of ``spans.PER_LAYER`` are printed instead.
"""
from __future__ import annotations

import os
import sys

PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "RIGSEP_WORKERS": "1",
    "PYTHONHASHSEED": "0",
}

if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED.items()):
    # thread counts must be set before numpy loads and the hash seed before
    # the interpreter starts, so restart in place with the pinned values
    os.environ.update(PINNED)
    os.execv(sys.executable, [sys.executable] + sys.argv)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import hostref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def process_age() -> float:
    """Seconds since this process started (restart included)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rpartition(")")[2].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def import_rigsep():
    if not (SRC / "rigsep" / "__init__.py").is_file():
        sys.exit(f"sepbench: no rigsep sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import rigsep

    if Path(rigsep.__file__).resolve().parent != SRC / "rigsep":
        sys.exit(f"sepbench: rigsep was imported from {rigsep.__file__}, "
                 f"not from {SRC}")
    return rigsep


# seconds of operations between two reference samples in a timed pass
BLOCK_S = 0.5


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


class Runner:
    def __init__(self, ops, ref):
        self.ops = ops
        self.ref = ref
        self.args: dict = {}
        self.warm: dict = {}
        self.digests: dict = {}
        self.errors: dict = {}
        # op name -> [(seconds, local reference seconds)] per timed repeat
        self.times: dict = {"plain": {}, "traced": {}}
        self.ref_samples: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _execute(self, op):
        """Run one operation; returns (seconds, plain output or None if it
        raised, digest of the outcome)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.call(self.args[op.name])
        except Exception as exc:  # a failing operation is data here
            dt = time.perf_counter() - t0
            self.failed += 1
            msg = f"{type(exc).__name__}: {exc}"
            if op.expect_error is None or op.expect_error not in msg:
                self.problems.append(f"{op.name} failed: {msg}")
            self.errors[op.name] = msg
            return dt, None, digest(("error", msg))
        dt = time.perf_counter() - t0
        plain = op.plain(out)
        return dt, plain, digest(plain)

    def warm_up(self):
        for op in self.ops:
            self.args[op.name] = op.prepare(self.warm)
            _, plain, dig = self._execute(op)
            self.warm[op.name] = plain
            self.digests[op.name] = dig

    def timed_pass(self, mode: str):
        """One pass over the operations in blocks of about BLOCK_S seconds,
        with a reference sample between blocks.  Each repeat is paired with
        the mean of the samples on either side of its block: the host's
        speed near the moment it ran."""
        times = self.times[mode]
        block: list = []
        block_s = 0.0
        before = self.ref.run()
        self.ref_samples.append(before)
        for i, op in enumerate(self.ops):
            dt, _, dig = self._execute(op)
            if dig != self.digests[op.name]:
                self.problems.append(f"{op.name}: {mode} repeat output differs "
                                     "from the warm-up output")
            block.append((op.name, dt))
            block_s += dt
            nxt = self.ops[i + 1] if i + 1 < len(self.ops) else None
            if block_s >= BLOCK_S or nxt is None or nxt.stage != op.stage:
                after = self.ref.run()
                self.ref_samples.append(after)
                local = 0.5 * (before + after)
                for name, t in block:
                    times.setdefault(name, []).append((t, local))
                block, block_s, before = [], 0.0, after

    def stage_seconds(self, mode: str) -> dict:
        """Per stage, the sum over operations of the best repeat's time
        over the best of the reference samples paired with its repeats, in
        seconds on the nominal host.  Both minima are taken over the same
        number of tries at the same moments, so a long operation that no
        calm stretch could hold is scaled by a reference that saw the same
        contention, and a short one that found a calm stretch by one that
        did too."""
        out = {}
        for op in self.ops:
            key = op.stage + "_s"
            pairs = self.times[mode][op.name]
            best = min(t for t, _ in pairs) / min(r for _, r in pairs)
            out[key] = out.get(key, 0.0) + best * hostref.NOMINAL_S
        return out

    def check_outputs(self):
        """Independent checks on every warm-up output, then the self-test."""
        tested: set = set()
        for op in self.ops:
            plain = self.warm[op.name]
            if plain is None:
                continue
            args = self.args[op.name]
            ev = op.evidence(args) if op.evidence else None
            try:
                op.check(args, plain, ev)
            except checks.CheckError as exc:
                self.problems.append(f"{op.name}: {exc}")
                continue
            if op.kind in tested:
                continue
            tested.add(op.kind)
            try:
                op.check(*op.corrupt(args, plain, ev))
            except checks.CheckError:
                pass
            else:
                self.problems.append(f"self-test: the {op.kind} check accepted "
                                     f"a corrupted copy of {op.name}")
        for op in self.ops:
            if op.kind not in tested and self.warm[op.name] is not None:
                self.problems.append(f"self-test: no genuine {op.kind} output")
                tested.add(op.kind)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = parser.parse_args(argv)
    if a.seconds < 1:
        parser.error("--seconds must be positive")

    rs = import_rigsep()
    ref = hostref.Reference()
    runner = Runner(workloads.build(a.workload, rs, a.seed), ref)
    runner.warm_up()
    passes = max(2, round(a.seconds / workloads.PASS_SECONDS[a.workload]))
    setup_raw = process_age()

    tracer = spans.Tracer() if a.trace else None
    for _ in range(passes):
        runner.timed_pass("plain")
        if tracer:
            tracer.install()
            try:
                runner.timed_pass("traced")
            finally:
                tracer.remove()
    timed_end = process_age()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # whole-run figures (set-up, per-layer self times) use the median sample
    scale = hostref.NOMINAL_S / statistics.median(runner.ref_samples)
    stages = runner.stage_seconds("plain")
    if tracer:
        traced = runner.stage_seconds("traced")
        metrics = tracer.metrics(passes, scale)
        metrics["trace.overhead_s"] = sum(traced.values()) - sum(stages.values())
        units = {name: ("s" if name.endswith("_s") else "count")
                 for name in spans.PER_LAYER}
    else:
        metrics = {
            "setup_s": setup_raw * scale,
            **stages,
            "separator_vertices": sum(len(runner.warm[op.name]) for op in runner.ops
                                      if op.separator),
            "peak_rss_mb": peak_mb,
        }
        units = {"setup_s": "s", "generate_s": "s", "separate_s": "s",
                 "certify_s": "s", "separator_vertices": "count",
                 "peak_rss_mb": "MB"}

    runner.check_outputs()
    for p in runner.problems:
        print(f"sepbench: {p}", file=sys.stderr)

    record = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
        "trace": a.trace, "passes": passes, "host_factor": 1.0 / scale,
        "setup_raw_s": setup_raw, "timed_raw_s": timed_end - setup_raw,
        "ref_samples_s": runner.ref_samples, "peak_rss_mb": peak_mb,
        "times_s": runner.times, "errors": runner.errors,
        "problems": runner.problems, "metrics": metrics,
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
