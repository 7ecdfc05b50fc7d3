"""reluland benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {ensemble,width1,certify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a reluland checkout; the package is imported from
that checkout's ``src/``.  The workload's round is repeated until
``--seconds`` have passed (at least once).  With ``--trace 0`` the last
line of standard output holds the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a second, traced series of rounds.  Outputs of
the first round are checked against ``reference``; every later round must
reproduce them exactly.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_SAMPLES = 7
# Round times are scaled to the machine speed at which one calibration
# kernel takes REF_KERNEL_S (about its time on the machine in README.md).
REF_KERNEL_S = 2.5e-3
KERNEL_SAMPLES = 9

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("ensemble", "width1", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and make the inputs, then exit (times set-up)")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def import_package():
    """Import reluland from this checkout's src/, or exit 2."""
    if not (SRC / "reluland" / "__init__.py").is_file():
        print(f"run.py: no reluland package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import reluland
    import reluland.cli  # noqa: F401  (bound before tracing installs)
    if Path(reluland.__file__).resolve().parent != SRC / "reluland":
        print(f"run.py: imported reluland from {reluland.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)


class _Segment:
    __slots__ = ("x0", "x1", "y0", "m")

    def __init__(self, x0: float, x1: float, y0: float, m: float):
        self.x0, self.x1, self.y0, self.m = x0, x1, y0, m

    def area(self, lo: float, hi: float) -> float:
        lo, hi = max(lo, self.x0), min(hi, self.x1)
        if hi <= lo:
            return 0.0
        return (hi - lo) * (self.y0 + self.m * (0.5 * (lo + hi) - self.x0))


def _horner(cs, x: float) -> float:
    acc = 0.0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _kernel() -> float:
    """Fixed pure-Python work of the same kind as the program's: kinks
    sorted into nodes, bisection, Horner loops, method calls on small
    objects and float arithmetic.  It follows the program's speed on a
    shared machine better than a tight arithmetic loop (see README.md)."""
    acc = 0.0
    cs = (0.7, -1.1, 0.3, 0.05)
    for rep in range(40):
        theta = [math.sin(0.37 * (rep + i)) for i in range(13)]
        qs = sorted(-theta[4 + j] / theta[j] for j in range(4) if theta[j] != 0.0)
        nodes = [0.0] + [q for q in qs if 0.0 < q < 1.0] + [1.0]
        vals = [_horner(cs, x) + theta[12] for x in nodes]
        segs = [_Segment(x0, x1, y0, (y1 - y0) / (x1 - x0))
                for x0, x1, y0, y1 in zip(nodes, nodes[1:], vals, vals[1:])]
        for k in range(24):
            x = k / 23.0
            i = min(bisect.bisect_right(nodes, x) - 1, len(segs) - 1)
            acc += segs[i].area(0.0, x) - _horner(cs, x) * 1e-3
        acc += math.sqrt(abs(acc)) * 1e-9
    return acc


def kernel_time() -> float:
    """Median time of the calibration kernel: the machine's speed now."""
    times = []
    for _ in range(KERNEL_SAMPLES):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def at_reference_speed(seconds: float, kernel_before: float, kernel_after: float) -> float:
    return seconds * 2.0 * REF_KERNEL_S / (kernel_before + kernel_after)


@dataclass
class Series:
    times: list = field(default_factory=list)   # wall time of each round
    scaled: list = field(default_factory=list)  # the same at the reference speed
    rounds: list = field(default_factory=list)
    first: object = None                        # the first round's outputs
    mismatched: int = 0  # later rounds whose outputs differ from the first

    @property
    def wall(self) -> float:
        return statistics.median(self.scaled)

    def add(self, wl, inputs, work: Path, kernel_before: float) -> float:
        """Run, time and collect one round; returns the kernel time after it."""
        t0 = time.perf_counter()
        rnd = wl.run(inputs, work)
        self.times.append(time.perf_counter() - t0)
        kernel_after = kernel_time()
        self.scaled.append(at_reference_speed(self.times[-1], kernel_before, kernel_after))
        outputs = wl.collect(inputs, work, rnd)
        if self.first is None:
            self.first = outputs
        elif outputs != self.first:
            self.mismatched += 1
        rnd.outputs = None  # only the first round's outputs are kept
        self.rounds.append(rnd)
        return kernel_after


def measure(wl, inputs, work: Path, seconds: float, tracer=None):
    """Repeat the workload's round while another round of the last one's
    length fits in ``seconds``; run at least one.  With a tracer, every
    untraced round is followed by a traced one, so that both see the same
    machine speed.

    The speed of this shared machine drifts by 15-20% over tens of
    seconds, so each round's time is divided by the mean kernel time
    measured just before and just after it, then multiplied by
    REF_KERNEL_S.  Returns the untraced and the traced Series.
    """
    plain = Series()
    traced = Series() if tracer else None
    kernel = kernel_time()
    start = time.perf_counter()
    while True:
        kernel = plain.add(wl, inputs, work, kernel)
        cycle = plain.times[-1]
        if traced is not None:
            traced.first = plain.first
            with tracer:
                kernel = traced.add(wl, inputs, work, kernel)
            cycle += traced.times[-1]
        if time.perf_counter() - start + cycle > seconds:
            return plain, traced


def time_setup(args) -> float:
    """Median set-up time of fresh interpreters, scaled like the rounds."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    kernel = [kernel_time()]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - t0
        kernel.append(kernel_time())
        samples.append(at_reference_speed(elapsed, kernel[-2], kernel[-1]))
    return statistics.median(samples)


def peak_rss_mib() -> float:
    """High-water RSS of this process plus that of any worker it waited for."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def per_call(stat, scale: float) -> float:
    return stat.total_ns / stat.calls / scale if stat.calls else 0.0


def metric_values_traced(tracer, rounds, traced_wall: float, plain_wall: float) -> dict:
    """Every per-layer metric that BENCHMARK.json lists, from traced rounds."""
    per_layer = [(m["name"], m["unit"]) for m in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    n = len(rounds)
    total = {}
    for rnd in rounds:
        for k, v in rnd.counters.items():
            total[k] = total.get(k, 0) + v
    out = {}
    for name, _ in per_layer:
        layer, _, what = name.rpartition(".")
        stat = tracer.get(layer)
        if what == "calls":
            out[name] = stat.calls / n
        elif what == "us_per_call":
            out[name] = per_call(stat, 1e3)
        elif what == "ms_per_call":
            out[name] = per_call(stat, 1e6)
    targets = total.get("targets", 0)
    iters = total.get("gd_iterations", 0)
    out["enumeration.grid_oracle.calls_per_target"] = (
        tracer.get("enumeration.grid_oracle").calls / targets if targets else 0.0)
    out["train.gd_iterations"] = iters / n
    out["train.gd_run.self_us_per_iter"] = (
        tracer.get("train.gd_run").self_ns / iters / 1e3 if iters else 0.0)
    out["train.gf_steps"] = total.get("gf_steps", 0) / n
    for name, layer in (("cli.enumerate.self_ms", "cli.enumerate"), ("cli.gf.self_ms", "cli.gf")):
        stat = tracer.get(layer)
        out[name] = stat.self_ns / stat.calls / 1e6 if stat.calls else 0.0
    out["cli.bytes_written_per_target"] = total.get("bytes", 0) / targets if targets else 0.0
    out["trace.overhead_s"] = traced_wall - plain_wall
    return {name: {"value": out[name], "unit": unit} for name, unit in per_layer}


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("RELULAND_THREADS", None)
    import_package()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    if args.setup_only:
        return 0

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl.prepare(inputs, work)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    plain, traced = measure(wl, inputs, work, args.seconds, tracer)
    rounds = plain.rounds
    ops = rounds[0].attempted - rounds[0].failed
    mismatched = plain.mismatched
    if args.trace:
        mismatched += traced.mismatched
        rounds = rounds + traced.rounds
        metrics = metric_values_traced(tracer, traced.rounds, traced.wall, plain.wall)
        (WORK / f"trace_{args.workload}.json").write_text(json.dumps(
            {name: {"calls": st.calls, "total_ns": st.total_ns, "self_ns": st.self_ns}
             for name, st in sorted(tracer.stats.items())}, indent=1))
    else:
        rss = peak_rss_mib()  # before the set-up interpreters below are children
        metrics = {
            "setup_s": {"value": time_setup(args), "unit": "s"},
            "wall_s_norm": {"value": plain.wall, "unit": "s"},
            "peak_rss_mib": {"value": rss, "unit": "MiB"},
            "ops_per_s_norm": {"value": ops / plain.wall, "unit": "1/s"},
        }

    problems = wl.check(inputs, plain.first)
    if mismatched:
        problems.append(f"{mismatched} rounds did not reproduce the first round's outputs")
    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    raw = statistics.median(plain.times)
    print(f"{args.workload}: {len(plain.times)} rounds, median {raw:.4f} s "
          f"({ops / raw:.4g} {wl.op_name}/s), {plain.wall:.4f} s at the reference speed, "
          f"per round {rounds[0].counters}, {failed}/{attempted} operations failed",
          file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
