"""The benchmark's three workloads.

Each workload turns a seed into inputs (``make_inputs``), writes any input
files (``prepare``), runs one round of operations through reluland's public
entry points (``run``, the timed part), reads the outputs back (``collect``)
and checks them against ``reference`` or against properties the method
must have (``check``, which returns one message per violation).  A round
is a fixed list of operations, so rounds of one run repeat the same work.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as R
import reluland as rl
import reluland.cli as rl_cli


@dataclass
class Round:
    """One round's results: ``outputs`` is what ``collect`` reads them from."""

    outputs: object
    attempted: int
    failed: int
    counters: dict = field(default_factory=dict)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _max_abs(xs) -> float:
    return max((abs(float(x)) for x in xs), default=0.0)


# ---------------------------------------------------------------------------
# ensemble: the paper's GD experiment
# ---------------------------------------------------------------------------

class Ensemble:
    """``train.ensemble`` on the benchmark target with the paper's settings.

    The seed block is fixed, seven consecutive seeds of the pinned 50-run
    ensemble (its 10th to 16th): GD run lengths differ by orders of
    magnitude between Xavier seeds, so a seed-chosen block would make the
    timings measure the block.  This block mixes runs of 0 to 19,563
    iterations and keeps a round short, which the speed normalization in
    ``run.py`` needs.
    """

    name = "ensemble"
    op_name = "GD runs"
    FIRST_SEED = 20260818
    RUNS = 7

    def make_inputs(self, seed: int) -> dict:
        return {"target": (1.0 / 3.0, 2.0 / 3.0, 0.0, 1.0),
                "config": {"H": 4, "lr": 1.0 / 20.0, "grad_tol": 1e-4, "dedup_l2": 1e-4,
                           "master_seed": self.FIRST_SEED, "runs": self.RUNS}}

    def prepare(self, inputs: dict, work: Path) -> None:
        pass

    def run(self, inputs: dict, work: Path) -> Round:
        cfg = inputs["config"]
        try:
            report = rl.ensemble(rl.BenchmarkTarget(*inputs["target"]), rl.TrainConfig(**cfg))
        except Exception:  # a raising ensemble fails every run it held
            traceback.print_exc(file=sys.stderr)
            return Round(None, cfg["runs"], cfg["runs"])
        return Round(report, cfg["runs"], 0,
                     {"gd_iterations": sum(r.iterations for r in report.runs)})

    def collect(self, inputs: dict, work: Path, rnd: Round):
        return rnd.outputs

    def check(self, inputs: dict, report) -> list[str]:
        if report is None:
            return []
        cfg = inputs["config"]
        H, tol, dedup = cfg["H"], cfg["grad_tol"], cfg["dedup_l2"]
        t = rl.BenchmarkTarget(*inputs["target"])
        ft = R.RefTarget.from_pointwise(t)
        bad = []
        seeds = list(range(cfg["master_seed"], cfg["master_seed"] + cfg["runs"]))
        if [r.seed for r in report.runs] != seeds:
            bad.append("runs are not the configured seed block in order")
        by_seed = {r.seed: r for r in report.runs}
        for r in report.runs:
            if not r.converged or r.diverged:
                bad.append(f"seed {r.seed}: did not converge")
            th = r.theta.theta
            ref_g = R.gradient(th, H, ft)
            gm = _max_abs(ref_g)
            if not gm < tol:
                bad.append(f"seed {r.seed}: reference |grad| {gm:.3e} >= grad_tol")
            if abs(gm - r.grad_max_norm) > 1e-10:
                bad.append(f"seed {r.seed}: grad_max_norm {r.grad_max_norm!r} vs reference {gm!r}")
            gap = _max_abs(ref_g - rl.grad(r.theta, t).values)
            if gap > 1e-10:
                bad.append(f"seed {r.seed}: grad at the final theta is {gap:.2e} off the reference")
            ref_risk = R.risk(th, H, ft)
            if not R.close(r.risk, ref_risk, 1e-9, 1e-12):
                bad.append(f"seed {r.seed}: risk {r.risk!r} vs reference {ref_risk!r}")
            real = r.realization
            x = np.linspace(ft.a, ft.b, 65)
            fn = R.piecewise_linear(real.a, real.b, real.kinks, real.slopes, real.offset)
            if _max_abs(fn(x) - R.net(th, H, x)) > 1e-9:
                bad.append(f"seed {r.seed}: realization does not match theta")
        members = [s for cl in report.clusters for s in cl.seeds]
        live = sorted(r.seed for r in report.runs if not r.diverged)
        if sorted(members) != live:
            bad.append("non-diverged seeds are not each in exactly one cluster")
        reps = [cl.representative for cl in report.clusters]
        for i in range(len(reps)):
            for j in range(i):
                d = R.l2_distance(reps[i], reps[j])
                if d < dedup * (1.0 - 1e-9):
                    bad.append(f"representatives {j} and {i} only {d:.3e} apart")
        for k, cl in enumerate(report.clusters):
            head = by_seed.get(cl.seeds[0]) if cl.seeds else None
            if head is None or cl.risk != head.risk or cl.representative != head.realization:
                bad.append(f"cluster {k}: representative is not its first seed's run")
                continue
            for s in cl.seeds[1:]:
                if s in by_seed and R.l2_distance(by_seed[s].realization,
                                                  cl.representative) >= dedup * (1.0 + 1e-9):
                    bad.append(f"cluster {k}: seed {s} is not within dedup_l2")
        risks = [cl.risk for cl in report.clusters]
        if risks != sorted(risks):
            bad.append("clusters are not sorted by risk")
        return bad


# ---------------------------------------------------------------------------
# width1: catalog + gradient flow through the CLI
# ---------------------------------------------------------------------------

def cli(args: list[str]) -> int:
    """Run ``reluland <args>`` in-process and return its exit code; the
    command's output is shown only when the exit code is not 0."""
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            rl_cli.main.main(args=args, prog_name="reluland", standalone_mode=True)
        except SystemExit as exc:
            code = 0 if exc.code is None else int(exc.code)
        except Exception:  # a traceback is a failed command, as at a shell
            traceback.print_exc(file=out)
            code = 1
    if code:
        print(f"reluland {' '.join(args)} exited {code}:\n{out.getvalue()}", file=sys.stderr)
    return code


def read_csv(path: Path) -> list[tuple[float, float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [(float(x), float(y)) for x, y in rows[1:]]


def entry_theta(entry: dict, rows: list[tuple[float, float]], a: float, b: float) -> list[float]:
    """Width-1 parameters realizing a catalog entry: kink entries from
    (q, c, vw), the constant and affine entries from their CSV samples."""
    if entry["kind"].startswith("kink"):
        return R.kink_theta(entry["q"], entry["c"], entry["vw"], entry["kind"], a, b)
    y0 = rows[0][1]
    if entry["kind"] == "constant":
        return [1.0, -(b + 0.5 * (b - a)), 1.0, y0]  # neuron parked right of [a, b]
    slope = (rows[-1][1] - y0) / (rows[-1][0] - rows[0][0])
    return [1.0, b - 2.0 * a, slope, y0 - slope * (b - a)]  # active on all of [a, b]


class Width1:
    """``reluland enumerate`` then ``reluland gf`` from a perturbed catalog
    minimum, for seeded random continuous piecewise-polynomial targets.

    Every round holds two targets of each (pieces, degree) shape below, so
    the amount of work hardly depends on the seed; domain, breakpoints,
    coefficients and the perturbation are drawn from it.  The flow runs
    only to ``T_END``: stiff targets need thousands of RK4 steps to t=20.
    """

    name = "width1"
    op_name = "targets"
    SHAPES = ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)) * 2
    T_END = 2.0
    RTOL = 1e-8
    DELTA = 1e-3

    def make_inputs(self, seed: int) -> list[dict]:
        rng = _rng(seed)
        out = []
        for pieces, degree in self.SHAPES:
            a = float(rng.uniform(-0.5, 0.5))
            b = a + float(rng.uniform(0.5, 1.5))
            gaps = rng.uniform(0.5, 1.5, pieces)
            bps = [a] + [float(a + (b - a) * x) for x in np.cumsum(gaps)[:-1] / gaps.sum()] + [b]
            level = float(rng.uniform(-1.0, 1.0))
            coeffs = []
            for i in range(pieces):
                cs = rng.uniform(-1.0, 1.0, degree + 1)
                cs[0] += level - np.polynomial.polynomial.polyval(bps[i], cs)
                level = float(np.polynomial.polynomial.polyval(bps[i + 1], cs))
                coeffs.append([float(c) for c in cs])
            delta = rng.normal(0.0, 1.0, 4)
            delta *= self.DELTA / np.linalg.norm(delta)
            out.append({"spec": {"kind": "piecewise_poly", "breakpoints": bps,
                                 "pieces": coeffs},
                        "delta": [float(d) for d in delta]})
        return out

    def prepare(self, inputs: list[dict], work: Path) -> None:
        for i, item in enumerate(inputs):
            (work / f"t{i}").mkdir(parents=True, exist_ok=True)
            (work / f"t{i}" / "target.json").write_text(json.dumps(item["spec"]))

    def run(self, inputs: list[dict], work: Path) -> Round:
        ok = [False] * len(inputs)
        steps = 0
        for i, item in enumerate(inputs):
            d = work / f"t{i}"
            spec = str(d / "target.json")
            if cli(["enumerate", "--target", spec, "--out", str(d), "--force"]) != 0:
                continue
            entry = json.loads((d / "catalog.json").read_text())["entries"][0]
            a, b = item["spec"]["breakpoints"][0], item["spec"]["breakpoints"][-1]
            theta = entry_theta(entry, read_csv(d / "catalog_entry_0.csv"), a, b)
            theta0 = [x + dx for x, dx in zip(theta, item["delta"])]
            (d / "theta0.json").write_text(json.dumps({"H": 1, "theta": theta0}))
            if cli(["gf", "--target", spec, "--theta0", str(d / "theta0.json"),
                    "--t-end", repr(self.T_END), "--rtol", repr(self.RTOL),
                    "--out", str(d), "--force"]) != 0:
                continue
            gf = json.loads((d / "gf_report.json").read_text())
            steps += gf["steps_accepted"] + gf["steps_rejected"]
            ok[i] = True
        return Round(ok, len(inputs), ok.count(False),
                     {"targets": len(inputs), "gf_steps": steps})

    def collect(self, inputs: list[dict], work: Path, rnd: Round) -> list:
        """The reports of the targets whose commands exited 0, else None."""
        out = []
        for i, done in enumerate(rnd.outputs):
            if not done:
                out.append(None)
                continue
            d = work / f"t{i}"
            catalog = json.loads((d / "catalog.json").read_text())
            gf = json.loads((d / "gf_report.json").read_text())
            rows = [read_csv(d / f"catalog_entry_{k}.csv")
                    for k in range(len(catalog["entries"]))]
            out.append({"catalog": catalog, "rows": rows, "gf": gf})
            rnd.counters["bytes"] = rnd.counters.get("bytes", 0) + sum(
                p.stat().st_size for p in d.iterdir()
                if p.name not in ("target.json", "theta0.json"))
        return out

    def check(self, inputs: list[dict], outputs: list) -> list[str]:
        bad = []
        for i, (item, out) in enumerate(zip(inputs, outputs)):
            if out is None:
                continue
            bad += [f"target {i}: {msg}" for msg in self.check_target(item, out)]
        return bad

    def check_target(self, item: dict, out: dict) -> list[str]:
        spec = item["spec"]
        ft = R.RefTarget.from_spec(spec)
        a, b = ft.a, ft.b
        catalog, gf = out["catalog"], out["gf"]
        entries = catalog["entries"]
        bad = []
        if catalog["pass"] is not True or catalog["oracle_check"] is not True:
            bad.append("catalog does not pass")
        if gf["pass"] is not True:
            bad.append("gf report does not pass")
        kinds = [e["kind"] for e in entries]
        if "constant" not in kinds or "affine" not in kinds:
            bad.append(f"catalog lacks the constant or affine entry: {kinds}")
        risks = [e["risk"] for e in entries]
        if risks != sorted(risks):
            bad.append("catalog entries are not sorted by risk")
        scale = 1.0 + _max_abs(ft.f(np.linspace(a, b, 33)))
        for e, rows in zip(entries, out["rows"]):
            ys = [y for _, y in rows]
            if e["kind"] == "constant":
                m = R.mean(ft)
                if max(abs(y - m) for y in ys) > 1e-12 * (1.0 + abs(m)):
                    bad.append(f"constant entry {ys[0]!r} vs reference mean {m!r}")
            elif e["kind"] == "affine":
                slope, y_a = R.lsq_line(ft)
                got = (ys[-1] - ys[0]) / (rows[-1][0] - rows[0][0])
                if abs(got - slope) > 1e-9 * (1.0 + abs(slope)) or abs(ys[0] - y_a) > 1e-9 * scale:
                    bad.append(f"affine entry ({got!r}, {ys[0]!r}) vs reference "
                               f"({slope!r}, {y_a!r})")
            theta = entry_theta(e, rows, a, b)
            if e["kind"].startswith("kink"):
                gm = _max_abs(R.gradient(theta, 1, ft))
                if not gm < 1e-9:
                    bad.append(f"{e['kind']} q={e['q']!r}: reference |grad| {gm:.3e}")
            ref_risk = R.risk(theta, 1, ft)
            if not R.close(e["risk"], ref_risk, 1e-9, 1e-3):
                bad.append(f"{e['kind']} risk {e['risk']!r} vs reference {ref_risk!r}")
        samples = [r for _, r in gf["samples"]]
        if not all(r1 - r0 <= 10.0 * self.RTOL * (1.0 + abs(r0))
                   for r0, r1 in zip(samples, samples[1:])):
            bad.append("gradient-flow risks are not monotone")
        if gf["step_underflow"] or gf["monotone"] is not True:
            bad.append("gradient-flow report flags underflow or non-monotone risk")
        if entries and abs(gf["final_risk"] - entries[0]["risk"]) > 1e-6:
            bad.append(f"gf final risk {gf['final_risk']!r} vs catalog minimum "
                       f"{entries[0]['risk']!r}")
        return bad


# ---------------------------------------------------------------------------
# certify: the minima family's certificates on varied benchmark targets
# ---------------------------------------------------------------------------

class Certify:
    """Every certificate of the single-kink family for one (target, kink)
    sample: common risk with both backends, zero gradient, Hessians, the
    two-kink gap with both backends, a local-minimum probe, and gradient
    consistency at a random smooth point.  Each target object is built
    inside the round, so its integral-of-f**2 cache starts empty."""

    name = "certify"
    op_name = "certificates"
    CERTIFICATES = 48
    H = 4
    PROBES = 100
    PROBE_RADIUS = 1e-4
    SMOOTH_R = 10 ** 6

    def make_inputs(self, seed: int) -> list[dict]:
        rng = _rng(seed)
        out = []
        n = 3 * self.H + 1
        for k in range(self.CERTIFICATES):
            alpha = float(rng.uniform(0.2, 0.4))
            beta = float(rng.uniform(0.6, 0.8))
            a = float(rng.uniform(-0.5, 0.5))
            b = a + float(rng.uniform(0.5, 1.5))
            x = alpha + (beta - alpha) * float(rng.uniform(0.2, 0.8))
            eps = 0.25 * min(x - alpha, beta - x, 0.2)
            probes = []
            for _ in range(self.PROBES):
                d = rng.normal(0.0, 1.0, n)
                d *= rng.uniform(0.0, self.PROBE_RADIUS) / np.linalg.norm(d)
                probes.append([float(v) for v in d])
            out.append({"target": (alpha, beta, a, b), "x": x,
                        "y": float(rng.uniform(0.5, 2.0)), "eps": eps, "seed": k,
                        "probes": probes, "point": self._smooth_point(rng, k, a, b)})
        return out

    @staticmethod
    def _smooth_point(rng, k: int, a: float, b: float) -> tuple[int, list[float]]:
        """A random parameter vector with every kink at least 2e-3 (relative)
        from both domain endpoints, alternating widths 1 and 4."""
        H = 1 if k % 2 == 0 else 4
        width = b - a
        while True:
            w = rng.uniform(0.9, 1.1, H) * rng.choice([-1.0, 1.0], H) / width
            q = rng.uniform(-0.15, 1.15, H)
            if min(abs(q)) >= 2e-3 and min(abs(1.0 - q)) >= 2e-3:
                break
        v = rng.uniform(0.02, 0.08, H) * rng.choice([-1.0, 1.0], H)
        bias = -w * (a + q * width)
        return H, [float(t) for t in (*w, *bias, *v, rng.uniform(-0.02, 0.02))]

    def prepare(self, inputs: list[dict], work: Path) -> None:
        pass

    def run(self, inputs: list[dict], work: Path) -> Round:
        out = []
        failed = 0
        for item in inputs:
            try:
                out.append(self.certificate(item))
            except Exception:  # any raise fails this certificate only
                traceback.print_exc(file=sys.stderr)
                failed += 1
                out.append(None)
        return Round(out, len(inputs), failed)

    def certificate(self, item: dict) -> dict:
        t = rl.BenchmarkTarget(*item["target"])
        H = self.H
        x, seed = item["x"], item["seed"]
        res = {"minima_risk": (rl.minima_risk(t), rl.minima_risk(t, method="simpson"))}
        s = rl.sample_M(t, H, x, item["y"], seed=seed)
        res["theta"] = s.theta.theta
        res["grad"] = rl.grad(s.theta, t).values
        res["risk"] = rl.risk(s.theta, t)
        res["hessian_all"] = rl.hessian_fd(s.theta, t, coords="all")
        res["hessian_restricted"] = rl.hessian_fd(s.theta, t, coords="restricted4")
        res["hessian_closed"] = rl.closed_hessian_M(x, s.theta.w(0), t)
        res["gap"] = (rl.certify_gap(t, H, x, item["eps"], seed=seed),
                      rl.certify_gap(t, H, x, item["eps"], seed=seed, method="simpson"))
        res["probe"] = min(
            rl.risk(rl.Params(H, tuple(u + d for u, d in zip(s.theta.theta, ds))), t)
            for ds in item["probes"])
        Hp, th = item["point"]
        p = rl.Params(Hp, tuple(th))
        res["point_grad"] = rl.grad(p, t).values
        res["point_fd"] = rl.fd_gradient(p, t, h=1e-6).values
        res["point_smooth"] = rl.grad_smooth(p, t, self.SMOOTH_R, tol=1e-10).values
        return res

    def collect(self, inputs: list[dict], work: Path, rnd: Round):
        return rnd.outputs

    def check(self, inputs: list[dict], outputs: list) -> list[str]:
        bad = []
        for i, (item, res) in enumerate(zip(inputs, outputs)):
            if res is not None:
                bad += [f"certificate {i}: {msg}" for msg in self.check_one(item, res)]
        return bad

    def check_one(self, item: dict, res: dict) -> list[str]:
        alpha, beta, a, b = item["target"]
        H = self.H
        ft = R.RefTarget.from_pointwise(rl.BenchmarkTarget(alpha, beta, a, b))
        sq01 = R.sq_integral(R.RefTarget.from_pointwise(rl.BenchmarkTarget(alpha, beta)))
        level = (b - a) * (sq01 - 1.0 / 48.0)
        bad = []
        gm = _max_abs(R.gradient(res["theta"], H, ft))
        if not (gm < 1e-10 and _max_abs(res["grad"]) < 1e-10):
            bad.append(f"sample gradient not zero (reference {gm:.2e}, "
                       f"program {_max_abs(res['grad']):.2e})")
        gk, si = res["minima_risk"]
        for what, val in (("risk", res["risk"]), ("minima_risk gk", gk),
                          ("minima_risk simpson", si)):
            if not R.close(val, level, 1e-9):
                bad.append(f"{what} {val!r} vs reference (b-a)(int f^2 - 1/48) = {level!r}")
        if abs(gk - si) >= 1e-10:
            bad.append(f"quadrature backends differ by {abs(gk - si):.2e}")
        full = res["hessian_all"]
        eig = np.linalg.eigvalsh(np.array(full.matrix))
        rank = int(np.sum(np.abs(eig) > full.rank_tol * np.max(np.abs(eig))))
        if full.numerical_rank != 2 or rank != 2 or not eig[0] > -1e-8:
            bad.append(f"Hessian rank {full.numerical_rank}/{rank}, min eigenvalue {eig[0]:.2e}")
        restricted, closed = res["hessian_restricted"].matrix, res["hessian_closed"].matrix
        rel = max(abs(restricted[i][j] - closed[i][j]) / abs(closed[i][j])
                  for i in range(4) for j in range(4))
        if not rel < 1e-5:
            bad.append(f"restricted Hessian vs closed form: rel {rel:.2e}")
        gk_cert, si_cert = res["gap"]
        if (not (gk_cert.gap > 0.0 and si_cert.gap > 0.0)
                or abs(gk_cert.gap - si_cert.gap) >= 1e-10):
            bad.append(f"gap {gk_cert.gap!r} / {si_cert.gap!r} not positive and equal")
        r_theta = R.risk(gk_cert.theta.theta, H, ft)
        r_wit = R.risk(gk_cert.witness.theta, H, ft)
        if not (R.close(gk_cert.risk_theta, r_theta, 1e-9)
                and R.close(gk_cert.risk_witness, r_wit, 1e-9) and r_theta - r_wit > 0.0):
            bad.append(f"gap risks ({gk_cert.risk_theta!r}, {gk_cert.risk_witness!r}) vs "
                       f"reference ({r_theta!r}, {r_wit!r})")
        if res["probe"] < res["risk"] - 1e-9:
            bad.append(f"probe lowered the risk to {res['probe']!r} from {res['risk']!r}")
        Hp, th = item["point"]
        g = res["point_grad"]
        ref_g = R.gradient(th, Hp, ft)
        fd_gap = _max_abs(u - v for u, v in zip(g, res["point_fd"]))
        sm_gap = _max_abs(u - v for u, v in zip(g, res["point_smooth"]))
        ref_gap = _max_abs(u - v for u, v in zip(g, ref_g))
        if not (fd_gap < 1e-5 and sm_gap < 1e-3 and ref_gap < 1e-9):
            bad.append(f"gradient consistency: fd {fd_gap:.2e}, smooth {sm_gap:.2e}, "
                       f"reference {ref_gap:.2e}")
        return bad


WORKLOADS = {w.name: w for w in (Ensemble(), Width1(), Certify())}
