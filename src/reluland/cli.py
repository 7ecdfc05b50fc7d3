"""Command-line front end.

Subcommands: ``minima`` (writes the zero-gradient / constant-risk /
Hessian / gap certificate that ``minima.certify_family`` decides for the
benchmark target), ``enumerate`` (width-1 critical catalog for a
piecewise-polynomial target), ``train`` (GD ensemble with greedy L2
deduplication) and ``gf`` (gradient-flow integration).

Exit codes: 0 success, 1 certificate/assertion failure, 2 usage or input
error.  The library checks its own inputs and raises ``DomainError`` (or a
subclass) for any input it cannot handle; the command group maps that one
class to exit 2 in one place; ``train`` takes its defaults from
``TrainConfig``.  Reports are JSON (schema_version 1; schemas in
docs/schemas/), realizations export as CSV, and ``train --svg`` also
emits a minimal polyline overlay plot, all written by ``_finish``: a
command writes every file or none.  A report that would hold inf or NaN
is a ``DomainError``, and then nothing is written.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click

from . import __version__
from .errors import DomainError
from .minima import certify_family
from .network import params_from_json, realization_csv, uniform_grid
from .enumeration import enumerate_all
from .target import BenchmarkTarget, parse_target_json
from .train import TrainConfig, ensemble, gf_run, xavier_init, xavier_var

SCHEMA_VERSION = 1


class Rational(click.ParamType):
    """Float parameter also accepting fractions like 1/3."""

    name = "rational"

    def convert(self, value, param, ctx):
        if isinstance(value, float):
            return value
        try:
            if "/" in str(value):
                num, den = str(value).split("/", 1)
                out = float(num) / float(den)
            else:
                out = float(value)
        except (ValueError, ZeroDivisionError):
            self.fail(f"{value!r} is not a number or fraction", param, ctx)
        if not math.isfinite(out):
            self.fail(f"{value!r} is not finite", param, ctx)
        return out


RATIONAL = Rational()


def _finish(out_dir: str, force: bool, files: dict, message: str, passed: bool):
    """Write ``files`` (name -> JSON document or text) into out_dir, echo
    message and exit 0 if passed, else 1.  Every file is rendered and every
    path checked against ``force`` before the directory is made."""
    texts = {}
    for name, body in files.items():
        if isinstance(body, dict):
            try:
                body = json.dumps({"schema_version": SCHEMA_VERSION, **body}, indent=2,
                                  allow_nan=False) + "\n"
            except ValueError as exc:
                raise DomainError(f"{name} not written: {exc}") from exc
        texts[Path(out_dir) / name] = body
    for path in texts:
        if path.exists() and not force:
            raise click.UsageError(f"{path} exists; pass --force to overwrite")
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # say, --out names a file
        raise click.UsageError(f"cannot create the output directory: {exc}") from exc
    for path, text in texts.items():
        with open(path, "w", newline="") as fh:
            fh.write(text)
    click.echo(message)
    sys.exit(0 if passed else 1)


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise click.UsageError(f"cannot read {what} file: {exc}") from exc


def _load_target(target_file: str | None):
    """The target of a spec file; without one, the benchmark target."""
    if target_file is None:
        return BenchmarkTarget(1 / 3, 2 / 3, 0.0, 1.0)
    return parse_target_json(_read_text(target_file, "target"))


class _Main(click.Group):
    """Reports every library input error, a DomainError, as a usage error
    (exit 2)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except DomainError as exc:
            raise click.UsageError(str(exc)) from exc


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="reluland")
def main():
    """Loss-landscape toolkit for one-hidden-layer ReLU networks."""


@main.command("minima")
@click.option("--alpha", type=RATIONAL, default=1 / 3, show_default="1/3")
@click.option("--beta", type=RATIONAL, default=2 / 3, show_default="2/3")
@click.option("--a", "a_", type=RATIONAL, default=0.0, show_default=True)
@click.option("--b", "b_", type=RATIONAL, default=1.0, show_default=True)
@click.option("--h", "--H", "width", type=click.IntRange(min=1), default=4,
              show_default=True)
@click.option("--samples", type=click.IntRange(min=1), default=10, show_default=True,
              help="Evenly spaced kink positions inside (alpha, beta).")
@click.option("--x", "xs", type=RATIONAL, multiple=True,
              help="Explicit kink positions (overrides --samples).")
@click.option("--y", "y_", type=RATIONAL, default=1.0, show_default=True,
              help="Inner scale of the sampled parameter vectors.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--gap", is_flag=True, help="Also certify the two-kink risk gap.")
@click.option("--p", "p_", type=RATIONAL, default=0.5, show_default=True)
@click.option("--eps", type=RATIONAL, default=0.05, show_default=True)
@click.option("--out", "out_dir", default=".", show_default=True)
@click.option("--force", is_flag=True)
def cmd_minima(alpha, beta, a_, b_, width, samples, xs, y_, seed, gap, p_, eps,
               out_dir, force):
    """Certify zero gradient, constant risk and Hessian structure on the
    single-kink local-minimum family of the benchmark target."""
    t = BenchmarkTarget(alpha, beta, a_, b_)
    positions = list(xs) or [alpha + (beta - alpha) * (k + 1) / (samples + 1)
                             for k in range(samples)]
    cert = certify_family(t, width, positions, y_, seed=seed, gap=(p_, eps) if gap else None)
    doc = {
        "kind": "minima_report",
        "target": {"alpha": alpha, "beta": beta, "a": a_, "b": b_},
        "H": width,
        "reference_risk": cert.reference_risk,
        "reference_risk_cross_check": cert.reference_risk_cross_check,
        "samples": [{"x": s.sample.x, "y": s.sample.y, "grad_max_norm": s.grad_max_norm,
                     "risk": s.risk, "zero_integral_residuals": list(s.residuals),
                     "hessian_summary": {"full_rank": s.hessian.numerical_rank,
                                         "full_min_eigenvalue": s.hessian.min_eigenvalue,
                                         "restricted_vs_closed_rel": s.closed_rel},
                     "pass": s.passed} for s in cert.samples],
    }
    if cert.gap is not None:
        doc["gap"] = {"p": p_, "eps": eps, "risk_theta": cert.gap.risk_theta,
                      "risk_witness": cert.gap.risk_witness, "gap": cert.gap.gap,
                      "pass": cert.gap.passed}
    doc["pass"] = cert.passed
    _finish(out_dir, force, {"minima_report.json": doc},
            f"minima report: {'PASS' if cert.passed else 'FAIL'} "
            f"({len(cert.samples)} samples, risk {cert.reference_risk:.12g})", cert.passed)


@main.command("enumerate")
@click.option("--target", "target_file", required=True, type=click.Path())
@click.option("--out", "out_dir", default=".", show_default=True)
@click.option("--force", is_flag=True)
def cmd_enumerate(target_file, out_dir, force):
    """Enumerate all width-1 critical realizations of a continuous
    piecewise-polynomial target, cross-checked by the grid oracle."""
    catalog = enumerate_all(_load_target(target_file))
    inc, dec = catalog.orientations
    entries = [{"kind": e.kind, "q": e.q, "c": e.c, "vw": e.vw,
                "risk": e.risk, "grad_norm": e.grad_norm,
                "class": None if e.crit_class is None else e.crit_class.value}
               for e in catalog.entries]
    doc = {"kind": "catalog", "entries": entries, "oracle_check": catalog.oracle_ok,
           "brackets_increasing": [list(b) for b in inc.oracle.brackets],
           "brackets_decreasing": [list(b) for b in dec.oracle.brackets],
           "pass": catalog.passed}
    files = {"catalog.json": doc}
    for i, e in enumerate(catalog.entries):
        files[f"catalog_entry_{i}.csv"] = realization_csv(e.realization)
    failed = f", FAIL: {'; '.join(catalog.failures)}" if catalog.failures else ""
    _finish(out_dir, force, files, f"catalog: {len(entries)} entries, "
            f"oracle {'PASS' if catalog.oracle_ok else 'FAIL'}{failed}", catalog.passed)


@main.command("train")
@click.option("--target", "target_file", type=click.Path(), default=None,
              help="Target spec JSON; defaults to the benchmark target.")
@click.option("--h", "--H", "width", type=click.IntRange(min=1), default=TrainConfig.H,
              show_default=True)
@click.option("--lr", type=RATIONAL, default=TrainConfig.lr, show_default="1/20")
@click.option("--grad-tol", type=RATIONAL, default=TrainConfig.grad_tol, show_default=True)
@click.option("--max-iters", type=int, default=TrainConfig.max_iters, show_default=True)
@click.option("--seed", type=int, default=TrainConfig.master_seed, show_default=True)
@click.option("--runs", type=int, default=TrainConfig.runs, show_default=True)
@click.option("--dedup", type=RATIONAL, default=TrainConfig.dedup_l2, show_default=True)
@click.option("--svg", is_flag=True, help="Also plot target + clusters.")
@click.option("--out", "out_dir", default=".", show_default=True)
@click.option("--force", is_flag=True)
def cmd_train(target_file, width, lr, grad_tol, max_iters, seed, runs, dedup,
              svg, out_dir, force):
    """Run the GD ensemble and report deduplicated realization clusters."""
    t = _load_target(target_file)
    cfg = TrainConfig(H=width, lr=lr, grad_tol=grad_tol, max_iters=max_iters,
                      master_seed=seed, runs=runs, dedup_l2=dedup)
    report = ensemble(t, cfg)
    doc = {
        "kind": "ensemble_report",
        "config": {"H": cfg.H, "lr": cfg.lr, "grad_tol": cfg.grad_tol,
                   "max_iters": cfg.max_iters, "weight_var": xavier_var(cfg.H),
                   "dedup_l2": cfg.dedup_l2, "master_seed": cfg.master_seed,
                   "runs": cfg.runs},
        "runs": [{"seed": r.seed, "iterations": r.iterations,
                  "grad_max_norm": r.grad_max_norm, "risk": r.risk,
                  "converged": r.converged, "diverged": r.diverged,
                  "nonsmooth_hits": r.nonsmooth_hits} for r in report.runs],
        "clusters": [{"risk": c.risk, "size": len(c.seeds), "seeds": list(c.seeds)}
                     for c in report.clusters],
        "all_co_clustered": report.all_co_clustered,
        "risk_spread": report.risk_spread(),
        "pass": report.passed,
    }
    files = {"ensemble_report.json": doc}
    for i, cl in enumerate(report.clusters):
        files[f"cluster_{i}.csv"] = realization_csv(cl.representative)
    if svg:
        a, b = t.domain
        curves = [[(x, t.eval(x)) for x in uniform_grid(a, b, 257)]]
        labels = ["target"]
        for i, cl in enumerate(report.clusters):
            curves.append(cl.representative.sample(257))
            labels.append(f"cluster {i} (risk {cl.risk:.3g})")
        files["ensemble.svg"] = overlay_svg(curves, labels)
    _finish(out_dir, force, files,
            f"train: {len(report.clusters)} clusters from {runs} runs, "
            f"spread {report.risk_spread():.3g}, {'PASS' if report.passed else 'FAIL'}",
            report.passed)


@main.command("gf")
@click.option("--target", "target_file", type=click.Path(), default=None)
@click.option("--h", "--H", "width", type=click.IntRange(min=1), default=None,
              show_default="1", help="Width of the Xavier draw.")
@click.option("--theta0", "theta_file", type=click.Path(), default=None,
              help="Initial Params JSON; defaults to a seeded Xavier draw.")
@click.option("--seed", type=int, default=None, show_default="0",
              help="Seed of the Xavier draw.")
@click.option("--t-end", type=RATIONAL, default=50.0, show_default=True)
@click.option("--rtol", type=RATIONAL, default=1e-8, show_default=True)
@click.option("--out", "out_dir", default=".", show_default=True)
@click.option("--force", is_flag=True)
def cmd_gf(target_file, width, theta_file, seed, t_end, rtol, out_dir, force):
    """Integrate the gradient-flow ODE and report the risk trajectory."""
    if theta_file is not None and (width, seed) != (None, None):
        raise click.UsageError("--h and --seed only set the Xavier draw, which --theta0 "
                               "replaces")
    t = _load_target(target_file)
    p0 = (params_from_json(_read_text(theta_file, "--theta0")) if theta_file is not None
          else xavier_init(width or 1, seed or 0))
    run = gf_run(p0, t, t_end, rtol)
    doc = {
        "kind": "gf_report",
        "t_end": run.t_end, "reached_t": run.reached_t,
        "steps_accepted": run.steps_accepted, "steps_rejected": run.steps_rejected,
        "final_risk": run.final_risk, "monotone": run.monotone,
        "step_underflow": run.step_underflow,
        "samples": [[tt, rr] for tt, rr in run.samples],
        "pass": run.passed,
    }
    _finish(out_dir, force, {"gf_report.json": doc},
            f"gf: final risk {run.final_risk:.6g} at t={run.reached_t:.3g}, "
            f"{'PASS' if run.passed else 'FAIL'}", run.passed)


_PALETTE = ["#000000", "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
            "#9467bd", "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]


def overlay_svg(curves, labels) -> str:
    """Minimal polyline overlay plot as SVG text; no plotting dependency."""
    width, height, margin = 640, 400, 50  # pixels
    xs = [x for c in curves for x, _ in c]
    ys = [y for c in curves for _, y in c]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 1.0, y1 + 1.0
    sx = (width - 2 * margin) / (x1 - x0)
    sy = (height - 2 * margin) / (y1 - y0)

    def px(x):
        return margin + (x - x0) * sx

    def py(y):
        return height - margin - (y - y0) * sy

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    # axes + ticks
    parts.append(f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
                 f'y2="{height - margin}" stroke="black"/>')
    parts.append(f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
                 f'y2="{height - margin}" stroke="black"/>')
    for k in range(5):
        tx = x0 + (x1 - x0) * k / 4
        ty = y0 + (y1 - y0) * k / 4
        parts.append(f'<line x1="{px(tx):.1f}" y1="{height - margin}" '
                     f'x2="{px(tx):.1f}" y2="{height - margin + 5}" stroke="black"/>')
        parts.append(f'<text x="{px(tx):.1f}" y="{height - margin + 18}" '
                     f'font-size="10" text-anchor="middle">{tx:.3g}</text>')
        parts.append(f'<line x1="{margin - 5}" y1="{py(ty):.1f}" x2="{margin}" '
                     f'y2="{py(ty):.1f}" stroke="black"/>')
        parts.append(f'<text x="{margin - 8}" y="{py(ty):.1f}" font-size="10" '
                     f'text-anchor="end" dominant-baseline="middle">{ty:.3g}</text>')
    for i, (curve, label) in enumerate(zip(curves, labels)):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in curve)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - margin - 150}" y="{margin + 14 * (i + 1)}" '
                     f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


if __name__ == "__main__":
    main()
