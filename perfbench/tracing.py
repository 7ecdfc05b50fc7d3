"""Timing wrappers around reluland's public functions, installed from outside.

``Tracer.install`` replaces every binding of each traced function in every
loaded ``reluland`` module (a function imported by name into several
modules is timed at each of them), the traced methods on their classes and
the CLI command callbacks.  Each wrapper records a span on a stack, so the
tracer keeps, per name, the call count, the inclusive time and the self
time: the inclusive time minus the part spent in nested traced calls.
Spans are aggregated in memory; nothing is written while tracing.
"""

from __future__ import annotations

import functools
import sys
import time

# (trace name, module, attribute path) -- "Class.method" for methods
FUNCTIONS = (
    ("landscape.grad_theta", "landscape", "grad_theta"),
    ("landscape.risk_theta", "landscape", "risk_theta"),
    ("landscape.hessian_fd", "landscape", "hessian_fd"),
    ("landscape.fd_gradient", "landscape", "fd_gradient"),
    ("landscape.grad_smooth", "landscape", "grad_smooth"),
    ("target.benchmark.cum_int", "target", "BenchmarkTarget.cum_int"),
    ("target.benchmark.cum_xint", "target", "BenchmarkTarget.cum_xint"),
    ("target.poly.cum_int", "target", "PolyTarget.cum_int"),
    ("target.poly.cum_xint", "target", "PolyTarget.cum_xint"),
    ("target.sq_integral", "target", "BenchmarkTarget.sq_integral"),
    ("target.sq_integral", "target", "PolyTarget.sq_integral"),
    ("quadrature.adaptive_gauss_kronrod", "quadrature", "adaptive_gauss_kronrod"),
    ("quadrature.adaptive_simpson", "quadrature", "adaptive_simpson"),
    ("quadrature.adaptive_simpson_vec", "quadrature", "adaptive_simpson_vec"),
    ("polyalg.roots_in", "polyalg", "roots_in"),
    ("polyalg.moment", "polyalg", "PiecewisePolynomial.moment"),
    ("network.canonical", "network", "canonical"),
    ("network.l2_distance", "network", "l2_distance"),
    ("minima.sample_M", "minima", "sample_M"),
    ("minima.minima_risk", "minima", "minima_risk"),
    ("minima.certify_gap", "minima", "certify_gap"),
    ("enumeration.enumerate_all", "enumeration", "enumerate_all"),
    ("enumeration.oracle_check", "enumeration", "oracle_check"),
    ("enumeration.grid_oracle", "enumeration", "grid_oracle"),
    ("train.gd_run", "train", "gd_run"),
    ("train.gf_run", "train", "gf_run"),
)

# (trace name, click command attribute in reluland.cli)
COMMANDS = (
    ("cli.enumerate", "cmd_enumerate"),
    ("cli.gf", "cmd_gf"),
)


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Aggregated spans at the boundaries of reluland's public functions."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._children = [0]  # nested traced time, one slot per open span
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        children = self._children
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = children.pop()
                children[-1] += dt
                stat.calls += 1
                stat.total_ns += dt
                stat.self_ns += dt - inner

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "reluland" or n.startswith("reluland."))]
        for name, mod, path in FUNCTIONS:
            owner = sys.modules[f"reluland.{mod}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._set(cls, attr, self._wrap(name, getattr(cls, attr)))
                continue
            orig = getattr(owner, path)
            traced = self._wrap(name, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, attr, traced)
        cli = sys.modules["reluland.cli"]
        for name, attr in COMMANDS:
            cmd = getattr(cli, attr)
            self._set(cmd, "callback", self._wrap(name, cmd.callback))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def get(self, name: str) -> Stat:
        return self.stats.get(name, Stat())
