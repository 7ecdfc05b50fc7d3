"""Loss-landscape analysis for one-hidden-layer ReLU networks on an interval.

Exact L2 risk, generalized gradients and Hessians against piecewise-
polynomial and benchmark targets; construction and certification of the
uncountable family of non-global local minima; finite enumeration of
width-1 critical realizations; reproducible gradient-descent and
gradient-flow experiments.
"""

from .errors import DomainError, NonsmoothPointError
from .polyalg import PiecewisePolynomial, Polynomial, reparametrize, roots_in
from .target import BenchmarkTarget, PolyTarget, Target, parse_target_json
from .network import (Params, Realization, SmoothActivation, canonical,
                      l2_distance, params_from_json, realization_csv)
from .landscape import (CritClass, GradientVector, HessianReport, classify,
                        closed_hessian_M, fd_gradient, grad, grad_smooth,
                        hessian_fd, risk)
from .minima import (FamilyCertificate, GapCertificate, MinimaSample,
                     SampleCertificate, certify_family, certify_gap, minima_risk,
                     sample_M, verify_zero_integrals)
from .enumeration import (CatalogEntry, CriticalCatalog, GridOracleReport,
                          KinkRoots, KinkSolution, enumerate_all, grid_oracle,
                          oracle_check)
from .train import (Cluster, EnsembleReport, GFRun, TrainConfig, TrainRun,
                    ensemble, gd_run, gf_run, xavier_init)

__version__ = "0.1.0"
