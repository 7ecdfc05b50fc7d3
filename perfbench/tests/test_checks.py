"""Each workload's check passes on real outputs and rejects corrupted ones."""

import copy
import dataclasses

import pytest

import reluland as rl
from workloads import Certify, Ensemble, Width1


@pytest.fixture(scope="module")
def ensemble_case():
    wl = Ensemble()
    inputs = wl.make_inputs(0)
    # two quick seeds of the pinned ensemble: 126 and 6820 GD iterations
    inputs["config"].update(master_seed=20260818, runs=2)
    return wl, inputs, wl.run(inputs, None).outputs


@pytest.fixture(scope="module")
def width1_case(tmp_path_factory):
    wl = Width1()
    work = tmp_path_factory.mktemp("width1")
    inputs = wl.make_inputs(7)[:2]
    wl.prepare(inputs, work)
    rnd = wl.run(inputs, work)
    assert rnd.failed == 0
    return wl, inputs, wl.collect(inputs, work, rnd)


@pytest.fixture(scope="module")
def certify_case():
    wl = Certify()
    item = wl.make_inputs(5)[0]
    return wl, item, wl.certificate(item)


def test_ensemble_outputs_pass(ensemble_case):
    wl, inputs, report = ensemble_case
    assert wl.check(inputs, report) == []


def _replace_run(report, k, **changes):
    runs = list(report.runs)
    runs[k] = dataclasses.replace(runs[k], **changes)
    return dataclasses.replace(report, runs=tuple(runs))


def test_ensemble_rejects_perturbed_final_theta(ensemble_case):
    wl, inputs, report = ensemble_case
    run = report.runs[1]
    theta = rl.Params(run.theta.H, tuple(x + 1e-3 for x in run.theta.theta))
    assert any("grad" in m or "risk" in m
               for m in wl.check(inputs, _replace_run(report, 1, theta=theta)))


def test_ensemble_rejects_wrong_risk(ensemble_case):
    wl, inputs, report = ensemble_case
    bad = wl.check(inputs, _replace_run(report, 0, risk=report.runs[0].risk * (1 + 1e-6)))
    assert any("risk" in m for m in bad)


def test_ensemble_rejects_bad_clusters(ensemble_case):
    wl, inputs, report = ensemble_case
    doubled = dataclasses.replace(report, clusters=report.clusters + report.clusters[:1])
    assert any("exactly one cluster" in m for m in wl.check(inputs, doubled))
    if len(report.clusters) > 1:
        flipped = dataclasses.replace(report, clusters=report.clusters[::-1])
        assert any("sorted" in m for m in wl.check(inputs, flipped))


def test_ensemble_rejects_unconverged_run(ensemble_case):
    wl, inputs, report = ensemble_case
    assert any("converge" in m
               for m in wl.check(inputs, _replace_run(report, 0, converged=False)))


def test_width1_outputs_pass(width1_case):
    wl, inputs, outputs = width1_case
    assert wl.check(inputs, outputs) == []


def _corrupt(outputs, edit):
    bad = copy.deepcopy(outputs)
    edit(bad[0])
    return bad


def _entry(out, kind):
    return next(k for k, e in enumerate(out["catalog"]["entries"]) if e["kind"] == kind)


def test_width1_rejects_shifted_q(width1_case):
    wl, inputs, outputs = width1_case

    def shift(out):
        k = next(k for k, e in enumerate(out["catalog"]["entries"])
                 if e["kind"].startswith("kink"))
        out["catalog"]["entries"][k]["q"] += 1e-4

    assert any("grad" in m for m in wl.check(inputs, _corrupt(outputs, shift)))


def test_width1_rejects_wrong_constant_and_affine(width1_case):
    wl, inputs, outputs = width1_case

    def constant(out):
        k = _entry(out, "constant")
        out["rows"][k] = [(x, y + 1e-9) for x, y in out["rows"][k]]

    def affine(out):
        k = _entry(out, "affine")
        x, y = out["rows"][k][-1]
        out["rows"][k][-1] = (x, y + 1e-6)

    assert any("constant entry" in m for m in wl.check(inputs, _corrupt(outputs, constant)))
    assert any("affine entry" in m for m in wl.check(inputs, _corrupt(outputs, affine)))


def test_width1_rejects_wrong_risk_and_flow(width1_case):
    wl, inputs, outputs = width1_case

    def risk(out):
        out["catalog"]["entries"][-1]["risk"] *= 1 + 1e-6

    def final(out):
        out["gf"]["final_risk"] += 2e-6

    def climb(out):
        out["gf"]["samples"][-1][1] += 1e-3

    assert any("risk" in m for m in wl.check(inputs, _corrupt(outputs, risk)))
    assert any("catalog minimum" in m for m in wl.check(inputs, _corrupt(outputs, final)))
    assert any("monotone" in m for m in wl.check(inputs, _corrupt(outputs, climb)))


def test_certificate_passes(certify_case):
    wl, item, res = certify_case
    assert wl.check_one(item, res) == []


@pytest.mark.parametrize("field, edit, word", [
    ("risk", lambda v: v * (1 + 1e-6), "risk"),
    ("minima_risk", lambda v: (v[0], v[1] * (1 + 1e-7)), "backends"),
    ("theta", lambda v: tuple(x + 1e-6 for x in v), "gradient"),
    ("probe", lambda v: v - 1e-3, "probe"),
    ("point_fd", lambda v: tuple(x + 1e-4 for x in v), "consistency"),
    ("point_smooth", lambda v: tuple(x + 1e-2 for x in v), "consistency"),
])
def test_certificate_rejects_corruption(certify_case, field, edit, word):
    wl, item, res = certify_case
    bad = dict(res, **{field: edit(res[field])})
    assert any(word in m for m in wl.check_one(item, bad))


def test_certificate_rejects_wrong_hessians_and_gap(certify_case):
    wl, item, res = certify_case
    restricted = res["hessian_restricted"]
    matrix = [list(row) for row in restricted.matrix]
    matrix[0][1] *= 1 + 1e-3
    bad = dict(res, hessian_restricted=dataclasses.replace(
        restricted, matrix=tuple(tuple(r) for r in matrix)))
    assert any("closed form" in m for m in wl.check_one(item, bad))
    full = res["hessian_all"]
    bad = dict(res, hessian_all=dataclasses.replace(full, numerical_rank=3))
    assert any("rank" in m for m in wl.check_one(item, bad))
    gk, si = res["gap"]
    bad = dict(res, gap=(dataclasses.replace(gk, risk_witness=gk.risk_witness * (1 + 1e-6)), si))
    assert any("gap risks" in m for m in wl.check_one(item, bad))
