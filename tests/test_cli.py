import ast
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner

from reluland.cli import _finish, main
from reluland import errors, quadrature
from reluland.errors import DomainError

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def run_cli(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def write_xsq(tmp_path):
    path = tmp_path / "xsq.json"
    path.write_text(json.dumps({"kind": "piecewise_poly",
                                "breakpoints": [0, 1],
                                "pieces": [[0, 0, 1]]}))
    return path


def test_minima_ok(tmp_path):
    res = run_cli(["minima", "--samples", "3", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    doc = json.loads((tmp_path / "minima_report.json").read_text())
    jsonschema.validate(doc, load_schema("minima_report.schema.json"))
    assert doc["pass"] is True
    assert len(doc["samples"]) == 3


def test_minima_one_hessian_per_sample(tmp_path, monkeypatch):
    from reluland import minima
    calls = []
    hessian_fd = minima.hessian_fd

    def counted(*args, **kwargs):
        calls.append(kwargs.get("coords"))
        return hessian_fd(*args, **kwargs)

    monkeypatch.setattr(minima, "hessian_fd", counted)
    res = run_cli(["minima", "--samples", "3", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert calls == ["all"] * 3


def test_minima_fraction_args_and_gap(tmp_path):
    res = run_cli(["minima", "--alpha", "1/3", "--beta", "2/3", "--samples", "2",
                   "--gap", "--p", "0.5", "--eps", "0.05", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    doc = json.loads((tmp_path / "minima_report.json").read_text())
    jsonschema.validate(doc, load_schema("minima_report.schema.json"))
    assert doc["gap"]["gap"] > 0.0


def test_minima_x_outside_exits_2(tmp_path):
    res = run_cli(["minima", "--x", "0.9", "--out", str(tmp_path)])
    assert res.exit_code == 2


def test_minima_bad_alpha_beta_exits_2(tmp_path):
    res = run_cli(["minima", "--alpha", "0.8", "--beta", "0.2", "--out", str(tmp_path)])
    assert res.exit_code == 2


def test_minima_certifies_at_beta_0_98(tmp_path):
    res = run_cli(["minima", "--beta", "0.98", "--samples", "2", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output


def test_enumerate_ok(tmp_path):
    target = write_xsq(tmp_path)
    res = run_cli(["enumerate", "--target", str(target), "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    doc = json.loads((tmp_path / "catalog.json").read_text())
    jsonschema.validate(doc, load_schema("catalog.schema.json"))
    assert doc["oracle_check"] is True
    kinds = {e["kind"] for e in doc["entries"]}
    assert kinds == {"constant", "affine", "kink_increasing"}
    assert (tmp_path / "catalog_entry_0.csv").exists()


def test_enumerate_split_double_root_passes_oracle(tmp_path):
    # one ReLU neuron with a small slope: the kink equation has a double
    # root at the breakpoint that rounding splits
    target = tmp_path / "t.json"
    target.write_text(json.dumps({"kind": "piecewise_poly", "breakpoints": [0, 0.95, 1],
                                  "pieces": [[0.3], [0.2999905, 1e-05]]}))
    res = run_cli(["enumerate", "--target", str(target), "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert "oracle PASS" in res.output


def test_enumerate_normalizes_and_isolates_roots_once_per_orientation(tmp_path, monkeypatch):
    from reluland import enumeration
    calls = {"_on_unit": 0, "_kink_roots": 0}

    def counted(name):
        fn = getattr(enumeration, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(enumeration, name, counted(name))
    res = run_cli(["enumerate", "--target", str(write_xsq(tmp_path)),
                   "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert calls == {"_on_unit": 2, "_kink_roots": 2}


# reflecting it once raised "discontinuity at breakpoint 0.78"; its
# affine and kink lifts miss the absolute criticality tolerance
LOSSY_TARGET = ('{"kind": "piecewise_poly", "breakpoints": [0.0, 0.22, 1.0], "pieces": '
                '[[4.0, -15.0, -16.0, 20.0, 7.0, 6.0, 5.0], [601.9490598512639, -3776.0, '
                '3753.0, 4070.0, 1058.0, 2027.0, 3739.0]]}')


def test_enumerate_failed_lift_check_exits_1_with_its_report(tmp_path):
    target = tmp_path / "lossy_target.json"
    target.write_text(LOSSY_TARGET)
    res = run_cli(["enumerate", "--target", str(target), "--out", str(tmp_path / "out")])
    assert res.exit_code == 1, res.output
    assert "oracle PASS, FAIL: affine catalog lift is not critical" in res.output
    doc = json.loads((tmp_path / "out" / "catalog.json").read_text())
    jsonschema.validate(doc, load_schema("catalog.schema.json"))
    assert doc["pass"] is False and doc["oracle_check"] is True
    assert sorted(f.name for f in (tmp_path / "out").glob("*.csv")) == [
        f"catalog_entry_{i}.csv" for i in range(len(doc["entries"]))]


def test_enumerate_benchmark_rejected(tmp_path):
    target = tmp_path / "bench.json"
    target.write_text(json.dumps({"kind": "benchmark", "alpha": 1 / 3,
                                  "beta": 2 / 3, "a": 0, "b": 1}))
    res = run_cli(["enumerate", "--target", str(target), "--out", str(tmp_path)])
    assert res.exit_code == 2


def test_enumerate_malformed_json(tmp_path):
    target = tmp_path / "bad.json"
    target.write_text("{nope")
    res = run_cli(["enumerate", "--target", str(target), "--out", str(tmp_path)])
    assert res.exit_code == 2


def test_train_bad_lr_exits_2(tmp_path):
    res = run_cli(["train", "--lr", "-1", "--out", str(tmp_path)])
    assert res.exit_code == 2


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_train_non_finite_lr_exits_2(tmp_path, lr):
    res = run_cli(["train", "--lr", lr, "--runs", "1", "--h", "1", "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert not (tmp_path / "ensemble_report.json").exists()


def test_train_small_deterministic_with_svg(tmp_path):
    args = ["train", "--h", "2", "--runs", "2", "--seed", "7",
            "--grad-tol", "1e-3", "--svg", "--out", str(tmp_path), "--force"]
    res = run_cli(args)
    assert res.exit_code == 0, res.output
    doc = json.loads((tmp_path / "ensemble_report.json").read_text())
    jsonschema.validate(doc, load_schema("ensemble_report.schema.json"))
    first = (tmp_path / "ensemble_report.json").read_bytes()
    res = run_cli(args)
    assert res.exit_code == 0
    assert (tmp_path / "ensemble_report.json").read_bytes() == first

    svg = tmp_path / "ensemble.svg"
    root = ET.fromstring(svg.read_text())
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == len(doc["clusters"]) + 1  # clusters + target


SMALL_TRAIN = ["train", "--h", "2", "--runs", "2", "--seed", "7", "--grad-tol", "1e-3", "--svg"]


def test_enumerate_existing_csv_without_force_writes_nothing(tmp_path):
    # catalog.json and catalog_entry_0.csv come before the clash in order:
    # neither may be written
    target = write_xsq(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "catalog_entry_1.csv").write_text("keep")
    res = run_cli(["enumerate", "--target", str(target), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "catalog_entry_1.csv exists" in res.output
    assert [f.name for f in out.iterdir()] == ["catalog_entry_1.csv"]
    assert (out / "catalog_entry_1.csv").read_text() == "keep"


def test_train_existing_svg_without_force_writes_nothing(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "ensemble.svg").write_text("keep")
    res = run_cli(SMALL_TRAIN + ["--out", str(out)])
    assert res.exit_code == 2, res.output
    assert [f.name for f in out.iterdir()] == ["ensemble.svg"]
    assert (out / "ensemble.svg").read_text() == "keep"


@pytest.mark.parametrize("command", ["enumerate", "train"])
def test_force_rewrites_every_file_with_the_same_bytes(tmp_path, command):
    args = (["enumerate", "--target", str(write_xsq(tmp_path))] if command == "enumerate"
            else SMALL_TRAIN) + ["--out", str(tmp_path / "out")]
    assert run_cli(args).exit_code == 0
    first = {f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()}
    assert len(first) > 2
    for name in first:
        (tmp_path / "out" / name).write_text("stale")
    assert run_cli(args + ["--force"]).exit_code == 0
    assert {f.name: f.read_bytes() for f in (tmp_path / "out").iterdir()} == first


def test_out_naming_a_file_exits_2(tmp_path):
    out = tmp_path / "out"
    out.write_text("keep")
    res = run_cli(["enumerate", "--target", str(write_xsq(tmp_path)), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "cannot create the output directory" in res.output
    assert out.read_text() == "keep"


def test_overwrite_requires_force(tmp_path):
    target = write_xsq(tmp_path)
    assert run_cli(["enumerate", "--target", str(target), "--out", str(tmp_path)]).exit_code == 0
    res = run_cli(["enumerate", "--target", str(target), "--out", str(tmp_path)])
    assert res.exit_code == 2
    res = run_cli(["enumerate", "--target", str(target), "--out", str(tmp_path), "--force"])
    assert res.exit_code == 0


def test_gf_report(tmp_path):
    target = write_xsq(tmp_path)
    res = run_cli(["gf", "--target", str(target), "--h", "1", "--seed", "3",
                   "--t-end", "5", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    doc = json.loads((tmp_path / "gf_report.json").read_text())
    jsonschema.validate(doc, load_schema("gf_report.schema.json"))
    assert doc["monotone"] is True


def test_gf_bad_rtol_exits_2(tmp_path):
    res = run_cli(["gf", "--rtol", "-1", "--out", str(tmp_path)])
    assert res.exit_code == 2


def test_gf_step_cap_exits_2(tmp_path, monkeypatch):
    monkeypatch.setattr("reluland.train.GF_MAX_STEPS", 20)
    res = run_cli(["gf", "--t-end", "1e300", "--rtol", "1e-2", "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "of t_end = 1e+300 in 20 steps" in res.output
    assert not (tmp_path / "gf_report.json").exists()


def test_gf_step_underflow_fails_with_its_report(tmp_path):
    theta = tmp_path / "theta.json"
    theta.write_text('{"H": 1, "theta": [1e50, 1e50, 1e50, 0]}')
    res = run_cli(["gf", "--theta0", str(theta), "--out", str(tmp_path)])
    assert res.exit_code == 1, res.output
    doc = json.loads((tmp_path / "gf_report.json").read_text())
    jsonschema.validate(doc, load_schema("gf_report.schema.json"))
    assert doc["step_underflow"] is True and doc["pass"] is False


def test_train_divergence_exits_1_with_its_report(tmp_path):
    res = run_cli(["train", "--h", "1", "--runs", "1", "--lr", "10", "--out", str(tmp_path)])
    assert res.exit_code == 1, res.output
    doc = json.loads((tmp_path / "ensemble_report.json").read_text())
    jsonschema.validate(doc, load_schema("ensemble_report.schema.json"))
    assert doc["runs"][0]["diverged"] is True and doc["clusters"] == []
    assert doc["pass"] is False
    assert not list(tmp_path.glob("*.csv"))


def test_minima_failed_gap_certificate_exits_1(tmp_path):
    # at this half-width the exact gap is negative, so the certificate fails -> exit 1
    res = run_cli(["minima", "--alpha", "0.05", "--beta", "0.95", "--samples", "2",
                   "--gap", "--p", "0.5", "--eps", "0.40", "--out", str(tmp_path)])
    assert res.exit_code == 1
    doc = json.loads((tmp_path / "minima_report.json").read_text())
    jsonschema.validate(doc, load_schema("minima_report.schema.json"))
    assert doc["gap"]["pass"] is False
    assert doc["gap"]["gap"] < 0.0
    assert doc["gap"]["gap"] == doc["gap"]["risk_theta"] - doc["gap"]["risk_witness"]
    assert doc["pass"] is False


def test_cli_imports_no_private_or_certificate_names():
    # the CLI serializes what the library decides: no private helper, and
    # nothing that the family or width-1 certificate computes or checks
    from reluland import cli
    tree = ast.parse(Path(cli.__file__).read_text())
    names = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.level or node.module.split(".")[0] == "reluland")
             for alias in node.names]
    assert names
    assert [n for n in names if n[1].startswith("_") and not n[1].endswith("__")] == []
    checks = {"grad", "risk", "hessian_fd", "closed_hessian_M", "sample_M",
              "verify_zero_integrals", "certify_gap", "minima_risk", "grid_oracle",
              "oracle_check"}
    assert [n for n in names if n[1] in checks] == []


# each case: command line (file names resolve in tmp_path) and its report
INPUT_ERRORS = {
    "gf-theta0-nan": (["gf", "--theta0", "nan_theta.json", "--t-end", "1"], "gf_report.json"),
    "gf-theta0-missing": (["gf", "--theta0", "missing.json"], "gf_report.json"),
    "gf-theta0-malformed": (["gf", "--theta0", "bad_theta.json"], "gf_report.json"),
    "gf-t-end-inf": (["gf", "--t-end", "inf"], "gf_report.json"),
    "gf-rtol-nan": (["gf", "--rtol", "nan"], "gf_report.json"),
    "gf-h-0": (["gf", "--h", "0"], "gf_report.json"),
    # --h and --seed only set the Xavier draw that --theta0 replaces
    "gf-theta0-with-h": (["gf", "--h", "3", "--theta0", "h1_theta.json"], "gf_report.json"),
    "gf-theta0-with-seed": (["gf", "--seed", "5", "--theta0", "h1_theta.json"],
                            "gf_report.json"),
    # the risk at |theta| = 1e300 is NaN, which no JSON report can hold
    "gf-theta0-overflow": (["gf", "--theta0", "huge_theta.json"], "gf_report.json"),
    # the one diverged run's risk overflows to inf
    "train-lr-overflow": (["train", "--h", "1", "--runs", "1", "--lr", "1e300"],
                          "ensemble_report.json"),
    "enumerate-nan-coefficient": (["enumerate", "--target", "nan_target.json"], "catalog.json"),
    "enumerate-huge-coefficient": (["enumerate", "--target", "huge_target.json"],
                                   "catalog.json"),
    "gf-huge-coefficient": (["gf", "--target", "huge_target.json", "--t-end", "1"],
                            "gf_report.json"),
    # finite integral of f**2 (3.3e307), but the Hessian overflows
    "enumerate-near-overflow-coefficient": (["enumerate", "--target", "near_huge_target.json"],
                                            "catalog.json"),
    "gf-huge-scale": (["gf", "--target", "huge_scale.json", "--t-end", "1"], "gf_report.json"),
    # the affine lift's moment determinant -(b-a)^4/12 underflows to 0
    "enumerate-narrow-domain": (["enumerate", "--target", "narrow_target.json"],
                                "catalog.json"),
    # the catalog's count is exact, with no L2 tolerance to set
    "enumerate-dedup": (["enumerate", "--target", "xsq.json", "--dedup", "1e-8"],
                        "catalog.json"),
    "minima-h-0": (["minima", "--h", "0"], "minima_report.json"),
    "minima-samples-0": (["minima", "--samples", "0"], "minima_report.json"),
    "minima-y-0": (["minima", "--y", "0"], "minima_report.json"),
    "minima-y-inf": (["minima", "--y", "1e400"], "minima_report.json"),
    # the benchmark target rejects it before any quadrature runs
    "minima-beta-near-one": (["minima", "--beta", "0.999"], "minima_report.json"),
    "minima-x-outside": (["minima", "--x", "0.9"], "minima_report.json"),
    "gf-t-end-0": (["gf", "--t-end", "0"], "gf_report.json"),
    "train-h-0": (["train", "--h", "0"], "ensemble_report.json"),
    # far or wide domains and tiny y put a kink too near a domain end for
    # the finite-difference Hessian (NonsmoothPointError)
    "minima-far-domain": (["minima", "--a", "100000", "--b", "100001", "--samples", "1"],
                          "minima_report.json"),
    "minima-far-domain-gap": (["minima", "--a", "100000", "--b", "100001", "--samples", "1",
                               "--gap"], "minima_report.json"),
    "minima-shifted-domain": (["minima", "--a", "20000", "--b", "20001", "--samples", "1"],
                              "minima_report.json"),
    "minima-negative-domain": (["minima", "--a", "-100000", "--b", "-99999", "--samples", "1"],
                               "minima_report.json"),
    "minima-wide-domain": (["minima", "--a", "0", "--b", "100000000", "--samples", "1"],
                           "minima_report.json"),
    # near 1e16 the inactive neurons' margin is below the float spacing of w a
    "minima-float-spacing-domain": (["minima", "--a", "1e16", "--b", "2e16", "--samples", "1"],
                                    "minima_report.json"),
    "minima-float-spacing-domain-gap": (["minima", "--a", "1e16", "--b", "2e16", "--samples",
                                         "1", "--gap"], "minima_report.json"),
    "minima-negative-float-spacing-domain": (["minima", "--a", "-1e17", "--b", "-5e16",
                                              "--samples", "1"], "minima_report.json"),
    "gf-theta0-fractional-h": (["gf", "--theta0", "fractional_h.json"], "gf_report.json"),
    # an empty path once ran the Xavier draw as if no file were given
    "gf-theta0-empty": (["gf", "--theta0", ""], "gf_report.json"),
    "gf-theta0-empty-with-h": (["gf", "--theta0", "", "--h", "2"], "gf_report.json"),
    "minima-y-tiny": (["minima", "--samples", "1", "--y", "1e-8"], "minima_report.json"),
    "minima-y-subnormal-scale": (["minima", "--samples", "1", "--y", "1e-300"],
                                 "minima_report.json"),
    # past |x| = 5.6e102 the cube of a geometry node overflows
    "minima-cube-overflow-domain": (["minima", "--a", "0", "--b", "1e120", "--samples", "1"],
                                    "minima_report.json"),
    "enumerate-cube-overflow-domain": (["enumerate", "--target", "far_target.json"],
                                       "catalog.json"),
    "gf-cube-overflow-domain": (["gf", "--target", "far_target.json"], "gf_report.json"),
    "train-cube-overflow-domain": (["train", "--target", "far_target.json", "--runs", "1"],
                                   "ensemble_report.json"),
    # Philox keys are the integers in [0, 2**128); numpy's own check once
    # ended in a ValueError traceback
    "train-seed-negative": (["train", "--seed", "-1", "--runs", "1", "--h", "1"],
                            "ensemble_report.json"),
    "train-seed-block-past-limit": (["train", "--seed", str(2 ** 128 - 1), "--runs", "2",
                                     "--h", "1"], "ensemble_report.json"),
    "gf-seed-negative": (["gf", "--seed", "-1"], "gf_report.json"),
    "gf-seed-past-limit": (["gf", "--seed", str(2 ** 128)], "gf_report.json"),
    "minima-seed-negative": (["minima", "--seed", "-1", "--samples", "1"],
                             "minima_report.json"),
    # the gap witness draws from seed + 1
    "minima-gap-seed-past-limit": (["minima", "--seed", str(2 ** 128 - 1), "--samples", "1",
                                    "--gap"], "minima_report.json"),
    "minima-alpha-not-a-number": (["minima", "--alpha", "abc"], "minima_report.json"),
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_input_error_exits_2_without_report(tmp_path, case):
    write_xsq(tmp_path)
    (tmp_path / "nan_theta.json").write_text('{"H": 1, "theta": [NaN, 0.0, 1.0, 0.0]}')
    (tmp_path / "bad_theta.json").write_text('{"H": 1, "theta": [1.0]}')
    (tmp_path / "h1_theta.json").write_text('{"H": 1, "theta": [1.0, -0.3, 0.5, 0.0]}')
    (tmp_path / "huge_theta.json").write_text('{"H": 1, "theta": [1e300, 1e300, 1e300, 0]}')
    (tmp_path / "nan_target.json").write_text(
        '{"kind": "piecewise_poly", "breakpoints": [0, 1], "pieces": [[0, NaN, 1]]}')
    (tmp_path / "huge_target.json").write_text(
        '{"kind": "piecewise_poly", "breakpoints": [0, 1], "pieces": [[0, 1e300, 1]]}')
    (tmp_path / "near_huge_target.json").write_text(
        '{"kind": "piecewise_poly", "breakpoints": [0, 1], "pieces": [[0, 1e154, 1]]}')
    (tmp_path / "fractional_h.json").write_text('{"H": 1.9, "theta": [1, 2, 3, 4]}')
    (tmp_path / "narrow_target.json").write_text(
        '{"kind": "piecewise_poly", "breakpoints": [0, 1e-100], "pieces": [[1.0, 2.0]]}')
    (tmp_path / "huge_scale.json").write_text(
        '{"kind": "benchmark", "alpha": 0.25, "beta": 0.5, "scale": 1e160}')
    (tmp_path / "far_target.json").write_text(
        '{"kind": "piecewise_poly", "breakpoints": [1e300, 1.0000000000000002e300], '
        '"pieces": [[1.0]]}')
    args, report = INPUT_ERRORS[case]
    args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    res = run_cli(args + ["--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert sum(line.startswith("Error:") for line in res.output.splitlines()) == 1
    assert not (tmp_path / "out" / report).exists()
    assert not (tmp_path / "out").exists()


def test_every_error_class_is_a_domain_error():
    classes = [obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)]
    assert len(classes) == 2
    assert all(issubclass(cls, errors.DomainError) for cls in classes)


def test_enumerate_degenerate_input_exits_2(tmp_path, monkeypatch):
    def degenerate(t):
        raise DomainError("kink equation vanished identically")

    monkeypatch.setattr("reluland.cli.enumerate_all", degenerate)
    res = run_cli(["enumerate", "--target", str(write_xsq(tmp_path)),
                   "--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert sum(line.startswith("Error:") for line in res.output.splitlines()) == 1
    assert not (tmp_path / "out" / "catalog.json").exists()


def test_accuracy_error_exit_2_prints_estimate_and_error(tmp_path, monkeypatch):
    def exhausted(*args, **kwargs):
        raise quadrature._unconverged("Simpson recursion depth exhausted", 0.125, 3e-09)

    monkeypatch.setattr("reluland.target.adaptive_simpson", exhausted)
    res = run_cli(["minima", "--samples", "1", "--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert [line for line in res.output.splitlines() if line.startswith("Error:")] == [
        "Error: Simpson recursion depth exhausted (estimate 0.125, error 3e-09)"]
    assert not (tmp_path / "out" / "minima_report.json").exists()


def test_reports_refuse_nan(tmp_path):
    with pytest.raises(ValueError, match="report.json not written"):
        _finish(str(tmp_path / "out"), False, {"a.csv": "x,y\r\n",
                                               "report.json": {"final_risk": float("nan")}},
                "", True)
    assert not (tmp_path / "out").exists()
