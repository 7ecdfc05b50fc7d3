import json
import xml.etree.ElementTree as ET
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner

from reluland.cli import main

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


@pytest.mark.parametrize("command", ["enumerate", "train"])
def test_grid_below_two_exits_2(tmp_path, command):
    args = [command, "--grid", "1", "--out", str(tmp_path)]
    if command == "enumerate":
        args += ["--target", str(write_xsq(tmp_path))]
    res = run_cli(args)
    assert res.exit_code == 2
    assert "--grid" in res.output
    assert not list(tmp_path.glob("*.csv"))


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


def test_minima_failed_gap_certificate_exits_1(tmp_path):
    # an infeasible half-width makes the gap certificate fail -> exit 1
    res = run_cli(["minima", "--alpha", "0.05", "--beta", "0.95", "--samples", "2",
                   "--gap", "--p", "0.5", "--eps", "0.40", "--out", str(tmp_path)])
    assert res.exit_code == 1
    doc = json.loads((tmp_path / "minima_report.json").read_text())
    jsonschema.validate(doc, load_schema("minima_report.schema.json"))
    assert doc["gap"]["pass"] is False
    assert doc["pass"] is False
