import csv
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from conftest import run_cli
from extropy import cli
from extropy import measures as ms

EXP1 = '{"family":"exponential","params":{"rate":1}}'
U13 = '{"family":"uniform","params":{"a":1,"b":3}}'
U01 = '{"family":"uniform","params":{"a":0,"b":1}}'
BETA04 = '{"family":"beta","params":{"alpha":1,"beta":0.4}}'
PARETO21 = '{"family":"pareto","params":{"shape":2,"scale":1}}'
BB111 = '{"family":"bivariate_beta","params":{"alpha":1,"beta":1,"gamma":1}}'


def rows_of(out):
    return json.loads(out)["rows"]


class TestMeasureCommand:
    def test_basic_table(self):
        code, out, _ = run_cli("measure", "--dist", EXP1,
                               "--measure", "weighted_extropy,extropy")
        assert code == 0
        rows = rows_of(out)
        assert rows[0]["measure"] == "weighted_extropy"
        assert rows[0]["value"] == pytest.approx(-0.125)
        assert rows[0]["method"] == "closed-form"
        assert rows[1]["value"] == pytest.approx(-0.25, abs=1e-10)

    def test_quadrature_method_flag(self):
        code, out, _ = run_cli("measure", "--dist", EXP1,
                               "--measure", "weighted_extropy",
                               "--method", "quadrature")
        row = rows_of(out)[0]
        assert row["method"] == "quadrature"
        assert row["value"] == pytest.approx(-0.125, abs=1e-9)

    def test_t_indexed_requires_t(self):
        code, _, err = run_cli("measure", "--dist", EXP1,
                               "--measure", "residual_extropy")
        assert code == 2
        assert "requires a time" in json.loads(err)["error"]["message"]

    def test_divergent_renders_minus_inf(self):
        code, out, _ = run_cli("measure", "--dist", BETA04,
                               "--measure", "weighted_extropy")
        row = rows_of(out)[0]
        assert code == 0
        assert row["value"] == "-inf" and row["diverged"] is True
        code, out, _ = run_cli("measure", "--dist", BETA04,
                               "--measure", "weighted_extropy", "--format", "csv")
        assert "-inf" in out

    def test_unknown_measure_lists_valid_ids(self):
        code, _, err = run_cli("measure", "--dist", EXP1, "--measure", "entropy")
        assert code == 2
        assert "valid measures" in json.loads(err)["error"]["message"]

    def test_unknown_family_lists_families(self):
        code, _, err = run_cli("measure", "--dist", '{"family":"weird"}',
                               "--measure", "extropy")
        assert code == 2
        assert "known families" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("argv", [
        ["measure", "--dist", '{"family":"exponential","params":{"rate":Infinity}}',
         "--measure", "extropy"],
        ["measure", "--dist", '{"family":"piecewise","params":{"weights":[NaN,1]}}',
         "--measure", "weighted_extropy"],
        ["bivariate", "--dist",
         '{"family":"bivariate_beta","params":{"alpha":Infinity,"beta":1,"gamma":1}}'],
    ], ids=["exponential", "piecewise", "bivariate_beta"])
    def test_non_finite_parameter_exit_2(self, argv):
        # JSON admits Infinity and NaN; the builders reject them as invalid specs.
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        assert "finite" in json.loads(err)["error"]["message"]

    def test_dist_from_file(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text(EXP1)
        code, out, _ = run_cli("measure", "--dist", str(p),
                               "--measure", "weighted_extropy")
        assert code == 0
        assert rows_of(out)[0]["value"] == pytest.approx(-0.125)

    def test_numerical_failure_exit_3(self):
        # The power-law fit of the mapped exponential tail lands within
        # EXPONENT_BAND of -1 at this rate: the end cannot be classified.
        hard = '{"family":"exponential","params":{"rate":0.000631}}'
        code, _, err = run_cli("measure", "--dist", hard,
                               "--measure", "extropy",
                               "--method", "quadrature")
        assert code == 3
        assert json.loads(err)["error"]["type"] == "numerical"

    def test_tolerance_override_floor(self):
        for tol in ("1e-13", "nan"):
            code, _, err = run_cli("measure", "--dist", EXP1,
                                   "--measure", "extropy", "--tol", tol)
            assert code == 2, tol
            assert ">= 1e-12" in json.loads(err)["error"]["message"]


class TestCurveCommand:
    def test_linear_grid_values(self):
        code, out, _ = run_cli("curve", "--dist", EXP1,
                               "--measure", "weighted_residual_extropy",
                               "--grid", "0.5:2:4")
        rows = rows_of(out)
        assert [r["t"] for r in rows] == pytest.approx([0.5, 1.0, 1.5, 2.0])
        assert rows[0]["value"] == pytest.approx(-0.25)
        assert rows[-1]["value"] == pytest.approx(-0.625)

    def test_geometric_grid(self):
        code, out, _ = run_cli("curve", "--dist", EXP1,
                               "--measure", "dynamic_survival_extropy",
                               "--grid", "geometric:0.25:4:3")
        rows = rows_of(out)
        assert [r["t"] for r in rows] == pytest.approx([0.25, 1.0, 4.0])

    def test_default_grid_has_twenty_points(self):
        code, out, _ = run_cli("curve", "--dist", EXP1,
                               "--measure", "residual_extropy")
        assert len(rows_of(out)) == 20

    def test_out_of_support_rows_marked_run_continues(self):
        code, out, _ = run_cli("curve", "--dist", U13,
                               "--measure", "weighted_past_extropy",
                               "--grid", "0.5:2.5:3")
        rows = rows_of(out)
        assert code == 0
        assert rows[0]["error"] != "" and rows[0]["value"] is None
        assert rows[1]["error"] == "" and rows[1]["value"] is not None

    def test_grid_is_one_engine_call(self, monkeypatch):
        members = []
        real = ms._integrate_members

        def counting(fn, lower, upper, **kwargs):
            members.append(np.size(lower))
            return real(fn, lower, upper, **kwargs)

        monkeypatch.setattr(ms, "_integrate_members", counting)
        code, out, _ = run_cli("curve", "--dist", EXP1, "--measure", "residual_extropy",
                               "--grid", "0.5:3:5", "--method", "quadrature")
        assert code == 0 and len(rows_of(out)) == 5
        assert members == [5]

    def test_non_t_indexed_rejected(self):
        code, _, err = run_cli("curve", "--dist", EXP1, "--measure", "extropy")
        assert code == 2
        assert "not t-indexed" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("args", [
        ("curve", "--dist", EXP1, "--measure", "residual_extropy", "--grid", "0:inf:3"),
        ("curve", "--dist", EXP1, "--measure", "residual_extropy",
         "--grid", "geometric:1:inf:3"),
        ("claims", "--dist", EXP1, "--claims", "decomposition", "--grid", "1:inf:2"),
        ("claims", "--dist", EXP1, "--claims", "decomposition", "--grid=-inf:1:2"),
    ], ids=["curve-linear", "curve-geometric", "claims-upper", "claims-lower"])
    def test_non_finite_grid_rejected(self, args):
        code, out, err = run_cli(*args)
        assert code == 2 and out == ""
        doc = json.loads(err)["error"]
        assert doc["type"] == "validation"
        assert args[-1].removeprefix("--grid=") in doc["message"]
        assert "finite" in doc["message"]


class TestBivariateCommand:
    def test_closed_and_quadrature(self):
        code, out, _ = run_cli("bivariate", "--dist", BB111)
        rows = {r["measure"]: r for r in rows_of(out)}
        assert rows["bivariate_extropy"]["value"] == pytest.approx(0.5)
        assert rows["bivariate_weighted_extropy"]["value"] == pytest.approx(0.125)
        code, out, _ = run_cli("bivariate", "--dist", BB111, "--method", "quadrature")
        rows = {r["measure"]: r for r in rows_of(out)}
        assert rows["bivariate_extropy"]["value"] == pytest.approx(0.5, abs=1e-6)
        assert rows["bivariate_extropy"]["method"] == "quadrature"

    def test_product_spec(self):
        spec = json.dumps({"family": "product",
                           "x": json.loads(EXP1), "y": json.loads(U01)})
        code, out, _ = run_cli("bivariate", "--dist", spec)
        rows = {r["measure"]: r for r in rows_of(out)}
        assert rows["bivariate_weighted_extropy"]["value"] == pytest.approx(
            0.03125, abs=1e-6)


class TestTransformCommand:
    def test_pit(self):
        code, out, _ = run_cli("transform", "--dist", U13, "--transform", "pit")
        rows = {r["quantity"]: r for r in rows_of(out)}
        assert rows["weighted_extropy_xdomain"]["value"] == pytest.approx(
            -0.25, abs=1e-7)

    def test_affine_rules_and_crosscheck(self):
        code, out, _ = run_cli("transform", "--dist", EXP1,
                               "--transform", "affine:2,3")
        rows = {r["quantity"]: r for r in rows_of(out)}
        assert rows["extropy_linear_rule"]["value"] == pytest.approx(-0.125)
        assert rows["weighted_extropy_linear_rule"]["value"] == pytest.approx(-0.5)
        assert rows["weighted_extropy_xdomain"]["value"] == pytest.approx(
            rows["weighted_extropy_pushforward"]["value"], abs=1e-7)

    def test_residual_past_with_t(self):
        code, out, _ = run_cli("transform", "--dist", EXP1,
                               "--transform", "scale:2", "--t", "2")
        rows = {r["quantity"]: r for r in rows_of(out)}
        assert rows["weighted_residual_extropy_xdomain"]["value"] == pytest.approx(
            -0.375, abs=1e-9)

    def test_degenerate_transform_is_validation_error(self):
        tiny = '{"family":"exponential","params":{"rate":1e-15}}'
        code, _, err = run_cli("transform", "--dist", tiny, "--transform", "pit")
        assert code == 2
        doc = json.loads(err)["error"]
        assert doc["type"] == "validation"
        assert doc["class"] == "TransformDegeneracyError"

    @pytest.mark.parametrize("name", ["scale:inf", "affine:1,inf"])
    def test_non_finite_parameter_exit_2(self, name):
        code, out, err = run_cli("transform", "--dist", EXP1, "--transform", name)
        assert code == 2 and out == ""
        doc = json.loads(err)["error"]
        assert (doc["type"], doc["class"]) == ("validation", "ValidationError")
        assert "requires finite" in doc["message"]

    def test_unknown_transform(self):
        code, _, err = run_cli("transform", "--dist", EXP1, "--transform", "cube")
        assert code == 2
        assert "vocabulary" in json.loads(err)["error"]["message"]

    def test_infinite_quantile_stderr_is_one_json_document(self):
        # The pit transform at t = 1 asks the exponential quantile for p = 1.
        # In a fresh process, with Python's default warning filters, stderr
        # must still hold nothing but the error document.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "extropy.cli", "transform", "--dist", EXP1,
             "--transform", "pit", "--t", "1"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        doc = json.loads(proc.stderr)
        assert set(doc["error"]) == {"type", "class", "message"}


class TestClaimsCommand:
    def test_residual_bound_row(self):
        code, out, _ = run_cli("claims", "--dist", EXP1,
                               "--claims", "residual_bound", "--t", "1")
        doc = json.loads(out)
        row = doc["rows"][0]
        assert row["verdict"] == "holds"
        assert row["gap"] == pytest.approx(0.125, abs=1e-9)
        assert doc["summary"] == {"holds": 1, "violated": 0, "indeterminate": 0}

    def test_decomposition_grid(self):
        code, out, _ = run_cli("claims", "--dist", EXP1,
                               "--claims", "decomposition", "--grid", "0.5:2:4")
        doc = json.loads(out)
        assert doc["summary"]["holds"] == 4

    def test_sum_bound_needs_two_dists(self):
        code, _, err = run_cli("claims", "--dist", EXP1, "--claims", "sum_bound")
        assert code == 2
        assert "two --dist" in json.loads(err)["error"]["message"]

    def test_sum_bound_violation_and_strict_exit(self):
        code, out, _ = run_cli("claims", "--dist", EXP1, "--dist", EXP1,
                               "--claims", "sum_bound")
        row = rows_of(out)[0]
        assert code == 0
        assert row["verdict"] == "violated"
        assert row["lhs"] == pytest.approx(-0.1875, abs=1e-6)
        assert row["rhs"] == pytest.approx(-0.125, abs=1e-9)
        code, _, _ = run_cli("claims", "--dist", EXP1, "--dist", EXP1,
                             "--claims", "sum_bound", "--strict")
        assert code == 4

    def test_lemma_rows_carry_both_formulas(self):
        code, out, _ = run_cli("claims", "--dist", EXP1,
                               "--claims", "lemma1_residual", "--t", "1")
        row = rows_of(out)[0]
        assert row["verdict"] == "holds"
        assert row["extras"]["claimed_gap"] == pytest.approx(0.5625, abs=1e-6)

    def test_constancy_on_pareto(self):
        code, out, _ = run_cli("claims", "--dist", PARETO21,
                               "--claims", "constancy", "--grid", "1.5:5:4")
        row = rows_of(out)[0]
        assert row["lhs"] < 1e-6
        assert row["extras"]["mean_value"] == pytest.approx(-0.5, abs=1e-7)

    def test_unknown_claim(self):
        code, _, err = run_cli("claims", "--dist", EXP1, "--claims", "spam")
        assert code == 2
        assert "valid" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("spec", [EXP1, PARETO21], ids=["exponential", "pareto"])
    def test_past_bound_at_huge_t(self, spec):
        # t**2 overflows a float; the re-derived bound -(t q)^2/4 does not.
        code, out, err = run_cli("claims", "--dist", spec,
                                 "--claims", "past_bound", "--t", "1e300")
        assert code == 0, err
        row = rows_of(out)[0]
        assert row["t"] == 1e300
        assert row["extras"]["rederived_bound"] == 0.0


class TestMonteCarloCommand:
    def test_estimates_within_four_sigma(self):
        code, out, _ = run_cli("mc", "--dist", EXP1,
                               "--measure", "weighted_extropy",
                               "--n", "100000", "--seed", "42")
        row = rows_of(out)[0]
        assert abs(row["z"]) < 4.0
        assert row["reference"] == pytest.approx(-0.125, abs=1e-9)

    def test_bivariate_estimates(self):
        code, out, _ = run_cli("mc", "--dist", BB111, "--n", "50000", "--seed", "7")
        for row in rows_of(out):
            assert abs(row["z"]) < 4.0

    def test_seed_determinism_byte_identical(self):
        args = ("mc", "--dist", EXP1, "--measure", "extropy,weighted_extropy",
                "--n", "50000", "--seed", "3")
        _, a, _ = run_cli(*args)
        _, b, _ = run_cli(*args)
        assert a == b

    def test_divergent_reference_skipped(self):
        code, out, _ = run_cli("mc", "--dist", BETA04,
                               "--measure", "weighted_extropy",
                               "--n", "1000", "--seed", "1")
        row = rows_of(out)[0]
        assert row["estimate"] is None and "skipped" in row["note"]

    def test_non_mapping_spec_file_is_validation_error(self, tmp_path):
        p = tmp_path / "d.json"
        p.write_text("[1, 2]")
        code, _, err = run_cli("mc", "--dist", str(p), "--n", "10")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "validation"

    def test_t_indexed_measure_rejected(self):
        code, _, err = run_cli("mc", "--dist", EXP1,
                               "--measure", "residual_extropy", "--n", "1000")
        assert code == 2

    def test_negative_seed_is_validation_error(self):
        code, out, err = run_cli("mc", "--dist", EXP1, "--n", "10", "--seed", "-1")
        assert code == 2 and out == ""
        doc = json.loads(err)["error"]
        assert doc["type"] == "validation" and "--seed" in doc["message"]


class TestOutputContract:
    def test_csv_and_json_numeric_parity(self):
        args = ("measure", "--dist", U13, "--measure",
                "extropy,weighted_extropy,residual_extropy", "--t", "1.5")
        _, out_json, _ = run_cli(*args)
        _, out_csv, _ = run_cli(*args, "--format", "csv")
        jrows = rows_of(out_json)
        crows = list(csv.DictReader(io.StringIO(out_csv)))
        assert len(jrows) == len(crows)
        for jr, cr in zip(jrows, crows):
            for key in ("value", "abs_error"):
                jv = jr[key]
                cv = float(cr[key])
                assert cv == pytest.approx(jv, rel=1e-11, abs=1e-15)

    def test_csv_uses_12_significant_digits(self):
        _, out_csv, _ = run_cli("measure", "--dist", EXP1,
                                "--measure", "extropy", "--format", "csv")
        value_cell = out_csv.splitlines()[1].split(",")[1]
        assert value_cell == "-0.25"
        _, out_csv, _ = run_cli("measure", "--dist", U13,
                                "--measure", "residual_extropy", "--t", "1.5",
                                "--format", "csv")
        cell = out_csv.splitlines()[1].split(",")[1]
        assert len(cell.lstrip("-0.").replace(".", "")) <= 12

    def test_out_file(self, tmp_path):
        path = tmp_path / "table.json"
        code, out, _ = run_cli("measure", "--dist", EXP1, "--measure", "extropy",
                               "--out", str(path))
        assert code == 0 and out == ""
        doc = json.loads(path.read_text())
        assert doc["rows"][0]["value"] == pytest.approx(-0.25, abs=1e-10)

    def test_unwritable_out_is_validation_error(self, tmp_path):
        path = tmp_path / "missing" / "table.json"
        code, out, err = run_cli("measure", "--dist", EXP1, "--measure", "extropy",
                                 "--out", str(path))
        assert code == 2 and out == ""
        doc = json.loads(err)["error"]
        assert doc["type"] == "validation"
        assert str(path) in doc["message"]

    @pytest.mark.parametrize("args", [
        ("measure", "--dist", EXP1, "--measure", "extropy", "--format", "xml"),
        ("measure", "--dist", EXP1, "--measure", "extropy", "--t", "abc"),
        ("mc", "--dist", EXP1, "--n", "many"),
        ("frobnicate",),
        (),
    ], ids=["bad-choice", "bad-float", "bad-int", "unknown-command", "no-command"])
    def test_usage_error_is_validation_error(self, args):
        code, out, err = run_cli(*args)
        assert code == 2 and out == ""
        doc = json.loads(err)["error"]
        assert doc["type"] == "validation"
        assert doc["message"].startswith("extropy")

    def test_identical_invocations_byte_identical(self):
        args = ("claims", "--dist", EXP1, "--claims",
                "residual_bound,decomposition", "--grid", "0.5:2:3")
        _, a, _ = run_cli(*args)
        _, b, _ = run_cli(*args)
        assert a == b

    @pytest.mark.parametrize("args", [
        ("measure", "--dist", "not-json-or-file", "--measure", "extropy"),
        ("measure", "--dist", '{"family":"uniform","params":{"a":0,"b":"x"}}',
         "--measure", "extropy"),
        ("measure", "--dist", '{"family":"exponential","params":{"rate":null}}',
         "--measure", "extropy"),
        ("measure", "--dist", '{"family":"exponential","params":[1]}',
         "--measure", "extropy"),
        ("measure", "--dist", '{"family":"piecewise","params":{"weights":["a",1]}}',
         "--measure", "extropy"),
        ("measure", "--dist", '{"family":"tabulated","grid":[[0,"x"],[1,2]]}',
         "--measure", "extropy"),
        ("measure", "--dist", '{"family":"piecewise","params":{"weights":["0.5","0.5"]}}',
         "--measure", "extropy"),
        ("measure", "--dist", '{"family":"piecewise","params":{"weights":[true,false]}}',
         "--measure", "extropy"),
        ("measure", "--dist", '{"family":"tabulated","grid":[[0,"1"],[1,"1"]]}',
         "--measure", "extropy"),
        ("bivariate", "--dist",
         '{"family":"bivariate_beta","params":{"alpha":"1","beta":1,"gamma":1}}'),
        ("bivariate", "--dist",
         '{"family":"bivariate_beta","params":{"alpha":1,"beta":1,"gamma":1,"delta":1}}'),
    ], ids=["not-json", "string-param", "null-param", "params-not-mapping",
            "string-weight", "string-grid", "string-number-weight", "bool-weight",
            "string-number-grid", "bivariate-string-param", "bivariate-unknown-param"])
    def test_error_document_is_machine_readable(self, args):
        code, _, err = run_cli(*args)
        assert code == 2
        doc = json.loads(err)
        assert set(doc["error"]) == {"type", "class", "message"}


# The options each subcommand reads, besides --format and --out.
READS = {
    "measure": {"dist", "measure", "t", "tol", "method"},
    "curve": {"dist", "measure", "t", "grid", "tol", "method"},
    "bivariate": {"dist", "measure", "tol", "method"},
    "transform": {"dist", "transform", "t"},
    "claims": {"dist", "claims", "t", "grid", "strict"},
    "mc": {"dist", "measure", "seed", "n"},
}
# A well-formed value for every option any subcommand takes (None: a flag).
VALUES = {"dist": EXP1, "measure": "extropy", "t": "1", "grid": "0:1:2",
          "claims": "decomposition", "transform": "scale:2", "tol": "1e-6",
          "seed": "1", "n": "10", "strict": None, "method": "quadrature"}
UNREAD = [(cmd, opt) for cmd, reads in READS.items()
          for opt in VALUES if opt not in reads]


class TestOptionSurface:
    @pytest.mark.parametrize("cmd,opt", UNREAD, ids=[f"{c}--{o}" for c, o in UNREAD])
    def test_unread_option_rejected(self, cmd, opt):
        flag = [f"--{opt}"] + ([] if VALUES[opt] is None else [VALUES[opt]])
        code, out, err = run_cli(cmd, "--dist", EXP1, *flag)
        assert code == 2 and out == ""
        doc = json.loads(err)["error"]
        assert doc["type"] == "validation"
        assert f"unrecognized arguments: --{opt}" in doc["message"]

    @pytest.mark.parametrize("cmd", sorted(READS))
    def test_help_lists_only_read_options(self, cmd):
        out = io.StringIO()
        with pytest.raises(SystemExit) as exc, redirect_stdout(out):
            cli.main([cmd, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"^  --(\w+)", out.getvalue(), re.MULTILINE))
        assert listed == READS[cmd] | {"format", "out"}
