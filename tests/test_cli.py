import json
import math

import pytest
from click.testing import CliRunner

from thetacoble import suites
from thetacoble.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def tau2_file(tmp_path):
    path = tmp_path / "tau2.json"
    path.write_text(json.dumps({
        "g": 2,
        "re": [[0.1, 0.02], [0.02, -0.05]],
        "im": [[1.1, 0.1], [0.1, 1.2]],
    }))
    return str(path)


@pytest.fixture
def tau3_file(tmp_path):
    path = tmp_path / "tau3.json"
    path.write_text(json.dumps({
        "g": 3,
        "re": [[0.1, 0.0, 0.05], [0.0, -0.07, 0.02], [0.05, 0.02, 0.03]],
        "im": [[1.1, 0.1, 0.0], [0.1, 1.2, 0.05], [0.0, 0.05, 1.3]],
    }))
    return str(path)


@pytest.fixture
def z3_file(tmp_path):
    path = tmp_path / "z3.json"
    path.write_text(json.dumps({"re": [0.1, -0.2, 0.05], "im": [0.02, 0.1, -0.04]}))
    return str(path)


class TestEnumerate:
    def test_even_counts(self, runner):
        for g, n in ((1, 3), (2, 10), (3, 36)):
            res = runner.invoke(main, ["enumerate", "even", "--g", str(g)])
            assert res.exit_code == 0
            assert len(json.loads(res.output)) == n

    @pytest.mark.parametrize("what, genus", [("even", "4"), ("gopel", "0")])
    def test_bad_genus_is_a_clean_error(self, runner, what, genus):
        res = runner.invoke(main, ["enumerate", what, "--g", genus])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert res.output.startswith("Error: ") and res.output.count("\n") == 1

    def test_gopel_json(self, runner):
        res = runner.invoke(main, ["enumerate", "gopel", "--g", "3"])
        data = json.loads(res.output)
        assert len(data) == 135
        assert {d["kind"] for d in data} == {"fano", "pascal"}
        assert all(len(d["members"]) == 8 for d in data)

    def test_fano_pascal_split(self, runner):
        fano = json.loads(runner.invoke(main, ["enumerate", "fano", "--g", "3"]).output)
        pascal = json.loads(runner.invoke(main, ["enumerate", "pascal", "--g", "3"]).output)
        assert len(fano) == 30 and len(pascal) == 105

    def test_aronhold(self, runner):
        res = runner.invoke(main, ["enumerate", "aronhold", "--g", "3"])
        assert len(json.loads(res.output)) == 288

    def test_aronhold_wrong_genus(self, runner):
        res = runner.invoke(main, ["enumerate", "aronhold", "--g", "2"])
        assert res.exit_code != 0


class TestEval:
    def test_theta_requires_char(self, runner, tau2_file):
        res = runner.invoke(main, ["eval", "theta", "--tau", tau2_file])
        assert res.exit_code != 0

    def test_theta_value(self, runner, tau2_file):
        res = runner.invoke(
            main, ["eval", "theta", "--tau", tau2_file, "--char", "00;11"]
        )
        assert res.exit_code == 0
        out = json.loads(res.output)
        assert out["g"] == 2
        assert abs(out["value"][0]) > 0

    def test_odd_theta_at_zero(self, runner, tau2_file):
        res = runner.invoke(
            main, ["eval", "theta", "--tau", tau2_file, "--char", "01;01"]
        )
        assert json.loads(res.output)["value"] == [0.0, 0.0]

    def test_coble_residual_small(self, runner, tau3_file, z3_file):
        res = runner.invoke(
            main, ["eval", "coble", "--tau", tau3_file, "--z", z3_file]
        )
        assert res.exit_code == 0
        assert json.loads(res.output)["normalized_residual"] < 1e-10

    def test_coble_grad(self, runner, tau3_file, z3_file):
        res = runner.invoke(
            main, ["eval", "coble-grad", "--tau", tau3_file, "--z", z3_file]
        )
        out = json.loads(res.output)
        assert len(out["values"]) == 8
        assert max(out["normalized_residuals"]) < 1e-10

    def test_genus_mismatch_is_a_clean_error(self, runner, tau3_file):
        res = runner.invoke(
            main, ["eval", "theta", "--tau", tau3_file, "--char", "00;00"]
        )
        assert res.exit_code == 1
        assert "genus mismatch" in res.output
        assert isinstance(res.exception, SystemExit)

    def test_tau_missing_key_is_a_clean_error(self, runner, tmp_path):
        path = tmp_path / "tau.json"
        path.write_text(json.dumps({"re": [[0.1]], "im": [[1.0]]}))
        res = runner.invoke(main, ["eval", "theta", "--tau", str(path), "--char", "0;0"])
        assert res.exit_code == 1
        assert "'g'" in res.output
        assert isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("part, bad", [("re", math.inf), ("im", math.nan)])
    def test_non_finite_tau_is_a_clean_error(self, runner, tmp_path, part, bad):
        data = {
            "g": 3,
            "re": [[0.1, 0.0, 0.05], [0.0, -0.07, 0.02], [0.05, 0.02, 0.03]],
            "im": [[1.1, 0.1, 0.0], [0.1, 1.2, 0.05], [0.0, 0.05, 1.3]],
        }
        data[part][0][1] = data[part][1][0] = bad
        path = tmp_path / "tau.json"
        path.write_text(json.dumps(data))
        res = runner.invoke(main, ["eval", "theta", "--tau", str(path), "--char", "000;000"])
        assert res.exit_code == 1
        assert res.output.strip() == "Error: tau entries must be finite"
        assert isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("g", [None, 3.9, True])
    def test_non_integer_genus_is_a_clean_error(self, runner, tau3_file, tmp_path, g):
        data = dict(json.loads(open(tau3_file).read()), g=g)
        path = tmp_path / "tau.json"
        path.write_text(json.dumps(data))
        res = runner.invoke(main, ["eval", "coble", "--tau", str(path)])
        assert res.exit_code == 1
        assert res.output.strip() == f"Error: tau JSON key 'g' must be an integer, not {g!r}"
        assert isinstance(res.exception, SystemExit)

    def test_huge_tau_is_a_clean_error(self, runner, tmp_path):
        path = tmp_path / "tau.json"
        path.write_text(json.dumps({"g": 3, "re": [[0.0] * 3] * 3,
                                    "im": [[1e308 * (i == j) for j in range(3)] for i in range(3)]}))
        res = runner.invoke(main, ["eval", "coble", "--tau", str(path)])
        assert res.exit_code == 1
        assert res.output.strip() == "Error: tau entries must be at most 1e+300 in modulus"
        assert isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("what", ["coble", "coble-grad"])
    def test_huge_imaginary_z_is_the_overflow_error(self, runner, tau3_file, tmp_path, what):
        # Im z = (1e308, 0, 0) is finite; every theta sum at it overflows
        path = tmp_path / "z.json"
        path.write_text(json.dumps({"re": [0.1, 0.2, 0.3], "im": [1e308, 0.0, 0.0]}))
        res = runner.invoke(main, ["eval", what, "--tau", tau3_file, "--z", str(path)])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert res.output.strip() == ("Error: theta terms overflow double precision at every "
                                      "tau: |Im z|_1 = 1e+308")

    @pytest.mark.parametrize("what", ["coble", "coble-grad", "theta2"])
    def test_overflow_at_the_doubled_point_names_the_given_inputs(self, runner, tmp_path, what):
        # theta2 sums at (2 tau, 2 z), where lambda_min is 2 and |Im z|_1 is 300
        tau, z = tmp_path / "tau.json", tmp_path / "z.json"
        tau.write_text(json.dumps({"g": 3, "re": [[0.0] * 3] * 3,
                                   "im": [[float(i == j) for j in range(3)] for i in range(3)]}))
        z.write_text(json.dumps({"re": [0.0] * 3, "im": [150.0, 0.0, 0.0]}))
        res = runner.invoke(main, ["eval", what, "--tau", str(tau), "--z", str(z), "--char", "000"])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert res.output.strip() == ("Error: theta terms overflow double precision at (2 tau, 2 z), "
                                      "for tau with lambda_min = 1 and z with |Im z|_1 = 150")

    @pytest.mark.parametrize("what, char, shown", [
        ("theta2", "\uff1101", "malformed second-order top row '\uff1101': expected a string of "
                                 "the digits 0 and 1"),
        ("theta2", "1x1", "malformed second-order top row '1x1': expected a string of the digits 0 and 1"),
        ("theta", "\uff1100;000", "malformed characteristic string '\uff1100;000': expected 2 strings "
                                   "of one length, joined by ';', of the digits 0 and 1"),
    ])
    def test_non_ascii_bits_are_a_clean_error(self, runner, tau3_file, what, char, shown):
        res = runner.invoke(main, ["eval", what, "--tau", tau3_file, "--char", char])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert res.output.strip() == f"Error: {shown}"

    def test_broadcast_tau_is_a_clean_error(self, runner, tmp_path):
        path = tmp_path / "tau.json"
        path.write_text(json.dumps({"g": 3, "re": 0.1,
                                    "im": [[float(i == j) for j in range(3)] for i in range(3)]}))
        res = runner.invoke(main, ["eval", "coble", "--tau", str(path)])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert res.output.strip() == ("Error: tau JSON 're' and 'im' must both have shape (3, 3), "
                                      "not () and (3, 3)")

    def test_broadcast_z_is_a_clean_error(self, runner, tau3_file, tmp_path):
        path = tmp_path / "z.json"
        path.write_text(json.dumps({"re": [0.1, 0.2, 0.3], "im": [0.5]}))
        res = runner.invoke(main, ["eval", "coble", "--tau", tau3_file, "--z", str(path)])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert res.output.strip() == ("Error: z JSON 're' and 'im' must both be lists of one "
                                      "length, not of shapes (3,) and (1,)")

    @pytest.mark.parametrize("re, shown", [({"a": 1}, "{'a': 1}"), ([[True]], "True"), ([["0.1"]], "'0.1'")])
    def test_non_number_tau_is_a_clean_error(self, runner, tmp_path, re, shown):
        path = tmp_path / "tau.json"
        path.write_text(json.dumps({"g": 1, "re": re, "im": [[1.0]]}))
        res = runner.invoke(main, ["eval", "theta", "--tau", str(path), "--char", "0;0"])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert res.output.strip() == f"Error: tau JSON 're' must hold JSON numbers only, not {shown}"

    def test_non_number_z_is_a_clean_error(self, runner, tau3_file, tmp_path):
        path = tmp_path / "z.json"
        path.write_text(json.dumps({"re": [0.1, 0.2, 0.3], "im": [0.0, None, 0.0]}))
        res = runner.invoke(main, ["eval", "coble", "--tau", tau3_file, "--z", str(path)])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert res.output.strip() == "Error: z JSON 'im' must hold JSON numbers only, not None"

    def test_z_missing_key_is_a_clean_error(self, runner, tau3_file, tmp_path):
        path = tmp_path / "z.json"
        path.write_text(json.dumps({"re": [0.1, -0.2, 0.05]}))
        res = runner.invoke(main, ["eval", "coble", "--tau", tau3_file, "--z", str(path)])
        assert res.exit_code == 1
        assert "'im'" in res.output
        assert isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("what, scale, residual", [
        ("coble", "term_scale", "normalized_residual"),
        ("coble-grad", "term_scales", "normalized_residuals"),
    ])
    def test_zero_term_scale_has_no_normalized_residual(self, runner, tmp_path, what, scale,
                                                        residual):
        # at the diagonal tau = i I every coefficient of the quartic and every term is 0
        path = tmp_path / "tau.json"
        path.write_text(json.dumps({"g": 3, "re": [[0.0] * 3] * 3,
                                    "im": [[float(i == j) for j in range(3)] for i in range(3)]}))
        res = runner.invoke(main, ["eval", what, "--tau", str(path)])
        assert res.exit_code == 0
        out = json.loads(res.output)
        if what == "coble":
            assert (out[scale], out[residual]) == (0.0, None)
        else:
            assert (out[scale], out[residual]) == ([0.0] * 8, [None] * 8)

    @pytest.mark.parametrize("re01", [1e17, 1e300])
    @pytest.mark.parametrize("what, char", [("theta", "101;011"), ("coble", None)])
    def test_huge_real_tau_equals_the_reduced_tau(self, runner, tmp_path, z3_file, what, char,
                                                  re01):
        # Re tau_01 = 1e17 and 1e300 are multiples of 8, so the reduced tau_01
        # is 0, and Re tau_22 = 40.03 reduces to the float 40.03 - 40 (exact)
        outputs = []
        for x01, x22 in ((re01, 40.03), (0.0, 40.03 - 40)):
            path = tmp_path / "tau.json"
            path.write_text(json.dumps({
                "g": 3,
                "re": [[0.1, x01, 0.05], [x01, -0.07, 0.02], [0.05, 0.02, x22]],
                "im": [[1.1, 0.1, 0.0], [0.1, 1.2, 0.05], [0.0, 0.05, 1.3]],
            }))
            args = ["eval", what, "--tau", str(path), "--z", z3_file]
            res = runner.invoke(main, args + (["--char", char] if char else []))
            assert res.exit_code == 0, res.output
            outputs.append(json.loads(res.output))
        assert outputs[0] == outputs[1]
        if what == "coble":
            assert outputs[0]["normalized_residual"] < 1e-12

    def test_kummer2(self, runner, tau2_file):
        res = runner.invoke(main, ["eval", "kummer2", "--tau", tau2_file])
        assert res.exit_code == 0


class TestVerify:
    def test_segre_suite_passes(self, runner, tmp_path):
        report = tmp_path / "r.json"
        res = runner.invoke(
            main, ["verify", "segre", "--seed", "5", "--report", str(report)]
        )
        assert res.exit_code == 0
        data = json.loads(report.read_text())
        assert data["pass"] is True
        assert data["seed"] == 5
        assert "seed=5" in res.output

    def test_failing_suite_exits_nonzero(self, runner, monkeypatch):
        def always_fails(seed, samples, tol):
            return [suites.CheckRecord("always_fails", 0.0, 1.0, False)]

        monkeypatch.setitem(suites.SUITES, "segre", always_fails)
        res = runner.invoke(main, ["verify", "segre", "--seed", "1"])
        assert res.exit_code == 1
        assert "[FAIL]" in res.output

    def test_raising_suite_is_a_fail_record_in_the_report(self, runner, monkeypatch, tmp_path):
        def raises(seed, samples, tol):
            raise AssertionError("expected 6 admissible evens, got 5")

        monkeypatch.setitem(suites.SUITES, "segre", raises)
        report = tmp_path / "r.json"
        res = runner.invoke(main, ["verify", "segre", "--report", str(report)])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert "[FAIL] segre_error" in res.output and "Traceback" not in res.output
        (record,) = json.loads(report.read_text())["records"]
        assert record == {"name": "segre_error", "value": 0.0, "threshold": 1.0, "pass": False,
                          "error": "AssertionError: expected 6 admissible evens, got 5"}

    def test_unknown_suite(self, runner):
        res = runner.invoke(main, ["verify", "nonsense"])
        assert res.exit_code != 0

    @pytest.mark.parametrize("option", [["--samples", "-1"], ["--tol", "inf"], ["--tol", "nan"]])
    def test_out_of_range_option_is_a_clean_error(self, runner, option):
        res = runner.invoke(main, ["verify", "coble", *option])
        assert res.exit_code == 1
        assert res.output.startswith("Error: need samples >= 0")
        assert res.output.count("\n") == 1 and "PASS" not in res.output
        assert isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize("suite", ["jacobi", "combinatorics"])
    def test_negative_seed_is_a_clean_error(self, runner, suite):
        res = runner.invoke(main, ["verify", suite, "--seed", "-1"])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert res.output == "Error: need a non-negative integer seed, got -1\n"

    @pytest.mark.parametrize("suite", ["wrank", "points", "all"])
    def test_too_few_samples_is_a_clean_error(self, runner, suite):
        res = runner.invoke(main, ["verify", suite, "--samples", "8"])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert res.output.startswith("Error: need samples >= 16")
        assert res.output.count("\n") == 1 and "PASS" not in res.output


class TestExport:
    def test_formula_payload(self, runner):
        res = runner.invoke(main, ["export", "coble-formula"])
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert len(data["records"]) == 15
        assert data["monomial_count"] == 134

    def test_to_file(self, runner, tmp_path):
        out = tmp_path / "formula.json"
        res = runner.invoke(main, ["export", "coble-formula", "--out", str(out)])
        assert res.exit_code == 0
        assert json.loads(out.read_text())["monomial_count"] == 134
