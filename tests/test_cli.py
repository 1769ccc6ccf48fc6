import json

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

    def test_unknown_suite(self, runner):
        res = runner.invoke(main, ["verify", "nonsense"])
        assert res.exit_code != 0


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
