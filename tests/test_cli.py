"""Command-line front end: artifacts, manifests, determinism, exit codes."""

import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import genestim
from genestim.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def _manifest_line(path):
    first = path.read_text().splitlines()[0]
    assert first.startswith("# ")
    return json.loads(first[2:])


def test_import_leaves_out_scipy_stats_and_optimize():
    # a fresh interpreter, since this test process may have loaded them
    src = os.path.dirname(os.path.dirname(genestim.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    # SciPy is a test-only oracle: no scipy module at all, not only the
    # heavy stats and optimize subpackages
    code = ("import sys, genestim.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


class TestBinomCurves:
    def test_artifacts_and_manifest(self, runner, tmp_path):
        res = runner.invoke(main, ["binom-curves", "--n", "10", "--y", "3",
                                   "--grid-points", "32",
                                   "--out-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        for name in ("score_curves.csv", "llr_curves.csv", "manifest.json"):
            assert (tmp_path / name).exists()
        man = _manifest_line(tmp_path / "score_curves.csv")
        assert man["command"] == "binom-curves"
        assert man["params"] == {"n": 10, "y": 3, "grid_points": 32}
        assert set(man) == {"command", "params", "toolkit_version"}
        assert man == json.loads((tmp_path / "manifest.json").read_text())

    def test_row_count(self, runner, tmp_path):
        runner.invoke(main, ["binom-curves", "--n", "10", "--y", "3",
                             "--grid-points", "32",
                             "--out-dir", str(tmp_path)])
        lines = (tmp_path / "score_curves.csv").read_text().splitlines()
        # manifest + header + 11 outcomes x 32 grid points
        assert len(lines) == 2 + 11 * 32

    def test_rerun_is_byte_identical(self, runner, tmp_path):
        args = ["binom-curves", "--n", "10", "--y", "3",
                "--grid-points", "32", "--out-dir", str(tmp_path)]
        runner.invoke(main, args)
        first = (tmp_path / "llr_curves.csv").read_bytes()
        runner.invoke(main, args)
        assert (tmp_path / "llr_curves.csv").read_bytes() == first

    def test_bad_y_rejected(self, runner, tmp_path):
        res = runner.invoke(main, ["binom-curves", "--n", "10", "--y", "11",
                                   "--out-dir", str(tmp_path)])
        assert res.exit_code != 0


class TestBinomCi:
    def test_json_payload(self, runner, tmp_path):
        res = runner.invoke(main, ["binom-ci", "--n", "20", "--y", "6",
                                   "--z", "2.0", "--out-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["lower"] == pytest.approx(0.14330409581681036,
                                                 abs=1e-9)
        assert payload["upper"] == pytest.approx(0.5233625708498563,
                                                 abs=1e-9)
        stored = json.loads((tmp_path / "interval.json").read_text())
        assert stored["lower"] == payload["lower"]
        assert stored["manifest"]["command"] == "binom-ci"


class TestInfoReport:
    def test_table_written(self, runner, tmp_path):
        res = runner.invoke(main, ["info-report", "--n", "10", "--p", "0.5",
                                   "--out-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "info_report.csv").read_text().splitlines()
        assert lines[1] == "estimator,p,lambda,fisher_bound,efficiency,R"
        body = [ln.split(",") for ln in lines[2:]]
        assert len(body) == 4  # the four suite estimators at one p
        score_row = next(r for r in body if r[0] == "score")
        assert float(score_row[4]) == pytest.approx(1.0, abs=1e-10)


    def test_degenerate_row_is_skipped_and_the_rest_written(self, runner,
                                                            tmp_path):
        # at p = 0.999 the sign pre-estimator is -1 for every outcome
        res = runner.invoke(main, ["info-report", "--n", "20",
                                   "--p", "0.999", "--p", "0.5",
                                   "--out-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        skips = [ln for ln in res.output.splitlines()
                 if ln.startswith("[skip]")]
        assert len(skips) == 1
        assert skips[0].startswith(
            "[skip] sign-coarse-orthogonalized at p=0.999 (EstimatorError: ")
        lines = (tmp_path / "info_report.csv").read_text().splitlines()
        body = [ln.split(",") for ln in lines[2:]]
        assert len(body) == 7
        assert all(len(row) == 6 for row in body)
        assert ("sign-coarse-orthogonalized", "0.5") in {
            (row[0], row[1]) for row in body}

    def test_every_row_failing_exits_numeric(self, runner, tmp_path):
        res = runner.invoke(main, ["info-report", "--n", "20", "--p", "1.5",
                                   "--out-dir", str(tmp_path)])
        assert res.exit_code == 3
        assert not (tmp_path / "info_report.csv").exists()
        err = json.loads((tmp_path / "error.json").read_text())
        assert err["error"] == "DomainError"

    def test_points_next_to_the_edges_are_reported(self, runner, tmp_path):
        res = runner.invoke(main, ["info-report", "--n", "20",
                                   "--p", "1e-6", "--out-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "info_report.csv").read_text().splitlines()
        assert len(lines) == 2 + 4


class TestZetaLab:
    def test_artifacts(self, runner, tmp_path):
        res = runner.invoke(main, ["zeta-lab", "--family", "normal",
                                   "--reps", "2000", "--seed", "5",
                                   "--out-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        eff = (tmp_path / "efficiency.csv").read_text().splitlines()
        labels = {ln.split(",")[0] for ln in eff[2:]}
        assert labels == {"mean", "median", "t3_mle"}
        curves = (tmp_path / "zeta_curves.csv").read_text().splitlines()
        curve_labels = {ln.split(",")[0] for ln in curves[2:]}
        # overlays for alternate sample sizes ride along with the main three
        assert {"median", "t3_mle", "mean", "mean_n7",
                "mean_n9"} <= curve_labels

    def test_too_few_reps_exits_numeric(self, runner, tmp_path):
        res = runner.invoke(main, ["zeta-lab", "--reps", "10",
                                   "--out-dir", str(tmp_path)])
        assert res.exit_code == 3
        err = json.loads((tmp_path / "error.json").read_text())
        assert err["error"] == "ValueError"


class TestOrInterval:
    def test_payload_shape(self, runner, tmp_path):
        res = runner.invoke(main, ["or-interval", "--n1", "20", "--n2", "30",
                                   "--x1", "10", "--x2", "15",
                                   "--out-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        z_iv = payload["z_interval_log_or"]
        assert z_iv["lower"] == pytest.approx(-z_iv["upper"], abs=1e-9)
        fe = payload["fisher_exact_odds_ratio"]
        assert fe["lower"] < 1.0 < fe["upper"]

    def test_degenerate_data_open_convention_is_empty(self, runner, tmp_path):
        res = runner.invoke(main, ["or-interval", "--n1", "20", "--n2", "30",
                                   "--x1", "0", "--x2", "0",
                                   "--open-interval",
                                   "--out-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["z_interval_log_or"]["empty"] is True


class TestOrCoverage:
    def test_small_grid_table(self, runner, tmp_path):
        res = runner.invoke(main, ["or-coverage", "--n1", "6", "--n2", "8",
                                   "--out-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "coverage.csv").read_text().splitlines()
        # 15 cells x 2 sign conventions x (3 c-values + 1 exact method)
        assert len(lines) == 2 + 15 * 2 * 4
        for ln in lines[2:]:
            cov = float(ln.split(",")[-1])
            assert 0.0 <= cov <= 1.0


class TestOrEndpointTails:
    def test_small_grid(self, runner, tmp_path):
        res = runner.invoke(main, ["or-endpoint-tails", "--n1", "6",
                                   "--n2", "8", "--out-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "endpoint_tails.csv").read_text().splitlines()
        assert len(lines) == 2 + 5 * 7
        assert "0 with a tail above 0.025" in res.output


class TestVerify:
    def test_all_checks_pass(self, runner):
        res = runner.invoke(main, ["verify", "--n", "10"])
        assert res.exit_code == 0, res.output
        assert "FAIL" not in res.output
        assert res.output.count("[PASS]") == 7
        assert "all checks passed" in res.output

    def test_degenerate_estimator_is_a_fail_line(self, runner):
        # at n = 3 and p = 0.9, y - n p - 0.5 < 0 for every outcome, so the
        # sign pre-estimator is constant there and its orthogonalized
        # version is degenerate
        res = runner.invoke(main, ["verify", "--n", "3"])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert ("[FAIL] information bound for the estimator suite "
                "(EstimatorError: sign-coarse is degenerate at [0.9]"
                in res.output)
        assert res.output.count("[PASS]") + res.output.count("[FAIL]") == 7
        assert "all checks passed" not in res.output
