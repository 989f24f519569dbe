"""Command-line front end: artifacts, manifests, determinism, exit codes."""

import contextlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import pytest

import genestim
from genestim import cli
from genestim.cli import main


class Result(NamedTuple):
    exit_code: int
    output: str  # standard output only
    exception: Optional[BaseException]  # None on exit status 0


class Runner:
    """Runs a command line in process, as a shell would see it."""

    def invoke(self, entry, args):
        """``entry(args)`` with stdout captured: its exit status, output
        and the exception that ended it (a nonzero SystemExit included)."""
        out = io.StringIO()
        code, exception = 0, None
        with contextlib.redirect_stdout(out):
            try:
                entry(args)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (
                    0 if exc.code is None else 1)
                exception = exc if code else None
            except Exception as exc:  # a traceback in a real run
                code, exception = 1, exc
        return Result(code, out.getvalue(), exception)


@pytest.fixture
def runner():
    return Runner()


def _manifest_line(path):
    first = path.read_text().splitlines()[0]
    assert first.startswith("# ")
    return json.loads(first[2:])


def _subprocess_env():
    src = os.path.dirname(os.path.dirname(genestim.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_import_leaves_out_scipy_stats_and_optimize():
    # a fresh interpreter, since this test process may have loaded them
    env = _subprocess_env()
    # SciPy is a test-only oracle: no scipy module at all, not only the
    # heavy stats and optimize subpackages
    code = ("import sys, genestim.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


# the two launch paths: `python -m genestim.cli`, which runs the module as
# __main__, and the `genestim` console script, which calls its entry point
LAUNCH = {
    "python -m": ("import runpy\n"
                  "runpy.run_module('genestim.cli', run_name='__main__',"
                  " alter_sys=True)\n"),
    "console script": ("from genestim._entry import main\n"
                       "main()\n"),
}


def _launch_script(launch, args):
    """Source for ``python -c`` that runs the CLI on ``args`` through one
    launch path and fails on a nonzero exit status."""
    body = "".join("    " + line + "\n"
                   for line in LAUNCH[launch].splitlines())
    return (f"import sys\nsys.argv = ['genestim', *{args!r}]\n"
            "try:\n" + body +
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc to count threads")
@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="OpenBLAS starts no worker on one CPU")
@pytest.mark.parametrize("launch", sorted(LAUNCH))
def test_cli_main_runs_blas_on_one_thread(tmp_path, launch):
    # launch the CLI with the two-thread BLAS cap a caller may set, and
    # count the threads it ends with
    env = _subprocess_env()
    env.update(dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "2"))
    code = _launch_script(launch, ["binom-ci", "--n", "20", "--y", "6",
                                   "--out-dir", str(tmp_path)]) + (
        "with open('/proc/self/status') as fh:\n"
        "    print([line.split()[1] for line in fh"
        " if line.startswith('Threads:')][0])\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "1"
    assert (tmp_path / "interval.json").exists()


ZETA_LAB_QUICK = ["zeta-lab", "--reps", "1000"]


@pytest.mark.parametrize("launch", sorted(LAUNCH))
def test_cli_main_runs_without_openssl(tmp_path, launch):
    # numpy.random imports secrets, whose hashlib and hmac would load
    # _hashlib and libcrypto; the launched CLI marks _hashlib absent, and
    # hashlib and secrets still work from CPython's own digests and
    # os.urandom.  (-X importtime would list the halted attempt too.)
    # zeta-lab takes its quantiles without np.quantile, whose np.unique
    # imports numpy.ma.
    code = _launch_script(launch, ZETA_LAB_QUICK
                          + ["--out-dir", str(tmp_path)]) + (
        "import hashlib, secrets\n"
        "assert '_hashlib' in sys.modules, 'never imported'\n"
        "assert sys.modules['_hashlib'] is None, 'OpenSSL loaded'\n"
        "assert 'numpy.random' in sys.modules\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
        "assert hashlib.sha256(b'').hexdigest() == ('e3b0c44298fc1c149afbf4c8"
        "996fb92427ae41e4649b934ca495991b7852b855')\n"
        "assert 0 <= secrets.randbits(8) < 256\n")
    out = subprocess.run([sys.executable, "-c", code],
                         env=_subprocess_env(), capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert (tmp_path / "efficiency.csv").exists()


@pytest.mark.parametrize("launch", sorted(LAUNCH))
def test_launched_cli_freezes_the_import_heap(tmp_path, launch):
    # the exit-time collections skip what the imports made: both launch
    # paths freeze it before the command runs
    code = _launch_script(launch, ["binom-ci", "--n", "20", "--y", "6",
                                   "--out-dir", str(tmp_path)]) + (
        "import gc\n"
        "print(gc.get_freeze_count())\n")
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                         check=True, capture_output=True, text=True,
                         timeout=120)
    assert int(out.stdout.splitlines()[-1]) > 0
    assert (tmp_path / "interval.json").exists()


@pytest.mark.parametrize("launch", sorted(LAUNCH))
def test_launched_cli_looks_up_no_message_catalog(tmp_path, launch):
    # argparse's strings print as written, with no gettext lookup, which
    # would import locale; a usage error (exit status 2, which the launch
    # script reports) reads as it always did
    code = _launch_script(launch, ["binom-ci", "--n", "20", "--y", "6",
                                   "--out-dir", str(tmp_path)]) + (
        "assert 'locale' not in sys.modules, 'gettext looked up'\n")
    subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                   check=True, capture_output=True, text=True, timeout=120)
    out = subprocess.run(
        [sys.executable, "-c", _launch_script(launch, ["binom-ci", "--n",
                                                       "0", "--y", "0"])],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120)
    lines = out.stderr.splitlines()
    assert lines[0].startswith("usage: genestim binom-ci")
    assert ("genestim binom-ci: error: argument --n: must be at least 1, "
            "got 0") in lines
    assert lines[-1] == "AssertionError: 2"


class _NoCommandNamed(dict):
    """COMMANDS as main sees it when the first argument names none: main
    then builds every command's parser."""

    def __contains__(self, name):
        return False


@pytest.mark.parametrize("args", [
    ["verify", "--help"], ["binom-ci", "--n", "0", "--y", "0"],
    ["info-report", "--n", "5", "stray"], ["verify", "--n", "x"],
    ["--help"], ["no-such-command"], []])
def test_one_command_parser_prints_what_the_full_parser_prints(
        args, monkeypatch, capsys):
    # main builds the named command's parser alone; help, usage and error
    # texts and exit statuses are the full parser's
    def run():
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    alone = run()
    monkeypatch.setattr(cli, "COMMANDS", _NoCommandNamed(cli.COMMANDS))
    assert run() == alone
    assert alone[0] in (0, 2)


def test_import_and_in_process_main_leave_the_collector_alone(tmp_path):
    code = ("import gc, genestim._entry, genestim.cli\n"
            "print(gc.get_freeze_count())\n"
            "try:\n"
            "    genestim.cli.main(['binom-ci', '--n', '20', '--y', '6',"
            f" '--out-dir', {str(tmp_path)!r}])\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "print(gc.get_freeze_count())\n")
    out = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                         check=True, capture_output=True, text=True,
                         timeout=120)
    lines = out.stdout.splitlines()  # the command prints its interval
    assert (lines[0], lines[-1]) == ("0", "0")
    assert (tmp_path / "interval.json").exists()


@pytest.mark.parametrize("family", ["normal", "t3"])
def test_zeta_lab_outputs_do_not_depend_on_openssl(runner, tmp_path,
                                                   family):
    # the entry's run against this process's, where hashlib keeps OpenSSL
    pytest.importorskip("_hashlib")
    args = ZETA_LAB_QUICK + ["--family", family, "--out-dir"]
    entry, plain = tmp_path / "entry", tmp_path / "plain"
    subprocess.run(
        [sys.executable, "-c",
         _launch_script("console script", args + [str(entry)])],
        env=_subprocess_env(), check=True, capture_output=True, timeout=120)
    assert sys.modules["_hashlib"] is not None
    res = runner.invoke(main, args + [str(plain)])
    assert res.exit_code == 0, res.output
    for name in ("manifest.json", "efficiency.csv", "zeta_curves.csv"):
        assert (entry / name).read_bytes() == (plain / name).read_bytes()


def test_import_loads_no_click_or_dataclasses():
    # argparse and NamedTuple records: importing the CLI costs NumPy and the
    # standard library, and still loads every library module up front
    env = _subprocess_env()
    library = [f"genestim.{name}" for name in ("families", "estimation",
                                               "intervals", "location",
                                               "oddsratio")]
    names = ["click", "dataclasses"] + library
    code = ("import sys, genestim.cli; "
            f"print([m for m in {names!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == str(library)


def _trace_runner():
    path = (Path(__file__).resolve().parents[1] / "perfbench"
            / "trace_runner.py")
    spec = importlib.util.spec_from_file_location("trace_runner", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_runner_passes_on_the_exit_status(tmp_path, capsys):
    # the tracer enters the CLI through cli.main.main(args=, prog_name=)
    run_cli = _trace_runner()._run_cli
    assert run_cli(["binom-ci", "--n", "20", "--y", "6",
                    "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "interval.json").exists()
    assert run_cli(["binom-ci", "--n", "0", "--y", "0",
                    "--out-dir", str(tmp_path)]) == 2
    assert "usage: genestim binom-ci" in capsys.readouterr().err


@pytest.mark.parametrize("args, spans, count", [
    (["verify", "--n", "6"], {"families.expect", "families.score",
                              "estimation.orthogonalized_score"},
     "families.expect.outcomes"),
    (["or-interval", "--n1", "20", "--n2", "30", "--x1", "12", "--x2", "9",
      "--nuisance-value", "21"],
     {"oddsratio.z_interval", "kernels.zinterval_p1"},
     "kernels.zinterval_p1.rows")], ids=["verify", "or-interval"])
def test_tracer_spans_name_live_library_functions(tmp_path, args, spans,
                                                  count):
    # the tracer wraps these names; a library path that stops calling them
    # leaves their per-layer metrics at 0
    path = (Path(__file__).resolve().parents[1] / "perfbench"
            / "trace_runner.py")
    spans_path = tmp_path / "spans.json"
    out = subprocess.run(  # in tmp_path, where or-interval writes
        [sys.executable, str(path), str(spans_path), *args], cwd=tmp_path,
        env=_subprocess_env(), capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    trace = json.loads(spans_path.read_text())
    assert spans <= {trace["names"][span[0]] for span in trace["spans"]}
    assert trace["counts"][count] > 0


def test_kernel_timer_runs_every_kernel():
    # perfbench/kernel_iso.py calls the batched kernels directly, so a
    # changed kernel signature shows here first
    path = (Path(__file__).resolve().parents[1] / "perfbench"
            / "kernel_iso.py")
    out = subprocess.run([sys.executable, str(path)], env=_subprocess_env(),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert set(json.loads(out.stdout)) == {"invert_p1", "sbar_profiled",
                                           "zinterval_p1", "t3_mle"}


def test_console_script_is_the_pinning_entry():
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(
        os.path.dirname(genestim.__file__)))
    path = os.path.join(root, "pyproject.toml")
    if not os.path.exists(path):
        pytest.skip("not a source checkout")
    with open(path, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"genestim": "genestim._entry:main"}


def test_import_leaves_the_environment_alone():
    # only launching the CLI pins BLAS and blocks _hashlib; a library
    # import must do neither
    env = _subprocess_env()
    env["OPENBLAS_NUM_THREADS"] = "2"
    env.pop("OMP_NUM_THREADS", None)
    code = ("import os, sys, gettext; before = dict(os.environ); "
            "import genestim._entry, genestim.cli; "
            "print(dict(os.environ) == before, "
            "sys.modules.get('_hashlib', 'unset') is not None, "
            "genestim.cli.argparse._ is gettext.gettext)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "True True True"


def _write_csv_per_value(path, manifest, header, rows):
    """The writer before block templates: one ``_fmt`` call per value."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# " + json.dumps(manifest, sort_keys=True) + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cli._fmt(v) for v in row) + "\n")


class TestWriteCsv:
    MAN = {"command": "test", "params": {"k": 1}}
    HEADER = ["label", "x", "y", "count", "flag", "mixed", "sometimes"]

    def _rows(self, m):
        rng = np.random.default_rng(3)
        specials = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0,
                    5e-324, 1e300, 1.0 / 3.0, 0.1]
        rows = []
        for i in range(m):
            x = specials[i % len(specials)] if i % 3 else float(
                rng.standard_normal())
            rows.append((f"est-{i % 4}", x, np.float64(rng.standard_t(3)),
                         i - 5, bool(i % 2),
                         (1, 2.5, "s", np.float64(-0.0), math.inf,
                          True)[i % 6],
                         0.5 * i if i % 10 else i))
        return rows

    def _check(self, tmp_path, rows):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        cli._write_csv(got, self.MAN, self.HEADER, rows)
        _write_csv_per_value(want, self.MAN, self.HEADER, rows)
        assert got.read_bytes() == want.read_bytes()

    def test_matches_the_per_value_writer(self, tmp_path, monkeypatch):
        self._check(tmp_path, self._rows(50))
        # several blocks, the last one short; "sometimes" is all floats in
        # some blocks and mixed in others
        monkeypatch.setattr(cli, "CSV_BLOCK", 7)
        self._check(tmp_path, self._rows(50))

    def test_more_than_one_default_block(self, tmp_path):
        self._check(tmp_path, self._rows(2 * cli.CSV_BLOCK + 5))

    def test_no_rows_and_generators(self, tmp_path):
        self._check(tmp_path, [])
        got = tmp_path / "gen.csv"
        cli._write_csv(got, self.MAN, self.HEADER, iter(self._rows(9)))
        _write_csv_per_value(tmp_path / "want.csv", self.MAN, self.HEADER,
                             self._rows(9))
        assert got.read_bytes() == (tmp_path / "want.csv").read_bytes()


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


# command lines with an option value out of range, and the message
BAD_SIZES = {
    "info-report n=0": (["info-report", "--n", "0"],
                        "argument --n: must be at least"),
    "verify n=0": (["verify", "--n", "0"], "argument --n: must be at least"),
    "zeta-lab n=0": (["zeta-lab", "--n", "0"],
                     "argument --n: must be at least"),
    "binom-curves grid=1": (["binom-curves", "--n", "5", "--y", "1",
                             "--grid-points", "1"],
                            "argument --grid-points: must be at least"),
    "binom-curves grid=0": (["binom-curves", "--n", "5", "--y", "1",
                             "--grid-points", "0"],
                            "argument --grid-points: must be at least"),
    "or-coverage n1=0": (["or-coverage", "--n1", "0"],
                         "argument --n1: must be at least"),
    "binom-ci n=-3": (["binom-ci", "--n", "-3", "--y", "0"],
                      "argument --n: must be at least"),
    "binom-ci y=11": (["binom-ci", "--n", "10", "--y", "11"],
                      "y must lie in 0..n"),
    "or-interval x1=-1": (["or-interval", "--n1", "5", "--n2", "5",
                           "--x1", "-1", "--x2", "0"],
                          "x1, x2 must lie in 0..n1, 0..n2"),
    "or-interval nuisance=-3": (["or-interval", "--n1", "5", "--n2", "5",
                                 "--x1", "1", "--x2", "2",
                                 "--nuisance-value", "-3"],
                                "--nuisance-value must lie in [0, n1 + n2]"),
    "or-interval nuisance=nan": (["or-interval", "--n1", "5", "--n2", "5",
                                  "--x1", "1", "--x2", "2",
                                  "--nuisance-value", "nan"],
                                 "--nuisance-value must lie in [0, n1 + n2]"),
    "zeta-lab reps=10": (["zeta-lab", "--reps", "10"],
                         "argument --reps: must be at least 1000"),
    "zeta-lab seed=-1": (["zeta-lab", "--seed", "-1"],
                         "argument --seed: must be at least 0"),
    "binom-ci z=-1": (["binom-ci", "--n", "10", "--y", "3", "--z", "-1"],
                      "argument --z: must be nonnegative"),
    "or-interval z=-1": (["or-interval", "--n1", "5", "--n2", "5",
                          "--x1", "1", "--x2", "2", "--z", "-1"],
                         "argument --z: must be positive"),
    "or-interval c=-1": (["or-interval", "--n1", "5", "--n2", "5",
                          "--x1", "1", "--x2", "2", "--c", "-1"],
                         "argument --c: must be nonnegative"),
    "or-coverage z=0": (["or-coverage", "--z", "0"],
                        "argument --z: must be positive"),
    "or-coverage z=nan": (["or-coverage", "--z", "nan"],
                          "argument --z: must be positive"),
    "or-endpoint-tails level=1.5": (["or-endpoint-tails", "--level", "1.5"],
                                    "argument --level: must be in (0, 1)"),
}


@pytest.mark.parametrize("case", sorted(BAD_SIZES))
def test_out_of_range_size_is_a_usage_error(runner, tmp_path, capsys, case):
    args, message = BAD_SIZES[case]
    out_dir = tmp_path / "out"
    if args[0] != "verify":
        args = args + ["--out-dir", str(out_dir)]
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: genestim {args[0]}")
    assert f"error: {message}" in err
    assert "Traceback" not in err
    assert not out_dir.exists()  # rejected before anything is written


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

    def test_single_trial_at_the_sign_jump_is_reported(self, runner,
                                                        tmp_path):
        # at n = 1 the sign statistic jumps at p = 0.5, so only a finite
        # difference of its standardization would be degenerate; the
        # table reads the covariance route alone and writes all four rows
        res = runner.invoke(main, ["info-report", "--n", "1", "--p", "0.5",
                                   "--out-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "[skip]" not in res.output
        lines = (tmp_path / "info_report.csv").read_text().splitlines()
        body = [ln.split(",") for ln in lines[2:]]
        assert len(body) == 4
        sign_row = next(r for r in body
                        if r[0] == "sign-coarse-orthogonalized")
        assert float(sign_row[4]) == pytest.approx(1.0, abs=1e-10)

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

    @pytest.mark.parametrize("family, sizes, factors", [
        ("normal", [7, 9], []),
        ("t3", [15, 17], [1.50 ** -0.5, 1.78 ** -0.5])])
    def test_manifest_carries_the_familys_overlays(self, runner, tmp_path,
                                                   family, sizes, factors):
        res = runner.invoke(main, ZETA_LAB_QUICK + ["--family", family,
                                                    "--out-dir",
                                                    str(tmp_path)])
        assert res.exit_code == 0, res.output
        params = json.loads((tmp_path / "manifest.json").read_text())[
            "params"]
        assert (params["n_overlays"], params["rescale"]) == (sizes, factors)
        curves = (tmp_path / "zeta_curves.csv").read_text().splitlines()
        labels = {ln.split(",")[0] for ln in curves[2:]}
        assert {f"mean_n{m}" for m in sizes} <= labels
        assert {f"mean_rescale_{f:g}" for f in factors} <= labels


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

    def test_tails_match_the_benchmark_reference(self, runner, tmp_path):
        # the benchmark's or-study job compares these tails with its
        # recorded reference at REF_TOL = 1e-9 relative (perfbench/check.py)
        job = "or-endpoint-tails --n1 10 --n2 15 --level 0.9"
        path = Path(__file__).resolve().parents[1] / "perfbench"
        ref = json.loads((path / "reference.json").read_text())[job]
        res = runner.invoke(main, job.split() + ["--out-dir", str(tmp_path)])
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "endpoint_tails.csv").read_text().splitlines()
        got = {}
        for line in lines[2:]:
            x1, x2, left, right = line.split(",")
            got[f"{x1},{x2}.left"] = float(left)
            got[f"{x1},{x2}.right"] = float(right)
        assert set(got) == set(ref)
        bad = {k: (got[k], want) for k, want in ref.items()
               if abs(got[k] - want) > 1e-9 * max(1.0, abs(want))}
        assert not bad


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
