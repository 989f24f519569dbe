"""Command-line front end: wires configs to the experiment modules and
emits CSV/JSON artifacts.

Every run writes a ``manifest.json`` capturing the full configuration,
seed and toolkit version; each CSV carries the same manifest as a
``#``-prefixed JSON comment on its first line.  Reruns with identical
manifests produce byte-identical CSV bodies.
"""

from __future__ import annotations

if __name__ == "__main__":
    from ._entry import pin_blas
    pin_blas()  # before NumPy loads; see _entry

import argparse
import contextlib
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import estimation, families, intervals, location, oddsratio

EXIT_NUMERIC = 3
CSV_BLOCK = 4096  # rows per formatting template


def _fmt(v) -> str:
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.17g}"
    return str(v)


def _manifest(command: str, params: dict, out_dir: Path) -> dict:
    man = {
        "command": command,
        "params": params,
        "toolkit_version": __version__,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "manifest.json", man)
    return man


def _write_csv(path: Path, manifest: dict, header: list, rows):
    """Write the manifest line, the header and ``rows`` as ``_fmt`` would.

    Rows are formatted ``CSV_BLOCK`` at a time with one ``%`` template: a
    column whose values in the block are all floats takes ``%.17g``, which
    prints nan and +-inf as ``_fmt`` does, any other column ``%s``; only a
    column that mixes floats with other types goes through ``_fmt``.
    """
    rows = list(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# " + json.dumps(manifest, sort_keys=True) + "\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), CSV_BLOCK):
            block = rows[start:start + CSV_BLOCK]
            cols = list(zip(*block))
            specs = []
            for j, col in enumerate(cols):
                floats = [issubclass(t, float) for t in set(map(type, col))]
                if any(floats) and not all(floats):
                    cols[j] = [_fmt(v) for v in col]
                specs.append("%.17g" if all(floats) else "%s")
            line = ",".join(specs) + "\n"
            fh.write((line * len(block))
                     % tuple(itertools.chain.from_iterable(zip(*cols))))


def _write_json(path: Path, payload: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fail_numeric(err: Exception, out_dir: Path):
    payload = {"error": type(err).__name__, "message": str(err)}
    with contextlib.suppress(OSError):
        _write_json(out_dir / "error.json", payload)
    print(json.dumps(payload), file=sys.stderr)
    sys.exit(EXIT_NUMERIC)


def _interval_payload(res: intervals.IntervalResult) -> dict:
    return {
        "lower": None if math.isinf(res.lower) and res.lower < 0
        else (res.lower if not res.empty else None),
        "upper": None if math.isinf(res.upper) and res.upper > 0
        else (res.upper if not res.empty else None),
        "closed_lower": res.closed_lower,
        "closed_upper": res.closed_upper,
        "z": None if math.isnan(res.z) else res.z,
        "side": res.side,
        "empty": res.empty,
        "boundary_note": res.boundary_note,
    }


def _at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    return integer


def _real(holds, wording: str):
    """argparse type: a float for which ``holds`` is true."""
    def real(text):
        value = float(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(
                f"must be {wording}, got {value}")
        return value
    return real


SIZE = _at_least(1)
POSITIVE = _real(lambda v: v > 0.0, "positive")
NONNEGATIVE = _real(lambda v: v >= 0.0, "nonnegative")
LEVEL = _real(lambda v: 0.0 < v < 1.0, "in (0, 1)")
COMMANDS = {}  # command name -> (function, its options)


def command(name: str, *options):
    """Register a command; each option is ``(flags, add_argument kwargs)``."""
    def register(fn):
        COMMANDS[name] = fn, options
        return fn
    return register


def opt(*flags, **kwargs):
    return flags, kwargs


OUT_DIR = opt("--out-dir", type=Path, default=Path("."))


@command("binom-curves",
         opt("--n", type=SIZE, required=True),
         opt("--y", type=int, required=True),
         opt("--grid-points", type=_at_least(2), default=512), OUT_DIR)
def binom_curves(n, y, grid_points, out_dir):
    """Per-outcome standardized-score and LLR curve data."""
    if not 0 <= y <= n:
        raise argparse.ArgumentError(None, "y must lie in 0..n")
    man = _manifest("binom-curves",
                    {"n": n, "y": y, "grid_points": grid_points}, out_dir)
    fam = families.bernoulli_sum(n)
    grid = np.linspace(1e-4, 1 - 1e-4, grid_points)
    header = ["y", "p", "value", "realized", "slope_sign"]
    for kind, curves in (("score", intervals.score_curves),
                         ("llr", intervals.llr_curves)):
        _write_csv(out_dir / f"{kind}_curves.csv", man, header,
                   intervals.curves_to_rows(curves(fam, grid), y))
    print(f"wrote curve data for n={n}, y={y} to {out_dir}")


@command("binom-ci",
         opt("--n", type=SIZE, required=True),
         opt("--y", type=int, required=True),
         opt("--z", type=NONNEGATIVE, default=2.0),
         opt("--side", choices=["two-sided", "lower-only", "upper-only"],
             default="two-sided"), OUT_DIR)
def binom_ci(n, y, z, side, out_dir):
    """z-standard-deviation interval for the binomial proportion."""
    if not 0 <= y <= n:
        raise argparse.ArgumentError(None, "y must lie in 0..n")
    man = _manifest("binom-ci", {"n": n, "y": y, "z": z, "side": side},
                    out_dir)
    res = intervals.ci_z(families.bernoulli_sum(n), y, z, side)
    payload = _interval_payload(res)
    _write_json(out_dir / "interval.json", {**payload, "manifest": man})
    print(json.dumps(payload))


@command("info-report",
         opt("--n", type=SIZE, default=20),
         opt("--p", type=float, action="append",
             help="repeatable (default: 0.1 0.3 0.5 0.7 0.9)"), OUT_DIR)
def info_report(n, p, out_dir):
    """Information/efficiency table for the binomial estimator suite.

    A row that fails numerically is left out with a ``[skip]`` line; the
    command fails only when every row does.
    """
    p = p or (0.1, 0.3, 0.5, 0.7, 0.9)
    man = _manifest("info-report", {"n": n, "p": list(p)}, out_dir)
    engine = families.ExpectationEngine(mode="exact")
    suite = estimation.bernoulli_suite(n, engine)
    fam = suite.family
    rows = []
    for point in p:
        for est in suite:
            try:
                rep = estimation.information(engine, fam, est, [point])
            except (ValueError, RuntimeError) as err:
                last_err = err
                print(f"[skip] {est.label} at p={point} "
                      f"({type(err).__name__}: {err})")
                continue
            rows.append((est.label, point, rep.lambda_scalar,
                         float(rep.fisher_bound[0, 0]),
                         float(rep.efficiency[0, 0]), float(rep.R[0, 0])))
    if not rows:
        _fail_numeric(last_err, out_dir)
    _write_csv(out_dir / "info_report.csv", man,
               ["estimator", "p", "lambda", "fisher_bound", "efficiency",
                "R"], rows)
    print(f"wrote info_report.csv ({len(rows)} rows)")


@command("zeta-lab",
         opt("--family", dest="data_family", choices=["normal", "t3"],
             default="normal"),
         opt("--n", type=SIZE, default=10),
         opt("--reps", type=_at_least(location.MIN_REPS), default=100_000),
         opt("--seed", type=_at_least(0), default=0), OUT_DIR)
def zeta_lab(data_family, n, reps, seed, out_dir):
    """Location-estimator comparison: efficiencies and tail-depth curves."""
    overlays = (7, 9) if data_family == "normal" else (15, 17)
    rescale = () if data_family == "normal" else (1.50 ** -0.5, 1.78 ** -0.5)
    config = location.McRunConfig(data_family=data_family, n=n, reps=reps,
                                  seed=seed, n_overlays=overlays,
                                  rescale=rescale)
    man = _manifest("zeta-lab", config.to_dict(), out_dir)
    result = location.run_comparison(config)
    eff_rows = [
        (label, data_family, eff, se, result.var_ratio.get(label, 1.0))
        for label, (eff, se) in result.efficiency.items()]
    _write_csv(out_dir / "efficiency.csv", man,
               ["estimator", "data_family", "eff", "se", "var_ratio"],
               eff_rows)
    rows = [(curve.estimator_label, float(q), float(rz), float(cz))
            for curve in result.curves
            for q, rz, cz in zip(curve.reference_quantile_probs,
                                 curve.reference_zeta, curve.comparison_zeta)]
    _write_csv(out_dir / "zeta_curves.csv", man,
               ["curve_label", "prob", "ref_zeta", "comp_zeta"], rows)
    print(f"wrote efficiency.csv and zeta_curves.csv to {out_dir}")


@command("or-interval",
         opt("--n1", type=SIZE, required=True),
         opt("--n2", type=SIZE, required=True),
         opt("--x1", type=int, required=True),
         opt("--x2", type=int, required=True),
         opt("--z", type=POSITIVE, default=oddsratio.Z_95),
         opt("--c", type=NONNEGATIVE, default=0.0),
         opt("--nuisance-value", type=float,
             help="fixed nuisance value in [0, n1 + n2] instead of the "
                  "(plus-c) profile"),
         opt("--open-interval", action="store_true",
             help="use the strict (without '=') convention"), OUT_DIR)
def or_interval(n1, n2, x1, x2, z, c, nuisance_value, open_interval, out_dir):
    """z-standard and exact intervals for the log odds ratio."""
    if not (0 <= x1 <= n1 and 0 <= x2 <= n2):
        raise argparse.ArgumentError(None, "x1, x2 must lie in 0..n1, 0..n2")
    if nuisance_value is not None and not 0.0 <= nuisance_value <= n1 + n2:
        raise argparse.ArgumentError(
            None, "--nuisance-value must lie in [0, n1 + n2]")
    man = _manifest("or-interval",
                    {"n1": n1, "n2": n2, "x1": x1, "x2": x2, "z": z, "c": c,
                     "nuisance_value": nuisance_value,
                     "open_interval": open_interval}, out_dir)
    data = oddsratio.TwoBinomialData(x1, x2, n1, n2)
    if nuisance_value is not None:
        rule = oddsratio.NuisanceRule("fixed-value", value=nuisance_value)
    else:
        rule = oddsratio.NuisanceRule("plus-c", c=c)
    zres = oddsratio.z_interval(data, z, rule, equal_sign=not open_interval)
    fres = oddsratio.fisher_exact_interval(data, oddsratio.z_confidence(z))
    payload = {"z_interval_log_or": _interval_payload(zres),
               "fisher_exact_odds_ratio": _interval_payload(fres)}
    _write_json(out_dir / "interval.json", {"manifest": man, **payload})
    print(json.dumps(payload))


@command("or-coverage",
         opt("--n1", type=SIZE, default=20),
         opt("--n2", type=SIZE, default=30),
         opt("--z", type=POSITIVE, default=oddsratio.Z_95), OUT_DIR)
def or_coverage(n1, n2, z, out_dir):
    """Exact coverage table over the standard parameter cells."""
    man = _manifest("or-coverage", {"n1": n1, "n2": n2, "z": z}, out_dir)
    cells = oddsratio.coverage_table(n1, n2, oddsratio.COVERAGE_CELLS, z=z)
    rows = [(c.or_true, c.p1, c.p2, c.c, int(c.equal_sign), c.method,
             c.coverage) for c in cells]
    _write_csv(out_dir / "coverage.csv", man,
               ["or", "p1", "p2", "c", "equal_sign", "method", "coverage"],
               rows)
    print(f"wrote coverage.csv ({len(rows)} rows)")


@command("or-endpoint-tails",
         opt("--n1", type=SIZE, default=20),
         opt("--n2", type=SIZE, default=30),
         opt("--level", type=LEVEL, default=0.95), OUT_DIR)
def or_endpoint_tails(n1, n2, level, out_dir):
    """Score-test tails at the exact-interval endpoints, all interior cells."""
    man = _manifest("or-endpoint-tails",
                    {"n1": n1, "n2": n2, "level": level}, out_dir)
    rows = oddsratio.fisher_endpoint_tails(n1, n2, level)
    _write_csv(out_dir / "endpoint_tails.csv", man,
               ["x1", "x2", "left_tail", "right_tail"], rows)
    n_over = sum(1 for r in rows if max(r[2], r[3]) > 0.025)
    print(f"wrote endpoint_tails.csv ({len(rows)} cells, "
          f"{n_over} with a tail above 0.025)")


@command("verify", opt("--n", type=SIZE, default=20))
def verify(n):
    """Run the module-level invariant suites; nonzero exit on failure."""
    engine = families.ExpectationEngine(mode="exact")
    suite = estimation.bernoulli_suite(n, engine)
    fam = suite.family
    checks = []

    def check(name, measure, passed, detail=None):
        """One verdict line: ``measure()`` is tested by ``passed`` and
        described by ``detail``; a numeric error it raises is a [FAIL]."""
        try:
            value = measure()
        except (ValueError, RuntimeError) as err:
            ok, text = False, f"{type(err).__name__}: {err}"
        else:
            ok, text = bool(passed(value)), detail(value) if detail else ""
        checks.append(ok)
        mark = "PASS" if ok else "FAIL"
        print(f"[{mark}] {name}" + (f" ({text})" if text else ""))

    def score_moment(p, H):
        return float(engine.expect(fam, [p], H)[0])

    grid = [0.1, 0.3, 0.5, 0.7, 0.9]

    def mean_score():
        return max(abs(score_moment(
            p, lambda Y: families.score(fam, Y, [p]))) for p in grid)

    check("mean-zero score on p grid", mean_score, lambda w: w < 1e-10,
          lambda w: f"max |E s| = {w:.2e}")

    def information_identity():
        worst = 0.0
        for p in grid:
            i_sq = score_moment(
                p, lambda Y: families.score(fam, Y, [p]) ** 2)
            h = families.FD_STEP * max(1.0, p)
            i_grad = -score_moment(
                p, lambda Y: (families.score(fam, Y, [p + h])
                              - families.score(fam, Y, [p - h]))
                / (2 * h))
            worst = max(worst, abs(i_sq - i_grad) / i_sq)
        return worst

    check("E(s^2) matches -E(grad s)", information_identity,
          lambda w: w < 1e-6, lambda w: f"max rel gap = {w:.2e}")

    def suite_residual():
        return max(float(np.max(np.abs(
            estimation.check_score_equation(engine, fam, est, [p]))))
            for p in grid for est in suite)

    check("score equation for the estimator suite", suite_residual,
          lambda w: w < 1e-8, lambda w: f"max residual = {w:.2e}")

    def suite_bound_gap():
        gaps = []
        for p in grid:
            for est in suite:
                rep = estimation.information(engine, fam, est, [p],
                                             direct_route=False)
                gaps.append(float((rep.fisher_bound - rep.Lambda)[0, 0]))
        return min(gaps)

    check("information bound for the estimator suite", suite_bound_gap,
          lambda gap: gap >= -1e-8)

    biased = estimation.GeneralizedEstimator(
        label="biased-unorthogonalized",
        rows=lambda Y, point: ((Y + 2.0) / (n + 4.0))[:, None])
    check("biased estimator flagged by the score equation",
          lambda: float(np.max(np.abs(
              estimation.check_score_equation(engine, fam, biased, [0.5])))),
          lambda res: res > 1e-3, lambda res: f"residual = {res:.3f}")

    tb = families.two_binomial(20, 30)

    def two_binomial_cross():
        worst = 0.0
        for p1, p2 in itertools.product(grid, grid):
            point = np.array(families.two_binomial_params(p1, p2, 20, 30))

            def cross(Y):
                S = families.score(tb, Y, point)
                return S[:, 0] * S[:, 1]

            worst = max(worst, abs(float(
                engine.expect(tb, point, cross)[0])))
        return worst

    check("two-binomial score orthogonality grid", two_binomial_cross,
          lambda w: w < 1e-10, lambda w: f"max |E s s~| = {w:.2e}")

    def round_trip():
        worst = 0.0
        ends = (0.05, 0.3, 0.5, 0.7, 0.95)
        for p1, p2 in itertools.product(ends, ends):
            th, tn = families.two_binomial_params(p1, p2, 20, 30)
            q1, q2 = families.two_binomial_probs(th, tn, 20, 30)
            worst = max(worst, abs(q1 - p1), abs(q2 - p2))
        return worst

    check("two-binomial reparameterization round trip", round_trip,
          lambda w: w < 1e-10, lambda w: f"max |error| = {w:.2e}")

    if not all(checks):
        return 1
    print("all checks passed")


def main(args=None, prog_name: str = "genestim"):
    """Parse ``args`` (default ``sys.argv[1:]``), run the command and exit
    with its status: 1 for a failed check, 2 for a usage error and 3 for a
    numeric failure."""
    parser = argparse.ArgumentParser(
        prog=prog_name, description="Generalized-estimation toolkit "
        "experiments.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                required=True)
    for name, (fn, options) in COMMANDS.items():
        cmd = sub.add_parser(name, help=fn.__doc__.splitlines()[0],
                             description=fn.__doc__, allow_abbrev=False)
        for flags, kwargs in options:
            cmd.add_argument(*flags, **kwargs)
        cmd.set_defaults(run=fn)
    opts = vars(parser.parse_args(args))
    name, run = opts.pop("command"), opts.pop("run")
    try:
        status = run(**opts)
    except argparse.ArgumentError as err:  # arguments that do not fit
        sub.choices[name].error(str(err))
    except (ValueError, RuntimeError) as err:  # verify catches its own
        _fail_numeric(err, opts["out_dir"])
    sys.exit(status)


# perfbench/trace_runner.py enters through cli.main.main(args=, prog_name=)
main.main = main

if __name__ == "__main__":
    main()
