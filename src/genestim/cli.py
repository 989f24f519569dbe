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

import contextlib
import itertools
import json
import math
import sys
from pathlib import Path

import click
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
    click.echo(json.dumps(payload), err=True)
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


@click.group()
def main():
    """Generalized-estimation toolkit experiments."""


@main.command("binom-curves")
@click.option("--n", type=int, required=True)
@click.option("--y", type=int, required=True)
@click.option("--grid-points", type=int, default=512, show_default=True)
@click.option("--out-dir", type=click.Path(path_type=Path), default=Path("."))
def binom_curves(n, y, grid_points, out_dir):
    """Per-outcome standardized-score and LLR curve data."""
    if not 0 <= y <= n:
        raise click.BadParameter("y must lie in 0..n")
    man = _manifest("binom-curves",
                    {"n": n, "y": y, "grid_points": grid_points}, out_dir)
    try:
        fam = families.bernoulli_sum(n)
        grid = np.linspace(1e-4, 1 - 1e-4, grid_points)
        header = ["y", "p", "value", "realized", "slope_sign"]
        for kind, curves in (("score", intervals.score_curves),
                             ("llr", intervals.llr_curves)):
            _write_csv(out_dir / f"{kind}_curves.csv", man, header,
                       intervals.curves_to_rows(curves(fam, grid), y))
    except (ValueError, RuntimeError) as err:
        _fail_numeric(err, out_dir)
    click.echo(f"wrote curve data for n={n}, y={y} to {out_dir}")


@main.command("binom-ci")
@click.option("--n", type=int, required=True)
@click.option("--y", type=int, required=True)
@click.option("--z", type=float, default=2.0, show_default=True)
@click.option("--side", type=click.Choice(["two-sided", "lower-only",
                                           "upper-only"]),
              default="two-sided", show_default=True)
@click.option("--out-dir", type=click.Path(path_type=Path), default=Path("."))
def binom_ci(n, y, z, side, out_dir):
    """z-standard-deviation interval for the binomial proportion."""
    if not 0 <= y <= n:
        raise click.BadParameter("y must lie in 0..n")
    man = _manifest("binom-ci", {"n": n, "y": y, "z": z, "side": side},
                    out_dir)
    try:
        res = intervals.ci_z(families.bernoulli_sum(n), y, z, side)
    except (ValueError, RuntimeError) as err:
        _fail_numeric(err, out_dir)
    payload = _interval_payload(res)
    _write_json(out_dir / "interval.json", {**payload, "manifest": man})
    click.echo(json.dumps(payload))


@main.command("info-report")
@click.option("--n", type=int, default=20, show_default=True)
@click.option("--p", type=float, multiple=True,
              default=(0.1, 0.3, 0.5, 0.7, 0.9), show_default=True)
@click.option("--out-dir", type=click.Path(path_type=Path), default=Path("."))
def info_report(n, p, out_dir):
    """Information/efficiency table for the binomial estimator suite.

    A row that fails numerically is left out with a ``[skip]`` line; the
    command fails only when every row does.
    """
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
                click.echo(f"[skip] {est.label} at p={point} "
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
    click.echo(f"wrote info_report.csv ({len(rows)} rows)")


@main.command("zeta-lab")
@click.option("--family", "data_family",
              type=click.Choice(["normal", "t3"]), default="normal",
              show_default=True)
@click.option("--n", type=int, default=10, show_default=True)
@click.option("--reps", type=int, default=100_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out-dir", type=click.Path(path_type=Path), default=Path("."))
def zeta_lab(data_family, n, reps, seed, out_dir):
    """Location-estimator comparison: efficiencies and tail-depth curves."""
    overlays = (7, 9) if data_family == "normal" else (15, 17)
    rescale = () if data_family == "normal" else (1.50 ** -0.5, 1.78 ** -0.5)
    try:
        config = location.McRunConfig(data_family=data_family, n=n, reps=reps,
                                      seed=seed, n_overlays=overlays,
                                      rescale=rescale)
        man = _manifest("zeta-lab", config.to_dict(), out_dir)
        result = location.run_comparison(config)
    except (ValueError, RuntimeError) as err:
        _fail_numeric(err, out_dir)
    eff_rows = [
        (label, data_family, eff, se, result.var_ratio.get(label, 1.0))
        for label, (eff, se) in result.efficiency.items()]
    _write_csv(out_dir / "efficiency.csv", man,
               ["estimator", "data_family", "eff", "se", "var_ratio"],
               eff_rows)
    comparisons = {k: v for k, v in result.archives.items() if k != "mean"}
    comparisons["mean"] = result.archives["mean"]
    curves = location.zeta_curves(result.archives["mean"], comparisons)
    rows = [(curve.estimator_label, float(q), float(rz), float(cz))
            for curve in curves
            for q, rz, cz in zip(curve.reference_quantile_probs,
                                 curve.reference_zeta, curve.comparison_zeta)]
    _write_csv(out_dir / "zeta_curves.csv", man,
               ["curve_label", "prob", "ref_zeta", "comp_zeta"], rows)
    click.echo(f"wrote efficiency.csv and zeta_curves.csv to {out_dir}")


@main.command("or-interval")
@click.option("--n1", type=int, required=True)
@click.option("--n2", type=int, required=True)
@click.option("--x1", type=int, required=True)
@click.option("--x2", type=int, required=True)
@click.option("--z", type=float, default=oddsratio.Z_95, show_default=True)
@click.option("--c", type=float, default=0.0, show_default=True)
@click.option("--nuisance-value", type=float, default=None,
              help="fixed nuisance value instead of the (plus-c) profile")
@click.option("--open-interval", is_flag=True,
              help="use the strict (without '=') convention")
@click.option("--out-dir", type=click.Path(path_type=Path), default=Path("."))
def or_interval(n1, n2, x1, x2, z, c, nuisance_value, open_interval, out_dir):
    """z-standard and exact intervals for the log odds ratio."""
    man = _manifest("or-interval",
                    {"n1": n1, "n2": n2, "x1": x1, "x2": x2, "z": z, "c": c,
                     "nuisance_value": nuisance_value,
                     "open_interval": open_interval}, out_dir)
    try:
        data = oddsratio.TwoBinomialData(x1, x2, n1, n2)
        if nuisance_value is not None:
            rule = oddsratio.NuisanceRule("fixed-value", value=nuisance_value)
        else:
            rule = oddsratio.NuisanceRule("plus-c", c=c)
        zres = oddsratio.z_interval(data, z, rule,
                                    equal_sign=not open_interval)
        fres = oddsratio.fisher_exact_interval(data,
                                               oddsratio.z_confidence(z))
    except (ValueError, RuntimeError) as err:
        _fail_numeric(err, out_dir)
    payload = {"z_interval_log_or": _interval_payload(zres),
               "fisher_exact_odds_ratio": _interval_payload(fres)}
    _write_json(out_dir / "interval.json", {"manifest": man, **payload})
    click.echo(json.dumps(payload))


@main.command("or-coverage")
@click.option("--n1", type=int, default=20, show_default=True)
@click.option("--n2", type=int, default=30, show_default=True)
@click.option("--z", type=float, default=oddsratio.Z_95, show_default=True)
@click.option("--out-dir", type=click.Path(path_type=Path), default=Path("."))
def or_coverage(n1, n2, z, out_dir):
    """Exact coverage table over the standard parameter cells."""
    man = _manifest("or-coverage", {"n1": n1, "n2": n2, "z": z}, out_dir)
    try:
        cells = oddsratio.coverage_table(n1, n2, oddsratio.COVERAGE_CELLS,
                                         z=z)
    except (ValueError, RuntimeError) as err:
        _fail_numeric(err, out_dir)
    rows = [(c.or_true, c.p1, c.p2, c.c, int(c.equal_sign), c.method,
             c.coverage) for c in cells]
    _write_csv(out_dir / "coverage.csv", man,
               ["or", "p1", "p2", "c", "equal_sign", "method", "coverage"],
               rows)
    click.echo(f"wrote coverage.csv ({len(rows)} rows)")


@main.command("or-endpoint-tails")
@click.option("--n1", type=int, default=20, show_default=True)
@click.option("--n2", type=int, default=30, show_default=True)
@click.option("--level", type=float, default=0.95, show_default=True)
@click.option("--out-dir", type=click.Path(path_type=Path), default=Path("."))
def or_endpoint_tails(n1, n2, level, out_dir):
    """Score-test tails at the exact-interval endpoints, all interior cells."""
    man = _manifest("or-endpoint-tails",
                    {"n1": n1, "n2": n2, "level": level}, out_dir)
    try:
        rows = oddsratio.fisher_endpoint_tails(n1, n2, level)
    except (ValueError, RuntimeError) as err:
        _fail_numeric(err, out_dir)
    _write_csv(out_dir / "endpoint_tails.csv", man,
               ["x1", "x2", "left_tail", "right_tail"], rows)
    n_over = sum(1 for r in rows if max(r[2], r[3]) > 0.025)
    click.echo(f"wrote endpoint_tails.csv ({len(rows)} cells, "
               f"{n_over} with a tail above 0.025)")


@main.command("verify")
@click.option("--n", type=int, default=20, show_default=True)
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
        click.echo(f"[{mark}] {name}" + (f" ({text})" if text else ""))

    def score_moment(p, H):
        return float(engine.expect_rows(fam, [p], H)[0])

    grid = [0.1, 0.3, 0.5, 0.7, 0.9]

    def mean_score():
        return max(abs(score_moment(
            p, lambda Y: families.score_rows(fam, Y, [p]))) for p in grid)

    check("mean-zero score on p grid", mean_score, lambda w: w < 1e-10,
          lambda w: f"max |E s| = {w:.2e}")

    def information_identity():
        worst = 0.0
        for p in grid:
            i_sq = score_moment(
                p, lambda Y: families.score_rows(fam, Y, [p]) ** 2)
            h = families.FD_STEP * max(1.0, p)
            i_grad = -score_moment(
                p, lambda Y: (families.score_rows(fam, Y, [p + h])
                              - families.score_rows(fam, Y, [p - h]))
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
                S = families.score_rows(tb, Y, point)
                return S[:, 0] * S[:, 1]

            worst = max(worst, abs(float(
                engine.expect_rows(tb, point, cross)[0])))
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
        sys.exit(1)
    click.echo("all checks passed")


if __name__ == "__main__":
    main()
