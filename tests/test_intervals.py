"""Score-inversion confidence sets for the binomial count."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import binom

from genestim import families as F
from genestim import intervals as I

FAM = F.bernoulli_sum(20)

# roots of the cleared-denominator quadratic (6 - 20p)^2 = 4 * 20 p (1-p),
# i.e. 480 p^2 - 320 p + 36 = 0
CI_20_6_Z2 = (0.14330409581681036, 0.5233625708498563)
# (n, y, z, lower, upper) of the two-sided z set: the roots of
# (y - n p)^2 = z^2 n p (1 - p), or None where the score never reaches that
# edge of the band, so the set stays open at the domain boundary (y = 0 or
# y = n, and both ends at z = 0 there)
CI_Z_CASES = (
    (20, 6, 2.0) + CI_20_6_Z2,
    (20, 0, 2.0, None, 1 / 6),
    (20, 20, 2.0, 5 / 6, None),
    (20, 6, 0.0, 0.3, 0.3),
    (20, 0, 0.0, None, None),
    (20, 20, 0.0, None, None),
    (7, 3, 1.0, 0.26230877794331625, 0.6126912220566838),
    (50, 17, 1.959964, 0.2243694914541036, 0.4784617406030529),
    (1, 0, 3.0, None, 0.9),
)
# exact 2*(loglik(6/20) - loglik(1/2)) for n=20, y=6
LLR_20_6_HALF = 3.291315140202072


class TestCurves:
    def test_score_curve_values(self):
        sc = I.score_curves(FAM)
        j = np.argmin(np.abs(sc.parameter_grid - 0.3))
        # curve for y=6 crosses zero at p = 0.3
        assert abs(sc.values[6, j]) < 0.02
        assert I.sbar_binom(20, 6, 0.5) == pytest.approx(-4 / math.sqrt(5),
                                                         abs=1e-12)

    def test_score_curves_decrease_in_p(self):
        sc = I.score_curves(FAM)
        assert np.all(np.diff(sc.values, axis=1) < 0.0)

    def test_boundary_score_curve_never_crosses_zero(self):
        sc = I.score_curves(FAM)
        assert np.all(sc.values[0] < 0.0)
        assert np.all(sc.values[20] > 0.0)

    def test_llr_curve_value_and_minimum(self):
        llr = I.llr_curves(FAM)
        j = np.argmin(np.abs(llr.parameter_grid - 0.5))
        p = llr.parameter_grid[j]
        exact = 2 * (6 * math.log(0.3 / p) + 14 * math.log(0.7 / (1 - p)))
        assert llr.values[6, j] == pytest.approx(exact, abs=1e-10)
        grid = np.linspace(0.45, 0.55, 101)
        vals = I.llr_curves(FAM, grid).values[6]
        assert I.llr_curves(FAM, np.array([0.5])).values[6, 0] == \
            pytest.approx(LLR_20_6_HALF, abs=1e-12)
        assert np.all(vals >= 0.0)

    def test_llr_boundary_rows_are_finite(self):
        llr = I.llr_curves(FAM)
        assert np.isfinite(llr.values[0]).all()
        assert np.isfinite(llr.values[20]).all()

    def test_grid_touching_the_boundary_rejected(self):
        with pytest.raises(ValueError):
            I.score_curves(FAM, np.linspace(0.0, 0.9, 10))

    def test_curve_grid_validation(self):
        with pytest.raises(ValueError):
            I.CurveGrid(parameter_grid=np.array([0.2, 0.1]),
                        values=np.zeros((1, 2)))


def _curves_to_rows_loop(curves, realized_y=None):
    """The per-value loop that ``curves_to_rows`` replaced."""
    rows = []
    grid = curves.parameter_grid
    slopes = np.gradient(curves.values, grid, axis=1)
    for y in range(curves.values.shape[0]):
        realized = 1 if realized_y is not None and y == realized_y else 0
        for j, p in enumerate(grid):
            rows.append((y, float(p), float(curves.values[y, j]), realized,
                         int(math.copysign(1.0, slopes[y, j]))
                         if slopes[y, j] != 0 else 0))
    return rows


def _same_rows(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert [type(v) for v in g] == [type(v) for v in w]
        assert repr(g) == repr(w)


class TestCurvesToRows:
    def test_matches_the_loop_on_real_curves(self):
        grid = np.linspace(1e-4, 1 - 1e-4, 64)
        for curves in (I.score_curves(FAM, grid), I.llr_curves(FAM, grid)):
            for realized_y in (None, 0, 6, 20, 21):
                _same_rows(I.curves_to_rows(curves, realized_y),
                           _curves_to_rows_loop(curves, realized_y))

    def test_zero_negative_zero_and_nan_slopes(self):
        # rows: flat (slopes 0); alternating zeros (-0.0 at the ends);
        # NaNs of either sign bit; overflow to infinite slopes
        values = np.array([[1.0, 1.0, 1.0, 1.0],
                           [0.0, -0.0, 0.0, -0.0],
                           [0.0, np.nan, 2.0, 3.0],
                           [0.0, 1.0, -np.nan, 3.0],
                           [-1e308, 1e308, -1e308, 1e308]])
        # CurveGrid refuses non-finite values; the function reads only
        # these two fields
        curves = SimpleNamespace(
            parameter_grid=np.array([0.125, 0.25, 0.375, 0.5]),
            values=values)
        with np.errstate(invalid="ignore", over="ignore"):
            slopes = np.gradient(values, curves.parameter_grid, axis=1)
            got = I.curves_to_rows(curves, realized_y=2)
            want = _curves_to_rows_loop(curves, realized_y=2)
        assert (slopes == 0).any() and np.signbit(slopes[slopes == 0]).any()
        nan_signs = np.signbit(slopes[np.isnan(slopes)])
        assert nan_signs.any() and not nan_signs.all()
        _same_rows(got, want)


def _assert_end(value, root, edge, case):
    """An open end sits exactly on the domain edge, a closed one on the root."""
    if root is None:
        assert value == edge, case
    else:
        assert value == pytest.approx(root, abs=1e-10), case


class TestCiZ:
    def test_two_sided_interval_matches_the_quadratic_roots(self):
        res = I.ci_z(FAM, 6, 2.0)
        assert res.lower == pytest.approx(CI_20_6_Z2[0], abs=1e-10)
        assert res.upper == pytest.approx(CI_20_6_Z2[1], abs=1e-10)
        assert res.closed_lower and res.closed_upper
        assert res.contains(0.3) and not res.contains(0.6)

    def test_one_sided_sets_are_half_lines(self):
        for n, y, z, lo, hi in CI_Z_CASES:
            fam = F.bernoulli_sum(n)
            lower_set = I.ci_z(fam, y, z, side="lower-only")
            upper_set = I.ci_z(fam, y, z, side="upper-only")
            assert lower_set.lower == 0.0 and not lower_set.closed_lower
            _assert_end(lower_set.upper, hi, 1.0, (n, y, z))
            assert lower_set.closed_upper == (hi is not None)
            assert upper_set.upper == 1.0 and not upper_set.closed_upper
            _assert_end(upper_set.lower, lo, 0.0, (n, y, z))
            assert upper_set.closed_lower == (lo is not None)

    def test_boundary_outcomes_flagged(self):
        for n, y, z, lo, hi in CI_Z_CASES:
            res = I.ci_z(F.bernoulli_sum(n), y, z)
            assert res.closed_lower == (lo is not None), (n, y, z)
            assert res.closed_upper == (hi is not None), (n, y, z)
            _assert_end(res.lower, lo, 0.0, (n, y, z))
            _assert_end(res.upper, hi, 1.0, (n, y, z))
            assert ("boundary" in (res.boundary_note or "")) == \
                (lo is None or hi is None), (n, y, z)

    def test_coverage_statement(self):
        # the z=2 interval system covers each interior p at >= the
        # normal-approximation level less discreteness slack
        for p in (0.2, 0.5, 0.8):
            cov = sum(binom.pmf(y, 20, p)
                      for y in range(21) if I.ci_z(FAM, y, 2.0).contains(p))
            assert cov > 0.93

    def test_negative_z_rejected(self):
        with pytest.raises(ValueError):
            I.ci_z(FAM, 6, -1.0)


class TestTailAdjustedCi:
    def test_upper_endpoint_inverts_the_lower_tail(self):
        res = I.tail_z_adjusted_ci(FAM, 6, 0.025, side="upper")
        assert binom.cdf(6, 20, res.upper) == pytest.approx(0.025, abs=1e-9)

    def test_lower_endpoint_inverts_the_upper_tail(self):
        res = I.tail_z_adjusted_ci(FAM, 6, 0.025, side="lower")
        assert binom.sf(5, 20, res.lower) == pytest.approx(0.025, abs=1e-9)

    def test_endpoints_match_betaincinv(self):
        # the Beta quantiles that SciPy inverts, over every y of each n
        from scipy.special import betaincinv
        worst = 0.0
        for n in list(range(1, 61)) + [100, 200, 500]:
            fam = F.bernoulli_sum(n)
            y = np.arange(n + 1)
            for alpha in (0.005, 0.025, 0.05, 0.1):
                upper = [I.tail_z_adjusted_ci(fam, k, alpha, "upper").upper
                         for k in range(n + 1)]
                lower = [I.tail_z_adjusted_ci(fam, k, alpha, "lower").lower
                         for k in range(n + 1)]
                want_up = np.where(y == n, 1.0, betaincinv(
                    y + 1, np.maximum(n - y, 1), 1.0 - alpha))
                want_lo = np.where(y == 0, 0.0, betaincinv(
                    np.maximum(y, 1), n - y + 1, alpha))
                worst = max(worst, np.max(np.abs(upper - want_up)),
                            np.max(np.abs(lower - want_lo)))
        assert worst <= 1e-12, worst

    def test_boundary_outcomes(self):
        assert I.tail_z_adjusted_ci(FAM, 0, 0.025, "lower").boundary_note
        assert I.tail_z_adjusted_ci(FAM, 20, 0.025, "upper").boundary_note

    def test_counts_out_of_range_rejected(self):
        for y in (-1, 21):
            for side in ("upper", "lower"):
                with pytest.raises(ValueError):
                    I.tail_z_adjusted_ci(FAM, y, 0.025, side)


class TestIntervalResult:
    def test_out_of_order_endpoints_rejected(self):
        with pytest.raises(ValueError):
            I.IntervalResult(lower=0.7, upper=0.3)

    def test_open_endpoints_excluded_from_contains(self):
        res = I.IntervalResult(lower=0.1, upper=0.9, closed_lower=False)
        assert not res.contains(0.1)
        assert res.contains(0.9)

    def test_curves_to_rows_flattening(self):
        sc = I.score_curves(FAM, np.linspace(0.2, 0.8, 5))
        rows = I.curves_to_rows(sc, realized_y=6)
        assert len(rows) == 21 * 5
        realized = [r for r in rows if r[3] == 1]
        assert len(realized) == 5 and all(r[0] == 6 for r in realized)
