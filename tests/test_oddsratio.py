"""Two-binomial log-odds-ratio: intervals, coverage, endpoint tails."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats.contingency import odds_ratio

from genestim import _kernels as K
from genestim import cli
from genestim import oddsratio as O
from genestim.families import two_binomial_probs

N1, N2 = 20, 30


def _data(x1, x2, n1=N1, n2=N2):
    return O.TwoBinomialData(x1, x2, n1, n2)


def _profiled_score(d, theta):
    """The library's standardized score of ``d`` at theta, the nuisance
    pinned at the profile x1 + x2."""
    t = float(d.x1 + d.x2)
    p1 = two_binomial_probs(theta, t, d.n1, d.n2)[0]
    return float(K._sbar_slope(p1, d.x1 / d.n1, d.x2 / d.n2, t, d.n1,
                               d.n2)[0])


def _log_comb(n, k):
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _cond_tails(n1, n2, t, x1, log_psi):
    """Oracle: (Pr(X <= x1 | t), Pr(X >= x1 | t)) under Fisher's
    noncentral hypergeometric law, one support point at a time."""
    xs = range(max(0, t - n2), min(n1, t) + 1)
    logw = [_log_comb(n1, x) + _log_comb(n2, t - x) + x * log_psi
            for x in xs]
    top = max(logw)
    w = [math.exp(v - top) for v in logw]
    total = math.fsum(w)
    return (math.fsum(v for x, v in zip(xs, w) if x <= x1) / total,
            math.fsum(v for x, v in zip(xs, w) if x >= x1) / total)


def _cond_law(logc, log_psi):
    """Tilt each row of log coefficients by psi**x and normalise it."""
    logw = logc + np.arange(logc.shape[-1]) * np.asarray(log_psi)[..., None]
    return np.exp(logw - O.logsumexp(logw)[..., None])


def _bisected_fisher_intervals(x1, x2, n1, n2, confidence, chunk=2048):
    """Oracle: the 80-step bisection in log psi over [-50, 50] that the
    Newton tail inverter replaced, ``chunk`` outcomes at a time."""
    alpha = 0.5 * (1.0 - confidence)
    lam = np.empty((2, len(x1)))
    for s in range(0, len(x1), chunk):
        a1, t = x1[s:s + chunk], x1[s:s + chunk] + x2[s:s + chunk]
        logc = O._cond_log_coef(n1, n2, t)
        xs = np.arange(n1 + 1)
        # row 0: Pr(X >= x1) increases with psi, lower endpoint where it
        # is alpha; row 1: Pr(X <= x1) decreases, upper endpoint likewise
        tail = np.stack([xs >= a1[:, None], xs <= a1[:, None]])
        lo, hi = np.full((2, len(t)), -50.0), np.full((2, len(t)), 50.0)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            p = np.where(tail, _cond_law(logc, mid), 0.0).sum(axis=-1)
            right = np.stack([p[0] < alpha, p[1] > alpha])
            lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
        lam[:, s:s + chunk] = 0.5 * (lo + hi)
    t = x1 + x2
    return (np.where(x1 == np.maximum(0, t - n2), 0.0, np.exp(lam[0])),
            np.where(x1 == np.minimum(n1, t), np.inf, np.exp(lam[1])))


class TestDataAndRules:
    def test_count_validation(self):
        with pytest.raises(ValueError):
            _data(21, 0)
        with pytest.raises(ValueError):
            O.TwoBinomialData(0, 0, 0, 5)

    def test_plus_c_nuisance_formula(self):
        assert O.plus_c_nuisance(3, 7, N1, N2, 0.0) == 10.0
        c = 0.5
        expect = 20 * 3.5 / 21 + 30 * 7.5 / 31
        assert O.plus_c_nuisance(3, 7, N1, N2, c) == pytest.approx(
            expect, abs=1e-14)
        with pytest.raises(ValueError):
            O.plus_c_nuisance(3, 7, N1, N2, -1.0)

    def test_plus_c_moves_boundary_data_off_the_boundary(self):
        assert O.plus_c_nuisance(0, 0, N1, N2, 0.0) == 0.0
        assert 0.0 < O.plus_c_nuisance(0, 0, N1, N2, 0.5) < N1 + N2


class TestProfiledScore:
    def test_zero_at_the_sample_log_odds_ratio(self):
        d = _data(10, 15)
        assert _profiled_score(d, 0.0) == pytest.approx(0.0, abs=1e-12)
        d2 = _data(12, 9)
        theta_hat = K._log_or(12 / 20, 9 / 30)
        assert _profiled_score(d2, theta_hat) == pytest.approx(0.0, abs=1e-9)

    def test_decreasing_in_theta(self):
        d = _data(12, 9)
        grid = np.linspace(-2.0, 2.0, 41)
        vals = [_profiled_score(d, t) for t in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_unit_variance_at_the_null(self):
        # exact second moment of the statistic over the outcome grid,
        # evaluated at the parameter pair the statistic is centered at
        theta = 0.0
        tn = O.two_binomial_outcomes(N1, N2).sum(axis=1)
        stats = O._outcome_sbar(N1, N2, theta, tn)
        # the two all-boundary outcomes have no null point: limit 0
        assert np.isnan(stats[[0, -1]]).all()
        stats[[0, -1]] = 0.0
        # variance taken conditionally-null at p1 = p2 = 0.5 is close to
        # one by construction of the standardization
        logm = O._log_masses(N1, N2, 0.5, 0.5)
        m = np.exp(logm)
        var = float(np.sum(m * stats ** 2))
        assert var == pytest.approx(1.0, abs=0.06)

    def test_point_estimate(self):
        assert O.sbar_zero_theta(_data(10, 15)) == pytest.approx(0.0,
                                                                 abs=1e-12)
        d = _data(12, 9)
        assert O.sbar_zero_theta(d) == pytest.approx(
            K._log_or(0.6, 0.3), abs=1e-12)
        # a given nuisance value solves the same root by Newton steps in p1
        got = O.sbar_zero_theta(d, 21.0)
        assert got == pytest.approx(K._log_or(0.6, 0.3), abs=1e-8)
        with pytest.raises(O.InfeasibleNuisance):
            O.sbar_zero_theta(_data(0, 9))

    def test_an_unconverged_point_estimate_raises(self, monkeypatch):
        newton = O._newton

        def unconverged(*args):
            root, conv = newton(*args)
            return root, np.zeros_like(conv)

        monkeypatch.setattr(O, "_newton", unconverged)
        with pytest.raises(RuntimeError, match=r"\(x1, x2\) = \(12, 9\), "
                                               "n1=20, n2=30: not converged"):
            O.sbar_zero_theta(_data(12, 9), 21.0)

    def test_bisected_point_estimate_is_the_closed_form(self):
        # a given nuisance value of x1 + x2 pins the profile, but takes
        # the generic root-finding branch
        for x1 in range(1, N1):
            for x2 in range(1, N2):
                got = O.sbar_zero_theta(_data(x1, x2), float(x1 + x2))
                assert got == pytest.approx(K._log_or(x1 / N1, x2 / N2),
                                            abs=1e-12), (x1, x2)

    @pytest.mark.parametrize("n1, n2, c, lo", [(N1, N2, 0.0, 1),
                                               (60, 5, 0.5, 0)])
    def test_point_estimate_agrees_with_the_bisection_it_replaced(
            self, n1, n2, c, lo):
        got, rows = [], []
        for x1 in range(lo, n1 + 1 - lo):
            for x2 in range(lo, n2 + 1 - lo):
                tnuis = O.plus_c_nuisance(x1, x2, n1, n2, c)
                try:
                    got.append(O.sbar_zero_theta(_data(x1, x2, n1, n2),
                                                 tnuis))
                except O.InfeasibleNuisance:
                    continue
                rows.append((x1, x2))
        x1, x2 = np.array(rows, dtype=float).T
        tnuis = O.plus_c_nuisance(x1, x2, n1, n2, c)
        np.testing.assert_allclose(
            got, _bisected_point_estimates(x1, x2, n1, n2, tnuis),
            rtol=0.0, atol=1e-12)


def _bisected_point_estimates(x1, x2, n1, n2, tnuis):
    """The 80-step bisection of sbar's sign in p1 that sbar_zero_theta
    ran before it took Newton steps on sbar, on arrays."""
    def sbar(p1):
        return K.sbar_profiled_batch(x1, x2, n1, n2, p1,
                                     (tnuis - n1 * p1) / n2)

    lo, hi, _ = K._p1_range(tnuis, n1, n2)
    up = sbar(lo) > 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        left = (sbar(mid) > 0.0) == up
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    p1 = 0.5 * (lo + hi)
    return K._log_or(p1, (tnuis - n1 * p1) / n2)


class TestZInterval:
    def test_symmetric_data_gives_a_symmetric_interval(self):
        res = O.z_interval(_data(10, 15))
        assert res.lower == pytest.approx(-res.upper, abs=1e-10)
        assert res.contains(0.0)

    def test_endpoints_pinch_the_score_to_z(self):
        d = _data(12, 9)
        res = O.z_interval(d, z=O.Z_95)
        assert abs(_profiled_score(d, res.lower)) == pytest.approx(
            O.Z_95, abs=1e-7)
        assert abs(_profiled_score(d, res.upper)) == pytest.approx(
            O.Z_95, abs=1e-7)
        assert res.lower < O.sbar_zero_theta(d) < res.upper

    def test_larger_z_nests_the_interval(self):
        d = _data(7, 18)
        small = O.z_interval(d, z=1.0)
        big = O.z_interval(d, z=2.5)
        assert big.lower < small.lower < small.upper < big.upper

    def test_single_boundary_count_leaves_one_end_unbounded(self):
        res = O.z_interval(_data(0, 9))
        assert res.lower == -math.inf and math.isfinite(res.upper)
        assert "unbounded" in res.boundary_note

    def test_degenerate_nuisance_follows_the_sign_convention(self):
        closed = O.z_interval(_data(0, 0), equal_sign=True)
        assert closed.lower == -math.inf and closed.upper == math.inf
        open_ = O.z_interval(_data(N1, N2), equal_sign=False)
        assert open_.empty
        assert not open_.contains(0.0)

    @pytest.mark.parametrize("x1,x2,n1,n2,value", [(20, 0, 20, 30, 49.99999),
                                                   (1, 0, 1, 1, 1.9999995)])
    def test_unbracketed_score_root_gives_the_whole_range(self, x1, x2, n1,
                                                          n2, value):
        # a nuisance value this close to n1 + n2 leaves sbar of one sign
        # over the whole feasible p1 range
        d = _data(x1, x2, n1, n2)
        res = O.z_interval(d, z=1.959964, tnuis=value)
        assert res.lower == -math.inf and res.upper == math.inf
        assert res.boundary_note == (
            "score root not bracketed: whole feasible range; "
            "lower endpoint unbounded (boundary of feasible range); "
            "upper endpoint unbounded (boundary of feasible range)")
        with pytest.raises(O.InfeasibleNuisance, match="not bracketed"):
            O.sbar_zero_theta(d, value)

    def test_bad_z_rejected(self):
        with pytest.raises(ValueError):
            O.z_interval(_data(5, 5), z=0.0)

    @pytest.mark.parametrize("value", [-3.0, -1e-12, 50.000001, math.inf,
                                       math.nan])
    def test_nuisance_value_outside_the_range_raises(self, value):
        for eq in (True, False):
            with pytest.raises(O.InfeasibleNuisance, match="outside"):
                O.z_interval(_data(1, 2), tnuis=value, equal_sign=eq)

    @pytest.mark.parametrize("value", [0.0, 50.0])
    def test_nuisance_value_at_a_range_end_is_degenerate(self, value):
        closed = O.z_interval(_data(1, 2), tnuis=value)
        assert closed.lower == -math.inf and closed.upper == math.inf
        assert O.z_interval(_data(1, 2), tnuis=value, equal_sign=False).empty

    @pytest.mark.parametrize("option, value", [
        *(("--nuisance-value", v) for v in (1e-12, 1e-9, 3e-8, 50 - 1e-12,
                                            50 - 3e-8)),
        ("--c", 1e-12)])
    def test_empty_feasible_range_gives_the_whole_line(
            self, monkeypatch, tmp_path, capsys, option, value):
        # inside (0, n1 + n2), but too near an end for any p1 to survive
        # the clip: the whole line under both conventions, as the batched
        # interval and the coverage test have it
        tnuis = (value if option == "--nuisance-value"
                 else O.plus_c_nuisance(0, 0, N1, N2, value))
        (lower,), (upper,), _, _, (ok,) = O._theta_intervals(
            [0], [0], N1, N2, [tnuis], O.Z_95)
        assert not ok
        thetas = (-3.0, 0.0, 0.7)
        monkeypatch.setattr(O, "plus_c_nuisance",
                            lambda x1, *_: np.full(np.shape(x1), tnuis))
        masks = [O._z_covered(N1, N2, t, 0.0, O.Z_95) for t in thetas]
        monkeypatch.undo()
        for k, eq in enumerate((True, False)):
            res = O.z_interval(_data(0, 0), tnuis=tnuis, equal_sign=eq)
            assert (res.lower, res.upper) == (lower, upper)
            assert res.closed_lower is res.closed_upper is eq
            assert res.boundary_note == (
                f"no feasible p1 range at nuisance {tnuis}: whole line")
            assert [res.contains(t) for t in thetas] == [
                bool(m[k][0]) for m in masks]
        with pytest.raises(SystemExit) as done:
            cli.main(["or-interval", "--n1", str(N1), "--n2", str(N2),
                      "--x1", "0", "--x2", "0", option, repr(value),
                      "--out-dir", str(tmp_path)])
        assert done.value.code is None
        z_iv = json.loads(capsys.readouterr().out)["z_interval_log_or"]
        assert (z_iv["lower"], z_iv["upper"]) == (None, None)


class TestFisherExactInterval:
    @pytest.mark.parametrize("x1,x2", [(10, 15), (5, 25), (1, 1), (19, 29),
                                       (3, 20), (15, 4)])
    def test_matches_the_conditional_interval_of_scipy(self, x1, x2):
        mine = O.fisher_exact_interval(_data(x1, x2))
        table = [[x1, N1 - x1], [x2, N2 - x2]]
        ref = odds_ratio(table).confidence_interval(0.95)
        assert mine.lower == pytest.approx(ref.low, rel=1e-9)
        assert mine.upper == pytest.approx(ref.high, rel=1e-9)

    def test_endpoints_invert_the_conditional_tails(self):
        d = _data(5, 25)
        res = O.fisher_exact_interval(d, 0.95)
        t = d.x1 + d.x2
        _, ge = _cond_tails(N1, N2, t, d.x1, math.log(res.lower))
        le, _ = _cond_tails(N1, N2, t, d.x1, math.log(res.upper))
        assert ge == pytest.approx(0.025, abs=1e-10)
        assert le == pytest.approx(0.025, abs=1e-10)

    def test_support_edges(self):
        res = O.fisher_exact_interval(_data(0, 9))
        assert res.lower == 0.0 and math.isfinite(res.upper)
        res = O.fisher_exact_interval(_data(20, 9))
        assert res.upper == math.inf and res.lower > 0.0
        res = O.fisher_exact_interval(_data(0, 0))
        assert res.lower == 0.0 and res.upper == math.inf

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            O.fisher_exact_interval(_data(5, 5), confidence=1.0)

    def test_batch_matches_scipy_over_a_whole_grid(self):
        n1, n2 = 6, 9
        x1, x2 = np.mgrid[0:n1 + 1, 0:n2 + 1].reshape(2, -1)
        lower, upper = O.fisher_exact_intervals(x1, x2, n1, n2, 0.95)
        t = x1 + x2
        for a, b, lo, hi in zip(x1, x2, lower, upper):
            if a + b in (0, n1 + n2):
                assert (lo, hi) == (0.0, math.inf)
                continue
            ref = odds_ratio([[a, n1 - a], [b, n2 - b]]) \
                .confidence_interval(0.95)
            assert lo == pytest.approx(ref.low, rel=1e-9), (a, b)
            assert hi == pytest.approx(ref.high, rel=1e-9), (a, b)
        # exactly 0 and inf at the edges of the conditional support
        assert np.array_equal(lower == 0.0, x1 == np.maximum(0, t - n2))
        assert np.array_equal(upper == np.inf, x1 == np.minimum(n1, t))

    @pytest.mark.parametrize("n1,n2", [(20, 30), (50, 50), (100, 100)])
    def test_newton_matches_the_bisection_it_replaced(self, n1, n2):
        x1, x2 = O.two_binomial_outcomes(n1, n2).T
        lower, upper = O.fisher_exact_intervals(x1, x2, n1, n2, 0.95)
        want_lo, want_hi = _bisected_fisher_intervals(x1, x2, n1, n2, 0.95)
        np.testing.assert_array_equal(lower == 0.0, want_lo == 0.0)
        np.testing.assert_array_equal(upper == np.inf, want_hi == np.inf)
        lo, hi = lower > 0.0, np.isfinite(upper)
        worst = max(np.max(np.abs(np.log(lower[lo] / want_lo[lo]))),
                    np.max(np.abs(np.log(upper[hi] / want_hi[hi]))))
        assert worst <= 1e-11, worst

    def test_endpoints_are_where_scipys_conditional_tails_hit_alpha(self):
        from scipy.stats import nchypergeom_fisher
        n1 = n2 = 100
        rng = np.random.default_rng(16)
        x1, x2 = rng.integers(1, n1, 12), rng.integers(1, n2, 12)
        lower, upper = O.fisher_exact_intervals(x1, x2, n1, n2, 0.95)
        for a, b, lo, hi in zip(x1, x2, lower, upper):
            law = dict(M=n1 + n2, n=n1, N=a + b)
            assert nchypergeom_fisher.sf(a - 1, odds=lo, **law) == \
                pytest.approx(0.025, rel=1e-9)
            assert nchypergeom_fisher.cdf(a, odds=hi, **law) == \
                pytest.approx(0.025, rel=1e-9)

    def test_an_endpoint_beyond_the_log_psi_bracket_raises(self):
        # at t = 1, Pr(X <= 0) = n2 / (n2 + n1 psi) = alpha puts the upper
        # endpoint at log psi = log(n2 (1 - alpha) / (n1 alpha))
        confidence = 1.0 - 2.0 ** -52
        alpha = 0.5 * (1.0 - confidence)
        _, upper = O.fisher_exact_intervals(0, 1, 1, 10 ** 5, confidence)
        assert math.log(upper) == pytest.approx(  # 48.2: inside
            math.log(1e5 * (1.0 - alpha) / alpha), abs=1e-8)
        with pytest.raises(RuntimeError, match=(  # 50.6: outside
                r"Fisher upper endpoint at n1=1, n2=1000000, "
                r"\(x1, x2\) = \(0, 1\): no tail root in \[-50, 50\]")):
            O.fisher_exact_intervals(0, 1, 1, 10 ** 6, confidence)

    def test_batch_rejects_counts_out_of_range(self):
        with pytest.raises(ValueError):
            O.fisher_exact_intervals([3, 7], [2, 2], 6, 9)


# the covered sets of the test route against those of every outcome's
# interval, over the frozen table's shapes and more
ORACLE_SHAPES = ((20, 30), (10, 15), (8, 9), (5, 5), (60, 60))
ORACLE_C = O.COVERAGE_C + (1e-12, 1e-9)
ORACLE_Z = (1.644854, 1.959964, 2.575829)
ORACLE_OR = (0.25, 2.0 / 3.0, 1.0, 1.5, 4.0, 10.0)


def _z_interval_covered(n1, n2, or_true, c, z):
    """Oracle: (closed, open) masks of the outcomes whose z-interval
    holds log(or_true), one row per odds ratio; a degenerate nuisance
    value covers under the closed convention only."""
    x1, x2 = O.two_binomial_outcomes(n1, n2).T
    tn = O.plus_c_nuisance(x1, x2, n1, n2, c)
    lower, upper = O._theta_intervals(x1, x2, n1, n2, tn, z)[:2]
    degenerate = (tn <= 0.0) | (tn >= n1 + n2)
    theta = np.log(or_true)[:, None]
    return ((lower <= theta) & (theta <= upper) | degenerate,
            (lower < theta) & (theta < upper) & ~degenerate)


def _fisher_interval_covered(n1, n2, or_true, confidence):
    """Oracle: mask of the outcomes whose exact interval holds or_true,
    one row per odds ratio."""
    x1, x2 = O.two_binomial_outcomes(n1, n2).T
    lower, upper = O.fisher_exact_intervals(x1, x2, n1, n2, confidence)
    psi = np.asarray(or_true)[:, None]
    return (lower <= psi) & (psi <= upper)


def _assert_z_sets_match(n1, n2, or_true, c, z):
    closed, open_ = _z_interval_covered(n1, n2, np.array(or_true), c, z)
    for k, psi in enumerate(or_true):
        got = O._z_covered(n1, n2, math.log(psi), c, z)
        where = f"(n1, n2)=({n1}, {n2}) or={psi} c={c} z={z}"
        np.testing.assert_array_equal(got[0], closed[k], err_msg=where)
        np.testing.assert_array_equal(got[1], open_[k], err_msg=where)


def _assert_fisher_sets_match(n1, n2, or_true, confidence):
    want = _fisher_interval_covered(n1, n2, np.array(or_true), confidence)
    for k, psi in enumerate(or_true):
        np.testing.assert_array_equal(
            O._fisher_covered(n1, n2, psi, confidence), want[k],
            err_msg=f"(n1, n2)=({n1}, {n2}) or={psi} level={confidence}")


class TestCoverageByTheTest:
    @pytest.mark.parametrize("n1,n2", ORACLE_SHAPES)
    def test_z_test_covers_the_outcomes_whose_interval_holds_theta(
            self, n1, n2):
        for c in ORACLE_C:
            for z in ORACLE_Z:
                _assert_z_sets_match(n1, n2, ORACLE_OR, c, z)

    @pytest.mark.parametrize("n1,n2", ORACLE_SHAPES + ((100, 100),))
    def test_exact_test_covers_the_outcomes_whose_interval_holds_psi(
            self, n1, n2):
        for confidence in (0.90, 0.95, 0.99):
            _assert_fisher_sets_match(n1, n2, ORACLE_OR, confidence)

    def test_seeded_scan(self):
        rng = np.random.default_rng(23)
        for _ in range(120):
            n1, n2 = (int(v) for v in rng.integers(1, 31, 2))
            c = float(rng.choice([0.0, 0.5, 1.0, 1e-12, 1e-9,
                                  rng.uniform(0.0, 2.0)]))
            z = float(rng.uniform(0.5, 4.0))
            or_true = np.exp(rng.normal(0.0, 1.5, 4)).tolist()
            _assert_z_sets_match(n1, n2, or_true, c, z)
            _assert_fisher_sets_match(n1, n2, or_true,
                                      float(rng.uniform(0.5, 0.999)))

    def test_empty_feasible_range_covers_under_both_conventions(self):
        # c = 1e-9 moves (0, 0) to a rule value inside (0, 10) whose
        # feasible p1 range is empty: the whole line, as the interval says
        closed, open_ = O._z_covered(5, 5, 0.0, 1e-9, O.Z_95)
        assert closed[0] and open_[0]
        got = O.coverage_z(5, 5, 1.0, 0.01, 0.01, 1e-9, False)
        assert got == pytest.approx(0.99998, abs=1e-5)

    def test_coverage_table_memory_is_bounded(self):
        tracemalloc.start()
        try:
            O.coverage_table(100, 100, O.COVERAGE_CELLS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak

    def test_coverage_keeps_nothing_between_calls(self):
        # no cache on the coverage path: distinct (c, z, level) calls leave
        # less behind than one float per outcome
        n = 40
        O.coverage_table(n, n, O.COVERAGE_CELLS[:1])  # warm tables
        tracemalloc.start()
        try:
            for k in range(20):
                O.coverage_z(n, n, 1.0, 0.5, 0.5, 0.1 * k, k % 2 == 0,
                             1.0 + 0.05 * k)
                O.coverage_fisher(n, n, 1.0, 0.5, 0.5, 0.5 + 0.02 * k)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 8 * (n + 1) ** 2, retained


class TestExactCoverage:
    # frozen exact enumerations at z = 1.959964, c = 0
    def test_balanced_half_cell(self):
        got = O.coverage_z(N1, N2, 1.0, 0.5, 0.5, 0.0, True)
        assert got == pytest.approx(0.9436752327089549, abs=1e-12)

    def test_sparse_cell_depends_on_the_sign_convention(self):
        with_eq = O.coverage_z(N1, N2, 1.0, 0.01, 0.01, 0.0, True)
        without = O.coverage_z(N1, N2, 1.0, 0.01, 0.01, 0.0, False)
        assert with_eq == pytest.approx(0.9992569514325904, abs=1e-12)
        assert without == pytest.approx(0.39425088429505384, abs=1e-12)
        # the gap is exactly the mass of the two all-boundary outcomes
        gap = 0.99 ** 50 + 0.01 ** 50
        assert with_eq - without == pytest.approx(gap, abs=1e-12)

    def test_closed_version_always_covers_at_least_the_open_one(self):
        for or_true, p1, p2 in O.COVERAGE_CELLS[:5]:
            a = O.coverage_z(N1, N2, or_true, p1, p2, 0.5, True)
            b = O.coverage_z(N1, N2, or_true, p1, p2, 0.5, False)
            assert a >= b

    def test_shrinkage_c_raises_sparse_cell_coverage(self):
        base = O.coverage_z(N1, N2, 1.0, 0.01, 0.01, 0.0, False)
        c_half = O.coverage_z(N1, N2, 1.0, 0.01, 0.01, 0.5, False)
        assert c_half > base

    def test_fisher_coverage_is_conservative(self):
        got = O.coverage_fisher(N1, N2, 1.0, 0.5, 0.5, 0.95)
        assert got == pytest.approx(0.9753816989626016, abs=1e-12)
        assert got >= 0.95

    def test_coverage_table_computes_each_cells_masses_once(self,
                                                           monkeypatch):
        calls, log_masses = [], O._log_masses

        def counted(*args):
            calls.append(args)
            return log_masses(*args)

        monkeypatch.setattr(O, "_log_masses", counted)
        rows = O.coverage_table(N1, N2, O.COVERAGE_CELLS[:3])
        assert len(calls) == 3
        for r in rows:  # each row as coverage_z or coverage_fisher gives it
            want = (O.coverage_z(N1, N2, r.or_true, r.p1, r.p2, r.c,
                                 r.equal_sign)
                    if r.method == "z-standard" else
                    O.coverage_fisher(N1, N2, r.or_true, r.p1, r.p2,
                                      O.z_confidence(O.Z_95)))
            assert r.coverage == want

    def test_coverage_table_builds_each_odds_ratios_tests_once(
            self, monkeypatch):
        calls = {"_z_covered": 0, "_fisher_covered": 0}
        for name in calls:
            def counted(*args, name=name, inner=getattr(O, name)):
                calls[name] += 1
                return inner(*args)
            monkeypatch.setattr(O, name, counted)
        rows = O.coverage_table(6, 8, O.COVERAGE_CELLS)
        # 3 odds ratios: a z test at each of the 3 c and one exact test
        assert calls == {"_z_covered": 9, "_fisher_covered": 3}
        monkeypatch.undo()
        assert rows == [row for cell in O.COVERAGE_CELLS
                        for row in O.coverage_table(6, 8, [cell])]

    def test_coverage_table_shape(self):
        rows = O.coverage_table(6, 8, ((1.0, 0.5, 0.5),))
        # both sign conventions, each with every c and the exact method
        want = [row for eq in (True, False)
                for row in [(eq, c, "z-standard") for c in O.COVERAGE_C]
                + [(eq, 0.0, "fisher-exact")]]
        assert [(r.equal_sign, r.c, r.method) for r in rows] == want
        assert all(0.0 <= r.coverage <= 1.0 for r in rows)


def _score_tail_loop(x1, x2, n1, n2, theta, side):
    """Oracle: one score-test tail, an outcome at a time, each statistic
    from the score's formula in scalar arithmetic."""
    def stat(a, b):
        if a + b in (0, n1 + n2):
            return 0.0
        q1, q2 = two_binomial_probs(theta, float(a + b), n1, n2)
        v1, v2 = q1 * (1.0 - q1), q2 * (1.0 - q2)
        return (((a / n1 - q1) / v1 - (b / n2 - q2) / v2)
                / math.sqrt(1.0 / (n1 * v1) + 1.0 / (n2 * v2)))

    obs = stat(x1, x2)
    t = x1 + x2
    p1, p2 = two_binomial_probs(theta, float(t), n1, n2)
    terms = []
    for a in range(n1 + 1):
        for b in range(n2 + 1):
            s = stat(a, b)
            if (s >= obs - 1e-12) if side == "ge" else (s <= obs + 1e-12):
                terms.append(_log_comb(n1, a) + _log_comb(n2, b)
                             + a * math.log(p1) + (n1 - a) * math.log1p(-p1)
                             + b * math.log(p2) + (n2 - b) * math.log1p(-p2))
    return math.fsum(math.exp(v) for v in sorted(terms, reverse=True))


class TestLogSumExp:
    def test_logsumexp_matches_scipy_at_the_extremes(self):
        from scipy.special import logsumexp
        inf = np.inf
        rows = np.array([
            [1e300, 1e300, -1e300], [-1e300, -1e300, -1e300],
            [1e300, -inf, 0.0], [-inf, -inf, -inf], [-inf, 0.5, -inf],
            [-745.0, -746.0, -inf], [700.0, 709.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = O.logsumexp(rows)
            one = O.logsumexp(rows[3])
        want = logsumexp(rows, axis=-1)
        assert got[3] == -inf and one == -inf
        finite = np.isfinite(want)
        np.testing.assert_array_equal(np.isfinite(got), finite)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-15)
        rng = np.random.default_rng(5)
        a = rng.normal(0.0, 30.0, (50, 40))
        a[rng.random(a.shape) < 0.3] = -inf
        np.testing.assert_allclose(O.logsumexp(a), logsumexp(a, axis=-1),
                                   rtol=1e-14)


class TestScoreTails:
    def test_sides_partition_up_to_the_observed_atom(self):
        ge, le = (O.score_tails(N1, N2, 8, 12, 0.3, side)[0]
                  for side in (True, False))
        assert 1.0 <= ge + le <= 1.0 + 0.5  # both include the observed atom

    def test_ge_tail_shrinks_as_theta_moves_left_of_the_estimate(self):
        d = _data(12, 9)
        t_hat = O.sbar_zero_theta(d)
        tails = [O.score_tails(N1, N2, d.x1, d.x2, t, True)[0]
                 for t in (t_hat, t_hat - 1.0, t_hat - 2.0)]
        assert tails[0] > tails[1] > tails[2]

    def test_batched_tails_match_a_loop_over_cells(self):
        # oracle: each row's statistics from the scalar profiled score and
        # its masses from math.lgamma, summed largest first
        n1, n2 = 4, 5
        rows = O.fisher_endpoint_tails(n1, n2)
        lower, upper = O.fisher_exact_intervals(
            *np.mgrid[1:n1, 1:n2].reshape(2, -1), n1, n2, 0.95)
        for (a, b, left, right), lo, hi in zip(rows, lower, upper):
            for end, side, got in ((lo, "ge", left), (hi, "le", right)):
                want = _score_tail_loop(a, b, n1, n2, math.log(end), side)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_blocks_do_not_change_the_tails(self, monkeypatch):
        whole = O.fisher_endpoint_tails(6, 8)
        monkeypatch.setattr(O, "SCORE_TAIL_BLOCK", 100)  # one row per block
        assert O.fisher_endpoint_tails(6, 8) == whole

    def test_one_row_blocks_match_the_default_blocks(self, monkeypatch):
        # (20, 30): 25 rows per default block, 120 rows in 5 blocks
        rng = np.random.default_rng(7)
        x1, x2 = rng.integers(1, 20, 120), rng.integers(1, 30, 120)
        theta, ge = rng.normal(0.0, 1.0, 120), rng.random(120) < 0.5
        default = O.score_tails(N1, N2, x1, x2, theta, ge)
        monkeypatch.setattr(O, "SCORE_TAIL_BLOCK", 1)
        np.testing.assert_array_equal(
            O.score_tails(N1, N2, x1, x2, theta, ge), default)

    def test_each_row_inverts_once_per_nuisance_value(self, monkeypatch):
        sizes, inner = [], O._line_probs

        def counted(theta, tnuis, n1, n2):
            sizes.append(np.broadcast(theta, tnuis).size)
            return inner(theta, tnuis, n1, n2)

        monkeypatch.setattr(O, "_line_probs", counted)
        rng = np.random.default_rng(7)
        x1, x2 = rng.integers(1, 20, 120), rng.integers(1, 30, 120)
        O.score_tails(N1, N2, x1, x2, rng.normal(0.0, 1.0, 120), True)
        # each row's observed null point, then one per nuisance value
        # 0..n1+n2, not one per outcome
        assert sum(sizes) == 120 * (1 + N1 + N2 + 1)

    def test_boundary_data_have_no_null(self):
        with pytest.raises(O.InfeasibleNuisance):
            O.score_tails(N1, N2, 0, 0, 0.3, True)

    def test_endpoint_tails_are_below_the_nominal_half_level(self):
        rows = O.fisher_endpoint_tails(6, 8)
        assert len(rows) == 5 * 7
        worst = max(max(r[2], r[3]) for r in rows)
        assert worst == pytest.approx(0.02134075438604372, abs=1e-10)
        assert worst <= 0.025

    def test_endpoint_tails_memory_is_bounded(self):
        # line terms once per nuisance value and factored masses: the
        # broadcast forms peaked at 1.45 MB here
        O.fisher_endpoint_tails(N1, N2)  # warm tables
        tracemalloc.start()
        try:
            O.fisher_endpoint_tails(N1, N2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2e6, peak


# the forms the factored kernels replaced, kept as oracles: each result
# must come back bit for bit
FACTORED_SHAPES = ((1, 1), (3, 4), (10, 15), (20, 30))


def _log_masses_broadcast(n1, n2, p1, p2):
    """Log masses from each group's pmf evaluated at every outcome."""
    x1, x2 = O.two_binomial_outcomes(n1, n2).T
    return (O.log_binom_pmf(x1, n1, np.asarray(p1)[..., None])
            + O.log_binom_pmf(x2, n2, np.asarray(p2)[..., None]))


def _fisher_intervals_unique(x1, x2, n1, n2, confidence):
    """fisher_exact_intervals with its table rows chosen by np.unique."""
    alpha = 0.5 * (1.0 - confidence)
    x1, x2 = np.broadcast_arrays(x1, x2)
    t = x1 + x2
    ends = np.stack([x1 > np.maximum(0, t - n2), x1 < np.minimum(n1, t)])
    a, b = (np.broadcast_to(v, ends.shape)[ends] for v in (x1, x2))
    ge = np.nonzero(ends)[0] == 0
    ts, which = np.unique(a + b, return_inverse=True)
    woolf = np.log((a + 0.5) * (n2 - b + 0.5) / ((n1 - a + 0.5) * (b + 0.5)))
    se = np.sqrt(1.0 / (a + 0.5) + 1.0 / (n1 - a + 0.5) + 1.0 / (b + 0.5)
                 + 1.0 / (n2 - b + 0.5))
    psi = np.stack([np.zeros(t.shape), np.full(t.shape, np.inf)])
    psi[ends] = np.exp(K._invert_tails(
        O._cond_log_coef(n1, n2, ts), which, a + ~ge, ge, math.log(alpha),
        woolf, se, O.LOG_PSI_BOUND, str))
    return psi[0], psi[1]


def _sbar_elementwise(x1, x2, n1, n2, p1, p2):
    """The standardized score as one broadcast expression."""
    x1, x2, p1, p2 = (np.asarray(v, dtype=float) for v in (x1, x2, p1, p2))
    a1 = p1 * (1.0 - p1)
    a2 = p2 * (1.0 - p2)
    pref = 1.0 / np.sqrt(1.0 / (n1 * a1) + 1.0 / (n2 * a2))
    return pref * ((x1 / n1 - p1) / a1 - (x2 / n2 - p2) / a2)


def _score_stats_gathered(n1, n2, p1, p2):
    """Every outcome's score with (p1, p2) gathered from per-nuisance
    value rows by x1 + x2 before the score is taken."""
    ox1, ox2 = O.two_binomial_outcomes(n1, n2).T
    tn = ox1 + ox2
    return _sbar_elementwise(ox1, ox2, n1, n2, p1[:, tn], p2[:, tn])


def _score_tails_gathered(n1, n2, x1, x2, theta, ge):
    """score_tails from the gathered scores and broadcast masses."""
    ox1, ox2 = O.two_binomial_outcomes(n1, n2).T
    tn = ox1 + ox2
    stats = _score_stats_gathered(n1, n2, *K._line_probs(
        theta[:, None], np.arange(n1 + n2 + 1), n1, n2))
    stats[:, (tn == 0) | (tn == n1 + n2)] = 0.0
    obs = stats[np.arange(len(stats)), x1 * (n2 + 1) + x2, None]
    keep = np.where(ge[:, None], stats >= obs - 1e-12, stats <= obs + 1e-12)
    logm = _log_masses_broadcast(n1, n2, *K._line_probs(theta, x1 + x2, n1,
                                                        n2))
    return np.array([O._mass_sum(lm, k) for lm, k in zip(logm, keep)])


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _line_grid(n1, n2, rng):
    """(p1, p2) rows over the nuisance values 0..n1+n2: the null points of
    a few log odds ratios, then rows of uniform draws with 0 and 1 mixed
    in."""
    p1, p2 = K._line_probs(np.array([-3.0, 0.0, 0.4, 2.5])[:, None],
                           np.arange(n1 + n2 + 1), n1, n2)
    u = rng.random((2, 3, n1 + n2 + 1))
    u[:, :, ::3] = 0.0
    u[:, :, 1::4] = 1.0
    return np.vstack([p1, u[0]]), np.vstack([p2, u[1]])


class TestFactoredForms:
    @pytest.mark.parametrize("n1,n2", FACTORED_SHAPES)
    def test_log_masses_match_the_broadcast_form(self, n1, n2):
        p = np.array([0.0, 1.0, 1e-9, 0.3, 0.5, 1.0 - 1e-9])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p1, p2 in ((p, p[::-1]), (0.0, 1.0), (0.3, p),
                           (p[:, None], p)):
                _assert_same_bits(O._log_masses(n1, n2, p1, p2),
                                  _log_masses_broadcast(n1, n2, p1, p2))

    @pytest.mark.parametrize("n1,n2", FACTORED_SHAPES)
    def test_fisher_intervals_match_the_unique_route(self, n1, n2):
        x1, x2 = O.two_binomial_outcomes(n1, n2).T
        mid = len(x1) // 2
        for rows in (slice(None), slice(mid, mid + 1), slice(0, 0)):
            for confidence in (0.9, 0.95):
                args = (x1[rows], x2[rows], n1, n2, confidence)
                for got, want in zip(O.fisher_exact_intervals(*args),
                                     _fisher_intervals_unique(*args)):
                    _assert_same_bits(got, want)

    @pytest.mark.parametrize("n1,n2", FACTORED_SHAPES)
    def test_line_terms_match_the_gathered_score(self, n1, n2):
        p1, p2 = _line_grid(n1, n2, np.random.default_rng(n1 * 100 + n2))
        ox1, ox2 = O.two_binomial_outcomes(n1, n2).T
        with np.errstate(divide="ignore", invalid="ignore"):
            got = K._sbar_combine(ox1, ox2, n1, n2,
                                  K._sbar_line(p1, p2, n1, n2), ox1 + ox2)
            want = _score_stats_gathered(n1, n2, p1, p2)
            _assert_same_bits(got, want)
            # the per-outcome kernel, on gathered and on broadcast inputs
            tn = ox1 + ox2
            _assert_same_bits(
                K.sbar_profiled_batch(ox1, ox2, n1, n2, p1[:, tn], p2[:, tn]),
                want)
            _assert_same_bits(
                K.sbar_profiled_batch(ox1[:, None], ox2[:, None], n1, n2,
                                      p1[0], p2[0]),
                _sbar_elementwise(ox1[:, None], ox2[:, None], n1, n2, p1[0],
                                  p2[0]))
        _assert_same_bits(K.sbar_profiled_batch(3.0, 4, n1 + 3, n2 + 4,
                                                0.25, 0.5),
                          _sbar_elementwise(3.0, 4, n1 + 3, n2 + 4, 0.25,
                                            0.5))

    @pytest.mark.parametrize("n1,n2", FACTORED_SHAPES[1:])
    def test_score_tails_match_the_gathered_route(self, n1, n2):
        x1, x2 = np.mgrid[1:n1, 1:n2].reshape(2, -1)
        lower, upper = O.fisher_exact_intervals(x1, x2, n1, n2, 0.95)
        ends = np.concatenate([lower, upper])
        ok = (ends > 0.0) & np.isfinite(ends)
        args = (np.tile(x1, 2)[ok], np.tile(x2, 2)[ok], np.log(ends[ok]),
                np.repeat([True, False], len(x1))[ok])
        _assert_same_bits(O.score_tails(n1, n2, *args),
                          _score_tails_gathered(n1, n2, *args))
