"""Two-binomial log-odds-ratio: intervals, coverage, endpoint tails."""

import math
import warnings

import numpy as np
import pytest
from scipy.stats.contingency import odds_ratio

from genestim import oddsratio as O

N1, N2 = 20, 30


def _data(x1, x2, n1=N1, n2=N2):
    return O.TwoBinomialData(x1, x2, n1, n2)


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
        d = _data(3, 7)
        assert O.plus_c_nuisance(d, 0.0) == 10.0
        c = 0.5
        expect = 20 * 3.5 / 21 + 30 * 7.5 / 31
        assert O.plus_c_nuisance(d, c) == pytest.approx(expect, abs=1e-14)
        with pytest.raises(ValueError):
            O.plus_c_nuisance(d, -1.0)

    def test_plus_c_moves_boundary_data_off_the_boundary(self):
        d = _data(0, 0)
        assert O.NuisanceRule("profiled").resolve(d) == 0.0
        assert 0.0 < O.NuisanceRule("plus-c", c=0.5).resolve(d) < N1 + N2

    def test_fixed_value_rule(self):
        d = _data(4, 9)
        assert O.NuisanceRule("fixed-value", value=17.0).resolve(d) == 17.0
        with pytest.raises(ValueError):
            O.NuisanceRule("bayes").resolve(d)


class TestProfiledScore:
    def test_zero_at_the_sample_log_odds_ratio(self):
        d = _data(10, 15)
        assert O.profiled_sbar(d, 0.0) == pytest.approx(0.0, abs=1e-12)
        d2 = _data(12, 9)
        theta_hat = O.log_or(12 / 20, 9 / 30)
        assert O.profiled_sbar(d2, theta_hat) == pytest.approx(0.0, abs=1e-9)

    def test_decreasing_in_theta(self):
        d = _data(12, 9)
        grid = np.linspace(-2.0, 2.0, 41)
        vals = [O.profiled_sbar(d, t) for t in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_unit_variance_at_the_null(self):
        # exact second moment of the statistic over the outcome grid,
        # evaluated at the parameter pair the statistic is centered at
        theta = 0.0
        stats = O._profiled_sbar_all_outcomes(N1, N2,
                                              *O._profile(N1, N2, theta))
        # variance taken conditionally-null at p1 = p2 = 0.5 is close to
        # one by construction of the standardization
        logm = O._log_masses(N1, N2, 0.5, 0.5)
        m = np.exp(logm)
        var = float(np.sum(m * stats ** 2))
        assert var == pytest.approx(1.0, abs=0.06)

    def test_degenerate_nuisance_raises(self):
        with pytest.raises(O.InfeasibleNuisance):
            O.profiled_sbar(_data(0, 0), 0.0)

    def test_point_estimate(self):
        assert O.sbar_zero_theta(_data(10, 15)) == pytest.approx(0.0,
                                                                 abs=1e-12)
        d = _data(12, 9)
        assert O.sbar_zero_theta(d) == pytest.approx(
            O.log_or(0.6, 0.3), abs=1e-12)
        # a generic rule solves the same root by bisection
        got = O.sbar_zero_theta(d, O.NuisanceRule("fixed-value", value=21.0))
        assert got == pytest.approx(O.log_or(0.6, 0.3), abs=1e-8)
        with pytest.raises(O.InfeasibleNuisance):
            O.sbar_zero_theta(_data(0, 9))

    def test_bisected_point_estimate_is_the_closed_form(self):
        # plus-c at c = 0 pins the nuisance at x1 + x2 like the profile,
        # but takes the bisection branch
        rule = O.NuisanceRule("plus-c", c=0.0)
        for x1 in range(1, N1):
            for x2 in range(1, N2):
                got = O.sbar_zero_theta(_data(x1, x2), rule)
                assert got == pytest.approx(O.log_or(x1 / N1, x2 / N2),
                                            abs=1e-12), (x1, x2)


class TestZInterval:
    def test_symmetric_data_gives_a_symmetric_interval(self):
        res = O.z_interval(_data(10, 15))
        assert res.lower == pytest.approx(-res.upper, abs=1e-10)
        assert res.contains(0.0)

    def test_endpoints_pinch_the_score_to_z(self):
        d = _data(12, 9)
        res = O.z_interval(d, z=O.Z_95)
        assert abs(O.profiled_sbar(d, res.lower)) == pytest.approx(
            O.Z_95, abs=1e-7)
        assert abs(O.profiled_sbar(d, res.upper)) == pytest.approx(
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
        rule = O.NuisanceRule("fixed-value", value=value)
        res = O.z_interval(d, z=1.959964, rule=rule)
        assert res.lower == -math.inf and res.upper == math.inf
        assert res.boundary_note == (
            "score root not bracketed: whole feasible range; "
            "lower endpoint unbounded (boundary of feasible range); "
            "upper endpoint unbounded (boundary of feasible range)")
        assert math.isnan(O.sbar_zero_theta(d, rule, allow_nan=True))
        with pytest.raises(O.InfeasibleNuisance, match="not bracketed"):
            O.sbar_zero_theta(d, rule)

    def test_bad_z_rejected(self):
        with pytest.raises(ValueError):
            O.z_interval(_data(5, 5), z=0.0)


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

    def test_grid_cache_is_bounded(self):
        O._fisher_intervals_all.cache_clear()
        for k in range(20):
            O._fisher_intervals_all(2, 3, 0.5 + 0.02 * k)
        assert O._fisher_intervals_all.cache_info().currsize <= 16


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

    def test_coverage_table_computes_each_cells_masses_once(self):
        O._cell_log_masses.cache_clear()
        rows = O.coverage_table(N1, N2, O.COVERAGE_CELLS[:3])
        info = O._cell_log_masses.cache_info()
        assert (info.misses, info.hits) == (3, 3 * (len(rows) // 3 - 1))
        for r in rows[:8]:  # each from freshly computed masses
            O._cell_log_masses.cache_clear()
            want = (O.coverage_z(N1, N2, r.or_true, r.p1, r.p2, r.c,
                                 r.equal_sign)
                    if r.method == "z-standard" else
                    O.coverage_fisher(N1, N2, r.or_true, r.p1, r.p2,
                                      O.z_confidence(O.Z_95)))
            assert r.coverage == want

    def test_coverage_table_shape(self):
        rows = O.coverage_table(6, 8, ((1.0, 0.5, 0.5),),
                                c_list=(0.0,), equal_options=(True,))
        methods = {r.method for r in rows}
        assert methods == {"z-standard", "fisher-exact"}
        assert all(0.0 <= r.coverage <= 1.0 for r in rows)


def _score_tail_loop(x1, x2, n1, n2, theta, side):
    """Oracle: one score-test tail, an outcome at a time."""
    def stat(a, b):
        if a + b in (0, n1 + n2):
            return 0.0
        return O.profiled_sbar(_data(a, b, n1, n2), theta)

    obs = stat(x1, x2)
    t = x1 + x2
    p1, p2 = O.two_binomial_probs(theta, float(t), n1, n2)
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
        d = _data(8, 12)
        theta = 0.3
        ge = O.score_tail_at(d, theta, "ge")
        le = O.score_tail_at(d, theta, "le")
        assert 1.0 <= ge + le <= 1.0 + 0.5  # both include the observed atom
        with pytest.raises(ValueError):
            O.score_tail_at(d, theta, "both")

    def test_ge_tail_shrinks_as_theta_moves_left_of_the_estimate(self):
        d = _data(12, 9)
        t_hat = O.sbar_zero_theta(d)
        tails = [O.score_tail_at(d, t, "ge")
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
        monkeypatch.setattr(O, "TAIL_BLOCK", 100)  # one row per block
        assert O.fisher_endpoint_tails(6, 8) == whole

    def test_boundary_data_have_no_null(self):
        with pytest.raises(O.InfeasibleNuisance):
            O.score_tail_at(_data(0, 0), 0.3, "ge")

    def test_endpoint_tails_are_below_the_nominal_half_level(self):
        rows = O.fisher_endpoint_tails(6, 8)
        assert len(rows) == 5 * 7
        worst = max(max(r[2], r[3]) for r in rows)
        assert worst == pytest.approx(0.02134075438604372, abs=1e-10)
        assert worst <= 0.025
