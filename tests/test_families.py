"""Model families, expectation engines, scores, Fisher information."""

import functools
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genestim import families as F

ENGINE = F.ExpectationEngine(mode="exact")


# --- independent per-outcome oracles: scalar densities and scores written
# out by hand for each finite built-in family ---


def _log_binom(k, n, log_p, log_q):
    """log Pr(Bin(n, p) = k) for one count, from math.lgamma, given
    log p and log q = log(1 - p)."""
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * log_p + (n - k) * log_q)


def _binomial_p(family, point):
    """(n, p, q = 1 - p, log p, log q, logit?) of a bernoulli-sum family;
    in the logit parameterization each of p and q comes from eta itself,
    so neither loses precision near 0 or 1."""
    x = float(point[0])
    n = family.meta["n"]
    if family.label.endswith(",logit)"):
        return (n, 1.0 / (1.0 + math.exp(-x)), 1.0 / (1.0 + math.exp(x)),
                -math.log1p(math.exp(-x)), -math.log1p(math.exp(x)), True)
    return n, x, 1.0 - x, math.log(x), math.log1p(-x), False


@functools.lru_cache(maxsize=64)
def _two_binomial_probs(theta, tnuis, n1, n2):
    return F.two_binomial_probs(theta, tnuis, n1, n2)


def _two_binomial_p(family, point):
    n1, n2 = family.meta["n1"], family.meta["n2"]
    p1, p2 = _two_binomial_probs(float(point[0]), float(point[1]), n1, n2)
    return n1, n2, p1, p2, 1.0 - p1, 1.0 - p2


def oracle_log_density(family, y, point):
    """Scalar log-density of one outcome of a finite built-in family."""
    if "n1" in family.meta:
        n1, n2, p1, p2, q1, q2 = _two_binomial_p(family, point)
        return (_log_binom(int(y[0]), n1, math.log(p1), math.log(q1))
                + _log_binom(int(y[1]), n2, math.log(p2), math.log(q2)))
    n, _, _, log_p, log_q, _ = _binomial_p(family, point)
    return _log_binom(int(y), n, log_p, log_q)


def oracle_score(family, y, point):
    """Full score of one outcome: in p, in logit p, or in (theta, tnuis)
    for the two-binomial through dp/dtheta at fixed tnuis.  y - n p is
    written y q - (n - y) p, which stays exact as p nears 1."""
    if "n1" in family.meta:
        n1, n2, p1, p2, q1, q2 = _two_binomial_p(family, point)
        a1, a2 = p1 * q1, p2 * q2
        den = n1 * a1 + n2 * a2
        dp1 = n2 * a1 * a2 / den
        dp2 = -n1 * a1 * a2 / den
        return np.array([(y[0] / p1 - (n1 - y[0]) / q1) * dp1
                         + (y[1] / p2 - (n2 - y[1]) / q2) * dp2,
                         (y[0] * q1 - (n1 - y[0]) * p1
                          + y[1] * q2 - (n2 - y[1]) * p2) / den])
    n, p, q, _, _, logit = _binomial_p(family, point)
    if logit:
        return np.array([y * q - (n - y) * p])
    return np.array([y / p - (n - y) / q])


def _expect_loop(family, point, h):
    """Oracle: the per-outcome exact summation, sum of exp(log p(y)) h(y)
    over the outcomes in order, from the scalar oracle log-density."""
    point = family.check_point(point)
    total = None
    for y in family.support.outcomes:
        w = math.exp(oracle_log_density(family, y, point))
        hv = np.atleast_1d(np.asarray(h(y), dtype=float))
        total = w * hv if total is None else total + w * hv
    return total


def assert_matches_loop(got, family, point, h, rel=1e-12):
    """``got`` equals the loop's E[h] to ``rel`` of E|h|, the scale that
    round-off acts on even where E[h] itself cancels to about 0."""
    want = _expect_loop(family, point, h)
    scale = _expect_loop(family, point, lambda y: np.abs(h(y)))
    np.testing.assert_array_less(np.abs(np.asarray(got) - want),
                                 rel * scale + 1e-300)


# finite built-in families with points at the edges of their domains:
# p near 0 and 1, and a two-binomial nuisance near 0 and near n1 + n2
FINITE_CASES = [
    (F.bernoulli_sum(20), [p]) for p in (1e-6, 0.3, 0.5, 1.0 - 1e-6)
] + [
    (F.bernoulli_sum(20, "logit"), [eta]) for eta in (-13.8, 0.4, 13.8)
] + [
    (F.two_binomial(20, 30), [theta, tn])
    for theta in (-1.0, 0.0, 2.0) for tn in (1e-3, 22.0, 50.0 - 1e-3)
] + [(F.two_binomial(3, 1), [0.7, 2.5])]


def _moments(family, point):
    """(per-outcome oracle h, row map H) of the outcome, its score and the
    score's outer product: every moment the engine's callers take."""
    def h(y):
        s = oracle_score(family, y, point)
        return np.concatenate([[1.0], np.atleast_1d(y), s,
                               np.outer(s, s).ravel()])

    def H(Y):
        S = F.score(family, Y, point)
        return np.hstack([np.ones((len(Y), 1)), Y.reshape(len(Y), -1), S,
                          F.outer_rows(S, S)])

    return h, H


class TestExpectationEngine:
    def test_exact_moments_of_the_binomial(self):
        fam = F.bernoulli_sum(20)
        assert ENGINE.expect(fam, [0.5], lambda Y: Y)[0] == \
            pytest.approx(10.0, abs=1e-12)
        assert ENGINE.expect(fam, [0.5], np.ones_like)[0] == \
            pytest.approx(1.0, abs=1e-12)
        assert ENGINE.expect(fam, [0.3], lambda Y: (Y - 6.0) ** 2)[0] == \
            pytest.approx(4.2, abs=1e-12)

    def test_mc_mode_tracks_exact_mode(self):
        fam = F.bernoulli_sum(20)
        mc = F.ExpectationEngine(mode="mc", replications=200_000, seed=7)
        val, se = mc.expect_se(fam, [0.3], lambda Y: Y)
        se = float(np.asarray(se).ravel()[0])
        assert se < 0.01
        assert float(np.asarray(val).ravel()[0]) == pytest.approx(
            6.0, abs=5 * se)

    def test_exact_mode_requires_finite_support(self):
        fam = F.normal_location(5)
        with pytest.raises(F.EngineError):
            ENGINE.expect(fam, [0.0], lambda Y: Y)

    def test_mc_mode_requires_a_sampler(self):
        fam = F.bernoulli_sum(4)
        crippled = F.ModelFamily(
            label="no-sampler",
            support=F.SupportDescriptor(outcomes=np.arange(5)),
            dim_interest=1, dim_nuisance=0, in_domain=fam.in_domain,
            log_density_rows=fam.log_density_rows,
            score_rows=fam.score_rows)
        with pytest.raises(F.EngineError):
            F.ExpectationEngine(mode="mc").expect(crippled, [0.5], lambda Y: Y)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            F.ExpectationEngine(mode="bootstrap")

    @pytest.mark.parametrize("family,point", FINITE_CASES,
                             ids=lambda c: getattr(c, "label", str(c)))
    def test_expect_matches_the_loop(self, family, point):
        h, H = _moments(family, point)
        assert_matches_loop(ENGINE.expect(family, point, H),
                            family, point, h)

    @pytest.mark.parametrize("family,point", FINITE_CASES,
                             ids=lambda c: getattr(c, "label", str(c)))
    def test_a_row_does_not_depend_on_its_batch(self, family, point):
        # each outcome alone, as a one-row array: equal, not close
        Y = family.support.outcomes
        np.testing.assert_array_equal(
            family.log_density_rows(Y, point),
            [family.log_density_rows(Y[i:i + 1], point)[0]
             for i in range(len(Y))])
        np.testing.assert_array_equal(
            F.score(family, Y, point),
            [F.score(family, Y[i:i + 1], point)[0] for i in range(len(Y))])

    @pytest.mark.parametrize("family,point", FINITE_CASES,
                             ids=lambda c: getattr(c, "label", str(c)))
    def test_rows_match_the_oracles(self, family, point):
        Y = family.support.outcomes
        want = [oracle_log_density(family, y, point) for y in Y]
        np.testing.assert_allclose(family.log_density_rows(Y, point), want,
                                   rtol=1e-12, atol=1e-12)
        want = np.array([oracle_score(family, y, point) for y in Y])
        np.testing.assert_allclose(F.score(family, Y, point), want,
                                   rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))

    def test_expect_keeps_the_row_shape(self):
        fam = F.bernoulli_sum(6)
        assert ENGINE.expect(fam, [0.3], lambda Y: Y).shape == (1,)
        out = ENGINE.expect(
            fam, [0.3], lambda Y: np.ones((len(Y), 2, 3)))
        np.testing.assert_allclose(out, np.ones((2, 3)), atol=1e-14)

    def test_mc_averages_the_seeded_draws(self):
        # the oracle scores one draw at a time, from the same seeded sampler
        fam = F.two_binomial(5, 7)
        point = np.array(F.two_binomial_params(0.3, 0.6, 5, 7))
        mc = F.ExpectationEngine(mode="mc", replications=2000, seed=11)
        val, se = mc.expect_se(fam, point, lambda Y: F.score(fam, Y, point))
        rng = np.random.default_rng(np.random.SeedSequence(11))
        draws = fam.support.sampler(rng, point, 2000)
        scores = np.array([oracle_score(fam, y, point) for y in draws])
        np.testing.assert_allclose(val, scores.mean(axis=0), rtol=1e-12,
                                   atol=1e-12 * np.abs(scores).mean())
        np.testing.assert_allclose(
            se, scores.std(axis=0, ddof=1) / math.sqrt(2000), rtol=1e-9)


class TestSupportDescriptor:
    def test_duplicate_outcomes_rejected(self):
        with pytest.raises(ValueError):
            F.SupportDescriptor(outcomes=np.array([1, 2, 2]))

    def test_duplicate_rows_rejected_not_shared_values(self):
        # rows sharing a first or a second value are distinct outcomes
        grid = np.array([[0, 1], [1, 0], [1, 1], [0, 0], [2, 1]])
        F.SupportDescriptor(outcomes=grid)
        F.SupportDescriptor(outcomes=np.array([3, 1, 2]))
        for dup in ([[0, 1], [1, 0], [2, 2], [0, 1]],
                    [[5, 5], [5, 5]], [[0.5, 1.0], [1.0, 0.5], [0.5, 1.0]]):
            with pytest.raises(ValueError, match="duplicate"):
                F.SupportDescriptor(outcomes=np.array(dup))
        with pytest.raises(ValueError, match="duplicate"):
            F.SupportDescriptor(outcomes=np.array([4, 0, 3, 0]))

    def test_family_construction_leaves_numpy_ma_unloaded(self):
        # np.unique imports numpy.ma; a fresh interpreter, since this one
        # may have loaded it
        src = os.path.dirname(os.path.dirname(F.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("import sys; from genestim import families as F; "
                "F.bernoulli_sum(30); F.two_binomial(5, 7); "
                "print('numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=120)
        assert out.stdout.strip() == "False"

    def test_finite_support_needs_outcomes(self):
        with pytest.raises(ValueError, match="needs outcomes"):
            F.SupportDescriptor(outcomes=np.array([]))


class TestScores:
    def test_binomial_score_examples(self):
        fam = F.bernoulli_sum(20)
        s = F.score(fam, np.array([6]), [0.3])
        assert s.shape == (1, 1) and s[0, 0] == pytest.approx(0.0, abs=1e-12)
        s = F.score(fam, np.array([6]), [0.5])
        assert s[0, 0] == pytest.approx(-16.0, abs=1e-12)

    @given(p=st.floats(0.05, 0.95))
    @settings(max_examples=25, deadline=None)
    def test_score_is_mean_zero(self, p):
        fam = F.bernoulli_sum(12)
        val = ENGINE.expect(fam, [p], lambda Y: F.score(fam, Y, [p]))
        assert abs(val[0]) < 1e-10

    def test_out_of_domain_point_raises(self):
        fam = F.bernoulli_sum(10)
        with pytest.raises(F.DomainError):
            F.score(fam, np.array([3]), [1.5])
        with pytest.raises(F.DomainError):
            fam.check_point([0.2, 0.3])

    def test_two_binomial_out_of_domain_point_raises(self):
        fam = F.two_binomial(20, 30)
        # [0, 1e-12] passes the range test, but its feasible p1 range is
        # empty, so only the (theta, tnuis) -> (p1, p2) inversion rejects it
        for bad in ([0.0, 0.0], [0.0, 50.0], [math.nan, 25.0],
                    [0.0, 1e-12]):
            for _ in range(2):  # a cached rejection would pass the 2nd time
                with pytest.raises(F.DomainError):
                    fam.check_point(bad)
        # no rejection was cached in place of a valid point
        point = fam.check_point([0.0, 25.0])
        assert F.score(fam, np.array([[10, 15]]), point)[0] == pytest.approx(
            [0.0, 0.0])


class TestFisherInfo:
    def test_binomial_information(self):
        fam = F.bernoulli_sum(20)
        info = F.fisher_info(ENGINE, fam, [0.5])
        assert info.I[0, 0] == pytest.approx(80.0, abs=1e-9)
        assert info.I_perp[0, 0] == pytest.approx(80.0, abs=1e-9)

    def test_information_equals_negative_mean_hessian(self):
        fam = F.bernoulli_sum(20)
        p, h = 0.3, 1e-5
        i_sq = float(ENGINE.expect(
            fam, [p], lambda Y: F.score(fam, Y, [p]) ** 2)[0])
        i_h = -float(ENGINE.expect(
            fam, [p],
            lambda Y: (F.score(fam, Y, [p + h])
                       - F.score(fam, Y, [p - h])) / (2 * h))[0])
        assert i_h == pytest.approx(i_sq, rel=1e-6)

    def test_two_binomial_blocks(self):
        fam = F.two_binomial(20, 30)
        point = np.array(F.two_binomial_params(0.5, 0.5, 20, 30))
        info = F.fisher_info(ENGINE, fam, point)
        assert info.I_perp[0, 0] == pytest.approx(3.0, abs=1e-10)
        assert abs(info.I_cross[0, 0]) < 1e-12

    def test_two_binomial_inverts_each_point_once(self, monkeypatch):
        # every score() starts with a domain check; the check must reuse the
        # family's memoized inversion rather than redo the p1 inversion for
        # each of the 21 * 31 outcomes
        calls = []
        inner = F._line_probs

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(F, "_line_probs", counting)
        fam = F.two_binomial(20, 30)
        point = np.array([0.4, 22.0])
        F.fisher_info(ENGINE, fam, point)
        assert len(calls) == 1

    @pytest.mark.parametrize("family,point", FINITE_CASES,
                             ids=lambda c: getattr(c, "label", str(c)))
    def test_fisher_blocks_match_the_loop(self, family, point):
        def outer(y):
            s = oracle_score(family, y, point)
            return np.outer(s, s).ravel()

        full = F.fisher_info(ENGINE, family, point)
        got = np.block([[full.I, full.I_cross],
                        [full.I_cross.T, full.I_nuis]]).ravel()
        assert_matches_loop(got, family, point, outer)

    @staticmethod
    def _tilted(eps):
        """Two-binomial grid with eta = (theta + nu1, nu1 + eps nu2): at
        the origin (p1 = p2 = 1/2, n1 a1 = 5, n2 a2 = 7.5) the nuisance
        block is [[12.5, 7.5 eps], [7.5 eps, 7.5 eps^2]], its condition
        number about 4.2 / eps^2."""
        def natural(point):
            theta, nu1, nu2 = point
            return (np.array([theta + nu1, nu1 + eps * nu2]),
                    np.array([[1.0, 1.0, 0.0], [0.0, 1.0, eps]]))

        return F.finite_exponential_family(
            f"tilted(eps={eps})", F.two_binomial_outcomes(20, 30),
            log_h=lambda Y: (F.log_choose(20, Y[:, 0])
                             + F.log_choose(30, Y[:, 1])),
            T=lambda Y: np.asarray(Y, dtype=float), natural=natural, k=1,
            kp=2, in_domain=lambda point: bool(np.isfinite(point).all()),
            sampler=None, meta={})

    @pytest.mark.parametrize("eps, singular", [(3e-6, False),
                                               (1.4e-6, True), (0.0, True)])
    def test_nuisance_block_singular_past_condition_1e12(self, eps,
                                                         singular):
        block = np.array([[12.5, 7.5 * eps], [7.5 * eps, 7.5 * eps ** 2]])
        assert (np.linalg.cond(block) > 1e12) == singular
        fam = self._tilted(eps)
        if singular:
            with pytest.raises(F.DomainError, match="singular nuisance"):
                F.fisher_info(ENGINE, fam, [0.0, 0.0, 0.0])
        else:
            info = F.fisher_info(ENGINE, fam, [0.0, 0.0, 0.0])
            np.testing.assert_allclose(info.I_nuis, block, rtol=1e-9)

    @pytest.mark.parametrize("column", [0.0, math.nan, math.inf])
    def test_zero_or_non_finite_nuisance_block_raises(self, column):
        base = self._tilted(1.0)
        fam = base._replace(score_rows=lambda Y, point: base.score_rows(
            Y, point) * np.array([1.0, column, column]))
        with pytest.raises(F.DomainError, match="singular nuisance"), \
                np.errstate(invalid="ignore"):  # inf - inf in the sums
            F.fisher_info(ENGINE, fam, [0.0, 0.0, 0.0])

    def test_probs_cache_is_a_bounded_lru(self, monkeypatch):
        monkeypatch.setattr(F, "STATS_CACHE_SIZE", 8)
        fam = F.two_binomial(5, 6)
        points = [[0.1 * i, 5.0] for i in range(20)]
        for point in points:
            fam.check_point(point)
        info = fam.meta["stats"].cache_info()
        assert info.maxsize == 8 and info.currsize == 8
        assert info.misses == 20
        fam.check_point(points[-1])  # most recent: still cached
        fam.check_point(points[0])  # evicted: inverted again
        info = fam.meta["stats"].cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 21, 8)


class TestExponentialFamilyProperties:
    @given(n=st.integers(1, 400), p=st.floats(1e-9, 1.0 - 1e-9))
    @settings(max_examples=60, deadline=None)
    def test_binomial_pmf_score_and_information(self, n, p):
        fam = F.bernoulli_sum(n)
        Y = fam.support.outcomes
        w = np.exp(fam.log_density_rows(Y, [p]))
        assert abs(w.sum() - 1.0) <= 1e-13
        s = F.score(fam, Y, [p])[:, 0]
        assert abs((w * s).sum()) <= 1e-10 * (w * np.abs(s)).sum()
        info = F.fisher_info(ENGINE, fam, [p])
        assert info.I[0, 0] == pytest.approx(n / (p * (1.0 - p)), rel=1e-12)

    @given(n1=st.integers(1, 40), n2=st.integers(1, 40),
           theta=st.floats(-5.0, 5.0), gap=st.floats(1e-3, 0.1),
           upper=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_two_binomial_blocks_stay_orthogonal_near_the_edges(
            self, n1, n2, theta, gap, upper):
        fam = F.two_binomial(n1, n2)
        tnuis = n1 + n2 - gap if upper else gap
        info = F.fisher_info(ENGINE, fam, [theta, tnuis])
        assert abs(info.I_cross[0, 0]) <= 1e-10 * info.I[0, 0]


class TestSpecialFunctionsAgainstScipy:
    """The NumPy and ``math`` forms that replace ``scipy.special``."""

    def test_log_choose_matches_gammaln(self):
        from scipy.special import gammaln
        for n in list(range(1, 201)) + [1000, 5000, 19999, 20000]:
            k = np.arange(n + 1)
            want = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
            # both are differences of log-factorials near log n!, so they
            # agree relative to log n!, not to a small log C(n, 1): at
            # n = 19999 gammaln's own log C(n, 1) is 4e-11 off log n
            scale = max(1.0, float(gammaln(n + 1)))
            assert np.max(np.abs(F.log_choose(n, k) - want)) <= 1e-12 * scale
        assert F.log_choose(20000, 0) == 0.0
        assert F.log_choose(20000, 20000) == 0.0

    def test_log_factorial_table_is_reused(self):
        F.log_choose(300, np.arange(301))
        table = F._log_factorials(300)
        F.log_choose(250, 7)
        assert F._log_factorials(300) is table

    def test_log_binom_pmf_matches_scipy_and_handles_the_ends(self):
        from scipy.stats import binom
        k = np.arange(41)
        for p in (1e-12, 0.03, 0.5, 0.97, 1.0 - 1e-12):
            np.testing.assert_allclose(F.log_binom_pmf(k, 40, p),
                                       binom.logpmf(k, 40, p), rtol=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            at0 = F.log_binom_pmf(k, 40, 0.0)
            at1 = F.log_binom_pmf(k, 40, 1.0)
        assert at0[0] == 0.0 and np.all(at0[1:] == -np.inf)
        assert at1[-1] == 0.0 and np.all(at1[:-1] == -np.inf)


class TestTwoBinomialReparameterization:
    @given(p1=st.floats(0.02, 0.98), p2=st.floats(0.02, 0.98))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, p1, p2):
        th, tn = F.two_binomial_params(p1, p2, 20, 30)
        q1, q2 = F.two_binomial_probs(th, tn, 20, 30)
        assert q1 == pytest.approx(p1, abs=1e-9)
        assert q2 == pytest.approx(p2, abs=1e-9)

    def test_infeasible_pair_raises(self):
        with pytest.raises(F.DomainError):
            F.two_binomial_probs(0.0, 0.0, 20, 30)
        with pytest.raises(F.DomainError):
            F.two_binomial_params(1.0, 0.5, 20, 30)

    def test_outcome_grid_shape(self):
        out = F.two_binomial_outcomes(3, 4)
        assert out.shape == (20, 2)
        assert tuple(out[0]) == (0, 0) and tuple(out[-1]) == (3, 4)


class TestLocationFamilies:
    def test_normal_location_score(self):
        fam = F.normal_location(10)
        s = F.score(fam, np.array([1.2]), [1.0])
        assert s.shape == (1, 1) and s[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_t3_density_integrates_to_one(self):
        fam = F.t3_location(1)
        grid = np.linspace(-60, 60, 400_001)
        dens = np.exp(fam.log_density_rows(grid[:, None], [0.0]))
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)

    def test_cauchy_score_shape(self):
        fam = F.cauchy_location(3)
        s = F.score(fam, np.array([[0.0, 1.0, -1.0], [1.0, 0.0, 0.0]]), [0.0])
        assert s.shape == (2, 1) and s[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert s[1, 0] == pytest.approx(1.0, abs=1e-12)
