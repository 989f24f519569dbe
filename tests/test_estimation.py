"""Generalized estimators: standardization, information, orthogonality."""

import math
import warnings

import numpy as np
import pytest

from genestim import estimation as E
from genestim import families as F

ENGINE = F.ExpectationEngine(mode="exact")


def _score_estimator(fam):
    return E.GeneralizedEstimator(
        g=lambda y, point: F.score(fam, y, point), label="score")


class TestMatrixHelpers:
    def test_inv_sqrt_psd_inverts_the_square_root(self):
        V = np.array([[4.0, 1.0], [1.0, 3.0]])
        W = E.inv_sqrt_psd(V)
        np.testing.assert_allclose(W @ V @ W, np.eye(2), atol=1e-12)

    def test_sqrt_psd_squares_back(self):
        V = np.array([[2.0, 0.5], [0.5, 1.0]])
        S = E.sqrt_psd(V)
        np.testing.assert_allclose(S @ S, V, atol=1e-12)

    def test_near_singular_variance_is_an_error(self):
        with pytest.raises(E.EstimatorError):
            E.inv_sqrt_psd(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestStandardize:
    def test_standardized_estimator_has_unit_variance(self):
        fam = F.bernoulli_sum(20)
        gbar = E.standardize(ENGINE, fam, _score_estimator(fam), [0.3])
        var = ENGINE.expect(fam, [0.3], lambda y: gbar(y) ** 2)
        assert var[0] == pytest.approx(1.0, abs=1e-12)

    def test_standardization_is_parameterization_invariant(self):
        famp = F.bernoulli_sum(20, parameterization="p")
        faml = F.bernoulli_sum(20, parameterization="logit")
        p = 0.35
        eta = math.log(p / (1 - p))
        gp = E.standardize(ENGINE, famp, _score_estimator(famp), [p])
        gl = E.standardize(ENGINE, faml, _score_estimator(faml), [eta])
        for y in range(21):
            assert gl(y)[0] == pytest.approx(gp(y)[0], abs=1e-10)


class TestInformation:
    def test_score_attains_the_bound(self):
        fam = F.bernoulli_sum(20)
        rep = E.information(ENGINE, fam, _score_estimator(fam), [0.3])
        assert rep.lambda_scalar == pytest.approx(
            float(rep.fisher_bound[0, 0]), abs=1e-9)
        assert rep.efficiency[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert rep.routes_agree

    def test_efficiency_equals_squared_correlation(self):
        for est in E.bernoulli_suite(20, ENGINE):
            rep = E.information(ENGINE, F.bernoulli_sum(20), est, [0.4])
            assert rep.efficiency[0, 0] == pytest.approx(
                float(rep.R[0, 0]) ** 2, abs=1e-12)

    def test_information_report_serializes(self):
        fam = F.bernoulli_sum(10)
        rep = E.information(ENGINE, fam, _score_estimator(fam), [0.5])
        d = rep.to_dict()
        assert d["mode"] == "exact"
        assert d["lambda_scalar"] == pytest.approx(rep.lambda_scalar)

    def test_route_disagreement_detected_for_a_broken_estimator(self):
        fam = F.bernoulli_sum(20)
        # mean-zero at every p but wildly non-smooth in p: the covariance
        # route and the slope route cannot agree
        def g(y, point):
            p = point[0]
            centered = y - 20.0 * p
            wiggle = math.sin(3.0e6 * p) * (centered ** 2 - 20.0 * p * (1 - p))
            return np.array([centered + wiggle])

        broken = E.GeneralizedEstimator(g=g, label="oscillating")
        rep = E.information(ENGINE, fam, broken, [0.37])
        assert rep.routes_agree is False


class TestOrthogonalization:
    def test_orthogonalized_pre_estimator_satisfies_the_contract(self):
        fam = F.bernoulli_sum(20)
        pre = E.PreEstimator(f=lambda y, point: np.array([float(y > 8)]),
                             label="threshold")
        g = E.orthogonalize(ENGINE, fam, pre)
        mean = ENGINE.expect(fam, [0.45], lambda y: g(y, [0.45]))
        assert abs(mean[0]) < 1e-12
        res = E.check_score_equation(ENGINE, fam, g, [0.45])
        assert abs(res[0, 0]) < 1e-8

    def test_two_binomial_projection_removes_nuisance_slope(self):
        fam = F.two_binomial(8, 6)
        point = np.array(F.two_binomial_params(0.4, 0.55, 8, 6))
        pre = E.PreEstimator(f=lambda y, point: np.array([float(y[0])]),
                             label="first-count")
        g = E.orthogonalize(ENGINE, fam, pre)
        nuis = E.nuisance_information(ENGINE, fam, g, point)
        assert abs(nuis[0, 0]) < 1e-6

    def test_singular_nuisance_gram_warns_and_uses_the_pseudo_inverse(self):
        # the second parameter leaves the law unchanged: its score is
        # identically 0, so the nuisance Gram matrix is [[0]]
        base = F.bernoulli_sum(6)
        fam = F.ModelFamily(
            label="bernoulli-with-idle-nuisance", support=base.support,
            dim_interest=1, dim_nuisance=1,
            in_domain=lambda point: 0.0 < point[0] < 1.0,
            log_density=lambda y, point: base.log_density(y, point[:1]),
            score_interest=lambda y, point: base.score_interest(y, point[:1]),
            score_nuisance=lambda y, point: np.zeros(1))
        pre = E.PreEstimator(f=lambda y, point: np.array([float(y > 2)]),
                             label="threshold")
        g = E.orthogonalize(ENGINE, fam, pre)
        point = [0.4, 1.0]
        with pytest.warns(UserWarning, match="pseudo-inverse"):
            mean = ENGINE.expect(fam, point, lambda y: g(y, point))
        assert abs(mean[0]) < 1e-12

    def test_orthogonalized_score_matches_schur_complement(self):
        fam = F.two_binomial(8, 6)
        point = np.array(F.two_binomial_params(0.3, 0.5, 8, 6))
        s, bound = E.orthogonalized_score(ENGINE, fam, point)
        var = ENGINE.expect(fam, point, lambda y: s(y) ** 2)
        assert var[0] == pytest.approx(float(bound[0, 0]), abs=1e-10)


class TestScoreEquation:
    def test_suite_residuals_are_tiny(self):
        fam = F.bernoulli_sum(20)
        for est in E.bernoulli_suite(20, ENGINE):
            res = E.check_score_equation(ENGINE, fam, est, [0.5])
            assert abs(res[0, 0]) < 1e-8

    def test_biased_estimator_is_flagged(self):
        fam = F.bernoulli_sum(20)
        biased = E.GeneralizedEstimator(
            g=lambda y, point: np.array([(y + 2.0) / 24.0]),
            label="biased")
        res = E.check_score_equation(ENGINE, fam, biased, [0.5])
        assert abs(res[0, 0]) > 1e-3


class TestScaling:
    def test_score_information_scales_linearly_in_n(self):
        rows = E.n_scaling_check(
            F.bernoulli_sum,
            lambda n, fam: _score_estimator(fam),
            [1, 5, 20], [0.3])
        for row in rows:
            assert row.ratio == pytest.approx(1.0, abs=1e-10)


class TestEfficiencyMC:
    def test_score_estimator_has_unit_efficiency(self):
        fam = F.bernoulli_sum(20)
        eff, se = E.efficiency_mc(fam, _score_estimator(fam), [0.4],
                                  reps=20_000, seed=3)
        assert eff == pytest.approx(1.0, abs=1e-9)

    def test_continuous_family_efficiency(self):
        fam = F.normal_location(1)
        g = E.GeneralizedEstimator(
            g=lambda y, point: np.array([float(y) - float(point[0])]),
            label="identity")
        eff, se = E.efficiency_mc(fam, g, [0.0], reps=20_000, seed=3)
        assert eff == pytest.approx(1.0, abs=1e-9)


class TestRegistry:
    def test_duplicate_label_rejected(self):
        reg = E.EstimatorRegistry()
        est = E.GeneralizedEstimator(g=lambda y, p: np.array([0.0]),
                                     label="dup")
        reg.register(est)
        with pytest.raises(KeyError):
            reg.register(est)

    def test_suite_labels(self):
        labels = E.bernoulli_suite(6, ENGINE).labels()
        assert labels == ["score", "centered-proportion",
                          "centered-shrinkage", "sign-coarse-orthogonalized"]
