"""Generalized estimators: standardization, information, orthogonality."""

import functools
import math

import numpy as np
import pytest

from genestim import estimation as E
from genestim import families as F
from test_families import _expect_loop, oracle_score

ENGINE = F.ExpectationEngine(mode="exact")


def _score_estimator(fam):
    return E.GeneralizedEstimator(functools.partial(F.score, fam), "score")


def _value(g, y, point):
    """g at the single outcome y, as the one row of its rows there."""
    return E.estimator_rows(g, np.asarray(y)[None], point)[0]


def _column(values):
    """Per-outcome rows: one column of float values."""
    return np.asarray(values, dtype=float)[:, None]


class TestMatrixHelpers:
    def test_inv_sqrt_psd_inverts_the_square_root(self):
        V = np.array([[4.0, 1.0], [1.0, 3.0]])
        W = E.inv_sqrt_psd(V)
        np.testing.assert_allclose(W @ V @ W, np.eye(2), atol=1e-12)

    def test_near_singular_variance_is_an_error(self):
        with pytest.raises(E.EstimatorError):
            E.inv_sqrt_psd(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestStandardize:
    def test_standardized_estimator_has_unit_variance(self):
        fam = F.bernoulli_sum(20)
        gbar = E.standardize(ENGINE, fam, _score_estimator(fam), [0.3])
        var = ENGINE.expect(fam, [0.3], lambda Y: gbar(Y) ** 2)
        assert var[0] == pytest.approx(1.0, abs=1e-12)

    def test_standardization_is_parameterization_invariant(self):
        famp = F.bernoulli_sum(20, parameterization="p")
        faml = F.bernoulli_sum(20, parameterization="logit")
        p = 0.35
        eta = math.log(p / (1 - p))
        gp = E.standardize(ENGINE, famp, _score_estimator(famp), [p])
        gl = E.standardize(ENGINE, faml, _score_estimator(faml), [eta])
        Y = famp.support.outcomes
        np.testing.assert_allclose(gl(Y), gp(Y), rtol=0.0, atol=1e-10)


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

    def test_route_disagreement_detected_for_a_broken_estimator(self):
        fam = F.bernoulli_sum(20)
        # mean-zero at every p but wildly non-smooth in p: the covariance
        # route and the slope route cannot agree
        def rows(Y, point):
            p = point[0]
            centered = Y - 20.0 * p
            wiggle = math.sin(3.0e6 * p) * (centered ** 2 - 20.0 * p * (1 - p))
            return _column(centered + wiggle)

        broken = E.GeneralizedEstimator(rows, "oscillating")
        rep = E.information(ENGINE, fam, broken, [0.37])
        assert rep.routes_agree is False


class TestOrthogonalization:
    def test_orthogonalized_pre_estimator_satisfies_the_contract(self):
        fam = F.bernoulli_sum(20)
        pre = E.PreEstimator(lambda Y, point: _column(Y > 8), "threshold")
        g = E.orthogonalize(ENGINE, fam, pre)
        mean = ENGINE.expect(fam, [0.45], lambda Y: g.rows(Y, [0.45]))
        assert abs(mean[0]) < 1e-12
        res = E.check_score_equation(ENGINE, fam, g, [0.45])
        assert abs(res[0, 0]) < 1e-8

    def test_two_binomial_projection_removes_nuisance_slope(self):
        fam = F.two_binomial(8, 6)
        point = np.array(F.two_binomial_params(0.4, 0.55, 8, 6))
        pre = E.PreEstimator(lambda Y, point: _column(Y[:, 0]),
                             "first-count")
        g = E.orthogonalize(ENGINE, fam, pre)
        nuis = E.nuisance_information(ENGINE, fam, g, point)
        assert abs(nuis[0, 0]) < 1e-6

    @pytest.mark.filterwarnings("error")
    def test_singular_nuisance_block_raises_everywhere(self):
        # the second parameter leaves the law unchanged: its score is
        # identically 0, so the nuisance block is [[0]] and every route
        # through the projection fails as fisher_info does, without a
        # warning
        base = F.bernoulli_sum(6)
        fam = F.ModelFamily(
            label="bernoulli-with-idle-nuisance", support=base.support,
            dim_interest=1, dim_nuisance=1,
            in_domain=lambda point: 0.0 < point[0] < 1.0,
            log_density_rows=lambda Y, point: base.log_density_rows(
                Y, point[:1]),
            score_rows=lambda Y, point: np.column_stack(
                [base.score_rows(Y, point[:1]), np.zeros(len(Y))]))
        pre = E.PreEstimator(lambda Y, point: _column(Y > 2), "threshold")
        g = E.orthogonalize(ENGINE, fam, pre)
        point = [0.4, 1.0]
        Y = fam.support.outcomes
        for call in (lambda: F.fisher_info(ENGINE, fam, point),
                     lambda: E.orthogonalized_score(ENGINE, fam, point),
                     lambda: E.information(ENGINE, fam, g, point),
                     lambda: E.check_score_equation(ENGINE, fam, g, point),
                     lambda: g.rows(Y, point)):
            with pytest.raises(F.DomainError,
                               match=r"singular nuisance information at "
                                     r"\[0\.4, 1\.0\]"):
                call()

    def test_orthogonalized_score_matches_schur_complement(self):
        fam = F.two_binomial(8, 6)
        point = np.array(F.two_binomial_params(0.3, 0.5, 8, 6))
        s, bound = E.orthogonalized_score(ENGINE, fam, point)
        var = ENGINE.expect(fam, point, lambda Y: s(Y) ** 2)
        assert var[0] == pytest.approx(float(bound[0, 0]), abs=1e-10)


class TestFisherBlocksOncePerPoint:
    """An orthogonalized estimator lends information the Fisher blocks its
    projection used, so they are taken once per point."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []

        def counted(engine, family, point):
            calls.append(list(np.asarray(point, dtype=float)))
            return F.fisher_info(engine, family, point)

        monkeypatch.setattr(E, "fisher_info", counted)
        return calls

    def test_information_takes_the_blocks_once(self, monkeypatch):
        fam = F.two_binomial(8, 6)
        g = E.orthogonalize(ENGINE, fam, E.PreEstimator(
            lambda Y, point: _column(Y[:, 0]), "first-count"))
        calls = self._counted(monkeypatch)
        for p1, p2 in ((0.4, 0.55), (0.2, 0.7), (0.6, 0.3)):
            point = list(F.two_binomial_params(p1, p2, 8, 6))
            before = len(calls)
            rep = E.information(ENGINE, fam, g, point, direct_route=False)
            assert calls[before:] == [point]
            want = E.information(ENGINE, fam, g, point, direct_route=False,
                                 info=F.fisher_info(ENGINE, fam, point))
            assert rep.Lambda.tobytes() == want.Lambda.tobytes()
            assert rep.fisher_bound.tobytes() == want.fisher_bound.tobytes()
            # the score equation at the point reuses them too; its stencil
            # moves the point, where the projection takes its own
            before = len(calls)
            E.check_score_equation(ENGINE, fam, g, point)
            assert point not in calls[before:]

    def test_another_family_takes_its_own_blocks(self, monkeypatch):
        fam = F.two_binomial(8, 6)
        g = E.orthogonalize(ENGINE, fam, E.PreEstimator(
            lambda Y, point: _column(Y[:, 0]), "first-count"))
        calls = self._counted(monkeypatch)
        point = list(F.two_binomial_params(0.4, 0.55, 8, 6))
        E.information(ENGINE, F.two_binomial(8, 6), g, point,
                      direct_route=False)
        assert calls == [point, point]


def test_the_information_layer_makes_no_lapack_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK call")

    for name in ("eigh", "eigvalsh", "solve", "eig", "eigvals", "inv",
                 "cond", "svd", "pinv", "lstsq", "cholesky", "qr", "det",
                 "slogdet"):
        monkeypatch.setattr(np.linalg, name, refuse)
    suite = E.bernoulli_suite(20, ENGINE)
    for est in suite:
        E.information(ENGINE, suite.family, est, [0.3])
        E.check_score_equation(ENGINE, suite.family, est, [0.3])
    tb = F.two_binomial(20, 30)
    point = F.two_binomial_params(0.3, 0.6, 20, 30)
    assert F.fisher_info(ENGINE, tb, point).I_perp[0, 0] > 0.0
    g = E.orthogonalize(ENGINE, tb, E.PreEstimator(
        lambda Y, point: _column(Y[:, 0]), "first-count"))
    interest = E.GeneralizedEstimator(
        lambda Y, point: F.score(tb, Y, point)[:, :1], "interest-score")
    for est in (g, interest):
        E.information(ENGINE, tb, est, point)
    E.orthogonalized_score(ENGINE, tb, point)


class TestScoreEquation:
    def test_suite_residuals_are_tiny(self):
        fam = F.bernoulli_sum(20)
        for est in E.bernoulli_suite(20, ENGINE):
            res = E.check_score_equation(ENGINE, fam, est, [0.5])
            assert abs(res[0, 0]) < 1e-8

    def test_biased_estimator_is_flagged(self):
        fam = F.bernoulli_sum(20)
        biased = E.GeneralizedEstimator(
            lambda Y, point: _column((Y + 2.0) / 24.0), "biased")
        res = E.check_score_equation(ENGINE, fam, biased, [0.5])
        assert abs(res[0, 0]) > 1e-3

    @pytest.mark.parametrize("p", [1e-4, 2e-4, 0.9998, 0.9999])
    def test_stencil_stays_inside_the_domain(self, p):
        # h = 1e-4 would step the five-point stencil to p -+ 2e-4, out of
        # (0, 1); it is halved until the stencil keeps its room instead
        suite = E.bernoulli_suite(20, ENGINE)
        for est in suite:
            if p > 0.5 and est.label == "sign-coarse-orthogonalized":
                # y - 20 p - 0.5 < 0 for every y: a constant pre-estimator
                with pytest.raises(E.EstimatorError):
                    E.check_score_equation(ENGINE, suite.family, est, [p])
                continue
            res = E.check_score_equation(ENGINE, suite.family, est, [p])
            assert np.isfinite(res).all(), (est.label, res)

    def test_stencil_keeps_its_step_away_from_the_edges(self, monkeypatch):
        # verify's grid, 0.1 .. 0.9, keeps h = 1e-4
        steps = []
        shifted = E._shifted
        monkeypatch.setattr(E, "_shifted", lambda point, j, step: (
            steps.append(step), shifted(point, j, step))[1])
        fam = F.bernoulli_sum(20)
        for p in (0.1, 0.9):
            E.check_score_equation(ENGINE, fam, _score_estimator(fam), [p])
        room = E.SCORE_STENCIL_ROOM * 1e-4
        assert set(steps) == {-2e-4, -1e-4, 1e-4, 2e-4, -room, room}


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
            lambda Y, point: _column(Y - point[0]), "identity")
        eff, se = E.efficiency_mc(fam, g, [0.0], reps=20_000, seed=3)
        assert eff == pytest.approx(1.0, abs=1e-9)


def corr_sq_with_se_oracle(a, b, blocks):
    """Oracle: (corr(a, b)^2, its se) from full-array NumPy, as
    corr_sq_with_se computed it before it streamed blocks: one np.corrcoef
    over every draw, and the correlations of ``blocks`` equal consecutive
    blocks (the remainder left out) from centred (blocks, m) copies."""
    r = float(np.corrcoef(a, b)[0, 1])
    m = len(a) // blocks
    x, y = (v[:blocks * m].reshape(blocks, m) for v in (a, b))
    x, y = x - x.mean(1, keepdims=True), y - y.mean(1, keepdims=True)
    rb = (x * y).sum(1) / np.sqrt((x * x).sum(1) * (y * y).sum(1))
    se_r = float(rb.std(ddof=1) / math.sqrt(blocks))
    return r * r, 2.0 * abs(r) * se_r


def _corr_sq_with_se_loop(a, b, blocks):
    """Oracle: one np.corrcoef per block, as corr_sq_with_se once did."""
    r = float(np.corrcoef(a, b)[0, 1])
    m = len(a) // blocks
    rb = np.array([
        np.corrcoef(a[i * m:(i + 1) * m], b[i * m:(i + 1) * m])[0, 1]
        for i in range(blocks)])
    return r * r, 2.0 * abs(r) * float(rb.std(ddof=1) / math.sqrt(blocks))


def _streamed(a, b, blocks):
    """corr_sq_with_se fed ``blocks`` consecutive blocks of a and b, the
    last taking the remainder, as efficiency_mc feeds them."""
    m = len(a) // blocks
    cuts = m * np.arange(1, blocks)
    eff, se = E.corr_sq_with_se([
        E.block_moments(s, g[None], m)
        for s, g in zip(np.split(a, cuts), np.split(b, cuts))])
    return float(eff[0]), float(se[0])


def _t3_pairs(n, offset=0.0):
    rng = np.random.default_rng(n)
    a = offset + rng.standard_t(3, n)
    return a, a + rng.normal(0.0, 2.0, n)


@pytest.mark.parametrize("n,blocks", [(100_000, 100), (3001, 7), (2003, 10)])
def test_batched_block_correlations_match_the_per_block_loop(n, blocks):
    a, b = _t3_pairs(n)
    eff, se = _streamed(a, b, blocks)
    want_eff, want_se = _corr_sq_with_se_loop(a, b, blocks)
    # the moments add in another order than np.corrcoef's
    assert eff == pytest.approx(want_eff, rel=1e-12, abs=0.0)
    assert se == pytest.approx(want_se, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n,blocks,offset", [
    (100_000, 100, 0.0), (3001, 7, 0.0), (2003, 10, 0.0),
    (100_000, 100, 1e6), (3001, 100, 0.0)],
    ids=["100000-100", "3001-7", "2003-10", "offset-1e6",
         "unequal-last-block"])
def test_streamed_correlation_matches_the_full_array_oracle(n, blocks,
                                                            offset):
    a, b = _t3_pairs(n, offset)
    got = _streamed(a, b, blocks)
    assert got == pytest.approx(corr_sq_with_se_oracle(a, b, blocks),
                                rel=1e-12, abs=0.0)
    assert got[1] == pytest.approx(_corr_sq_with_se_loop(a, b, blocks)[1],
                                   rel=1e-12, abs=0.0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_streamed_correlation_of_a_multiple_is_one(sign):
    s = _t3_pairs(3001)[0]
    eff, se = _streamed(s, sign * 3.0 * s, 100)
    assert eff == pytest.approx(corr_sq_with_se_oracle(s, sign * 3.0 * s,
                                                         100)[0],
                                rel=1e-12, abs=0.0)
    assert eff == pytest.approx(1.0, rel=1e-12, abs=0.0)
    assert se == pytest.approx(0.0, abs=1e-12)


class TestRegistry:
    def test_duplicate_label_rejected(self):
        reg = E.EstimatorRegistry()
        est = E.GeneralizedEstimator(
            lambda Y, p: np.zeros((len(Y), 1)), "dup")
        reg.register(est)
        with pytest.raises(KeyError):
            reg.register(est)

    def test_an_estimator_needs_its_rows(self):
        for kind in (E.GeneralizedEstimator, E.PreEstimator):
            with pytest.raises(TypeError, match="rows"):
                kind(label="no-rows")

    def test_suite_labels(self):
        labels = E.bernoulli_suite(6, ENGINE).labels()
        assert labels == ["score", "centered-proportion",
                          "centered-shrinkage", "sign-coarse-orthogonalized"]


# --- per-outcome loop oracles: the estimation layer before its row form,
# on the hand-written scores and densities of test_families ---


def _variance_loop(fam, g, point):
    k = fam.dim_interest
    return _expect_loop(
        fam, point,
        lambda y: np.outer(_value(g, y, point), _value(g, y, point)).ravel()
    ).reshape(k, k)


def _orth_score_loop(fam, point):
    """The oracle interest score less its projection on the nuisance
    score, with the Fisher blocks summed per outcome."""
    k, d = fam.dim_interest, fam.dim
    if d == k:
        return lambda y: oracle_score(fam, y, point)
    full = _expect_loop(
        fam, point,
        lambda y: np.outer(oracle_score(fam, y, point),
                           oracle_score(fam, y, point)).ravel()
    ).reshape(d, d)
    proj = np.linalg.solve(full[k:, k:], full[:k, k:].T).T

    def s(y):
        sc = oracle_score(fam, y, point)
        return sc[:k] - proj @ sc[k:]

    return s


def _lambda_loop(fam, g, point):
    """Covariance-route information, E(s gbar^t) E(gbar s^t), per outcome."""
    k = fam.dim_interest
    s = _orth_score_loop(fam, point)
    W = E.inv_sqrt_psd(_variance_loop(fam, g, point))
    A = _expect_loop(fam, point,
                     lambda y: np.outer(s(y), W @ _value(g, y, point)).ravel())
    A = A.reshape(k, k)
    return A @ A.T, A


def _mean_slope_loop(fam, g, point):
    """Direct-route slope E[d gbar / d theta] per outcome (k = 1), over
    the step the rounded stencil points take."""
    h = F.FD_STEP * max(1.0, abs(point[0]))

    def gbar_at(q):
        W = E.inv_sqrt_psd(_variance_loop(fam, g, q))
        return lambda y: W @ _value(g, y, q)

    qp, qm = point + h, point - h
    gp, gm = gbar_at(qp), gbar_at(qm)
    return _expect_loop(fam, point, lambda y: (gp(y) - gm(y)) / (qp - qm))


def _score_equation_loop(fam, g, point):
    k = fam.dim_interest
    s = _orth_score_loop(fam, point)
    h = 1e-4 * max(1.0, abs(point[0]))

    def term(y):
        vals = [_value(g, y, point + np.array([c * h]))
                for c in (-2, -1, 1, 2)]
        grad = (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12 * h)
        return (grad[None, :] + np.outer(s(y), _value(g, y, point))).ravel()

    def scale(y):
        vals = [np.abs(_value(g, y, point + np.array([c * h])))
                for c in (-2, -1, 1, 2)]
        grad = (vals[0] + 8.0 * vals[1] + 8.0 * vals[2] + vals[3]) / (12 * h)
        return (grad[None, :]
                + np.abs(np.outer(s(y), _value(g, y, point)))).ravel()

    return (_expect_loop(fam, point, term).reshape(k, k),
            _expect_loop(fam, point, scale).reshape(k, k))


class TestRowFormsMatchTheLoop:
    N = 20
    POINTS = (0.05, 0.3, 0.5, 0.77, 0.95)

    @pytest.fixture(scope="class")
    def suite(self):
        return E.bernoulli_suite(self.N, ENGINE)

    def test_suite_rows_match_the_per_outcome_formulas(self, suite):
        fam = F.bernoulli_sum(self.N)
        Y = fam.support.outcomes
        n = self.N
        # p = (y - 0.5)/n puts outcome y exactly on the sign estimator's jump
        jumps = [(y - 0.5) / n for y in range(1, n + 1)]
        for p in (*self.POINTS, *jumps):
            sign = [math.copysign(1.0, y - n * p - 0.5) for y in Y]
            mean_sign = _expect_loop(fam, [p], lambda y: sign[y])[0]
            want = {
                "score": [oracle_score(fam, y, [p])[0] for y in Y],
                "centered-proportion": [y / n - p for y in Y],
                "centered-shrinkage": [(y - n * p) / (n + 4.0) for y in Y],
                "sign-coarse-orthogonalized": [v - mean_sign for v in sign],
            }
            for est in suite:
                got = est.rows(Y, [p])[:, 0]
                np.testing.assert_allclose(
                    got, want[est.label], rtol=1e-12,
                    atol=1e-12 * np.max(np.abs(got)),
                    err_msg=f"{est.label} at p={p}")

    def test_variance_and_information_match_the_loop(self, suite):
        fam = F.bernoulli_sum(self.N)
        for p in self.POINTS:
            point = np.array([p])
            for est in suite:
                V = E.variance(ENGINE, fam, est, point)
                np.testing.assert_allclose(
                    V, _variance_loop(fam, est, point), rtol=1e-12)
                rep = E.information(ENGINE, fam, est, point)
                lam, A = _lambda_loop(fam, est, point)
                np.testing.assert_allclose(rep.Lambda, lam, rtol=1e-12)
                np.testing.assert_allclose(
                    rep.R, E.inv_sqrt_psd(rep.fisher_bound) @ A, rtol=1e-12)
                np.testing.assert_allclose(
                    E._mean_slope(ENGINE, fam, est, point, [0]).ravel(),
                    _mean_slope_loop(fam, est, point), rtol=1e-12)
                assert rep.routes_agree

    def test_score_equation_matches_the_loop(self, suite):
        fam = F.bernoulli_sum(self.N)
        for p in self.POINTS:
            point = np.array([p])
            for est in suite:
                got = E.check_score_equation(ENGINE, fam, est, point)
                want, scale = _score_equation_loop(fam, est, point)
                np.testing.assert_array_less(np.abs(got - want),
                                             1e-12 * scale)

    def test_two_binomial_orthogonalized_estimator_matches_the_loop(self):
        fam = F.two_binomial(8, 6)
        point = np.array(F.two_binomial_params(0.4, 0.55, 8, 6))
        pre = E.PreEstimator(lambda Y, point: _column(Y[:, 0]),
                             "first-count")
        g = E.orthogonalize(ENGINE, fam, pre)
        np.testing.assert_allclose(E.variance(ENGINE, fam, g, point),
                                   _variance_loop(fam, g, point), rtol=1e-12)
        lam, _ = _lambda_loop(fam, g, point)
        np.testing.assert_allclose(
            E.information(ENGINE, fam, g, point).Lambda, lam, rtol=1e-12)

    def test_orthogonalize_cache_is_a_bounded_lru(self, monkeypatch):
        monkeypatch.setattr(E, "COEFFS_CACHE_SIZE", 8)
        fam = F.bernoulli_sum(4)
        pre = E.PreEstimator(lambda Y, point: _column(Y > 1), "threshold")
        g = E.orthogonalize(ENGINE, fam, pre)
        for i in range(1, 21):
            g.rows(np.array([2]), [0.04 * i])
        info = g.rows.cache_info()
        assert info.maxsize == 8 and info.currsize == 8
        assert info.misses == 20


class TestDegenerateEstimators:
    """Estimators whose variance is round-off are errors, not tiny numbers."""

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.77])
    def test_constant_pre_estimator_is_rejected(self, p):
        fam = F.bernoulli_sum(20)
        pre = E.PreEstimator(lambda Y, point: -np.ones((len(Y), 1)),
                             "constant")
        g = E.orthogonalize(ENGINE, fam, pre)
        with pytest.raises(E.EstimatorError, match="constant is degenerate"):
            E.information(ENGINE, fam, g, [p])

    def test_pre_estimator_in_the_nuisance_span_is_rejected(self):
        # x1 + x2 is affine in the nuisance score (x1 + x2 - tnuis) / den
        fam = F.two_binomial(8, 6)
        point = np.array(F.two_binomial_params(0.4, 0.55, 8, 6))
        pre = E.PreEstimator(lambda Y, point: _column(Y[:, 0] + Y[:, 1]),
                             "total")
        g = E.orthogonalize(ENGINE, fam, pre)
        with pytest.raises(E.EstimatorError, match="total is degenerate"):
            E.information(ENGINE, fam, g, point)

    def test_nearly_constant_pre_estimator_is_kept(self):
        # Pr(y = 20) = 0.01**20 is tiny but its variance is not round-off
        fam = F.bernoulli_sum(20)
        pre = E.PreEstimator(lambda Y, point: _column(Y >= 10), "threshold")
        g = E.orthogonalize(ENGINE, fam, pre)
        assert E.variance(ENGINE, fam, g, [0.2])[0, 0] > 0.0


class TestDomainEdges:
    @pytest.mark.parametrize("p", [1e-6, 1.0 - 1e-6])
    def test_both_routes_agree_next_to_the_edges(self, p):
        fam = F.bernoulli_sum(20)
        seen = []
        for est in E.bernoulli_suite(20, ENGINE):
            if p > 0.5 and est.label == "sign-coarse-orthogonalized":
                # y - 20 p - 0.5 < 0 for every y: a constant pre-estimator
                with pytest.raises(E.EstimatorError):
                    E.information(ENGINE, fam, est, [p])
                continue
            rep = E.information(ENGINE, fam, est, [p])
            assert rep.routes_agree, (est.label, rep.route_gap)
            seen.append(est.label)
        assert len(seen) == (4 if p < 0.5 else 3)

    @pytest.mark.parametrize("n", [20, 50, 200, 997])
    def test_both_routes_agree_a_billionth_below_one(self, n):
        # y - n p cancels here, so centered-shrinkage rows are written as
        # y (1 - p) - (n - y) p; sign-coarse is constant, hence degenerate
        p = 1.0 - 1e-9
        fam = F.bernoulli_sum(n)
        seen = []
        for est in E.bernoulli_suite(n, ENGINE):
            if est.label == "sign-coarse-orthogonalized":
                continue
            rep = E.information(ENGINE, fam, est, [p])
            assert rep.routes_agree, (est.label, rep.route_gap)
            seen.append(est.label)
        assert len(seen) == 3

    @pytest.mark.parametrize("tnuis", [1e-6, 14.0 - 1e-6])
    def test_nuisance_information_next_to_the_edges(self, tnuis):
        fam = F.two_binomial(8, 6)
        pre = E.PreEstimator(lambda Y, point: _column(Y[:, 0]),
                             "first-count")
        g = E.orthogonalize(ENGINE, fam, pre)
        point = [0.3, tnuis]
        nuis = E.nuisance_information(ENGINE, fam, g, point)
        I_nuis = F.fisher_info(ENGINE, fam, point).I_nuis
        assert abs(nuis[0, 0]) <= 1e-9 * I_nuis[0, 0]
