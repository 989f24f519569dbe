"""Points as a batch axis: batched calls against the per-point loop.

The oracle here is the engine as it ran one point at a time: per-point
statistics (natural parameter, Jacobian, the mode's T, log-normaliser by
math.log and E[T - c]), einsum products, and one expectation per point for
every Fisher block, projection, variance and score-equation residual.  A
batched call must give the same bits at every point, and at a point where
the loop raises, the same exception type and text in its ``errors``.
A batch is taken in blocks of points (``POINT_BLOCK``), whose results join
to the same bits.
"""

import functools
import io
import json
import math
import tracemalloc
import contextlib
from pathlib import Path

import numpy as np
import pytest

from genestim import cli
from genestim import estimation as E
from genestim import families as F
from genestim._kernels import _logit, _sym_eig, _sym_solve

ENGINE = F.ExpectationEngine(mode="exact")
VERDICTS = json.loads(
    (Path(__file__).with_name("cli_verdicts.json")).read_text())


# --- the per-point loop -----------------------------------------------------


class Pointwise:
    """One point at a time, as the engine computed before points were a
    batch axis, on a built-in finite family."""

    def __init__(self, family):
        self.family = family
        Y = family.support.outcomes
        meta = family.meta
        if "n1" in meta:
            self.n1, self.n2 = meta["n1"], meta["n2"]
            self.log_h = lambda Y: (F.log_choose(self.n1, Y[:, 0])
                                    + F.log_choose(self.n2, Y[:, 1]))
            self.T = lambda Y: np.asarray(Y, dtype=float)
        else:
            self.n1 = None
            n = meta["n"]
            self.log_h = lambda Y: F.log_choose(n, np.asarray(Y, dtype=int))
            self.T = lambda Y: np.asarray(Y, dtype=float)[:, None]
        self.Y = Y
        self.LH, self.TY = self.log_h(Y), self.T(Y)
        self.stats = functools.lru_cache(maxsize=None)(self._stats)

    def natural(self, point):
        if self.n1 is None:
            p = float(point[0])
            return (np.array([math.log(p) - math.log1p(-p)]),
                    np.array([[1.0 / (p * (1.0 - p))]]))
        n1, n2 = self.n1, self.n2
        p1, p2 = F.two_binomial_probs(point[0], point[1], n1, n2)
        a1, a2 = p1 * (1.0 - p1), p2 * (1.0 - p2)
        den = n1 * a1 + n2 * a2
        return (np.array([_logit(p1), _logit(p2)]),
                np.array([[n2 * a2 / den, 1.0 / den],
                          [-n1 * a1 / den, 1.0 / den]]))

    def _stats(self, key):
        LH, TY = self.LH, self.TY
        eta, J = self.natural(np.array(key))
        top = int((LH + np.einsum("nm,m->n", TY, eta)).argmax())
        c = TY[top]
        Tc = TY - c
        x = LH + np.einsum("nm,m->n", Tc, eta)
        A = x[top] + math.log(np.exp(x - x[top]).sum())
        w = np.exp(x - A)
        return eta, J, c, A, (w[:, None] * Tc).sum(axis=0)

    def check(self, point):
        point = np.asarray(point, dtype=float)
        if not self.family.in_domain(point):
            raise F.DomainError(
                f"{self.family.label}: point {point} outside domain")
        return point

    def log_density(self, Y, point):
        eta, _, c, A, _ = self.stats(tuple(point.tolist()))
        return self.log_h(Y) + np.einsum("nm,m->n", self.T(Y) - c, eta) - A

    def score(self, Y, point):
        _, J, c, _, mean_Tc = self.stats(tuple(point.tolist()))
        return np.einsum("nm,ma->na", (self.T(Y) - c) - mean_Tc, J)

    def expect(self, point, H):
        point = self.check(point)
        vals = np.asarray(H(self.Y), dtype=float)
        vals = vals[:, None] if vals.ndim == 1 else vals
        w = np.exp(self.log_density(self.Y, point))
        return (w[:, None] * vals.reshape(len(self.Y), -1)).sum(axis=0)

    def fisher_info(self, point):
        point = self.check(point)
        fam = self.family
        k, kp, d = fam.dim_interest, fam.dim_nuisance, fam.dim
        full = self.expect(point, lambda Y: F.outer_rows(
            self.score(Y, point), self.score(Y, point))).reshape(d, d)
        I, I_cross, I_nuis = full[:k, :k], full[:k, k:], full[k:, k:]
        if kp == 0:
            return F.FisherInfo(I, I_cross, I_nuis, I.copy(),
                                (np.zeros(0), np.zeros((0, 0))))
        w, U = _sym_eig(I_nuis)
        if not (w[-1] > 0.0 and w[0] >= 1e-12 * w[-1]):
            raise F.DomainError(
                f"{fam.label}: singular nuisance information at "
                f"{point.tolist()}; the nuisance is not identified there")
        return F.FisherInfo(I, I_cross, I_nuis,
                            I - I_cross @ _sym_solve(w, U, I_cross.T), (w, U))

    def orthogonalized(self, pre_rows, label):
        """Rows of the orthogonalized pre-estimator, its coefficients and
        Fisher blocks taken at each point they are asked at."""
        fam = self.family
        k, kp = fam.dim_interest, fam.dim_nuisance

        @functools.lru_cache(maxsize=None)
        def coeffs(key):
            point = np.array(key)

            def moments(Y):
                Fr = pre_rows(Y, point)
                parts = [Fr, F.outer_rows(Fr, Fr)]
                if kp:
                    parts.append(F.outer_rows(Fr, self.score(Y, point)[:, k:]))
                return np.hstack(parts)

            first = self.expect(point, moments)
            mean, second = first[:k], first[k:k + k * k].reshape(k, k)
            V = second - np.outer(mean, mean)
            proj = info = None
            if kp:
                C = first[k + k * k:].reshape(k, kp)
                info = self.fisher_info(point)
                proj = _sym_solve(*info.nuis_eig, C.T).T
                V = V - proj @ C.T
            var = float(_sym_eig(0.5 * (V + V.T))[0][0])
            scale = float(np.trace(second))
            if not var > E.DEGENERATE_RATIO * scale:
                raise E.EstimatorError(
                    f"{label} is degenerate at {list(key)}: variance "
                    f"{var:.2e} after centring and projection, E[f f^t] "
                    f"{scale:.2e}")
            return mean, proj, info

        def rows(Y, point):
            mean, proj, _ = coeffs(tuple(np.asarray(point).tolist()))
            out = pre_rows(Y, point) - mean
            if proj is not None:
                out = out - self.score(Y, point)[:, k:] @ proj.T
            return out

        rows.coeffs = coeffs
        return rows

    def orth_score(self, point, info):
        k = self.family.dim_interest
        if self.family.dim_nuisance == 0:
            return lambda Y: self.score(Y, point)
        proj = _sym_solve(*info.nuis_eig, info.I_cross.T).T
        return lambda Y: (self.score(Y, point)[:, :k]
                          - self.score(Y, point)[:, k:] @ proj.T)

    @staticmethod
    def inv_sqrt_psd(V):
        w, U = _sym_eig(0.5 * (V + V.T))
        if w[-1] <= 0.0 or w[0] < E.PSD_FLOOR * w[-1]:
            raise E.EstimatorError(
                f"variance matrix not positive definite (eigenvalues {w})")
        return U @ np.diag(w ** -0.5) @ U.T

    def information(self, rows, point, info_of):
        """The covariance route of ``information`` at one point."""
        point = self.check(point)
        k = self.family.dim_interest
        info = info_of(point)
        S = self.orth_score(point, info)
        G = lambda Y: rows(Y, point)  # noqa: E731
        W = self.inv_sqrt_psd(self.expect(
            point, lambda Y: F.outer_rows(G(Y), G(Y))).reshape(k, k))
        A = self.expect(point, lambda Y: F.outer_rows(
            S(Y), G(Y) @ W.T)).reshape(k, k)
        Lam = A @ A.T
        binv = self.inv_sqrt_psd(info.I_perp)
        return E.InformationReport(
            Lambda=Lam, lambda_scalar=float(np.trace(Lam)),
            fisher_bound=info.I_perp, efficiency=binv @ Lam @ binv,
            R=binv @ A)

    def score_equation(self, rows, point, info_of, own_errors):
        """``check_score_equation`` at one point: ``own_errors(q)`` raises
        where the estimator's own coefficients fail at q."""
        point = self.check(point)
        fam = self.family
        k = fam.dim_interest
        S = self.orth_score(point, info_of(point))
        steps = []
        for j in range(k):
            h = 1e-4 * max(1.0, abs(point[j]))
            while not all(fam.in_domain(E._shifted(point, j, c * h))
                          for c in (E.SCORE_STENCIL_ROOM,
                                    -E.SCORE_STENCIL_ROOM)):
                h *= 0.5
            steps.append(h)
        stencil = [[E._shifted(point, j, c * h) for c in (-2., -1., 1., 2.)]
                   for j, h in enumerate(steps)]
        for qs in stencil:
            for q in qs:
                own_errors(q)
        own_errors(point)

        def H(Y):
            grads = []
            for qs, h in zip(stencil, steps):
                v = [rows(Y, q) for q in qs]
                grads.append((v[0] - 8.0 * v[1] + 8.0 * v[2] - v[3])
                             / (12.0 * h))
            return (np.stack(grads, axis=1).reshape(len(Y), -1)
                    + F.outer_rows(S(Y), rows(Y, point)))

        return self.expect(point, H).reshape(k, k)


def _outcome(call):
    """(value, None), or (None, the error) where the loop raises."""
    try:
        return call(), None
    except (ValueError, RuntimeError) as err:
        return None, err


def _same_error(got, want, where):
    assert (type(got), str(got)) == (type(want), str(want)), where


def _same_bits(got, want, where):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, where
    assert got.tobytes() == want.tobytes(), (where, got, want)


# The loop inverted each two-binomial point with NumPy scalars, where x ** 2
# is libm's pow; on arrays it is x * x, and the two round apart now and then
# (5 points in 50,000): p1 moves by an ulp, and what follows from it within
# 1e-12 of its scale (at most 2.0e-13 relative for I, 3.0e-14 for log f).
TWO_BINOMIAL_TOL = 1e-12


def _agree(got, want, scale, where):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, where
    assert np.all(np.abs(got - want) <= TWO_BINOMIAL_TOL * scale), (
        where, got, want)


# --- cases ------------------------------------------------------------------


BERNOULLI_N = [1, 20, 88, 400]
BERNOULLI_P = [1.5, 1e-6, 0.1, 0.3, 0.5, 0.5001, 0.77, 0.9, 0.999,
               1.0 - 1e-6]


def _sign_pre(n):
    return lambda Y, point: np.copysign(
        1.0, Y - n * np.asarray(point)[..., :1] - 0.5)[..., None]


def _bernoulli_case(n):
    """(suite, oracle, {label: (oracle rows, info_of, own_errors)})."""
    suite = E.bernoulli_suite(n, ENGINE)
    fam = suite.family
    loop = Pointwise(fam)
    orth = loop.orthogonalized(_sign_pre(n), "sign-coarse")
    plain = loop.fisher_info
    never = lambda q: None  # noqa: E731
    return suite, loop, {
        "score": (loop.score, plain, never),
        "centered-proportion": (suite["centered-proportion"].rows, plain,
                                never),
        "centered-shrinkage": (suite["centered-shrinkage"].rows, plain,
                               never),
        "sign-coarse-orthogonalized": (
            orth, plain, lambda q: orth.coeffs(tuple(q.tolist())))}


def _two_binomial_case(n1, n2):
    fam = F.two_binomial(n1, n2)
    loop = Pointwise(fam)

    def first_count(Y, point):
        return np.broadcast_to(np.asarray(Y[:, 0], dtype=float)[:, None],
                               np.shape(point)[:-1] + (len(Y), 1))

    g = E.orthogonalize(ENGINE, fam, E.PreEstimator(first_count,
                                                    "first-count"))
    interest = E.GeneralizedEstimator(
        lambda Y, point: F.score(fam, Y, point)[..., :1], "interest-score")
    orth = loop.orthogonalized(first_count, "first-count")
    coeffs_info = lambda q: orth.coeffs(tuple(q.tolist()))[2]  # noqa: E731
    points = [F.two_binomial_params(a, b, n1, n2)
              for a in (0.1, 0.5, 0.9) for b in (0.2, 0.6)]
    points += [(0.3, 1e-3), (-1.0, n1 + n2 - 1e-3), (0.0, n1 + n2 + 1.0)]
    return fam, loop, np.array(points, dtype=float), {
        g: (orth, coeffs_info, lambda q: orth.coeffs(tuple(q.tolist()))),
        interest: (lambda Y, point: loop.score(Y, point)[:, :1],
                   loop.fisher_info, lambda q: None)}


# --- batched against the loop ---------------------------------------------


@pytest.mark.parametrize("n", BERNOULLI_N)
def test_bernoulli_fisher_info_matches_the_loop(n):
    suite, loop, _ = _bernoulli_case(n)
    points = np.array(BERNOULLI_P)[:, None]
    got = F.fisher_info(ENGINE, suite.family, points)
    for i, point in enumerate(points):
        want, err = _outcome(lambda: loop.fisher_info(point))
        if err is not None:
            _same_error(got.errors[i], err, (n, point))
            assert np.isnan(got.values.I[i]).all()
            continue
        assert got.errors[i] is None
        for name in ("I", "I_cross", "I_nuis", "I_perp"):
            _same_bits(getattr(got.values, name)[i], getattr(want, name),
                       (n, point, name))


@pytest.mark.parametrize("n", BERNOULLI_N)
def test_bernoulli_information_matches_the_loop(n):
    suite, loop, oracle = _bernoulli_case(n)
    points = np.array(BERNOULLI_P)[:, None]
    for est in suite:
        rows, info_of, _ = oracle[est.label]
        got = E.information(ENGINE, suite.family, est, points,
                            direct_route=False)
        assert got.values.route_gap is None
        assert got.values.routes_agree is None
        for i, point in enumerate(points):
            want, err = _outcome(
                lambda: loop.information(rows, point, info_of))
            where = (n, est.label, point)
            if err is not None:
                _same_error(got.errors[i], err, where)
                assert np.isnan(got.values.Lambda[i]).all(), where
                continue
            assert got.errors[i] is None, (where, got.errors[i])
            for name in ("Lambda", "lambda_scalar", "fisher_bound",
                         "efficiency", "R"):
                _same_bits(getattr(got.values, name)[i], getattr(want, name),
                           where + (name,))


@pytest.mark.parametrize("n", BERNOULLI_N)
def test_bernoulli_score_equation_matches_the_loop(n):
    suite, loop, oracle = _bernoulli_case(n)
    points = np.array(BERNOULLI_P)[:, None]
    for est in suite:
        rows, info_of, own = oracle[est.label]
        got = E.check_score_equation(ENGINE, suite.family, est, points)
        for i, point in enumerate(points):
            want, err = _outcome(
                lambda: loop.score_equation(rows, point, info_of, own))
            where = (n, est.label, point)
            if err is not None:
                _same_error(got.errors[i], err, where)
                assert np.isnan(got.values[i]).all(), where
                continue
            assert got.errors[i] is None, (where, got.errors[i])
            _same_bits(got.values[i], want, where)


@pytest.mark.parametrize("n", BERNOULLI_N)
def test_orthogonalized_rows_match_the_loop(n):
    suite, loop, oracle = _bernoulli_case(n)
    g = suite["sign-coarse-orthogonalized"]
    rows = oracle[g.label][0]
    points = np.array([p for p in BERNOULLI_P if 0.0 < p < 1.0])[:, None]
    Y = suite.family.support.outcomes
    got = g.rows(Y, points)
    errors = g.errors(points)
    for i, point in enumerate(points):
        want, err = _outcome(lambda: rows(Y, point))
        if err is not None:
            _same_error(errors[i], err, (n, point))
            assert np.isnan(got[i]).all()
            continue
        assert errors[i] is None
        _same_bits(got[i], want, (n, point))


def test_a_dense_grid_matches_the_loop_bit_for_bit():
    # np.log rounds about one log-normaliser in 1500 away from math.log:
    # only thousands of points tell the two apart
    family = F.bernoulli_sum(20)
    points = np.linspace(1e-3, 1.0 - 1e-3, 20000)[:, None]
    loop = Pointwise(family)
    Y = family.support.outcomes
    _same_bits(family.log_density_rows(Y, points),
               [loop.log_density(Y, point) for point in points], "log f")
    _same_bits(F.score(family, Y, points),
               [loop.score(Y, point) for point in points], "score")
    got = F.fisher_info(ENGINE, family, points[::20]).values
    want = [loop.fisher_info(point) for point in points[::20]]
    for name in ("I", "I_perp"):
        _same_bits(getattr(got, name), [getattr(w, name) for w in want],
                   name)


def test_a_dense_two_binomial_grid_agrees_with_the_loop():
    family = F.two_binomial(5, 7)
    rng = np.random.default_rng(1)
    points = np.column_stack([rng.uniform(-6.0, 6.0, 20000),
                              rng.uniform(1e-3, 12.0 - 1e-3, 20000)])
    loop = Pointwise(family)
    Y = family.support.outcomes
    want = np.array([loop.log_density(Y, point) for point in points])
    _agree(family.log_density_rows(Y, points), want,
           np.maximum(np.abs(want), 1.0), "log f")
    want = np.array([loop.score(Y, point) for point in points])
    _agree(F.score(family, Y, points), want,
           np.abs(want).max(axis=(1, 2), keepdims=True), "score")
    got = F.fisher_info(ENGINE, family, points[::10]).values
    for i, point in enumerate(points[::10]):
        want = loop.fisher_info(point)
        scale = max(want.I.max(), want.I_nuis.max())
        for name in ("I", "I_cross", "I_nuis"):
            _agree(getattr(got, name)[i], getattr(want, name), scale,
                   (point, name))
        _agree(got.I_perp[i], want.I_perp, want.I_perp, (point, "I_perp"))


@pytest.mark.parametrize("n1, n2", [(20, 30), (5, 7)])
def test_two_binomial_matches_the_loop(n1, n2):
    fam, loop, points, oracle = _two_binomial_case(n1, n2)
    got = F.fisher_info(ENGINE, fam, points)
    for i, point in enumerate(points):
        want, err = _outcome(lambda: loop.fisher_info(point))
        if err is not None:
            _same_error(got.errors[i], err, point)
            continue
        scale = max(want.I.max(), want.I_nuis.max())
        for name in ("I", "I_cross", "I_nuis", "I_perp"):
            _agree(getattr(got.values, name)[i], getattr(want, name), scale,
                   (point, name))
    Y = fam.support.outcomes
    for est, (rows, info_of, own) in oracle.items():
        rep = E.information(ENGINE, fam, est, points, direct_route=False)
        res = E.check_score_equation(ENGINE, fam, est, points)
        for i, point in enumerate(points):
            where = (est.label, point)
            want, err = _outcome(
                lambda: loop.information(rows, point, info_of))
            if err is not None:
                _same_error(rep.errors[i], err, where)
            else:
                for name in ("Lambda", "fisher_bound", "efficiency", "R"):
                    value = getattr(want, name)
                    _agree(getattr(rep.values, name)[i], value,
                           np.abs(value),
                           where + (name,))
            want, err = _outcome(
                lambda: loop.score_equation(rows, point, info_of, own))
            if err is not None:
                _same_error(res.errors[i], err, where)
            else:
                _agree(res.values[i], want, max(1.0, np.abs(want).max()),
                       where)
            if err is None and est.errors is not None:
                want = rows(Y, point)
                _agree(est.rows(Y, points[i:i + 1])[0], want,
                       np.abs(want).max(), where)


# --- one implementation: a point's values do not depend on its batch ------


@pytest.mark.parametrize("n", [1, 20, 88])
def test_a_point_gives_the_same_bits_alone_and_in_a_batch(n):
    suite = E.bernoulli_suite(n, ENGINE)
    points = np.array(BERNOULLI_P)[:, None]
    for est in suite:
        batch = E.information(ENGINE, suite.family, est, points)
        check = E.check_score_equation(ENGINE, suite.family, est, points)
        for i, point in enumerate(points):
            one, err = _outcome(lambda: E.information(
                ENGINE, suite.family, est, point))
            if err is not None:
                _same_error(batch.errors[i], err, (est.label, point))
                continue
            for name in ("Lambda", "efficiency", "R", "route_gap"):
                _same_bits(getattr(batch.values, name)[i],
                           getattr(one, name), (est.label, point, name))
            assert batch.values.routes_agree[i] == one.routes_agree
            one, err = _outcome(lambda: E.check_score_equation(
                ENGINE, suite.family, est, point))
            if err is not None:
                _same_error(check.errors[i], err, (est.label, point))
            else:
                _same_bits(check.values[i], one, (est.label, point))


def _leaves(value):
    """The arrays and errors of a batched result, in field order."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [leaf for field in value for leaf in _leaves(field)]
    return [value if value is None else (type(value), str(value))]


def _batched_calls(fam, points, estimators, info=None):
    out = [F.fisher_info(ENGINE, fam, points)]
    for est in estimators:
        out.append(E.information(ENGINE, fam, est, points, info=info))
        out.append(E.check_score_equation(ENGINE, fam, est, points))
    return _leaves(out)


@pytest.mark.parametrize("size", [1, 4])  # points per block: even, uneven
def test_blocks_of_points_give_the_same_bits(monkeypatch, size):
    # the two-binomial case's points, failing ones among them
    fam, _, points, oracle = _two_binomial_case(5, 7)
    whole = _batched_calls(fam, points, oracle)
    monkeypatch.setattr(F, "POINT_BLOCK",
                        size * len(fam.support.outcomes) * fam.dim ** 2)
    assert len(F.point_blocks(fam, points)) == -(-len(points) // size)
    fam, _, points, oracle = _two_binomial_case(5, 7)  # fresh caches
    blocks = _batched_calls(fam, points, oracle)
    given = _batched_calls(fam, points, oracle,
                           info=F.fisher_info(ENGINE, fam, points))
    assert len(whole) == len(blocks) == len(given)
    for a, b, c in zip(whole, blocks, given):
        if isinstance(a, np.ndarray):
            _same_bits(b, a, "blocks")
            _same_bits(c, a, "info given")
        else:
            assert a == b == c


def test_a_batch_holds_no_more_than_a_block_of_rows():
    # at n = 100,000 each (points, outcomes) array of a 16-point batch
    # would take 12.8 MB; in blocks the batch peaks as one point does
    suite = E.bernoulli_suite(100_000, ENGINE)

    def peak(points):
        tracemalloc.start()
        try:
            for est in suite:
                E.information(ENGINE, suite.family, est, points,
                              direct_route=False)
                E.check_score_equation(ENGINE, suite.family, est, points)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(np.array([[0.45]]))
    assert peak(np.linspace(0.3, 0.7, 16)[:, None]) < 2 * one


# --- failures stay with their points -------------------------------------


def test_info_report_keeps_the_valid_rows_and_skip_lines(tmp_path):
    want = VERDICTS["info_report_failures"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        cli.main(want["args"] + ["--out-dir", str(tmp_path)])
    assert exc.value.code in (0, None) and want["status"] == 0
    assert out.getvalue().splitlines() == want["stdout"]
    assert (tmp_path / "info_report.csv").read_text().splitlines() \
        == want["csv"]


@pytest.mark.parametrize("n", sorted(VERDICTS["verify"], key=int))
def test_verify_verdicts_are_the_per_point_loops(n):
    # every verdict line, failing ones and their first-failure text
    # included, and the exit status, as the per-point implementation gave
    want = VERDICTS["verify"][n]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--n", n])
    assert (exc.value.code or 0) == want["status"]
    assert out.getvalue().splitlines() == want["lines"]


def test_monte_carlo_takes_one_point_only():
    fam = F.bernoulli_sum(5)
    mc = F.ExpectationEngine(mode="mc", replications=100)
    with pytest.raises(F.EngineError, match="one point, not a batch of 2"):
        mc.expect(fam, [[0.3], [0.4]], lambda Y: Y)
    with pytest.raises(F.EngineError, match="not a batch"):
        mc.expect(F.normal_location(3), [[0.0], [1.0]], lambda Y: Y)
    assert mc.expect(fam, [0.3], lambda Y: Y).shape == (1,)


def test_nuisance_information_takes_one_point():
    fam, _, points, oracle = _two_binomial_case(5, 7)
    g = next(iter(oracle))
    assert E.nuisance_information(ENGINE, fam, g, points[0]).shape == (1, 1)
    with pytest.raises(F.DomainError, match="takes one point"):
        E.nuisance_information(ENGINE, fam, g, points[:2])


# --- the work is per estimator, not per point ---------------------------


def _counted_cli(monkeypatch, args):
    calls = []
    expect_se = F.ExpectationEngine.expect_se

    def counted(self, *a, **k):
        calls.append(1)
        return expect_se(self, *a, **k)

    monkeypatch.setattr(F.ExpectationEngine, "expect_se", counted)
    with contextlib.redirect_stdout(io.StringIO()), \
            pytest.raises(SystemExit):
        cli.main(args)
    return len(calls)


def test_info_report_expectations_do_not_grow_with_points(monkeypatch,
                                                          tmp_path):
    few = _counted_cli(monkeypatch, ["info-report", "--n", "30", "--p",
                                     "0.2", "--p", "0.6", "--out-dir",
                                     str(tmp_path)])
    many = ["info-report", "--n", "30", "--out-dir", str(tmp_path)]
    for p in np.linspace(0.05, 0.95, 40):
        many += ["--p", repr(float(p))]
    # one per Fisher block, variance and cross moment of each of the four
    # estimators, and one for the sign statistic's projection; 13 per
    # point before
    assert few == _counted_cli(monkeypatch, many) == 13


def test_verify_takes_fewer_expectations(monkeypatch):
    # 167 one point at a time; the 25 two-binomial Fisher blocks take a
    # few blocks of points (POINT_BLOCK), the rest is a few calls per
    # estimator
    assert _counted_cli(monkeypatch, ["verify", "--n", "20"]) <= 60


# --- the caches stay bounded ------------------------------------------------


def test_batch_caches_are_bounded_lrus(monkeypatch):
    monkeypatch.setattr(F, "STATS_CACHE_SIZE", 4)
    monkeypatch.setattr(E, "COEFFS_CACHE_SIZE", 4)
    suite = E.bernoulli_suite(6, ENGINE)
    g = suite["sign-coarse-orthogonalized"]
    for i in range(10):
        points = np.array([[0.1 + 0.01 * i], [0.4 + 0.01 * i]])
        E.information(ENGINE, suite.family, g, points, direct_route=False)
    for info in (suite.family.meta["stats"].cache_info(),
                 g.rows.cache_info()):
        assert info.maxsize == 4 and info.currsize == 4
