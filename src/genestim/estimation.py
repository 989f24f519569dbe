"""Generalized estimators, standardization, information, and efficiency.

The central objects are mean-zero estimating functions g whose
"information" is the squared mean slope of their standardized version.
The information is computed both through the covariance identity
E(s gbar^t) E(gbar s^t) and, as a cross-check, by direct finite
differencing of the standardized estimator's mean slope; disagreement
between the two routes flags a broken estimating-function contract.

An estimator is its rows: ``rows(Y, point)`` gives g at every outcome of
the array Y, one row each, and every expectation here is one
``engine.expect`` product over those rows.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._kernels import _sym_solve
from .families import (FD_STEP, DomainError, ExpectationEngine, FisherInfo,
                       ModelFamily, PerPoint, _Failures, _row, _sym_eig_rows,
                       block_of, fisher_info, joined, outer_rows,
                       point_blocks, score, values_or_raise)

# parameter points whose projection coefficients an orthogonalized
# estimator keeps
COEFFS_CACHE_SIZE = 4096
# an orthogonalized estimator whose variance is below this share of
# E[f f^t] is degenerate: centring cancels f's second moment to round-off
DEGENERATE_RATIO = 1e-12
# a difference step h keeps this many steps of room to the domain's edge
STENCIL_ROOM = 5e3
# ... and for the five-point stencil, whose truncation error (h/d)^4 at
# distance d from the edge is then as small as the central one's (h/d)^2
SCORE_STENCIL_ROOM = STENCIL_ROOM ** 0.5
ROUTE_TOL = 1e-6  # route gap allowed, as a share of max(1, max |Lambda|)
PSD_FLOOR = 1e-12  # smallest eigenvalue allowed, as a share of the largest
MC_BATCHES = 50  # batches behind the se of a Monte Carlo efficiency


class EstimatorError(RuntimeError):
    """Degenerate variance or other estimator-contract failure."""


class PreEstimator(NamedTuple):
    """Candidate estimating function, not yet mean-zero / orthogonal."""

    rows: Callable  # (Y, point) -> (N, k)
    label: str = "pre-estimator"


class GeneralizedEstimator(NamedTuple):
    """Mean-zero (and nuisance-orthogonal) estimating function."""

    rows: Callable  # (Y, point) -> (N, k)
    label: str = "estimator"
    # (engine, family, point) -> the FisherInfo g already holds at a point,
    # as an orthogonalized estimator's projection does; None: fisher_info
    fisher_info: Optional[Callable] = None
    # (P, k) points -> the error g itself has at each point, None where it
    # stands (an orthogonalized estimator's projection); None: g has none
    errors: Optional[Callable] = None


def estimator_rows(g, Y, point) -> np.ndarray:
    """(N, k) values of an estimating function at every outcome of Y, or
    (P, N, k) at a (P, k) batch of points."""
    point = np.asarray(point)
    return np.asarray(g.rows(Y, point), dtype=float).reshape(
        point.shape[:-1] + (len(Y), -1))


class InformationReport(NamedTuple):
    """Information, bound, efficiency and score correlation at one point,
    or at a batch of P points with a leading P axis on every field."""

    Lambda: np.ndarray
    lambda_scalar: float
    fisher_bound: np.ndarray
    efficiency: np.ndarray
    R: np.ndarray
    route_gap: Optional[float] = None  # |direct - covariance| when both ran
    routes_agree: Optional[bool] = None


def inv_sqrt_psd(V: np.ndarray) -> np.ndarray:
    """Inverse symmetric PSD square root via ``_sym_eig``.

    Eigenvalues below PSD_FLOOR * max eigenvalue are an error, not
    clamped: a near-singular variance invalidates everything downstream.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    return _inv_sqrt_psd_rows(V[None], _Failures(V[0]))[0]


def _inv_sqrt_psd_rows(V, fails) -> np.ndarray:
    """:func:`inv_sqrt_psd` of each matrix of a (P, k, k) stack; a matrix
    that is not positive definite has its EstimatorError noted in
    ``fails`` and a NaN root, as has each point already failed."""
    w, U, errors = _sym_eig_rows(0.5 * (V + _t(V)))
    fails.take(errors)
    fails.note((w[:, -1] <= 0.0) | (w[:, 0] < PSD_FLOOR * w[:, -1]),
               lambda i: EstimatorError(
                   f"variance matrix not positive definite (eigenvalues "
                   f"{w[i]})"))
    # U diag(w^-1/2) U^t, each product of the diagonal a single term
    return (U * fails.blank(w)[:, None, :] ** -0.5) @ _t(U)


def _t(a) -> np.ndarray:
    """The transpose of each matrix of a stack, over its last two axes."""
    return a.swapaxes(-1, -2)


def orthogonalize(engine: ExpectationEngine, family: ModelFamily,
                  f: PreEstimator) -> GeneralizedEstimator:
    """Project out the mean and the nuisance-score span, lazily per point.

    Returns g with rows g(Y, point) = f(Y, point) - E[f] - C G^{-1} s~(Y)
    where C = E[f s~^t], which is the centred cross moment as E s~ = 0,
    and G is the nuisance block of ``fisher_info``; a point where that
    block is singular raises its DomainError.  The projection term is
    absent when the family has no nuisance parameters.  The coefficients
    are computed per call's points, one point or a (P, k) batch in one
    expectation, and kept in a bounded LRU, whose ``cache_info()`` the
    returned estimator's ``rows`` exposes, with the ``fisher_info`` they
    were projected by: the estimator's ``fisher_info`` lends it, so
    ``information`` takes the blocks once per point.

    A point where the smallest eigenvalue of g's variance,
    E[f f^t] - E f E f^t - C G^{-1} C^t, falls below DEGENERATE_RATIO of
    the trace of E[f f^t] raises EstimatorError: f is constant there or
    lies in the nuisance-score span, and what is left of g is round-off.
    At a batch those errors do not raise: a failed point's rows are NaN,
    and the estimator's ``errors(points)`` gives each point's error.
    """
    k, kp = family.dim_interest, family.dim_nuisance

    @functools.lru_cache(maxsize=COEFFS_CACHE_SIZE)
    def cached_coeffs(key):
        point = np.frombuffer(key[1]).reshape(key[0])
        fails = _Failures(point)

        def moments(Y):
            F = estimator_rows(f, Y, point)
            if not kp:
                return np.concatenate([F, outer_rows(F, F)], axis=-1)
            S = score(family, Y, point)[..., k:]
            return np.concatenate([F, outer_rows(F, F), outer_rows(F, S)],
                                  axis=-1)

        first = engine.expect(family, point, moments).reshape(
            len(fails), -1)
        mean = first[:, :k]
        second = first[:, k:k + k * k].reshape(-1, k, k)
        V = second - mean[:, :, None] * mean[:, None, :]
        proj = info = None
        if kp:
            C = first[:, k + k * k:].reshape(-1, k, kp)
            info = fails.values(fisher_info(engine, family, point))
            w, U = info.nuis_eig
            proj = _t(_sym_solve(w.reshape(-1, kp), U.reshape(-1, kp, kp),
                                 _t(C)))
            V = V - proj @ _t(C)
        w, _, errors = _sym_eig_rows(0.5 * (V + _t(V)))
        fails.take(errors)
        var = w[:, 0]
        scale = np.trace(second, axis1=1, axis2=2)
        fails.note(~(var > DEGENERATE_RATIO * scale),
                   lambda i: EstimatorError(
                       f"{f.label} is degenerate at "
                       f"{_row(point, i).tolist()}: variance {var[i]:.2e} "
                       f"after centring and projection, E[f f^t] "
                       f"{scale[i]:.2e}"))
        if fails.single:
            return mean[0], None if proj is None else proj[0], info, None
        return fails.blank(mean), proj, info, tuple(fails)

    def coeffs(point):
        point = np.asarray(point, dtype=float)
        return cached_coeffs((point.shape, point.tobytes()))

    def rows(Y, point):
        mean, proj, _, _ = coeffs(point)
        out = estimator_rows(f, Y, point) - mean[..., None, :]
        if proj is not None:
            out = out - score(family, Y, point)[..., k:] @ _t(proj)
        return out

    def info_at(eng, fam, point):
        # the blocks are only this estimator's to lend at its own engine
        # and family; at a batch, with them come the points where its
        # projection fails
        if kp and eng == engine and fam is family:
            _, _, info, errors = coeffs(point)
            return info if errors is None else PerPoint(info, errors)
        return fisher_info(eng, fam, point)

    rows.cache_info = cached_coeffs.cache_info
    return GeneralizedEstimator(rows, f"{f.label}-orthogonalized", info_at,
                                lambda point: coeffs(point)[3])


def orthogonalized_score(engine: ExpectationEngine, family: ModelFamily,
                         point, info: Optional[FisherInfo] = None):
    """The interest score with its nuisance-span projection removed.

    Returns (S, I_perp) with S mapping the outcome array Y to (N, k) rows,
    or (P, N, k) at a (P, k) batch with I_perp (P, k, k).  For families
    without nuisance parameters S is the plain interest score and
    I_perp = I.  A precomputed ``info`` at the point (a batch's values)
    is reused, and S and I_perp are NaN where its blocks are; without it,
    a point where the nuisance block is singular raises DomainError, a
    batch's first such point included.
    """
    point = family.check_point(point)
    k = family.dim_interest
    if info is None:
        info = values_or_raise(fisher_info(engine, family, point))
    if family.dim_nuisance == 0:
        return (lambda Y: score(family, Y, point)), info.I_perp
    proj = _t(_sym_solve(*info.nuis_eig, _t(info.I_cross)))

    def S(Y):
        full = score(family, Y, point)
        return full[..., :k] - full[..., k:] @ _t(proj)

    return S, info.I_perp


def variance(engine, family, g, point) -> np.ndarray:
    """V(g) = E[g g^t] at ``point``, or (P, k, k) at a batch."""
    def H(Y):
        G = estimator_rows(g, Y, point)
        return outer_rows(G, G)

    k = family.dim_interest
    return engine.expect(family, point, H).reshape(
        np.shape(point)[:-1] + (k, k))


def standardize(engine: ExpectationEngine, family: ModelFamily,
                g: GeneralizedEstimator, point) -> Callable:
    """Return gbar's rows, Y -> g(Y, point) V(g)^{-1/2}, with V(gbar) = I;
    at a (P, k) batch, (P, N, k) rows.  A point where V(g) is not
    positive definite, or g fails, raises its error, the first point's
    at a batch."""
    point, fails = family.screen(point)
    return values_or_raise(
        fails.result(_standardize(engine, family, g, point, fails)))


def _standardize(engine, family, g, point, fails) -> Callable:
    """:func:`standardize` at a screened point or batch, each failure
    noted in ``fails`` (raised for one point), its rows NaN."""
    if g.errors is not None:
        fails.take(g.errors(point))
    V = variance(engine, family, g, point).reshape(
        len(fails), family.dim_interest, -1)
    W = _inv_sqrt_psd_rows(V, fails)
    if fails.single:
        W = W[0]
    return lambda Y: estimator_rows(g, Y, point) @ _t(W)


def information(engine: ExpectationEngine, family: ModelFamily,
                g: GeneralizedEstimator, point,
                direct_route: bool = True,
                info: Optional[FisherInfo] = None):
    """Information utilized by g, its bound, efficiency, and correlation.

    The covariance route E(s gbar^t) E(gbar s^t) is always computed;
    when ``direct_route`` is set the squared mean slope of gbar is also
    obtained by central finite differences and compared against it.
    A precomputed ``info`` for the same point skips the Fisher block, as
    do the blocks g holds there (:func:`_fisher_info_of`).

    One point gives an :class:`InformationReport` and raises its first
    failure (DomainError, EstimatorError).  A (P, k) batch, each step one
    expectation per block of points (``info`` then fisher_info's result
    at the batch), gives a :class:`families.PerPoint` of the report, a
    leading P axis on each field, and each point's first error, in the
    order one point would meet them.
    """
    blocks = point_blocks(family, point)
    if blocks:
        return joined([information(engine, family, g, point[s], direct_route,
                                   block_of(info, s)) for s in blocks])
    point, fails = family.screen(point)
    k = family.dim_interest
    if info is None:
        info = _fisher_info_of(g, engine, family, point)
    info = fails.values(info)
    S, bound = orthogonalized_score(engine, family, point, info)
    gbar = _standardize(engine, family, g, point, fails)
    A = engine.expect(family, point,
                      lambda Y: outer_rows(S(Y), gbar(Y))).reshape(-1, k, k)
    Lam = A @ _t(A)

    route_gap = None
    routes_agree = None
    if direct_route:
        B = _mean_slope(engine, family, g, point, range(k), fails)
        Lam_dir = B @ _t(B)
        route_gap = np.max(np.abs(Lam_dir - Lam), axis=(1, 2))
        routes_agree = route_gap <= ROUTE_TOL * np.maximum(
            1.0, np.max(np.abs(Lam), axis=(1, 2)))

    bound = np.reshape(bound, (-1, k, k))
    binv = _inv_sqrt_psd_rows(bound, fails)
    eff = binv @ Lam @ binv
    R = binv @ A  # E(sbar gbar^t)
    Lam, bound, eff, R = (fails.blank(v) for v in (Lam, bound, eff, R))
    lam = np.trace(Lam, axis1=1, axis2=2)
    if fails.single:
        return InformationReport(
            Lambda=Lam[0], lambda_scalar=float(lam[0]),
            fisher_bound=bound[0], efficiency=eff[0], R=R[0],
            route_gap=None if route_gap is None else float(route_gap[0]),
            routes_agree=None if routes_agree is None
            else bool(routes_agree[0]))
    if direct_route:
        route_gap = fails.blank(route_gap)
        routes_agree = routes_agree & fails.live
    return fails.result(InformationReport(
        Lambda=Lam, lambda_scalar=lam, fisher_bound=bound, efficiency=eff,
        R=R, route_gap=route_gap, routes_agree=routes_agree))


def _fisher_info_of(g, engine, family, point):
    """``fisher_info`` at the point, or the blocks g already holds there."""
    return (getattr(g, "fisher_info", None) or fisher_info)(
        engine, family, point)


def _shifted(point, j, step) -> np.ndarray:
    """``point`` with coordinate j moved by ``step``, one per point of a
    batch."""
    q = point.copy()
    q[..., j] += step
    return q


def _fitted_step(family, point, j, h, room) -> np.ndarray:
    """h, halved until theta_j +- room * h are in the family's domain, per
    point of a batch (NaN rows, points failed before, keep theirs)."""
    h = np.array(h, dtype=float)
    skip = np.isnan(point[..., j])
    while True:
        short = ~skip & ~(np.asarray(family.in_domain(
            _shifted(point, j, room * h))) & np.asarray(family.in_domain(
                _shifted(point, j, -room * h))))
        if not short.any():
            return h
        h = np.where(short, 0.5 * h, h)


def _mean_slope(engine, family, g, point, axes, fails=None) -> np.ndarray:
    """E[d gbar_b / d theta_a] by central differences of the standardized g.

    The derivative is of the whole standardized map (g and its variance
    both move with theta); the expectation stays at ``point``.  Near the
    domain's edge the step h is halved until theta_a +- STENCIL_ROOM * h
    are in the domain: the stencil stays inside, and its truncation
    error, of order (h/d)^2 at distance d from the edge, stays small.
    Failures at the stencil's points are noted in ``fails`` for the point
    (raised for one point, or without ``fails``).  (A, k) for one point,
    (P, A, k) at a batch.
    """
    fails = _Failures(point) if fails is None else fails
    rows = []
    for j in axes:
        h = _fitted_step(family, point, j,
                         FD_STEP * np.maximum(1.0, np.abs(point[..., j])),
                         STENCIL_ROOM)
        qp, qm = _shifted(point, j, h), _shifted(point, j, -h)
        gp = _standardize(engine, family, g, qp, fails)
        gm = _standardize(engine, family, g, qm, fails)
        # divide by the step the rounded points actually take
        step = (qp[..., j] - qm[..., j])[..., None, None]
        rows.append(engine.expect(
            family, point, lambda Y: (gp(Y) - gm(Y)) / step))
    return np.stack(rows, axis=-2)


def nuisance_information(engine, family, g, point) -> np.ndarray:
    """Information in the nuisance direction at one point; identically 0
    on contract.  A batch is a DomainError: this check takes one point."""
    if np.ndim(point) > 1:
        raise DomainError(f"{family.label}: nuisance_information takes one "
                          f"point, got shape {np.shape(point)}")
    point = family.check_point(point)
    k = family.dim_interest
    axes = range(k, family.dim)
    B = _mean_slope(engine, family, g, point, list(axes))
    return B @ B.T


def check_score_equation(engine: ExpectationEngine, family: ModelFamily,
                         g, point):
    """Residual E(grad g^t) + E(s g^t); near-zero certifies the identity.

    The derivative is a five-point stencil of step h = 1e-4 max(1, |theta_j|),
    halved near the domain's edge until theta_j +- SCORE_STENCIL_ROOM * h
    are in the domain.  One point gives the (k, k) residual and raises its
    first failure; a (P, k) batch, one expectation per block of points,
    gives a :class:`families.PerPoint` of the (P, k, k) residuals and each
    point's first error, in the order one point would meet them.
    """
    blocks = point_blocks(family, point)
    if blocks:
        return joined([check_score_equation(engine, family, g, point[s])
                       for s in blocks])
    point, fails = family.screen(point)
    k = family.dim_interest
    info = fails.values(_fisher_info_of(g, engine, family, point))
    S, _ = orthogonalized_score(engine, family, point, info)
    steps = [_fitted_step(family, point, j,
                          1e-4 * np.maximum(1.0, np.abs(point[..., j])),
                          SCORE_STENCIL_ROOM) for j in range(k)]
    # fourth-order five-point stencil: the residual certifies an exact
    # identity, so truncation error has to stay well below the
    # certification tolerance
    stencil = [[_shifted(point, j, c * h) for c in (-2.0, -1.0, 1.0, 2.0)]
               for j, h in enumerate(steps)]
    if g.errors is not None:
        for q in (*(q for qs in stencil for q in qs), point):
            fails.take(g.errors(q))

    def grad_g(Y):
        """(..., N, k, k) rows: entry [i, j, b] is d g_b / d theta_j at
        Y[i]."""
        rows = []
        for qs, h in zip(stencil, steps):
            vals = [estimator_rows(g, Y, q) for q in qs]
            rows.append((vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3])
                        / (12.0 * h[..., None, None]))
        return np.stack(rows, axis=-2)

    def H(Y):
        return (grad_g(Y).reshape(point.shape[:-1] + (len(Y), -1))
                + outer_rows(S(Y), estimator_rows(g, Y, point)))

    res = engine.expect(family, point, H).reshape(-1, k, k)
    if fails.single:
        return res[0]
    return fails.result(fails.blank(res))


class ScalingRow(NamedTuple):
    n: int
    Lambda: np.ndarray
    ratio: Optional[float]  # Lambda(n) / (n * Lambda(1)), trace-based


def n_scaling_check(family_builder, g_builder, n_list, point,
                    engine: Optional[ExpectationEngine] = None) -> list:
    """Table of Lambda(g_(n)) against n * Lambda(g_(1))."""
    engine = engine or ExpectationEngine(mode="exact")
    fam1 = family_builder(1)
    rep1 = information(engine, fam1, g_builder(1, fam1), point,
                       direct_route=False)
    base = rep1.lambda_scalar
    rows = []
    for n in n_list:
        fam = family_builder(n)
        rep = information(engine, fam, g_builder(n, fam), point,
                          direct_route=False)
        ratio = rep.lambda_scalar / (n * base) if base > 0 else None
        rows.append(ScalingRow(n=n, Lambda=rep.Lambda, ratio=ratio))
    return rows


def efficiency_mc(family: ModelFamily, g, point, reps: int, seed: int = 0):
    """Monte Carlo squared correlation between g and the score (k = 1).

    Returns (eff, se): eff = corr(s, g)^2 over ``reps`` draws from the
    family at ``point``, the draws cut into MC_BATCHES consecutive blocks
    (the last takes the remainder) and fed to :func:`corr_sq_with_se`
    one block at a time; se is the delta-method spread of the block
    correlations.
    """
    point = family.check_point(point)
    if family.support.sampler is None:
        raise EstimatorError(f"{family.label}: no sampler for MC efficiency")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draws = family.support.sampler(rng, point, reps)
    sv = score(family, draws, point)[:, 0]
    gv = estimator_rows(g, draws, point)[:, 0]
    if gv.std() == 0.0:
        raise EstimatorError("degenerate sample variance of g")
    m = reps // MC_BATCHES
    cuts = m * np.arange(1, MC_BATCHES)
    eff, se = corr_sq_with_se([
        block_moments(s, b[None], m)
        for s, b in zip(np.split(sv, cuts), np.split(gv, cuts))])
    return float(eff[0]), float(se[0])


def _moments(s, g):
    """(count, mean of s, means of g, centred sum of squares of s, of each
    row of g, centred cross products) of draws s (N,) and g (k, N)."""
    mean_s, mean_g = s.mean(), g.mean(axis=1)
    sc, gc = s - mean_s, g - mean_g[:, None]
    return (len(s), mean_s, mean_g, (sc * sc).sum(), (gc * gc).sum(axis=1),
            (gc * sc).sum(axis=1))


def block_moments(s, g, m: int):
    """What :func:`corr_sq_with_se` keeps of one block of paired draws, s
    (N,) and g (k, N) with N >= m: the block's moments and the (k,)
    correlations over its first m draws."""
    *_, ss_s, ss_g, cross = head = _moments(s[:m], g[:, :m])
    r = cross / np.sqrt(ss_s * ss_g)
    return (head if len(s) == m else _moments(s, g)), r


def corr_sq_with_se(blocks):
    """(corr(s, g)^2, its standard error), (k,) each, from the
    :func:`block_moments` of consecutive blocks of paired draws, a list.

    The blocks' centred sums add, plus the spread of the block means about
    the grand mean weighted by block counts (Chan, Golub & LeVeque 1979),
    into the correlation r over every draw; nothing is kept per draw.  The
    standard error is the delta-method 2|r| se(r), with se(r) the spread
    of the block correlations over sqrt(blocks).
    """
    n, mean_s, mean_g, ss_s, ss_g, cross = (
        np.array(v) for v in zip(*(mo for mo, _ in blocks)))
    ds = mean_s - n @ mean_s / n.sum()  # block means about the grand mean
    dg = mean_g - n @ mean_g / n.sum()
    ss_s = ss_s.sum() + n @ (ds * ds)
    ss_g = ss_g.sum(axis=0) + n @ (dg * dg)
    cross = cross.sum(axis=0) + (n * ds) @ dg
    r = np.clip(cross / np.sqrt(ss_s * ss_g), -1.0, 1.0)
    rb = np.array([r_b for _, r_b in blocks])
    se_r = rb.std(axis=0, ddof=1) / math.sqrt(len(blocks))
    return r * r, 2.0 * np.abs(r) * se_r


class EstimatorRegistry:
    """Write-once store of labelled estimators, with the family they are
    defined on when there is one."""

    def __init__(self, family: Optional[ModelFamily] = None):
        self._entries = {}
        self.family = family

    def register(self, est: GeneralizedEstimator):
        if est.label in self._entries:
            raise KeyError(f"estimator {est.label!r} already registered")
        self._entries[est.label] = est

    def __iter__(self):
        return iter(self._entries.values())

    def __getitem__(self, label):
        return self._entries[label]

    def labels(self):
        return list(self._entries)


def bernoulli_suite(n: int, engine: Optional[ExpectationEngine] = None
                    ) -> EstimatorRegistry:
    """Standard estimator suite for the binomial-count family.

    score; the centered proportion y/n - p; the centered shrinkage
    estimate (y+2)/(n+4), as (y (1 - p) - (n - y) p)/(n + 4), which keeps
    its precision next to p = 1 where y - n p cancels; and a coarse sign
    statistic, orthogonalized.
    Each is defined by its rows only.  verify's score-equation check
    (bound 1e-8) fails on two known, still open defects.  The sign
    statistic jumps at p = (y - 0.5)/n; the half-count offset keeps those
    jumps off verify's p grid (0.1, 0.3, ..., 0.9) only for even n: for
    odd n a jump sits at p = 0.5, and for large n one comes within the
    stencil's reach of a grid point.  And the score's own residual, the
    five-point stencil's truncation error, grows like n: it exceeds the
    bound from about n = 250 on (first at n = 237), for either parity.
    The registry's ``family`` is the ``bernoulli_sum(n)`` they are
    defined on; expectations taken on it share its per-point statistics
    with the suite.
    """
    engine = engine or ExpectationEngine(mode="exact")
    from .families import bernoulli_sum
    fam = bernoulli_sum(n)
    reg = EstimatorRegistry(family=fam)

    def p_of(point):
        """p as (1,) for one point or (P, 1) for a batch: each estimator's
        rows broadcast over the batch to (P, N, 1)."""
        return np.asarray(point, dtype=float)[..., :1]

    reg.register(GeneralizedEstimator(
        label="score", rows=functools.partial(score, fam)))
    reg.register(GeneralizedEstimator(
        label="centered-proportion",
        rows=lambda Y, point: (Y / n - p_of(point))[..., None]))
    reg.register(GeneralizedEstimator(
        label="centered-shrinkage",
        rows=lambda Y, point: ((Y * (1.0 - p_of(point))
                                - (n - Y) * p_of(point))
                               / (n + 4.0))[..., None]))
    sign_pre = PreEstimator(
        label="sign-coarse",
        rows=lambda Y, point: np.copysign(
            1.0, Y - n * p_of(point) - 0.5)[..., None])
    reg.register(orthogonalize(engine, fam, sign_pre))
    return reg
