"""Generalized estimators, standardization, information, and efficiency.

The central objects are mean-zero estimating functions g(y, point) whose
"information" is the squared mean slope of their standardized version.
The information is computed both through the covariance identity
E(s gbar^t) E(gbar s^t) and, as a cross-check, by direct finite
differencing of the standardized estimator's mean slope; disagreement
between the two routes flags a broken estimating-function contract.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .families import (FD_STEP, ExpectationEngine, FisherInfo, ModelFamily,
                       fisher_info, score)


class EstimatorError(RuntimeError):
    """Degenerate variance or other estimator-contract failure."""


@dataclass(frozen=True)
class PreEstimator:
    """Candidate estimating function, not yet mean-zero / orthogonal."""

    f: Callable  # (y, point) -> (k,)
    label: str = "pre-estimator"


@dataclass(frozen=True)
class GeneralizedEstimator:
    """Mean-zero (and nuisance-orthogonal) estimating function."""

    g: Callable  # (y, point) -> (k,)
    label: str = "estimator"
    gradient_interest: Optional[Callable] = None  # (y, point) -> (k, k)

    def __call__(self, y, point):
        return np.atleast_1d(np.asarray(self.g(y, point), dtype=float))


@dataclass(frozen=True)
class InformationReport:
    """Information, bound, efficiency and score correlation at one point."""

    Lambda: np.ndarray
    lambda_scalar: float
    fisher_bound: np.ndarray
    efficiency: np.ndarray
    R: np.ndarray
    point: np.ndarray
    mode: str
    route_gap: Optional[float] = None  # |direct - covariance| when both ran
    routes_agree: Optional[bool] = None

    def to_dict(self) -> dict:
        return {
            "Lambda": self.Lambda.ravel().tolist(),
            "lambda_scalar": self.lambda_scalar,
            "fisher_bound": self.fisher_bound.ravel().tolist(),
            "efficiency": self.efficiency.ravel().tolist(),
            "R": self.R.ravel().tolist(),
            "point": self.point.tolist(),
            "mode": self.mode,
            "route_gap": self.route_gap,
        }


def inv_sqrt_psd(V: np.ndarray, floor_ratio: float = 1e-12) -> np.ndarray:
    """Inverse symmetric PSD square root via eigendecomposition.

    Eigenvalues below floor_ratio * max eigenvalue are an error, not
    clamped: a near-singular variance invalidates everything downstream.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    w, U = np.linalg.eigh(0.5 * (V + V.T))
    if w[-1] <= 0.0 or w[0] < floor_ratio * w[-1]:
        raise EstimatorError(
            f"variance matrix not positive definite (eigenvalues {w})")
    return U @ np.diag(w ** -0.5) @ U.T


def sqrt_psd(V: np.ndarray) -> np.ndarray:
    V = np.atleast_2d(np.asarray(V, dtype=float))
    w, U = np.linalg.eigh(0.5 * (V + V.T))
    return U @ np.diag(np.sqrt(np.maximum(w, 0.0))) @ U.T


def orthogonalize(engine: ExpectationEngine, family: ModelFamily,
                  f: PreEstimator) -> GeneralizedEstimator:
    """Project out the mean and the nuisance-score span, lazily per point.

    Returns g with g(y, point) = f(y, point) - E[f] - C G^{-1} s~(y)
    where C = E[(f - E f) s~^t] and G = E[s~ s~^t]; the projection term
    is absent when the family has no nuisance parameters.
    """
    k = family.dim_interest
    cache: dict = {}

    def coeffs(point):
        key = tuple(np.atleast_1d(np.asarray(point, dtype=float)))
        hit = cache.get(key)
        if hit is not None:
            return hit
        mean = engine.expect(family, point,
                             lambda y: np.atleast_1d(f.f(y, point)))
        if family.dim_nuisance == 0:
            hit = (mean, None)
        else:
            def s_nuis(y):
                return score(family, y, point)[k:]

            def cross(y):
                fv = np.atleast_1d(f.f(y, point)) - mean
                return np.outer(fv, s_nuis(y)).ravel()

            C = engine.expect(family, point, cross).reshape(
                k, family.dim_nuisance)
            G = engine.expect(
                family, point,
                lambda y: np.outer(s_nuis(y), s_nuis(y)).ravel()
            ).reshape(family.dim_nuisance, family.dim_nuisance)
            singular = False
            try:
                proj = np.linalg.solve(G, C.T).T
                singular = np.linalg.cond(G) > 1e12
            except np.linalg.LinAlgError:
                singular = True
            if singular:
                warnings.warn(
                    f"{family.label}: singular nuisance Gram matrix at "
                    f"{key}; falling back to pseudo-inverse projection")
                proj = C @ np.linalg.pinv(G)
            hit = (mean, proj)
        if len(cache) > 4096:
            cache.clear()
        cache[key] = hit
        return hit

    def g(y, point):
        mean, proj = coeffs(point)
        out = np.atleast_1d(np.asarray(f.f(y, point), dtype=float)) - mean
        if proj is not None:
            out = out - proj @ score(family, y, point)[k:]
        return out

    return GeneralizedEstimator(g=g, label=f"{f.label}-orthogonalized")


def from_point_estimator(est: Callable, label: str) -> PreEstimator:
    """Wrap a point estimator y -> value as a constant-in-theta pre-estimator."""
    return PreEstimator(f=lambda y, point: np.atleast_1d(est(y)), label=label)


def orthogonalized_score(engine: ExpectationEngine, family: ModelFamily,
                         point, info: Optional[FisherInfo] = None):
    """The interest score with its nuisance-span projection removed.

    Returns (s, I_perp) where s maps y -> (k,).  For families without
    nuisance parameters s is the plain interest score and I_perp = I.
    """
    point = family.check_point(point)
    k = family.dim_interest
    if info is None:
        info = fisher_info(engine, family, point)
    if family.dim_nuisance == 0:
        return (lambda y: score(family, y, point)[:k]), info.I_perp
    if info.I_perp is None:
        raise EstimatorError(
            f"{family.label}: singular nuisance information at {point}")
    proj = np.linalg.solve(info.I_nuis, info.I_cross.T).T

    def s(y):
        full = score(family, y, point)
        return full[:k] - proj @ full[k:]

    return s, info.I_perp


def variance(engine, family, g, point) -> np.ndarray:
    return np.atleast_2d(engine.expect(
        family, point,
        lambda y: np.outer(g(y, point), g(y, point)).ravel()
    ).reshape(family.dim_interest, family.dim_interest))


def standardize(engine: ExpectationEngine, family: ModelFamily,
                g: GeneralizedEstimator, point) -> Callable:
    """Return gbar(y) = V(g)^{-1/2} g(y, point) with V(gbar) = identity."""
    point = family.check_point(point)
    W = inv_sqrt_psd(variance(engine, family, g, point))

    def gbar(y):
        return W @ np.atleast_1d(g(y, point))

    return gbar


def information(engine: ExpectationEngine, family: ModelFamily,
                g: GeneralizedEstimator, point,
                direct_route: bool = True,
                route_tol: float = 1e-6,
                info: Optional[FisherInfo] = None) -> InformationReport:
    """Information utilized by g, its bound, efficiency, and correlation.

    The covariance route E(s gbar^t) E(gbar s^t) is always computed;
    when ``direct_route`` is set the squared mean slope of gbar is also
    obtained by central finite differences and compared against it.
    A precomputed ``info`` for the same point skips the Fisher block.
    """
    point = family.check_point(point)
    k = family.dim_interest
    if info is None:
        info = fisher_info(engine, family, point)
    s, bound = orthogonalized_score(engine, family, point, info)
    W = inv_sqrt_psd(variance(engine, family, g, point))

    A = engine.expect(
        family, point,
        lambda y: np.outer(s(y), W @ np.atleast_1d(g(y, point))).ravel()
    ).reshape(k, k)
    Lam = A @ A.T

    route_gap = None
    routes_agree = None
    if direct_route:
        B = _mean_slope(engine, family, g, point, axes=range(k))
        Lam_dir = B @ B.T
        route_gap = float(np.max(np.abs(Lam_dir - Lam)))
        routes_agree = route_gap <= route_tol * max(1.0, float(np.max(np.abs(Lam))))

    binv = inv_sqrt_psd(bound)
    eff = binv @ Lam @ binv
    R = binv @ A  # E(sbar gbar^t)
    return InformationReport(
        Lambda=Lam, lambda_scalar=float(np.trace(Lam)),
        fisher_bound=bound, efficiency=eff, R=R,
        point=point, mode=engine.mode,
        route_gap=route_gap, routes_agree=routes_agree)


def _mean_slope(engine, family, g, point, axes) -> np.ndarray:
    """E[d gbar_b / d theta_a] by central differences of the standardized g.

    The derivative is of the whole standardized map (g and its variance
    both move with theta); the expectation stays at ``point``.
    """
    k = family.dim_interest

    def gbar_at(q):
        W = inv_sqrt_psd(variance(engine, family, g, q))
        return lambda y: W @ np.atleast_1d(g(y, q))

    rows = []
    for j in axes:
        h = FD_STEP * max(1.0, abs(point[j]))
        qp = point.copy()
        qp[j] += h
        qm = point.copy()
        qm[j] -= h
        gp, gm = gbar_at(qp), gbar_at(qm)
        rows.append(engine.expect(
            family, point, lambda y: (gp(y) - gm(y)) / (2.0 * h)))
    return np.array(rows).reshape(-1, k)


def nuisance_information(engine, family, g, point) -> np.ndarray:
    """Information in the nuisance direction; identically 0 on contract."""
    point = family.check_point(point)
    k = family.dim_interest
    axes = range(k, family.dim)
    B = _mean_slope(engine, family, g, point, axes=list(axes))
    return B @ B.T


def check_score_equation(engine: ExpectationEngine, family: ModelFamily,
                         g, point) -> np.ndarray:
    """Residual E(grad g^t) + E(s g^t); near-zero certifies the identity."""
    point = family.check_point(point)
    k = family.dim_interest
    s, _ = orthogonalized_score(engine, family, point)

    def grad_g(y):
        if getattr(g, "gradient_interest", None) is not None:
            return np.atleast_2d(g.gradient_interest(y, point))
        rows = []
        for j in range(k):
            # fourth-order five-point stencil: the residual certifies an
            # exact identity, so truncation error has to stay well below
            # the certification tolerance
            h = 1e-4 * max(1.0, abs(point[j]))
            vals = []
            for c in (-2.0, -1.0, 1.0, 2.0):
                q = point.copy()
                q[j] += c * h
                vals.append(np.atleast_1d(g(y, q)))
            rows.append((vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3])
                        / (12.0 * h))
        return np.array(rows)

    def h(y):
        return (grad_g(y) + np.outer(s(y), np.atleast_1d(g(y, point)))).ravel()

    return engine.expect(family, point, h).reshape(k, k)


@dataclass
class ScalingRow:
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


def efficiency_mc(family: ModelFamily, g, point, reps: int,
                  seed: int = 0, batches: int = 50):
    """Monte Carlo squared correlation between g and the score (k = 1).

    Returns (eff, se): eff = corr(s, g)^2 over ``reps`` draws from the
    family at ``point``; the standard error comes from a delta-method
    combination of batch-level correlation estimates.
    """
    point = family.check_point(point)
    if family.support.sampler is None:
        raise EstimatorError(f"{family.label}: no sampler for MC efficiency")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draws = family.support.sampler(rng, point, reps)
    sv = np.array([score(family, y, point)[0] for y in draws])
    gv = np.array([float(np.atleast_1d(g(y, point))[0]) for y in draws])
    if gv.std() == 0.0:
        raise EstimatorError("degenerate sample variance of g")
    return corr_sq_with_se(sv, gv, batches)


def corr_sq_with_se(a, b, blocks: int):
    """(corr(a, b)^2, its standard error) over paired draws.

    The standard error is the delta-method 2|r| se(r), with se(r) the
    spread of the correlations of ``blocks`` equal consecutive blocks.
    """
    r = float(np.corrcoef(a, b)[0, 1])
    m = len(a) // blocks
    rb = np.array([
        np.corrcoef(a[i * m:(i + 1) * m], b[i * m:(i + 1) * m])[0, 1]
        for i in range(blocks)])
    se_r = float(rb.std(ddof=1) / math.sqrt(blocks))
    return r * r, 2.0 * abs(r) * se_r


@dataclass
class EstimatorRegistry:
    """Write-once store of labelled estimators plus metadata."""

    _entries: dict = field(default_factory=dict)

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
    estimate (y+2)/(n+4); and a coarse sign statistic (half-count offset
    so its jump locations avoid the p-grids used in the checks).
    """
    engine = engine or ExpectationEngine(mode="exact")
    from .families import bernoulli_sum
    fam = bernoulli_sum(n)
    reg = EstimatorRegistry()
    reg.register(GeneralizedEstimator(
        g=lambda y, point: score(fam, y, point), label="score"))
    reg.register(GeneralizedEstimator(
        g=lambda y, point: np.array([y / n - point[0]]),
        label="centered-proportion"))
    reg.register(GeneralizedEstimator(
        g=lambda y, point: np.array([(y - n * point[0]) / (n + 4.0)]),
        label="centered-shrinkage"))
    sign_pre = PreEstimator(
        f=lambda y, point: np.array([math.copysign(1.0, y - n * point[0] - 0.5)]),
        label="sign-coarse")
    reg.register(orthogonalize(engine, fam, sign_pre))
    return reg
