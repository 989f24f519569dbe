"""Model families, expectation machinery, scores, and Fisher information.

A :class:`ModelFamily` bundles a support descriptor, a log-density over
(outcome, parameter point) and optional analytic scores, each optionally
also in a row form over a whole outcome array.  Parameter points are flat
float arrays ``(interest..., nuisance...)``.  The
:class:`ExpectationEngine` evaluates expectations either by exact
enumeration over a finite support or by seeded Monte Carlo; both are one
weighted sum over the rows of an (N, m) outcome matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import expit, gammaln, logit, xlog1py, xlogy

from ._kernels import invert_p1_batch

FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)
# parameter points whose two-binomial (p1, p2) inversion each family keeps
PROBS_CACHE_SIZE = 4096


class DomainError(ValueError):
    """Parameter point outside the family's domain."""


class EngineError(RuntimeError):
    """Expectation engine misuse (e.g. Monte Carlo without a sampler)."""


@dataclass(frozen=True)
class SupportDescriptor:
    """Sample-space description: explicit outcome list or a sampler."""

    kind: str  # "finite-discrete" | "continuous"
    outcomes: Optional[np.ndarray] = None  # (N,) or (N, d) for finite supports
    sampler: Optional[Callable] = None  # (rng, point, size) -> array

    def __post_init__(self):
        if self.kind not in ("finite-discrete", "continuous"):
            raise ValueError(f"unknown support kind {self.kind!r}")
        if self.kind == "finite-discrete":
            if self.outcomes is None or len(self.outcomes) == 0:
                raise ValueError("finite-discrete support needs outcomes")
            arr = np.asarray(self.outcomes)
            flat = arr.reshape(len(arr), -1)
            if len(np.unique(flat, axis=0)) != len(flat):
                raise ValueError("duplicate outcomes in finite support")


@dataclass(frozen=True)
class ModelFamily:
    """A parameterized family of distributions on a common support."""

    label: str
    support: SupportDescriptor
    dim_interest: int
    dim_nuisance: int
    in_domain: Callable[[np.ndarray], bool]
    log_density: Callable  # (y, point) -> float
    score_interest: Optional[Callable] = None  # (y, point) -> (k,)
    score_nuisance: Optional[Callable] = None  # (y, point) -> (k',)
    meta: dict = field(default_factory=dict)
    # row forms over a whole outcome array Y, (N,) or (N, d); without them
    # the per-outcome forms above are stacked
    log_density_rows: Optional[Callable] = None  # (Y, point) -> (N,)
    score_rows: Optional[Callable] = None  # (Y, point) -> (N, k + k')

    @property
    def dim(self) -> int:
        return self.dim_interest + self.dim_nuisance

    def check_point(self, point) -> np.ndarray:
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if point.shape != (self.dim,):
            raise DomainError(
                f"{self.label}: expected {self.dim} parameters, got {point.shape}")
        if not self.in_domain(point):
            raise DomainError(f"{self.label}: point {point} outside domain")
        return point


@dataclass(frozen=True)
class ExpectationEngine:
    """Evaluates expectations exactly (finite support) or by Monte Carlo."""

    mode: str = "exact"  # "exact" | "mc"
    replications: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exact", "mc"):
            raise ValueError(f"unknown engine mode {self.mode!r}")

    def expect(self, family: ModelFamily, point, h):
        value, _ = self.expect_se(family, point, h)
        return value

    def expect_se(self, family: ModelFamily, point, h):
        """Return (E[h], se) for a per-outcome h; se is None in exact mode."""
        return self.expect_rows_se(family, point,
                                   lambda Y: stack_rows(h, Y))

    def expect_rows(self, family: ModelFamily, point, H):
        value, _ = self.expect_rows_se(family, point, H)
        return value

    def expect_rows_se(self, family: ModelFamily, point, H):
        """Return (E[H], se) for H mapping the outcome array to (N, ...) rows.

        Exact mode is pmf @ H(outcomes); Monte Carlo mode averages H over
        seeded draws.  The result has the shape of one row ((N,) counts as
        (N, 1)); se is None in exact mode.
        """
        point = family.check_point(point)
        if self.mode == "exact":
            if family.support.kind != "finite-discrete":
                raise EngineError("exact enumeration needs a finite support")
            Y = family.support.outcomes
            vals = _as_rows(H(Y))
            w = np.exp(_log_density_rows(family, Y, point))
            # pmf @ vals as an elementwise weighted row sum: the first BLAS
            # matrix-vector call would raise each process's peak RSS
            mean = (w[:, None] * vals.reshape(len(Y), -1)).sum(axis=0)
            return mean.reshape(vals.shape[1:]), None
        if family.support.sampler is None:
            raise EngineError(f"{family.label}: Monte Carlo needs a sampler")
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        draws = family.support.sampler(rng, point, self.replications)
        vals = _as_rows(H(draws))
        mean = vals.mean(axis=0)
        se = vals.std(axis=0, ddof=1) / math.sqrt(len(vals))
        return mean, se


def _as_rows(vals) -> np.ndarray:
    vals = np.asarray(vals, dtype=float)
    return vals[:, None] if vals.ndim == 1 else vals


def stack_rows(h, Y) -> np.ndarray:
    """Rows h(y) for each outcome y of Y, each made at least 1-D."""
    return np.array([np.atleast_1d(np.asarray(h(y), dtype=float))
                     for y in Y])


def outer_rows(A, B) -> np.ndarray:
    """Row-wise flattened outer products: row i is outer(A[i], B[i]).ravel()."""
    return (A[:, :, None] * B[:, None, :]).reshape(len(A), -1)


def _log_density_rows(family: ModelFamily, Y, point) -> np.ndarray:
    if family.log_density_rows is not None:
        return family.log_density_rows(Y, point)
    return np.array([family.log_density(y, point) for y in Y], dtype=float)


def score(family: ModelFamily, y, point) -> np.ndarray:
    """Full score vector (interest then nuisance) at an interior point.

    Analytic scores are used when present; otherwise central finite
    differences of the log-density with per-axis step
    cbrt(eps) * max(1, |theta_j|).
    """
    point = family.check_point(point)
    parts = []
    if family.score_interest is not None:
        parts.append(np.atleast_1d(family.score_interest(y, point)))
    else:
        parts.append(_fd_score(family, y, point, 0, family.dim_interest))
    if family.dim_nuisance > 0:
        if family.score_nuisance is not None:
            parts.append(np.atleast_1d(family.score_nuisance(y, point)))
        else:
            parts.append(_fd_score(family, y, point,
                                   family.dim_interest, family.dim))
    return np.concatenate(parts)


def score_rows(family: ModelFamily, Y, point) -> np.ndarray:
    """Full scores of every outcome of Y, as (N, k + k') rows."""
    point = family.check_point(point)
    if family.score_rows is not None:
        return family.score_rows(Y, point)
    return stack_rows(lambda y: score(family, y, point), Y)


def _fd_score(family, y, point, lo, hi):
    out = np.empty(hi - lo)
    for j in range(lo, hi):
        step = FD_STEP * max(1.0, abs(point[j]))
        plus = point.copy()
        plus[j] += step
        minus = point.copy()
        minus[j] -= step
        lp = family.log_density(y, plus)
        lm = family.log_density(y, minus)
        if not (math.isfinite(lp) and math.isfinite(lm)):
            raise DomainError(
                f"{family.label}: non-finite log-density in FD stencil at {point}")
        out[j - lo] = (lp - lm) / (2.0 * step)
    return out


@dataclass(frozen=True)
class FisherInfo:
    """Score covariance blocks partitioned by interest/nuisance."""

    I: np.ndarray  # noqa: E741 - matches the standard symbol
    I_cross: np.ndarray
    I_nuis: np.ndarray
    I_perp: Optional[np.ndarray]
    nuis_singular: bool = False


def fisher_info(engine: ExpectationEngine, family: ModelFamily,
                point) -> FisherInfo:
    """Blocks of E[score score^t], plus the Schur complement I_perp."""
    point = family.check_point(point)
    k, kp = family.dim_interest, family.dim_nuisance

    def outer(Y):
        S = score_rows(family, Y, point)
        return outer_rows(S, S)

    full = engine.expect_rows(family, point, outer).reshape(
        family.dim, family.dim)
    I = full[:k, :k]
    I_cross = full[:k, k:]
    I_nuis = full[k:, k:]
    if kp == 0:
        return FisherInfo(I, I_cross, I_nuis, I.copy())
    try:
        sol = np.linalg.solve(I_nuis, I_cross.T)
    except np.linalg.LinAlgError:
        return FisherInfo(I, I_cross, I_nuis, None, nuis_singular=True)
    if np.linalg.cond(I_nuis) > 1e12:
        return FisherInfo(I, I_cross, I_nuis, None, nuis_singular=True)
    return FisherInfo(I, I_cross, I_nuis, I - I_cross @ sol)


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------


def log_choose(n, k):
    """log C(n, k), elementwise over integer arrays with 0 <= k <= n."""
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def log_binom_pmf(k, n, p):
    """log Pr(Bin(n, p) = k), elementwise."""
    return log_choose(n, k) + xlogy(k, p) + xlog1py(n - k, -p)


def _check_n(n):
    if int(n) != n or n <= 0:
        raise ValueError(f"sample size must be a positive integer, got {n}")
    return int(n)


def bernoulli_sum(n: int, parameterization: str = "p") -> ModelFamily:
    """Binomial count y ~ Bin(n, p) on {0..n}.

    ``parameterization="logit"`` uses eta = log(p/(1-p)) instead of p;
    the two describe the same manifold of distributions.
    """
    n = _check_n(n)
    lgam = log_choose(n, np.arange(n + 1))

    def sampler(rng, point, size):
        return rng.binomial(n, _as_p(point), size)

    support = SupportDescriptor("finite-discrete",
                                outcomes=np.arange(n + 1), sampler=sampler)

    if parameterization == "p":
        def _as_p(point):
            return float(point[0])

        def in_domain(point):
            return 0.0 < point[0] < 1.0

        def log_density(y, point):
            p = float(point[0])
            y = int(y)
            return float(lgam[y]) + y * math.log(p) + (n - y) * math.log1p(-p)

        def log_density_rows(Y, point):
            p = float(point[0])
            Y = np.asarray(Y, dtype=int)
            return lgam[Y] + Y * math.log(p) + (n - Y) * math.log1p(-p)

        def score_interest(y, point):
            p = float(point[0])
            return np.array([(y - n * p) / (p * (1.0 - p))])

        def score_rows(Y, point):
            p = float(point[0])
            return ((np.asarray(Y) - n * p) / (p * (1.0 - p)))[:, None]
    elif parameterization == "logit":
        def _as_p(point):
            return float(expit(point[0]))

        def in_domain(point):
            return np.isfinite(point[0])

        def log_density(y, point):
            eta = float(point[0])
            y = int(y)
            # y*eta - n*log(1+e^eta), stable via logaddexp
            return float(lgam[y]) + y * eta - n * np.logaddexp(0.0, eta)

        def log_density_rows(Y, point):
            eta = float(point[0])
            Y = np.asarray(Y, dtype=int)
            return lgam[Y] + Y * eta - n * np.logaddexp(0.0, eta)

        def score_interest(y, point):
            p = float(expit(point[0]))
            return np.array([y - n * p])

        def score_rows(Y, point):
            p = float(expit(point[0]))
            return (np.asarray(Y) - n * p)[:, None]
    else:
        raise ValueError(f"unknown parameterization {parameterization!r}")

    return ModelFamily(
        label=f"bernoulli-sum(n={n},{parameterization})",
        support=support, dim_interest=1, dim_nuisance=0,
        in_domain=in_domain, log_density=log_density,
        score_interest=score_interest, meta={"n": n},
        log_density_rows=log_density_rows, score_rows=score_rows)


def normal_location(n: int) -> ModelFamily:
    """Normal location family on the sufficient statistic ybar."""
    n = _check_n(n)

    def sampler(rng, point, size):
        return rng.normal(point[0], 1.0 / math.sqrt(n), size)

    support = SupportDescriptor("continuous", sampler=sampler)

    def log_density(y, point):
        a = float(point[0])
        return 0.5 * math.log(n) - 0.5 * math.log(2.0 * math.pi) \
            - 0.5 * n * (float(y) - a) ** 2

    def log_density_rows(Y, point):
        a = float(point[0])
        return 0.5 * math.log(n) - 0.5 * math.log(2.0 * math.pi) \
            - 0.5 * n * (np.asarray(Y, dtype=float) - a) ** 2

    def score_interest(y, point):
        return np.array([n * (float(y) - float(point[0]))])

    def score_rows(Y, point):
        return (n * (np.asarray(Y, dtype=float) - float(point[0])))[:, None]

    return ModelFamily(
        label=f"normal-location(n={n})",
        support=support, dim_interest=1, dim_nuisance=0,
        in_domain=lambda point: np.isfinite(point[0]),
        log_density=log_density, score_interest=score_interest,
        meta={"n": n}, log_density_rows=log_density_rows,
        score_rows=score_rows)


def _location_vector_family(label, n, log_phi, score_one, sampler_one):
    def sampler(rng, point, size):
        return sampler_one(rng, (size, n)) + point[0]

    support = SupportDescriptor("continuous", sampler=sampler)

    def log_density(y, point):
        d = np.asarray(y, dtype=float) - float(point[0])
        return float(np.sum(log_phi(d)))

    def score_interest(y, point):
        d = np.asarray(y, dtype=float) - float(point[0])
        return np.array([float(np.sum(score_one(d)))])

    # Y is (N, n): one sample of size n per row
    def log_density_rows(Y, point):
        D = np.asarray(Y, dtype=float) - float(point[0])
        return np.sum(log_phi(D), axis=-1)

    def score_rows(Y, point):
        D = np.asarray(Y, dtype=float) - float(point[0])
        return np.sum(score_one(D), axis=-1)[:, None]

    return ModelFamily(
        label=f"{label}(n={n})", support=support,
        dim_interest=1, dim_nuisance=0,
        in_domain=lambda point: np.isfinite(point[0]),
        log_density=log_density, score_interest=score_interest,
        meta={"n": n}, log_density_rows=log_density_rows,
        score_rows=score_rows)


def cauchy_location(n: int) -> ModelFamily:
    """Cauchy location family on the full n-vector (no sufficient statistic)."""
    n = _check_n(n)
    return _location_vector_family(
        "cauchy-location", n,
        log_phi=lambda d: -math.log(math.pi) - np.log1p(d * d),
        score_one=lambda d: 2.0 * d / (1.0 + d * d),
        sampler_one=lambda rng, shape: rng.standard_cauchy(shape))


_T3_LOGC = float(gammaln(2.0) - gammaln(1.5)
                 - 0.5 * math.log(3.0 * math.pi))


def t3_location(n: int) -> ModelFamily:
    """Student-t(3) location family (unit scale) on the full n-vector."""
    n = _check_n(n)
    return _location_vector_family(
        "t3-location", n,
        log_phi=lambda d: _T3_LOGC - 2.0 * np.log1p(d * d / 3.0),
        score_one=lambda d: 4.0 * d / (3.0 + d * d),
        sampler_one=lambda rng, shape: rng.standard_t(3, shape))


# --- two-binomial family with log-odds-ratio interest parameter -----------


def two_binomial_outcomes(n1: int, n2: int) -> np.ndarray:
    """All (x1, x2) pairs, x1-major ordering."""
    g1, g2 = np.meshgrid(np.arange(n1 + 1), np.arange(n2 + 1), indexing="ij")
    return np.column_stack([g1.ravel(), g2.ravel()])


def two_binomial_params(p1: float, p2: float, n1: int, n2: int):
    """(p1, p2) -> (theta, tnuis): log odds ratio and n1*p1 + n2*p2."""
    if not (0.0 < p1 < 1.0 and 0.0 < p2 < 1.0):
        raise DomainError("success probabilities must be in (0,1)")
    return float(logit(p1) - logit(p2)), float(n1 * p1 + n2 * p2)


def two_binomial_probs(theta: float, tnuis: float, n1: int, n2: int):
    """(theta, tnuis) -> (p1, p2), by monotone bisection in p1."""
    p1 = float(invert_p1_batch(theta, tnuis, n1, n2))
    if math.isnan(p1):
        raise DomainError(
            f"no (p1,p2) in (0,1)^2 with log-OR {theta} and nuisance {tnuis}")
    return p1, (tnuis - n1 * p1) / n2


def two_binomial(n1: int, n2: int) -> ModelFamily:
    """Independent Bin(n1,p1), Bin(n2,p2) with interest theta = log OR
    and nuisance tnuis = n1*p1 + n2*p2 (score-orthogonal to theta).

    ``meta["probs"]`` is the family's memoized (theta, tnuis) -> (p1, p2)
    inversion, a bounded LRU with ``cache_info()``.
    """
    n1 = _check_n(n1)
    n2 = _check_n(n2)
    lg1 = log_choose(n1, np.arange(n1 + 1))
    lg2 = log_choose(n2, np.arange(n2 + 1))

    # the domain check, the density, the scores and the sampler all need the
    # (theta, tnuis) -> (p1, p2) inversion at the same point, so memoize it
    # per point in a bounded LRU; a rejected point raises, and lru_cache
    # stores no failure
    @functools.lru_cache(maxsize=PROBS_CACHE_SIZE)
    def cached_probs(theta, tnuis):
        return two_binomial_probs(theta, tnuis, n1, n2)

    def probs(point):
        return cached_probs(float(point[0]), float(point[1]))

    def in_domain(point):
        if not (0.0 < point[1] < n1 + n2) or not np.isfinite(point[0]):
            return False
        try:
            probs(point)
        except DomainError:
            return False
        return True

    def log_density(y, point):
        p1, p2 = probs(point)
        x1, x2 = int(y[0]), int(y[1])
        return (float(lg1[x1]) + x1 * math.log(p1)
                + (n1 - x1) * math.log1p(-p1)
                + float(lg2[x2]) + x2 * math.log(p2)
                + (n2 - x2) * math.log1p(-p2))

    def score_interest(y, point):
        p1, p2 = probs(point)
        a1, a2 = p1 * (1.0 - p1), p2 * (1.0 - p2)
        # dp/dtheta at fixed tnuis from the two parameterization constraints
        den = n1 * a1 + n2 * a2
        dp1 = n2 * a1 * a2 / den
        dp2 = -n1 * a1 * a2 / den
        return np.array([(y[0] - n1 * p1) / a1 * dp1
                         + (y[1] - n2 * p2) / a2 * dp2])

    def score_nuisance(y, point):
        p1, p2 = probs(point)
        a1, a2 = p1 * (1.0 - p1), p2 * (1.0 - p2)
        den = n1 * a1 + n2 * a2
        return np.array([(y[0] + y[1] - point[1]) / den])

    def log_density_rows(Y, point):
        p1, p2 = probs(point)
        x1, x2 = Y[:, 0], Y[:, 1]
        return (lg1[x1] + x1 * math.log(p1) + (n1 - x1) * math.log1p(-p1)
                + lg2[x2] + x2 * math.log(p2) + (n2 - x2) * math.log1p(-p2))

    def score_rows(Y, point):
        p1, p2 = probs(point)
        a1, a2 = p1 * (1.0 - p1), p2 * (1.0 - p2)
        den = n1 * a1 + n2 * a2
        dp1 = n2 * a1 * a2 / den
        dp2 = -n1 * a1 * a2 / den
        x1, x2 = Y[:, 0], Y[:, 1]
        return np.column_stack([
            (x1 - n1 * p1) / a1 * dp1 + (x2 - n2 * p2) / a2 * dp2,
            (x1 + x2 - point[1]) / den])

    def sampler(rng, point, size):
        p1, p2 = probs(point)
        return np.column_stack([rng.binomial(n1, p1, size),
                                rng.binomial(n2, p2, size)])

    support = SupportDescriptor("finite-discrete",
                                outcomes=two_binomial_outcomes(n1, n2),
                                sampler=sampler)
    return ModelFamily(
        label=f"two-binomial(n1={n1},n2={n2})",
        support=support, dim_interest=1, dim_nuisance=1,
        in_domain=in_domain, log_density=log_density,
        score_interest=score_interest, score_nuisance=score_nuisance,
        meta={"n1": n1, "n2": n2, "probs": cached_probs},
        log_density_rows=log_density_rows, score_rows=score_rows)


def builtin_families() -> dict:
    """Constructors for all built-in families, keyed by name."""
    return {
        "bernoulli-sum": bernoulli_sum,
        "normal-location": normal_location,
        "cauchy-location": cauchy_location,
        "t3-location": t3_location,
        "two-binomial": two_binomial,
    }
