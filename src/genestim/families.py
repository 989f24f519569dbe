"""Model families, expectation machinery, scores, and Fisher information.

A :class:`ModelFamily` is a support descriptor plus two row callables
over a whole outcome array Y, (N,) or (N, d): the log-density and the
full score, one row per outcome.  A single outcome is a one-row Y.
Parameter points are flat float arrays ``(interest..., nuisance...)``.
Every finite family is an exponential family on its outcome grid, built
by :func:`finite_exponential_family` from log h, T and the natural
parameter.  The :class:`ExpectationEngine` evaluates expectations of
row maps H(Y) either by exact enumeration over a finite support or by
seeded Monte Carlo; both are one weighted sum over the rows of an
(N, m) outcome matrix.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._kernels import (_expit, _line_probs, _log_or, _logit, _sym_eig,
                       _sym_solve, _t3_score)

FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)
# parameter points whose natural parameter, A(eta) and E T each finite
# exponential family keeps
STATS_CACHE_SIZE = 4096


class DomainError(ValueError):
    """Parameter point outside the family's domain."""


class EngineError(RuntimeError):
    """Expectation engine misuse (e.g. Monte Carlo without a sampler)."""


class _Support(NamedTuple):
    outcomes: Optional[np.ndarray] = None  # (N,) or (N, d); None: continuous
    sampler: Optional[Callable] = None  # (rng, point, size) -> array


class SupportDescriptor(_Support):
    """Sample-space description: explicit outcome list or a sampler."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.outcomes is not None:
            if len(self.outcomes) == 0:
                raise ValueError("finite support needs outcomes")
            # equal rows are neighbours once sorted; np.unique(axis=0)
            # would say the same but imports numpy.ma to do it
            arr = np.asarray(self.outcomes)
            flat = arr.reshape(len(arr), -1)
            srt = flat[np.lexsort(flat.T[::-1])]
            if np.any(np.all(srt[1:] == srt[:-1], axis=1)):
                raise ValueError("duplicate outcomes in finite support")
        return self


class _Family(NamedTuple):
    label: str
    support: SupportDescriptor
    dim_interest: int
    dim_nuisance: int
    in_domain: Callable[[np.ndarray], bool]
    log_density_rows: Callable  # (Y, point) -> (N,)
    score_rows: Callable  # (Y, point) -> (N, k + k')
    meta: Optional[dict] = None  # a fresh {} when not given


class ModelFamily(_Family):
    """A parameterized family of distributions on a common support.

    The model is its two row callables over an outcome array Y, (N,) or
    (N, d).
    """
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        return self if self.meta is not None else self._replace(meta={})

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


class _Engine(NamedTuple):
    mode: str = "exact"  # "exact" | "mc"
    replications: int = 10_000
    seed: int = 0


class ExpectationEngine(_Engine):
    """Evaluates expectations exactly (finite support) or by Monte Carlo."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.mode not in ("exact", "mc"):
            raise ValueError(f"unknown engine mode {self.mode!r}")
        return self

    def expect(self, family: ModelFamily, point, H):
        value, _ = self.expect_se(family, point, H)
        return value

    def expect_se(self, family: ModelFamily, point, H):
        """Return (E[H], se) for H mapping the outcome array to (N, ...) rows.

        Exact mode is pmf @ H(outcomes); Monte Carlo mode averages H over
        seeded draws.  The result has the shape of one row ((N,) counts as
        (N, 1)); se is None in exact mode.
        """
        point = family.check_point(point)
        if self.mode == "exact":
            if family.support.outcomes is None:
                raise EngineError("exact enumeration needs a finite support")
            Y = family.support.outcomes
            vals = _as_rows(H(Y))
            w = np.exp(family.log_density_rows(Y, point))
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


def outer_rows(A, B) -> np.ndarray:
    """Row-wise flattened outer products: row i is outer(A[i], B[i]).ravel()."""
    return (A[:, :, None] * B[:, None, :]).reshape(len(A), -1)


def score(family: ModelFamily, Y, point) -> np.ndarray:
    """Full scores (interest then nuisance) of every outcome of Y, as
    (N, k + k') rows."""
    return family.score_rows(Y, family.check_point(point))


class FisherInfo(NamedTuple):
    """Score covariance blocks partitioned by interest/nuisance, and the
    eigendecomposition of the nuisance block that certified it."""

    I: np.ndarray  # noqa: E741 - matches the standard symbol
    I_cross: np.ndarray
    I_nuis: np.ndarray
    I_perp: np.ndarray
    nuis_eig: tuple  # (w, U) with I_nuis = U diag(w) U^t, w ascending


def fisher_info(engine: ExpectationEngine, family: ModelFamily,
                point) -> FisherInfo:
    """Blocks of E[score score^t], plus the Schur complement I_perp; a
    singular nuisance block (not identified, no I_perp) raises DomainError:
    one not finite, or not positive definite with 2-norm condition <= 1e12.
    One eigendecomposition of the nuisance block decides that and solves
    by it."""
    point = family.check_point(point)
    k, kp = family.dim_interest, family.dim_nuisance

    def outer(Y):
        S = score(family, Y, point)
        return outer_rows(S, S)

    full = engine.expect(family, point, outer).reshape(
        family.dim, family.dim)
    I = full[:k, :k]
    I_cross = full[:k, k:]
    I_nuis = full[k:, k:]
    if kp == 0:
        return FisherInfo(I, I_cross, I_nuis, I.copy(),
                          (np.zeros(0), np.zeros((0, 0))))
    finite = np.isfinite(I_nuis).all()
    w, U = _sym_eig(I_nuis) if finite else ([0.0], None)  # w ascending
    if not (w[-1] > 0.0 and w[0] >= 1e-12 * w[-1]):
        raise DomainError(
            f"{family.label}: singular nuisance information at "
            f"{point.tolist()}; the nuisance is not identified there")
    return FisherInfo(I, I_cross, I_nuis,
                      I - I_cross @ _sym_solve(w, U, I_cross.T), (w, U))


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------


_LOG_FACTORIALS = np.zeros(1)  # log k! for k = 0, 1, ...


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n at least, from ``math.lgamma``.

    One table per process, grown (at least doubled) when a larger n is
    asked for, so its size is bounded by twice the largest n requested.
    """
    global _LOG_FACTORIALS
    if n >= len(_LOG_FACTORIALS):
        size = max(n + 1, 2 * len(_LOG_FACTORIALS))
        _LOG_FACTORIALS = np.array([math.lgamma(k + 1.0)
                                    for k in range(size)])
    return _LOG_FACTORIALS


def log_choose(n, k):
    """log C(n, k), elementwise over integers with 0 <= k <= n.

    A difference of three log-factorial table entries, so its absolute
    error is about ulp(log n!).
    """
    lf = _log_factorials(int(np.max(n)))
    return lf[n] - lf[k] - lf[np.subtract(n, k)]


def log_binom_pmf(k, n, p):
    """log Pr(Bin(n, p) = k), elementwise over k and p in [0, 1].

    A zero count contributes 0, not 0 * log 0, so p = 0 or 1 gives the
    degenerate law, with no divide warning.
    """
    k, p = np.asarray(k), np.asarray(p, dtype=float)
    with np.errstate(divide="ignore"):
        log_p, log_q = np.log(p), np.log1p(-p)
    return (log_choose(n, k) + k * np.where(k == 0, 0.0, log_p)
            + (n - k) * np.where(k == n, 0.0, log_q))


def _check_n(n):
    if int(n) != n or n <= 0:
        raise ValueError(f"sample size must be a positive integer, got {n}")
    return int(n)


def finite_exponential_family(label, outcomes, log_h, T, natural, k, kp,
                              in_domain, sampler, meta) -> ModelFamily:
    """Exponential family log f(y) = log h(y) + T(y).eta - A(eta) on a grid.

    ``log_h(Y)`` -> (N,) and ``T(Y)`` -> (N, m) act on outcome rows;
    ``natural(point)`` returns the natural parameter eta (m,) and its
    Jacobian J = d eta / d point, (m, k + k'), and raises DomainError
    where the point has none.  A(eta) is the log-sum-exp of
    log h + T.eta over ``outcomes`` and E T is taken under the same pmf,
    so the score is (T - E T) J.  ``sampler(rng, eta, size)`` draws at
    eta.  A point is in the domain when ``in_domain`` holds and
    ``natural`` accepts it.

    eta, J, c, A and E[T - c] are kept per point in one bounded LRU,
    reachable as ``meta["stats"]`` with ``cache_info()``.  c is T at the
    mode: centring T there leaves the law unchanged but keeps (T - c).eta
    and T - c - E[T - c] small where the mass is, so large |eta| costs no
    precision there.
    """
    LH, TY = log_h(outcomes), T(outcomes)

    # the domain check, both row forms and the sampler all need eta at the
    # same point; a rejected point raises, and lru_cache stores no failure.
    # Products with eta and J are einsum sums, not @: no BLAS call, and a
    # row's value does not depend on how many rows come with it.
    @functools.lru_cache(maxsize=STATS_CACHE_SIZE)
    def stats(key):
        eta, J = natural(np.array(key))
        top = int((LH + np.einsum("nm,m->n", TY, eta)).argmax())
        c = TY[top]
        Tc = TY - c
        x = LH + np.einsum("nm,m->n", Tc, eta)
        A = x[top] + math.log(np.exp(x - x[top]).sum())
        w = np.exp(x - A)
        return eta, J, c, A, (w[:, None] * Tc).sum(axis=0)

    def at(point):
        return stats(tuple(np.asarray(point, dtype=float).tolist()))

    def accepts(point):
        if not in_domain(point):
            return False
        try:
            at(point)
        except DomainError:
            return False
        return True

    def log_density_rows(Y, point):
        eta, _, c, A, _ = at(point)
        return log_h(Y) + np.einsum("nm,m->n", T(Y) - c, eta) - A

    def score_rows(Y, point):
        _, J, c, _, mean_Tc = at(point)
        return np.einsum("nm,ma->na", (T(Y) - c) - mean_Tc, J)

    def draw(rng, point, size):
        return sampler(rng, at(point)[0], size)

    support = SupportDescriptor(outcomes=outcomes, sampler=draw)
    return ModelFamily(
        label=label, support=support, dim_interest=k, dim_nuisance=kp,
        in_domain=accepts, log_density_rows=log_density_rows,
        score_rows=score_rows, meta={**meta, "stats": stats})


def bernoulli_sum(n: int, parameterization: str = "p") -> ModelFamily:
    """Binomial count y ~ Bin(n, p) on {0..n}.

    ``parameterization="logit"`` uses eta = log(p/(1-p)) instead of p;
    the two describe the same manifold of distributions.
    """
    n = _check_n(n)
    if parameterization == "p":
        def in_domain(point):
            return 0.0 < point[0] < 1.0

        def natural(point):
            p = float(point[0])
            return (np.array([math.log(p) - math.log1p(-p)]),
                    np.array([[1.0 / (p * (1.0 - p))]]))
    elif parameterization == "logit":
        def in_domain(point):
            return np.isfinite(point[0])

        def natural(point):
            return np.array([float(point[0])]), np.ones((1, 1))
    else:
        raise ValueError(f"unknown parameterization {parameterization!r}")

    lgam = log_choose(n, np.arange(n + 1))
    return finite_exponential_family(
        f"bernoulli-sum(n={n},{parameterization})", np.arange(n + 1),
        log_h=lambda Y: lgam[np.asarray(Y, dtype=int)],
        T=lambda Y: np.asarray(Y, dtype=float)[:, None],
        natural=natural, k=1, kp=0, in_domain=in_domain,
        sampler=lambda rng, eta, size: rng.binomial(n, _expit(eta[0]),
                                                    size),
        meta={"n": n})


def normal_location(n: int) -> ModelFamily:
    """Normal location family on the sufficient statistic ybar."""
    n = _check_n(n)

    def sampler(rng, point, size):
        return rng.normal(point[0], 1.0 / math.sqrt(n), size)

    def log_density_rows(Y, point):
        a = float(point[0])
        return 0.5 * math.log(n) - 0.5 * math.log(2.0 * math.pi) \
            - 0.5 * n * (np.asarray(Y, dtype=float) - a) ** 2

    def score_rows(Y, point):
        return (n * (np.asarray(Y, dtype=float) - float(point[0])))[:, None]

    return ModelFamily(
        label=f"normal-location(n={n})",
        support=SupportDescriptor(sampler=sampler),
        dim_interest=1, dim_nuisance=0,
        in_domain=lambda point: np.isfinite(point[0]),
        log_density_rows=log_density_rows, score_rows=score_rows,
        meta={"n": n})


def _location_vector_family(label, n, log_phi, score_one, sampler_one):
    def sampler(rng, point, size):
        return sampler_one(rng, (size, n)) + point[0]

    # Y is (N, n): one sample of size n per row
    def log_density_rows(Y, point):
        D = np.asarray(Y, dtype=float) - float(point[0])
        return np.sum(log_phi(D), axis=-1)

    def score_rows(Y, point):
        D = np.asarray(Y, dtype=float) - float(point[0])
        return np.sum(score_one(D), axis=-1)[:, None]

    return ModelFamily(
        label=f"{label}(n={n})",
        support=SupportDescriptor(sampler=sampler),
        dim_interest=1, dim_nuisance=0,
        in_domain=lambda point: np.isfinite(point[0]),
        log_density_rows=log_density_rows, score_rows=score_rows,
        meta={"n": n})


def cauchy_location(n: int) -> ModelFamily:
    """Cauchy location family on the full n-vector (no sufficient statistic)."""
    n = _check_n(n)
    return _location_vector_family(
        "cauchy-location", n,
        log_phi=lambda d: -math.log(math.pi) - np.log1p(d * d),
        score_one=lambda d: 2.0 * d / (1.0 + d * d),
        sampler_one=lambda rng, shape: rng.standard_cauchy(shape))


_T3_LOGC = (math.lgamma(2.0) - math.lgamma(1.5)
            - 0.5 * math.log(3.0 * math.pi))


def t3_draw(rng, shape) -> np.ndarray:
    """Unit-scale t3 draws as z / sqrt(w/3), z standard normal and w
    chi-square(3), the whole z array drawn before w; zeta-lab's seed
    blocks are frozen on this order."""
    z = rng.standard_normal(shape)
    w = rng.chisquare(3.0, shape)
    w /= 3.0  # in place: z / np.sqrt(w / 3.0) without two temporaries
    np.sqrt(w, out=w)
    z /= w
    return z


def t3_location(n: int) -> ModelFamily:
    """Student-t(3) location family (unit scale) on the full n-vector."""
    n = _check_n(n)
    return _location_vector_family(
        "t3-location", n,
        log_phi=lambda d: _T3_LOGC - 2.0 * np.log1p(d * d / 3.0),
        score_one=lambda d: _t3_score(d)[0], sampler_one=t3_draw)


# --- two-binomial family with log-odds-ratio interest parameter -----------


def two_binomial_outcomes(n1: int, n2: int) -> np.ndarray:
    """All (x1, x2) pairs, x1-major ordering."""
    g1, g2 = np.meshgrid(np.arange(n1 + 1), np.arange(n2 + 1), indexing="ij")
    return np.column_stack([g1.ravel(), g2.ravel()])


def two_binomial_params(p1: float, p2: float, n1: int, n2: int):
    """(p1, p2) -> (theta, tnuis): log odds ratio and n1*p1 + n2*p2."""
    if not (0.0 < p1 < 1.0 and 0.0 < p2 < 1.0):
        raise DomainError("success probabilities must be in (0,1)")
    return float(_log_or(p1, p2)), float(n1 * p1 + n2 * p2)


def two_binomial_probs(theta: float, tnuis: float, n1: int, n2: int):
    """(theta, tnuis) -> (p1, p2), from :func:`_kernels._line_probs`."""
    p1, p2 = map(float, _line_probs(theta, tnuis, n1, n2))
    if math.isnan(p1):
        raise DomainError(
            f"no (p1,p2) in (0,1)^2 with log-OR {theta} and nuisance {tnuis}")
    return p1, p2


def two_binomial(n1: int, n2: int) -> ModelFamily:
    """Independent Bin(n1,p1), Bin(n2,p2) with interest theta = log OR
    and nuisance tnuis = n1*p1 + n2*p2 (score-orthogonal to theta).

    The natural parameter is (logit p1, logit p2); ``meta["stats"]`` holds
    the one (theta, tnuis) -> (p1, p2) inversion made per point.
    """
    n1 = _check_n(n1)
    n2 = _check_n(n2)
    lg1 = log_choose(n1, np.arange(n1 + 1))
    lg2 = log_choose(n2, np.arange(n2 + 1))

    def in_domain(point):
        return 0.0 < point[1] < n1 + n2 and np.isfinite(point[0])

    def natural(point):
        p1, p2 = two_binomial_probs(point[0], point[1], n1, n2)
        a1, a2 = p1 * (1.0 - p1), p2 * (1.0 - p2)
        den = n1 * a1 + n2 * a2
        # d(logit p1, logit p2) / d(theta, tnuis) from theta = eta1 - eta2
        # and tnuis = n1 p1 + n2 p2
        return (np.array([_logit(p1), _logit(p2)]),
                np.array([[n2 * a2 / den, 1.0 / den],
                          [-n1 * a1 / den, 1.0 / den]]))

    def sampler(rng, eta, size):
        p1, p2 = _expit(eta)
        return np.column_stack([rng.binomial(n1, p1, size),
                                rng.binomial(n2, p2, size)])

    return finite_exponential_family(
        f"two-binomial(n1={n1},n2={n2})", two_binomial_outcomes(n1, n2),
        log_h=lambda Y: lg1[Y[:, 0]] + lg2[Y[:, 1]],
        T=lambda Y: np.asarray(Y, dtype=float),
        natural=natural, k=1, kp=1, in_domain=in_domain, sampler=sampler,
        meta={"n1": n1, "n2": n2})
