"""Model families, expectation machinery, scores, and Fisher information.

A :class:`ModelFamily` is a support descriptor plus two row callables
over a whole outcome array Y, (N,) or (N, d): the log-density and the
full score, one row per outcome.  A single outcome is a one-row Y.
Parameter points are flat float arrays ``(interest..., nuisance...)``,
and a (P, k) array is a batch of P points: the row callables of the
built-in families broadcast over it, giving (P, N, ...) rows, and a
point's rows do not depend on the batch it comes in.  Every finite
family is an exponential family on its outcome grid, built by
:func:`finite_exponential_family` from log h, T and the natural
parameter.  The :class:`ExpectationEngine` evaluates expectations of
row maps H(Y) either by exact enumeration over a finite support, at one
point or a batch, or by seeded Monte Carlo at one point; both are one
weighted sum over the rows of an (N, m) outcome matrix per point.

A batched call of the information layer (``fisher_info`` here, and
``estimation``'s) returns a :class:`PerPoint`: its values, NaN at a failed
point, and each point's first failure instead of raising it; a one-point
call returns the values and raises that failure as it is met.  A batch is
taken in blocks of at most POINT_BLOCK (point, outcome) pairs, so no step
holds more rows than that whatever the number of points.
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
# (point, outcome) pairs per block of a batched call of the information
# layer, each pair counted d^2 times, the width of its score products: a
# batch with more is taken in blocks of points, as small as one point
# where one point fills a block.  verify's two-binomial grid (651
# outcomes, d = 2) runs 3 points a block: blocks of 6 raised its max RSS
# by about 0.25 MB, one point a block cost 6-7 ms of CPU.
POINT_BLOCK = 8192


class DomainError(ValueError):
    """Parameter point outside the family's domain."""


class EngineError(RuntimeError):
    """Expectation engine misuse (e.g. Monte Carlo without a sampler)."""


class _Failures(list):
    """The first error met at each point of a call, None while the point
    stands.  For one point, a (k,) array, an error is raised where it is
    met instead, as a one-point call always did."""

    def __init__(self, point):
        self.single = np.ndim(point) == 1
        self.clean = True  # no error noted yet
        super().__init__([None] * (1 if self.single else len(point)))

    @property
    def live(self) -> np.ndarray:
        """(P,) mask of the points with no error yet."""
        return np.array([err is None for err in self], dtype=bool)

    def note(self, bad, error):
        """Note ``error(i)`` at each point i where ``bad`` holds that has
        none yet; the message is built only for those."""
        for i in np.flatnonzero(bad):
            if self[i] is None:
                if self.single:
                    raise error(i)
                self[i] = error(i)
                self.clean = False

    def take(self, errors):
        """Note the per-point errors of a call on the same points."""
        if errors is not None and any(err is not None for err in errors):
            self.note([err is not None for err in errors],
                      errors.__getitem__)

    def values(self, result):
        """The values of a call's result on the same points, a batch's
        :class:`PerPoint` errors noted; one point's result is its values."""
        if isinstance(result, PerPoint):
            self.take(result.errors)
            return result.values
        return result

    def blank(self, values):
        """``values`` (P, ...) with the rows of the failed points NaN."""
        if self.clean:
            return values
        return np.where(self.live.reshape((-1,) + (1,) * (values.ndim - 1)),
                        values, np.nan)

    def result(self, values):
        """A batch's :class:`PerPoint` of ``values`` and its errors."""
        return PerPoint(values, tuple(self))


def _row(point, i):
    """Point i of a (P, k) batch, or the one (k,) point."""
    return point if point.ndim == 1 else point[i]


def point_blocks(family, point):
    """Slices of a (P, k) batch into blocks of at most POINT_BLOCK
    (point, outcome) pairs each, d^2 a pair, one point at least; None for
    one point, a batch that fits one block or a family with no finite
    support."""
    Y = family.support.outcomes
    if np.ndim(point) < 2 or Y is None:
        return None
    size = max(1, POINT_BLOCK // (len(Y) * family.dim ** 2))
    if len(point) <= size:
        return None
    return [slice(i, i + size) for i in range(0, len(point), size)]


def joined(parts):
    """One batched result from those of consecutive blocks of its points:
    arrays joined along the point axis, a :class:`PerPoint`'s errors one
    block after another, tuples field by field."""
    first = parts[0]
    if isinstance(first, np.ndarray):
        return np.concatenate(parts)
    if isinstance(first, PerPoint):
        return PerPoint(joined([part.values for part in parts]),
                        sum((part.errors for part in parts), ()))
    if isinstance(first, tuple):
        return _like(first, map(joined, zip(*parts)))
    return first  # None


def block_of(value, s):
    """Points s of a batched value: the inverse of :func:`joined`."""
    if isinstance(value, np.ndarray):
        return value[s]
    if isinstance(value, PerPoint):
        return PerPoint(block_of(value.values, s), value.errors[s])
    if isinstance(value, tuple):
        return _like(value, (block_of(field, s) for field in value))
    return value  # None


def _like(value, fields):
    """A tuple of ``value``'s type, a named one included, of ``fields``."""
    return value._make(fields) if hasattr(value, "_make") else tuple(fields)


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
            arr = np.asarray(self.outcomes)
            flat = arr.reshape(len(arr), -1)
            if not _rows_rise(flat):
                # equal rows are neighbours once sorted; np.unique(axis=0)
                # would say the same but imports numpy.ma to do it
                srt = flat[np.lexsort(flat.T[::-1])]
                if np.any(np.all(srt[1:] == srt[:-1], axis=1)):
                    raise ValueError("duplicate outcomes in finite support")
        return self


def _rows_rise(flat) -> bool:
    """Whether each row of a 2-D array is strictly below the next in
    lexicographic order, so no two are equal: the order every family here
    builds its outcomes in, checked with no sort.

    Elements are compared, not subtracted: a difference wraps for unsigned
    rows and is NaN for NaN ones.  A pair of rows is ordered at its first
    differing column; equal rows, or a NaN there, are not in order.
    """
    prev, nxt = flat[:-1], flat[1:]
    first = np.argmax(prev != nxt, axis=1)  # 0 where the rows are equal
    return bool((prev < nxt)[np.arange(len(first)), first].all())


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
        """``point`` as a float array, (k,) or a (P, k) batch; DomainError
        for the first point outside the domain.  A batch's NaN rows pass:
        they are points that failed earlier in a batched call, and every
        value at them is NaN."""
        point = self._as_point(point)
        if point.ndim == 1:
            if not self.in_domain(point):
                raise DomainError(
                    f"{self.label}: point {point} outside domain")
            return point
        ok = self.in_domain(point)
        if not ok.all():
            ok = ok | np.isnan(point).all(axis=1)
            if not ok.all():
                raise DomainError(
                    f"{self.label}: point {point[int(np.argmin(ok))]} "
                    f"outside domain")
        return point

    def screen(self, point):
        """(point, failures) for a call of the information layer: the
        point as a float array, (k,) or a (P, k) batch, whose points
        outside the domain (NaN rows included) have their DomainError noted
        in the :class:`_Failures` and their rows set to NaN.  For one point
        outside the domain the DomainError is raised."""
        point = self._as_point(point)
        fails = _Failures(point)
        ok = self.in_domain(point)
        if not np.all(ok):
            fails.note(~np.reshape(ok, -1), lambda i: DomainError(
                f"{self.label}: point {_row(point, i)} outside domain"))
        return fails.blank(point), fails

    def _as_point(self, point) -> np.ndarray:
        point = np.atleast_1d(np.asarray(point, dtype=float))
        if point.shape[-1:] != (self.dim,) or point.ndim > 2:
            raise DomainError(
                f"{self.label}: expected {self.dim} parameters, got {point.shape}")
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
        """Return (E[H], se) for H mapping the outcome array to rows.

        ``point`` is one point (k,), with H giving (N, ...) rows, or in
        exact mode a (P, k) batch, with H giving (P, N, ...) rows, row p
        at point p.  Exact mode is pmf @ H(outcomes), the pmf a (P, N)
        array (one point is P = 1); Monte Carlo mode averages H over
        seeded draws at one point and raises EngineError for a batch.
        The result has the shape of one row ((N,) counts as (N, 1)), after
        the batch's P; se is None in exact mode.  A batch's NaN rows give
        NaN results (see :meth:`ModelFamily.check_point`).
        """
        if self.mode == "mc" and np.ndim(point) > 1:
            raise EngineError(
                f"{family.label}: Monte Carlo takes one point, not a batch "
                f"of {len(point)}")
        point = family.check_point(point)
        if self.mode == "exact":
            if family.support.outcomes is None:
                raise EngineError("exact enumeration needs a finite support")
            Y = family.support.outcomes
            lead = point.shape[:-1]
            vals = np.asarray(H(Y), dtype=float)
            w = np.exp(family.log_density_rows(Y, point)).reshape(-1, len(Y))
            # pmf @ vals as an elementwise weighted row sum: the first BLAS
            # matrix-vector call would raise each process's peak RSS
            mean = (w[:, :, None] * vals.reshape(len(w), len(Y), -1)).sum(
                axis=1)
            return mean.reshape(lead + (vals.shape[len(lead) + 1:] or (1,))), \
                None
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
    """Row-wise flattened outer products: row i is outer(A[i], B[i]).ravel(),
    over any leading axes, as (..., N, a) and (..., N, b) batches of rows."""
    return (A[..., :, None] * B[..., None, :]).reshape(A.shape[:-1] + (-1,))


def score(family: ModelFamily, Y, point) -> np.ndarray:
    """Full scores (interest then nuisance) of every outcome of Y, as
    (N, k + k') rows, or (P, N, k + k') at a batch of points."""
    return family.score_rows(Y, family.check_point(point))


class FisherInfo(NamedTuple):
    """Score covariance blocks partitioned by interest/nuisance, and the
    eigendecomposition of the nuisance block that certified it; at a
    batch of P points each field has a leading P axis."""

    I: np.ndarray  # noqa: E741 - matches the standard symbol
    I_cross: np.ndarray
    I_nuis: np.ndarray
    I_perp: np.ndarray
    nuis_eig: tuple  # (w, U) with I_nuis = U diag(w) U^t, w ascending


class PerPoint(NamedTuple):
    """A batched call's result: its values, each array with a leading P
    axis and NaN at the points that failed, and each point's first error,
    None where it stands."""

    values: object  # an array, or a record of them (FisherInfo, ...)
    errors: tuple


def values_or_raise(result):
    """The values of a call's result, a batch's first error (in point
    order) raised."""
    if isinstance(result, PerPoint):
        for err in result.errors:
            if err is not None:
                raise err
        return result.values
    return result


def fisher_info(engine: ExpectationEngine, family: ModelFamily, point):
    """Blocks of E[score score^t], plus the Schur complement I_perp; a
    singular nuisance block (not identified, no I_perp) is a DomainError:
    one not finite, or not positive definite with 2-norm condition
    <= 1e12.  One eigendecomposition of the nuisance block decides that
    and solves by it.  One point gives a :class:`FisherInfo` and raises
    its error; a (P, k) batch, one expectation per block of points, gives
    a :class:`PerPoint` of them."""
    blocks = point_blocks(family, point)
    if blocks:
        return joined([fisher_info(engine, family, point[s]) for s in blocks])
    point, fails = family.screen(point)
    k, kp, d = family.dim_interest, family.dim_nuisance, family.dim

    def outer(Y):
        S = score(family, Y, point)
        return outer_rows(S, S)

    full = engine.expect(family, point, outer).reshape(-1, d, d)
    I = full[:, :k, :k]
    I_cross = full[:, :k, k:]
    I_nuis = full[:, k:, k:]
    if kp == 0:
        w, U = np.zeros((len(full), 0)), np.zeros((len(full), 0, 0))
        I_perp = I.copy()
    else:
        finite = np.isfinite(I_nuis).all(axis=(1, 2))
        w, U, _ = _sym_eig_rows(I_nuis)  # w ascending; NaN where not finite
        certified = finite & (w[:, -1] > 0.0) & (w[:, 0] >= 1e-12 * w[:, -1])
        fails.note(~certified, lambda i: DomainError(
            f"{family.label}: singular nuisance information at "
            f"{_row(point, i).tolist()}; the nuisance is not identified "
            f"there"))
        w = fails.blank(w)
        I_perp = I - I_cross @ _sym_solve(w, U, I_cross.swapaxes(-1, -2))
    blocks = [fails.blank(v) for v in (I, I_cross, I_nuis, I_perp)]
    if fails.single:
        return FisherInfo(*(v[0] for v in blocks), (w[0], U[0]))
    return fails.result(FisherInfo(*blocks, (w, U)))


def _sym_eig_rows(a):
    """(w, U, errors): :func:`_kernels._sym_eig` of each matrix of a (P, k, k)
    stack, w (P, k) and U (P, k, k), and the RuntimeError it raises for a
    matrix (a non-finite entry, or no convergence), whose w and U are NaN.
    A 1 x 1 matrix is its own eigenvalue with eigenvector 1, bit for bit
    as ``_sym_eig`` returns it, with no per-matrix call."""
    P, k = len(a), a.shape[-1]
    errors = [None] * P
    if k == 1:
        w, U = a[:, 0, :].copy(), np.ones((P, 1, 1))
        todo = np.flatnonzero(~np.isfinite(w[:, 0]))
    else:
        w, U = np.empty((P, k)), np.empty((P, k, k))
        todo = range(P)
    for i in todo:
        try:
            w[i], U[i] = _sym_eig(a[i])
        except RuntimeError as err:
            errors[i] = err
            w[i], U[i] = np.nan, np.nan
    return w, U, errors


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
    ``natural(points)`` maps a (P, k + k') array of points to the natural
    parameter eta (P, m) and its Jacobian J = d eta / d point,
    (P, m, k + k'), with NaN where a point has none.  A(eta) is the
    log-sum-exp of log h + T.eta over ``outcomes`` and E T is taken under
    the same pmf, so the score is (T - E T) J.  ``in_domain(point)``
    broadcasts over a (P, k) batch, giving a (P,) mask, as do both row
    forms, giving (P, N, ...) rows.  ``sampler(rng, eta, size)`` draws at
    eta.  A point is in the domain when ``in_domain`` holds and its eta is
    finite.

    eta, J, c, A and E[T - c] are array functions of the points, kept per
    call's points (one point or a batch) in one bounded LRU, reachable as
    ``meta["stats"]`` with ``cache_info()``.  c is T at the mode: centring
    T there leaves the law unchanged but keeps (T - c).eta and
    T - c - E[T - c] small where the mass is, so large |eta| costs no
    precision there.
    """
    LH, TY = log_h(outcomes), T(outcomes)

    # the domain check, both row forms and the sampler all need eta at the
    # same points; the key is the points' shape and bytes, so a batch with
    # NaN rows is found again.  Products with eta and J are summed term by
    # term (_contract): no BLAS or einsum kernel, each of which maps more of
    # NumPy's code into the process, and a row's value does not depend on
    # how many rows or points come with it.  A is log-summed by math.log
    # per point, as np.log rounds a few values in 10^4 differently.
    @functools.lru_cache(maxsize=STATS_CACHE_SIZE)
    def stats(key):
        points = np.frombuffer(key[1]).reshape(-1, key[0][-1])
        eta, J = natural(points)
        top = (LH + _contract(TY, eta)).argmax(axis=1)
        c = TY[top]
        Tc = TY - c[:, None]
        x = LH + _contract(Tc, eta)
        x_top = x[np.arange(len(x)), top]
        A = x_top + np.array([math.log(v) for v in np.exp(
            x - x_top[:, None]).sum(axis=1).tolist()])
        w = np.exp(x - A[:, None])
        return eta, J, c, A, (w[:, :, None] * Tc).sum(axis=1)

    def at(point):
        return stats((point.shape, point.tobytes()))

    def accepts(point):
        point = np.asarray(point, dtype=float)
        ok = in_domain(point)
        if point.ndim == 1:  # one point: Python's bool and isfinite
            return bool(ok) and all(map(math.isfinite, at(point)[0][0]))
        if ok.all():
            eta = at(point)[0]
        elif ok.any():
            eta = at(np.where(ok[:, None], point, np.nan))[0]
        else:
            return ok
        return ok & np.isfinite(eta).all(axis=1)

    def log_density_rows(Y, point):
        point = np.asarray(point, dtype=float)
        eta, _, c, A, _ = at(point)
        # log h + (T - c).eta - A, the sums taken in place
        rows = _contract(T(Y) - c[:, None], eta)
        rows += log_h(Y)
        rows -= A[:, None]
        return rows[0] if point.ndim == 1 else rows

    def score_rows(Y, point):
        point = np.asarray(point, dtype=float)
        _, J, c, _, mean_Tc = at(point)
        centred = T(Y) - c[:, None]
        centred -= mean_Tc[:, None]
        rows = _contract(centred, J)
        return rows[0] if point.ndim == 1 else rows

    def draw(rng, point, size):
        return sampler(rng, at(np.asarray(point, dtype=float))[0][0], size)

    support = SupportDescriptor(outcomes=outcomes, sampler=draw)
    return ModelFamily(
        label=label, support=support, dim_interest=k, dim_nuisance=kp,
        in_domain=accepts, log_density_rows=log_density_rows,
        score_rows=score_rows, meta={**meta, "stats": stats})


def _contract(X, M) -> np.ndarray:
    """X, (N, m) or (P, N, m), times M per point, summed over m one term
    at a time in order: M (P, m) gives (P, N), M (P, m, a) gives
    (P, N, a).  For m <= 2 each row is bit for bit einsum's."""
    vec = M.ndim == 2
    M = M[:, :, None] if vec else M
    out = X[..., 0, None] * M[:, None, 0, :]
    for j in range(1, M.shape[1]):
        out += X[..., j, None] * M[:, None, j, :]
    return out[..., 0] if vec else out


def _math_map(fn, x) -> np.ndarray:
    """``fn`` of each element of x by Python's ``math``: ``math.log``
    rounds a few values in 10^4 apart from ``np.log``."""
    return np.array([fn(v) for v in x.tolist()])


def bernoulli_sum(n: int, parameterization: str = "p") -> ModelFamily:
    """Binomial count y ~ Bin(n, p) on {0..n}.

    ``parameterization="logit"`` uses eta = log(p/(1-p)) instead of p;
    the two describe the same manifold of distributions.
    """
    n = _check_n(n)
    if parameterization == "p":
        def in_domain(point):
            return (0.0 < point[..., 0]) & (point[..., 0] < 1.0)

        def natural(points):
            p = points[:, 0]
            eta = _math_map(math.log, p) - _math_map(math.log1p, -p)
            return eta[:, None], (1.0 / (p * (1.0 - p)))[:, None, None]
    elif parameterization == "logit":
        def in_domain(point):
            return np.isfinite(point[..., 0])

        def natural(points):
            return points[:, :1].copy(), np.ones((len(points), 1, 1))
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
    the one (theta, tnuis) -> (p1, p2) inversion made per call's points.
    """
    n1 = _check_n(n1)
    n2 = _check_n(n2)
    lg1 = log_choose(n1, np.arange(n1 + 1))
    lg2 = log_choose(n2, np.arange(n2 + 1))

    def in_domain(point):
        return ((0.0 < point[..., 1]) & (point[..., 1] < n1 + n2)
                & np.isfinite(point[..., 0]))

    def natural(points):
        # NaN where the line has no (p1, p2) in (0, 1)^2
        p1, p2 = _line_probs(points[:, 0], points[:, 1], n1, n2)
        a1, a2 = p1 * (1.0 - p1), p2 * (1.0 - p2)
        den = n1 * a1 + n2 * a2
        # d(logit p1, logit p2) / d(theta, tnuis) from theta = eta1 - eta2
        # and tnuis = n1 p1 + n2 p2
        one = np.ones_like(den)
        J = np.stack([n2 * a2, one, -n1 * a1, one], axis=1) / den[:, None]
        return _logit(np.stack([p1, p2], axis=1)), J.reshape(-1, 2, 2)

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
