"""Score-inversion confidence sets for the binomial-count family.

Curve grids of the standardized score and of twice the log-likelihood
ratio, z-standard intervals from the Wilson (1927) roots, vertical-slice
distributions, and exact tail-based (Clopper-Pearson 1934) endpoints.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from ._kernels import _invert_tails
from .families import ModelFamily, log_binom_pmf, log_choose

DEFAULT_GRID = np.linspace(1e-4, 1.0 - 1e-4, 512)
LOGIT_BOUND = 700.0  # exact endpoints lie in [expit(-700), expit(700)]


class _Curves(NamedTuple):
    parameter_grid: np.ndarray  # strictly increasing, interior
    values: np.ndarray  # (outcomes, grid)


class CurveGrid(_Curves):
    """Per-outcome curves of a statistic over a parameter grid."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if np.any(np.diff(self.parameter_grid) <= 0):
            raise ValueError("parameter grid must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("curve values must be finite")
        return self


class _Interval(NamedTuple):
    lower: float
    upper: float
    closed_lower: bool = True
    closed_upper: bool = True
    z: float = float("nan")
    side: str = "two-sided"
    boundary_note: Optional[str] = None
    empty: bool = False


class IntervalResult(_Interval):
    """Confidence set endpoints with open/closed and boundary markers."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.empty and self.lower > self.upper:
            raise ValueError("interval endpoints out of order")
        return self

    def contains(self, value: float) -> bool:
        if self.empty:
            return False
        lo_ok = value >= self.lower if self.closed_lower else value > self.lower
        hi_ok = value <= self.upper if self.closed_upper else value < self.upper
        return lo_ok and hi_ok


def _n_of(family: ModelFamily) -> int:
    n = family.meta.get("n")
    if n is None or family.dim != 1:
        raise ValueError("this operation expects a binomial-count family")
    return n


def sbar_binom(n: int, y, p):
    """Standardized binomial score (y - n p) / sqrt(n p (1-p))."""
    y = np.asarray(y, dtype=float)
    p = np.asarray(p, dtype=float)
    return (y - n * p) / np.sqrt(n * p * (1.0 - p))


def _curve_axes(family: ModelFamily, grid):
    """(n, grid or DEFAULT_GRID, checked inside (0, 1), outcomes 0..n)."""
    n = _n_of(family)
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, dtype=float)
    if grid.min() <= 0.0 or grid.max() >= 1.0:
        raise ValueError("grid must stay strictly inside (0, 1)")
    return n, grid, np.arange(n + 1)


def score_curves(family: ModelFamily, grid=None) -> CurveGrid:
    """One standardized-score curve per outcome y in {0..n}."""
    n, grid, ys = _curve_axes(family, grid)
    return CurveGrid(parameter_grid=grid,
                     values=sbar_binom(n, ys[:, None], grid[None, :]))


def llr_curves(family: ModelFamily, grid=None) -> CurveGrid:
    """Twice the log-likelihood ratio, per outcome, over the grid.

    Rows y = 0 and y = n use the supremum of the likelihood at the
    closure boundary (log-mass limit 0 there for the binomial).
    """
    n, grid, ys = _curve_axes(family, grid)

    def loglik(y, p):
        # binomial coefficient cancels in the ratio; keep the kernel only
        y = np.asarray(y, dtype=float)
        return y * np.log(p) + (n - y) * np.log1p(-p)

    sup = np.where((ys == 0) | (ys == n), 0.0,
                   loglik(ys, np.clip(ys / n, 1e-300, 1.0 - 1e-16)))
    vals = 2.0 * (sup[:, None] - loglik(ys[:, None], grid[None, :]))
    return CurveGrid(parameter_grid=grid, values=vals)


def ci_z(family: ModelFamily, y: int, z: float,
         side: str = "two-sided") -> IntervalResult:
    """Parameter set where the standardized score stays within the z band.

    Endpoints solve sbar_y(p) = -z (upper) and sbar_y(p) = +z (lower);
    the curve is monotone decreasing in p.  An endpoint exists when
    sbar_y(p) -/+ z changes sign between p = 1e-13 and 1 - 1e-13; it is
    then the matching Wilson (1927) root of (y - n p)^2 = z^2 n p (1 - p).
    Otherwise, as for the lower end at y = 0 and the upper end at y = n,
    the set is open at that domain boundary and flagged there.
    """
    if z < 0.0:
        raise ValueError("z must be nonnegative")
    n = _n_of(family)
    if side not in ("two-sided", "lower-only", "upper-only"):
        raise ValueError(f"unknown side {side!r}")
    eps = 1e-13

    def crossing(level):
        # root of sbar_y(p) - level in (0,1); None if no sign change
        fa = float(sbar_binom(n, y, eps)) - level
        fb = float(sbar_binom(n, y, 1.0 - eps)) - level
        if fa * fb > 0.0:
            return None
        # sbar_y decreases, so +level is the smaller root, -level the larger
        half = level * math.sqrt(y * (n - y) / n + 0.25 * level * level)
        return (y + 0.5 * level * level - half) / (n + level * level)

    # sbar_y is monotone decreasing in p, so {sbar <= z} is bounded below
    # by the root of sbar = +z and {sbar >= -z} bounded above by sbar = -z
    lower, upper = 0.0, 1.0
    closed_lower = closed_upper = True
    notes = []
    if side in ("two-sided", "upper-only"):
        root = crossing(z)
        if root is None:
            closed_lower = False
            notes.append("lower endpoint at domain boundary")
        else:
            lower = root
    else:
        closed_lower = False
        notes.append("one-sided set: lower endpoint at domain boundary")
    if side in ("two-sided", "lower-only"):
        root = crossing(-z)
        if root is None:
            closed_upper = False
            notes.append("upper endpoint at domain boundary")
        else:
            upper = root
    else:
        closed_upper = False
        notes.append("one-sided set: upper endpoint at domain boundary")
    return IntervalResult(lower=lower, upper=upper,
                          closed_lower=closed_lower,
                          closed_upper=closed_upper,
                          z=z, side=side,
                          boundary_note="; ".join(notes) or None)


def vertical_slice(curves: CurveGrid, family: ModelFamily, p: float):
    """Distribution of the curve values at abscissa p.

    Returns a list of (value, probability, slope_sign) triples, one per
    outcome; slope signs come from the adjacent grid columns.
    """
    n = _n_of(family)
    grid = curves.parameter_grid
    if not (grid[0] <= p <= grid[-1]):
        raise ValueError("p outside the curve grid range")
    j = int(np.clip(np.searchsorted(grid, p), 1, len(grid) - 1))
    frac = (p - grid[j - 1]) / (grid[j] - grid[j - 1])
    vals = curves.values[:, j - 1] * (1.0 - frac) + curves.values[:, j] * frac
    slopes = (curves.values[:, j] - curves.values[:, j - 1]) \
        / (grid[j] - grid[j - 1])
    mass = np.exp(log_binom_pmf(np.arange(n + 1), n, p))
    return [(float(v), float(m), int(np.sign(s)))
            for v, m, s in zip(vals, mass, slopes)]


def tail_z_adjusted_ci(family: ModelFamily, y: int, alpha: float,
                       side: str) -> IntervalResult:
    """Exact one-sided binomial (Clopper-Pearson 1934) endpoint.

    side="upper": p with Pr_p(Y <= y) = alpha (exact upper bound), the
    1 - alpha quantile of Beta(y + 1, n - y);
    side="lower": p with Pr_p(Y >= y) = alpha, the alpha quantile of
    Beta(y, n - y + 1).  ``_invert_tails`` inverts the tail in logit p
    on the log coefficients log C(n, k), started from the logit of
    (y + 0.5)/(n + 1) and its se (Woolf's, for one binomial), inside
    |logit p| <= LOGIT_BOUND.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0,1)")
    n = _n_of(family)
    if not 0 <= y <= n:
        raise ValueError("y must lie in 0..n")
    if side not in ("upper", "lower"):
        raise ValueError(f"unknown side {side!r}")
    ge = side == "lower"
    if y == (0 if ge else n):
        return IntervalResult(lower=0.0, upper=1.0, side=f"{side}-only",
                              boundary_note=f"y = {'0' if ge else 'n'}: "
                              f"{side} endpoint at domain boundary")
    lam = _invert_tails(
        log_choose(n, np.arange(n + 1))[None, :], 0, y + (not ge), ge,
        math.log(alpha), math.log((y + 0.5) / (n - y + 0.5)),
        math.sqrt(1.0 / (y + 0.5) + 1.0 / (n - y + 0.5)), LOGIT_BOUND,
        lambda i: f"Clopper-Pearson {side} endpoint at n={n}, y={y}")
    p = 1.0 / (1.0 + math.exp(-lam[0]))
    return IntervalResult(lower=p if ge else 0.0, upper=1.0 if ge else p,
                          side=f"{side}-only", closed_lower=ge,
                          closed_upper=not ge)


def curves_to_rows(curves: CurveGrid, realized_y: Optional[int] = None):
    """Flatten a curve grid to (y, p, value, realized, slope_sign) rows.

    The slope sign is ``int(copysign(1, s)) if s != 0 else 0``: a NaN
    slope keeps the sign of its sign bit, where ``np.sign`` would give NaN.
    """
    values = np.asarray(curves.values, dtype=float)
    grid = np.asarray(curves.parameter_grid, dtype=float)
    slopes = np.gradient(values, grid, axis=1)
    ys = np.repeat(np.arange(values.shape[0]), len(grid))
    realized = (np.zeros_like(ys) if realized_y is None
                else (ys == realized_y).astype(int))
    signs = np.where(slopes != 0, np.copysign(1.0, slopes), 0.0)
    return list(zip(ys.tolist(), np.tile(grid, values.shape[0]).tolist(),
                    values.ravel().tolist(), realized.tolist(),
                    signs.astype(int).ravel().tolist()))
