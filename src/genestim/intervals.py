"""Score-inversion confidence sets for the binomial-count family.

Curve grids of the standardized score and of twice the log-likelihood
ratio, z-standard intervals from the Wilson (1927) roots, vertical-slice
distributions, and exact tail-based (Clopper-Pearson 1934) endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .families import ModelFamily, log_binom_pmf, log_choose

DEFAULT_GRID = np.linspace(1e-4, 1.0 - 1e-4, 512)
TAIL_ROOT_ITERS = 100  # cap on the Newton steps of one tail root


@dataclass(frozen=True)
class CurveGrid:
    """Per-outcome curves of a statistic over a parameter grid."""

    parameter_grid: np.ndarray  # strictly increasing, interior
    values: np.ndarray  # (outcomes, grid)
    realized_row: Optional[int] = None
    kind: str = "score"

    def __post_init__(self):
        if np.any(np.diff(self.parameter_grid) <= 0):
            raise ValueError("parameter grid must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("curve values must be finite")


@dataclass(frozen=True)
class IntervalResult:
    """Confidence set endpoints with open/closed and boundary markers."""

    lower: float
    upper: float
    closed_lower: bool = True
    closed_upper: bool = True
    z: float = float("nan")
    side: str = "two-sided"
    boundary_note: Optional[str] = None
    empty: bool = False

    def __post_init__(self):
        if not self.empty and self.lower > self.upper:
            raise ValueError("interval endpoints out of order")

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


def score_curves(family: ModelFamily, grid=None) -> CurveGrid:
    """One standardized-score curve per outcome y in {0..n}."""
    n = _n_of(family)
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, dtype=float)
    if grid.min() <= 0.0 or grid.max() >= 1.0:
        raise ValueError("grid must stay strictly inside (0, 1)")
    ys = np.arange(n + 1)
    return CurveGrid(parameter_grid=grid,
                     values=sbar_binom(n, ys[:, None], grid[None, :]),
                     kind="score")


def llr_curves(family: ModelFamily, grid=None) -> CurveGrid:
    """Twice the log-likelihood ratio, per outcome, over the grid.

    Rows y = 0 and y = n use the supremum of the likelihood at the
    closure boundary (log-mass limit 0 there for the binomial).
    """
    n = _n_of(family)
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, dtype=float)
    if grid.min() <= 0.0 or grid.max() >= 1.0:
        raise ValueError("grid must stay strictly inside (0, 1)")
    ys = np.arange(n + 1)

    def loglik(y, p):
        # binomial coefficient cancels in the ratio; keep the kernel only
        y = np.asarray(y, dtype=float)
        return y * np.log(p) + (n - y) * np.log1p(-p)

    sup = np.where((ys == 0) | (ys == n), 0.0,
                   loglik(ys, np.clip(ys / n, 1e-300, 1.0 - 1e-16)))
    vals = 2.0 * (sup[:, None] - loglik(ys[:, None], grid[None, :]))
    return CurveGrid(parameter_grid=grid, values=vals, kind="llr")


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


def _binom_tail_root(n: int, y: int, alpha: float, side: str) -> float:
    """The p in (0, 1) where a binomial tail at y equals alpha.

    side="upper": Pr_p(Y <= y) = alpha, for y < n; side="lower":
    Pr_p(Y >= y) = alpha, for y > 0.  Newton's method on the log of the
    tail, a sum of binomial log-pmf terms with log C(n, k) taken once,
    and d/dp Pr_p(Y >= y) = n Pr_p(Bin(n - 1) = y - 1).  The tail is a
    Beta distribution (lower) or survival (upper) function with a
    log-concave density, so its log is concave, and Newton started on
    the side where the tail is below alpha moves monotonically to the
    root.  The start is where the union bound C(n, y) p^y on
    Pr(Y >= y) (mirrored for the upper side) reaches alpha.
    """
    if side == "upper":
        ks, j, k, sign = np.arange(y + 1), y, n - y, -1.0
    else:
        ks, j, k, sign = np.arange(y, n + 1), y - 1, y, 1.0
    log_c, rest = log_choose(n, ks), n - ks
    log_cd = math.log(n) + float(log_choose(n - 1, j))
    log_alpha = math.log(alpha)
    v = (log_alpha - float(log_choose(n, k))) / k
    p = math.exp(v) if side == "lower" else -math.expm1(v)
    for _ in range(TAIL_ROOT_ITERS):
        lp, lq = math.log(p), math.log1p(-p)
        terms = log_c + ks * lp + rest * lq  # finite for p in (0, 1)
        top = terms.max()
        log_tail = float(top) + math.log(np.exp(terms - top).sum())
        step = sign * (log_alpha - log_tail) * math.exp(
            log_tail - log_cd - j * lp - (n - 1 - j) * lq)
        # every step moves towards the root; one back, or within two
        # ulp, is round-off: p is the root
        if not sign * step > 2.0 * math.ulp(p):
            return p
        p += step
    raise RuntimeError(f"tail root at n={n}, y={y}, alpha={alpha} did not "
                       f"converge in {TAIL_ROOT_ITERS} Newton steps")


def tail_z_adjusted_ci(family: ModelFamily, y: int, alpha: float,
                       side: str) -> IntervalResult:
    """Exact one-sided binomial (Clopper-Pearson 1934) endpoint.

    side="upper": p with Pr_p(Y <= y) = alpha (exact upper bound), the
    1 - alpha quantile of Beta(y + 1, n - y);
    side="lower": p with Pr_p(Y >= y) = alpha, the alpha quantile of
    Beta(y, n - y + 1).  Both come from :func:`_binom_tail_root`.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0,1)")
    n = _n_of(family)
    if not 0 <= y <= n:
        raise ValueError("y must lie in 0..n")
    if side == "upper":
        if y == n:
            return IntervalResult(lower=0.0, upper=1.0, side="upper-only",
                                  boundary_note="y = n: upper endpoint at "
                                  "domain boundary")
        return IntervalResult(lower=0.0,
                              upper=_binom_tail_root(n, y, alpha, side),
                              side="upper-only", closed_lower=False)
    if side == "lower":
        if y == 0:
            return IntervalResult(lower=0.0, upper=1.0, side="lower-only",
                                  boundary_note="y = 0: lower endpoint at "
                                  "domain boundary")
        return IntervalResult(lower=_binom_tail_root(n, y, alpha, side),
                              upper=1.0, side="lower-only",
                              closed_upper=False)
    raise ValueError(f"unknown side {side!r}")


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
