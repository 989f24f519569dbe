"""Two-binomial log-odds-ratio machinery.

Profiled standardized score, z-standard intervals (score inversion in p1
at a fixed nuisance value), the conditional exact odds-ratio interval,
exact coverage enumeration, and score-test tail probabilities at the
exact-interval endpoints.  Everything here is deterministic; all
probability sums are exact enumerations over the (n1+1) x (n2+1) grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.special import logsumexp

from ._kernels import invert_p1_batch, sbar_profiled_batch, zinterval_p1_batch
from .families import (log_binom_pmf, log_choose, two_binomial_outcomes,
                       two_binomial_probs)
from .intervals import IntervalResult

Z_95 = 1.959964  # two-sided nominal 0.95

# (odds ratio, p1, p2) parameter cells of the standard coverage study
COVERAGE_CELLS = (
    (1.0, 0.01, 0.01), (1.0, 0.20, 0.20), (1.0, 0.50, 0.50),
    (1.0, 0.70, 0.70), (1.0, 0.90, 0.90),
    (1.5, 0.015, 0.01), (1.5, 0.273, 0.20), (1.5, 0.60, 0.50),
    (1.5, 0.778, 0.70), (1.5, 0.931, 0.90),
    (4.0, 0.039, 0.01), (4.0, 0.50, 0.20), (4.0, 0.80, 0.50),
    (4.0, 0.903, 0.70), (4.0, 0.973, 0.90),
)


class InfeasibleNuisance(ValueError):
    """Nuisance value outside (0, n1+n2): no (p1, p2) exists."""


@dataclass(frozen=True)
class TwoBinomialData:
    x1: int
    x2: int
    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 <= 0 or self.n2 <= 0:
            raise ValueError("sample sizes must be positive")
        if not (0 <= self.x1 <= self.n1 and 0 <= self.x2 <= self.n2):
            raise ValueError("counts out of range")


@dataclass(frozen=True)
class NuisanceRule:
    """How the nuisance value is chosen when evaluating the score."""

    kind: str = "profiled"  # "profiled" | "plus-c" | "fixed-value"
    c: float = 0.0
    value: float = float("nan")

    def resolve(self, data: TwoBinomialData) -> float:
        if self.kind == "profiled":
            return float(data.x1 + data.x2)
        if self.kind == "plus-c":
            return plus_c_nuisance(data, self.c)
        if self.kind == "fixed-value":
            return float(self.value)
        raise ValueError(f"unknown nuisance rule {self.kind!r}")


def plus_c_nuisance(data: TwoBinomialData, c: float) -> float:
    """Shrinkage-adjusted nuisance estimate; c = 0 recovers x1 + x2."""
    if c < 0.0:
        raise ValueError("adjustment constant must be nonnegative")
    return (data.n1 * (data.x1 + c) / (data.n1 + 2.0 * c)
            + data.n2 * (data.x2 + c) / (data.n2 + 2.0 * c))


def profiled_sbar(data: TwoBinomialData, theta: float,
                  rule: NuisanceRule = NuisanceRule()) -> float:
    """Standardized interest score at theta, nuisance fixed by the rule."""
    tnuis = rule.resolve(data)
    if not 0.0 < tnuis < data.n1 + data.n2:
        raise InfeasibleNuisance(
            f"nuisance value {tnuis} outside (0, {data.n1 + data.n2})")
    p1, p2 = two_binomial_probs(theta, tnuis, data.n1, data.n2)
    return float(sbar_profiled_batch(data.x1, data.x2, data.n1, data.n2,
                                     p1, p2))


def log_or(p1: float, p2: float) -> float:
    return math.log(p1 / (1.0 - p1)) - math.log(p2 / (1.0 - p2))


def z_interval(data: TwoBinomialData, z: float = Z_95,
               rule: NuisanceRule = NuisanceRule(),
               side: str = "two-sided",
               equal_sign: bool = True) -> IntervalResult:
    """Invert sbar^2 <= z^2 into a log-odds-ratio interval.

    With the nuisance pinned by ``rule``, the inequality is solved in p1
    over the feasible range: the real roots of the cleared-denominator
    degree-6 polynomial split the range, and each edge is bisected on
    the score itself (a dense sign scan is kept as a test oracle);
    endpoints map to theta through the log-odds-ratio.  A rule value at
    0 or n1+n2 (all-boundary data with c = 0) is degenerate: the closed
    convention gives the whole line, the open one the empty set.
    """
    if z <= 0.0:
        raise ValueError("z must be positive")
    tnuis = rule.resolve(data)
    n1, n2 = data.n1, data.n2
    if not 0.0 < tnuis < n1 + n2:
        if equal_sign:
            return IntervalResult(lower=-math.inf, upper=math.inf, z=z,
                                  side=side,
                                  boundary_note="degenerate nuisance: "
                                  "whole line under the closed convention")
        return IntervalResult(lower=math.nan, upper=math.nan, empty=True,
                              z=z, side=side,
                              boundary_note="degenerate nuisance: empty "
                              "under the open convention")
    p1_lo, p1_hi, at_lo, at_hi, ok = zinterval_p1_batch(
        [data.x1], [data.x2], n1, n2, [tnuis], z)
    notes = []
    if not ok[0]:
        raise InfeasibleNuisance(f"no feasible p1 range at nuisance {tnuis}")
    if at_lo[0] and at_hi[0] and not np.isfinite(
            sbar_zero_theta(data, rule, allow_nan=True)):
        notes.append("score root not bracketed: whole feasible range")

    def to_theta(p1):
        return log_or(p1, (tnuis - n1 * p1) / n2)

    lower = -math.inf if at_lo[0] else to_theta(float(p1_lo[0]))
    upper = math.inf if at_hi[0] else to_theta(float(p1_hi[0]))
    if at_lo[0]:
        notes.append("lower endpoint unbounded (boundary of feasible range)")
    if at_hi[0]:
        notes.append("upper endpoint unbounded (boundary of feasible range)")
    return IntervalResult(lower=lower, upper=upper,
                          closed_lower=equal_sign, closed_upper=equal_sign,
                          z=z, side=side,
                          boundary_note="; ".join(notes) or None)


def sbar_zero_theta(data: TwoBinomialData,
                    rule: NuisanceRule = NuisanceRule(),
                    allow_nan: bool = False) -> float:
    """The theta where the profiled score crosses zero (point estimate)."""
    tnuis = rule.resolve(data)
    n1, n2 = data.n1, data.n2
    if rule.kind == "profiled":
        if data.x1 in (0, n1) or data.x2 in (0, n2):
            if allow_nan:
                return math.nan
            raise InfeasibleNuisance("boundary data: score root at infinity")
        return log_or(data.x1 / n1, data.x2 / n2)
    # generic rules: solve sbar = 0 by bisection in p1
    lo = max(0.0, (tnuis - n2) / n1) + 1e-9
    hi = min(1.0, tnuis / n1) - 1e-9
    if not lo < hi:
        if allow_nan:
            return math.nan
        raise InfeasibleNuisance(f"nuisance value {tnuis} infeasible")

    def s_at(p1):
        return float(sbar_profiled_batch(data.x1, data.x2, n1, n2, p1,
                                         (tnuis - n1 * p1) / n2))

    slo, shi = s_at(lo), s_at(hi)
    if slo * shi > 0.0:
        if allow_nan:
            return math.nan
        raise InfeasibleNuisance("score root not bracketed")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if s_at(mid) > 0.0:  # sbar decreasing in p1 would flip; track sign
            if slo > 0.0:
                lo = mid
            else:
                hi = mid
        else:
            if slo > 0.0:
                hi = mid
            else:
                lo = mid
    p1 = 0.5 * (lo + hi)
    return log_or(p1, (tnuis - n1 * p1) / n2)


# ---------------------------------------------------------------------------
# Fisher's exact (conditional) interval
# ---------------------------------------------------------------------------


def _cond_log_coef(n1: int, n2: int, t) -> np.ndarray:
    """log C(n1, x) + log C(n2, t - x) for x = 0..n1, -inf off support.

    One row per entry of t: shape t.shape + (n1 + 1,).
    """
    xs = np.arange(n1 + 1)
    x2 = np.asarray(t)[..., None] - xs
    return np.where((x2 >= 0) & (x2 <= n2),
                    log_choose(n1, xs) + log_choose(n2, np.clip(x2, 0, n2)),
                    -np.inf)


def _cond_law(logc: np.ndarray, log_psi) -> np.ndarray:
    """Tilt each row of log coefficients by psi**x and normalise it."""
    logw = logc + np.arange(logc.shape[-1]) * np.asarray(log_psi)[..., None]
    return np.exp(logw - logsumexp(logw, axis=-1, keepdims=True))


def fisher_exact_intervals(x1, x2, n1: int, n2: int,
                           confidence: float = 0.95):
    """Conditional exact odds-ratio intervals of many outcomes at once.

    Conditional on t = x1 + x2, x1 follows the noncentral hypergeometric
    law with parameter psi (Cornfield 1956).  Each endpoint inverts a
    one-sided exact test at (1 - confidence)/2; all endpoints of all
    outcomes are bisected together in log psi over [-50, 50], 80 steps.
    Returns (lower, upper) arrays in psi: lower is 0 where x1 is the
    smallest value its conditional support allows, upper is inf where
    x1 is the largest, so t = 0 or n1 + n2 gives (0, inf).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0,1)")
    alpha = 0.5 * (1.0 - confidence)
    x1, x2 = np.broadcast_arrays(x1, x2)
    if np.any((x1 < 0) | (x1 > n1) | (x2 < 0) | (x2 > n2)):
        raise ValueError("counts out of range")
    t = x1 + x2
    logc = _cond_log_coef(n1, n2, t)
    xs = np.arange(n1 + 1)
    # row 0: Pr(X >= x1) increases with psi, lower endpoint where it is
    # alpha; row 1: Pr(X <= x1) decreases with psi, upper endpoint likewise
    tail = np.stack([xs >= x1[..., None], xs <= x1[..., None]])
    a = np.full((2,) + t.shape, -50.0)
    b = np.full((2,) + t.shape, 50.0)
    for _ in range(80):
        mid = 0.5 * (a + b)
        p = np.where(tail, _cond_law(logc, mid), 0.0).sum(axis=-1)
        right = np.stack([p[0] < alpha, p[1] > alpha])
        a = np.where(right, mid, a)
        b = np.where(right, b, mid)
    lam = 0.5 * (a + b)
    lower = np.where(x1 == np.maximum(0, t - n2), 0.0, np.exp(lam[0]))
    upper = np.where(x1 == np.minimum(n1, t), np.inf, np.exp(lam[1]))
    return lower, upper


def fisher_exact_interval(data: TwoBinomialData,
                          confidence: float = 0.95) -> IntervalResult:
    """Conditional exact odds-ratio interval (endpoints in psi, not log).

    One outcome of :func:`fisher_exact_intervals`, with notes on the
    degenerate and support-edge cases.
    """
    lower, upper = map(float, fisher_exact_intervals(
        data.x1, data.x2, data.n1, data.n2, confidence))
    if data.x1 + data.x2 in (0, data.n1 + data.n2):
        return IntervalResult(lower=lower, upper=upper,
                              boundary_note="degenerate conditional "
                              "support: whole half-line")
    notes = []
    if lower == 0.0:
        notes.append("x1 at conditional support edge: lower endpoint 0")
    if upper == math.inf:
        notes.append("x1 at conditional support edge: upper endpoint inf")
    return IntervalResult(lower=lower, upper=upper,
                          boundary_note="; ".join(notes) or None)


# ---------------------------------------------------------------------------
# Exact coverage enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageCell:
    or_true: float
    p1: float
    p2: float
    c: float
    equal_sign: bool
    coverage: float
    method: str  # "z-standard" | "fisher-exact"


@lru_cache(maxsize=16)
def _z_intervals_all(n1: int, n2: int, c: float, z: float):
    """theta intervals for every outcome at one (c, z); outcome-major.

    Returns (lower, upper, degenerate) arrays; degenerate marks rule
    values at 0 or n1+n2 (coverage depends on the equal-sign convention
    there: whole line when closed, empty when open).
    """
    x1, x2 = two_binomial_outcomes(n1, n2).T
    tn = np.array([
        NuisanceRule("plus-c", c=c).resolve(TwoBinomialData(a, b, n1, n2))
        for a, b in zip(x1, x2)])
    degenerate = (tn <= 0.0) | (tn >= n1 + n2)
    work = ~degenerate
    lower = np.full(x1.shape, -np.inf)
    upper = np.full(x1.shape, np.inf)
    p1_lo, p1_hi, at_lo, at_hi, ok = zinterval_p1_batch(
        x1[work], x2[work], n1, n2, tn[work], z)
    p2_lo = (tn[work] - n1 * p1_lo) / n2
    p2_hi = (tn[work] - n1 * p1_hi) / n2
    with np.errstate(divide="ignore"):
        th_lo = np.log(p1_lo / (1 - p1_lo)) - np.log(p2_lo / (1 - p2_lo))
        th_hi = np.log(p1_hi / (1 - p1_hi)) - np.log(p2_hi / (1 - p2_hi))
    th_lo[at_lo | ~ok] = -np.inf
    th_hi[at_hi | ~ok] = np.inf
    lower[work] = th_lo
    upper[work] = th_hi
    return lower, upper, degenerate


def _log_masses(n1, n2, p1, p2):
    x1, x2 = two_binomial_outcomes(n1, n2).T
    return log_binom_pmf(x1, n1, p1) + log_binom_pmf(x2, n2, p2)


def _mass_sum(logm, which):
    """Sum exp(logm[which]) largest-first for accuracy."""
    sel = np.sort(logm[which])[::-1]
    return float(math.fsum(np.exp(sel)))


def coverage_z(n1: int, n2: int, or_true: float, p1: float, p2: float,
               c: float, equal_sign: bool, z: float = Z_95) -> float:
    """Exact coverage of the z-standard interval at one parameter cell."""
    theta = math.log(or_true)
    lower, upper, degenerate = _z_intervals_all(n1, n2, float(c), float(z))
    if equal_sign:
        covered = (lower <= theta) & (theta <= upper)
        covered |= degenerate
    else:
        covered = (lower < theta) & (theta < upper)
        covered &= ~degenerate
    return _mass_sum(_log_masses(n1, n2, p1, p2), covered)


@lru_cache(maxsize=16)
def _fisher_intervals_all(n1: int, n2: int, confidence: float):
    """Exact odds-ratio (lower, upper) of every outcome; outcome-major."""
    x1, x2 = two_binomial_outcomes(n1, n2).T
    return fisher_exact_intervals(x1, x2, n1, n2, confidence)


def coverage_fisher(n1: int, n2: int, or_true: float, p1: float, p2: float,
                    confidence: float = 0.95) -> float:
    """Exact coverage of the conditional exact interval (closed)."""
    lo, hi = _fisher_intervals_all(n1, n2, confidence)
    covered = (lo <= or_true) & (or_true <= hi)
    return _mass_sum(_log_masses(n1, n2, p1, p2), covered)


def coverage_table(n1: int, n2: int, cells, c_list=(0.0, 0.5, 1.0),
                   equal_options=(True, False), z: float = Z_95,
                   methods=("z-standard", "fisher-exact")) -> list:
    """Exact coverage for each (or, p1, p2) cell over rules and methods."""
    out = []
    for or_true, p1, p2 in cells:
        for eq in equal_options:
            if "z-standard" in methods:
                for c in c_list:
                    out.append(CoverageCell(
                        or_true, p1, p2, c, eq,
                        coverage_z(n1, n2, or_true, p1, p2, c, eq, z),
                        "z-standard"))
            if "fisher-exact" in methods:
                conf = 2.0 * _norm_cdf(z) - 1.0
                out.append(CoverageCell(
                    or_true, p1, p2, 0.0, eq,
                    coverage_fisher(n1, n2, or_true, p1, p2, conf),
                    "fisher-exact"))
    return out


def _norm_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


# ---------------------------------------------------------------------------
# Score-test tails at the exact-interval endpoints
# ---------------------------------------------------------------------------


def _profiled_sbar_all_outcomes(n1, n2, theta):
    """Profiled standardized score of every outcome at a common theta.

    Each outcome uses its own profiled nuisance t' = x1' + x2'; the two
    all-boundary outcomes (t' = 0 or n1+n2) take the degenerate limit 0.
    """
    x1, x2 = two_binomial_outcomes(n1, n2).T
    t = x1 + x2
    stats = np.zeros(x1.shape)
    interior = (t > 0) & (t < n1 + n2)
    p1 = invert_p1_batch(theta, t[interior].astype(float), n1, n2)
    p2 = (t[interior] - n1 * p1) / n2
    stats[interior] = sbar_profiled_batch(x1[interior], x2[interior],
                                          n1, n2, p1, p2)
    return stats


def score_tail_at(data: TwoBinomialData, theta: float, side: str) -> float:
    """Exact tail probability of the one-sided profiled-score test.

    The null (p1, p2) lies on the curve theta = const pinned by the
    observed profiled nuisance x1 + x2; outcomes are ordered by their
    profiled standardized score at theta.  side="ge" sums the mass with
    statistic >= the observed one, side="le" the mass <= it.
    """
    n1, n2 = data.n1, data.n2
    p1, p2 = two_binomial_probs(theta, float(data.x1 + data.x2), n1, n2)
    stats = _profiled_sbar_all_outcomes(n1, n2, theta)
    obs = stats[data.x1 * (n2 + 1) + data.x2]
    logm = _log_masses(n1, n2, p1, p2)
    if side == "ge":
        return _mass_sum(logm, stats >= obs - 1e-12)
    if side == "le":
        return _mass_sum(logm, stats <= obs + 1e-12)
    raise ValueError(f"unknown side {side!r}")


def fisher_endpoint_tails(n1: int, n2: int, z_level: float = 0.95) -> list:
    """Score-test tails at the exact-interval endpoints, per interior cell.

    For each (x1, x2) with 0 < x1 < n1 and 0 < x2 < n2: compute the
    ``z_level`` exact interval, then the one-sided score tails at its
    two endpoints.  Rows are (x1, x2, left_tail, right_tail) where
    left refers to the lower endpoint.
    """
    x1, x2 = np.mgrid[1:n1, 1:n2].reshape(2, -1)
    lower, upper = fisher_exact_intervals(x1, x2, n1, n2, z_level)
    rows = []
    for a, b, lo, hi in zip(x1.tolist(), x2.tolist(), lower, upper):
        data = TwoBinomialData(a, b, n1, n2)
        # lower endpoint: observed data sits in the upper score tail
        left = score_tail_at(data, math.log(lo), "ge") if lo > 0.0 else 0.0
        right = score_tail_at(data, math.log(hi), "le") \
            if math.isfinite(hi) else 0.0
        rows.append((a, b, left, right))
    return rows
