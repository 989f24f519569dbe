"""Two-binomial log-odds-ratio machinery.

Profiled standardized score, z-standard intervals (score inversion in p1
at a fixed nuisance value), the conditional exact odds-ratio interval,
exact coverage enumeration, and score-test tail probabilities at the
exact-interval endpoints.  Everything here is deterministic; all
probability sums are exact enumerations over the (n1+1) x (n2+1) grid.

Coverage builds no interval: an interval holds theta0 exactly when the
test at theta0 accepts the data (Neyman's duality; Lehmann & Romano,
Testing Statistical Hypotheses, 3.5), so the coverage of a cell is the
mass of the outcomes whose score test, or conditional exact test, at the
cell's odds ratio accepts.  The interval routes serve single outcomes and
the tests, which compare the two.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._kernels import (_invert_tails, _line_p2, _line_probs, _log_or,
                       _newton, _p1_range, _sbar_combine, _sbar_line,
                       _sbar_slope, sbar_profiled_batch, zinterval_p1_batch)
from .families import log_binom_pmf, log_choose, two_binomial_outcomes
from .intervals import IntervalResult

Z_95 = 1.959964  # two-sided nominal 0.95
SCORE_TAIL_BLOCK = 1 << 14  # (row, outcome) elements per block of score_tails
LOG_PSI_BOUND = 50.0  # exact odds-ratio endpoints lie in [e^-50, e^50]

# (odds ratio, p1, p2) parameter cells of the standard coverage study
COVERAGE_CELLS = (
    (1.0, 0.01, 0.01), (1.0, 0.20, 0.20), (1.0, 0.50, 0.50),
    (1.0, 0.70, 0.70), (1.0, 0.90, 0.90),
    (1.5, 0.015, 0.01), (1.5, 0.273, 0.20), (1.5, 0.60, 0.50),
    (1.5, 0.778, 0.70), (1.5, 0.931, 0.90),
    (4.0, 0.039, 0.01), (4.0, 0.50, 0.20), (4.0, 0.80, 0.50),
    (4.0, 0.903, 0.70), (4.0, 0.973, 0.90),
)
COVERAGE_C = (0.0, 0.5, 1.0)  # plus-c constants of the coverage study


class InfeasibleNuisance(ValueError):
    """No score root at the nuisance value: it lies outside (0, n1+n2), so
    no (p1, p2) exists, or the data are on the boundary, or the score does
    not change sign over the feasible p1 range."""


class _Counts(NamedTuple):
    x1: int
    x2: int
    n1: int
    n2: int


class TwoBinomialData(_Counts):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n1 <= 0 or self.n2 <= 0:
            raise ValueError("sample sizes must be positive")
        if not (0 <= self.x1 <= self.n1 and 0 <= self.x2 <= self.n2):
            raise ValueError("counts out of range")
        return self


def plus_c_nuisance(x1, x2, n1: int, n2: int, c: float):
    """Shrinkage-adjusted nuisance estimate, elementwise over counts x1,
    x2; c = 0 recovers x1 + x2."""
    if c < 0.0:
        raise ValueError("adjustment constant must be nonnegative")
    return n1 * (x1 + c) / (n1 + 2.0 * c) + n2 * (x2 + c) / (n2 + 2.0 * c)


def _theta_intervals(x1, x2, n1: int, n2: int, tnuis, z: float):
    """(lower, upper, at_lo, at_hi, ok) of sbar^2 <= z^2 at fixed nuisance
    values: the p1 ends of :func:`zinterval_p1_batch` mapped to theta,
    flagged ends and rows with no feasible range at -inf / +inf."""
    tnuis = np.asarray(tnuis, dtype=float)
    p1_lo, p1_hi, at_lo, at_hi, ok = zinterval_p1_batch(x1, x2, n1, n2,
                                                        tnuis, z)
    with np.errstate(divide="ignore"):
        lower = _log_or(p1_lo, _line_p2(p1_lo, tnuis, n1, n2))
        upper = _log_or(p1_hi, _line_p2(p1_hi, tnuis, n1, n2))
    lower[at_lo | ~ok] = -np.inf
    upper[at_hi | ~ok] = np.inf
    return lower, upper, at_lo, at_hi, ok


def z_interval(data: TwoBinomialData, z: float = Z_95, tnuis=None,
               equal_sign: bool = True) -> IntervalResult:
    """Invert sbar^2 <= z^2 into a log-odds-ratio interval.

    With the nuisance pinned at ``tnuis`` (None: the profile x1 + x2),
    the inequality is solved in p1 over the feasible range: the real
    roots of the cleared-denominator degree-6 polynomial split the range,
    and each edge is a Newton root of the score itself (a dense sign scan
    is kept as a test oracle); endpoints map to theta through the
    log-odds-ratio.  A nuisance value at 0 or n1+n2 (all-boundary data
    with c = 0) is degenerate: the closed convention gives the whole line,
    the open one the empty set; a value outside [0, n1+n2] raises
    InfeasibleNuisance.  A value inside (0, n1+n2) but so near an end
    that the clipped feasible p1 range is empty gives the whole line
    under both conventions, as :func:`_z_covered` counts it.  sbar of one
    sign at both range ends means the score root is not bracketed.
    """
    if z <= 0.0:
        raise ValueError("z must be positive")
    tnuis = float(data.x1 + data.x2 if tnuis is None else tnuis)
    if not 0.0 <= tnuis <= data.n1 + data.n2:
        raise InfeasibleNuisance(
            f"nuisance value {tnuis} outside [0, {data.n1 + data.n2}]")
    if not 0.0 < tnuis < data.n1 + data.n2:
        if equal_sign:
            return IntervalResult(lower=-math.inf, upper=math.inf, z=z,
                                  boundary_note="degenerate nuisance: "
                                  "whole line under the closed convention")
        return IntervalResult(lower=math.nan, upper=math.nan, empty=True,
                              z=z, boundary_note="degenerate nuisance: "
                              "empty under the open convention")
    (lower,), (upper,), (at_lo,), (at_hi,), (ok,) = _theta_intervals(
        [data.x1], [data.x2], data.n1, data.n2, [tnuis], z)
    notes = [] if ok else [
        f"no feasible p1 range at nuisance {tnuis}: whole line"]
    ends = np.array(_p1_range(tnuis, data.n1, data.n2)[:2])
    if at_lo and at_hi and np.prod(_sbar_slope(
            ends, data.x1 / data.n1, data.x2 / data.n2, tnuis, data.n1,
            data.n2)[0]) > 0.0:
        notes.append("score root not bracketed: whole feasible range")
    if at_lo:
        notes.append("lower endpoint unbounded (boundary of feasible range)")
    if at_hi:
        notes.append("upper endpoint unbounded (boundary of feasible range)")
    return IntervalResult(lower=float(lower), upper=float(upper),
                          closed_lower=equal_sign, closed_upper=equal_sign,
                          z=z, boundary_note="; ".join(notes) or None)


def sbar_zero_theta(data: TwoBinomialData, tnuis=None) -> float:
    """The theta where the score at nuisance ``tnuis`` crosses zero (point
    estimate); None pins the profile x1 + x2, where it is the sample log
    odds ratio."""
    n1, n2 = data.n1, data.n2
    if tnuis is None:
        if data.x1 in (0, n1) or data.x2 in (0, n2):
            raise InfeasibleNuisance("boundary data: score root at infinity")
        return float(_log_or(data.x1 / n1, data.x2 / n2))
    # the root of sbar in p1, where it falls through zero
    lo, hi, ok = _p1_range(tnuis, n1, n2)
    if not ok:
        raise InfeasibleNuisance(f"nuisance value {tnuis} infeasible")

    def sbar(p1, live=None):
        return _sbar_slope(p1, data.x1 / n1, data.x2 / n2, tnuis, n1, n2)

    if sbar(lo)[0] * sbar(hi)[0] > 0.0:
        raise InfeasibleNuisance("score root not bracketed")
    (p1,), (conv,) = _newton(sbar, [0.5 * (lo + hi)], lo, hi, False, 0.0,
                             0.0)
    if not conv:
        raise RuntimeError(f"score root at (x1, x2) = ({data.x1}, {data.x2}),"
                           f" n1={n1}, n2={n2}: not converged")
    return float(_log_or(p1, _line_p2(p1, tnuis, n1, n2)))


# ---------------------------------------------------------------------------
# Fisher's exact (conditional) interval
# ---------------------------------------------------------------------------


def _cond_log_coef(n1: int, n2: int, t) -> np.ndarray:
    """log C(n1, x) + log C(n2, t - x) for x = 0..n1, -inf off support;
    one row per entry of t: shape t.shape + (n1 + 1,)."""
    xs = np.arange(n1 + 1)
    x2 = np.asarray(t)[..., None] - xs
    return np.where((x2 >= 0) & (x2 <= n2),
                    log_choose(n1, xs) + log_choose(n2, np.clip(x2, 0, n2)),
                    -np.inf)


def logsumexp(a):
    """log sum exp(a) over the last axis, shifted by the row maximum; a
    row that is all -inf gives -inf, with no warning."""
    a = np.asarray(a, dtype=float)
    top = a.max(axis=-1)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return top + np.log(np.exp(a - top[..., None]).sum(axis=-1))


def fisher_exact_intervals(x1, x2, n1: int, n2: int,
                           confidence: float = 0.95):
    """Conditional exact odds-ratio intervals of many outcomes at once.

    Conditional on t = x1 + x2, x1 follows the noncentral hypergeometric
    law with parameter psi (Cornfield 1956).  The lower endpoint solves
    Pr_psi(X >= x1) = alpha, the upper one Pr_psi(X <= x1) = alpha, with
    alpha = (1 - confidence)/2: all of them in one ``_invert_tails`` call
    in log psi, started from Woolf's log OR and se (0.5 added to each cell)
    and inside |log psi| <= LOG_PSI_BOUND, each outcome reading the row
    of its t in one table of conditional laws, from the smallest t that
    occurs to the largest.  Returns (lower, upper) arrays in psi: lower is
    0 where x1 is the smallest value its conditional support allows,
    upper is inf where x1 is the largest, so t = 0 or n1 + n2 gives
    (0, inf).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0,1)")
    alpha = 0.5 * (1.0 - confidence)
    x1, x2 = np.broadcast_arrays(x1, x2)
    if np.any((x1 < 0) | (x1 > n1) | (x2 < 0) | (x2 > n2)):
        raise ValueError("counts out of range")
    t = x1 + x2
    # side 0 (lower): x1 above its conditional minimum; 1: below its maximum
    ends = np.stack([x1 > np.maximum(0, t - n2), x1 < np.minimum(n1, t)])
    a, b = (np.broadcast_to(v, ends.shape)[ends] for v in (x1, x2))
    ge = np.nonzero(ends)[0] == 0
    ts = a + b
    lo, hi = ts.min(initial=n1 + n2), ts.max(initial=0)
    woolf = np.log((a + 0.5) * (n2 - b + 0.5) / ((n1 - a + 0.5) * (b + 0.5)))
    se = np.sqrt(1.0 / (a + 0.5) + 1.0 / (n1 - a + 0.5) + 1.0 / (b + 0.5)
                 + 1.0 / (n2 - b + 0.5))
    psi = np.stack([np.zeros(t.shape), np.full(t.shape, np.inf)])
    psi[ends] = np.exp(_invert_tails(
        _cond_log_coef(n1, n2, np.arange(lo, hi + 1)), ts - lo, a + ~ge, ge,
        math.log(alpha), woolf, se, LOG_PSI_BOUND,
        lambda i: f"Fisher {'lower' if ge[i] else 'upper'} endpoint at "
                  f"n1={n1}, n2={n2}, (x1, x2) = ({a[i]}, {b[i]})"))
    return psi[0], psi[1]


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


class CoverageCell(NamedTuple):
    or_true: float
    p1: float
    p2: float
    c: float
    equal_sign: bool
    coverage: float
    method: str  # "z-standard" | "fisher-exact"


def _log_masses(n1, n2, p1, p2):
    """Log masses of every outcome, one row per entry of p1 and p2, in
    :func:`two_binomial_outcomes` order: the outer sum of the two groups'
    log pmfs, so the only outcome-sized array is the result."""
    lm1 = log_binom_pmf(np.arange(n1 + 1), n1, np.asarray(p1)[..., None])
    lm2 = log_binom_pmf(np.arange(n2 + 1), n2, np.asarray(p2)[..., None])
    logm = lm1[..., :, None] + lm2[..., None, :]
    return logm.reshape(logm.shape[:-2] + (-1,))


def _mass_sum(logm, which):
    """Correctly rounded sum of exp(logm[which])."""
    return math.fsum(np.exp(logm[which]))


def _outcome_sbar(n1: int, n2: int, theta, tn):
    """sbar of every outcome at theta, each on its own nuisance line
    n1 p1 + n2 p2 = tn[i], in :func:`two_binomial_outcomes` order; theta
    broadcasts over rows.  NaN where the line has no feasible p1."""
    x1, x2 = two_binomial_outcomes(n1, n2).T
    return sbar_profiled_batch(x1, x2, n1, n2, *_line_probs(theta, tn, n1, n2))


def _z_covered(n1: int, n2: int, theta: float, c: float, z: float):
    """(closed, open) masks of the outcomes whose z-standard test at theta
    accepts: sbar^2 <= z^2 and sbar^2 < z^2 at the outcome's plus-c
    nuisance value, p1 inverted at theta.

    These are the outcomes whose interval holds theta.  A nuisance value at
    0 or n1+n2 is degenerate (the whole line when closed, empty when
    open); one whose feasible p1 range is empty, though inside (0, n1+n2),
    leaves the whole line under both conventions.
    """
    x1, x2 = two_binomial_outcomes(n1, n2).T
    tn = plus_c_nuisance(x1, x2, n1, n2, c)
    s2 = _outcome_sbar(n1, n2, theta, tn) ** 2
    degenerate = (tn <= 0.0) | (tn >= n1 + n2)
    whole = ~(degenerate | _p1_range(tn, n1, n2)[2])
    return ((s2 <= z * z) | degenerate | whole,
            (s2 < z * z) & ~degenerate | whole)


def _fisher_covered(n1: int, n2: int, or_true: float, confidence: float):
    """Mask of the outcomes whose conditional exact test at or_true
    accepts: Pr(X >= x1 | t) >= alpha and Pr(X <= x1 | t) >= alpha under
    the noncentral hypergeometric law, alpha = (1 - confidence)/2.

    These are the outcomes whose exact interval holds or_true.  One law
    per t = x1 + x2, with its tails from cumulative sums both ways.
    """
    logw = (_cond_log_coef(n1, n2, np.arange(n1 + n2 + 1))
            + np.arange(n1 + 1) * math.log(or_true))
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    le = np.cumsum(w, axis=1)
    tails = np.minimum(le, np.cumsum(w[:, ::-1], axis=1)[:, ::-1])
    tails /= le[:, -1:]
    x1, x2 = two_binomial_outcomes(n1, n2).T
    return tails[x1 + x2, x1] >= 0.5 * (1.0 - confidence)


def coverage_z(n1: int, n2: int, or_true: float, p1: float, p2: float,
               c: float, equal_sign: bool, z: float = Z_95) -> float:
    """Exact coverage of the z-standard interval at one parameter cell:
    the mass of the outcomes whose test at log(or_true) accepts."""
    closed, open_ = _z_covered(n1, n2, math.log(or_true), c, z)
    return _mass_sum(_log_masses(n1, n2, p1, p2),
                     closed if equal_sign else open_)


def coverage_fisher(n1: int, n2: int, or_true: float, p1: float, p2: float,
                    confidence: float = 0.95) -> float:
    """Exact coverage of the conditional exact interval (closed): the mass
    of the outcomes whose conditional test at or_true accepts."""
    return _mass_sum(_log_masses(n1, n2, p1, p2),
                     _fisher_covered(n1, n2, or_true, confidence))


def coverage_table(n1: int, n2: int, cells, z: float = Z_95) -> list:
    """Exact coverage for each (or, p1, p2) cell: for each sign convention,
    the z-standard interval at each COVERAGE_C and the exact interval.

    The tests depend on the odds ratio alone: each odds ratio's test at
    each c and its exact test are built once and serve all its cells, and
    each cell's masses are computed once and serve both conventions.
    """
    conf = z_confidence(z)
    masks = {}
    out = []
    for or_true, p1, p2 in cells:
        if or_true not in masks:
            masks[or_true] = ([_z_covered(n1, n2, math.log(or_true), c, z)
                               for c in COVERAGE_C],
                              _fisher_covered(n1, n2, or_true, conf))
        z_sets, fisher_mask = masks[or_true]
        logm = _log_masses(n1, n2, p1, p2)
        fisher = _mass_sum(logm, fisher_mask)
        for eq in (True, False):
            for c, (closed, open_) in zip(COVERAGE_C, z_sets):
                out.append(CoverageCell(
                    or_true, p1, p2, c, eq,
                    _mass_sum(logm, closed if eq else open_), "z-standard"))
            out.append(CoverageCell(or_true, p1, p2, 0.0, eq, fisher,
                                    "fisher-exact"))
    return out


def z_confidence(z: float) -> float:
    """Two-sided confidence 2 Phi(z) - 1 of the interval |score| <= z."""
    return 2.0 * (0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))) - 1.0


# ---------------------------------------------------------------------------
# Score-test tails at the exact-interval endpoints
# ---------------------------------------------------------------------------


def score_tails(n1: int, n2: int, x1, x2, theta, ge) -> np.ndarray:
    """Exact tail probabilities of the one-sided profiled-score test.

    Row r observes (x1[r], x2[r]), with 0 < x1 + x2 < n1 + n2, and tests
    theta[r]: the null (p1, p2) lies on the curve log OR = theta[r]
    pinned by the observed profiled nuisance x1[r] + x2[r], and outcomes
    are ordered by their profiled standardized score at theta[r], each at
    its own profiled nuisance x1' + x2' (the two all-boundary outcomes
    take the degenerate limit 0).  Where ge[r] holds the row sums the mass
    with statistic >= the observed one, else the mass <= it, with
    :func:`_mass_sum`.  The statistics are :func:`_outcome_sbar`'s, with
    each row's null points and the score's line terms taken once per
    nuisance value 0..n1+n2 and gathered by x1' + x2' only into the
    per-outcome combination.  The (rows, outcomes) arrays are built
    SCORE_TAIL_BLOCK elements at a time.
    """
    x1, x2, theta, ge = (np.ravel(a) for a in np.broadcast_arrays(
        x1, x2, theta, ge))
    t = x1 + x2
    if np.any((t <= 0) | (t >= n1 + n2)):
        raise InfeasibleNuisance(
            f"observed nuisance outside (0, {n1 + n2}): no null (p1, p2)")
    ox1, ox2 = two_binomial_outcomes(n1, n2).T
    tn = ox1 + ox2
    boundary = (tn == 0) | (tn == n1 + n2)
    obs_p1, obs_p2 = _line_probs(theta, t, n1, n2)
    out = np.empty(len(t))
    block = max(1, SCORE_TAIL_BLOCK // len(tn))
    for start in range(0, len(t), block):
        r = slice(start, start + block)
        line = _sbar_line(*_line_probs(
            theta[r, None], np.arange(n1 + n2 + 1), n1, n2), n1, n2)
        stats = _sbar_combine(ox1, ox2, n1, n2, line, tn)
        stats[:, boundary] = 0.0
        obs = stats[np.arange(len(stats)), x1[r] * (n2 + 1) + x2[r], None]
        keep = np.where(ge[r, None], stats >= obs - 1e-12,
                        stats <= obs + 1e-12)
        logm = _log_masses(n1, n2, obs_p1[r], obs_p2[r])
        out[r] = [_mass_sum(lm, k) for lm, k in zip(logm, keep)]
    return out


def fisher_endpoint_tails(n1: int, n2: int, z_level: float = 0.95) -> list:
    """Score-test tails at the exact-interval endpoints, per interior cell.

    For each (x1, x2) with 0 < x1 < n1 and 0 < x2 < n2: compute the
    ``z_level`` exact interval, then the one-sided score tails at its
    two endpoints, all in one :func:`score_tails` call.  Rows are
    (x1, x2, left_tail, right_tail) where left refers to the lower
    endpoint; an endpoint at 0 or inf has tail 0.
    """
    x1, x2 = np.mgrid[1:n1, 1:n2].reshape(2, -1)
    lower, upper = fisher_exact_intervals(x1, x2, n1, n2, z_level)
    # at the lower endpoint the observed data sit in the upper score tail
    ends = np.concatenate([lower, upper])
    finite = (ends > 0.0) & np.isfinite(ends)
    ge = np.repeat([True, False], len(x1))
    tails = np.zeros(len(ends))
    tails[finite] = score_tails(n1, n2, np.tile(x1, 2)[finite],
                                np.tile(x2, 2)[finite], np.log(ends[finite]),
                                ge[finite])
    left, right = tails.reshape(2, -1).tolist()
    return list(zip(x1.tolist(), x2.tolist(), left, right))
