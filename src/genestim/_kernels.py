"""The hot numerical kernels, batched in NumPy.

Profile-root inversion of the two-binomial nuisance equation, the
standardized log-odds-ratio score, its z-interval in p1, the t3 location
MLE and exact one-sided tail inversion, each on whole arrays of rows at
once, with one implementation.  Every two-binomial root is bracketed by
``_p1_range``, the clipped feasible p1 range at a nuisance value, or by
a fixed bracket, and halved by ``_bisect``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["invert_p1_batch", "sbar_profiled_batch", "zinterval_p1_batch",
           "t3_mle_batch"]

P1_CLIP = 1e-9  # shrink of the feasible p1 range away from the singular ends
BISECT_ITERS = 80  # bisection steps; 2^-80 of the unit interval << 1e-12
EDGE_ITERS = 60  # bisection steps per z-interval edge
TAIL_BLOCK = 1 << 17  # (row, support point) elements per block of tail roots
TAIL_ITERS = 100  # cap on the safeguarded Newton steps of one tail root


def _bisect(to_a, a, b, iters):
    """Halve the brackets (a, b) elementwise ``iters`` times: mid replaces
    a where ``to_a(mid)`` holds, else b, so a may lie above b."""
    for _ in range(iters):
        mid = 0.5 * (a + b)
        left = to_a(mid)
        a = np.where(left, mid, a)
        b = np.where(left, b, mid)
    return a, b


def _p1_range(tnuis, n1, n2):
    """(lo, hi, ok): the p1 range where p2 = (tnuis - n1 p1)/n2 is in
    (0, 1) at nuisance ``tnuis``, both ends moved in by P1_CLIP; ``ok`` is
    False where tnuis is outside (0, n1+n2) or the range is empty."""
    lo = np.maximum(P1_CLIP, (tnuis - n2) / n1 + P1_CLIP)
    hi = np.minimum(1.0 - P1_CLIP, tnuis / n1 - P1_CLIP)
    return lo, hi, (tnuis > 0.0) & (tnuis < n1 + n2) & (lo < hi)


def _expit(x):
    """Logistic function 1/(1 + exp(-x)) as 0.5 (1 + tanh(x/2)).

    Overflows nowhere.  Its error is absolute, below ulp(1) = 2.2e-16,
    so from x = -38 down it returns 0.
    """
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _logit(p):
    """log(p / (1 - p)).

    Its error is a few ulp of max(1, |logit p|): absolute near p = 1/2,
    where SciPy switches to a log1p form.
    """
    return np.log(p / (1.0 - p))


def invert_p1_batch(theta, tnuis, n1, n2):
    """Solve n1*p1 + n2*expit(logit(p1) - theta) = tnuis for p1, elementwise.

    ``theta`` and ``tnuis`` broadcast against each other.  The map is
    strictly increasing in p1 on the feasible range (:func:`_p1_range`),
    so plain bisection is reliable.  Entries with tnuis outside
    (0, n1+n2) come back as NaN.
    """
    theta = np.asarray(theta, dtype=float)
    tnuis = np.asarray(tnuis, dtype=float)
    theta, tnuis = np.broadcast_arrays(theta, tnuis)
    lo, hi, ok = _p1_range(tnuis, n1, n2)

    def low(p1):
        return n1 * p1 + n2 * _expit(_logit(p1) - theta) - tnuis < 0.0

    a, b = _bisect(low, np.where(ok, lo, 0.25), np.where(ok, hi, 0.75),
                   BISECT_ITERS)
    return np.where(ok, 0.5 * (a + b), np.nan)


def sbar_profiled_batch(x1, x2, n1, n2, p1, p2):
    """Standardized two-binomial interest score at (p1, p2), elementwise.

    Formula: [1/(n1 p1 q1) + 1/(n2 p2 q2)]^(-1/2)
             * [(x1/n1 - p1)/(p1 q1) - (x2/n2 - p2)/(p2 q2)],
    the difference reflecting that the interest parameter is the
    difference of the two logits.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    a1 = p1 * (1.0 - p1)
    a2 = p2 * (1.0 - p2)
    pref = 1.0 / np.sqrt(1.0 / (n1 * a1) + 1.0 / (n2 * a2))
    return pref * ((x1 / n1 - p1) / a1 - (x2 / n2 - p2) / a2)


def _pmul(a, b):
    """Row-wise product of polynomials with ascending coefficient rows."""
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
                   + (a.shape[-1] + b.shape[-1] - 1,))
    for i in range(a.shape[-1]):
        out[..., i:i + b.shape[-1]] += a[..., i:i + 1] * b
    return out


def _real_roots(coef):
    """Real roots of each row's polynomial, NaN for the complex ones.

    ``coef`` holds ascending coefficients with a nonzero leading one; the
    roots are the eigenvalues of the stacked companion matrices.
    """
    deg = coef.shape[-1] - 1
    comp = np.zeros(coef.shape[:-1] + (deg, deg))
    comp[..., 1:, :-1] = np.eye(deg - 1)
    comp[..., :, -1] = -coef[..., :-1] / coef[..., -1:]
    roots = np.linalg.eigvals(comp)
    return np.where(roots.imag == 0.0, roots.real, np.nan)


def zinterval_p1_batch(x1, x2, n1, n2, tnuis, z):
    """Solve sbar^2 <= z^2 in p1 at fixed nuisance value, per data row.

    For each (x1[i], x2[i], tnuis[i]) the solution set is the component,
    within the feasible p1 range, that holds the point where |sbar| is
    smallest.  Returns (p1_lo, p1_hi, at_lo, at_hi, ok) where the ``at_*`` flags
    mark components that run into the clipped range ends (half-infinite
    in theta) and ``ok`` is False for degenerate rows (tnuis at 0 or
    n1+n2: no feasible p1 at all).  When sbar^2 > z^2 everywhere the
    whole feasible range comes back, flagged at both ends.

    With p2 = (tnuis - n1 p1)/n2 and a_i = p_i (1 - p_i), sbar^2 - z^2
    has the sign of the degree-6 polynomial
    n1 n2 B^2 - z^2 (n1 a1 + n2 a2) a1 a2, where the cubic
    B = (x1/n1 - p1) a2 - (x2/n2 - p2) a1 vanishes where sbar does.
    Their real roots in the range, from batched companion matrices,
    serve only as breakpoints: signs, the anchor and the components are
    read off sbar itself at the breakpoints and their midpoints, and each
    edge is bisected on sbar^2 - z^2, since the expanded polynomial loses
    accuracy near the range ends.
    """
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    tnuis = np.atleast_1d(np.asarray(tnuis, dtype=float))
    m = x1.shape[0]
    lo, hi, ok = _p1_range(tnuis, n1, n2)
    p1_lo = np.full(m, np.nan)
    p1_hi = np.full(m, np.nan)
    at_lo = np.zeros(m, dtype=bool)
    at_hi = np.zeros(m, dtype=bool)
    x1, x2, t, lo, hi = (v[ok] for v in (x1, x2, tnuis, lo, hi))

    def sbar(p1):
        return sbar_profiled_batch(x1[:, None], x2[:, None], n1, n2, p1,
                                   (t[:, None] - n1 * p1) / n2)

    # ascending coefficients in p1, one row per data row; p2 = u + v p1
    one = np.ones((len(t), 1))
    u = t[:, None] / n2
    v = -n1 / n2
    a1 = np.array([[0.0, 1.0, -1.0]])
    a2 = np.hstack([u - u * u, v - 2.0 * u * v, -v * v * one])
    d1 = np.hstack([x1[:, None] / n1, -one])  # x1/n1 - p1
    d2 = np.hstack([x2[:, None] / n2 - u, -v * one])  # x2/n2 - p2
    cubic = _pmul(d1, a2) - _pmul(d2, a1)
    sextic = (n1 * n2 * _pmul(cubic, cubic)
              - z * z * _pmul(_pmul(n1 * a1 + n2 * a2, a1), a2))

    # complex roots (NaN) and roots outside the range become copies of hi
    roots = np.hstack([_real_roots(sextic), _real_roots(cubic)])
    roots = np.where((roots > lo[:, None]) & (roots < hi[:, None]), roots,
                     hi[:, None])
    ends = np.sort(np.hstack([lo[:, None], roots, hi[:, None]]), axis=1)
    pts = np.empty((len(t), 2 * ends.shape[1] - 1))
    pts[:, 0::2] = ends
    pts[:, 1::2] = 0.5 * (ends[:, :-1] + ends[:, 1:])

    def within(sm):
        return sm * sm - z * z <= 0.0

    s = sbar(pts)
    inside = within(s)

    # the run of inside points jl..jr around the anchor j; when any point
    # is inside, so is the anchor
    rows = np.arange(len(t))
    j = np.argmin(np.abs(s), axis=1)
    idx = np.arange(pts.shape[1])
    jl = np.where(~inside & (idx < j[:, None]), idx, -1).max(axis=1) + 1
    jr = np.where(~inside & (idx > j[:, None]), idx, len(idx)).min(axis=1) - 1

    # both edges of every row at once: b starts inside the set, a outside
    b = np.stack([pts[rows, jl], pts[rows, jr]], axis=1)
    a = np.stack([pts[rows, np.maximum(jl - 1, 0)],
                  pts[rows, np.minimum(jr + 1, len(idx) - 1)]], axis=1)
    b, _ = _bisect(lambda p1: within(sbar(p1)), b, a, EDGE_ITERS)

    none = ~inside.any(axis=1)
    lo_end = none | (jl == 0)
    hi_end = none | (jr == len(idx) - 1)
    p1_lo[ok] = np.where(lo_end, lo, b[:, 0])
    p1_hi[ok] = np.where(hi_end, hi, b[:, 1])
    at_lo[ok] = lo_end
    at_hi[ok] = hi_end
    return p1_lo, p1_hi, at_lo, at_hi, ok


@np.errstate(divide="ignore", invalid="ignore")
def _invert_tails(coef, which, cut, ge, log_alpha, center, se, bound, name):
    """lam with log Pr_lam(tail) = log_alpha, one per row.

    Row i has Pr(X = k) proportional to exp(coef[which[i], k] + k lam),
    k = 0..K-1, and tail X >= cut[i] where ge[i], else X < cut[i].  Newton
    steps, by d/dlam log Pr(tail) = E[X | tail] - E[X], go from center[i]
    -/+ z se[i] (- where ge[i]; z: Shore's 1982 normal alpha quantile) in
    a bracket, first [-bound, bound], that shrinks to each point
    evaluated; a step out of it goes to its midpoint.  Rows go TAIL_BLOCK
    elements at a time, each done after a step within 1e-7 (its error is
    of order the step squared) or a bracket too narrow to halve.  No root
    in [-bound, bound] raises RuntimeError naming ``name(i)``.
    """
    ks = np.arange(coef.shape[1], dtype=float)
    which, cut, ge = (np.atleast_1d(v) for v in (which, cut, ge))
    alpha = np.exp(log_alpha)
    z = 5.5556 * (1.0 - (alpha / (1.0 - alpha)) ** 0.1186)
    out = np.clip(center - np.where(ge, z, -z) * se, -bound, bound)
    block = max(1, TAIL_BLOCK // len(ks))
    for first in range(0, len(out), block):
        rows = np.arange(first, min(first + block, len(out)))
        lc, up, lam = coef[which[rows]], ge[rows], out[rows]
        tail = (ks >= cut[rows, None]) == up[:, None]
        lo, hi = np.full(len(rows), -bound), np.full(len(rows), bound)
        for _ in range(TAIL_ITERS):
            w = lam[:, None] * ks + lc
            w = np.exp(w - w.max(axis=1, keepdims=True))
            s, m = w.sum(axis=1), w @ ks
            w *= tail
            s_t, m_t = w.sum(axis=1), w @ ks
            h = np.log(s_t / s) - log_alpha
            step = h / (m / s - m_t / s_t)
            rise = (h < 0.0) == up  # the root lies above lam
            np.copyto(lo, lam, where=rise)
            np.copyto(hi, lam, where=~rise)
            lam = lam + step
            done = np.abs(step) <= 1e-7
            bad = ~(done | (lam > lo) & (lam < hi))
            if np.count_nonzero(bad):
                np.copyto(lam, 0.5 * (lo + hi), where=bad)
                # done: a bracket too narrow to halve, unless shut on a bound
                done |= (bad & ((lam == lo) | (lam == hi)) & (lo > -bound)
                         & (hi < bound))
            if np.count_nonzero(done):
                out[rows[done]] = lam[done]
                if done.all():
                    break
                rows, lc, up, tail, lam, lo, hi = (
                    v[~done] for v in (rows, lc, up, tail, lam, lo, hi))
        else:
            raise RuntimeError(f"{name(rows[0])}: no tail root in "
                               f"[{-bound:g}, {bound:g}]")
    return out


def row_median(x):
    """Row medians of a 2-D array from one sort, as np.median(x, axis=1).

    np.median takes the mean of the middle value or two, a sum that starts
    from +0.0, so here an even row gives (a + b + 0.0) / 2 and an odd row
    its middle value + 0.0 (a -0.0 median comes out +0.0); a row holding a
    NaN gives NaN.  The two agree bit for bit.
    """
    s = np.sort(x, axis=1)
    n = s.shape[1]
    h = n // 2
    med = s[:, h] + 0.0 if n % 2 else (s[:, h - 1] + s[:, h] + 0.0) / 2.0
    return np.where(np.isnan(s[:, -1]), np.nan, med)


def t3_mle_batch(samples):
    """Location MLE of the unit-scale t3 family, one root per sample row.

    Safeguarded Newton on psi(a) = sum 4(x-a)/(3+(x-a)^2) starting from
    the row median, with a bracket kept on [min(x)-1, max(x)+1] where a
    sign change is guaranteed.  Returns (roots, converged).
    """
    x = np.atleast_2d(np.asarray(samples, dtype=float))
    m = x.shape[0]
    a = row_median(x)
    lo = x.min(axis=1) - 1.0
    hi = x.max(axis=1) + 1.0
    active = np.ones(m, dtype=bool)
    for _ in range(200):
        d = x - a[:, None]
        den = 3.0 + d * d
        psi = np.sum(4.0 * d / den, axis=1)
        dpsi = np.sum(4.0 * (d * d - 3.0) / (den * den), axis=1)
        conv = np.abs(psi) < 1e-10
        active &= ~conv
        if not np.any(active):
            break
        # shrink bracket: psi decreasing through the root
        pos = psi > 0.0
        lo = np.where(active & pos, a, lo)
        hi = np.where(active & ~pos, a, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(dpsi < 0.0, -psi / dpsi, np.nan)
        cand = a + step
        bad = ~np.isfinite(cand) | (cand <= lo) | (cand >= hi)
        cand = np.where(bad, 0.5 * (lo + hi), cand)
        a = np.where(active, cand, a)
    d = x - a[:, None]
    psi = np.sum(4.0 * d / (3.0 + d * d), axis=1)
    return a, np.abs(psi) < 1e-8
