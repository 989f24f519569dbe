"""The hot numerical kernels, batched in NumPy.

Inversion of the two-binomial nuisance equation, the standardized
log-odds-ratio score, its z-interval in p1, the t3 location MLE and exact
one-sided tail inversion, each on whole arrays of rows at once, with one
implementation.  Every two-binomial root lies in ``_p1_range``, the
clipped feasible p1 range at a nuisance value: p1 at (theta, nuisance)
is a closed-form quadratic root.  Every other scalar root (the z-interval
edges, the t3 MLE, the exact tail endpoints) comes from ``_newton``.
The (theta, nuisance) -> (p1, p2) map is ``_line_probs``, the
(p1, nuisance) -> p2 step ``_line_p2`` and the log odds ratio
``_log_or``, here and nowhere else; so are the t3 score ``_t3_score``
and the standardized score's terms, ``_sbar_line`` and ``_sbar_combine``.
Every small symmetric eigenproblem of the information layer is
``_sym_eig``'s, cyclic Jacobi rotations in NumPy: no LAPACK routine is
loaded for a k x k block.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["invert_p1_batch", "sbar_profiled_batch", "zinterval_p1_batch",
           "t3_mle_batch"]

P1_CLIP = 1e-9  # shrink of the feasible p1 range away from the singular ends
TAIL_BLOCK = 1 << 17  # (row, support point) elements per block of tail roots
NEWTON_ITERS = 100  # cap on the safeguarded Newton steps of one root
T3_FTOL = 1e-10  # a t3 MLE row is done where |psi| is below this
TAIL_XTOL = 1e-7  # a tail root is done after a step this small
JACOBI_SWEEPS = 50  # cap on the cyclic Jacobi sweeps of one eigenproblem


@np.errstate(divide="ignore", invalid="ignore")
def _newton(f_and_df, x, lo, hi, rising, ftol, xtol):
    """Roots of f, one per row, by Newton steps from x kept in [lo, hi].

    ``f_and_df(x, live)`` gives f and f' at x per row, read only on the
    rows ``live`` selects: all (a slice) until one is done, then a mask.
    f rises where ``rising`` holds, else falls, so the sign of f alone
    makes x an end of the bracket.  A step x - f/f' is taken strictly
    inside the bracket, one too small to move x moves it a float, any
    other goes to the midpoint.  A row is done at |f| < ftol (before its
    step), after a step within xtol (kept, in the bracket or not), or
    when its bracket is two neighbouring floats both evaluated; an end
    never evaluated is evaluated first, the root may lie beyond it.
    Returns (roots, converged); a row not done in NEWTON_ITERS steps
    keeps its last point.
    """
    x = np.array(x, dtype=float)
    lo, hi = np.full(len(x), lo, dtype=float), np.full(len(x), hi, dtype=float)
    live = np.ones(len(x), dtype=bool)
    seen_lo = seen_hi = ~live  # f evaluated at that end of the bracket
    part = slice(None)
    # a row that is done keeps its x; its bracket goes stale, unread
    for _ in range(NEWTON_ITERS):
        f, df = f_and_df(x, part)
        if ftol:
            live = live & ~(np.abs(f) < ftol)
            if not np.count_nonzero(live):
                break
        above = (f < 0.0) == rising  # the root lies above x
        below = ~above
        np.copyto(lo, x, where=above)
        np.copyto(hi, x, where=below)
        seen_lo, seen_hi = seen_lo | above, seen_hi | below
        step = f / df
        new = x - step
        done = np.abs(step) <= xtol
        bad = live & ~(done | (new > lo) & (new < hi))
        if np.count_nonzero(bad):
            # a step too small to move x moves it one float towards the
            # root; any other step out of the bracket goes to its midpoint
            mid = np.where(new == x, np.nextafter(x, np.where(above, hi, lo)),
                           0.5 * (lo + hi))
            np.copyto(new, mid, where=bad)
            shut = bad & ((mid == lo) | (mid == hi))  # too narrow to halve
            done = done | shut & seen_lo & seen_hi
            np.copyto(new, lo, where=shut & ~seen_lo)
            np.copyto(new, hi, where=shut & ~seen_hi)
        np.copyto(x, new, where=live)
        live = live & ~done
        left = np.count_nonzero(live)
        if not left:
            break
        if left < len(x):
            part = live
    return x, ~live


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


@np.errstate(divide="ignore", invalid="ignore")
def invert_p1_batch(theta, tnuis, n1, n2):
    """Solve n1*p1 + n2*expit(logit(p1) - theta) = tnuis for p1, elementwise.

    ``theta`` and ``tnuis`` broadcast.  Times (p1 + e^theta (1 - p1)) r it
    is a p1^2 + b p1 + c = 0, the fitted 2 x 2 cell at given margins and
    odds ratio (Breslow & Day 1980), where s = expit(theta), r = 1 - s,
    a = n1 (r - s), b = (n1 + tnuis) s + (n2 - tnuis) r and c = -tnuis s.
    Its root in (0, 1) is c/q if b >= 0, else q/a: q = -(b + sign(b) d)/2,
    d^2 = ((n1 - tnuis) s - (n2 - tnuis) r)^2 + 4 n1 n2 r s (no cancellation),
    clipped to :func:`_p1_range`; NaN where tnuis is outside (0, n1+n2).
    """
    theta, tnuis = np.asarray(theta, float), np.asarray(tnuis, float)
    lo, hi, ok = _p1_range(tnuis, n1, n2)
    e = np.exp(-np.abs(theta))  # so s and r keep their relative precision
    s = np.where(theta >= 0.0, 1.0, e) / (1.0 + e)
    r = np.where(theta >= 0.0, e, 1.0) / (1.0 + e)
    b = (n1 + tnuis) * s + (n2 - tnuis) * r
    q = 0.5 * (np.abs(b) + np.sqrt(((n1 - tnuis) * s - (n2 - tnuis) * r) ** 2
                                   + 4.0 * n1 * n2 * r * s))  # |q|
    p1 = np.where(b >= 0.0, tnuis * s / q, q / (n1 * (r - s)))
    return np.where(ok, np.clip(p1, lo, hi), np.nan)


def _line_p2(p1, tnuis, n1, n2):
    """p2 = (tnuis - n1 p1)/n2, elementwise: the other coordinate of p1 on
    the nuisance line n1 p1 + n2 p2 = tnuis."""
    return (tnuis - n1 * p1) / n2


def _line_probs(theta, tnuis, n1, n2):
    """(p1, p2) at log odds ratio theta on the nuisance line
    n1 p1 + n2 p2 = tnuis, elementwise: p1 from :func:`invert_p1_batch`
    (NaN where it has none), p2 from :func:`_line_p2`."""
    p1 = invert_p1_batch(theta, tnuis, n1, n2)
    return p1, _line_p2(p1, tnuis, n1, n2)


def _log_or(p1, p2):
    """logit p1 - logit p2, elementwise."""
    return _logit(p1) - _logit(p2)


def sbar_profiled_batch(x1, x2, n1, n2, p1, p2):
    """Standardized two-binomial interest score at (p1, p2), elementwise.

    Formula: [1/(n1 p1 q1) + 1/(n2 p2 q2)]^(-1/2)
             * [(x1/n1 - p1)/(p1 q1) - (x2/n2 - p2)/(p2 q2)],
    the difference reflecting that the interest parameter is the
    difference of the two logits.
    """
    x1, x2, p1, p2 = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (x1, x2, p1, p2)))
    return _sbar_combine(x1, x2, n1, n2, _sbar_line(p1, p2, n1, n2))


def _sbar_line(p1, p2, n1, n2):
    """(p1, p2, a1, a2, pref): the terms of sbar that depend on (p1, p2)
    alone, a_i = p_i (1 - p_i) and pref = [1/(n1 a1) + 1/(n2 a2)]^(-1/2),
    elementwise."""
    a1 = p1 * (1.0 - p1)
    a2 = p2 * (1.0 - p2)
    pref = 1.0 / np.sqrt(1.0 / (n1 * a1) + 1.0 / (n2 * a2))
    return p1, p2, a1, a2, pref


def _sbar_combine(x1, x2, n1, n2, line, at=None):
    """sbar of the outcomes (x1, x2) from the :func:`_sbar_line` terms:
    pref * ((x1/n1 - p1)/a1 - (x2/n2 - p2)/a2), in place.

    With ``at`` None the terms have the outcomes' shape.  Otherwise outcome
    j reads them at index at[j] of their last axis, so terms taken once per
    nuisance value serve every outcome on it, and the result is
    (..., len(at)).
    """
    def take(v):  # at is in range: "clip" checks no bound
        return v if at is None else np.take(v, at, axis=-1, mode="clip")

    p1, p2, a1, a2, pref = line
    s = np.subtract(x1 / n1, take(p1))
    s /= take(a1)
    e2 = np.subtract(x2 / n2, take(p2))
    e2 /= take(a2)
    s -= e2
    s *= take(pref)
    return s


def _sbar_slope(p1, c1, c2, tnuis, n1, n2):
    """sbar at p1 and p2 = (tnuis - n1 p1)/n2, c_i = x_i/n_i, rounded as
    :func:`sbar_profiled_batch` rounds it, and its derivative in p1."""
    p2 = _line_p2(p1, tnuis, n1, n2)
    a1, a2 = p1 * (1.0 - p1), p2 * (1.0 - p2)
    e1, e2 = c1 - p1, c2 - p2
    var = 1.0 / (n1 * a1) + 1.0 / (n2 * a2)
    dif = e1 / a1 - e2 / a2
    # derivatives in p1, with dp2/dp1 = -n1/n2
    d_dif = (-(1.0 + e1 * (1.0 - 2.0 * p1) / a1) / a1
             - n1 / n2 * (1.0 + e2 * (1.0 - 2.0 * p2) / a2) / a2)
    d_var = (n1 / n2 * (1.0 - 2.0 * p2) / (n2 * a2 * a2)
             - (1.0 - 2.0 * p1) / (n1 * a1 * a1))
    pref = 1.0 / np.sqrt(var)
    return pref * dif, pref * (d_dif - 0.5 * dif * d_var / var)


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


def _rotate(m, p, q, c, s):
    """Columns p and q of m, in place, to c m_p - s m_q and s m_p + c m_q."""
    mp = m[:, p].copy()
    m[:, p] = c * mp - s * m[:, q]
    m[:, q] = s * mp + c * m[:, q]


def _sym_eig(a):
    """(w, U): the eigenvalues of a small symmetric matrix, ascending, and
    orthonormal eigenvectors as the columns of U, by cyclic Jacobi
    rotations (Golub & Van Loan, Matrix Computations, section 8.5).

    A sweep visits each pair p < q once and rotates a[p, q] to zero,
    unless it is negligible: adding 100 |a[p, q]| changes neither |a[p, p]|
    nor |a[q, q]| (Rutishauser's test).  The tangent is the smaller root
    t = sign(theta) / (|theta| + hypot(1, theta)), theta = (a[q, q] -
    a[p, p]) / (2 a[p, q]), in Python floats, so an off-diagonal entry of
    round-off size gives t = 0, never an overflow warning.  Done after a
    sweep with no rotation: a 1 x 1 or diagonal matrix comes back as is
    with the identity's columns, a 1 x 1 bit for bit as LAPACK returns
    it.  RuntimeError for a non-finite entry, or when JACOBI_SWEEPS
    sweeps all rotate.
    """
    a = np.array(a, dtype=float)
    if not np.isfinite(a).all():
        raise RuntimeError(f"symmetric eigenproblem with a non-finite "
                           f"entry: {a.tolist()}")
    k = len(a)
    v = np.eye(k)
    for _ in range(JACOBI_SWEEPS):
        rotated = False
        for p in range(k - 1):
            for q in range(p + 1, k):
                app, aqq, apq = float(a[p, p]), float(a[q, q]), float(a[p, q])
                g = 100.0 * abs(apq)
                if abs(app) + g == abs(app) and abs(aqq) + g == abs(aqq):
                    continue
                theta = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta)
                                                 + math.hypot(1.0, theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                for m in (a, a.T, v):  # a J, then J^t (a J), and v J
                    _rotate(m, p, q, c, t * c)
                a[p, p], a[q, q] = app - t * apq, aqq + t * apq
                a[p, q] = a[q, p] = 0.0
                rotated = True
        if not rotated:
            break
    else:
        raise RuntimeError(
            f"Jacobi rotations not converged in {JACOBI_SWEEPS} sweeps")
    w = a.diagonal().copy()
    # the order np.argsort(w, kind="stable") gives, without the first call
    # of a NumPy sort, which maps 0.1-0.2 MB of its code into the process
    order = sorted(range(k), key=w.tolist().__getitem__)
    return w[order], v[:, order]


def _sym_solve(w, U, B):
    """X with U diag(w) U^t X = B, as U diag(1/w) U^t B: a solve by a
    positive definite block from its :func:`_sym_eig`, or by each of a
    stack of them, w (P, k), U (P, k, k) and B (P, k, m).  For a 1 x 1
    block it is B / w, as LAPACK's solve rounds it."""
    return U @ ((U.swapaxes(-1, -2) @ B) / w[..., :, None])


def zinterval_p1_batch(x1, x2, n1, n2, tnuis, z):
    """Solve sbar^2 <= z^2 in p1 at fixed nuisance value, per data row.

    For each (x1[i], x2[i], tnuis[i]) the solution set is the component,
    within the feasible p1 range, that holds the point where |sbar| is
    smallest.  Returns (p1_lo, p1_hi, at_lo, at_hi, ok) where the ``at_*`` flags
    mark components that run into the clipped range ends (half-infinite
    in theta) and ``ok`` is False for rows with no feasible p1: tnuis at
    0 or n1+n2, or so near either that the clipped range is empty.  When
    sbar^2 > z^2 everywhere the whole feasible range comes back, flagged
    at both ends.

    With p2 = (tnuis - n1 p1)/n2 and a_i = p_i (1 - p_i), sbar^2 - z^2
    has the sign of the degree-6 polynomial
    n1 n2 B^2 - z^2 (n1 a1 + n2 a2) a1 a2, where the cubic
    B = (x1/n1 - p1) a2 - (x2/n2 - p2) a1 vanishes where sbar does.
    Their real roots in the range, from batched companion matrices,
    serve only as breakpoints: signs, the anchor and the components are
    read off sbar itself at the breakpoints and their midpoints, and each
    edge is polished by ``_newton`` on sbar -/+ z between its last inside
    and first outside point, since the expanded polynomial loses accuracy
    near the range ends; of two floats that straddle an edge, the inside
    one is kept.  An edge not converged raises RuntimeError naming its row.
    """
    x1, x2, tnuis = (np.atleast_1d(np.asarray(v, dtype=float))
                     for v in (x1, x2, tnuis))
    lo, hi, ok = _p1_range(tnuis, n1, n2)
    x1, x2, t, lo, hi = (v[ok] for v in (x1, x2, tnuis, lo, hi))

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

    s = sbar_profiled_batch(x1[:, None], x2[:, None], n1, n2, pts,
                            _line_p2(pts, t[:, None], n1, n2))
    inside = s * s - z * z <= 0.0

    # the run of inside points jl..jr around the anchor j; when any point
    # is inside, so is the anchor
    j = np.argmin(np.abs(s), axis=1)
    idx = np.arange(pts.shape[1])
    jl = np.where(~inside & (idx < j[:, None]), idx, -1).max(axis=1) + 1
    jr = np.where(~inside & (idx > j[:, None]), idx, len(idx)).min(axis=1) - 1
    none = ~inside.any(axis=1)
    at = np.stack([none | (jl == 0), none | (jr == len(idx) - 1)], axis=1)

    # each inner edge is the root of sign * sbar - z between the last
    # inside point b and the first outside one a, sign that of sbar at a
    r, side = np.nonzero(~at)
    jb = np.where(side == 0, jl[r], jr[r])
    ja = jb + 2 * side - 1
    b, a = pts[r, jb], pts[r, ja]
    sign = np.copysign(1.0, s[r, ja])
    ex1, ex2, et = x1[r] / n1, x2[r] / n2, t[r]

    def gap(p1, live):
        s, slope = _sbar_slope(p1, ex1, ex2, et, n1, n2)
        return sign * s - z, sign * slope

    # from the breakpoint end (even index), the nearer the root
    edge, conv = _newton(gap, np.where(ja % 2, b, a), np.minimum(a, b),
                         np.maximum(a, b), a > b, 0.0, 0.0)
    if not conv.all():
        i = np.argmin(conv)
        raise RuntimeError(
            f"row {np.flatnonzero(ok)[r[i]]}: {('lower', 'upper')[side[i]]} "
            "z-interval edge not converged")
    # a bracket shut on two neighbouring floats ends on either: keep the
    # inside one
    outside = gap(edge, slice(None))[0] > 0.0
    edge = np.where(outside, np.nextafter(edge, b), edge)
    edges = np.full((len(ok), 2), np.nan)
    edges[ok] = np.stack([lo, hi], axis=1)
    edges[np.flatnonzero(ok)[r], side] = edge
    flags = np.zeros((len(ok), 2), dtype=bool)
    flags[ok] = at
    return (*edges.T, *flags.T, ok)


def _invert_tails(coef, which, cut, ge, log_alpha, center, se, bound, name):
    """lam with log Pr_lam(tail) = log_alpha, one per row.

    Row i has Pr(X = k) proportional to exp(coef[which[i], k] + k lam),
    k = 0..K-1, and tail X >= cut[i] where ge[i], else X < cut[i], so
    log Pr(tail) rises in lam where ge[i] and falls elsewhere, with slope
    E[X | tail] - E[X].  ``_newton`` starts from center[i] -/+ z se[i]
    (- where ge[i]; z: Shore's 1982 normal alpha quantile) in the bracket
    [-bound, bound].  Rows go TAIL_BLOCK elements at a time, each done
    after a step within TAIL_XTOL (its error is of order the step
    squared) or a bracket too narrow to halve.  No root in
    [-bound, bound] raises RuntimeError naming ``name(i)``.
    """
    ks = np.arange(coef.shape[1], dtype=float)
    which, cut, ge = (np.atleast_1d(v) for v in (which, cut, ge))
    alpha = np.exp(log_alpha)
    z = 5.5556 * (1.0 - (alpha / (1.0 - alpha)) ** 0.1186)
    out = np.clip(center - np.where(ge, z, -z) * se, -bound, bound)
    block = max(1, TAIL_BLOCK // len(ks))
    for first in range(0, len(out), block):
        rows = slice(first, first + block)
        lc, up = coef[which[rows]], ge[rows]
        tail = (ks >= cut[rows, None]) == up[:, None]

        def law(lam, live):
            w = lam[live, None] * ks + lc[live]
            w = np.exp(w - w.max(axis=1, keepdims=True))
            s, m = w.sum(axis=1), w @ ks
            w *= tail[live]
            s_t, m_t = w.sum(axis=1), w @ ks
            h, slope = np.log(s_t / s) - log_alpha, m_t / s_t - m / s
            if isinstance(live, slice):
                return h, slope
            f, df = np.full((2, len(lam)), np.nan)
            f[live], df[live] = h, slope
            return f, df

        out[rows], conv = _newton(law, out[rows], -bound, bound, up, 0.0,
                                  TAIL_XTOL)
        if not conv.all():
            raise RuntimeError(f"{name(first + np.argmin(conv))}: no tail "
                               f"root in [{-bound:g}, {bound:g}]")
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


def _t3_score(d):
    """(psi(d), 3 + d^2), elementwise: psi(d) = 4d/(3 + d^2) is the score
    of the unit-scale t3 density at the residual d."""
    den = 3.0 + d * d
    return 4.0 * d / den, den


def t3_mle_batch(samples):
    """Location MLE of the unit-scale t3 family, one root per sample row.

    ``_newton`` on the falling sum of :func:`_t3_score` psi(x - a),
    starting from the row median, in the bracket [min(x)-1, max(x)+1]
    where a sign change is guaranteed; a row is done where
    |psi| < T3_FTOL.  Returns (roots, converged).
    """
    x = np.atleast_2d(np.asarray(samples, dtype=float))

    def psi(a, live):
        d = x - a[:, None]
        s, den = _t3_score(d)
        f = np.sum(s, axis=1)
        # freed before the slope's temporaries: kept through them, it
        # doubled a normal zeta-lab job's minor page faults
        del s
        return f, np.sum(4.0 * (d * d - 3.0) / (den * den), axis=1)

    return _newton(psi, row_median(x), x.min(axis=1) - 1.0,
                   x.max(axis=1) + 1.0, False, T3_FTOL, 0.0)
