"""Kernels against independent oracles."""

import importlib.util
import math
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genestim import _kernels as K
from genestim import families as F
from genestim.oddsratio import plus_c_nuisance

N1, N2 = 20, 30


def _rng():
    return np.random.default_rng(1234)


def test_invert_p1_solves_the_nuisance_equation():
    rng = _rng()
    theta = rng.uniform(-4, 4, 200)
    tnuis = rng.uniform(0.5, N1 + N2 - 0.5, 200)
    p1 = K.invert_p1_batch(theta, tnuis, N1, N2)
    lo = np.maximum(0.0, (tnuis - N2) / N1)
    hi = np.minimum(1.0, tnuis / N1)
    assert np.all((p1 > lo) & (p1 < hi))
    p2 = 1.0 / (1.0 + np.exp(-(np.log(p1 / (1 - p1)) - theta)))
    np.testing.assert_allclose(N1 * p1 + N2 * p2, tnuis, atol=5e-10)


def test_invert_p1_degenerate_nuisance_is_nan():
    out = K.invert_p1_batch([0.0, 1.0], [0.0, N1 + N2], N1, N2)
    assert np.isnan(out).all()


SHAPES = ((1, 1), (20, 30), (1000, 3), (3, 1000))
THETAS = (-50.0, -30.0, -20.0, -5.0, -1.0, -1e-6, 0.0, 1e-6, 1.0, 5.0,
          20.0, 30.0, 50.0)


def _theta_tnuis_grid(n1, n2):
    """Every theta against nuisance values at, within 1e-8 of and
    between the ends of (0, n1 + n2)."""
    n = n1 + n2
    tnuis = (0.0, 1e-8, 3e-8, 1e-3, 0.5, n1, n2, 0.5 * n, n - 0.5,
             n - 1e-3, n - 3e-8, n - 1e-8, n)
    theta, tnuis = np.meshgrid(THETAS, tnuis)
    return theta.ravel(), tnuis.ravel().astype(float)


def _exact_p1(theta, tnuis, n1, n2):
    """The root in (0, 1) of n1 p + n2 p / (p + e^theta (1 - p)) = tnuis,
    the nuisance equation itself, bisected 120 times in 60-digit decimal
    arithmetic from the float inputs taken exactly."""
    with localcontext() as ctx:
        ctx.prec = 60
        odds, t = Decimal(float(theta)).exp(), Decimal(float(tnuis))
        a, b = Decimal(0), Decimal(1)
        for _ in range(120):
            m = (a + b) / 2
            if n1 * m + n2 * m / (m + odds * (1 - m)) < t:
                a = m
            else:
                b = m
        return (a + b) / 2


def _bisect_p1(theta, tnuis, n1, n2):
    """The 80-step bisection in p1 that the closed form replaced."""
    lo, hi, ok = K._p1_range(tnuis, n1, n2)
    a, b = np.where(ok, lo, 0.25), np.where(ok, hi, 0.75)
    for _ in range(80):
        mid = 0.5 * (a + b)
        low = n1 * mid + n2 * K._expit(K._logit(mid) - theta) - tnuis < 0.0
        a, b = np.where(low, mid, a), np.where(low, b, mid)
    return np.where(ok, 0.5 * (a + b), np.nan)


def _invert_p1_quietly(theta, tnuis, n1, n2):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return K.invert_p1_batch(theta, tnuis, n1, n2)


@pytest.mark.parametrize("n1, n2", SHAPES)
def test_invert_p1_is_the_exact_root_or_a_range_end(n1, n2):
    theta, tnuis = _theta_tnuis_grid(n1, n2)
    got = _invert_p1_quietly(theta, tnuis, n1, n2)
    lo, hi, ok = K._p1_range(tnuis, n1, n2)
    assert np.array_equal(np.isnan(got), ~ok)
    for i in np.flatnonzero(ok):
        want = _exact_p1(theta[i], tnuis[i], n1, n2)
        if want <= lo[i]:
            assert got[i] == lo[i]
        elif want >= hi[i]:
            assert got[i] == hi[i]
        else:
            assert abs(Decimal(float(got[i])) - want) <= Decimal(1e-14) * want


@pytest.mark.parametrize("n1, n2", SHAPES)
def test_invert_p1_agrees_with_the_bisection_it_replaced(n1, n2):
    theta, tnuis = _theta_tnuis_grid(n1, n2)
    got = _invert_p1_quietly(theta, tnuis, n1, n2)
    with np.errstate(divide="ignore", invalid="ignore"):
        old = _bisect_p1(theta, tnuis, n1, n2)
    assert np.array_equal(np.isnan(got), np.isnan(old))
    lo, hi, ok = K._p1_range(tnuis, n1, n2)
    ends = ok & ((got == lo) | (got == hi))
    # the bisection's last midpoint sits within an ulp or two of the end
    assert np.all(np.abs(old - got)[ends] <= 2 * np.spacing(got[ends]))
    # its own error: the absolute error of expit in the n2 p2 term, over
    # a slope of at least n1
    inner = ok & ~ends
    np.testing.assert_allclose(old[inner], got[inner], rtol=2e-9,
                               atol=2.3e-16 * (n1 + n2) / n1)


def test_expit_matches_scipy_to_an_ulp_of_one():
    from scipy.special import expit
    x = np.concatenate([np.linspace(-700.0, 700.0, 20001),
                        [-700.0, -38.0, -37.0, -1e-300, 0.0, 37.0, 700.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = K._expit(x)
    assert np.all((got >= 0.0) & (got <= 1.0))
    # the tanh form's error is absolute, below ulp(1) = 2.2e-16
    np.testing.assert_allclose(got, expit(x), rtol=0.0, atol=2.3e-16)
    assert K._expit(700.0) == 1.0 and K._expit(-700.0) < 1e-300


def test_logit_matches_scipy_near_the_ends_and_inside():
    from scipy.special import logit
    ends = np.array([1e-300, 2.0 ** -53, 5e-16, 1e-15, 1.0 - 1e-15,
                     1.0 - 2.0 ** -53, 1.0 - 5e-16])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = K._logit(ends)
    np.testing.assert_allclose(got, logit(ends), rtol=1e-15)
    # near 1/2 SciPy switches to log1p(2p - 1) - log1p(1 - 2p); the ratio
    # form keeps an absolute error of a few ulp of 1
    p = np.linspace(1e-6, 1.0 - 1e-6, 20001)
    np.testing.assert_allclose(K._logit(p), logit(p), rtol=1e-15,
                               atol=1e-15)
    np.testing.assert_allclose(K._expit(K._logit(p)), p, rtol=0.0,
                               atol=4.5e-16)


def _sq_polynomial(x1, x2, t, z):
    """Cleared-denominator form of sbar^2 = z^2, degree six in p1.

    With p2 = (t - n1 p1)/n2:  n1 n2 [(x1/n1 - p1) a2 - (x2/n2 - p2) a1]^2
    = z^2 (n1 a1 + n2 a2) a1 a2,  a_i = p_i(1 - p_i).
    """
    P = np.polynomial.Polynomial
    p1 = P([0.0, 1.0])
    p2 = (t - N1 * p1) / N2
    a1 = p1 * (1 - p1)
    a2 = p2 * (1 - p2)
    bracket = (x1 / N1 - p1) * a2 - (x2 / N2 - p2) * a1
    return N1 * N2 * bracket ** 2 - z ** 2 * (N1 * a1 + N2 * a2) * a1 * a2


def _scan_zinterval(x1, x2, n1, n2, tnuis, z, ngrid=2048):
    """Reference z-interval: dense sign scan of the feasible p1 range.

    Locates the solution component holding the grid point where |sbar|
    is smallest (else the first inside point; the whole range, flagged
    at both ends, when no grid point is inside) and bisects each edge
    from its grid cell.  Same contract as ``zinterval_p1_batch``.
    """
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    tnuis = np.atleast_1d(np.asarray(tnuis, dtype=float))
    m = x1.shape[0]
    lo = np.maximum(K.P1_CLIP, (tnuis - n2) / n1 + K.P1_CLIP)
    hi = np.minimum(1.0 - K.P1_CLIP, tnuis / n1 - K.P1_CLIP)
    ok = (tnuis > 0.0) & (tnuis < n1 + n2) & (lo < hi)

    p1_lo = np.full(m, np.nan)
    p1_hi = np.full(m, np.nan)
    at_lo = np.zeros(m, dtype=bool)
    at_hi = np.zeros(m, dtype=bool)

    t = np.linspace(0.0, 1.0, ngrid)
    safe_lo = np.where(ok, lo, 0.25)
    safe_hi = np.where(ok, hi, 0.75)
    grid = safe_lo[:, None] + (safe_hi - safe_lo)[:, None] * t[None, :]
    p2g = (tnuis[:, None] - n1 * grid) / n2
    with np.errstate(all="ignore"):  # degenerate rows are scanned too
        sb = K.sbar_profiled_batch(x1[:, None], x2[:, None], n1, n2, grid,
                                   p2g)
    fg = sb * sb - z * z

    anchor = np.argmin(np.abs(sb), axis=1)

    inside = fg <= 0.0
    for i in range(m):
        if not ok[i]:
            continue
        j = anchor[i]
        if not inside[i, j]:
            if not np.any(inside[i]):
                p1_lo[i], p1_hi[i] = grid[i, 0], grid[i, ngrid - 1]
                at_lo[i] = at_hi[i] = True
                continue
            j = int(np.argmax(inside[i]))
        jl = j
        while jl > 0 and inside[i, jl - 1]:
            jl -= 1
        jr = j
        while jr < ngrid - 1 and inside[i, jr + 1]:
            jr += 1
        if jl == 0:
            p1_lo[i] = grid[i, 0]
            at_lo[i] = True
        else:
            p1_lo[i] = _bisect_edge(x1[i], x2[i], n1, n2, tnuis[i], z,
                                    grid[i, jl - 1], grid[i, jl])
        if jr == ngrid - 1:
            p1_hi[i] = grid[i, ngrid - 1]
            at_hi[i] = True
        else:
            p1_hi[i] = _bisect_edge(x1[i], x2[i], n1, n2, tnuis[i], z,
                                    grid[i, jr + 1], grid[i, jr])
    return p1_lo, p1_hi, at_lo, at_hi, ok


def _bisect_edge(x1, x2, n1, n2, tnuis, z, outside, inside):
    """Refine a component edge; ``inside`` satisfies sbar^2 <= z^2."""
    a, b = outside, inside
    for _ in range(60):
        mid = 0.5 * (a + b)
        p2 = (tnuis - n1 * mid) / n2
        s = K.sbar_profiled_batch(x1, x2, n1, n2, mid, p2)
        if s * s - z * z <= 0.0:
            b = mid
        else:
            a = mid
    return b


def _zinterval_quietly(x1, x2, n1, n2, tnuis, z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return K.zinterval_p1_batch(x1, x2, n1, n2, tnuis, z)


def _assert_same(got, want):
    for g, w in zip(got[2:], want[2:]):
        np.testing.assert_array_equal(g, w)
    for g, w in zip(got[:2], want[:2]):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12, equal_nan=True)


def test_zinterval_matches_the_scan_over_whole_grids():
    for n1, n2, c, z in ((20, 30, 0.5, 1.959964), (60, 5, 0.0, 1.644854),
                         (5, 60, 0.0, 1.644854)):
        g1, g2 = np.meshgrid(np.arange(n1 + 1), np.arange(n2 + 1),
                             indexing="ij")
        x1, x2 = g1.ravel(), g2.ravel()
        tnuis = plus_c_nuisance(x1, x2, n1, n2, c)
        _assert_same(_zinterval_quietly(x1, x2, n1, n2, tnuis, z),
                     _scan_zinterval(x1, x2, n1, n2, tnuis, z))


@st.composite
def _zinterval_rows(draw):
    n1 = draw(st.integers(1, 80))
    n2 = draw(st.integers(1, 80))
    x1 = draw(st.sampled_from([0, n1]) | st.integers(0, n1))
    x2 = draw(st.sampled_from([0, n2]) | st.integers(0, n2))
    near = draw(st.floats(1e-12, 1e-6))
    tnuis = draw(st.sampled_from([near, n1 + n2 - near])
                 | st.floats(0.0, n1 + n2, exclude_min=True,
                             exclude_max=True))
    z = draw(st.floats(0.5, 4.0))
    return x1, x2, n1, n2, tnuis, z


@given(row=_zinterval_rows())
@settings(max_examples=200, deadline=None)
def test_zinterval_single_rows_are_components_of_the_solution_set(row):
    """Extreme single rows: no warning, and [p1_lo, p1_hi] is a whole
    component of sbar^2 <= z^2 in the feasible range, each unflagged
    edge a sign change; or the range itself, flagged at both ends, when
    the kernel finds no point that satisfies the inequality.

    The scan is no oracle here: a component narrower than its grid cell,
    such as the sliver around sbar = 0 when the feasible range is itself
    narrow, falls between its points, and its grid can also miss the zero
    of sbar that picks the component.
    """
    x1, x2, n1, n2, tnuis, z = row
    p1_lo, p1_hi, at_lo, at_hi, ok = (
        r[0] for r in _zinterval_quietly([x1], [x2], n1, n2, [tnuis], z))
    lo = max(K.P1_CLIP, (tnuis - n2) / n1 + K.P1_CLIP)
    hi = min(1.0 - K.P1_CLIP, tnuis / n1 - K.P1_CLIP)
    assert ok == (lo < hi)
    if not ok:
        assert math.isnan(p1_lo) and math.isnan(p1_hi)
        assert not (at_lo or at_hi)
        return

    def gap(p1):
        p1 = np.clip(p1, lo, hi)
        s = K.sbar_profiled_batch(x1, x2, n1, n2, p1, (tnuis - n1 * p1) / n2)
        return s * s - z * z

    assert lo <= p1_lo <= p1_hi <= hi
    assert p1_lo == lo or not at_lo
    assert p1_hi == hi or not at_hi
    if at_lo and at_hi and gap(lo) > 0.0:
        return  # no point inside: the whole range, flagged
    assert np.all(gap(np.linspace(p1_lo, p1_hi, 17)) <= 1e-9 * z * z)
    if not at_lo:
        assert gap(p1_lo - max(1e-12 * (hi - lo), 4 * np.spacing(p1_lo))) > 0
    if not at_hi:
        assert gap(p1_hi + max(1e-12 * (hi - lo), 4 * np.spacing(p1_hi))) > 0


def test_zinterval_endpoints_are_roots_of_the_degree6_polynomial():
    rng = _rng()
    z = 1.959964
    checked = 0
    while checked < 10:
        x1 = int(rng.integers(1, N1))
        x2 = int(rng.integers(1, N2))
        t = float(x1 + x2)
        lo, hi, at_lo, at_hi, ok = K.zinterval_p1_batch(
            [x1], [x2], N1, N2, [t], z)
        assert ok[0]
        poly = _sq_polynomial(x1, x2, t, z)
        scale = max(abs(c) for c in poly.coef)
        for edge, at in ((lo[0], at_lo[0]), (hi[0], at_hi[0])):
            if at:
                continue
            assert abs(poly(edge)) < 1e-8 * scale
            checked += 1


def test_zinterval_interior_points_satisfy_the_inequality():
    z = 1.959964
    x1, x2 = 7, 12
    t = float(x1 + x2)
    lo, hi, at_lo, at_hi, ok = K.zinterval_p1_batch(
        [x1], [x2], N1, N2, [t], z)
    mid = np.linspace(lo[0], hi[0], 41)
    p2 = (t - N1 * mid) / N2
    s = K.sbar_profiled_batch(float(x1), float(x2), N1, N2, mid, p2)
    assert np.all(s * s <= z * z + 1e-9)


def _cubic(c, rising=True):
    """f = +/-(x^3 - c) and its derivative, one row per entry of c."""
    sign = 1.0 if rising else -1.0
    return lambda x, live: (sign * (x ** 3 - c), sign * 3.0 * x * x)


@pytest.mark.parametrize("rising", [True, False])
def test_newton_finds_cubic_roots_from_either_side(rising):
    c = np.array([0.5, 2.0, 7.0, 0.5, 2.0, 7.0])
    start = np.array([0.0, 0.0, 0.0, 2.0, 2.0, 2.0])
    root, conv = K._newton(_cubic(c, rising), start, 0.0, 2.0, rising,
                           0.0, 0.0)
    assert conv.all()
    np.testing.assert_allclose(root, np.cbrt(c), rtol=2.3e-16, atol=0.0)


def test_a_newton_step_out_of_the_bracket_takes_the_midpoint():
    # from x = 4, arctan's Newton step lands at -8.49, left of -1
    seen = []

    def f_and_df(x, live):
        seen.append(x[0])
        return np.arctan(x - 1.0), 1.0 / (1.0 + (x - 1.0) ** 2)

    root, conv = K._newton(f_and_df, [4.0], -1.0, 4.0, True, 0.0, 0.0)
    assert seen[:2] == [4.0, 1.5]
    assert conv[0] and abs(root[0] - 1.0) <= 2.3e-16


def test_a_newton_row_alone_is_its_row_in_the_batch():
    rng = _rng()
    c = rng.uniform(0.01, 7.0, 40)
    start = rng.uniform(0.0, 2.0, 40)
    root, conv = K._newton(_cubic(c), start, 0.0, 2.0, True, 0.0, 0.0)
    for i in range(len(c)):
        alone = K._newton(_cubic(c[i:i + 1]), start[i:i + 1], 0.0, 2.0,
                          True, 0.0, 0.0)
        assert (alone[0][0], alone[1][0]) == (root[i], conv[i])
    x = rng.standard_t(3, (40, 10))
    root, conv = K.t3_mle_batch(x)
    for i in range(len(x)):
        assert K.t3_mle_batch(x[i:i + 1])[0][0] == root[i]
    # and no rows take one call (a z-interval row may have no inner edge)
    calls = []

    def empty(x, live):
        calls.append(len(x))
        return x, x

    root, conv = K._newton(empty, np.empty(0), 0.0, 2.0, True, 0.0, 0.0)
    assert root.shape == conv.shape == (0,) and calls == [0]


def test_a_root_outside_the_bracket_is_not_converged():
    # x^3 = 7 and x^3 = 0.5 have roots in [0, 2], x^3 = 9 does not
    c = np.array([7.0, 9.0, 0.5])
    root, conv = K._newton(_cubic(c), [1.0, 1.0, 1.0], 0.0, 2.0, True,
                           0.0, 0.0)
    assert conv.tolist() == [True, False, True]
    assert root[1] == 2.0
    np.testing.assert_allclose(root[[0, 2]], np.cbrt(c[[0, 2]]),
                               rtol=2.3e-16, atol=0.0)


def _t3_mle_loop(samples):
    """The bracketed Newton loop t3_mle_batch ran before ``_newton``."""
    x = np.atleast_2d(np.asarray(samples, dtype=float))
    a = K.row_median(x)
    lo = x.min(axis=1) - 1.0
    hi = x.max(axis=1) + 1.0
    active = np.ones(x.shape[0], dtype=bool)
    for _ in range(200):
        d = x - a[:, None]
        den = 3.0 + d * d
        psi = np.sum(4.0 * d / den, axis=1)
        dpsi = np.sum(4.0 * (d * d - 3.0) / (den * den), axis=1)
        active &= ~(np.abs(psi) < 1e-10)
        if not np.any(active):
            break
        pos = psi > 0.0
        lo = np.where(active & pos, a, lo)
        hi = np.where(active & ~pos, a, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(dpsi < 0.0, -psi / dpsi, np.nan)
        cand = a + step
        bad = ~np.isfinite(cand) | (cand <= lo) | (cand >= hi)
        a = np.where(active, np.where(bad, 0.5 * (lo + hi), cand), a)
    d = x - a[:, None]
    return a, np.abs(np.sum(4.0 * d / (3.0 + d * d), axis=1)) < 1e-8


def test_t3_mle_is_the_loop_it_replaced_bit_for_bit():
    # the zeta-lab blocks of seed 806029 for both data families
    from genestim.location import BLOCKS, _draw
    for family in ("t3", "normal"):
        for ss in np.random.SeedSequence(806029).spawn(BLOCKS):
            x = _draw(np.random.default_rng(ss), family, 1000, 10)
            root, conv = K.t3_mle_batch(x)
            want, want_conv = _t3_mle_loop(x)
            np.testing.assert_array_equal(root, want)
            np.testing.assert_array_equal(conv, want_conv)


def test_t3_mle_is_a_score_root_and_downweights_outliers():
    x = np.array([[0.0, 0.0, 10.0]])
    root, conv = K.t3_mle_batch(x)
    assert conv[0]
    # independently bisected root of the t3 score near the data bulk
    assert math.isclose(root[0], 0.1487896462478019, abs_tol=1e-8)
    assert 0.0 < root[0] < 10.0 / 3.0


def test_t3_mle_and_row_median_of_small_samples():
    # a constant sample is its own location, a symmetric one centres on 0
    x = np.array([[2.0, 2.0, 2.0], [-1.0, 0.0, 1.0]])
    root, conv = K.t3_mle_batch(x)
    assert conv.all() and root[0] == 2.0 and abs(root[1]) < 1e-9
    assert K.row_median(x).tolist() == [2.0, 0.0]


def test_t3_mle_is_a_root_of_the_written_out_score_sum():
    x = np.array([-2.0, 0.5, 1.0, 3.0])
    root, conv = K.t3_mle_batch(x)
    d = x - root[0]
    assert conv[0] and abs(np.sum(4.0 * d / (3.0 + d * d))) < 1e-7


def test_t3_mle_equivariance_under_shift():
    rng = _rng()
    x = rng.standard_t(3, (50, 10))
    r0, _ = K.t3_mle_batch(x)
    r1, _ = K.t3_mle_batch(x + 2.5)
    np.testing.assert_allclose(r1, r0 + 2.5, atol=1e-8)


def test_row_median_is_np_median_bit_for_bit():
    rng = _rng()
    for n in (1, 2, 3, 4, 9, 10, 11):
        x = rng.standard_t(3, (400, n))
        # ties, signed zeros and infinities in some rows
        x[::7] = np.round(x[::7])
        x[1::11, 0] = np.inf
        x[2::13, -1] = -np.inf
        x[3::17] = np.inf
        x[4::19, :] = -0.0
        x[5::23, n // 2] = np.nan
        with np.errstate(invalid="ignore"):  # inf + -inf in both
            want = np.median(x, axis=1)
            got = K.row_median(x)
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _binomial_rows(n):
    return F.log_choose(n, np.arange(n + 1))[None, :]


def test_tail_roots_have_the_binomial_closed_forms():
    # Pr_p(X >= n) = p^n and Pr_p(X < 1) = (1 - p)^n: each root has a
    # closed form in p, from starts on both sides and far off
    n, alpha = 7, 0.01
    ge = np.array([True, False] * 3)
    lam = K._invert_tails(_binomial_rows(n), np.zeros(6, int),
                          np.where(ge, n, 1), ge, math.log(alpha),
                          [-30.0, 30.0, 0.0, 0.0, 29.0, -29.0], 0.0, 30.0,
                          str)
    p = 1.0 / (1.0 + np.exp(-lam))
    np.testing.assert_allclose(
        p, np.where(ge, alpha ** (1 / n), 1 - alpha ** (1 / n)),
        rtol=1e-14, atol=0.0)


def test_tail_roots_do_not_depend_on_blocks(monkeypatch):
    rng = _rng()
    coef = np.vstack([_binomial_rows(40), _binomial_rows(40)[:, ::-1]])
    which = rng.integers(0, 2, 300)
    cut = rng.integers(1, 40, 300)
    ge = rng.random(300) < 0.5
    start = rng.normal(0.0, 3.0, 300)
    args = (coef, which, cut, ge, math.log(0.05), start, 1.0, 50.0, str)
    whole = K._invert_tails(*args)
    monkeypatch.setattr(K, "TAIL_BLOCK", 41 * 7)  # seven rows per block
    # round-off only: the row sums need not add in the same order
    np.testing.assert_allclose(K._invert_tails(*args), whole, rtol=1e-13)


def test_a_tail_root_outside_the_bracket_raises():
    # Pr_p(X >= 1) = 1 - (1 - p)^3 = 0.5 at logit p = -1.33, below -1
    with pytest.raises(RuntimeError, match="row 0: no tail root in "
                                           r"\[-1, 1\]"):
        K._invert_tails(_binomial_rows(3), [0], [1], [True],
                        math.log(0.5), [0.0], 0.0, 1.0, lambda i: f"row {i}")


def _unconverged(newton):
    """``_newton`` with every row reported not converged."""
    def run(*args):
        root, conv = newton(*args)
        return root, np.zeros_like(conv)
    return run


def test_an_unconverged_z_edge_raises_naming_its_row(monkeypatch):
    monkeypatch.setattr(K, "_newton", _unconverged(K._newton))
    # row 0 has no feasible p1 and no edge: the error names data row 1
    with pytest.raises(RuntimeError, match="row 1: lower z-interval edge "
                                           "not converged"):
        K.zinterval_p1_batch([0, 5], [0, 7], 20, 30, [0.0, 12.0], 1.96)


def test_every_exported_kernel_has_a_trace_row_count():
    # the trace runner counts rows for each name in __all__ and fails on
    # a name it does not know
    path = (Path(__file__).resolve().parents[1] / "perfbench"
            / "trace_runner.py")
    spec = importlib.util.spec_from_file_location("trace_runner", path)
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    assert set(K.__all__) == set(runner.KERNEL_ROWS)


@pytest.mark.parametrize("x", [3.3, -2.0, 0.0, 1e-300, 5e-324, 1e300, 0.1])
def test_sym_eig_of_a_1x1_is_lapacks_bit_for_bit(x):
    a = np.array([[x]])
    w, U = K._sym_eig(a)
    w_ref, U_ref = np.linalg.eigh(a)
    assert w.tobytes() == w_ref.tobytes() and U.tobytes() == U_ref.tobytes()
    if x > 1e-300:  # positive definite, and no quotient overflows
        # one right-hand side, as every 1 x 1 nuisance block solves
        for b in (0.7, -1.3e5, 2.0 / 3.0):
            b = np.array([[b]])
            assert (K._sym_solve(w, U, b).tobytes()
                    == np.linalg.solve(a, b).tobytes())


def _symmetric(rng, k, kind):
    """A k x k symmetric test matrix: dense (indefinite), with a repeated
    eigenvalue, diagonal, or positive definite across 16 decades."""
    if kind == "dense":
        b = rng.normal(size=(k, k))
        return b + b.T
    if kind == "repeated":
        q, _ = np.linalg.qr(rng.normal(size=(k, k)))
        ev = rng.choice([-1.0, 2.0], size=k)
        ev[:2] = 2.0
        a = (q * ev) @ q.T
        return 0.5 * (a + a.T)
    if kind == "diagonal":
        return np.diag(rng.normal(size=k))
    b = rng.normal(size=(k, k))
    return b @ b.T * 10.0 ** rng.uniform(-8, 8)


@pytest.mark.parametrize("kind", ["dense", "repeated", "diagonal", "pd"])
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_sym_eig_agrees_with_lapack(k, kind):
    rng = np.random.default_rng(100 * k + len(kind))
    for _ in range(40):
        a = _symmetric(rng, k, kind)
        w, U = K._sym_eig(a)
        norm = np.linalg.norm(a, 2)
        assert np.all(np.diff(w) >= 0.0)
        np.testing.assert_array_less(np.abs(w - np.linalg.eigh(a)[0]),
                                     1e-13 * norm + 1e-300)
        np.testing.assert_allclose(U.T @ U, np.eye(k), rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(a @ U, U * w, rtol=0.0,
                                   atol=1e-13 * norm)
        if kind == "pd":
            b = rng.normal(size=(k, 3))
            x = K._sym_solve(w, U, b)
            np.testing.assert_allclose(a @ x, b, rtol=0.0,
                                       atol=1e-13 * norm * np.abs(x).max())


def test_sym_eig_orders_ties_as_a_stable_argsort():
    w0 = np.array([2.0, -0.0, 0.0, 1.0, 2.0, -3.0])
    w, U = K._sym_eig(np.diag(w0))  # diagonal: no rotation
    order = np.argsort(w0, kind="stable")
    assert w.tobytes() == w0[order].tobytes()
    assert U.tobytes() == np.eye(len(w0))[:, order].tobytes()


@pytest.mark.parametrize("a", [
    [[1.0, 1e-320], [1e-320, 0.0]],
    [[0.0, 1e-300], [1e-300, 0.0]],
    [[1.0, 1e-17], [1e-17, 1.0]],
    [[1.0, 1e-300, 0.0], [1e-300, 1e-310, 1e-200], [0.0, 1e-200, 5.0]],
])
def test_sym_eig_of_round_off_off_diagonals_does_not_warn(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            w, U = K._sym_eig(a)
    np.testing.assert_allclose(w, np.linalg.eigvalsh(a), rtol=1e-15,
                               atol=1e-300)
    np.testing.assert_allclose(U.T @ U, np.eye(len(a)), atol=1e-15)


def test_sym_eig_not_converged_raises(monkeypatch):
    monkeypatch.setattr(K, "JACOBI_SWEEPS", 1)
    a = _symmetric(np.random.default_rng(7), 4, "dense")
    with pytest.raises(RuntimeError, match="not converged in 1 sweeps"):
        K._sym_eig(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sym_eig_of_a_non_finite_matrix_raises(bad):
    with pytest.raises(RuntimeError, match="non-finite"):
        K._sym_eig([[1.0, bad], [bad, 2.0]])
