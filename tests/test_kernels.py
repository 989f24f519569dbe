"""Kernels against independent oracles."""

import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genestim import _kernels as K
from genestim import families as F
from genestim.oddsratio import TwoBinomialData, plus_c_nuisance

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
        tnuis = [plus_c_nuisance(TwoBinomialData(a, b, n1, n2), c)
                 for a, b in zip(x1.tolist(), x2.tolist())]
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


def test_t3_mle_is_a_score_root_and_downweights_outliers():
    x = np.array([[0.0, 0.0, 10.0]])
    root, conv = K.t3_mle_batch(x)
    assert conv[0]
    # independently bisected root of the t3 score near the data bulk
    assert math.isclose(root[0], 0.1487896462478019, abs_tol=1e-8)
    assert 0.0 < root[0] < 10.0 / 3.0


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


def test_every_exported_kernel_has_a_trace_row_count():
    # the trace runner counts rows for each name in __all__ and fails on
    # a name it does not know
    path = (Path(__file__).resolve().parents[1] / "perfbench"
            / "trace_runner.py")
    spec = importlib.util.spec_from_file_location("trace_runner", path)
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    assert set(K.__all__) == set(runner.KERNEL_ROWS)
