"""Location-estimator comparison lab.

Monte Carlo comparison of the sample mean, sample median, and the
t3-location MLE under normal and t3 data: information efficiencies via
the squared score correlation, variance ratios, and tail-depth curves
built from the signed log2 tail-area score.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._kernels import row_median, t3_mle_batch
from .estimation import block_moments, corr_sq_with_se
from .families import normal_location, t3_draw, t3_location

ZETA_PROBS = np.round(np.arange(0.005, 0.9951, 0.01), 3)  # .005..0.995 step .01
ESTIMATORS = ("mean", "median", "t3_mle")
BLOCKS = 100  # seed blocks of a run, and batches behind each efficiency se
MIN_REPS = 1000  # fewest replications for stable efficiency estimates
# data family -> (overlay sample sizes, data-rescaling factors) of the
# mean's overlay curves
OVERLAYS = {"normal": ((7, 9), ()),
            "t3": ((15, 17), (1.50 ** -0.5, 1.78 ** -0.5))}


class McRunError(RuntimeError):
    """Replication failure rate above the abort threshold."""


class _McRun(NamedTuple):
    data_family: str = "normal"  # a key of OVERLAYS
    n: int = 10
    reps: int = 100_000
    seed: int = 0


class McRunConfig(_McRun):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.data_family not in OVERLAYS:
            raise ValueError(f"unknown data family {self.data_family!r}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError("sample size must be an integer of at least 1, "
                             f"got {self.n}")
        if (not isinstance(self.reps, (int, np.integer))
                or self.reps < MIN_REPS):
            raise ValueError(f"need an integer of at least {MIN_REPS} "
                             "replications for stable efficiency estimates, "
                             f"got {self.reps}")
        # NumPy's SeedSequence would fail on its own terms otherwise
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be an integer of at least 0, "
                             f"got {self.seed}")
        return self

    def to_dict(self):
        n_overlays, rescale = OVERLAYS[self.data_family]
        return {
            "data_family": self.data_family, "n": self.n, "reps": self.reps,
            "seed": self.seed, "estimators": list(ESTIMATORS),
            "rescale": list(rescale), "n_overlays": list(n_overlays),
            "blocks": BLOCKS, "zeta_probs": "0.005:0.995:0.01",
        }


class ZetaCurve(NamedTuple):
    estimator_label: str
    reference_quantile_probs: np.ndarray
    reference_zeta: np.ndarray
    comparison_zeta: np.ndarray


class ComparisonResult(NamedTuple):
    config: McRunConfig
    archives: dict  # estimator label -> (reps,) values, sorted ascending
    efficiency: dict  # label -> (eff, se)
    var_ratio: dict  # label -> Var(mean)/Var(g)
    failures: int
    curves: list  # ZetaCurve per comparison, the mean's last


def zeta(tail_area_low: float, tail_area_high: float) -> float:
    """Signed log2 tail-depth: one unit halves the smaller tail area.

    -1, 0, +1 at Q1, median, Q3; the median's mass is counted in both
    tails, so for continuous laws the two areas sum to >= 1.
    """
    if tail_area_low < 0.0 or tail_area_high < 0.0:
        raise ValueError("tail areas must be nonnegative")
    if tail_area_low <= 0.5:
        if tail_area_low == 0.0:
            return -math.inf
        return math.log2(2.0 * tail_area_low)
    if tail_area_high == 0.0:
        return math.inf
    return -math.log2(2.0 * tail_area_high)


def _draw(rng, family, m, n):
    if family == "normal":
        return rng.standard_normal((m, n))
    return t3_draw(rng, (m, n))


def run_comparison(config: McRunConfig) -> ComparisonResult:
    """Replicate the estimator comparison at true location 0.

    Replications run in BLOCKS pre-assigned seed blocks (order-independent),
    the last block taking the remainder of ``reps``; each block draws its main
    sample and then the overlay samples in the family's ``OVERLAYS`` order.
    Only the estimator archives are kept ``reps`` long.  One sort per block
    gives the row medians that serve as the median archive and replace t3
    MLE roots that do not converge (``t3_mle_batch`` takes its own row
    medians as Newton starts).  The efficiency of each estimator is the
    squared correlation with the generating family's score across
    replications: each block's score, the ``score_rows`` of
    ``families.t3_location(n)`` on its samples under t3 data and of
    ``families.normal_location(n)`` on its means under normal data, both
    at location 0, goes into :func:`block_moments` with the block's three
    estimates and is dropped, and :func:`corr_sq_with_se` merges the
    blocks' moments.  Variance ratios are relative to the sample mean;
    :func:`sample_var` takes them in replication order, bit for bit those
    of ``var(ddof=1)``.

    Each archive is then sorted in place, once, so the returned archives
    are sorted ascending and no archive-sized array is allocated beside
    them.  The tail-depth curves compare each estimator and each overlay
    (means at the family's alternate sample sizes, means of its rescaled
    data) with the mean at the sorted mean archive's quantiles
    (:func:`sorted_quantiles`), from inclusive tail counts there.  Each
    block's generator is kept after its main draw, so once the quantiles
    are known a second pass draws that block's overlays; overlay and
    rescaled means are counted block by block and the counts added, so
    none of them is ever held ``reps`` long.
    """
    n_overlays, rescale = OVERLAYS[config.data_family]
    t3_data = config.data_family == "t3"
    score_rows = (t3_location if t3_data else normal_location)(
        config.n).score_rows
    seeds = np.random.SeedSequence(config.seed).spawn(BLOCKS)
    per = [config.reps // BLOCKS] * BLOCKS
    per[-1] += config.reps - sum(per)

    archives = {label: np.empty(config.reps) for label in ESTIMATORS}
    moments = []
    rngs = []
    failures = 0

    stop = 0
    for ss, m in zip(seeds, per):
        rows = slice(stop, stop + m)
        stop += m
        rng = np.random.default_rng(ss)
        x = _draw(rng, config.data_family, m, config.n)
        rngs.append(rng)  # next in its stream: this block's overlays
        archives["mean"][rows] = x.mean(axis=1)
        med = row_median(x)
        archives["median"][rows] = med
        roots, conv = t3_mle_batch(x)
        failures += int(np.sum(~conv))
        archives["t3_mle"][rows] = np.where(conv, roots, med)
        score = score_rows(x if t3_data else archives["mean"][rows], [0.0])
        moments.append(block_moments(
            score[:, 0],
            np.stack([archives[label][rows] for label in ESTIMATORS]),
            per[0]))

    if failures > 0.001 * config.reps:
        raise McRunError(f"{failures} t3-MLE failures out of {config.reps}")

    efficiency = {label: (float(eff), float(se)) for label, eff, se in
                  zip(ESTIMATORS, *corr_sq_with_se(moments))}
    variances = {label: sample_var(archives[label]) for label in ESTIMATORS}
    var_ratio = {label: float(variances["mean"] / v)
                 for label, v in variances.items()}

    for values in archives.values():
        values.sort()  # tail counts and quantiles are order-free from here
    mean = archives["mean"]
    qs = sorted_quantiles(mean, ZETA_PROBS)

    def added(blocks):  # tail counts at qs, summed over blocks
        lo_hi = np.zeros((2, len(qs)), dtype=np.int64)
        for values in blocks:
            lo_hi += tail_counts(values, qs)
        return tuple(lo_hi)

    counts = {label: sorted_tail_counts(archives[label], qs)
              for label in ("median", "t3_mle")}
    for n_alt in n_overlays:
        counts[f"mean_n{n_alt}"] = added(
            _draw(rng, config.data_family, m, n_alt).mean(axis=1)
            for rng, m in zip(rngs, per))
    mean_blocks = np.split(mean, np.cumsum(per)[:-1])
    for fac in rescale:
        counts[f"mean_rescale_{fac:g}"] = added(fac * b for b in mean_blocks)
    counts["mean"] = sorted_tail_counts(mean, qs)
    curves = zeta_curves(counts["mean"], counts, config.reps)
    return ComparisonResult(config, archives, efficiency, var_ratio, failures,
                            curves)


def tail_counts(archive, points):
    """(#{X <= q}, #{X >= q}) per point q: one sort and a searchsorted."""
    return sorted_tail_counts(np.sort(np.asarray(archive, dtype=float)),
                              points)


def sorted_tail_counts(srt, points):
    """:func:`tail_counts` of an archive already sorted ascending."""
    return (np.searchsorted(srt, points, side="right"),
            len(srt) - np.searchsorted(srt, points, side="left"))


def sorted_quantiles(srt, probs) -> np.ndarray:
    """Quantiles of a sorted archive at probs in [0, 1], as NumPy's
    ``quantile`` gives them by its default linear method (Hyndman & Fan
    1996, type 7).

    The order statistics around the virtual index (n - 1) q are mixed by
    the two branches of NumPy's ``_lerp``.  Only the sign of a zero can
    differ, since NumPy's partition may order -0.0 and 0.0 otherwise.
    NumPy's function calls ``np.unique``, which imports ``numpy.ma``.
    """
    virtual = (len(srt) - 1) * np.asarray(probs, dtype=float)
    below = np.floor(virtual)
    t = virtual - below
    below = below.astype(np.intp)
    a, b = srt[below], srt[np.minimum(below + 1, len(srt) - 1)]
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


# any leaf of at least NumPy's 128-value pairwise block gives its tree;
# this one keeps each centred temporary at 64 KB
_SUM_LEAF = 8192


def sample_var(values) -> float:
    """``values.var(ddof=1)`` of a contiguous float array, bit for bit,
    without a centred copy of it.

    The centred squares are summed as NumPy's pairwise sum splits an
    array (halves, the split rounded down to a multiple of 8), each leaf
    by ``np.add.reduce``.
    """
    def centred_ss(x):
        if len(x) <= _SUM_LEAF:
            d = x - mean
            d *= d
            return np.add.reduce(d)
        half = len(x) // 2
        half -= half % 8
        return centred_ss(x[:half]) + centred_ss(x[half:])

    mean = np.add.reduce(values) / len(values)
    return centred_ss(values) / (len(values) - 1)


def zeta_of_counts(lo, hi, total) -> np.ndarray:
    """zeta per point from inclusive tail counts out of ``total`` values."""
    return np.array([zeta(a, b) for a, b in zip(lo / total, hi / total)])


def zeta_of_archive(archive, points) -> np.ndarray:
    return zeta_of_counts(*tail_counts(archive, points), len(archive))


def zeta_curves(reference, comparisons: dict, total: int) -> list:
    """Tail-depth curves from inclusive tail counts at reference points.

    ``reference`` and each comparison are (lo, hi) counts out of ``total``
    at the reference archive's empirical quantiles at the 100 standard
    probabilities (median mass counted in both tails); a curve keeps the
    probabilities where both zetas are finite.
    """
    ref_zeta = zeta_of_counts(*reference, total)
    curves = []
    for label, (lo, hi) in comparisons.items():
        comp = zeta_of_counts(lo, hi, total)
        keep = np.isfinite(comp) & np.isfinite(ref_zeta)
        curves.append(ZetaCurve(
            estimator_label=label,
            reference_quantile_probs=ZETA_PROBS[keep],
            reference_zeta=ref_zeta[keep],
            comparison_zeta=comp[keep]))
    return curves
