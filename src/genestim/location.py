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

ZETA_PROBS = np.round(np.arange(0.005, 0.9951, 0.01), 3)  # .005..0.995 step .01
ESTIMATORS = ("mean", "median", "t3_mle")
BLOCKS = 100  # seed blocks of a run, and batches behind each efficiency se
MIN_REPS = 1000  # fewest replications for stable efficiency estimates


class McRunError(RuntimeError):
    """Replication failure rate above the abort threshold."""


class _McRun(NamedTuple):
    data_family: str = "normal"  # "normal" | "t3"
    n: int = 10
    reps: int = 100_000
    seed: int = 0
    rescale: tuple = ()  # extra data-rescaling factors for mean overlays
    n_overlays: tuple = ()  # extra sample sizes for mean overlays


class McRunConfig(_McRun):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.data_family not in ("normal", "t3"):
            raise ValueError(f"unknown data family {self.data_family!r}")
        if self.n < 1:
            raise ValueError(f"sample size must be at least 1, got {self.n}")
        if self.reps < MIN_REPS:
            raise ValueError(f"need at least {MIN_REPS} replications for "
                             "stable efficiency estimates")
        if any(r <= 0 for r in self.rescale):
            raise ValueError("rescale factors must be positive")
        if any(not isinstance(m, (int, np.integer)) or m < 1
               for m in self.n_overlays):
            raise ValueError("overlay sample sizes must be integers of at "
                             "least 1")
        return self

    def to_dict(self):
        return {
            "data_family": self.data_family, "n": self.n, "reps": self.reps,
            "seed": self.seed, "estimators": list(ESTIMATORS),
            "rescale": list(self.rescale),
            "n_overlays": list(self.n_overlays), "blocks": BLOCKS,
            "zeta_probs": "0.005:0.995:0.01",
        }


class ZetaCurve(NamedTuple):
    estimator_label: str
    reference_quantile_probs: np.ndarray
    reference_zeta: np.ndarray
    comparison_zeta: np.ndarray


class ComparisonResult(NamedTuple):
    config: McRunConfig
    archives: dict  # estimator label -> (reps,) values
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


def estimators(sample) -> tuple:
    """(mean, median, t3 location MLE) of one sample."""
    x = np.asarray(sample, dtype=float)
    if x.size == 0:
        raise ValueError("empty sample")
    roots, conv = t3_mle_batch(x[None, :])
    if not conv[0]:
        raise McRunError("t3 MLE did not converge")
    return float(x.mean()), float(np.median(x)), float(roots[0])


def t3_score_sum(x, a=0.0):
    d = np.asarray(x, dtype=float) - a
    return np.sum(4.0 * d / (3.0 + d * d), axis=-1)


def _draw(rng, family, m, n):
    if family == "normal":
        return rng.standard_normal((m, n))
    # t3 as a normal/chi-square ratio so the two ingredient streams can
    # be split and reproduced independently
    z = rng.standard_normal((m, n))
    w = rng.chisquare(3.0, (m, n))
    return z / np.sqrt(w / 3.0)


def run_comparison(config: McRunConfig) -> ComparisonResult:
    """Replicate the estimator comparison at true location 0.

    Replications run in BLOCKS pre-assigned seed blocks (order-independent),
    the last block taking the remainder of ``reps``; each block draws its main
    sample and then the overlay samples in ``n_overlays`` order.  Only the
    estimator archives are kept ``reps`` long.  One sort per block gives
    the row medians that serve as the median archive and replace t3 MLE
    roots that do not converge (``t3_mle_batch`` takes its own row medians
    as Newton starts).  The efficiency of each estimator is the squared
    correlation with the generating family's score across replications:
    each block's score (n times the block means under normal data) goes
    into :func:`block_moments` with the block's three estimates and is
    dropped, and :func:`corr_sq_with_se` merges the blocks' moments.
    Variance ratios are relative to the sample mean.

    The tail-depth curves compare each estimator and each overlay (means
    at alternate sample sizes, means of rescaled data) with the mean at
    the mean archive's quantiles, from inclusive tail counts there.  Each
    block's generator is kept after its main draw, so once the quantiles
    are known a second pass draws that block's overlays; overlay and
    rescaled means are counted block by block and the counts added, so
    none of them is ever held ``reps`` long.
    """
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
        score = (t3_score_sum(x) if config.data_family == "t3"
                 else config.n * archives["mean"][rows])
        moments.append(block_moments(
            score, np.stack([archives[label][rows] for label in ESTIMATORS]),
            per[0]))

    if failures > 0.001 * config.reps:
        raise McRunError(f"{failures} t3-MLE failures out of {config.reps}")

    efficiency = {label: (float(eff), float(se)) for label, eff, se in
                  zip(ESTIMATORS, *corr_sq_with_se(moments))}
    mean = archives["mean"]
    vm = mean.var(ddof=1)
    var_ratio = {label: float(vm / archives[label].var(ddof=1))
                 for label in ESTIMATORS}

    qs = np.quantile(mean, ZETA_PROBS)

    def added(blocks):  # tail counts at qs, summed over blocks
        lo_hi = np.zeros((2, len(qs)), dtype=np.int64)
        for values in blocks:
            lo_hi += tail_counts(values, qs)
        return tuple(lo_hi)

    counts = {label: tail_counts(archives[label], qs)
              for label in ("median", "t3_mle")}
    for n_alt in config.n_overlays:
        counts[f"mean_n{n_alt}"] = added(
            _draw(rng, config.data_family, m, n_alt).mean(axis=1)
            for rng, m in zip(rngs, per))
    mean_blocks = np.split(mean, np.cumsum(per)[:-1])
    for fac in config.rescale:
        counts[f"mean_rescale_{fac:g}"] = added(fac * b for b in mean_blocks)
    counts["mean"] = tail_counts(mean, qs)
    curves = zeta_curves(counts["mean"], counts, config.reps)
    return ComparisonResult(config, archives, efficiency, var_ratio, failures,
                            curves)


def tail_counts(archive, points):
    """(#{X <= q}, #{X >= q}) per point q: one sort and a searchsorted."""
    srt = np.sort(np.asarray(archive, dtype=float))
    return (np.searchsorted(srt, points, side="right"),
            len(srt) - np.searchsorted(srt, points, side="left"))


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
