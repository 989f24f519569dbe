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
from .estimation import corr_sq_with_se

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
    archives: dict  # label -> (reps,) values
    efficiency: dict  # label -> (eff, se)
    var_ratio: dict  # label -> Var(mean)/Var(g)
    failures: int


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
    sample and then the overlay samples in ``n_overlays`` order.  Every
    block writes its slice of preallocated ``reps``-long archives and
    scores, and one sort per block gives the row medians that serve as
    the median archive and replace t3 MLE roots that do not converge
    (``t3_mle_batch`` takes its own row medians as Newton starts).  The
    efficiency of each estimator is the
    squared correlation with the generating family's score across
    replications, variance ratios are relative to the sample mean, and
    overlay archives (alternate sample sizes, rescaled data) are recorded
    for the tail-depth curves.
    """
    seeds = np.random.SeedSequence(config.seed).spawn(BLOCKS)
    per = [config.reps // BLOCKS] * BLOCKS
    per[-1] += config.reps - sum(per)

    labels = (list(ESTIMATORS)
              + [f"mean_n{n}" for n in config.n_overlays]
              + [f"mean_rescale_{fac:g}" for fac in config.rescale])
    archives = {label: np.empty(config.reps) for label in labels}
    score_vals = np.empty(config.reps)
    failures = 0

    stop = 0
    for ss, m in zip(seeds, per):
        rows = slice(stop, stop + m)
        stop += m
        rng = np.random.default_rng(ss)
        x = _draw(rng, config.data_family, m, config.n)
        xbar = x.mean(axis=1)
        archives["mean"][rows] = xbar
        med = row_median(x)
        archives["median"][rows] = med
        roots, conv = t3_mle_batch(x)
        failures += int(np.sum(~conv))
        archives["t3_mle"][rows] = np.where(conv, roots, med)
        if config.data_family == "normal":
            score_vals[rows] = config.n * xbar
        else:
            score_vals[rows] = t3_score_sum(x)
        for n_alt in config.n_overlays:
            x_alt = _draw(rng, config.data_family, m, n_alt)
            archives[f"mean_n{n_alt}"][rows] = x_alt.mean(axis=1)
        for fac in config.rescale:
            archives[f"mean_rescale_{fac:g}"][rows] = fac * xbar

    if failures > 0.001 * config.reps:
        raise McRunError(f"{failures} t3-MLE failures out of {config.reps}")

    efficiency = {label: corr_sq_with_se(score_vals, archives[label], BLOCKS)
                  for label in ESTIMATORS}
    vm = archives["mean"].var(ddof=1)
    var_ratio = {label: float(vm / archives[label].var(ddof=1))
                 for label in ESTIMATORS}
    return ComparisonResult(config, archives, efficiency, var_ratio, failures)


def empirical_tails(archive, points):
    """(Pr(X <= q), Pr(X >= q)) per point, inclusive on both sides."""
    srt = np.sort(np.asarray(archive, dtype=float))
    n = len(srt)
    lo = np.searchsorted(srt, points, side="right") / n
    hi = (n - np.searchsorted(srt, points, side="left")) / n
    return lo, hi


def zeta_of_archive(archive, points) -> np.ndarray:
    lo, hi = empirical_tails(archive, points)
    return np.array([zeta(a, b) for a, b in zip(lo, hi)])


def zeta_curves(reference, comparisons: dict) -> list:
    """Tail-depth curves of each archive against the reference archive.

    The reference's empirical quantiles at the 99 standard probabilities
    anchor the abscissa; each comparison archive is read off at those
    same points through its own empirical cdf (median mass counted in
    both tails).
    """
    qs = np.quantile(np.asarray(reference, dtype=float), ZETA_PROBS)
    ref_zeta = zeta_of_archive(reference, qs)
    curves = []
    for label, arch in comparisons.items():
        comp = zeta_of_archive(arch, qs)
        keep = np.isfinite(comp) & np.isfinite(ref_zeta)
        curves.append(ZetaCurve(
            estimator_label=label,
            reference_quantile_probs=ZETA_PROBS[keep],
            reference_zeta=ref_zeta[keep],
            comparison_zeta=comp[keep]))
    return curves
