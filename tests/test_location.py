"""Location-estimator Monte Carlo lab and tail-depth curves."""

import math
import tracemalloc

import numpy as np
import pytest

from genestim import _kernels as K
from genestim import location as L
from test_estimation import corr_sq_with_se_oracle


class TestZeta:
    def test_quartile_anchors(self):
        assert L.zeta(0.25, 0.75) == -1.0
        assert L.zeta(0.5, 0.5) == 0.0
        assert L.zeta(0.75, 0.25) == 1.0

    def test_one_unit_halves_the_smaller_tail(self):
        assert L.zeta(0.125, 0.875) == -2.0
        assert L.zeta(0.875, 0.125) == 2.0

    def test_edges_and_errors(self):
        assert L.zeta(0.0, 1.0) == -math.inf
        assert L.zeta(1.0, 0.0) == math.inf
        with pytest.raises(ValueError):
            L.zeta(-0.1, 0.5)

    def test_antisymmetry_on_a_continuous_archive(self):
        rng = np.random.default_rng(11)
        arch = rng.standard_normal(200_001)
        q = np.quantile(arch, [0.1, 0.9])
        z = L.zeta_of_archive(arch, q)
        assert z[0] == pytest.approx(-z[1], abs=0.02)


class TestEstimators:
    def test_all_three_agree_on_a_constant_sample(self):
        assert L.estimators([2.0, 2.0, 2.0]) == (2.0, 2.0, 2.0)

    def test_symmetric_sample(self):
        m, md, t = L.estimators([-1.0, 0.0, 1.0])
        assert m == 0.0 and md == 0.0 and abs(t) < 1e-9

    def test_outlier_downweighting(self):
        m, md, t = L.estimators([0.0, 0.0, 10.0])
        assert m == pytest.approx(10.0 / 3.0)
        assert md == 0.0
        assert t == pytest.approx(0.1487896462478019, abs=1e-8)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            L.estimators([])

    def test_t3_mle_is_a_root_of_the_score_sum(self):
        x = [-2.0, 0.5, 1.0, 3.0]
        _, _, t = L.estimators(x)
        assert L.t3_score_sum(x, t) == pytest.approx(0.0, abs=1e-7)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            L.McRunConfig(data_family="cauchy")
        with pytest.raises(ValueError):
            L.McRunConfig(reps=10)
        with pytest.raises(ValueError):
            L.McRunConfig(rescale=(0.0,))
        with pytest.raises(ValueError, match="sample size"):
            L.McRunConfig(n=0)
        for sizes in ((0,), (-2,), (7, 2.5)):
            with pytest.raises(ValueError, match="overlay sample sizes"):
                L.McRunConfig(n_overlays=sizes)
        assert L.McRunConfig(n_overlays=(1, np.int64(9))).n_overlays[1] == 9

    def test_to_dict_round_trips_the_fields(self):
        cfg = L.McRunConfig(data_family="t3", n=7, reps=2000, seed=3,
                            rescale=(0.5,), n_overlays=(15,))
        d = cfg.to_dict()
        assert d["data_family"] == "t3" and d["n"] == 7
        assert d["rescale"] == [0.5] and d["n_overlays"] == [15]
        # constants now, still written to every zeta-lab manifest
        assert d["estimators"] == ["mean", "median", "t3_mle"]
        assert d["blocks"] == 100


class TestRunComparison:
    CFG = L.McRunConfig(data_family="normal", n=10, reps=2000, seed=5)

    def test_deterministic_given_the_seed(self):
        a = L.run_comparison(self.CFG)
        b = L.run_comparison(self.CFG)
        for label in a.archives:
            np.testing.assert_array_equal(a.archives[label],
                                          b.archives[label])

    def test_mean_is_fully_efficient_under_normal_data(self):
        res = L.run_comparison(self.CFG)
        eff, se = res.efficiency["mean"]
        assert eff == pytest.approx(1.0, abs=1e-12)
        assert res.var_ratio["mean"] == 1.0

    def test_median_and_t3_mle_lose_efficiency_under_normal_data(self):
        res = L.run_comparison(self.CFG)
        assert res.efficiency["median"][0] < res.efficiency["t3_mle"][0] < 1.0
        assert res.var_ratio["median"] < 1.0

    def test_order_reverses_under_t3_data(self):
        res = L.run_comparison(
            L.McRunConfig(data_family="t3", n=10, reps=4000, seed=5))
        effs = res.efficiency
        assert effs["mean"][0] < effs["median"][0] < effs["t3_mle"][0]
        # the mean is now the high-variance estimator
        assert res.var_ratio["median"] > 1.0
        assert res.var_ratio["t3_mle"] > 1.0

    def test_overlay_and_rescaled_curves_match_the_archive_oracle(self):
        # overlay and rescaled means are counted at the reference
        # quantiles block by block, never stored: their curves must equal
        # those of the full archives the old loop kept
        cfg = L.McRunConfig(data_family="normal", n=10, reps=2000, seed=5,
                            n_overlays=(7,), rescale=(0.8,))
        res = L.run_comparison(cfg)
        assert list(res.archives) == list(L.ESTIMATORS)
        archives = _chunked_comparison(cfg)[0]
        want = {c.estimator_label: c for c in _oracle_curves(archives)}
        got = {c.estimator_label: c for c in res.curves}
        for label in ("mean_n7", "mean_rescale_0.8"):
            _assert_same_curve(got[label], want[label])


# zeta-lab's configurations at its default 100,000 replications; keeping
# every overlay and rescaled archive peaked at 9.1 MB (t3) and 7.4 MB
# (normal), and a reps-long score with np.corrcoef's temporaries at
# 5.8 MB; the three 0.8 MB archives and np.quantile's copy of one are
# what is left, about 3.5 MB
@pytest.mark.parametrize("config, limit_mb", [
    (L.McRunConfig(data_family="t3", n=10, reps=100_000, seed=0,
                   n_overlays=(15, 17),
                   rescale=(1.50 ** -0.5, 1.78 ** -0.5)), 4.0),
    (L.McRunConfig(data_family="normal", n=10, reps=100_000, seed=0,
                   n_overlays=(7, 9)), 4.0),
], ids=["t3", "normal"])
def test_run_comparison_peak_memory(config, limit_mb):
    # a small run first, so lazy imports are not counted
    L.run_comparison(config._replace(reps=L.MIN_REPS))
    tracemalloc.start()
    try:
        res = L.run_comparison(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.curves) == 3 + len(config.n_overlays) + len(config.rescale)
    assert peak <= limit_mb * 1e6, f"peak {peak / 1e6:.2f} MB"


class TestTailsAndCurves:
    def test_tail_counts_are_inclusive(self):
        arch = np.arange(100, 0, -1, dtype=float)
        lo, hi = L.tail_counts(arch, [50.0, 0.5, 200.0])
        np.testing.assert_array_equal(lo, [50, 0, 100])
        np.testing.assert_array_equal(hi, [51, 100, 0])

    def test_zeta_curve_of_an_archive_against_itself_is_the_identity(self):
        rng = np.random.default_rng(4)
        arch = rng.standard_normal(50_000)
        counts = L.tail_counts(arch, np.quantile(arch, L.ZETA_PROBS))
        c = L.zeta_curves(counts, {"self": counts}, len(arch))[0]
        np.testing.assert_allclose(c.comparison_zeta, c.reference_zeta,
                                   atol=1e-9)

    def test_narrower_archive_has_deeper_tails_at_the_same_points(self):
        rng = np.random.default_rng(4)
        ref = rng.standard_normal(50_000)
        narrow = 0.5 * rng.standard_normal(50_000)
        qs = np.quantile(ref, L.ZETA_PROBS)
        c = L.zeta_curves(L.tail_counts(ref, qs),
                          {"narrow": L.tail_counts(narrow, qs)}, 50_000)[0]
        right = c.reference_zeta > 1.0
        assert np.all(c.comparison_zeta[right] > c.reference_zeta[right])

    def test_counts_added_over_blocks_are_the_archives_counts(self):
        rng = np.random.default_rng(8)
        arch = rng.standard_normal(3001)
        arch[::7] = arch[3]  # ties at a probe point
        qs = np.append(np.quantile(arch, L.ZETA_PROBS), arch[3])
        blocks = [L.tail_counts(b, qs) for b in np.array_split(arch, 13)]
        lo, hi = L.tail_counts(arch, qs)
        np.testing.assert_array_equal(sum(b[0] for b in blocks), lo)
        np.testing.assert_array_equal(sum(b[1] for b in blocks), hi)

    def test_probe_grid_covers_the_unit_interval(self):
        probs = L.ZETA_PROBS
        assert probs[0] == 0.005 and probs[-1] == 0.995
        assert np.allclose(np.diff(probs), 0.01)


def _chunked_comparison(config):
    """The block loop before preallocation: per-block chunk lists joined
    by np.concatenate, np.median called for every use of the median, and
    every overlay and rescaled archive kept."""
    seeds = np.random.SeedSequence(config.seed).spawn(L.BLOCKS)
    per = [config.reps // L.BLOCKS] * L.BLOCKS
    per[-1] += config.reps - sum(per)
    main = {label: [] for label in L.ESTIMATORS}
    scores = []
    overlays = {f"mean_n{n}": [] for n in config.n_overlays}
    overlays.update({f"mean_rescale_{fac:g}": [] for fac in config.rescale})
    for ss, m in zip(seeds, per):
        rng = np.random.default_rng(ss)
        x = L._draw(rng, config.data_family, m, config.n)
        if "mean" in main:
            main["mean"].append(x.mean(axis=1))
        if "median" in main:
            main["median"].append(np.median(x, axis=1))
        if "t3_mle" in main:
            roots, conv = K.t3_mle_batch(x)
            main["t3_mle"].append(np.where(conv, roots,
                                           np.median(x, axis=1)))
        if config.data_family == "normal":
            scores.append(config.n * x.mean(axis=1))
        else:
            scores.append(L.t3_score_sum(x))
        for n_alt in config.n_overlays:
            x_alt = L._draw(rng, config.data_family, m, n_alt)
            overlays[f"mean_n{n_alt}"].append(x_alt.mean(axis=1))
        for fac in config.rescale:
            overlays[f"mean_rescale_{fac:g}"].append(fac * x.mean(axis=1))
    score_vals = np.concatenate(scores)
    archives, efficiency, var_ratio = {}, {}, {}
    for label, chunks in main.items():
        archives[label] = np.concatenate(chunks)
        efficiency[label] = corr_sq_with_se_oracle(
            score_vals, archives[label], L.BLOCKS)
    for label, chunks in overlays.items():
        archives[label] = np.concatenate(chunks)
    vm = archives["mean"].var(ddof=1)
    for label in L.ESTIMATORS:
        var_ratio[label] = float(vm / archives[label].var(ddof=1))
    return archives, efficiency, var_ratio


def _archive_zeta(archive, points):
    """zeta per point from the archive's empirical tail areas."""
    srt = np.sort(np.asarray(archive, dtype=float))
    n = len(srt)
    lo = np.searchsorted(srt, points, side="right") / n
    hi = (n - np.searchsorted(srt, points, side="left")) / n
    return np.array([L.zeta(a, b) for a, b in zip(lo, hi)])


def _oracle_curves(archives):
    """zeta-lab's curves as built from full archives: every archive but
    the mean, then the mean, each against the mean's quantiles."""
    reference = archives["mean"]
    comparisons = {k: v for k, v in archives.items() if k != "mean"}
    comparisons["mean"] = reference
    qs = np.quantile(reference, L.ZETA_PROBS)
    ref_zeta = _archive_zeta(reference, qs)
    curves = []
    for label, arch in comparisons.items():
        comp = _archive_zeta(arch, qs)
        keep = np.isfinite(comp) & np.isfinite(ref_zeta)
        curves.append(L.ZetaCurve(label, L.ZETA_PROBS[keep], ref_zeta[keep],
                                  comp[keep]))
    return curves


def _assert_same_curve(got, want):
    assert got.estimator_label == want.estimator_label
    for a, b in zip(got[1:], want[1:]):
        np.testing.assert_array_equal(a, b, strict=True)


# 2003 and 3001 replications leave a remainder for the last of the
# BLOCKS seed blocks; 1000 splits evenly
@pytest.mark.parametrize("config", [
    L.McRunConfig(data_family="normal", n=10, reps=2003, seed=7,
                  n_overlays=(7, 9)),
    L.McRunConfig(data_family="t3", n=10, reps=3001, seed=11,
                  n_overlays=(15, 17), rescale=(1.50 ** -0.5, 1.78 ** -0.5)),
    L.McRunConfig(data_family="t3", n=6, reps=1000, seed=2, rescale=(0.8,)),
], ids=["normal-overlays", "t3-overlays-rescale", "t3-even-n"])
def test_run_comparison_matches_the_chunked_loop_bit_for_bit(config):
    res = L.run_comparison(config)
    archives, efficiency, var_ratio = _chunked_comparison(config)
    assert list(res.archives) == list(L.ESTIMATORS)
    for label in L.ESTIMATORS:
        np.testing.assert_array_equal(res.archives[label], archives[label])
    # the streamed moments add in another order than np.corrcoef
    for label in L.ESTIMATORS:
        assert res.efficiency[label] == pytest.approx(efficiency[label],
                                                      rel=1e-12, abs=0.0)
    assert res.var_ratio == var_ratio
    want = _oracle_curves(archives)
    assert len(res.curves) == len(want)
    for got, oracle in zip(res.curves, want):
        _assert_same_curve(got, oracle)
