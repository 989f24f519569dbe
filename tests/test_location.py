"""Location-estimator Monte Carlo lab and tail-depth curves."""

import math

import numpy as np
import pytest

from genestim import _kernels as K
from genestim import location as L
from genestim.estimation import corr_sq_with_se


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

    def test_overlay_archives_are_recorded(self):
        res = L.run_comparison(
            L.McRunConfig(data_family="normal", n=10, reps=2000, seed=5,
                          n_overlays=(7,), rescale=(0.8,)))
        assert "mean_n7" in res.archives
        assert "mean_rescale_0.8" in res.archives
        np.testing.assert_allclose(res.archives["mean_rescale_0.8"],
                                   0.8 * res.archives["mean"], atol=1e-15)


class TestTailsAndCurves:
    def test_empirical_tails_are_inclusive_counts(self):
        arch = np.arange(1, 101, dtype=float)
        lo, hi = L.empirical_tails(arch, [50.0, 0.5, 200.0])
        np.testing.assert_allclose(lo, [0.50, 0.0, 1.0])
        np.testing.assert_allclose(hi, [0.51, 1.0, 0.0])

    def test_zeta_curve_of_an_archive_against_itself_is_the_identity(self):
        rng = np.random.default_rng(4)
        arch = rng.standard_normal(50_000)
        curves = L.zeta_curves(arch, {"self": arch})
        c = curves[0]
        np.testing.assert_allclose(c.comparison_zeta, c.reference_zeta,
                                   atol=1e-9)

    def test_narrower_archive_has_deeper_tails_at_the_same_points(self):
        rng = np.random.default_rng(4)
        ref = rng.standard_normal(50_000)
        narrow = 0.5 * rng.standard_normal(50_000)
        c = L.zeta_curves(ref, {"narrow": narrow})[0]
        right = c.reference_zeta > 1.0
        assert np.all(c.comparison_zeta[right] > c.reference_zeta[right])

    def test_probe_grid_covers_the_unit_interval(self):
        probs = L.ZETA_PROBS
        assert probs[0] == 0.005 and probs[-1] == 0.995
        assert np.allclose(np.diff(probs), 0.01)


def _chunked_comparison(config):
    """The block loop before preallocation: per-block chunk lists joined
    by np.concatenate, and np.median called for every use of the median."""
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
        efficiency[label] = corr_sq_with_se(score_vals, archives[label],
                                            L.BLOCKS)
    for label, chunks in overlays.items():
        archives[label] = np.concatenate(chunks)
    vm = archives["mean"].var(ddof=1)
    for label in L.ESTIMATORS:
        var_ratio[label] = float(vm / archives[label].var(ddof=1))
    return archives, efficiency, var_ratio


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
    assert list(res.archives) == list(archives)
    for label, want in archives.items():
        np.testing.assert_array_equal(res.archives[label], want)
    assert res.efficiency == efficiency
    assert res.var_ratio == var_ratio

