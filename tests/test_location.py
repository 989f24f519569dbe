"""Location-estimator Monte Carlo lab and tail-depth curves."""

import math
import tracemalloc

import numpy as np
import pytest

from genestim import _kernels as K
from genestim import families as F
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


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            L.McRunConfig(data_family="cauchy")
        with pytest.raises(ValueError):
            L.McRunConfig(reps=10)
        with pytest.raises(ValueError, match="sample size"):
            L.McRunConfig(n=0)
        # a float would reach NumPy's shapes and fail there with TypeError
        with pytest.raises(ValueError, match="sample size"):
            L.McRunConfig(n=2.5, reps=1000)
        with pytest.raises(ValueError, match="replications"):
            L.McRunConfig(reps=1000.5)
        # NumPy's SeedSequence would raise TypeError and its own message
        with pytest.raises(ValueError, match="seed"):
            L.McRunConfig(reps=1000, seed=2.5)
        with pytest.raises(ValueError, match="seed"):
            L.McRunConfig(reps=1000, seed=-1)
        cfg = L.McRunConfig(n=np.int64(9), reps=np.int64(1000),
                            seed=np.int64(3))
        assert (cfg.n, cfg.reps, cfg.seed) == (9, 1000, 3)
        assert L.McRunConfig._fields == ("data_family", "n", "reps", "seed")

    def test_to_dict_round_trips_the_fields(self):
        cfg = L.McRunConfig(data_family="t3", n=7, reps=2000, seed=3)
        d = cfg.to_dict()
        assert d["data_family"] == "t3" and d["n"] == 7
        assert d["reps"] == 2000 and d["seed"] == 3
        # constants now, still written to every zeta-lab manifest
        assert d["estimators"] == ["mean", "median", "t3_mle"]
        assert d["blocks"] == 100

    def test_to_dict_writes_the_familys_overlays(self):
        # the values every zeta-lab manifest has carried
        want = {"normal": ([7, 9], []),
                "t3": ([15, 17], [1.50 ** -0.5, 1.78 ** -0.5])}
        assert list(L.OVERLAYS) == list(want)
        for family, (sizes, factors) in want.items():
            d = L.McRunConfig(data_family=family).to_dict()
            assert (d["n_overlays"], d["rescale"]) == (sizes, factors)


class TestFamilyScores:
    """zeta-lab's score and t3 draws are those of ``families``' location
    models, bit for bit."""

    def _block(self, family, n=10, m=1000):
        ss = np.random.SeedSequence(806029).spawn(L.BLOCKS)[3]
        return L._draw(np.random.default_rng(ss), family, m, n)

    def test_t3_score_is_the_inline_sum(self):
        x = self._block("t3")
        got = F.t3_location(10).score_rows(x, [0.0])
        np.testing.assert_array_equal(
            got[:, 0], np.sum(4.0 * x / (3.0 + x * x), axis=1), strict=True)

    def test_normal_score_is_n_times_the_mean(self):
        ybar = self._block("normal").mean(axis=1)
        got = F.normal_location(10).score_rows(ybar, [0.0])
        np.testing.assert_array_equal(got[:, 0], 10 * ybar, strict=True)

    @pytest.mark.parametrize("n", [1, 10])
    def test_t3_sampler_is_zeta_labs_draw(self, n):
        ss = np.random.SeedSequence(806029)
        got = F.t3_location(n).support.sampler(np.random.default_rng(ss),
                                                [0.0], 500)
        want = L._draw(np.random.default_rng(ss), "t3", 500, n)
        np.testing.assert_array_equal(got, want, strict=True)


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
        cfg = L.McRunConfig(data_family="t3", n=10, reps=2000, seed=5)
        res = L.run_comparison(cfg)
        assert list(res.archives) == list(L.ESTIMATORS)
        archives = _chunked_comparison(cfg)[0]
        want = {c.estimator_label: c for c in _oracle_curves(archives)}
        got = {c.estimator_label: c for c in res.curves}
        for label in ("mean_n15", "mean_n17", "mean_rescale_0.816497",
                      "mean_rescale_0.749532"):
            _assert_same_curve(got[label], want[label])


# zeta-lab's configurations at its default 100,000 replications; keeping
# every overlay and rescaled archive peaked at 9.1 MB (t3) and 7.4 MB
# (normal), a reps-long score with np.corrcoef's temporaries at 5.8 MB,
# and np.quantile's copy of the mean archive at 3.5 MB.  The archives
# are now sorted in place and no archive-sized temporary is made: the
# three 0.8 MB archives plus the block loop's per-block temporaries peak
# at about 3.15 MB
@pytest.mark.parametrize("config, limit_mb", [
    (L.McRunConfig(data_family="t3", n=10, reps=100_000, seed=0), 3.3),
    (L.McRunConfig(data_family="normal", n=10, reps=100_000, seed=0), 3.3),
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
    assert len(res.curves) == 3 + sum(map(len,
                                          L.OVERLAYS[config.data_family]))
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

    @pytest.mark.parametrize("n", [1, 2, 1000, 1001, 99_999, 100_000,
                                   100_001])
    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    def test_sorted_quantiles_are_np_quantiles(self, n, ties):
        rng = np.random.default_rng(n)
        arch = rng.standard_normal(n)
        if ties:
            arch = np.round(arch, 1)  # -0.0 and 0.0 among them
        probs = np.concatenate([L.ZETA_PROBS, [0.0, 0.25, 0.5, 1.0]])
        got = L.sorted_quantiles(np.sort(arch), probs)
        # values: sort and partition may order -0.0 and 0.0 otherwise
        np.testing.assert_array_equal(got, np.quantile(arch, probs))
        assert got.dtype == np.float64

    def test_sample_var_is_var_ddof1_bit_for_bit(self):
        # sizes around NumPy's 8-way unrolled, 128-value pairwise blocks
        # and around sample_var's 8192-value leaves
        rng = np.random.default_rng(6)
        for n in [*range(2, 300), 1000, 8191, 8192, 8193, 16_384, 16_385,
                  99_999, 100_000, 100_001, 123_457, 262_144, 1_000_003]:
            arch = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(n) + 2.5
            assert L.sample_var(arch) == arch.var(ddof=1), n

    def test_probe_grid_covers_the_unit_interval(self):
        probs = L.ZETA_PROBS
        assert probs[0] == 0.005 and probs[-1] == 0.995
        assert np.allclose(np.diff(probs), 0.01)


def _chunked_comparison(config):
    """The block loop before preallocation: per-block chunk lists joined
    by np.concatenate, np.median called for every use of the median, the
    t3 score written out, and every overlay and rescaled archive kept."""
    n_overlays, rescale = L.OVERLAYS[config.data_family]
    seeds = np.random.SeedSequence(config.seed).spawn(L.BLOCKS)
    per = [config.reps // L.BLOCKS] * L.BLOCKS
    per[-1] += config.reps - sum(per)
    main = {label: [] for label in L.ESTIMATORS}
    scores = []
    overlays = {f"mean_n{n}": [] for n in n_overlays}
    overlays.update({f"mean_rescale_{fac:g}": [] for fac in rescale})
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
            scores.append(np.sum(4.0 * x / (3.0 + x * x), axis=1))
        for n_alt in n_overlays:
            x_alt = L._draw(rng, config.data_family, m, n_alt)
            overlays[f"mean_n{n_alt}"].append(x_alt.mean(axis=1))
        for fac in rescale:
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
    L.McRunConfig(data_family="normal", n=10, reps=2003, seed=7),
    L.McRunConfig(data_family="t3", n=10, reps=3001, seed=11),
    L.McRunConfig(data_family="t3", n=6, reps=1000, seed=2),
], ids=["normal-overlays", "t3-overlays-rescale", "t3-even-n"])
def test_run_comparison_matches_the_chunked_loop_bit_for_bit(config):
    res = L.run_comparison(config)
    archives, efficiency, var_ratio = _chunked_comparison(config)
    assert list(res.archives) == list(L.ESTIMATORS)
    # the archives come back sorted; var_ratio and the curves below still
    # pin the replication order
    for label in L.ESTIMATORS:
        np.testing.assert_array_equal(res.archives[label],
                                      np.sort(archives[label]))
    # the streamed moments add in another order than np.corrcoef
    for label in L.ESTIMATORS:
        assert res.efficiency[label] == pytest.approx(efficiency[label],
                                                      rel=1e-12, abs=0.0)
    assert res.var_ratio == var_ratio
    want = _oracle_curves(archives)
    assert len(res.curves) == len(want)
    for got, oracle in zip(res.curves, want):
        _assert_same_curve(got, oracle)
