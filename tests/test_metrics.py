import datetime as dt
import math

import numpy as np
import pytest
from scipy.stats import norm

from topofield import (
    BinSpec,
    EvalRecord,
    NormStats,
    ScalarField,
    acc,
    evaluate_stack,
    kde_overlap,
    lambda_bin_analysis,
    lead_time_curves,
    make_eval_record,
    psnr,
    rmse,
    season_of,
    seasonal_summary,
    tail_overlap,
)
from topofield.errors import (
    DegenerateSample,
    EmptyBin,
    EmptySeason,
    FormatError,
    IdenticalFields,
    ShapeMismatch,
    ZeroVariance,
)


def const(v, shape=(4, 4)):
    return ScalarField(np.full(shape, float(v)))


class TestRmse:
    def test_identical(self):
        assert rmse(const(280), const(280)) == 0.0

    def test_uniform_offset(self):
        assert rmse(const(281), const(280)) == 1.0

    def test_dominates_mae(self):
        from topofield import mae

        rng = np.random.default_rng(0)
        a = rng.uniform(270, 290, (5, 5))
        b = rng.uniform(270, 290, (5, 5))
        assert rmse(a, b) >= mae(a, b)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 1, (4, 4))
        b = rng.uniform(0, 1, (4, 4))
        assert rmse(a, b) == rmse(b, a)


class TestPsnr:
    def test_20db(self):
        assert psnr(const(0.0, (5, 5)), const(0.1, (5, 5))) == pytest.approx(20.0, abs=1e-9)

    def test_zero_db(self):
        assert psnr(const(0.0), const(1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_identical_is_distinct_outcome(self):
        with pytest.raises(IdenticalFields):
            psnr(const(0.5), const(0.5))


class TestAcc:
    def test_perfect_anomaly_match(self):
        rng = np.random.default_rng(2)
        clim = rng.uniform(270, 290, (5, 5))
        anom = rng.uniform(-3, 3, (5, 5))
        assert acc(clim + anom, clim + anom, clim) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_anomalies(self):
        rng = np.random.default_rng(3)
        clim = rng.uniform(270, 290, (5, 5))
        anom = rng.uniform(-3, 3, (5, 5))
        anom -= anom.mean()  # keep the anomaly fields exactly centered
        assert acc(clim + anom, clim - anom, clim) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_variance(self):
        clim = const(280)
        with pytest.raises(ZeroVariance):
            acc(clim, const(283), clim)


class TestKdeOverlap:
    def test_identical_samples(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, 2000)
        assert kde_overlap(x, x) >= 0.999

    def test_disjoint_supports(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, 500)
        y = rng.normal(1e6, 1, 500)
        assert kde_overlap(x, y) <= 1e-6

    def test_unit_gaussians_one_apart(self):
        rng = np.random.default_rng(6)
        x = rng.normal(0, 1, 10_000)
        y = rng.normal(1, 1, 10_000)
        analytic = 2 * norm.cdf(-0.5)
        assert kde_overlap(x, y) == pytest.approx(analytic, abs=0.03)

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 2, 800)
        y = rng.normal(0.5, 1, 800)
        val = kde_overlap(x, y)
        assert 0.0 <= val <= 1.0 + 1e-3

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, 1500)
        y = rng.normal(0.7, 1.3, 1500)
        base = kde_overlap(x, y)
        scaled = kde_overlap(5.0 * x - 2.0, 5.0 * y - 2.0)
        assert scaled == pytest.approx(base, abs=1e-3)

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSample):
            kde_overlap(np.zeros(10), np.arange(10.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("wide", [[-1e308, 1e308, 0.0], [-1e200, 0.0, 1e200]])
    def test_overflowing_sd_is_degenerate(self, wide):
        with pytest.raises(DegenerateSample, match="standard deviation overflows"):
            kde_overlap(wide, [0.0, 1.0, 2.0])
        with pytest.raises(DegenerateSample, match="standard deviation overflows"):
            kde_overlap([0.0, 1.0, 2.0], wide)
        for side in ("below_p5", "above_p95"):
            with pytest.raises(DegenerateSample, match="standard deviation overflows"):
                tail_overlap(wide, [0.0, 1.0, 2.0], side)

    @pytest.mark.filterwarnings("error")
    def test_distance_of_more_than_the_largest_float_of_bandwidths_is_a_zero_term(self):
        # the tight cluster sets a bandwidth near 1e-162, so grid points 7.5 or
        # more away lie past the largest float of its bandwidths
        p = np.concatenate([np.linspace(0.0, 1e-160, 100), [1e150]])
        assert kde_overlap(p, np.arange(10.0)) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_bandwidth_that_underflows_to_zero_is_degenerate(self):
        # the IQR is the smallest subnormal, and 0.9 * IQR/1.34 * n^-0.2 rounds to 0
        tiny = np.array([0.0] * 50 + [5e-324] * 50 + [1.0])
        with pytest.raises(DegenerateSample, match="bandwidth 0.0"):
            kde_overlap(tiny, np.arange(10.0))
        with pytest.raises(DegenerateSample, match="bandwidth 0.0"):
            tail_overlap(np.arange(10.0), tiny, "below_p5")


class TestTailOverlap:
    def test_identical_samples_high_overlap(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0, 1, 5000)
        assert tail_overlap(x, x, "below_p5") >= 0.99
        assert tail_overlap(x, x, "above_p95") >= 0.99

    def test_far_shifted_prediction_misses_lower_tail(self):
        rng = np.random.default_rng(10)
        truth = rng.normal(0, 1, 2000)
        pred = rng.normal(50, 1, 2000)
        assert tail_overlap(pred, truth, "below_p5") == pytest.approx(0.0, abs=1e-6)

    def test_mirrored_prediction_balances_tails(self):
        # exactly symmetric truth (median 0); pred mirrored about that median:
        # both tail overlaps must coincide
        rng = np.random.default_rng(11)
        half = rng.normal(0, 1, 4000)
        truth = np.concatenate([half, -half])
        pred = -truth
        lo = tail_overlap(pred, truth, "below_p5")
        hi = tail_overlap(pred, truth, "above_p95")
        assert lo == pytest.approx(hi, abs=1e-9)
        assert lo >= 0.99

    def test_matches_independent_quadrature(self):
        # re-derive the statistic with adaptive quadrature on the same
        # kernel-density definition
        from scipy.integrate import quad

        rng = np.random.default_rng(12)
        pred = rng.normal(0.4, 1.2, 700)
        truth = rng.normal(0, 1, 900)

        def bandwidth(s):
            iqr = np.percentile(s, 75) - np.percentile(s, 25)
            return 0.9 * min(s.std(), iqr / 1.34) * s.size ** (-0.2)

        hp, hq = bandwidth(pred), bandwidth(truth)

        def density(s, h):
            return lambda x: float(
                np.exp(-0.5 * ((x - s) / h) ** 2).sum() / (s.size * h * np.sqrt(2 * np.pi))
            )

        p, q = density(pred, hp), density(truth, hq)
        p95 = float(np.percentile(truth, 95.0))
        upper = max(pred.max(), truth.max()) + 3 * max(hp, hq)
        num = quad(lambda x: min(p(x), q(x)), p95, upper, limit=200)[0]
        den = quad(q, p95, upper, limit=200)[0]
        assert tail_overlap(pred, truth, "above_p95") == pytest.approx(num / den, abs=1e-3)

    def test_side_validation(self):
        with pytest.raises(FormatError):
            tail_overlap([1.0, 2.0], [1.0, 2.0], "middle")


class TestSeasonOf:
    @pytest.mark.parametrize(
        "date,season",
        [
            (dt.date(2020, 12, 15), "DJF"),
            (dt.date(2020, 1, 10), "DJF"),
            (dt.date(2020, 3, 1), "MAM"),
            (dt.date(2020, 7, 4), "JJA"),
            (dt.date(2020, 11, 30), "SON"),
        ],
    )
    def test_mapping(self, date, season):
        assert season_of(date) == season


def record(date, tau=30, rmse_val=2.0, acc_val=0.5, overlap=None):
    return EvalRecord(
        target_date=date,
        tau=tau,
        rmse=rmse_val,
        psnr=20.0,
        ssim=0.9,
        acc=acc_val,
        season=season_of(date),
        overlap=overlap,
    )


class TestSeasonalSummary:
    def test_single_season_stats(self):
        recs = [record(dt.date(2020, 7, i), rmse_val=2.0) for i in range(1, 4)]
        out = seasonal_summary(recs)
        assert out["JJA"]["mean_rmse"] == 2.0
        assert out["JJA"]["std_rmse"] == 0.0

    def test_population_std(self):
        recs = [
            record(dt.date(2020, 12, 1), rmse_val=4.0),
            record(dt.date(2021, 1, 1), rmse_val=6.0),
        ]
        out = seasonal_summary(recs)
        assert out["DJF"]["mean_rmse"] == 5.0
        assert out["DJF"]["std_rmse"] == 1.0

    def test_seasons_never_pooled(self):
        base = [record(dt.date(2020, 7, 1), rmse_val=2.0), record(dt.date(2020, 10, 1), rmse_val=3.0)]
        poisoned = [record(dt.date(2020, 7, 1), rmse_val=2.0), record(dt.date(2020, 10, 1), rmse_val=99.0)]
        assert seasonal_summary(base)["JJA"] == seasonal_summary(poisoned)["JJA"]

    def test_counts_partition_records(self):
        recs = [record(dt.date(2020, m, 5)) for m in range(1, 13)]
        out = seasonal_summary(recs)
        assert sum(v["n"] for v in out.values()) == len(recs)

    def test_no_records_is_empty_season(self):
        with pytest.raises(EmptySeason):
            seasonal_summary([])


class TestEvalRecord:
    def test_season_consistency_enforced(self):
        with pytest.raises(FormatError):
            EvalRecord(dt.date(2020, 7, 1), 30, 2.0, 20.0, 0.9, 0.5, "DJF")

    def test_negative_lead_time_rejected(self):
        with pytest.raises(FormatError):
            record(dt.date(2020, 7, 1), tau=-7)
        assert record(dt.date(2020, 7, 1), tau=0).tau == 0


class TestLambdaBins:
    def bins(self):
        return BinSpec((3.0, 4.0, 5.0))

    def grid_with_medians(self, medians, per_bin=5):
        """Cells engineered so each error bin's lower median is as given."""
        lam, err = [], []
        centers = (2.0, 3.5, 4.5, 6.0)
        for m, c in zip(medians, centers):
            vals = [m - 0.01, m, m + 0.02, m - 0.02, m + 0.01][:per_bin]
            lam.extend(vals)
            err.extend([c] * len(vals))
        pad = (-len(lam)) % 4
        lam.extend([medians[0]] * pad)
        err.extend([2.0] * pad)
        n = len(lam)
        shape = (2, n // 2) if n % 2 == 0 else (1, n)
        return np.array(lam).reshape(shape), np.array(err).reshape(shape)

    def test_reference_arithmetic_djf(self):
        medians = (0.687, 0.698, 0.737, 0.742)
        lam, err = self.grid_with_medians(medians)
        row = lambda_bin_analysis(lam, err, self.bins(), season="DJF")
        assert row.medians == medians
        assert row.delta == medians[3] - medians[0]
        assert row.delta == pytest.approx(0.055, abs=1e-12)

    def test_reference_arithmetic_jja(self):
        medians = (0.554, 0.497, 0.509, 0.517)
        lam, err = self.grid_with_medians(medians)
        row = lambda_bin_analysis(lam, err, self.bins(), season="JJA")
        assert row.delta == pytest.approx(-0.037, abs=1e-12)

    def test_constant_lambda_gives_zero_delta(self):
        rng = np.random.default_rng(12)
        err = rng.uniform(0, 8, (6, 6))
        err.flat[:4] = [2.0, 3.5, 4.5, 6.0]  # populate all bins
        lam = np.full((6, 6), 0.5)
        row = lambda_bin_analysis(lam, err, self.bins())
        assert row.medians == (0.5, 0.5, 0.5, 0.5)
        assert row.delta == 0.0

    @pytest.mark.parametrize("edges", [(), (3.0, math.nan, 5.0), (3.0, math.inf), (-math.inf, 4.0)])
    def test_empty_or_non_finite_edges_rejected(self, edges):
        with pytest.raises(FormatError):
            BinSpec(edges)

    def test_decreasing_edges_rejected(self):
        with pytest.raises(FormatError, match="strictly increasing"):
            BinSpec((5.0, 4.0))

    def test_boundary_value_falls_right(self):
        # an error of exactly 3.0 K belongs to the 3-4 bin
        lam = np.array([[0.1, 0.9], [0.1, 0.9]])
        err = np.array([[2.9, 3.0], [2.9, 6.0]])
        row = lambda_bin_analysis(lam, err, self.bins())
        assert row.counts == (2, 1, 0, 1)
        assert row.medians[1] == 0.9

    def test_lower_median_for_even_counts(self):
        lam = np.array([[0.1, 0.2], [0.8, 0.9]])
        err = np.array([[1.0, 1.0], [6.0, 6.0]])
        row = lambda_bin_analysis(lam, err, self.bins())
        assert row.medians[0] == 0.1
        assert row.medians[3] == 0.8

    def test_empty_end_bin_raises(self):
        lam = np.full((2, 2), 0.5)
        err = np.full((2, 2), 3.5)
        with pytest.raises(EmptyBin):
            lambda_bin_analysis(lam, err, self.bins())

    def test_order_invariance(self):
        rng = np.random.default_rng(13)
        lam = rng.uniform(0, 1, 36)
        err = rng.uniform(0, 8, 36)
        err[:4] = [2.0, 3.5, 4.5, 6.0]
        perm = rng.permutation(36)
        a = lambda_bin_analysis(lam.reshape(6, 6), err.reshape(6, 6))
        b = lambda_bin_analysis(lam[perm].reshape(6, 6), err[perm].reshape(6, 6))
        assert a.medians == b.medians and a.delta == b.delta

    def test_complement_flips_delta_sign(self):
        lam = np.array([[0.2, 0.3, 0.4], [0.6, 0.7, 0.8]])
        err = np.array([[1.0, 1.0, 1.0], [6.0, 6.0, 6.0]])
        a = lambda_bin_analysis(lam, err, self.bins())
        b = lambda_bin_analysis(1.0 - lam, err, self.bins())
        assert b.delta == pytest.approx(-a.delta, abs=1e-12)


class TestLeadTimeCurves:
    def test_single_record(self):
        curves = lead_time_curves([record(dt.date(2020, 7, 1), tau=30, rmse_val=2.5)])
        assert curves[("JJA", 30)] == 2.5

    def test_flat_for_tau_invariant_records(self):
        recs = [record(dt.date(2020, 7, 1), tau=t, rmse_val=3.0) for t in (30, 60, 90)]
        curves = lead_time_curves(recs)
        assert set(curves.values()) == {3.0}

    def test_groups_partition(self):
        recs = [record(dt.date(2020, 7, i + 1), tau=30 + 5 * (i % 3)) for i in range(9)]
        curves = lead_time_curves(recs)
        assert len(recs) == sum(
            sum(1 for r in recs if (r.season, r.tau) == key) for key in curves
        )


class TestMakeEvalRecord:
    def test_full_pipeline(self):
        rng = np.random.default_rng(14)
        stats = NormStats(260.0, 300.0)
        truth = rng.uniform(0.2, 0.8, (12, 12))
        pred = np.clip(truth + rng.normal(0, 0.02, (12, 12)), 0, 1)
        clim = np.clip(truth + rng.normal(0, 0.05, (12, 12)), 0, 1)
        rec = make_eval_record(pred, truth, clim, stats, dt.date(2020, 7, 1), 45)
        assert rec.season == "JJA"
        assert rec.tau == 45
        # kelvin-space RMSE scales the normalized error by the stats span
        assert rec.rmse == pytest.approx(rmse(pred, truth) * stats.span, rel=1e-9)
        assert -1 <= rec.acc <= 1

    def test_identical_prediction_gets_infinite_psnr(self):
        stats = NormStats(260.0, 300.0)
        rng = np.random.default_rng(15)
        truth = rng.uniform(0.2, 0.8, (12, 12))
        clim = np.clip(truth + 0.01, 0, 1)
        rec = make_eval_record(truth, truth, clim, stats, dt.date(2020, 1, 5), 30)
        assert math.isinf(rec.psnr)

    def test_climatology_of_another_grid_is_a_shape_mismatch(self):
        fields = np.random.default_rng(16).uniform(0.2, 0.8, (2, 12, 12))
        with pytest.raises(ShapeMismatch, match="climatology shape"):
            evaluate_stack(fields, fields, fields[:, :, :11], NormStats(260.0, 300.0),
                           [dt.date(2020, 1, 5), dt.date(2020, 1, 6)], 30)
