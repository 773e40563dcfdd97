import datetime as dt

import numpy as np
import pytest

from topofield import (
    BumpSpec,
    ClimateSpec,
    CriticalKind,
    SplitSpec,
    build_climatology,
    classify_critical_points,
    climatology_forecast,
    fuse,
    gaussian_mixture_field,
    generate_climate,
    oracle_lambda,
    rmse,
    sublevel_persistence,
)
from topofield import synthetic
from topofield.errors import FormatError


class TestGaussianMixture:
    def test_empty_bumps_is_zero_field(self):
        f = gaussian_mixture_field((5, 5), [])
        assert not f.values.any()

    def test_single_bump_single_maximum(self):
        f = gaussian_mixture_field((15, 15), [BumpSpec(7, 7, 1.0, 2.0)])
        pts = classify_critical_points(f)
        maxima = [p for p in pts if p.kind is CriticalKind.MAXIMUM]
        assert [(p.row, p.col) for p in maxima] == [(7, 7)]

    def test_two_bumps_merge_structure(self):
        f = gaussian_mixture_field((15, 15), [BumpSpec(4, 4, 1.0, 2.0), BumpSpec(10, 10, 1.0, 2.0)])
        pts = classify_critical_points(f)
        kinds = [p.kind for p in pts]
        assert kinds.count(CriticalKind.MAXIMUM) == 2
        assert kinds.count(CriticalKind.SADDLE) >= 1
        # sublevel homology of the negated field: two basins, one essential
        pd = sublevel_persistence(-f.values, 0)
        assert len(pd.pairs) == 2
        assert len(pd.essential_births) == 1

    def test_deterministic(self):
        bumps = [BumpSpec(3.5, 4.5, 0.7, 1.5)]
        a = gaussian_mixture_field((9, 9), bumps)
        b = gaussian_mixture_field((9, 9), bumps)
        assert np.array_equal(a.values, b.values)

    def test_sigma_must_be_positive(self):
        with pytest.raises(FormatError):
            BumpSpec(1, 1, 1.0, 0.0)


SPEC = ClimateSpec(
    n_years=6,
    height=8,
    width=10,
    annual_amp=1.0,
    interannual_amp=0.4,
    weather_amp=0.5,
    ar1_coeff=0.8,
    seed=7,
)


class TestGenerateClimate:
    def test_same_seed_is_bit_identical(self):
        a = generate_climate(SPEC)
        b = generate_climate(SPEC)
        assert a.dates == b.dates
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        import dataclasses

        other = dataclasses.replace(SPEC, seed=8)
        a = generate_climate(SPEC)
        b = generate_climate(other)
        assert not np.array_equal(a.values, b.values)

    def test_covers_whole_years_daily(self):
        stack = generate_climate(SPEC)
        assert stack.dates[0] == dt.date(2010, 1, 1)
        assert stack.dates[-1] == dt.date(2015, 12, 31)
        assert len(stack) == (dt.date(2015, 12, 31) - dt.date(2010, 1, 1)).days + 1

    def test_pure_seasonal_cycle_makes_climatology_perfect(self):
        import dataclasses

        spec = dataclasses.replace(SPEC, interannual_amp=0.0, weather_amp=0.0)
        stack = generate_climate(spec)
        split = SplitSpec(frozenset({2010, 2011, 2012, 2013}), frozenset({2014, 2015}))
        clim = build_climatology(stack, split)
        errs = []
        for i, day in enumerate(stack.dates):
            if day.year in split.test_years and (day.month, day.day) != (2, 29):
                pred = climatology_forecast(clim, day)
                errs.append(rmse(pred, stack.field(i)))
        assert max(errs) < 1e-9

    def test_recent_memory_beats_interannual_when_ar1_high(self):
        import dataclasses

        spec = dataclasses.replace(
            SPEC, interannual_amp=0.0, weather_amp=1.0, ar1_coeff=0.98, annual_amp=0.2
        )
        stack = generate_climate(spec)
        idx = {day: i for i, day in enumerate(stack.dates)}
        intra_r, inter_r = [], []
        for year in (2014, 2015):
            for month in (3, 6, 9):
                t = dt.date(year, month, 15)
                target = stack.values[idx[t], 0].ravel()
                recent = stack.values[idx[t - dt.timedelta(days=30)], 0].ravel()
                aligned = stack.values[idx[dt.date(year - 1, month, 15)], 0].ravel()
                intra_r.append(np.corrcoef(target, recent)[0, 1])
                inter_r.append(np.corrcoef(target, aligned)[0, 1])
        assert np.mean(intra_r) > np.mean(inter_r)


README_SPEC = ClimateSpec(
    n_years=5, height=24, width=32, annual_amp=8.0, interannual_amp=2.0, weather_amp=3.0, ar1_coeff=0.85, seed=7
)
FILTER_SHAPES = [(2, 2), (3, 40), (5, 5), (7, 13), (24, 32), (101, 237)]


class TestGaussianFilter:
    """The numpy filter that small climates use in place of scipy's."""

    @pytest.mark.parametrize("shape", FILTER_SHAPES)
    def test_byte_equal_to_ndimage_on_a_field_and_a_batch(self, shape):
        from scipy import ndimage

        sigma = max(1.0, min(shape) / 6.0)
        batch = np.random.default_rng(sum(shape)).standard_normal((3, *shape))
        want = np.stack([ndimage.gaussian_filter(f, sigma=sigma, mode="reflect") for f in batch])
        assert synthetic._numpy_gaussian_filter(batch[1], sigma).tobytes() == want[1].tobytes()
        assert synthetic._numpy_gaussian_filter(batch, sigma).tobytes() == want.tobytes()

    def test_radius_wider_than_a_side(self):
        weights = synthetic._gaussian_weights(max(1.0, 3 / 6.0))
        assert len(weights) // 2 > 3

    @pytest.mark.parametrize("spec", [README_SPEC, ClimateSpec(4, 7, 13, 1.0, 0.3, 0.4, 0.6, seed=3, start_year=1999)])
    def test_climate_is_byte_equal_under_both_routes(self, spec, monkeypatch):
        monkeypatch.setattr(synthetic, "_NUMPY_FILTER_MAX_WORK", 0)
        by_ndimage = generate_climate(spec)
        monkeypatch.setattr(synthetic, "_NUMPY_FILTER_MAX_WORK", float("inf"))
        by_numpy = generate_climate(spec)
        assert by_numpy.dates == by_ndimage.dates
        assert by_numpy.values.tobytes() == by_ndimage.values.tobytes()

    @pytest.mark.parametrize("shape, by_ndimage", [((24, 32), False), ((101, 237), True)])
    def test_route_follows_field_size(self, shape, by_ndimage, monkeypatch):
        from scipy import ndimage

        real, calls = ndimage.gaussian_filter, []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(ndimage, "gaussian_filter", counted)
        synthetic._smooth_fields([(1, 2, 3)], shape)
        assert calls == ([(1, *shape)] if by_ndimage else [])


class TestOracleLambda:
    def test_truth_equals_inter(self):
        rng = np.random.default_rng(0)
        inter = rng.uniform(0, 1, (5, 5))
        intra = rng.uniform(0, 1, (5, 5))
        lam = oracle_lambda(inter, intra, inter)
        differs = np.abs(inter - intra) > 1e-12
        assert np.all(lam.level1.values[differs] == 1.0)

    def test_truth_at_midpoint(self):
        rng = np.random.default_rng(1)
        inter = rng.uniform(0, 1, (5, 5))
        intra = inter + 0.4
        truth = (inter + intra) / 2.0
        lam = oracle_lambda(inter, intra, truth)
        assert np.allclose(lam.level1.values, 0.5)

    def test_coincident_branches_get_half(self):
        inter = np.full((3, 3), 0.3)
        lam = oracle_lambda(inter, inter, np.full((3, 3), 0.9))
        assert np.all(lam.level1.values == 0.5)

    def test_fused_error_dominates_both_branches_pointwise(self):
        rng = np.random.default_rng(2)
        inter = rng.uniform(0, 1, (6, 6))
        intra = rng.uniform(0, 1, (6, 6))
        truth = rng.uniform(0, 1, (6, 6))
        lam = oracle_lambda(inter, intra, truth)
        from topofield import ScalarField

        fused = fuse(ScalarField(inter), ScalarField(intra), lam)
        err_f = np.abs(fused.values - truth)
        err_a = np.abs(inter - truth)
        err_b = np.abs(intra - truth)
        assert np.all(err_f <= np.minimum(err_a, err_b) + 1e-12)

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(3)
        lam = oracle_lambda(
            rng.normal(size=(4, 4)), rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        )
        assert lam.level1.values.min() >= 0.0
        assert lam.level1.values.max() <= 1.0
