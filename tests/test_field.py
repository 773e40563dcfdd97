import datetime as dt
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topofield import (
    FieldStack,
    NormStats,
    ScalarField,
    SplitSpec,
    compute_norm_stats,
    denormalize,
    denormalize_stack,
    normalize_stack,
    stack_from_bytes,
    stack_to_bytes,
)
from topofield.errors import DegenerateStats, EmptyTrainingSet, FormatError, OutOfRange
from topofield.field import normalized

from oracles import interpolated_percentile


def stack_of(dates_values, channels=1):
    dates = [d for d, _ in dates_values]
    arr = np.stack([np.asarray(v, dtype=float) for _, v in dates_values])[:, None, :, :]
    if channels == 4:
        arr = np.repeat(arr, 4, axis=1)
    return FieldStack(tuple(dates), arr)


class TestScalarField:
    def test_rejects_nan(self):
        with pytest.raises(FormatError):
            ScalarField(np.array([[0.0, np.nan], [0.0, 0.0]]))

    def test_rejects_small(self):
        with pytest.raises(FormatError):
            ScalarField(np.zeros((1, 5)))

    def test_immutable(self):
        f = ScalarField(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0


class TestFieldStack:
    def test_dates_strictly_increasing(self):
        with pytest.raises(FormatError):
            stack_of([(dt.date(2020, 1, 2), np.zeros((2, 2))), (dt.date(2020, 1, 1), np.zeros((2, 2)))])

    def test_duplicate_dates_rejected(self):
        with pytest.raises(FormatError):
            stack_of([(dt.date(2020, 1, 1), np.zeros((2, 2)))] * 2)

    def test_channels_must_be_1_or_4(self):
        with pytest.raises(FormatError):
            FieldStack((dt.date(2020, 1, 1),), np.zeros((1, 2, 3, 3)))

    def test_adopts_a_read_only_owned_array(self):
        arr = np.random.default_rng(0).uniform(size=(2, 1, 3, 4))
        arr.setflags(write=False)
        stack = FieldStack((dt.date(2020, 1, 1), dt.date(2020, 1, 2)), arr)
        assert stack.values is arr

    def test_copies_a_writable_array_or_a_view(self):
        arr = np.zeros((2, 1, 3, 4))
        stack = FieldStack((dt.date(2020, 1, 1), dt.date(2020, 1, 2)), arr)
        arr[0, 0, 0, 0] = 1.0
        assert stack.values is not arr and stack.values[0, 0, 0, 0] == 0.0
        assert not stack.values.flags.writeable
        view = stack.values[:1]
        assert FieldStack((dt.date(2020, 1, 1),), view).values is not view

    def test_adopt_freezes_the_array_it_is_handed(self):
        arr = np.zeros((1, 1, 3, 4))
        stack = FieldStack._adopt((dt.date(2020, 1, 1),), arr)
        assert stack.values is arr and not arr.flags.writeable

    def test_normalize_stack_makes_one_array_and_matches_each_field(self):
        rng = np.random.default_rng(2)
        stack = FieldStack(tuple(dt.date(2020, 1, d) for d in range(1, 21)), rng.normal(280, 10, (20, 1, 60, 70)))
        stats = NormStats(265.0, 295.0)
        tracemalloc.start()
        try:
            got = normalize_stack(stack, stats).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * got.nbytes, (peak, got.nbytes)
        for i in range(20):
            assert got[i, 0].tobytes() == normalized(stack.values[i, 0], stats).tobytes()

    def test_reading_a_stack_makes_one_float64_array(self):
        stack = stack_of([(dt.date(2020, 1, d), np.full((60, 70), float(d))) for d in range(1, 21)])
        raw = stack_to_bytes(stack)
        tracemalloc.start()
        try:
            values = stack_from_bytes(raw).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.tobytes() == stack.values.tobytes()
        assert peak < 1.5 * values.nbytes, (peak, values.nbytes)

    def test_denormalize_stack_matches_each_field(self):
        rng = np.random.default_rng(1)
        stack = FieldStack((dt.date(2020, 1, 1), dt.date(2020, 1, 2)), rng.uniform(size=(2, 4, 3, 5)))
        stats = NormStats(250.0, 310.0)
        got = denormalize_stack(stack, stats).values
        for i in range(2):
            for c in range(4):
                assert got[i, c].tobytes() == denormalize(ScalarField(stack.values[i, c]), stats).values.tobytes()


class TestComputeNormStats:
    def test_percentile_convention_on_0_to_100(self):
        # pooled multiset {0..100}: the linear-interpolation convention puts
        # q=0.01 at index 1 and q=0.99 at index 99
        vals = np.arange(101.0)
        assert interpolated_percentile(vals, 0.01) == 1.0
        assert interpolated_percentile(vals, 0.99) == 99.0
        assert np.percentile(vals, 1.0) == 1.0
        assert np.percentile(vals, 99.0) == 99.0

    def test_matches_interpolation_oracle(self):
        rng = np.random.default_rng(7)
        grid = rng.uniform(250, 310, size=(6, 7))
        stack = stack_of([(dt.date(2015, 3, 1), grid)])
        split = SplitSpec(frozenset({2015}), frozenset({2020}))
        stats = compute_norm_stats(stack, split)
        assert stats.p1 == pytest.approx(interpolated_percentile(grid, 0.01), abs=1e-12)
        assert stats.p99 == pytest.approx(interpolated_percentile(grid, 0.99), abs=1e-12)

    def test_constant_training_data_is_degenerate(self):
        stack = stack_of([(dt.date(2015, 1, 1), np.full((3, 3), 280.0))])
        with pytest.raises(DegenerateStats):
            compute_norm_stats(stack, SplitSpec(frozenset({2015})))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p1, p99", [(-1e308, 1e308), (np.float64(-1e308), np.float64(1e308))])
    def test_span_that_overflows_is_degenerate(self, p1, p99):
        with pytest.raises(DegenerateStats, match="p99 - p1 overflows"):
            NormStats(p1, p99)
        assert NormStats(-8e307, 8e307).span == 1.6e308

    def test_only_test_years_is_empty(self):
        stack = stack_of([(dt.date(2020, 1, 1), np.arange(9.0).reshape(3, 3))])
        with pytest.raises(EmptyTrainingSet):
            compute_norm_stats(stack, SplitSpec(frozenset({2015}), frozenset({2020})))

    def test_never_reads_test_years(self):
        rng = np.random.default_rng(3)
        train = rng.uniform(250, 310, size=(4, 5))
        poisoned = np.full((4, 5), 1e9)
        clean = stack_of([(dt.date(2015, 1, 1), train), (dt.date(2020, 1, 1), train)])
        dirty = stack_of([(dt.date(2015, 1, 1), train), (dt.date(2020, 1, 1), poisoned)])
        split = SplitSpec(frozenset({2015}), frozenset({2020}))
        a = compute_norm_stats(clean, split)
        b = compute_norm_stats(dirty, split)
        assert (a.p1, a.p99) == (b.p1, b.p99)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(11)
        grid = rng.uniform(0, 100, size=(4, 4))
        perm = rng.permutation(grid.ravel()).reshape(4, 4)
        split = SplitSpec(frozenset({2015}))
        s1 = compute_norm_stats(stack_of([(dt.date(2015, 1, 1), grid)]), split)
        s2 = compute_norm_stats(stack_of([(dt.date(2015, 1, 1), perm)]), split)
        assert (s1.p1, s1.p99) == (s2.p1, s2.p99)


class TestNormalizeDenormalize:
    STATS = NormStats(260.0, 300.0)

    def test_p1_maps_to_zero(self):
        f = ScalarField(np.full((3, 3), 260.0))
        assert np.all(normalized(f.values, self.STATS) == 0.0)

    def test_p99_maps_to_one(self):
        f = ScalarField(np.full((3, 3), 300.0))
        assert np.all(normalized(f.values, self.STATS) == 1.0)

    def test_above_p99_clips(self):
        grid = np.full((3, 3), 280.0)
        grid[1, 1] = 350.0
        out = normalized(grid, self.STATS)
        assert out[1, 1] == 1.0

    def test_denormalize_midpoint(self):
        f = ScalarField(np.full((2, 2), 0.5))
        assert np.all(denormalize(f, self.STATS).values == 280.0)

    def test_denormalize_zero_is_p1(self):
        f = ScalarField(np.zeros((2, 2)))
        assert np.all(denormalize(f, self.STATS).values == 260.0)

    def test_denormalize_rejects_out_of_range(self):
        f = ScalarField(np.full((2, 2), 1.5))
        with pytest.raises(OutOfRange):
            denormalize(f, self.STATS)

    def test_round_trip_within_bounds(self):
        rng = np.random.default_rng(5)
        grid = rng.uniform(260.0, 300.0, size=(4, 4))
        f = ScalarField(grid)
        back = denormalize(ScalarField(normalized(f.values, self.STATS)), self.STATS)
        assert np.allclose(back.values, grid, atol=1e-6 * self.STATS.span)

    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_normalize_monotone(self, u, v):
        lo, hi = sorted((260.0 + 40.0 * u, 260.0 + 40.0 * v))
        a = normalized(np.full((2, 2), lo), self.STATS)[0, 0]
        b = normalized(np.full((2, 2), hi), self.STATS)[0, 0]
        assert a <= b

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_normalize_after_denormalize_is_identity(self, x):
        f = ScalarField(np.full((2, 2), x))
        again = normalized(denormalize(f, self.STATS).values, self.STATS)
        assert abs(again[0, 0] - x) <= 1e-9


class TestSplitSpec:
    def test_overlap_rejected(self):
        with pytest.raises(FormatError):
            SplitSpec(frozenset({2015, 2020}), frozenset({2020}))
