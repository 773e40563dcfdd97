import numpy as np
import pytest

from topofield import (
    CriticalKind,
    ScalarField,
    build_structural_channels,
    build_structural_stack,
    classify_critical_points,
    extract_saddle_contours,
    gaussian_mixture_field,
)
from topofield.errors import GridTooSmall, OutOfRange
from topofield.structural import T_MAXIMUM, T_SADDLE

from oracles import straddle_mask

SADDLE_PATCH = np.array([[-1.0, 1.0, 1.0], [-1.0, 0.0, -1.0], [1.0, 1.0, -1.0]])


def ring_sign_changes(patch3):
    """Independent recount of cyclic ring sign changes for a 3x3 patch."""
    ring = [(0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0), (1, 0), (0, 0)]
    center = (patch3[1, 1], 1 * 3 + 1)
    signs = [1 if (patch3[i, j], i * 3 + j) > center else -1 for i, j in ring]
    return sum(signs[k] != signs[(k + 1) % 8] for k in range(8))


class TestClassification:
    def test_ramp_has_no_critical_points(self):
        ramp = np.tile(np.arange(7.0), (5, 1))
        assert classify_critical_points(ramp) == []

    def test_all_negative_ring_is_maximum(self):
        patch = np.full((3, 3), -1.0)
        patch[1, 1] = 0.0
        pts = classify_critical_points(patch)
        assert len(pts) == 1
        assert pts[0].kind is CriticalKind.MAXIMUM
        assert (pts[0].row, pts[0].col, pts[0].value) == (1, 1, 0.0)

    def test_all_positive_ring_is_minimum(self):
        patch = np.full((3, 3), 1.0)
        patch[1, 1] = 0.0
        pts = classify_critical_points(patch)
        assert len(pts) == 1 and pts[0].kind is CriticalKind.MINIMUM

    def test_four_sign_changes_is_saddle(self):
        assert ring_sign_changes(SADDLE_PATCH) == 4
        pts = classify_critical_points(SADDLE_PATCH)
        assert len(pts) == 1 and pts[0].kind is CriticalKind.SADDLE

    def test_grid_too_small(self):
        with pytest.raises(GridTooSmall):
            classify_critical_points(np.zeros((2, 5)))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_grid_without_cells_is_too_small(self, shape):
        for view in (classify_critical_points, lambda grid: extract_saddle_contours(grid, [])):
            with pytest.raises(GridTooSmall, match=f"{shape[0]}x{shape[1]} grid"):
                view(np.zeros(shape))

    def test_constant_field_classifies_nothing(self):
        # ties resolve to the index ramp; its perturbed maximum is the
        # bottom-right boundary cell, so nothing interior is critical
        assert classify_critical_points(np.zeros((4, 6))) == []

    def test_every_interior_cell_has_one_category(self):
        rng = np.random.default_rng(13)
        grid = rng.integers(0, 5, size=(8, 9)).astype(float)
        pts = classify_critical_points(grid)
        locs = [(p.row, p.col) for p in pts]
        assert len(locs) == len(set(locs))

    def test_shift_leaves_kinds_and_shifts_values(self):
        rng = np.random.default_rng(3)
        grid = rng.uniform(0, 1, size=(7, 7))
        base = classify_critical_points(grid)
        shifted = classify_critical_points(grid + 2.5)
        assert [(p.row, p.col, p.kind) for p in base] == [(p.row, p.col, p.kind) for p in shifted]
        for p, q in zip(base, shifted):
            assert q.value == pytest.approx(p.value + 2.5, abs=1e-12)


class TestSaddleContours:
    def test_no_saddles_gives_zero_mask(self):
        grid = np.tile(np.arange(5.0), (4, 1))
        mask = extract_saddle_contours(grid, [])
        assert not mask.values.any()

    def test_saddle_patch_marks_exactly_the_ring(self):
        pts = classify_critical_points(SADDLE_PATCH)
        mask = extract_saddle_contours(SADDLE_PATCH, pts)
        expected = straddle_mask(SADDLE_PATCH, (1, 1))
        assert np.array_equal(mask.values.astype(bool), expected)
        # the ring pixels carry the four sign-change segments; center excluded
        assert mask.values[1, 1] == 0.0
        assert mask.values.sum() == 8.0

    def test_two_bump_mask_matches_straddle_oracle(self):
        field = gaussian_mixture_field(
            (15, 15),
            [bump(4, 4), bump(10, 10)],
        )
        pts = classify_critical_points(field)
        saddles = [p for p in pts if p.kind is CriticalKind.SADDLE]
        assert saddles
        mask = extract_saddle_contours(field, saddles)
        assert mask.values.any()
        expected = np.zeros(field.shape, dtype=bool)
        for s in saddles:
            expected |= straddle_mask(field.values, (s.row, s.col))
        assert np.array_equal(mask.values.astype(bool), expected)


def bump(r, c, amplitude=1.0, sigma=2.0):
    from topofield import BumpSpec

    return BumpSpec(r, c, amplitude, sigma)


class TestBuildChannels:
    def test_ramp_channels_all_zero(self):
        ramp = ScalarField(np.tile(np.linspace(0, 1, 6), (5, 1)))
        _, t, v, c = build_structural_channels(ramp).to_array()
        assert not t.any()
        assert not v.any()
        assert not c.any()

    def test_constant_field_channels_all_zero(self):
        _, t, _, c = build_structural_channels(ScalarField(np.full((5, 5), 0.25))).to_array()
        assert not t.any()
        assert not c.any()

    def test_two_bump_codes(self):
        field = gaussian_mixture_field((15, 15), [bump(4, 4, 0.9), bump(10, 10, 0.9)])
        t = build_structural_channels(field).to_array()[1]
        assert (t == T_MAXIMUM).sum() >= 2
        assert (t == T_SADDLE).sum() >= 1

    def test_v_nonzero_only_at_critical_cells(self):
        field = gaussian_mixture_field((15, 15), [bump(4, 4, 0.9), bump(10, 10, 0.9)])
        _, t, v, _ = build_structural_channels(field).to_array()
        assert np.all((v != 0) <= (t != 0))

    def test_rejects_unnormalized_input(self):
        with pytest.raises(OutOfRange):
            build_structural_channels(ScalarField(np.full((5, 5), 280.0)))

    def test_single_bump_single_maximum(self):
        field = gaussian_mixture_field((15, 15), [bump(7, 7, 0.9)])
        pts = classify_critical_points(field)
        maxima = [p for p in pts if p.kind is CriticalKind.MAXIMUM]
        assert len(maxima) == 1
        assert (maxima[0].row, maxima[0].col) == (7, 7)

    def test_determinism(self):
        field = gaussian_mixture_field((12, 12), [bump(5, 6, 0.8)])
        a = build_structural_channels(field).to_array()
        b = build_structural_channels(field).to_array()
        assert np.array_equal(a, b)
        assert not a.flags.writeable


class TestCausality:
    def test_channels_depend_only_on_their_date(self):
        import datetime as dt

        from topofield import FieldStack

        rng = np.random.default_rng(1)
        base = rng.uniform(0, 1, size=(3, 1, 6, 6))
        dates = tuple(dt.date(2020, 1, d + 1) for d in range(3))
        stack_a = FieldStack(dates, base)
        poisoned = base.copy()
        poisoned[2] = rng.uniform(0, 1, size=(1, 6, 6))
        stack_b = FieldStack(dates, poisoned)
        xa = build_structural_stack(stack_a)
        xb = build_structural_stack(stack_b)
        assert np.array_equal(xa.values[0], xb.values[0])
        assert np.array_equal(xa.values[1], xb.values[1])


class TestBuildStack:
    def test_threads_do_not_change_output(self):
        import datetime as dt

        from topofield import FieldStack

        rng = np.random.default_rng(2)
        vals = rng.uniform(0, 1, size=(5, 1, 8, 8))
        dates = tuple(dt.date(2020, 2, d + 1) for d in range(5))
        stack = FieldStack(dates, vals)
        seq = build_structural_stack(stack, threads=1)
        par = build_structural_stack(stack, threads=4)
        assert np.array_equal(seq.values, par.values)
