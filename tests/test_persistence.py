import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topofield import (
    PersistenceDiagram,
    diagrams_to_csv,
    filter_by_persistence,
    read_diagram_csv,
    sublevel_persistence,
    sublevel_persistence_reduction,
    write_diagram_csv,
)
from topofield.errors import DimensionMismatch, FormatError, GridTooSmall

from oracles import count_local_minima, naive_sublevel_pairs

INF = math.inf

CRATER = np.array(
    [
        [0.91, 0.93, 0.95],
        [0.97, 9.00, 0.92],
        [0.94, 0.96, 0.98],
    ]
)


def random_grid(rng):
    h = int(rng.integers(3, 11))
    w = int(rng.integers(3, 11))
    return rng.integers(0, 100, size=(h, w)).astype(float)


class TestSublevelExamples:
    def test_constant_field(self):
        grid = np.full((4, 5), 2.5)
        assert sublevel_persistence(grid, 0).pairs == ((2.5, INF),)
        assert sublevel_persistence(grid, 1).pairs == ()

    def test_1x3_field(self):
        assert sublevel_persistence(np.array([[0.0, 2.0, 1.0]]), 0).pairs == ((0.0, INF), (1.0, 2.0))
        assert naive_sublevel_pairs(np.array([[0.0, 2.0, 1.0]]), 0) == [(0.0, INF), (1.0, 2.0)]

    def test_crater_loop(self):
        # ring values are distinct; the loop closes at the largest ring value
        # and fills when the center enters
        assert sublevel_persistence(CRATER, 1).pairs == ((0.98, 9.0),)
        assert naive_sublevel_pairs(CRATER, 1) == [(0.98, 9.0)]

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    @pytest.mark.parametrize("route", [sublevel_persistence, sublevel_persistence_reduction])
    @pytest.mark.parametrize("dim", [0, 1])
    def test_grid_without_cells_is_too_small(self, shape, route, dim):
        with pytest.raises(GridTooSmall, match=f"{shape[0]}x{shape[1]} grid"):
            route(np.zeros(shape), dim)

    def test_bad_dimension(self):
        with pytest.raises(DimensionMismatch):
            sublevel_persistence(CRATER, 2)


class TestOracleAgreement:
    def test_matches_naive_reduction(self):
        rng = np.random.default_rng(100)
        for _ in range(60):
            grid = random_grid(rng)
            for dim in (0, 1):
                assert list(sublevel_persistence(grid, dim).pairs) == naive_sublevel_pairs(grid, dim)

    def test_both_routes_agree(self):
        rng = np.random.default_rng(101)
        for _ in range(40):
            grid = random_grid(rng)
            for dim in (0, 1):
                assert sublevel_persistence(grid, dim).pairs == sublevel_persistence_reduction(grid, dim).pairs

    def test_h0_births_are_local_minima(self):
        rng = np.random.default_rng(102)
        for _ in range(40):
            grid = random_grid(rng)
            assert len(sublevel_persistence(grid, 0).pairs) == count_local_minima(grid)

    def test_h1_has_no_essential_classes_on_rectangles(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            grid = random_grid(rng)
            assert sublevel_persistence(grid, 1).essential_births == ()

    def test_h0_has_exactly_one_essential_class(self):
        rng = np.random.default_rng(104)
        grid = random_grid(rng)
        pd = sublevel_persistence(grid, 0)
        assert len(pd.essential_births) == 1
        assert pd.essential_births[0] == grid.min()


class TestZeroPersistence:
    # two zero-valued basins bridged through a later-indexed zero cell: the
    # merge produces a (0, 0) pair with zero unperturbed persistence
    BRIDGE = np.array([[0.0, 9.0, 0.0], [0.0, 0.0, 0.0], [9.0, 9.0, 9.0]])

    def test_equal_value_pair_is_retained(self):
        pd = sublevel_persistence(self.BRIDGE, 0)
        assert pd.pairs == ((0.0, 0.0), (0.0, INF))

    def test_caller_can_filter_them_out(self):
        pd = filter_by_persistence(sublevel_persistence(self.BRIDGE, 0), 1e-9)
        assert pd.pairs == ((0.0, INF),)

    def test_four_minima_plateau(self):
        grid = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]])
        pd = sublevel_persistence(grid, 0)
        assert len(pd.pairs) == 4
        assert all(p == (0.0, 1.0) for p in pd.finite_pairs)


class TestShiftEquivariance:
    def test_diagram_shifts_with_constant(self):
        for dim in (0, 1):
            base = sublevel_persistence(CRATER, dim).pairs
            shifted = sublevel_persistence(CRATER + 0.25, dim).pairs
            assert len(base) == len(shifted)
            for (b1, d1), (b2, d2) in zip(base, shifted):
                assert b2 == pytest.approx(b1 + 0.25, abs=1e-12)
                if math.isinf(d1):
                    assert math.isinf(d2)
                else:
                    assert d2 == pytest.approx(d1 + 0.25, abs=1e-12)


class TestStability:
    def test_bounded_noise_moves_diagrams_boundedly(self):
        from topofield import bottleneck_distance

        rng = np.random.default_rng(105)
        for _ in range(25):
            f = random_grid(rng)
            noise = rng.uniform(-3, 3, size=f.shape)
            g = f + noise
            bound = float(np.abs(noise).max()) + 1e-9
            for dim in (0, 1):
                d = bottleneck_distance(sublevel_persistence(f, dim), sublevel_persistence(g, dim))
                assert d <= bound


class TestDiagramPairs:
    @pytest.mark.parametrize("birth", [-INF, INF, math.nan])
    def test_non_finite_birth_is_rejected(self, birth):
        with pytest.raises(FormatError, match="birth .* is not finite"):
            PersistenceDiagram(1, ((0.0, 1.0), (birth, 0.0)))
        with pytest.raises(FormatError, match="birth .* is not finite"):
            PersistenceDiagram(0, ((birth, INF),))

    def test_first_bad_pair_in_input_order_is_named(self):
        with pytest.raises(FormatError, match=r"^death 0\.5 precedes birth 2\.0$"):
            PersistenceDiagram(1, ((0.0, 1.0), (2.0, 0.5), (INF, 1.0)))
        with pytest.raises(FormatError, match=r"^birth inf is not finite$"):
            PersistenceDiagram(1, ((0.0, 1.0), (INF, 1.0), (2.0, 0.5)))
        with pytest.raises(FormatError, match=r"^death nan precedes birth 1\.0$"):
            PersistenceDiagram(0, np.array([[1.0, math.nan], [2.0, -INF]]))

    def test_array_is_read_only_and_sorted_stably(self):
        pd = PersistenceDiagram(0, ((1.0, 2.0), (0.0, 1.0), (0.5, INF), (-0.0, 1.0)))
        # -0.0 and 0.0 tie, so equal pairs keep their input order
        assert repr(pd.pairs) == "((0.0, 1.0), (-0.0, 1.0), (0.5, inf), (1.0, 2.0))"
        assert pd.array.flags.writeable is False and np.array_equal(pd.array, np.array(pd.pairs))
        swapped = PersistenceDiagram(0, ((-0.0, 1.0), (0.0, 1.0), (1.0, 2.0), (0.5, INF)))
        assert repr(swapped.pairs[:2]) == "((-0.0, 1.0), (0.0, 1.0))"
        assert swapped == pd and hash(swapped) == hash(pd) and swapped != PersistenceDiagram(1, pd.pairs)
        assert pd.finite_pairs == ((0.0, 1.0), (-0.0, 1.0), (1.0, 2.0)) and pd.essential_births == (0.5,)


class TestFilter:
    def test_zero_threshold_is_identity(self):
        pd = PersistenceDiagram(0, ((0.0, 2.0), (1.0, 1.05), (0.5, INF)))
        assert filter_by_persistence(pd, 0.0).pairs == pd.pairs

    def test_drops_short_pairs(self):
        pd = PersistenceDiagram(0, ((0.0, 2.0), (1.0, 1.05)))
        assert filter_by_persistence(pd, 0.1).pairs == ((0.0, 2.0),)

    def test_essential_pairs_survive_any_threshold(self):
        pd = PersistenceDiagram(0, ((0.5, INF),))
        assert filter_by_persistence(pd, 1e9).pairs == ((0.5, INF),)

    @pytest.mark.parametrize("threshold", [-1.0, math.nan])
    def test_negative_or_nan_threshold_rejected(self, threshold):
        pd = PersistenceDiagram(0, ((0.0, 2.0), (1.0, 1.05)))
        with pytest.raises(FormatError):
            filter_by_persistence(pd, threshold)


class TestDiagramCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(200)
        pairs0 = tuple((float(b), float(b + p)) for b, p in rng.uniform(0, 1, size=(5, 2)))
        pd0 = PersistenceDiagram(0, pairs0 + ((float(rng.uniform()), INF),))
        pd1 = PersistenceDiagram(1, tuple((float(b), float(b + p)) for b, p in rng.uniform(0, 1, size=(3, 2))))
        path = tmp_path / "diagram.csv"
        write_diagram_csv(path, [pd0, pd1])
        back = read_diagram_csv(path)
        assert back[0].pairs == pd0.pairs
        assert back[1].pairs == pd1.pairs

    def test_header_and_inf_format(self, tmp_path):
        path = tmp_path / "d.csv"
        write_diagram_csv(path, [PersistenceDiagram(0, ((0.5, INF),))])
        text = path.read_text()
        assert text.splitlines()[0] == "dim,birth,death"
        assert text.splitlines()[1] == "0,0.5,inf"

    def test_bytes_of_signed_zeros_extremes_and_inf(self):
        pd = PersistenceDiagram(0, [(-1.0, -0.0), (-1.0, 0.0), (-0.0, 5e-324), (0.0, 1.7976931348623157e308),
                                    (-2.0, INF)])
        assert diagrams_to_csv([pd]) == (
            "dim,birth,death\n0,-2,inf\n0,-1,-0\n0,-1,0\n0,-0,4.9406564584124654e-324\n"
            "0,0,1.7976931348623157e+308\n"
        )

    @pytest.mark.parametrize("death", ["inf", " inf", "INF", "Infinity"])
    def test_every_spelling_of_inf_is_an_inf_death(self, tmp_path, death):
        path = tmp_path / "d.csv"
        path.write_text(f"dim,birth,death\n0,0.5,{death}\n")
        assert read_diagram_csv(path)[0].pairs == ((0.5, INF),)

    def test_blank_line_is_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("dim,birth,death\n0,0.5,inf\n\n1,0.25,0.75\n")
        back = read_diagram_csv(path)
        assert back[0].pairs == ((0.5, INF),) and back[1].pairs == ((0.25, 0.75),)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_any_seed_grid_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, 10, size=(4, 4)).astype(float)
    for dim in (0, 1):
        assert list(sublevel_persistence(grid, dim).pairs) == naive_sublevel_pairs(grid, dim)
