"""The union-find persistence kernels and the bottleneck candidate search,
at paper scale and on tie-heavy inputs, against the reduction route and the
independent oracles."""

import numpy as np

from topofield import (
    PersistenceDiagram,
    bottleneck_distance,
    sublevel_persistence,
    sublevel_persistence_reduction,
)
from topofield.synthetic import _smooth_field

from oracles import bruteforce_bottleneck, exhaustive_bottleneck, naive_sublevel_pairs


def rough_field() -> np.ndarray:
    """A 101x237 field with thousands of H0 and H1 pairs, scaled to [0, 1]."""
    noise = np.random.default_rng(0).standard_normal((101, 237))
    f = _smooth_field((1, 2, 3), (101, 237)) + 0.3 * noise
    return (f - f.min()) / (f.max() - f.min())


def test_routes_agree_at_paper_scale():
    f = rough_field()
    for dim in (0, 1):
        union_find = sublevel_persistence(f, dim)
        assert len(union_find) > 2000
        assert union_find.pairs == sublevel_persistence_reduction(f, dim).pairs


def test_tie_heavy_grids_agree_with_reduction_and_oracle():
    rng = np.random.default_rng(300)
    shapes = [(1, 1), (1, 2), (2, 1), (1, 7), (7, 1), (2, 2)]
    shapes += [tuple(int(n) for n in rng.integers(1, 7, size=2)) for _ in range(200)]
    for shape in shapes:
        grid = rng.integers(0, 3, size=shape).astype(float)
        for dim in (0, 1):
            want = naive_sublevel_pairs(grid, dim)
            assert list(sublevel_persistence(grid, dim).pairs) == want, (grid, dim)
            assert list(sublevel_persistence_reduction(grid, dim).pairs) == want, (grid, dim)


def test_constant_strips_have_one_component_and_no_loops():
    for shape in ((1, 9), (9, 1)):
        grid = np.zeros(shape)
        assert sublevel_persistence(grid, 0).pairs == ((0.0, float("inf")),)
        assert sublevel_persistence(grid, 1).pairs == ()


def integer_diagram(rng, max_points: int) -> list[tuple[float, float]]:
    """Integer points, some on the diagonal: many costs tie exactly."""
    n = int(rng.integers(0, max_points + 1))
    births = rng.integers(0, 4, size=n)
    lives = rng.integers(0, 4, size=n)
    return [(float(b), float(b + p)) for b, p in zip(births, lives)]


def test_bottleneck_with_tied_costs_matches_oracles():
    rng = np.random.default_rng(301)
    for _ in range(200):
        a = integer_diagram(rng, 6)
        b = integer_diagram(rng, 6)
        got = bottleneck_distance(PersistenceDiagram(1, tuple(a)), PersistenceDiagram(1, tuple(b)))
        assert type(got) is float
        assert got == exhaustive_bottleneck(a, b), (a, b)
    for _ in range(100):
        a = integer_diagram(rng, 4)
        b = integer_diagram(rng, 4)
        got = bottleneck_distance(PersistenceDiagram(0, tuple(a)), PersistenceDiagram(0, tuple(b)))
        assert got == bruteforce_bottleneck(a, b), (a, b)
