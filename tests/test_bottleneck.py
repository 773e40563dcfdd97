import math

import numpy as np
import pytest

from topofield import PersistenceDiagram, bottleneck_distance
from topofield.errors import DimensionMismatch, EssentialCountMismatch

from oracles import bruteforce_bottleneck, exhaustive_bottleneck

INF = math.inf


def diagram(pairs, dim=0):
    return PersistenceDiagram(dim, tuple(pairs))


def random_diagram(rng, max_points=8, span=10.0):
    n = int(rng.integers(0, max_points + 1))
    pairs = []
    for _ in range(n):
        b = float(rng.uniform(0, span))
        pairs.append((b, b + float(rng.uniform(0, span / 2))))
    return pairs


class TestExamples:
    def test_identical_diagrams(self):
        d = diagram([(0.0, 2.0), (1.0, 4.0)])
        assert bottleneck_distance(d, d) == 0.0

    def test_single_point_vs_empty(self):
        # (0, 2) projects onto the diagonal at (1, 1), cost 1
        assert bottleneck_distance(diagram([(0.0, 2.0)]), diagram([])) == 1.0

    def test_direct_match_beats_double_diagonal(self):
        # direct match costs 1; sending both to the diagonal costs max(1, 1.5)
        assert bottleneck_distance(diagram([(0.0, 2.0)]), diagram([(0.0, 3.0)])) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bottleneck_distance(diagram([], dim=0), diagram([], dim=1))

    def test_essential_count_mismatch(self):
        a = diagram([(0.0, INF)])
        b = diagram([])
        with pytest.raises(EssentialCountMismatch):
            bottleneck_distance(a, b)

    def test_essential_pairs_match_by_birth(self):
        a = diagram([(0.0, INF), (5.0, INF)])
        b = diagram([(1.0, INF), (5.5, INF)])
        assert bottleneck_distance(a, b) == 1.0


@pytest.mark.filterwarnings("error")
def test_half_persistence_that_overflows_stays_finite():
    # death - birth overflows; the half is death/2 - birth/2
    wide = diagram([(-1e308, 1e308)], dim=1)
    assert bottleneck_distance(wide, diagram([], dim=1)) == 1e308
    # the L-infinity distance to this point overflows, so only the diagonal serves
    far = diagram([(1e308, 1.5e308)], dim=1)
    assert bottleneck_distance(wide, far) == bottleneck_distance(far, wide) == 1e308
    # both halves overflow their difference; the direct match is finite and exact
    near = diagram([(-1e308, 9e307)], dim=1)
    assert bottleneck_distance(wide, near) == bottleneck_distance(near, wide) == 1e308 - 9e307


def augmenting_chain(n):
    """Two n-point H1 diagrams whose greedy matching gives a_i the column of
    b_(i+1), which leaves one augmenting path through every row."""
    a = [(-2.0 * i - 1.0, -2.0 * i - 1.0 + 2000.0 - i * 2.0**-12) for i in range(n)]
    b = [(-2.0 * j, -2.0 * j + 2000.0 - (j - 0.5) * 2.0**-12) for j in range(n)]
    return diagram(a, dim=1), diagram(b, dim=1)


def test_augmenting_path_through_every_row_needs_no_recursion():
    # a recursive depth-first search raised RecursionError from about 1,000 rows
    assert bottleneck_distance(*augmenting_chain(3000)) == 1.0 + 2.0**-13


class TestAgainstExhaustiveOracle:
    def test_small_random_diagrams(self):
        rng = np.random.default_rng(77)
        for _ in range(150):
            a = random_diagram(rng, max_points=6)
            b = random_diagram(rng, max_points=6)
            got = bottleneck_distance(diagram(a), diagram(b))
            want = exhaustive_bottleneck(a, b)
            assert got == want

    def test_pruned_oracle_agrees_with_unpruned(self):
        rng = np.random.default_rng(76)
        for _ in range(60):
            a = random_diagram(rng, max_points=5)
            b = random_diagram(rng, max_points=5)
            assert exhaustive_bottleneck(a, b) == bruteforce_bottleneck(a, b)

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(78)
        for _ in range(100):
            a = diagram(random_diagram(rng))
            b = diagram(random_diagram(rng))
            assert bottleneck_distance(a, b) == bottleneck_distance(b, a)

    def test_self_distance_zero(self):
        rng = np.random.default_rng(79)
        for _ in range(25):
            a = diagram(random_diagram(rng))
            assert bottleneck_distance(a, a) == 0.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(80)
        for _ in range(100):
            a = diagram(random_diagram(rng))
            b = diagram(random_diagram(rng))
            c = diagram(random_diagram(rng))
            dab = bottleneck_distance(a, b)
            dbc = bottleneck_distance(b, c)
            dac = bottleneck_distance(a, c)
            assert dac <= dab + dbc + 1e-9
