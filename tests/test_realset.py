import math

import numpy as np
import pytest

from chebpot.errors import (
    DegenerateIntervalError,
    NonFiniteEndpointError,
    OverlapError,
    PointOnSetError,
)
from chebpot.realset import make_set, sample_grid


def test_single_interval():
    E = make_set([(-1, 1)])
    assert E.nbands == 1
    gs = E.gaps()
    assert len(gs) == 1 and not gs[0].bounded


def test_symmetric_pair():
    E = make_set([(-1, -0.5), (0.5, 1)])
    assert E.nbands == 2
    gs = E.gaps()
    assert gs[0].bounded and (gs[0].lo, gs[0].hi) == (-0.5, 0.5)
    assert not gs[1].bounded


def test_overlap_rejected():
    with pytest.raises(OverlapError):
        make_set([(0, 1), (0.5, 2)])


def test_degenerate_rejected():
    with pytest.raises(DegenerateIntervalError):
        make_set([(1, 1)])
    with pytest.raises(DegenerateIntervalError):
        make_set([])


def test_nonfinite_rejected():
    with pytest.raises(NonFiniteEndpointError):
        make_set([(0, math.inf)])


def test_near_touching_bands_merge():
    d = 2.0
    eps = 1e-14 * d
    E = make_set([(-1, 0), (eps, 1)])
    assert E.nbands == 1


def test_unsorted_input_sorted():
    E = make_set([(0.5, 1), (-1, -0.5)])
    assert E.bands == ((-1, -0.5), (0.5, 1))


def test_locate():
    E = make_set([(-1, -0.5), (0.5, 1)])
    assert E.locate(math.inf).bounded is False
    assert E.locate(0.0).bounded is True
    assert E.locate(3.0).bounded is False
    assert E.locate(-3.0).bounded is False
    with pytest.raises(PointOnSetError):
        E.locate(0.75)


def test_sample_grid_three_points():
    E = make_set([(-1, 1)])
    np.testing.assert_allclose(sample_grid(E, 3), [-1, 0, 1], atol=1e-15)


def test_sample_grid_cosine_nodes():
    E = make_set([(-1, 1)])
    s = math.sqrt(2) / 2
    np.testing.assert_allclose(sample_grid(E, 5), [-1, -s, 0, s, 1], atol=1e-15)


def test_sample_grid_two_bands():
    E = make_set([(-1, -0.5), (0.5, 1)])
    g = sample_grid(E, 8)
    assert len(g) == 16
    assert np.all(np.diff(g) > 0)
    for e in (-1, -0.5, 0.5, 1):
        assert e in g


def test_grid_contained_and_partition():
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = rng.integers(1, 5)
        pts = np.sort(rng.uniform(-5, 5, size=2 * p))
        while np.min(np.diff(pts)) < 1e-3:
            pts = np.sort(rng.uniform(-5, 5, size=2 * p))
        E = make_set(list(zip(pts[0::2], pts[1::2])))
        g = sample_grid(E, 10)
        assert np.all(np.diff(g) > 0)
        assert all(E.contains(x) for x in g)
        # every probe point is on the set or in exactly one gap
        probes = rng.uniform(-6, 6, size=40)
        for x in probes:
            ingaps = sum(gap.contains(x) for gap in E.gaps())
            assert (E.contains(x) and ingaps == 0) or (not E.contains(x) and ingaps == 1)


def test_gaps_tile_extended_line():
    E = make_set([(-2, -1), (0, 1), (3, 4)])
    gs = E.gaps()
    assert len(gs) == 3
    # bounded gaps sit exactly between consecutive bands
    assert (gs[0].lo, gs[0].hi) == (-1, 0)
    assert (gs[1].lo, gs[1].hi) == (1, 3)
    assert (gs[2].lo, gs[2].hi) == (4, -2) and not gs[2].bounded
    assert gs[2].contains(math.inf) and gs[2].contains(-math.inf)
