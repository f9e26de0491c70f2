"""Array calls of a Green function agree with scalar calls point by point."""

import math

import numpy as np
import pytest

from chebpot.potential import green
from chebpot.realset import make_set

E = make_set([(-1.0, -0.4), (0.1, 0.5), (0.8, 1.2)])


def _points(pole):
    rng = np.random.default_rng(3)
    on_bands = [a + (b - a) * u for a, b in E.bands for u in (0.0, 0.3, 1.0)]
    in_gaps = [-0.4 + 1e-9, -0.15, 0.1 - 1e-6, 0.55, 0.65, 0.79]
    beyond = [-1.0 - 1e-7, -1.3, -4.0, 1.2 + 1e-3, 2.0, 50.0]
    near = [
        complex(a + (b - a) * rng.uniform(), d * rng.choice([-1.0, 1.0]))
        for a, b in E.bands
        for d in np.geomspace(1e-3, 3e-2, 4)
    ]
    near += [complex(E.hull[1] + 1e-3, 2e-3), complex(-0.4 + 5e-3, 1e-3)]
    far = [complex(0.3, 1.0), complex(-3.0, -0.5), complex(10.0, 20.0), complex(0.65, 0.2)]
    pts = on_bands + in_gaps + beyond + near + far + [math.inf, -math.inf]
    if not math.isinf(pole):
        pts.append(pole)
    return pts


@pytest.mark.parametrize("pole", [math.inf, 0.65, -2.5])
def test_array_matches_scalar(pole):
    g = green(E, pole)
    pts = _points(pole)
    arr = g(np.array(pts, dtype=complex))
    real_pts = [p for p in pts if not isinstance(p, complex)]
    arr_real = g(np.array(real_pts))
    for vals, src in ((arr, pts), (arr_real, real_pts)):
        assert vals.shape == (len(src),)
        for z, v in zip(src, vals):
            s = g(z)
            assert isinstance(s, float)
            if math.isinf(s):
                assert v == s
            else:
                assert abs(v - s) <= 1e-13 * max(1.0, abs(s)), z


@pytest.mark.parametrize("pole", [math.inf, 0.65])
def test_special_points(pole):
    g = green(E, pole)
    assert g(math.inf) == (math.inf if math.isinf(pole) else g(-math.inf))
    assert g(0.3) == 0.0 and g(complex(0.3, 0.0)) == 0.0
    if not math.isinf(pole):
        assert g(pole) == math.inf
        assert g(np.array([pole, 0.3]))[0] == math.inf
    assert g(np.zeros((2, 3))).shape == (2, 3)
    assert math.isnan(g(math.nan)) and math.isnan(g(complex(0.2, math.nan)))
