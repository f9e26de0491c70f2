"""Szego integrals against an independent QUADPACK oracle.

The library computes int log w d omega_E(., x*) from Green values whenever
log w = log|lead| + sum e_j log|x - c_j| on E, and by its own adaptive
quadrature otherwise.  The oracle integrates log w against a harmonic-measure
density built only from QUADPACK gap periods (tests/oracles.py), so these
checks share no code with either path.
"""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from chebpot.potential import szego_factor, szego_integral, szego_recip_poly
from chebpot.realset import make_set
from chebpot.weights import (
    AbsPolyWeight,
    CallableWeight,
    ProductWeight,
    RecipPolyWeight,
    SampledWeight,
    SemicircleWeight,
    UnitWeight,
)
from oracles import harmonic_log_integral

BANDS = [(-1.0, -0.4), (0.1, 0.5), (0.8, 1.2)]
E = make_set(BANDS)

ABS_ZEROS = (0.3, 2.0)  # one zero on E, one off it
RECIP_ZEROS = (1.7, -0.2, 0.6 + 0.3j, 0.6 - 0.3j)  # beyond the hull, in a gap, a complex pair
RECIP_COEFFS = np.real(P.polyfromroots(RECIP_ZEROS))
SEMI_PAIRS = [(-1.0, 1.2), (-1.5, 1.5)]  # both cover E; the first vanishes at its ends


def _log_dist(t, off, c):
    """log|t - c|, exact at the ends of t's band (see harmonic_log_integral)."""
    return math.log(abs(off.get(c, t - c)))


def _log_abs_poly(zeros):
    return lambda t, off: sum(_log_dist(t, off, c) for c in zeros)


def _log_semi(pairs):
    return lambda t, off: sum(0.5 * (_log_dist(t, off, a) + _log_dist(t, off, b)) for a, b in pairs)


WEIGHTS = {
    "unit": (UnitWeight(), lambda t, off: 0.0, ()),
    "abs_poly": (AbsPolyWeight(np.real(P.polyfromroots(ABS_ZEROS))), _log_abs_poly(ABS_ZEROS), (0.3,)),
    "recip_poly": (
        RecipPolyWeight(RECIP_COEFFS),
        lambda t, off: -_log_abs_poly(RECIP_ZEROS)(t, off),
        (),
    ),
    "semicircle": (SemicircleWeight(SEMI_PAIRS), _log_semi(SEMI_PAIRS), ()),
    "product": (
        ProductWeight((AbsPolyWeight([-0.3, 1.0]), RecipPolyWeight([-1.7, 1.0]), SemicircleWeight([(-1.0, 1.2)]))),
        lambda t, off: _log_abs_poly([0.3])(t, off) - _log_abs_poly([1.7])(t, off) + _log_semi([(-1.0, 1.2)])(t, off),
        (0.3,),
    ),
}
# infinity, a gap, beyond the hull, and the two real zeros of P_m
X_STARS = [math.inf, 0.65, -1.8, 1.7, -0.2]


@pytest.mark.parametrize("x_star", X_STARS)
@pytest.mark.parametrize("name", list(WEIGHTS))
def test_closed_form_szego_matches_quadpack(name, x_star):
    w, log_w, singular = WEIGHTS[name]
    assert w.log_factors(E) is not None  # the closed form is the path under test
    want = harmonic_log_integral(BANDS, log_w, x_star, singular)
    res = szego_integral(E, w, x_star)
    assert not res.divergent
    assert abs(res.value - want) < 1e-12 * max(1.0, abs(want))
    assert abs(szego_factor(E, w, x_star) - math.exp(want)) < 1e-12 * math.exp(want)


@pytest.mark.parametrize("x_star", X_STARS)
def test_recip_poly_closed_form_matches_quadpack(x_star):
    want = math.exp(harmonic_log_integral(BANDS, WEIGHTS["recip_poly"][1], x_star))
    got = szego_recip_poly(E, RECIP_ZEROS, x_star, lead=RECIP_COEFFS[-1])
    assert abs(got - want) < 1e-12 * want


def test_uncovering_semicircle_keeps_quadrature():
    # the pair leaves part of E uncovered, so w = 0 there and the integral diverges
    w = SemicircleWeight([(-1.0, 0.5)])
    assert w.log_factors(E) is None
    assert szego_integral(E, w).divergent


GRID = np.linspace(-1.2, 1.3, 9)
VALUES = np.array([1.3, 0.7, 1.9, 1.1, 0.6, 1.5, 1.8, 0.9, 1.2])


@pytest.mark.parametrize("x_star", [math.inf, 0.65, -1.8])
def test_quadrature_szego_matches_quadpack(x_star):
    # no closed form: kinks at the grid points, and a smooth callable factor
    w = ProductWeight((SampledWeight(GRID, VALUES), CallableWeight(lambda x: np.exp(np.sin(3 * x)))))
    assert w.log_factors(E) is None
    want = harmonic_log_integral(
        BANDS, lambda t, off: math.log(np.interp(t, GRID, VALUES)) + math.sin(3 * t), x_star, tuple(GRID)
    )
    res = szego_integral(E, w, x_star)
    assert not res.divergent
    assert abs(res.value - want) < 1e-11 * max(1.0, abs(want))


@pytest.mark.parametrize("x_star", [math.inf, 2.5])
def test_quadrature_weight_vanishing_at_band_end(x_star):
    # log w -> -inf at the end t = -1 is integrable, so no floor may make it diverge.
    # Within sqrt(ulp) of a band end (in theta) t rounds onto the end, which caps
    # the accuracy of sampling w there near 1e-8.
    w = SampledWeight([-1.0, 0.0, 1.5], [0.0, 1.0, 1.0])
    E1 = make_set([(-1.0, 1.0)])
    want = harmonic_log_integral(
        [(-1.0, 1.0)], lambda t, off: math.log(abs(off[-1.0])) if t < 0 else 0.0, x_star, (0.0,)
    )
    res = szego_integral(E1, w, x_star)
    assert not res.divergent
    assert abs(res.value - want) < 1e-7
