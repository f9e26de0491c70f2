"""Polynomial-preimage oracles for the potential layer.

For E = P^{-1}([-1, 1]) with P of degree k and every critical value of
modulus > 1, E has k bands, cap E = (2 |lead P|)^(-1/k), every band has
harmonic mass 1/k at infinity, and g_E = g_[-1,1](P)/k, so the critical
points of g_E are those of P (Totik, Acta Math. 187, 2001).  The endpoints
below are closed forms, not polynomial roots.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebpot.potential import equilibrium, green
from chebpot.realset import make_set


def cheb_preimage(c: float, k: int):
    """{x : |c T_k(x)| <= 1}: endpoints cos((m pi +- arccos(1/c))/k) in [0, pi]."""
    a = math.acos(1.0 / c)
    return make_set(
        [(math.cos(((m + 1) * math.pi - a) / k), math.cos((m * math.pi + a) / k)) for m in range(k)]
    )


def iterated_preimage(levels: int):
    """Preimage of [-1, 1] under P iterated `levels` times, P(x) = 1.5 (2x^2 - 1);
    each level maps an endpoint y to +-sqrt((1 + y/1.5)/2)."""
    ends = [-1.0, 1.0]
    for _ in range(levels):
        xs = [math.sqrt((1.0 + y / 1.5) / 2.0) for y in ends]
        ends = sorted([-x for x in xs] + xs)
    return make_set(list(zip(ends[0::2], ends[1::2])))


def check_cheb_preimage(c: float, k: int):
    E = cheb_preimage(c, k)
    eq = equilibrium(E)
    # lead(c T_k) = c 2^(k-1)
    assert abs(eq.capacity / (c * 2.0**k) ** (-1.0 / k) - 1.0) < 1e-13
    np.testing.assert_allclose(eq.band_masses(), 1.0 / k, rtol=0, atol=1e-13)
    # critical points of T_k, where |c T_k| = c
    crit = green(E).critical_points
    want = np.cos(np.arange(k - 1, 0, -1) * math.pi / k)
    np.testing.assert_allclose([pt.location for pt in crit], want, rtol=0, atol=1e-12)
    np.testing.assert_allclose([pt.value for pt in crit], math.acosh(c) / k, rtol=0, atol=1e-13)


@pytest.mark.parametrize("k", [8, 16, 24, 32, 64])
@pytest.mark.parametrize("c", [1.05, 1.3, 2.0])
def test_cheb_preimage_closed_forms(c, k):
    check_cheb_preimage(c, k)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(c=st.floats(1.02, 3.0), k=st.integers(2, 40))
def test_cheb_preimage_closed_forms_property(c, k):
    check_cheb_preimage(c, k)


@pytest.mark.parametrize("levels", [3, 4, 5])
def test_iterated_preimage_capacity(levels):
    E = iterated_preimage(levels)
    k = 2**levels
    assert E.nbands == k
    # lead(P o P o ... o P) = 3^(2^levels - 1)
    want = (2.0 * 3.0 ** (k - 1)) ** (-1.0 / k)
    assert abs(equilibrium(E).capacity / want - 1.0) < 1e-12
