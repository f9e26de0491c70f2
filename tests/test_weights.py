import numpy as np
import pytest

from chebpot.realset import make_set
from chebpot.weights import (
    AbsPolyWeight,
    ProductWeight,
    RecipPolyWeight,
    SampledWeight,
    SemicircleWeight,
    UnitWeight,
    exp_inv_abs_weight,
)

E1 = make_set([(-1, 1)])


def test_product_evaluates_as_product():
    w1, w2 = SemicircleWeight([(-1, 1)]), RecipPolyWeight([-3.0, 1.0])
    w = ProductWeight((w1, w2))
    x = np.linspace(-1, 1, 9)
    np.testing.assert_allclose(w(x), np.asarray(w1(x)) * np.asarray(w2(x)), rtol=1e-14)


def test_recip_zeros_conjugate_closed():
    coeffs = np.real(np.polynomial.polynomial.polyfromroots([1 + 2j, 1 - 2j, 4.0]))
    w = RecipPolyWeight(coeffs)
    zs = sorted(w.zeros, key=lambda z: (z.real, z.imag))
    assert len(zs) == 3
    assert abs(zs[0] - (1 - 2j)) < 1e-12 and abs(zs[1] - (1 + 2j)) < 1e-12


def test_sampled_clipped_at_zero():
    w = SampledWeight([-1, 0, 1], [1.0, -0.5, 1.0])
    assert w(np.array([0.0]))[0] == 0.0
    assert np.all(np.asarray(w(np.linspace(-1, 1, 21))) >= 0)


def test_log_singularities():
    d = E1.diameter
    assert AbsPolyWeight([-0.3, 1.0]).log_singularities(E1) == (0.3,)
    assert RecipPolyWeight([-3.0, 1.0]).log_singularities(E1) == ()
    assert SemicircleWeight([(-1, 1)]).log_singularities(E1) == (-1.0, 1.0)
    assert exp_inv_abs_weight(0.2).log_singularities(E1) == (0.2,)


def test_tail_qualification():
    assert UnitWeight().tail_lower_qualified(E1)
    assert AbsPolyWeight([-0.3, 1.0]).tail_lower_qualified(E1)
    assert RecipPolyWeight([-3.0, 1.0]).tail_lower_qualified(E1)
    assert SemicircleWeight([(-1, 1)]).tail_lower_qualified(E1)
    assert not exp_inv_abs_weight(0.2).tail_lower_qualified(E1)
    assert not SampledWeight([-1, 0, 1], [1.0, 0.0, 1.0]).tail_lower_qualified(E1)


def test_scaled():
    x = np.linspace(-0.9, 0.9, 7)
    for w in (UnitWeight(), AbsPolyWeight([-0.3, 1.0]), RecipPolyWeight([-3.0, 1.0])):
        np.testing.assert_allclose(
            w.scaled(2.5)(x), 2.5 * np.asarray(w(x)), rtol=1e-13, atol=1e-15
        )
    with pytest.raises(ValueError):
        UnitWeight().scaled(-1.0)


def test_recip_data():
    assert UnitWeight().recip_data() == (0, (), 1.0)
    m, zeros, lead = RecipPolyWeight([-6.0, 2.0]).recip_data()
    assert m == 1 and lead == 2.0 and abs(zeros[0] - 3.0) < 1e-14
    assert AbsPolyWeight([1.0]).recip_data() is None
