import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from chebpot import potential
from chebpot.errors import BothComplexError, PoleOnSetError, ZeroOnSetError
from chebpot.potential import (
    conjugate_pair_measure,
    equilibrium,
    green,
    green_cross,
    harmonic_measure,
    szego_factor,
    szego_integral,
    szego_recip_poly,
)
from chebpot.realset import make_set
from chebpot.weights import (
    AbsPolyWeight,
    RecipPolyWeight,
    SemicircleWeight,
    UnitWeight,
    exp_inv_abs_weight,
)
from oracles import cap_two_symmetric, green_interval, pole_shift_green, quad_band_sqrt

E1 = make_set([(-1, 1)])
E06 = make_set([(-1, -0.6), (0.6, 1)])
E3 = make_set([(-2, -1), (0, 1), (3, 4)])
LOG2 = math.log(2.0)


def equal_cells(p):
    """p bands at 0.2-0.8 of each of p equal cells of [-1, 1]."""
    cells = np.linspace(-1.0, 1.0, p + 1)
    w = cells[1] - cells[0]
    return make_set([(c + 0.2 * w, c + 0.8 * w) for c in cells[:-1]])


# -- equilibrium ----------------------------------------------------------


@pytest.mark.parametrize("n", [11, 16, 160, 256, 2048])
def test_fejer_rule(n):
    u, w = potential._fejer(n)
    assert u.shape == w.shape == (n,)
    assert np.all((0 < u) & (u < 1)) and np.all(w > 0)
    assert abs(w.sum() - 1.0) < 1e-15
    for k in range(1, min(n, 40)):
        assert abs(w @ u**k - 1.0 / (k + 1)) < 1e-15, k
    if n % 2:  # cos(pi/2) rounds to 6e-17
        assert abs(u[n // 2] - 0.5) <= 1e-16


def test_capacity_interval():
    assert abs(equilibrium(E1).capacity - 0.5) < 1e-12


def test_capacity_scaled_interval():
    assert abs(equilibrium(make_set([(-2, 2)])).capacity - 1.0) < 1e-12


def test_capacity_two_symmetric():
    assert abs(equilibrium(E06).capacity - cap_two_symmetric(0.6)) < 1e-12
    assert abs(equilibrium(E06).capacity - 0.4) < 1e-8


def test_robin_is_minus_log_capacity():
    eq = equilibrium(E06)
    assert abs(eq.robin + math.log(eq.capacity)) < 1e-14


def test_arcsine_density():
    eq = equilibrium(E1)
    t = np.array([-0.9, -0.3, 0.0, 0.4, 0.77])
    np.testing.assert_allclose(eq.density(t), 1 / (np.pi * np.sqrt(1 - t * t)), rtol=1e-12)


@pytest.mark.parametrize("E", [E1, E06, E3])
def test_equilibrium_mass_and_gap_periods(E):
    eq = equilibrium(E)
    q = np.asarray(eq.Q)
    # independent QAWS quadrature of the constructed density, band by band
    total = 0.0
    for j, (a, b) in enumerate(E.bands):
        others = [e for k, ab in enumerate(E.bands) for e in ab if k != j]

        def smooth(t):
            return abs(P.polyval(t, q)) / (np.pi * math.sqrt(np.prod(np.abs(t - np.array(others))))) if others else abs(P.polyval(t, q)) / np.pi

        total += quad_band_sqrt(smooth, a, b)
    assert abs(total - 1.0) < 1e-10
    # vanishing gap periods of Q/sqrt(R)
    for k in range(E.nbands - 1):
        lo, hi = E.bands[k][1], E.bands[k + 1][0]
        others = [e for ab in E.bands for e in ab if e not in (lo, hi)]

        def smooth(t):
            return P.polyval(t, q) / math.sqrt(np.prod(np.abs(t - np.array(others))))

        assert abs(quad_band_sqrt(smooth, lo, hi)) < 1e-10


def test_q_zero_per_gap():
    eq = equilibrium(E3)
    q = np.asarray(eq.Q)
    for gap in E3.gaps():
        if gap.bounded:
            assert P.polyval(gap.lo, q) * P.polyval(gap.hi, q) < 0


def test_band_masses_sum_to_one():
    masses = equilibrium(E3).band_masses()
    assert abs(masses.sum() - 1.0) < 1e-12
    assert np.all(masses > 0)


# -- Green functions -------------------------------------------------------


def test_green_interval_closed_form():
    g = green(E1)
    assert abs(g(2.0) - math.log(2 + math.sqrt(3))) < 1e-12
    for z in (1.5, -3.0, 10.0):
        assert abs(g(z) - green_interval(z)) < 1e-12


def test_green_zero_on_set():
    g = green(E1)
    for x in np.linspace(-1, 1, 17):
        assert g(x) == 0.0


def test_green_two_interval_closed_form():
    # x -> x^2 maps the symmetric set onto one interval, halving the Green function
    g = green(E06)
    assert abs(g(0.0) - LOG2) < 1e-12
    for z in (0.3, 2.0, -1.4):
        want = green_interval(z * z, 0.36, 1.0) / 2
        assert abs(g(z) - want) < 1e-11


def test_green_complex_argument():
    assert abs(green_cross(E1, 1j, math.inf) - math.log(1 + math.sqrt(2))) < 1e-12
    assert abs(green(E1)(complex(1j)) - math.log(1 + math.sqrt(2))) < 1e-12


def test_green_log_singularity_at_infinity():
    g = green(E1)
    for x in (1e4, 1e6):
        assert abs(g(x) - (math.log(x) - math.log(0.5))) < 1e-7 * math.log(x)


def test_green_pole_on_set_rejected():
    with pytest.raises(PoleOnSetError):
        green(E1, 0.5)


def test_critical_points_interval_empty():
    assert green(E1).critical_points == ()
    assert green(E1).pw_sum == 0.0


def test_critical_point_symmetric():
    cps = green(E06).critical_points
    assert len(cps) == 1
    gap, zeta, val = cps[0].gap, cps[0].location, cps[0].value
    assert gap.bounded and abs(zeta) < 1e-14
    assert abs(val - LOG2) < 1e-12
    assert abs(green(E06).pw_sum - LOG2) < 1e-8


def test_finite_pole_critical_point_at_infinity():
    gev = green(E06, 0.0)
    cps = gev.critical_points
    assert len(cps) == 1
    gap, zeta, val = cps[0].gap, cps[0].location, cps[0].value
    assert not gap.bounded and math.isinf(zeta)
    assert abs(val - LOG2) < 1e-12
    assert abs(gev.pw_sum - LOG2) < 1e-8


def test_green_symmetry_random_pairs():
    rng = np.random.default_rng(11)
    for E in (E1, E06):
        lo, hi = E.hull
        pairs = 0
        while pairs < 25:
            z, x0 = rng.uniform(lo - 2, hi + 2, size=2)
            if E.contains(z, 0.05) or E.contains(x0, 0.05) or abs(z - x0) < 0.05:
                continue
            pairs += 1
            assert abs(green(E, x0)(z) - green(E, z)(x0)) < 1e-7


def test_green_symmetry_finite_poles_exact_cases():
    assert abs(green(E1, 3.0)(2.0) - green(E1, 2.0)(3.0)) < 1e-12


def test_green_monotone_under_set_growth():
    Ebig = make_set([(-1.2, 1.1)])
    gs, gb = green(E1), green(Ebig)
    for z in (1.3, 2.0, -1.5, 4.0):
        assert gs(z) >= gb(z) - 1e-12
    Ebig2 = make_set([(-1, -0.4), (0.4, 1)])
    gs2, gb2 = green(E06), green(Ebig2)
    for z in (0.0, 0.2, 2.0, -3.0):
        assert gs2(z) >= gb2(z) - 1e-12


def test_pole_shift_identity_self_consistency():
    v = pole_shift_green(E1, 2.0, 3.0)
    assert abs(v - green(E1, 3.0)(2.0)) < 1e-7
    v2 = pole_shift_green(E06, 1.3, 2.5)
    assert abs(v2 - green(E06, 2.5)(1.3)) < 1e-7


def test_green_cross_symmetry_random():
    rng = np.random.default_rng(5)
    done = 0
    while done < 10:
        z, x0 = rng.uniform(1.05, 4.0), rng.uniform(-4.0, -1.05)
        v1 = green_cross(E1, z, x0)
        v2 = green_cross(E1, x0, z)
        assert abs(v1 - v2) < 1e-7
        done += 1


def test_green_cross_complex_pole_matches_conjugate():
    c = 2 + 1j
    assert abs(green_cross(E1, 0.5 + 0j, c)) == 0.0  # on-set evaluation is zero
    v = green_cross(E1, 3.0, c)
    vbar = green_cross(E1, 3.0, c.conjugate())
    assert abs(v - vbar) < 1e-12


def test_green_cross_both_complex_rejected():
    with pytest.raises(BothComplexError):
        green_cross(E1, 1j, 2 + 1j)


# -- harmonic measure -------------------------------------------------------


def test_arcsine_masses():
    hm = harmonic_measure(E1)
    assert abs(hm.mass(0, 1) - 0.5) < 1e-12
    for c, d in [(-0.3, 0.4), (0.2, 0.7), (-1, -0.25)]:
        want = (math.asin(d) - math.asin(c)) / math.pi
        assert abs(hm.mass(c, d) - want) < 1e-12


def test_base_infinity_matches_equilibrium_density():
    hm = harmonic_measure(E06)
    eq = equilibrium(E06)
    t = np.array([-0.9, -0.7, 0.65, 0.95])
    np.testing.assert_allclose(hm.density(t), eq.density(t), rtol=1e-12)


def test_total_mass_one():
    cases = [(E1, math.inf), (E1, 2.5), (E06, math.inf), (E06, 0.0), (E3, 2.0)]
    cases += [(equal_cells(16), 1.3), (equal_cells(32), 1.3)]
    for E, base in cases:
        hm = harmonic_measure(E, base)
        total = sum(hm.mass(a, b) for a, b in E.bands)
        assert abs(total - 1.0) < 1e-10


def test_symmetric_band_masses_at_symmetric_bases():
    for base in (math.inf, 0.0):
        hm = harmonic_measure(E06, base)
        assert abs(hm.mass(0.6, 1.0) - 0.5) < 1e-10
        assert abs(hm.mass(-1.0, -0.6) - 0.5) < 1e-10


def test_density_nonnegative():
    hm = harmonic_measure(E06, 2.0)
    t = np.array([-0.95, -0.7, 0.7, 0.99])
    assert np.all(hm.density(t) >= 0)


def test_base_on_set_rejected():
    with pytest.raises(PoleOnSetError):
        harmonic_measure(E1, 0.3)


# -- conjugate pair measure --------------------------------------------------


def test_pair_measure_total_two():
    cases = [(E1, 2 + 1j), (E06, 0.1 + 0.5j), (E3, -1.5 + 0.4j)]
    cases += [(equal_cells(p), c) for p in (16, 32, 64) for c in (0.1 + 0.2j, 0.05 + 0.01j, 3 + 1j)]
    for E, c in cases:
        pm = conjugate_pair_measure(E, c)
        assert abs(pm.total() - 2.0) < 1e-9


def test_pair_measure_identity_oracle():
    # int log|t - x0| d(pair) = 2 [g(c, x0) - g(c, inf) + log|c - x0|]
    from scipy.integrate import quad

    for E, c, x0 in [(E1, 2 + 1j, 4.0), (E06, 0.1 + 0.5j, 2.5)]:
        pm = conjugate_pair_measure(E, c)
        total = 0.0
        for a, b in E.bands:
            val, _ = quad(
                lambda t: math.log(abs(t - x0)) * pm.density(np.array([t]))[0],
                a,
                b,
                limit=300,
            )
            total += val
        rhs = 2 * (
            green_cross(E, c, x0) - green_cross(E, c, math.inf) + math.log(abs(c - x0))
        )
        assert abs(total - rhs) < 1e-9


def _result_objects():
    return [
        green(E3, 2.0),
        green(E06),
        harmonic_measure(E3, 2.0),
        harmonic_measure(E06),
        conjugate_pair_measure(E3, -1.5 + 0.4j),
    ]


def test_result_objects_hold_no_core():
    for obj in _result_objects():
        assert not any(isinstance(v, potential._Core) for v in vars(obj).values())


def test_values_unchanged_after_core_cache_clear():
    z = np.array([2.5, -3.0, 0.1 + 0.2j, 1.0 + 1e-3j, 4.0])

    def values():
        g2, g, hm2, hm, pm = _result_objects()
        return [
            g2(z), g(z), g2(-0.25), hm2.mass(-1.0, 0.1), hm.mass(-1.0, 0.1),
            hm2.density(np.array([0.05, -0.7])), hm2.nodes_weights()[1].sum(),
            pm.mass(-1.0, 0.1), pm.density(np.array([0.05, -0.7])), pm.total(),
        ]

    before = values()
    potential._core.cache_clear()
    for a, b in zip(before, values()):
        np.testing.assert_array_equal(a, b)


# -- Szego factors ------------------------------------------------------------


def test_unit_weight_szego_is_one():
    assert abs(szego_factor(E1, UnitWeight()) - 1.0) < 1e-13
    assert abs(szego_factor(E06, UnitWeight(), 0.0) - 1.0) < 1e-13


def test_semicircle_szego_half():
    assert abs(szego_factor(E1, SemicircleWeight([(-1, 1)])) - 0.5) < 1e-10


def test_recip_szego_closed_form():
    want = 2 / (3 + 2 * math.sqrt(2))
    w = RecipPolyWeight([-3.0, 1.0])
    assert abs(szego_factor(E1, w) - want) < 1e-12
    assert abs(szego_recip_poly(E1, [3.0]) - want) < 1e-12


def test_recip_szego_finite_base_matches_quadrature():
    w = RecipPolyWeight([-3.0, 1.0])
    for x_star in (2.0, -1.5):
        quad_val = szego_factor(E1, w, x_star)
        closed = szego_recip_poly(E1, [3.0], x_star)
        assert abs(quad_val - closed) < 1e-8


def test_recip_szego_conjugate_pair():
    coeffs = np.real(np.polynomial.polynomial.polyfromroots([2 + 1j, 2 - 1j]))
    w = RecipPolyWeight(coeffs)
    for x_star in (math.inf, 3.5):
        closed = szego_recip_poly(E1, [2 + 1j, 2 - 1j], x_star)
        quad_val = szego_factor(E1, w, x_star)
        assert abs(closed - quad_val) < 1e-8


def test_recip_szego_two_interval():
    w = RecipPolyWeight([-2.0, 1.0])
    assert abs(szego_factor(E06, w) - szego_recip_poly(E06, [2.0])) < 1e-8


def test_abs_poly_szego_at_interior_zero():
    # S([-1,1], |x - c|, inf) = capacity for any c in the set
    w = AbsPolyWeight([-0.3, 1.0])
    assert abs(szego_factor(E1, w) - 0.5) < 1e-10


def test_szego_zero_on_set_rejected():
    with pytest.raises(ZeroOnSetError):
        szego_recip_poly(E1, [0.3])


def test_szego_limit_at_weight_zero():
    # x* at a zero of P_m: the limit value stays consistent with quadrature
    w = RecipPolyWeight([-3.0, 1.0])
    closed = szego_recip_poly(E1, [3.0], 3.0)
    near = szego_recip_poly(E1, [3.0], 3.0 + 1e-7)
    assert abs(closed - near) < 1e-5 * abs(closed)


def test_divergence_flag_exp_weight():
    res = szego_integral(E1, exp_inv_abs_weight(0.2))
    assert res.divergent
    assert szego_factor(E1, exp_inv_abs_weight(0.2)) == 0.0


def test_no_divergence_flag_for_log_singular_weight():
    res = szego_integral(E1, AbsPolyWeight([-0.3, 1.0]))
    assert not res.divergent
    assert abs(math.exp(res.value) - 0.5) < 1e-9


def test_szego_scaling():
    w = RecipPolyWeight([-3.0, 1.0])
    s1 = szego_factor(E1, w)
    s3 = szego_factor(E1, w.scaled(3.0))
    assert abs(s3 - 3 * s1) < 1e-10
