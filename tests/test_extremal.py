import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import chebyshev as C

from chebpot import extremal
from chebpot.errors import (
    DifferentGapError,
    IllConditionedError,
    PoleOnSetError,
    WeightDegenerateError,
)
from chebpot.extremal import (
    RemezOptions,
    _Workspace,
    renormalize,
    solve_extremal,
    verify_alternation,
)
from chebpot.realset import make_set
from chebpot.weights import (
    AbsPolyWeight,
    RecipPolyWeight,
    SampledWeight,
    SemicircleWeight,
    UnitWeight,
    exp_inv_abs_weight,
)
from oracles import lp_minimax, t_monic_chebyshev, t_residual_interval

E1 = make_set([(-1, 1)])
E06 = make_set([(-1, -0.6), (0.6, 1)])
UNIT = UnitWeight()


def test_classical_chebyshev_n3():
    sol = solve_extremal(E1, UNIT, math.inf, 3)
    assert abs(sol.t - 0.25) < 1e-12
    x = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(sol(x), x**3 - 0.75 * x, atol=1e-12)
    np.testing.assert_allclose(sol.alternation, [-1, -0.5, 0.5, 1], atol=1e-10)
    assert sol.k_star == 4 and sol.signs == (-1, 1, -1, 1)
    # LP on a shared grid never exceeds the continuum minimum
    t_lp = lp_minimax(E1, UNIT, 3)
    assert t_lp <= sol.t + 1e-12
    assert sol.t - t_lp < 1e-6


@pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
def test_monic_chebyshev_norms(n):
    sol = solve_extremal(E1, UNIT, math.inf, n)
    assert abs(sol.t - t_monic_chebyshev(n)) < 1e-12 * t_monic_chebyshev(n)


def test_residual_n2_at_two():
    sol = solve_extremal(E1, UNIT, 2.0, 2)
    assert abs(sol.t - 1 / 7) < 1e-14
    np.testing.assert_allclose(sol.alternation, [-1, 0, 1], atol=1e-9)
    assert sol.k_star == 3
    t_lp = lp_minimax(E1, UNIT, 2, x_star=2.0)
    assert t_lp <= sol.t + 1e-12 and sol.t - t_lp < 1e-6


@pytest.mark.parametrize("n", [1, 3, 6])
def test_residual_norms_closed_form(n):
    sol = solve_extremal(E1, UNIT, 2.0, n)
    want = t_residual_interval(n, 2.0)
    assert abs(sol.t - want) < 1e-12 * want


def test_second_kind_chebyshev():
    w = SemicircleWeight([(-1, 1)])
    sol = solve_extremal(E1, w, math.inf, 4)
    assert abs(sol.t - 2.0**-4) < 1e-12


def test_recip_weight_lp_cross_check():
    w = RecipPolyWeight([-3.0, 1.0])
    sol = solve_extremal(E1, w, math.inf, 4)
    t_lp = lp_minimax(E1, w, 4)
    assert t_lp <= sol.t + 1e-14
    assert sol.t - t_lp < 1e-6 * sol.t


def test_two_interval_lp_cross_check():
    sol = solve_extremal(E06, UNIT, math.inf, 5)
    t_lp = lp_minimax(E06, UNIT, 5)
    assert t_lp <= sol.t + 1e-14
    assert sol.t - t_lp < 1e-5 * sol.t


E3 = make_set([(-1, -0.5), (-0.2, 0.3), (0.6, 1)])
# piecewise-linear tent whose maximum of |wP| at n = 5 sits on the kink
TENT = SampledWeight([-1, 0.3137, 1], [0.2, 1, 0.3])


@pytest.mark.parametrize(
    "E, w, x_star, n",
    [
        (E1, AbsPolyWeight([-0.3, 1.0]), math.inf, 7),
        (E1, exp_inv_abs_weight(0.2), math.inf, 16),
        (E1, exp_inv_abs_weight(0.2), math.inf, 40),
        (E3, SampledWeight(np.linspace(-1, 1, 9), [1, 0.6, 1.4, 0.8, 1, 0.5, 1.2, 0.9, 1.1]), math.inf, 8),
        (E1, TENT, math.inf, 5),
        (E1, UNIT, math.inf, 128),
        (E3, RecipPolyWeight([0.25, 0.0, 1.0]), 0.45, 30),
    ],
    ids=["abs_poly", "exp_inv_abs_n16", "exp_inv_abs_n40", "sampled_three_band", "tent",
         "unit_n128", "recip_quadratic_three_band"],
)
def test_grid_refinement_stability(E, w, x_star, n):
    b = solve_extremal(E, w, x_star, n, RemezOptions(grid=2048))
    for g in (256, 4096, None):  # None: the default grid, sized by the degree
        other = solve_extremal(E, w, x_star, n, RemezOptions(grid=g))
        assert abs(other.t - b.t) < 1e-9 * b.t


@pytest.mark.parametrize(
    "n, grid, size",
    [(5, None, 3 * 256), (31, None, 3 * 256), (40, None, 3 * 328), (200, None, 3 * 1608), (40, 300, 3 * 300)],
)
def test_grid_size_follows_degree(n, grid, size):
    # the default is max(256, 8(n+1)) nodes per band; an explicit grid is used as given
    assert _Workspace(E3, UNIT, math.inf, n, RemezOptions(grid=grid)).grid.size == size


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"grid": 3}, "grid"),
        ({"grid": 63}, "grid"),
        ({"grid": 2048.0}, "grid"),
        ({"grid": True}, "grid"),
        ({"grid": "2048"}, "grid"),
        ({"tol": 0.0}, "tol"),
        ({"tol": math.nan}, "tol"),
        ({"tol": math.inf}, "tol"),
        ({"tol": 1.0}, "tol"),
        ({"tol": -1e-11}, "tol"),
        ({"tol": True}, "tol"),
        ({"tol": "1e-11"}, "tol"),
    ],
)
def test_options_reject_bad_fields(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field}:"):
        RemezOptions(**kwargs)


def test_options_accept_limits():
    assert RemezOptions(grid=64, tol=0.5).grid == 64
    assert RemezOptions().grid is None


def test_maximum_on_weight_kink():
    sol = solve_extremal(E1, TENT, math.inf, 5)
    x = np.linspace(-1, 1, 2_000_001)
    audit = np.max(np.abs(TENT(x) * sol(x)))
    assert abs(audit - sol.t) <= 1e-12 * sol.t
    assert 0.3137 in sol.alternation


def test_zeros_real_simple_and_off_straddle():
    sol = solve_extremal(E06, UNIT, 0.0, 4)
    zs = sol.zeros()
    assert np.all(np.abs(zs.imag) < 1e-8)
    zs = np.sort(zs.real)
    assert np.all(np.diff(zs) > 1e-10)
    lo = sol.alternation[sol.k_star - 1]
    hi = sol.alternation[sol.k_star % len(sol.alternation)]
    if sol.k_star < len(sol.alternation):
        assert not np.any((zs > lo) & (zs < hi))


def test_degenerate_degree_in_bounded_gap():
    sol = solve_extremal(E06, UNIT, 0.0, 1)
    assert sol.degree == 0
    assert abs(sol.t - 1.0) < 1e-12
    assert sol.signs == (1, 1)  # no sign change across the straddling pair


def test_flat_error_yields_no_plateau_candidates():
    # |f| is constant on E06 for the degree-0 solution: every grid node ties
    sol = solve_extremal(E06, UNIT, 0.1, 1)
    assert sol.degree == 0 and sol.t == 1
    ws = _Workspace(E06, UNIT, 0.1, 1, RemezOptions())
    x, _ = ws.candidates(np.asarray(sol.cheb_coeffs))
    assert x.size <= 2 * E06.nbands


def test_sign_pattern_invariance():
    for sol in (
        solve_extremal(E1, UNIT, math.inf, 4),
        solve_extremal(E06, UNIT, 0.0, 3),
        solve_extremal(E1, UNIT, 2.0, 3),
    ):
        pts = np.asarray(sol.alternation)
        s = np.ones(len(pts)) if math.isinf(sol.x_star) else np.sign(sol.x_star - pts)
        j = np.arange(1, len(pts) + 1)
        expected = ((-1.0) ** (sol.k_star - j)) * s
        assert np.array_equal(np.sign(expected).astype(int), np.asarray(sol.signs))


def test_weight_scaling():
    w = AbsPolyWeight([-0.3, 1.0])
    t1 = solve_extremal(E1, w, math.inf, 5).t
    t3 = solve_extremal(E1, w.scaled(3.0), math.inf, 5).t
    assert abs(t3 - 3 * t1) < 1e-10 * t3


def test_weight_monotonicity():
    w_small = SemicircleWeight([(-1, 1)])  # <= 1 on [-1, 1]
    t_small = solve_extremal(E1, w_small, math.inf, 5).t
    t_big = solve_extremal(E1, UNIT, math.inf, 5).t
    assert t_small <= t_big + 1e-14


def test_weight_degenerate_rejected():
    w = SampledWeight([-1, 1], [0.0, 0.0])
    with pytest.raises(WeightDegenerateError):
        solve_extremal(E1, w, math.inf, 2)


def test_x_star_on_set_rejected():
    with pytest.raises(PoleOnSetError):
        solve_extremal(E1, UNIT, 0.5, 2)


def test_sampled_weight_close_to_exact():
    grid = np.linspace(-1, 1, 20001)
    w = SampledWeight(grid, np.abs(grid - 0.3))
    exact = solve_extremal(E1, AbsPolyWeight([-0.3, 1.0]), math.inf, 4)
    approx = solve_extremal(E1, w, math.inf, 4)
    assert abs(approx.t - exact.t) < 1e-5 * exact.t


# -- verify_alternation ---------------------------------------------------


def test_verify_passes_for_solution():
    sol = solve_extremal(E1, UNIT, math.inf, 3)
    rep = verify_alternation(sol, E1, UNIT)
    assert rep.passed and rep.pattern_ok
    assert rep.audit_excess < 1e-10


def test_verify_detects_perturbation():
    sol = solve_extremal(E1, UNIT, math.inf, 3)
    bump = 1e-3 * sol.half**sol.n * np.asarray(C.poly2cheb([0] * sol.n + [1]))
    coeffs = np.asarray(sol.cheb_coeffs) + bump
    bad = replace(sol, cheb_coeffs=tuple(coeffs))
    rep = verify_alternation(bad, E1, UNIT)
    assert not rep.passed
    assert rep.audit_max > sol.t


def test_verify_n1():
    sol = solve_extremal(E1, UNIT, math.inf, 1)
    assert abs(sol.t - 1.0) < 1e-14
    np.testing.assert_allclose(sol.alternation, [-1, 1], atol=1e-12)
    assert sol.k_star == 2 and sol.signs == (-1, 1)
    assert verify_alternation(sol, E1, UNIT).passed


# -- renormalize ------------------------------------------------------------


def test_renormalize_identity():
    for E, x, n in ((E1, 2.0, 2), (E3, 0.45, 3)):
        sol = solve_extremal(E, UNIT, x, n)
        assert renormalize(sol, x) is sol


def test_renormalize_matches_direct_solve():
    for E, x_old, x_new, n in ((E1, 2.0, 3.0, 2), (E3, 0.4, 0.5, 3)):
        sol = solve_extremal(E, UNIT, x_old, n)
        moved = renormalize(sol, x_new)
        direct = solve_extremal(E, UNIT, x_new, n)
        assert abs(moved.t - direct.t) < 1e-9
        x = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(moved(x), direct(x), atol=1e-9)


def test_renormalize_infinity_to_finite():
    for E, x, n in ((E1, 2.0, 3), (E3, 1.5, 4)):
        base = solve_extremal(E, UNIT, math.inf, n)
        moved = renormalize(base, x)
        assert abs(moved(x) - 1.0) < 1e-14
        direct = solve_extremal(E, UNIT, x, n)
        assert abs(moved.t - direct.t) < 1e-12


def test_renormalize_finite_to_infinity():
    for E, x, n in ((E1, 2.0, 3), (E3, 1.5, 4)):
        base = solve_extremal(E, UNIT, x, n)
        mono = renormalize(base, math.inf)
        assert abs(mono.leading_coefficient() - 1.0) < 1e-12
        t_ref = t_monic_chebyshev(n) if E is E1 else solve_extremal(E, UNIT, math.inf, n).t
        assert abs(mono.t - t_ref) < 1e-12
        # and back: finite -> inf -> finite returns the solution
        back = renormalize(mono, x)
        np.testing.assert_allclose(back.cheb_coeffs, base.cheb_coeffs, rtol=1e-12, atol=1e-14)
        assert abs(back.t - base.t) < 1e-12 * base.t
        assert (back.x_star, back.k_star, back.signs) == (base.x_star, base.k_star, base.signs)


def test_renormalize_different_gap_rejected():
    for E, x, other in ((E06, 0.0, 2.0), (E3, 0.45, -0.35)):
        sol = solve_extremal(E, UNIT, x, 2)
        with pytest.raises(DifferentGapError):
            renormalize(sol, other)
        with pytest.raises(DifferentGapError):
            renormalize(sol, math.inf)


class _Masses:
    def __init__(self, masses):
        self.masses = np.array(masses)

    def band_masses(self):
        return self.masses


@pytest.mark.parametrize("n", [2, 4, 16])
def test_initial_reference_ignores_mass_rounding(monkeypatch, n):
    # symmetric two-band masses that differ in the last bit split the start
    # points the same way: ties go to the lower band
    refs = []
    for masses in ([0.49999999999999994, 0.5], [0.5, 0.5]):
        monkeypatch.setattr(extremal, "equilibrium", lambda E, m=masses: _Masses(m))
        refs.append(extremal._initial_reference(_Workspace(E06, UNIT, math.inf, n, RemezOptions())))
    np.testing.assert_array_equal(refs[0], refs[1])
    assert np.sum(refs[1] < 0) == n // 2 + 1


# the monic normalization 2^(n-1)/half^n overflows (n = 1100 on [-1, 1], also
# behind a finite x* in the unbounded gap) or half^n underflows to zero
OUT_OF_RANGE = [([(-1, 1)], math.inf, 1100), ([(-1, 1)], 1.5, 1100), ([(-0.01, 0.01)], math.inf, 170)]


@pytest.mark.parametrize("bands, x_star, n", OUT_OF_RANGE)
def test_normalization_outside_float64_is_named(bands, x_star, n):
    with pytest.raises(IllConditionedError, match=f"n = {n}, hull half-width .* float64"):
        solve_extremal(make_set(bands), UNIT, x_star, n)


def test_zeros_match_classical_chebyshev():
    sol = solve_extremal(E1, UNIT, math.inf, 7)
    np.testing.assert_allclose(sol.zeros(), np.cos(np.pi * (np.arange(7, 0, -1) - 0.5) / 7), atol=1e-14)
