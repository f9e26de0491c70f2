import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebpot.ensets import (
    blaschke_magnitude,
    build_rational_frame,
    compute_band_set,
    compute_n0,
    verify_band_measures,
    verify_cosh_identity,
)
from chebpot.errors import (
    AmbiguousCancellationError,
    BelowN0Error,
    PointOnSetError,
)
from chebpot.extremal import solve_extremal
from chebpot.realset import make_set
from chebpot.weights import RecipPolyWeight, UnitWeight
from chebpot.potential import green, green_cross

E1 = make_set([(-1, 1)])
E06 = make_set([(-1, -0.6), (0.6, 1)])
UNIT = UnitWeight()
W3 = RecipPolyWeight([-3.0, 1.0])  # 1/|x - 3|


def frame_for(E, w, x_star, n):
    sol = solve_extremal(E, w, x_star, n)
    return build_rational_frame(sol, w)


# -- rational frame ----------------------------------------------------------


def test_unit_weight_frame():
    fr = frame_for(E1, UNIT, math.inf, 3)
    assert fr.r_n == 0 and fr.d_n == 3 and fr.sign == 1
    assert fr.cancelled == () and fr.retained == ()
    assert fr.n0 == 1
    # R = T itself
    assert abs(fr(2.0) - 6.5) < 1e-12


def test_recip_frame_no_cancellation():
    fr = frame_for(E1, W3, math.inf, 4)
    assert fr.r_n == 1 and fr.d_n == 4
    assert fr.n0 == 2
    assert abs(complex(fr.retained[0]) - 3.0) < 1e-12


def test_below_n0_rejected():
    sol = solve_extremal(E1, W3, math.inf, 1)
    with pytest.raises(BelowN0Error):
        build_rational_frame(sol, W3)


def test_symmetric_cancellation():
    # even weight 1/|x| on a symmetric set: odd-degree T vanishes at 0
    w0 = RecipPolyWeight([0.0, 1.0])
    fr = frame_for(E06, w0, math.inf, 3)
    assert fr.r_n == 0 and len(fr.cancelled) == 1
    assert abs(complex(fr.cancelled[0])) < 1e-10
    assert fr.d_n == 2


def test_ambiguous_cancellation_rejected():
    sol = solve_extremal(E06, RecipPolyWeight([0.0, 1.0]), math.inf, 3)
    # move the pole into the ambiguity band around T's zero at the origin
    tol = 1e-8 * E06.diameter
    w_shifted = RecipPolyWeight([-3 * tol, 1.0])
    with pytest.raises(AmbiguousCancellationError):
        build_rational_frame(sol, w_shifted, n0=2)


def test_sign_normalization_finite_x_star():
    fr = frame_for(E1, W3, 2.0, 5)
    assert fr(2.0) > 0
    assert abs(fr(2.0) - 1.0) < 1e-10  # R(x*) = 1/|P(x*)| = 1


def test_n0_degenerate_case():
    # unit weight with x* in a bounded gap: T_1 is constant, so n0 = 2
    assert compute_n0(E06, UNIT, 0.0) == 2
    assert compute_n0(E1, UNIT, math.inf) == 1


# -- band sets ----------------------------------------------------------------


def test_chebyshev_level_set_is_interval():
    bs = compute_band_set(frame_for(E1, UNIT, math.inf, 3))
    assert len(bs.bands) == 3
    assert bs.merged.nbands == 1
    lo, hi = bs.merged.bands[0]
    assert abs(lo + 1) < 1e-9 and abs(hi - 1) < 1e-9
    assert bs.report.ok
    edges = sorted(e for ab in bs.bands for e in ab)
    np.testing.assert_allclose(edges, [-1, -0.5, -0.5, 0.5, 0.5, 1], atol=1e-7)


def test_two_interval_level_set_equals_set():
    bs = compute_band_set(frame_for(E06, UNIT, math.inf, 2))
    assert len(bs.bands) == 2
    np.testing.assert_allclose(bs.bands, [(-1, -0.6), (0.6, 1)], atol=1e-9)
    assert bs.report.ok


@pytest.mark.parametrize("x_star", [math.inf, 2.0])
def test_recip_level_set_contains_base(x_star):
    bs = compute_band_set(frame_for(E1, W3, x_star, 4))
    assert len(bs.bands) == 4
    assert bs.report.ok
    lo, hi = bs.merged.hull
    assert lo <= -1 + 1e-9 and hi >= 1 - 1e-9
    # the gap containing x* stays clear of the level set
    assert not bs.merged.contains(3.0)
    if not math.isinf(x_star):
        assert not bs.merged.contains(x_star)


# -- Blaschke magnitudes -------------------------------------------------------


def test_blaschke_closed_form():
    bs = compute_band_set(frame_for(E1, UNIT, math.inf, 1))
    want = 1 / (2 + math.sqrt(3))
    assert abs(blaschke_magnitude(bs, 2.0) - want) < 1e-12


def test_blaschke_in_unit_interval_range():
    bs = compute_band_set(frame_for(E1, W3, math.inf, 4))
    for z in (1.5, 2.0, -1.2, 5.0):
        v = blaschke_magnitude(bs, z)
        assert 0 < v < 1


def test_blaschke_tends_to_one_at_edge():
    bs = compute_band_set(frame_for(E1, UNIT, math.inf, 2))
    hull_hi = bs.merged.hull[1]
    vals = [blaschke_magnitude(bs, hull_hi + d) for d in (1e-2, 1e-4, 1e-6)]
    assert vals[0] < vals[1] < vals[2] < 1
    assert 1 - vals[2] < 1e-2


def test_blaschke_product_additivity():
    bs = compute_band_set(frame_for(E1, W3, math.inf, 4))
    z = 2.0
    g_inf = green(bs.merged, math.inf)(z)
    g_pole = green(bs.merged, 3.0)(z)
    manual = math.exp(-(bs.frame.d_n - 1) * g_inf) * math.exp(-g_pole)
    assert abs(blaschke_magnitude(bs, z) - manual) < 1e-12


def test_blaschke_on_set_rejected():
    bs = compute_band_set(frame_for(E1, UNIT, math.inf, 2))
    with pytest.raises(PointOnSetError):
        blaschke_magnitude(bs, 0.3)


# -- identities -----------------------------------------------------------------


def test_cosh_identity_closed_form():
    bs = compute_band_set(frame_for(E1, UNIT, math.inf, 3))
    rep = verify_cosh_identity(bs, [2.0])
    assert rep.max_residual < 1e-12
    assert abs(abs(bs.frame(2.0)) - 6.5) < 1e-12


def test_cosh_identity_two_interval_gap_point():
    bs = compute_band_set(frame_for(E06, UNIT, math.inf, 2))
    rep = verify_cosh_identity(bs, [0.0, 0.2, -0.35, 1.5, -2.0])
    assert rep.passed and rep.max_residual < 1e-6


def test_cosh_identity_at_x_star_reproduces_weight():
    fr = frame_for(E1, W3, 2.0, 4)
    bs = compute_band_set(fr)
    rep = verify_cosh_identity(bs, [2.0])
    assert rep.passed
    assert abs(abs(fr(2.0)) - 1.0) < 1e-10  # 1/|P_1(2)| = 1


def test_cosh_identity_complex_poles():
    coeffs = np.real(np.polynomial.polynomial.polyfromroots([2 + 1j, 2 - 1j]))
    w = RecipPolyWeight(coeffs)
    bs = compute_band_set(frame_for(E1, w, math.inf, 5))
    rep = verify_cosh_identity(bs, [1.5, -1.5, 4.0])
    assert rep.passed


def test_band_measures_chebyshev_thirds():
    bs = compute_band_set(frame_for(E1, UNIT, math.inf, 3))
    rep = verify_band_measures(bs)
    assert rep.passed
    np.testing.assert_allclose(rep.band_sums, [1, 1, 1], atol=1e-6)
    assert abs(rep.total - 3) < 3e-6


def test_band_measures_symmetric_pair():
    bs = compute_band_set(frame_for(E06, UNIT, math.inf, 2))
    rep = verify_band_measures(bs)
    assert rep.passed
    np.testing.assert_allclose(rep.band_sums, [1, 1], atol=1e-8)


def test_band_measures_recip():
    bs = compute_band_set(frame_for(E1, W3, math.inf, 4))
    rep = verify_band_measures(bs)
    assert rep.passed
    assert rep.max_band_deviation < 1e-6
    assert all(g <= 1 + 1e-6 for g in rep.gap_sums)


def test_band_measures_complex_poles():
    coeffs = np.real(np.polynomial.polynomial.polyfromroots([0.2 + 0.8j, 0.2 - 0.8j]))
    w = RecipPolyWeight(coeffs)
    bs = compute_band_set(frame_for(E06, w, math.inf, 5))
    rep = verify_band_measures(bs)
    assert rep.max_band_deviation < 1e-6
    assert rep.passed


def test_band_measures_total_is_dn():
    for E, w, n in [(E1, W3, 5), (E06, UNIT, 3)]:
        bs = compute_band_set(frame_for(E, w, math.inf, n))
        rep = verify_band_measures(bs)
        assert abs(rep.total - bs.frame.d_n) < 1e-5


def test_containment_on_audit_grid():
    for E, w, n in [(E1, W3, 6), (E06, UNIT, 4)]:
        bs = compute_band_set(frame_for(E, w, math.inf, n))
        assert bs.report.max_ratio <= 1 + 1e-9


def test_cancellation_on_scaled_hull():
    # hull half-width 2 exposes any missing x-scale in the reduced numerator
    E = make_set([(-2, -1.2), (1.2, 2)])
    w0 = RecipPolyWeight([0.0, 1.0])
    fr = frame_for(E, w0, math.inf, 3)
    assert len(fr.cancelled) == 1 and fr.d_n == 2
    sol = fr.sol
    x = 1.7
    want = sol(x) / x  # R = T/P with the common zero cancelled
    assert abs(abs(fr(x)) - abs(want)) < 1e-10 * abs(want)
    # the product form is R = sign * T/P_m on E, in the gaps and far out
    for x in (-1.9, -1.2, 1.5, 2.0, -0.7, 0.4, 1.1, 9.0, -40.0):
        want = fr.sign * sol(x) / x
        assert abs(fr(x) - want) <= 1e-13 * abs(want)
    bs = compute_band_set(fr)
    assert bs.report.ok and len(bs.bands) == 2
    rep = verify_band_measures(bs)
    assert rep.passed


def test_green_dominates_level_set_green():
    # E inside the level set forces g_E >= g_{e_n} pointwise
    bs = compute_band_set(frame_for(E06, UNIT, math.inf, 3))
    g_base, g_level = green(E06), green(bs.merged)
    for z in (0.0, 0.3, 1.5, -2.0, 4.0):
        if not bs.merged.contains(z):
            assert g_base(z) >= g_level(z) - 1e-12


def test_array_green_exponent_matches_scalar_green_cross():
    # poles at 3 (real) and +-0.5i (a complex pair)
    w = RecipPolyWeight([-0.75, 0.25, -3.0, 1.0])
    bs = compute_band_set(frame_for(E1, w, math.inf, 8))
    fr = bs.frame
    assert any(complex(c).imag == 0 for c in fr.retained)
    assert any(complex(c).imag != 0 for c in fr.retained)
    lo, hi = bs.merged.hull
    samples = [hi + 0.3, hi + 1.7, lo - 0.2, lo - 2.5, 2.6]
    for gap in bs.merged.gaps():
        if gap.bounded:
            samples.append(0.5 * (gap.lo + gap.hi))
    cr = verify_cosh_identity(bs, samples)
    for z, res in zip(samples, cr.residuals):
        G = (fr.d_n - fr.r_n) * green_cross(bs.merged, z, math.inf)
        G += sum(green_cross(bs.merged, z, complex(c)) for c in fr.retained)
        lhs = abs(fr(z))
        assert abs(res - abs(lhs - bs.level * math.cosh(G)) / lhs) < 1e-13
        assert abs(blaschke_magnitude(bs, z) - math.exp(-G)) < 1e-13


# -- level sets from R's zeros -------------------------------------------------


def test_band_measures_e06_real_pole_n24():
    # |R(-0.6)| = t(1 - 6e-10) puts the level-set end a sliver past E's band
    # end, where the square-root density gives it mass ~1e-5; it snaps onto -0.6
    bs = compute_band_set(frame_for(E06, W3, math.inf, 24))
    rep = verify_band_measures(bs)
    assert rep.passed
    assert bs.report.ok


def test_band_measures_jittered_three_bands():
    E = make_set([
        (-1.0010426807771782, -0.4933460141188624),
        (-0.20854487792741488, 0.29651447082690136),
        (0.6058995197421574, 1.0091438044278003),
    ])
    bs = compute_band_set(frame_for(E, UNIT, 0.4354068527345654, 6))
    assert verify_band_measures(bs).passed


def test_band_measures_readme_example():
    bs = compute_band_set(frame_for(E1, W3, math.inf, 8))
    assert verify_band_measures(bs).max_band_deviation <= 1e-12


def test_touching_bands_share_their_end():
    bs = compute_band_set(frame_for(E1, UNIT, math.inf, 3))
    assert bs.bands[0][1] == bs.bands[1][0]
    assert bs.bands[1][1] == bs.bands[2][0]


def _off_set_samples(bs):
    """Real points off the level set: beyond its hull and inside its gaps."""
    lo, hi = bs.merged.hull
    span = hi - lo
    pts = [hi + span * 0.05 * k for k in range(1, 6)] + [lo - span * 0.05 * k for k in range(1, 6)]
    for gap in bs.merged.gaps():
        if gap.bounded:
            pts += list(np.linspace(gap.lo, gap.hi, 5)[1:-1])
    return [x for x in pts if all(abs(x - complex(c)) > 1e-6 * span for c in bs.frame.retained)]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    widths=st.lists(st.floats(0.1, 1.0), min_size=1, max_size=5).filter(lambda v: len(v) % 2),
    pole=st.one_of(st.none(), st.floats(1.1, 3.0), st.floats(-3.0, -1.1)),
    data=st.data(),
)
def test_band_measure_identity_property(widths, pole, data):
    # 1-3 bands in [-1, 1] (band, gap, band, ... widths), unit weight or 1/|x - c| off the hull
    ends = -1.0 + 2.0 * np.cumsum([0.0] + widths) / sum(widths)
    E = make_set(list(zip(ends[0::2], ends[1::2])))
    w = UNIT if pole is None else RecipPolyWeight([-pole, 1.0])
    n = data.draw(st.integers(compute_n0(E, w, math.inf), 12), label="n")
    bs = compute_band_set(frame_for(E, w, math.inf, n))
    rep = verify_band_measures(bs)
    assert len(bs.bands) == bs.frame.d_n and bs.report.ok
    assert rep.passed and rep.max_band_deviation <= 1e-9
    assert verify_cosh_identity(bs, _off_set_samples(bs)).passed
