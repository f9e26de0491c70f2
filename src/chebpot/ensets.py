"""Rational frames and level-set band structure for reciprocal weights.

For w0 = 1/|P_m| the solved polynomial T and the denominator combine into
R_n = +-T/P_m with common zeros cancelled.  The level set

    e_n = { x : |R_n(x)| <= t_n }

is a union of d_n = deg(T) - m + r_n closed bands, each mapped bijectively
onto [-t_n, t_n] by R_n; the original set is contained in it.  The band
masses satisfy

    (d_n - r_n) omega(I, inf) + sum_{j <= r_n} omega(I, c_j) = 1

per band, computed here with independently constructed harmonic measures
on the merged level set (inverted-set measures for real poles, conjugate
pair measures for complex pole pairs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as C

from .errors import (
    AmbiguousCancellationError,
    BandCountMismatchError,
    BelowN0Error,
    BothComplexError,
    PointOnSetError,
)
from .extremal import ExtremalPoly, RemezOptions, solve_extremal
from .potential import (
    conjugate_pair_measure,
    green,
    green_cross,
    harmonic_measure,
)
from .realset import FiniteGapSet, make_set
from .weights import Weight

CANCEL_TOL_FACTOR = 1e-8


@dataclass(frozen=True)
class RationalFrame:
    """R_n = sign * T/P_m with cancelled zeros removed.

    num/den hold Chebyshev coefficients (hull coordinates of the solution)
    of the reduced numerator and denominator; retained poles are listed
    with multiplicity and closed under conjugation.
    """

    sol: ExtremalPoly
    sign: int
    retained: tuple[complex, ...]
    cancelled: tuple[complex, ...]
    r_n: int
    d_n: int
    n0: int
    num: tuple[float, ...]
    den: tuple[float, ...]

    @property
    def t(self) -> float:
        return self.sol.t

    def __call__(self, z):
        y = (np.asarray(z) - self.sol.center) / self.sol.half
        val = self.sign * C.chebval(y, np.asarray(self.num)) / C.chebval(
            y, np.asarray(self.den)
        )
        return float(val) if np.isscalar(z) else val


@dataclass(frozen=True)
class ContainmentReport:
    max_ratio: float  # max |R|/t over audit nodes of the base set
    level_residual: float  # max | |R(edge)| - t | / t over band edges
    ok: bool


@dataclass(frozen=True)
class BandSet:
    """Bands [alpha_j, beta_j] of the level set; merged holds their union
    (touching bands fused) for potential-theoretic computations."""

    bands: tuple[tuple[float, float], ...]
    level: float
    frame: RationalFrame
    merged: FiniteGapSet
    report: ContainmentReport


@dataclass(frozen=True)
class CoshReport:
    samples: tuple[float, ...]
    residuals: tuple[float, ...]
    max_residual: float
    passed: bool


@dataclass(frozen=True)
class BandMeasureReport:
    band_sums: tuple[float, ...]
    max_band_deviation: float
    gap_sums: tuple[float, ...]
    max_gap_sum: float
    total: float  # sum of band sums, bookkeeping target d_n
    passed: bool


def compute_n0(E: FiniteGapSet, w0: Weight, x_star: float, opts: RemezOptions | None = None) -> int:
    """n0 = 2(m+1) - deg(T_{m+1}); the frame needs n >= n0."""
    rd = w0.recip_data()
    if rd is None:
        raise ValueError("weight must be unit or reciprocal-polynomial")
    m = rd[0]
    aux = solve_extremal(E, w0, x_star, m + 1, opts)
    return 2 * (m + 1) - aux.degree


def build_rational_frame(
    sol: ExtremalPoly, w0: Weight, n0: int | None = None, opts: RemezOptions | None = None
) -> RationalFrame:
    """Form R_n from a solved polynomial and its reciprocal weight."""
    rd = w0.recip_data()
    if rd is None:
        raise ValueError("weight must be unit or reciprocal-polynomial")
    m, zeros_p, lead = rd
    E = sol.E
    if n0 is None:
        n0 = compute_n0(E, w0, sol.x_star, opts)
    if sol.n < n0:
        raise BelowN0Error(f"n = {sol.n} is below n0 = {n0}")

    tol = CANCEL_TOL_FACTOR * E.diameter
    t_zeros = list(sol.zeros())
    cancelled: list[complex] = []
    retained: list[complex] = []
    for c in zeros_p:
        c = complex(c)
        if t_zeros:
            dists = [abs(z - c) for z in t_zeros]
            k = int(np.argmin(dists))
            d = dists[k]
        else:
            d = math.inf
        if d <= tol:
            cancelled.append(c)
            t_zeros.pop(k)
        elif d <= 10 * tol:
            raise AmbiguousCancellationError(
                f"zero pair at distance {d:.3e} (tolerance {tol:.3e})"
            )
        else:
            retained.append(c)
    r_n = len(retained)
    d_n = sol.degree - m + r_n
    if d_n < 1:
        raise BelowN0Error(f"rational frame has no pole at infinity (d_n - r_n = {d_n - r_n})")

    center, half = sol.center, sol.half
    num = C.chebtrim(np.asarray(sol.cheb_coeffs), tol=0.0)
    for z in cancelled:
        # (x - z) = half * (y - y0): divide by the y-factor, then by half
        fac = np.array([-((complex(z).real - center) / half), 1.0])
        num, _ = C.chebdiv(num, fac)
        num = num / half
    den = np.array([float(lead)])
    used = [False] * r_n
    for i, c in enumerate(retained):
        if used[i]:
            continue
        c = complex(c)
        if abs(c.imag) < 1e-13 * max(1.0, E.diameter):
            den = C.chebmul(den, np.array([-((c.real - center) / half), 1.0]))
            used[i] = True
        else:
            mate = None
            for j in range(i + 1, r_n):
                if not used[j] and abs(complex(retained[j]) - c.conjugate()) < 1e-9:
                    mate = j
                    break
            if mate is None:
                raise AmbiguousCancellationError(
                    "retained complex poles do not close under conjugation"
                )
            used[i] = used[mate] = True
            y0 = (c - center) / half
            den = C.chebmul(den, C.poly2cheb(np.array([abs(y0) ** 2, -2 * y0.real, 1.0])))
    # scale: each linear factor (x - c) = half*(y - y0) contributes a factor half
    den = den * half ** (r_n)

    sign = _frame_sign(sol, num, den, retained, center, half)
    return RationalFrame(
        sol=sol,
        sign=sign,
        retained=tuple(retained),
        cancelled=tuple(cancelled),
        r_n=r_n,
        d_n=d_n,
        n0=n0,
        num=tuple(float(v) for v in num),
        den=tuple(float(v) for v in den),
    )


def _frame_sign(sol, num, den, retained, center, half) -> int:
    """Sign making R positive at x*, or its principal part positive at a pole."""
    x_star = sol.x_star
    if math.isinf(x_star):
        # leading Laurent coefficient at infinity: lead(num)/lead(den)
        lead_num = num[-1] * 2.0 ** (len(num) - 2) if len(num) > 1 else num[-1]
        lead_den = den[-1] * 2.0 ** (len(den) - 2) if len(den) > 1 else den[-1]
        val = lead_num / lead_den
    else:
        y_star = (x_star - center) / half
        dver = C.chebval(y_star, den)
        k = sum(1 for c in retained if abs(complex(c) - x_star) < 1e-12 * max(1.0, half))
        if k == 0:
            val = C.chebval(y_star, num) / dver
        else:
            # remove the (x - x*)^k factors before evaluating
            red = np.asarray(den)
            for _ in range(k):
                red, _ = C.chebdiv(red, np.array([-y_star, 1.0]))
                red = red / half  # undo the linear-factor scale
            val = C.chebval(y_star, num) / C.chebval(y_star, red)
    return 1 if val > 0 else -1


def compute_band_set(frame: RationalFrame) -> BandSet:
    """Locate all bands of the level set |R_n| <= t_n."""
    t = frame.t
    num = np.asarray(frame.num)
    den = np.asarray(frame.den)
    ln = max(num.size, den.size)
    pad = lambda a: np.pad(a, (0, ln - a.size))
    zeros_y = C.chebroots(num)
    zeros_y = np.sort(zeros_y[np.abs(zeros_y.imag) < 1e-7].real)
    if zeros_y.size != frame.d_n:
        raise BandCountMismatchError(
            f"found {zeros_y.size} real zeros of R, expected {frame.d_n}"
        )
    levels = []
    for sgn in (+1.0, -1.0):
        poly = pad(num) * frame.sign - sgn * t * pad(den)
        rts = C.chebroots(C.chebtrim(poly, tol=1e-14 * np.max(np.abs(poly))))
        levels.append(rts[np.abs(rts.imag) < 1e-6].real)
    levels = np.sort(np.concatenate(levels))
    if levels.size < 2 * frame.d_n:
        raise BandCountMismatchError(
            f"found {levels.size} level crossings, expected {2 * frame.d_n}"
        )
    bands = []
    for z in zeros_y:
        left = levels[levels <= z + 1e-14]
        right = levels[levels >= z - 1e-14]
        if left.size == 0 or right.size == 0:
            raise BandCountMismatchError("zero of R without flanking level crossings")
        bands.append((float(left[-1]), float(right[0])))

    sol = frame.sol
    to_x = lambda y: sol.center + sol.half * y
    bands_x = [(to_x(a), to_x(b)) for a, b in bands]
    span = bands_x[-1][1] - bands_x[0][0]
    if any(b <= a for a, b in bands_x) or any(
        bands_x[i + 1][0] < bands_x[i][1] - 1e-10 * span
        for i in range(len(bands_x) - 1)
    ):
        raise BandCountMismatchError("level-set bands are not sorted and disjoint")
    merged = make_set(bands_x, merge_tol=1e-7 * span)

    # containment and level residual audit
    from .realset import sample_grid

    audit = sample_grid(sol.E, 64)
    ratio = float(np.max(np.abs(frame(audit))) / t)
    edges = np.array([e for ab in bands_x for e in ab])
    level_res = float(np.max(np.abs(np.abs(frame(edges)) - t)) / t)
    ok = ratio <= 1 + 1e-9 and level_res <= 1e-7
    report = ContainmentReport(max_ratio=ratio, level_residual=level_res, ok=ok)
    return BandSet(
        bands=tuple(bands_x), level=t, frame=frame, merged=merged, report=report
    )


def _poles(frame: RationalFrame):
    """The retained real poles with multiplicity, and one base per conjugate
    pair: its member in the upper half plane (build_rational_frame checks
    that the retained poles close under conjugation)."""
    poles = [complex(c) for c in frame.retained]
    return [c.real for c in poles if c.imag == 0], [c for c in poles if c.imag > 0]


def _green_exponent(bs: BandSet, z):
    """(d_n - r_n) g(z, inf) + sum over retained poles of g(z, c_j), elementwise.

    Each infinite or real pole takes one Green call over all points; a
    conjugate pair {c, conj c} adds 2 g(z, c), exact for real z, taken point
    by point as g(c, z) and for real z only.
    """
    frame = bs.frame
    z = np.asarray(z)
    total = (frame.d_n - frame.r_n) * green(bs.merged, math.inf)(z)
    real, pairs = _poles(frame)
    for c in real:
        total = total + green(bs.merged, c)(z)
    if pairs and np.any(np.imag(z) != 0):
        raise BothComplexError("complex z with complex poles is unsupported")
    for c in pairs:
        g = [green_cross(bs.merged, x, c) for x in np.real(z).ravel()]
        total = total + 2.0 * np.reshape(g, z.shape)
    return total


def blaschke_magnitude(bs: BandSet, z) -> float:
    """|B_n(z)| = exp(-(d_n - r_n) g(z,inf) - sum g(z, c_j)) on the level set."""
    zc = complex(z)
    if zc.imag == 0 and bs.merged.contains(zc.real):
        raise PointOnSetError(f"{z} lies on the level set")
    return math.exp(-_green_exponent(bs, z))


def verify_cosh_identity(bs: BandSet, samples) -> CoshReport:
    """Check |R_n(z)| = t_n cosh((d_n-r_n) g(z,inf) + sum g(z,c_j)) at real z."""
    pts = np.array([float(z) for z in samples])
    for z in pts:
        if bs.merged.contains(z):
            raise PointOnSetError(f"sample {z} lies on the level set")
    lhs = np.abs(bs.frame(pts))
    res = np.abs(lhs - bs.level * np.cosh(_green_exponent(bs, pts))) / lhs
    max_res = float(res.max(initial=0.0))
    return CoshReport(
        samples=tuple(float(z) for z in pts),
        residuals=tuple(float(r) for r in res),
        max_residual=max_res,
        passed=max_res < 1e-6,
    )


def verify_band_measures(bs: BandSet) -> BandMeasureReport:
    """Per-band combination masses against 1; per-gap sums against <= 1."""
    frame = bs.frame
    dr = frame.d_n - frame.r_n
    hm_inf = harmonic_measure(bs.merged, math.inf)
    real, pair_bases = _poles(frame)
    hm_real = [harmonic_measure(bs.merged, c) for c in real]
    pairs = [conjugate_pair_measure(bs.merged, c) for c in pair_bases]

    def combo(lo, hi):
        total = dr * hm_inf.mass(lo, hi)
        total += sum(h.mass(lo, hi) for h in hm_real)
        total += sum(p.mass(lo, hi) for p in pairs)
        return total

    band_sums = [combo(a, b) for a, b in bs.bands]
    E = frame.sol.E
    gap_sums = []
    for gap in E.gaps():
        if gap.bounded:
            gap_sums.append(combo(gap.lo, gap.hi))
        else:
            lo_all, hi_all = bs.merged.hull
            left = combo(lo_all, gap.hi) if lo_all < gap.hi else 0.0
            right = combo(gap.lo, hi_all) if hi_all > gap.lo else 0.0
            gap_sums.append(left + right)
    max_dev = max(abs(s - 1.0) for s in band_sums)
    max_gap = max(gap_sums) if gap_sums else 0.0
    passed = max_dev <= 1e-6 and max_gap <= 1 + 1e-6
    return BandMeasureReport(
        band_sums=tuple(band_sums),
        max_band_deviation=max_dev,
        gap_sums=tuple(gap_sums),
        max_gap_sum=max_gap,
        total=sum(band_sums),
        passed=passed,
    )
