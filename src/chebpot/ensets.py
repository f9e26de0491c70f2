"""Rational frames and level-set band structure for reciprocal weights.

For w0 = 1/|P_m| the solved polynomial T and the denominator combine into
R_n = +-T/P_m with common zeros cancelled.  The level set

    e_n = { x : |R_n(x)| <= t_n }

is a union of d_n = deg(T) - m + r_n closed bands, each holding one zero of
R_n and mapped bijectively onto [-t_n, t_n] by it, with at most one zero
per gap (Christiansen-Simon-Zinchenko, Invent. Math. 208, 2017); the
original set is contained in it.  R_n is held by its zeros and poles, and
one bracketed root finder gives T's zeros, the critical points of |R_n|
and the level crossings.  The band masses satisfy

    (d_n - r_n) omega(I, inf) + sum_{j <= r_n} omega(I, c_j) = 1

per band, computed here with independently constructed harmonic measures
on the merged level set (inverted-set measures for real poles, conjugate
pair measures for complex pole pairs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    AmbiguousCancellationError,
    BandCountMismatchError,
    BelowN0Error,
    BothComplexError,
    PointOnSetError,
)
from .extremal import ExtremalPoly, RemezOptions, bracketed_roots, solve_extremal
from .potential import (
    conjugate_pair_measure,
    green,
    green_cross,
    harmonic_measure,
)
from .realset import FiniteGapSet, make_set, sample_grid
from .weights import Weight

CANCEL_TOL_FACTOR = 1e-8
_AUDIT_NODES = 64  # cosine nodes per band of E in the containment audit


@dataclass(frozen=True)
class RationalFrame:
    """R_n = sign * T/P_m with cancelled zeros removed, in product form:

        R_n(x) = scale * prod_i (x - zeros_i) / prod_j (x - retained_j).

    zeros are T's real zeros left after cancellation, sorted, one per band
    of the level set; retained poles are listed with multiplicity and close
    under conjugation.  R_n is positive at x* (its principal part is, where
    x* is a pole; its leading coefficient is, for x* = inf), and |R_n| = t
    at the alternation points in geometric mean.
    """

    sol: ExtremalPoly
    sign: int
    retained: tuple[complex, ...]
    cancelled: tuple[complex, ...]
    r_n: int
    d_n: int
    n0: int
    zeros: tuple[float, ...]
    scale: float

    @property
    def t(self) -> float:
        return self.sol.t

    @cached_property
    def _nodes(self):
        """Zeros and poles with exponents +1 and -1; complex only if a pole is."""
        poles = np.asarray(self.retained, dtype=complex)
        nodes = np.concatenate([self.zeros, poles if poles.imag.any() else poles.real])
        return nodes, np.repeat([1.0, -1.0], [len(self.zeros), len(poles)])

    def _parts(self, x):
        """x - nodes, one row per real point x, and log|R_n(x)|."""
        nodes, exps = self._nodes
        diff = np.asarray(x, dtype=float)[..., None] - nodes
        return diff, math.log(abs(self.scale)) + np.log(np.abs(diff)) @ exps

    @np.errstate(divide="ignore")  # R_n = 0 at a zero, +-inf at a pole
    def __call__(self, x):
        """R_n at real x."""
        diff, lr = self._parts(x)
        flips = np.count_nonzero((diff.real < 0) & (diff.imag == 0), -1)
        val = np.copysign(np.exp(lr), self.scale) * (-1.0) ** flips
        return float(val) if np.isscalar(x) else val


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
    t_zeros = sol.zeros()
    zeros, cancelled, retained = list(t_zeros), [], []
    for c in map(complex, zeros_p):
        if c.imag:  # only a non-real zero of T can cancel it: its Newton distance
            p, dp, _ = sol.derivatives()(c)
            d, k = abs(p / dp), None
        else:  # the nearest real zero of T
            d, k = min(((abs(z - c.real), i) for i, z in enumerate(zeros)), default=(math.inf, None))
        if d <= tol:
            cancelled.append(c)
            if k is not None:
                zeros.pop(k)
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
    if len(zeros) != d_n:
        raise BandCountMismatchError(f"T has {len(zeros)} real zeros left after cancellation, expected {d_n}")
    pairs = np.asarray([c for c in retained if c.imag])
    if not np.allclose(np.sort_complex(pairs), np.sort_complex(pairs.conj()), rtol=0.0, atol=1e-9):
        raise AmbiguousCancellationError("retained complex poles do not close under conjugation")

    # R_n > 0 at x*: one sign per real zero and real pole, none for poles at x*
    x_star, s = sol.x_star, 1.0
    if not math.isinf(x_star):
        off = [c.real for c in retained if not c.imag and abs(c.real - x_star) >= 1e-12 * max(1.0, sol.half)]
        s = np.prod(np.sign(x_star - np.concatenate([zeros, off])))
    frame = RationalFrame(sol, 1, tuple(retained), tuple(cancelled), r_n, d_n, n0, tuple(map(float, zeros)), 1.0)
    alt = np.asarray(sol.alternation)
    scale = s * math.exp(math.log(sol.t) - float(np.mean(frame._parts(alt)[1])))
    # R_n = sign T/P_m: T's leading coefficient has T's sign at an
    # alternation point times one sign per real zero of T
    sign = s * sol.signs[0] * np.prod(np.sign(alt[0] - t_zeros)) * np.sign(lead)
    return replace(frame, sign=int(sign), scale=scale)


def _log_derivs(frame: RationalFrame, x, level: float = 0.0):
    """log|R_n| - level and the first three derivatives of log|R_n| at real x."""
    diff, lr = frame._parts(x)
    exps = frame._nodes[1]
    inv = 1.0 / diff
    inv2 = inv * inv
    return lr - level, (inv @ exps).real, -(inv2 @ exps).real, 2.0 * ((inv2 * inv) @ exps).real


@np.errstate(divide="ignore")  # log|R_n| = -inf at a zero
def compute_band_set(frame: RationalFrame) -> BandSet:
    """Locate all bands of the level set |R_n| <= t_n.

    Between two consecutive zeros with no real pole between them |R_n| has
    one critical point.  Where |R_n| is t there, to the certificate's
    tolerance, it is the shared end of two touching bands; otherwise one
    crossing of the level lies on each side of it, found like the outer
    crossings, which end at a real pole or at infinity.  A crossing just
    outside an end of E that is an alternation point with |R_n| = t to that
    tolerance moves onto it.
    """
    sol, t = frame.sol, frame.t
    log_t, zeros, alt = math.log(t), np.asarray(frame.zeros), np.asarray(sol.alternation)
    ends, d = np.asarray(sol.E.bands), len(frame.zeros)
    slack = 4 * sol.defect + 1e-12

    # each band lies between the real poles around its zero ...
    real = np.sort(_poles(frame)[0])
    k = np.searchsorted(real, zeros)
    lim_lo, lim_hi = np.concatenate([[-math.inf], real, [math.inf]])[[k, k + 1]]
    # ... and the critical points between zeros with no pole between them,
    # started at the alternation point there (where bands touch) unless it
    # is an end of E, else halfway
    inner = np.flatnonzero(k[:-1] == k[1:])
    lo, hi = zeros[inner], zeros[inner + 1]
    guess = alt[np.minimum(np.searchsorted(alt, lo), alt.size - 1)]
    guess = np.where((guess[:, None] == ends.ravel()).any(1), 0.5 * (lo + hi), guess)
    crit = bracketed_roots(lambda x: _log_derivs(frame, x)[1:], lo, hi, False, guess, hi - lo)
    ratio = np.exp(frame._parts(crit)[1] - log_t)
    if np.any(ratio < 1 - slack):
        raise BandCountMismatchError(f"two bands overlap: |R|/t = {ratio.min():.3e} between their zeros")
    lim_hi[inner] = lim_lo[inner + 1] = crit
    shared = np.zeros(d + 1, dtype=bool)  # shared[j]: bands j - 1 and j touch
    shared[inner[ratio <= 1 + slack] + 1] = True

    # the crossings, started at the nearest alternation point past the zero
    # if it lies in the bracket, else at the zero's linearization offset
    # u = t/|R_n'(zeta)|, which also scales the bracket
    diff = frame._parts(zeros)[0]
    np.fill_diagonal(diff[:, :d], 1.0)
    u = np.exp(log_t - math.log(abs(frame.scale)) - np.log(np.abs(diff)) @ frame._nodes[1])
    jl, jr = np.flatnonzero(~shared[:-1]), np.flatnonzero(~shared[1:])
    lo, hi = np.concatenate([lim_lo[jl], zeros[jr]]), np.concatenate([zeros[jl], lim_hi[jr]])
    up = np.arange(lo.size) >= jl.size
    k = np.searchsorted(alt, np.where(up, lo, hi))
    guess = alt[np.clip(np.where(up, k, k - 1), 0, alt.size - 1)]
    offset = np.concatenate([-u[jl], u[jr]])
    guess = np.where((guess > lo) & (guess < hi), guess, zeros[np.concatenate([jl, jr])] + offset)
    x = bracketed_roots(lambda x: _log_derivs(frame, x, log_t)[:3], lo, hi, up, guess, np.abs(offset))
    left, right = lim_lo, lim_hi
    left[jl], right[jr] = x[: jl.size], x[jl.size :]

    # snap onto the ends of E; the audit grid of E holds them first and last per band
    lr_audit = frame._parts(sample_grid(sol.E, _AUDIT_NODES))[1]
    lr_ends = lr_audit.reshape(-1, _AUDIT_NODES)[:, [0, -1]]
    on_level = (ends[..., None] == alt).any(-1) & (np.exp(lr_ends - log_t) >= 1 - slack)
    ia = np.searchsorted(ends[:, 0], zeros, "right") - 1  # last left end of E before each zero
    snap = (ia >= 0) & ~shared[:-1] & on_level[ia, 0] & (left < ends[ia, 0])
    left[snap] = ends[ia[snap], 0]
    ib = np.minimum(np.searchsorted(ends[:, 1], zeros), len(ends) - 1)  # first right end after
    snap = (ends[ib, 1] >= zeros) & ~shared[1:] & on_level[ib, 1] & (right > ends[ib, 1])
    right[snap] = ends[ib[snap], 1]

    if np.any(right <= left):
        j = int(np.argmax(right <= left))
        raise BandCountMismatchError(f"band {j + 1} around {zeros[j]:.17g} is narrower than float64 can place")
    bands = tuple(zip(left.tolist(), right.tolist()))
    level_res = float(np.max(np.abs(np.exp(frame._parts(np.ravel(bands))[1] - log_t) - 1)))
    ratio = float(np.exp(lr_audit.max() - log_t))
    report = ContainmentReport(max_ratio=ratio, level_residual=level_res, ok=ratio <= 1 + 1e-9 and level_res <= 1e-7)
    return BandSet(bands=bands, level=t, frame=frame, merged=make_set(bands), report=report)


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
