"""Logarithmic potential theory on finite-gap subsets of the real line.

Everything reduces to the pole-at-infinity case.  For a set E with bands
(a_j, b_j) and R(t) = prod_j (t - a_j)(t - b_j), the equilibrium density is

    rho(t) = |Q(t)| / (pi * sqrt(|R(t)|)),

with Q(t) = prod_j (t - z_j) monic of degree p-1, one zero per bounded gap.
Newton on the vanishing gap periods of Q/sqrt(R) fixes the zeros (Embree &
Trefethen, SIAM Rev. 41, 1999), and Q is evaluated in product form.  The
Green function with pole at infinity is g(z) = int log|z-t| drho(t) - log
cap(E); its critical points are the zeros z_j.

Finite poles are handled by the Moebius substitution s = 1/(t - x0),
which maps E to another finite union of closed intervals and turns
g_E(. , x0) into the pole-at-infinity Green function of the image set.
Harmonic measure at a finite base transforms the same way.  For a base
at a conjugate pair {c, conj(c)} off the real line (needed when rational
weights have complex zeros) the pair measure omega(. , c) + omega(. , conj(c))
has density |M(t)| / (pi |t - c|^2 sqrt(|R(t)|)) with M of degree p fixed
by a residue condition at c plus the gap periods, in the basis Q/(t - z_j), Q, tQ.

Quadrature: one family, Fejer's first rule, with closed-form nodes
clustered at the ends of its interval.  The substitution t = m - r*cos(theta)
per band/gap removes the inverse-square-root endpoint singularities and
leaves a smooth integrand in theta, which the rule integrates with
geometric convergence.  Green values at real and complex points within a
few hull radii come from one edge integral, Re int Q/sqrt(R) from the
nearest band edge with a u^2 substitution at the edge, on the same rule;
farther out the equilibrium rule sums log|z - t|.  Szego
integrals of weights with log w = log|lead| + sum e_j log|x - c_j| are
closed forms in Green values (Frostman's identity).  All computations run
in coordinates normalized to the convex hull for conditioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import BothComplexError, IllConditionedError, PoleOnSetError, ZeroOnSetError
from .realset import FiniteGapSet, Gap, make_set
from .weights import Weight

_XREF = 3.0  # reference point in normalized coordinates (hull is [-1, 1])
_EDGE_ORDERS = (16, 32, 64, 128, 256)  # Fejer orders of the edge integral
# ln(1e18): target for rho^(-2n) on the Bernstein ellipse, the Gauss rate,
# which Fejer's rule matches at these orders
_EDGE_DIGITS = 41.5
_CHUNK = 1 << 16  # array elements per temporary in batched evaluation (~1 MB)
_ADAPT_INTERVALS = 2000  # open intervals at which adaptive quadrature accepts what it has
_ADAPT_EPSABS, _ADAPT_EPSREL = 1e-13, 1e-12  # adaptive quadrature tolerances
_ORDER, _MAX_ORDER = 256, 2048  # first and last Fejer order of the equilibrium rule
_NEWTON_STEPS = 20  # cap on Newton steps for the zeros of Q at one order
_MASS_ORDER = 160  # Fejer order of the theta-band mass integral


@lru_cache(maxsize=16)
def _fejer(n: int):
    """Fejer's first rule on (0, 1): nodes u = (1 - cos((k + 1/2) pi/n))/2, weights.

    The nodes are closed-form and cluster at 0 and 1 like Gauss-Legendre,
    which resolves singularities just beyond the ends (narrow gaps); the
    rule is exact for polynomials of degree below n, and at the orders
    used here it converges at the Gauss rate on analytic integrands
    (Trefethen, SIAM Rev. 50, 2008).  The weights take one FFT (Waldvogel,
    BIT 46, 2006).  About ten distinct orders are in use.
    """
    K = np.arange((n + 1) // 2)
    v0 = np.concatenate([2 * np.exp(1j * np.pi * K / n) / (1 - 4 * K**2), np.zeros(n // 2 + 1)])
    w = np.fft.ifft(v0[:-1] + np.conj(v0[:0:-1])).real
    return 0.5 * (1.0 - np.cos((np.arange(n) + 0.5) * (np.pi / n))), 0.5 * w


def _adaptive(f, breaks) -> float:
    """int f over [breaks[0], breaks[-1]] by globally adaptive bisection.

    f maps an array of abscissae to values.  Each interval's 11-point
    Fejer value (odd, so the midpoint is a node) is compared with
    the sum over its halves; an interval is accepted when the difference is
    within its length's share of max(epsabs, epsrel |integral|), else both
    halves are refined together with every other open interval.  Integrable
    endpoint singularities (log and floored poles) at the breakpoints are
    resolved by repeated halving down to intervals of 1e-15 of the span.
    """
    u, wu = _fejer(11)

    def rule(lo, hi):
        x = lo[:, None] + (hi - lo)[:, None] * u
        return (f(x.ravel()).reshape(x.shape) @ wu) * (hi - lo)

    breaks = np.asarray(breaks, dtype=float)
    span = breaks[-1] - breaks[0]
    lo, hi = breaks[:-1], breaks[1:]
    coarse = rule(lo, hi)
    done = 0.0
    while lo.size:
        mid = 0.5 * (lo + hi)
        left, right = rule(lo, mid), rule(mid, hi)
        fine = left + right
        tol = max(_ADAPT_EPSABS, _ADAPT_EPSREL * abs(done + fine.sum()))
        ok = np.abs(fine - coarse) <= tol * (hi - lo) / span
        ok |= (hi - lo <= 1e-15 * span) | (lo.size > _ADAPT_INTERVALS)
        done += fine[ok].sum()
        keep = ~ok
        lo, hi = np.concatenate([lo[keep], mid[keep]]), np.concatenate([mid[keep], hi[keep]])
        coarse = np.concatenate([left[keep], right[keep]])
    return float(done)


def _sqrt_uhp(w):
    """Square root with nonnegative imaginary part."""
    s = np.sqrt(w)
    np.negative(s, out=s, where=s.imag < 0)
    return s


class _Core:
    """Equilibrium data of one finite-gap set, in hull-normalized coordinates."""

    def __init__(self, E: FiniteGapSet):
        lo, hi = E.hull
        self.center = 0.5 * (lo + hi)
        self.half = 0.5 * (hi - lo)
        self.p = len(E.bands)
        self.ends = (np.array(E.bands).ravel() - self.center) / self.half
        self.z = 0.5 * (self.ends[1:-1:2] + self.ends[2:-1:2])  # Newton starts at gap midpoints

        prev_logcap = None
        n = _ORDER
        while True:
            self._build(n)
            ok = abs(self.mass - 1.0) < 5e-13
            if prev_logcap is not None and ok and abs(self.logcap - prev_logcap) < 5e-14:
                break
            if n >= _MAX_ORDER:
                if not ok:
                    raise IllConditionedError(
                        f"equilibrium mass off by {self.mass - 1.0:.3e} at order {n}"
                    )
                break
            prev_logcap = self.logcap
            n *= 2
        self.order = n
        self.capacity = self.half * math.exp(self.logcap)
        self.z_green = self.g_hat(self.z)  # the critical values of g

    # -- construction ------------------------------------------------------

    def _sqrt_excl(self, tau, skip=()):
        """sqrt(prod over endpoints not in `skip` (by index) of |tau - e|)."""
        out = np.ones_like(np.asarray(tau, dtype=float))
        for i, e in enumerate(self.ends):
            if i in skip:
                continue
            out = out * np.abs(tau - e)
        return np.sqrt(out)

    def _theta_rule(self, first, n: int):
        """Fejer's rule of order n in theta for int f / sqrt|R| over the intervals
        between consecutive band ends (e_f, e_f+1), f in the array `first`:
        nodes and weights with one row per interval."""
        u, w = _fejer(n)
        lo, hi = self.ends[first], self.ends[first + 1]
        tau = 0.5 * (lo + hi)[:, None] - 0.5 * (hi - lo)[:, None] * np.cos(np.pi * u)
        s = [self._sqrt_excl(t, skip=(f, f + 1)) for t, f in zip(tau, first)]
        return tau, np.pi * w / np.array(s).reshape(tau.shape)

    def _solve_zeros(self, n: int):
        """Newton on the gap periods F_k(z) = int_{gap k} Q / sqrt|R| = 0 with
        dF_k/dz_i = -int_{gap k} Q / ((tau - z_i) sqrt|R|), from the current z.
        A step that would leave gap k goes halfway to that gap's edge instead.
        Convergence is quadratic: once every step is below 1e-9 of its gap's
        width, the zeros are at rounding level."""
        tau, base = self._theta_rule(2 * np.arange(self.p - 1) + 1, n)
        lo, hi = self.ends[1:-1:2], self.ends[2:-1:2]
        z = self.z
        for _ in range(_NEWTON_STEPS):
            q, quo = self.q_parts(tau.ravel())
            F = np.sum(base * q.reshape(tau.shape), axis=1)
            J = -np.einsum("ikn,kn->ki", quo.reshape((-1,) + tau.shape), base)
            new = z + _solve(J, -F, "gap period")
            new = np.where(new < lo, 0.5 * (z + lo), np.where(new > hi, 0.5 * (z + hi), new))
            done = np.all(np.abs(new - z) <= 1e-9 * (hi - lo))
            self.z = z = new
            if done:
                return
        raise IllConditionedError(f"gap period Newton did not converge at order {n}")

    def _build(self, n: int):
        if self.p > 1:
            self._solve_zeros(n)
        tau, base = self._theta_rule(2 * np.arange(self.p), n)
        self.nodes = tau.ravel()
        self.weights = (base * self.q_abs(tau)).ravel() / np.pi
        self.mass = float(self.weights.sum())

        g_ref = self._edge(np.array([_XREF]), np.array([self.ends[-1]]))[0]
        self.logcap = float(
            np.dot(self.weights, np.log(np.abs(_XREF - self.nodes))) - g_ref
        )

    # -- evaluation --------------------------------------------------------

    def _edge_orders(self, d, e):
        """Per point, the smallest order in _EDGE_ORDERS (capped at 256) whose
        Bernstein ellipse around u in [0, 1] excludes every other band edge.

        Edge e_i sits at u = +-sqrt((e_i - e)/d); a singularity at distance
        delta from [0, 1] leaves the ellipse rho = 1 + 2 delta analytic.
        """
        w = (self.ends - e[:, None]) / d[:, None]
        w[w == 0] = np.inf  # the point's own edge, removed by the substitution
        if np.iscomplexobj(w):
            u = np.sqrt(w)
            dist = np.hypot(u.real - np.clip(u.real, 0.0, 1.0), u.imag)
        else:
            s = np.sqrt(np.abs(w))
            dist = np.where(w > 0, s - 1.0, s)
        need = _EDGE_DIGITS / (2.0 * np.log1p(2.0 * dist.min(axis=1)))
        orders = np.array(_EDGE_ORDERS)
        return orders[np.minimum(np.searchsorted(orders, need), len(orders) - 1)]

    def _edge(self, z, e):
        """g at points z (real, or in the upper half plane) as |Re int_e^z Q/sqrt(R)|
        from the band edge e of each point.

        tau = e + d u^2 with d = z - e gives dtau = 2 d u du and turns the
        square-root singularity at e into the smooth factor u/sqrt(tau - e).
        The differences tau - e_i are formed as (e - e_i) + d u^2, exact at
        the point's own edge.  Complex points take sqrt(R) as the product of
        square roots of pairs of factors, each in the upper half plane: this
        is the branch analytic off the bands with sqrt(R) ~ tau^p at infinity.
        """
        cplx = np.iscomplexobj(z)
        d = z - e
        orders = self._edge_orders(d, e)
        out = np.empty(z.shape)
        for n in np.unique(orders):
            u, wu = _fejer(int(n))
            u2 = u * u
            sel = np.flatnonzero(orders == n)
            rows = max(1, _CHUNK // int(n))
            for s0 in range(0, sel.size, rows):
                ix = sel[s0 : s0 + rows]
                di, ei = d[ix, None], e[ix, None]
                du2 = di * u2
                num = (2.0 * u) * di
                for zj in self.z:
                    num = num * (du2 + (ei - zj))
                if cplx:
                    root = np.ones_like(du2)
                    for a, b in self.ends.reshape(-1, 2):
                        root *= _sqrt_uhp((du2 + (ei - a)) * (du2 + (ei - b)))
                    out[ix] = np.abs((num / root).real @ wu)
                else:
                    prod = np.ones_like(du2)
                    for a in self.ends:
                        prod *= du2 + (ei - a)
                    out[ix] = np.abs((num / np.sqrt(np.abs(prod))) @ wu)
        return out

    def _log_potential(self, z):
        """int log|z - t| drho(t) - log cap with the equilibrium rule (z far from E)."""
        x = z.real
        y2 = np.square(z.imag) if np.iscomplexobj(z) else np.zeros(z.shape)
        out = np.empty(z.shape)
        rows = max(1, _CHUNK // self.nodes.size)
        for s0 in range(0, z.size, rows):
            sl = slice(s0, s0 + rows)
            d2 = np.square(x[sl, None] - self.nodes) + y2[sl, None]
            out[sl] = 0.5 * (np.log(d2) @ self.weights)
        return out - self.logcap

    def g_hat(self, tau) -> np.ndarray:
        """Green function with pole at infinity at a 1-d array of points in
        normalized coordinates, either all real or all off the real axis."""
        if np.iscomplexobj(tau):
            tau = tau.real + 1j * np.abs(tau.imag)  # g(conj z) = g(z)
            near = np.abs(tau) <= _XREF
        else:
            # off the set: an even number of band ends lies on each side
            below = np.searchsorted(self.ends, tau, side="left")
            above = np.searchsorted(self.ends, tau, side="right")
            near = (np.abs(tau) <= _XREF) & (below % 2 == 0) & (above % 2 == 0)
        far = np.abs(tau) > _XREF
        out = np.zeros(tau.shape)
        if far.any():
            out[far] = self._log_potential(tau[far])
        if near.any():
            pts = tau[near]
            out[near] = self._edge(pts, self.ends[np.argmin(np.abs(pts[:, None] - self.ends), axis=1)])
        return out

    def q(self, tau):
        """Q(tau) = prod_j (tau - z_j), monic with one zero per bounded gap."""
        out = np.ones_like(tau)
        for zj in self.z:
            out = out * (tau - zj)
        return out

    def q_abs(self, tau):
        return np.abs(self.q(tau))

    def q_parts(self, tau):
        """Q and the rows Q/(tau - z_i) at a 1-d array of points; where tau is
        a zero z_i, row i holds its limit, the product of the other factors."""
        d = tau - self.z[:, None]
        q = d.prod(axis=0)
        hit = np.nonzero(d == 0)
        d[hit] = 1.0
        quo = q / d
        quo[hit] = d[:, hit[1]].prod(axis=0)
        return q, quo

    def mass_hat(self, lo: float, hi: float, numer=None) -> float:
        """int over [lo, hi] of numer / (pi sqrt|R|) in normalized coordinates,
        in theta per band; the default numer |Q| gives the equilibrium mass."""
        total = 0.0
        u, w = _fejer(_MASS_ORDER)
        for j, (a, b) in enumerate(self.ends.reshape(-1, 2)):
            if min(hi, b) <= max(lo, a):
                continue
            # ((a-x)+(b-x))/(b-a) is exactly +-1 when x hits an endpoint
            th1, th2 = (
                math.acos(min(1.0, max(-1.0, ((a - x) + (b - x)) / (b - a))))
                for x in (max(lo, a), min(hi, b))
            )
            tau = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(th1 + (th2 - th1) * u)
            s = self._sqrt_excl(tau, skip=(2 * j, 2 * j + 1))
            total += (th2 - th1) * float(w @ ((numer or self.q_abs)(tau) / (np.pi * s)))
        return total

    def density_hat(self, tau, numer=None):
        """numer / (pi sqrt|R|) in normalized coordinates (inf at band edges);
        the default numer |Q| gives the equilibrium density."""
        tau = np.asarray(tau, dtype=float)
        with np.errstate(divide="ignore"):
            return (numer or self.q_abs)(tau) / (np.pi * self._sqrt_excl(tau))

    # -- coordinate helpers --------------------------------------------------

    def to_hat(self, t):
        return (t - self.center) / self.half

    def from_hat(self, tau):
        return self.center + self.half * tau


@lru_cache(maxsize=64)
def _core(E: FiniteGapSet) -> _Core:
    return _Core(E)


def _core_at(E: FiniteGapSet, x0: float) -> _Core:
    """Core of E for a pole or base at infinity, else of E inverted about x0.

    Result objects look their core up here on every use instead of holding
    it, so the _core cache alone bounds how many quadrature rules stay alive.
    """
    return _core(E) if math.isinf(x0) else _core(_inverted_set(E, x0))


@lru_cache(maxsize=128)
def _inverted_set(E: FiniteGapSet, x0: float) -> FiniteGapSet:
    """Image of E under t -> 1/(t - x0); again a finite union of intervals."""
    if E.contains(x0):
        raise PoleOnSetError(f"point {x0} lies on the set")
    ivals = []
    for a, b in E.bands:
        u, v = 1.0 / (b - x0), 1.0 / (a - x0)
        ivals.append((min(u, v), max(u, v)))
    return make_set(ivals, merge_tol=0.0)


def _solve(A, rhs, what: str) -> np.ndarray:
    """Solve A x = rhs with rows scaled to unit max norm, or raise when the
    scaled matrix is numerically singular."""
    scale = 1.0 / np.abs(A).max(axis=1)
    A, rhs = A * scale[:, None], rhs * scale
    if np.linalg.cond(A) > 1e13:
        raise IllConditionedError(f"{what} system is numerically singular")
    return np.linalg.solve(A, rhs)


# -- equilibrium ------------------------------------------------------------


@dataclass(frozen=True)
class EquilibriumData:
    """Equilibrium measure of a finite-gap set.

    Q holds monomial coefficients (low to high) of the monic degree-(p-1)
    polynomial in the original variable, expanded from its zeros; they are
    ill-conditioned at large p.  robin = -log capacity.  The object holds no
    quadrature rule, so results that keep it stay small; density uses the
    set's cached core.
    """

    E: FiniteGapSet
    Q: tuple[float, ...]
    capacity: float
    robin: float
    _band_masses: tuple[float, ...] = field(repr=False, compare=False)

    def density(self, t):
        core = _core(self.E)
        return core.density_hat(core.to_hat(np.asarray(t, dtype=float))) / core.half

    def band_masses(self) -> np.ndarray:
        return np.array(self._band_masses)


@lru_cache(maxsize=64)
def equilibrium(E: FiniteGapSet) -> EquilibriumData:
    core = _core(E)
    return EquilibriumData(
        E=E,
        Q=tuple(float(c) for c in P.polyfromroots(core.from_hat(core.z))),
        capacity=core.capacity,
        robin=-math.log(core.capacity),
        _band_masses=tuple(float(m) for m in core.weights.reshape(core.p, -1).sum(axis=1)),
    )


# -- Green functions ---------------------------------------------------------


@dataclass(frozen=True)
class CriticalPoint:
    """Critical point of a Green function inside one gap of the base set."""

    gap: Gap
    location: float  # may be +-inf when the critical point sits at infinity
    value: float


@dataclass(frozen=True)
class GreenEvaluator:
    """Green function g_E(., pole) of the complement of a finite-gap set."""

    E: FiniteGapSet
    pole: float
    critical_points: tuple[CriticalPoint, ...]
    pw_sum: float

    def __call__(self, z):
        """g at a point (returns a float) or elementwise over an array.

        Points with zero imaginary part take real arithmetic whatever the
        array's dtype, so a value does not depend on how it was passed.
        """
        arr = np.asarray(z)
        flat = arr.ravel()
        core = _core_at(self.E, self.pole)
        if np.iscomplexobj(flat):
            real = flat.imag == 0
            out = np.empty(flat.shape)
            out[real] = self._eval(core, flat.real[real])
            out[~real] = self._eval(core, flat[~real])
        else:
            out = self._eval(core, flat.astype(float))
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    def _eval(self, core, pts):
        """g at a 1-d array of points, all real or all off the real axis."""
        infinite = np.isinf(pts)
        with np.errstate(divide="ignore", invalid="ignore"):
            if math.isinf(self.pole):
                g = core.g_hat(core.to_hat(pts))
                g[infinite] = math.inf
            else:
                s = 1.0 / (pts - self.pole)
                s[infinite] = 0.0
                g = core.g_hat(core.to_hat(s))
                g[pts == self.pole] = math.inf
        g[np.isnan(pts)] = math.nan
        return g


@lru_cache(maxsize=128)
def green(E: FiniteGapSet, pole: float = math.inf) -> GreenEvaluator:
    """Green function with pole at infinity or at a finite real point off E.

    This is the only Green path: complex points go through the same edge
    integral, and a complex pole is handled by symmetry in green_cross.
    """
    pole = float(pole)
    if math.isnan(pole):
        raise ValueError("pole must be a real number or +-inf")
    if not math.isinf(pole) and E.contains(pole):
        raise PoleOnSetError(f"pole {pole} lies on the set")
    core = _core_at(E, pole)
    crits = []
    for k, (zhat, gval) in enumerate(zip(core.z, core.z_green)):
        if math.isinf(pole):
            gap, loc = E.gaps()[k], core.from_hat(zhat)
        else:
            s = core.from_hat(zhat)
            loc = math.inf if abs(s) < 1e-14 / max(E.diameter, 1.0) else pole + 1.0 / s
            gap = E.locate(loc)
        crits.append(CriticalPoint(gap, float(loc), float(gval)))
    return GreenEvaluator(E, pole, tuple(crits), sum(c.value for c in crits))


def _split_point(z):
    """Return (value, kind) with kind in {'inf', 'real', 'complex'}."""
    if isinstance(z, complex) and z.imag != 0.0:
        if math.isnan(z.imag) or math.isnan(z.real):
            raise ValueError("nan argument")
        return z, "complex"
    x = z.real if isinstance(z, complex) else float(z)
    if math.isnan(x):
        raise ValueError("nan argument")
    if math.isinf(x):
        return math.inf, "inf"
    return x, "real"


def green_cross(E: FiniteGapSet, z, pole) -> float:
    """g_E(z, pole) for mixed real/complex arguments, at least one of them real
    or infinite; a complex pole is evaluated by symmetry, g(z, c) = g(c, z)."""
    zv, zk = _split_point(z)
    pv, pk = _split_point(pole)
    if zk == "complex" and pk == "complex":
        raise BothComplexError("at least one of z, pole must be real or infinite")
    if pk != "complex" and E.contains(pv):
        raise PoleOnSetError(f"pole {pv} lies on the set")
    if zk != "complex" and E.contains(zv):
        return 0.0
    if zv == pv:
        return math.inf
    if pk == "complex":
        zv, pv = pv, zv
    return green(E, pv)(zv)


# -- harmonic measure --------------------------------------------------------


@dataclass(frozen=True)
class HarmonicMeasure:
    """Harmonic measure omega_E(., base) for base infinity or real off E."""

    E: FiniteGapSet
    base: float

    @property
    def _finite(self) -> bool:
        return not math.isinf(self.base)

    def nodes_weights(self):
        """Quadrature rule on E integrating smooth f against the measure."""
        core = _core_at(self.E, self.base)
        return self._pull(core, core.nodes), core.weights.copy()

    def density(self, t):
        t = np.asarray(t, dtype=float)
        core = _core_at(self.E, self.base)
        if not self._finite:
            return core.density_hat(core.to_hat(t)) / core.half
        s = 1.0 / (t - self.base)
        rho_s = core.density_hat(core.to_hat(s)) / core.half
        return rho_s / (t - self.base) ** 2

    def mass(self, lo: float, hi: float) -> float:
        if hi < lo:
            lo, hi = hi, lo
        core = _core_at(self.E, self.base)
        if not self._finite:
            return core.mass_hat(core.to_hat(lo), core.to_hat(hi))
        total = 0.0
        for a, b in self.E.bands:
            c, d = max(lo, a), min(hi, b)
            if d <= c:
                continue
            u, v = 1.0 / (d - self.base), 1.0 / (c - self.base)
            lo_s, hi_s = min(u, v), max(u, v)
            total += core.mass_hat(core.to_hat(lo_s), core.to_hat(hi_s))
        return total

    def _pull(self, core, tau):
        s = core.from_hat(tau)
        return self.base + 1.0 / s if self._finite else s

    def log_integral_once(self, w: Weight, floor: float) -> float:
        """int max(log w, -floor) d(omega) by adaptive quadrature in theta per
        band, with the weight's kinks and log-singularities as breakpoints.

        Only weights without a closed-form log (sampled, callable) need this.
        """
        core = _core_at(self.E, self.base)
        sings = w.kinks(self.E)
        total = 0.0
        for j, (a, b) in enumerate(core.ends.reshape(-1, 2)):
            m, r = 0.5 * (a + b), 0.5 * (b - a)
            # t within a few ulps of a band end rounds onto it, where a weight
            # that vanishes at the end reads 0: w is sampled strictly inside
            lo_t, hi_t = sorted(float(self._pull(core, e)) for e in (a, b))
            pad = 4.0 * np.spacing(max(abs(lo_t), abs(hi_t)))

            def integrand(theta):
                tau = m - r * np.cos(theta)
                t = np.clip(self._pull(core, tau), lo_t + pad, hi_t - pad)
                with np.errstate(divide="ignore"):
                    lw = np.maximum(np.log(np.asarray(w(t), dtype=float)), -floor)
                s = core._sqrt_excl(tau, skip=(2 * j, 2 * j + 1))
                return lw * core.q_abs(tau) / (np.pi * s)

            points = []
            for ts in sings:
                if self._finite:
                    if ts == self.base:
                        continue
                    s_img = 1.0 / (ts - self.base)
                    tau_s = core.to_hat(s_img)
                else:
                    tau_s = core.to_hat(ts)
                if a < tau_s < b:
                    arg = min(1.0, max(-1.0, (m - tau_s) / r))
                    points.append(math.acos(arg))
            total += _adaptive(integrand, [0.0, *sorted(points), np.pi])
        return total


@lru_cache(maxsize=128)
def harmonic_measure(E: FiniteGapSet, base: float = math.inf) -> HarmonicMeasure:
    base = float(base)
    if math.isnan(base):
        raise ValueError("base must be a real number or +-inf")
    if not math.isinf(base) and E.contains(base):
        raise PoleOnSetError(f"base {base} lies on the set")
    _core_at(E, base)  # build the core now, so that errors surface here
    return HarmonicMeasure(E, base)


# -- Szego factors ------------------------------------------------------------


@dataclass(frozen=True)
class SzegoIntegral:
    """Result of int log w d omega with divergence detection.

    The integral is computed with the integrand floored at -F for
    F = 1e6, 1e9, 1e12; a strictly decreasing sequence marks divergence
    to -inf (the floored value keeps dropping as the floor recedes).
    """

    value: float
    divergent: bool
    floor_values: tuple[float, ...]

    @property
    def factor(self) -> float:
        """exp(value); zero when the integral diverges."""
        if self.divergent:
            return 0.0
        return math.exp(self.value) if self.value > -745.0 else 0.0


def _log_moment(E: FiniteGapSet, c: complex, x_star: float) -> float:
    """int log|t - c| d omega_E(t, x*) from Green values (Frostman's identity):

        log cap E + g_E(c, inf)                         for x* = inf,
        log|x* - c| + g_E(x*, c) - g_E(x*, inf)         for finite x*,

    with g = 0 for c on E and, for c = x*, log|x* - c| + g_E(x*, c) replaced
    by its limit, the Robin constant -log cap(1/(E - x*)) of the pole.
    """
    diam = E.diameter
    on_set = abs(c.imag) <= 1e-14 * diam and E.contains(c.real)
    if math.isinf(x_star):
        return math.log(equilibrium(E).capacity) + (0.0 if on_set else green(E)(c))
    g_star = green(E)(x_star)
    if abs(c - x_star) <= 1e-12 * diam:
        return -math.log(equilibrium(_inverted_set(E, x_star)).capacity) - g_star
    # symmetry: g_E(x*, c) = g_E(c, x*) uses the Green function of the pole x*
    return math.log(abs(x_star - c)) + (0.0 if on_set else green(E, x_star)(c)) - g_star


def szego_integral(E: FiniteGapSet, w: Weight, x_star: float = math.inf) -> SzegoIntegral:
    """int log w d omega_E(., x*): a closed form in Green values when
    log w = log lead + sum e_j log|x - c_j| on E, else adaptive quadrature."""
    form = w.log_factors(E)
    if form is None:
        return _szego_quadrature(E, w, x_star)
    x_star = float(x_star)
    if math.isnan(x_star):
        raise ValueError("base must be a real number or +-inf")
    if E.contains(x_star):
        raise PoleOnSetError(f"base {x_star} lies on the set")
    lead, terms = form
    val = math.log(lead) + sum(e * _log_moment(E, complex(c), x_star) for c, e in terms)
    return SzegoIntegral(val, False, (val,))


def _szego_quadrature(E: FiniteGapSet, w: Weight, x_star: float) -> SzegoIntegral:
    meas = harmonic_measure(E, x_star)
    t, ww = meas.nodes_weights()
    wt = np.asarray(w(t), dtype=float)
    wmin = float(wt.min(initial=math.inf))
    if wmin > 0 and math.log(wmin) > -1e5 and not w.log_singularities(E):
        val = meas.log_integral_once(w, 1e6)
        return SzegoIntegral(val, False, (val,))
    floors = (1e6, 1e9, 1e12)
    vals = tuple(meas.log_integral_once(w, f) for f in floors)
    drops = [vals[i + 1] - vals[i] for i in range(len(vals) - 1)]
    divergent = all(d < -1e-6 * max(1.0, abs(vals[i])) for i, d in enumerate(drops))
    value = -math.inf if divergent else vals[-1]
    return SzegoIntegral(value, divergent, vals)


def szego_factor(E: FiniteGapSet, w: Weight, x_star: float = math.inf) -> float:
    """exp(int log w d omega_E(., x_star)); zero when the integral diverges."""
    return szego_integral(E, w, x_star).factor


def szego_recip_poly(E: FiniteGapSet, zeros, x_star: float = math.inf, lead: float = 1.0) -> float:
    """Szego factor of w = 1/|P_m| in closed form from Green values:

        S = exp(m g(x*, inf) - sum_j g(x*, c_j)) / |P_m(x*)|,

    extended by limits to x* = inf and to x* at a zero of P_m.
    """
    zeros = [complex(c) for c in zeros]
    for c in zeros:
        if abs(c.imag) <= 1e-14 * E.diameter and E.contains(c.real):
            raise ZeroOnSetError(f"zero {c} lies on the set")
    x_star = float(x_star)
    if E.contains(x_star):
        raise PoleOnSetError(f"normalization point {x_star} lies on the set")
    total = sum(_log_moment(E, c, x_star) for c in zeros)
    return math.exp(-math.log(abs(float(lead))) - total)


# -- conjugate-pair harmonic measure ------------------------------------------


@dataclass(frozen=True)
class PairMeasure:
    """omega_E(., c) + omega_E(., conj(c)) for a base pair off the real line.

    _M holds the coefficients of M in the basis Q/(t - z_i), Q, t Q of
    degree-p polynomials, built on the zeros z_i of the set's Q.
    """

    E: FiniteGapSet
    base: complex
    _M: tuple[float, ...]

    def _numer(self, core: _Core):
        """|M(tau)| / |tau - c|^2 in normalized coordinates."""
        ch = complex((self.base - core.center) / core.half)
        M = np.asarray(self._M)
        return lambda tau: np.abs(_pair_basis(core, tau) @ M) / np.abs(tau - ch) ** 2

    def density(self, t):
        core = _core(self.E)
        tau = core.to_hat(np.asarray(t, dtype=float))
        return core.density_hat(tau, self._numer(core)) / core.half

    def mass(self, lo: float, hi: float) -> float:
        if hi < lo:
            lo, hi = hi, lo
        core = _core(self.E)
        return core.mass_hat(core.to_hat(lo), core.to_hat(hi), self._numer(core))

    def total(self) -> float:
        lo, hi = self.E.hull
        return self.mass(lo, hi)


def _pair_basis(core: _Core, tau) -> np.ndarray:
    """Q/(tau - z_i), Q and tau Q at an array of points, along a new last axis."""
    t = tau.ravel()
    q, quo = core.q_parts(t)
    return np.vstack([quo, q, t * q]).T.reshape(tau.shape + (core.p + 1,))


@lru_cache(maxsize=64)
def conjugate_pair_measure(E: FiniteGapSet, base: complex) -> PairMeasure:
    """Construct the pair measure; `base` must have nonzero imaginary part."""
    base = complex(base)
    if base.imag == 0.0:
        raise ValueError("base must be non-real; use harmonic_measure for real bases")
    core = _core(E)
    ch = (base - core.center) / core.half
    ch = complex(ch.real, abs(ch.imag))  # the pair's member in the upper half plane

    # M of degree p: residue condition at the base pair + gap period conditions
    # of M / (|tau - c|^2 sqrt|R|); sqrt(R) takes the branch of _Core._edge
    a, b = core.ends[0::2], core.ends[1::2]
    target = -2j * ch.imag * np.prod(_sqrt_uhp((ch - a) * (ch - b)))
    at_c = _pair_basis(core, np.array(ch))
    tau, base_w = core._theta_rule(2 * np.arange(core.p - 1) + 1, core.order)
    gaps = np.einsum("knj,kn->kj", _pair_basis(core, tau), base_w / np.abs(tau - ch) ** 2)
    A = np.vstack([at_c.real, at_c.imag, gaps])
    rhs = np.zeros(core.p + 1)
    rhs[0], rhs[1] = target.real, target.imag
    M = _solve(A, rhs, "pair-measure")

    meas = PairMeasure(E, base, tuple(float(x) for x in M))
    if abs(meas.total() - 2.0) > 1e-8:
        raise IllConditionedError(
            f"pair measure mass {meas.total():.12f} deviates from 2"
        )
    return meas
