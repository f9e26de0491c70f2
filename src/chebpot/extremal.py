"""Remez exchange for weighted minimax polynomials on finite-gap sets.

Solves min ||w P|| over polynomials of degree at most n normalized at a
point x*: monic of degree n when x* is infinite, P(x*) = 1 when x* is
finite.  The optimum is characterized by n+1 alternation points with the
sign pattern sigma_j = (-1)^(k*-j) sgn(x* - x_j), where k* indexes the
consecutive pair straddling x* (cyclically, with sgn(inf - x) = 1).

The solver works on the flipped error f(x) = sgn(x* - x) w(x) P(x),
whose optimal values alternate strictly; each iteration solves the
linear system f(x_j) = (-1)^j h and re-selects extrema.  One search
serves every weight: the candidates are the band ends, the weight's
kinks on E, and each strict local maximum of |f| on a cosine grid,
polished inside its two grid cells by a parabolic step and two Newton
steps on central differences, so the converged norm does not depend on
the grid.  The grid only brackets the maxima, so by default it is sized
by the degree, max(256, 8(n+1)) nodes per band, and everything that
depends on it alone is computed once per solve.  One normalization
functional on the Chebyshev coefficients, P(x*) or the leading
coefficient for x* = inf, borders the linear system and rescales
solutions between points of one gap; a normalization point in the
unbounded gap reduces to the monic problem that way, which is exact by
the gap-continuity of the extremal polynomials.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import chebyshev as C

from .errors import (
    DifferentGapError,
    IllConditionedError,
    NoConvergenceError,
    PoleOnSetError,
    WeightDegenerateError,
    ZeroAtPointError,
)
from .potential import equilibrium
from .realset import FiniteGapSet, sample_grid
from .weights import Weight

_DEGENERATE_LEAD = 1e-10
_MAX_ITER = 80
_NEWTON_STEPS = 2  # polishing steps per grid maximum
_AUDIT_GRID = 4096  # cosine nodes per band for verify_alternation
_AUDIT_TOL = 1e-8
_ROOT_STEPS = 64  # cap on bracket doublings and on Halley steps in bracketed_roots
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class RemezOptions:
    tol: float = 1e-11  # relative equioscillation defect
    # cosine nodes per band bracketing the maxima of |f|; None sizes it by
    # the degree, max(256, 8(n+1)): 8 nodes per half-oscillation or more
    grid: int | None = None

    def __post_init__(self):
        tol, grid = self.tol, self.grid
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 < tol < 1.0:
            raise ValueError(f"tol: expected a number with 0 < tol < 1, got {tol!r}")
        if grid is not None and (isinstance(grid, bool) or not isinstance(grid, int) or grid < 64):
            raise ValueError(f"grid: expected None or an integer >= 64, got {grid!r}")


@dataclass(frozen=True)
class ExtremalPoly:
    """Weighted minimax polynomial with its alternation certificate.

    cheb_coeffs are Chebyshev coefficients in y = (x - center)/half with
    (center, half) the hull map of E.  k_star is the 1-based index of the
    alternation pair straddling the normalization point.
    """

    E: FiniteGapSet
    n: int
    x_star: float
    center: float
    half: float
    cheb_coeffs: tuple[float, ...]
    t: float
    alternation: tuple[float, ...]
    signs: tuple[int, ...]
    k_star: int
    defect: float
    degree: int

    def __call__(self, x):
        y = (np.asarray(x) - self.center) / self.half
        val = C.chebval(y, np.asarray(self.cheb_coeffs))
        return float(val) if np.isscalar(x) else val

    def derivatives(self):
        """A function of real or complex x returning P, P' and P''."""
        c = np.append(self.cheb_coeffs, [0.0, 0.0])
        cols = np.stack([c[:-2], C.chebder(c, 1, 1 / self.half)[:-1], C.chebder(c, 2, 1 / self.half)], axis=1)
        return lambda x: C.chebval((np.asarray(x) - self.center) / self.half, cols)

    def zeros(self) -> np.ndarray:
        """The real zeros of P, sorted: one per sign change of P along the
        alternation set extended by -inf and +inf, which is where the
        alternation theorem puts every real zero."""
        if self.degree == 0:
            return np.empty(0)
        lead = math.copysign(1.0, self.cheb_coeffs[self.degree])
        s = np.concatenate([[lead * (-1) ** self.degree], self.signs, [lead]])
        ends = np.concatenate([[-math.inf], self.alternation, [math.inf]])
        k = np.flatnonzero(s[:-1] != s[1:])
        # started halfway in arccos of the hull coordinate: exact for Chebyshev polynomials
        theta = np.arccos(np.clip((ends - self.center) / self.half, -1.0, 1.0))
        x0 = self.center + self.half * np.cos(0.5 * (theta[k] + theta[k + 1]))
        return bracketed_roots(self.derivatives(), ends[k], ends[k + 1], s[k + 1] > 0, x0, self.half)

    def leading_coefficient(self) -> float:
        if len(self.cheb_coeffs) != self.n + 1:
            return 0.0
        return float(_norm_row(math.inf, self.center, self.half, self.n) @ self.cheb_coeffs)


@dataclass(frozen=True)
class AlternationReport:
    t: float
    audit_max: float
    audit_excess: float  # (audit_max - t)/t
    sign_residuals: tuple[float, ...]
    pattern_ok: bool
    passed: bool


def _norm_row(x_star: float, center: float, half: float, n: int) -> np.ndarray:
    """The normalization functional on Chebyshev coefficients c_0..c_n in
    y = (x - center)/half: P(x*) for finite x*, the leading monomial
    coefficient of P in x for infinite x*."""
    if math.isinf(x_star):
        row = np.zeros(n + 1)
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            row[n] = np.float64(2.0) ** max(n - 1, 0) / np.float64(half) ** n
        if not 0.0 < row[n] < math.inf:
            raise IllConditionedError(
                f"monic normalization 2^(n-1)/half^n at n = {n}, hull half-width {half:.6g}, "
                "is not a finite nonzero float64 (largest 1.8e308, smallest 4.9e-324)"
            )
        return row
    return C.chebvander(np.array([(x_star - center) / half]), n)[0]


@np.errstate(divide="ignore", invalid="ignore")  # such steps bisect instead
def bracketed_roots(fd, lo, hi, rising, x0=None, scale=1.0) -> np.ndarray:
    """One root of f in each bracket (lo_k, hi_k), all brackets at once.

    fd(x) returns f, f' and f'' at an array of points; f changes sign across
    each bracket, rising from lo_k to hi_k where rising_k holds.  An
    infinite end moves in from the finite end by steps of scale_k, doubled
    until f changes sign.  Halley's iteration starts at x0_k (else at the
    midpoint) and shrinks the bracket; a step leaving it bisects instead,
    so f is never evaluated at an end.  A root is done once its step, or
    the next one predicted from the last two, is a few ulp of
    |x| + scale_k, or once steps below 1e-8 of it stop shrinking.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    rising, scale = np.full(lo.shape, rising), np.full(lo.shape, scale, dtype=float)
    reach = scale.copy()
    for _ in range(_ROOT_STEPS):
        k = np.flatnonzero(~np.isfinite(lo + hi))
        if not k.size:
            break
        trial = np.where(np.isinf(hi[k]), lo[k] + reach[k], hi[k] - reach[k])
        up = (fd(trial)[0] > 0) == rising[k]
        hi[k], lo[k] = np.where(up, trial, hi[k]), np.where(up, lo[k], trial)
        reach[k] *= 2.0
    else:
        raise NoConvergenceError(f"no sign change within {_ROOT_STEPS} doublings of a bracket")
    mid = 0.5 * (lo + hi)
    x = mid if x0 is None else np.where((x0 > lo) & (x0 < hi), x0, mid)
    last, live = np.full(x.size, math.inf), np.ones(x.size, dtype=bool)
    for _ in range(_ROOT_STEPS):
        f, d1, d2 = fd(x)
        newton = f / d1
        step = newton / (1.0 - 0.5 * newton * d2 / d1)
        up = (f > 0) == rising
        lo, hi = np.where(up, lo, x), np.where(up, x, hi)
        new, moved, ref = x - step, np.abs(step), np.abs(x) + scale
        tol = 4 * _EPS * ref
        done = (moved <= tol) | ((last <= 1e-3 * ref) & (moved**3 <= tol * last**2))
        done |= (moved >= last) & (last <= 1e-8 * ref)
        inside = (new > lo) & (new < hi)
        x = np.where(live, np.where(inside | done, np.minimum(np.maximum(new, lo), hi), 0.5 * (lo + hi)), x)
        last, live = moved, live & ~done
        if not live.any():
            break
    return x


def _sign_factor(x, x_star: float):
    if math.isinf(x_star):
        return np.ones_like(np.asarray(x, dtype=float))
    return np.sign(x_star - np.asarray(x, dtype=float))


def _pattern_signs(points, x_star: float, k_star: int) -> np.ndarray:
    j = np.arange(1, len(points) + 1)
    s = np.ones(len(points)) if math.isinf(x_star) else np.sign(x_star - np.asarray(points))
    return ((-1.0) ** (k_star - j)) * s


def _k_star_of(points, x_star: float) -> int:
    if math.isinf(x_star):
        return len(points)
    pts = np.asarray(points)
    inside = np.nonzero((pts[:-1] < x_star) & (x_star < pts[1:]))[0]
    if inside.size:
        return int(inside[0]) + 1
    return len(points)  # x* in the wrap-around pair through infinity


class _Workspace:
    def __init__(self, E: FiniteGapSet, w: Weight, x_star: float, n: int, opts: RemezOptions):
        self.E, self.w, self.x_star, self.n, self.opts = E, w, x_star, n, opts
        lo, hi = E.hull
        self.center, self.half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        per_band = opts.grid if opts.grid is not None else max(256, 8 * (n + 1))
        self.grid = sample_grid(E, per_band)
        self.wg = np.asarray(w(self.grid), dtype=float)
        if not np.any(self.wg > 0):
            raise WeightDegenerateError("weight vanishes on the whole grid")
        # everything the extremum search needs of the grid, once per solve
        self.y_g = (self.grid - self.center) / self.half
        self.sw_g = _sign_factor(self.grid, x_star) * self.wg
        # interior nodes whose bracket stays inside one band; band ends are candidates anyway
        pos = np.arange(1, self.grid.size - 1) % per_band
        self.inner = (pos != 0) & (pos != per_band - 1)
        self.norm = _norm_row(x_star, self.center, self.half, n)
        # candidates in every iteration: band ends and the weight's kinks on E
        ends = [e for ab in E.bands for e in ab]
        self.fixed = np.asarray(ends + [t for t in w.kinks(E) if E.contains(t)], dtype=float)

    # -- linear solve on a reference ------------------------------------

    def solve_system(self, ref: np.ndarray):
        """f(x_j) = (-1)^j h on the reference, bordered by the normalization."""
        n = self.n
        wr = np.asarray(self.w(ref), dtype=float) * _sign_factor(ref, self.x_star)
        A = np.zeros((n + 2, n + 2))
        A[: n + 1, : n + 1] = wr[:, None] * C.chebvander((ref - self.center) / self.half, n)
        A[: n + 1, n + 1] = -((-1.0) ** np.arange(n + 1))
        A[n + 1, : n + 1] = self.norm
        b = np.zeros(n + 2)
        b[n + 1] = 1.0
        scale = np.max(np.abs(A), axis=1)
        scale[scale == 0] = 1.0
        A /= scale[:, None]
        b = b / scale
        try:
            sol = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(A, b, rcond=None)
        return sol[: n + 1], sol[n + 1]

    # -- candidate extrema of |f| ----------------------------------------

    def f_of(self, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
        y = (np.asarray(x, dtype=float) - self.center) / self.half
        return (
            _sign_factor(x, self.x_star)
            * np.asarray(self.w(x), dtype=float)
            * C.chebval(y, coeffs)
        )

    def _grid_maxima(self, coeffs: np.ndarray) -> np.ndarray:
        """Strict local maxima of |f| on the grid, polished inside their two cells.

        The vertex of the parabola through the grid neighbours starts
        Newton steps on central differences; a Newton iterate whose |f|
        fell goes back to its best iterate and stops.  The last iterate is
        returned beside the best one where it moved.
        """
        g, af = self.grid, np.abs(self.sw_g * C.chebval(self.y_g, coeffs))
        mid = af[1:-1]
        # strict on the right: a flat stretch of |f| yields at most one node
        i = 1 + np.nonzero(self.inner & (mid >= af[:-2]) & (mid > af[2:]) & (mid > 0))[0]
        lo, best, hi = g[i - 1], g[i], g[i + 1]
        f0, fbest, f2 = af[i - 1], af[i], af[i + 1]
        num = (best - lo) ** 2 * (fbest - f2) - (best - hi) ** 2 * (fbest - f0)
        den = (best - lo) * (fbest - f2) - (best - hi) * (fbest - f0)
        x = np.clip(best - 0.5 * num / np.where(den == 0, np.inf, den), lo, hi)
        d = 1e-3 * (hi - lo)  # small against the cell, large against rounding
        live = np.ones(i.size, dtype=bool)
        for k in range(_NEWTON_STEPS):
            fp, fx, fm = np.abs(self.f_of(coeffs, np.concatenate([x + d, x, x - d]))).reshape(3, -1)
            rose = fx >= fbest
            if k:  # the vertex may fall short of the node and still steer Newton
                live &= rose
            best, fbest = np.where(live & rose, x, best), np.where(live & rose, fx, fbest)
            curv = fp - 2.0 * fx + fm
            ok = live & (curv < 0)
            step = 0.5 * d * (fp - fm) / np.where(ok, curv, -1.0)
            x = np.where(ok, np.clip(x - step, lo, hi), best)
        return np.concatenate([best, x[x != best]])

    def candidates(self, coeffs: np.ndarray):
        x = np.sort(np.concatenate([self.fixed, self._grid_maxima(coeffs)]))
        f = self.f_of(coeffs, x)
        # dedupe: keep the larger |f| among points closer than 1e-12*diam
        tol = 1e-12 * self.E.diameter
        keep_x, keep_f = [], []
        for xi, fi in zip(x, f):
            if keep_x and xi - keep_x[-1] <= tol:
                if abs(fi) > abs(keep_f[-1]):
                    keep_x[-1], keep_f[-1] = xi, fi
            else:
                keep_x.append(xi)
                keep_f.append(fi)
        return np.asarray(keep_x), np.asarray(keep_f)

    def alternating(self, x, f, prev_ref):
        """Merge same-sign runs keeping per-run maxima; ties break to spread."""
        mask = f != 0
        x, f = x[mask], f[mask]
        out_x, out_f = [], []
        for xi, fi in zip(x, f):
            if out_f and np.sign(fi) == np.sign(out_f[-1]):
                if abs(fi) > abs(out_f[-1]) * (1 + 1e-15):
                    out_x[-1], out_f[-1] = xi, fi
                elif abs(fi) >= abs(out_f[-1]) * (1 - 1e-15) and prev_ref is not None:
                    d_new = np.min(np.abs(prev_ref - xi))
                    d_old = np.min(np.abs(prev_ref - out_x[-1]))
                    if d_new > d_old:
                        out_x[-1], out_f[-1] = xi, fi
            else:
                out_x.append(xi)
                out_f.append(fi)
        return np.asarray(out_x), np.asarray(out_f)

    def select_window(self, x, f):
        m = self.n + 1
        if x.size < m:
            return None
        gmax = int(np.argmax(np.abs(f)))
        best, best_sum = None, -np.inf
        for i in range(max(0, gmax - m + 1), min(gmax, x.size - m) + 1):
            s = float(np.sum(np.abs(f[i : i + m])))
            if s > best_sum:
                best_sum, best = s, i
        return x[best : best + m]


def _initial_reference(ws: _Workspace) -> np.ndarray:
    """Equilibrium-proportional cosine points, snapped to live-weight nodes.

    A reference point where the weight is (numerically) dead pins the
    levelled error at zero and starves the exchange, so every point is
    moved to the nearest grid node carrying a workable weight value.
    """
    E, w, n = ws.E, ws.w, ws.n
    masses = equilibrium(E).band_masses()
    total = n + 1
    raw = masses * total
    counts = np.floor(raw).astype(int)
    rem = total - counts.sum()
    # rounding noise in the masses must not break ties: equal shares go to
    # the lower band index
    order = np.argsort(-np.round(raw - counts, 9), kind="stable")
    for i in range(rem):
        counts[order[i % len(order)]] += 1
    pts = []
    for (a, b), k in zip(E.bands, counts):
        if k == 0:
            continue
        m, r = 0.5 * (a + b), 0.5 * (b - a)
        if k == 1:
            pts.append(m)
        else:
            pts.extend(m - r * np.cos(np.pi * np.arange(k) / (k - 1)))
    pts = np.sort(np.asarray(pts))
    floor = 1e-6 * float(ws.wg.max())
    live = np.nonzero(ws.wg >= floor)[0]
    if live.size < total:
        raise WeightDegenerateError("too few grid nodes carry a usable weight value")
    live_x = ws.grid[live]
    taken: set[int] = set()
    snapped = []
    for x in pts:
        if w(np.array([x]))[0] >= floor and E.band_index(x, 0.0) >= 0:
            snapped.append(x)
            continue
        order_near = np.argsort(np.abs(live_x - x))
        for j in order_near:
            if j not in taken:
                taken.add(int(j))
                snapped.append(live_x[j])
                break
    snapped = np.unique(np.asarray(snapped))
    k = 0
    while snapped.size < total and k < live_x.size:
        if live_x[k] not in snapped:
            snapped = np.sort(np.append(snapped, live_x[k]))
        k += 1
    return snapped[:total] if snapped.size >= total else snapped


def _run_exchange(ws: _Workspace):
    opts = ws.opts
    ref = _initial_reference(ws)
    if ref.size != ws.n + 1:
        raise NoConvergenceError("could not build an initial reference")
    best = None
    since_improvement = 0
    for it in range(_MAX_ITER):
        coeffs, h = ws.solve_system(ref)
        x, f = ws.candidates(coeffs)
        ax, af = ws.alternating(x, f, ref)
        window = ws.select_window(ax, af)
        if window is None:
            # starved candidate supply: blend in the current reference
            merged = np.sort(np.concatenate([ax, ref]))
            fm = ws.f_of(coeffs, merged)
            ax, af = ws.alternating(merged, fm, ref)
            window = ws.select_window(ax, af)
            if window is None:
                raise NoConvergenceError(
                    f"fewer than {ws.n + 1} alternating extrema", iterations=it
                )
        M = float(np.max(np.abs(af)))
        defect = (M - abs(h)) / M if M > 0 else math.inf
        defect = max(defect, 0.0)
        if best is None or defect < 0.8 * best[0]:
            best = (defect, coeffs, window, M)
            since_improvement = 0
        else:
            since_improvement += 1
        if defect < opts.tol:
            return coeffs, window, M, defect
        if since_improvement >= 12:
            break  # stagnating at the floating-point noise floor
        ref = window
    defect, coeffs, window, M = best
    # the noise floor scales with the polynomial's growth into the gaps,
    # so tiny-norm solutions on multi-band sets cannot reach tol itself
    if defect < 1e-6:
        return coeffs, window, M, defect
    raise NoConvergenceError(
        f"Remez defect {defect:.3e} after {_MAX_ITER} iterations",
        iterations=_MAX_ITER,
    )


def _assemble(ws: _Workspace, coeffs, window, M, defect) -> ExtremalPoly:
    n, x_star = ws.n, ws.x_star
    pts = np.sort(window)
    y = (pts - ws.center) / ws.half
    e_vals = np.asarray(ws.w(pts), dtype=float) * C.chebval(y, coeffs)
    signs = np.sign(e_vals).astype(int)
    k_star = _k_star_of(pts, x_star)
    cmax = np.max(np.abs(coeffs))
    degree = n
    if n >= 1 and abs(coeffs[-1]) < _DEGENERATE_LEAD * cmax:
        coeffs = coeffs.copy()
        coeffs[-1] = 0.0
        degree = n - 1
    return ExtremalPoly(
        E=ws.E,
        n=n,
        x_star=x_star,
        center=ws.center,
        half=ws.half,
        cheb_coeffs=tuple(float(c) for c in coeffs),
        t=M,
        alternation=tuple(float(p) for p in pts),
        signs=tuple(int(s) for s in signs),
        k_star=k_star,
        defect=float(defect),
        degree=degree,
    )


def solve_extremal(
    E: FiniteGapSet, w: Weight, x_star: float, n: int, opts: RemezOptions | None = None
) -> ExtremalPoly:
    """Weighted minimax polynomial of degree <= n normalized at x_star."""
    if n < 1:
        raise ValueError("degree bound n must be >= 1")
    opts = opts or RemezOptions()
    x_star = float(x_star)
    if math.isnan(x_star):
        raise ValueError("x_star must be real or +-inf")
    if not math.isinf(x_star):
        if E.contains(x_star):
            raise PoleOnSetError(f"normalization point {x_star} lies on the set")
        if not E.locate(x_star).bounded:
            base = solve_extremal(E, w, math.inf, n, opts)
            return renormalize(base, x_star)

    ws = _Workspace(E, w, x_star, n, opts)
    sol = _assemble(ws, *_run_exchange(ws))
    expected = _pattern_signs(sol.alternation, sol.x_star, sol.k_star)
    if not np.array_equal(np.sign(expected).astype(int), np.asarray(sol.signs)):
        raise NoConvergenceError("converged solution violates the alternation pattern")
    return sol


def verify_alternation(sol: ExtremalPoly, E: FiniteGapSet, w: Weight) -> AlternationReport:
    """Audit a candidate solution against the alternation characterization."""
    grid = max(_AUDIT_GRID, 16 * (sol.n + 1))  # twice the default solve grid's density
    ws = _Workspace(E, w, sol.x_star, sol.n, RemezOptions(grid=grid))
    _, f = ws.candidates(np.asarray(sol.cheb_coeffs))
    audit_max = float(np.max(np.abs(f)))
    pts = np.asarray(sol.alternation)
    e_vals = np.asarray(w(pts), dtype=float) * sol(pts)
    expected = _pattern_signs(pts, sol.x_star, sol.k_star) * sol.t
    residuals = np.abs(e_vals - expected) / sol.t
    pattern_ok = bool(np.all(np.sign(e_vals) == np.sign(expected)))
    excess = (audit_max - sol.t) / sol.t
    passed = pattern_ok and excess <= _AUDIT_TOL and bool(np.all(residuals <= _AUDIT_TOL))
    return AlternationReport(
        t=sol.t,
        audit_max=audit_max,
        audit_excess=float(excess),
        sign_residuals=tuple(float(r) for r in residuals),
        pattern_ok=pattern_ok,
        passed=passed,
    )


def renormalize(sol: ExtremalPoly, x_new: float) -> ExtremalPoly:
    """Rescale a solution to a new normalization point in the same gap."""
    x_new = float(x_new)
    same_gap = (
        sol.E.locate(sol.x_star) if not math.isinf(sol.x_star) else sol.E.gaps()[-1]
    )
    if math.isinf(x_new):
        if same_gap.bounded:
            raise DifferentGapError("infinity is not in the gap of the current x_star")
        x_new = math.inf
    elif sol.E.contains(x_new):
        raise PoleOnSetError(f"{x_new} lies on the set")
    elif not same_gap.contains(x_new):
        raise DifferentGapError(f"{x_new} is not in the same gap as {sol.x_star}")
    if x_new == sol.x_star:
        return sol
    val = float(_norm_row(x_new, sol.center, sol.half, sol.n) @ sol.cheb_coeffs)
    if abs(val) < 1e-300:
        raise ZeroAtPointError(
            "degree dropped below n; no monic rescaling"
            if math.isinf(x_new)
            else f"polynomial vanishes at {x_new}"
        )
    return replace(
        sol,
        x_star=x_new,
        cheb_coeffs=tuple(float(c) for c in np.asarray(sol.cheb_coeffs) / val),
        t=sol.t / abs(val),
        signs=tuple(int(s * np.sign(val)) for s in sol.signs),
        k_star=_k_star_of(sol.alternation, x_new),
    )
