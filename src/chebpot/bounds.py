"""Widom factors and verification of the two-sided norm bounds.

The Widom factor of a solved extremal polynomial is

    W_n = t_n / cap(E)^n          (normalization at infinity)
    W_n = t_n exp(n g(x*, inf))   (finite normalization point)

Universal lower bound: W_n >= S, the Szego factor of the weight at the
normalization point.  For reciprocal-polynomial weights and n >= n0 the
two-sided pinch

    2 S / (1 + exp(-2 (n-m) g(x*, inf)))  <=  W_n  <  2 S exp(PW(E, x*))

holds, with PW the sum of Green values at the critical points.  For the
unweighted problem the classical doubled bounds 2 <= W_n <= 2 exp(PW(E))
apply.  Asymptotic statements are reported as tail-window statistics at
finite degree, never asserted as limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ensets import compute_n0
from .extremal import ExtremalPoly, RemezOptions, solve_extremal
from .potential import equilibrium, green, szego_integral
from .realset import FiniteGapSet
from .weights import Weight

_REL_TOL = 1e-7
_STRICT_MARGIN = 1e-12
_UB_SLACK = 1e-6
_TAIL_SLACK = 0.95


@dataclass(frozen=True, slots=True)
class WidomReport:
    """Per-degree bound check for one configuration."""

    n: int
    t: float
    W: float
    S: float
    szego_lb: float
    sharp_lb: float | None  # reciprocal weights with n >= n0 only
    ub: float | None
    lb2: float | None  # unweighted Chebyshev specials
    ub2: float | None
    pw: float
    g_star: float  # g(x*, inf); inf when x* is infinite
    pass_szego_lb: bool
    pass_sharp_lb: bool | None
    pass_ub: bool | None
    pass_lb2: bool | None
    pass_ub2: bool | None

    @property
    def all_passed(self) -> bool:
        checks = [
            self.pass_szego_lb,
            self.pass_sharp_lb,
            self.pass_ub,
            self.pass_lb2,
            self.pass_ub2,
        ]
        return all(c for c in checks if c is not None)

    def slacks(self) -> dict:
        """Signed slack of each applicable bound (positive = satisfied)."""
        out = {"szego_lb": self.W - self.szego_lb}
        if self.sharp_lb is not None:
            out["sharp_lb"] = self.W - self.sharp_lb
        if self.ub is not None:
            out["ub"] = self.ub - self.W
        if self.lb2 is not None:
            out["lb2"] = self.W - self.lb2
        if self.ub2 is not None:
            out["ub2"] = self.ub2 - self.W
        return out


@dataclass(frozen=True, slots=True)
class SweepResult:
    rows: tuple[WidomReport, ...]
    tail_ns: tuple[int, ...]
    tail_min: float
    tail_max: float
    lower_target: float | None  # 2S * 0.95 when the weight qualifies
    upper_target: float
    pass_tail_lower: bool | None
    pass_tail_upper: bool


@dataclass(frozen=True, slots=True)
class DichotomyReport:
    szego_log_integral: float  # -inf when divergent
    divergent: bool
    S: float
    pw: float
    ns: tuple[int, ...]
    widom: tuple[float, ...]
    min_W: float
    max_W: float
    bounds_ok: bool | None  # min >= S and max <= 2S e^PW (Szego class only)
    tail_strictly_decreasing: bool


def widom_factor(E: FiniteGapSet, sol: ExtremalPoly) -> float:
    """Normalized minimal norm t_n / cap^n, or t_n e^{n g(x*,inf)}."""
    if math.isinf(sol.x_star):
        return sol.t / equilibrium(E).capacity ** sol.n
    return sol.t * math.exp(sol.n * green(E, math.inf)(sol.x_star))


def _reports(E, w, x_star, ns, opts, sol=None):
    """The Szego integral and one WidomReport per degree in ns, each solved
    (or taken from `sol`) against the context shared by all degrees."""
    if not ns:
        raise ValueError("n_range is empty")
    integ = szego_integral(E, w, x_star)
    S = integ.factor
    pw = green(E, x_star).pw_sum
    g_star = math.inf if math.isinf(x_star) else green(E, math.inf)(x_star)
    rd = w.recip_data()
    n0 = compute_n0(E, w, x_star, opts) if rd is not None else None
    rows = []
    for n in ns:
        s = sol or solve_extremal(E, w, x_star, n, opts)
        rows.append(_make_report(E, w, x_star, n, s, S, pw, g_star, rd, n0))
    return integ, rows


def _make_report(E, w, x_star, n, sol, S, pw, g_star, rd, n0) -> WidomReport:
    W = widom_factor(E, sol)
    pass_szego = W >= S * (1 - _REL_TOL)
    sharp_lb = ub = None
    pass_sharp = pass_ub = None
    if rd is not None and n >= n0:
        m = rd[0]
        damp = 0.0 if math.isinf(x_star) else math.exp(-2 * (n - m) * g_star)
        sharp_lb = 2 * S / (1 + damp)
        ub = 2 * S * math.exp(pw)
        pass_sharp = W >= sharp_lb * (1 - _REL_TOL)
        if pw > 1e-10:
            # strict off a single interval, up to the solver's own defect
            # (the bound is approached geometrically on symmetric sets)
            margin = max(_STRICT_MARGIN, 4.0 * sol.defect)
            pass_ub = W <= ub * (1 - _STRICT_MARGIN) or W <= ub * (1 + margin)
        else:
            pass_ub = W <= ub * (1 + _REL_TOL)
    lb2 = ub2 = None
    pass_lb2 = pass_ub2 = None
    if w.is_unit and math.isinf(x_star):
        lb2 = 2.0
        ub2 = 2.0 * math.exp(pw)
        pass_lb2 = W >= lb2 * (1 - _REL_TOL)
        pass_ub2 = W <= ub2 * (1 + _REL_TOL)
    return WidomReport(
        n=n,
        t=sol.t,
        W=W,
        S=S,
        szego_lb=S,
        sharp_lb=sharp_lb,
        ub=ub,
        lb2=lb2,
        ub2=ub2,
        pw=pw,
        g_star=g_star,
        pass_szego_lb=pass_szego,
        pass_sharp_lb=pass_sharp,
        pass_ub=pass_ub,
        pass_lb2=pass_lb2,
        pass_ub2=pass_ub2,
    )


def bound_report(
    E: FiniteGapSet,
    w: Weight,
    x_star: float,
    n: int,
    sol: ExtremalPoly | None = None,
    opts: RemezOptions | None = None,
) -> WidomReport:
    """Evaluate every applicable bound at one degree."""
    return _reports(E, w, x_star, [n], opts, sol)[1][0]


def sweep(
    E: FiniteGapSet,
    w: Weight,
    x_star: float,
    n_range,
    opts: RemezOptions | None = None,
) -> SweepResult:
    """Per-degree reports plus tail-window statistics for the asymptotics."""
    ns = sorted(set(int(n) for n in n_range))
    rows = _reports(E, w, x_star, ns, opts)[1]
    S, pw = rows[0].S, rows[0].pw
    tail_start = ns[max(0, len(ns) - max(1, len(ns) // 3))]
    tail = [r for r in rows if r.n >= tail_start]
    tail_min = min(r.W for r in tail)
    tail_max = max(r.W for r in tail)
    qualified = w.tail_lower_qualified(E)
    lower_target = 2 * S * _TAIL_SLACK if qualified else None
    upper_target = 2 * S * math.exp(pw) * (1 + _UB_SLACK)
    return SweepResult(
        rows=tuple(rows),
        tail_ns=tuple(r.n for r in tail),
        tail_min=tail_min,
        tail_max=tail_max,
        lower_target=lower_target,
        upper_target=upper_target,
        pass_tail_lower=(tail_min >= lower_target) if lower_target is not None else None,
        pass_tail_upper=tail_max <= upper_target,
    )


def szego_dichotomy_report(
    E: FiniteGapSet,
    w: Weight,
    x_star: float,
    n_max: int,
    n_min: int = 1,
    opts: RemezOptions | None = None,
) -> DichotomyReport:
    """Szego integral vs. boundedness of the Widom factors, at desk scale.

    With a finite Szego integral the factors must stay inside
    [S, 2 S e^PW (1 + 1e-6)]; with a divergent integral no bound is
    asserted and only the observed decay of the tail is reported.
    """
    ns = list(range(n_min, n_max + 1))
    integ, rows = _reports(E, w, x_star, ns, opts)
    S, pw = rows[0].S, rows[0].pw
    widom = [r.W for r in rows]
    min_W, max_W = min(widom), max(widom)
    bounds_ok = None
    if not integ.divergent:
        bounds_ok = min_W >= S * (1 - _REL_TOL) and max_W <= 2 * S * math.exp(pw) * (
            1 + _UB_SLACK
        )
    tail_from = max(10, n_min)
    tail = [wv for n, wv in zip(ns, widom) if n >= tail_from]
    decreasing = all(b < a for a, b in zip(tail, tail[1:])) if len(tail) > 1 else False
    return DichotomyReport(
        szego_log_integral=(-math.inf if integ.divergent else integ.value),
        divergent=integ.divergent,
        S=S,
        pw=pw,
        ns=tuple(ns),
        widom=tuple(widom),
        min_W=min_W,
        max_W=max_W,
        bounds_ok=bounds_ok,
        tail_strictly_decreasing=decreasing,
    )
