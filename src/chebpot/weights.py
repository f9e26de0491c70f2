"""Weight functions for sup-norm extremal problems on finite-gap sets.

All weights are nonnegative and upper semi-continuous by construction.
Structured variants expose their zeros and poles as log factors, which the
potential layer turns into closed-form Szego integrals; every weight names
its kinks on a set, which quadrature and the Remez extremum search take as
breakpoints and candidates.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P

from .realset import FiniteGapSet


def _real_zeros_on(E: FiniteGapSet, zeros, tol: float = 0.0):
    out = []
    for z in zeros:
        z = complex(z)
        if abs(z.imag) <= 1e-12 * max(1.0, E.diameter) and E.contains(z.real, tol):
            out.append(z.real)
    return tuple(out)


class Weight:
    """Base weight; subclasses evaluate pointwise and describe structure."""

    is_unit = False

    def __call__(self, x):
        raise NotImplementedError

    def recip_data(self):
        """(m, zeros, lead) when w = 1/|P_m|, else None.  Unit weight is m = 0."""
        return None

    def log_singularities(self, E: FiniteGapSet):
        """Points of E where log w diverges to -inf (quadrature breakpoints)."""
        return ()

    def kinks(self, E: FiniteGapSet):
        """Points of E where w is not smooth: breakpoints of adaptive quadrature."""
        return self.log_singularities(E)

    def log_factors(self, E: FiniteGapSet):
        """(lead, ((c_j, e_j), ...)) with log w = log lead + sum e_j log|x - c_j|
        on E, or None when w has no such form there."""
        return None

    def tail_lower_qualified(self, E: FiniteGapSet) -> bool:
        """True when w >= |P| on E for some nonzero polynomial P."""
        return False

    def scaled(self, lam: float) -> "Weight":
        if lam <= 0:
            raise ValueError("scale must be positive")
        return ProductWeight((AbsPolyWeight([lam]), self))


class UnitWeight(Weight):
    is_unit = True

    def __call__(self, x):
        return np.ones_like(np.asarray(x, dtype=float))

    def recip_data(self):
        return (0, (), 1.0)

    def log_factors(self, E):
        return (1.0, ())

    def tail_lower_qualified(self, E):
        return True

    def scaled(self, lam):
        if lam <= 0:
            raise ValueError("scale must be positive")
        return AbsPolyWeight([lam])


class AbsPolyWeight(Weight):
    """w(x) = |A(x)| for a real polynomial A given by monomial coefficients."""

    def __init__(self, coeffs):
        coeffs = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
        if coeffs.size == 0:
            raise ValueError("abs_poly weight is identically zero")
        self.coeffs = coeffs

    def __call__(self, x):
        return np.abs(P.polyval(np.asarray(x, dtype=float), self.coeffs))

    @property
    def zeros(self):
        if self.coeffs.size <= 1:
            return ()
        return tuple(np.roots(self.coeffs[::-1]))

    def log_singularities(self, E):
        return _real_zeros_on(E, self.zeros, tol=1e-12 * E.diameter)

    def log_factors(self, E):
        return (abs(float(self.coeffs[-1])), tuple((c, 1.0) for c in self.zeros))

    def tail_lower_qualified(self, E):
        return True

    def scaled(self, lam):
        if lam <= 0:
            raise ValueError("scale must be positive")
        return AbsPolyWeight(self.coeffs * lam)


class RecipPolyWeight(Weight):
    """w(x) = 1/|P_m(x)| for a real polynomial P_m with zeros off the set."""

    def __init__(self, coeffs):
        coeffs = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
        if coeffs.size == 0:
            raise ValueError("recip_poly weight needs a nonzero polynomial")
        self.coeffs = coeffs
        self.degree = coeffs.size - 1
        self.lead = float(coeffs[-1])
        if self.degree == 0:
            self._zeros: tuple[complex, ...] = ()
        else:
            self._zeros = tuple(sorted(np.roots(coeffs[::-1]), key=lambda z: (z.real, z.imag)))

    def __call__(self, x):
        vals = np.abs(P.polyval(np.asarray(x, dtype=float), self.coeffs))
        with np.errstate(divide="ignore"):
            return np.where(vals > 0, 1.0 / np.where(vals > 0, vals, 1.0), np.inf)

    @property
    def zeros(self):
        return self._zeros

    def recip_data(self):
        return (self.degree, self._zeros, self.lead)

    def log_factors(self, E):
        return (1.0 / abs(self.lead), tuple((c, -1.0) for c in self._zeros))

    def tail_lower_qualified(self, E):
        return True

    def scaled(self, lam):
        if lam <= 0:
            raise ValueError("scale must be positive")
        return RecipPolyWeight(self.coeffs / lam)


class SemicircleWeight(Weight):
    """w(x) = prod_j sqrt((b_j - x)(x - a_j)), one factor per pair."""

    def __init__(self, pairs):
        self.pairs = tuple((float(a), float(b)) for a, b in pairs)
        if not self.pairs or any(a >= b for a, b in self.pairs):
            raise ValueError("semicircle weight needs nonempty pairs with a < b")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        prod = np.ones_like(x)
        for a, b in self.pairs:
            prod = prod * np.clip((b - x) * (x - a), 0.0, None)
        return np.sqrt(prod)

    def log_singularities(self, E):
        pts = [p for a, b in self.pairs for p in (a, b)]
        return tuple(p for p in pts if E.contains(p, 1e-12 * E.diameter))

    def log_factors(self, E):
        lo, hi = E.hull
        if any(a > lo or b < hi for a, b in self.pairs):
            return None  # w vanishes on part of E: left to the divergence test
        return (1.0, tuple((c, 0.5) for pair in self.pairs for c in pair))

    def tail_lower_qualified(self, E):
        # eps*(x-a)(b-x) is a polynomial minorant of each factor on [a, b]
        return True


class SampledWeight(Weight):
    """Piecewise-linear interpolant of sampled values, clipped at zero."""

    def __init__(self, grid, values):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
            raise ValueError("sampled weight needs matching 1-d grid and values")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("sampled weight grid must be strictly increasing")
        self.grid = grid
        self.values = np.clip(values, 0.0, None)

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.grid, self.values)

    def log_singularities(self, E):
        mask = self.values <= 0
        return tuple(t for t in self.grid[mask] if E.contains(t, 1e-12 * E.diameter))

    def kinks(self, E):
        return tuple(t for t in self.grid if E.contains(t, 1e-12 * E.diameter))

    def tail_lower_qualified(self, E):
        return bool(np.all(self.values > 0))


class CallableWeight(Weight):
    """Arbitrary nonnegative callable; used for weights outside the structured
    families (e.g. essential-singularity test weights)."""

    def __init__(self, fn, singularities=(), qualified=False):
        self.fn = fn
        self.singularities = tuple(float(s) for s in singularities)
        self.qualified = qualified

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip(np.asarray(self.fn(x), dtype=float), 0.0, None)

    def log_singularities(self, E):
        return tuple(s for s in self.singularities if E.contains(s, 1e-12 * E.diameter))

    def tail_lower_qualified(self, E):
        return self.qualified


class ProductWeight(Weight):
    def __init__(self, factors):
        self.factors = tuple(factors)
        if not self.factors:
            raise ValueError("product weight needs at least one factor")

    def __call__(self, x):
        out = np.ones_like(np.asarray(x, dtype=float))
        for w in self.factors:
            out = out * w(x)
        return out

    def log_singularities(self, E):
        pts: list[float] = []
        for w in self.factors:
            pts.extend(w.log_singularities(E))
        return tuple(sorted(set(pts)))

    def kinks(self, E):
        return tuple(sorted({t for w in self.factors for t in w.kinks(E)}))

    def log_factors(self, E):
        lead, terms = 1.0, ()
        for w in self.factors:
            part = w.log_factors(E)
            if part is None:
                return None
            lead, terms = lead * part[0], terms + part[1]
        return (lead, terms)

    def tail_lower_qualified(self, E):
        return all(w.tail_lower_qualified(E) for w in self.factors)


def exp_inv_abs_weight(center: float, scale: float = 1.0) -> CallableWeight:
    """w(x) = exp(-scale/|x - center|): continuous, vanishing to all orders.

    The canonical example of a weight outside the Szego class.
    """

    def fn(x):
        d = np.abs(x - center)
        with np.errstate(divide="ignore"):
            return np.where(d > 0, np.exp(-scale / np.where(d > 0, d, 1.0)), 0.0)

    return CallableWeight(fn, singularities=(center,))
