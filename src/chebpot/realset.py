"""Geometry of compact finite-gap subsets of the real line.

A set is a finite union of disjoint closed intervals ("bands"); its
complement in the extended reals splits into bounded gaps and one
unbounded gap containing infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateIntervalError,
    NonFiniteEndpointError,
    OverlapError,
    PointOnSetError,
)

DEFAULT_MERGE_FACTOR = 1e-12


@dataclass(frozen=True)
class Gap:
    """Connected component of the extended-real complement of a band set.

    A bounded gap is the open interval (lo, hi).  The unbounded gap is
    the complement of the convex hull, i.e. (lo, +inf] plus [-inf, hi)
    with lo the largest and hi the smallest band endpoint.
    """

    lo: float
    hi: float
    bounded: bool

    def contains(self, x: float) -> bool:
        if math.isinf(x):
            return not self.bounded
        if self.bounded:
            return self.lo < x < self.hi
        return x > self.lo or x < self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo if self.bounded else math.inf


@dataclass(frozen=True)
class FiniteGapSet:
    """Sorted disjoint closed real intervals (a_j, b_j), j = 1..p."""

    bands: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.bands:
            raise DegenerateIntervalError("band list is empty")
        prev = -math.inf
        for a, b in self.bands:
            if not (a < b):
                raise DegenerateIntervalError(f"band ({a}, {b}) is degenerate")
            if a <= prev:
                raise OverlapError(f"band ({a}, {b}) is not strictly after {prev}")
            prev = b

    @property
    def nbands(self) -> int:
        return len(self.bands)

    @property
    def hull(self) -> tuple[float, float]:
        return (self.bands[0][0], self.bands[-1][1])

    @property
    def diameter(self) -> float:
        return self.bands[-1][1] - self.bands[0][0]

    def contains(self, x: float, tol: float = 0.0) -> bool:
        if isinstance(x, complex):
            if x.imag != 0.0:
                return False
            x = x.real
        if math.isinf(x) or math.isnan(x):
            return False
        return any(a - tol <= x <= b + tol for a, b in self.bands)

    def band_index(self, x: float, tol: float = 0.0) -> int:
        """Index of the band containing x, or -1."""
        for j, (a, b) in enumerate(self.bands):
            if a - tol <= x <= b + tol:
                return j
        return -1

    def gaps(self) -> tuple[Gap, ...]:
        out = [
            Gap(self.bands[j][1], self.bands[j + 1][0], True)
            for j in range(self.nbands - 1)
        ]
        out.append(Gap(self.bands[-1][1], self.bands[0][0], False))
        return tuple(out)

    def locate(self, x: float) -> Gap:
        """Gap containing the point x (x = +/-inf names the unbounded gap)."""
        if math.isnan(x):
            raise ValueError("cannot locate nan")
        if self.contains(x):
            raise PointOnSetError(f"{x} lies on the set")
        for gap in self.gaps():
            if gap.contains(x):
                return gap
        raise AssertionError("unreachable: point neither on set nor in a gap")


def make_set(intervals, merge_tol: float | None = None) -> FiniteGapSet:
    """Validate, sort and merge raw interval pairs into a FiniteGapSet.

    Adjacent intervals closer than the merge tolerance (default
    1e-12 * overall diameter) are fused into one band.
    """
    pairs = []
    for item in intervals:
        a, b = float(item[0]), float(item[1])
        if not (math.isfinite(a) and math.isfinite(b)):
            raise NonFiniteEndpointError(f"endpoint in ({a}, {b}) is not finite")
        if a >= b:
            raise DegenerateIntervalError(f"interval ({a}, {b}) has a >= b")
        pairs.append((a, b))
    if not pairs:
        raise DegenerateIntervalError("no intervals given")
    pairs.sort()
    diam = max(b for _, b in pairs) - min(a for a, _ in pairs)
    if merge_tol is None:
        merge_tol = DEFAULT_MERGE_FACTOR * diam
    merged = [list(pairs[0])]
    for a, b in pairs[1:]:
        if a < merged[-1][1] - merge_tol:
            raise OverlapError(
                f"interval ({a}, {b}) overlaps ({merged[-1][0]}, {merged[-1][1]})"
            )
        if a - merged[-1][1] <= merge_tol:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return FiniteGapSet(tuple((a, b) for a, b in merged))


def sample_grid(E: FiniteGapSet, points_per_band: int) -> np.ndarray:
    """Cosine-clustered nodes per band, endpoints included, globally sorted.

    Extrema of extremal polynomials accumulate at band edges, so nodes
    follow the Chebyshev distribution t = m - r*cos(k*pi/(N-1)).
    """
    if points_per_band < 2:
        raise ValueError("need at least 2 points per band")
    chunks = []
    theta = np.linspace(0.0, np.pi, points_per_band)
    ref = -np.cos(theta)  # -1 .. 1 inclusive
    for a, b in E.bands:
        m, r = 0.5 * (a + b), 0.5 * (b - a)
        nodes = m + r * ref
        nodes[0], nodes[-1] = a, b
        chunks.append(nodes)
    return np.concatenate(chunks)
