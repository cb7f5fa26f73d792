"""Geometry of the open unit polydisk U^n in C^n.

Points, directions, the product Bergman metric, distance to the boundary,
and the coordinate-interpolation points used when telescoping a difference
f(z) - f(w) one coordinate at a time.  Also the one [re, im] JSON
codec for complex values and the one coercion of points to coordinate arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Absolute tolerance for all geometric comparisons unless stated otherwise.
EPS_MACH = 1e-12


class DimensionMismatchError(ValueError):
    pass


class DomainError(ValueError):
    """A coordinate lies outside the (closed) unit polydisk."""


def complex_pair(c) -> list:
    """A complex scalar as the JSON pair [re, im]."""
    return [float(c.real), float(c.imag)]


def complex_pairs(values) -> list:
    """Complex values, flattened, as a JSON list of [re, im] pairs."""
    return [complex_pair(c) for c in np.ravel(values)]


def _as_complex_vector(coords) -> np.ndarray:
    v = np.asarray(coords, dtype=complex)
    if v.ndim != 1 or v.size < 1:
        raise DimensionMismatchError(f"expected a nonempty coordinate vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class PolydiskPoint:
    """A point of the closed unit polydisk; `interior` demands |z_k| < 1 for all k."""

    coords: np.ndarray
    interior: bool = True

    def __init__(self, coords, interior: bool = True):
        v = _as_complex_vector(coords)
        mods = np.abs(v)
        # phrased as "not all inside" so that NaN coordinates are rejected too
        if interior:
            if not np.all(mods < 1.0):
                raise DomainError(f"point is not strictly interior: max |z_k| = {mods.max()}")
        else:
            if not np.all(mods <= 1.0 + EPS_MACH):
                raise DomainError(f"point is outside the closed polydisk: max |z_k| = {mods.max()}")
        object.__setattr__(self, "coords", v)
        object.__setattr__(self, "interior", interior)
        self.coords.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.coords.size

    @classmethod
    def closed(cls, coords) -> "PolydiskPoint":
        return cls(coords, interior=False)

    def __eq__(self, other) -> bool:
        return isinstance(other, PolydiskPoint) and np.array_equal(self.coords, other.coords)

    def __hash__(self):
        # hashes Python complex values, so that 0.0 and -0.0 (equal under
        # __eq__) hash alike, which raw bytes would not
        return hash(tuple(self.coords.tolist()))


def as_coords(z) -> np.ndarray:
    """The coordinates of a PolydiskPoint, or z itself as a complex array."""
    if isinstance(z, PolydiskPoint):
        return z.coords
    return np.asarray(z, dtype=complex)


@dataclass(frozen=True)
class Direction:
    """A tangent vector u in C^n; zero is allowed."""

    components: np.ndarray

    def __init__(self, components):
        v = _as_complex_vector(components)
        object.__setattr__(self, "components", v)
        self.components.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.components.size


def _check_same_dim(a, b):
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")


def bergman_metric(z: PolydiskPoint, u: Direction) -> float:
    """Product Bergman metric H(z, u) = sum_k |u_k|^2 / (1 - |z_k|^2)^2.

    Requires z strictly interior; vanishes exactly when u = 0.
    """
    _check_same_dim(z, u)
    mods = np.abs(z.coords)
    if np.any(mods >= 1.0):
        raise DomainError("Bergman metric requires a strictly interior point")
    weights = one_minus_sq(mods) ** 2
    return float(np.sum(np.abs(u.components) ** 2 / weights))


def one_minus_sq(mods: np.ndarray) -> np.ndarray:
    """(1 - m)(1 + m) for m = |z_k|; factored form keeps precision as m -> 1."""
    return (1.0 - mods) * (1.0 + mods)


def boundary_distance(z: PolydiskPoint) -> float:
    """Distance from z to the boundary of U^n: min_k (1 - |z_k|).

    For the polydisk the Euclidean distance to the boundary of an interior
    point is attained by pushing the closest coordinate radially, so this
    coordinatewise formula is exact.
    """
    return float(np.min(1.0 - np.abs(z.coords)))


def segment_point(z: PolydiskPoint, w: PolydiskPoint, j: int) -> PolydiskPoint:
    """The mixed point with the first n-j coordinates from z and the last j from w.

    j = 0 gives z, j = n gives w.
    """
    _check_same_dim(z, w)
    n = z.dim
    if not 0 <= j <= n:
        raise ValueError(f"j must lie in [0, {n}], got {j}")
    coords = np.concatenate([z.coords[: n - j], w.coords[n - j:]])
    return PolydiskPoint(coords, interior=z.interior and w.interior)

