"""Three families of extremal test functions on the closed polydisk.

For an exponent p > 0, a coordinate axis l, and a disk parameter |w| < 1:

  family 'f': the antiderivative  integral_0^{z_l} dt / (1 - conj(w) t)^p,
  family 'g': the kernel power    (1 - |w|^2) / (1 - z_l conj(w))^p,
  family 'h': the weighted kernel (z_0 + 2) (1 - |w|^2)^{p-1} g  (l != 0).

Each carries exact closed-form first partials, a uniform-in-w p-Bloch norm
bound, a degree-indexed polynomial truncation, and an explicit bound on the
truncation tail.  The family-'f' value is computed from its power series
(adaptive truncation to relative 1e-14); the closed-form antiderivative is
reserved for the independent oracle.
"""

from __future__ import annotations

import numpy as np

from .holo import (
    Const,
    EvaluationDomainError,
    HoloFunction,
    Product,
    ScaledKernel,
    Series,
    rising_factorial_coeffs,
)
from .polydisk import complex_pair

_SERIES_RTOL = 1e-14
_SERIES_MAX_TERMS = 200_000

FAMILIES = ("f", "g", "h")


def _check_params(family: str, axis: int, w: complex, p: float, dim: int):
    if family not in FAMILIES:
        raise ValueError(f"unknown test-function family {family!r}")
    if not p > 0:
        raise ValueError(f"exponent p must be positive, got {p}")
    if abs(w) >= 1.0:
        raise EvaluationDomainError(f"parameter must satisfy |w| < 1, got |w| = {abs(w)}")
    if not 0 <= axis < dim:
        raise ValueError(f"axis must lie in [0, {dim - 1}], got {axis}")
    if family == "h":
        if dim < 2:
            raise ValueError("the weighted-kernel family needs dimension >= 2")
        if axis == 0:
            raise ValueError("the weighted-kernel family requires axis != 0")


def _antiderivative_series(zl: np.ndarray, w: complex, p: float) -> np.ndarray:
    """sum_j c_j conj(w)^j z^{j+1}/(j+1) with c_j = p(p+1)...(p+j-1)/j!.

    Term ratio a_{j+1}/a_j = (p+j) conj(w) z / (j+2); converges for |w| < 1
    on the closed disk in z.
    """
    zl = np.asarray(zl, dtype=complex)
    ratio_base = np.conj(w) * zl
    term = zl.copy()
    total = zl.copy()
    for j in range(_SERIES_MAX_TERMS):
        term = term * ratio_base * ((p + j) / (j + 2))
        total = total + term
        tmax = float(np.max(np.abs(term))) if term.size else 0.0
        if tmax <= _SERIES_RTOL * max(float(np.max(np.abs(total))) if total.size else 0.0, 1e-30):
            break
    return total


class TestFunction(HoloFunction):
    """One member of the three extremal families, with stored exact partials."""

    __test__ = False  # not a pytest collectible despite the name

    def __init__(self, family: str, axis: int, w: complex, p: float, dim: int):
        _check_params(family, axis, w, p, dim)
        self.family = family
        self.axis = int(axis)
        self.w = complex(w)
        self.p = float(p)
        self.dim = int(dim)
        self._stored = self._build_partials()

    def _build_partials(self) -> list:
        n, l, w, p = self.dim, self.axis, self.w, self.p
        one_minus_w2 = 1.0 - abs(w) ** 2
        parts: list[HoloFunction] = [Const(0.0, n) for _ in range(n)]
        if self.family == "f":
            parts[l] = ScaledKernel(n, l, w, p, 1.0)
        elif self.family == "g":
            parts[l] = ScaledKernel(n, l, w, p + 1.0, p * np.conj(w) * one_minus_w2)
        else:
            front = one_minus_w2 ** p
            parts[0] = ScaledKernel(n, l, w, p, front)
            affine = Series({(0,) * n: 2.0, _unit(n, 0): 1.0}, n)
            parts[l] = Product(affine, ScaledKernel(n, l, w, p + 1.0, p * np.conj(w) * front))
        return parts

    def val(self, Z):
        Z = np.asarray(Z, dtype=complex)
        zl = Z[..., self.axis]
        if self.family == "f":
            return _antiderivative_series(zl, self.w, self.p)
        den = 1.0 - zl * np.conj(self.w)
        if np.any(np.abs(den) < 1e-12):
            raise EvaluationDomainError(
                "test function evaluated too close to its kernel singularity")
        one_minus_w2 = 1.0 - abs(self.w) ** 2
        if self.family == "g":
            return one_minus_w2 * den ** (-self.p)
        return (Z[..., 0] + 2.0) * one_minus_w2 ** self.p * den ** (-self.p)

    def partial(self, axis):
        self._check_axis(axis)
        return self._stored[axis]

    def taylor(self, m):
        return truncate_test(self, m)

    def to_json(self) -> dict:
        return {"type": "testfn", "family": self.family, "l": self.axis,
                "w": complex_pair(self.w), "p": self.p}

    def __repr__(self):
        return (f"TestFunction({self.family!r}, axis={self.axis}, "
                f"w={self.w}, p={self.p}, dim={self.dim})")


def _unit(dim: int, axis: int) -> tuple:
    e = [0] * dim
    e[axis] = 1
    return tuple(e)


def make_f(axis: int, w: complex, p: float, dim: int) -> TestFunction:
    return TestFunction("f", axis, w, p, dim)


def make_g(axis: int, w: complex, p: float, dim: int) -> TestFunction:
    return TestFunction("g", axis, w, p, dim)


def make_h(axis: int, w: complex, p: float, dim: int) -> TestFunction:
    return TestFunction("h", axis, w, p, dim)


def family_norm_bound(family: str, p: float) -> float:
    """Uniform-in-w upper bound on the p-Bloch norm of the family's members."""
    if not p > 0:
        raise ValueError(f"exponent p must be positive, got {p}")
    if family == "f":
        return 2.0 ** p
    if family == "g":
        return 1.0 + p * 2.0 ** (p + 1.0)
    if family == "h":
        return 2.0 + 2.0 ** p + 3.0 * p * 2.0 ** (p + 1.0)
    raise ValueError(f"unknown test-function family {family!r}")


def truncate_test(t: TestFunction, m: int) -> Series:
    """The degree-indexed polynomial partial sum of the family's expansion.

    family 'f': sum_{j<=m} c_j conj(w)^j z_l^{j+1} / (j+1)
    family 'g': (1-|w|^2)     sum_{j<=m} c_j (conj(w) z_l)^j
    family 'h': (z_0+2) (1-|w|^2)^p sum_{j<=m} c_j (conj(w) z_l)^j
    """
    if m < 0:
        raise ValueError("truncation index must be nonnegative")
    n, l, w, p = t.dim, t.axis, t.w, t.p
    c = rising_factorial_coeffs(p, m + 1)
    wbar = np.conj(w)
    coeffs: dict = {}
    if t.family == "f":
        for j in range(m + 1):
            e = [0] * n
            e[l] = j + 1
            coeffs[tuple(e)] = c[j] * wbar ** j / (j + 1)
        return Series(coeffs, n)
    front = (1.0 - abs(w) ** 2) ** (p if t.family == "h" else 1.0)
    for j in range(m + 1):
        e = [0] * n
        e[l] = j
        coeffs[tuple(e)] = front * c[j] * wbar ** j
    base = Series(coeffs, n)
    if t.family == "g":
        return base
    affine = Series({(0,) * n: 2.0, _unit(n, 0): 1.0}, n)
    return affine.mul(base)


def tail_bound(p: float, w: complex, m: int) -> float:
    """sum_{j > m} c_j |w|^j with c_j = p(p+1)...(p+j-1)/j!, summed until the
    terms drop below 1e-16 of the running sum."""
    if not p > 0:
        raise ValueError(f"exponent p must be positive, got {p}")
    if abs(w) >= 1.0:
        raise EvaluationDomainError(f"tail bound needs |w| < 1, got {abs(w)}")
    if m < 0:
        raise ValueError("truncation index must be nonnegative")
    aw = abs(w)
    if aw == 0.0:
        return 0.0
    # walk t_{j+1} = t_j (p+j) |w| / (j+1) from t_0 = 1 up to t_{m+1}
    term = 1.0
    for j in range(m + 1):
        term *= (p + j) * aw / (j + 1)
    j = m + 1
    total = 0.0
    while term > 1e-16 * max(total, 1e-300):
        total += term
        term *= (p + j) * aw / (j + 1)
        j += 1
        if j - m > _SERIES_MAX_TERMS:
            break
    return total
