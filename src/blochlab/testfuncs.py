"""Three families of extremal test functions on the closed polydisk.

For an exponent p > 0, a coordinate axis l, and a disk parameter |w| < 1:

  family 'f': the antiderivative  integral_0^{z_l} dt / (1 - conj(w) t)^p,
  family 'g': the kernel power    (1 - |w|^2) / (1 - z_l conj(w))^p,
  family 'h': the weighted kernel (z_0 + 2) (1 - |w|^2)^{p-1} g  (l != 0).

Each member holds one `holo.ScaledKernel`, scale / (1 - conj(w) z_l)^p, and
takes its exact partials and its degree-indexed Taylor polynomial from that
kernel's.  `members` lists one axis's members in family order; the module adds
p-Bloch norm bounds uniform in w, floors (`family_norm_floor`) and a bound on
the truncation tail.  The 'g' and 'h' values are the kernel's value (times
z_0 + 2 for 'h').  The family-'f' value is computed from its power series
(adaptive truncation to relative 1e-14); the closed-form antiderivative is
reserved for the independent oracle.  The truncation test reduces over all
points, so it runs only once it may pass by a bound from |w| and rho = max
|z_l|: term j is at most c_j |w|^j rho^(j+1) / (j+1), with equality where
|z_l| = rho, and the sum of those bounds caps the partial sum.
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

_SERIES_RTOL = 1e-14
_SERIES_MAX_TERMS = 200_000

FAMILIES = ("f", "g", "h")


def _check_params(family: str, axis: int, p: float, dim: int):
    if family not in FAMILIES:
        raise ValueError(f"unknown test-function family {family!r}")
    if not p > 0:
        raise ValueError(f"exponent p must be positive, got {p}")
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
    on the closed disk in z.  The stop test is skipped while `bound` (= max|a_j|)
    exceeds `head` (>= max|total|) times 1.01 _SERIES_RTOL, 1% over for rounding.
    """
    zl = np.asarray(zl, dtype=complex)
    ratio_base = np.conj(w) * zl
    term = zl.copy()
    total = zl.copy()
    rho = float(np.max(np.abs(zl))) if zl.size else 0.0
    bound = head = rho
    for j in range(_SERIES_MAX_TERMS):
        term *= ratio_base
        term *= (p + j) / (j + 2)
        total += term
        bound *= abs(w) * rho * (p + j) / (j + 2)
        head += bound
        if bound > 1.01 * _SERIES_RTOL * max(head, 1e-30):
            continue
        tmax = float(np.max(np.abs(term))) if term.size else 0.0
        if tmax <= _SERIES_RTOL * max(float(np.max(np.abs(total))) if total.size else 0.0, 1e-30):
            break
    return total


class TestFunction(HoloFunction):
    """One member of the three extremal families, built on the kernel
    scale / (1 - conj(w) z_l)^p: 'g' is the kernel (scale 1 - |w|^2), 'h' is
    z_0 + 2 times it (scale (1 - |w|^2)^p), 'f' its antiderivative (scale 1)."""

    __test__ = False  # not a pytest collectible despite the name

    def __init__(self, family: str, axis: int, w: complex, p: float, dim: int):
        _check_params(family, axis, p, dim)
        self.family = family
        self.axis = int(axis)
        self.w = complex(w)
        self.p = float(p)
        self.dim = int(dim)
        one_minus_w2 = 1.0 - abs(self.w) ** 2
        scale = {"f": 1.0, "g": one_minus_w2, "h": one_minus_w2 ** self.p}[family]
        self.kernel = ScaledKernel(self.dim, self.axis, self.w, self.p, scale)
        if family == "h":
            self.affine = Series({(0,) * self.dim: 2.0}, self.dim).add(
                Series.coordinate(0, self.dim))

    def val(self, Z):
        Z = np.asarray(Z, dtype=complex)
        if self.family == "f":
            return _antiderivative_series(Z[..., self.axis], self.w, self.p)
        if self.family == "g":
            return self.kernel.val(Z)
        return (Z[..., 0] + 2.0) * self.kernel.val(Z)

    def partial(self, axis):
        self._check_axis(axis)
        if self.family == "g":
            return self.kernel.partial(axis)
        if self.family == "f":
            return self.kernel if axis == self.axis else Const(0.0, self.dim)
        if axis == 0:
            return self.kernel
        if axis == self.axis:
            return Product(self.affine, self.kernel.partial(axis))
        return Const(0.0, self.dim)

    def sup_bracket(self):
        """(sup, sup), the exact sup over U^n of |self|.

        Every Taylor coefficient of the kernel in conj(w) z_l is positive, so
        the sup is approached at z_l = w/|w| (and z_0 = 1 for 'h'):
        'g' (1+|w|)(1-|w|)^(1-p), 'h' 3(1+|w|)^p, and 'f' sum_j c_j |w|^j/(j+1),
        the integral of (1 - |w| t)^-p over [0, 1]: ((1-|w|)^(1-p) - 1)/(|w|(p-1)),
        -log(1-|w|)/|w| at p = 1, and 1 at w = 0."""
        aw, p = abs(self.w), self.p
        if self.family == "g":
            sup = (1.0 + aw) * (1.0 - aw) ** (1.0 - p)
        elif self.family == "h":
            sup = 3.0 * (1.0 + aw) ** p
        elif aw == 0.0:
            sup = 1.0
        elif p == 1.0:
            sup = -np.log1p(-aw) / aw
        else:
            sup = np.expm1((1.0 - p) * np.log1p(-aw)) / (aw * (p - 1.0))
        return float(sup), float(sup)

    def taylor(self, m):
        """The degree-indexed polynomial partial sum of the family's expansion.

        family 'f': sum_{j<=m} c_j conj(w)^j z_l^{j+1} / (j+1)
        family 'g': (1-|w|^2)     sum_{j<=m} c_j (conj(w) z_l)^j
        family 'h': (z_0+2) (1-|w|^2)^p sum_{j<=m} c_j (conj(w) z_l)^j
        """
        if m < 0:
            raise ValueError("truncation index must be nonnegative")
        poly = self.kernel.taylor(m)
        if self.family == "g":
            return poly
        if self.family == "h":
            return self.affine.mul(poly)
        return poly.antiderivative(self.axis)

    def __repr__(self):
        return (f"TestFunction({self.family!r}, axis={self.axis}, "
                f"w={self.w}, p={self.p}, dim={self.dim})")


def members(axis: int, w: complex, p: float, dim: int) -> list[TestFunction]:
    """The members on one axis in family order: f, g, and h off axis 0."""
    return [TestFunction(fam, axis, w, p, dim) for fam in FAMILIES if fam != "h" or axis]


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


def family_norm_floor(family: str, p: float, w: complex) -> float:
    """A lower bound on the member's p-Bloch norm: |nu(0)| plus the density at 0
    for 'f' and 'h', the larger of |g(0)| and the density at z_l = w for 'g'."""
    if family not in FAMILIES:
        raise ValueError(f"unknown test-function family {family!r}")
    aw = abs(w)
    return {"f": 1.0, "g": max(1.0 - aw ** 2, p * aw), "h": 3.0 * (1.0 - aw ** 2) ** p}[family]


def tail_bound(p: float, w: complex, m: int) -> float:
    """An upper bound on the tail sum_{j > m} t_j, t_j = c_j |w|^j with
    c_j = p(p+1)...(p+j-1)/j!: the smaller of two bounds.

    The whole series sums to (1 - |w|)^-p, so the tail is that total minus the
    head sum_{j <= m} t_j, plus a margin of (p + 2m + 8) rounding units of the
    total for the rounding of both; this one is tight near |w| = 1.  The term
    ratio (p+j)|w|/(j+1) moves monotonically toward |w|, so past t_{m+1} it
    never exceeds the larger of its value at j = m + 1 and |w|; the tail is
    then at most t_{m+1} over one minus that (infinite when it reaches 1),
    which is tight when the tail is tiny against the total.
    """
    if not p > 0:
        raise ValueError(f"exponent p must be positive, got {p}")
    if abs(w) >= 1.0:
        raise EvaluationDomainError(f"tail bound needs |w| < 1, got {abs(w)}")
    if m < 0:
        raise ValueError("truncation index must be nonnegative")
    aw = abs(w)
    terms = rising_factorial_coeffs(p, m + 2) * aw ** np.arange(m + 2)
    total = (1.0 - aw) ** -p
    by_total = total - float(np.sum(terms[:-1])) + (p + 2 * m + 8) * np.finfo(float).eps * total
    ratio = max((p + m + 1) * aw / (m + 2), aw)
    by_ratio = terms[-1] / (1.0 - ratio) if ratio < 1.0 else float("inf")
    return float(min(by_total, by_ratio))
