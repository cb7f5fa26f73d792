"""Three families of extremal test functions on the closed polydisk.

For an exponent p > 0, a coordinate axis l, and a disk parameter |w| < 1:

  family 'f': the antiderivative  integral_0^{z_l} dt / (1 - conj(w) t)^p,
  family 'g': the kernel power    (1 - |w|^2) / (1 - z_l conj(w))^p,
  family 'h': the weighted kernel (z_0 + 2) (1 - |w|^2)^{p-1} g  (l != 0).

These are the families of Madigan and Matheson (Trans. AMS 347, 1995),
carried to U^n.  Each member holds one `holo.ScaledKernel`,
scale / (1 - conj(w) z_l)^p, and takes its exact partials and its
degree-indexed Taylor polynomial from that kernel's.  `members` lists one
axis's members in family order; the module adds p-Bloch norm bounds uniform
in w (`family_norm_bound`; for 'h' only at p >= 1) and a bound on the
truncation tail.

A member depends on z_l (and z_0 for 'h') alone, so its s-Bloch density is
largest on the ray z_l = t w/|w| and its norm is a one-variable maximum over
t in [0, 1): `TestFunction.bloch_norm_bracket` gives it in closed form, exact
for 'f' and 'g' and a bracket for 'h'.

The 'g' and 'h' values are the kernel's value (times z_0 + 2 for 'h').  The
family-'f' value is the antiderivative in closed form,
-expm1((1-p) L) / ((1-p) conj(w)), and -L / conj(w) at p = 1, with
L = log(1 - conj(w) z_l) (`_antiderivative`).  It is formed in real
arithmetic elementwise, so a point gets the same bits alone as in any batch.
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


def _antiderivative(zl: np.ndarray, w: complex, p: float) -> np.ndarray:
    """integral_0^z dt / (1 - conj(w) t)^p at each z in zl, on the principal branch.

    With conj(w) z = a + ib and L = log(1 - conj(w) z), the value is
    -expm1((1-p) L) / ((1-p) conj(w)), and -L / conj(w) at p = 1; z itself at
    w = 0.  Re L is (1/2) log1p(a(a - 2) + b^2) for a <= 1/2 and
    (1/2) log((1 - a)^2 + b^2) above, where 1 - a is exact, and Im L is
    arctan2(-b, 1 - a), so L keeps its digits as conj(w) z -> 0 and as it
    nears 1.  expm1(x + iy) is expm1(x) - 2 e^x sin^2(y/2) plus
    i 2 e^x sin(y/2) cos(y/2), without cancellation as p -> 1.  Every step is
    real and elementwise, since numpy's complex products take a fused
    multiply-add on some array lengths and not on others.

    The real steps run on contiguous planes; a and b fill the two halves of
    the output's buffer until the value is written over them, and Im L is
    taken last, from 1 - a formed again, so that at most three planes live
    beside the output.  The exact factors join neighbouring multiplies,
    which changes no bit above the subnormal range: the 1/2 of Re L joins
    1 - p, and the sign of Im L, kept as arctan2(b, 1 - a), joins (1 - p)/2,
    or at p = 1 the coefficient -i k of that plane in the value
    k Re L - i k arctan2(b, 1 - a).
    """
    zl = np.asarray(zl, dtype=complex)
    if w == 0:
        return zl.copy()
    shape, zl = zl.shape, zl.reshape(-1)     # in-place steps need arrays, not scalars
    c, d = w.real, -w.imag                   # conj(w) = c + i d
    out = np.empty(zl.shape, dtype=complex)
    a, b = out.view(float).reshape(2, -1)
    tmp = np.multiply(zl.imag, d)
    np.multiply(zl.real, c, out=a)
    a -= tmp
    np.multiply(zl.real, d, out=tmp)
    np.multiply(zl.imag, c, out=b)
    b += tmp
    b2 = np.multiply(b, b, out=tmp)
    re = a - 2.0
    re *= a
    re += b2
    np.log1p(re, out=re)
    im = np.subtract(1.0, a)
    im *= im
    im += b2
    del tmp, b2                              # at most three planes beside the output
    np.putmask(re, a > 0.5, np.log(im, out=im))
    np.subtract(1.0, a, out=im)
    np.arctan2(b, im, out=im)                # -Im L
    if p == 1.0:
        re *= 0.5                            # Re L
        k = -1.0 / complex(c, d)
        turn = complex(k.imag, -k.real)      # -i k
    else:
        re *= 0.5 * (1.0 - p)                # (1-p) L = x + iy: re holds x, im y/2
        im *= -0.5 * (1.0 - p)
        np.expm1(re, out=re)
        sin = np.sin(im, out=a)
        np.cos(im, out=im)
        scratch = np.add(re, 1.0, out=b)
        scratch *= sin                       # e^x sin(y/2)
        sin *= scratch
        sin *= 2.0
        re -= sin                            # expm1(x) - 2 e^x sin^2(y/2)
        im *= scratch
        im *= 2.0                            # 2 e^x sin(y/2) cos(y/2)
        k = 1.0 / ((p - 1.0) * complex(c, d))
        turn = complex(-k.imag, k.real)      # i k
    np.multiply(re, k.imag, out=out.imag)
    np.multiply(re, k.real, out=out.real)
    out.real += np.multiply(im, turn.real, out=re)
    out.imag += np.multiply(im, turn.imag, out=im)
    return out.reshape(shape)


def _ray_max(a: float, s: float, e: float) -> float:
    """R(s, e) = max over t in [0, 1) of (1 - t^2)^s / (1 - a t)^e, 0 <= a < 1.

    The log-derivative has the sign of a(2s - e) t^2 - 2s t + e a, which is
    e a >= 0 at t = 0 and 2s(a - 1) < 0 at t = 1, so its one root in [0, 1)
    is the maximum.  Its discriminant, 4(s^2 - a^2 e (2s - e)), is at least
    4(s - e)^2, never negative; the root is taken in the form without
    cancellation, e a / (s + sqrt(...)), which divides by no leading
    coefficient, so the linear case 2s = e (or a = 0) needs no branch: it
    gives t = e a / (2s) exactly.  1 - t^2 and 1 - a t are formed as
    (1 - t)(1 + t) and (1 - a) + a (1 - t), without cancellation near 1.
    """
    t = e * a / (s + np.sqrt(s * s - a * a * e * (2.0 * s - e)))
    peak = ((1.0 - t) * (1.0 + t)) ** s / ((1.0 - a) + a * (1.0 - t)) ** e
    return float(max(1.0, peak))


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
            return _antiderivative(Z[..., self.axis], self.w, self.p)
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

    def bloch_norm_bracket(self, s: float) -> tuple[float, float]:
        """(lo, hi) around the s-Bloch norm over U^n, |nu(0)| plus the sup of
        sum_k |d_k nu| (1 - |z_k|^2)^s, in closed form.

        With a = |w|, c = (1 - a^2)^p and R(s, e) from `_ray_max`, the density
        is largest on the ray z_l = t w/a:
        'f' R(s, p) exactly, 'g' (1 - a^2)(1 + p a R(s, p + 1)) exactly, and
        'h', whose density is c (1-|z_0|^2)^s / |1 - conj(w) z_l|^p plus
        |z_0 + 2| c p a (1-|z_l|^2)^s / |1 - conj(w) z_l|^(p+1), between
        lo = 2c + max((1 + a)^p, 3c p a R(s, p + 1)), the limits of the density
        at z_0 -> 0, z_l -> w/a and at z_0 -> 1 on the ray, and
        hi = 2c + (1 + a)^p + 3c p a R(s, p + 1), each term's own sup with
        |z_0 + 2| <= 3.  hi carries a rounding allowance: a few ulps per
        exponent, over 1 - a for the ulp of |w| that the kernel's power feels.
        """
        if not s > 0:
            raise ValueError(f"exponent s must be positive, got {s}")
        a, p = abs(self.w), self.p
        if self.family == "f":
            lo = hi = _ray_max(a, s, p)
        else:
            ray = p * a * _ray_max(a, s, p + 1.0)
            if self.family == "g":
                lo = hi = (1.0 - a) * (1.0 + a) * (1.0 + ray)
            else:
                c = ((1.0 - a) * (1.0 + a)) ** p
                lo = 2.0 * c + max((1.0 + a) ** p, 3.0 * c * ray)
                hi = 2.0 * c + (1.0 + a) ** p + 3.0 * c * ray
        eps = np.finfo(float).eps
        return float(lo), float(hi * (1.0 + 4.0 * (4.0 + s + p) * eps / (1.0 - a)))

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
    """Uniform-in-w upper bound on the p-Bloch norm of the family's members.

    'f' 2^p and 'g' 1 + p 2^(p+1) hold at every p > 0.  'h' 2 + 2^p +
    3p 2^(p+1) holds only at p >= 1, so smaller p is refused: its norm grows
    like (1 - |w|)^(p-1) as |w| -> 1 (at p = 1/2 and |w| = 0.99 it exceeds 11.7,
    against 7.66)."""
    if not p > 0:
        raise ValueError(f"exponent p must be positive, got {p}")
    if family == "f":
        return 2.0 ** p
    if family == "g":
        return 1.0 + p * 2.0 ** (p + 1.0)
    if family == "h":
        if p < 1.0:
            raise ValueError(f"the weighted-kernel family has no uniform bound at p = {p} < 1")
        return 2.0 + 2.0 ** p + 3.0 * p * 2.0 ** (p + 1.0)
    raise ValueError(f"unknown test-function family {family!r}")


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
    _check_tail(p, w)
    if m < 0:
        raise ValueError("truncation index must be nonnegative")
    return _tail_bound(p, abs(w), rising_factorial_coeffs(p, m + 2))


def _check_tail(p: float, w: complex):
    if not p > 0:
        raise ValueError(f"exponent p must be positive, got {p}")
    if abs(w) >= 1.0:
        raise EvaluationDomainError(f"tail bound needs |w| < 1, got {abs(w)}")


def truncation_degree(p: float, w: complex, tol: float) -> int:
    """The first m of 1, 2, 4, ... with tail_bound(p, w, m) <= tol.

    The coefficients come from one array that the recurrence of
    `rising_factorial_coeffs` extends as m doubles, so every bound is the
    one `tail_bound` gives at that m.
    """
    _check_tail(p, w)
    m, coeffs = 1, rising_factorial_coeffs(p, 3)
    while _tail_bound(p, abs(w), coeffs) > tol:
        m *= 2
        coeffs = rising_factorial_coeffs(p, m + 2, head=coeffs)
    return m


def _tail_bound(p: float, aw: float, coeffs: np.ndarray) -> float:
    """`tail_bound` at |w| = aw and m = len(coeffs) - 2 from the coefficients
    c_0..c_{m+1}, coeffs."""
    m = coeffs.size - 2
    terms = coeffs * aw ** np.arange(m + 2)
    total = (1.0 - aw) ** -p
    by_total = total - float(np.sum(terms[:-1])) + (p + 2 * m + 8) * np.finfo(float).eps * total
    ratio = max((p + m + 1) * aw / (m + 2), aw)
    by_ratio = terms[-1] / (1.0 - ratio) if ratio < 1.0 else float("inf")
    return float(min(by_total, by_ratio))
