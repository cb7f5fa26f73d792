"""Holomorphic functions on U^n with exact structural derivatives.

Every representation evaluates in batch (arrays of points) and differentiates
structurally: series by the degree-shift rule, closed forms by stored
derivative formulas, composite nodes by sum/product/chain rules.  Finite
differences never appear here; they live in the independent oracle module.

Representations:
  * Series        -- finite multivariate power series (polynomials),
  * ScaledKernel  -- c / (1 - conj(w) z_axis)^e, closed under d/dz,
  * MoebiusFactor -- one-coordinate disk automorphism factor,
  * Const / Scaled / Sum / Product / Composition nodes over these.

Self-maps of U^n carry a certificate recording why they are believed to map
into the closed polydisk (coefficient test, sampling, or exact construction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polydisk import as_coords

DEGREE_CAP_DEFAULT = 64

# A kernel 1/(1 - conj(w) z)^e is evaluated only where |1 - conj(w) z| stays
# above this floor; nearer points are degenerate and get flagged.
KERNEL_SINGULARITY_FLOOR = 1e-12


class EvaluationDomainError(ValueError):
    """Evaluation requested outside the representable / stable domain."""


class TruncationUnavailableError(TypeError):
    """The representation carries no Taylor truncation of the requested kind."""


class HoloFunction:
    """Base class; subclasses implement `val` (batched) and `partial`."""

    dim: int

    def val(self, Z: np.ndarray) -> np.ndarray:
        """Evaluate at Z of shape (..., dim); returns shape (...)."""
        raise NotImplementedError

    def partial(self, axis: int) -> "HoloFunction":
        """Exact partial derivative d/dz_axis as a new function."""
        raise NotImplementedError

    def taylor(self, m: int) -> "Series":
        """Degree-m Taylor polynomial, when the representation supports one."""
        raise TruncationUnavailableError(f"{type(self).__name__} has no Taylor truncation")

    # -- conveniences ------------------------------------------------------

    def value(self, z) -> complex:
        return complex(self.val(as_coords(z)))

    def partials(self) -> list:
        cached = getattr(self, "_partials_cache", None)
        if cached is None:
            cached = [self.partial(k) for k in range(self.dim)]
            self._partials_cache = cached
        return cached

    def gradient(self, z) -> np.ndarray:
        Z = as_coords(z)
        return np.array([p.val(Z) for p in self.partials()], dtype=complex)

    def _check_axis(self, axis: int):
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis must lie in [0, {self.dim - 1}], got {axis}")


def is_zero(f: HoloFunction) -> bool:
    if isinstance(f, Const):
        return f.c == 0
    if isinstance(f, Series):
        return not f.coeffs
    if isinstance(f, Scaled):
        return f.scale == 0 or is_zero(f.inner)
    return False


# ---------------------------------------------------------------------------
# atoms


class Const(HoloFunction):
    def __init__(self, c: complex, dim: int):
        self.c = complex(c)
        self.dim = int(dim)

    def val(self, Z):
        Z = np.asarray(Z, dtype=complex)
        return np.full(Z.shape[:-1], self.c, dtype=complex)

    def partial(self, axis):
        self._check_axis(axis)
        return Const(0.0, self.dim)

    def taylor(self, m):
        return Series({(0,) * self.dim: self.c} if self.c != 0 else {}, self.dim)

    def __repr__(self):
        return f"Const({self.c})"


class Series(HoloFunction):
    """Finite power series sum_gamma a_gamma z^gamma (a polynomial)."""

    def __init__(self, coeffs: dict, dim: int):
        self.dim = int(dim)
        clean = {}
        for exps, c in coeffs.items():
            e = tuple(int(x) for x in exps)
            if len(e) != self.dim or any(x < 0 for x in e):
                raise ValueError(f"bad exponent tuple {exps} for dimension {dim}")
            c = complex(c)
            if c != 0:
                clean[e] = clean.get(e, 0) + c
        self.coeffs = {e: c for e, c in clean.items() if c != 0}

    @property
    def max_degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def coefficient_abs_sum(self) -> float:
        return float(sum(abs(c) for c in self.coeffs.values()))

    def val(self, Z):
        Z = np.asarray(Z, dtype=complex)
        out = np.zeros(Z.shape[:-1], dtype=complex)
        for exps, c in self.coeffs.items():
            term = np.full(Z.shape[:-1], c, dtype=complex)
            for k, e in enumerate(exps):
                if e:
                    term = term * Z[..., k] ** e
            out += term
        return out

    def partial(self, axis):
        self._check_axis(axis)
        out = {}
        for exps, c in self.coeffs.items():
            e = exps[axis]
            if e:
                shifted = exps[:axis] + (e - 1,) + exps[axis + 1:]
                out[shifted] = out.get(shifted, 0) + e * c
        return Series(out, self.dim)

    def taylor(self, m):
        return Series({e: c for e, c in self.coeffs.items() if sum(e) <= m}, self.dim)

    # polynomial algebra used by composition normalization and truncations

    def add(self, other: "Series") -> "Series":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Series(out, self.dim)

    def scale(self, c: complex) -> "Series":
        return Series({e: c * v for e, v in self.coeffs.items()}, self.dim)

    def mul(self, other: "Series", max_degree: int | None = None) -> "Series":
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if max_degree is not None and sum(e) > max_degree:
                    continue
                out[e] = out.get(e, 0) + c1 * c2
        return Series(out, self.dim)

    def pow(self, k: int, max_degree: int | None = None) -> "Series":
        result = Series({(0,) * self.dim: 1.0}, self.dim)
        for _ in range(k):
            result = result.mul(self, max_degree=max_degree)
        return result

    def substitute(self, inners: list, max_degree: int | None = None) -> "Series":
        """self(g_1(z), ..., g_n(z)) for polynomial inners, optionally degree-filtered."""
        if len(inners) != self.dim:
            raise ValueError("component count must match dimension")
        out_dim = inners[0].dim
        acc = Series({}, out_dim)
        for exps, c in self.coeffs.items():
            term = Series({(0,) * out_dim: c}, out_dim)
            for g, e in zip(inners, exps):
                if e:
                    term = term.mul(g.pow(e, max_degree=max_degree), max_degree=max_degree)
            acc = acc.add(term)
        return acc

    @classmethod
    def monomial(cls, exponents, dim: int, coeff: complex = 1.0) -> "Series":
        return cls({tuple(exponents): coeff}, dim)

    @classmethod
    def coordinate(cls, axis: int, dim: int) -> "Series":
        exps = [0] * dim
        exps[axis] = 1
        return cls.monomial(exps, dim)

    def __repr__(self):
        return f"Series({self.coeffs!r}, dim={self.dim})"


def rising_factorial_coeffs(p: float, count: int) -> np.ndarray:
    """c_j = p(p+1)...(p+j-1)/j! for j = 0..count-1, via the stable recurrence."""
    c = np.empty(count, dtype=float)
    c[0] = 1.0
    for j in range(count - 1):
        c[j + 1] = c[j] * (p + j) / (j + 1)
    return c


class ScaledKernel(HoloFunction):
    """scale / (1 - conj(w) z_axis)^exponent with real exponent > 0.

    1 - conj(w) z has positive real part for |w| < 1, |z| <= 1, so the
    principal power is holomorphic there.  Closed under differentiation.
    """

    def __init__(self, dim: int, axis: int, w: complex, exponent: float, scale: complex = 1.0):
        if abs(w) >= 1.0:
            raise EvaluationDomainError(f"kernel parameter must satisfy |w| < 1, got {abs(w)}")
        self.dim = int(dim)
        self.axis = int(axis)
        self.w = complex(w)
        self.exponent = float(exponent)
        self.scale = complex(scale)
        self._check_axis(self.axis)

    def val(self, Z):
        Z = np.asarray(Z, dtype=complex)
        den = 1.0 - np.conj(self.w) * Z[..., self.axis]
        if np.any(np.abs(den) < KERNEL_SINGULARITY_FLOOR):
            raise EvaluationDomainError(
                "kernel evaluated too close to its singularity: |1 - conj(w) z| < 1e-12")
        return self.scale * den ** (-self.exponent)

    def partial(self, axis):
        self._check_axis(axis)
        if axis != self.axis:
            return Const(0.0, self.dim)
        return ScaledKernel(self.dim, self.axis, self.w,
                            self.exponent + 1.0,
                            self.scale * self.exponent * np.conj(self.w))

    def taylor(self, m):
        c = rising_factorial_coeffs(self.exponent, m + 1)
        wbar = np.conj(self.w)
        out = {}
        for j in range(m + 1):
            exps = [0] * self.dim
            exps[self.axis] = j
            out[tuple(exps)] = self.scale * c[j] * wbar ** j
        return Series(out, self.dim)

    def __repr__(self):
        return (f"ScaledKernel(axis={self.axis}, w={self.w}, "
                f"exponent={self.exponent}, scale={self.scale})")


class MoebiusFactor(HoloFunction):
    """e^{i theta} (z_axis - a) / (1 - conj(a) z_axis), a one-coordinate automorphism."""

    def __init__(self, dim: int, axis: int, a: complex, theta: float = 0.0):
        if abs(a) >= 1.0:
            raise EvaluationDomainError(f"automorphism parameter must satisfy |a| < 1, got {abs(a)}")
        self.dim = int(dim)
        self.axis = int(axis)
        self.a = complex(a)
        self.theta = float(theta)
        self._check_axis(self.axis)

    @property
    def phase(self) -> complex:
        return complex(np.exp(1j * self.theta))

    def val(self, Z):
        Z = np.asarray(Z, dtype=complex)
        zs = Z[..., self.axis]
        return self.phase * (zs - self.a) / (1.0 - np.conj(self.a) * zs)

    def partial(self, axis):
        self._check_axis(axis)
        if axis != self.axis:
            return Const(0.0, self.dim)
        return _MoebiusDerivative(self.dim, self.axis, self.a, self.theta, order=1)

    def taylor(self, m):
        # (z - a)/(1 - conj(a) z) = -a + (1 - |a|^2) sum_{j>=1} conj(a)^{j-1} z^j
        out = {}
        zero = [0] * self.dim
        out[tuple(zero)] = -self.phase * self.a
        lead = self.phase * (1.0 - abs(self.a) ** 2)
        abar = np.conj(self.a)
        for j in range(1, m + 1):
            exps = [0] * self.dim
            exps[self.axis] = j
            out[tuple(exps)] = lead * abar ** (j - 1)
        return Series(out, self.dim)

    def __repr__(self):
        return f"MoebiusFactor(axis={self.axis}, a={self.a}, theta={self.theta})"


class _MoebiusDerivative(HoloFunction):
    """Order-m derivative of a MoebiusFactor: e^{i theta} (1-|a|^2) m! conj(a)^{m-1} / (1 - conj(a) z)^{m+1}."""

    def __init__(self, dim, axis, a, theta, order):
        self.dim = int(dim)
        self.axis = int(axis)
        self.a = complex(a)
        self.theta = float(theta)
        self.order = int(order)

    def _front(self) -> complex:
        return (np.exp(1j * self.theta) * (1.0 - abs(self.a) ** 2)
                * math.factorial(self.order) * np.conj(self.a) ** (self.order - 1))

    def val(self, Z):
        Z = np.asarray(Z, dtype=complex)
        den = 1.0 - np.conj(self.a) * Z[..., self.axis]
        return self._front() / den ** (self.order + 1)

    def partial(self, axis):
        self._check_axis(axis)
        if axis != self.axis:
            return Const(0.0, self.dim)
        return _MoebiusDerivative(self.dim, self.axis, self.a, self.theta, self.order + 1)

    def taylor(self, m):
        base = MoebiusFactor(self.dim, self.axis, self.a, self.theta).taylor(m + self.order)
        for _ in range(self.order):
            base = base.partial(self.axis)
        return base


# ---------------------------------------------------------------------------
# composite nodes


class Scaled(HoloFunction):
    def __init__(self, scale: complex, inner: HoloFunction):
        self.scale = complex(scale)
        self.inner = inner
        self.dim = inner.dim

    def val(self, Z):
        return self.scale * self.inner.val(Z)

    def partial(self, axis):
        return Scaled(self.scale, self.inner.partial(axis))

    def taylor(self, m):
        return self.inner.taylor(m).scale(self.scale)


class Sum(HoloFunction):
    def __init__(self, parts: list):
        parts = [p for p in parts if not is_zero(p)]
        if not parts:
            raise ValueError("Sum needs at least one part; use Const(0, dim) explicitly")
        self.parts = parts
        self.dim = parts[0].dim
        if any(p.dim != self.dim for p in parts):
            raise ValueError("all summands must share a dimension")

    def val(self, Z):
        out = self.parts[0].val(Z)
        for p in self.parts[1:]:
            out = out + p.val(Z)
        return out

    def partial(self, axis):
        parts = [p.partial(axis) for p in self.parts]
        parts = [p for p in parts if not is_zero(p)]
        return Sum(parts) if parts else Const(0.0, self.dim)

    def taylor(self, m):
        acc = Series({}, self.dim)
        for p in self.parts:
            acc = acc.add(p.taylor(m))
        return acc


class Product(HoloFunction):
    def __init__(self, left: HoloFunction, right: HoloFunction):
        if left.dim != right.dim:
            raise ValueError("product factors must share a dimension")
        self.left = left
        self.right = right
        self.dim = left.dim

    def val(self, Z):
        return self.left.val(Z) * self.right.val(Z)

    def partial(self, axis):
        terms = []
        dl = self.left.partial(axis)
        if not is_zero(dl):
            terms.append(Product(dl, self.right))
        dr = self.right.partial(axis)
        if not is_zero(dr):
            terms.append(Product(self.left, dr))
        return Sum(terms) if terms else Const(0.0, self.dim)

    def taylor(self, m):
        return self.left.taylor(m).mul(self.right.taylor(m), max_degree=m)


def subtract(f: HoloFunction, g: HoloFunction) -> HoloFunction:
    return Sum([f, Scaled(-1.0, g)])


class Composition(HoloFunction):
    """f(phi_1(z), ..., phi_m(z)); differentiates by the chain rule."""

    def __init__(self, outer: HoloFunction, inner: list):
        if outer.dim != len(inner):
            raise ValueError("outer dimension must equal the number of inner components")
        self.outer = outer
        self.inner = list(inner)
        self.dim = inner[0].dim
        if any(g.dim != self.dim for g in inner):
            raise ValueError("inner components must share a dimension")

    def val(self, Z):
        Z = np.asarray(Z, dtype=complex)
        W = np.stack([g.val(Z) for g in self.inner], axis=-1)
        return self.outer.val(W)

    def partial(self, axis):
        terms = []
        for m, g in enumerate(self.inner):
            dg = g.partial(axis)
            if is_zero(dg):
                continue
            df = self.outer.partial(m)
            if is_zero(df):
                continue
            terms.append(Product(Composition(df, self.inner), dg))
        return Sum(terms) if terms else Const(0.0, self.dim)

    def taylor(self, m):
        # Exact only for polynomial outer: low-order output coefficients then
        # depend on inner coefficients of order <= m alone.
        if isinstance(self.outer, Const):
            return Const(self.outer.c, self.dim).taylor(m)
        if not isinstance(self.outer, Series):
            raise TruncationUnavailableError(
                "Taylor truncation of a composition needs a polynomial outer function")
        inner_polys = [g.taylor(m) for g in self.inner]
        return self.outer.substitute(inner_polys, max_degree=m)


# ---------------------------------------------------------------------------
# self-maps


@dataclass(frozen=True)
class SelfMapCertificate:
    """Why the map is believed to send U^n into the closed polydisk.

    kind: 'coefficients' (each component's absolute coefficient sum <= 1,
    exact and conservative), 'sampling' (sampled sup of max_l |phi_l| stayed
    <= 1 - margin), 'automorphism' (exact by construction), or 'unverified'.
    """

    kind: str
    margin: float = 0.0
    evidence: float = float("nan")

    def is_certified(self) -> bool:
        return self.kind != "unverified"

    def to_json(self) -> dict:
        return {"kind": self.kind, "margin": self.margin, "evidence": self.evidence}


UNVERIFIED = SelfMapCertificate("unverified")


class HoloSelfMap:
    """An n-tuple of holomorphic component functions with a self-map certificate."""

    def __init__(self, components: list, certificate: SelfMapCertificate = UNVERIFIED):
        if not components:
            raise ValueError("a self-map needs at least one component")
        dim = components[0].dim
        if len(components) != dim or any(c.dim != dim for c in components):
            raise ValueError("component count must equal the ambient dimension")
        self.components = list(components)
        self.dim = dim
        self.certificate = certificate

    def val(self, Z) -> np.ndarray:
        """Map points (..., n) -> image points (..., n)."""
        Z = np.asarray(Z, dtype=complex)
        return np.stack([c.val(Z) for c in self.components], axis=-1)

    def jacobian(self, z) -> np.ndarray:
        """Matrix with entry (l, k) = d phi_l / d z_k at z."""
        Z = as_coords(z)
        return np.array([[p.val(Z) for p in comp.partials()] for comp in self.components],
                        dtype=complex)

    def jacobian_batch(self, Z) -> np.ndarray:
        """Jacobian at many points: (..., n) -> (..., n, n)."""
        Z = np.asarray(Z, dtype=complex)
        rows = [np.stack([p.val(Z) for p in comp.partials()], axis=-1)
                for comp in self.components]
        return np.stack(rows, axis=-2)


def identity_map(dim: int) -> HoloSelfMap:
    comps = [Series.coordinate(k, dim) for k in range(dim)]
    return HoloSelfMap(comps, SelfMapCertificate("coefficients", evidence=1.0))


def constant_map(values, dim: int | None = None) -> HoloSelfMap:
    v = np.asarray(values, dtype=complex)
    dim = v.size if dim is None else dim
    if np.any(np.abs(v) >= 1.0):
        raise EvaluationDomainError("constant map values must lie inside the polydisk")
    comps = [Const(c, dim) for c in v]
    return HoloSelfMap(comps, SelfMapCertificate("coefficients", evidence=float(np.max(np.abs(v)))))


def moebius_automorphism(a, theta, sigma=None) -> HoloSelfMap:
    """Automorphism of U^n: component k is e^{i theta_k} (z_{sigma(k)} - a_k) / (1 - conj(a_k) z_{sigma(k)}).

    sigma is a 0-based permutation (identity when omitted).  The certificate
    is exact: automorphisms map the polydisk onto itself.
    """
    a = np.asarray(a, dtype=complex)
    theta = np.asarray(theta, dtype=float)
    n = a.size
    if theta.size != n:
        raise ValueError("a and theta must have the same length")
    if np.any(np.abs(a) >= 1.0):
        raise EvaluationDomainError("automorphism parameters must satisfy |a_k| < 1")
    if sigma is None:
        sigma = tuple(range(n))
    sigma = tuple(int(s) for s in sigma)
    if sorted(sigma) != list(range(n)):
        raise ValueError(f"sigma must be a permutation of 0..{n - 1}, got {sigma}")
    comps = [MoebiusFactor(n, sigma[k], a[k], theta[k]) for k in range(n)]
    return HoloSelfMap(comps, SelfMapCertificate("automorphism", evidence=1.0))


def certify_self_map(phi: HoloSelfMap, plan=None, margin: float = 1e-6) -> SelfMapCertificate:
    """Attach the strongest certificate available and return it.

    Order: keep an exact 'automorphism' certificate; else the coefficient test
    (sum of |a_gamma| <= 1 per component, which never accepts a non-self-map);
    else sampled sup of max_l |phi_l| over the plan's grid, accepted when it
    stays <= 1 - margin.
    """
    if phi.certificate.kind == "automorphism":
        return phi.certificate

    if all(isinstance(c, Series) for c in phi.components):
        sums = [c.coefficient_abs_sum() for c in phi.components]
        if max(sums, default=0.0) <= 1.0 + 1e-12:
            cert = SelfMapCertificate("coefficients", evidence=float(max(sums, default=0.0)))
            phi.certificate = cert
            return cert

    from .sampling import SamplingPlan, stratified_grid

    plan = plan if plan is not None else SamplingPlan()
    Z, _ = stratified_grid(phi.dim, plan)
    sup = float(np.max(np.abs(phi.val(Z)))) if Z.size else 0.0
    if sup <= 1.0 - margin:
        cert = SelfMapCertificate("sampling", margin=margin, evidence=sup)
    else:
        cert = SelfMapCertificate("unverified", evidence=sup)
    phi.certificate = cert
    return cert


def compose(f: HoloFunction, phi: HoloSelfMap, degree_cap: int = DEGREE_CAP_DEFAULT) -> HoloFunction:
    """f o phi.  Normalizes to a Series when everything is polynomial and the
    resulting degree stays within the cap; otherwise returns a lazy node whose
    derivatives follow the chain rule exactly."""
    if f.dim != phi.dim:
        raise ValueError("function and map dimensions must agree")
    if isinstance(f, Const):
        return Const(f.c, phi.dim)
    if isinstance(f, Series) and all(isinstance(c, Series) for c in phi.components):
        inner_deg = max((c.max_degree for c in phi.components), default=0)
        bound = f.max_degree * max(inner_deg, 1)
        if bound <= degree_cap:
            return f.substitute(list(phi.components))
    return Composition(f, list(phi.components))


def power_map_monomial(phi: HoloSelfMap, gamma, degree_cap: int = DEGREE_CAP_DEFAULT) -> HoloFunction:
    """phi^gamma = prod_l phi_l^{gamma_l}, built by composing the monomial z^gamma with phi."""
    if hasattr(gamma, "exponents"):
        gamma = gamma.exponents
    exps = tuple(int(g) for g in gamma)
    mono = Series.monomial(exps, phi.dim)
    return compose(mono, phi, degree_cap=degree_cap)


def compose_map(phi: HoloSelfMap, psi: HoloSelfMap,
                degree_cap: int = DEGREE_CAP_DEFAULT) -> HoloSelfMap:
    """The self-map phi o psi (components phi_l o psi)."""
    comps = [compose(c, psi, degree_cap=degree_cap) for c in phi.components]
    return HoloSelfMap(comps, UNVERIFIED)
