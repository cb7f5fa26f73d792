"""Holomorphic functions on U^n with exact structural derivatives.

Every representation evaluates in batch (arrays of points) and differentiates
structurally: series by the degree-shift rule, closed forms by stored
derivative formulas, composite nodes by sum/product/chain rules.  Finite
differences never appear here; they live in the independent oracle module.

`abs_val` gives moduli, np.abs(val) by default; the densities in `norms` need
no more.  A kernel overrides it with a real power of |1 - conj(w) z| (no complex
power), Const its |c|, and Product the product of its factors' moduli.

A kernel's `val` takes the principal power of den = 1 - conj(w) z as den ** -e
for an integer e (numpy multiplies repeatedly, faster than any polar form) and
as |den|^-e exp(-i e Arg den) otherwise (3x faster than numpy's complex power
through the complex log, and no less accurate); Re den > 0 on the closed
polydisk, so Arg den lies in (-pi/2, pi/2), the principal branch.  Its scale,
like a Moebius factor's phase, multiplies a temporary array, which numpy
reuses as the output from 16,384 complex values on, with the operands swapped;
complex multiplication then rounds otherwise, so such a batch can differ in
the last bit from a shorter one.

Representations:
  * Series        -- finite multivariate power series (polynomials), evaluated by
                     nested Horner over the axes on blocks of HORNER_BLOCK values;
                     partials that share one exponent set go through one
                     traversal with a column of coefficients per leaf
                     (`partial_values`), so a polynomial's gradient is one pass,
  * ScaledKernel  -- c / (1 - conj(w) z_axis)^e, closed under d/dz; the one closed
                     form of the kernel, reused by Moebius derivatives and `testfuncs`,
  * MoebiusFactor -- one-coordinate disk automorphism factor (partials: ScaledKernels),
  * Const / Sum / Product / Composition nodes over these.

A self-map of U^n is certified when it is built: each component gets a
bracket around sup |phi_l| (`_sup_bracket`; exact for an atom and for a
representation that gives its own `sup_bracket`, such as a `testfuncs` member,
the sum or product of the upper ends for a Sum or Product), and the map counts as a
self-map when every upper end is at most 1 (up to SELF_MAP_CEILING).  Maximum
modulus then gives |phi_l| < 1 inside U^n for a non-constant phi_l only, so a
constant component needs an upper end below 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reports import record_json

# compose normalizes a polynomial composite to a Series only up to this degree
DEGREE_CAP = 64

# the Horner scheme runs on blocks of at most this many values: points, times
# the polynomials evaluated together
HORNER_BLOCK = 16_384

# A component whose certified sup |phi_l| is at most this maps into the closed
# disk; the allowance absorbs rounding, as in ((1+z)/2)^80's coefficient sum.
SELF_MAP_CEILING = 1.0 + 1e-12

# the torus branch and bound of a Series gives up past this many cubes
TORUS_BOX_CAP = 1 << 20

# A kernel 1/(1 - conj(w) z)^e is evaluated only where |1 - conj(w) z| stays
# above this floor; nearer points are degenerate and get flagged.
KERNEL_SINGULARITY_FLOOR = 1e-12


class EvaluationDomainError(ValueError):
    """Evaluation requested outside the representable / stable domain."""


class HoloFunction:
    """Base class; subclasses implement `val` (batched) and `partial`."""

    dim: int

    def val(self, Z: np.ndarray) -> np.ndarray:
        """Evaluate at Z of shape (..., dim); returns shape (...)."""
        raise NotImplementedError

    def abs_val(self, Z: np.ndarray) -> np.ndarray:
        """|f| at Z of shape (..., dim); real, shape (...)."""
        return np.abs(self.val(Z))

    def partial(self, axis: int) -> "HoloFunction":
        """Exact partial derivative d/dz_axis as a new function."""
        raise NotImplementedError

    def sup_bracket(self) -> tuple[float, float]:
        """(lo, hi) around sup over U^n of |self| for a representation outside
        this module that knows it in closed form; (0, inf) when none is known."""
        return 0.0, np.inf

    # -- conveniences ------------------------------------------------------

    def value(self, z) -> complex:
        """f at one point z, evaluated as row 0 of the batch (z, z): a lone point
        would run numpy's scalar arithmetic, whose last bits differ from the
        array loops that a batch runs."""
        z = np.asarray(z, dtype=complex)
        return complex(self.val(np.stack([z, z]))[0])

    def partials(self) -> list:
        cached = getattr(self, "_partials_cache", None)
        if cached is None:
            cached = [self.partial(k) for k in range(self.dim)]
            self._partials_cache = cached
        return cached

    def _check_axis(self, axis: int):
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis must lie in [0, {self.dim - 1}], got {axis}")


def is_zero(f: HoloFunction) -> bool:
    if isinstance(f, Const):
        return f.c == 0
    if isinstance(f, Series):
        return not f.coeffs
    if isinstance(f, ScaledKernel):
        return f.scale == 0
    return False


def is_constant(f: HoloFunction) -> bool:
    """Every partial of f is structurally zero."""
    return all(is_zero(d) for d in f.partials())


# ---------------------------------------------------------------------------
# atoms


class Const(HoloFunction):
    def __init__(self, c: complex, dim: int):
        self.c = complex(c)
        self.dim = int(dim)

    def val(self, Z):
        Z = np.asarray(Z, dtype=complex)
        return np.full(Z.shape[:-1], self.c, dtype=complex)

    def abs_val(self, Z):
        return np.full(np.shape(Z)[:-1], abs(self.c))

    def partial(self, axis):
        self._check_axis(axis)
        return Const(0.0, self.dim)

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

    def val(self, Z):
        Z = np.asarray(Z, dtype=complex)
        plan = getattr(self, "_horner", None)
        if plan is None:
            plan = self._horner = _horner_plan(self.coeffs, 0, self.dim)
        out = np.empty(Z.shape[:-1], dtype=complex)
        _horner_run(plan, Z.reshape(-1, self.dim), out.reshape(-1))
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

    def antiderivative(self, axis: int) -> "Series":
        """The antiderivative in z_axis that vanishes at z_axis = 0."""
        self._check_axis(axis)
        out = {}
        for e, c in self.coeffs.items():
            out[e[:axis] + (e[axis] + 1,) + e[axis + 1:]] = c / (e[axis] + 1)
        return Series(out, self.dim)

    # polynomial algebra used by composition normalization

    def add(self, other: "Series") -> "Series":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Series(out, self.dim)

    def scale(self, c: complex) -> "Series":
        return Series({e: c * v for e, v in self.coeffs.items()}, self.dim)

    def mul(self, other: "Series") -> "Series":
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Series(out, self.dim)

    def substitute(self, inners: list) -> "Series":
        """self(g_1(z), ..., g_n(z)) for polynomial inners, in one pass.

        Each g_l is raised to each power it needs once, by a chain of `mul`s
        from the constant 1.  The terms c prod_l g_l^e_l add into one dict in the
        order of self.coeffs, and an entry that cancels to exactly 0 leaves
        it, so the coefficients and their order are those of adding the terms
        up one `add` at a time.
        """
        if len(inners) != self.dim:
            raise ValueError("component count must match dimension")
        out_dim = inners[0].dim
        powers = [[Series({(0,) * out_dim: 1.0}, out_dim)] for _ in inners]
        out = {}
        for exps, c in self.coeffs.items():
            term = Series({(0,) * out_dim: c}, out_dim)
            for g, chain, e in zip(inners, powers, exps):
                while len(chain) <= e:
                    chain.append(chain[-1].mul(g))
                if e:
                    term = term.mul(chain[e])
            for k, v in term.coeffs.items():
                v = out.get(k, 0) + v
                if v != 0:
                    out[k] = v
                else:
                    del out[k]
        return Series(out, out_dim)

    @classmethod
    def monomial(cls, exponents, dim: int) -> "Series":
        return cls({tuple(exponents): 1.0}, dim)

    @classmethod
    def coordinate(cls, axis: int, dim: int) -> "Series":
        exps = [0] * dim
        exps[axis] = 1
        return cls.monomial(exps, dim)

    def __repr__(self):
        return f"Series({self.coeffs!r}, dim={self.dim})"


def _horner_plan(coeffs: dict, axis: int, dim: int):
    """(node, buffers) for sum c_e z^e over the axes from `axis` on.

    A coefficient is a complex number, or for K polynomials that share their
    exponents the (K, 1) column of their coefficients, which evaluates all K
    at once.  A node is a leaf, the sum of the coefficients, when no exponent
    there is nonzero, else (k, steps): k is the first axis with a nonzero
    exponent, and steps holds (child, gap) per distinct exponent of z_k in
    descending order, the child being the node of that exponent's cofactor
    over the axes after k and gap the drop to the next exponent (to 0 for the
    last).  `buffers` counts the point arrays that `_horner` fills at once.
    """
    while axis < dim and all(e[axis] == 0 for e in coeffs):
        axis += 1
    if axis == dim:
        return sum(coeffs.values()), 0
    groups = {}
    for e, c in coeffs.items():
        groups.setdefault(e[axis], {})[e] = c
    exps = sorted(groups, reverse=True) + [0]
    steps, buffers = [], 1
    for i, e in enumerate(exps[:-1]):
        child, need = _horner_plan(groups[e], axis + 1, dim)
        # the first cofactor accumulates in this node's own array, the others in deeper ones
        buffers = max(buffers, need + (i > 0))
        steps.append((child, e - exps[i + 1]))
    return (axis, tuple(steps)), buffers


def _horner(node, cols, bufs, depth):
    """Evaluate a `_horner_plan` node at the points cols[k] = z_k into bufs[depth],
    of shape (m,) for complex leaves and (K, m) for (K, 1) leaves.

    Horner in z_k: acc = ((c_1 z_k^g_1 + c_2) z_k^g_2 + ...) z_k^g_m, with each
    cofactor c_i evaluated likewise into bufs[depth + 1], all in place.
    """
    axis, steps = node
    z = cols[axis]
    acc = bufs[depth]
    for i, (child, gap) in enumerate(steps):
        if i == 0:
            if type(child) is not tuple:
                np.multiply(z if gap == 1 else z ** gap, child, out=acc)
                continue
            _horner(child, cols, bufs, depth)
        elif type(child) is not tuple:
            acc += child
        else:
            acc += _horner(child, cols, bufs, depth + 1)
        if gap == 1:
            acc *= z
        elif gap:
            acc *= z ** gap
    return acc


def _horner_run(plan, flat: np.ndarray, out: np.ndarray):
    """Evaluate a `_horner_plan` at the points flat (n, dim) into out: (n,) for
    complex leaves, (K, n) for (K, 1) leaves; the values when out is complex,
    their moduli when it is real.

    The points go in blocks of HORNER_BLOCK // K, so that the scratch holds
    as many values whatever K.  A complex out is accumulated in directly; for
    a real one each block is accumulated in scratch and its moduli written,
    so no complex array of out's size forms.  numpy multiplies a one-element
    complex array in place through a non-FMA loop, whose last bits differ
    from the loop it runs on longer arrays; a one-point block is evaluated as
    two copies of its point, so that a point gets the same value alone as in
    a batch.
    """
    node, buffers = plan
    values = out.dtype.kind == "c"
    if type(node) is not tuple:
        out[...] = node if values else np.abs(node)
        return
    n = flat.shape[0]
    if n == 1:
        pair = np.empty(out.shape[:-1] + (2,), dtype=out.dtype)
        _horner_run(plan, np.concatenate([flat, flat]), pair)
        out[...] = pair[..., :1]
        return
    rows = out.shape[:-1]
    block = HORNER_BLOCK // math.prod(rows)
    size = min(n, block)
    scratch = [np.empty(rows + (size,), dtype=complex) for _ in range(buffers - values)]
    for start in range(0, n, block):
        dest = out[..., start:start + block]
        count = dest.shape[-1]
        if count == 1:
            _horner_run(plan, flat[start:], dest)
            continue
        bufs = scratch if count == size else [s[..., :count] for s in scratch]
        acc = _horner(node, flat[start:start + block].T, [dest] + bufs if values else bufs, 0)
        if not values:
            np.abs(acc, out=dest)


def partial_axes(f: HoloFunction) -> tuple:
    """The axes k whose partial df/dz_k is not structurally zero, in order."""
    return _gradient_plan(f)[0]


def partial_values(f: HoloFunction, Z, modulus: bool = False) -> list:
    """The partials of f that are not structurally zero at Z (..., dim), one
    array of shape Z.shape[:-1] per axis k of `partial_axes`, in order: df/dz_k,
    or its modulus when `modulus` is set.

    A run of `Series` partials that share one exponent set is evaluated in one
    traversal into one (K,) + Z.shape[:-1] array, whose rows are returned; any
    other partial by its own val or abs_val.
    """
    Z = np.asarray(Z, dtype=complex)
    rows = []
    for count, part in _gradient_plan(f)[1]:
        if type(part) is tuple:
            block = np.empty((count,) + Z.shape[:-1], dtype=float if modulus else complex)
            _horner_run(part, Z.reshape(-1, f.dim), block.reshape(count, -1))
            rows.extend(block)
        else:
            rows.append(part.abs_val(Z) if modulus else part.val(Z))
    return rows


def _gradient_plan(f: HoloFunction):
    """(axes, groups) for the partials of f that are not structurally zero,
    built from `partials` once and stored on f.

    axes are their axes in order.  groups cover them in order as (count,
    part): a run of count > 1 consecutive `Series` partials that share one
    exponent set has as part the `_horner_plan` of their stacked
    coefficients, any other partial (a lone one, or a subclass of Series,
    which may evaluate otherwise) is part itself, with count 1.  Only
    identical exponent sets share a plan: a union of sets would order the
    multiplications by z differently, and change the last bits of sparse or
    composed polynomials.
    """
    plan = getattr(f, "_gradient", None)
    if plan is None:
        axes, runs = [], []
        for k, pk in enumerate(f.partials()):
            if is_zero(pk):
                continue
            axes.append(k)
            last = runs[-1][-1] if runs else None
            if type(pk) is type(last) is Series and pk.coeffs.keys() == last.coeffs.keys():
                runs[-1].append(pk)
            else:
                runs.append([pk])
        groups = []
        for run in runs:
            if len(run) > 1:
                stacked = {e: np.array([[s.coeffs[e]] for s in run]) for e in run[0].coeffs}
                groups.append((len(run), _horner_plan(stacked, 0, f.dim)))
            else:
                groups.append((1, run[0]))
        plan = f._gradient = (tuple(axes), groups)
    return plan


def rising_factorial_coeffs(p: float, count: int, head=None) -> np.ndarray:
    """c_j = p(p+1)...(p+j-1)/j! for j = 0..count-1, via the stable recurrence;
    head, the first coefficients of an earlier call with the same p, is
    extended rather than recomputed."""
    c = np.empty(count, dtype=float)
    if head is None:
        head = (1.0,)
    c[:len(head)] = head
    for j in range(len(head) - 1, count - 1):
        c[j + 1] = c[j] * (p + j) / (j + 1)
    return c


class ScaledKernel(HoloFunction):
    """scale / (1 - conj(w) z_axis)^exponent with real exponent > 0.

    1 - conj(w) z has positive real part for |w| < 1, |z| <= 1, so the
    principal power is holomorphic there.  Closed under differentiation.
    `val` keeps den ** -e for an integer e (repeated multiplication) and takes
    a non-integer power in polar form, |den|^-e exp(-i e Arg den), since
    numpy's complex power goes through the complex log at 3x the cost.  At
    w = 0 the kernel is the constant `scale`: its partial has scale 0, which
    `is_zero` reads as structurally zero.
    """

    def __init__(self, dim: int, axis: int, w: complex, exponent: float, scale: complex = 1.0):
        if not abs(w) < 1.0:
            raise EvaluationDomainError(f"kernel parameter must satisfy |w| < 1, got {abs(w)}")
        self.dim = int(dim)
        self.axis = int(axis)
        self.w = complex(w)
        self.exponent = float(exponent)
        self.scale = complex(scale)
        self._check_axis(self.axis)

    def _denominator(self, Z):
        """1 - conj(w) z_axis and its modulus; refuses points near the singularity."""
        den = 1.0 - np.conj(self.w) * np.asarray(Z, dtype=complex)[..., self.axis]
        mod = np.abs(den)
        if np.any(mod < KERNEL_SINGULARITY_FLOOR):
            raise EvaluationDomainError(
                "kernel evaluated too close to its singularity: |1 - conj(w) z| < 1e-12")
        return den, mod

    def val(self, Z):
        den, mod = self._denominator(Z)
        e = self.exponent
        if e.is_integer():
            return self.scale * den ** -e
        return self.scale * (mod ** -e * np.exp(-1j * e * np.angle(den)))

    def abs_val(self, Z):
        _, mod = self._denominator(Z)
        return abs(self.scale) * mod ** (-self.exponent)

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
        if not abs(a) < 1.0:
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
        # d/dz (z - a)/(1 - conj(a) z) = (1 - |a|^2) / (1 - conj(a) z)^2
        return ScaledKernel(self.dim, self.axis, self.a, 2.0,
                            self.phase * (1.0 - abs(self.a) ** 2))

    def __repr__(self):
        return f"MoebiusFactor(axis={self.axis}, a={self.a}, theta={self.theta})"


# ---------------------------------------------------------------------------
# composite nodes


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


class Product(HoloFunction):
    def __init__(self, left: HoloFunction, right: HoloFunction):
        if left.dim != right.dim:
            raise ValueError("product factors must share a dimension")
        self.left = left
        self.right = right
        self.dim = left.dim

    def val(self, Z):
        return self.left.val(Z) * self.right.val(Z)

    def abs_val(self, Z):
        return self.left.abs_val(Z) * self.right.abs_val(Z)

    def partial(self, axis):
        terms = []
        dl = self.left.partial(axis)
        if not is_zero(dl):
            terms.append(Product(dl, self.right))
        dr = self.right.partial(axis)
        if not is_zero(dr):
            terms.append(Product(self.left, dr))
        return Sum(terms) if terms else Const(0.0, self.dim)


def _coordinate_major(columns: list) -> np.ndarray:
    """Equal-shape arrays (...) stacked along a leading axis, returned as the
    (..., n) view whose coordinate k is contiguous (see `sampling`)."""
    W = np.array(columns)
    return W.transpose(*range(1, W.ndim), 0)


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
        return self.outer.val(_coordinate_major([g.val(Z) for g in self.inner]))

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


# ---------------------------------------------------------------------------
# self-maps


@dataclass(frozen=True)
class SelfMapCertificate:
    """One bracket lo <= sup over U^n of |phi_l| <= hi per component: hi is the
    certified bound (inf if none), lo the largest |phi_l| known (0 if none).
    The map is certified when every hi is within SELF_MAP_CEILING."""

    brackets: tuple

    def is_certified(self) -> bool:
        # all(), not max(): max((0.5, nan)) is 0.5
        return all(hi <= SELF_MAP_CEILING for _, hi in self.brackets)

    to_json = record_json


class HoloSelfMap:
    """An n-tuple of holomorphic component functions, certified when built."""

    def __init__(self, components: list):
        if not components:
            raise ValueError("a self-map needs at least one component")
        dim = components[0].dim
        if len(components) != dim or any(c.dim != dim for c in components):
            raise ValueError("component count must equal the ambient dimension")
        self.components = list(components)
        self.dim = dim
        certify_self_map(self)

    def val(self, Z) -> np.ndarray:
        """Map points (..., n) -> image points (..., n), coordinate-major."""
        Z = np.asarray(Z, dtype=complex)
        return _coordinate_major([c.val(Z) for c in self.components])

    def jacobian(self, Z) -> np.ndarray:
        """Matrices with entry (l, k) = d phi_l / d z_k at points (..., n) -> (..., n, n)."""
        Z = np.asarray(Z, dtype=complex)
        rows = [np.stack([p.val(Z) for p in comp.partials()], axis=-1)
                for comp in self.components]
        return np.stack(rows, axis=-2)


def identity_map(dim: int) -> HoloSelfMap:
    return HoloSelfMap([Series.coordinate(k, dim) for k in range(dim)])


def moebius_automorphism(a, theta, sigma=None) -> HoloSelfMap:
    """Automorphism of U^n: component k is e^{i theta_k} (z_{sigma(k)} - a_k) / (1 - conj(a_k) z_{sigma(k)}).

    sigma is a 0-based permutation (identity when omitted).
    """
    a = np.asarray(a, dtype=complex)
    theta = np.asarray(theta, dtype=float)
    n = a.size
    if theta.size != n:
        raise ValueError("a and theta must have the same length")
    if not np.all(np.abs(a) < 1.0):
        raise EvaluationDomainError("automorphism parameters must satisfy |a_k| < 1")
    if sigma is None:
        sigma = tuple(range(n))
    sigma = tuple(int(s) for s in sigma)
    if sorted(sigma) != list(range(n)):
        raise ValueError(f"sigma must be a permutation of 0..{n - 1}, got {sigma}")
    return HoloSelfMap([MoebiusFactor(n, sigma[k], a[k], theta[k]) for k in range(n)])


def certify_self_map(phi: HoloSelfMap) -> SelfMapCertificate:
    """Attach phi's certificate, the brackets of its components, and return it.
    A constant component with no upper end below 1 gets hi = inf: it may send
    U^n into the boundary."""
    phi.certificate = SelfMapCertificate(tuple(_component_bracket(c) for c in phi.components))
    return phi.certificate


def _component_bracket(f: HoloFunction) -> tuple[float, float]:
    lo, hi = _sup_bracket(f)
    return (lo, np.inf) if hi >= 1.0 and is_constant(f) else (lo, hi)


def _sup_bracket(f: HoloFunction) -> tuple[float, float]:
    """(lo, hi) around sup over U^n of |f|; hi is inf where no bound is implemented.

    A finite hi is given only to functions holomorphic on a neighbourhood of
    the closed polydisk: `criteria.little_bloch_verdict` relies on it."""
    if isinstance(f, Const):
        return abs(f.c), abs(f.c)
    if isinstance(f, MoebiusFactor):
        return 1.0, 1.0
    if isinstance(f, Series):
        return _torus_bracket(f)
    if isinstance(f, ScaledKernel):
        # |1 - conj(w) z| >= 1 - |w|, with equality at z = w / |w| on the boundary
        sup = abs(f.scale) * (1.0 - abs(f.w)) ** -f.exponent
        return sup, sup
    if isinstance(f, Sum):
        return 0.0, sum(_sup_bracket(g)[1] for g in f.parts)
    if isinstance(f, Product):
        return 0.0, _sup_bracket(f.left)[1] * _sup_bracket(f.right)[1]
    if isinstance(f, Composition) and all(_sup_bracket(g)[1] <= SELF_MAP_CEILING
                                          for g in f.inner):
        return 0.0, _sup_bracket(f.outer)[1]
    return f.sup_bracket()


def _torus_bracket(f: Series) -> tuple[float, float]:
    """(lo, hi) around max over T^n of |f|, which is sup over U^n of |f| (maximum
    modulus, one variable at a time; Rudin, Function Theory in Polydiscs, 1969).

    hi is the absolute coefficient sum if that is within SELF_MAP_CEILING.  Else
    cubes of angles theta_c +- h, from 0 +- pi, bound |f| by |f(e^{i theta_c})| +
    h sum_gamma |gamma| |c_gamma|; a cube whose bound exceeds the ceiling splits
    in 2^n.  Stops when lo exceeds it (refuted: hi = inf), when no cube is left
    (hi: the largest pruned bound), or past TORUS_BOX_CAP cubes (hi = inf)."""
    coeffs = np.abs(np.fromiter(f.coeffs.values(), complex, len(f.coeffs)))
    slope = float(coeffs @ np.array([sum(e) for e in f.coeffs], dtype=float))
    total = float(coeffs.sum())
    centres, h, lo, hi, boxes, halves = np.zeros((1, f.dim)), np.pi, 0.0, 0.0, 1, None
    while True:
        values = f.abs_val(np.exp(1j * centres))
        lo = max(float(values.max()), lo)  # in this order, a NaN value sticks
        if total <= SELF_MAP_CEILING:
            return lo, total
        if not lo <= SELF_MAP_CEILING:
            return lo, np.inf
        bounds = values + h * slope
        pruned = bounds <= SELF_MAP_CEILING
        hi = max(hi, float(bounds[pruned].max(initial=0.0)))
        centres = centres[~pruned]
        if not centres.size:
            return lo, hi
        boxes += centres.shape[0] * 2 ** f.dim
        if boxes > TORUS_BOX_CAP:
            return lo, np.inf
        if halves is None:  # the 2^n corner offsets, built once a cube splits
            halves = np.indices((2,) * f.dim).reshape(f.dim, -1).T - 0.5
        centres = (centres[:, None, :] + h * halves).reshape(-1, f.dim)
        h /= 2.0


def compose(f: HoloFunction, phi: HoloSelfMap) -> HoloFunction:
    """f o phi.  Normalizes to a Series when everything is polynomial and the
    resulting degree stays within DEGREE_CAP; otherwise returns a lazy node whose
    derivatives follow the chain rule exactly."""
    if f.dim != phi.dim:
        raise ValueError("function and map dimensions must agree")
    if isinstance(f, Const):
        return Const(f.c, phi.dim)
    if isinstance(f, Series) and all(isinstance(c, Series) for c in phi.components):
        inner_deg = max((c.max_degree for c in phi.components), default=0)
        bound = f.max_degree * max(inner_deg, 1)
        if bound <= DEGREE_CAP:
            return f.substitute(list(phi.components))
    return Composition(f, list(phi.components))


def compose_map(phi: HoloSelfMap, psi: HoloSelfMap) -> HoloSelfMap:
    """The self-map phi o psi (components phi_l o psi)."""
    return HoloSelfMap([compose(c, psi) for c in phi.components])
