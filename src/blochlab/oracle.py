"""Independent recomputation path for cross-checking the primary estimators.

Nothing here shares derivative or supremum code with the primary modules:
partials come from central finite differences of plain evaluations, suprema
from plain uniform grids with no stratification or refinement, the
direction-optimized seminorm from direct maximization over random directions,
and the antiderivative family from its closed form on the principal branch.
The direction search contracts every point with every random direction in
one matrix product, G @ U.T, with a second for the weights H(z, u).

Point arrays are coordinate-major, as `sampling` describes: uniform points
are built in a (dim, N) block and returned as its transpose, the
finite-difference partials stack along a leading axis and return as an
(N, dim) view of it, and the FD density adds its coordinates one column at a
time.  No function here assumes C order, and none shares the primary
modules' density kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .holo import HoloFunction
from .norms import bloch_norm_estimate, timoney_q_fn
from .polydisk import one_minus_sq
from .reports import record_json
from .sampling import SamplingPlan
from .testfuncs import TestFunction

FD_STEP = 1e-5
DERIVATIVE_THRESHOLD = 1e-4
SUP_THRESHOLD = 5e-2
SUP_CONTAINMENT_SLACK = 1e-12
ANTIDERIVATIVE_THRESHOLD = 1e-10
Q_DIRECTIONS = 512


@dataclass
class OracleResult:
    """One comparison.  A non-finite primary, oracle or discrepancy breaches
    the row whatever its own test said: every such test compares with >,
    which a NaN never passes."""

    quantity: str
    primary: float
    oracle: float
    discrepancy: float
    breach: bool

    to_json = record_json

    def __post_init__(self):
        self.breach = bool(self.breach) or not np.all(
            np.isfinite([self.primary, self.oracle, self.discrepancy]))


def relative_discrepancy(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def fd_gradient(f: HoloFunction, Z: np.ndarray) -> np.ndarray:
    """Central finite-difference partials along the real axis of each coordinate.

    For holomorphic f the derivative along the real direction equals the
    complex partial, so [f(z + h e_k) - f(z - h e_k)] / (2h) with real h
    converges to d f / d z_k.  Uses only f.val.
    """
    Z = np.asarray(Z, dtype=complex)
    grads = []
    for k in range(Z.shape[-1]):
        Zp = Z.copy(order="K")
        Zm = Z.copy(order="K")
        Zp[..., k] += FD_STEP
        Zm[..., k] -= FD_STEP
        grads.append((f.val(Zp) - f.val(Zm)) / (2.0 * FD_STEP))
    return np.moveaxis(np.stack(grads), 0, -1)


def uniform_points(dim: int, count: int, seed: int, rmax: float = 0.95) -> np.ndarray:
    """Plain area-uniform points of the polydisk (radius sqrt-law per disk)."""
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.random((count, dim)))
    r *= rmax
    theta = rng.random((count, dim))
    theta *= 2.0 * np.pi
    Z = np.empty((dim, count), dtype=complex)
    np.multiply(1j, theta.T, out=Z)
    np.exp(Z, out=Z)
    Z *= r.T
    return Z.T


def fd_bloch_density(f: HoloFunction, p: float, Z: np.ndarray) -> np.ndarray:
    """sum_k |FD partial k| (1 - |z_k|^2)^p, added one coordinate at a time."""
    Z = np.asarray(Z, dtype=complex)
    G = fd_gradient(f, Z)
    out = np.zeros(Z.shape[:-1])
    for k in range(Z.shape[-1]):
        out += np.abs(G[..., k]) * one_minus_sq(np.abs(Z[..., k])) ** p
    return out


def uniform_bloch_norm(f: HoloFunction, p: float, count: int = 20_000,
                       seed: int = 0) -> float:
    """|f(0)| + max of the finite-difference density over a plain uniform
    grid of radius 0.97."""
    Z = uniform_points(f.dim, count, seed, rmax=0.97)
    base = abs(f.value(np.zeros(f.dim, dtype=complex)))
    return base + float(np.max(fd_bloch_density(f, p, Z)))


def direct_q_seminorm(f: HoloFunction, Z: np.ndarray, seed: int = 0) -> np.ndarray:
    """Q_f by direct maximization of |<grad f, u>| / sqrt(H(z,u)) over
    Q_DIRECTIONS random u."""
    rng = np.random.default_rng(seed)
    Z = np.asarray(Z, dtype=complex)
    dim = Z.shape[-1]
    U = rng.normal(size=(Q_DIRECTIONS, dim)) + 1j * rng.normal(size=(Q_DIRECTIONS, dim))
    G = fd_gradient(f, Z)                      # (N, dim)
    w2 = one_minus_sq(np.abs(Z)) ** 2          # (N, dim)
    num = np.abs(G @ U.T)
    den = np.sqrt((1.0 / w2) @ (np.abs(U) ** 2).T)
    return np.max(num / den, axis=1)


def antiderivative_closed_form(t: TestFunction, Z: np.ndarray) -> np.ndarray:
    """Closed form of the antiderivative family on the principal branch:
    [(1 - conj(w) z)^{1-p} - 1] / (conj(w) (p - 1)) for p != 1, and
    -log(1 - conj(w) z) / conj(w) for p = 1 (w != 0; the w = 0 member is z)."""
    if t.family != "f":
        raise ValueError("closed form applies to the antiderivative family only")
    Z = np.asarray(Z, dtype=complex)
    zl = Z[..., t.axis]
    wbar = np.conj(t.w)
    if t.w == 0:
        return zl
    base = 1.0 - wbar * zl
    if t.p == 1.0:
        return -np.log(base) / wbar
    return (base ** (1.0 - t.p) - 1.0) / (wbar * (t.p - 1.0))


# ---------------------------------------------------------------------------
# orchestration


def derivative_results(fns: list, count: int = 1000, seed: int = 0,
                       threshold: float = DERIVATIVE_THRESHOLD) -> list[OracleResult]:
    """Worst relative FD-vs-structural partial discrepancy per corpus member,
    over points of radius <= 0.8."""
    out = []
    for i, f in enumerate(fns):
        Z = uniform_points(f.dim, count, seed + i, rmax=0.8)
        G_fd = fd_gradient(f, Z)
        errs = []
        for k, pk in enumerate(f.partials()):
            exact = pk.val(Z)
            scale = np.maximum(np.abs(exact), 1.0)
            errs.append(np.max(np.abs(G_fd[..., k] - exact) / scale))
        worst = float(np.max(errs))  # np.max keeps a NaN that max() would drop
        out.append(OracleResult(f"partial:{i}:{type(f).__name__}", 0.0, worst,
                                worst, worst > threshold))
    return out


def sup_results(fns: list, p: float, plan, count: int = 20_000,
                seed: int = 0) -> list[OracleResult]:
    """Uniform-grid norm vs the refined primary estimate.  The refined value
    must contain the plain one from above (refinement only adds candidates)."""
    out = []
    for i, f in enumerate(fns):
        primary = bloch_norm_estimate(f, p, plan).value
        plain = uniform_bloch_norm(f, p, count=count, seed=seed + i)
        disc = relative_discrepancy(primary, plain)
        breach = plain > primary + SUP_CONTAINMENT_SLACK or (
            plain > primary and disc > SUP_THRESHOLD)
        out.append(OracleResult(f"sup:{i}:{type(f).__name__}:p={p}",
                                primary, plain, disc, breach))
    return out


def q_seminorm_results(fns: list, count: int = 200, seed: int = 0) -> list[OracleResult]:
    """Closed-form Q seminorm vs direct maximization over random directions.
    The direct value can only undershoot; it must never exceed the closed form.

    At dimension 1 every direction is optimal, so the direct value is the
    finite-difference |f'|(1 - |z|^2) and the row measures finite-difference
    error alone, not the direction search."""
    out = []
    for i, f in enumerate(fns):
        Z = uniform_points(f.dim, count, seed + i, rmax=0.8)
        closed = timoney_q_fn(f)(Z)
        direct = direct_q_seminorm(f, Z, seed=seed + i)
        over = float(np.max(direct - closed))
        scale = float(np.max(np.abs(closed))) + 1e-300
        out.append(OracleResult(f"q-seminorm:{i}:{type(f).__name__}", float(np.max(closed)),
                                float(np.max(direct)), max(over, 0.0) / scale,
                                over > DERIVATIVE_THRESHOLD * scale))
    return out


def antiderivative_results(members: list, count: int = 500,
                           seed: int = 0) -> list[OracleResult]:
    """Series evaluation of the antiderivative family vs its closed form."""
    out = []
    for i, t in enumerate(members):
        if not (isinstance(t, TestFunction) and t.family == "f"):
            continue
        Z = uniform_points(t.dim, count, seed + i, rmax=0.95)
        series = t.val(Z)
        closed = antiderivative_closed_form(t, Z)
        disc = float(np.max(np.abs(series - closed) / np.maximum(np.abs(closed), 1.0)))
        out.append(OracleResult(f"antiderivative:{i}:w={t.w}:p={t.p}", 0.0, disc,
                                disc, disc > ANTIDERIVATIVE_THRESHOLD))
    return out


def run_oracle(fns: list, p: float = 1.0, plan=None, seed: int = 0,
               derivative_count: int = 1000, sup_count: int = 20_000) -> list[OracleResult]:
    plan = plan if plan is not None else SamplingPlan(seed=seed)
    results = derivative_results(fns, count=derivative_count, seed=seed)
    results += sup_results(fns, p, plan, count=sup_count, seed=seed)
    results += q_seminorm_results(fns, seed=seed)
    results += antiderivative_results(fns, seed=seed)
    return results
