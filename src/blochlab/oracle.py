"""Independent recomputation path for cross-checking the primary estimators.

Nothing here shares derivative or supremum code with the primary modules:
partials come from central finite differences of plain evaluations, suprema
from plain uniform grids with no stratification or refinement, and the
direction-optimized seminorm from direct maximization over random directions.
For a family-f member each row sets two algorithms against each other:

- partial rows: finite differences of its closed-form value (`f.val`) vs
  its exact partial, the kernel 1/(1 - conj(w) z_l)^p;
- sup rows: the finite-difference density of the closed form on a plain
  grid vs the refined estimate, whose density takes the kernel as the
  partial;
- q-seminorm rows: the direct maximization over finite differences of the
  closed form vs `timoney_q_fn`, which takes the kernel as the partial;
- antiderivative rows: the closed form vs the Horner sum of its Taylor
  polynomial (`TestFunction.taylor`), whose degree `truncation_degree` chooses.

The direction search contracts the points with every random direction
Q_BLOCK points at a time, G_b @ U.T, with a second product for the weights
H(z, u), so that no temporary grows with the number of points times the
number of directions.  A function whose finite-difference gradient is zero
at every point (a constant, say) gets zeros without a search: 0 / sqrt(H)
is +0 in every direction.  A NaN gradient is not zero and takes the search,
so its row still breaches.

The finite-difference quotient multiplies both float planes of the
differences by 1 / (2h).  numpy divides a complex a + ib by the real c as
(a + b 0) (1/c) + i (b - a 0) (1/c), which has the bits of a (1/c) + i b (1/c)
for finite a and b that are not -0.

Point arrays are coordinate-major, as `sampling` describes: uniform points
are built in a (dim, N) block and returned as its transpose, the
finite-difference partials are written into a (dim, ...) block and return as
an (..., dim) view of it, and the FD density adds its coordinates one column
at a time.  No function here assumes C order, and none shares the primary
modules' density kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .holo import HoloFunction, partial_axes, partial_values
from .norms import bloch_norm_estimate, one_minus_sq, timoney_q_fn
from .reports import record_json
from .sampling import SamplingPlan
from .testfuncs import TestFunction, truncation_degree

FD_STEP = 1e-5
DERIVATIVE_THRESHOLD = 1e-4
SUP_THRESHOLD = 5e-2
SUP_CONTAINMENT_SLACK = 1e-12
ANTIDERIVATIVE_THRESHOLD = 1e-10
Q_DIRECTIONS = 512
# direct_q_seminorm contracts this many points with the directions at a time
Q_BLOCK = 16


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

    The shifted points live in one coordinate-major copy of Z, whose k-th
    coordinate is moved to z_k + h and z_k - h and then restored; the partials
    are written into a (dim, ...) block and returned as an (..., dim) view of
    it, of the shape of Z.
    """
    Z = np.asarray(Z, dtype=complex)
    shifted = np.moveaxis(Z, -1, 0).copy()
    points = np.moveaxis(shifted, 0, -1)
    G = np.empty_like(shifted)
    for k in range(Z.shape[-1]):
        np.add(Z[..., k], FD_STEP, out=shifted[k, ...])
        G[k, ...] = f.val(points)
        np.subtract(Z[..., k], FD_STEP, out=shifted[k, ...])
        G[k, ...] -= f.val(points)
        shifted[k, ...] = Z[..., k]
    planes = G.view(float)
    planes *= 1.0 / (2.0 * FD_STEP)
    return np.moveaxis(G, 0, -1)


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
    Q_DIRECTIONS random u, for points Z of shape (N, dim).

    The points are contracted with the directions Q_BLOCK at a time, which
    gives the bits of one product over all N points.  OpenBLAS computes a
    one-row product by gemv, whose last bits differ from the rows of a matrix
    product, so no block has one row: a trailing block of one point joins the
    block before it, and a single point (N = 1) is contracted as two copies of
    itself, which gives it its bits inside any batch.
    """
    Z = np.asarray(Z, dtype=complex)
    G = fd_gradient(f, Z)                      # (N, dim)
    if not G.any():
        return np.zeros(G.shape[0])
    rng = np.random.default_rng(seed)
    dim = Z.shape[-1]
    U = rng.normal(size=(Q_DIRECTIONS, dim)) + 1j * rng.normal(size=(Q_DIRECTIONS, dim))
    w2 = one_minus_sq(np.abs(Z)) ** 2          # (N, dim)
    U2t = (np.abs(U) ** 2).T
    n = G.shape[0]
    if n == 1:
        G, w2 = np.repeat(G, 2, axis=0), np.repeat(w2, 2, axis=0)
    edges = list(range(0, len(G), Q_BLOCK)) + [len(G)]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    out = np.empty(len(G))
    for a, b in zip(edges[:-1], edges[1:]):
        num = np.abs(G[a:b] @ U.T)
        den = np.sqrt((1.0 / w2[a:b]) @ U2t)
        np.max(num / den, axis=1, out=out[a:b])
    return out[:n]


# ---------------------------------------------------------------------------
# orchestration


def derivative_results(fns: list, count: int = 1000, seed: int = 0,
                       threshold: float = DERIVATIVE_THRESHOLD) -> list[OracleResult]:
    """Worst relative FD-vs-structural partial discrepancy per corpus member,
    over points of radius <= 0.8.  The structural partials are those every
    density takes, `holo.partial_values`, and 0 where structurally zero."""
    out = []
    for i, f in enumerate(fns):
        Z = uniform_points(f.dim, count, seed + i, rmax=0.8)
        G_fd = fd_gradient(f, Z)
        G = np.zeros(G_fd.shape, dtype=complex)
        for k, g in zip(partial_axes(f), partial_values(f, Z)):
            G[:, k] = g
        errs = []
        for k in range(f.dim):
            scale = np.maximum(np.abs(G[:, k]), 1.0)
            errs.append(np.max(np.abs(G_fd[..., k] - G[:, k]) / scale))
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
    """The antiderivative family's closed form vs its Taylor partial sum of
    degree m, the first doubling at which `tail_bound`, a bound on the
    dropped terms over the closed polydisk, is under a hundredth of the
    threshold (`truncation_degree`)."""
    out = []
    for i, t in enumerate(members):
        if not (isinstance(t, TestFunction) and t.family == "f"):
            continue
        m = truncation_degree(t.p, t.w, 0.01 * ANTIDERIVATIVE_THRESHOLD)
        Z = uniform_points(t.dim, count, seed + i, rmax=0.95)
        closed = t.val(Z)
        partial_sum = t.taylor(m).val(Z)
        disc = float(np.max(np.abs(closed - partial_sum) / np.maximum(np.abs(closed), 1.0)))
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
