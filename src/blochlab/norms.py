"""Weighted-derivative (p-Bloch) and Lipschitz-quotient norms on U^n.

The p-Bloch density of f at z is sum_k |df/dz_k(z)| (1 - |z_k|^2)^p; the norm
adds |f(0)| to its supremum.  The Lipschitz-quotient norm sups the difference
quotient |f(z) - f(w)| / |z - w|^p over pairs.  Both are estimated from below
by the one maximiser, `sampling.maximise`: stratified sampling plus
refinement, over points for the density and over pairs for the quotient.  The
module also provides the direction-optimized Bergman-metric seminorm,
closed-form point-evaluation bound factors, and the measured distance to a
degree-m Taylor polynomial.
"""

from __future__ import annotations

import numpy as np

from .holo import HoloFunction, Series, subtract
from .polydisk import as_coords, one_minus_sq
from .sampling import NormEstimate, SamplingPlan, estimate_supremum, maximise, stratified_grid

_PAIR_SEPARATION_FLOOR = 1e-14
_SHORT_DELTAS = (1e-2, 1e-4)


def _check_p(p: float):
    if not p > 0:
        raise ValueError(f"exponent p must be positive, got {p}")


def bloch_density_fn(f: HoloFunction, p: float):
    """Batched evaluator of the p-Bloch density of f."""
    _check_p(p)
    parts = f.partials()

    def density(Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z, dtype=complex)
        weights = one_minus_sq(np.abs(Z)) ** p
        out = np.zeros(Z.shape[:-1], dtype=float)
        for k, pk in enumerate(parts):
            out += np.abs(pk.val(Z)) * weights[..., k]
        return out

    return density


def bloch_density(f: HoloFunction, p: float, z) -> float:
    return float(bloch_density_fn(f, p)(as_coords(z)))


def bloch_norm_estimate(f: HoloFunction, p: float, plan: SamplingPlan | None = None) -> NormEstimate:
    """|f(0)| plus an estimated supremum of the p-Bloch density (a lower bound)."""
    plan = plan if plan is not None else SamplingPlan()
    base = abs(f.value(np.zeros(f.dim, dtype=complex)))
    return estimate_supremum(bloch_density_fn(f, p), f.dim, plan, base=base)


def timoney_q_fn(f: HoloFunction):
    """Batched evaluator of Q_f(z) = sup_{u != 0} |<grad f(z), u>| / sqrt(H(z, u)).

    For the product Bergman metric H(z,u) = sum |u_k|^2/(1-|z_k|^2)^2 the
    supremum resolves by weighted Cauchy-Schwarz to the weighted l2 norm
    sqrt(sum_k |df/dz_k|^2 (1-|z_k|^2)^2), with equality at u_k proportional
    to conj(df/dz_k) (1-|z_k|^2)^2.
    """
    parts = f.partials()

    def q(Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z, dtype=complex)
        weights = one_minus_sq(np.abs(Z)) ** 2
        acc = np.zeros(Z.shape[:-1], dtype=float)
        for k, pk in enumerate(parts):
            acc += np.abs(pk.val(Z)) ** 2 * weights[..., k]
        return np.sqrt(acc)

    return q


def timoney_q(f: HoloFunction, z) -> float:
    return float(timoney_q_fn(f)(as_coords(z)))


def pointeval_bound(p: float, Z) -> np.ndarray:
    """Factor B with |f(z)| <= B * (p-Bloch norm of f) at points Z of shape (..., n).

    p < 1: (n - p + 1) / (1 - p), independent of z.
    p = 1: ((n ln 2 + 1) / (n ln 2)) * sum_k ln(2 / (1 - |z_k|^2)).
    p > 1: ((2^{p-1} n + p - 1) / (n (p - 1))) * sum_k (1 - |z_k|^2)^{1-p}.
    """
    _check_p(p)
    Z = np.asarray(Z, dtype=complex)
    n = Z.shape[-1]
    mods = np.abs(Z)
    if np.any(mods >= 1.0):
        raise ValueError("point-evaluation bounds require strictly interior points")
    if p < 1.0:
        return np.full(Z.shape[:-1], (n - p + 1.0) / (1.0 - p))
    oms = one_minus_sq(mods)
    if p == 1.0:
        ln2 = np.log(2.0)
        return (n * ln2 + 1.0) / (n * ln2) * np.sum(np.log(2.0 / oms), axis=-1)
    return (2.0 ** (p - 1.0) * n + p - 1.0) / (n * (p - 1.0)) * np.sum(oms ** (1.0 - p), axis=-1)


def little_bloch_gap(f: HoloFunction, p: float, m: int,
                     plan: SamplingPlan | None = None,
                     truncation: Series | None = None) -> float:
    """Measured p-Bloch distance from f to its degree-m truncation.

    Uses f.taylor(m) unless an explicit polynomial is supplied; raises
    TruncationUnavailableError for representations without one.
    """
    if m < 0:
        raise ValueError("truncation degree must be nonnegative")
    poly = truncation if truncation is not None else f.taylor(m)
    return bloch_norm_estimate(subtract(f, poly), p, plan).value


# ---------------------------------------------------------------------------
# Lipschitz-quotient norm


def _pair_quotients(f: HoloFunction, p: float, Zl: np.ndarray, Zr: np.ndarray) -> np.ndarray:
    num = np.abs(f.val(Zl) - f.val(Zr))
    sep = np.sqrt(np.sum(np.abs(Zl - Zr) ** 2, axis=-1))
    out = np.zeros_like(sep)
    ok = sep > _PAIR_SEPARATION_FLOOR
    out[ok] = num[ok] / sep[ok] ** p
    return out


def _coordinate_pairs(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Short-separation partners z + delta * phase * e_k, kept inside the closed polydisk."""
    dim = points.shape[-1]
    phases = np.exp(1j * np.pi / 2.0 * np.arange(4))
    left, right = [], []
    for z in points:
        for k in range(dim):
            for delta in _SHORT_DELTAS:
                for ph in phases:
                    w = z.copy()
                    w[k] = w[k] + delta * ph
                    if abs(w[k]) < 1.0:
                        left.append(z)
                        right.append(w)
    if not left:
        return (np.empty((0, dim), dtype=complex),) * 2
    return np.array(left), np.array(right)


def _grid_pairs(dim: int, plan: SamplingPlan, rng: np.random.Generator):
    """Stratified random pairs: a grid against a shuffled second grid.

    Returns (Zl, Zr, levels) with each pair's outermost radial level; the
    per-grid levels and the shuffle are dropped before the pairs are scored.
    """
    Zl, levl = stratified_grid(dim, plan, rng)
    Zr, levr = stratified_grid(dim, plan, rng)
    perm = rng.permutation(Zr.shape[0])
    return Zl, Zr[perm], np.maximum(levl, levr[perm])


def lipschitz_norm_estimate(f: HoloFunction, p: float,
                            plan: SamplingPlan | None = None) -> NormEstimate:
    """|f(0)| plus an estimated sup of |f(z) - f(w)| / |z - w|^p over z != w.

    Requires 0 < p <= 1.  Samples stratified random pairs, adds coordinate
    short-separation pairs (where coordinate-direction quotients peak), then
    refines around the best pair.  A lower bound of the true norm.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"the Lipschitz exponent must lie in (0, 1], got {p}")
    plan = plan if plan is not None else SamplingPlan()
    dim = f.dim
    rng = np.random.default_rng(plan.seed)

    Zl, Zr, levels = _grid_pairs(dim, plan, rng)
    n_refine = max(8, plan.angular_count)
    box = 0.2
    r_cap = plan.max_radius()

    batches = [((Zl, Zr), levels)]
    # coordinate-direction pairs on a stratified subsample, outside the level trace
    stride = max(1, Zl.shape[0] // 256)
    cl, cr = _coordinate_pairs(Zl[::stride])
    if cl.size:
        batches.append(((cl, cr), None))

    def propose(witness):
        nonlocal box
        wl, wr = witness
        batches_l, batches_r = [], []
        for anchor_l, anchor_r in ((wl, wr), (wr, wl)):
            jitter = box * (rng.random((n_refine, dim)) - 0.5) \
                + 1j * box * (rng.random((n_refine, dim)) - 0.5)
            cand = anchor_l[None, :] + jitter
            mods = np.abs(cand)
            scale = np.minimum(1.0, r_cap / np.maximum(mods, 1e-15))
            cand = cand * scale
            batches_l.append(cand)
            batches_r.append(np.broadcast_to(anchor_r, cand.shape).copy())
        cl2, cr2 = _coordinate_pairs(wl[None, :])
        if cl2.size:
            batches_l.append(cl2)
            batches_r.append(cr2)
        box *= plan.shrink
        return np.concatenate(batches_l), np.concatenate(batches_r)

    base = abs(f.value(np.zeros(dim, dtype=complex)))
    return maximise(lambda L, R: _pair_quotients(f, p, L, R), batches, propose,
                    2 * n_refine, plan, base=base)
