"""Weighted-derivative (p-Bloch) and Lipschitz-quotient norms on U^n.

The p-Bloch density of f at z is sum_k |df/dz_k(z)| (1 - |z_k|^2)^p; the norm
adds |f(0)| to its supremum.  The Lipschitz-quotient norm sups the difference
quotient |f(z) - f(w)| / |z - w|^p over pairs.  At p = 1 that sup is the sup
of the gradient norm ||grad f||_2, a pointwise density like the Bloch ones;
at p < 1 it stays a sup over pairs.  Every estimate is a lower bound from the
one maximiser, `sampling.maximise`: stratified sampling plus refinement, over
points for a density and over pairs for the quotient.  All start from the one
kept stratified grid and evaluate f once per point of it: the Bloch estimates
weight the partial moduli on the grid, computed once, for each of their
exponents, and the Lipschitz pairs at p < 1 join each grid point to its image
under a seeded permutation of the grid, with short pairs along conj(grad f)
from the steepest points.  What depends on the grid alone is kept with it
(`sampling.grid_derived`) and freed with it: the permutation, the pair
levels and the generator state after the permutation, the pair separations
|z - w|^p at each exponent with their floor mask, and the gap columns
1 - |z_k|^2 (`gap_columns`) that every weight on the grid raises to its
exponent.  A repeat estimate on the kept grid computes only what depends on f.

Inside a `shared_estimates` block, `bloch_norm_estimates` computes each
(function, exponent, plan) once and serves repeats from a memo that the block
drops on exit.  A `Series` is keyed by its dimension and coefficient items, so
equal polynomials built apart share an estimate; any other function is keyed
by the object.

The module also provides the direction-optimized Bergman-metric seminorm,
closed-form point-evaluation bound factors, and the measured distance from a
test-family member to its degree-m Taylor polynomial T, as the norm of f plus
T negated (exactly -T).

Every density here and in `criteria` sums through one kernel,
`weighted_partial_sum`: the moduli |df/dz_k| of the partials that are not
structurally zero times the weight of axis k, accumulated in place onto the
first term.  The moduli come from one `holo.partial_values` pass: a
polynomial's partials in one Horner traversal, written block by block into one
real array, a kernel partial's as a real power.  The p-Bloch density weights
by (1 - |z_k|^2)^p; the Q seminorm is the root of the kernel over squared
moduli and the weights (1 - |z_k|^2)^2, and the gradient norm the same root
with unit weights.  Every weight is a gap column of `gap_columns`, 1 - |z_k|^2
formed by `one_minus_sq` as (1 - |z_k|)(1 + |z_k|), raised to its exponent;
the densities raise theirs through `column_weights`.  The criterion rows share
one dict of weights per combine, raised from the gap columns that `criteria`
keeps with its density parts, and `bloch_norm_estimates` raises each grid
weight to each exponent on use, so that it holds no more than one at a time.

Points arrive coordinate-major (see `sampling`) and no function here assumes
C order: every sum over coordinates, the kernel's, a pair's squared
separation and `pointeval_bound`'s, is a loop over columns.  A pair quotient
divides into a zeroed output only where the separation clears the floor
(`np.divide` with `where=`), with no boolean gathers or scatter.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import replace

import numpy as np

from .holo import HoloFunction, Series, Sum, partial_axes, partial_values
from .sampling import (NormEstimate, SamplingPlan, estimate_supremum, grid_derived, maximise,
                       stratified_grid)

_PAIR_SEPARATION_FLOOR = 1e-14
# the Lipschitz short pairs' steps h = 2^-j i^k, j = 1..8, k = 0..3
_GRADIENT_STEPS = (0.5 ** np.arange(1, 9)[:, None] * 1j ** np.arange(4)).ravel()

# The memo of the open `shared_estimates` block, or None: (function key,
# exponent, plan) -> NormEstimate.  A key that holds the function itself keeps
# it alive, so its id is never reused while the block is open.
_memo: ContextVar[dict | None] = ContextVar("bloch_estimate_memo", default=None)


def _check_p(p: float):
    if not p > 0:
        raise ValueError(f"exponent p must be positive, got {p}")


def partial_moduli(f: HoloFunction, Z: np.ndarray) -> list:
    """(axis k, |df/dz_k| at Z) for each partial of f that is not structurally
    zero, from one `holo.partial_values` pass."""
    return list(zip(partial_axes(f), partial_values(f, Z, modulus=True)))


def one_minus_sq(mods: np.ndarray) -> np.ndarray:
    """(1 - m)(1 + m) for m = |z_k|; factored form keeps precision as m -> 1."""
    return (1.0 - mods) * (1.0 + mods)


def gap_columns(Z: np.ndarray, columns) -> dict:
    """The gap columns 1 - |z_k|^2 at Z for each axis k of columns; those of
    the kept grid are kept with it (see `sampling.grid_derived`)."""
    return {k: grid_derived(Z, ("gap", k), lambda: one_minus_sq(np.abs(Z[..., k])))
            for k in columns}


def column_weights(gaps: dict, p: float) -> dict:
    """The weights (1 - |z_k|^2)^p from the `gap_columns` gaps, axis by axis."""
    return {k: gap ** p for k, gap in gaps.items()}


def weighted_partial_sum(moduli, weight, shape) -> np.ndarray:
    """sum_k m_k * weight(k) over the (axis k, modulus m_k) pairs of moduli, an
    array of the given shape: the density kernel of this module and `criteria`.
    It starts from the first term, as 0 + term is term for these terms."""
    terms = (modulus * weight(k) for k, modulus in moduli)
    out = next(terms, None)
    if out is None:
        return np.zeros(shape, dtype=float)
    for term in terms:
        out += term
    return out


def bloch_density_fn(f: HoloFunction, p: float):
    """Batched evaluator of the p-Bloch density of f."""
    _check_p(p)

    def density(Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z, dtype=complex)
        weights = column_weights(gap_columns(Z, partial_axes(f)), p)
        return weighted_partial_sum(partial_moduli(f, Z), weights.get, Z.shape[:-1])

    return density


@contextmanager
def shared_estimates():
    """Within the block, `bloch_norm_estimates` serves a repeated (function,
    exponent, plan) from a memo; the memo is dropped when the block exits.
    Served estimates are shared objects, for callers to read only."""
    token = _memo.set({})
    try:
        yield
    finally:
        _memo.reset(token)


def _function_key(f: HoloFunction):
    if type(f) is Series:
        return f.dim, tuple(f.coeffs.items())
    return f


def bloch_norm_estimates(f: HoloFunction, ps, plan: SamplingPlan = SamplingPlan()) -> list:
    """`bloch_norm_estimate` at each exponent of ps, in order.

    The partial moduli on the grid are computed once and weighted for each
    exponent not already in the memo of an open `shared_estimates` block;
    each estimate then refines on its own.
    """
    memo = _memo.get()
    memo = {} if memo is None else memo
    keys = [(_function_key(f), p, plan) for p in ps]
    missing = {key: p for key, p in zip(keys, ps) if key not in memo}
    if missing:
        Z, _ = stratified_grid(f.dim, plan)
        moduli = partial_moduli(f, Z)
        gaps = gap_columns(Z, partial_axes(f))
        base = abs(f.value(np.zeros(f.dim, dtype=complex)))
        for key, p in missing.items():
            grid = weighted_partial_sum(moduli, lambda k: gaps[k] ** p, Z.shape[0])
            memo[key] = estimate_supremum(bloch_density_fn(f, p), f.dim, plan, base=base,
                                          grid_values=grid)
    return [memo[key] for key in keys]


def bloch_norm_estimate(f: HoloFunction, p: float,
                        plan: SamplingPlan = SamplingPlan()) -> NormEstimate:
    """|f(0)| plus an estimated supremum of the p-Bloch density (a lower bound)."""
    return bloch_norm_estimates(f, (p,), plan)[0]


def _root_square_sum(f: HoloFunction, Z: np.ndarray, weight) -> np.ndarray:
    """sqrt(sum_k |df/dz_k|^2 * weight(k)) at Z over the partials of f."""
    squares = ((k, modulus ** 2) for k, modulus in partial_moduli(f, Z))
    return np.sqrt(weighted_partial_sum(squares, weight, Z.shape[:-1]))


def timoney_q_fn(f: HoloFunction):
    """Batched evaluator of Q_f(z) = sup_{u != 0} |<grad f(z), u>| / sqrt(H(z, u)).

    For the product Bergman metric H(z,u) = sum |u_k|^2/(1-|z_k|^2)^2 the
    supremum resolves by weighted Cauchy-Schwarz to the weighted l2 norm
    sqrt(sum_k |df/dz_k|^2 (1-|z_k|^2)^2), with equality at u_k proportional
    to conj(df/dz_k) (1-|z_k|^2)^2.
    """
    def q(Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z, dtype=complex)
        return _root_square_sum(f, Z, column_weights(gap_columns(Z, partial_axes(f)), 2).get)

    return q


def _gradient_norm_fn(f: HoloFunction):
    """Batched evaluator of ||grad f(z)||_2: the kernel of `timoney_q_fn` with
    unit weights."""
    def gradient_norm(Z: np.ndarray) -> np.ndarray:
        return _root_square_sum(f, np.asarray(Z, dtype=complex), lambda k: 1.0)

    return gradient_norm


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
        factor, terms = (n * ln2 + 1.0) / (n * ln2), np.log(2.0 / oms)
    else:
        factor, terms = (2.0 ** (p - 1.0) * n + p - 1.0) / (n * (p - 1.0)), oms ** (1.0 - p)
    total = np.zeros(Z.shape[:-1])
    for k in range(n):
        total += terms[..., k]
    return factor * total


def little_bloch_gap(f: HoloFunction, p: float, m: int,
                     plan: SamplingPlan = SamplingPlan()) -> float:
    """Measured p-Bloch distance from f to its degree-m Taylor polynomial f.taylor(m);
    f is a `testfuncs.TestFunction` or a `holo.ScaledKernel`, the representations
    that carry one."""
    if m < 0:
        raise ValueError("truncation degree must be nonnegative")
    return bloch_norm_estimate(Sum([f, f.taylor(m).scale(-1.0)]), p, plan).value


# ---------------------------------------------------------------------------
# Lipschitz-quotient norm


def _separations(left_cols, right_cols, p: float):
    """(|z - w|^p, |z - w| above the separation floor) for pairs (z, w) given by
    their coordinate columns, taken one at a time."""
    sep = np.sqrt(sum(np.abs(zl - zr) ** 2 for zl, zr in zip(left_cols, right_cols)))
    return sep ** p, sep > _PAIR_SEPARATION_FLOOR


def _quotients(num: np.ndarray, separations) -> np.ndarray:
    """num / |z - w|^p from the pairs' `_separations`; 0 for pairs closer than the
    separation floor."""
    sep_p, apart = separations
    return np.divide(num, sep_p, out=np.zeros_like(sep_p), where=apart)


def _pair_quotients(f: HoloFunction, p: float, Zl: np.ndarray, Zr: np.ndarray) -> np.ndarray:
    """|f(z) - f(w)| / |z - w|^p for the pairs (Zl[i], Zr[i]), by `_quotients`.

    Both ends take their values from one f.val pass over the points of Zl and
    Zr with distinct bits: a round's partner, broadcast over its jitters, and
    its anchors, repeated over their steps, are evaluated once.  A point's
    value does not depend on its batch (see `holo`), so it is that of either
    end's own pass.
    """
    points = np.ascontiguousarray(np.concatenate([Zl, Zr]))
    rows = points.view(np.dtype((np.void, points.itemsize * points.shape[1])))[:, 0]
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    vals = f.val(points[first])[inverse]
    n = Zl.shape[0]
    return _quotients(np.abs(vals[:n] - vals[n:]), _separations(Zl.T, Zr.T, p))


def _grid_pair_quotients(f: HoloFunction, Z: np.ndarray, perm: np.ndarray,
                         separations) -> np.ndarray:
    """_pair_quotients(f, p, Z, Z[perm]) from one value of f per point of Z, less
    its partner's value in place, and the pairs' separations at p as
    `_grid_pairs` returns them."""
    diff = f.val(Z)
    diff -= diff[perm]
    return _quotients(np.abs(diff), separations)


def _grid_pairs(dim: int, plan: SamplingPlan, rng: np.random.Generator, p: float):
    """Stratified random pairs inside the kept grid: (Z[i], Z[perm[i]]).

    Returns (Z, perm, levels, separations): each pair's outermost radial
    level, and its `_separations` at exponent p.  perm is drawn from rng
    after the grid, so a fresh rng gets the kept grid, and rng is left as
    that draw leaves it.  A point that perm fixes pairs with itself and
    scores 0.  perm and the levels are held in the smallest unsigned type
    that holds their values, which indexes alike.  On the kept grid they,
    rng's end state and the separations at each p are kept in the grid's
    slot and freed with it (see `sampling.grid_derived`).
    """
    Z, levels = stratified_grid(dim, plan, rng)

    def draw():
        perm = rng.permutation(Z.shape[0])
        pair_levels = np.maximum(levels, levels[perm])
        return (perm.astype(np.min_scalar_type(perm.size)),
                pair_levels.astype(np.min_scalar_type(plan.radial_levels)),
                rng.bit_generator.state)

    perm, pair_levels, end_state = grid_derived(Z, "pairs", draw)
    rng.bit_generator.state = end_state

    def separations():
        return _separations(Z.T, (Z[perm, k] for k in range(dim)), p)

    return Z, perm, pair_levels, grid_derived(Z, ("separations", p), separations)


def _gradient_pairs(f: HoloFunction, anchors: np.ndarray, r_cap: float):
    """Pairs (z, z + h conj(grad f(z)) / ||grad f(z)||_2) for each anchor z and
    step h of _GRADIENT_STEPS.  To first
    order f moves by |h| ||grad f(z)||_2, the most any direction gives; the
    four phases probe the higher-order terms and keep pairs inside at the
    boundary.  Anchors where the gradient vanishes are dropped."""
    grad = np.zeros(anchors.shape, dtype=complex)
    for k, g in zip(partial_axes(f), partial_values(f, anchors)):
        grad[:, k] = g
    norm = np.linalg.norm(grad, axis=1)
    keep = norm > 0.0
    anchors, unit = anchors[keep], np.conj(grad[keep]) / norm[keep, None]
    moved = anchors[:, None, :] + _GRADIENT_STEPS[:, None] * unit[:, None, :]
    return np.repeat(anchors, _GRADIENT_STEPS.size, axis=0), _clip(moved.reshape(-1, anchors.shape[1]), r_cap)


def _clip(cand: np.ndarray, r_cap: float) -> np.ndarray:
    """cand with each coordinate pulled back to modulus at most r_cap."""
    return cand * np.minimum(1.0, r_cap / np.maximum(np.abs(cand), 1e-15))


def lipschitz_norm_estimate(f: HoloFunction, p: float,
                            plan: SamplingPlan = SamplingPlan()) -> NormEstimate:
    """|f(0)| plus an estimated sup of |f(z) - f(w)| / |z - w|^p over z != w.

    Requires 0 < p <= 1.  A lower bound of the true norm.

    At p = 1 the sup equals sup_z ||grad f(z)||_2 over U^n, estimated as a
    density by `estimate_supremum`, and the witness is a point.  Proof: U^n is
    convex, so f(z) - f(w) = int_0^1 sum_k df/dz_k(w + t(z - w)) (z_k - w_k) dt
    along the segment, and Cauchy-Schwarz bounds the quotient by the sup; at
    any z, w = z + eps conj(grad f(z)) gives quotients that tend to
    ||grad f(z)||_2 as eps -> 0.

    At p < 1 each point of the stratified grid pairs with its image under a
    seeded permutation of the grid.  A short pair's quotient is about
    ||grad f||_2 |z - w|^(1-p), which peaks at a separation that f sets, so
    each refinement round jitters either end of the best pair and adds the
    `_gradient_pairs` of both ends; the first round also adds those of the
    8 steepest points of a 256-point grid subsample.  The gradient pairs are
    charged against the budget with the rest of their round.  The witness is
    the pair (`witness`, `witness_partner`).

    The jitter layout, which seeded reports depend on: after the
    permutation the generator draws u of shape (rounds, 2, 2, n_refine, dim)
    in one call, rounds = min(max_rounds, (budget - len(Z)) // (2 n_refine))
    for n_refine = max(8, angular_count), as no round holds fewer than
    2 n_refine pairs.  Round j moves end e of the best pair (e = 0 the
    witness, 1 its partner) to the points end + b (u[j, e, 0] - 1/2) +
    i b (u[j, e, 1] - 1/2), b = 0.2 2^-j, pulled back to modulus r_cap, each
    paired with the other end; these are the values of one draw of shape
    (2, n_refine, dim) per end per round.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"the Lipschitz exponent must lie in (0, 1], got {p}")
    dim = f.dim
    base = abs(f.value(np.zeros(dim, dtype=complex)))
    if p == 1.0:
        return estimate_supremum(_gradient_norm_fn(f), dim, plan, base=base)
    rng = np.random.default_rng(plan.seed)
    Z, perm, levels, separations = _grid_pairs(dim, plan, rng, p)
    n_refine = max(8, plan.angular_count)
    r_cap = plan.max_radius()
    sub = Z[::max(1, Z.shape[0] // 256)]
    seeds = sub[np.argsort(-_gradient_norm_fn(f)(sub), kind="stable")[:8]]
    rounds = min(plan.max_rounds, max(plan.budget - len(Z), 0) // (2 * n_refine))
    # each round's complex jitter of both ends, in the box 0.2 2^-j
    u = rng.random((rounds, 2, 2, n_refine, dim))
    u -= 0.5
    box = np.ldexp(0.2, -np.arange(rounds))[:, None, None, None]
    jitter = box * u[:, :, 0] + 1j * box * u[:, :, 1]
    del u  # held through the rounds, it raised the peak RSS of run_all(dim=3) by ~1 MB

    def propose(witness, j):
        # both ends jittered, then the gradient pairs of both ends (and the seeds')
        ends = np.stack(witness)
        left, right = _gradient_pairs(f, ends if j else np.concatenate([ends, seeds]), r_cap)
        moved = _clip(ends[:, None, :] + jitter[j], r_cap).reshape(-1, dim)
        return (np.concatenate([moved, left]),
                np.concatenate([np.repeat(ends[::-1], n_refine, axis=0), right]))

    grid = (_grid_pair_quotients(f, Z, perm, separations), levels,
            lambda i: (Z[i], Z[perm[i]]))
    return maximise(lambda L, R: _pair_quotients(f, p, L, R), grid, propose,
                    replace(plan, max_rounds=rounds), base=base)
