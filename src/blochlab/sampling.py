"""Supremum estimation over the polydisk by boundary-refined sampling.

One maximiser, `maximise`, serves every estimator: it scores initial candidate
batches, records the cumulative maximum per radial level, then runs local
refinement rounds around the running maximum until the rounds or the
evaluation budget run out.  `estimate_supremum` feeds it a pointwise density
over a radially stratified grid (radii r_i = 1 - 2^{-i}, where
weighted-derivative densities fight their weights, crossed with jittered
angles) and refines in a shrinking polar box; the Lipschitz estimator in
`norms` feeds it pairs of points.  Estimates are lower bounds of the true
supremum by construction; `converged` reports whether the refinement trace
plateaued.  Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .polydisk import complex_pairs

PLATEAU_RTOL = 1e-3
_TINY = 1e-300


@dataclass(frozen=True)
class SamplingPlan:
    """Grid and refinement configuration for supremum estimation.

    radial_levels: radii r_i = 1 - 2^{-i} for i = 0..radial_levels.
    angular_count: target points per torus circle / per radial stratum.
    max_rounds / shrink: local refinement rounds and box shrink factor.
    budget: overall cap on density evaluations for one estimate.
    seed: jitter seed; fixed seed means reproducible estimates.
    """

    radial_levels: int = 14
    angular_count: int = 64
    max_rounds: int = 12
    shrink: float = 0.5
    budget: int = 60_000
    seed: int = 0

    def __post_init__(self):
        if self.radial_levels < 0 or self.angular_count < 1:
            raise ValueError("radial_levels must be >= 0 and angular_count >= 1")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink factor must lie in (0, 1)")
        if self.budget < 1:
            raise ValueError("budget must be positive")

    def radii(self) -> np.ndarray:
        return 1.0 - 0.5 ** np.arange(self.radial_levels + 1)

    def max_radius(self) -> float:
        return float(1.0 - 0.5 ** self.radial_levels)

    def doubled(self) -> "SamplingPlan":
        return replace(self,
                       radial_levels=self.radial_levels + 1,
                       angular_count=self.angular_count * 2,
                       max_rounds=self.max_rounds + 1,
                       budget=self.budget * 2)

    def to_json(self) -> dict:
        return {"radial_levels": self.radial_levels, "angular_count": self.angular_count,
                "max_rounds": self.max_rounds, "shrink": self.shrink,
                "budget": self.budget, "seed": self.seed}


@dataclass
class NormEstimate:
    """A lower-bound estimate of base + sup(score), as `maximise` returns it.

    value = base + sup, where sup is the score of the best candidate: the
    point `witness`, or for pair-based quotients (Lipschitz estimation) the
    pair (`witness`, `witness_partner`).  `trace` holds the best score after
    the initial batches and after each refinement round (nondecreasing);
    `level_trace` the cumulative maxima per radial boundary level.
    """

    value: float
    base: float
    sup: float
    witness: np.ndarray
    trace: list
    level_trace: list
    converged: bool
    evaluations: int
    witness_partner: np.ndarray | None = None

    def to_json(self) -> dict:
        out = {
            "value": self.value,
            "base": self.base,
            "sup": self.sup,
            "witness": complex_pairs(self.witness),
            "trace": [float(t) for t in self.trace],
            "level_trace": [float(t) for t in self.level_trace],
            "converged": bool(self.converged),
            "evaluations": int(self.evaluations),
        }
        if self.witness_partner is not None:
            out["witness_partner"] = complex_pairs(self.witness_partner)
        return out


def stratified_grid(dim: int, plan: SamplingPlan, rng: np.random.Generator | None = None):
    """Sample points of U^dim stratified over radial-level combinations.

    Returns (Z, levels): Z of shape (N, dim) complex, levels of shape (N,)
    holding each point's outermost radial level index.
    """
    rng = rng if rng is not None else np.random.default_rng(plan.seed)
    radii = plan.radii()
    nlev = radii.size
    n_combos = nlev ** dim

    if n_combos > plan.budget:
        combo = rng.integers(0, nlev, size=(plan.budget, dim))
        per = 1
        r = radii[combo]
        theta = 2.0 * np.pi * rng.random((plan.budget, dim))
        Z = r * np.exp(1j * theta)
        levels = combo.max(axis=1)
        return Z, levels

    per = max(1, min(plan.angular_count, plan.budget // n_combos))
    combos = np.array(list(itertools.product(range(nlev), repeat=dim)), dtype=int)
    blocks = []
    level_blocks = []
    for combo in combos:
        r = radii[combo]
        theta = 2.0 * np.pi * rng.random((per, dim))
        # stratify the first coordinate's angle so circles get even coverage
        theta[:, 0] = 2.0 * np.pi * (np.arange(per) + rng.random(per)) / per
        blocks.append(r[None, :] * np.exp(1j * theta))
        level_blocks.append(np.full(per, combo.max(), dtype=int))
    Z = np.concatenate(blocks, axis=0)
    levels = np.concatenate(level_blocks, axis=0)
    return Z, levels


def maximise(score, batches, propose, round_cost: int, plan: SamplingPlan,
             base: float = 0.0) -> NormEstimate:
    """Estimate base + sup of `score` from initial batches plus refinement rounds.

    A candidate batch is a tuple of (N, dim) arrays, (Z,) for points or
    (Zl, Zr) for pairs, that score(*batch) maps to N floats.  `batches` holds
    the initial (batch, levels) pairs, each scored in its own call; levels
    gives each candidate's outermost radial level, or is None for a batch kept
    out of the per-level trace.  Each round costs
    `round_cost` evaluations of plan.budget and scores propose(witness), a
    batch around the best candidate so far; rounds stop at plan.max_rounds or
    when the next would exceed the budget.  The best candidate's rows are the
    witness and, for pairs, its partner.
    """
    best, witness, evaluations = 0.0, None, 0

    def offer(cand, vals):
        nonlocal best, witness, evaluations
        evaluations += cand[0].shape[0]
        i = int(np.argmax(vals))
        if witness is None or float(vals[i]) > best:
            best, witness = float(vals[i]), tuple(a[i].copy() for a in cand)

    level_max = [0.0] * (plan.radial_levels + 1)
    for cand, levels in batches:
        vals = np.asarray(score(*cand), dtype=float)
        offer(cand, vals)
        if levels is not None:
            for i in range(len(level_max)):
                mask = levels == i
                if np.any(mask):
                    level_max[i] = max(level_max[i], float(vals[mask].max()))
    level_trace = list(itertools.accumulate(level_max, max))

    trace = [best]
    for _ in range(plan.max_rounds):
        if evaluations + round_cost > plan.budget:
            break
        cand = propose(witness)
        offer(cand, np.asarray(score(*cand), dtype=float))
        trace.append(best)

    converged = (len(trace) >= 2
                 and (trace[-1] - trace[-2]) <= PLATEAU_RTOL * max(trace[-1], _TINY))
    return NormEstimate(value=base + best, base=base, sup=best,
                        witness=witness[0], trace=trace, level_trace=level_trace,
                        converged=bool(converged), evaluations=evaluations,
                        witness_partner=witness[1] if len(witness) > 1 else None)


def estimate_supremum(density_fn, dim: int, plan: SamplingPlan,
                      base: float = 0.0) -> NormEstimate:
    """Estimate base + sup of a pointwise density over U^dim.

    density_fn maps an (N, dim) complex array to (N,) nonnegative floats.
    The initial stratified grid fixes the per-level trace; refinement rounds
    then shrink a polar box around the best point (never past the outermost
    grid radius, so the estimate stays a resolved lower bound).
    """
    rng = np.random.default_rng(plan.seed)
    Z, levels = stratified_grid(dim, plan, rng)
    r_cap = plan.max_radius()
    radii = plan.radii()
    n_refine = max(8, plan.angular_count)
    dr = dt = None

    def propose(witness):
        nonlocal dr, dt
        (w,) = witness
        w_r = np.abs(w)
        w_t = np.angle(w)
        if dr is None:
            # initial polar box: bracket of neighboring radial levels around the witness
            dr = np.empty(dim)
            for k in range(dim):
                below = radii[radii < w_r[k] - 1e-15]
                above = radii[radii > w_r[k] + 1e-15]
                lo = below.max() if below.size else 0.0
                hi = above.min() if above.size else r_cap
                dr[k] = max(hi - w_r[k], w_r[k] - lo, 1e-6)
            dt = np.full(dim, 2.0 * np.pi / max(plan.angular_count, 8) * 2.0)
        r = w_r[None, :] + dr[None, :] * (2.0 * rng.random((n_refine, dim)) - 1.0)
        np.clip(r, 0.0, r_cap, out=r)
        t = w_t[None, :] + dt[None, :] * (2.0 * rng.random((n_refine, dim)) - 1.0)
        dr *= plan.shrink
        dt *= plan.shrink
        return (r * np.exp(1j * t),)

    return maximise(density_fn, [((Z,), levels)], propose, n_refine, plan, base=base)
