"""Supremum estimation over the polydisk by boundary-refined sampling.

One maximiser, `maximise`, serves every estimator: it takes one stratified
grid of candidates that their estimator has scored, records the cumulative
maximum per radial level, then runs local refinement rounds around the running
maximum until the rounds or the evaluation budget run out.  An estimator
proposes a round as a function of (witness, round index) and tells its size
before any point is built, so a round the budget refuses is never drawn or
built.  Once two rounds in a row have left the witness in place, `maximise`
scores all the remaining rounds in one call and replays them in order; the
rounds after one that moves the witness are dropped, neither charged nor
traced, and proposed again around the new witness.  A candidate's score does
not depend on its batch, so the estimate is that of one round per call.
`estimate_supremum` feeds it a pointwise density over a radially stratified
grid (radii r_i = 1 - 2^{-i}, where weighted-derivative densities fight their
weights, crossed with jittered angles) and refines in a polar box that halves
each round, its jitter drawn by `round_draws` in blocks of whole rounds; the
Bloch norms and the exponent-1 Lipschitz norm go through it.  The Lipschitz
estimator in `norms` feeds `maximise` pairs of grid points for exponents
below 1.  Estimates are lower bounds of the true supremum by construction;
`converged` reports whether the refinement trace plateaued.  Everything is
deterministic for a fixed seed.

Estimators redraw the same seeded grid many times, so `stratified_grid` keeps
one: the last grid drawn from a freshly seeded generator, keyed on (dim, plan),
with the generator state the draw ends in.  A repeat call returns the kept
arrays and sets the caller's generator to that end state, so every later draw
is as if the grid had been drawn again.  Grids are returned read-only, which
lets callers share them.  A fresh draw of another (dim, plan) frees the kept
grid before it draws; a draw from an already advanced generator is never kept
and leaves the kept grid in place.  Every estimator draws from a fresh
generator, so every estimate of one (dim, plan) reuses the kept grid: below
exponent 1 the Lipschitz estimator pairs its points with a permutation of the
same grid.

The kept grid's slot also carries the arrays that depend on that grid alone,
through `grid_derived`: the Lipschitz pairing (the permutation, the pair
levels and the generator state after the permutation), the pair separations
per exponent and the Bloch gap columns 1 - |z_k|^2.  Each is computed on first
use, stored read-only and freed with the grid; for any other grid, one drawn
from an advanced generator included, they are computed afresh and not kept.

Point arrays are coordinate-major.  The grid is drawn into a (dim, N) block
and returned as its (N, dim) transpose, so each coordinate Z[:, k] is
contiguous; values and draw order are those of a row-major draw.  No caller
may assume C order: a sum or minimum over the n coordinates runs as a loop
over the columns (a numpy reduction along a short last axis is over 20x
slower on 20,000 x 2 points), and a flat view of the points' bits needs a
C-ordered copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .reports import record_json

PLATEAU_RTOL = 1e-3
# the outermost level whose points stay strictly inside: from level 52 on,
# (1 - 2^-i) |e^{i theta}| rounds to modulus 1 at some angles
MAX_RADIAL_LEVELS = 51
# the most values `round_draws` draws at once
_JITTER_BLOCK = 1 << 16
# the most candidates a look-ahead run of `maximise` holds past its first round
_RUN_POINTS = 1 << 11
_TINY = 1e-300


@dataclass(frozen=True)
class SamplingPlan:
    """Grid and refinement configuration for supremum estimation.

    radial_levels: radii r_i = 1 - 2^{-i} for i = 0..radial_levels.
    angular_count: target points per torus circle / per radial stratum.
    max_rounds: local refinement rounds (each halves the refinement box).
    budget: overall cap on density evaluations for one estimate.
    seed: jitter seed; fixed seed means reproducible estimates.

    radial_levels above MAX_RADIAL_LEVELS are refused: from level 52 the
    outer radius rounds onto the torus at some angles, and from 54 past it.
    """

    radial_levels: int = 14
    angular_count: int = 64
    max_rounds: int = 12
    budget: int = 60_000
    seed: int = 0

    def __post_init__(self):
        if self.radial_levels < 0 or self.angular_count < 1:
            raise ValueError("radial_levels must be >= 0 and angular_count >= 1")
        if self.radial_levels > MAX_RADIAL_LEVELS:
            raise ValueError(f"radial_levels must be at most {MAX_RADIAL_LEVELS}, got "
                             f"{self.radial_levels}: a farther outer radius rounds onto the torus")
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

    to_json = record_json


@dataclass
class NormEstimate:
    """A lower-bound estimate of base + sup(score), as `maximise` returns it.

    value = base + sup, where sup is the score of the best candidate: the
    point `witness`, or for pair-based quotients (Lipschitz estimation below
    exponent 1) the pair (`witness`, `witness_partner`).  `trace` holds the best score after
    the grid and after each refinement round (nondecreasing);
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
        out = record_json(self)
        if self.witness_partner is None:
            del out["witness_partner"]
        return out


# The one grid kept for reuse, as ((dim, plan), Z, levels, generator end state,
# {key: grid_derived value}): the last grid drawn from a freshly seeded
# default_rng(plan.seed), or None.  No other reference to a kept grid is held.
_kept_grid = None


def stratified_grid(dim: int, plan: SamplingPlan, rng: np.random.Generator | None = None):
    """Sample points of U^dim stratified over radial-level combinations.

    Returns (Z, levels): Z of shape (N, dim) complex and coordinate-major
    (Z[:, k] is contiguous), levels of shape (N,)
    holding each point's outermost radial level index.  Every combination of
    radial levels (in lexicographic order, last axis fastest) gets
    per = min(angular_count, budget // combinations) points; the first
    coordinate's angles are stratified into per equal arcs.  When the
    combinations outnumber plan.budget, plan.budget combinations are drawn at
    random first, one point each (per = 1).  The angles come from one draw
    of shape (combinations, per * (dim + 1)): per combination, the per * dim
    angles in row-major (point, axis) order, then the per first-coordinate
    jitters.  Seeded reports depend on this layout.

    Z and levels are read-only.  A generator is freshly seeded when rng is
    None or in the state of default_rng(plan.seed); such draws are kept and
    reused as the module docstring describes.
    """
    global _kept_grid
    seeded = np.random.default_rng(plan.seed)
    if rng is not None and rng.bit_generator.state != seeded.bit_generator.state:
        return _draw_grid(dim, plan, rng)
    rng = rng if rng is not None else seeded
    if _kept_grid is None or _kept_grid[0] != (dim, plan):
        _kept_grid = None  # freed before the new draw
        Z, levels = _draw_grid(dim, plan, rng)
        _kept_grid = ((dim, plan), Z, levels, rng.bit_generator.state, {})
    _, Z, levels, end_state, _ = _kept_grid
    rng.bit_generator.state = end_state
    return Z, levels


def grid_derived(Z: np.ndarray, key, build):
    """build(), the arrays that depend on the grid Z alone, once per kept grid.

    When Z is the kept grid, the value stored under key in its slot, built on
    first use with its arrays made read-only; it is freed with the grid.  For
    any other Z, build() afresh, kept nowhere.  A build that draws from a
    generator returns the state the draw leaves, for its caller to restore
    when the value comes from the slot.
    """
    if _kept_grid is None or _kept_grid[1] is not Z:
        return build()
    derived = _kept_grid[4]
    if key not in derived:
        value = build()
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        derived[key] = value
    return derived[key]


def _points_per_combination(dim: int, plan: SamplingPlan) -> int:
    """The points that `stratified_grid` draws per radial-level combination."""
    combinations = (plan.radial_levels + 1) ** dim
    if combinations > plan.budget:
        return 1
    return min(plan.angular_count, plan.budget // combinations)


def _draw_grid(dim: int, plan: SamplingPlan, rng: np.random.Generator):
    radii = plan.radii()
    nlev = radii.size
    per = _points_per_combination(dim, plan)
    if nlev ** dim > plan.budget:
        combos = rng.integers(0, nlev, size=(plan.budget, dim))
    else:
        combos = np.indices((nlev,) * dim).reshape(dim, -1).T
    n = len(combos)
    # the returned arrays are allocated before the temporaries and filled in
    # place, so that a kept grid sits below the memory the draw frees; the
    # points fill a (dim, n, per) block, so that each coordinate is contiguous
    levels = np.repeat(combos.max(axis=1), per)
    Z = np.empty((dim, n, per), dtype=complex)
    u = rng.random((n, per * (dim + 1)))
    theta = 2.0 * np.pi * u[:, :per * dim].reshape(n, per, dim)
    theta[:, :, 0] = 2.0 * np.pi * (np.arange(per) + u[:, per * dim:]) / per
    np.multiply(1j, theta.transpose(2, 0, 1), out=Z)
    np.exp(Z, out=Z)
    Z *= radii[combos].T[:, :, None]
    Z.flags.writeable = levels.flags.writeable = False
    return Z.reshape(dim, n * per).T, levels


def maximise(score, grid, propose, plan: SamplingPlan,
             base: float = 0.0) -> NormEstimate:
    """Estimate base + sup of `score` from a scored grid plus refinement rounds.

    A candidate is a tuple of points, (z,) or a pair (z, w).  `grid` is the
    (vals, levels, row) triple of the initial candidates: vals holds their N
    scores, levels the outermost radial level of each run of N / len(levels)
    consecutive candidates (one per candidate, or one per level combination
    of the stratified grid), and row(i) gives candidate i.  The estimator
    scores the grid itself, so that it can share work across it (the
    Lipschitz grid pairs take one value of f per grid point).

    Refinement rounds j = 0, 1, ... are proposed around the best candidate so
    far, the witness (with its partner, for pairs).  propose(witness) is
    called once per witness and returns (size, build): size(j) is the number
    of candidates of round j around that witness, and build(j, k) the
    candidates of rounds j..k-1, concatenated in round order as a tuple of
    (N, dim) arrays that score(*batch) maps to N floats.  A round is charged
    its size against plan.budget; rounds stop at plan.max_rounds or before a
    round that would exceed the budget, and a refused round is never built.

    A round holds when it leaves the witness unchanged.  Rounds are scored
    one per call until two in a row have held; then every remaining round
    that the budget leaves (at most `_RUN_POINTS` candidates past the first)
    is built and scored in one call, and the rounds are offered in order.
    The first that moves the witness ends the run: the rounds after it are
    dropped, neither charged nor traced, and proposed again around the new
    witness, one per call, as the hold count starts over.  A candidate's
    score does not depend on its batch, so the estimate is the one that
    scoring each round alone would give.
    """
    best, witness, evaluations = 0.0, None, 0

    def offer(vals, row):
        # charges vals and says whether their best candidate became the witness
        nonlocal best, witness, evaluations
        evaluations += vals.shape[0]
        i = int(np.argmax(vals))
        if witness is not None and not float(vals[i]) > best:
            return False
        best, witness = float(vals[i]), tuple(a.copy() for a in row(i))
        return True

    vals, levels, row = grid
    vals = np.asarray(vals, dtype=float)
    offer(vals, row)
    # the runs' maxima first, then one scatter per run: max rounds nothing
    run = vals.size // levels.size
    tops = vals if run == 1 else np.maximum.reduceat(vals, np.arange(0, vals.size, run))
    level_max = np.zeros(plan.radial_levels + 1)
    np.maximum.at(level_max, levels, tops)
    level_trace = np.maximum.accumulate(level_max).tolist()

    trace = [best]
    j = held = 0
    while j < plan.max_rounds:
        if not held:
            size, build = propose(witness)
        # each scored round's end in the batch: the next round, and once two
        # have held, every round left
        end = size(j)
        if evaluations + end > plan.budget:
            break
        ends = [end]
        if held >= 2:
            for k in range(j + 1, plan.max_rounds):
                end += size(k)
                if evaluations + end > plan.budget or end > ends[0] + _RUN_POINTS:
                    break
                ends.append(end)
        cand = build(j, j + len(ends))
        vals = np.asarray(score(*cand), dtype=float)
        start = 0
        for end in ends:
            moved = offer(vals[start:end], lambda i: tuple(a[start + i] for a in cand))
            trace.append(best)
            j, start, held = j + 1, end, 0 if moved else held + 1
            if moved:
                break

    converged = (len(trace) >= 2
                 and (trace[-1] - trace[-2]) <= PLATEAU_RTOL * max(trace[-1], _TINY))
    return NormEstimate(value=base + best, base=base, sup=best,
                        witness=witness[0], trace=trace, level_trace=level_trace,
                        converged=bool(converged), evaluations=evaluations,
                        witness_partner=witness[1] if len(witness) > 1 else None)


def round_draws(rng: np.random.Generator, rounds: int, shape, finish):
    """draws(j, k) for 0 <= j < k <= rounds: finish applied to the uniform
    draws of rounds j..k-1, where round i draws rng.random(shape) as the i-th
    of `rounds` consecutive draws from rng's present state.  Nothing else may
    draw from rng while draws is in use.

    The rounds are drawn on first use in blocks of whole rounds of at most
    `_JITTER_BLOCK` values, so that a block draws no round past `rounds`.
    When there is more than one block, each is drawn from rng's present
    state advanced past the blocks before it, so that any round can be drawn
    again with the same values.  finish(u, first) maps the draws u of a
    block whose first round is `first` to the values a round is given, and
    may do so in place; the last finished block is kept.
    """
    per_round = math.prod(shape)
    block = max(1, _JITTER_BLOCK // per_round)
    start = rng.bit_generator.state if rounds > block else None
    kept = {}

    def finished(b):
        if b not in kept:
            kept.clear()
            if start is not None:
                rng.bit_generator.state = start
                rng.bit_generator.advance(b * block * per_round)
            kept[b] = finish(rng.random((min(block, rounds - b * block), *shape)), b * block)
        return kept[b]

    def draws(j, k):
        parts = []
        while j < k:
            b = j // block
            parts.append(finished(b)[j - b * block:min(k, (b + 1) * block) - b * block])
            j = (b + 1) * block
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    return draws


def _polar_box(w: np.ndarray, plan: SamplingPlan) -> np.ndarray:
    """The first refinement box (dr, dt) of shape (2, 1, dim) around the point w.

    dr brackets the neighbouring radial levels of each |w_k| (radii[0] == 0
    and radii[-1] == r_cap close the bracket at the ends); a box that reaches
    the origin spans every angle, as np.angle(-0+0j) is pi.
    """
    radii = plan.radii()
    w_r = np.abs(w)
    lo = radii[np.maximum(np.searchsorted(radii, w_r - 1e-15) - 1, 0)]
    hi = radii[np.minimum(np.searchsorted(radii, w_r + 1e-15, side="right"), radii.size - 1)]
    dr = np.maximum(np.maximum(hi - w_r, w_r - lo), 1e-6)
    dt = np.where(w_r < dr, np.pi, 2.0 * np.pi / max(plan.angular_count, 8) * 2.0)
    return np.stack([dr, dt])[:, None, :]


def estimate_supremum(density_fn, dim: int, plan: SamplingPlan,
                      base: float = 0.0, grid_values=None) -> NormEstimate:
    """Estimate base + sup of a pointwise density over U^dim.

    density_fn maps an (N, dim) complex array to (N,) nonnegative floats, a
    point's value not depending on its batch.  The initial stratified grid
    fixes the per-level trace; refinement rounds then shrink a polar box
    around the best point (never past the outermost grid radius, so the
    estimate stays a resolved lower bound).  grid_values, when given, are
    the density on stratified_grid(dim, plan), computed by a caller that
    shares work across densities; density_fn then scores the refinement
    rounds alone.  Values of any shape but (len(Z),) raise ValueError.

    Round j holds n_refine = max(8, angular_count) points, and `maximise`
    asks for them only for the rounds the budget leaves,
    min(max_rounds, (budget - len(Z)) // n_refine).  Their jitter layout,
    which seeded reports depend on: the generator, after the grid, draws u
    of shape (rounds, 2, n_refine, dim) through `round_draws`.  Round j
    moves the witness's (radius, angle) by (2 u[j] - 1) times the box
    (dr, dt) 2^-j, (dr, dt) being `_polar_box` around the grid's best point
    (the first witness), and clamps the radius to [0, r_cap].  A round's
    points are a function of (witness, j) alone, so `maximise` builds a run
    of rounds around one witness in one vectorised step.
    """
    rng = np.random.default_rng(plan.seed)
    Z, levels = stratified_grid(dim, plan, rng)
    if grid_values is not None and np.shape(grid_values) != (len(Z),):
        raise ValueError(f"grid_values has shape {np.shape(grid_values)}; the grid of "
                         f"(dim, plan) has {len(Z)} points")
    vals = np.asarray(density_fn(Z) if grid_values is None else grid_values, dtype=float)
    r_cap = plan.max_radius()
    n_refine = max(8, plan.angular_count)
    rounds = min(plan.max_rounds, max(plan.budget - len(Z), 0) // n_refine)
    box = _polar_box(Z[np.argmax(vals)], plan) if rounds else None

    def scaled(u, first):
        # each round's (radial, angular) steps: (2 u - 1) times the box halved j times
        u *= 2.0
        u -= 1.0
        scale = np.ldexp(box, -np.arange(first, first + len(u))[:, None, None, None])
        for k in range(dim):  # a broadcast over the short last axis is slower
            u[..., k] *= scale[..., k]
        return u

    steps = round_draws(rng, rounds, (2, n_refine, dim), scaled)

    def propose(witness):
        (w,) = witness
        w_r = np.abs(w)
        w_t = np.angle(w)

        def build(j, k):
            step = steps(j, k)
            r = np.minimum(np.maximum(w_r + step[:, 0], 0.0), r_cap)
            return ((r * np.exp(1j * (w_t + step[:, 1]))).reshape(-1, dim),)

        return (lambda j: n_refine), build

    grid = (vals, levels[::_points_per_combination(dim, plan)], lambda i: (Z[i],))
    return maximise(density_fn, grid, propose, plan, base=base)
