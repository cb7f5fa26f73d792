"""The broadcast sampler against its loop references.

`stratified_grid` and the per-level trace of `maximise` are array
expressions; the loops below are the per-combination and per-level versions
they replace.  The grid must match its reference bit for bit and leave the
generator in the same state, because estimators keep drawing from it after
the grid.  That holds as well when `stratified_grid` returns its kept grid
instead of drawing one.  Grids are coordinate-major (Z[:, k] contiguous), so
they are compared through a C-ordered copy of their bits.  Later tests check
the refinement box that `estimate_supremum` opens around an origin witness,
the grid values a caller may hand it, its one jitter draw against a draw per
round, and the plans whose outer radius would reach the torus.

The last tests check the estimators against `sequential_maximise`, a loop of
one round per call whose references draw each round's jitter when they
propose it: the Bloch, criterion and Lipschitz estimates must be bit-equal
to it, a density is scored one round per call whether it holds, gains every
round or gains once, a Lipschitz round computes its gradient pairs in one
call, and every score that `maximise` refines must give a candidate the same
bits in any batch.  The last two check that the estimators leave no
reference cycle, which would keep their jitter draws alive until the cyclic
collector runs, and that a planted self-calling `propose` closure is caught.
"""

import gc
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blochlab import criteria, norms, sampling
from blochlab.corpus import default_function_corpus, default_selfmap_corpus, polynomial_corpus
from blochlab.norms import (bloch_density_fn, bloch_norm_estimate, lipschitz_norm_estimate,
                            one_minus_sq)
from blochlab.sampling import SamplingPlan, estimate_supremum, maximise, stratified_grid

PLANS = [SamplingPlan(), SamplingPlan().doubled(),
         SamplingPlan(radial_levels=6, angular_count=16, budget=4000, seed=3)]


def loop_grid(dim, plan, rng):
    """Reference: one draw of angles and one of first-coordinate jitters per combination."""
    radii = plan.radii()
    nlev = radii.size
    per = max(1, min(plan.angular_count, plan.budget // nlev ** dim))
    blocks, level_blocks = [], []
    for combo in itertools.product(range(nlev), repeat=dim):
        r = radii[list(combo)]
        theta = 2.0 * np.pi * rng.random((per, dim))
        theta[:, 0] = 2.0 * np.pi * (np.arange(per) + rng.random(per)) / per
        blocks.append(r[None, :] * np.exp(1j * theta))
        level_blocks.append(np.full(per, max(combo), dtype=int))
    return np.concatenate(blocks, axis=0), np.concatenate(level_blocks, axis=0)


def bits(Z):
    """The float bits of complex points, whatever their memory order."""
    return np.ascontiguousarray(Z).view(float)


def assert_kept_layout(Z):
    assert Z.flags.f_contiguous and not Z.flags.writeable


def assert_grid_matches_loop(dim, plan):
    rng, ref_rng = np.random.default_rng(plan.seed), np.random.default_rng(plan.seed)
    Z, levels = stratified_grid(dim, plan, rng)
    Z_ref, levels_ref = loop_grid(dim, plan, ref_rng)
    assert Z.shape == Z_ref.shape
    assert_kept_layout(Z)
    np.testing.assert_array_equal(bits(Z), bits(Z_ref))
    np.testing.assert_array_equal(levels, levels_ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("plan", PLANS, ids=["default", "doubled", "small"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_grid_is_bit_equal_to_loop(dim, plan):
    assert_grid_matches_loop(dim, plan)


@settings(max_examples=60, deadline=None)
@given(levels=st.integers(0, 5), angles=st.integers(1, 8), dim=st.integers(1, 3),
       budget=st.integers(1, 2000), seed=st.integers(0, 2 ** 32 - 1))
def test_small_grids_are_bit_equal_to_loop(levels, angles, dim, budget, seed):
    assume((levels + 1) ** dim <= budget)
    assert_grid_matches_loop(dim, SamplingPlan(radial_levels=levels, angular_count=angles,
                                               budget=budget, seed=seed))


def test_budget_capped_grid():
    plan = SamplingPlan(radial_levels=3, budget=20)
    dim = 3
    assert (plan.radial_levels + 1) ** dim > plan.budget
    Z, levels = stratified_grid(dim, plan)
    assert Z.shape == (plan.budget, dim) and levels.shape == (plan.budget,)
    radii = plan.radii()
    index = np.abs(np.abs(Z)[..., None] - radii).argmin(axis=-1)
    np.testing.assert_allclose(np.abs(Z), radii[index], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(levels, index.max(axis=1))
    Z2, levels2 = stratified_grid(dim, plan)
    assert_kept_layout(Z)
    np.testing.assert_array_equal(bits(Z), bits(Z2))
    np.testing.assert_array_equal(levels, levels2)


def assert_same_grid(grid, ref):
    assert_kept_layout(grid[0])
    np.testing.assert_array_equal(bits(grid[0]), bits(ref[0]))
    np.testing.assert_array_equal(grid[1], ref[1])


@pytest.mark.parametrize("plan", PLANS, ids=["default", "doubled", "small"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_kept_grid_is_bit_equal_to_loop(dim, plan):
    stratified_grid(dim, replace(plan, seed=plan.seed + 1))  # so that the next call draws
    kept = stratified_grid(dim, plan, np.random.default_rng(plan.seed))
    rng, ref_rng = np.random.default_rng(plan.seed), np.random.default_rng(plan.seed)
    Z, levels = stratified_grid(dim, plan, rng)
    assert Z is kept[0] and levels is kept[1]
    assert_same_grid((Z, levels), loop_grid(dim, plan, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    np.testing.assert_array_equal(rng.random(5), ref_rng.random(5))
    assert stratified_grid(dim, plan)[0] is kept[0]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_draw_from_advanced_generator_is_not_the_kept_grid(dim):
    plan = PLANS[2]
    kept = stratified_grid(dim, plan)
    rng, ref_rng = np.random.default_rng(plan.seed), np.random.default_rng(plan.seed)
    for g in (rng, ref_rng):
        g.random(3)
    Z, levels = stratified_grid(dim, plan, rng)
    assert_same_grid((Z, levels), loop_grid(dim, plan, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # the advanced draw is not kept and leaves the kept grid in place
    again = stratified_grid(dim, plan)
    assert again[0] is kept[0] and again[0] is not Z
    # nor is a draw from a fresh generator of another seed
    other = np.random.default_rng(plan.seed + 7)
    assert_same_grid(stratified_grid(dim, plan, other),
                     loop_grid(dim, plan, np.random.default_rng(plan.seed + 7)))


def test_alternating_plans_and_dims_get_their_own_grid():
    keys = [(2, PLANS[0]), (2, PLANS[2]), (3, PLANS[2]), (2, PLANS[0]), (1, PLANS[1])]
    refs = {}
    for dim, plan in keys:
        ref_rng = np.random.default_rng(plan.seed)
        refs[dim, plan] = loop_grid(dim, plan, ref_rng), ref_rng.bit_generator.state
    for _ in range(2):
        for dim, plan in keys:
            rng = np.random.default_rng(plan.seed)
            grid_ref, state_ref = refs[dim, plan]
            assert_same_grid(stratified_grid(dim, plan, rng), grid_ref)
            assert rng.bit_generator.state == state_ref


@pytest.mark.parametrize("advanced", [False, True], ids=["kept", "advanced"])
def test_returned_grid_is_read_only(advanced):
    plan = PLANS[2]
    rng = np.random.default_rng(plan.seed)
    if advanced:
        rng.random()
    for _ in range(2):
        Z, levels = stratified_grid(2, plan, rng)
        with pytest.raises(ValueError):
            Z[0, 0] = 0.0
        with pytest.raises(ValueError):
            levels[0] = 1
        with pytest.raises(ValueError):
            Z *= 2.0


def test_level_trace_equals_loop():
    rng = np.random.default_rng(1)
    plan = SamplingPlan(radial_levels=6, max_rounds=0)
    # levels 4..6 stay empty, so the cumulative maximum carries over them
    Z = rng.random((50, 2)) + 0j
    levels = rng.integers(0, 4, Z.shape[0])
    score = lambda Z: Z.real.sum(axis=-1)  # noqa: E731
    vals = score(Z)
    est = maximise(score, (vals, levels, lambda i: (Z[i],)), None, plan)
    level_max = [0.0] * (plan.radial_levels + 1)
    for i in range(len(level_max)):
        mask = levels == i
        if np.any(mask):
            level_max[i] = float(vals[mask].max())
    assert est.level_trace == list(itertools.accumulate(level_max, max))
    assert est.sup == est.level_trace[-1] == vals.max()
    assert est.evaluations == Z.shape[0] and est.trace == [est.sup]


@pytest.mark.parametrize("plan", [SamplingPlan(), SamplingPlan(budget=3_000),
                                  SamplingPlan(radial_levels=4, angular_count=3)],
                         ids=["default", "drawn-combinations", "small"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_level_trace_equals_the_scatter_over_candidates(dim, plan):
    # the stratified grid's levels come in runs, one per level combination,
    # whose maxima go to the scatter instead of every candidate's value
    plan = replace(plan, max_rounds=0)
    Z, levels = stratified_grid(dim, plan)
    vals = np.random.default_rng(dim).random(Z.shape[0])
    vals[::7] = 0.0
    est = estimate_supremum(lambda Z: vals, dim, plan)
    level_max = np.zeros(plan.radial_levels + 1)
    np.maximum.at(level_max, levels, vals)
    assert est.level_trace == np.maximum.accumulate(level_max).tolist()


@pytest.mark.parametrize("dim", [1, 2])
def test_refinement_around_the_origin_spans_every_angle(dim):
    # the grid's origin points carry signed zeros, whose angles are 0 or +-pi;
    # the first refinement box around an origin witness searches every direction
    proposed = []

    def density(Z):
        proposed.append(Z)
        return np.prod(1.0 - np.abs(Z) ** 2, axis=-1)

    est = estimate_supremum(density, dim, SamplingPlan(radial_levels=6, angular_count=16))
    assert np.all(est.witness == 0) and len(proposed) > 1
    for column in proposed[1].T:
        moved = column[column != 0]
        assert np.any(moved.real > 0) and np.any(moved.real < 0)


def modulus_density(Z):
    return np.abs(Z[:, 0])


def test_grid_values_stand_for_the_grid_evaluation():
    plan = SamplingPlan(radial_levels=6, angular_count=16)
    Z, _ = stratified_grid(2, plan)
    given_values = estimate_supremum(modulus_density, 2, plan, grid_values=modulus_density(Z))
    assert given_values.to_json() == estimate_supremum(modulus_density, 2, plan).to_json()


@pytest.mark.parametrize("shape", [(1,), (), "grid+1", "grid-1", "grid,1"])
def test_grid_values_of_another_shape_are_refused(shape):
    # a length-1 array would broadcast through the per-level maxima unnoticed
    plan = SamplingPlan()
    n = len(stratified_grid(1, plan)[0])
    shape = {"grid+1": (n + 1,), "grid-1": (n - 1,), "grid,1": (n, 1)}.get(shape, shape)
    with pytest.raises(ValueError, match=f"grid_values has shape .*has {n} points"):
        estimate_supremum(modulus_density, 1, plan, grid_values=np.full(shape, 5.0))


def sequential_maximise(score, grid, propose, plan, base=0.0):
    """Reference: `maximise` as one round per call.  propose(witness) builds
    the next round around the last witness, which is then refused if the
    budget cannot take it."""
    best, witness, evaluations = 0.0, None, 0

    def offer(vals, row):
        nonlocal best, witness, evaluations
        evaluations += vals.shape[0]
        i = int(np.argmax(vals))
        if witness is None or float(vals[i]) > best:
            best, witness = float(vals[i]), tuple(a.copy() for a in row(i))

    vals, levels, row = grid
    offer(np.asarray(vals, dtype=float), row)
    level_trace = maximise(score, grid, None, replace(plan, max_rounds=0)).level_trace
    trace = [best]
    for _ in range(plan.max_rounds):
        cand = propose(witness)
        if evaluations + cand[0].shape[0] > plan.budget:
            break
        offer(np.asarray(score(*cand), dtype=float), lambda i: tuple(a[i] for a in cand))
        trace.append(best)
    converged = (len(trace) >= 2
                 and trace[-1] - trace[-2] <= sampling.PLATEAU_RTOL * max(trace[-1], 1e-300))
    return sampling.NormEstimate(value=base + best, base=base, sup=best, witness=witness[0],
                                 trace=trace, level_trace=level_trace, converged=converged,
                                 evaluations=evaluations,
                                 witness_partner=witness[1] if len(witness) > 1 else None)


def per_round_estimate(density_fn, dim, plan, base=0.0):
    """Reference: `estimate_supremum` drawing each round's jitter when it
    proposes, and halving its box after the round."""
    rng = np.random.default_rng(plan.seed)
    Z, levels = stratified_grid(dim, plan, rng)
    r_cap, radii = plan.max_radius(), plan.radii()
    n_refine = max(8, plan.angular_count)
    dr = dt = None

    def propose(witness):
        nonlocal dr, dt
        (w,) = witness
        w_r = np.abs(w)
        w_t = np.angle(w)
        if dr is None:
            lo = radii[np.maximum(np.searchsorted(radii, w_r - 1e-15) - 1, 0)]
            hi = radii[np.minimum(np.searchsorted(radii, w_r + 1e-15, side="right"),
                                  radii.size - 1)]
            dr = np.maximum(np.maximum(hi - w_r, w_r - lo), 1e-6)
            dt = np.where(w_r < dr, np.pi, 2.0 * np.pi / max(plan.angular_count, 8) * 2.0)
        u = 2.0 * rng.random((2, n_refine, dim)) - 1.0
        r = np.minimum(np.maximum(w_r[None, :] + dr[None, :] * u[0], 0.0), r_cap)
        t = w_t[None, :] + dt[None, :] * u[1]
        dr *= 0.5
        dt *= 0.5
        return (r * np.exp(1j * t),)

    per = max(1, min(plan.angular_count, plan.budget // (plan.radial_levels + 1) ** dim))
    return sequential_maximise(density_fn, (density_fn(Z), levels[::per], lambda i: (Z[i],)),
                               propose, plan, base=base)


def per_round_lipschitz(f, p, plan):
    """Reference: `lipschitz_norm_estimate` below p = 1 drawing each end's
    jitter when it proposes a round, computing the gradient pairs of the
    best pair (and in the first round of the seeds) in every round, and
    halving its box after the round."""
    rng = np.random.default_rng(plan.seed)
    Z, perm, levels, separations = norms._grid_pairs(f.dim, plan, rng, p)
    n_refine, box, r_cap = max(8, plan.angular_count), 0.2, plan.max_radius()
    sub = Z[::max(1, Z.shape[0] // 256)]
    seeds = sub[np.argsort(-norms._gradient_norm_fn(f)(sub), kind="stable")[:8]]

    def propose(witness):
        nonlocal box, seeds
        lefts, rights = [], []
        for anchor, partner in (witness, witness[::-1]):
            u = rng.random((2, n_refine, f.dim)) - 0.5
            lefts.append(norms._clip(anchor[None, :] + (box * u[0] + 1j * box * u[1]), r_cap))
            rights.append(np.broadcast_to(partner, lefts[-1].shape))
        left, right = norms._gradient_pairs(f, np.concatenate([np.stack(witness), seeds]), r_cap)
        seeds, box = seeds[:0], box * 0.5
        return np.concatenate(lefts + [left]), np.concatenate(rights + [right])

    grid = (norms._grid_pair_quotients(f, Z, perm, separations), levels,
            lambda i: (Z[i], Z[perm[i]]))
    base = abs(f.value(np.zeros(f.dim, dtype=complex)))
    return sequential_maximise(lambda L, R: norms._pair_quotients(f, p, L, R), grid, propose,
                               plan, base=base)


def assert_same_estimate(est, ref):
    assert (est.value, est.base, est.sup) == (ref.value, ref.base, ref.sup)
    np.testing.assert_array_equal(bits(est.witness), bits(ref.witness))
    assert (est.witness_partner is None) == (ref.witness_partner is None)
    if ref.witness_partner is not None:
        np.testing.assert_array_equal(bits(est.witness_partner), bits(ref.witness_partner))
    assert est.trace == ref.trace and est.level_trace == ref.level_trace
    assert (est.evaluations, est.converged) == (ref.evaluations, ref.converged)


# a plan whose budget stops the rounds before max_rounds at dims 1-3
BUDGET_STOPPED = SamplingPlan(radial_levels=6, angular_count=16, max_rounds=100, budget=1000)


def budget_exact(dim):
    """A plan whose budget takes the grid and exactly three rounds at dim."""
    plan = SamplingPlan(radial_levels=6, angular_count=16, max_rounds=100)
    return replace(plan, budget=len(stratified_grid(dim, plan)[0]) + 3 * 16)


@pytest.mark.parametrize("plan", [SamplingPlan(), BUDGET_STOPPED, SamplingPlan(max_rounds=0),
                                  SamplingPlan(max_rounds=1), SamplingPlan(max_rounds=2),
                                  budget_exact],
                         ids=["default", "budget-stopped", "no-rounds", "rounds-1", "rounds-2",
                              "budget-exact"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_jitter_draw_equals_per_round_draws(dim, plan):
    # the jitter of every round drawn at once and scaled by the box schedule
    # is bit-equal to one draw per round, also where the last round fills the budget
    plan = budget_exact(dim) if plan is budget_exact else plan
    corpus = default_function_corpus(dim)
    for f in corpus[::16] + corpus[-1:]:
        density = bloch_density_fn(f, 1.0)
        est = estimate_supremum(density, dim, plan)
        assert_same_estimate(est, per_round_estimate(density, dim, plan))
        if plan.max_rounds == 100:  # the budget stops the rounds
            assert len(est.trace) - 1 < plan.max_rounds
            assert plan is BUDGET_STOPPED or (len(est.trace), est.evaluations) == (4, plan.budget)


def test_many_rounds_allocate_for_the_rounds_the_budget_leaves():
    # rounds past what the budget affords are never drawn
    def peak(plan):
        tracemalloc.start()
        try:
            est = estimate_supremum(modulus_density, 2, plan)
            return est, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    many, many_peak = peak(SamplingPlan(max_rounds=10**6))
    default, default_peak = peak(SamplingPlan())
    assert len(default.trace) < len(many.trace) < 10**6 and many.evaluations <= 60_000
    assert many_peak < 2 * default_peak


def test_plans_past_level_51_are_refused():
    with pytest.raises(ValueError, match="at most 51"):
        SamplingPlan(radial_levels=52)
    assert SamplingPlan(radial_levels=51).max_radius() < 1.0
    # the largest level the command line takes still doubles into a valid plan
    assert SamplingPlan(radial_levels=50).doubled().radial_levels == 51
    with pytest.raises(ValueError, match="at most 51"):
        SamplingPlan(radial_levels=51).doubled()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_outermost_grid_stays_strictly_inside(dim):
    Z, _ = stratified_grid(dim, SamplingPlan(radial_levels=51))
    for k in range(dim):
        assert np.all(one_minus_sq(np.abs(Z[:, k])) > 0.0)


# ---------------------------------------------------------------------------
# The estimators against `sequential_maximise`, one round per score call.

ROUND_PLANS = [SamplingPlan(), BUDGET_STOPPED] + [SamplingPlan(max_rounds=r) for r in (0, 1, 2)]
ROUND_PLAN_IDS = ["default", "budget-stopped", "rounds-0", "rounds-1", "rounds-2"]


def dense_polynomial(dim):
    return polynomial_corpus(dim, count=1, seed=dim)[0]


def estimator_functions(dim):
    corpus = default_function_corpus(dim)
    return corpus[::24] + [dense_polynomial(dim)]


@pytest.mark.parametrize("plan", ROUND_PLANS, ids=ROUND_PLAN_IDS)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bloch_and_lipschitz_estimates_equal_sequential_rounds(dim, plan):
    for f in estimator_functions(dim):
        base = abs(f.value(np.zeros(dim, dtype=complex)))
        assert_same_estimate(bloch_norm_estimate(f, 1.0, plan),
                             per_round_estimate(bloch_density_fn(f, 1.0), dim, plan, base))
        assert_same_estimate(lipschitz_norm_estimate(f, 1.0, plan),
                             per_round_estimate(norms._gradient_norm_fn(f), dim, plan, base))
        assert_same_estimate(lipschitz_norm_estimate(f, 0.5, plan),
                             per_round_lipschitz(f, 0.5, plan))


@pytest.mark.parametrize("kept", [False, True], ids=["unkept", "kept-map"])
@pytest.mark.parametrize("plan", ROUND_PLANS, ids=ROUND_PLAN_IDS)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_criterion_estimates_equal_sequential_rounds(dim, plan, kept, monkeypatch):
    monkeypatch.setattr(criteria, "_kept", None)
    for _, phi in default_selfmap_corpus(dim)[::2]:
        for p, q in ((0.5, 1.0), (2.0, 0.5)):
            if kept:
                criteria.classify(phi, 1.0, 1.0, plan)
            est = criteria.boundedness_check(phi, p, q, plan)[1]
            assert_same_estimate(est, per_round_estimate(criteria.criterion_density_fn(phi, p, q),
                                                         dim, plan))


def probed(value, estimate=estimate_supremum):
    """estimate of the density value(call, Z) at dim 2, with the batches it scored."""
    batches = []

    def probe(Z):
        batches.append(Z)
        return value(len(batches) - 1, Z)

    return estimate(probe, 2, SamplingPlan()), batches


def test_a_constant_density_scores_one_round_per_call():
    est, batches = probed(lambda call, Z: np.ones(len(Z)))
    assert [len(Z) for Z in batches[1:]] == [64] * 12
    assert est.trace == [1.0] * 13 and est.evaluations == sum(map(len, batches))


def test_a_density_that_gains_every_round_scores_one_round_per_call():
    est, batches = probed(lambda call, Z: np.full(len(Z), float(call)))
    assert [len(Z) for Z in batches[1:]] == [64] * 12 and est.trace == list(map(float, range(13)))


def gain_in_round_5(call, Z):
    """1 at a grid point off the origin, then 2 on all of round 5 (call 6)."""
    vals = np.full(len(Z), 2.0 if call == 6 else 0.0)
    if call == 0:
        vals[1000] = 1.0
    return vals


def test_a_gain_in_a_later_round_moves_the_witness():
    # the rounds after round 5 are proposed around its best point, as the
    # reference proposes them
    est, batches = probed(gain_in_round_5)
    ref, ref_batches = probed(gain_in_round_5, per_round_estimate)
    assert est.trace == [1.0] * 6 + [2.0] * 7
    np.testing.assert_array_equal(bits(est.witness), bits(batches[6][0]))
    assert_same_estimate(est, ref)
    for Z, Z_ref in zip(batches, ref_batches, strict=True):
        np.testing.assert_array_equal(bits(Z), bits(Z_ref))


@pytest.mark.parametrize("p", [0.25, 0.75])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lipschitz_rounds_make_one_gradient_pairs_call_each(dim, p, monkeypatch):
    # a round's gradient pairs, of both ends and in round 0 of the 8 seeds
    # too, come from one call, as the reference's come once per proposed round
    calls, original = [], norms._gradient_pairs

    def counted(f, anchors, r_cap):
        calls.append(len(anchors))
        return original(f, anchors, r_cap)

    monkeypatch.setattr(norms, "_gradient_pairs", counted)
    for f in estimator_functions(dim):
        est = lipschitz_norm_estimate(f, p, SamplingPlan())
        est_calls, calls[:] = calls[:], []
        assert_same_estimate(est, per_round_lipschitz(f, p, SamplingPlan()))
        assert est_calls == calls and calls[0] == 2 + 8 and set(calls[1:]) <= {2}
        assert len(est.trace) - 1 <= len(calls) <= len(est.trace)
        calls.clear()


@pytest.mark.parametrize("dim", [1, 2])
def test_rounds_the_budget_refuses_are_never_drawn(dim):
    # the grid takes all but a few evaluations of the budget, so no round of
    # 10^6 points runs; none is drawn or built either
    plan = SamplingPlan(angular_count=10**6)
    f = dense_polynomial(dim)

    def peak(estimate, plan):
        sampling._kept_grid = None
        tracemalloc.start()
        try:
            return estimate(plan), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for estimate in (lambda plan: bloch_norm_estimate(f, 1.0, plan),
                     lambda plan: lipschitz_norm_estimate(f, 0.5, plan)):
        est, est_peak = peak(estimate, plan)
        ref, ref_peak = peak(estimate, replace(plan, max_rounds=0))
        assert est.to_json() == ref.to_json() and len(est.trace) == 1
        assert est_peak <= 1.5 * ref_peak


# ---------------------------------------------------------------------------
# A score `maximise` refines gives a candidate the same bits in any batch.
# This guards `criteria`'s kept batch parts (`_Kept.batches`) and a
# refinement that scores the rounds of several starts in one batch.

def batches_of(dim, seed):
    rng = np.random.default_rng(seed)

    def points(n):
        return np.sqrt(rng.random((n, dim))) * np.exp(2j * np.pi * rng.random((n, dim))) * 0.999

    return [points(1), points(2), points(64)] + [points(64) for _ in range(10)]


def assert_batch_independent(score, batches):
    whole = score(*(np.concatenate(side) for side in zip(*batches)))
    alone = np.concatenate([score(*batch) for batch in batches])
    np.testing.assert_array_equal(whole.view(np.uint64), alone.view(np.uint64))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_point_scores_do_not_depend_on_their_batch(dim):
    batches = [(Z,) for Z in batches_of(dim, dim)]
    for f in default_function_corpus(dim)[::5] + polynomial_corpus(dim, count=3, seed=dim):
        assert_batch_independent(bloch_density_fn(f, 1.5), batches)
        assert_batch_independent(norms._gradient_norm_fn(f), batches)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pair_quotients_do_not_depend_on_their_batch(dim):
    lefts, rights = batches_of(dim, dim), batches_of(dim, dim + 10)
    # a batch's partners repeat, as a round's do
    rights[5] = np.broadcast_to(rights[5][0], rights[5].shape)
    for f in default_function_corpus(dim)[::5] + polynomial_corpus(dim, count=3, seed=dim):
        assert_batch_independent(lambda L, R: norms._pair_quotients(f, 0.5, L, R),
                                 list(zip(lefts, rights)))


@pytest.mark.parametrize("kept", [False, True], ids=["unkept", "kept-map"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_criterion_scores_do_not_depend_on_their_batch(dim, kept, monkeypatch):
    batches = [(Z,) for Z in batches_of(dim, dim)]
    for _, phi in default_selfmap_corpus(dim):
        monkeypatch.setattr(criteria, "_kept", None)
        if kept:
            criteria.classify(phi, 1.0, 1.0, SamplingPlan(max_rounds=0))
        parts = criteria._batch_parts(phi)
        for p, q in ((0.5, 1.0), (2.0, 3.0)):
            assert_batch_independent(lambda Z: parts(Z).combine(p, q), batches)


GC_PLAN = SamplingPlan(seed=5, radial_levels=10, angular_count=24, max_rounds=8, budget=15_000)


def run_estimators():
    """The estimators whose refinement closures `maximise` calls."""
    f = polynomial_corpus(2, count=1, seed=4)[0]
    _, phi = default_selfmap_corpus(2)[-1]
    bloch_norm_estimate(f, 1.0, GC_PLAN)
    lipschitz_norm_estimate(f, 0.5, GC_PLAN)
    lipschitz_norm_estimate(f, 1.0, GC_PLAN)
    criteria.boundedness_check(phi, 1.0, 1.0, GC_PLAN)
    criteria.classify(phi, 1.0, 1.0, GC_PLAN)


def assert_leaves_no_cycle(run):
    """run() frees everything it makes by reference counting: with the cyclic
    collector off, a later collection finds nothing unreachable.  A first run
    lets lazy set-up finish, which may make cycles of its own."""
    run()
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_estimators_leave_no_reference_cycle():
    # a cycle keeps an estimate's jitter draw alive until the collector runs,
    # which the bench sees only as resident memory
    assert_leaves_no_cycle(run_estimators)


def test_planted_refinement_cycle_is_caught(monkeypatch):
    original = sampling.maximise

    def maximise_with_cyclic_propose(score, grid, propose, plan, base=0.0):
        def cyclic(witness, j):  # refers to itself through its closure
            return propose(witness, j) if cyclic else None

        return original(score, grid, cyclic, plan, base=base)

    # norms imports maximise by name
    monkeypatch.setattr(sampling, "maximise", maximise_with_cyclic_propose)
    monkeypatch.setattr(norms, "maximise", maximise_with_cyclic_propose)
    with pytest.raises(AssertionError):
        assert_leaves_no_cycle(run_estimators)
