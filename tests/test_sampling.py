"""The broadcast sampler against its loop references.

`stratified_grid` and the per-level trace of `maximise` are array
expressions; the loops below are the per-combination and per-level versions
they replace.  The grid must match its reference bit for bit and leave the
generator in the same state, because estimators keep drawing from it after
the grid.  That holds as well when `stratified_grid` returns its kept grid
instead of drawing one.  Grids are coordinate-major (Z[:, k] contiguous), so
they are compared through a C-ordered copy of their bits.  The last tests check the refinement box that
`estimate_supremum` opens around an origin witness, and the grid values a
caller may hand it.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
