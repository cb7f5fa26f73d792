"""Norm estimation: densities, supremum estimates vs independent oracles,
seminorm closed form, point-evaluation bound factors."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from blochlab import norms, sampling
from blochlab.corpus import default_function_corpus, polynomial_corpus
from blochlab.criteria import boundedness_check, lip1_boundedness_check
from blochlab.holo import Const, MoebiusFactor, ScaledKernel, Series, identity_map
from blochlab.norms import (
    _gradient_norm_fn,
    _grid_pair_quotients,
    _grid_pairs,
    _pair_quotients,
    bloch_density_fn,
    bloch_norm_estimate,
    bloch_norm_estimates,
    lipschitz_norm_estimate,
    one_minus_sq,
    pointeval_bound,
    shared_estimates,
    timoney_q_fn,
)
from blochlab.oracle import uniform_points
from blochlab.sampling import SamplingPlan, estimate_supremum, stratified_grid
from blochlab.testfuncs import TestFunction

PLAN = SamplingPlan(seed=7)
# Single-start refinement halves its box every round, so a first round off the
# boundary angle never gets back (ROADMAP item 3(b)).
MOEBIUS_MISS = pytest.mark.xfail(strict=True, reason="3.7e-9, 5.3e-5 and 8.0e-4 below "
                                 "at seeds 1-3: single-start refinement")


class TestBlochDensity:
    def test_monomial_at_origin(self):
        f = Series({(1,): 1.0}, 1)
        assert bloch_density_fn(f, 1.0)([0.0]) == pytest.approx(1.0)

    def test_monomial_weight(self):
        f = Series({(1,): 1.0}, 1)
        assert bloch_density_fn(f, 1.0)([0.5]) == pytest.approx(0.75, rel=1e-14)

    def test_constant_zero(self):
        f = Const(3.0, 2)
        assert bloch_density_fn(f, 1.0)([0.4, -0.2j]) == 0.0


class TestDensityFromModuli:
    """The densities take |df/dz_k| from abs_val: no complex kernel power."""

    def test_no_complex_kernel_power(self, monkeypatch):
        rng = np.random.default_rng(4)
        Z = np.sqrt(rng.random((300, 3))) * np.exp(2j * np.pi * rng.random((300, 3)))
        members = [TestFunction("f", 1, 0.6 - 0.5j, 1.5, 3), TestFunction("g", 2, 0.9, 2.0, 3),
                   TestFunction("h", 1, 0.3j, 0.5, 3)]
        weights = one_minus_sq(np.abs(Z))
        refs = []
        for t in members:
            moduli = np.stack([np.abs(pk.val(Z)) for pk in t.partials()], axis=-1)
            refs.append((np.sum(moduli * weights ** t.p, axis=-1),
                         np.sqrt(np.sum(moduli ** 2 * weights ** 2, axis=-1))))

        def refuse(self, Z):
            raise AssertionError("a density evaluated a complex kernel power")

        monkeypatch.setattr(ScaledKernel, "val", refuse)
        for t, (dens, q) in zip(members, refs):
            np.testing.assert_allclose(bloch_density_fn(t, t.p)(Z), dens, rtol=4e-15)
            np.testing.assert_allclose(timoney_q_fn(t)(Z), q, rtol=4e-15)


def assert_bits_equal(actual, expected):
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


class TestDensityKernel:
    """The Bloch and Q densities equal, bit for bit, a per-axis loop over
    every partial, the zero ones included (each adds an exact 0)."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_densities_equal_a_per_axis_loop(self, dim):
        Z = uniform_points(dim, 64, seed=dim, rmax=0.999)
        weights = [one_minus_sq(np.abs(Z[:, k])) for k in range(dim)]
        for f in default_function_corpus(dim, seed=0):
            moduli = [pk.abs_val(Z) for pk in f.partials()]
            for p in (0.5, 1.0, 2.0):
                ref = np.zeros(len(Z))
                for m, w in zip(moduli, weights):
                    ref += m * w ** p
                assert_bits_equal(bloch_density_fn(f, p)(Z), ref)
            ref = np.zeros(len(Z))
            for m, w in zip(moduli, weights):
                ref += m ** 2 * w ** 2
            assert_bits_equal(timoney_q_fn(f)(Z), np.sqrt(ref))


class TestBlochNormEstimate:
    def test_coordinate_monomial(self):
        # density (1 - r^2)^p peaks at the center with value 1
        f = Series({(1,): 1.0}, 1)
        for p in (0.5, 1.0, 2.0):
            est = bloch_norm_estimate(f, p, PLAN)
            assert est.value == pytest.approx(1.0, abs=1e-12)
            assert abs(est.witness[0]) < 1e-9

    def test_square_monomial_against_grid_oracle(self):
        # independent oracle: brute-force the radial profile 2 r (1 - r^2)
        r = np.linspace(0.0, 1.0, 2_000_001)[:-1]
        oracle = float(np.max(2.0 * r * (1.0 - r * r)))
        analytic = 4.0 / (3.0 * np.sqrt(3.0))
        assert oracle == pytest.approx(analytic, abs=1e-12)

        f = Series({(2,): 1.0}, 1)
        est = bloch_norm_estimate(f, 1.0, PLAN)
        assert est.value <= analytic + 1e-12      # lower bound by construction
        assert est.value == pytest.approx(analytic, abs=1e-6)
        assert est.converged

    def test_constant_only_base(self):
        est = bloch_norm_estimate(Const(3.0, 1), 2.0, PLAN)
        assert est.value == pytest.approx(3.0)
        assert est.sup == 0.0

    def test_trace_monotone(self):
        f = Series({(2, 1): 1.0, (0, 1): -0.5j}, 2)
        est = bloch_norm_estimate(f, 1.0, PLAN)
        assert np.all(np.diff(est.trace) >= 0)
        assert np.all(np.diff(est.level_trace) >= 0)

    def test_value_is_base_plus_witness_density(self):
        f = Series({(2,): 1.0, (0,): 1.5}, 1)
        est = bloch_norm_estimate(f, 1.0, PLAN)
        assert est.value == pytest.approx(est.base + bloch_density_fn(f, 1.0)(est.witness),
                                          rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_default_plan_stays_within_budget(self, dim):
        plan = SamplingPlan()
        f = Series({(1,) * dim: 1.0}, dim)
        est = estimate_supremum(bloch_density_fn(f, 1.0), dim, plan)
        assert est.evaluations <= plan.budget
        assert len(est.trace) > 1


def assert_same_estimate(est, ref):
    assert est.value == ref.value and est.sup == ref.sup
    np.testing.assert_array_equal(est.witness.view(float), ref.witness.view(float))
    assert (est.witness_partner is None) == (ref.witness_partner is None)
    if ref.witness_partner is not None:
        np.testing.assert_array_equal(est.witness_partner.view(float),
                                      ref.witness_partner.view(float))
    assert est.trace == ref.trace and est.level_trace == ref.level_trace
    assert est.evaluations == ref.evaluations and est.converged == ref.converged


class TestBlochNormEstimates:
    """One pass of the partial moduli over the grid serves several exponents."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_multi_exponent_equals_one_exponent(self, dim):
        ps = (0.5, 1.0, 2.0)
        plan = SamplingPlan(radial_levels=10, angular_count=24, budget=20_000, seed=dim)
        for f in default_function_corpus(dim, seed=dim):
            base = abs(f.value(np.zeros(dim, dtype=complex)))
            for p, est in zip(ps, bloch_norm_estimates(f, ps, plan)):
                # the reference: the density closure itself scores the grid
                assert_same_estimate(est, estimate_supremum(bloch_density_fn(f, p), dim, plan,
                                                            base=base))
                assert_same_estimate(est, bloch_norm_estimate(f, p, plan))

    def test_default_plan_dim3_polynomial(self):
        ps = (0.5, 1.0, 2.0)
        plan = SamplingPlan()
        f = polynomial_corpus(3, count=1, seed=0)[0]
        for p, est in zip(ps, bloch_norm_estimates(f, ps, plan)):
            assert_same_estimate(est, estimate_supremum(bloch_density_fn(f, p), 3, plan,
                                                        base=abs(f.value([0, 0, 0]))))

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            bloch_norm_estimates(Series({(1,): 1.0}, 1), (1.0, 0.0), PLAN)


class TestSharedEstimates:
    """Inside a shared_estimates block each (function, exponent, plan) is
    estimated once; a served estimate is the one a fresh call gives."""

    plan = SamplingPlan(radial_levels=10, angular_count=24, budget=20_000, seed=3)

    def count_estimates(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return estimate_supremum(*args, **kwargs)

        monkeypatch.setattr(norms, "estimate_supremum", counted)
        return calls

    def test_equal_polynomials_share_an_estimate(self, monkeypatch):
        calls = self.count_estimates(monkeypatch)
        f = polynomial_corpus(2, count=1, seed=4)[0]
        twin = polynomial_corpus(2, count=1, seed=4)[0]
        with shared_estimates():
            first = bloch_norm_estimates(f, (0.5, 1.0), self.plan)
            served = bloch_norm_estimates(twin, (1.0, 2.0), self.plan)
            assert served[0] is first[1]
            assert len(calls) == 3
            bloch_norm_estimate(f, 1.0, self.plan.doubled())
            assert len(calls) == 4
        fresh = bloch_norm_estimate(twin, 1.0, self.plan)
        assert fresh is not served[0]
        assert_same_estimate(served[0], fresh)

    def test_other_functions_are_keyed_by_the_object(self, monkeypatch):
        calls = self.count_estimates(monkeypatch)
        with shared_estimates():
            for f in (TestFunction("h", 1, 0.4, 1.0, 2), MoebiusFactor(2, 0, 0.3)):
                served = bloch_norm_estimate(f, 1.0, self.plan)
                assert bloch_norm_estimate(f, 1.0, self.plan) is served
                assert_same_estimate(served, bloch_norm_estimates(f, (1.0,), self.plan)[0])
            bloch_norm_estimate(TestFunction("h", 1, 0.4, 1.0, 2), 1.0, self.plan)
        assert len(calls) == 3

    def test_no_memo_outside_a_block(self, monkeypatch):
        calls = self.count_estimates(monkeypatch)
        f = Series({(1, 1): 0.5, (2, 0): 0.25j}, 2)
        assert norms._memo.get() is None
        first = bloch_norm_estimate(f, 1.0, self.plan)
        assert bloch_norm_estimate(f, 1.0, self.plan) is not first
        with pytest.raises(RuntimeError):
            with shared_estimates():
                bloch_norm_estimate(f, 1.0, self.plan)
                raise RuntimeError
        assert norms._memo.get() is None
        assert len(calls) == 3


class TestTimoneyQ:
    def test_linear_two_vars(self):
        f = Series({(1, 0): 1.0, (0, 1): 1.0}, 2)
        assert timoney_q_fn(f)([0.0, 0.0]) == pytest.approx(np.sqrt(2.0), rel=1e-14)

    def test_single_coordinate(self):
        f = Series({(1, 0): 1.0}, 2)
        assert timoney_q_fn(f)([0.0, 0.0]) == pytest.approx(1.0)

    def test_constant(self):
        assert timoney_q_fn(Const(5.0, 2))([0.1, 0.2]) == 0.0

    def test_direct_maximization_agrees(self):
        # maximize |<grad f, u>| / sqrt(H) over many directions; must approach
        # (and never exceed) the closed form
        rng = np.random.default_rng(5)
        f = Series({(2, 0): 1.0, (1, 1): 1j, (0, 2): -0.5}, 2)
        z = np.array([0.4 - 0.1j, 0.3 + 0.5j])
        closed = timoney_q_fn(f)(z)
        g = np.array([pk.value(z) for pk in f.partials()])
        w = (1.0 - np.abs(z) ** 2) ** 2
        best = 0.0
        for _ in range(20000):
            u = rng.normal(size=2) + 1j * rng.normal(size=2)
            H = np.sum(np.abs(u) ** 2 / w)
            best = max(best, abs(np.dot(g, u)) / np.sqrt(H))
        assert best <= closed * (1 + 1e-12)
        assert best == pytest.approx(closed, rel=1e-3)
        # the optimizer direction u_k = conj(g_k) w_k attains it
        u_star = np.conj(g) * w
        H = np.sum(np.abs(u_star) ** 2 / w)
        assert abs(np.dot(g, u_star)) / np.sqrt(H) == pytest.approx(closed, rel=1e-14)


class TestPointevalBound:
    def test_small_exponent_constant(self):
        # (1 - 0.5 + 1) / (1 - 0.5) = 3, z-independent
        for z in ([0.0], [0.9], [0.5j]):
            assert pointeval_bound(0.5, z) == pytest.approx(3.0)

    def test_unit_exponent_log_factor(self):
        # ((ln 2 + 1)/ln 2) * ln 2 = 1 + ln 2 at the origin
        assert pointeval_bound(1.0, [0.0]) == pytest.approx(1.0 + np.log(2.0), rel=1e-14)

    def test_large_exponent(self):
        # ((2 + 1)/1) * 1 = 3 at the origin for p = 2, n = 1
        assert pointeval_bound(2.0, [0.0]) == pytest.approx(3.0)

    def test_rejects_boundary(self):
        for p in (0.5, 1.0, 2.0):
            with pytest.raises(ValueError):
                pointeval_bound(p, [[0.1, 0.2], [1.0, 0.0]])


class TestLipschitzNorm:
    def test_constant(self):
        est = lipschitz_norm_estimate(Const(2.0 - 1j, 1), 0.5, PLAN)
        assert est.value == pytest.approx(abs(2.0 - 1j))
        assert est.sup == 0.0

    def test_coordinate_function_unit_quotient(self):
        # |z_1 - w_1| <= |z - w| with equality on first-coordinate pairs
        f = Series({(1, 0): 1.0}, 2)
        est = lipschitz_norm_estimate(f, 1.0, PLAN)
        assert est.value == pytest.approx(1.0, abs=1e-9)
        assert est.value <= 1.0 + 1e-12

    def test_scaling(self):
        f = Series({(1,): 5.0}, 1)
        est = lipschitz_norm_estimate(f, 1.0, PLAN)
        assert est.value == pytest.approx(5.0, abs=1e-8)

    def test_moebius_component_plateau(self):
        # sup |phi'| = (1 - |a|^2)/(1 - |a|)^2 = 19 for a = 0.9
        m = MoebiusFactor(1, 0, 0.9)
        est = lipschitz_norm_estimate(m, 1.0, SamplingPlan(seed=3, budget=120_000))
        assert est.converged
        assert est.value <= 19.0 * (1 + 1e-6) + abs(m.value([0.0]))
        assert est.value >= 10.0  # the quotient genuinely grows near the boundary

    def test_witness_pair_rescores_to_sup(self):
        f = Series({(2, 1): 1.0, (0, 1): -0.5j}, 2)
        est = lipschitz_norm_estimate(f, 0.5, PLAN)
        quotient = _pair_quotients(f, 0.5, est.witness[None, :], est.witness_partner[None, :])
        assert quotient[0] == est.sup

    def test_unit_exponent_witness_rescores_to_sup(self):
        # a point witness; a one-row kernel evaluation may differ in its last bit
        for f in (MoebiusFactor(1, 0, 0.6), Series({(1,): 5.0}, 1),
                  Series({(2, 1): 1.0, (0, 1): -0.5j}, 2)):
            est = lipschitz_norm_estimate(f, 1.0, PLAN)
            assert est.witness_partner is None
            density = _gradient_norm_fn(f)(est.witness[None, :])[0]
            assert density == pytest.approx(est.sup, rel=1e-14, abs=0.0)

    def test_dim3_witness_pair_rescores_to_sup(self):
        # members 1 and 3 need a one-point value bit-equal to the batch value
        for f in polynomial_corpus(3, count=4, seed=8):
            est = lipschitz_norm_estimate(f, 0.5, SamplingPlan(seed=1))
            quotient = _pair_quotients(f, 0.5, est.witness[None, :],
                                       est.witness_partner[None, :])
            assert quotient[0] == est.sup

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_grid_pair_scores_equal_pair_quotients(self, dim):
        plan = SamplingPlan(radial_levels=8, angular_count=16, seed=dim)
        grid, grid_levels = stratified_grid(dim, plan)
        for p in (0.5, 1.0):
            Z, perm, levels, separations = _grid_pairs(dim, plan,
                                                       np.random.default_rng(plan.seed), p)
            assert Z is grid
            np.testing.assert_array_equal(levels, np.maximum(grid_levels, grid_levels[perm]))
            for f in default_function_corpus(dim, seed=dim)[::4]:
                np.testing.assert_array_equal(_grid_pair_quotients(f, Z, perm, separations),
                                              _pair_quotients(f, p, Z, Z[perm]))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_kept_grid_draws_no_grid(self, dim, monkeypatch):
        plan = SamplingPlan(radial_levels=8, angular_count=16, seed=dim)
        stratified_grid(dim, plan)  # keeps the grid of (dim, plan)
        draws = []
        draw = sampling._draw_grid
        monkeypatch.setattr(sampling, "_draw_grid", lambda *a: draws.append(a) or draw(*a))
        f = polynomial_corpus(dim, count=1, seed=0)[0]
        lipschitz_norm_estimate(f, 0.5, plan)
        bloch_norm_estimates(f, (0.5, 2.0), plan)
        assert draws == []

    def test_traces_nondecreasing(self):
        f = Series({(2, 1): 1.0, (0, 1): -0.5j, (3, 0): 0.25}, 2)
        for p in (0.5, 1.0):
            est = lipschitz_norm_estimate(f, p, PLAN)
            assert len(est.trace) > 1
            assert np.all(np.diff(est.trace) >= 0)
            assert np.all(np.diff(est.level_trace) >= 0)

    @pytest.mark.parametrize("dim, a, seed", [
        pytest.param(dim, a, seed, marks=MOEBIUS_MISS if (dim, a) == (2, 0.9) and seed else ())
        for dim in (1, 2) for a in (0.3, 0.9, 0.5 + 0.4j) for seed in range(4)])
    def test_unit_exponent_moebius_known_answer(self, dim, a, seed):
        # sup |phi'| over the sampled closed polydisk of radius r_cap is taken
        # at z_0 = r_cap a / |a|; the norm adds |phi(0)| = |a|
        plan = SamplingPlan(seed=seed)
        r_cap = plan.max_radius()
        exact = (1.0 - abs(a) ** 2) / (1.0 - abs(a) * r_cap) ** 2 + abs(a)
        est = lipschitz_norm_estimate(MoebiusFactor(dim, 0, a), 1.0, plan)
        assert exact * (1.0 - 1e-9) <= est.value <= exact * (1.0 + 1e-12)

    @pytest.mark.parametrize("p", [0.5, 0.9])
    @pytest.mark.parametrize("f", [TestFunction("h", 1, 0.6 - 0.3j, 2.0, 2),
                                   TestFunction("h", 1, 0.8, 2.0, 2),
                                   TestFunction("g", 2, 0.8, 2.0, 3),
                                   TestFunction("h", 2, 0.8, 2.0, 3)], ids=repr)
    def test_short_separation_peak_near_the_boundary(self, f, p):
        # below exponent 1 these steep members peak at pairs a short way apart
        # around z_l = w/|w| (and z_0 = 1 for 'h'); every pair of a local polar
        # grid there on the axis l bounds the sup from below
        plan = SamplingPlan()
        r_cap = plan.max_radius()
        radii = np.append(1.0 - 0.5 ** np.arange(4, 14), r_cap)
        angles = np.angle(f.w) + np.linspace(-0.4, 0.4, 81)
        local = np.zeros((radii.size * angles.size, f.dim), dtype=complex)
        local[:, 0] = r_cap
        local[:, f.axis] = (radii[:, None] * np.exp(1j * angles)).ravel()
        i, j = np.triu_indices(local.shape[0], 1)
        reference = _pair_quotients(f, p, local[i], local[j]).max()
        est = lipschitz_norm_estimate(f, p, plan)
        assert est.sup >= 0.98 * reference

    def test_unit_exponent_identity_holds_at_dim3(self):
        assert lip1_boundedness_check(identity_map(3)).verdict == "holds"

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_unit_exponent_reaches_short_coordinate_pairs(self, dim):
        plan = SamplingPlan()
        Z, _ = stratified_grid(dim, plan)
        left, right = loop_coordinate_pairs(Z[::max(1, Z.shape[0] // 256)])
        for f in default_function_corpus(dim, seed=dim):
            best = _pair_quotients(f, 1.0, left, right).max()
            est = lipschitz_norm_estimate(f, 1.0, plan)
            assert est.sup >= (1.0 - 1e-3) * best, f

    def test_rejects_exponent_above_one(self):
        with pytest.raises(ValueError):
            lipschitz_norm_estimate(Const(1.0, 1), 1.5, PLAN)

    @pytest.mark.parametrize("dim, p", [
        (1, 0.25), (1, 0.5), (1, 0.75), (1, 1.0), (2, 1.0), (3, 1.0),
        pytest.param(3, 0.5, marks=pytest.mark.xfail(
            strict=True, reason="0.47-1.1% low at seeds 0-3: the grid pairs and "
            "single-start refinement miss the best separation (ROADMAP item 3)"))])
    def test_linear_form_known_answer(self, dim, p):
        for seed in range(4):
            c, f = linear_form(dim, seed)
            plan = SamplingPlan(seed=seed)
            exact = linear_form_lipschitz(c, p, plan.max_radius())
            assert abs(lipschitz_norm_estimate(f, p, plan).value - exact) <= 1e-12 * exact


def linear_form(dim, seed):
    """(c, the linear form sum_k c_k z_k) for complex-Gaussian c."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return c, Series({tuple(int(j == k) for j in range(dim)): c[k] for k in range(dim)}, dim)


def linear_form_lipschitz(c, p, r_cap):
    """The p-Lipschitz norm of sum_k c_k z_k over the polydisk |z_k| <= r_cap.

    The differences z - w fill the polydisk of radius 2 r_cap, so the norm is
    (2 r_cap)^(1-p) max over t in (0, 1]^n of sum |c_k| t_k / (sum t_k^2)^(p/2);
    ||c||_2 at p = 1.  At the maximum a set of m coordinates sits at t_k = 1,
    with a the sum of their |c_k|, and every other coordinate at t_k = mu |c_k|,
    where mu is a root (both are positive) of (1 - p) b^2 mu^2 - p a mu + m = 0
    and b^2 is the sum of |c_k|^2 over the others.  The maximum is the best of
    the feasible (t <= 1) candidates over the 2^n - 1 sets.
    """
    mods = np.abs(np.asarray(c, dtype=complex))
    if p == 1.0:
        return float(np.sqrt(np.sum(mods ** 2)))
    best = 0.0
    for ones in itertools.product((False, True), repeat=mods.size):
        ones = np.array(ones)
        if not ones.any():
            continue
        m, a, b2 = ones.sum(), mods[ones].sum(), np.sum(mods[~ones] ** 2)
        if b2 == 0.0:
            best = max(best, a / m ** (p / 2))
            continue
        disc = (p * a) ** 2 - 4.0 * (1.0 - p) * b2 * m
        if disc < 0.0:
            continue
        for s in (-1.0, 1.0):
            mu = (p * a + s * np.sqrt(disc)) / (2.0 * (1.0 - p) * b2)
            t = np.where(ones, 1.0, mu * mods)
            if np.all(t <= 1.0):
                best = max(best, np.sum(mods * t) / np.sum(t ** 2) ** (p / 2))
    return (2.0 * r_cap) ** (1.0 - p) * best


def loop_coordinate_pairs(points, deltas=(1e-2, 1e-4)):
    """Every short pair (z, z + delta * i^j * e_k) with the moved point inside U^n."""
    dim = points.shape[-1]
    left, right = [], []
    for z in points:
        for k in range(dim):
            for delta in deltas:
                for j in range(4):
                    w = z.copy()
                    w[k] = w[k] + delta * 1j ** j
                    if abs(w[k]) < 1.0:
                        left.append(z)
                        right.append(w)
    return np.array(left), np.array(right)


class TestEstimateBudget:
    """Every estimator refines within its plan's budget and converges."""

    CASES = [(dim, SamplingPlan()) for dim in (1, 2, 3)] + [(3, SamplingPlan().doubled())]

    @staticmethod
    def assert_refined(est, plan):
        assert est.evaluations <= plan.budget
        assert len(est.trace) > 1
        assert est.converged

    @pytest.mark.parametrize("dim, plan", CASES, ids=["d1", "d2", "d3", "d3-doubled"])
    def test_estimators_refine_within_budget(self, dim, plan):
        f = Series.coordinate(0, dim)
        for p in (0.5, 1.0):
            self.assert_refined(lipschitz_norm_estimate(f, p, plan), plan)
        self.assert_refined(bloch_norm_estimate(f, 1.0, plan), plan)
        self.assert_refined(boundedness_check(identity_map(dim), 0.5, 1.0, plan)[1], plan)


class TestKeptGridArrays:
    """The arrays that depend on the kept grid alone (the Lipschitz pairing, its
    separations, the Bloch gap columns) are kept with the grid; an estimate is
    the same whether they are warm, cold or evicted, or not kept at all."""

    PLAN = SamplingPlan(radial_levels=8, angular_count=16, seed=5)

    @staticmethod
    def estimates(dim, plan):
        ests = []
        for f in polynomial_corpus(dim, count=2, seed=dim):
            ests.append(lipschitz_norm_estimate(f, 0.5, plan))
            ests.extend(bloch_norm_estimates(f, (0.5, 2.0), plan))
        return ests

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_estimates_equal_warm_cold_and_evicted(self, dim, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(norms, "grid_derived", lambda Z, key, build: build())
            refs = self.estimates(dim, self.PLAN)
        monkeypatch.setattr(sampling, "_kept_grid", None)
        states = {"cold": self.estimates(dim, self.PLAN),
                  "warm": self.estimates(dim, self.PLAN)}
        stratified_grid(dim, replace(self.PLAN, seed=6))
        states["evicted"] = self.estimates(dim, self.PLAN)
        for ests in states.values():
            for est, ref in zip(ests, refs, strict=True):
                assert_same_estimate(est, ref)
                assert est.base == ref.base

    def test_advanced_generator_leaves_the_slot_untouched(self):
        self.estimates(2, self.PLAN)
        slot = sampling._kept_grid
        derived = dict(slot[4])
        rng = np.random.default_rng(self.PLAN.seed)
        rng.random()
        Z, *_ = _grid_pairs(2, self.PLAN, rng, 0.75)
        assert Z is not slot[1]
        assert sampling._kept_grid is slot
        assert slot[4].keys() == derived.keys()
        assert all(slot[4][key] is value for key, value in derived.items())

    def test_kept_arrays_are_read_only(self):
        self.estimates(3, self.PLAN)
        derived = sampling._kept_grid[4]
        assert {"pairs", ("separations", 0.5), ("gap", 0), ("gap", 2)} <= derived.keys()
        arrays = [a for value in derived.values()
                  for a in (value if isinstance(value, tuple) else (value,))
                  if isinstance(a, np.ndarray)]
        assert len(arrays) >= 7
        assert not any(a.flags.writeable for a in arrays)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_generator_ends_where_a_fresh_permutation_leaves_it(self, dim, monkeypatch):
        ref = np.random.default_rng(self.PLAN.seed)
        Z, _ = stratified_grid(dim, self.PLAN, ref)
        ref_perm = ref.permutation(Z.shape[0])
        monkeypatch.setattr(sampling, "_kept_grid", None)
        for _ in ("cold", "warm"):
            rng = np.random.default_rng(self.PLAN.seed)
            _, perm, _, _ = _grid_pairs(dim, self.PLAN, rng, 0.5)
            np.testing.assert_array_equal(perm, ref_perm)
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_warm_grid_pass_gathers_no_partner_columns(self):
        # the grid pass on the 57,375-point default dim-3 grid peaked at 4.0 MiB
        # when it gathered each partner column and took the separations itself
        plan = SamplingPlan()
        f = polynomial_corpus(3, count=1, seed=0)[0]
        Z, perm, _, separations = _grid_pairs(3, plan, np.random.default_rng(plan.seed), 0.5)
        _grid_pair_quotients(f, Z, perm, separations)  # f's evaluation plan is built once
        tracemalloc.start()
        try:
            _grid_pair_quotients(f, Z, perm, separations)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert Z.shape[0] == 57_375
        assert peak < 2.5 * 2**20
