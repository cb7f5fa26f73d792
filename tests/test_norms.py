"""Norm estimation: densities, supremum estimates vs independent oracles,
seminorm closed form, point-evaluation bound factors, truncation gaps."""

import numpy as np
import pytest

from blochlab.holo import Const, MoebiusFactor, Series
from blochlab.norms import (
    _pair_quotients,
    bloch_density,
    bloch_density_fn,
    bloch_norm_estimate,
    lipschitz_norm_estimate,
    little_bloch_gap,
    pointeval_bound,
    timoney_q,
)
from blochlab.sampling import SamplingPlan, estimate_supremum

PLAN = SamplingPlan(seed=7)


class TestBlochDensity:
    def test_monomial_at_origin(self):
        f = Series({(1,): 1.0}, 1)
        assert bloch_density(f, 1.0, [0.0]) == pytest.approx(1.0)

    def test_monomial_weight(self):
        f = Series({(1,): 1.0}, 1)
        assert bloch_density(f, 1.0, [0.5]) == pytest.approx(0.75, rel=1e-14)

    def test_constant_zero(self):
        f = Const(3.0, 2)
        assert bloch_density(f, 1.0, [0.4, -0.2j]) == 0.0


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
        assert est.value == pytest.approx(est.base + bloch_density(f, 1.0, est.witness),
                                          rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_default_plan_stays_within_budget(self, dim):
        plan = SamplingPlan()
        f = Series({(1,) * dim: 1.0}, dim)
        est = estimate_supremum(bloch_density_fn(f, 1.0), dim, plan)
        assert est.evaluations <= plan.budget
        assert len(est.trace) > 1


class TestTimoneyQ:
    def test_linear_two_vars(self):
        f = Series({(1, 0): 1.0, (0, 1): 1.0}, 2)
        assert timoney_q(f, [0.0, 0.0]) == pytest.approx(np.sqrt(2.0), rel=1e-14)

    def test_single_coordinate(self):
        f = Series({(1, 0): 1.0}, 2)
        assert timoney_q(f, [0.0, 0.0]) == pytest.approx(1.0)

    def test_constant(self):
        assert timoney_q(Const(5.0, 2), [0.1, 0.2]) == 0.0

    def test_direct_maximization_agrees(self):
        # maximize |<grad f, u>| / sqrt(H) over many directions; must approach
        # (and never exceed) the closed form
        rng = np.random.default_rng(5)
        f = Series({(2, 0): 1.0, (1, 1): 1j, (0, 2): -0.5}, 2)
        z = np.array([0.4 - 0.1j, 0.3 + 0.5j])
        closed = timoney_q(f, z)
        g = f.gradient(z)
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
        for f, p in ((Series({(2, 1): 1.0, (0, 1): -0.5j}, 2), 0.5),
                     (MoebiusFactor(1, 0, 0.6), 1.0),
                     (Series({(1,): 5.0}, 1), 1.0)):
            est = lipschitz_norm_estimate(f, p, PLAN)
            quotient = _pair_quotients(f, p, est.witness[None, :],
                                       est.witness_partner[None, :])
            assert quotient[0] == est.sup

    def test_traces_nondecreasing(self):
        f = Series({(2, 1): 1.0, (0, 1): -0.5j, (3, 0): 0.25}, 2)
        for p in (0.5, 1.0):
            est = lipschitz_norm_estimate(f, p, PLAN)
            assert len(est.trace) > 1
            assert np.all(np.diff(est.trace) >= 0)
            assert np.all(np.diff(est.level_trace) >= 0)

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: at dim 3 the grid pairs plus the coordinate pairs spend "
        "62,762 evaluations of the 60,000 default budget, so no refinement round "
        "runs and the estimate never converges (lip1_boundedness_check of "
        "identity_map(3) is inconclusive, at dim 2 it holds)"))
    def test_dim3_default_plan_refines_within_budget(self):
        plan = SamplingPlan()
        est = lipschitz_norm_estimate(Series.coordinate(0, 3), 1.0, plan)
        assert est.evaluations <= plan.budget
        assert len(est.trace) > 1
        assert est.converged

    def test_rejects_exponent_above_one(self):
        with pytest.raises(ValueError):
            lipschitz_norm_estimate(Const(1.0, 1), 1.5, PLAN)


class TestLittleBlochGap:
    def test_polynomial_gap_zero(self):
        f = Series({(2, 1): 1.0, (1, 0): 2.0}, 2)
        assert little_bloch_gap(f, 1.0, 3, PLAN) == pytest.approx(0.0, abs=1e-15)

    def test_monomial_gap_zero_at_degree(self):
        f = Series({(1,): 1.0}, 1)
        assert little_bloch_gap(f, 0.5, 1, PLAN) == 0.0

    def test_moebius_factor_gap_decreases(self):
        m = MoebiusFactor(1, 0, 0.6)
        gaps = [little_bloch_gap(m, 1.0, k, PLAN) for k in (2, 6, 12)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.05
