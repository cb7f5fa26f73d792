"""Operator detectors: densities, boundedness, paths, compactness, routes."""

import numpy as np
import pytest

from blochlab.criteria import (
    BoundaryPath,
    PathValidationError,
    SingularEvaluationError,
    UncertifiedMapError,
    boundedness_check,
    classify,
    compactness_profile,
    coordinate_density,
    coordinate_density_fn,
    criterion_density,
    criterion_density_fn,
    lip1_boundedness_check,
    little_bloch_operator_check,
    make_boundary_paths,
    operator_norm_lower_bound,
    schwarz_expansion_range,
)
from blochlab.holo import (
    HoloSelfMap,
    Series,
    certify_self_map,
    constant_map,
    identity_map,
    moebius_automorphism,
)
from blochlab.oracle import uniform_points
from blochlab.sampling import SamplingPlan

PLAN = SamplingPlan(seed=5)


def halving_map(dim=1):
    phi = HoloSelfMap([Series.coordinate(k, dim).scale(0.5) for k in range(dim)])
    certify_self_map(phi)
    return phi


def shifted_half_map():
    phi = HoloSelfMap([Series({(0,): 0.5, (1,): 0.5}, 1)])
    certify_self_map(phi)
    return phi


def product_map():
    # (z_1 z_2, z_2) on U^2
    phi = HoloSelfMap([Series({(1, 1): 1.0}, 2), Series.coordinate(1, 2)])
    certify_self_map(phi)
    return phi


class TestCriterionDensity:
    def test_identity_equals_dimension(self):
        for n in (1, 2, 3):
            phi = identity_map(n)
            z = np.full(n, 0.1 + 0.2j)
            assert criterion_density(phi, 1.0, 1.0, z) == pytest.approx(n, abs=1e-12)

    def test_identity_mixed_exponents(self):
        # (1-0.64)^2/(1-0.64)^1 + 1 = 0.36 + 1 = 1.36
        phi = identity_map(2)
        assert criterion_density(phi, 1.0, 2.0, np.array([0.8, 0.0])) \
            == pytest.approx(1.36, abs=1e-12)

    def test_halving_at_origin(self):
        phi = halving_map(1)
        assert criterion_density(phi, 1.0, 1.0, np.array([0.0])) == pytest.approx(0.5)

    def test_row_decomposition(self):
        phi = product_map()
        Z = uniform_points(2, 200, seed=3, rmax=0.95)
        total = criterion_density_fn(phi, 0.7, 1.3)(Z)
        rows = sum(coordinate_density_fn(phi, 0.7, 1.3, l)(Z) for l in range(2))
        np.testing.assert_allclose(total, rows, rtol=1e-12)

    def test_coordinate_density_hand_value(self):
        # phi = (z_1 z_2, z_2), first row at z = (0, 0.5):
        # |z_2|(1-0)^q/(1-0)^p + |z_1|(1-0.25)^q/(1-0)^p = 0.5
        phi = product_map()
        val = coordinate_density(phi, 1.0, 1.0, 0, np.array([0.0, 0.5]))
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_identity_coordinate_rows_are_one(self):
        phi = identity_map(2)
        for l in range(2):
            assert coordinate_density(phi, 1.0, 1.0, l, np.array([0.3, -0.6j])) \
                == pytest.approx(1.0, abs=1e-14)

    def test_singular_escape_raises(self):
        # a falsely-certified map whose image leaves the disk at an interior point
        from blochlab.holo import SelfMapCertificate

        phi = HoloSelfMap([Series({(0,): 0.999, (1,): 0.1}, 1)],
                          certificate=SelfMapCertificate("sampling", 1e-6, 0.9))
        with pytest.raises(SingularEvaluationError):
            criterion_density(phi, 1.0, 1.0, np.array([0.5]))


class TestBoundednessCheck:
    def test_identity_equal_exponents_holds(self):
        v, est = boundedness_check(identity_map(2), 1.0, 1.0, PLAN)
        assert v.verdict == "holds"
        assert est.sup == pytest.approx(2.0, abs=1e-9)

    def test_identity_smaller_target_weight_fails(self):
        # density (1-|z|^2)^{-1/2} diverges at the boundary
        v, est = boundedness_check(identity_map(1), 1.0, 0.5, PLAN)
        assert v.verdict == "fails"

    def test_halving_holds_with_central_witness(self):
        v, est = boundedness_check(halving_map(1), 1.0, 1.0, PLAN)
        assert v.verdict == "holds"
        assert est.sup == pytest.approx(0.5, abs=1e-9)
        assert abs(est.witness[0]) < 1e-6

    def test_constant_map_zero_density(self):
        v, est = boundedness_check(constant_map([0.3, 0.1j]), 1.0, 1.0, PLAN)
        assert v.verdict == "holds"
        assert est.sup == 0.0

    def test_uncertified_refusal(self):
        phi = HoloSelfMap([Series({(1,): 2.0}, 1)])
        certify_self_map(phi)
        with pytest.raises(UncertifiedMapError):
            boundedness_check(phi, 1.0, 1.0, PLAN)


class TestBoundaryPaths:
    def test_identity_paths(self):
        paths = make_boundary_paths(identity_map(1), "image", count=16, seed=0)
        assert len(paths) == 16
        for p in paths:
            m = p.validate(identity_map(1))
            assert m.size >= 8
            assert m[-1] <= 1e-4

    def test_halving_map_unrealizable(self):
        assert make_boundary_paths(halving_map(1), "image", seed=0) == []

    def test_bad_path_rejected(self):
        # points marching away from the boundary violate the monotone approach
        pts = np.linspace(0.9, 0.1, 10, dtype=complex)[:, None]
        bad = BoundaryPath(points=pts, mode="image", path_id="bad")
        with pytest.raises(PathValidationError):
            bad.validate(identity_map(1))

    def test_shallow_path_rejected(self):
        pts = np.linspace(0.1, 0.5, 10, dtype=complex)[:, None]
        bad = BoundaryPath(points=pts, mode="image", path_id="shallow")
        with pytest.raises(PathValidationError):
            bad.validate(identity_map(1))


class TestCompactnessProfile:
    def test_identity_constant_density_stays(self):
        phi = identity_map(1)
        paths = make_boundary_paths(phi, "image", count=16, seed=0)
        profiles, v = compactness_profile(phi, 1.0, 1.0, paths, "image")
        assert v.verdict == "fails"
        for pr in profiles:
            np.testing.assert_allclose(pr.values, 1.0, atol=1e-9)

    def test_halving_vacuous_holds(self):
        profiles, v = compactness_profile(halving_map(1), 1.0, 1.0, [], "image")
        assert v.verdict == "holds"
        assert v.rule == "small-components"

    def test_shifted_half_limit_one(self):
        # density along the real ray: 0.5 (1-r^2)/(1-((1+r)/2)^2) = 2(1+r)/(3+r) -> 1
        phi = shifted_half_map()
        paths = make_boundary_paths(phi, "image", seed=0)
        assert paths
        profiles, v = compactness_profile(phi, 1.0, 1.0, paths, "image")
        assert v.verdict == "fails"
        # closed-form check of the recorded tail
        best = profiles[0]
        assert best.values[-1] == pytest.approx(1.0, abs=1e-3)

    def test_per_coordinate_decay_small_exponent(self):
        phi = identity_map(1)
        paths = make_boundary_paths(phi, "coordinate", axis=0, seed=0)
        profiles, v = compactness_profile(phi, 0.5, 1.0, paths, "coordinate")
        assert v.verdict == "holds"
        assert all(pr.values[-1] < 1e-3 for pr in profiles)


class TestSchwarzExpansion:
    def test_identity_ratio_one(self):
        phi = identity_map(2)
        lo, hi = schwarz_expansion_range(phi, np.array([0.3, -0.4j]))
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_halving_at_origin(self):
        assert schwarz_expansion_range(halving_map(1), np.array([0.0]))[1] \
            == pytest.approx(0.25, abs=1e-14)

    def test_automorphism_metric_equality(self):
        rng = np.random.default_rng(9)
        phi = moebius_automorphism([0.5 + 0.2j, -0.3], [0.7, 2.1], sigma=(1, 0))
        for _ in range(50):
            z = 0.95 * np.sqrt(rng.random(2)) * np.exp(2j * np.pi * rng.random(2))
            lo, hi = schwarz_expansion_range(phi, z)
            assert lo == pytest.approx(1.0, abs=1e-9)
            assert hi == pytest.approx(1.0, abs=1e-9)


class TestClassify:
    def test_identity_bounded_not_compact(self):
        report = classify(identity_map(2), 1.0, 1.0, PLAN)
        assert report.bounded.verdict == "holds"
        assert report.sup_estimate.sup == pytest.approx(2.0, abs=1e-9)
        assert report.compact.verdict == "fails"

    def test_automorphism_not_compact(self):
        phi = moebius_automorphism([0.4, 0.2j], [0.3, 1.0])
        report = classify(phi, 1.0, 1.0, PLAN)
        assert report.bounded.verdict == "holds"
        assert report.compact.verdict == "fails"
        assert report.routes["metric-expansion"].verdict == "fails"

    def test_constant_map_compact(self):
        report = classify(constant_map([0.2, 0.1]), 1.0, 1.0, PLAN)
        assert report.bounded.verdict == "holds"
        assert report.compact.verdict == "holds"

    def test_halving_small_component_route(self):
        report = classify(halving_map(1), 1.0, 1.0, PLAN)
        assert report.compact.verdict == "holds"
        assert report.compact.rule == "small-components"

    def test_identity_exponent_gap_route(self):
        report = classify(identity_map(1), 0.5, 1.0, PLAN)
        assert report.compact.verdict == "holds"
        assert report.compact.rule == "exponent-gap"

    def test_shifted_half_fails_with_unit_tail(self):
        report = classify(shifted_half_map(), 1.0, 1.0, PLAN)
        assert report.bounded.verdict == "holds"
        assert report.compact.verdict == "fails"
        tails = [pr.values[-1] for pr in report.profiles]
        assert max(tails) == pytest.approx(1.0, abs=1e-3)

    def test_small_p_uses_coordinate_rule(self):
        report = classify(identity_map(1), 0.5, 0.5, PLAN)
        assert report.compact.rule in ("coordinate-boundary-decay", "small-components")
        # per-coordinate density (1-|z|^2)^0 = 1 along paths: stays -> fails
        assert report.compact.verdict == "fails"

    def test_uncertified_refusal(self):
        phi = HoloSelfMap([Series({(1,): 2.0}, 1)])
        certify_self_map(phi)
        with pytest.raises(UncertifiedMapError):
            classify(phi, 1.0, 1.0, PLAN)

    def test_report_serializes(self):
        import json

        report = classify(halving_map(1), 1.0, 1.0, PLAN)
        blob = json.dumps(report.to_json())
        assert "schema_version" in blob


class TestLittleBlochOperatorCheck:
    def test_identity_holds(self):
        v = little_bloch_operator_check(identity_map(1), 1.0, 1.0, 2, PLAN)
        assert v.verdict == "holds"
        assert all(g < 1e-12 for g in v.detail["gaps"].values())

    def test_polynomial_map_gaps_zero(self):
        v = little_bloch_operator_check(product_map(), 1.0, 1.0, 2, PLAN)
        assert v.verdict == "holds"

    def test_degree_cap_zero_trivial(self):
        v = little_bloch_operator_check(identity_map(1), 1.0, 1.0, 0, PLAN)
        assert v.verdict == "holds"
        assert list(v.detail["gaps"].keys()) == ["[0]"]

    def test_moebius_map_with_truncatable_powers(self):
        phi = moebius_automorphism([0.4], [0.0])
        v = little_bloch_operator_check(phi, 1.0, 1.0, 2, PLAN)
        assert v.verdict in ("holds", "inconclusive")
        assert not v.detail["skipped"]


class TestLip1Boundedness:
    def test_identity_holds(self):
        v = lip1_boundedness_check(identity_map(1), PLAN)
        assert v.verdict == "holds"
        assert v.margin <= 1.0 + 1e-9

    def test_constant_holds(self):
        v = lip1_boundedness_check(constant_map([0.3]), PLAN)
        assert v.verdict == "holds"

    def test_moebius_larger_plateau(self):
        phi = moebius_automorphism([0.9], [0.0])
        v = lip1_boundedness_check(phi, SamplingPlan(seed=3, budget=120_000))
        assert v.verdict == "holds"
        # sup |phi'| = (1-0.81)/(0.1)^2 = 19 bounds the quotient
        assert 10.0 <= v.margin <= 19.0 + abs(phi.components[0].value([0.0])) + 1e-6


class TestOperatorNormLowerBound:
    def test_identity_reaches_one(self):
        lb = operator_norm_lower_bound(identity_map(1), 1.0, 1.0, [0.0, 0.5], PLAN)
        assert lb == pytest.approx(1.0, abs=1e-6)

    def test_halving_scales_monomial(self):
        lb = operator_norm_lower_bound(halving_map(1), 1.0, 1.0, [0.0], PLAN)
        # nu = z gives exactly 0.5; other members can only raise it toward 1
        assert lb >= 0.5 - 1e-9
        assert lb <= 1.0 + 1e-6

    def test_constant_map_bounded_by_pointeval(self):
        lb = operator_norm_lower_bound(constant_map([0.2]), 1.0, 1.0, [0.0, 0.4], PLAN)
        assert 0.0 < lb <= 3.0
