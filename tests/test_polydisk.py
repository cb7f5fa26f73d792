"""Geometry primitives: metric, boundary distance, interpolation points."""

import numpy as np
import pytest

from blochlab.polydisk import (
    Direction,
    DomainError,
    MultiIndex,
    PolydiskPoint,
    bergman_metric,
    boundary_distance,
    multi_indices_up_to,
    replace_coord,
    segment_point,
)


class TestBergmanMetric:
    def test_origin_unit_direction(self):
        z = PolydiskPoint([0.0])
        assert bergman_metric(z, Direction([1.0])) == pytest.approx(1.0, abs=1e-15)

    def test_half_point_hand_value(self):
        # 1 / (1 - 0.25)^2 = 1 / 0.5625
        z = PolydiskPoint([0.5, 0.0])
        u = Direction([1.0, 0.0])
        assert bergman_metric(z, u) == pytest.approx(1.0 / 0.5625, rel=1e-14)

    def test_zero_direction(self):
        z = PolydiskPoint([0.3 + 0.2j, -0.4])
        assert bergman_metric(z, Direction([0.0, 0.0])) == 0.0

    def test_zero_iff_zero_direction(self):
        z = PolydiskPoint([0.3, 0.1j])
        assert bergman_metric(z, Direction([1e-8, 0.0])) > 0.0

    def test_rejects_boundary_point(self):
        z = PolydiskPoint.closed([1.0, 0.0])
        with pytest.raises(DomainError):
            bergman_metric(z, Direction([1.0, 0.0]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(Exception):
            bergman_metric(PolydiskPoint([0.1]), Direction([1.0, 0.0]))


class TestBoundaryDistance:
    def test_center(self):
        assert boundary_distance(PolydiskPoint([0.0, 0.0])) == 1.0

    def test_min_over_coordinates(self):
        assert boundary_distance(PolydiskPoint([0.9, 0.2])) == pytest.approx(0.1, abs=1e-15)

    def test_closed_boundary_point(self):
        assert boundary_distance(PolydiskPoint.closed([1.0, 0.0])) == 0.0

    def test_positive_iff_interior(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = PolydiskPoint(0.999 * np.sqrt(rng.random(3))
                              * np.exp(2j * np.pi * rng.random(3)))
            assert boundary_distance(z) > 0.0


class TestSegmentPoint:
    def test_endpoints(self):
        z = PolydiskPoint([0.1, 0.2, 0.3])
        w = PolydiskPoint([0.4j, 0.5, -0.6])
        assert segment_point(z, w, 0) == z
        assert segment_point(z, w, 3) == w

    def test_mixed(self):
        z = PolydiskPoint([0.1, 0.2, 0.3])
        w = PolydiskPoint([0.4j, 0.5, -0.6])
        mixed = segment_point(z, w, 1)
        np.testing.assert_allclose(mixed.coords, [0.1, 0.2, -0.6])

    def test_out_of_range(self):
        z = PolydiskPoint([0.1])
        with pytest.raises(ValueError):
            segment_point(z, z, 2)


class TestReplaceCoord:
    def test_identity_replacement(self):
        z = PolydiskPoint([0.1, 0.2])
        assert replace_coord(z, 0, 0.1 + 0j) == z

    def test_replacement(self):
        z = PolydiskPoint([0.1, 0.2])
        np.testing.assert_allclose(replace_coord(z, 0, 0.5).coords, [0.5, 0.2])

    def test_single_coordinate(self):
        z = PolydiskPoint([0.3])
        np.testing.assert_allclose(replace_coord(z, 0, 0.0).coords, [0.0])

    def test_rejects_exterior_value(self):
        with pytest.raises(DomainError):
            replace_coord(PolydiskPoint([0.1]), 0, 1.5)


class TestMultiIndex:
    def test_degree_and_power(self):
        gamma = MultiIndex((2, 0, 1))
        assert gamma.degree == 3
        z = PolydiskPoint([0.5, 0.9, 0.2])
        assert gamma.power(z) == pytest.approx((0.5 ** 2) * 0.2)

    def test_enumeration_count(self):
        # multi-indices of dim 2 with degree <= 3: C(3+2,2) = 10
        assert len(list(multi_indices_up_to(2, 3))) == 10

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MultiIndex((1, -1))


class TestPointValidation:
    def test_rejects_nan_coordinate(self):
        for interior in (True, False):
            with pytest.raises(DomainError):
                PolydiskPoint([float("nan"), 0.2], interior=interior)


class TestSerialization:
    def test_point_json_round_trip(self):
        z = PolydiskPoint([0.1 + 0.2j, -0.3j])
        again = PolydiskPoint.from_json(z.to_json())
        np.testing.assert_allclose(again.coords, z.coords)
