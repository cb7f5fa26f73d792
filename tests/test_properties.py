"""Algebraic invariants checked over generated inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochlab.holo import Series
from blochlab.norms import bloch_density_fn, timoney_q_fn
from blochlab.polydisk import (
    Direction,
    PolydiskPoint,
    bergman_metric,
    boundary_distance,
    segment_point,
)
from blochlab.testfuncs import tail_bound


def interior_coords(dim, max_radius=0.95):
    scalar = st.tuples(
        st.floats(-max_radius, max_radius, allow_nan=False),
        st.floats(-max_radius, max_radius, allow_nan=False),
    ).map(lambda t: complex(*t)).filter(lambda c: abs(c) < max_radius)
    return st.lists(scalar, min_size=dim, max_size=dim)


# real and imaginary parts with both signed zeros, which compare equal
signed_part = st.sampled_from([0.0, -0.0, 0.5, -0.25])


def _flip_zero(x: float, flip: bool) -> float:
    return -x if flip and x == 0.0 else x


complex_scalar = st.tuples(
    st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False)
).map(lambda t: complex(*t))


class TestMetricHomogeneity:
    @given(z=interior_coords(2), u=st.lists(complex_scalar, min_size=2, max_size=2),
           c=complex_scalar)
    @settings(max_examples=200, deadline=None)
    def test_quadratic_scaling(self, z, u, c):
        pz = PolydiskPoint(z)
        lhs = bergman_metric(pz, Direction([c * x for x in u]))
        rhs = abs(c) ** 2 * bergman_metric(pz, Direction(u))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestPointHash:
    @given(parts=st.lists(st.tuples(signed_part, signed_part, st.booleans(), st.booleans()),
                          min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_equal_points_hash_equal(self, parts):
        a = PolydiskPoint([complex(re, im) for re, im, _, _ in parts])
        b = PolydiskPoint([complex(_flip_zero(re, fr), _flip_zero(im, fi))
                           for re, im, fr, fi in parts])
        assert a == b
        assert hash(a) == hash(b)


class TestTelescoping:
    @given(z=interior_coords(3), w=interior_coords(3))
    @settings(max_examples=100, deadline=None)
    def test_coordinate_differences_sum(self, z, w):
        f = Series({(2, 0, 0): 1.0, (1, 1, 0): -0.5j, (0, 0, 3): 0.25}, 3)
        pz, pw = PolydiskPoint(z), PolydiskPoint(w)
        total = sum(
            f.value(segment_point(pz, pw, 3 - j)) - f.value(segment_point(pz, pw, 3 - j + 1))
            for j in range(1, 4)
        )
        assert total == pytest.approx(f.value(pz) - f.value(pw), rel=1e-12, abs=1e-12)


class TestBoundaryDistance:
    @given(z=interior_coords(2, max_radius=0.999))
    @settings(max_examples=200, deadline=None)
    def test_positive_inside(self, z):
        assert boundary_distance(PolydiskPoint(z)) > 0


class TestSandwich:
    @given(z=interior_coords(2, max_radius=0.99))
    @settings(max_examples=150, deadline=None)
    def test_q_between_l2_and_l1(self, z):
        f = Series({(1, 0): 1.5, (0, 2): -1j, (2, 1): 0.3}, 2)
        Z = np.array(z)
        q = float(timoney_q_fn(f)(Z))
        d = float(bloch_density_fn(f, 1.0)(Z))
        assert q <= d + 1e-12
        assert d <= np.sqrt(2.0) * q + 1e-12


class TestTailBound:
    @given(p=st.floats(0.1, 3.0), w=st.floats(0.01, 0.95), m=st.integers(0, 20))
    @settings(max_examples=100, deadline=None)
    def test_strictly_decreasing_in_index(self, p, w, m):
        assert tail_bound(p, w, m + 1) < tail_bound(p, w, m)
