"""Every evaluator gives the same bits whatever the memory order of its points.

Point arrays are coordinate-major (Z[:, k] contiguous): the stratified grid
and the oracle's uniform points are built that way, and a self-map's images
are a view of its stacked components.  No caller may assume C order, so each
evaluator below is fed the same points in C order and in Fortran order and
must return bit-identical values.  The points are the coordinate-major grid of
a small plan, which runs out to radius 1 - 2^-6.
"""

import numpy as np
import pytest

from blochlab import oracle
from blochlab.corpus import default_function_corpus, default_selfmap_corpus
from blochlab.criteria import _approach, criterion_density_fn
from blochlab.holo import compose
from blochlab.norms import (_PAIR_SEPARATION_FLOOR, _pair_quotients, bloch_density_fn,
                            timoney_q_fn)
from blochlab.sampling import SamplingPlan, stratified_grid

PLAN = SamplingPlan(radial_levels=6, angular_count=8, seed=5)
DIMS = [1, 2, 3]


def orders(dim):
    """The grid of PLAN as drawn (Fortran order) and as a C-ordered copy."""
    Z, _ = stratified_grid(dim, PLAN)
    assert Z.flags.f_contiguous and not Z.flags.writeable
    C = np.ascontiguousarray(Z)
    assert C.flags.c_contiguous and (dim == 1 or not C.flags.f_contiguous)
    return Z, C


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    np.testing.assert_array_equal(np.ascontiguousarray(a).view(np.uint64),
                                  np.ascontiguousarray(b).view(np.uint64))


def representations(dim):
    """The function corpus, its partials, the self-map components, their
    partials, and compositions of corpus members with the self-maps."""
    fns = default_function_corpus(dim)
    maps = [phi for _, phi in default_selfmap_corpus(dim)]
    comps = [c for phi in maps for c in phi.components]
    out = fns + comps
    out += [pk for f in fns + comps for pk in f.partials()]
    out += [compose(f, phi) for f in fns[::7] for phi in maps]
    return out


@pytest.mark.parametrize("dim", DIMS)
def test_values_of_every_representation(dim):
    F, C = orders(dim)
    for f in representations(dim):
        assert_same_bits(f.val(F), f.val(C))
        assert_same_bits(f.abs_val(F), f.abs_val(C))


@pytest.mark.parametrize("dim", DIMS)
def test_self_map_images_and_approach(dim):
    F, C = orders(dim)
    for _, phi in default_selfmap_corpus(dim):
        image = phi.val(F)
        assert image.flags.f_contiguous or dim == 1
        assert_same_bits(image, phi.val(C))
        assert_same_bits(_approach(phi, F, "image", None), _approach(phi, C, "image", None))
        for axis in range(dim):
            assert_same_bits(_approach(phi, F, "coordinate", axis),
                             _approach(phi, C, "coordinate", axis))


@pytest.mark.parametrize("dim", DIMS)
def test_densities(dim):
    F, C = orders(dim)
    for f in default_function_corpus(dim):
        for p in (0.5, 1.0, 2.0):
            density = bloch_density_fn(f, p)
            assert_same_bits(density(F), density(C))
        q = timoney_q_fn(f)
        assert_same_bits(q(F), q(C))
    for _, phi in default_selfmap_corpus(dim):
        for p, q in ((0.5, 1.0), (1.0, 1.0), (2.0, 0.5)):
            density = criterion_density_fn(phi, p, q)
            assert_same_bits(density(F), density(C))


@pytest.mark.parametrize("dim", DIMS)
def test_oracle_finite_differences(dim):
    F, C = orders(dim)
    assert oracle.uniform_points(dim, 50, seed=dim).flags.f_contiguous
    for f in default_function_corpus(dim):
        assert_same_bits(oracle.fd_gradient(f, F), oracle.fd_gradient(f, C))
        assert_same_bits(oracle.fd_bloch_density(f, 1.0, F),
                         oracle.fd_bloch_density(f, 1.0, C))


@pytest.mark.parametrize("dim", DIMS)
def test_pair_quotients(dim):
    F, C = orders(dim)
    partner = np.asfortranarray(np.roll(C, 1, axis=0))
    # pairs 0, 5, 10, ... join a point to itself and pairs 1, 6, 11, ... to a
    # neighbour below the separation floor: both kinds score exactly 0
    partner[::5] = C[::5]
    partner[1::5] = C[1::5] + 0.25 * _PAIR_SEPARATION_FLOOR
    close = np.zeros(len(C), dtype=bool)
    close[::5] = close[1::5] = True
    for f in default_function_corpus(dim):
        for p in (0.3, 0.7):
            got = _pair_quotients(f, p, F, partner)
            assert_same_bits(got, _pair_quotients(f, p, C, np.ascontiguousarray(partner)))
            assert np.all(got[close] == 0.0) and not np.signbit(got[close]).any()
