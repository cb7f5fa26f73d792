"""Holomorphic representations: evaluation, exact partials, composition, certificates.

`Series.val` evaluates by nested Horner over the axes in blocks of
HORNER_BLOCK points; `loop_series_val` below is the per-term loop it
replaces, kept as the reference.  `Series.substitute` builds its result in one
pass; `add_substitute` below is the term-by-term `add` it replaces, kept as
the reference.  `abs_val` is checked against np.abs(val).  A kernel's
non-integer power is checked against mpmath's principal power.
"""

import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochlab.corpus import default_function_corpus, default_selfmap_corpus, polynomial_corpus
from blochlab.testfuncs import TestFunction
from blochlab.holo import (
    HORNER_BLOCK,
    _gradient_plan,
    SELF_MAP_CEILING,
    Composition,
    Const,
    EvaluationDomainError,
    HoloSelfMap,
    MoebiusFactor,
    Product,
    ScaledKernel,
    Series,
    Sum,
    certify_self_map,
    compose,
    compose_map,
    identity_map,
    moebius_automorphism,
    partial_axes,
    partial_values,
)


def fd_partial(f, z, axis, h=1e-6):
    """Test-local central difference, independent of the structural path."""
    zp = np.array(z, dtype=complex)
    zm = zp.copy()
    zp[axis] += h
    zm[axis] -= h
    return (f.value(zp) - f.value(zm)) / (2 * h)


class TestEval:
    def test_monomial_square(self):
        f = Series({(2, 0): 1.0}, 2)
        assert f.value([0.5, 0.3]) == pytest.approx(0.25)

    def test_constant(self):
        f = Const(7.0, 2)
        for z in ([0.1, 0.2], [0.9, -0.9j]):
            assert f.value(z) == pytest.approx(7.0)

    def test_product_monomial(self):
        f = Series({(1, 1): 1.0}, 2)
        assert f.value([0.2, 0.5]) == pytest.approx(0.1)

    def test_batched_matches_single(self):
        f = Series({(2, 1): 1.5, (0, 0): -2j}, 2)
        rng = np.random.default_rng(3)
        Z = 0.9 * (rng.random((20, 2)) + 1j * rng.random((20, 2)) - 0.5 - 0.5j)
        vals = f.val(Z)
        for i in range(20):
            assert vals[i] == pytest.approx(f.value(Z[i]), rel=1e-14)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_single_point_equals_batch_bitwise(self, dim):
        # numpy multiplies a one-element complex array through another loop than
        # a longer one, and a lone point runs its scalar arithmetic; a point's
        # value must not depend on the batch it is in.  Every representation:
        # polynomials, the corpus members, the self-map components and every
        # partial of them.
        Z = disk_points(np.random.default_rng(dim), (200,), dim)
        fns = polynomial_corpus(dim, count=5, seed=1)
        fns += default_function_corpus(dim)
        fns += [c for _, phi in default_selfmap_corpus(dim) for c in phi.components]
        fns += [pk for f in default_function_corpus(dim) for pk in f.partials()]
        for f in fns:
            batch = f.val(Z)
            single = np.array([f.value(z) for z in Z])
            np.testing.assert_array_equal(single.view(float), batch.view(float), err_msg=repr(f))
            # the gradient pass, a point alone being a batch of one
            for modulus in (False, True):
                batch = np.array(partial_values(f, Z, modulus=modulus))
                single = np.array([[row[0] for row in partial_values(f, z[None], modulus=modulus)]
                                   for z in Z]).T.copy().reshape(batch.shape)
                np.testing.assert_array_equal(single.view(float), batch.view(float),
                                              err_msg=repr(f))

    def test_one_point_last_block_equals_batch_bitwise(self):
        Z = disk_points(np.random.default_rng(5), (HORNER_BLOCK + 1,), 2)
        f = polynomial_corpus(2, count=1, seed=1)[0]
        last = f.val(Z)[-1]
        assert f.val(Z[-2:])[-1] == last
        assert f.value(Z[-1]) == last


def loop_series_val(f, Z):
    """Reference: each term c z^e as its own array, summed term by term."""
    Z = np.asarray(Z, dtype=complex)
    out = np.zeros(Z.shape[:-1], dtype=complex)
    for exps, c in f.coeffs.items():
        term = np.full(Z.shape[:-1], c, dtype=complex)
        for k, e in enumerate(exps):
            if e:
                term = term * Z[..., k] ** e
        out += term
    return out


def assert_horner_matches_loop(f, Z):
    """Agreement to 1e-14 relative to the term majorant sum |c| |z^e| at each point,
    plus 4 subnormal units per term: rounding below the normal range is absolute."""
    got, ref = f.val(Z), loop_series_val(f, Z)
    assert got.shape == ref.shape == np.shape(Z)[:-1]
    majorant = loop_series_val(Series({e: abs(c) for e, c in f.coeffs.items()}, f.dim),
                               np.abs(Z)).real
    slack = 4 * len(f.coeffs) * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(got - ref) <= 1e-14 * majorant + slack)


def disk_points(rng, shape, dim):
    r = np.sqrt(rng.random(shape + (dim,)))
    return r * np.exp(2j * np.pi * rng.random(shape + (dim,)))


def draw_series_and_points(dim, data):
    """A random Series of up to 12 terms of degree <= 5 per axis, and up to 40 disk points."""
    exps = st.tuples(*[st.integers(0, 5)] * dim)
    coeff = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    coeffs = data.draw(st.dictionaries(exps, coeff, max_size=12))
    n = data.draw(st.integers(0, 40))
    Z = disk_points(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))), (n,), dim)
    return Series(coeffs, dim), Z


class TestHornerAgainstLoop:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_corpus_polynomials_and_partials(self, dim):
        Z = disk_points(np.random.default_rng(dim), (2000,), dim)
        for f in polynomial_corpus(dim, count=4, seed=dim):
            for g in [f] + f.partials():
                assert_horner_matches_loop(g, Z)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(), (7,), (3, 5), (0,)], ids=["point", "N", "a-b", "empty"])
    def test_point_shapes(self, dim, shape):
        f = polynomial_corpus(dim, count=1, seed=7)[0]
        assert_horner_matches_loop(f, disk_points(np.random.default_rng(0), shape, dim))

    @pytest.mark.parametrize("coeffs", [{}, {(0, 0, 0): 2.5 - 1j}], ids=["zero", "constant"])
    def test_zero_and_constant(self, coeffs):
        f = Series(coeffs, 3)
        for shape in [(), (4,), (2, 3), (0,)]:
            Z = disk_points(np.random.default_rng(1), shape, 3)
            got = f.val(Z)
            assert got.shape == shape and got.dtype == complex
            np.testing.assert_array_equal(got, loop_series_val(f, Z))

    @pytest.mark.parametrize("n", [HORNER_BLOCK - 1, HORNER_BLOCK, HORNER_BLOCK + 1])
    def test_block_edges(self, n):
        assert HORNER_BLOCK == 16_384
        Z = disk_points(np.random.default_rng(n), (n,), 2)
        f = polynomial_corpus(2, count=1, seed=3)[0]
        assert_horner_matches_loop(f, Z)

    def test_subnormal_outputs(self):
        # Horner and the loop round differently once values fall below the normal range
        f = Series({(0, 1, 1): 1.1125369292536007e-308}, 3)
        assert_horner_matches_loop(f, disk_points(np.random.default_rng(0), (26,), 3))

    def test_sparse_high_gaps(self):
        f = Series({(9, 0, 4): 1.5j, (2, 7, 0): -0.5, (0, 0, 11): 0.25, (0, 0, 0): 1.0}, 3)
        assert_horner_matches_loop(f, disk_points(np.random.default_rng(2), (300,), 3))

    @settings(max_examples=80, deadline=None)
    @given(dim=st.integers(1, 4), data=st.data())
    def test_random_small_series(self, dim, data):
        assert_horner_matches_loop(*draw_series_and_points(dim, data))


def sparse_and_composed(dim):
    """Polynomials whose partials have mixed exponent sets: a sparse one, and
    corpus polynomials composed with the polynomial corpus maps."""
    exps = [(3,) + (0,) * (dim - 1), (1,) * dim, (0,) * (dim - 1) + (2,), (0,) * dim]
    out = [Series({e: 0.3 + 0.2j * i for i, e in enumerate(exps)}, dim)]
    for _, phi in default_selfmap_corpus(dim):
        if all(isinstance(c, Series) for c in phi.components):
            out.append(compose(polynomial_corpus(dim, count=1, seed=2)[0], phi))
    return out


class TestJointPartials:
    """`partial_values` runs a Series' partials that share an exponent set
    through one Horner traversal; each row must be that partial's own val,
    and its modulus its own abs_val, bit for bit."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 64, HORNER_BLOCK, HORNER_BLOCK + 1])
    def test_rows_equal_each_partial(self, dim, n):
        Z = disk_points(np.random.default_rng(n + dim), (n,), dim)
        fns = polynomial_corpus(dim, count=2, seed=dim) + sparse_and_composed(dim)
        for f in fns:
            axes = partial_axes(f)
            parts = [f.partials()[k] for k in axes]
            assert axes == tuple(k for k, pk in enumerate(f.partials()) if pk.coeffs)
            values = partial_values(f, Z)
            moduli = partial_values(f, Z, modulus=True)
            assert len(values) == len(moduli) == len(axes)
            for i, pk in enumerate(parts):
                np.testing.assert_array_equal(values[i].view(float), pk.val(Z).view(float),
                                              err_msg=repr(f))
                np.testing.assert_array_equal(moduli[i], pk.abs_val(Z), err_msg=repr(f))

    def test_groups_follow_exponent_sets(self):
        # a dense polynomial's partials share one plan; a sparse one's do not
        dense = polynomial_corpus(3, count=1, seed=0)[0]
        (count, plan), = _gradient_plan(dense)[1]
        assert count == 3 and type(plan) is tuple
        sparse = sparse_and_composed(3)[0]
        assert [count for count, _ in _gradient_plan(sparse)[1]] == [1, 1, 1]

    def test_other_partials_and_shapes(self):
        Z = disk_points(np.random.default_rng(4), (3, 5), 2)
        for f in default_function_corpus(2)[8:14] + [Const(2.0, 2), Series({(0, 1): 1j}, 2)]:
            axes = partial_axes(f)
            got = partial_values(f, Z, modulus=True)
            assert len(got) == len(axes)
            for row, k in zip(got, axes):
                assert row.shape == (3, 5)
                np.testing.assert_array_equal(row, f.partials()[k].abs_val(Z))

    def test_a_plan_is_built_once_and_kept_on_the_function(self):
        f = polynomial_corpus(2, count=1, seed=0)[0]
        plan = _gradient_plan(f)
        assert f._gradient is plan and _gradient_plan(f) is plan


def assert_negation_exact(s, Z):
    """s.scale(-1.0) evaluates to exactly -s (== equates signed zeros), with the
    moduli of s and of its partials: the Taylor gap adds the negated polynomial
    instead of subtracting it."""
    neg = s.scale(-1.0)
    assert np.all(neg.val(Z) == -s.val(Z))
    assert np.array_equal(neg.abs_val(Z), s.abs_val(Z))
    for dneg, ds in zip(neg.partials(), s.partials()):
        assert np.array_equal(dneg.abs_val(Z), ds.abs_val(Z))


class TestNegationExact:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_corpus_polynomials_and_partials(self, dim):
        Z = disk_points(np.random.default_rng(dim + 10), (2000,), dim)
        for f in polynomial_corpus(dim, count=4, seed=dim):
            for g in [f] + f.partials():
                assert_negation_exact(g, Z)

    @settings(max_examples=80, deadline=None)
    @given(dim=st.integers(1, 4), data=st.data())
    def test_random_small_series(self, dim, data):
        s, Z = draw_series_and_points(dim, data)
        for g in [s] + s.partials():
            assert_negation_exact(g, Z)


def assert_abs_val_matches(f, Z):
    """abs_val agrees with np.abs(val) to 4e-15 relative, in shape and dtype too."""
    got, ref = f.abs_val(Z), np.abs(f.val(Z))
    assert got.shape == ref.shape and got.dtype == float
    assert np.all(np.abs(got - ref) <= 4e-15 * ref)


def raises_domain_error(evaluate, Z) -> bool:
    try:
        evaluate(Z)
    except EvaluationDomainError:
        return True
    return False


class TestAbsVal:
    Z = np.concatenate([disk_points(np.random.default_rng(5), (400,), 2),
                        np.exp(2j * np.pi * np.random.default_rng(6).random((40, 2))),
                        np.zeros((1, 2))])

    @pytest.mark.parametrize("exponent", [0.5, 1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("w", [0.0, 0.5j, 0.99])
    def test_scaled_kernel(self, exponent, w):
        for axis in (0, 1):
            assert_abs_val_matches(ScaledKernel(2, axis, w, exponent, 0.3 - 0.4j), self.Z)

    def test_moebius_partials(self):
        f = MoebiusFactor(2, 1, 0.6 - 0.3j, 0.7)
        for g in f.partials() + [f.partials()[1].partial(1)]:
            assert_abs_val_matches(g, self.Z)

    def test_composite_nodes(self):
        kernel = ScaledKernel(2, 1, 0.9j, 1.5, 2.0)
        outer = Series({(2, 0): 1.0, (1, 1): 0.5j, (0, 3): -0.25}, 2)
        nodes = [Product(outer, kernel), Const(0.0, 2),
                 Const(3 - 4j, 2), outer, outer.partial(0),
                 Composition(outer, [MoebiusFactor(2, 0, 0.3), Series.coordinate(1, 2)]),
                 TestFunction("h", 1, 0.6 - 0.5j, 2.0, 2).partial(1)]
        assert isinstance(nodes[-1], Product)
        for f in nodes:
            assert_abs_val_matches(f, self.Z)
        for shape in [(), (3, 4), (0,)]:
            Z = disk_points(np.random.default_rng(7), shape, 2)
            for f in nodes:
                assert f.abs_val(Z).shape == shape

    def test_raises_wherever_val_does(self):
        kernel = ScaledKernel(2, 0, 1 - 1e-13, 2.0)
        near = np.array([[1.0, 0.5], [0.2, 0.1]])
        far = np.array([[0.99, 0.5], [0.2, 0.1]])
        for f in [kernel, Product(Series.coordinate(1, 2), kernel),
                  Composition(Series.coordinate(0, 2), [kernel, Series.coordinate(1, 2)])]:
            for Z in (near, far):
                assert raises_domain_error(f.abs_val, Z) == raises_domain_error(f.val, Z)
            assert raises_domain_error(f.abs_val, near)
            assert not raises_domain_error(f.abs_val, far)


def kernel_points(w, count=400, seed=0):
    """Points of the closed disk: interior, the unit circle, and a cluster on
    the circle around w/|w|, where |1 - conj(w) z| is smallest."""
    rng = np.random.default_rng(seed)
    peak = np.angle(w) + np.linspace(-0.05, 0.05, count)
    z = np.concatenate([np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count)),
                        np.exp(2j * np.pi * rng.random(count)), np.exp(1j * peak), [0.0]])
    return z[:, None]


class TestKernelPower:
    """`ScaledKernel.val` takes a non-integer power in polar form and an
    integer one as numpy's den ** -e.  The references take the power of the
    same rounded den = 1 - conj(w) z, so they check the power alone; near
    w/|w| at |w| = 0.99 den itself loses about two digits to cancellation."""

    SCALE = 0.7 - 0.2j

    @pytest.mark.parametrize("exponent", [0.3, 0.5, 1.5, 2.5])
    @pytest.mark.parametrize("modulus", [0.0, 0.6, 0.99])
    def test_non_integer_is_the_principal_power(self, exponent, modulus):
        w = modulus * np.exp(0.7j)
        Z = kernel_points(w)
        den = 1.0 - np.conj(w) * Z[:, 0]
        with mpmath.workdps(40):
            ref = np.array([complex(mpmath.mpc(self.SCALE)
                                    * mpmath.power(mpmath.mpc(d.real, d.imag), -exponent))
                            for d in den])
        got = ScaledKernel(1, 0, w, exponent, self.SCALE).val(Z)
        assert float(np.max(np.abs(got - ref) / np.abs(ref))) <= 2e-15

    @pytest.mark.parametrize("exponent", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("modulus", [0.0, 0.6, 0.99])
    def test_integer_is_numpy_power(self, exponent, modulus):
        w = modulus * np.exp(0.7j)
        Z = kernel_points(w)
        den = 1.0 - np.conj(w) * Z[:, 0]
        got = ScaledKernel(1, 0, w, exponent, self.SCALE).val(Z)
        assert np.array_equal(got, self.SCALE * den ** -exponent)

    @pytest.mark.parametrize("exponent", [0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    def test_zero_parameter_returns_the_scale(self, exponent):
        got = ScaledKernel(2, 1, 0.0, exponent, self.SCALE).val(
            disk_points(np.random.default_rng(8), (300,), 2))
        assert np.all(got == self.SCALE)


class TestPartial:
    def test_power_rule(self):
        f = Series({(2, 0): 1.0}, 2)
        df = f.partial(0)
        assert df.value([0.5, 0.1]) == pytest.approx(1.0)  # 2 z_1 at 0.5

    def test_independent_variable(self):
        f = Series({(2, 0): 1.0}, 2)
        assert f.partial(1).value([0.5, 0.1]) == 0

    def test_moebius_factor_derivative_hand_value(self):
        # d/dz (z - a)/(1 - conj(a) z) = (1 - |a|^2)/(1 - conj(a) z)^2; a = 0.5, z = 0 -> 0.75
        m = MoebiusFactor(1, 0, 0.5)
        assert m.partial(0).value([0.0]) == pytest.approx(0.75, rel=1e-14)
        # cross-check by test-local finite differences at a second point
        z = [0.2 + 0.1j]
        assert m.partial(0).value(z) == pytest.approx(fd_partial(m, z, 0), rel=1e-7)

    def test_moebius_factor_higher_derivatives_closed_form(self):
        # order-m derivative: e^{i theta} (1-|a|^2) m! conj(a)^{m-1} / (1 - conj(a) z)^{m+1}
        a, theta = 0.45 - 0.3j, 0.8
        m = MoebiusFactor(2, 1, a, theta)
        d2 = m.partial(1).partial(1)
        d3 = d2.partial(1)
        for z in ([0.1, 0.0], [0.3j, -0.5 + 0.2j], [0.0, 0.9 * np.exp(0.4j)]):
            for order, d in ((2, d2), (3, d3)):
                closed = (np.exp(1j * theta) * (1 - abs(a) ** 2) * math.factorial(order)
                          * np.conj(a) ** (order - 1) / (1 - np.conj(a) * z[1]) ** (order + 1))
                assert d.value(z) == pytest.approx(closed, rel=1e-13)
        assert d2.partial(0).value([0.1, 0.2]) == 0

    def test_product_partial_matches_finite_differences(self):
        # each factor is free of one axis, so each partial drops one product-rule term
        f = Product(Series({(2, 0): 0.5, (1, 0): -0.3j}, 2),
                    ScaledKernel(2, 1, 0.4 + 0.2j, 1.5, 0.7))
        for z in ([0.3 - 0.2j, -0.1 + 0.4j], [0.0, 0.6j]):
            for axis in range(2):
                assert f.partial(axis).value(z) == pytest.approx(fd_partial(f, z, axis), rel=1e-7)
        flat = Product(Series({(2, 0): 1.0}, 2), Series({(1, 0): 0.5}, 2))
        assert isinstance(flat.partial(1), Const) and flat.partial(1).c == 0

    def test_gradient(self):
        def gradient(f, z):
            return [pk.value(z) for pk in f.partials()]

        f = Series({(1, 0): 1.0, (0, 1): 1.0}, 2)
        np.testing.assert_allclose(gradient(f, [0.3, -0.2j]), [1.0, 1.0])
        g = Series({(1, 1): 1.0}, 2)
        np.testing.assert_allclose(gradient(g, [0.2, 0.5]), [0.5, 0.2])
        np.testing.assert_allclose(gradient(Const(4.0, 2), [0.1, 0.1]), [0.0, 0.0])


class TestJacobian:
    def test_identity(self):
        phi = identity_map(3)
        np.testing.assert_allclose(phi.jacobian([0.1, 0.2j, -0.3]), np.eye(3))

    def test_swap(self):
        phi = HoloSelfMap([Series.coordinate(1, 2), Series.coordinate(0, 2)])
        np.testing.assert_allclose(phi.jacobian([0.5, 0.1]), [[0, 1], [1, 0]])

    def test_product_map_hand_values(self):
        phi = HoloSelfMap([Series({(1, 1): 1.0}, 2), Series.coordinate(1, 2)])
        J = phi.jacobian([0.2, 0.5])
        np.testing.assert_allclose(J, [[0.5, 0.2], [0.0, 1.0]])


class TestCompose:
    def test_polynomial_substitution(self):
        f = Series({(2, 0): 1.0}, 2)  # z_1^2
        phi = HoloSelfMap([Series({(1, 1): 1.0}, 2), Series.coordinate(1, 2)])
        comp = compose(f, phi)
        assert isinstance(comp, Series)
        assert comp.coeffs == {(2, 2): 1.0 + 0j}

    def test_identity_composition(self):
        f = Series({(2, 1): 3.0, (1, 0): -1j}, 2)
        comp = compose(f, identity_map(2))
        z = [0.4, -0.2 + 0.1j]
        assert comp.value(z) == pytest.approx(f.value(z), rel=1e-14)

    def test_constant_outer(self):
        comp = compose(Const(0.3 - 0.2j, 2), moebius_automorphism([0.5, 0.1j], [0.2, 0.0]))
        assert isinstance(comp, Const)
        assert (comp.c, comp.dim) == (0.3 - 0.2j, 2)

    def test_constant_inner(self):
        f = Series.coordinate(0, 2)
        phi = HoloSelfMap([Const(0.3 + 0.1j, 2), Const(0.2, 2)])
        comp = compose(f, phi)
        assert comp.value([0.9, -0.9]) == pytest.approx(0.3 + 0.1j)

    def test_chain_rule_structural_vs_manual(self):
        rng = np.random.default_rng(7)
        f = Series({(2, 0): 1.0, (1, 1): 0.5j, (0, 3): -0.25}, 2)
        phi = moebius_automorphism([0.4, -0.2j], [0.1, 2.0])
        comp = compose(f, phi)
        Z = 0.8 * np.sqrt(rng.random((40, 2))) * np.exp(2j * np.pi * rng.random((40, 2)))
        W = phi.val(Z)
        J = phi.jacobian(Z)
        for k in range(2):
            manual = sum(f.partial(m).val(W) * J[..., m, k] for m in range(2))
            structural = comp.partial(k).val(Z)
            np.testing.assert_allclose(structural, manual, rtol=1e-12, atol=1e-12)

    def test_lazy_composition_over_degree_cap(self):
        f = Series({(40,): 1.0}, 1)
        phi = HoloSelfMap([Series({(3,): 0.3}, 1)])
        comp = compose(f, phi)
        assert isinstance(comp, Composition)
        z = [0.7]
        assert comp.value(z) == pytest.approx((0.3 * 0.7 ** 3) ** 40, rel=1e-12)


def series_pow(g, k):
    """g^k as k `mul`s of g into the constant 1."""
    result = Series({(0,) * g.dim: 1.0}, g.dim)
    for _ in range(k):
        result = result.mul(g)
    return result


def add_substitute(f, inners):
    """Reference for Series.substitute: each term is c times series_pow(g_l, e_l)
    in axis order, added to the accumulated Series with `add`."""
    out_dim = inners[0].dim
    acc = Series({}, out_dim)
    for exps, c in f.coeffs.items():
        term = Series({(0,) * out_dim: c}, out_dim)
        for g, e in zip(inners, exps):
            if e:
                term = term.mul(series_pow(g, e))
        acc = acc.add(term)
    return acc


def coefficient_bits(f):
    """Exponents and coefficient bits in key order; hex() keeps the sign of a zero."""
    return [(e, c.real.hex(), c.imag.hex()) for e, c in f.coeffs.items()]


class TestSubstituteAgainstAdd:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_corpus_polynomials_through_polynomial_maps(self, dim, seed):
        maps = [phi for _, phi in default_selfmap_corpus(dim, seed=seed)
                if all(isinstance(c, Series) for c in phi.components)]
        maps.append(HoloSelfMap([steep_factor(3, k, dim) for k in range(dim)]))
        for phi in maps:
            for f in polynomial_corpus(dim, count=5, seed=seed):
                assert coefficient_bits(f.substitute(phi.components)) == \
                    coefficient_bits(add_substitute(f, phi.components))

    def test_cancelled_key_returns_at_the_end(self):
        # a^2 - b^2 + c^2 at (z1 + z2, z1 - z2, z1): z1^2 and z2^2 cancel, then
        # z1^2 comes back after z1 z2
        f = Series({(2, 0, 0): 1.0, (0, 2, 0): -1.0, (0, 0, 2): 1.0}, 3)
        inners = [Series({(1, 0): 1.0, (0, 1): 1.0}, 2), Series({(1, 0): 1.0, (0, 1): -1.0}, 2),
                  Series.coordinate(0, 2)]
        got = f.substitute(inners)
        assert list(got.coeffs) == [(1, 1), (2, 0)]
        assert coefficient_bits(got) == coefficient_bits(add_substitute(f, inners))

    def test_empty_and_constant(self):
        inners = [Series.coordinate(1, 2), Series.coordinate(0, 2)]
        for coeffs in ({}, {(0, 0): -0.0 + 2j}, {(0, 0): 1.0, (1, 1): -0.0 - 1j}):
            f = Series(coeffs, 2)
            assert coefficient_bits(f.substitute(inners)) == \
                coefficient_bits(add_substitute(f, inners))


def steep_factor(N, axis=0, dim=1):
    """((1 + z_axis)/2)^N: coefficient sum 1, touching |.| = 1 at z_axis = 1 only."""
    one = [0] * dim
    one[axis] = 1
    return series_pow(Series({(0,) * dim: 0.5, tuple(one): 0.5}, dim), N)


def torus_sample_max(f, count=100_000, seed=0):
    rng = np.random.default_rng(seed)
    return float(np.max(f.abs_val(np.exp(2j * np.pi * rng.random((count, f.dim))))))


class TestCertification:
    """Maps are certified when built: one exact bracket per component, and a
    polynomial's bracket comes from its torus maximum (maximum modulus)."""

    def test_coefficient_sum_certificate(self):
        phi = HoloSelfMap([Series({(1, 0): 0.5, (0, 1): 0.5}, 2), Series.coordinate(1, 2)])
        assert phi.certificate.brackets == ((1.0, 1.0), (1.0, 1.0))
        assert phi.certificate.is_certified()

    def test_identity_certificate(self):
        phi = identity_map(2)
        assert phi.certificate.brackets == ((1.0, 1.0), (1.0, 1.0))
        assert certify_self_map(phi) == phi.certificate

    def test_expanding_map_unverified(self):
        phi = HoloSelfMap([Series({(1, 0): 2.0}, 2), Series.coordinate(1, 2)])
        assert not phi.certificate.is_certified()
        assert phi.certificate.brackets[0] == (2.0, np.inf)

    def test_moebius_components_on_one_axis_certified_exactly(self):
        # same factor in both components: a genuine self-map but not an automorphism
        phi = HoloSelfMap([MoebiusFactor(2, 0, 0.3), MoebiusFactor(2, 0, 0.3)])
        assert phi.certificate.brackets == ((1.0, 1.0), (1.0, 1.0))

    @pytest.mark.parametrize("N, factor", [(40, 1.02), (60, 1.02), (80, 1.01)])
    def test_non_self_map_refused(self, N, factor):
        # factor * ((1+z_1)/2)^N ((1+z_2)/2)^N equals factor at (1, 1)
        lead = steep_factor(N, 0, 2).mul(steep_factor(N, 1, 2)).scale(factor)
        phi = HoloSelfMap([lead, Series.coordinate(1, 2).scale(0.5)])
        assert not phi.certificate.is_certified()
        lo, hi = phi.certificate.brackets[0]
        assert lo >= factor - 1e-12 and hi == np.inf

    @pytest.mark.parametrize("N", [1, 8, 40, 80])
    def test_steep_family_certified(self, N):
        assert HoloSelfMap([steep_factor(N)]).certificate.is_certified()

    def test_torus_search_beats_the_coefficient_sum(self):
        # coefficient sum 1.2, torus maximum 0.4 |2 + i| = 0.8944 at z = i
        phi = HoloSelfMap([Series({(0,): 0.4, (1,): 0.4, (2,): -0.4}, 1)])
        assert phi.certificate.is_certified()
        lo, hi = phi.certificate.brackets[0]
        assert 0.4 * math.sqrt(5) - 1e-12 <= lo <= 0.4 * math.sqrt(5) + 1e-12
        assert 0.8944 <= hi <= 1.0

    @pytest.mark.xfail(strict=True, reason="a first-order cube bound at a torus maximum "
                       "of exactly 1 never drops to the ceiling: hi = inf at TORUS_BOX_CAP")
    def test_unit_torus_maximum_certified(self):
        # coefficient sum 3/sqrt(5), torus maximum |2 + i|/sqrt(5) = 1 at z = i:
        # a genuine self-map, refused until the cubes get second-order bounds
        c = 1.0 / math.sqrt(5.0)
        phi = HoloSelfMap([Series({(0,): c, (1,): c, (2,): -c}, 1)])
        lo, hi = phi.certificate.brackets[0]
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi <= SELF_MAP_CEILING and phi.certificate.is_certified()

    def test_constant_beside_series_certified_exactly(self):
        phi = HoloSelfMap([Const(0.25j, 2), Series({(1, 0): 0.5, (1, 1): -0.25}, 2)])
        assert phi.certificate.brackets == ((0.25, 0.25), (0.25, 0.75))

    def test_testfn_component_unverified(self):
        # (1 - 0.25) / (1 - 0.5 z) peaks at z = 1 with modulus 1.5
        phi = HoloSelfMap([TestFunction("g", 0, 0.5, 1.0, 1)])
        assert phi.certificate.brackets == ((1.5, 1.5),)
        assert not phi.certificate.is_certified()

    @pytest.mark.parametrize("family", ["f", "g", "h"])
    @pytest.mark.parametrize("w", [0.0, 0.5, 0.6 - 0.3j, 0.9j, -0.95, 0.99])
    @pytest.mark.parametrize("p", [0.3, 0.5, 1.0, 1.5, 2.0, 3.0])
    def test_testfn_bracket_is_the_torus_sup(self, family, w, p):
        t = TestFunction(family, 1, w, p, 2)
        lo, hi = t.sup_bracket()
        assert lo == hi
        if not (family == "g" and w == 0):  # the constant 1, see below
            assert HoloSelfMap([t, Series.coordinate(1, 2)]).certificate.brackets[0] == (lo, hi)
        # z_1 on a dense circle plus the peak direction w/|w|, z_0 at 1 (the
        # peak of 'h') and two other angles
        angles = np.concatenate([np.linspace(-np.pi, np.pi, 1 << 14, endpoint=False),
                                 np.angle(w) + np.array([0.0, 1e-7, -1e-7])])
        Z = np.stack(np.broadcast_arrays(np.exp(1j * np.array([0.0, 0.5, np.pi]))[:, None],
                                         np.exp(1j * angles)[None, :]), axis=-1)
        sampled = float(np.max(t.abs_val(Z)))
        # a sampled value carries the rounding of its evaluation, about
        # 1e-15 relative near |w| = 0.99; no boundary point is above hi beyond it
        assert sampled <= hi * (1.0 + 1e-13)
        assert hi <= sampled * (1.0 + 1e-9)

    def test_antiderivative_at_origin_certifies(self):
        # the family-'f' member at w = 0 is z_0 itself
        phi = HoloSelfMap([TestFunction("f", 0, 0.0, 1.0, 2), Series.coordinate(1, 2)])
        assert phi.certificate.brackets == ((1.0, 1.0), (1.0, 1.0))
        assert phi.certificate.is_certified()

    @pytest.mark.parametrize("comp", [TestFunction("g", 0, 0.0, 0.5, 2),
                                      ScaledKernel(2, 0, 0.0, 1.5)],
                             ids=["testfn-g", "kernel"])
    def test_kernel_at_zero_parameter_is_constant(self, comp):
        # 1 / (1 - 0 z)^p is the constant 1; its partial has scale 0
        phi = HoloSelfMap([comp, Series.coordinate(1, 2)])
        assert phi.certificate.brackets[0] == (1.0, np.inf)
        assert not phi.certificate.is_certified()

    def test_composition_takes_its_outer_bound(self):
        psi = moebius_automorphism([0.4], [0.0])
        phi = compose_map(HoloSelfMap([Series({(2,): 0.5}, 1)]), psi)
        assert isinstance(phi.components[0], Composition)
        assert phi.certificate.brackets == ((0.0, 0.5),)
        # an inner component with no bound leaves the composition without one
        escape = compose_map(moebius_automorphism([0.3], [0.0]),
                             HoloSelfMap([Series({(1,): 2.0}, 1)]))
        assert not escape.certificate.is_certified()

    @pytest.mark.parametrize("scale, certified", [(0.4, True), (0.6, False)])
    def test_kernel_component_bracketed_exactly(self, scale, certified):
        # scale / (1 - 0.5 z_1) peaks at z_1 = 1 with modulus 2 scale
        phi = HoloSelfMap([ScaledKernel(2, 0, 0.5, 1.0, scale), Series.coordinate(1, 2)])
        assert phi.certificate.brackets[0] == (2.0 * scale, 2.0 * scale)
        assert phi.certificate.is_certified() is certified

    def test_sum_and_product_take_their_parts_bounds(self):
        kernel = ScaledKernel(1, 0, 0.5, 1.0, 0.2)  # sup 0.4
        line = Series({(1,): 0.5}, 1)
        assert HoloSelfMap([Sum([kernel, line])]).certificate.brackets == ((0.0, 0.9),)
        assert HoloSelfMap([Product(kernel, line)]).certificate.brackets == ((0.0, 0.2),)
        assert HoloSelfMap([Product(kernel, TestFunction("g", 0, 0.5, 1.0, 1))]
                           ).certificate.brackets == ((0.0, 0.6000000000000001),)
        escape = HoloSelfMap([Product(kernel, Series({(1,): 2.0}, 1))])
        assert escape.certificate.brackets == ((0.0, np.inf),)

    @pytest.mark.parametrize("comp", [Const(1, 2), Const(-1j, 2), Series({(0, 0): 1}, 2)],
                             ids=["const", "const-imaginary", "constant-series"])
    def test_unimodular_constant_refused(self, comp):
        # sup |phi_0| = 1, but a constant of modulus 1 sends U^n into the boundary
        phi = HoloSelfMap([comp, Series.coordinate(1, 2)])
        assert phi.certificate.brackets == ((1.0, np.inf), (1.0, 1.0))
        assert not phi.certificate.is_certified()

    def test_constant_below_one_certified(self):
        phi = HoloSelfMap([Const(0.999, 2), Series.coordinate(1, 2)])
        assert phi.certificate.brackets == ((0.999, 0.999), (1.0, 1.0))
        assert phi.certificate.is_certified()

    def test_high_dimension_certified_without_cube_corners(self):
        # 2^40 corners of a cube cannot be built; the coefficient sum needs none
        start = time.perf_counter()
        phi = identity_map(40)
        assert time.perf_counter() - start < 1.0
        assert phi.certificate.brackets == ((1.0, 1.0),) * 40
        # 2^24 corners would pass TORUS_BOX_CAP at the first split: hi = inf, none built
        split = Series.coordinate(0, 24).scale(0.6).add(Series.coordinate(1, 24).scale(-0.6))
        lo, hi = HoloSelfMap([split] * 24).certificate.brackets[0]
        assert time.perf_counter() - start < 1.0
        assert lo == pytest.approx(0.0, abs=1e-15) and hi == np.inf

    def test_nan_component_never_certified(self):
        for comp in (Const(complex("nan"), 1), Series({(1,): complex("nan")}, 1)):
            phi = HoloSelfMap([comp])
            assert not phi.certificate.is_certified()

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("index", [0, 1, 2])
    @pytest.mark.parametrize("target", [0.9, 0.99])
    def test_polynomial_bracket_contains_torus_samples(self, dim, index, target):
        f = polynomial_corpus(dim)[index]
        f = f.scale(target / torus_sample_max(f, seed=1))
        lo, hi = HoloSelfMap([f] * dim).certificate.brackets[0]
        assert lo <= hi
        assert hi >= torus_sample_max(f)


class TestMoebiusAutomorphism:
    def test_identity_parameters(self):
        phi = moebius_automorphism([0.0, 0.0], [0.0, 0.0])
        z = np.array([0.3 + 0.2j, -0.4])
        np.testing.assert_allclose(phi.val(z), z)

    def test_maps_parameter_to_zero(self):
        phi = moebius_automorphism([0.5], [0.0])
        assert phi.components[0].value([0.5]) == pytest.approx(0.0, abs=1e-15)

    def test_certificate_exact(self):
        assert moebius_automorphism([0.5], [0.0]).certificate.brackets == ((1.0, 1.0),)

    @pytest.mark.parametrize("a", [complex("nan"), complex(0.0, float("inf"))])
    def test_rejects_non_finite_parameter(self, a):
        for build in (lambda: moebius_automorphism([a], [0.0]),
                      lambda: MoebiusFactor(1, 0, a), lambda: ScaledKernel(1, 0, a, 1.0)):
            with pytest.raises(EvaluationDomainError):
                build()

    def test_interior_points_stay_interior(self):
        rng = np.random.default_rng(11)
        phi = moebius_automorphism([0.7, -0.6j], [0.3, 1.2], sigma=(1, 0))
        Z = 0.9999 * np.sqrt(rng.random((500, 2))) * np.exp(2j * np.pi * rng.random((500, 2)))
        assert np.all(np.abs(phi.val(Z)) < 1.0)

    def test_rejects_bad_parameter(self):
        with pytest.raises(Exception):
            moebius_automorphism([1.0], [0.0])
