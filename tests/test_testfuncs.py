"""The three extremal families: values, kernel partials, bounds, truncations, tails.

The family-f closed form, `testfuncs._antiderivative`, is checked against two
exponents whose antiderivative has a form without cancellation: z/(1 - conj(w) z)
at p = 2 and 2z/(1 + sqrt(1 - conj(w) z)) at p = 1/2, and a batch of points
is checked bit for bit against the same points taken one at a time.
"""

import math

import numpy as np
import pytest

from blochlab.holo import EvaluationDomainError, rising_factorial_coeffs
from blochlab.mapspec import dump_function
from blochlab.corpus import default_function_corpus
from blochlab.norms import (bloch_density_fn, bloch_norm_estimate, bloch_norm_estimates,
                            little_bloch_gap)
from blochlab.sampling import SamplingPlan
from blochlab.testfuncs import (
    TestFunction,
    _antiderivative,
    family_norm_bound,
    members,
    tail_bound,
)

PLAN = SamplingPlan(seed=11)


def fd_partial(f, z, axis, h=1e-6):
    zp = np.array(z, dtype=complex)
    zm = zp.copy()
    zp[axis] += h
    zm[axis] -= h
    return (f.value(zp) - f.value(zm)) / (2 * h)


class TestAntiderivativeFamily:
    def test_zero_parameter_is_monomial(self):
        t = TestFunction("f", 0, 0.0, 1.0, 2)
        rng = np.random.default_rng(0)
        Z = 0.9 * (rng.random((30, 2)) - 0.5) + 0.4j * rng.random((30, 2))
        np.testing.assert_allclose(t.val(Z), Z[..., 0], rtol=1e-14)

    def test_other_partials_vanish(self):
        t = TestFunction("f", 0, 0.3 + 0.2j, 1.5, 3)
        for k in (1, 2):
            assert t.partial(k).value([0.1, 0.2, 0.3]) == 0

    def test_stored_partial_hand_value(self):
        # 1/(1 - conj(w) z)^p at p=1, w=0.5, z=0.5 -> 1/0.75 = 4/3
        t = TestFunction("f", 0, 0.5, 1.0, 1)
        assert t.partial(0).value([0.5]) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_value_agrees_with_fd_of_series(self):
        t = TestFunction("f", 0, 0.6 - 0.2j, 2.0, 2)
        z = [0.4 + 0.3j, 0.1]
        assert t.partial(0).value(z) == pytest.approx(fd_partial(t, z, 0), rel=1e-7)

    def test_flags_near_singular_kernel(self):
        t = TestFunction("f", 0, 1 - 1e-13, 1.0, 1)
        with pytest.raises(EvaluationDomainError):
            t.partial(0).value([1.0])


class TestAntiderivativeKnownAnswers:
    # |w| in {1e-10, 0.3, 0.99}, |z| in {1e-9, 0.5} at four angles, and the
    # boundary point z = w/|w|, where 1 - conj(w) z = 1 - |w| is smallest
    @pytest.mark.parametrize("modulus", [1e-10, 0.3, 0.99])
    @pytest.mark.parametrize("p, reference", [
        (2.0, lambda u, z: z / (1.0 - u)),
        (0.5, lambda u, z: 2.0 * z / (1.0 + np.sqrt(1.0 - u))),
    ])
    def test_matches_cancellation_free_form(self, modulus, p, reference):
        w = modulus * np.exp(0.7j)
        z = np.concatenate([r * np.exp(2j * np.pi * np.arange(4) / 4 + 0.3j)
                            for r in (1e-9, 0.5)] + [[w / abs(w)]])
        want = reference(np.conj(w) * z, z)
        np.testing.assert_allclose(_antiderivative(z, w, p), want, rtol=1e-14, atol=0)


class TestSeriesAgainstLoop:
    """The family-f series, summed by the closed form over a batch, against a
    loop that sums it one point at a time: the same bits and the same shape."""

    rng = np.random.default_rng(12)
    POINTS = {
        "empty": np.zeros(0, dtype=complex),
        "zeros": np.zeros(5, dtype=complex),
        "unit-circle": np.exp(2j * np.pi * rng.random(16)),
        "disk": 0.97 * np.sqrt(rng.random(48)) * np.exp(2j * np.pi * rng.random(48)),
        "small": 1e-3 * (rng.random(8) + 1j * rng.random(8)),
        "grid": np.array([[0.5, -0.5j], [1.0, 0.0]]),
    }

    @pytest.mark.parametrize("w", [0.0, 0.3, 0.6 - 0.5j, 0.9, 0.99, 0.999])
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
    def test_bit_equal(self, w, p):
        for name, zl in self.POINTS.items():
            got = _antiderivative(zl, w, p)
            assert got.shape == zl.shape, name
            loop = np.array([_antiderivative(np.array([z]), w, p)[0] for z in zl.reshape(-1)],
                            dtype=complex).reshape(zl.shape)
            assert np.array_equal(got, loop), name


class TestKernelFamily:
    def test_zero_parameter_constant_one(self):
        t = TestFunction("g", 1, 0.0, 1.3, 2)
        assert t.value([0.5, -0.7j]) == pytest.approx(1.0)

    def test_value_hand_substitution(self):
        # (1 - 0.25)/(1 - 0)^1 = 0.75
        t = TestFunction("g", 0, 0.5, 1.0, 1)
        assert t.value([0.0]) == pytest.approx(0.75)

    def test_partial_hand_substitution(self):
        # p conj(w) (1-|w|^2)/(1 - z conj(w))^{p+1} = 1 * 0.5 * 0.75 = 0.375 at z = 0
        t = TestFunction("g", 0, 0.5, 1.0, 1)
        assert t.partial(0).value([0.0]) == pytest.approx(0.375, rel=1e-14)

    def test_partial_matches_fd(self):
        t = TestFunction("g", 1, 0.7j, 0.5, 2)
        z = [0.2, 0.3 - 0.4j]
        assert t.partial(1).value(z) == pytest.approx(fd_partial(t, z, 1), rel=1e-7)


class TestWeightedKernelFamily:
    def test_requires_axis_not_zero(self):
        with pytest.raises(ValueError):
            TestFunction("h", 0, 0.5, 1.0, 2)
        with pytest.raises(ValueError):
            TestFunction("h", 1, 0.5, 1.0, 1)

    def test_zero_parameter_affine(self):
        t = TestFunction("h", 1, 0.0, 1.0, 2)
        assert t.value([0.3, 0.9]) == pytest.approx(2.3)
        assert t.partial(0).value([0.3, 0.9]) == pytest.approx(1.0)
        assert t.partial(1).value([0.3, 0.9]) == pytest.approx(0.0, abs=1e-15)

    def test_other_partials_vanish(self):
        t = TestFunction("h", 1, 0.4, 1.0, 3)
        assert t.partial(2).value([0.1, 0.2, 0.3]) == 0

    def test_partial_hand_substitution(self):
        # p (z_0+2) conj(w) (1-|w|^2)^p / (1 - z conj(w))^{p+1} at 0: 1*2*0.5*0.75 = 0.75
        t = TestFunction("h", 1, 0.5, 1.0, 2)
        assert t.partial(1).value([0.0, 0.0]) == pytest.approx(0.75, rel=1e-14)

    def test_both_partials_match_fd(self):
        t = TestFunction("h", 1, 0.3 - 0.5j, 2.0, 2)
        z = [0.25 - 0.1j, 0.4 + 0.2j]
        for k in (0, 1):
            assert t.partial(k).value(z) == pytest.approx(fd_partial(t, z, k), rel=1e-6)


class TestFamilyNormBound:
    def test_reported_values_at_unit_exponent(self):
        assert family_norm_bound("f", 1.0) == pytest.approx(2.0)
        assert family_norm_bound("g", 1.0) == pytest.approx(5.0)
        assert family_norm_bound("h", 1.0) == pytest.approx(16.0)

    def test_general_forms(self):
        for p in (0.5, 1.5):
            assert family_norm_bound("f", p) == pytest.approx(2.0 ** p)
            assert family_norm_bound("g", p) == pytest.approx(1 + p * 2.0 ** (p + 1))
        p = 1.5
        assert family_norm_bound("h", p) == pytest.approx(2 + 2.0 ** p + 3 * p * 2.0 ** (p + 1))

    def test_estimates_stay_below_bounds(self):
        for p in (0.5, 1.0, 2.0):
            for w in (0.0, 0.5, 0.9, -0.8j):
                for fam, axis in (("f", 0), ("g", 0), ("h", 1)):
                    if fam == "h" and p < 1.0:
                        continue
                    est = bloch_norm_estimate(TestFunction(fam, axis, w, p, 2), p, PLAN)
                    assert est.value <= family_norm_bound(fam, p) + 1e-9

    def test_weighted_kernel_has_no_bound_below_unit_exponent(self):
        # the h norm grows like (1 - |w|)^(p-1): at p = 1/2 and |w| = 0.99 the
        # lower end of its bracket already exceeds the formula's value
        p = 0.5
        formula = 2 + 2.0 ** p + 3 * p * 2.0 ** (p + 1)
        lo, _ = TestFunction("h", 1, 0.99, p, 2).bloch_norm_bracket(p)
        assert lo > 11.7 > formula
        with pytest.raises(ValueError):
            family_norm_bound("h", p)


class TestBlochNormBracket:
    def test_brackets_hold_over_the_corpora(self):
        # est <= hi is the certificate; the undershoot of f and g, whose lo is
        # the norm, is the estimator's accuracy and stays near 2e-6
        ps = (0.5, 1.0, 2.0)
        count, undershoot = 0, 0.0
        for dim in (1, 2, 3):
            for seed in (0, 1, 2):
                plan = SamplingPlan(seed=seed)
                for t in default_function_corpus(dim, seed=seed):
                    if not isinstance(t, TestFunction):
                        continue
                    for s, est in zip(ps, bloch_norm_estimates(t, ps, plan)):
                        lo, hi = t.bloch_norm_bracket(s)
                        assert lo <= hi, (t, s)
                        assert est.value <= hi * (1.0 + 1e-12), (t, s)
                        if t.family != "h":
                            undershoot = max(undershoot, (lo - est.value) / lo)
                        count += 1
        assert count == 1620
        assert undershoot < 1e-5

    def test_known_values(self):
        lo, hi = TestFunction("f", 0, 0.8, 0.5, 1).bloch_norm_bracket(1.0)
        assert lo == pytest.approx(1.04846301004, rel=1e-11)
        assert hi == pytest.approx(lo, rel=1e-13)
        for s in (0.5, 1.0, 2.0):
            for fam, want in (("f", 1.0), ("g", 1.0), ("h", 3.0)):
                lo, hi = TestFunction(fam, 1, 0.0, 1.5, 2).bloch_norm_bracket(s)
                assert lo == want
                assert want < hi <= want * (1.0 + 1e-13)  # hi's rounding allowance

    def test_linear_stationary_condition(self):
        # e = 2s: the maximum of ((1 - t^2) / (1 - a t)^2)^s is at t = a,
        # where it is (1 - a^2)^-s; f at p = 2s and g at p + 1 = 2s take it
        a = 0.6
        assert TestFunction("f", 0, a, 1.0, 1).bloch_norm_bracket(0.5)[0] == \
            pytest.approx(1.25, rel=1e-15)
        g = TestFunction("g", 0, -a * 1j, 1.0, 1).bloch_norm_bracket(1.0)[0]
        assert g == pytest.approx((1 - a * a) * (1 + a / (1 - a * a)), rel=1e-15)
        # and the root's one form is continuous across it
        near = TestFunction("f", 0, a, 1.0, 1).bloch_norm_bracket(0.5 + 1e-9)[0]
        assert near == pytest.approx(1.25, rel=1e-8)

    def test_brackets_reach_the_density_on_the_ray(self):
        # the density on the ray z_l = t w/|w| (z_0 = 0 or near 1 for h) never
        # exceeds hi, and its max on a fine ray grid comes within 1e-6 of lo,
        # which is the norm for f and g
        w, s = 0.7 - 0.5j, 1.5
        t = np.linspace(0.0, 0.999999, 200_001)
        for fam, p in (("f", 0.5), ("g", 2.0), ("h", 1.0)):
            nu = TestFunction(fam, 1, w, p, 2)
            lo, hi = nu.bloch_norm_bracket(s)
            base = abs(nu.value([0.0, 0.0]))
            Z = np.zeros((t.size, 2), dtype=complex)
            Z[:, 1] = t * w / abs(w)
            dens = [bloch_density_fn(nu, s)(Z)]
            if fam == "h":
                Z[:, 0] = 1.0 - 1e-9
                dens.append(bloch_density_fn(nu, s)(Z))
            best = base + max(float(d.max()) for d in dens)
            assert lo * (1.0 - 1e-6) <= best <= hi
            if fam != "h":
                assert best == pytest.approx(lo, rel=1e-6)

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            TestFunction("f", 0, 0.5, 1.0, 1).bloch_norm_bracket(0.0)


class TestMembers:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_the_per_family_loops(self, dim):
        w, p = 0.6 - 0.5j, 1.5
        want = []
        for axis in range(dim):
            want += [("f", axis), ("g", axis)]
            if axis != 0 and dim >= 2:
                want.append(("h", axis))
        got = [t for axis in range(dim) for t in members(axis, w, p, dim)]
        assert [(t.family, t.axis) for t in got] == want
        assert all((t.w, t.p, t.dim) == (w, p, dim) for t in got)


class TestDensityIdentity:
    def test_antiderivative_density_chain(self):
        # |f(0)| + density = (1 - |z_l|^2)^p / |1 - conj(w) z_l|^p pointwise
        rng = np.random.default_rng(1)
        for p in (0.5, 1.0, 2.0):
            t = TestFunction("f", 0, 0.6 + 0.3j, p, 2)
            Z = 0.95 * np.sqrt(rng.random((200, 2))) * np.exp(2j * np.pi * rng.random((200, 2)))
            for z in Z[:50]:
                lhs = abs(t.value([0.0, 0.0])) + bloch_density_fn(t, p)(z)
                zl = z[0]
                rhs = (1 - abs(zl) ** 2) ** p / abs(1 - np.conj(0.6 + 0.3j) * zl) ** p
                assert lhs == pytest.approx(rhs, abs=1e-12)


class TestTruncation:
    def test_antiderivative_zero_parameter(self):
        t = TestFunction("f", 1, 0.0, 1.0, 2)
        for m in (1, 3, 7):
            poly = t.taylor(m)
            assert poly.coeffs == {(0, 1): 1.0 + 0j}

    def test_kernel_order_zero(self):
        t = TestFunction("g", 0, 0.5, 1.0, 1)
        poly = t.taylor(0)
        assert poly.coeffs == {(0,): 0.75 + 0j}

    def test_weighted_kernel_order_zero(self):
        t = TestFunction("h", 1, 0.0, 1.0, 2)
        poly = t.taylor(0)
        assert poly.coeffs == {(0, 0): 2.0 + 0j, (1, 0): 1.0 + 0j}

    def test_kernel_taylor_coefficients(self):
        # (1-|w|^2) / (1 - conj(w) z)^p = (1-|w|^2) sum_j Gamma(p+j)/(Gamma(p) j!) conj(w)^j z^j
        w, p = 0.6 - 0.3j, 1.5
        t = TestFunction("g", 1, w, p, 2)
        for m in (0, 3):
            expected = {(0, j): (1 - abs(w) ** 2) * math.gamma(p + j)
                        / (math.gamma(p) * math.factorial(j)) * np.conj(w) ** j
                        for j in range(m + 1)}
            poly = t.taylor(m)
            assert poly.coeffs.keys() == expected.keys()
            for e, c in expected.items():
                assert poly.coeffs[e] == pytest.approx(c, rel=1e-14)

    def test_truncation_converges_to_member(self):
        t = TestFunction("g", 0, 0.5, 1.0, 1)
        z = [0.4 - 0.3j]
        errs = [abs(t.taylor(m).value(z) - t.value(z)) for m in (2, 6, 14)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-6


class TestTailBound:
    def test_zero_parameter(self):
        for m in (0, 3, 9):
            assert tail_bound(1.0, 0.0, m) == 0.0

    def test_geometric_closed_form(self):
        # p = 1: coefficients are all 1, so the tail is |w|^{m+1}/(1-|w|)
        assert tail_bound(1.0, 0.5, 3) == pytest.approx(0.125, abs=1e-12)
        for w in (0.3, 0.7, 0.9):
            for m in (1, 4, 9):
                assert tail_bound(1.0, w, m) == pytest.approx(w ** (m + 1) / (1 - w), rel=1e-12)

    def test_monotone_in_truncation_index(self):
        for p in (0.5, 1.0, 2.0):
            tails = [tail_bound(p, 0.6, m) for m in range(8)]
            assert all(a > b for a, b in zip(tails, tails[1:]))

    def test_bounds_closed_form_near_unit_parameter(self):
        # sum_j c_j |w|^j = (1 - |w|)^-p, so the tail is that minus the head;
        # at |w| = 0.99999 the summation reaches its term cap first
        aw = 0.99999
        for p in (0.5, 1.0, 2.0, 3.0):
            for m in (0, 4):
                head = float(np.sum(rising_factorial_coeffs(p, m + 1) * aw ** np.arange(m + 1)))
                exact = (1.0 - aw) ** -p - head
                tail = tail_bound(p, aw, m)
                assert np.isfinite(tail)
                assert tail >= exact * (1.0 - 1e-9)

    def test_exact_near_unit_parameter(self):
        # the tail at m = 0 is the closed form minus the head c_0 = 1
        exact = (1.0 - 0.99999) ** -3 - 1.0
        assert tail_bound(3.0, 0.99999, 0) == pytest.approx(exact, rel=1e-9)

    def test_gap_below_tail(self):
        t = TestFunction("g", 0, 0.5, 1.0, 2)
        for m in (2, 4, 8):
            gap = little_bloch_gap(t, 1.0, m, PLAN)
            assert gap <= tail_bound(1.0, 0.5, m) + 1e-6


class TestLocalDecay:
    def test_kernel_member_small_on_compacts_as_w_grows(self):
        # sup over |z_k| <= r of |g_w| <= (1-|w|^2)/(1-r)^p
        rng = np.random.default_rng(2)
        r = 0.9
        Z = r * np.sqrt(rng.random((500, 2))) * np.exp(2j * np.pi * rng.random((500, 2)))
        sups = []
        for aw in (0.9, 0.99, 0.999):
            t = TestFunction("g", 0, aw, 1.5, 2)
            sup = float(np.max(np.abs(t.val(Z))))
            assert sup <= (1 - aw ** 2) / (1 - r) ** 1.5 + 1e-12
            sups.append(sup)
        assert sups[0] > sups[1] > sups[2]


class TestSerialization:
    def test_json_round_trip_fields(self):
        t = TestFunction("h", 1, 0.25 - 0.5j, 2.0, 2)
        d = dump_function(t)["function"]
        again = TestFunction(d["family"], d["l"], complex(*d["w"]), d["p"], 2)
        z = [0.2, 0.4j]
        assert again.value(z) == pytest.approx(t.value(z), rel=1e-14)
