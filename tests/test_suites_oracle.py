"""Verification suites and the independent oracle path."""

import contextlib
import gc
import inspect
import json
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from blochlab import corpus, criteria, holo, norms, oracle, reports, sampling, suites, testfuncs
from blochlab.corpus import default_function_corpus, default_selfmap_corpus, polynomial_corpus
from blochlab.criteria import coordinate_density_fn
from blochlab.holo import Const, HoloFunction, Series
from blochlab.norms import one_minus_sq, timoney_q_fn
from blochlab.oracle import (
    FD_STEP,
    Q_DIRECTIONS,
    antiderivative_results,
    derivative_results,
    direct_q_seminorm,
    fd_bloch_density,
    fd_gradient,
    q_seminorm_results,
    relative_discrepancy,
    run_oracle,
    sup_results,
    uniform_bloch_norm,
    uniform_points,
)
from blochlab.sampling import SamplingPlan
from blochlab.testfuncs import TestFunction, _antiderivative

ROOT = Path(__file__).resolve().parents[1]
PLAN = SamplingPlan(seed=1)
QUICK_PLAN = SamplingPlan(seed=1, radial_levels=10, angular_count=24,
                          max_rounds=8, budget=15_000)


class BrokenDerivative(HoloFunction):
    """Deliberate fault: value of z^2 but derivative reported as 3 z."""

    def __init__(self):
        self.dim = 1

    def val(self, Z):
        Z = np.asarray(Z, dtype=complex)
        return Z[..., 0] ** 2

    def partial(self, axis):
        return Series({(1,): 3.0}, 1)


class NaNPartials(Series):
    """Deliberate fault: the values of a polynomial, every partial NaN."""

    def partial(self, axis):
        return Const(np.nan, self.dim)


def einsum_q_seminorm(f, Z, seed):
    """The direct Q seminorm as it was first written, with einsum contractions."""
    rng = np.random.default_rng(seed)
    dim = Z.shape[-1]
    U = rng.normal(size=(Q_DIRECTIONS, dim)) + 1j * rng.normal(size=(Q_DIRECTIONS, dim))
    G = fd_gradient(f, Z)
    w2 = one_minus_sq(np.abs(Z)) ** 2
    num = np.abs(np.einsum("nd,md->nm", G, U))
    den = np.sqrt(np.einsum("nd,md->nm", 1.0 / w2, np.abs(U) ** 2))
    return np.max(num / den, axis=1)


def stacked_fd_gradient(f, Z):
    """The finite-difference partials as first written: two shifted copies of
    the points per axis, the partials stacked along a leading axis."""
    Z = np.asarray(Z, dtype=complex)
    grads = []
    for k in range(Z.shape[-1]):
        Zp = Z.copy(order="K")
        Zm = Z.copy(order="K")
        Zp[..., k] += FD_STEP
        Zm[..., k] -= FD_STEP
        grads.append((f.val(Zp) - f.val(Zm)) / (2.0 * FD_STEP))
    return np.moveaxis(np.stack(grads), 0, -1)


def one_shot_q_seminorm(f, Z, seed):
    """The direct Q seminorm with every point contracted with every direction
    in one matrix product."""
    rng = np.random.default_rng(seed)
    dim = Z.shape[-1]
    U = rng.normal(size=(Q_DIRECTIONS, dim)) + 1j * rng.normal(size=(Q_DIRECTIONS, dim))
    G = stacked_fd_gradient(f, Z)
    w2 = one_minus_sq(np.abs(Z)) ** 2
    num = np.abs(G @ U.T)
    den = np.sqrt((1.0 / w2) @ (np.abs(U) ** 2).T)
    return np.max(num / den, axis=1)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def peak_traced_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOracle:
    def test_fd_gradient_matches_polynomial(self):
        f = Series({(2, 1): 1.0, (0, 3): -2j}, 2)
        Z = uniform_points(2, 50, seed=0, rmax=0.7)
        G = fd_gradient(f, Z)
        for k in range(2):
            exact = f.partial(k).val(Z)
            assert float(np.max(np.abs(G[..., k] - exact))) < 1e-8

    def test_derivative_rows_clean_on_corpus(self):
        fns = default_function_corpus(2, seed=0, n_poly=4)
        rows = derivative_results(fns, count=300, seed=0)
        assert all(not r.breach for r in rows)
        assert max(r.discrepancy for r in rows) <= 1e-6

    def test_derivative_rows_flag_broken_member(self):
        rows = derivative_results([BrokenDerivative()], count=100, seed=0)
        assert rows[0].breach

    def test_sup_rows_contained(self):
        fns = polynomial_corpus(1, count=6, seed=2)
        rows = sup_results(fns, 1.0, PLAN, count=5_000, seed=0)
        for r in rows:
            assert not r.breach
            assert r.oracle <= r.primary + 1e-12

    def test_q_seminorm_rows(self):
        fns = polynomial_corpus(2, count=4, seed=3)
        rows = q_seminorm_results(fns, count=60, seed=0)
        assert all(not r.breach for r in rows)

    def test_antiderivative_closed_form_agreement(self):
        members = [TestFunction("f", 0, w, p, 1)
                   for w in (0.3, 0.8, -0.6j) for p in (0.5, 1.0, 2.0)]
        # a tiny conj(w) z and exponents near 1, where a closed form that
        # subtracts (1 - conj(w) z)^(1-p) from 1 loses up to 1.7e-6
        members += [TestFunction("f", 0, w, p, 1)
                    for w, p in ((1e-10, 2.0), (0.5, 1.0 + 1e-7), (0.5, 1.0 - 1e-9))]
        rows = antiderivative_results(members, count=200, seed=0)
        assert len(rows) == len(members)
        assert all(not r.breach for r in rows), [r for r in rows if r.breach]

    def test_run_oracle_aggregates(self):
        fns = polynomial_corpus(1, count=3, seed=4)
        rows = run_oracle(fns, p=1.0, plan=QUICK_PLAN, seed=0,
                          derivative_count=200, sup_count=3_000)
        assert rows
        assert all(not r.breach for r in rows)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_direct_q_seminorm_matches_einsum(self, dim):
        for i, f in enumerate(default_function_corpus(dim)):
            Z = uniform_points(dim, 200, i, rmax=0.8)
            got = direct_q_seminorm(f, Z, seed=i)
            ref = einsum_q_seminorm(f, Z, seed=i)
            assert np.all(np.abs(got - ref) <= 1e-13 * ref), f
            closed = timoney_q_fn(f)(Z)
            if dim == 1:
                # one direction is every direction: the direct value is the
                # closed form up to the finite-difference error of the gradient
                assert np.all(np.abs(got - closed) <= 1e-9 * np.max(closed)), f
            else:
                assert np.all(got <= closed * (1.0 + 1e-12)), f

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_blocked_q_search_matches_one_shot(self, dim):
        # 17 and 33 points end in a one-point block, which must not be
        # contracted on its own (a one-row product takes another BLAS path)
        for i, f in enumerate(default_function_corpus(dim)):
            for count in (1, 2, 16, 17, 33, 200):
                Z = uniform_points(dim, count, i, rmax=0.8)
                got = direct_q_seminorm(f, Z, seed=i)
                assert got.shape == (count,)
                np.testing.assert_array_equal(bits(got), bits(one_shot_q_seminorm(f, Z, i)),
                                              err_msg=f"{f} at {count} points")

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_fd_gradient_matches_stacked_copies(self, dim):
        F = uniform_points(dim, 40, dim, rmax=0.8)
        inputs = [F, np.ascontiguousarray(F), F[:20].reshape(4, 5, dim), F[0].copy()]
        for f in default_function_corpus(dim):
            for Z in inputs:
                got = fd_gradient(f, Z)
                assert got.shape == Z.shape
                np.testing.assert_array_equal(bits(got), bits(stacked_fd_gradient(f, Z)),
                                              err_msg=f"{f} on {Z.shape}")

    def test_oracle_temporaries_stay_near_input_size(self):
        # one (points x directions) product peaked at 2.4 MiB, and two shifted
        # copies of the points per axis at 2.4 MiB
        f = default_function_corpus(2)[0]
        Z = uniform_points(2, 200, 0, rmax=0.8)
        assert peak_traced_bytes(direct_q_seminorm, f, Z) < 0.5 * 2**20
        Z = uniform_points(2, 20_000, 0, rmax=0.97)
        assert peak_traced_bytes(fd_gradient, f, Z) < 2.0 * 2**20

    @pytest.mark.parametrize("dim, seed, allowed", [
        (1, 0, {"sup:1"}),
        (1, 1, {"sup:2"}),
        (2, 0, {"sup:67"}),
        (2, 1, {"sup:5"}),
        (1, 2, set()),
        (2, 2, {"sup:7", "sup:17"}),
    ])
    def test_default_corpus_breaches_stay_within_known_set(self, dim, seed, allowed):
        # the sup rows where the primary estimator still undershoots the plain
        # grid; the set may shrink, but no new row may breach
        rows = run_oracle(default_function_corpus(dim, seed=seed), seed=seed)
        breached = {":".join(r.quantity.split(":")[:2]) for r in rows if r.breach}
        assert breached <= allowed

    def test_nan_partials_breach_their_rows(self):
        # max(0.0, nan) is 0.0 and nan > threshold is False: without the
        # non-finite rule these rows read clean
        f = NaNPartials({(2, 1): 1.0, (0, 1): 0.5j}, 2)
        with np.errstate(invalid="ignore"):
            rows = (derivative_results([f], count=50, seed=0)
                    + q_seminorm_results([f], count=50, seed=0)
                    + sup_results([f], 1.0, QUICK_PLAN, count=500, seed=0))
        assert [r.quantity.split(":")[0] for r in rows] == ["partial", "q-seminorm", "sup"]
        assert all(r.breach for r in rows)
        assert np.isnan(rows[0].oracle) and np.isnan(rows[1].primary)

    def test_nan_closed_form_breaches_antiderivative_row(self, monkeypatch):
        monkeypatch.setattr(testfuncs, "_antiderivative",
                            lambda zl, w, p: np.full(zl.shape, np.nan + 0j))
        rows = antiderivative_results([TestFunction("f", 0, 0.3, 1.0, 1)], count=50)
        assert len(rows) == 1 and rows[0].breach

    def test_nan_closed_form_breaches_family_f_sup_row(self, monkeypatch):
        # the sup row differences a family-f member through its closed form
        monkeypatch.setattr(testfuncs, "_antiderivative",
                            lambda zl, w, p: np.full(zl.shape, np.nan + 0j))
        rows = sup_results([TestFunction("f", 0, 0.3, 1.0, 1)], 1.0, QUICK_PLAN, count=500)
        assert len(rows) == 1 and rows[0].breach

    def test_closed_form_returns_no_view_of_its_points(self):
        Z = uniform_points(2, 10, 0)
        for w in (0.0, 0.5 - 0.2j):
            out = _antiderivative(Z[:, 1], w, 2.0)
            assert not np.shares_memory(out, Z), w

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_sup_norm_moves_only_family_f_by_its_closed_form(self, dim):
        # every member, family f too, is differenced through its own val, the
        # closed form for family f: the sup norm is the plain FD norm bit for bit
        for i, f in enumerate(default_function_corpus(dim, seed=0)):
            got = uniform_bloch_norm(f, 1.0, count=2_000, seed=i)
            Z = uniform_points(dim, 2_000, i, rmax=0.97)
            ref = abs(f.value(np.zeros(dim, dtype=complex))) + float(
                np.max(fd_bloch_density(f, 1.0, Z)))
            assert got == ref, f

    def test_relative_discrepancy_definition(self):
        assert relative_discrepancy(2.0, 1.0) == pytest.approx(0.5)
        assert relative_discrepancy(0.0, 0.0) == 0.0


class TestSuites:
    def test_derivative_and_chain_rows(self):
        fns = default_function_corpus(2, seed=0, n_poly=3)
        maps = default_selfmap_corpus(2, seed=0)
        assert suites.derivative_fd_agreement(fns).passed
        assert suites.chain_rule_identity(maps, fns).passed
        assert suites.moebius_interior_mapping().passed

    def test_chain_rule_row_fails_on_broken_derivative(self):
        maps = default_selfmap_corpus(1, seed=0)
        row = suites.chain_rule_identity(maps, [BrokenDerivative()])
        assert not row.passed

    def test_norm_rows(self):
        fns = default_function_corpus(2, seed=0, n_poly=3)
        polys = polynomial_corpus(2, count=5, seed=0)
        assert suites.q_density_sandwich(fns).passed
        assert suites.point_evaluation_bound(polys, plan=QUICK_PLAN).passed
        assert suites.norm_trace_monotone(fns, plan=QUICK_PLAN).passed

    def test_family_rows(self):
        assert suites.family_uniform_bound(n_w=4).passed
        assert suites.family_f_density_identity().passed
        assert suites.family_truncation_tails(plan=QUICK_PLAN).passed
        assert suites.kernel_local_decay().passed

    def test_family_uniform_bound_samples_nothing(self, monkeypatch):
        # the row proves the bound from closed-form brackets, so no estimator runs
        calls = []

        def counted(module, name):
            real = getattr(module, name)

            def spy(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)

        for module in (suites, norms):
            counted(module, "bloch_norm_estimate")
            counted(module, "bloch_norm_estimates")
        for module in (norms, sampling):
            counted(module, "estimate_supremum")
        row = suites.family_uniform_bound(dim=3)
        assert row.passed and row.worst < 0.0
        assert calls == []
        # the spies do count: one estimate passes through them
        norms.bloch_norm_estimate(TestFunction("f", 0, 0.5, 1.0, 1), 1.0, QUICK_PLAN)
        assert calls == ["bloch_norm_estimate", "bloch_norm_estimates", "estimate_supremum"]

    def test_density_row_decomposition_can_fail(self, monkeypatch):
        # the row compares the density with a sum built from phi.jacobian and phi.val
        maps = default_selfmap_corpus(2, seed=0)
        row = suites.density_row_decomposition(maps)
        assert row.passed and 0.0 < row.worst <= 1e-12 and row.witness
        monkeypatch.setattr(suites, "criterion_density_fn",
                            lambda phi, p, q: coordinate_density_fn(phi, p, q, 0))
        assert not suites.density_row_decomposition(maps).passed

    def test_nan_criterion_density_fails_rows(self, monkeypatch):
        # a NaN slack never compares above the worst so far; it must become
        # the worst and fail the row
        maps = default_selfmap_corpus(2, seed=0)
        fns = default_function_corpus(2, seed=0, n_poly=3)
        density = suites.criterion_density_fn

        def one_nan(phi, p, q):
            fn = density(phi, p, q)

            def planted(Z):
                out = fn(Z)
                out[0] = np.nan
                return out
            return planted

        monkeypatch.setattr(suites, "criterion_density_fn", one_nan)
        for row in (suites.density_row_decomposition(maps),
                    suites.chain_rule_domination(maps, fns, plan=QUICK_PLAN)):
            assert not row.passed and np.isnan(row.worst), row.name
            assert maps[0][0] in row.witness

    def test_nan_bloch_density_fails_rows(self, monkeypatch):
        monkeypatch.setattr(suites, "bloch_density_fn",
                            lambda f, p: lambda Z: np.full(np.shape(Z)[:-1], np.nan))
        sandwich = suites.q_density_sandwich(default_function_corpus(2, seed=0, n_poly=3))
        for row in (sandwich, suites.family_f_density_identity(dim=2)):
            assert not row.passed and np.isnan(row.worst), row.name
        assert sandwich.witness.startswith("member 0 ")

    def test_nan_estimate_fails_trace_and_band_rows(self, monkeypatch):
        # the second Bloch estimate a row asks for is NaN: min() and
        # max(0.0, x) would pass over it
        real, seen = suites.bloch_norm_estimate, []
        fake = SimpleNamespace(value=np.nan, trace=[1.0, np.nan, 2.0], level_trace=[1.0])

        def second_is_nan(f, p, plan):
            seen.append(f)
            return fake if len(seen) == 2 else real(f, p, plan)

        monkeypatch.setattr(suites, "bloch_norm_estimate", second_is_nan)
        fns = default_function_corpus(2, seed=0, n_poly=3)
        trace_row = suites.norm_trace_monotone(fns, plan=QUICK_PLAN)
        assert not trace_row.passed and np.isnan(trace_row.worst)
        assert trace_row.witness == "member 1"
        seen.clear()
        band_row = suites.lipschitz_band_stability(count=3, plan=QUICK_PLAN)
        assert not band_row.passed and np.isnan(band_row.detail["band"][0])

    def test_operator_rows(self):
        maps = default_selfmap_corpus(2, seed=0)
        fns = default_function_corpus(2, seed=0, n_poly=3)
        assert suites.density_row_decomposition(maps).passed
        assert suites.chain_rule_domination(maps, fns, plan=QUICK_PLAN).passed
        assert suites.automorphism_metric_equality().passed

    def test_consistency_rows(self):
        assert suites.small_exponent_decay().passed
        assert suites.metric_floor_implies_stay().passed

    def test_empty_corpus_rows_pass(self):
        assert suites.derivative_fd_agreement([]).passed
        assert suites.q_density_sandwich([]).passed
        assert suites.chain_rule_identity([], []).passed
        assert suites.norm_trace_monotone([], plan=QUICK_PLAN).passed

    def test_run_all_is_the_same_with_or_without_a_kept_grid(self, monkeypatch):
        # estimates reuse the grid an earlier run kept; that must never change a row
        def rows():
            return json.dumps([r.to_json() for r in suites.run_all(dim=2)], sort_keys=True)
        first = rows()
        assert rows() == first
        monkeypatch.setattr(sampling, "_kept_grid", None)
        assert rows() == first

    def test_repeated_run_all_grows_no_module_state(self):
        # evaluation plans live on the function objects, which each call
        # builds afresh; no module-level cache may hold a function or a plan
        def module_state():
            sizes = {"kept grid": len(sampling._kept_grid[4])}
            for module in (corpus, criteria, holo, norms, oracle, reports, sampling, suites,
                           testfuncs):
                for name, value in vars(module).items():
                    if isinstance(value, (dict, list, set)):
                        sizes[module.__name__, name] = len(value)
            return sizes

        suites.run_all(dim=2)
        state = module_state()
        tracemalloc.start()
        try:
            suites.run_all(dim=2)
            gc.collect()
            first = tracemalloc.get_traced_memory()[0]
            suites.run_all(dim=2)
            gc.collect()
            second = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert module_state() == state
        assert second - first < 2**16

    def test_band_stability_row(self):
        row = suites.lipschitz_band_stability(count=6, plan=QUICK_PLAN)
        assert row.passed
        lo, hi = row.detail["band"]
        assert 0 < lo <= hi


def _recorded_run_all(memo: bool):
    """run_all(dim=2) rows as JSON, and the (function key, exponent, plan) of
    every Bloch estimate it computed, in order; with memo False the suites run
    with no shared_estimates block."""
    keys, pending = [], []

    def density_fn(f, p):
        pending.append((norms._function_key(f), p))
        return bloch_density_fn(f, p)

    def estimate(density, dim, plan, **kwargs):
        keys.append(pending.pop() + (plan,))
        return estimate_supremum(density, dim, plan, **kwargs)

    bloch_density_fn, estimate_supremum = norms.bloch_density_fn, norms.estimate_supremum
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(norms, "bloch_density_fn", density_fn)
        mp.setattr(norms, "estimate_supremum", estimate)
        if not memo:
            mp.setattr(suites, "shared_estimates", contextlib.nullcontext)
        rows = [r.to_json() for r in suites.run_all(dim=2)]
    return json.dumps(rows, sort_keys=True), keys


@pytest.fixture(scope="module")
def memo_runs():
    return _recorded_run_all(memo=True), _recorded_run_all(memo=False)


class TestRunAllMemo:
    """One run_all call estimates each (function, exponent, plan) once."""

    def test_rows_equal_rows_without_memo(self, memo_runs):
        (rows, _), (alone, _) = memo_runs
        assert rows == alone

    def test_one_estimate_per_distinct_key(self, memo_runs):
        (_, keys), (_, unshared) = memo_runs
        assert len(keys) == len(set(keys)) == len(set(unshared))
        # norm-trace-monotone and chain-rule-domination repeat the unit-exponent
        # estimates of the 8 corpus polynomials that point-evaluation-bound made
        assert len(unshared) - len(keys) == 16

    def test_no_memo_after_run_all(self, memo_runs, monkeypatch):
        assert norms._memo.get() is None

        def fail(fns):
            assert norms._memo.get() == {}
            raise RuntimeError("suite failed")

        monkeypatch.setattr(suites, "derivative_fd_agreement", fail)
        with pytest.raises(RuntimeError, match="suite failed"):
            suites.run_all(dim=2)
        assert norms._memo.get() is None

    def test_bench_times_each_suite_as_its_row(self, memo_runs):
        """The benchmark times every public suites function but run_all as one
        operation, reported as suites.<row name>.s."""
        (rows, _), _ = memo_runs
        names = [row["name"] for row in json.loads(rows)]
        public = sorted(name for name, obj in vars(suites).items()
                        if inspect.isfunction(obj) and obj.__module__ == suites.__name__
                        and not name.startswith("_") and name != "run_all")
        assert public == sorted(name.replace("-", "_") for name in names)
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        per_layer = {metric["name"] for metric in benchmark["per_layer"]}
        assert {f"suites.{name}.s" for name in names} <= per_layer
