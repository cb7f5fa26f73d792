"""Operator detectors: densities, boundedness, paths, compactness, classification."""

import json
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochlab import criteria
from blochlab.corpus import default_selfmap_corpus
from blochlab.criteria import (
    DECAY_TOL,
    PATH_FINAL_TARGET,
    PATH_MAX_TARGETS,
    PATH_MIN_POINTS,
    PATH_REQUIRED_FINAL,
    BoundaryPath,
    STAY_FLOOR,
    STAY_RATIO,
    PathValidationError,
    _approach,
    _judge_tail,
    _ray_pool,
    UncertifiedMapError,
    Verdict,
    boundedness_check,
    classify,
    compactness_profile,
    coordinate_density_fn,
    criterion_density_fn,
    lip1_boundedness_check,
    little_bloch_verdict,
    make_boundary_paths,
    operator_norm_lower_bound,
    weighted_jacobian_singular_values,
)
from blochlab.holo import (
    Const,
    HoloSelfMap,
    ScaledKernel,
    SelfMapCertificate,
    Series,
    identity_map,
    moebius_automorphism,
)
from blochlab.norms import one_minus_sq
from blochlab.oracle import uniform_points
from blochlab.sampling import SamplingPlan, stratified_grid

PLAN = SamplingPlan(seed=5)


def halving_map(dim=1):
    return HoloSelfMap([Series.coordinate(k, dim).scale(0.5) for k in range(dim)])


def shifted_half_map():
    return HoloSelfMap([Series({(0,): 0.5, (1,): 0.5}, 1)])


def constant_series_map(values):
    # constant Series components: the coefficient test certifies them
    dim = len(values)
    return HoloSelfMap([Series({(0,) * dim: c}, dim) for c in values])


def power(g, k):
    """g^k: the monomial z^k with g substituted."""
    return Series.monomial((k,), 1).substitute([g])


def steep_map(N):
    # ((1+z)/2)^N touches the boundary at z = 1 only, with angular derivative N/2
    return HoloSelfMap([power(Series({(0,): 0.5, (1,): 0.5}, 1), N)])


def product_map():
    # (z_1 z_2, z_2) on U^2
    return HoloSelfMap([Series({(1, 1): 1.0}, 2), Series.coordinate(1, 2)])


def escaping_map():
    # a falsely certified map whose image leaves the disk at interior points
    phi = HoloSelfMap([Series({(0,): 0.999, (1,): 0.1}, 1)])
    phi.certificate = SelfMapCertificate(((0.9, 0.9),))
    return phi


class TestCriterionDensity:
    def test_identity_equals_dimension(self):
        for n in (1, 2, 3):
            phi = identity_map(n)
            z = np.full(n, 0.1 + 0.2j)
            assert criterion_density_fn(phi, 1.0, 1.0)(z) == pytest.approx(n, abs=1e-12)

    def test_identity_mixed_exponents(self):
        # (1-0.64)^2/(1-0.64)^1 + 1 = 0.36 + 1 = 1.36
        phi = identity_map(2)
        assert criterion_density_fn(phi, 1.0, 2.0)(np.array([0.8, 0.0])) \
            == pytest.approx(1.36, abs=1e-12)

    def test_halving_at_origin(self):
        phi = halving_map(1)
        assert criterion_density_fn(phi, 1.0, 1.0)(np.array([0.0])) == pytest.approx(0.5)

    def test_row_decomposition(self):
        phi = product_map()
        Z = uniform_points(2, 200, seed=3, rmax=0.95)
        total = criterion_density_fn(phi, 0.7, 1.3)(Z)
        rows = sum(coordinate_density_fn(phi, 0.7, 1.3, l)(Z) for l in range(2))
        np.testing.assert_allclose(total, rows, rtol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rows_equal_a_per_axis_loop(self, dim):
        # bit for bit: row l sums |d_k phi_l| (1 - |z_k|^2)^q over every axis
        # k, zero partials included, then divides by (1 - |phi_l|^2)^p
        Z = uniform_points(dim, 64, seed=dim, rmax=0.999)
        for name, phi in default_selfmap_corpus(dim, seed=0):
            for p, q in ((0.5, 2.0), (1.0, 1.0), (2.0, 0.5)):
                rows = []
                for comp in phi.components:
                    num = np.zeros(len(Z))
                    for k, pk in enumerate(comp.partials()):
                        num += pk.abs_val(Z) * one_minus_sq(np.abs(Z[:, k])) ** q
                    rows.append(num / one_minus_sq(np.abs(comp.val(Z))) ** p)
                for l, row in enumerate(rows):
                    got = coordinate_density_fn(phi, p, q, l)(Z)
                    np.testing.assert_array_equal(got.view(np.uint64), row.view(np.uint64))
                total = sum(rows[1:], rows[0])  # the rows added left to right
                got = criterion_density_fn(phi, p, q)(Z)
                np.testing.assert_array_equal(got.view(np.uint64), total.view(np.uint64),
                                              err_msg=name)

    def test_coordinate_density_hand_value(self):
        # phi = (z_1 z_2, z_2), first row at z = (0, 0.5):
        # |z_2|(1-0)^q/(1-0)^p + |z_1|(1-0.25)^q/(1-0)^p = 0.5
        phi = product_map()
        val = coordinate_density_fn(phi, 1.0, 1.0, 0)(np.array([0.0, 0.5]))
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_identity_coordinate_rows_are_one(self):
        phi = identity_map(2)
        for l in range(2):
            assert coordinate_density_fn(phi, 1.0, 1.0, l)(np.array([0.3, -0.6j])) \
                == pytest.approx(1.0, abs=1e-14)

    def test_singular_escape_is_inf(self):
        assert criterion_density_fn(escaping_map(), 1.0, 1.0)(np.array([0.5])) == np.inf


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
        v, est = boundedness_check(constant_series_map([0.3, 0.1j]), 1.0, 1.0, PLAN)
        assert v.verdict == "holds"
        assert est.sup == 0.0

    def test_uncertified_refusal(self):
        phi = HoloSelfMap([Series({(1,): 2.0}, 1)])
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

    @pytest.mark.parametrize("axis", [5, -1])
    def test_out_of_range_axis_refused(self, axis):
        phi = identity_map(2)
        paths = [replace(path, axis=axis)
                 for path in make_boundary_paths(phi, "coordinate", axis=1, count=2, seed=0)]
        with pytest.raises(PathValidationError, match="axis in \\[0, 2\\)"):
            compactness_profile(phi, 0.5, 1.0, paths, "coordinate")

    def test_shallow_path_rejected(self):
        pts = np.linspace(0.1, 0.5, 10, dtype=complex)[:, None]
        bad = BoundaryPath(points=pts, mode="image", path_id="shallow")
        with pytest.raises(PathValidationError):
            bad.validate(identity_map(1))


def loop_boundary_paths(phi, mode, axis=None, count=None, seed=0):
    """Reference for make_boundary_paths: one bisection per halving target,
    each bracket starting at the previous target's t, rays filled one by one."""
    n = phi.dim
    if count is None:
        count = 16 * n if mode == "image" else 16
    rng = np.random.default_rng(seed)
    t_max = 1.0 - 1e-12

    def measures_for(U, T):
        return _approach(phi, T[:, None] * U, mode, axis)

    pool = _ray_pool(n, count, rng)
    deep_pool = measures_for(pool, np.full(pool.shape[0], t_max))
    order = np.argsort(deep_pool, kind="stable")
    U = pool[order[:count]]
    deep = deep_pool[order[:count]]
    g0 = float(measures_for(U, np.zeros(count))[0])
    if g0 <= 0:
        return []

    delta = min(g0 / 2.0, 0.25)
    targets = []
    while delta >= PATH_FINAL_TARGET and len(targets) < PATH_MAX_TARGETS:
        targets.append(delta)
        delta /= 2.0

    pts = [[] for _ in range(count)]
    meas = [[] for _ in range(count)]
    t_prev = np.zeros(count)
    alive = np.ones(count, dtype=bool)
    for tgt in targets:
        alive = alive & (deep <= tgt)
        if not np.any(alive):
            break
        lo = t_prev.copy()
        hi = np.full(count, t_max)
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            above = measures_for(U, mid) > tgt
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        gj = measures_for(U, hi)
        for i in range(count):
            if alive[i]:
                pts[i].append(hi[i] * U[i])
                meas[i].append(gj[i])
        t_prev = np.where(alive, hi, t_prev)

    finals = [m[-1] for m in meas if m]
    if not finals:
        return []
    stall_cutoff = max(min(finals) * 16.0, PATH_FINAL_TARGET * 4.0)
    paths = []
    for i in range(count):
        if len(pts[i]) < PATH_MIN_POINTS:
            continue
        approach = np.array(meas[i])
        if approach[-1] > PATH_REQUIRED_FINAL or approach[-1] > stall_cutoff:
            continue
        tag = f"{mode}" + (f"{axis}" if mode == "coordinate" else "")
        paths.append(BoundaryPath(points=np.array(pts[i]), mode=mode, axis=axis,
                                  approach=approach, path_id=f"{tag}-ray{i}"))
    return paths


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_bisection_matches_loop_reference(dim, seed):
    # the brackets start at 0 rather than at the previous target's t, so
    # points agree to the 2^-48 resolution in t, not bit for bit
    for name, phi in default_selfmap_corpus(dim, seed=seed):
        for mode, axis in [("image", None)] + [("coordinate", a) for a in range(dim)]:
            got = make_boundary_paths(phi, mode, axis=axis, seed=seed)
            ref = loop_boundary_paths(phi, mode, axis=axis, seed=seed)
            assert [p.path_id for p in got] == [p.path_id for p in ref], (name, mode, axis)
            targets = min(float(_approach(phi, np.zeros(dim), mode, axis)) / 2.0, 0.25) \
                * 0.5 ** np.arange(PATH_MAX_TARGETS)
            for g, r in zip(got, ref):
                assert g.points.shape == r.points.shape
                np.testing.assert_allclose(g.points, r.points, rtol=0, atol=1e-13)
                np.testing.assert_allclose(g.approach, r.approach, rtol=1e-6)
                assert np.all(g.approach <= targets[:g.approach.size])
                g.validate(phi)


class TestCompactnessProfile:
    def test_identity_constant_density_stays(self):
        phi = identity_map(1)
        paths = make_boundary_paths(phi, "image", count=16, seed=0)
        profiles, v = compactness_profile(phi, 1.0, 1.0, paths, "image")
        assert v.verdict == "fails"
        for pr in profiles:
            np.testing.assert_allclose(pr.values, 1.0, atol=1e-9)

    def test_hand_built_path_records_measured_approach(self):
        t = 1.0 - 2.0 ** -np.arange(1, 15)
        path = BoundaryPath(points=t[:, None].astype(complex), mode="image", path_id="hand")
        profiles, v = compactness_profile(identity_map(1), 1.0, 1.0, [path], "image")
        assert v.verdict == "fails"
        assert profiles[0].path.points is path.points
        np.testing.assert_allclose(profiles[0].to_json()["approach"], 1.0 - t, rtol=1e-12)

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


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_profiles_match_each_path_alone(dim, p):
    # a profile evaluates the paths of one density as one batch; every value
    # and approach measure is bit-equal to that path's own evaluation
    q = 1.0
    checked = 0
    for name, phi in default_selfmap_corpus(dim):
        if p >= 1.0:
            mode, paths = "image", make_boundary_paths(phi, "image")
        else:
            mode = "coordinate"
            paths = [path for axis in range(dim)
                     for path in make_boundary_paths(phi, mode, axis=axis, seed=axis)]
        profiles, _ = compactness_profile(phi, p, q, paths, mode)
        assert len(profiles) == len(paths)
        for path, pr in zip(paths, profiles):
            alone = criterion_density_fn(phi, p, q) if mode == "image" \
                else coordinate_density_fn(phi, p, q, path.axis)
            assert np.array_equal(pr.values, alone(path.points)), (name, path.path_id)
            assert np.array_equal(pr.path.approach, path.measure(phi)), (name, path.path_id)
            checked += 1
    assert checked


class TestSchwarzExpansion:
    """Squared singular values of the weighted Jacobian: the extremal ratios of
    H_{phi(z)}(J u) to H_z(u) over directions u != 0."""

    def test_identity_ratio_one(self):
        phi = identity_map(2)
        s2 = weighted_jacobian_singular_values(phi, np.array([0.3, -0.4j])) ** 2
        np.testing.assert_allclose(s2, 1.0, atol=1e-12)

    def test_halving_at_origin(self):
        s2 = weighted_jacobian_singular_values(halving_map(1), np.array([0.0])) ** 2
        assert s2[0] == pytest.approx(0.25, abs=1e-14)

    def test_automorphism_metric_equality(self):
        rng = np.random.default_rng(9)
        phi = moebius_automorphism([0.5 + 0.2j, -0.3], [0.7, 2.1], sigma=(1, 0))
        Z = 0.95 * np.sqrt(rng.random((50, 2))) * np.exp(2j * np.pi * rng.random((50, 2)))
        s2 = weighted_jacobian_singular_values(phi, Z) ** 2
        np.testing.assert_allclose(s2, 1.0, atol=1e-9)


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

    def test_constant_map_compact(self):
        report = classify(constant_series_map([0.2, 0.1]), 1.0, 1.0, PLAN)
        assert report.bounded.verdict == "holds"
        assert report.compact.verdict == "holds"

    def test_halving_small_component_route(self):
        # no path is realizable, and the exponent gap does not rewrap that
        for p, q in ((1.0, 1.0), (0.5, 1.0), (0.5, 0.5), (2.0, 0.5)):
            report = classify(halving_map(1), p, q, PLAN)
            assert report.compact.verdict == "holds", (p, q)
            assert report.compact.rule == "small-components", (p, q)
            assert report.compact.margin is None
            assert report.compact.detail == {"reason": "no realizable boundary approach"}
            assert report.profiles == []

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
        with pytest.raises(UncertifiedMapError):
            classify(phi, 1.0, 1.0, PLAN)

    def test_refusal_names_the_component_and_its_bracket(self):
        phi = HoloSelfMap([Series.coordinate(0, 2), Series({(1, 0): 0.5, (0, 1): 0.75}, 2)])
        with pytest.raises(UncertifiedMapError, match=re.escape("|phi_1| lies in [1.25, inf]")):
            classify(phi, 1.0, 1.0, PLAN)

    def test_unimodular_constant_refused(self):
        phi = HoloSelfMap([Const(1, 2), Series.coordinate(1, 2)])
        with pytest.raises(UncertifiedMapError, match="phi_0 is constant, of modulus 1;"):
            classify(phi, 1.0, 1.0, PLAN)
        report = classify(HoloSelfMap([Const(0.999, 2), Series.coordinate(1, 2)]), 1.0, 1.0, PLAN)
        assert report.component_sups == [0.999, 1.0]

    def test_exponent_gap_contradicted_by_a_failing_profile(self, monkeypatch):
        # no corpus map reaches this route: stub the profile to fail at p < 1 <= q
        fails = Verdict("fails", "coordinate-boundary-decay", margin=0.5, detail={"tail": 1.0})
        monkeypatch.setattr(criteria, "compactness_profile", lambda *args: ([], fails))
        compact = classify(identity_map(1), 0.5, 1.0, PLAN).compact
        assert (compact.verdict, compact.rule, compact.margin) == (
            "inconclusive", "exponent-gap", None)
        assert compact.detail == {"note": "profile contradicted the exponent-gap rule",
                                  "profile": fails.to_json()}

    def test_decay_downgraded_while_boundedness_unresolved(self, monkeypatch):
        holds = Verdict("holds", "image-boundary-decay", margin=0.25)
        check = criteria.boundedness_check

        def unresolved(*args):
            bounded, est = check(*args)
            return Verdict("inconclusive", bounded.rule), est

        monkeypatch.setattr(criteria, "boundedness_check", unresolved)
        monkeypatch.setattr(criteria, "compactness_profile", lambda *args: ([], holds))
        report = classify(identity_map(1), 1.0, 2.0, PLAN)
        assert report.bounded.verdict == "inconclusive"
        assert (report.compact.verdict, report.compact.rule) == (
            "inconclusive", "image-boundary-decay")
        assert report.compact.detail == {"reason": "decay observed but boundedness unresolved",
                                         "decay": holds.to_json()}

    def test_component_sups_are_the_certified_upper_ends(self):
        report = classify(product_map(), 1.0, 1.0, PLAN)
        assert report.component_sups == [1.0, 1.0]
        assert report.to_json()["certificate"] == {"brackets": [[1.0, 1.0], [1.0, 1.0]]}
        assert classify(halving_map(2), 1.0, 1.0, PLAN).component_sups == [0.5, 0.5]

    def test_report_serializes(self):
        import json

        report = classify(halving_map(1), 1.0, 1.0, PLAN)
        blob = json.dumps(report.to_json())
        assert "schema_version" in blob


GRID = (0.5, 1.0, 2.0)


def classify_json(cells, monkeypatch, reset):
    """classify(phi, p, q, plan) of each cell as sorted JSON, in order; with
    reset, nothing kept survives from one cell to the next."""
    out = []
    for phi, p, q, plan in cells:
        if reset:
            monkeypatch.setattr(criteria, "_kept", None)
        out.append(json.dumps(classify(phi, p, q, plan).to_json(), sort_keys=True))
    return out


def counted_builds(monkeypatch):
    """Record the (mode, axis, seed) of every make_boundary_paths build."""
    builds = []
    build = criteria.make_boundary_paths

    def counted(phi, mode, axis=None, count=None, seed=0):
        builds.append((mode, axis, seed))
        return build(phi, mode, axis, count, seed)

    monkeypatch.setattr(criteria, "make_boundary_paths", counted)
    return builds


def recomputed_combine(parts, p, q):
    """Reference: `_Parts.combine` with its weights (1 - |z_k|^2)^q recomputed
    from the points Z rather than raised from the kept gap columns."""
    axes = {k for row in parts.rows for k in row}
    weights = {k: one_minus_sq(np.abs(parts.Z[..., k])) ** q for k in axes}
    oms = parts.block[len(parts.block) - len(parts.rows):]
    out, start = None, 0
    for row, om in zip(parts.rows, oms):
        num = np.zeros(parts.Z.shape[:-1])
        for k, modulus in zip(row, parts.block[start:start + len(row)]):
            num += modulus * weights[k]
        start += len(row)
        escaped = om <= 0.0
        value = np.where(escaped & (num > 0), np.inf, num / np.where(escaped, 1.0, om) ** p)
        out = value if out is None else out + value
    return out


def assert_same_bits(got, want):
    np.testing.assert_array_equal(np.asarray(got).view(np.uint64),
                                  np.asarray(want).view(np.uint64))


class TestKeptPaths:
    """classify keeps the boundary paths, grid parts and path-set parts of the
    last map it was asked about."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_reports_equal_those_built_afresh(self, dim, monkeypatch):
        cells = [(phi, p, q, SamplingPlan(seed=seed)) for seed in (0, 1)
                 for _, phi in default_selfmap_corpus(dim, seed=seed)
                 for p in GRID for q in GRID]
        assert classify_json(cells, monkeypatch, reset=False) == \
            classify_json(cells, monkeypatch, reset=True)

    def test_revisited_map_equals_built_afresh(self, monkeypatch):
        # A, B, A in every cell and seed: B frees A's paths, which A then
        # rebuilds, and the next seed asks A for other paths
        a, b = identity_map(2), moebius_automorphism([0.3, -0.2j], [0.5, 1.0])
        cells = [(phi, p, q, SamplingPlan(seed=seed)) for p in GRID for q in GRID
                 for seed in (0, 1) for phi in (a, b, a)]
        monkeypatch.setattr(criteria, "_kept", None)
        assert classify_json(cells, monkeypatch, reset=False) == \
            classify_json(cells, monkeypatch, reset=True)

    def test_sweep_builds_each_path_set_once(self, monkeypatch):
        corpus = default_selfmap_corpus(2)
        builds = counted_builds(monkeypatch)
        for _, phi in corpus:
            for p in GRID:
                for q in GRID:
                    classify(phi, p, q, PLAN)
        assert len(builds) == 15
        builds.clear()
        classify_json([(phi, p, q, PLAN) for _, phi in corpus for p in GRID for q in GRID],
                      monkeypatch, reset=True)
        assert len(builds) == 48

    def test_empty_path_list_is_kept(self, monkeypatch):
        phi = halving_map(2)
        builds = counted_builds(monkeypatch)
        for p in GRID:
            for q in GRID:
                assert classify(phi, p, q, PLAN).compact.rule == "small-components"
        seed = PLAN.seed
        assert sorted(builds, key=str) == [("coordinate", 0, seed), ("coordinate", 1, seed + 1),
                                           ("image", None, seed)]
        assert criteria._kept.path_sets[("image", None, seed)].paths == []

    def test_next_map_frees_the_kept_map(self):
        a, b = identity_map(1), halving_map(1)
        classify(a, 1.0, 1.0, PLAN)
        ref = weakref.ref(a)
        del a
        assert ref() is not None  # held strongly, so its id cannot be reused
        classify(b, 1.0, 1.0, PLAN)
        assert ref() is None

    def test_kept_arrays_are_read_only(self):
        report = classify(identity_map(2), 1.0, 1.0, PLAN)
        kept = criteria._kept.path_sets[("image", None, PLAN.seed)]
        assert kept.paths and report.profiles[0].path.points is kept.paths[0].points
        assert report.profiles[0].path.approach is kept.approaches[0]
        for array in (kept.paths[0].points, kept.paths[0].approach, kept.approaches[0],
                      kept.parts.Z, kept.parts.block, criteria._kept.grid[1].block):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5

    def test_plans_interleaved_on_one_map_equal_built_afresh(self, monkeypatch):
        # seeds 0 and 1 draw grids of one size, other radial levels one of
        # another size: grid parts are kept per plan
        phi = product_map()
        plans = (SamplingPlan(seed=0), SamplingPlan(seed=1), SamplingPlan(radial_levels=10))
        cells = [(phi, p, q, plan) for p in GRID for q in GRID for plan in plans]
        monkeypatch.setattr(criteria, "_kept", None)
        assert classify_json(cells, monkeypatch, reset=False) == \
            classify_json(cells, monkeypatch, reset=True)

    def test_sweep_evaluates_each_map_on_the_grid_once(self, monkeypatch):
        # the parts of the dim-2 corpus maps on the grid: one evaluation of
        # each row's partials per map (5 maps x 2 rows), not one per cell
        n = len(stratified_grid(2, PLAN)[0])
        grid_rows = []
        moduli = criteria.partial_moduli

        def counted(comp, Z):
            if Z.shape == (n, 2):
                grid_rows.append(comp)
            return moduli(comp, Z)

        monkeypatch.setattr(criteria, "partial_moduli", counted)
        monkeypatch.setattr(criteria, "_kept", None)
        for _, phi in default_selfmap_corpus(2):
            for p in GRID:
                for q in GRID:
                    classify(phi, p, q, PLAN)
        assert len(grid_rows) == 5 * 2

    def test_sweep_evaluates_each_refinement_batch_once_per_map(self, monkeypatch):
        # cells that reach one witness propose the same batches: the second
        # and later cells of a map take that batch's parts from the slot
        proposed, evaluated, current = [], [], None
        estimate, density_parts = criteria.estimate_supremum, criteria._density_parts

        def recording_estimate(density_fn, dim, plan, base=0.0, grid_values=None):
            def density(Z):
                proposed.append((current, Z.tobytes()))
                return density_fn(Z)
            return estimate(density, dim, plan, base=base, grid_values=grid_values)

        def recording_parts(phi, axes):
            parts = density_parts(phi, axes)
            return lambda Z: evaluated.append((current, Z.tobytes())) or parts(Z)

        monkeypatch.setattr(criteria, "estimate_supremum", recording_estimate)
        monkeypatch.setattr(criteria, "_density_parts", recording_parts)
        monkeypatch.setattr(criteria, "_kept", None)
        for current, (_, phi) in enumerate(default_selfmap_corpus(2)):
            for p in GRID:
                for q in GRID:
                    classify(phi, p, q, PLAN)
        batches = set(proposed)
        assert len([e for e in evaluated if e in batches]) == len(batches) < len(proposed)

    def test_kept_batch_parts_are_read_only_and_freed_with_the_map(self):
        a = identity_map(2)
        classify(a, 1.0, 1.0, PLAN)
        batches = criteria._kept.batches
        assert batches
        for parts in batches.values():
            for array in (parts.Z, parts.block, *parts.gaps.values()):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.5
        # a map the slot does not hold neither reads nor fills it
        before = dict(batches)
        boundedness_check(halving_map(2), 1.0, 1.0, PLAN)
        assert criteria._kept.batches == before
        kept = next(iter(batches.values()))
        refs = [weakref.ref(kept.block)] + [weakref.ref(gap) for gap in kept.gaps.values()]
        del a, batches, before, kept
        classify(halving_map(2), 1.0, 1.0, PLAN)
        assert all(ref() is None for ref in refs)

    @pytest.mark.parametrize("p", [0.5, 2.0])
    @pytest.mark.parametrize("phi", [product_map(), moebius_automorphism([0.3, -0.2j], [0.5, 1.0]),
                                     escaping_map()], ids=["product", "automorphism", "escaping"])
    def test_combine_from_kept_gaps_equals_weights_from_the_points(self, phi, p):
        # the grid, batch and path-set parts (image and coordinate paths) that
        # classify keeps combine as the weights recomputed from Z would
        for q in GRID:
            classify(phi, p, q, PLAN)
        kept = criteria._kept
        everything = [kept.grid[1], *kept.batches.values(),
                      *(s.parts for s in kept.path_sets.values() if s.parts is not None)]
        assert kept.batches and (phi.dim == 1 or len(everything) > len(kept.batches) + 1)
        for parts in everything:
            axes = {k for row in parts.rows for k in row}
            assert parts.gaps.keys() == axes
            for q in GRID:
                assert_same_bits(parts.combine(p, q), recomputed_combine(parts, p, q))
        if phi.dim == 1:
            assert np.isinf(kept.grid[1].combine(p, 1.0)).any()

    def test_profile_of_hand_built_paths_leaves_the_slot_alone(self, monkeypatch):
        # a path classify did not keep is measured and validated on every call,
        # even a copy of a kept one
        phi = identity_map(1)
        classify(phi, 1.0, 1.0, PLAN)
        kept = criteria._kept
        path_sets, grid = dict(kept.path_sets), kept.grid
        away = BoundaryPath(points=np.linspace(0.9, 0.1, 10, dtype=complex)[:, None],
                            mode="image", path_id="away")
        copies = [replace(path) for path in kept.path_sets[("image", None, PLAN.seed)].paths]
        measured = []
        measure = BoundaryPath.measure
        monkeypatch.setattr(BoundaryPath, "measure",
                            lambda path, phi: measured.append(path) or measure(path, phi))
        for _ in range(3):
            with pytest.raises(PathValidationError, match="not monotone"):
                compactness_profile(phi, 1.0, 1.0, [away], "image")
            compactness_profile(phi, 1.0, 1.0, copies, "image")
        assert len(measured) == 6
        assert criteria._kept is kept and kept.grid is grid
        assert kept.path_sets.keys() == path_sets.keys()
        assert all(kept.path_sets[key] is value for key, value in path_sets.items())


def numpy_judge_tail(values):
    """Reference: `_judge_tail` on the array, through numpy."""
    tail = values[-4:]
    with np.errstate(invalid="ignore", over="ignore"):
        if np.all(np.diff(tail) <= 1e-12) and tail[-1] < DECAY_TOL:
            return "decayed"
        if tail[-1] >= STAY_FLOOR and tail[-1] >= STAY_RATIO * tail[0]:
            return "stays"
    return "undecided"


SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-12, -1e-12, 2e-12, DECAY_TOL, STAY_FLOOR,
           1e308, -1e308, 5e-324]


@st.composite
def tail_values(draw):
    """Lengths 1-6 of arbitrary, special and small values, or of steps of
    exactly +-1e-12 from a special start."""
    size = draw(st.integers(1, 6))
    if draw(st.booleans()):
        value = st.one_of(st.floats(), st.sampled_from(SPECIAL),
                          st.floats(-2e-3, 2e-3))
        return np.array(draw(st.lists(value, min_size=size, max_size=size)), dtype=float)
    values = [draw(st.sampled_from(SPECIAL))]
    for _ in range(size - 1):
        values.append(values[-1] + draw(st.sampled_from([1e-12, -1e-12, 0.0])))
    return np.array(values)


@settings(max_examples=300, deadline=None)
@given(values=tail_values())
def test_judge_tail_in_floats_equals_numpy(values):
    assert _judge_tail(values) == numpy_judge_tail(values)


@pytest.mark.parametrize("values, status", [
    ([0.0, 1e-12, 2e-12], "decayed"),  # steps of exactly 1e-12
    ([0.0, 1e-12, 2e-12, 3e-12], "undecided"),  # 3e-12 - 2e-12 rounds above 1e-12
    ([1e-12, 0.0], "decayed"),
    ([0.5, 0.5 + 4e-12], "stays"),
    ([np.nan, 0.5], "undecided"),
    ([0.5, np.nan], "undecided"),
    ([np.inf, np.inf], "stays"),
])
def test_judge_tail_at_the_edges(values, status):
    values = np.array(values)
    assert _judge_tail(values) == numpy_judge_tail(values) == status


class TestSteepContact:
    """phi = ((1+z)/2)^N reaches |phi| = 1 at z = 1 only, with a finite angular
    derivative, so C_phi is compact exactly when p < q (Madigan-Matheson); the
    sampled sup |phi| stops short of 1 and must not make it look compact."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("N", [8, 40, 80])
    def test_compact_iff_p_below_q(self, N, seed):
        phi, plan = steep_map(N), SamplingPlan(seed=seed)
        for p, q in ((1.0, 1.0), (0.5, 0.5), (2.0, 1.0)):
            assert classify(phi, p, q, plan).compact.verdict != "holds", (p, q)
        for p, q in ((1.0, 2.0), (0.5, 1.0)):
            assert classify(phi, p, q, plan).compact.verdict == "holds", (p, q)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_one_steep_coordinate_in_dim_2(self, seed):
        steep = power(Series({(0, 0): 0.5, (1, 0): 0.5}, 2), 40)
        phi = HoloSelfMap([steep, Series.coordinate(1, 2).scale(0.5)])
        plan = SamplingPlan(seed=seed)
        for p, q in ((1.0, 1.0), (0.5, 0.5)):
            assert classify(phi, p, q, plan).compact.verdict != "holds", (p, q)


class TestLittleBlochOperatorCheck:
    # every certified component is holomorphic across the closed polydisk, so
    # the detector measures boundedness alone

    def test_identity_holds(self):
        v = little_bloch_verdict(*boundedness_check(identity_map(1), 1.0, 1.0, PLAN))
        assert v.verdict == "holds"
        assert v.rule == "holomorphic-components"
        assert set(v.detail) == {"bounded", "sup"}
        assert v.detail["sup"] == pytest.approx(1.0, rel=1e-9)

    def test_polynomial_map_gaps_zero(self):
        phi = product_map()
        v = little_bloch_verdict(*boundedness_check(phi, 1.0, 1.0, PLAN))
        bounded, est = boundedness_check(phi, 1.0, 1.0, PLAN)
        assert v.verdict == "holds"
        assert v.detail == {"bounded": bounded.to_json(), "sup": est.sup}

    def test_moebius_map_with_truncatable_powers(self):
        phi = moebius_automorphism([0.4], [0.0])
        v = little_bloch_verdict(*boundedness_check(phi, 1.0, 1.0, PLAN))
        assert v.verdict == "holds"
        assert v.detail["bounded"]["rule"] == "sup-density-plateau"

    def test_kernel_component_certified_or_refused(self):
        # 0.4 / (1 - 0.5 z_1) has sup 0.8; 0.6 / (1 - 0.5 z_1) reaches 1.2 at z_1 = 1
        inside = HoloSelfMap([ScaledKernel(2, 0, 0.5, 1.0, 0.4), Series.coordinate(1, 2)])
        v = little_bloch_verdict(*boundedness_check(inside, 1.0, 1.0, PLAN))
        assert v.verdict == "holds"
        outside = HoloSelfMap([ScaledKernel(2, 0, 0.5, 1.0, 0.6), Series.coordinate(1, 2)])
        with pytest.raises(UncertifiedMapError, match=re.escape("|phi_0| lies in [1.2, 1.2]")):
            little_bloch_verdict(*boundedness_check(outside, 1.0, 1.0, PLAN))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_verdict_is_the_bounded_verdict_on_the_corpus(self, dim):
        plan = SamplingPlan(seed=0)
        for name, phi in default_selfmap_corpus(dim, seed=0):
            for p in (0.5, 1.0, 2.0):
                for q in (0.5, 1.0, 2.0):
                    v = little_bloch_verdict(*boundedness_check(phi, p, q, plan))
                    assert v.verdict == classify(phi, p, q, plan).bounded.verdict, (name, p, q)


class TestLip1Boundedness:
    def test_identity_holds(self):
        v = lip1_boundedness_check(identity_map(1), PLAN)
        assert v.verdict == "holds"
        assert v.margin <= 1.0 + 1e-9

    def test_constant_holds(self):
        v = lip1_boundedness_check(constant_series_map([0.3]), PLAN)
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
        lb = operator_norm_lower_bound(constant_series_map([0.2]), 1.0, 1.0, [0.0, 0.4], PLAN)
        assert 0.0 < lb <= 3.0
