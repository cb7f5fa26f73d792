"""Invariant-verification suites: one row per analytic inequality or identity.

Each suite evaluates a property over a corpus and reports the worst slack and
its witness.  `run_all` drives every suite at desk scale; the CLI's
verify-lemmas command turns the rows into a table and an exit code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import corpus as corpus_mod
from .criteria import (
    compactness_profile,
    coordinate_density_fn,
    criterion_density_fn,
    make_boundary_paths,
    weighted_jacobian_singular_values,
)
from .holo import HoloSelfMap, Series, compose, moebius_automorphism
from .norms import (
    bloch_density_fn,
    bloch_norm_estimate,
    lipschitz_norm_estimate,
    pointeval_bound,
    timoney_q_fn,
)
from .oracle import derivative_results, uniform_points
from .polydisk import Direction, PolydiskPoint, bergman_metric, boundary_distance, segment_point
from .sampling import SamplingPlan
from .testfuncs import family_norm_bound, make_f, make_g, make_h, tail_bound, truncate_test


@dataclass
class SuiteRow:
    name: str
    passed: bool
    worst: float
    witness: str = ""
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "worst": float(self.worst), "witness": self.witness,
                "detail": self.detail}


def _row(name, passed, worst, witness="", **detail) -> SuiteRow:
    return SuiteRow(name, bool(passed), float(worst), witness, dict(detail))


# ---------------------------------------------------------------------------
# geometry


def metric_homogeneity(dim: int = 2, samples: int = 200, seed: int = 0) -> SuiteRow:
    """H(z, c u) = |c|^2 H(z, u) to machine precision."""
    rng = np.random.default_rng(seed)
    worst, witness = 0.0, ""
    for _ in range(samples):
        z = PolydiskPoint(0.95 * np.sqrt(rng.random(dim)) * np.exp(2j * np.pi * rng.random(dim)))
        u = Direction(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        c = rng.normal() + 1j * rng.normal()
        lhs = bergman_metric(z, Direction(c * u.components))
        rhs = abs(c) ** 2 * bergman_metric(z, u)
        err = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        if err > worst:
            worst, witness = err, f"z={z.coords}, c={c}"
    return _row("metric-homogeneity", worst <= 1e-12, worst, witness)


def segment_telescoping(dim: int = 3, samples: int = 50, seed: int = 1) -> SuiteRow:
    """The coordinate-interpolation differences of f telescope to f(z) - f(w)."""
    rng = np.random.default_rng(seed)
    polys = corpus_mod.polynomial_corpus(dim, count=5, seed=seed)
    worst, witness = 0.0, ""
    for _ in range(samples):
        z = PolydiskPoint(0.9 * np.sqrt(rng.random(dim)) * np.exp(2j * np.pi * rng.random(dim)))
        w = PolydiskPoint(0.9 * np.sqrt(rng.random(dim)) * np.exp(2j * np.pi * rng.random(dim)))
        for f in polys:
            total = 0.0 + 0.0j
            for j in range(1, dim + 1):
                total += (f.value(segment_point(z, w, dim - j))
                          - f.value(segment_point(z, w, dim - j + 1)))
            err = abs(total - (f.value(z) - f.value(w)))
            if err > worst:
                worst, witness = err, f"z={z.coords}"
    return _row("segment-telescoping", worst <= 1e-12, worst, witness)


def boundary_distance_positivity(seed: int = 2) -> SuiteRow:
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(100):
        z = PolydiskPoint(0.999 * np.sqrt(rng.random(2)) * np.exp(2j * np.pi * rng.random(2)))
        ok &= boundary_distance(z) > 0
    edge = PolydiskPoint.closed([1.0, 0.3])
    ok &= boundary_distance(edge) == 0.0
    return _row("boundary-distance-positivity", ok, 0.0)


# ---------------------------------------------------------------------------
# derivatives


def derivative_fd_agreement(fns, count: int = 200, seed: int = 3,
                            tol: float = 1e-6) -> SuiteRow:
    """Structural partials agree with central finite differences; the witness
    is the oracle row of the worst member."""
    results = derivative_results(fns, count=count, seed=seed, threshold=tol)
    worst = max(results, key=lambda r: r.oracle, default=None)
    if worst is None:
        return _row("derivative-fd-agreement", True, 0.0, tol=tol)
    return _row("derivative-fd-agreement", worst.oracle <= tol, worst.oracle,
                worst.quantity, tol=tol)


def chain_rule_identity(phi_corpus, fns, count: int = 100, seed: int = 4,
                        tol: float = 1e-12, fd_tol: float = 1e-6) -> SuiteRow:
    """Structural partials of f o phi match the explicit chain-rule sum (to
    tol) and finite differences of the composed values (to fd_tol; this
    second route catches a corrupted stored derivative)."""
    from .oracle import fd_gradient

    worst, witness = 0.0, ""
    for name, phi in phi_corpus:
        Z = uniform_points(phi.dim, count, seed, rmax=0.8)
        W = phi.val(Z)
        J = phi.jacobian_batch(Z)
        for i, f in enumerate(fns[:6]):
            comp = compose(f, phi)
            fparts = [pk.val(W) for pk in f.partials()]
            G_fd = fd_gradient(comp, Z)
            for k in range(phi.dim):
                manual = sum(fparts[m] * J[..., m, k] for m in range(phi.dim))
                structural = comp.partial(k).val(Z)
                scale = np.maximum(np.abs(manual), 1.0)
                err = float(np.max(np.abs(structural - manual) / scale))
                if err > worst:
                    worst, witness = err, f"map {name}, member {i}, axis {k}"
                fd_err = float(np.max(np.abs(structural - G_fd[..., k]) / scale))
                scaled = fd_err * (tol / fd_tol)
                if scaled > worst:
                    worst, witness = scaled, f"map {name}, member {i}, axis {k} (vs FD)"
    return _row("chain-rule-identity", worst <= tol, worst, witness,
                tol=tol, fd_tol=fd_tol)


def moebius_interior_mapping(samples: int = 2000, seed: int = 5, dim: int = 2) -> SuiteRow:
    rng = np.random.default_rng(seed)
    a = 0.8 * (rng.random(dim) - 0.5) + 0.8j * (rng.random(dim) - 0.5)
    phi = moebius_automorphism(a, 2 * np.pi * rng.random(dim))
    Z = uniform_points(dim, samples, seed, rmax=0.999)
    worst = float(np.max(np.abs(phi.val(Z))))
    return _row("moebius-interior-mapping", worst < 1.0, worst)


# ---------------------------------------------------------------------------
# norms


def q_density_sandwich(fns, count: int = 500, seed: int = 6, tol: float = 1e-12) -> SuiteRow:
    """Q_f <= unit-exponent density <= sqrt(n) Q_f at every sampled point."""
    worst, witness = 0.0, ""
    for i, f in enumerate(fns):
        Z = uniform_points(f.dim, count, seed + i, rmax=0.98)
        q = timoney_q_fn(f)(Z)
        d = bloch_density_fn(f, 1.0)(Z)
        sqrt_n = np.sqrt(f.dim)
        lower = float(np.max(q - d))
        upper = float(np.max(d - sqrt_n * q))
        err = max(lower, upper)
        if err > worst:
            worst, witness = err, f"member {i} ({type(f).__name__})"
    return _row("q-density-sandwich", worst <= tol, worst, witness, tol=tol)


def point_evaluation_bound(polys, ps=(0.5, 1.0, 2.0), count: int = 2000,
                           seed: int = 7, plan: SamplingPlan | None = None,
                           slack: float = 1e-3) -> SuiteRow:
    """|f(z)| <= bound-factor(p, n, z) * (estimated norm) * (1 + slack)."""
    plan = plan if plan is not None else SamplingPlan()
    worst, witness = -np.inf, ""
    for p in ps:
        for i, f in enumerate(polys):
            Z = uniform_points(f.dim, count, seed + i, rmax=0.995)
            norm = bloch_norm_estimate(f, p, plan).value
            bound = pointeval_bound(p, Z) * norm * (1.0 + slack)
            excess = float(np.max(np.abs(f.val(Z)) - bound))
            if excess > worst:
                worst, witness = excess, f"poly {i}, p={p}"
    return _row("point-evaluation-bound", worst <= 0.0, worst, witness)


def lipschitz_band_stability(dim: int = 2, count: int = 10, p: float = 0.5,
                             seed: int = 8, plan: SamplingPlan | None = None,
                             max_move: float = 0.10) -> tuple[SuiteRow, dict]:
    """Ratios of Lipschitz to (1-p)-exponent Bloch norms sit in a positive band
    whose endpoints move less than max_move when the plan doubles."""
    plan = plan if plan is not None else SamplingPlan()
    polys = corpus_mod.polynomial_corpus(dim, count=count, seed=seed)

    def band(pl):
        ratios = []
        for f in polys:
            lip = lipschitz_norm_estimate(f, p, pl).value
            blo = bloch_norm_estimate(f, 1.0 - p, pl).value
            ratios.append(lip / max(blo, 1e-300))
        return min(ratios), max(ratios), ratios

    lo1, hi1, _ = band(plan)
    lo2, hi2, _ = band(plan.doubled())
    move = max(abs(lo2 - lo1) / max(lo2, 1e-300), abs(hi2 - hi1) / max(hi2, 1e-300))
    passed = lo1 > 0 and move <= max_move
    row = _row("lipschitz-band-stability", passed, move,
               f"band [{lo1:.4g}, {hi1:.4g}] -> [{lo2:.4g}, {hi2:.4g}]",
               band=[lo1, hi1], doubled_band=[lo2, hi2], n=dim, p=p)
    return row, {"band": (lo1, hi1), "doubled": (lo2, hi2)}


def norm_trace_monotone(fns, plan: SamplingPlan | None = None) -> SuiteRow:
    plan = plan if plan is not None else SamplingPlan()
    worst, witness = 0.0, ""
    for i, f in enumerate(fns[:10]):
        est = bloch_norm_estimate(f, 1.0, plan)
        drops = np.diff(est.trace)
        err = float(max(0.0, -(drops.min() if drops.size else 0.0)))
        if err > worst:
            worst, witness = err, f"member {i}"
        lvl = np.diff(est.level_trace)
        err = float(max(0.0, -(lvl.min() if lvl.size else 0.0)))
        if err > worst:
            worst, witness = err, f"member {i} (levels)"
    return _row("norm-trace-monotone", worst == 0.0, worst, witness)


# ---------------------------------------------------------------------------
# test families


def family_uniform_bound(dim: int = 2, ps=(0.5, 1.0, 2.0), n_w: int = 8,
                         plan: SamplingPlan | None = None,
                         slack: float = 1e-9) -> SuiteRow:
    plan = plan if plan is not None else SamplingPlan()
    rng = np.random.default_rng(9)
    ws = [0.0] + [0.99 * r * np.exp(2j * np.pi * t)
                  for r, t in zip(rng.random(n_w - 1), rng.random(n_w - 1))]
    worst, witness = -np.inf, ""
    for p in ps:
        for w in ws:
            for axis in range(dim):
                members = [("f", make_f(axis, w, p, dim)),
                           ("g", make_g(axis, w, p, dim))]
                if axis != 0:
                    members.append(("h", make_h(axis, w, p, dim)))
                for fam, t in members:
                    est = bloch_norm_estimate(t, p, plan).value
                    excess = est - family_norm_bound(fam, p) - slack
                    if excess > worst:
                        worst, witness = excess, f"family {fam}, p={p}, w={w:.3g}, axis={axis}"
    return _row("family-uniform-bound", worst <= 0.0, worst, witness)


def family_f_density_identity(dim: int = 2, count: int = 400, seed: int = 10,
                              tol: float = 1e-12) -> SuiteRow:
    """|f(0)| + density of the antiderivative member equals
    (1 - |z_l|^2)^p / |1 - conj(w) z_l|^p pointwise."""
    rng = np.random.default_rng(seed)
    worst, witness = 0.0, ""
    for p in (0.5, 1.0, 2.0):
        for w in (0.0, 0.3, 0.6 - 0.5j, 0.9):
            for axis in range(dim):
                t = make_f(axis, w, p, dim)
                Z = uniform_points(dim, count, seed, rmax=0.99)
                dens = bloch_density_fn(t, p)(Z)
                zl = Z[..., axis]
                target = ((1.0 - np.abs(zl)) * (1.0 + np.abs(zl))) ** p \
                    / np.abs(1.0 - np.conj(w) * zl) ** p
                err = float(np.max(np.abs(dens - target)))
                if err > worst:
                    worst, witness = err, f"p={p}, w={w}, axis={axis}"
    return _row("family-f-density-identity", worst <= tol, worst, witness, tol=tol)


def family_truncation_tails(dim: int = 2, p: float = 1.0, w: complex = 0.5,
                            ms=(2, 4, 8, 16), plan: SamplingPlan | None = None,
                            slack: float = 1e-6) -> SuiteRow:
    from .norms import little_bloch_gap

    plan = plan if plan is not None else SamplingPlan()
    worst, witness = -np.inf, ""
    for m in ms:
        t = make_g(0, w, p, dim)
        gap = little_bloch_gap(t, p, m, plan, truncation=truncate_test(t, m))
        excess = gap - tail_bound(p, w, m) - slack
        if excess > worst:
            worst, witness = excess, f"m={m}"
    return _row("family-truncation-tails", worst <= 0.0, worst, witness)


def kernel_local_decay(dim: int = 2, r: float = 0.9, seed: int = 11) -> SuiteRow:
    """sup_{|z_k|<=r} |g_w| <= (1-|w|^2)/(1-r)^p, forcing decay as |w| -> 1."""
    rng = np.random.default_rng(seed)
    worst, witness = -np.inf, ""
    for p in (0.5, 1.0, 2.0):
        for aw in (0.9, 0.99, 0.999):
            w = aw * np.exp(2j * np.pi * rng.random())
            g = make_g(0, w, p, dim)
            Z = r * np.sqrt(rng.random((2000, dim))) * np.exp(2j * np.pi * rng.random((2000, dim)))
            sup = float(np.max(np.abs(g.val(Z))))
            bound = (1.0 - aw ** 2) / (1.0 - r) ** p
            excess = sup - bound
            if excess > worst:
                worst, witness = excess, f"p={p}, |w|={aw}"
    return _row("kernel-local-decay", worst <= 0.0, worst, witness)


# ---------------------------------------------------------------------------
# operator criteria


def density_row_decomposition(phi_corpus, p: float = 1.0, q: float = 1.0,
                              count: int = 500, seed: int = 12,
                              tol: float = 1e-12) -> SuiteRow:
    worst, witness = 0.0, ""
    for name, phi in phi_corpus:
        Z = uniform_points(phi.dim, count, seed, rmax=0.98)
        total = criterion_density_fn(phi, p, q)(Z)
        rows = sum(coordinate_density_fn(phi, p, q, l)(Z) for l in range(phi.dim))
        err = float(np.max(np.abs(total - rows) / np.maximum(total, 1.0)))
        if err > worst:
            worst, witness = err, name
    return _row("density-row-decomposition", worst <= tol, worst, witness, tol=tol)


def chain_rule_domination(phi_corpus, fns, p: float = 1.0, q: float = 1.0,
                          count: int = 300, seed: int = 13,
                          plan: SamplingPlan | None = None,
                          slack: float = 1e-3) -> SuiteRow:
    """density(f o phi, q, z) <= (estimated p-norm of f) * criterion density * (1 + slack)."""
    plan = plan if plan is not None else SamplingPlan()
    worst, witness = -np.inf, ""
    for name, phi in phi_corpus:
        Z = uniform_points(phi.dim, count, seed, rmax=0.97)
        crit = criterion_density_fn(phi, p, q)(Z)
        for i, f in enumerate(fns[:8]):
            comp = compose(f, phi)
            lhs = bloch_density_fn(comp, q)(Z)
            norm = bloch_norm_estimate(f, p, plan).value
            excess = float(np.max(lhs - norm * crit * (1.0 + slack)))
            if excess > worst:
                worst, witness = excess, f"map {name}, member {i}"
    return _row("chain-rule-domination", worst <= 0.0, worst, witness)


def automorphism_metric_equality(dim: int = 2, n_maps: int = 5, count: int = 300,
                                 seed: int = 14, tol: float = 1e-9) -> SuiteRow:
    rng = np.random.default_rng(seed)
    worst, witness = 0.0, ""
    for i in range(n_maps):
        a = 0.9 * np.sqrt(rng.random(dim)) * np.exp(2j * np.pi * rng.random(dim))
        phi = moebius_automorphism(a, 2 * np.pi * rng.random(dim))
        Z = uniform_points(dim, count, seed + i, rmax=0.99)
        s = weighted_jacobian_singular_values(phi, Z) ** 2
        err = float(np.max(np.abs(s - 1.0)))
        if err > worst:
            worst, witness = err, f"automorphism {i}"
    return _row("automorphism-metric-equality", worst <= tol, worst, witness, tol=tol)


def expansion_plateau(phi_corpus, count: int = 2000, seed: int = 15) -> SuiteRow:
    """The largest squared singular value of the weighted Jacobian stays finite
    over samples; the measured plateau is recorded, never asserted against an
    external constant."""
    plateaus = {}
    ok = True
    for name, phi in phi_corpus:
        Z = uniform_points(phi.dim, count, seed, rmax=0.99)
        s = weighted_jacobian_singular_values(phi, Z)
        top = float(np.max(s[..., 0] ** 2))
        plateaus[name] = top
        ok &= np.isfinite(top)
    return _row("expansion-plateau", ok, max(plateaus.values(), default=0.0),
                "", plateaus=plateaus)


def small_exponent_decay(dim: int = 1, seed: int = 16,
                         plan: SamplingPlan | None = None) -> SuiteRow:
    """For p in {0.3, 0.7} and q in {1, 2} the per-coordinate profiles of the
    corpus self-maps decay along every realizable path."""
    plan = plan if plan is not None else SamplingPlan(seed=seed)
    failures = []
    for p in (0.3, 0.7):
        for q in (1.0, 2.0):
            for name, phi in corpus_mod.default_selfmap_corpus(dim, seed=seed):
                paths = []
                for axis in range(dim):
                    paths.extend(make_boundary_paths(phi, "coordinate", axis=axis,
                                                     seed=seed, count=6))
                profiles, verdict = compactness_profile(phi, p, q, paths, "coordinate")
                if verdict.verdict == "fails":
                    failures.append(f"{name}, p={p}, q={q}")
    return _row("small-exponent-decay", not failures, float(len(failures)),
                "; ".join(failures))


def metric_floor_implies_stay(dim: int = 1, p: float = 1.0, q: float = 1.0,
                              seed: int = 17,
                              plan: SamplingPlan | None = None) -> SuiteRow:
    """Whenever the measured minimum expansion stays >= 1e-3 with p >= 1 and
    q <= 1, the global profile must report a non-decaying tail."""
    plan = plan if plan is not None else SamplingPlan(seed=seed)
    bad = []
    for name, phi in corpus_mod.default_selfmap_corpus(dim, seed=seed):
        Z = uniform_points(dim, 1500, seed, rmax=0.99)
        s = weighted_jacobian_singular_values(phi, Z)
        smin = float(np.min(s[..., -1] ** 2))
        if smin < 1e-3:
            continue
        paths = make_boundary_paths(phi, "image", seed=seed, count=6)
        if not paths:
            continue
        _, verdict = compactness_profile(phi, p, q, paths, "image")
        if verdict.verdict != "fails":
            bad.append(f"{name} (min expansion {smin:.3g}, verdict {verdict.verdict})")
    return _row("metric-floor-implies-stay", not bad, float(len(bad)), "; ".join(bad))


# ---------------------------------------------------------------------------
# orchestration


def run_all(dim: int = 2, seed: int = 0, plan: SamplingPlan | None = None,
            fns=None, phi_corpus=None, band_count: int = 10) -> list[SuiteRow]:
    plan = plan if plan is not None else SamplingPlan(seed=seed)
    fns = fns if fns is not None else corpus_mod.default_function_corpus(dim, seed=seed)
    phi_corpus = phi_corpus if phi_corpus is not None \
        else corpus_mod.default_selfmap_corpus(dim, seed=seed)
    polys = corpus_mod.polynomial_corpus(dim, count=12, seed=seed)

    rows = [
        metric_homogeneity(dim=dim),
        segment_telescoping(dim=max(dim, 2)),
        boundary_distance_positivity(),
        derivative_fd_agreement(fns),
        chain_rule_identity(phi_corpus, fns),
        moebius_interior_mapping(dim=dim),
        q_density_sandwich(fns),
        point_evaluation_bound(polys, plan=plan),
        lipschitz_band_stability(dim=dim, count=band_count, plan=plan)[0],
        norm_trace_monotone(fns, plan=plan),
        family_uniform_bound(dim=dim, plan=plan),
        family_f_density_identity(dim=dim),
        family_truncation_tails(dim=dim, plan=plan),
        kernel_local_decay(dim=dim),
        density_row_decomposition(phi_corpus),
        chain_rule_domination(phi_corpus, fns, plan=plan),
        automorphism_metric_equality(dim=max(dim, 2)),
        expansion_plateau(phi_corpus),
        small_exponent_decay(dim=1, plan=plan),
        metric_floor_implies_stay(dim=1, plan=plan),
    ]
    return rows
