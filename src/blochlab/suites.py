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
    criterion_density_fn,
    make_boundary_paths,
    weighted_jacobian_singular_values,
)
from .holo import compose, moebius_automorphism
from .norms import (
    bloch_density_fn,
    bloch_norm_estimate,
    bloch_norm_estimates,
    lipschitz_norm_estimate,
    little_bloch_gap,
    one_minus_sq,
    pointeval_bound,
    shared_estimates,
    timoney_q_fn,
)
from .oracle import derivative_results, fd_gradient, uniform_points
from .reports import record_json
from .sampling import SamplingPlan
from .testfuncs import TestFunction, family_norm_bound, members, tail_bound


@dataclass
class SuiteRow:
    name: str
    passed: bool
    worst: float
    witness: str = ""
    detail: dict = field(default_factory=dict)

    to_json = record_json


def _row(name, passed, worst, witness="", **detail) -> SuiteRow:
    return SuiteRow(name, bool(passed), float(worst), witness, dict(detail))


def _rank(slack) -> tuple:
    """Sort key for a row's slacks: NaN above every number, so the first NaN
    slack becomes the row's worst, and no pass test (<=, ==) admits it."""
    return (bool(np.isnan(slack)), slack)


# ---------------------------------------------------------------------------
# derivatives


def derivative_fd_agreement(fns) -> SuiteRow:
    """Structural partials agree with central finite differences; the witness
    is the oracle row of the worst member."""
    tol = 1e-6
    results = derivative_results(fns, count=200, seed=3, threshold=tol)
    worst = max(results, key=lambda r: _rank(r.oracle), default=None)
    if worst is None:
        return _row("derivative-fd-agreement", True, 0.0, tol=tol)
    return _row("derivative-fd-agreement", worst.oracle <= tol, worst.oracle,
                worst.quantity, tol=tol)


def chain_rule_identity(phi_corpus, fns) -> SuiteRow:
    """Structural partials of f o phi match the explicit chain-rule sum (to
    tol) and finite differences of the composed values (to fd_tol; this
    second route catches a corrupted stored derivative)."""
    tol, fd_tol = 1e-12, 1e-6
    worst, witness = 0.0, ""
    for name, phi in phi_corpus:
        Z = uniform_points(phi.dim, 100, 4, rmax=0.8)
        W = phi.val(Z)
        J = phi.jacobian(Z)
        for i, f in enumerate(fns[:6]):
            comp = compose(f, phi)
            fparts = [pk.val(W) for pk in f.partials()]
            G_fd = fd_gradient(comp, Z)
            for k in range(phi.dim):
                manual = sum(fparts[m] * J[..., m, k] for m in range(phi.dim))
                structural = comp.partial(k).val(Z)
                scale = np.maximum(np.abs(manual), 1.0)
                err = float(np.max(np.abs(structural - manual) / scale))
                if _rank(err) > _rank(worst):
                    worst, witness = err, f"map {name}, member {i}, axis {k}"
                fd_err = float(np.max(np.abs(structural - G_fd[..., k]) / scale))
                scaled = fd_err * (tol / fd_tol)
                if _rank(scaled) > _rank(worst):
                    worst, witness = scaled, f"map {name}, member {i}, axis {k} (vs FD)"
    return _row("chain-rule-identity", worst <= tol, worst, witness,
                tol=tol, fd_tol=fd_tol)


def moebius_interior_mapping(dim: int = 2) -> SuiteRow:
    rng = np.random.default_rng(5)
    a = 0.8 * (rng.random(dim) - 0.5) + 0.8j * (rng.random(dim) - 0.5)
    phi = moebius_automorphism(a, 2 * np.pi * rng.random(dim))
    Z = uniform_points(dim, 2000, 5, rmax=0.999)
    worst = float(np.max(np.abs(phi.val(Z))))
    return _row("moebius-interior-mapping", worst < 1.0, worst)


# ---------------------------------------------------------------------------
# norms


def q_density_sandwich(fns) -> SuiteRow:
    """Q_f <= unit-exponent density <= sqrt(n) Q_f at every sampled point."""
    tol = 1e-12
    worst, witness = 0.0, ""
    for i, f in enumerate(fns):
        Z = uniform_points(f.dim, 500, 6 + i, rmax=0.98)
        q = timoney_q_fn(f)(Z)
        d = bloch_density_fn(f, 1.0)(Z)
        sqrt_n = np.sqrt(f.dim)
        lower = float(np.max(q - d))
        upper = float(np.max(d - sqrt_n * q))
        err = float(np.maximum(lower, upper))
        if _rank(err) > _rank(worst):
            worst, witness = err, f"member {i} ({type(f).__name__})"
    return _row("q-density-sandwich", worst <= tol, worst, witness, tol=tol)


def point_evaluation_bound(polys, plan: SamplingPlan = SamplingPlan()) -> SuiteRow:
    """|f(z)| <= bound-factor(p, n, z) * (estimated norm) * (1 + 1e-3)."""
    ps = (0.5, 1.0, 2.0)
    excess = {}
    for i, f in enumerate(polys):
        Z = uniform_points(f.dim, 2000, 7 + i, rmax=0.995)
        moduli = np.abs(f.val(Z))
        for p, est in zip(ps, bloch_norm_estimates(f, ps, plan)):
            bound = pointeval_bound(p, Z) * est.value * (1.0 + 1e-3)
            excess[p, i] = float(np.max(moduli - bound))
    worst, witness = -np.inf, ""
    for p in ps:
        for i in range(len(polys)):
            if _rank(excess[p, i]) > _rank(worst):
                worst, witness = excess[p, i], f"poly {i}, p={p}"
    return _row("point-evaluation-bound", worst <= 0.0, worst, witness)


def lipschitz_band_stability(dim: int = 2, count: int = 10,
                             plan: SamplingPlan = SamplingPlan()) -> SuiteRow:
    """Ratios of Lipschitz to (1-p)-exponent Bloch norms, p = 1/2, sit in a
    positive band whose endpoints move by at most 10% when the plan doubles."""
    p = 0.5
    polys = corpus_mod.polynomial_corpus(dim, count=count, seed=8)

    def band(pl):
        ratios = []
        for f in polys:
            lip = lipschitz_norm_estimate(f, p, pl).value
            blo = bloch_norm_estimate(f, 1.0 - p, pl).value
            ratios.append(lip / max(blo, 1e-300))
        return float(np.min(ratios)), float(np.max(ratios))

    lo1, hi1 = band(plan)
    lo2, hi2 = band(plan.doubled())
    move = float(np.max([abs(lo2 - lo1) / max(lo2, 1e-300), abs(hi2 - hi1) / max(hi2, 1e-300)]))
    passed = lo1 > 0 and move <= 0.10
    return _row("lipschitz-band-stability", passed, move,
                f"band [{lo1:.4g}, {hi1:.4g}] -> [{lo2:.4g}, {hi2:.4g}]",
                band=[lo1, hi1], doubled_band=[lo2, hi2], n=dim, p=p)


def _largest_fall(trace) -> float:
    """The largest fall between consecutive entries, 0.0 if none; NaN if an
    entry is NaN."""
    steps = np.diff(trace)
    low = steps.min() if steps.size else 0.0
    return 0.0 if low >= 0.0 else float(-low)


def norm_trace_monotone(fns, plan: SamplingPlan = SamplingPlan()) -> SuiteRow:
    worst, witness = 0.0, ""
    for i, f in enumerate(fns[:10]):
        est = bloch_norm_estimate(f, 1.0, plan)
        err = _largest_fall(est.trace)
        if _rank(err) > _rank(worst):
            worst, witness = err, f"member {i}"
        err = _largest_fall(est.level_trace)
        if _rank(err) > _rank(worst):
            worst, witness = err, f"member {i} (levels)"
    return _row("norm-trace-monotone", worst == 0.0, worst, witness)


# ---------------------------------------------------------------------------
# test families


def family_uniform_bound(dim: int = 2, n_w: int = 8) -> SuiteRow:
    """Proves `family_norm_bound` at each member of a seeded w draw: the upper
    end of the member's closed-form norm bracket stays at or below the bound.

    The check samples nothing, so a pass is a proof at those members; 'h' is
    checked at p >= 1 only, where its bound holds."""
    rng = np.random.default_rng(9)
    ws = [0.0] + [0.99 * r * np.exp(2j * np.pi * t)
                  for r, t in zip(rng.random(n_w - 1), rng.random(n_w - 1))]
    worst, witness = -np.inf, ""
    for p in (0.5, 1.0, 2.0):
        for w in ws:
            for axis in range(dim):
                for t in members(axis, w, p, dim):
                    if t.family == "h" and p < 1.0:
                        continue
                    excess = t.bloch_norm_bracket(p)[1] - family_norm_bound(t.family, p)
                    if _rank(excess) > _rank(worst):
                        worst, witness = excess, f"family {t.family}, p={p}, w={w:.3g}, axis={axis}"
    return _row("family-uniform-bound", worst <= 0.0, worst, witness)


def family_f_density_identity(dim: int = 2) -> SuiteRow:
    """|f(0)| + density of the antiderivative member equals
    (1 - |z_l|^2)^p / |1 - conj(w) z_l|^p pointwise."""
    tol = 1e-12
    worst, witness = 0.0, ""
    for p in (0.5, 1.0, 2.0):
        for w in (0.0, 0.3, 0.6 - 0.5j, 0.9):
            for axis in range(dim):
                t = TestFunction("f", axis, w, p, dim)
                Z = uniform_points(dim, 400, 10, rmax=0.99)
                dens = bloch_density_fn(t, p)(Z)
                zl = Z[..., axis]
                target = ((1.0 - np.abs(zl)) * (1.0 + np.abs(zl))) ** p \
                    / np.abs(1.0 - np.conj(w) * zl) ** p
                err = float(np.max(np.abs(dens - target)))
                if _rank(err) > _rank(worst):
                    worst, witness = err, f"p={p}, w={w}, axis={axis}"
    return _row("family-f-density-identity", worst <= tol, worst, witness, tol=tol)


def family_truncation_tails(dim: int = 2, plan: SamplingPlan = SamplingPlan()) -> SuiteRow:
    p, w = 1.0, 0.5
    worst, witness = -np.inf, ""
    for m in (2, 4, 8, 16):
        t = TestFunction("g", 0, w, p, dim)
        gap = little_bloch_gap(t, p, m, plan)
        excess = gap - tail_bound(p, w, m) - 1e-6
        if _rank(excess) > _rank(worst):
            worst, witness = excess, f"m={m}"
    return _row("family-truncation-tails", worst <= 0.0, worst, witness)


def kernel_local_decay(dim: int = 2) -> SuiteRow:
    """sup_{|z_k|<=r} |g_w| <= (1-|w|^2)/(1-r)^p at r = 0.9, forcing decay as |w| -> 1."""
    r = 0.9
    rng = np.random.default_rng(11)
    worst, witness = -np.inf, ""
    for p in (0.5, 1.0, 2.0):
        for aw in (0.9, 0.99, 0.999):
            w = aw * np.exp(2j * np.pi * rng.random())
            g = TestFunction("g", 0, w, p, dim)
            Z = r * np.sqrt(rng.random((2000, dim))) * np.exp(2j * np.pi * rng.random((2000, dim)))
            sup = float(np.max(np.abs(g.val(Z))))
            bound = (1.0 - aw ** 2) / (1.0 - r) ** p
            excess = sup - bound
            if _rank(excess) > _rank(worst):
                worst, witness = excess, f"p={p}, |w|={aw}"
    return _row("kernel-local-decay", worst <= 0.0, worst, witness)


# ---------------------------------------------------------------------------
# operator criteria


def density_row_decomposition(phi_corpus) -> SuiteRow:
    """The criterion density against sum_{k,l} |J_lk| (1 - |z_k|^2)^q / (1 - |phi_l|^2)^p,
    summed from phi.jacobian and phi.val rather than from the density's rows."""
    p, q, tol = 1.0, 1.0, 1e-12
    worst, witness = 0.0, ""
    for name, phi in phi_corpus:
        Z = uniform_points(phi.dim, 500, 12, rmax=0.98)
        total = criterion_density_fn(phi, p, q)(Z)
        weights = one_minus_sq(np.abs(Z))[..., None, :] ** q
        denominators = one_minus_sq(np.abs(phi.val(Z)))[..., :, None] ** p
        direct = np.sum(np.abs(phi.jacobian(Z)) * weights / denominators, axis=(-2, -1))
        err = float(np.max(np.abs(total - direct) / np.maximum(total, 1.0)))
        if _rank(err) > _rank(worst):
            worst, witness = err, name
    return _row("density-row-decomposition", worst <= tol, worst, witness, tol=tol)


def chain_rule_domination(phi_corpus, fns, plan: SamplingPlan = SamplingPlan()) -> SuiteRow:
    """density(f o phi, q, z) <= (estimated p-norm of f) * criterion density * (1 + 1e-3)
    at p = q = 1."""
    p, q = 1.0, 1.0
    members = fns[:8]
    norms = [bloch_norm_estimate(f, p, plan).value for f in members]
    worst, witness = -np.inf, ""
    for name, phi in phi_corpus:
        Z = uniform_points(phi.dim, 300, 13, rmax=0.97)
        crit = criterion_density_fn(phi, p, q)(Z)
        for i, (f, norm) in enumerate(zip(members, norms)):
            comp = compose(f, phi)
            lhs = bloch_density_fn(comp, q)(Z)
            excess = float(np.max(lhs - norm * crit * (1.0 + 1e-3)))
            if _rank(excess) > _rank(worst):
                worst, witness = excess, f"map {name}, member {i}"
    return _row("chain-rule-domination", worst <= 0.0, worst, witness)


def automorphism_metric_equality(dim: int = 2) -> SuiteRow:
    tol = 1e-9
    rng = np.random.default_rng(14)
    worst, witness = 0.0, ""
    for i in range(5):
        a = 0.9 * np.sqrt(rng.random(dim)) * np.exp(2j * np.pi * rng.random(dim))
        phi = moebius_automorphism(a, 2 * np.pi * rng.random(dim))
        Z = uniform_points(dim, 300, 14 + i, rmax=0.99)
        s = weighted_jacobian_singular_values(phi, Z) ** 2
        err = float(np.max(np.abs(s - 1.0)))
        if _rank(err) > _rank(worst):
            worst, witness = err, f"automorphism {i}"
    return _row("automorphism-metric-equality", worst <= tol, worst, witness, tol=tol)


def small_exponent_decay(dim: int = 1) -> SuiteRow:
    """For p in {0.3, 0.7} and q in {1, 2} the per-coordinate profiles of the
    corpus self-maps decay along every realizable path."""
    seed = 16
    maps = [(name, phi, [path for axis in range(dim)
                         for path in make_boundary_paths(phi, "coordinate", axis=axis,
                                                         seed=seed, count=6)])
            for name, phi in corpus_mod.default_selfmap_corpus(dim, seed=seed)]
    failures = []
    for p in (0.3, 0.7):
        for q in (1.0, 2.0):
            for name, phi, paths in maps:
                _, verdict = compactness_profile(phi, p, q, paths, "coordinate")
                if verdict.verdict == "fails":
                    failures.append(f"{name}, p={p}, q={q}")
    return _row("small-exponent-decay", not failures, float(len(failures)),
                "; ".join(failures))


def metric_floor_implies_stay(dim: int = 1) -> SuiteRow:
    """Whenever the measured minimum expansion stays >= 1e-3 with p = q = 1,
    the global profile must report a non-decaying tail."""
    seed = 17
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
        _, verdict = compactness_profile(phi, 1.0, 1.0, paths, "image")
        if verdict.verdict != "fails":
            bad.append(f"{name} (min expansion {smin:.3g}, verdict {verdict.verdict})")
    return _row("metric-floor-implies-stay", not bad, float(len(bad)), "; ".join(bad))


# ---------------------------------------------------------------------------
# orchestration


def run_all(dim: int = 2, seed: int = 0, plan: SamplingPlan | None = None,
            fns=None, phi_corpus=None, band_count: int = 10) -> list[SuiteRow]:
    """Every suite, in order, at desk scale.

    The suites share one `norms.shared_estimates` block, so a Bloch estimate
    that several suites need (the unit-exponent norms of the corpus
    polynomials, say) is computed once per call; nothing is kept once the
    call returns or raises, and each row is what the suite gives alone.
    """
    plan = plan if plan is not None else SamplingPlan(seed=seed)
    fns = fns if fns is not None else corpus_mod.default_function_corpus(dim, seed=seed)
    phi_corpus = phi_corpus if phi_corpus is not None \
        else corpus_mod.default_selfmap_corpus(dim, seed=seed)
    polys = corpus_mod.polynomial_corpus(dim, count=12, seed=seed)

    with shared_estimates():
        return [
            derivative_fd_agreement(fns),
            chain_rule_identity(phi_corpus, fns),
            moebius_interior_mapping(dim=dim),
            q_density_sandwich(fns),
            point_evaluation_bound(polys, plan=plan),
            lipschitz_band_stability(dim=dim, count=band_count, plan=plan),
            norm_trace_monotone(fns, plan=plan),
            family_uniform_bound(dim=dim),
            family_f_density_identity(dim=dim),
            family_truncation_tails(dim=dim, plan=plan),
            kernel_local_decay(dim=dim),
            density_row_decomposition(phi_corpus),
            chain_rule_domination(phi_corpus, fns, plan=plan),
            automorphism_metric_equality(dim=max(dim, 2)),
            small_exponent_decay(dim=1),
            metric_floor_implies_stay(dim=1),
        ]
