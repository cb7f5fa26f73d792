"""Boundedness and compactness detectors for composition operators.

For a certified holomorphic self-map phi of U^n and exponents p, q > 0 the
pointwise criterion density

    sum_{k,l} |d phi_l / d z_k (z)| (1 - |z_k|^2)^q / (1 - |phi_l(z)|^2)^p

controls the composition operator f -> f o phi between the p- and q-Bloch
spaces: a finite supremum detects boundedness, and the decay of the density as
the image (or a single image coordinate, for p < 1) approaches the boundary
detects compactness.  Verdicts here always refer to the numerical criterion:
every record names the detector rule that produced it and carries witnesses.

Rule names used in reports:
  sup-density-plateau      boundedness via a plateauing supremum trace
  image-boundary-decay     global density decay along image-to-boundary paths
  coordinate-boundary-decay  per-coordinate decay (the p < 1 criterion)
  small-components         every |phi_l| bounded away from 1 (vacuous decay)
  exponent-gap             p < 1 <= q, decay guaranteed and validated
  metric-expansion         weighted-Jacobian singular values bounded below
  power-map-gaps           little-space membership of the powers phi^gamma
  coordinate-lipschitz     unit-exponent Lipschitz norms of the components
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .holo import HoloFunction, HoloSelfMap, compose, power_map_monomial
from .norms import (
    bloch_norm_estimate,
    lipschitz_norm_estimate,
    little_bloch_gap,
)
from .holo import TruncationUnavailableError
from .polydisk import as_coords, complex_pair, complex_pairs, one_minus_sq
from .sampling import NormEstimate, SamplingPlan, estimate_supremum
from .testfuncs import make_f, make_g, make_h, family_norm_bound

PLATEAU_RTOL = 1e-3
DECAY_TOL = 1e-3
STAY_FLOOR = 1e-3
STAY_RATIO = 0.9
GROWTH_FACTOR = 2.0
GROWTH_WINDOW = 4
SMALL_COMPONENT_MARGIN = 1e-3
PATH_MIN_POINTS = 8
PATH_REQUIRED_FINAL = 1e-4
PATH_DEFAULT_FINAL = 1e-8


class UncertifiedMapError(ValueError):
    """The map carries no self-map certificate; detectors refuse to run."""


class SingularEvaluationError(ValueError):
    """|phi_l(z)| >= 1 was met pointwise (numerical escape from the polydisk)."""


class PathValidationError(ValueError):
    """A boundary path's declared approach mode failed re-validation."""


@dataclass
class Verdict:
    """Outcome of one detector: 'holds' / 'fails' / 'inconclusive' + evidence."""

    verdict: str
    rule: str
    margin: float | None = None
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "rule": self.rule,
                "margin": self.margin, "detail": _jsonable(self.detail)}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return complex_pairs(obj)
        return [float(v) for v in obj.ravel()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return complex_pair(obj)
    return obj


def _require_certified(phi: HoloSelfMap):
    if not phi.certificate.is_certified():
        raise UncertifiedMapError(
            "the map is not certified as a self-map; run certify_self_map first")


# ---------------------------------------------------------------------------
# densities


def coordinate_density_fn(phi: HoloSelfMap, p: float, q: float, axis: int):
    """Batched single-row density: sum_k |d phi_axis/d z_k| (1-|z_k|^2)^q / (1-|phi_axis|^2)^p.

    Points where |phi_axis| >= 1 numerically evaluate to +inf (flagged escape).
    """
    comp = phi.components[axis]
    parts = comp.partials()

    def density(Z: np.ndarray) -> np.ndarray:
        Z = np.asarray(Z, dtype=complex)
        weights = one_minus_sq(np.abs(Z)) ** q
        num = np.zeros(Z.shape[:-1], dtype=float)
        for k, pk in enumerate(parts):
            num += np.abs(pk.val(Z)) * weights[..., k]
        om = one_minus_sq(np.abs(comp.val(Z)))
        escaped = om <= 0.0
        om = np.where(escaped, 1.0, om)
        return np.where(escaped & (num > 0), np.inf, num / om ** p)

    return density


def criterion_density_fn(phi: HoloSelfMap, p: float, q: float):
    """Batched full criterion density (sum of the coordinate rows)."""
    rows = [coordinate_density_fn(phi, p, q, l) for l in range(phi.dim)]

    def density(Z: np.ndarray) -> np.ndarray:
        out = rows[0](Z)
        for r in rows[1:]:
            out = out + r(Z)
        return out

    return density


def coordinate_density(phi: HoloSelfMap, p: float, q: float, axis: int, z) -> float:
    v = float(coordinate_density_fn(phi, p, q, axis)(as_coords(z)))
    if not np.isfinite(v):
        raise SingularEvaluationError(f"|phi_{axis}(z)| >= 1 at the requested point")
    return v


def criterion_density(phi: HoloSelfMap, p: float, q: float, z) -> float:
    v = float(criterion_density_fn(phi, p, q)(as_coords(z)))
    if not np.isfinite(v):
        raise SingularEvaluationError("some |phi_l(z)| >= 1 at the requested point")
    return v


# ---------------------------------------------------------------------------
# boundedness


def boundedness_check(phi: HoloSelfMap, p: float, q: float,
                      plan: SamplingPlan | None = None) -> tuple[Verdict, NormEstimate]:
    """Estimate sup_z of the criterion density and judge its boundary trace.

    holds: the cumulative per-level suprema plateau (relative change < 1e-3
    across the last two boundary levels).  fails: the trace keeps growing by a
    factor >= 2 over the last 4 levels, or a singular escape was hit.
    """
    _require_certified(phi)
    plan = plan if plan is not None else SamplingPlan()
    est = estimate_supremum(criterion_density_fn(phi, p, q), phi.dim, plan)
    lt = est.level_trace

    if not np.isfinite(est.sup):
        verdict = Verdict("fails", "sup-density-plateau", margin=None,
                          detail={"reason": "singular escape during sampling",
                                  "witness": est.witness})
        return verdict, est

    if est.sup == 0.0:
        verdict = Verdict("holds", "sup-density-plateau", margin=0.0,
                          detail={"reason": "identically zero derivative", "sup": 0.0})
        return verdict, est

    rel_change = (lt[-1] - lt[-2]) / max(lt[-1], 1e-300) if len(lt) >= 2 else 0.0
    window = min(GROWTH_WINDOW, len(lt) - 1)
    tail = lt[-(window + 1):]
    growing = (window >= 2 and all(tail[i + 1] > tail[i] for i in range(window))
               and tail[-1] >= GROWTH_FACTOR * max(tail[0], 1e-300))

    if growing:
        verdict = Verdict("fails", "sup-density-plateau", margin=tail[-1] / max(tail[0], 1e-300),
                          detail={"level_trace": lt, "witness": est.witness})
    elif rel_change < PLATEAU_RTOL:
        verdict = Verdict("holds", "sup-density-plateau", margin=rel_change,
                          detail={"sup": est.sup, "witness": est.witness})
    else:
        verdict = Verdict("inconclusive", "sup-density-plateau", margin=rel_change,
                          detail={"level_trace": lt})
    return verdict, est


# ---------------------------------------------------------------------------
# boundary paths


@dataclass
class BoundaryPath:
    """A finite sequence of points whose images approach the boundary.

    mode 'image': boundary_distance(phi(z^[j])) decreases to <= 1e-4.
    mode 'coordinate': 1 - |phi_axis(z^[j])| decreases to <= 1e-4.
    """

    points: np.ndarray          # (M, n) complex
    mode: str                   # 'image' | 'coordinate'
    axis: int | None = None     # target coordinate for mode 'coordinate'
    approach: np.ndarray | None = None  # recorded approach measures
    path_id: str = ""

    def measure(self, phi: HoloSelfMap) -> np.ndarray:
        W = phi.val(self.points)
        if self.mode == "image":
            return np.min(1.0 - np.abs(W), axis=-1)
        if self.mode == "coordinate":
            if self.axis is None:
                raise PathValidationError("coordinate mode needs an axis")
            return 1.0 - np.abs(W[..., self.axis])
        raise PathValidationError(f"unknown path mode {self.mode!r}")

    def validate(self, phi: HoloSelfMap) -> np.ndarray:
        m = self.measure(phi)
        if m.size < PATH_MIN_POINTS:
            raise PathValidationError(
                f"path {self.path_id!r} has {m.size} points; need >= {PATH_MIN_POINTS}")
        if not np.all(np.diff(m) < 1e-15):
            raise PathValidationError(f"path {self.path_id!r} approach is not monotone")
        if m[-1] > PATH_REQUIRED_FINAL:
            raise PathValidationError(
                f"path {self.path_id!r} final approach {m[-1]:.3g} exceeds {PATH_REQUIRED_FINAL}")
        return m

    def to_json(self) -> dict:
        return {
            "path_id": self.path_id,
            "mode": self.mode,
            "axis": self.axis,
            "points": [complex_pairs(row) for row in self.points],
            "approach": None if self.approach is None else [float(v) for v in self.approach],
        }


def _ray_pool(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Candidate torus directions: an even diagonal sweep (all coordinates share
    one angle, including angle 0) plus random torus angles."""
    pool = max(64, 16 * count)
    alpha = 2.0 * np.pi * np.arange(pool) / pool
    diag = np.repeat(np.exp(1j * alpha)[:, None], dim, axis=1)
    rand = np.exp(2j * np.pi * rng.random((pool, dim)))
    return np.concatenate([diag, rand], axis=0)


def make_boundary_paths(phi: HoloSelfMap, mode: str, axis: int | None = None,
                        count: int | None = None, seed: int = 0,
                        final_target: float = PATH_DEFAULT_FINAL,
                        max_targets: int = 64) -> list[BoundaryPath]:
    """Construct approach paths along straight radial rays by bisection.

    A pool of ray directions z(t) = t * u (|u_k| = 1) is probed at a deep
    radius; the `count` rays along which the approach measure gets smallest
    are kept, and for halving targets delta the parameter t is bisected so
    the measure crosses delta.  Rays that cannot push the measure below 1e-4
    (or that stall far above the deepest ray) are dropped; an empty list
    states that the requested approach is unrealizable (the map stays away
    from the boundary).
    """
    n = phi.dim
    if mode not in ("image", "coordinate"):
        raise ValueError(f"unknown path mode {mode!r}")
    if mode == "coordinate" and (axis is None or not 0 <= axis < n):
        raise ValueError("coordinate mode needs a valid axis")
    if count is None:
        count = 16 * n if mode == "image" else 16
    rng = np.random.default_rng(seed)
    t_max = 1.0 - 1e-12

    def measures_for(U: np.ndarray, T: np.ndarray) -> np.ndarray:
        W = phi.val(T[:, None] * U)
        if mode == "image":
            return np.min(1.0 - np.abs(W), axis=-1)
        return 1.0 - np.abs(W[..., axis])

    pool = _ray_pool(n, count, rng)
    deep_pool = measures_for(pool, np.full(pool.shape[0], t_max))
    order = np.argsort(deep_pool, kind="stable")
    U = pool[order[:count]]
    deep = deep_pool[order[:count]]

    def measures(T: np.ndarray) -> np.ndarray:
        return measures_for(U, T)

    g0 = float(measures(np.zeros(count))[0])
    if g0 <= 0:
        return []

    delta = min(g0 / 2.0, 0.25)
    targets = []
    while delta >= final_target and len(targets) < max_targets:
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
            gm = measures(mid)
            above = gm > tgt
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        tj = hi
        gj = measures(tj)
        for i in range(count):
            if alive[i]:
                pts[i].append(tj[i] * U[i])
                meas[i].append(gj[i])
        t_prev = np.where(alive, tj, t_prev)

    finals = [m[-1] for m in meas if m]
    if not finals:
        return []
    best_final = min(finals)
    stall_cutoff = max(best_final * 16.0, final_target * 4.0)

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


# ---------------------------------------------------------------------------
# compactness profiles


@dataclass
class PathProfile:
    path_id: str
    mode: str
    axis: int | None
    approach: np.ndarray
    values: np.ndarray
    status: str  # 'decayed' | 'stays' | 'undecided'

    def to_json(self) -> dict:
        return {"path_id": self.path_id, "mode": self.mode, "axis": self.axis,
                "approach": [float(v) for v in self.approach],
                "values": [float(v) for v in self.values],
                "status": self.status}


def _judge_tail(values: np.ndarray) -> str:
    tail = values[-4:]
    if np.all(np.diff(tail) <= 1e-12) and tail[-1] < DECAY_TOL:
        return "decayed"
    if tail[-1] >= STAY_FLOOR and tail[-1] >= STAY_RATIO * tail[0]:
        return "stays"
    return "undecided"


def compactness_profile(phi: HoloSelfMap, p: float, q: float,
                        paths: list[BoundaryPath], mode: str) -> tuple[list[PathProfile], Verdict]:
    """Tabulate the criterion density along boundary paths and judge its decay.

    mode 'image': the full density along image-to-boundary paths (the p >= 1
    criterion; 'stays' evidence witnesses non-compactness there).
    mode 'coordinate': the single-row density along |phi_l| -> 1 paths (the
    p < 1 criterion).  With no realizable path the approach is vacuous and
    the verdict holds by the small-components rule.
    """
    _require_certified(phi)
    rule = "image-boundary-decay" if mode == "image" else "coordinate-boundary-decay"
    if not paths:
        return [], Verdict("holds", "small-components",
                           detail={"reason": "no realizable boundary approach"})

    profiles = []
    for path in paths:
        if path.mode != mode:
            raise PathValidationError(
                f"path {path.path_id!r} has mode {path.mode!r}; profile expects {mode!r}")
        approach = path.validate(phi)
        if mode == "image":
            fn = criterion_density_fn(phi, p, q)
        else:
            fn = coordinate_density_fn(phi, p, q, path.axis)
        values = np.asarray(fn(path.points), dtype=float)
        profiles.append(PathProfile(path.path_id, path.mode, path.axis,
                                    approach, values, _judge_tail(values)))

    statuses = [pr.status for pr in profiles]
    if any(s == "stays" for s in statuses):
        worst = next(pr for pr in profiles if pr.status == "stays")
        verdict = Verdict("fails", rule, margin=float(worst.values[-1]),
                          detail={"witness_path": worst.path_id,
                                  "tail_value": float(worst.values[-1])})
    elif all(s == "decayed" for s in statuses):
        final = max(float(pr.values[-1]) for pr in profiles)
        verdict = Verdict("holds", rule, margin=final,
                          detail={"max_final_density": final})
    else:
        verdict = Verdict("inconclusive", rule,
                          detail={"statuses": statuses})
    return profiles, verdict


# ---------------------------------------------------------------------------
# weighted-Jacobian expansion ratio


def weighted_jacobian_singular_values(phi: HoloSelfMap, Z: np.ndarray) -> np.ndarray:
    """Singular values (descending) of D2 J_phi(z) D1^{-1} at each point, where
    D1 = diag(1/(1-|z_k|^2)) and D2 = diag(1/(1-|phi_l(z)|^2))."""
    Z = np.asarray(Z, dtype=complex)
    J = phi.jacobian_batch(Z)
    W = phi.val(Z)
    col = one_minus_sq(np.abs(Z))          # multiplies column k (= D1^{-1})
    row = 1.0 / one_minus_sq(np.abs(W))    # multiplies row l (= D2)
    M = row[..., :, None] * J * col[..., None, :]
    return np.linalg.svd(M, compute_uv=False)


def schwarz_expansion_range(phi: HoloSelfMap, z) -> tuple[float, float]:
    """(smallest, largest) squared singular value of the metric-weighted Jacobian:
    the extremal ratios of H_{phi(z)}(J u) to H_z(u) over directions u != 0."""
    s = weighted_jacobian_singular_values(phi, as_coords(z))
    return float(s[..., -1] ** 2), float(s[..., 0] ** 2)


# ---------------------------------------------------------------------------
# auxiliary detectors


def component_sup_estimates(phi: HoloSelfMap, plan: SamplingPlan) -> list[NormEstimate]:
    """Estimated sup |phi_l| for each component (lower bounds)."""
    out = []
    for comp in phi.components:
        fn = lambda Z, c=comp: np.abs(c.val(Z))
        out.append(estimate_supremum(fn, phi.dim, plan))
    return out


def lip1_boundedness_check(phi: HoloSelfMap, plan: SamplingPlan | None = None) -> Verdict:
    """Unit-exponent Lipschitz norms of the components: all plateauing finite
    estimates certify the unit-exponent boundedness criterion."""
    _require_certified(phi)
    plan = plan if plan is not None else SamplingPlan()
    values, converged = [], []
    for comp in phi.components:
        est = lipschitz_norm_estimate(comp, 1.0, plan)
        values.append(est.value)
        converged.append(est.converged and np.isfinite(est.value))
    if all(converged):
        return Verdict("holds", "coordinate-lipschitz", margin=max(values),
                       detail={"component_norms": values})
    return Verdict("inconclusive", "coordinate-lipschitz",
                   detail={"component_norms": values, "converged": converged})


def little_bloch_operator_check(phi: HoloSelfMap, p: float, q: float,
                                degree_cap: int,
                                plan: SamplingPlan | None = None,
                                gap_tol: float = DECAY_TOL) -> Verdict:
    """Little-space detector: (a) the powers phi^gamma stay close to polynomials
    in the q-Bloch norm for every multi-index gamma of degree <= degree_cap
    (measured at truncation index 4 * degree_cap), and (b) the (p, q) criterion
    supremum plateaus.  The degree cap is a finite surrogate for the full
    multi-index family and is recorded as such.
    """
    from .polydisk import multi_indices_up_to

    _require_certified(phi)
    plan = plan if plan is not None else SamplingPlan()
    m0 = max(4 * degree_cap, 1)
    gaps, gap_index, skipped = {}, {}, []
    for gamma in multi_indices_up_to(phi.dim, degree_cap):
        f = power_map_monomial(phi, gamma)
        key = str(list(gamma.exponents))
        try:
            # a gap only upper-bounds the distance to polynomials, so a large
            # value at one index proves nothing; escalate the index instead
            for m in (m0, 2 * m0, 4 * m0):
                gap = little_bloch_gap(f, q, m, plan)
                gaps[key], gap_index[key] = gap, m
                if gap < gap_tol:
                    break
        except TruncationUnavailableError:
            skipped.append(key)
    bounded, est = boundedness_check(phi, p, q, plan)
    detail = {
        "gaps": gaps,
        "gap_truncation_index": gap_index,
        "skipped": skipped,
        "degree_cap_note": f"degree <= {degree_cap} is a finite surrogate for all multi-indices",
        "bounded": bounded.to_json(),
        "sup": est.sup,
    }
    worst = max(gaps.values(), default=0.0)
    if bounded.verdict == "fails":
        return Verdict("fails", "power-map-gaps", margin=worst, detail=detail)
    if not skipped and worst < gap_tol and bounded.verdict == "holds":
        return Verdict("holds", "power-map-gaps", margin=worst, detail=detail)
    return Verdict("inconclusive", "power-map-gaps", margin=worst, detail=detail)


def operator_norm_lower_bound(phi: HoloSelfMap, p: float, q: float,
                              w_grid, plan: SamplingPlan | None = None) -> float:
    """Best ratio ||nu o phi||_q / ||nu||_p over the sampled test families:
    a lower bound for the operator norm up to estimator undershoot.

    The denominator is guarded from below by closed-form floors (norm values
    forced at explicit points), so degenerate members cannot inflate the ratio.
    """
    _require_certified(phi)
    plan = plan if plan is not None else SamplingPlan()
    n = phi.dim
    best = 0.0
    for w in np.asarray(w_grid, dtype=complex):
        aw = abs(w)
        for axis in range(n):
            members = [make_f(axis, w, p, n), make_g(axis, w, p, n)]
            if axis != 0 and n >= 2:
                members.append(make_h(axis, w, p, n))
            for nu in members:
                floors = {
                    "f": 1.0,
                    "g": max(1.0 - aw ** 2, p * aw),
                    "h": 3.0 * (1.0 - aw ** 2) ** p,
                }
                den_est = bloch_norm_estimate(nu, p, plan).value
                den = max(den_est, floors[nu.family], 1e-300)
                num = bloch_norm_estimate(compose(nu, phi), q, plan).value
                best = max(best, num / den)
    return best


# ---------------------------------------------------------------------------
# classification


@dataclass
class CriterionReport:
    """Full record of one (phi, p, q) classification run."""

    dimension: int
    p: float
    q: float
    certificate: dict
    bounded: Verdict
    sup_estimate: NormEstimate
    compact: Verdict
    routes: dict
    profiles: list
    component_sups: list
    plan: SamplingPlan

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "dimension": self.dimension,
            "p": self.p,
            "q": self.q,
            "certificate": self.certificate,
            "bounded": self.bounded.to_json(),
            "sup_estimate": self.sup_estimate.to_json(),
            "compact": self.compact.to_json(),
            "routes": {k: v.to_json() for k, v in self.routes.items()},
            "profiles": [pr.to_json() for pr in self.profiles],
            "component_sups": [float(v) for v in self.component_sups],
            "plan": self.plan.to_json(),
        }

    def csv_rows(self) -> list[dict]:
        rows = []
        idx = 0
        for pr in self.profiles:
            for j in range(pr.values.size):
                rows.append({
                    "sample_index": idx,
                    "z": _format_point(self.dimension, pr, j),
                    "density": float(pr.values[j]),
                    "path_id": pr.path_id,
                    "verdict": self.compact.verdict,
                })
                idx += 1
        return rows


def _format_point(dim, profile: PathProfile, j: int) -> str:
    # profiles only carry approach/values; point storage lives in the JSON report
    return f"approach={profile.approach[j]:.6g}"


def classify(phi: HoloSelfMap, p: float, q: float,
             plan: SamplingPlan | None = None,
             paths: list[BoundaryPath] | None = None) -> CriterionReport:
    """Run the boundedness detector, pick the applicable compactness route,
    and assemble a full report.

    Route order: unbounded maps are immediately non-compact; maps whose every
    component supremum stays below 1 - 1e-3 hold vacuously (small-components);
    p < 1 <= q holds by the exponent gap (validated by per-coordinate decay);
    p >= 1 uses global image-boundary decay; p < 1 uses per-coordinate decay.
    With p < 1 a global-profile 'stays' is never converted into a failure
    verdict; only the per-coordinate criterion decides there.
    """
    _require_certified(phi)
    plan = plan if plan is not None else SamplingPlan()
    if not (p > 0 and q > 0):
        raise ValueError("exponents p and q must be positive")

    bounded, sup_est = boundedness_check(phi, p, q, plan)
    comp_sups = component_sup_estimates(phi, plan)
    comp_sup_values = [est.sup for est in comp_sups]
    routes: dict[str, Verdict] = {"bounded": bounded}
    profiles: list[PathProfile] = []

    small = all(est.converged and est.sup <= 1.0 - SMALL_COMPONENT_MARGIN
                for est in comp_sups)

    if bounded.verdict == "fails":
        compact = Verdict("fails", "sup-density-plateau",
                          detail={"reason": "criterion supremum diverges; "
                                            "an unbounded operator cannot be compact"})
    elif small:
        norms_q = [bloch_norm_estimate(c, q, plan) for c in phi.components]
        compact = Verdict("holds", "small-components",
                          margin=1.0 - max(comp_sup_values),
                          detail={"component_sups": comp_sup_values,
                                  "component_q_norms": [e.value for e in norms_q]})
    elif p < 1.0 and q >= 1.0:
        cpaths = paths if paths is not None else _coordinate_paths(phi, plan.seed)
        profiles, prof_verdict = compactness_profile(phi, p, q, cpaths, "coordinate")
        routes["coordinate-boundary-decay"] = prof_verdict
        if prof_verdict.verdict == "fails":
            compact = Verdict("inconclusive", "exponent-gap",
                              detail={"note": "profile contradicted the exponent-gap rule",
                                      "profile": prof_verdict.to_json()})
        else:
            compact = Verdict("holds", "exponent-gap", margin=prof_verdict.margin,
                              detail={"profile": prof_verdict.to_json()})
    elif p >= 1.0:
        gpaths = paths if paths is not None else make_boundary_paths(phi, "image", seed=plan.seed)
        profiles, prof_verdict = compactness_profile(phi, p, q, gpaths, "image")
        compact = prof_verdict
        if q <= 1.0:
            sv = _metric_expansion_route(phi, plan)
            routes["metric-expansion"] = sv
    else:
        cpaths = paths if paths is not None else _coordinate_paths(phi, plan.seed)
        profiles, prof_verdict = compactness_profile(phi, p, q, cpaths, "coordinate")
        compact = prof_verdict

    if bounded.verdict == "inconclusive" and compact.verdict == "holds" \
            and compact.rule in ("image-boundary-decay", "coordinate-boundary-decay"):
        compact = Verdict("inconclusive", compact.rule,
                          detail={"reason": "decay observed but boundedness unresolved",
                                  "decay": compact.to_json()})

    routes["compact"] = compact
    return CriterionReport(
        dimension=phi.dim, p=p, q=q,
        certificate=phi.certificate.to_json(),
        bounded=bounded, sup_estimate=sup_est, compact=compact,
        routes=routes, profiles=profiles,
        component_sups=comp_sup_values, plan=plan,
    )


def _coordinate_paths(phi: HoloSelfMap, seed: int) -> list[BoundaryPath]:
    paths = []
    for axis in range(phi.dim):
        paths.extend(make_boundary_paths(phi, "coordinate", axis=axis, seed=seed + axis))
    return paths


def _metric_expansion_route(phi: HoloSelfMap, plan: SamplingPlan) -> Verdict:
    """Sample the smallest squared singular value of the weighted Jacobian; a
    uniform positive floor is non-compactness evidence for p >= 1, q <= 1."""
    rng = np.random.default_rng(plan.seed)
    from .sampling import stratified_grid

    Z, _ = stratified_grid(phi.dim, plan, rng)
    take = min(Z.shape[0], 2048)
    s = weighted_jacobian_singular_values(phi, Z[:take])
    smin = float(np.min(s[..., -1] ** 2))
    smax = float(np.max(s[..., 0] ** 2))
    if smin >= DECAY_TOL:
        return Verdict("fails", "metric-expansion", margin=smin,
                       detail={"min_expansion": smin, "max_expansion": smax})
    return Verdict("inconclusive", "metric-expansion", margin=smin,
                   detail={"min_expansion": smin, "max_expansion": smax})
