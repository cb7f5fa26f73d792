"""Boundedness and compactness detectors for composition operators.

For a certified holomorphic self-map phi of U^n and exponents p, q > 0 the
pointwise criterion density

    sum_{k,l} |d phi_l / d z_k (z)| (1 - |z_k|^2)^q / (1 - |phi_l(z)|^2)^p

controls the composition operator f -> f o phi between the p- and q-Bloch
spaces: a finite supremum detects boundedness, and the decay of the density as
the image (or a single image coordinate, for p < 1) approaches the boundary
detects compactness.  Verdicts here always refer to the numerical criterion:
every record names the detector rule that produced it and carries witnesses,
and serializes through `reports.record_json`.  Detectors refuse a map whose
self-map certificate fails, naming its first refused component.

The densities have batched evaluators only, mapping points (..., n) to
values (...): `criterion_density_fn` sums the rows `coordinate_density_fn`.
Row l is the `norms.weighted_partial_sum` kernel over phi_l's partials (its
q-Bloch density) over (1 - |phi_l|^2)^p; it is +inf where |phi_l| >= 1 and its
numerator is nonzero (a numerical escape from the polydisk).  Every
evaluation takes two steps.  The parts step, which alone evaluates phi,
takes each row's partial moduli |d phi_l/dz_k|, 1 - |phi_l|^2 and the gap
columns 1 - |z_k|^2 of the rows' axes at the points, and notes whether any
point escaped.  The gap columns are kept with the parts (on the stratified
grid they are those of `sampling.grid_derived`, shared with the Bloch
estimates), so the combine step only raises them to q, once for every row,
and applies the power p.

A compactness profile evaluates each density once: it merges the paths that
share one (all paths in mode 'image', the paths of one axis in mode
'coordinate'), measures the merged points and takes their parts in one call
each, and splits the results by path.  Coordinate-mode measures evaluate
phi_axis alone.

Only the combine step depends on (p, q), and boundary paths depend on the
map, the mode, the axis and the seed, never on (p, q).  So `classify` keeps
what it computed for one map in one slot: the last map it was asked about,
held strongly and compared by identity, with
  - the parts of the full density on stratified_grid(n, plan), keyed by the
    plan (the parts of another plan replace them),
  - the parts of the full density at each batch that `boundedness_check`
    scored in refinement (one round, or a run of the rounds left once two
    have held; see `sampling.maximise`), keyed by the batch's bytes: each
    estimate reseeds its generator and shrinks its box alike, so cells that
    reach one witness in one round propose the same batches, and
  - per (mode, axis, seed), a path set: the list `make_boundary_paths`
    returned (an empty list is a kept answer), the validated approach of each
    path, and the parts at the paths' merged points.
A sweep over a (p, q) grid thus evaluates each map's partials on the grid and
at each distinct refinement batch, and builds, measures and validates each of
its path sets, once; a cell only combines.  `boundedness_check` uses the
grid and batch parts only while the slot holds its map, and
`compactness_profile` uses a path set only for the very path objects
`classify` kept: paths built by hand are measured, validated and evaluated on
every call and leave the slot alone.  Classifying another map frees the slot
before anything is computed.  Reports of every cell share the kept arrays,
so they are read-only.  `make_boundary_paths` itself keeps nothing.

Rule names used in reports:
  sup-density-plateau      boundedness via a plateauing supremum trace
  image-boundary-decay     global density decay along image-to-boundary paths
  coordinate-boundary-decay  per-coordinate decay (the p < 1 criterion)
  small-components         no ray's deep probe reaches within 1e-4 of the boundary
  exponent-gap             p < 1 <= q, decay guaranteed and validated
  holomorphic-components   little space: components holomorphic across the closed
                           polydisk (a theorem), plus sup-density-plateau
  coordinate-lipschitz     unit-exponent Lipschitz norms of the components
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .holo import SELF_MAP_CEILING, HoloSelfMap, compose, is_constant, partial_axes
from .norms import (bloch_norm_estimate, column_weights, gap_columns,
                    lipschitz_norm_estimate, one_minus_sq, partial_moduli,
                    weighted_partial_sum)
from .reports import SCHEMA_VERSION, format_point, record_json
from .sampling import (PLATEAU_RTOL, NormEstimate, SamplingPlan, estimate_supremum,
                       stratified_grid)
from .testfuncs import members

DECAY_TOL = 1e-3
STAY_FLOOR = 1e-3
STAY_RATIO = 0.9
GROWTH_FACTOR = 2.0
GROWTH_WINDOW = 4
PATH_MIN_POINTS = 8
PATH_REQUIRED_FINAL = 1e-4
PATH_FINAL_TARGET = 1e-8
PATH_MAX_TARGETS = 64


class UncertifiedMapError(ValueError):
    """The map carries no self-map certificate; detectors refuse to run."""


class PathValidationError(ValueError):
    """A boundary path's declared approach mode failed re-validation."""


@dataclass
class Verdict:
    """Outcome of one detector: 'holds' / 'fails' / 'inconclusive' + evidence."""

    verdict: str
    rule: str
    margin: float | None = None
    detail: dict = field(default_factory=dict)

    to_json = record_json


def require_certified(phi: HoloSelfMap):
    if not phi.certificate.is_certified():
        l, (lo, hi) = next((l, b) for l, b in enumerate(phi.certificate.brackets)
                           if not b[1] <= SELF_MAP_CEILING)
        if is_constant(phi.components[l]):
            modulus = abs(phi.components[l].value(np.zeros(phi.dim)))
            raise UncertifiedMapError(
                f"refusing: phi_{l} is constant, of modulus {modulus:.6g}; a constant "
                f"component needs modulus < 1 for the map to send U^n into U^n")
        raise UncertifiedMapError(
            f"refusing: the map is not certified as a self-map: sup |phi_{l}| lies in "
            f"[{lo:.6g}, {hi:.6g}], whose upper end exceeds 1")


# ---------------------------------------------------------------------------
# densities


@dataclass(frozen=True)
class _Parts:
    """The (p, q)-independent parts of density rows at points Z (..., n).

    `block` holds the moduli |d phi_l/dz_k| row by row, the axes k of row i
    being rows[i], then 1 - |phi_l|^2 for each row; `escaped` says whether
    any of the latter is <= 0 (|phi_l| >= 1, a numerical escape).  `gaps`
    holds the gap column 1 - |z_k|^2 of each axis k of the rows.
    """

    Z: np.ndarray
    rows: tuple
    block: np.ndarray
    escaped: bool
    gaps: dict

    def frozen(self) -> "_Parts":
        """These parts with their arrays made read-only, for kept use."""
        for array in (self.block, *self.gaps.values()):
            array.flags.writeable = False
        return self

    def combine(self, p: float, q: float) -> np.ndarray:
        """Sum over the rows of their weighted moduli over (1 - |phi_l|^2)^p,
        with the weights (1 - |z_k|^2)^q raised from the gap columns once for
        every row; +inf where |phi_l| >= 1 and the row's numerator is nonzero."""
        weights = column_weights(self.gaps, q)
        oms = self.block[len(self.block) - len(self.rows):]
        out, start = None, 0
        for axes, om in zip(self.rows, oms):
            moduli = self.block[start:start + len(axes)]
            start += len(axes)
            num = weighted_partial_sum(zip(axes, moduli), weights.get, self.Z.shape[:-1])
            if self.escaped:
                escaped = om <= 0.0
                row = np.where(escaped & (num > 0), np.inf, num / np.where(escaped, 1.0, om) ** p)
            else:
                row = num / om ** p
            out = row if out is None else out + row
        return out


def _density_parts(phi: HoloSelfMap, axes):
    """Batched parts of the criterion-density rows l in axes: Z -> `_Parts`."""
    comps = [phi.components[l] for l in axes]
    layout = tuple(partial_axes(comp) for comp in comps)
    size = sum(map(len, layout))
    columns = sorted({k for axes in layout for k in axes})

    def parts(Z: np.ndarray) -> _Parts:
        Z = np.asarray(Z, dtype=complex)
        block = np.empty((size + len(comps),) + Z.shape[:-1])
        moduli = (m for comp in comps for _, m in partial_moduli(comp, Z))
        for i, m in enumerate(moduli):
            block[i] = m
        for i, comp in enumerate(comps, start=size):
            block[i] = one_minus_sq(np.abs(comp.val(Z)))
        return _Parts(Z, layout, block, bool((block[size:] <= 0.0).any()),
                      gap_columns(Z, columns))

    return parts


def _density_rows(phi: HoloSelfMap, p: float, q: float, axes):
    """Batched sum of the criterion-density rows l in axes: their parts at Z,
    combined with the exponents (p, q)."""
    parts = _density_parts(phi, axes)
    return lambda Z: parts(Z).combine(p, q)


def coordinate_density_fn(phi: HoloSelfMap, p: float, q: float, axis: int):
    """Batched single-row density: sum_k |d phi_axis/d z_k| (1-|z_k|^2)^q / (1-|phi_axis|^2)^p,
    i.e. the q-Bloch density of phi_axis over (1-|phi_axis|^2)^p.

    Points where |phi_axis| >= 1 numerically evaluate to +inf (flagged escape).
    """
    return _density_rows(phi, p, q, [axis])


def criterion_density_fn(phi: HoloSelfMap, p: float, q: float):
    """Batched full criterion density (sum of the coordinate rows)."""
    return _density_rows(phi, p, q, range(phi.dim))


# ---------------------------------------------------------------------------
# boundedness


def boundedness_check(phi: HoloSelfMap, p: float, q: float,
                      plan: SamplingPlan = SamplingPlan()) -> tuple[Verdict, NormEstimate]:
    """Estimate sup_z of the criterion density and judge its boundary trace.

    holds: the cumulative per-level suprema plateau (relative change < 1e-3
    across the last two boundary levels).  fails: the trace keeps growing by a
    factor >= 2 over the last 4 levels, or a singular escape was hit.

    While `classify`'s slot holds phi, the density parts on the grid and at
    each refinement batch come from the slot or are evaluated once into it
    (see the module docstring), and only their combination with (p, q) is
    computed here; otherwise every batch is evaluated.
    """
    require_certified(phi)
    grid = _grid_parts(phi, plan)
    parts = _batch_parts(phi)
    est = estimate_supremum(lambda Z: parts(Z).combine(p, q), phi.dim, plan,
                            grid_values=None if grid is None else grid.combine(p, q))
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

    mode 'image': min_k (1 - |phi_k(z^[j])|) decreases to <= 1e-4.
    mode 'coordinate': 1 - |phi_axis(z^[j])| decreases to <= 1e-4.
    """

    points: np.ndarray          # (M, n) complex
    mode: str                   # 'image' | 'coordinate'
    axis: int | None = None     # target coordinate for mode 'coordinate'
    approach: np.ndarray | None = None  # recorded approach measures
    path_id: str = ""

    def measure(self, phi: HoloSelfMap) -> np.ndarray:
        if self.mode not in ("image", "coordinate"):
            raise PathValidationError(f"unknown path mode {self.mode!r}")
        if self.mode == "coordinate" and (self.axis is None or not 0 <= self.axis < phi.dim):
            raise PathValidationError(
                f"coordinate mode needs an axis in [0, {phi.dim}), got {self.axis}")
        return _approach(phi, self.points, self.mode, self.axis)

    def validate(self, phi: HoloSelfMap, measure: np.ndarray | None = None) -> np.ndarray:
        """Check the approach, self.measure(phi) or the given measure of it:
        >= PATH_MIN_POINTS points, monotone, final value <= PATH_REQUIRED_FINAL."""
        m = self.measure(phi) if measure is None else measure
        if m.size < PATH_MIN_POINTS:
            raise PathValidationError(
                f"path {self.path_id!r} has {m.size} points; need >= {PATH_MIN_POINTS}")
        if not np.all(np.diff(m) < 1e-15):
            raise PathValidationError(f"path {self.path_id!r} approach is not monotone")
        if m[-1] > PATH_REQUIRED_FINAL:
            raise PathValidationError(
                f"path {self.path_id!r} final approach {m[-1]:.3g} exceeds {PATH_REQUIRED_FINAL}")
        return m


def _approach(phi: HoloSelfMap, Z: np.ndarray, mode: str, axis: int | None) -> np.ndarray:
    """Approach measure at points Z (..., n): min_k (1 - |phi_k(z)|) in mode
    'image', 1 - |phi_axis(z)| in mode 'coordinate', which evaluates phi_axis
    alone."""
    if mode == "image":
        moduli = np.abs(phi.val(Z))
        out = 1.0 - moduli[..., 0]
        for k in range(1, phi.dim):
            out = np.minimum(out, 1.0 - moduli[..., k])
        return out
    return 1.0 - np.abs(phi.components[axis].val(Z))


def _ray_pool(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Candidate torus directions: an even diagonal sweep (all coordinates share
    one angle, including angle 0) plus random torus angles."""
    pool = max(64, 16 * count)
    alpha = 2.0 * np.pi * np.arange(pool) / pool
    diag = np.repeat(np.exp(1j * alpha)[:, None], dim, axis=1)
    rand = np.exp(2j * np.pi * rng.random((pool, dim)))
    return np.concatenate([diag, rand], axis=0)


@dataclass
class _Kept:
    """What `classify` keeps of one map (see the module docstring): the grid
    parts as (plan, parts), a `_PathSet` per (mode, axis, seed), and the
    parts of each refinement batch keyed on the batch's bytes."""

    phi: HoloSelfMap
    grid: tuple | None = None
    path_sets: dict = field(default_factory=dict)
    batches: dict = field(default_factory=dict)


@dataclass
class _PathSet:
    """Boundary paths of one density, measured and validated, with the
    density parts at their merged points (None for an empty set)."""

    paths: list
    approaches: list
    parts: _Parts | None


# classify's one kept-map slot: the last map `classify` was asked about, or None.
_kept = None


def _keep(phi: HoloSelfMap) -> _Kept:
    """The slot, set to phi; another map's data is freed first."""
    global _kept
    if _kept_of(phi) is None:
        _kept = None  # frees the other map's data before anything is built
        _kept = _Kept(phi)
    return _kept


def _kept_of(phi: HoloSelfMap) -> _Kept | None:
    """The slot if it holds phi, else None."""
    return _kept if _kept is not None and _kept.phi is phi else None


def _grid_parts(phi: HoloSelfMap, plan: SamplingPlan) -> _Parts | None:
    """The full density's parts on stratified_grid(phi.dim, plan), kept while
    the slot holds phi; None when it holds another map."""
    kept = _kept_of(phi)
    if kept is None:
        return None
    if kept.grid is None or kept.grid[0] != plan:
        kept.grid = None  # frees the parts of another plan before the evaluation
        parts = _density_parts(phi, range(phi.dim))(stratified_grid(phi.dim, plan)[0])
        kept.grid = (plan, parts.frozen())
    return kept.grid[1]


def _batch_parts(phi: HoloSelfMap):
    """The full density's parts at a batch of points: Z -> `_Parts`.  While
    the slot holds phi, each distinct batch (by its bytes) is evaluated once
    and its parts are kept, read-only, with Z a view of the key; while it
    holds another map, every call evaluates."""
    parts = _density_parts(phi, range(phi.dim))
    kept = _kept_of(phi)
    if kept is None:
        return parts

    def kept_parts(Z: np.ndarray) -> _Parts:
        Z = np.asarray(Z, dtype=complex)
        key = Z.tobytes()
        if key not in kept.batches:
            kept.batches[key] = parts(np.frombuffer(key, dtype=complex).reshape(Z.shape)).frozen()
        return kept.batches[key]

    return kept_parts


def _path_set(phi: HoloSelfMap, paths: list, mode: str, axis: int | None) -> _PathSet:
    """Measure and validate paths that share one density (all rows in mode
    'image', row `axis` in mode 'coordinate') as one merged path, and take
    the density parts at the merged points.  The arrays it makes are
    read-only, so that the reports of several cells can share them."""
    if not paths:
        return _PathSet([], [], None)
    merged = BoundaryPath(np.concatenate([path.points for path in paths]), mode, axis)
    # measured first: measure refuses an axis that the density cannot take
    measure = merged.measure(phi)
    measure.flags.writeable = False  # before the split, whose views the profiles record
    cuts = np.cumsum([len(path.points) for path in paths])[:-1]
    approaches = [path.validate(phi, m) for path, m in zip(paths, np.split(measure, cuts))]
    parts = _density_parts(phi, range(phi.dim) if axis is None else [axis])(merged.points)
    merged.points.flags.writeable = False
    return _PathSet(paths, approaches, parts.frozen())


def _boundary_paths(phi: HoloSelfMap, mode: str, axis: int | None, seed: int) -> list:
    """make_boundary_paths(phi, mode, axis, seed=seed), built, measured and
    validated only when the slot lacks it; sets the slot to phi."""
    path_sets = _keep(phi).path_sets
    key = (mode, axis, seed)
    if key not in path_sets:
        paths = make_boundary_paths(phi, mode, axis=axis, seed=seed)
        for path in paths:
            path.points.flags.writeable = path.approach.flags.writeable = False
        path_sets[key] = _path_set(phi, paths, mode, axis)
    return path_sets[key].paths


def _kept_set(phi: HoloSelfMap, paths: list) -> _PathSet | None:
    """The kept path set of phi whose paths are these very objects, or None."""
    kept = _kept_of(phi)
    sets = kept.path_sets.values() if kept is not None else ()
    return next((s for s in sets if len(s.paths) == len(paths)
                 and all(a is b for a, b in zip(s.paths, paths))), None)


def make_boundary_paths(phi: HoloSelfMap, mode: str, axis: int | None = None,
                        count: int | None = None, seed: int = 0) -> list[BoundaryPath]:
    """Construct approach paths along straight radial rays by bisection.

    A pool of ray directions z(t) = t * u (|u_k| = 1) is probed at a deep
    radius t_max, and the `count` rays along which the approach measure gets
    smallest are kept.  The targets delta halve from min(g0/2, 0.25), where
    g0 is the measure at the origin, down to PATH_FINAL_TARGET (at most
    PATH_MAX_TARGETS of them).  One 48-step bisection over every (ray,
    target) pair, each bracket starting from [0, t_max], finds a t at which
    the measure is <= delta.  A ray keeps the targets its deep measure
    reaches, a prefix since the targets descend.  Rays that cannot push the
    measure below 1e-4 (or that stall far above the deepest ray) are dropped;
    an empty list states that the requested approach is unrealizable (the
    map stays away from the boundary).
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
        # rays U (m, n), parameters T (m, J) -> measures (m, J)
        return _approach(phi, T[..., None] * U[:, None, :], mode, axis)

    pool = _ray_pool(n, count, rng)
    deep_pool = measures_for(pool, np.full((pool.shape[0], 1), t_max))[:, 0]
    order = np.argsort(deep_pool, kind="stable")
    U = pool[order[:count]]
    deep = deep_pool[order[:count]]

    g0 = float(measures_for(U[:1], np.zeros((1, 1)))[0, 0])
    if g0 <= 0:
        return []

    targets = min(g0 / 2.0, 0.25) * 0.5 ** np.arange(PATH_MAX_TARGETS)
    targets = targets[targets >= PATH_FINAL_TARGET]
    kept = (deep[:, None] <= targets).sum(axis=1)
    if not kept.any():
        return []
    targets = targets[:kept.max()]  # no ray reaches the later ones

    lo = np.zeros((count, targets.size))
    hi = np.full_like(lo, t_max)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        above = measures_for(U, mid) > targets
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    approach = measures_for(U, hi)

    final = approach[np.arange(count), kept - 1]  # meaningless where kept is 0
    stall_cutoff = max(final[kept > 0].min() * 16.0, PATH_FINAL_TARGET * 4.0)
    keep = (kept >= PATH_MIN_POINTS) & (final <= PATH_REQUIRED_FINAL) & (final <= stall_cutoff)
    tag = f"{mode}" + (f"{axis}" if mode == "coordinate" else "")
    return [BoundaryPath(points=hi[i, :kept[i], None] * U[i], mode=mode, axis=axis,
                         approach=approach[i, :kept[i]], path_id=f"{tag}-ray{i}")
            for i in np.flatnonzero(keep)]


# ---------------------------------------------------------------------------
# compactness profiles


@dataclass
class PathProfile:
    path: BoundaryPath
    values: np.ndarray
    status: str  # 'decayed' | 'stays' | 'undecided'

    def to_json(self) -> dict:
        path = self.path
        return {"path_id": path.path_id, "mode": path.mode, "axis": path.axis,
                "approach": [float(v) for v in path.approach],
                "values": [float(v) for v in self.values],
                "status": self.status}


def _judge_tail(values: np.ndarray) -> str:
    """The status of a profile from its last four values, taken as floats."""
    tail = values[-4:].tolist()
    if all(b - a <= 1e-12 for a, b in zip(tail, tail[1:])) and tail[-1] < DECAY_TOL:
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
    require_certified(phi)
    rule = "image-boundary-decay" if mode == "image" else "coordinate-boundary-decay"
    if not paths:
        return [], Verdict("holds", "small-components",
                           detail={"reason": "no realizable boundary approach"})

    for path in paths:
        if path.mode != mode:
            raise PathValidationError(
                f"path {path.path_id!r} has mode {path.mode!r}; profile expects {mode!r}")
    # the paths that share a density (all of them in mode 'image', those of one
    # axis in mode 'coordinate') are measured and evaluated as one merged path
    groups: dict = {}
    for i, path in enumerate(paths):
        groups.setdefault(path.axis if mode == "coordinate" else None, []).append(i)
    profiles = [None] * len(paths)
    for axis, members in groups.items():
        group = [paths[i] for i in members]
        path_set = _kept_set(phi, group) or _path_set(phi, group, mode, axis)
        values, start = path_set.parts.combine(p, q), 0
        # the profile records the re-measured approach, also for a hand-built path
        for i, m in zip(members, path_set.approaches):
            path = paths[i]
            v = values[start:start + len(path.points)]
            start += len(path.points)
            profiles[i] = PathProfile(BoundaryPath(path.points, path.mode, path.axis, m,
                                                   path.path_id), v, _judge_tail(v))

    statuses = [pr.status for pr in profiles]
    if any(s == "stays" for s in statuses):
        worst = next(pr for pr in profiles if pr.status == "stays")
        verdict = Verdict("fails", rule, margin=float(worst.values[-1]),
                          detail={"witness_path": worst.path.path_id,
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
    J = phi.jacobian(Z)
    W = phi.val(Z)
    col = one_minus_sq(np.abs(Z))          # multiplies column k (= D1^{-1})
    row = 1.0 / one_minus_sq(np.abs(W))    # multiplies row l (= D2)
    M = row[..., :, None] * J * col[..., None, :]
    return np.linalg.svd(M, compute_uv=False)


# ---------------------------------------------------------------------------
# auxiliary detectors


def component_sup_estimates(phi: HoloSelfMap) -> list[float]:
    """Certified upper bounds on sup |phi_l|, the upper ends of phi's certificate."""
    return [hi for _, hi in phi.certificate.brackets]


def lip1_boundedness_check(phi: HoloSelfMap, plan: SamplingPlan = SamplingPlan()) -> Verdict:
    """Unit-exponent Lipschitz norms of the components: all plateauing finite
    estimates certify the unit-exponent boundedness criterion."""
    require_certified(phi)
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


def little_bloch_verdict(bounded: Verdict, est: NormEstimate) -> Verdict:
    """Little-space verdict from a boundedness verdict and its estimate, as
    `boundedness_check` returns them (or a `CriterionReport` records them).

    C_phi maps the little p-Bloch space into the little q-Bloch space when
    (a) every component phi_l lies in the little q-Bloch space and (b) the
    (p, q) criterion supremum is finite.  Only (b) is measured: the verdict
    is the boundedness verdict.

    (a) is a theorem for every certified map.  Each component this library can
    certify is holomorphic on a neighbourhood of the closed polydisk: a Series
    or Const is entire, a MoebiusFactor is singular only at 1/conj(a) and a
    ScaledKernel only at 1/conj(w), with |a|, |w| < 1, a Sum or Product of such
    functions is again one, and a certified Composition puts such an outer
    function after such inners, which the certificate bounds by 1 on the
    closed polydisk.  A function holomorphic there is the q-Bloch limit of its
    Taylor polynomials for every q > 0, so it lies in the little q-Bloch
    space.  The components decide every power phi^gamma: d_k phi^gamma =
    sum_l gamma_l phi^{gamma - e_l} d_k phi_l with |phi^{gamma - e_l}| < 1, so
    the q-density of phi^gamma is at most sum_l gamma_l times that of phi_l.
    """
    return Verdict(bounded.verdict, "holomorphic-components", margin=bounded.margin,
                   detail={"bounded": bounded.to_json(), "sup": est.sup})


def operator_norm_lower_bound(phi: HoloSelfMap, p: float, q: float,
                              w_grid, plan: SamplingPlan = SamplingPlan()) -> float:
    """Best ratio ||nu o phi||_q / ||nu||_p over the sampled test families:
    a lower bound for the operator norm.

    The numerator is a sampled estimate, which can only fall short of
    ||nu o phi||_q, and the denominator is the certified upper end of the
    member's closed-form norm bracket.  Numerator undershoot loosens the
    bound; nothing inflates it.
    """
    require_certified(phi)
    best = 0.0
    for w in np.asarray(w_grid, dtype=complex):
        for axis in range(phi.dim):
            for nu in members(axis, w, p, phi.dim):
                den = nu.bloch_norm_bracket(p)[1]
                num = bloch_norm_estimate(compose(nu, phi), q, plan).value
                best = max(best, num / den)
    return best


# ---------------------------------------------------------------------------
# classification


@dataclass
class CriterionReport:
    """Full record of one (phi, p, q) classification run; `component_sups` are
    the certified upper bounds on sup |phi_l| from phi's self-map certificate."""

    dimension: int
    p: float
    q: float
    certificate: dict
    bounded: Verdict
    sup_estimate: NormEstimate
    compact: Verdict
    profiles: list
    component_sups: list
    plan: SamplingPlan

    def to_json(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **record_json(self)}

    def csv_rows(self) -> list[dict]:
        rows = []
        idx = 0
        for pr in self.profiles:
            for j in range(pr.values.size):
                rows.append({
                    "sample_index": idx,
                    "z": format_point(pr.path.points[j]),
                    "density": float(pr.values[j]),
                    "path_id": pr.path.path_id,
                    "verdict": self.compact.verdict,
                })
                idx += 1
        return rows


def classify(phi: HoloSelfMap, p: float, q: float,
             plan: SamplingPlan = SamplingPlan()) -> CriterionReport:
    """Run the boundedness detector, judge compactness along boundary paths,
    and assemble a full report.

    Route order: unbounded maps are immediately non-compact.  Otherwise the
    density is tabulated along bisected boundary paths: image paths and the
    full density for p >= 1, coordinate paths on every axis and the single-row
    density for p < 1.  No realizable path holds vacuously (small-components).
    For p < 1 <= q a profile verdict is wrapped as the exponent gap: it holds
    unless the profile fails, which makes it inconclusive.  A decay verdict
    that holds while boundedness is inconclusive becomes inconclusive.

    The slot of the module docstring keeps, for the last map object
    classified, its grid parts per plan and its path sets per mode, axis and
    seed; another map frees it first.  Later cells of that map only combine
    the kept parts with their (p, q), so a report's profile points and
    approaches are read-only arrays that the reports of other cells share.
    """
    require_certified(phi)
    if not (p > 0 and q > 0):
        raise ValueError("exponents p and q must be positive")

    _keep(phi)
    bounded, sup_est = boundedness_check(phi, p, q, plan)
    comp_sup_values = component_sup_estimates(phi)

    if bounded.verdict == "fails":
        profiles, compact = [], Verdict("fails", "sup-density-plateau",
                                        detail={"reason": "criterion supremum diverges; an "
                                                          "unbounded operator cannot be compact"})
    elif p >= 1.0:
        paths = _boundary_paths(phi, "image", None, plan.seed)
        profiles, compact = compactness_profile(phi, p, q, paths, "image")
    else:
        paths = [path for axis in range(phi.dim)
                 for path in _boundary_paths(phi, "coordinate", axis, plan.seed + axis)]
        profiles, compact = compactness_profile(phi, p, q, paths, "coordinate")
        if q >= 1.0 and compact.rule != "small-components":
            if compact.verdict == "fails":
                compact = Verdict("inconclusive", "exponent-gap",
                                  detail={"note": "profile contradicted the exponent-gap rule",
                                          "profile": compact.to_json()})
            else:
                compact = Verdict("holds", "exponent-gap", margin=compact.margin,
                                  detail={"profile": compact.to_json()})

    if bounded.verdict == "inconclusive" and compact.verdict == "holds" \
            and compact.rule in ("image-boundary-decay", "coordinate-boundary-decay"):
        compact = Verdict("inconclusive", compact.rule,
                          detail={"reason": "decay observed but boundedness unresolved",
                                  "decay": compact.to_json()})

    return CriterionReport(
        dimension=phi.dim, p=p, q=q,
        certificate=phi.certificate.to_json(),
        bounded=bounded, sup_estimate=sup_est, compact=compact,
        profiles=profiles, component_sups=comp_sup_values, plan=plan,
    )
