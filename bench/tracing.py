"""Spans around calls into blochlab's public functions, recorded from outside.

`Patcher` swaps a function for a wrapper at every place it is bound: each
loaded `blochlab` module attribute that holds it (so `stratified_grid` is
patched in `sampling` and in `norms`, and call-time imports such as the one in
`holo.certify_self_map` see the wrapper), or the class attribute for a method.
It puts every original back on exit.

`Tracer` keeps spans in memory as (name, start, end, parent index, op id) and
adds counts computed from arguments and return values.  `layer_metrics` turns
one traced pass into the `<module>.<function>.<quantity>` metrics: `s` is
inclusive time, `self_s` is time minus child spans.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict

from blochlab import corpus, criteria, holo, norms, oracle, reports, sampling, testfuncs


def _binding_sites(obj):
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "blochlab" or mod_name.startswith("blochlab."):
            for key, value in list(vars(module).items()):
                if value is obj:
                    yield module, key


class Patcher:
    """Context manager that wraps functions and methods and restores them."""

    def __init__(self):
        self._undo = []

    def function(self, module, name, make_wrapper):
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        for site, key in list(_binding_sites(original)):
            setattr(site, key, wrapper)
            self._undo.append((site, key, original))

    def method(self, cls, name, make_wrapper):
        original = cls.__dict__[name]
        setattr(cls, name, make_wrapper(original))
        self._undo.append((cls, name, original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()
        return False


def time_ops(patcher: Patcher, targets, clock):
    """Make each (module, function) call one operation timed by `clock`."""
    for module, name in targets:
        patcher.function(module, name, lambda fn, op=name: (
            lambda *args, **kwargs: clock.run(op, fn, *args, **kwargs)))


def sample_inside(patcher: Patcher, ref):
    """Let `ref` sample at each stratified_grid call, so that suite rows that
    run for seconds are sampled inside and not only at their ends.  Untraced
    passes only: in a traced pass the sample would land inside open spans."""
    def hook(fn):
        def sampled(*args, **kwargs):
            ref.maybe_sample()
            return fn(*args, **kwargs)
        return sampled
    patcher.function(sampling, "stratified_grid", hook)


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans: list = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._grid_keys: set = set()

    def wrap(self, name, fn, count=None, before=None, name_of=None):
        """Wrapper that records a span around fn.

        count(counts, args, kwargs, result, pre) adds quantities after the
        call; `pre` is before(args, kwargs), taken before the call runs.
        name_of(args) picks the span name per call instead of `name`.
        """
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts
        perf = time.perf_counter

        def traced(*args, **kwargs):
            span_name = name if name_of is None else name_of(args)
            pre = before(args, kwargs) if before is not None else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            op = clock.current
            stack.append(index)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[index] = (span_name, t0, t1, parent, op)
            if count is not None:
                count(counts, args, kwargs, result, pre)
            return result

        return traced

    def wrap_factory(self, name, factory):
        """Wrapper of a function that returns a density closure: the closure is traced."""
        def traced_factory(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs))
        return traced_factory

    def install(self, patcher: Patcher):
        """Wrap every traced function and method of blochlab."""
        grid, paths_fn, write_json = (sampling.stratified_grid, criteria.make_boundary_paths,
                                      reports.write_json)

        def counted(name, **kw):
            return lambda fn: self.wrap(name, fn, **kw)

        def grid_key(a, k):
            # a call repeats an earlier one when (dim, plan, generator state) match
            args = _bound(grid, a, k)
            rng = args["rng"]
            state = ("fresh", args["plan"].seed) if rng is None else repr(rng.bit_generator.state)
            return (args["dim"], args["plan"], state)

        def grid_points(c, a, k, r, key):
            c["sampling.stratified_grid.points"] += r[0].shape[0]
            if key in self._grid_keys:
                c["sampling.stratified_grid.repeats"] += 1
            self._grid_keys.add(key)

        def evals(prefix):
            def count(c, a, k, r, pre):
                c[prefix + ".evals"] += r.evaluations
                c[prefix + ".converged"] += bool(r.converged)
            return count

        def rays_paths(c, a, k, r, pre):
            args = _bound(paths_fn, a, k)
            n = args["phi"].dim
            rays = args["count"]
            if rays is None:
                rays = 16 * n if args["mode"] == "image" else 16
            c["criteria.make_boundary_paths.rays"] += rays
            c["criteria.make_boundary_paths.paths"] += len(r)

        def series_terms(c, a, k, r, pre):
            c["holo.Series.val.term_points"] += len(a[0].coeffs) * r.size

        def testfn_points(c, a, k, r, pre):
            c["testfuncs.TestFunction.val.points"] += r.size

        def fd_points(c, a, k, r, pre):
            c["oracle.fd_gradient.points"] += r.size // r.shape[-1]

        def written_bytes(c, a, k, r, pre):
            c["reports.write_json.bytes"] += os.path.getsize(_bound(write_json, a, k)["path"])

        p = patcher
        p.function(sampling, "stratified_grid", counted(
            "sampling.stratified_grid", count=grid_points, before=grid_key))
        p.function(sampling, "estimate_supremum", counted(
            "sampling.estimate_supremum", count=evals("sampling.estimate_supremum")))
        p.method(holo.Series, "val", counted("holo.Series.val", count=series_terms))
        p.method(holo.HoloSelfMap, "val", counted("holo.HoloSelfMap.val"))
        p.method(holo.ScaledKernel, "val", counted("holo.ScaledKernel.val"))
        p.function(holo, "compose", counted("holo.compose"))
        p.function(holo, "certify_self_map", counted("holo.certify_self_map"))
        p.method(testfuncs.TestFunction, "val", counted(
            "testfuncs.TestFunction.val", count=testfn_points,
            name_of=lambda a: "testfuncs.f.val" if a[0].family == "f" else "testfuncs.gh.val"))
        p.function(norms, "bloch_norm_estimate", counted("norms.bloch_norm_estimate"))
        p.function(norms, "bloch_density_fn",
                   lambda fn: self.wrap_factory("norms.bloch_density", fn))
        p.function(norms, "lipschitz_norm_estimate", counted(
            "norms.lipschitz_norm_estimate", count=evals("norms.lipschitz_norm_estimate")))
        p.function(norms, "little_bloch_gap", counted("norms.little_bloch_gap"))
        for name in ("classify", "boundedness_check", "component_sup_estimates",
                     "compactness_profile", "weighted_jacobian_singular_values"):
            p.function(criteria, name, counted(f"criteria.{name}"))
        p.function(criteria, "make_boundary_paths", counted(
            "criteria.make_boundary_paths", count=rays_paths))
        p.function(criteria, "criterion_density_fn",
                   lambda fn: self.wrap_factory("criteria.criterion_density", fn))
        p.function(criteria, "coordinate_density_fn",
                   lambda fn: self.wrap_factory("criteria.coordinate_density", fn))
        p.function(oracle, "fd_gradient", counted("oracle.fd_gradient", count=fd_points))
        for name in ("uniform_points", "uniform_bloch_norm", "direct_q_seminorm"):
            p.function(oracle, name, counted(f"oracle.{name}"))
        for name in ("default_function_corpus", "default_selfmap_corpus"):
            p.function(corpus, name, counted(f"corpus.{name}"))
        p.function(reports, "write_json", counted("reports.write_json", count=written_bytes))

    def span_totals(self) -> dict[str, dict[str, float]]:
        """calls, inclusive `s` and `self_s` per span name.

        A span nested inside a span of the same name adds to `calls` and
        `self_s` but not again to `s`.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        totals: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["self_s"] += (t1 - t0) - child[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                entry["s"] += t1 - t0
        return totals

    def write(self, path: str, extra: dict):
        """Write the spans, columnar, with `extra` alongside."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(extra)
        doc["span_names"] = names
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "op"]
        doc["spans"] = [[index[n], round(t0, 7), round(t1, 7), parent, op]
                        for n, t0, t1, parent, op in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


# Counts that must repeat exactly between two traced passes of one seed.
EXACT_COUNTS = (
    "sampling.stratified_grid.calls",
    "sampling.stratified_grid.points",
    "sampling.estimate_supremum.evals",
    "holo.Series.val.term_points",
    "oracle.fd_gradient.points",
    "criteria.make_boundary_paths.paths",
)


def layer_metrics(tracer: Tracer, op_times, op_metric) -> dict[str, float]:
    """The per-layer metrics of one traced pass (set-up included).

    op_times holds (op id, start, end, reference seconds inside) of the pass.
    Suite rows and oracle groups are operations, so their times come from
    there: op_metric(op) names the metric an operation's time adds to, or None.
    """
    totals = tracer.span_totals()
    c = tracer.counts

    def t(name, key):
        return totals[name][key] if name in totals else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for name in ("sampling.stratified_grid", "sampling.estimate_supremum", "holo.Series.val",
                 "holo.HoloSelfMap.val", "norms.bloch_norm_estimate",
                 "norms.lipschitz_norm_estimate", "criteria.classify",
                 "criteria.make_boundary_paths", "oracle.fd_gradient"):
        m[f"{name}.calls"] = t(name, "calls")
    for name in ("sampling.stratified_grid", "sampling.estimate_supremum", "holo.Series.val",
                 "holo.HoloSelfMap.val", "holo.ScaledKernel.val", "testfuncs.f.val",
                 "testfuncs.gh.val", "criteria.make_boundary_paths", "oracle.fd_gradient"):
        m[f"{name}.self_s"] = t(name, "self_s")
    for name in ("holo.compose", "holo.certify_self_map", "norms.bloch_norm_estimate",
                 "norms.bloch_density", "norms.lipschitz_norm_estimate",
                 "norms.little_bloch_gap", "criteria.classify", "criteria.boundedness_check",
                 "criteria.component_sup_estimates", "criteria.compactness_profile",
                 "criteria.criterion_density", "criteria.coordinate_density",
                 "criteria.weighted_jacobian_singular_values", "oracle.uniform_points",
                 "oracle.uniform_bloch_norm", "oracle.direct_q_seminorm",
                 "corpus.default_function_corpus", "corpus.default_selfmap_corpus",
                 "reports.write_json"):
        m[f"{name}.s"] = t(name, "s")

    grid_calls = m["sampling.stratified_grid.calls"]
    m["sampling.stratified_grid.points"] = c["sampling.stratified_grid.points"]
    m["sampling.stratified_grid.repeat_frac"] = ratio(c["sampling.stratified_grid.repeats"],
                                                      grid_calls)
    sup_calls = m["sampling.estimate_supremum.calls"]
    m["sampling.estimate_supremum.evals"] = c["sampling.estimate_supremum.evals"]
    m["sampling.estimate_supremum.converged_frac"] = ratio(
        c["sampling.estimate_supremum.converged"], sup_calls)
    m["holo.Series.val.term_points"] = c["holo.Series.val.term_points"]
    m["holo.Series.val.ns_per_term_point"] = ratio(
        m["holo.Series.val.self_s"] * 1e9, m["holo.Series.val.term_points"])
    m["testfuncs.TestFunction.val.calls"] = (t("testfuncs.f.val", "calls")
                                             + t("testfuncs.gh.val", "calls"))
    m["testfuncs.TestFunction.val.points"] = c["testfuncs.TestFunction.val.points"]
    m["norms.lipschitz_norm_estimate.evals"] = c["norms.lipschitz_norm_estimate.evals"]
    m["criteria.make_boundary_paths.rays"] = c["criteria.make_boundary_paths.rays"]
    m["criteria.make_boundary_paths.paths"] = c["criteria.make_boundary_paths.paths"]
    m["criteria.make_boundary_paths.kept_frac"] = ratio(
        c["criteria.make_boundary_paths.paths"], c["criteria.make_boundary_paths.rays"])
    m["oracle.fd_gradient.points"] = c["oracle.fd_gradient.points"]
    m["reports.write_json.bytes"] = c["reports.write_json.bytes"]

    for op, t0, t1, inside in op_times:
        key = op_metric(op)
        if key is not None:
            m[key] = m.get(key, 0.0) + t1 - t0 - inside
    return m
