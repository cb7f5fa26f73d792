"""Algebraic invariants checked over generated inputs."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blochlab import mapspec
from blochlab.holo import Series
from blochlab.norms import bloch_density_fn, timoney_q_fn
from blochlab.testfuncs import tail_bound


def interior_coords(dim, max_radius=0.95):
    scalar = st.tuples(
        st.floats(-max_radius, max_radius, allow_nan=False),
        st.floats(-max_radius, max_radius, allow_nan=False),
    ).map(lambda t: complex(*t)).filter(lambda c: abs(c) < max_radius)
    return st.lists(scalar, min_size=dim, max_size=dim)


class TestSandwich:
    @given(z=interior_coords(2, max_radius=0.99))
    @settings(max_examples=150, deadline=None)
    def test_q_between_l2_and_l1(self, z):
        f = Series({(1, 0): 1.5, (0, 2): -1j, (2, 1): 0.3}, 2)
        Z = np.array(z)
        q = float(timoney_q_fn(f)(Z))
        d = float(bloch_density_fn(f, 1.0)(Z))
        assert q <= d + 1e-12
        assert d <= np.sqrt(2.0) * q + 1e-12


class TestTailBound:
    @given(p=st.floats(0.1, 3.0), w=st.floats(0.01, 0.95), m=st.integers(0, 20))
    @settings(max_examples=100, deadline=None)
    def test_strictly_decreasing_in_index(self, p, w, m):
        assert tail_bound(p, w, m + 1) < tail_bound(p, w, m)


# compose-free map specs in the form `mapspec.dump_function` writes each
# component: series, moebius and constant components with finite numbers
unit_part = st.floats(-1, 1, allow_nan=False, allow_infinity=False)
pair = st.tuples(unit_part, unit_part).map(list)


def spec_component(dim):
    term = st.fixed_dictionaries({
        "exponents": st.lists(st.integers(0, 3), min_size=dim, max_size=dim),
        "coeff": pair.filter(lambda c: c != [0.0, 0.0])})
    series = st.lists(term, max_size=4, unique_by=lambda t: tuple(t["exponents"])).map(
        lambda terms: {"type": "series", "terms": terms})
    moebius = st.fixed_dictionaries({
        "type": st.just("moebius"), "a": pair.filter(lambda c: abs(complex(*c)) < 0.99),
        "theta": st.floats(-4, 4, allow_nan=False), "source": st.integers(0, dim - 1)})
    constant = st.fixed_dictionaries({"type": st.just("constant"), "value": pair})
    return st.one_of(series, moebius, constant)


map_specs = st.integers(1, 3).flatmap(lambda dim: st.fixed_dictionaries({
    "dimension": st.just(dim),
    "components": st.lists(spec_component(dim), min_size=dim, max_size=dim)}))


def dump_spec(phi):
    """A self-map spec: each component as `mapspec.dump_function` writes it."""
    return {"dimension": phi.dim,
            "components": [mapspec.dump_function(c)["function"] for c in phi.components]}


def _terms_sorted(spec):
    out = json.loads(json.dumps(spec))
    for comp in out["components"]:
        if comp["type"] == "series":
            comp["terms"].sort(key=lambda t: t["exponents"])
    return out


def _mutation_sites(node, path=()):
    """("key", path) for each object key and ("number", path) for each number."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield "key", path + (key,)
            yield from _mutation_sites(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _mutation_sites(value, path + (i,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield "number", path


class TestSpecRoundTrip:
    @given(spec=map_specs)
    @settings(max_examples=100, deadline=None)
    def test_dump_of_load_is_the_spec(self, spec):
        assert _terms_sorted(dump_spec(mapspec.load_map(spec))) == _terms_sorted(spec)

    @given(spec=map_specs, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutated_spec_loads_or_raises_spec_error(self, spec, data):
        kind, path = data.draw(st.sampled_from(list(_mutation_sites(spec))))
        mutated = json.loads(json.dumps(spec))
        node = mutated
        for key in path[:-1]:
            node = node[key]
        if kind == "key":
            del node[path[-1]]
        else:
            node[path[-1]] = data.draw(st.one_of(st.text(max_size=4), st.just(float("nan"))))
        try:
            mapspec.load_map(mutated)
        except mapspec.SpecError:
            pass
