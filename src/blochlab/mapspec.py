"""JSON specification format for functions and self-maps.

A spec is an object with a "dimension" field plus either "function" (one
component) or "components" (a self-map), with an optional "compose" list of
further map specs applied right-to-left (the main map acts last).  Component
forms, all complex scalars as [re, im] pairs and coordinate indices 0-based:

  {"type": "series",   "terms": [{"exponents": [...], "coeff": [re, im]}, ...]}
  {"type": "moebius",  "a": [re, im], "theta": t, "source": k}
  {"type": "testfn",   "family": "f"|"g"|"h", "l": k, "w": [re, im], "p": p}
  {"type": "constant", "value": [re, im]}
"""

from __future__ import annotations

import json
from pathlib import Path

from .holo import (
    Const,
    HoloFunction,
    HoloSelfMap,
    MoebiusFactor,
    Series,
    certify_self_map,
    compose_map,
    moebius_automorphism,
)
from .polydisk import complex_pair
from .testfuncs import TestFunction


class SpecError(ValueError):
    pass


def _complex(pair) -> complex:
    if isinstance(pair, (int, float)):
        return complex(pair)
    re, im = pair
    return complex(re, im)


def _load_component(comp: dict, dim: int) -> HoloFunction:
    kind = comp.get("type")
    if kind == "series":
        coeffs = {}
        for term in comp.get("terms", []):
            exps = tuple(int(e) for e in term["exponents"])
            if len(exps) != dim:
                raise SpecError(f"exponent tuple {exps} does not match dimension {dim}")
            coeffs[exps] = coeffs.get(exps, 0) + _complex(term["coeff"])
        return Series(coeffs, dim)
    if kind == "moebius":
        return MoebiusFactor(dim, int(comp.get("source", 0)),
                             _complex(comp["a"]), float(comp.get("theta", 0.0)))
    if kind == "testfn":
        return TestFunction(comp["family"], int(comp["l"]),
                            _complex(comp["w"]), float(comp["p"]), dim)
    if kind == "constant":
        return Const(_complex(comp["value"]), dim)
    raise SpecError(f"unknown component type {kind!r}")


def _dump_component(f: HoloFunction) -> dict:
    if isinstance(f, Series):
        return {"type": "series",
                "terms": [{"exponents": list(e), "coeff": complex_pair(c)}
                          for e, c in sorted(f.coeffs.items())]}
    if isinstance(f, MoebiusFactor):
        return {"type": "moebius", "a": complex_pair(f.a),
                "theta": f.theta, "source": f.axis}
    if isinstance(f, TestFunction):
        return f.to_json()
    if isinstance(f, Const):
        return {"type": "constant", "value": complex_pair(f.c)}
    raise SpecError(f"cannot serialize a {type(f).__name__} component")


def _read(spec) -> dict:
    if isinstance(spec, (str, Path)):
        with open(spec, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return dict(spec)


def load_function(spec) -> HoloFunction:
    """Read a single-function spec (the "function" key, or a one-component map)."""
    data = _read(spec)
    dim = int(data["dimension"])
    if "function" in data:
        return _load_component(data["function"], dim)
    comps = data.get("components", [])
    if len(comps) == 1:
        return _load_component(comps[0], dim)
    raise SpecError("a function spec needs a 'function' entry or exactly one component")


def load_map(spec, certify: bool = True, plan=None) -> HoloSelfMap:
    """Read a self-map spec; optionally attach the strongest certificate."""
    data = _read(spec)
    dim = int(data["dimension"])
    comps_raw = data.get("components")
    if not comps_raw or len(comps_raw) != dim:
        raise SpecError(f"a map spec needs exactly {dim} components")
    comps = [_load_component(c, dim) for c in comps_raw]

    # all-Moebius components whose sources permute the coordinates form an
    # automorphism, certified exactly
    if all(isinstance(c, MoebiusFactor) for c in comps) \
            and sorted(c.axis for c in comps) == list(range(dim)):
        phi = moebius_automorphism([c.a for c in comps], [c.theta for c in comps],
                                   sigma=[c.axis for c in comps])
    else:
        phi = HoloSelfMap(comps)

    for sub in data.get("compose", []):
        inner = load_map({**sub, "dimension": sub.get("dimension", dim)}, certify=False)
        phi = compose_map(phi, inner)

    if certify:
        certify_self_map(phi, plan=plan)
    return phi


def dump_function(f: HoloFunction) -> dict:
    return {"dimension": f.dim, "function": _dump_component(f)}


def dump_map(phi: HoloSelfMap) -> dict:
    return {"dimension": phi.dim,
            "components": [_dump_component(c) for c in phi.components]}


def write_spec(path, spec: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2, sort_keys=True)
        fh.write("\n")
