"""JSON specification format for functions and self-maps.

A spec is an object with a "dimension" field plus either "function" (one
component) or "components" (a self-map), with an optional "compose" list of
further map specs applied right-to-left (the main map acts last).  Component
forms, all complex scalars as [re, im] pairs and coordinate indices 0-based:

  {"type": "series",   "terms": [{"exponents": [...], "coeff": [re, im]}, ...]}
  {"type": "moebius",  "a": [re, im], "theta": t, "source": k}
  {"type": "testfn",   "family": "f"|"g"|"h", "l": k, "w": [re, im], "p": p}
  {"type": "constant", "value": [re, im]}

"theta" and "source" default to 0; every other key shown is required, and
numbers must be finite (JSON's NaN and Infinity are refused).  A spec that
breaks the format raises SpecError naming the JSON path of the fault, such as
components[0].a or compose[1].components[0].terms[2].coeff.
"""

from __future__ import annotations

import cmath
import json
import operator
from pathlib import Path

from .holo import (
    Const,
    HoloFunction,
    HoloSelfMap,
    MoebiusFactor,
    Series,
    compose,
    compose_map,
)
from .reports import complex_pair
from .testfuncs import TestFunction


class SpecError(ValueError):
    """A spec that does not follow the format; the message names the JSON path."""


_REQUIRED = object()


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _field(obj, key: str, path: str, default=_REQUIRED):
    """obj[key] of the JSON object at `path`; `default` when given and the key is absent."""
    if not isinstance(obj, dict):
        raise SpecError(f"{path or 'spec'}: expected a JSON object, got {obj!r}")
    if key in obj:
        return obj[key]
    if default is _REQUIRED:
        raise SpecError(f"{_at(path, key)}: missing required key {key!r}")
    return default


def _complex(pair) -> complex:
    if isinstance(pair, (int, float)):
        return complex(pair)
    re, im = pair
    return complex(re, im)


def _integer(value) -> int:
    if isinstance(value, bool):
        raise TypeError(value)
    return operator.index(value)


_EXPECTED = {_complex: "a finite number or an [re, im] pair of them", float: "a finite number",
             _integer: "an integer"}


def _number(obj, key: str, path: str, kind, default=_REQUIRED):
    """obj[key] converted by `kind` (one of _EXPECTED) if finite, else SpecError naming its path."""
    value = _field(obj, key, path, default)
    try:
        number = kind(value)
        if isinstance(number, int) or cmath.isfinite(number):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise SpecError(f"{_at(path, key)}: expected {_EXPECTED[kind]}, got {value!r}")


def _load_series(comp: dict, dim: int, path: str) -> Series:
    terms = _field(comp, "terms", path)
    if not isinstance(terms, list):
        raise SpecError(f"{_at(path, 'terms')}: expected a list of terms, got {terms!r}")
    coeffs = {}
    for i, term in enumerate(terms):
        term_path = f"{path}.terms[{i}]"
        raw = _field(term, "exponents", term_path)
        try:
            exps = tuple(_integer(e) for e in raw)
        except (TypeError, ValueError):
            exps = ()
        if len(exps) != dim or any(e < 0 for e in exps):
            raise SpecError(f"{term_path}.exponents: expected {dim} nonnegative integers, "
                            f"got {raw!r}")
        coeffs[exps] = coeffs.get(exps, 0) + _number(term, "coeff", term_path, _complex)
    return Series(coeffs, dim)


def _load_component(comp, dim: int, path: str) -> HoloFunction:
    kind = _field(comp, "type", path)
    try:
        if kind == "series":
            return _load_series(comp, dim, path)
        if kind == "moebius":
            return MoebiusFactor(dim, _number(comp, "source", path, _integer, 0),
                                 _number(comp, "a", path, _complex),
                                 _number(comp, "theta", path, float, 0.0))
        if kind == "testfn":
            return TestFunction(_field(comp, "family", path), _number(comp, "l", path, _integer),
                                _number(comp, "w", path, _complex),
                                _number(comp, "p", path, float), dim)
        if kind == "constant":
            return Const(_number(comp, "value", path, _complex), dim)
    except SpecError:
        raise
    except ValueError as exc:
        # a parameter the constructor rejects, such as |a| >= 1
        raise SpecError(f"{path}: {exc}") from None
    raise SpecError(f"{_at(path, 'type')}: unknown component type {kind!r}")


def _dump_component(f: HoloFunction) -> dict:
    if isinstance(f, Series):
        return {"type": "series",
                "terms": [{"exponents": list(e), "coeff": complex_pair(c)}
                          for e, c in sorted(f.coeffs.items())]}
    if isinstance(f, MoebiusFactor):
        return {"type": "moebius", "a": complex_pair(f.a),
                "theta": f.theta, "source": f.axis}
    if isinstance(f, TestFunction):
        return {"type": "testfn", "family": f.family, "l": f.axis,
                "w": complex_pair(f.w), "p": f.p}
    if isinstance(f, Const):
        return {"type": "constant", "value": complex_pair(f.c)}
    raise SpecError(f"cannot serialize a {type(f).__name__} component")


def _read(spec) -> tuple[dict, int]:
    """The spec as a dict, and its dimension."""
    if isinstance(spec, (str, Path)):
        with open(spec, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SpecError(f"{spec}: not valid JSON ({exc})") from None
    else:
        data = spec
    return data, _dimension(data, "", _REQUIRED)


def _dimension(data, path: str, default) -> int:
    dim = _number(data, "dimension", path, _integer, default)
    if dim < 1:
        raise SpecError(f"{_at(path, 'dimension')}: expected a positive integer, got {dim}")
    return dim


def load_function(spec) -> HoloFunction:
    """Read a single-function spec (the "function" key, or a one-component map)."""
    data, dim = _read(spec)
    if "function" in data:
        f = _load_component(data["function"], dim, "function")
    else:
        comps = data.get("components", [])
        if not (isinstance(comps, list) and len(comps) == 1):
            raise SpecError("a function spec needs a 'function' entry or exactly one component")
        f = _load_component(comps[0], dim, "components[0]")
    return _composed(f, data, dim, "", compose)


def _composed(outer, data: dict, dim: int, path: str, compose_fn):
    """outer after the maps of the spec's "compose" list, applied right to left."""
    subs = _field(data, "compose", path, [])
    if not isinstance(subs, list):
        raise SpecError(f"{_at(path, 'compose')}: expected a list of map specs, got {subs!r}")
    for i, sub in enumerate(subs):
        sub_path = f"{_at(path, 'compose')}[{i}]"
        if _dimension(sub, sub_path, dim) != dim:
            raise SpecError(f"{sub_path}.dimension: expected {dim}, the outer dimension")
        outer = compose_fn(outer, _load_map(sub, dim, sub_path))
    return outer


def _load_map(data: dict, dim: int, path: str) -> HoloSelfMap:
    comps_raw = _field(data, "components", path)
    comps_path = _at(path, "components")
    if not isinstance(comps_raw, list) or len(comps_raw) != dim:
        raise SpecError(f"{comps_path}: a map spec needs exactly {dim} components")
    phi = HoloSelfMap([_load_component(c, dim, f"{comps_path}[{i}]")
                       for i, c in enumerate(comps_raw)])
    return _composed(phi, data, dim, path, compose_map)


def load_map(spec) -> HoloSelfMap:
    """Read a self-map spec; the map carries its certificate from construction."""
    data, dim = _read(spec)
    return _load_map(data, dim, "")


def dump_function(f: HoloFunction) -> dict:
    return {"dimension": f.dim, "function": _dump_component(f)}
