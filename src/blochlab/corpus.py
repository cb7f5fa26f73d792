"""Built-in function and self-map corpora for suites, oracles, and sweeps."""

from __future__ import annotations

import itertools

import numpy as np

from .holo import (
    HoloSelfMap,
    MoebiusFactor,
    Series,
    identity_map,
    moebius_automorphism,
)
from .testfuncs import members


def polynomial_corpus(dim: int, count: int = 50, seed: int = 0) -> list[Series]:
    """Random polynomials with complex Gaussian coefficients, degree <= 4."""
    rng = np.random.default_rng(seed)
    exps = [e for e in itertools.product(range(5), repeat=dim) if sum(e) <= 4]
    out = []
    for _ in range(count):
        coeffs = {}
        for e in exps:
            c = rng.normal() + 1j * rng.normal()
            coeffs[e] = c / (1.0 + sum(e))
        out.append(Series(coeffs, dim))
    return out


def testfn_corpus(dim: int, ps=(0.5, 1.0, 2.0), ws=None) -> list:
    """Members of the three families across exponents, axes, and parameters."""
    if ws is None:
        ws = [0.0, 0.3, 0.5 + 0.4j, -0.7j, 0.8]
    out = []
    for p in ps:
        for w in ws:
            for axis in range(dim):
                out += members(axis, w, p, dim)
    return out


def default_function_corpus(dim: int, seed: int = 0, n_poly: int = 8) -> list:
    """Polynomials, family members with moderate parameters, and a disk-automorphism factor."""
    fns: list = polynomial_corpus(dim, count=n_poly, seed=seed)
    fns += testfn_corpus(dim, ps=(0.5, 1.0, 2.0), ws=[0.0, 0.4, 0.6 - 0.3j, 0.8])
    fns.append(MoebiusFactor(dim, 0, 0.5 + 0.2j, theta=0.3))
    return fns


def default_selfmap_corpus(dim: int, seed: int = 0) -> list[tuple[str, HoloSelfMap]]:
    """Named certified self-maps: identity, contractions, automorphisms, and
    a polynomial map with coefficient sum 1."""
    rng = np.random.default_rng(seed)
    maps: list[tuple[str, HoloSelfMap]] = [("identity", identity_map(dim))]

    maps.append(("halving", HoloSelfMap([Series.coordinate(k, dim).scale(0.5)
                                         for k in range(dim)])))
    if dim == 1:
        maps.append(("shifted-half", HoloSelfMap([Series({(0,): 0.5, (1,): 0.5}, 1)])))

    a = 0.6 * (rng.random(dim) - 0.5) + 0.6j * (rng.random(dim) - 0.5)
    theta = 2.0 * np.pi * rng.random(dim)
    maps.append(("automorphism", moebius_automorphism(a, theta)))

    if dim >= 2:
        sigma = tuple(np.roll(np.arange(dim), 1))
        maps.append(("rotated-automorphism",
                     moebius_automorphism(0.3 * np.ones(dim), np.zeros(dim), sigma)))
        comps = [Series({tuple(np.eye(dim, dtype=int)[k] + np.eye(dim, dtype=int)[(k + 1) % dim]): 1.0}, dim)
                 for k in range(dim - 1)]
        comps.append(Series.coordinate(dim - 1, dim))
        maps.append(("product-map", HoloSelfMap(comps)))
    return maps
