"""The planted-defect table: which `verify-lemmas` rows each fault trips.

Each case plants one fault by monkeypatching (no source file changes), runs
`suites.run_all(dim=2, seed=0)` and asserts the exact set of failing rows.  A
row that no plausible fault trips cannot show that the code it checks is
sound; a fault that no row trips is a blind spot of the suites.  `max_rounds=0`
and the last four cases each aim at a row that they leave passing, and
UNTRIPPED names the rows that no case trips, so that a row which starts to
catch its fault shows up here.
"""

import dataclasses

import numpy as np
import pytest

from blochlab import corpus, criteria, holo, norms, oracle, sampling, suites, testfuncs
from blochlab.criteria import _Parts
from blochlab.holo import MoebiusFactor, ScaledKernel, Series

MODULES = (corpus, criteria, holo, norms, oracle, sampling, suites, testfuncs)


def _replace(monkeypatch, owner, name, make):
    """Set owner.name to make(original); for a module function, also in every
    module that imported it by name, as an edit of its source would."""
    original = getattr(owner, name)
    mutant = make(original)
    monkeypatch.setattr(owner, name, mutant)
    if not isinstance(owner, type):
        for module in MODULES:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, mutant)


def _scaled(factor):
    return lambda original: lambda *args, **kw: original(*args, **kw) * factor


def _no_rounds(original):
    return lambda score, grid, propose, plan, base=0.0: original(
        score, grid, propose, dataclasses.replace(plan, max_rounds=0), base=base)


def _reversed_trace(original):
    def maximise(*args, **kw):
        est = original(*args, **kw)
        est.trace = est.trace[::-1]
        return est
    return maximise


def _flip_axis_1(original):
    def partial(self, axis):
        out = original(self, axis)
        if axis != 1:
            return out
        return Series({e: -c for e, c in out.coeffs.items()}, self.dim)
    return partial


def _joint_rows_swapped(original):
    # the joint Horner plan of a Series' partials with their first two
    # coefficient rows swapped: a top-level plan whose leaves are columns
    def plan(coeffs, axis, dim):
        if axis == 0 and any(np.ndim(c) and len(c) > 1 for c in coeffs.values()):
            coeffs = {e: c[[1, 0, *range(2, len(c))]] for e, c in coeffs.items()}
        return original(coeffs, axis, dim)
    return plan


def _moebius_without_conj(original):
    def val(self, Z):
        zs = np.asarray(Z, dtype=complex)[..., self.axis]
        return self.phase * (zs - self.a) / (1.0 - self.a * zs)
    return val


def _halved_density(original):
    def factory(*args, **kw):
        density = original(*args, **kw)
        return lambda Z: 0.5 * density(Z)
    return factory


MUTATIONS = {
    "max_rounds=0": (
        (sampling, "maximise", _no_rounds), set()),
    "weighted_partial_sum x 0.98": (
        (norms, "weighted_partial_sum", _scaled(0.98)),
        {"q-density-sandwich", "family-f-density-identity", "density-row-decomposition"}),
    "column_weights exponent x 1.05": (
        (norms, "column_weights", lambda cw: lambda gaps, p: cw(gaps, 1.05 * p)),
        {"family-f-density-identity", "density-row-decomposition"}),
    "Series.partial sign flipped on axis 1": (
        (Series, "partial", _flip_axis_1),
        {"derivative-fd-agreement", "chain-rule-identity"}),
    "joint partial traversal with two axes' coefficient rows swapped": (
        (holo, "_horner_plan", _joint_rows_swapped), {"derivative-fd-agreement"}),
    "weighted-Jacobian singular values x 1.5": (
        (criteria, "weighted_jacobian_singular_values", _scaled(1.5)),
        {"automorphism-metric-equality"}),
    "MoebiusFactor.val without the conj": (
        (MoebiusFactor, "val", _moebius_without_conj),
        {"derivative-fd-agreement", "chain-rule-identity", "moebius-interior-mapping",
         "density-row-decomposition", "automorphism-metric-equality", "small-exponent-decay"}),
    "ScaledKernel.val x 1.1": (
        (ScaledKernel, "val", _scaled(1.1)),
        {"derivative-fd-agreement", "chain-rule-identity", "family-truncation-tails",
         "kernel-local-decay", "density-row-decomposition", "automorphism-metric-equality"}),
    "_antiderivative x 1.001": (
        (testfuncs, "_antiderivative", _scaled(1.001)), {"derivative-fd-agreement"}),
    "tail_bound x 0.5": (
        (testfuncs, "tail_bound", _scaled(0.5)), {"family-truncation-tails"}),
    "_judge_tail always stays": (
        (criteria, "_judge_tail", lambda judge: lambda values: "stays"),
        {"small-exponent-decay"}),
    "_judge_tail always decayed": (
        (criteria, "_judge_tail", lambda judge: lambda values: "decayed"),
        {"metric-floor-implies-stay"}),
    "_Parts.combine x 0.5": (
        (_Parts, "combine", _scaled(0.5)), {"density-row-decomposition"}),
    "trace reversed": (
        (sampling, "maximise", _reversed_trace), {"norm-trace-monotone"}),
    # aimed at point-evaluation-bound, family-uniform-bound,
    # chain-rule-domination and lipschitz-band-stability, which all still pass
    "pointeval_bound x 0.5": (
        (norms, "pointeval_bound", _scaled(0.5)), set()),
    "family_norm_bound x 0.9": (
        (testfuncs, "family_norm_bound", _scaled(0.9)), set()),
    "criterion density x 0.5": (
        (criteria, "criterion_density_fn", _halved_density), {"density-row-decomposition"}),
    "Lipschitz quotient exponent forced to 1": (
        (norms, "_separations", lambda sep: lambda left, right, p: sep(left, right, 1.0)),
        set()),
}


UNTRIPPED = {"point-evaluation-bound", "lipschitz-band-stability", "family-uniform-bound",
             "chain-rule-domination"}


def _failed_rows():
    return {row.name for row in suites.run_all(dim=2, seed=0) if not row.passed}


def test_unmutated_rows_pass_and_the_table_trips_all_but_untripped():
    rows = suites.run_all(dim=2, seed=0)
    assert all(row.passed for row in rows)
    tripped = set().union(*(expected for _, expected in MUTATIONS.values()))
    assert {row.name for row in rows} - tripped == UNTRIPPED


@pytest.mark.parametrize("name", MUTATIONS)
def test_mutation_trips_exactly_its_rows(name, monkeypatch):
    (owner, attr, make), expected = MUTATIONS[name]
    _replace(monkeypatch, owner, attr, make)
    # the kept grid's arrays were built by the unplanted code; an edit of the
    # source would start without them
    monkeypatch.setattr(sampling, "_kept_grid", None)
    with np.errstate(all="ignore"):
        assert _failed_rows() == expected
