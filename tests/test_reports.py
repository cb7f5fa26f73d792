"""Records serialize through `reports`: the one encoder against the old bodies.

Each record once wrote its own `to_json` by hand; the functions named `*_ref`
below are those bodies, kept as the reference.  Every record the suites, the
oracle and `classify` produce must serialize to the same JSON objects and the
same JSON text through `reports.record_json`.
"""

import json

import numpy as np
import pytest

from blochlab import reports, suites
from blochlab.corpus import default_function_corpus, default_selfmap_corpus
from blochlab.criteria import classify, lip1_boundedness_check
from blochlab.norms import lipschitz_norm_estimate
from blochlab.oracle import run_oracle
from blochlab.reports import complex_pair, complex_pairs
from blochlab.sampling import SamplingPlan

QUICK_PLAN = SamplingPlan(seed=3, radial_levels=10, angular_count=24, max_rounds=4,
                          budget=8000)


def jsonable_ref(obj):
    if isinstance(obj, dict):
        return {k: jsonable_ref(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable_ref(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return complex_pairs(obj)
        return [float(v) for v in obj.ravel()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return complex_pair(obj)
    return obj


def plan_ref(plan):
    return {"radial_levels": plan.radial_levels, "angular_count": plan.angular_count,
            "max_rounds": plan.max_rounds,
            "budget": plan.budget, "seed": plan.seed}


def estimate_ref(est):
    out = {
        "value": est.value,
        "base": est.base,
        "sup": est.sup,
        "witness": complex_pairs(est.witness),
        "trace": [float(t) for t in est.trace],
        "level_trace": [float(t) for t in est.level_trace],
        "converged": bool(est.converged),
        "evaluations": int(est.evaluations),
    }
    if est.witness_partner is not None:
        out["witness_partner"] = complex_pairs(est.witness_partner)
    return out


def verdict_ref(v):
    return {"verdict": v.verdict, "rule": v.rule,
            "margin": v.margin, "detail": jsonable_ref(v.detail)}


def certificate_ref(cert):
    return {"brackets": [list(b) for b in cert.brackets]}


def report_ref(report, certificate):
    return {
        "schema_version": reports.SCHEMA_VERSION,
        "dimension": report.dimension,
        "p": report.p,
        "q": report.q,
        "certificate": certificate_ref(certificate),
        "bounded": verdict_ref(report.bounded),
        "sup_estimate": estimate_ref(report.sup_estimate),
        "compact": verdict_ref(report.compact),
        "profiles": [pr.to_json() for pr in report.profiles],
        "component_sups": [float(v) for v in report.component_sups],
        "plan": plan_ref(report.plan),
    }


def suite_row_ref(row):
    return {"name": row.name, "passed": bool(row.passed),
            "worst": float(row.worst), "witness": row.witness,
            "detail": row.detail}


def oracle_ref(result):
    return {"quantity": result.quantity, "primary": result.primary,
            "oracle": result.oracle, "discrepancy": result.discrepancy,
            "breach": bool(result.breach)}


def assert_same(new, ref):
    assert new == ref
    assert json.dumps(new, sort_keys=True) == json.dumps(ref, sort_keys=True)


def test_suite_rows():
    rows = suites.run_all(dim=2)
    assert len(rows) == 16
    for row in rows:
        assert_same(row.to_json(), suite_row_ref(row))


def test_oracle_results():
    results = run_oracle(default_function_corpus(1, seed=0)[:6], p=1.0, plan=QUICK_PLAN,
                         seed=0, derivative_count=50, sup_count=500)
    assert {r.quantity.split(":")[0] for r in results} >= {"partial", "sup", "q-seminorm"}
    for result in results:
        assert_same(result.to_json(), oracle_ref(result))


@pytest.mark.parametrize("dim", [1, 2])
def test_criterion_reports(dim):
    routes = set()
    for _, phi in default_selfmap_corpus(dim, seed=0):
        assert_same(phi.certificate.to_json(), certificate_ref(phi.certificate))
        for p, q in ((0.5, 1.0), (1.0, 1.0), (2.0, 1.0)):
            report = classify(phi, p, q, QUICK_PLAN)
            assert_same(report.to_json(), report_ref(report, phi.certificate))
            assert_same(report.plan.to_json(), plan_ref(report.plan))
            routes.add((report.bounded.verdict, report.compact.rule))
    assert len(routes) >= 3
    verdict = lip1_boundedness_check(default_selfmap_corpus(dim, seed=0)[0][1], QUICK_PLAN)
    assert_same(verdict.to_json(), verdict_ref(verdict))


def test_lipschitz_estimate_keeps_its_partner():
    est = lipschitz_norm_estimate(default_function_corpus(2, seed=0)[0], 0.5, QUICK_PLAN)
    assert est.witness_partner is not None
    assert_same(est.to_json(), estimate_ref(est))
    est.witness_partner = None
    assert "witness_partner" not in est.to_json()
    assert_same(est.to_json(), estimate_ref(est))


def test_encoder_takes_numpy_scalars():
    assert reports.jsonable({"a": (np.float32(0.5), np.int64(3), np.bool_(True))}) == \
        {"a": [0.5, 3, True]}
    assert reports.jsonable(np.complex64(1 - 2j)) == [1.0, -2.0]
    assert reports.jsonable(np.array([[0.5j, 1]])) == [[0.0, 0.5], [1.0, 0.0]]


def test_point_json_round_trip():
    z = np.array([0.1 + 0.2j, -0.3j])
    again = [complex(re, im) for re, im in reports.jsonable(z)]
    np.testing.assert_array_equal(again, z)
