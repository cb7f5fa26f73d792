"""Command-line interface: norm | classify | verify-lemmas | oracle | sweep.

All commands accept plan overrides (--levels, --angles, --rounds, --budget,
--seed) and write versioned JSON / fixed-column CSV reports.  Exit code 0
means no suite failure and no oracle breach.
"""

from __future__ import annotations

import json
import sys

import click
import numpy as np

from . import corpus as corpus_mod
from . import mapspec, reports
from .criteria import (
    classify as classify_map,
    lip1_boundedness_check,
    little_bloch_operator_check,
    operator_norm_lower_bound,
)
from .norms import bloch_norm_estimate, lipschitz_norm_estimate
from .oracle import run_oracle
from .sampling import SamplingPlan
from .suites import run_all
from .testfuncs import TestFunction


def _plan_options(fn):
    fn = click.option("--levels", type=int, default=14, show_default=True,
                      help="Radial levels (radii 1 - 2^-i).")(fn)
    fn = click.option("--angles", type=int, default=64, show_default=True,
                      help="Points per torus circle / stratum.")(fn)
    fn = click.option("--rounds", type=int, default=12, show_default=True,
                      help="Local refinement rounds.")(fn)
    fn = click.option("--budget", type=int, default=60_000, show_default=True,
                      help="Evaluation budget per estimate.")(fn)
    fn = click.option("--seed", type=int, default=0, show_default=True)(fn)
    return fn


def _mk_plan(levels, angles, rounds, budget, seed) -> SamplingPlan:
    return SamplingPlan(radial_levels=levels, angular_count=angles,
                        max_rounds=rounds, budget=budget, seed=seed)


@click.group()
def main():
    """Bloch-space norms and composition-operator detectors on the polydisk."""


@main.command()
@click.option("--spec", type=click.Path(exists=True), default=None,
              help="Function spec JSON (see README for the format).")
@click.option("--testfn", type=click.Choice(["f", "g", "h"]), default=None,
              help="Use a built-in test-family member instead of --spec.")
@click.option("--tf-axis", type=int, default=0, show_default=True,
              help="Coordinate axis of the test function (0-based).")
@click.option("--tf-w", type=str, default="0.5,0", show_default=True,
              help="Test-function parameter w as re,im.")
@click.option("--dimension", type=int, default=1, show_default=True,
              help="Ambient dimension for --testfn.")
@click.option("--p", "ps", type=float, multiple=True, default=(1.0,), show_default=True)
@click.option("--kind", type=click.Choice(["bloch", "lipschitz", "both"]),
              default="bloch", show_default=True)
@click.option("--emit-spec", type=click.Path(), default=None,
              help="Also write the function as a map-specification JSON.")
@click.option("--out-json", type=click.Path(), default=None)
@click.option("--out-csv", type=click.Path(), default=None)
@_plan_options
def norm(spec, testfn, tf_axis, tf_w, dimension, ps, kind, emit_spec,
         out_json, out_csv, levels, angles, rounds, budget, seed):
    """Estimate Bloch / Lipschitz norms of a function."""
    plan = _mk_plan(levels, angles, rounds, budget, seed)
    if (spec is None) == (testfn is None):
        raise click.UsageError("provide exactly one of --spec or --testfn")
    if spec is not None:
        f = mapspec.load_function(spec)
    else:
        re, im = (float(x) for x in tf_w.split(","))
        f = TestFunction(testfn, tf_axis, complex(re, im), ps[0], dimension)
    if emit_spec is not None:
        mapspec.write_spec(emit_spec, mapspec.dump_function(f))
        click.echo(f"spec written to {emit_spec}")

    payload = {"estimates": []}
    rows = []
    for p in ps:
        entry = {"p": p}
        if kind in ("bloch", "both"):
            est = bloch_norm_estimate(f, p, plan)
            entry["bloch"] = est.to_json()
            click.echo(f"p={p}: bloch norm >= {est.value:.12g} "
                       f"(converged={est.converged})")
            rows.append({"sample_index": len(rows), "z": reports.format_point(est.witness),
                         "density": est.sup, "path_id": f"bloch:p={p}", "verdict": ""})
        if kind in ("lipschitz", "both"):
            if not 0 < p <= 1:
                raise click.UsageError("the Lipschitz exponent must lie in (0, 1]")
            est = lipschitz_norm_estimate(f, p, plan)
            entry["lipschitz"] = est.to_json()
            click.echo(f"p={p}: lipschitz norm >= {est.value:.12g} "
                       f"(converged={est.converged})")
            rows.append({"sample_index": len(rows), "z": reports.format_point(est.witness),
                         "density": est.sup, "path_id": f"lipschitz:p={p}", "verdict": ""})
        payload["estimates"].append(entry)

    if out_json:
        reports.write_json(out_json, reports.envelope("norm", seed, payload))
    if out_csv:
        reports.write_csv(out_csv, rows)


@main.command("classify")
@click.option("--spec", type=click.Path(exists=True), required=True,
              help="Map spec JSON.")
@click.option("--p", "ps", type=float, multiple=True, default=(1.0,), show_default=True)
@click.option("--q", "qs", type=float, multiple=True, default=(1.0,), show_default=True)
@click.option("--theorems", type=str, default="bounded,compact", show_default=True,
              help="Comma list from: bounded, compact, little-bloch, lip1, opnorm.")
@click.option("--degree-cap", type=int, default=2, show_default=True,
              help="Multi-index degree cap for the little-space detector.")
@click.option("--out-json", type=click.Path(), default=None)
@click.option("--out-csv", type=click.Path(), default=None)
@_plan_options
def classify_cmd(spec, ps, qs, theorems, degree_cap, out_json, out_csv,
                 levels, angles, rounds, budget, seed):
    """Run boundedness/compactness detectors for a self-map."""
    plan = _mk_plan(levels, angles, rounds, budget, seed)
    phi = mapspec.load_map(spec, plan=plan)
    if not phi.certificate.is_certified():
        click.echo(f"refusing: map is not certified as a self-map "
                   f"(sampled sup {phi.certificate.evidence:.6g})", err=True)
        sys.exit(2)
    selected = {t.strip() for t in theorems.split(",") if t.strip()}
    if len(ps) != len(qs):
        raise click.UsageError("--p and --q must be given the same number of times")

    payload = {"runs": []}
    rows = []
    for p, q in zip(ps, qs):
        entry: dict = {"p": p, "q": q}
        if selected & {"bounded", "compact"}:
            report = classify_map(phi, p, q, plan)
            entry["report"] = report.to_json()
            click.echo(f"(p={p}, q={q}) bounded: {report.bounded.verdict} "
                       f"[{report.bounded.rule}], sup >= {report.sup_estimate.sup:.6g}")
            click.echo(f"(p={p}, q={q}) compact: {report.compact.verdict} "
                       f"[{report.compact.rule}]")
            rows.extend(report.csv_rows())
        if "little-bloch" in selected:
            v = little_bloch_operator_check(phi, p, q, degree_cap, plan)
            entry["little_bloch"] = v.to_json()
            click.echo(f"(p={p}, q={q}) little-space: {v.verdict} [{v.rule}]")
        if "lip1" in selected:
            v = lip1_boundedness_check(phi, plan)
            entry["lip1"] = v.to_json()
            click.echo(f"lip1: {v.verdict} [{v.rule}]")
        if "opnorm" in selected:
            w_grid = [0.0, 0.3, 0.6, 0.9 * np.exp(0.5j)]
            lb = operator_norm_lower_bound(phi, p, q, w_grid, plan)
            entry["operator_norm_lower_bound"] = lb
            click.echo(f"(p={p}, q={q}) operator norm >= {lb:.6g}")
        payload["runs"].append(entry)

    if out_json:
        reports.write_json(out_json, reports.envelope("classify", seed, payload))
    if out_csv:
        reports.write_csv(out_csv, rows)


@main.command("verify-lemmas")
@click.option("--dimension", type=int, default=2, show_default=True)
@click.option("--band-count", type=int, default=10, show_default=True,
              help="Polynomial corpus size for the norm-ratio band suite.")
@click.option("--out-json", type=click.Path(), default=None)
@click.option("--out-csv", type=click.Path(), default=None)
@_plan_options
def verify_lemmas(dimension, band_count, out_json, out_csv,
                  levels, angles, rounds, budget, seed):
    """Run every invariant suite; nonzero exit on any failure."""
    plan = _mk_plan(levels, angles, rounds, budget, seed)
    rows = run_all(dim=dimension, seed=seed, plan=plan, band_count=band_count)
    failures = 0
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        click.echo(f"{status}  {r.name:32s} worst={r.worst:.3e}  {r.witness}")
        failures += 0 if r.passed else 1
    if out_json:
        reports.write_json(out_json, reports.envelope(
            "verify-lemmas", seed, {"rows": [r.to_json() for r in rows]}))
    if out_csv:
        reports.write_csv(out_csv, [
            {"sample_index": i, "z": "", "density": r.worst,
             "path_id": r.name, "verdict": "pass" if r.passed else "fail"}
            for i, r in enumerate(rows)])
    click.echo(f"{len(rows) - failures}/{len(rows)} suites passed")
    sys.exit(0 if failures == 0 else 1)


@main.command("oracle")
@click.option("--dimension", type=int, default=2, show_default=True)
@click.option("--p", type=float, default=1.0, show_default=True)
@click.option("--derivative-count", type=int, default=1000, show_default=True)
@click.option("--sup-count", type=int, default=20_000, show_default=True)
@click.option("--out-json", type=click.Path(), default=None)
@_plan_options
def oracle_cmd(dimension, p, derivative_count, sup_count, out_json,
               levels, angles, rounds, budget, seed):
    """Independent finite-difference / uniform-grid recomputation."""
    plan = _mk_plan(levels, angles, rounds, budget, seed)
    fns = corpus_mod.default_function_corpus(dimension, seed=seed)
    results = run_oracle(fns, p=p, plan=plan, seed=seed,
                         derivative_count=derivative_count, sup_count=sup_count)
    breaches = [r for r in results if r.breach]
    for r in results:
        mark = "BREACH" if r.breach else "ok"
        click.echo(f"{mark:6s} {r.quantity:48s} primary={r.primary:.6g} "
                   f"oracle={r.oracle:.6g} disc={r.discrepancy:.3e}")
    if out_json:
        reports.write_json(out_json, reports.envelope(
            "oracle", seed, {"results": [r.to_json() for r in results]}))
    click.echo(f"{len(results) - len(breaches)}/{len(results)} oracle rows clean")
    sys.exit(0 if not breaches else 1)


@main.command("sweep")
@click.option("--spec", type=click.Path(exists=True), multiple=True,
              help="Additional map specs to include beside the built-in corpus.")
@click.option("--dimension", type=int, default=1, show_default=True)
@click.option("--p", "ps", type=float, multiple=True, default=(0.3, 0.5, 0.7),
              show_default=True)
@click.option("--q", "qs", type=float, multiple=True, default=(0.3, 0.5, 0.7),
              show_default=True)
@click.option("--out-csv", type=click.Path(), required=True)
@click.option("--out-json", type=click.Path(), default=None)
@_plan_options
def sweep(spec, dimension, ps, qs, out_csv, out_json,
          levels, angles, rounds, budget, seed):
    """Tabulate verdicts and suprema over a (p, q) grid and a map corpus.

    Emits plot-ready rows only; no aggregate conclusion is drawn."""
    plan = _mk_plan(levels, angles, rounds, budget, seed)
    maps = corpus_mod.default_selfmap_corpus(dimension, seed=seed)
    for i, path in enumerate(spec):
        maps.append((f"spec{i}", mapspec.load_map(path, plan=plan)))

    rows = []
    payload = {"cells": []}
    idx = 0
    for name, phi in maps:
        if not phi.certificate.is_certified():
            continue
        for p in ps:
            for q in qs:
                report = classify_map(phi, p, q, plan)
                rows.append({
                    "sample_index": idx,
                    "z": name,
                    "density": report.sup_estimate.sup,
                    "path_id": f"p={p},q={q}",
                    "verdict": f"bounded={report.bounded.verdict};"
                               f"compact={report.compact.verdict};"
                               f"rule={report.compact.rule};"
                               f"max_comp_sup={max(report.component_sups):.6g}",
                })
                payload["cells"].append({
                    "map": name, "p": p, "q": q,
                    "bounded": report.bounded.verdict,
                    "compact": report.compact.verdict,
                    "rule": report.compact.rule,
                    "sup": report.sup_estimate.sup,
                    "component_sups": [float(v) for v in report.component_sups],
                })
                idx += 1
    reports.write_csv(out_csv, rows)
    if out_json:
        reports.write_json(out_json, reports.envelope("sweep", seed, payload))
    click.echo(f"{idx} sweep rows written to {out_csv}")


if __name__ == "__main__":
    main()
