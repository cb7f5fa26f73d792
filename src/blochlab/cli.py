"""Command-line interface: norm | classify | verify-lemmas | oracle | sweep.

All commands accept plan overrides (--levels, --angles, --rounds, --budget,
--seed), which reach them as one SamplingPlan, and write versioned JSON /
fixed-column CSV reports through one writer, `_write`.  Exit code 0
means no suite failure and no oracle breach; exit code 2 means bad input (an
invalid option, spec or parameter), reported in one line.
"""

from __future__ import annotations

import functools
import math
import sys

import click
import numpy as np

from . import corpus as corpus_mod
from . import mapspec, reports
from .criteria import (
    UncertifiedMapError,
    boundedness_check,
    classify as classify_map,
    lip1_boundedness_check,
    little_bloch_verdict,
    operator_norm_lower_bound,
    require_certified,
)
from .holo import EvaluationDomainError
from .norms import bloch_norm_estimate, lipschitz_norm_estimate
from .oracle import run_oracle
from .sampling import MAX_RADIAL_LEVELS, SamplingPlan
from .suites import run_all
from .testfuncs import TestFunction

THEOREMS = ("bounded", "compact", "little-bloch", "lip1", "opnorm")


class _Positive(click.FloatRange):
    """Finite floats > 0 (FloatRange alone lets nan through)."""

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        return value if math.isfinite(value) else self.fail(f"{value} is not finite.", param, ctx)


class _OutPath(click.Path):
    """A path to write to; an empty one is refused, since nothing could be written there."""

    def convert(self, value, param, ctx):
        return super().convert(value, param, ctx) if value else self.fail(
            "an output path must not be empty.", param, ctx)


POSITIVE = _Positive(min=0.0, min_open=True)
OUT_PATH = _OutPath()
NATURAL = click.IntRange(min=0)
COUNT = click.IntRange(min=1)
# verify-lemmas also runs the plan with one level more (SamplingPlan.doubled)
LEVELS = click.IntRange(0, MAX_RADIAL_LEVELS - 1)


class InputError(click.ClickException):
    """Bad input from the command line or a spec file: one line on stderr, exit 2."""

    exit_code = 2


class _Main(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (mapspec.SpecError, EvaluationDomainError, UncertifiedMapError) as exc:
            raise InputError(str(exc)) from exc


def _parse_w(ctx, param, value) -> complex:
    try:
        re, im = (float(x) for x in value.split(","))
    except ValueError:
        re = im = math.nan
    if not (math.isfinite(re) and math.isfinite(im)):
        raise click.BadParameter(f"expected finite re,im, got {value!r}")
    return complex(re, im)


def _plan_options(fn):
    """Add the plan options to a command, which takes one SamplingPlan `plan` in their place."""
    @functools.wraps(fn)
    def command(levels, angles, rounds, budget, seed, **kwargs):
        return fn(plan=SamplingPlan(levels, angles, rounds, budget, seed), **kwargs)

    command = click.option("--levels", type=LEVELS, default=SamplingPlan.radial_levels,
                           show_default=True, help="Radial levels (radii 1 - 2^-i).")(command)
    command = click.option("--angles", type=COUNT, default=SamplingPlan.angular_count,
                           show_default=True, help="Points per torus circle / stratum.")(command)
    command = click.option("--rounds", type=NATURAL, default=SamplingPlan.max_rounds,
                           show_default=True, help="Local refinement rounds.")(command)
    command = click.option("--budget", type=COUNT, default=SamplingPlan.budget,
                           show_default=True, help="Evaluation budget per estimate.")(command)
    return click.option("--seed", type=NATURAL, default=SamplingPlan.seed,
                        show_default=True)(command)


def _write(kind: str, plan: SamplingPlan, payload: dict, rows: list,
           out_json: str | None, out_csv: str | None):
    """Write the command's report envelope and its CSV rows, each where asked."""
    if out_json:
        reports.write_json(out_json, reports.envelope(kind, plan.seed, payload))
    if out_csv:
        reports.write_csv(out_csv, rows)


@click.group(cls=_Main)
def main():
    """Bloch-space norms and composition-operator detectors on the polydisk."""


@main.command()
@click.option("--spec", type=click.Path(exists=True), default=None,
              help="Function spec JSON (format: see the blochlab.mapspec module docstring).")
@click.option("--testfn", type=click.Choice(["f", "g", "h"]), default=None,
              help="Use a built-in test-family member instead of --spec.")
@click.option("--tf-axis", type=int, default=0, show_default=True,
              help="Coordinate axis of the test function (0-based).")
@click.option("--tf-w", type=str, default="0.5,0", show_default=True, callback=_parse_w,
              help="Test-function parameter w as re,im.")
@click.option("--dimension", type=COUNT, default=1, show_default=True,
              help="Ambient dimension for --testfn.")
@click.option("--p", "ps", type=POSITIVE, multiple=True, default=(1.0,), show_default=True)
@click.option("--kind", type=click.Choice(["bloch", "lipschitz", "both"]),
              default="bloch", show_default=True)
@click.option("--emit-spec", type=OUT_PATH, default=None,
              help="Also write the function as a map-specification JSON.")
@click.option("--out-json", type=OUT_PATH, default=None)
@click.option("--out-csv", type=OUT_PATH, default=None)
@_plan_options
def norm(spec, testfn, tf_axis, tf_w, dimension, ps, kind, emit_spec, out_json, out_csv, plan):
    """Estimate Bloch / Lipschitz norms of a function."""
    if (spec is None) == (testfn is None):
        raise click.UsageError("provide exactly one of --spec or --testfn")
    if kind != "bloch" and max(ps) > 1:
        raise click.UsageError(f"the Lipschitz exponent must lie in (0, 1], got {max(ps)}")
    if spec is not None:
        f = mapspec.load_function(spec)
    else:
        try:
            f = TestFunction(testfn, tf_axis, tf_w, ps[0], dimension)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    if emit_spec is not None:
        reports.write_json(emit_spec, mapspec.dump_function(f))
        click.echo(f"spec written to {emit_spec}")

    payload = {"estimates": []}
    rows = []
    for p in ps:
        entry = {"p": p}
        for label, estimate in (("bloch", bloch_norm_estimate),
                                ("lipschitz", lipschitz_norm_estimate)):
            if kind not in (label, "both"):
                continue
            est = estimate(f, p, plan)
            entry[label] = est.to_json()
            click.echo(f"p={p}: {label} norm >= {est.value:.12g} "
                       f"(converged={est.converged})")
            rows.append({"sample_index": len(rows), "z": reports.format_point(est.witness),
                         "density": est.sup, "path_id": f"{label}:p={p}", "verdict": ""})
        payload["estimates"].append(entry)
    _write("norm", plan, payload, rows, out_json, out_csv)


@main.command("classify")
@click.option("--spec", type=click.Path(exists=True), required=True,
              help="Map spec JSON.")
@click.option("--p", "ps", type=POSITIVE, multiple=True, default=(1.0,), show_default=True)
@click.option("--q", "qs", type=POSITIVE, multiple=True, default=(1.0,), show_default=True)
@click.option("--theorems", type=str, default="bounded,compact", show_default=True,
              help="Comma list from: " + ", ".join(THEOREMS) + ".  little-bloch gives the "
                   "bounded verdict: every certified component lies in the little space.")
@click.option("--out-json", type=OUT_PATH, default=None)
@click.option("--out-csv", type=OUT_PATH, default=None)
@_plan_options
def classify_cmd(spec, ps, qs, theorems, out_json, out_csv, plan):
    """Run boundedness/compactness detectors for a self-map."""
    selected = {t.strip() for t in theorems.split(",") if t.strip()}
    if not selected:
        raise click.UsageError(f"no theorem named; choose from {', '.join(THEOREMS)}")
    unknown = selected.difference(THEOREMS)
    if unknown:
        raise click.UsageError(f"unknown theorem name(s) {', '.join(sorted(unknown))}; "
                               f"choose from {', '.join(THEOREMS)}")
    phi = mapspec.load_map(spec)
    if len(ps) != len(qs):
        raise click.UsageError("--p and --q must be given the same number of times")

    payload = {"runs": []}
    rows = []
    for p, q in zip(ps, qs):
        entry: dict = {"p": p, "q": q}
        report = None
        if selected & {"bounded", "compact"}:
            report = classify_map(phi, p, q, plan)
            entry["report"] = report.to_json()
            click.echo(f"(p={p}, q={q}) bounded: {report.bounded.verdict} "
                       f"[{report.bounded.rule}], sup >= {report.sup_estimate.sup:.6g}")
            click.echo(f"(p={p}, q={q}) compact: {report.compact.verdict} "
                       f"[{report.compact.rule}]")
            rows.extend(report.csv_rows())
        if "little-bloch" in selected:
            # a report already holds the one criterion estimate the verdict needs
            v = little_bloch_verdict(*(boundedness_check(phi, p, q, plan) if report is None
                                       else (report.bounded, report.sup_estimate)))
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
    _write("classify", plan, payload, rows, out_json, out_csv)


@main.command("verify-lemmas")
@click.option("--dimension", type=COUNT, default=2, show_default=True)
@click.option("--band-count", type=COUNT, default=10, show_default=True,
              help="Polynomial corpus size for the norm-ratio band suite.")
@click.option("--out-json", type=OUT_PATH, default=None)
@click.option("--out-csv", type=OUT_PATH, default=None)
@_plan_options
def verify_lemmas(dimension, band_count, out_json, out_csv, plan):
    """Run every invariant suite; nonzero exit on any failure."""
    rows = run_all(dim=dimension, seed=plan.seed, plan=plan, band_count=band_count)
    failures = 0
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        click.echo(f"{status}  {r.name:32s} worst={r.worst:.3e}  {r.witness}")
        failures += 0 if r.passed else 1
    _write("verify-lemmas", plan, {"rows": [r.to_json() for r in rows]},
           [{"sample_index": i, "z": "", "density": r.worst,
             "path_id": r.name, "verdict": "pass" if r.passed else "fail"}
            for i, r in enumerate(rows)], out_json, out_csv)
    click.echo(f"{len(rows) - failures}/{len(rows)} suites passed")
    sys.exit(0 if failures == 0 else 1)


@main.command("oracle")
@click.option("--dimension", type=COUNT, default=2, show_default=True)
@click.option("--p", type=POSITIVE, default=1.0, show_default=True)
@click.option("--derivative-count", type=COUNT, default=1000, show_default=True)
@click.option("--sup-count", type=COUNT, default=20_000, show_default=True)
@click.option("--out-json", type=OUT_PATH, default=None)
@_plan_options
def oracle_cmd(dimension, p, derivative_count, sup_count, out_json, plan):
    """Independent finite-difference / uniform-grid recomputation."""
    fns = corpus_mod.default_function_corpus(dimension, seed=plan.seed)
    results = run_oracle(fns, p=p, plan=plan, seed=plan.seed,
                         derivative_count=derivative_count, sup_count=sup_count)
    breaches = [r for r in results if r.breach]
    for r in results:
        mark = "BREACH" if r.breach else "ok"
        click.echo(f"{mark:6s} {r.quantity:48s} primary={r.primary:.6g} "
                   f"oracle={r.oracle:.6g} disc={r.discrepancy:.3e}")
    _write("oracle", plan, {"results": [r.to_json() for r in results]}, [], out_json, None)
    click.echo(f"{len(results) - len(breaches)}/{len(results)} oracle rows clean")
    sys.exit(0 if not breaches else 1)


@main.command("sweep")
@click.option("--spec", type=click.Path(exists=True), multiple=True,
              help="Additional map specs to include beside the built-in corpus; "
                   "an uncertified one is refused before any cell runs.")
@click.option("--dimension", type=COUNT, default=1, show_default=True)
@click.option("--p", "ps", type=POSITIVE, multiple=True, default=(0.3, 0.5, 0.7),
              show_default=True)
@click.option("--q", "qs", type=POSITIVE, multiple=True, default=(0.3, 0.5, 0.7),
              show_default=True)
@click.option("--out-csv", type=OUT_PATH, required=True)
@click.option("--out-json", type=OUT_PATH, default=None)
@_plan_options
def sweep(spec, dimension, ps, qs, out_csv, out_json, plan):
    """Tabulate verdicts and suprema over a (p, q) grid and a map corpus.

    Emits plot-ready rows only; no aggregate conclusion is drawn.  A cell's
    component_sups are certified upper bounds on sup |phi_l|, from the map's
    self-map certificate."""
    maps = corpus_mod.default_selfmap_corpus(dimension, seed=plan.seed)
    for i, path in enumerate(spec):
        phi = mapspec.load_map(path)
        require_certified(phi)
        maps.append((f"spec{i}", phi))

    rows = []
    payload = {"cells": []}
    idx = 0
    for name, phi in maps:
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
    _write("sweep", plan, payload, rows, out_json, out_csv)
    click.echo(f"{idx} sweep rows written to {out_csv}")


if __name__ == "__main__":
    main()
