"""Benchmark of blochlab: three workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload lemmas-d3 --seed 0 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics of BENCHMARK.json.  Passes of the
workload run back to back until the next one would end after --seconds (at
least one pass); set-up is timed in fresh processes.  --trace 1 runs untraced
and traced passes (U T T, then U T pairs while they fit in --seconds) and
reports the per-layer metrics of the first traced pass, the tracing overhead,
and whether counts and outputs repeat exactly.  Spans go to .bench_out/.

Every time is scaled to a reference machine speed (see reference.py); the raw
times are printed beside it.  The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import os

# One thread for the BLAS / OpenMP pools, set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("BLOCH_LAB_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 9
# Probes end in well under a second; one that hangs is killed.
PROBE_TIMEOUT_S = 60
# Per-layer metrics in these units are times, scaled like the end-to-end ones.
TIME_UNITS = ("s", "ns")
TAIL_PERCENTILE = 90
# A run must end within 180 s; a traced run starts no pass expected to end later than this.
TRACE_DEADLINE_S = 150.0


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import blochlab from this checkout's src/, never from anywhere else."""
    if not (SRC / "blochlab" / "__init__.py").is_file():
        fail(f"no blochlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import blochlab

    if Path(blochlab.__file__).resolve().parent != SRC / "blochlab":
        fail(f"imported blochlab from {blochlab.__file__}, not from {SRC}")


def machine_record() -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        commit = done.stdout.strip() or commit
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit, "src_lines": src_lines,
            "threads_env": {v: os.environ.get(v) for v in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                             "BLOCH_LAB_THREADS")}}


def setup_seconds(workload: str, seed: int, ref) -> tuple[list[float], list[float]]:
    """Raw and scaled wall times of fresh processes that start the
    interpreter, import blochlab and generate the workload's inputs."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    spans = []
    for _ in range(SETUP_REPEATS):
        ref.maybe_sample()
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        spans.append((t0, time.perf_counter()))
        if done.returncode != 0:
            fail(f"set-up probe exited {done.returncode}: {done.stderr.strip()[-500:]}")
    ref.sample()
    raw = [t1 - t0 for t0, t1 in spans]
    return raw, [(t1 - t0) * ref.scale(t0, t1) for t0, t1 in spans]


@dataclass
class PassTiming:
    raw_s: float        # wall time of the pass, reference samples excluded
    scale: float        # reference scale around the pass
    ops_raw_s: list     # wall time of each operation, reference samples excluded

    @property
    def scaled_s(self) -> float:
        return self.raw_s * self.scale


def timed_pass(workload, inputs, seed, clock, ref):
    """Run one pass; its timing is scaled later by `finish`."""
    spent, first_op = ref.spent, len(clock.times)
    t0 = time.perf_counter()
    result = workload.run_pass(inputs, seed, clock, str(OUT_DIR))
    t1 = time.perf_counter()
    raw = t1 - t0 - (ref.spent - spent)
    ref.maybe_sample()
    return result, (t0, t1, raw, clock.times[first_op:])


def finish(timings, ref) -> list[PassTiming]:
    """Scale pass timings once the reference has a sample after the last pass."""
    ref.sample()
    return [PassTiming(raw, ref.scale(t0, t1), [t1 - t0 - inside for _, t0, t1, inside in ops])
            for t0, t1, raw, ops in timings]


def tail_percentile(n: int) -> int:
    """The 90th percentile, or the highest whole one with at least ten of the n
    samples beyond it when n < 100 (50 at least).  Fixed at 90 because the
    sample count varies between runs and a moving percentile spreads the tail."""
    return min(TAIL_PERCENTILE, max(50, math.floor(100.0 * (n - 10) / n)) if n > 10 else 50)


def percentile(values, pct: float) -> float:
    import numpy

    return float(numpy.percentile(numpy.asarray(values, dtype=float), pct))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    import_program()
    from reference import Reference
    from tracing import EXACT_COUNTS, Patcher, Tracer, layer_metrics, sample_inside, time_ops
    from workloads import WORKLOADS, OpClock

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)
    machine = machine_record()
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    ref = Reference()
    ref.sample()

    def untraced_passes(seconds):
        """Passes back to back until the next would end after `seconds`."""
        inputs = workload.make_inputs(args.seed)
        clock = OpClock(ref)
        results, timings = [], []
        with Patcher() as patcher:
            sample_inside(patcher, ref)
            time_ops(patcher, workload.op_targets(), clock)
            start = time.perf_counter()
            while True:
                result, timing = timed_pass(workload, inputs, args.seed, clock, ref)
                results.append(result)
                timings.append(timing)
                if (time.perf_counter() - start
                        + statistics.median(t[2] for t in timings) > seconds):
                    return results, timings

    def traced_pass():
        clock = OpClock(ref)
        tracer = Tracer(clock)
        with Patcher() as patcher:
            tracer.install(patcher)
            time_ops(patcher, workload.op_targets(), clock)
            inputs = workload.make_inputs(args.seed)
            result, timing = timed_pass(workload, inputs, args.seed, clock, ref)
        return tracer, clock, result, timing

    problems: list[str] = []
    if args.trace == 0:
        setup_raw, setup_scaled = setup_seconds(workload.name, args.seed, ref)
        results, timings = untraced_passes(args.seconds)
        passes = finish(timings, ref)
        if workload.verdict_per_op:
            latencies = [s * p.scale for p in passes for s in p.ops_raw_s]
        else:
            latencies = [p.scaled_s for p in passes]
        ms = [s * 1000.0 for s in latencies]
        tail_pct = tail_percentile(len(ms))
        values = {
            "wall_s": statistics.median(p.scaled_s for p in passes),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": peak_rss_mb(),
            "verdict_tail_ms": percentile(ms, tail_pct),
        }
        print(f"passes: {len(passes)}; raw s: {[round(p.raw_s, 4) for p in passes]}; "
              f"reference scale: {[round(p.scale, 4) for p in passes]}")
        print(f"set-up raw s: {[round(s, 4) for s in setup_raw]}")
        print(f"raw medians: wall_s {statistics.median(p.raw_s for p in passes):.4f}, "
              f"setup_s {statistics.median(setup_raw):.4f}")
        print(f"verdicts: {len(ms)}; verdict_tail_ms is p{tail_pct}; "
              f"p50 {percentile(ms, 50):.4f} ms")
        metric_specs = spec["end_to_end"]
    else:
        results, untraced, traced, layers, kept = [], [], [], [], None
        start = time.perf_counter()
        # The first traced pass gives the layer metrics and its spans, the
        # second the exact-count check; later pairs only refine the overhead.
        while True:
            now = time.perf_counter()
            typical = statistics.median(t[2] for t in untraced + traced) if traced else 0.0
            if len(traced) >= 2 and now - start + 2 * typical > args.seconds:
                break
            if len(traced) == 1 and now - started + typical > TRACE_DEADLINE_S:
                print("NOTE: no time left for a second traced pass; "
                      "exact counts were not compared")
                break
            if len(traced) != 1:
                base, timings = untraced_passes(0.0)
                results += base
                untraced += timings
            tracer, clock, result, timing = traced_pass()
            results.append(result)
            traced.append(timing)
            if len(layers) < 2:
                layers.append(layer_metrics(tracer, clock.times, workload.op_metric))
                kept = kept or tracer
        for key in EXACT_COUNTS if len(layers) == 2 else ():
            if layers[0][key] != layers[1][key]:
                problems.append(f"count {key} differs between traced passes: "
                                f"{layers[0][key]} vs {layers[1][key]}")
        untraced, traced = finish(untraced, ref), finish(traced, ref)
        scale = traced[0].scale
        values = dict(layers[0])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in values:
            if units.get(name) in TIME_UNITS:
                values[name] *= scale
        overhead = (statistics.median(p.scaled_s for p in traced)
                    - statistics.median(p.scaled_s for p in untraced))
        values["bench.trace_overhead_s"] = overhead
        print(f"untraced raw s: {[round(p.raw_s, 4) for p in untraced]}; traced raw s: "
              f"{[round(p.raw_s, 4) for p in traced]}; overhead at reference speed "
              f"{overhead:+.4f} s; spans {len(kept.spans)}")
        span_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json"
        kept.write(str(span_path), {"workload": workload.name, "seed": args.seed,
                                    "machine": machine, "reference_scale": scale,
                                    "layer_metrics": values})
        print(f"spans written to {span_path.relative_to(ROOT)}")
        metric_specs = spec["per_layer"]

    first = results[0]
    for i, r in enumerate(results[1:], start=1):
        if r.fingerprint != first.fingerprint:
            problems.append(f"pass {i} output differs from pass 0 for the same seed")
    for r in results:
        problems.extend(r.failures)
    problems = list(dict.fromkeys(problems))
    attempted = sum(r.attempted for r in results)
    failed = sum(len(r.failures) for r in results)
    print(f"fail_frac: {len(first.flagged)}/{first.attempted} per pass {first.flagged}; "
          f"failed rows: {failed}/{attempted}")
    print(f"sup_undershoot_max: {first.undershoot_max:.6g}")
    if args.trace == 1:
        values["bench.fail_frac"] = len(first.flagged) / first.attempted
        values["oracle.sup_results.undershoot_max"] = first.undershoot_max

    metrics = {}
    for m in metric_specs:
        if m["name"] not in values and args.trace == 0:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        print(f"{m['name']:48s} {metrics[m['name']]['value']:.6g} {m['unit']}")
    unlisted = sorted(set(values) - set(metrics))
    if unlisted:
        fail(f"measured metrics missing from BENCHMARK.json: {unlisted}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
