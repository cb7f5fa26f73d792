"""The three benchmark workloads, each driven through the public function its
CLI command calls.

A workload builds its inputs from the seed (`make_inputs`), then runs one pass
over them (`run_pass`) in a closed loop: one caller issues each operation after
the previous one returns.  An operation is one suite row (lemmas-d3), one
oracle group (oracle-d2) or one classify cell (sweep-d2); `OpClock` times each
and tells the tracer which operation a span belongs to.

Importing this module imports `blochlab`, so the caller must have put the
checkout's `src/` first on `sys.path`.
"""

from __future__ import annotations

import inspect
import os
import time
from dataclasses import dataclass

from blochlab import corpus, criteria, oracle, reports, suites
from blochlab.sampling import SamplingPlan

SETUP_OP = "setup"


class OpClock:
    """(op id, start, end, reference seconds inside) of each operation, in
    the order they ran.  `ref` (see reference.py) may sample before each
    operation and inside it; its time is reported so it can be excluded."""

    def __init__(self, ref):
        self.times: list[tuple[str, float, float, float]] = []
        self.current = SETUP_OP
        self._ref = ref

    def run(self, op_id: str, fn, *args, **kwargs):
        self._ref.maybe_sample()
        previous, self.current = self.current, op_id
        spent = self._ref.spent
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.times.append((op_id, t0, time.perf_counter(), self._ref.spent - spent))
            self.current = previous


@dataclass
class PassResult:
    """Outcome of one pass.

    attempted: rows (suite rows, oracle rows or sweep cells) produced.
    fingerprint: every verdict and value the pass produced, compared exactly
    between passes of the same seed.
    failures: rows whose output is wrong: they raised, or broke an identity,
    a proven bound or the known-answer table.
    flagged: the rows behind fail_frac: suite rows with passed=False, oracle
    rows with a breach, sweep cells that raise, contradict the known-answer
    table or are inconclusive where it has an answer.
    """

    attempted: int
    fingerprint: tuple
    failures: list
    flagged: list
    undershoot_max: float = 0.0


def _functions_of(module, predicate) -> list[str]:
    """Names of the public functions defined in `module` that satisfy predicate."""
    return sorted(name for name, obj in vars(module).items()
                  if inspect.isfunction(obj) and obj.__module__ == module.__name__
                  and not name.startswith("_") and predicate(name))


class Workload:
    name = ""
    # What a user waits for: a classify verdict in the sweep, but the whole
    # run for verify-lemmas and oracle, whose suite rows and oracle groups are
    # too unlike each other for a percentile over them to mean anything.
    verdict_per_op = False

    def op_targets(self) -> list:
        """(module, function name) pairs whose calls are this workload's
        operations when the workload does not issue them itself."""
        return []

    def op_metric(self, op: str) -> str | None:
        """The per-layer metric an operation's time adds to, if any."""
        return None

    def make_inputs(self, seed: int):
        raise NotImplementedError

    def run_pass(self, inputs, seed: int, clock: OpClock, out_dir: str) -> PassResult:
        raise NotImplementedError


class LemmasD3(Workload):
    """suites.run_all(dim=3) at the default plan, rows written as verify-lemmas does."""

    name = "lemmas-d3"
    # These rows compare a sampled lower-bound estimate against a tolerance, so
    # an estimator that undershoots fails them without any output being wrong
    # (lipschitz-band-stability moves 0.1015 > 0.10 at seed 1).  They count in
    # fail_frac; any other row checks an identity or a proven bound, and its
    # failure is a failed operation.
    ESTIMATOR_ROWS = ("point-evaluation-bound", "lipschitz-band-stability",
                      "chain-rule-domination")

    def op_targets(self):
        return [(suites, n) for n in _functions_of(suites, lambda n: n != "run_all")]

    def op_metric(self, op):
        return f"suites.{op.replace('_', '-')}.s"

    def make_inputs(self, seed):
        return (corpus.default_function_corpus(3, seed=seed),
                corpus.default_selfmap_corpus(3, seed=seed))

    def run_pass(self, inputs, seed, clock, out_dir):
        fns, phi_corpus = inputs
        rows = suites.run_all(dim=3, seed=seed, fns=fns, phi_corpus=phi_corpus,
                              band_count=10)
        reports.write_json(os.path.join(out_dir, "verify-lemmas-d3.json"), reports.envelope(
            "verify-lemmas", seed, {"rows": [r.to_json() for r in rows]}))
        bad = [r.name for r in rows if not r.passed]
        return PassResult(
            attempted=len(rows),
            fingerprint=tuple((r.name, r.passed, r.worst, r.witness) for r in rows),
            failures=[f"suite row failed: {n}" for n in bad if n not in self.ESTIMATOR_ROWS],
            flagged=bad)


class OracleD2(Workload):
    """oracle.run_oracle over the dimension-2 function corpus at the CLI defaults."""

    name = "oracle-d2"
    # Rows of these groups compare exact identities; a breach there is a wrong
    # output.  A `sup:` breach means the refined primary estimate (a lower
    # bound) came out below a plain uniform grid: an estimator weakness,
    # counted in fail_frac and sup_undershoot_max rather than as a failure.
    EXACT_GROUPS = ("partial:", "q-seminorm:", "antiderivative:")

    def op_targets(self):
        return [(oracle, n) for n in _functions_of(oracle, lambda n: n.endswith("_results"))]

    def op_metric(self, op):
        return f"oracle.{op}.s"

    def make_inputs(self, seed):
        return corpus.default_function_corpus(2, seed=seed)

    def run_pass(self, inputs, seed, clock, out_dir):
        results = oracle.run_oracle(inputs, p=1.0, plan=SamplingPlan(seed=seed), seed=seed,
                                    derivative_count=1000, sup_count=20_000)
        breached = [r.quantity for r in results if r.breach]
        undershoot = max((max(0.0, (r.oracle - r.primary) / r.oracle)
                          for r in results if r.quantity.startswith("sup:") and r.oracle > 0),
                         default=0.0)
        return PassResult(
            attempted=len(results),
            fingerprint=tuple((r.quantity, r.primary, r.oracle, r.breach) for r in results),
            failures=[f"identity row breached: {q}" for q in breached
                      if q.startswith(self.EXACT_GROUPS)],
            flagged=breached, undershoot_max=undershoot)


PS = (0.5, 1.0, 2.0)
QS = (0.5, 1.0, 2.0)
# For these maps 1 - |phi_l|^2 = |phi_l'| (1 - |z|^2), so the criterion density
# is comparable to (1 - |z|^2)^(q - p): bounded iff p <= q, compact iff p < q.
_ISOMETRIC = ("identity", "automorphism", "rotated-automorphism")


def expected_verdicts(name: str, p: float, q: float) -> tuple[str, str] | None:
    """Known (bounded, compact) verdicts for a corpus map, or None when unchecked."""
    if name in _ISOMETRIC:
        return ("holds" if p <= q else "fails", "holds" if p < q else "fails")
    if name == "halving":
        return ("holds", "holds")
    return None


class SweepD2(Workload):
    """criteria.classify over the dimension-2 self-map corpus x p x q, as sweep runs it."""

    name = "sweep-d2"
    verdict_per_op = True

    def make_inputs(self, seed):
        return corpus.default_selfmap_corpus(2, seed=seed)

    def run_pass(self, inputs, seed, clock, out_dir):
        cells, bad, undecided = [], [], []
        for name, phi in inputs:
            for p in PS:
                for q in QS:
                    cell = f"{name}:p={p}:q={q}"
                    try:
                        report = clock.run(cell, criteria.classify, phi, p, q,
                                           SamplingPlan(seed=seed))
                    except Exception as exc:  # a cell that raises is a failed operation
                        bad.append(f"{cell} raised {type(exc).__name__}: {exc}")
                        cells.append((cell, "raised"))
                        continue
                    got = (report.bounded.verdict, report.compact.verdict)
                    want = expected_verdicts(name, p, q)
                    if want is not None and got != want:
                        # "inconclusive" declines to answer; only the opposite
                        # verdict contradicts the known answer
                        wrong = any(g not in (w, "inconclusive") for g, w in zip(got, want))
                        (bad if wrong else undecided).append(
                            f"{cell} gave {got}, expected {want}")
                    cells.append((cell, *got, report.compact.rule, report.sup_estimate.sup,
                                  tuple(report.component_sups)))
        return PassResult(attempted=len(cells), fingerprint=tuple(cells), failures=bad,
                          flagged=bad + undecided)


WORKLOADS = {w.name: w for w in (LemmasD3(), OracleD2(), SweepD2())}
