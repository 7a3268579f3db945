#!/usr/bin/env python3
"""edcsim benchmark: four workloads, end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload phase_sweep --seed 42 --seconds 20 --trace 0

Runs from the root of a source checkout; edcsim is imported from ``src``
and no install step is needed.  Workloads (see workloads.py):

* ``phase_sweep`` - ``sweep --preset phase``, 500 rows at 1e5 photons:
  sampling-bound;
* ``fine_delay`` - a ``td_frac`` sweep of ``edc_bench.bench`` at 1e5
  samples per period and 1e3 photons a row, JSON out: propagation-bound;
* ``cold_cli`` - twelve fresh ``python -m edcsim`` processes at small
  photon counts: import-bound;
* ``deep_point`` - three points at 2e7 photons, threaded sampling.

In-process workloads run rounds of a fresh process, rows timed at 1 and 2
workers (never more than the core count) and a pass through ``cli.main``
until ``--seconds`` have passed.  Every output is checked:
byte-identical across repeats, worker counts and a fresh ``python -m
edcsim`` process, equal to the recorded digest for the default seed,
propagated norms within 1e-9 of the closed forms on every row.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace
1`` the per-layer ones from a separate run that alternates traced and
untraced passes.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Exit status is 0 when
every check passed, 1 when one failed, 2 when the program cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 42
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
REPLAY_SHARE = 0.25  # of --seconds, for cold_cli's in-process replay


class Ledger:
    """Counts operations and failures; a failure never stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, what: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # report and keep measuring the rest
            self.failed += 1
            self.problems.append(f"{what}: {exc!r}")
            traceback.print_exc()
            return None

    def expect(self, what: str, ok: bool) -> None:
        """One check of an output; a check is an attempt of its own."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks; 100 is the maximum."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_pct(n: int) -> float:
    """Highest percentile that leaves at least ten samples beyond it; else the maximum."""
    return next((p for p in TAIL_LADDER if n * (1 - p / 100.0) >= 10), 100.0)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Bench:
    def __init__(self, args, wl, ledger, tracer):
        self.args = args
        self.wl = wl
        self.ledger = ledger
        self.tracer = tracer
        self.ref: list[bytes] = []
        self.ref_rows: list[list[dict]] = []
        self.ref_configs: list[list] = []
        self.digest: str | None = None
        self.verdicts: list[dict] = []
        self.lines: list[str] = []

    # -- passes ------------------------------------------------------------

    def traced(self, run: str | None):
        """Spans under run id ``run`` for the block; no wrappers when ``run`` is None."""
        import workloads

        return self.tracer.installed(workloads.MODULES, run) if run else contextlib.nullcontext()

    def in_process_pass(self, workers: int, rows_only: bool = False, run: str | None = None):
        """Every invocation once in-process; returns the outputs, or None on failure."""
        import workloads

        outs = []
        for i, inv in enumerate(self.wl.invocations):
            if rows_only and not inv.emits_rows:
                continue
            what = f"in-process {' '.join(inv.argv[:3])} workers={workers}"
            with self.traced(run):
                out = self.ledger.op(what, workloads.run_in_process, inv, workers)
            if out is None:
                return None
            if self.ref:
                self.ledger.expect(f"{what}: output differs from the first pass", out.data == self.ref[i])
                out.drop_payload()  # a growing heap would lengthen garbage-collector pauses
            outs.append(out)
        return outs

    def reference(self) -> bool:
        """First in-process pass: keeps its bytes as the reference and checks every row."""
        import workloads

        outs = self.in_process_pass(1)
        if outs is None:
            return False
        self.ref = [o.data for o in outs]
        self.ref_rows = [o.records for o in outs]
        self.ref_configs = [o.configs for o in outs]
        self.digest = workloads.digest(self.ref, self.wl.invocations)
        recorded = json.loads((HERE / "digests.json").read_text()).get(self.wl.name)
        if self.args.seed == DEFAULT_SEED and recorded is not None:
            self.ledger.expect(f"digest {self.digest} differs from the recorded {recorded}",
                               self.digest == recorded)
            self.lines.append(f"digest {self.digest} (recorded for seed {DEFAULT_SEED}: "
                              f"{'match' if self.digest == recorded else 'MISMATCH'})")
        else:
            self.lines.append(f"digest {self.digest}")
        for inv, out in zip(self.wl.invocations, outs):
            if not inv.emits_rows:
                self.ledger.expect(f"{inv.argv[0]} did not pass", out.data.rstrip().endswith(b"all checks passed"))
                continue
            with self.traced("check" if self.args.trace else None):
                verdicts = self.ledger.op("row checks", workloads.check_rows, out)
            for v in verdicts or ():
                self.ledger.expect(f"row seed {v['seed']}: oracle deviation {v['max_dev']:.3e}",
                                   v["max_dev"] <= 1e-9)
            self.verdicts += verdicts or []
        return True

    def processes(self, workers, importtime: bool = False, run: str | None = None):
        """Every invocation once as a fresh ``python -m edcsim`` process."""
        import probes
        import workloads

        outs = []
        for i, inv in enumerate(self.wl.invocations):
            what = f"python -m edcsim {' '.join(inv.argv[:3])}"
            start = time.perf_counter()
            out = self.ledger.op(what, workloads.run_process, inv, workers, importtime)
            if out is None:
                continue
            self.ledger.expect(f"{what}: output differs from the in-process run", out.data == self.ref[i])
            out.rows = len(self.ref_rows[i])
            out.photons = sum(row["n_photons"] for row in self.ref_rows[i])
            if run:
                self.tracer.run = run
                sid = self.tracer.add("cli.process", start, start + out.wall, argv=" ".join(inv.argv[:3]))
                imp = probes.import_breakdown(out.stderr)["total"]
                self.tracer.add("import.process", start, start + imp, sid)
            outs.append(out)
        return outs

    def paired(self, k: int) -> list[tuple[float, float]] | None:
        """Rows ``k, k + stride, ...`` (mod stride) of every invocation at 1 and at 2 workers.

        Each pair runs back to back, so its ratio is free of the drift in
        machine speed that separates whole passes.
        """
        import workloads

        w2 = workloads.max_workers()
        stride = self.wl.pair_stride
        pairs = []
        for inv, configs, ref_rows in zip(self.wl.invocations, self.ref_configs, self.ref_rows):
            for j in range(k % stride, len(configs), stride):
                what = f"paired row {j} of {' '.join(inv.argv[:3])}"
                got = self.ledger.op(what, workloads.paired_row, configs[j], w2, len(pairs) % 2 == 0)
                if got is None:
                    return None
                t1, t2, row1, row2 = got
                self.ledger.expect(f"{what}: rows differ across worker counts",
                                   row1 == row2 == ref_rows[j])
                pairs.append((t1, t2))
        return pairs

    def rounds(self, seconds: float, steps: list) -> list[list]:
        """Repeat ``steps`` (callables taking the round number) until ``seconds`` pass.

        A round does not start when it would end more than half a round
        past the deadline.  Rounds where a step failed are left out.
        """
        done = []
        deadline = time.perf_counter() + seconds
        k, last = 0, 0.0
        while k == 0 or time.perf_counter() + last / 2 < deadline:
            t0 = time.perf_counter()
            found = [step(k) for step in steps]
            last = time.perf_counter() - t0
            if all(f is not None for f in found):
                done.append(found)
            k += 1
        return done

    # -- end-to-end --------------------------------------------------------

    def end_to_end(self, seconds: float) -> dict:
        import probes
        import workloads

        wl = self.wl
        setup = [self.ledger.op("setup probe", probes.setup_time) for _ in range(probes.REPEATS)]
        setup = [t for t in setup if t is not None]
        if not self.reference():
            return {}
        w2 = workloads.max_workers()
        m = {"setup_s": statistics.median(setup) if setup else None}
        head_w = wl.headline_workers
        steps = [lambda k: self.in_process_pass(head_w, rows_only=True), self.paired]
        if wl.in_process:
            # A fresh process every round, so the process metrics span the window
            # too.  It runs before the paired rows, whose medians do not mind the
            # few rows it slows down; the headline pass comes last.
            rounds = self.rounds(seconds, [lambda k: self.processes(head_w), *steps[::-1]])
            rounds = [(headline, pairs, procs) for procs, pairs, headline in rounds]
            proc_outs = [o for r in rounds for o in r[2]]
            m["rows_per_s"] = statistics.median(_rate(r[0], "rows") for r in rounds)
            m["Mphotons_per_s"] = statistics.median(_rate(r[0], "photons") for r in rounds) / 1e6
        else:
            # one pass: a second one would change which percentile cli_tail_s is
            proc_outs = self.processes(None)
            rounds = self.rounds(seconds * REPLAY_SHARE, steps)
            m["rows_per_s"] = _rate(proc_outs, "rows")
            m["Mphotons_per_s"] = _rate(proc_outs, "photons") / 1e6
        rows = [t for r in rounds for o in r[0] for t in o.row_times]
        pct = wl.row_tail_pct
        m["row_p50_ms"] = statistics.median(rows) * 1e3
        m["row_tail_ms"] = percentile(rows, pct) * 1e3
        self.lines.append(f"row_tail_ms is p{pct:g} of {len(rows)} rows "
                          f"({len(rows) * (1 - pct / 100):.0f} beyond it)")
        pairs = [p for r in rounds for p in r[1]]
        m["scaling_eff"] = statistics.median(t1 / (2 * t2) for t1, t2 in pairs)
        self.lines.append(f"scaling_eff is the median over {len(pairs)} rows timed at 1 and {w2} workers")
        walls = [o.wall for o in proc_outs]
        cpct = tail_pct(len(walls))
        m["cli_p50_s"] = statistics.median(walls)
        m["cli_tail_s"] = percentile(walls, cpct)
        self.lines.append(f"cli_tail_s is p{cpct:g} of {len(walls)} processes")
        m["peak_rss_mb"] = peak_rss_mb()
        return m

    # -- per-layer ---------------------------------------------------------

    def per_layer(self, seconds: float, seed: int) -> dict:
        import probes
        import workloads
        from tracing import layer_self_times, self_times, span_cost

        wl = self.wl
        if not self.reference():
            return {}
        w2 = workloads.max_workers()
        head = wl.headline_workers
        self.in_process_pass(w2 if head == 1 else 1, rows_only=True)  # worker-count check

        def pair(k):
            """(untraced, traced) passes; which one runs first alternates by round."""
            runs = (None, f"pass{k}") if k % 2 == 0 else (f"pass{k}", None)
            outs = {run: self.in_process_pass(head, rows_only=True, run=run) for run in runs}
            return None if None in outs.values() else (outs[None], outs[f"pass{k}"])

        if wl.in_process:
            rounds = self.rounds(seconds, [pair])
            self.processes(head)
        else:
            self.processes(None, importtime=True, run="proc")
            rounds = self.rounds(seconds * REPLAY_SHARE, [pair])
        n_traced = len(rounds)
        untraced = [_wall(r[0][0]) for r in rounds]
        diffs = [_wall(r[0][1]) - u for r, u in zip(rounds, untraced)]

        m = {}
        imports = self.ledger.op("import profile", probes.import_profile)
        if imports:
            m["import.edcsim_ms"] = imports["edcsim"] * 1e3
            m["import.scipy_ms"] = imports["scipy"] * 1e3
            m["import.numpy_ms"] = imports["numpy"] * 1e3
            m["import.benchdsl_ms"] = imports["benchdsl"] * 1e3
            m["process.interp_s"] = imports["interp"]
        kernel = self.ledger.op("kernel vectors", probes.kernel_rates, seed)
        if kernel:
            rates, mismatches = kernel
            self.ledger.expect(f"kernel backends disagree: {mismatches}", not mismatches)
            for label, rate in rates.items():
                m[f"kernels.Mphotons_per_s.{label}"] = rate
        part = self.ledger.op("partition overhead", probes.partition_overhead, seed)
        if part:
            self.ledger.expect("threaded counts differ from the sum of the halves", part[1])
            m["measurement.partition_overhead_ms"] = part[0] * 1e3
        parsed = self.ledger.op("bench parse", probes.bench_parse)
        if parsed:
            m["benchdsl.parse_us"], m["benchdsl.to_config_us"] = parsed

        spans = [s for s in self.tracer.spans if s.run.startswith("pass")]
        per_span = self.ledger.op("span cost", span_cost)
        overhead = None if per_span is None else per_span * len(spans) / n_traced
        selfs = self_times(spans)
        by_id = {s.id: s for s in spans}
        named = lambda *names: [s for s in spans if s.name in names]
        us = lambda ss: sum(s.duration for s in ss) / len(ss) * 1e6
        runs = named("experiment.run")
        rows = named("cli.simulate_row")
        emits = named("cli.rows_to_csv", "cli.rows_to_json")
        probs = [s for s in named("analytic.detector_probs")
                 if s.parent is None or by_id[s.parent].name != "analytic.detector_probs"]
        m["kernels.photons"] = sum(s.attrs["photons"] for s in named("kernels.sample_counts")) / n_traced
        m["measurement.sample_us_per_row"] = us(named("measurement.sample_clicks"))
        m["experiment.run_us_per_row"] = us(runs)
        m["experiment.ns_per_sample"] = (sum(s.duration for s in runs)
                                         / sum(s.attrs["samples"] for s in runs) * 1e9)
        m["experiment.calls"] = len(runs) / n_traced
        m["benchdsl.calls"] = len(named("benchdsl.parse", "benchdsl.to_experiment_config")) / n_traced
        m["analytic.detector_probs_us"] = us(probs)
        m["measurement.estimators_us"] = us(named("measurement.estimators"))
        m["cli.emit_us_per_row"] = (sum(s.duration for s in emits)
                                    / sum(s.attrs["rows"] for s in emits) * 1e6)
        m["cli.row_self_us"] = sum(selfs[s.id] for s in rows) / len(rows) * 1e6
        checks = [s for s in self.tracer.spans if s.run == "check"]
        m["measurement.chi_square_us"] = us([s for s in checks if s.name == "measurement.chi_square_check"])
        m["analytic.max_dev"] = max(v["max_dev"] for v in self.verdicts)
        m["measurement.chi2_pass_frac"] = (sum(v["passed"] is True for v in self.verdicts)
                                           / len(self.verdicts))
        m["trace.overhead_ms"] = None if overhead is None else overhead * 1e3

        # Self time per layer over one run: the import, then every traced pass.
        table = [s for s in self.tracer.spans if s.run == "import" or s.run.startswith(("pass", "proc"))]
        totals = layer_self_times(table)
        grand = sum(totals.values())
        self.lines.append(f"self time per layer over the traced run ({n_traced} traced passes):")
        for layer, t in sorted(totals.items(), key=lambda kv: -kv[1]):
            self.lines.append(f"  {layer:<12} {t:9.3f} s  {100 * t / grand:5.1f}%")
        if overhead is not None:
            self.lines.append(f"tracing overhead: {overhead * 1e3:.3f} ms a pass ({len(spans) / n_traced:.0f} spans "
                              f"x {per_span * 1e6:.2f} us), {100 * overhead / statistics.median(untraced):.2f}% "
                              f"of an untraced pass of {statistics.median(untraced):.4f} s")
        # Traced minus untraced wall time: a cross-check, resolved only when it
        # stands clear of the pass-to-pass noise.
        measured = statistics.median(diffs)
        noise = (percentile(diffs, 75) - percentile(diffs, 25)) / math.sqrt(len(diffs))
        verdict = "resolved" if measured > noise else "unresolved: within the pass-to-pass noise"
        self.lines.append(f"traced minus untraced pass: {measured * 1e3:.2f} ms, median of {n_traced} pairs in "
                          f"alternating order, noise {noise * 1e3:.2f} ms ({verdict})")
        return m


def _wall(outs) -> float:
    return sum(o.wall for o in outs)


def _rate(outs, what: str) -> float:
    """Rows or photons per second over a list of outputs."""
    return sum(getattr(o, what) for o in outs) / _wall(outs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("phase_sweep", "fine_delay", "cold_cli", "deep_point"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "edcsim" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no edcsim source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)  # the invocations name .bench files relative to the checkout

    from tracing import Tracer

    tracer = Tracer()
    t0 = time.perf_counter()
    try:
        import edcsim.cli  # noqa: F401  (timed: the import layer of the traced run)
        import probes
        import workloads
    except Exception:
        traceback.print_exc()
        print("perfbench: edcsim does not import", file=sys.stderr)
        return 2
    tracer.run = "import"
    tracer.add("import.edcsim", t0, time.perf_counter())

    seed = args.seed % 2**64
    ledger = Ledger()
    bench = Bench(args, workloads.make(args.workload, seed), ledger, tracer)
    ctx = probes.context()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("context " + json.dumps(ctx, sort_keys=True))

    if args.trace:
        values = ledger.op("traced run", bench.per_layer, args.seconds, seed) or {}
        wanted = spec["per_layer"]
    else:
        values = ledger.op("timed run", bench.end_to_end, args.seconds) or {}
        wanted = spec["end_to_end"]

    passed = [v["passed"] for v in bench.verdicts]
    if passed:
        bench.lines.append(
            f"rows checked: {len(passed)}; max |propagated - closed form| = "
            f"{max(v['max_dev'] for v in bench.verdicts):.3e}; chi-square at 0.001: "
            f"{passed.count(True)} pass, {passed.count(False)} fail, {passed.count(None)} abstain")
    for line in bench.lines:
        print(line)
    metrics = {}
    for item in wanted:
        value = values.get(item["name"])
        if value is None or not math.isfinite(value):
            ledger.expect(f"metric {item['name']} was not measured", False)
            value = None
        metrics[item["name"]] = {"value": value, "unit": item["unit"]}
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{item['name']} = {shown} {item['unit']}")
    print(f"error_rate = {ledger.failed}/{ledger.attempted} failed/attempted")
    for problem in ledger.problems:
        print(f"FAILED: {problem}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "digest": bench.digest, "context": ctx, "metrics": metrics,
                   "attempted": ledger.attempted, "failed": ledger.failed,
                   "problems": ledger.problems, "rows": bench.verdicts}, fh, indent=1)
    if args.trace:
        tracer.dump(f"{stem}.spans.jsonl")

    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
