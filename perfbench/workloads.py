"""The four workloads: inputs generated from a seed, run in-process or as CLI processes.

A workload is a list of invocations of the ``edcsim`` command line.  The
benchmark runs each invocation two ways that must agree byte for byte:

* in-process, through ``cli.main`` with standard output captured; every
  ``cli.simulate_row`` call is timed and its configuration and row kept;
* as a fresh ``python -m edcsim`` process.

edcsim only ever receives the generated flags.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from edcsim import analytic, benchdsl, cli, experiment, kernels, measurement

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHES = ("closed", "edc_bench", "edc_conceptual", "open", "wheeler_delayed")
CHILD_TIMEOUT_S = 150

MODULES = {
    "analytic": analytic,
    "benchdsl": benchdsl,
    "cli": cli,
    "experiment": experiment,
    "kernels": kernels,
    "measurement": measurement,
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("EDCSIM_SEED", None)  # every invocation passes --seed
    return env


def max_workers() -> int:
    """Worker count for threaded passes: 2, but never above the core count."""
    return max(1, min(2, os.cpu_count() or 1))


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    fmt: str  # csv | json | text (validate)

    @property
    def emits_rows(self) -> bool:
        return self.fmt != "text"

    def args(self, workers: int | None) -> list[str]:
        """The flags, with ``--workers`` added where the subcommand takes it."""
        extra = ["--workers", str(workers)] if workers is not None and self.emits_rows else []
        return [*self.argv, *extra]


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    headline_workers: int
    in_process: bool  # False: the timed window runs fresh CLI processes
    row_tail_pct: float  # fixed so every run reports the same percentile
    pair_stride: int  # every n-th row is also timed at 1 and 2 workers back to back


def _bench_path(name: str) -> str:
    return f"src/edcsim/benches/{name}.bench"


# ---------------------------------------------------------------------------
# Inputs.  Each workload draws every value from random.Random(seed); the
# size of the work (rows, samples, photons) never depends on the seed.
# ---------------------------------------------------------------------------

FINE_ROWS = 40
FINE_SAMPLES = 100_000
FINE_PHOTONS = 1_000

DEEP_POINTS = 3
DEEP_PHOTONS = 20_000_000

COLD_PHOTONS = 10_000


def _phase_sweep(rng: random.Random) -> tuple[Invocation, ...]:
    # the preset fixes the grid (5 x 100 points) and 1e5 photons a row
    return (Invocation(("sweep", "--preset", "phase", "--seed", str(rng.getrandbits(63))), "csv"),)


def _fine_delay(rng: random.Random) -> tuple[Invocation, ...]:
    base = rng.getrandbits(63)
    start, stop = rng.uniform(0.0, 0.25), rng.uniform(0.75, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    argv = ("sweep", "--bench", _bench_path("edc_bench"), "--var", "td_frac", "--start", repr(start),
            "--stop", repr(stop), "--steps", str(FINE_ROWS), "--phi", repr(phi),
            "--samples", str(FINE_SAMPLES), "--photons", str(FINE_PHOTONS),
            "--seed", str(base), "--format", "json")
    return (Invocation(argv, "json"),)


def _deep_point(rng: random.Random) -> tuple[Invocation, ...]:
    base = rng.getrandbits(63)
    mode = rng.choice(experiment.EDC_MODES)
    td = rng.uniform(0.1, 0.9)
    start = rng.uniform(0.0, math.pi)
    stop = start + rng.uniform(1.0, math.pi)
    argv = ("sweep", "--mode", mode, "--td-frac", repr(td), "--var", "phi",
            "--start", repr(start), "--stop", repr(stop), "--steps", str(DEEP_POINTS),
            "--photons", str(DEEP_PHOTONS), "--seed", str(base))
    return (Invocation(argv, "csv"),)


def _cold_cli(rng: random.Random) -> tuple[Invocation, ...]:
    invs = []
    photons = ("--photons", str(COLD_PHOTONS))

    for mode in experiment.MODES:
        phi, td, seed = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 1.0), rng.getrandbits(63)
        argv = ["run", "--mode", mode, "--phi", repr(phi)]
        argv += ["--td-frac", repr(td)] if mode in experiment.EDC_MODES else []
        argv += ["--choice", rng.choice(("insert", "omit"))] if mode == "wheeler_delayed" else []
        invs.append(Invocation((*argv, *photons, "--seed", str(seed)), "csv"))

    for name in BENCHES:
        phi, td, seed = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 1.0), rng.getrandbits(63)
        argv = ["run", "--bench", _bench_path(name), "--phi", repr(phi)]
        argv += ["--td-frac", repr(td)] if name.startswith("edc_") else []
        invs.append(Invocation((*argv, *photons, "--seed", str(seed)), "csv"))

    phi, base = rng.uniform(0.0, 2.0 * math.pi), rng.getrandbits(63)
    invs.append(Invocation(("sweep", "--preset", "delay", "--phi", repr(phi), *photons,
                            "--seed", str(base)), "csv"))
    invs.append(Invocation(("validate", *photons, "--seed", str(rng.getrandbits(63))), "text"))
    rng.shuffle(invs)
    return tuple(invs)


def make(name: str, seed: int) -> Workload:
    rng = random.Random(seed)
    w2 = max_workers()
    if name == "phase_sweep":
        return Workload(name, _phase_sweep(rng), 1, True, 99.0, 5)
    if name == "fine_delay":
        return Workload(name, _fine_delay(rng), 1, True, 95.0, 4)
    if name == "deep_point":
        return Workload(name, _deep_point(rng), w2, True, 50.0, DEEP_POINTS)
    if name == "cold_cli":
        # p95, not p99: the replayed rows take half a millisecond, and their p99
        # follows the host's scheduling jitter rather than edcsim
        return Workload(name, _cold_cli(rng), 1, False, 95.0, 2)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Running an invocation
# ---------------------------------------------------------------------------

@dataclass
class Output:
    """What one invocation produced, in-process or as a process."""

    data: bytes
    wall: float
    rows: int = 0
    photons: int = 0
    row_times: list[float] = field(default_factory=list)
    configs: list = field(default_factory=list)
    records: list[dict] = field(default_factory=list)
    stderr: str = ""

    def drop_payload(self) -> None:
        """Keep only the timings."""
        self.data, self.configs, self.records = b"", [], []


@contextlib.contextmanager
def _rows_recorded(calls: list):
    """Time every ``cli.simulate_row`` call in the block; keep its config and row."""
    original = cli.simulate_row

    def timed(cfg, workers=1):
        t0 = time.perf_counter()
        row = original(cfg, workers=workers)
        calls.append((time.perf_counter() - t0, cfg, row))
        return row

    cli.simulate_row = timed
    try:
        yield
    finally:
        cli.simulate_row = original


def run_in_process(inv: Invocation, workers: int) -> Output:
    """``cli.main`` on the invocation's flags, standard output captured."""
    buf, calls = io.StringIO(), []
    t0 = time.perf_counter()
    with _rows_recorded(calls), contextlib.redirect_stdout(buf):
        code = cli.main(inv.args(workers))
    wall = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"in-process cli.main {' '.join(inv.argv)} returned {code}")
    times, configs, records = (list(c) for c in zip(*calls)) if calls else ([], [], [])
    return Output(buf.getvalue().encode("utf-8"), wall, len(records),
                  sum(c.n_photons for c in configs), times, configs, records)


def paired_row(cfg, workers: int, first_one: bool) -> tuple[float, float, dict, dict]:
    """One row simulated at 1 worker and at ``workers``, back to back.

    Returns both wall times and both rows; alternating ``first_one``
    between calls cancels any cost of going first.
    """
    timed = {}
    for w in ((1, workers) if first_one else (workers, 1)):
        t0 = time.perf_counter()
        row = cli.simulate_row(cfg, workers=w)
        timed[w] = (time.perf_counter() - t0, row)
    (t1, row1), (t2, row2) = timed[1], timed[workers]
    return t1, t2, row1, row2


def command(inv: Invocation, workers: int | None, importtime: bool = False) -> list[str]:
    return [sys.executable, *(["-X", "importtime"] if importtime else []), "-m", "edcsim", *inv.args(workers)]


def run_process(inv: Invocation, workers: int | None, importtime: bool = False) -> Output:
    """One fresh ``python -m edcsim`` process; waits for it to end."""
    t0 = time.perf_counter()
    proc = subprocess.run(command(inv, workers, importtime), cwd=ROOT, env=child_env(),
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"edcsim {' '.join(inv.argv)} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-2000:]}")
    return Output(proc.stdout, wall, stderr=proc.stderr.decode(errors="replace"))


def digest(outputs: list[bytes], invs: tuple[Invocation, ...]) -> str:
    """SHA-256 of the emitted rows, in invocation order.

    ``validate`` output is left out: it names the kernel backend, so it is
    compared between the two paths but not against the recorded digest.
    """
    h = hashlib.sha256()
    for inv, data in zip(invs, outputs):
        if inv.emits_rows:
            h.update(hashlib.sha256(" ".join(inv.argv).encode()).digest())
            h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Per-row correctness: propagated norms against the closed forms, and the
# chi-square verdict of the sampled counts
# ---------------------------------------------------------------------------

def check_rows(out: Output) -> list[dict]:
    verdicts = []
    for cfg, row in zip(out.configs, out.records):
        norms = experiment.run(cfg).norms_array()
        expected = analytic.detector_probs(cfg.mode, cfg.phi, cfg.p_p, cfg.insert_bs2)
        max_dev = float(max(abs(a - b) for a, b in zip(norms, expected)))
        total = float(norms.sum())
        rec = measurement.DetectionRecord(
            counts={d: row[f"n{i + 1}"] for i, d in enumerate(experiment.DETECTOR_IDS)},
            n_photons=row["n_photons"],
            probs=tuple(float(p) / total for p in norms),
            seed=row["seed"],
        )
        report = measurement.chi_square_check(rec, analytic.predict(cfg.phi, cfg.p_p))
        verdicts.append({"seed": row["seed"], "max_dev": max_dev, "chi2": report.statistic,
                         "p_value": report.p_value, "passed": report.passed})
    return verdicts
