"""Command-line interface.

Three subcommands::

    edcsim run   --mode edc_conceptual --phi 0 --td-frac 0.5 --photons 100000
    edcsim run   --bench benches/edc_bench.bench --td-frac 0.3 --format json
    edcsim sweep --preset phase --out fringe.csv
    edcsim sweep --preset delay --out linearity.csv
    edcsim sweep --var td_frac --start 0 --stop 1 --steps 21 --mode edc_bench
    edcsim validate --format json

``run`` and ``sweep`` emit one CSV/JSON row per operating point carrying
both the analytic detector probabilities and the sampled counts with
their derived ratios.  Exit codes: 0 success, 1 a scientific check failed
(conservation or propagation/oracle mismatch), 2 invalid invocation or
input.  The default seed is 42, overridable with ``--seed`` or the
``EDCSIM_SEED`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import analytic, kernels
from .benchdsl import BenchParseError, SweepRange, parse, to_experiment_config
from .errors import ConfigurationError, InputError, OracleMismatchError, ScientificCheckError
from .experiment import EDC_MODES, MODES, ExperimentConfig, _arm, check_seed, run
from .measurement import chi_square_check, estimators, sample_clicks
from .optics import beam_split, recombine_bs2
from .wavecore import SubWave, TimeGrid, inner_product, norm, split_at_time

CSV_COLUMNS = [
    "mode", "phi", "td_frac", "p_p_analytic", "p1_analytic", "p2_analytic",
    "n1", "n2", "n3", "n4", "n_photons",
    "r_w_pair", "r_w_total", "r_p", "p_w_hat", "p_p_hat", "seed",
]


def _sweep_values(start: float, stop: float, steps: int) -> list[float]:
    """Endpoint-inclusive grid; the k/(steps-1) scaling keeps round values exact."""
    return [start + (stop - start) * (k / (steps - 1)) for k in range(steps)]


# ---------------------------------------------------------------------------
# Row synthesis
# ---------------------------------------------------------------------------

def simulate_row(cfg: ExperimentConfig, workers: int = 1) -> dict:
    """Propagate, cross-check against the closed forms, sample, estimate."""
    result = run(cfg)
    expected = analytic.detector_probs(cfg.mode, cfg.phi, cfg.p_p, cfg.insert_bs2)
    norms = result.norms_array()
    mismatch = float(np.max(np.abs(norms - expected)))
    if not mismatch <= 1e-9:  # NaN fails too
        raise OracleMismatchError(
            f"propagated norms {norms.tolist()} disagree with closed forms "
            f"{expected.tolist()} by {mismatch:.3e}"
        )
    rec = sample_clicks(result, workers=workers)
    est = estimators(rec)
    return {
        "mode": cfg.mode,
        "phi": cfg.phi,
        "td_frac": cfg.td_frac,
        "p_p_analytic": cfg.p_p,
        "p1_analytic": float(expected[0]),
        "p2_analytic": float(expected[1]),
        "n1": rec.counts["D1"],
        "n2": rec.counts["D2"],
        "n3": rec.counts["D3"],
        "n4": rec.counts["D4"],
        "n_photons": rec.n_photons,
        "r_w_pair": est.r_w_pair.value,
        "r_w_total": est.r_w_total.value,
        "r_p": est.r_p.value,
        "p_w_hat": est.p_w_hat.value,
        "p_p_hat": est.p_p_hat.value,
        "seed": rec.seed,
    }


def _render_cell(value) -> str:
    if value is None:
        return ""  # undefined estimator: flagged empty, never 0
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_render_cell(row[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[dict]) -> str:
    return json.dumps({"columns": CSV_COLUMNS, "rows": rows}, indent=2) + "\n"


def _emit_rows(args, configs: list[ExperimentConfig]) -> int:
    """Simulate every row, then write them all as one CSV or JSON document."""
    rows = [simulate_row(cfg, workers=args.workers) for cfg in configs]
    _emit(rows_to_csv(rows) if args.format == "csv" else rows_to_json(rows), args.out)
    return 0


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Configuration from flags
# ---------------------------------------------------------------------------

def _seed(args) -> int:
    """``--seed``, else ``$EDCSIM_SEED``, else 42; checked against the 64-bit seed space."""
    if args.seed is not None:
        seed = args.seed
    else:
        raw = os.environ.get("EDCSIM_SEED", "42")
        try:
            seed = int(raw)
        except ValueError:
            raise ConfigurationError(f"EDCSIM_SEED must be an integer, got {raw!r}") from None
    check_seed(seed)
    return seed


def _load_bench(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse(text)


def _config_from_args(args, mode=None, phi=None, td_frac=None, seed=None) -> ExperimentConfig:
    """Config for one operating point; ``mode`` and the keywords override the flags."""
    phi = args.phi if phi is None else phi
    td = args.td_frac if td_frac is None else td_frac
    seed = _seed(args) if seed is None else seed
    if args.bench:
        if args.period is not None:
            raise ConfigurationError("--period comes from the bench file; drop the flag")
        if args.choice is not None:
            raise ConfigurationError("--choice comes from the bench file; drop the flag")
        return to_experiment_config(args._bench_program, phi=phi, td_frac=td, n_photons=args.photons,
                                    seed=seed, samples_per_period=args.samples)
    mode = args.mode if mode is None else mode
    if mode is None:
        raise ConfigurationError("either --mode or --bench is required")
    insert = None
    if mode == "wheeler_delayed":
        if args.choice is None:
            raise ConfigurationError("wheeler_delayed requires --choice insert|omit")
        insert = args.choice == "insert"
    elif args.choice is not None:
        raise ConfigurationError("--choice only applies to wheeler_delayed")
    given = {"phi": phi, "td_frac": td, "period": args.period, "samples_per_period": args.samples}
    return ExperimentConfig(mode=mode, n_photons=args.photons, seed=seed, insert_bs2=insert,
                            **{k: v for k, v in given.items() if v is not None})  # else the defaults


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    return _emit_rows(args, [_config_from_args(args)])


def _sweep_points(args) -> list[ExperimentConfig]:
    """Every row's config, built once with its seed ``(base + i) mod 2**64``, from (mode, fixed, range) sources."""
    base_seed = _seed(args)
    if args.preset is not None:
        flags = {"--mode": args.mode, "--bench": args.bench, "--var": args.var, "--start": args.start,
                 "--stop": args.stop, "--steps": args.steps, "--td-frac": args.td_frac}
        if args.preset == "phase":
            flags["--phi"] = args.phi
        given = [flag for flag, value in flags.items() if value is not None]
        if given:
            raise ConfigurationError(f"--preset {args.preset} takes no {', '.join(given)}")

    if args.preset == "phase":
        sources = [("edc_conceptual", {"td_frac": p_p}, SweepRange("phi", 0.0, 2.0 * np.pi, 100))
                   for p_p in (0.0, 0.25, 0.5, 0.75, 1.0)]
    elif args.preset == "delay":
        sources = [("edc_bench", {}, SweepRange("td_frac", 0.0, 1.0, 21))]
    elif args.var is not None:
        if args.start is None or args.stop is None or args.steps is None:
            raise ConfigurationError("--var needs --start, --stop and --steps")
        if args.steps < 2 or not args.start < args.stop:
            raise ConfigurationError("sweep needs steps >= 2 and start < stop")
        sources = [(None, {}, SweepRange(args.var, args.start, args.stop, args.steps))]
    elif args.bench:
        if not args._bench_program.sweeps:
            raise ConfigurationError("bench file declares no sweeps; pass --var or --preset")
        sources = [(None, {}, sw) for sw in args._bench_program.sweeps]
    else:
        raise ConfigurationError("sweep needs --preset, --var or a bench file with sweeps")

    configs: list[ExperimentConfig] = []
    for mode, fixed, sweep in sources:
        for v in _sweep_values(sweep.start, sweep.stop, sweep.steps):
            seed = (base_seed + len(configs)) % 2**64
            configs.append(_config_from_args(args, mode, seed=seed, **{**fixed, sweep.variable: float(v)}))
    return configs


def cmd_sweep(args) -> int:
    return _emit_rows(args, _sweep_points(args))


# ---------------------------------------------------------------------------
# Validation suite
# ---------------------------------------------------------------------------

def _worst(worst: float, dev: float) -> float:
    """Running maximum that keeps a NaN, which ``max`` drops because NaN compares false."""
    return float(np.maximum(worst, dev))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_config(rng: np.random.Generator, photons: int) -> ExperimentConfig:
    mode = MODES[int(rng.integers(len(MODES)))]
    phi = float(rng.uniform(0.0, 2.0 * np.pi))
    td = 0.0
    if mode in EDC_MODES:
        td = int(rng.integers(0, 501)) / 500  # aligned to the default grid
    insert = bool(rng.integers(2)) if mode == "wheeler_delayed" else None
    return ExperimentConfig(mode=mode, phi=phi, td_frac=td, n_photons=photons,
                            seed=int(rng.integers(2**63)), insert_bs2=insert)


def run_validation_suite(seed: int = 42, n_photons: int = 100_000) -> list[CheckResult]:
    """Oracle-agreement and statistical self-checks; all must pass on a healthy build."""
    sampled = ExperimentConfig(mode="edc_bench", phi=1.234, td_frac=0.3, n_photons=n_photons, seed=seed)
    pred = analytic.predict(sampled.phi, sampled.p_p)
    need = int(np.ceil(5.0 / min(pred.bench_norms)))  # a chi-square verdict needs 5 expected clicks a detector
    if n_photons < need:
        raise ConfigurationError(f"validate needs at least {need} photons for a chi-square verdict, got {n_photons}")
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    # propagation vs closed forms, and total-probability conservation
    worst_oracle = 0.0
    worst_total = 0.0
    for _ in range(60):
        cfg = _random_config(rng, photons=1)
        norms = run(cfg).norms_array()
        worst_total = _worst(worst_total, abs(float(norms.sum()) - 1.0))
        expected = analytic.detector_probs(cfg.mode, cfg.phi, cfg.p_p, cfg.insert_bs2)
        worst_oracle = _worst(worst_oracle, float(np.max(np.abs(norms - expected))))
    checks.append(CheckResult("oracle_agreement", worst_oracle <= 1e-12,
                              f"max |propagated - closed form| = {worst_oracle:.3e}"))
    checks.append(CheckResult("conservation", worst_total <= 1e-12,
                              f"max |sum(norms) - 1| = {worst_total:.3e}"))

    # mid-pulse split: an arm's front/back norms complement to 1/2, supports disjoint
    worst_half = 0.0
    worst_ortho = 0.0
    for _ in range(50):
        td_samples = int(rng.integers(0, 501))
        cfg = ExperimentConfig(mode="edc_conceptual", phi=float(rng.uniform(0, 2 * np.pi)),
                               td_frac=td_samples / 500, n_photons=1, seed=0)
        front, back = split_at_time(SubWave(cfg.grid(), _arm(cfg)), cfg.td_samples)
        worst_half = _worst(worst_half, abs(norm(front) + norm(back) - 0.5))
        worst_ortho = _worst(worst_ortho, abs(inner_product(front, back)))
    checks.append(CheckResult("split_complement", worst_half <= 1e-12,
                              f"max |P_p + P_w - 1/2| = {worst_half:.3e}"))
    checks.append(CheckResult("split_orthogonality", worst_ortho == 0.0,
                              f"max |<front|back>| = {worst_ortho:.3e}"))

    # unitarity of the two splitter transforms on random inputs
    grid = TimeGrid(256, 1e-9)
    worst_unitary = 0.0
    for _ in range(200):
        a = SubWave(grid, rng.normal(size=256) + 1j * rng.normal(size=256))
        b = SubWave(grid, rng.normal(size=256) + 1j * rng.normal(size=256))
        total_in = norm(a) + norm(b)
        for o1, o2 in (beam_split(a, b), recombine_bs2(a, b, float(rng.uniform(0, 2 * np.pi)))):
            worst_unitary = _worst(worst_unitary, abs((norm(o1) + norm(o2)) / total_in - 1.0))
    checks.append(CheckResult("unitarity", worst_unitary <= 1e-12,
                              f"max relative norm change = {worst_unitary:.3e}"))

    # sampling determinism: the counts are the sum over any split of the photon range
    result = run(sampled)
    ref = sample_clicks(result)
    cum = np.cumsum(ref.probs)
    cum[-1] = 1.0

    def split_counts(parts: int) -> np.ndarray:
        edges = [n_photons * k // parts for k in range(parts + 1)]
        return sum(kernels.sample_counts(cum, lo, hi, seed) for lo, hi in zip(edges, edges[1:]))

    same = all(np.array_equal(split_counts(parts), ref.counts_array()) for parts in (1, 2, 7))
    checks.append(CheckResult("determinism", same, f"counts {dict(ref.counts)} equal over 1, 2 and 7 photon ranges"))

    # chi-square self-consistency of the sampler against its own probabilities
    fails = 0
    trials = 20
    for k in range(trials):
        rec = sample_clicks(result, seed=seed + 1000 + k)
        report = chi_square_check(rec, pred)
        if report.passed is not True:
            fails += 1
    checks.append(CheckResult("mc_selfconsistency", fails <= 1,
                              f"{trials - fails}/{trials} seeds pass chi-square at 0.001"))

    # complementary count ratios are exactly complementary
    est = estimators(ref)
    exact = est.p_w_hat.value + est.p_p_hat.value == 1.0
    checks.append(CheckResult("estimator_complement", exact,
                              f"p_w_hat + p_p_hat = {est.p_w_hat.value + est.p_p_hat.value!r}"))

    return checks


def cmd_validate(args) -> int:
    checks = run_validation_suite(seed=_seed(args), n_photons=args.photons)
    all_passed = all(c.passed for c in checks)
    if args.format == "json":
        payload = {
            "passed": all_passed,
            "backend": kernels.BACKEND,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [f"kernel backend: {kernels.BACKEND}"]
        for c in checks:
            lines.append(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: {c.detail}")
        lines.append("all checks passed" if all_passed else "VALIDATION FAILED")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--bench", metavar="FILE", help="bench description file (.bench)")
    sub.add_argument("--mode", choices=MODES, help="experiment mode (alternative to --bench)")
    sub.add_argument("--phi", type=float, default=None, help="interferometer phase in radians")
    sub.add_argument("--td-frac", type=float, default=None, dest="td_frac",
                     help="insertion delay as a fraction of the pulse length")
    sub.add_argument("--choice", choices=("insert", "omit"), default=None,
                     help="wheeler_delayed only: insert or omit the output splitter")
    sub.add_argument("--photons", type=int, default=100_000, help="photons per operating point")
    sub.add_argument("--seed", type=int, default=None, help="master seed (default 42 or $EDCSIM_SEED)")
    sub.add_argument("--period", type=float, default=None, help="signal period in seconds (default 1e-6)")
    sub.add_argument("--samples", type=int, default=None, help="samples per period (default 1000)")
    sub.add_argument("--workers", type=int, default=1,
                     help="sampling worker threads, capped at the CPU and photon counts "
                          "(never changes results)")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edcsim", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)

    p_run = commands.add_parser("run", help="run a single operating point")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = commands.add_parser("sweep", help="sweep phi or td_frac and emit one row per point")
    _add_common(p_sweep)
    p_sweep.add_argument("--preset", choices=("phase", "delay"), default=None,
                         help="phase: phi over [0, 2pi] at five passed fractions; "
                              "delay: td_frac over [0, 1] at --phi (default 0)")
    p_sweep.add_argument("--var", choices=("phi", "td_frac"), default=None, help="sweep variable")
    p_sweep.add_argument("--start", type=float, default=None)
    p_sweep.add_argument("--stop", type=float, default=None)
    p_sweep.add_argument("--steps", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = commands.add_parser("validate", help="run the oracle-agreement and statistics suite")
    p_val.add_argument("--photons", type=int, default=100_000)
    p_val.add_argument("--seed", type=int, default=None)
    p_val.add_argument("--out", default=None)
    p_val.add_argument("--format", choices=("text", "json"), default="text")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "bench", None):
            args._bench_program = _load_bench(args.bench)
        return args.func(args)
    except BenchParseError as exc:
        name = getattr(args, "bench", None) or "<bench>"
        for diag in exc.diagnostics:
            print(f"{name}:{diag}", file=sys.stderr)
        return 2
    except (InputError, OSError, MemoryError) as exc:
        print(f"edcsim: error: {exc}", file=sys.stderr)
        return 2
    except ScientificCheckError as exc:
        print(f"edcsim: scientific check failed: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
