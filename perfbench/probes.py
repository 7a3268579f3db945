"""Measurements taken beside the workloads: start-up, imports, kernels, bench parsing.

Start-up and import times come from fresh interpreters, so they do not
depend on what the benchmark process has already imported.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import numpy as np

from workloads import BENCHES, ROOT, SRC, _bench_path, child_env, max_workers

# The four cumulative-probability vectors of benchmarks/kernel_benchmark.py.
KERNEL_VECTORS = {
    "uniform_4way": (0.25, 0.5, 0.75, 1.0),
    "bench_td_0.3": (0.2346, 0.8346, 0.9173, 1.0),
    "two_detector": (0.25, 1.0, 1.0, 1.0),
    "single_port": (0.0, 1.0, 1.0, 1.0),
}
KERNEL_PHOTONS = 2_000_000
PARTITION_PHOTONS = 4_000_000
REPEATS = 3
PARTITION_REPEATS = 6


def _python(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"python {' '.join(args)} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-2000:]}")
    return wall, proc


def setup_time() -> float:
    """Wall time of a fresh interpreter until ``import edcsim.cli`` returns."""
    return _python(["-c", "import edcsim.cli"])[0]


def _import_tree(stderr: str) -> list[tuple[str, float, list]]:
    """Parse ``-X importtime`` output into (module, cumulative s, children) roots.

    Children are printed before their parent, indented two spaces a level.
    """
    stack: list[tuple[int, tuple]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _self, cumulative, name_field = line.split("|")
        raw = name_field[1:]
        depth = (len(raw) - len(raw.lstrip(" "))) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.append(stack.pop()[1])
        stack.append((depth, (raw.strip(), int(cumulative) / 1e6, children[::-1])))
    return [node for _, node in stack]


def _outermost(nodes, match) -> float:
    total = 0.0
    for name, cumulative, children in nodes:
        total += cumulative if match(name) else _outermost(children, match)
    return total


def import_breakdown(stderr: str) -> dict[str, float]:
    """Seconds spent importing each package, counted at its outermost import."""
    roots = _import_tree(stderr)
    within = lambda pkg: (lambda n: n == pkg or n.startswith(pkg + "."))
    return {
        "total": sum(c for _, c, _ in roots),
        "edcsim": _outermost(roots, within("edcsim")),
        "scipy": _outermost(roots, within("scipy")),
        "numpy": _outermost(roots, within("numpy")),
        "benchdsl": _outermost(roots, within("edcsim.benchdsl")),
    }


def import_profile(repeats: int = REPEATS) -> dict[str, float]:
    """Median ``-X importtime`` breakdown of ``import edcsim.cli``, and bare interpreter start."""
    runs = [import_breakdown(_python(["-X", "importtime", "-c", "import edcsim.cli"])[1].stderr.decode())
            for _ in range(repeats)]
    out = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    out["interp"] = statistics.median(_python(["-c", "pass"])[0] for _ in range(repeats))
    return out


def kernel_rates(seed: int) -> tuple[dict[str, float], list[str]]:
    """Median M photons/s of the active kernel on each vector; equal counts on every backend."""
    from edcsim import kernels

    rates, mismatches = {}, []
    for label, cum in KERNEL_VECTORS.items():
        cum = np.array(cum)
        counts = {}
        for backend, module in kernels.available_backends().items():
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                counts[backend] = module.sample_counts(cum, 0, KERNEL_PHOTONS, seed)
                times.append(time.perf_counter() - t0)
            if backend == kernels.BACKEND:
                rates[label] = KERNEL_PHOTONS / statistics.median(times) / 1e6
        first = next(iter(counts.values()))
        if not all(np.array_equal(first, c) for c in counts.values()):
            mismatches.append(f"{label}: {({k: v.tolist() for k, v in counts.items()})}")
    return rates, mismatches


def partition_overhead(seed: int) -> tuple[float, bool]:
    """Threaded ``sample_clicks`` wall time minus its slower kernel half timed alone (s).

    Also returns whether the halves' counts add up to the threaded counts.
    """
    from edcsim import experiment, kernels, measurement

    workers = max_workers()
    cfg = experiment.ExperimentConfig(mode="edc_bench", phi=1.234, td_frac=0.3,
                                      n_photons=PARTITION_PHOTONS, seed=seed)
    result = experiment.run(cfg)
    norms = result.norms_array()
    cum = np.cumsum(norms / float(norms.sum()))
    cum[-1] = 1.0
    bounds = [PARTITION_PHOTONS * k // workers for k in range(workers + 1)]
    def threaded():
        t0 = time.perf_counter()
        rec = measurement.sample_clicks(result, workers=workers)
        return time.perf_counter() - t0, rec.counts_array()

    def halves():
        times, total = [], np.zeros(4, dtype=np.int64)
        for lo, hi in zip(bounds, bounds[1:]):
            t0 = time.perf_counter()
            total += kernels.sample_counts(cum, lo, hi, seed)
            times.append(time.perf_counter() - t0)
        return max(times), total

    overheads, consistent = [], True
    for k in range(PARTITION_REPEATS):
        # which one runs first alternates, so neither gains from going second
        if k % 2 == 0:
            (t_threaded, counts), (t_half, total) = threaded(), halves()
        else:
            (t_half, total), (t_threaded, counts) = halves(), threaded()
        overheads.append(t_threaded - t_half)
        consistent &= total.tolist() == counts.tolist()
    return statistics.median(overheads), consistent


def bench_parse(repeats: int = 5) -> tuple[float, float]:
    """Median µs per canonical ``.bench`` file for ``parse`` and ``to_experiment_config``."""
    from edcsim import benchdsl

    parse_us, config_us = [], []
    for name in BENCHES:
        with open(ROOT / _bench_path(name), "r", encoding="utf-8") as fh:
            text = fh.read()
        p, c = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            prog = benchdsl.parse(text)
            t1 = time.perf_counter()
            benchdsl.to_experiment_config(prog)
            t2 = time.perf_counter()
            p.append(t1 - t0)
            c.append(t2 - t1)
        parse_us.append(statistics.median(p) * 1e6)
        config_us.append(statistics.median(c) * 1e6)
    return statistics.fmean(parse_us), statistics.fmean(config_us)


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _source_lines() -> dict[str, int]:
    """Hand-written lines under src/edcsim by file suffix; the generated C file is left out."""
    lines: dict[str, int] = {}
    for path in sorted((SRC / "edcsim").rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts or path.name == "_sampler.c":
            continue
        if path.suffix in (".so", ".pyc"):
            continue
        with open(path, "rb") as fh:
            lines[path.suffix or path.name] = lines.get(path.suffix or path.name, 0) + fh.read().count(b"\n")
    return lines


def _dependencies() -> dict[str, list[str]]:
    try:
        import tomllib
    except ImportError:  # Python 3.10
        return {}
    try:
        with open(ROOT / "pyproject.toml", "rb") as fh:
            data = tomllib.load(fh)
    except FileNotFoundError:
        return {}
    return {
        "runtime": list(data.get("project", {}).get("dependencies", [])),
        "build": list(data.get("build-system", {}).get("requires", [])),
    }


def context() -> dict:
    """Environment and code-size facts recorded beside the metrics, never gated on."""
    from edcsim import kernels

    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "kernel_backend": kernels.BACKEND,
        "kernel_backends": sorted(kernels.available_backends()),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "src_lines": _source_lines(),
        "dependencies": _dependencies(),
    }
