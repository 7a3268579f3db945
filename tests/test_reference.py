"""Second oracles for the counts: a pure-Python reference row, resolution invariance, the same bits on every host."""

from __future__ import annotations

import cmath
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from edcsim.cli import main, simulate_row
from edcsim.experiment import EDC_MODES, MODES, ExperimentConfig
from test_kernels import counts_reference

GOLDEN = Path(__file__).parent / "data" / "golden"
PERIODS = (1e-6, 1.234e-5, 7.3e-9, 0.37)


def reference_counts(cfg: ExperimentConfig) -> list[int]:
    """Propagate samplewise over Python complex numbers on the full period, then count photon by photon.

    Shares no code with edcsim: ``cmath.exp`` for the phase, ``math.fsum``
    for the norms, and the brute-force per-photon loop of ``counts_reference``.
    """
    n, pulse = cfg.samples_per_period, cfg.samples_per_period // 2
    dt, s = cfg.period / n, math.sqrt(0.5)
    if cfg.mode in EDC_MODES:
        cut = round(cfg.td_frac * pulse)
    else:  # the whole pulse passes without an output splitter, none of it with one
        cut = pulse if cfg.mode == "open" or cfg.insert_bs2 is False else 0
    vacuum = [0j] * n
    source = [complex(math.sqrt(1.0 / (pulse * dt)))] * pulse + vacuum[pulse:]
    arm1 = [(a + b) * s for a, b in zip(source, vacuum)]
    arm2 = [(a - b) * s for a, b in zip(source, vacuum)]
    front1, back1 = arm1[:cut] + vacuum[cut:], vacuum[:cut] + arm1[cut:]
    front2, back2 = arm2[:cut] + vacuum[cut:], vacuum[:cut] + arm2[cut:]
    ph = cmath.exp(1j * cfg.phi)
    out1 = [(ph * a - b) * s for a, b in zip(back1, back2)]
    out2 = [(ph * a + b) * s for a, b in zip(back1, back2)]
    if cfg.mode == "edc_bench":
        waves = [out1, out2, front1, front2]
    else:
        waves = [[ph * f + o for f, o in zip(front1, out1)], [f + o for f, o in zip(front2, out2)], vacuum, vacuum]
    norms = [math.fsum(x * x for z in w for x in (z.real, z.imag)) * dt for w in waves]
    total = math.fsum(norms)
    return counts_reference(list(itertools.accumulate(p / total for p in norms)), 0, cfg.n_photons, cfg.seed)


def random_configs(count: int, seed: int) -> list[ExperimentConfig]:
    rng = random.Random(seed)
    configs = []
    for i in range(count):
        mode = MODES[i % len(MODES)]
        configs.append(ExperimentConfig(
            mode=mode,
            phi=rng.uniform(-7.0, 7.0),
            td_frac=rng.choice((0.0, 0.5, 1.0, rng.random())) if mode in EDC_MODES else 0.0,
            period=rng.choice(PERIODS),
            samples_per_period=rng.choices((2, 400, 2 * rng.randint(2, 199)), weights=(1, 1, 8))[0],
            n_photons=int(10 ** rng.uniform(0.0, 4.0)),
            seed=rng.getrandbits(64),
            insert_bs2=rng.random() < 0.5 if mode == "wheeler_delayed" else None,
        ))
    return configs


CONFIGS = random_configs(300, seed=14104129)


def test_configs_cover_the_stated_ranges():
    assert {c.mode for c in CONFIGS} == set(MODES)
    assert {c.period for c in CONFIGS} == set(PERIODS)
    assert {2, 400} <= {c.samples_per_period for c in CONFIGS}
    assert {True, False} <= {c.insert_bs2 for c in CONFIGS}


def test_simulate_row_counts_equal_the_reference():
    for cfg in CONFIGS:
        row = simulate_row(cfg)
        assert [row["n1"], row["n2"], row["n3"], row["n4"]] == reference_counts(cfg), cfg


def _stdout(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_delay_sweep_is_independent_of_the_resolution(capsys):
    # every delay-preset td_frac is a multiple of 1/20, so it lies on each of these grids
    outs = {samples: _stdout(capsys, "sweep", "--preset", "delay", "--phi", "0.7", "--photons", "20000",
                             "--samples", str(samples))
            for samples in (40, 1000, 10_000)}
    assert len(set(outs.values())) == 1


@pytest.mark.parametrize("preset, digest", [
    ("phase", "679c1f11a6df819297ff8b278798924e5fefe1a808137a66792568bc93333476"),
    ("delay", "36959e2cae81eca87c7f62cf0466e2cfa10c95291fabe9b8293e6e9283321fbb"),
])
def test_seed_42_preset_digests(preset, digest, capsys):
    out = _stdout(capsys, "sweep", "--preset", preset, "--seed", "42")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Prints the norm bits (or the failed check) of 50 fixed configurations, one at
# 1e6 samples with a non-round period, then the validate report and two golden runs.
HOST_CHILD = """
from edcsim.cli import main
from edcsim.errors import ScientificCheckError
from edcsim.experiment import EDC_MODES, MODES, ExperimentConfig, run

def bits(cfg):
    try:
        return run(cfg).norms_array().tobytes().hex()
    except ScientificCheckError as exc:
        return repr(exc)

for i in range(49):
    mode = MODES[i % 5]
    cfg = ExperimentConfig(mode=mode, phi=0.37 * i - 9.0, td_frac=(7 * i % 11) / 10 if mode in EDC_MODES else 0.0,
                           period=(1e-6, 1.234e-5, 7.3e-9, 0.37)[i % 4],
                           samples_per_period=(2, 10, 1000, 4098, 100_000, 262_144, 1_000_000)[i % 7],
                           insert_bs2=i % 2 == 0 if mode == "wheeler_delayed" else None)
    print(bits(cfg))
print(bits(ExperimentConfig(mode="closed", period=1.234e-5, samples_per_period=1_000_000)))
for argv in ("validate", "run --mode closed --phi 2.2 --photons 3000 --seed 6",
             "run --mode edc_bench --phi 2.5 --td-frac 0.35 --photons 3000 --seed 10"):
    assert main(argv.split()) == 0
"""

HOST_ENVS = {
    "default": {},
    "openblas_prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "numpy_baseline_simd": {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"},
}


def test_same_bits_under_other_blas_kernels_and_simd_levels():
    procs = {name: subprocess.Popen([sys.executable, "-c", HOST_CHILD], env={**os.environ, **extra},
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for name, extra in HOST_ENVS.items()}
    try:
        results = {name: proc.communicate(timeout=120) for name, proc in procs.items()}
    finally:
        for proc in procs.values():
            proc.kill()  # only a child still running after a timeout
            proc.wait()
    for name, proc in procs.items():
        assert proc.returncode == 0, (name, results[name][1])
    outs = {name: out for name, (out, _) in results.items()}
    assert len(set(outs.values())) == 1, {name: hashlib.sha256(o.encode()).hexdigest() for name, o in outs.items()}
    out = outs["default"]
    lines = out.splitlines()
    assert all(len(line) == 64 for line in lines[:50])  # the hex bits of four float64 norms: no check failed
    assert "all checks passed" in lines
    assert out.endswith((GOLDEN / "run_closed.csv").read_text() + (GOLDEN / "run_edc_bench.csv").read_text())
