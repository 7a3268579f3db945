"""Pinned bench-parser behaviour: diagnostics golden and topology messages.

The diagnostics golden holds ``[str(d) for d in diags]`` for every file in
``tests/data/malformed/`` and for seeded mutants of the shipped and
malformed files.  Mutants holding a number outside the accepted range
(see ``_out_of_range``) are left out; ``test_benchdsl.py`` covers those.
Re-record only on purpose, with ``python tests/test_bench_golden.py``.
"""

from __future__ import annotations

import json
import random
import re
import sys
from dataclasses import replace
from decimal import Decimal, InvalidOperation
from importlib import resources
from pathlib import Path

import pytest

from edcsim.benchdsl import BenchProgram, parse, to_experiment_config, try_parse
from edcsim.errors import TopologyError

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden" / "bench_diagnostics.json"
SHIPPED = ("open", "closed", "wheeler_delayed", "edc_conceptual", "edc_bench")
N_MUTANTS = 500
SEED = 20141018
# characters a mutant may gain: punctuation, digits, letters, a comment, a
# non-ASCII letter and a non-ASCII decimal digit
_INSERTS = "{}:;=.%-># \n\t0123456789eE_xsé٣"
_NUMBER = re.compile(r"(?:-[\d.]|\d)[\d.]*(?:[eE][+-]?\d+)?")


def shipped_text(name: str) -> str:
    return (resources.files("edcsim") / "benches" / f"{name}.bench").read_text(encoding="utf-8")


def _malformed() -> dict[str, str]:
    return {f"malformed/{p.name}": p.read_text(encoding="utf-8")
            for p in sorted((DATA / "malformed").glob("*.bench"))}


def _mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("delete", "insert", "drop", "duplicate", "shuffle"))
        if op == "delete" and text:
            i = rng.randrange(len(text))
            text = text[:i] + text[i + 1:]
        elif op == "insert" or not text:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(_INSERTS) + text[i:]
        else:
            lines = text.split("\n")
            i = rng.randrange(len(lines))
            if op == "drop":
                del lines[i]
            elif op == "duplicate":
                lines.insert(i, lines[i])
            else:
                rng.shuffle(lines)
            text = "\n".join(lines)
    return text


def _mutants() -> dict[str, str]:
    sources = {f"shipped/{n}.bench": shipped_text(n) for n in SHIPPED} | _malformed()
    names = sorted(sources)
    rng = random.Random(SEED)
    out = {}
    for i in range(N_MUTANTS):
        name = rng.choice(names)
        out[f"mutant{i:03d}:{name}"] = _mutate(rng, sources[name])
    return out


def _out_of_range(text: str) -> bool:
    """True if a number-like run is longer than 400 characters or beyond 1e+-300."""
    for m in _NUMBER.finditer(text):
        if len(m.group()) > 400:
            return True
        try:
            if abs(Decimal(m.group()).adjusted()) > 300:
                return True
        except InvalidOperation:
            pass
    return False


def _cases() -> dict[str, str]:
    mutants = {k: v for k, v in _mutants().items() if not _out_of_range(v)}
    return _malformed() | mutants


def _diagnostics(text: str) -> list[str]:
    return [str(d) for d in try_parse(text)[1]]


GOLDEN_DIAGS = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
CASES = _cases()


def test_golden_covers_every_in_range_case():
    assert sorted(GOLDEN_DIAGS) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(GOLDEN_DIAGS))
def test_diagnostics_match_golden(key):
    assert _diagnostics(CASES[key]) == GOLDEN_DIAGS[key]


# ---------------------------------------------------------------------------
# Topology messages: one case per distinct TopologyError text
# ---------------------------------------------------------------------------
# A valid file cannot express some rejected layouts (every output must be
# wired and every input fed once), so those cases edit a parsed program.

def _bench(*lines: str) -> str:
    return "".join(f"{line}\n" for line in lines)


def _shipped(name: str, *, extra_detector: str | None = None, retarget: tuple[str, str] | None = None,
             drop_from: str | None = None) -> BenchProgram:
    prog = parse(shipped_text(name))
    wiring = tuple(
        replace(c, dst_port=retarget[1]) if retarget and c.src == retarget[0] else c
        for c in prog.wiring if c.src != drop_from
    )
    detectors = prog.detectors + ((extra_detector,) if extra_detector else ())
    return replace(prog, wiring=wiring, detectors=detectors)


def _edited(name: str, *pairs: str) -> BenchProgram:
    text = shipped_text(name)
    for old, new in zip(pairs[::2], pairs[1::2]):
        assert old in text, old
        text = text.replace(old, new)
    return parse(text)


_OPEN_TAIL = ("element bs1 : beam_splitter { }", "element d1 : detector { }", "element d2 : detector { }",
              "connect src.out -> bs1.in1", "connect bs1.out1 -> d1.in", "connect bs1.out2 -> d2.in")
_EXTRA_BS = ("element bs3 : beam_splitter { }", "element d5 : detector { }")

TOPOLOGY_CASES = {
    "duty": (
        lambda: parse(_bench("element src : source { period = 1 us; duty = 40%; }", *_OPEN_TAIL)),
        "experiment modes require a 50% duty source pulse",
    ),
    "norm": (
        lambda: parse(_bench("element src : source { period = 1 us; norm = 0.5; }", *_OPEN_TAIL)),
        "experiment modes require a unit-norm source",
    ),
    "dead_end": (
        lambda: _shipped("open", drop_from="ph"),
        "path from bs1.out1 ends without reaching a junction or detector; closest known mode: 'open'",
    ),
    "source_feeds_detector": (
        lambda: parse(_bench("element src : source { period = 1 us; }", "element d1 : detector { }",
                             "connect src.out -> d1.in")),
        "the source must feed the input beam splitter; closest known mode: 'open'",
    ),
    "open_three_detectors": (
        lambda: _shipped("open", extra_detector="d3"),
        "an open layout must use exactly two detectors; closest known mode: 'open'",
    ),
    "closed_same_input": (
        lambda: _shipped("closed", retarget=("ph", "in2")),
        "both arms must enter distinct inputs of the output beam splitter; closest known mode: 'closed'",
    ),
    "closed_output_to_splitter": (
        lambda: _edited("closed", "element d2 : detector { }", "\n".join(("element d2 : detector { }",) + _EXTRA_BS),
                        "connect bs2.out2 -> d2.in",
                        "connect bs2.out2 -> bs3.in1\nconnect bs3.out1 -> d2.in\nconnect bs3.out2 -> d5.in"),
        "the output beam splitter must feed two detectors; closest known mode: 'closed'",
    ),
    "closed_three_detectors": (
        lambda: _shipped("closed", extra_detector="d3"),
        "a closed layout must use exactly two detectors; closest known mode: 'closed'",
    ),
    "bench_distinct_signals": (
        lambda: _edited("edc_bench", "element eom3 : gated_router { signal = s2; }",
                        "element eom3 : gated_router { signal = s3; }\n"
                        "element s3 : signal { period = 1 us; duty = 50%; delay = 600 ns; }"),
        "the two arm routers must share one gate signal (in-phase constraint); closest known mode: 'edc_bench'",
    ),
    "bench_reflect_to_detector": (
        lambda: _edited("edc_bench", "element d4 : detector { }",
                        "element d4 : detector { }\nelement d5 : detector { }",
                        "connect eom3.reflect -> bs2.in2", "connect eom3.reflect -> d5.in"),
        "both reflected paths must meet the output beam splitter; closest known mode: 'edc_bench'",
    ),
    "bench_gated_output_splitter": (
        lambda: _edited("edc_bench", "element bs2 : beam_splitter { }", "element bs2 : beam_splitter { gate = s2; }"),
        "the bench output beam splitter takes no gate or choice; closest known mode: 'edc_bench'",
    ),
    "bench_same_input": (
        lambda: _shipped("edc_bench", retarget=("ph", "in2")),
        "reflected paths must enter distinct inputs of the output beam splitter; closest known mode: 'edc_bench'",
    ),
    "bench_output_to_splitter": (
        lambda: _edited("edc_bench", "element d4 : detector { }", "\n".join(("element d4 : detector { }",) + _EXTRA_BS),
                        "connect bs2.out2 -> d2.in",
                        "connect bs2.out2 -> bs3.in1\nconnect bs3.out1 -> d2.in\nconnect bs3.out2 -> d5.in"),
        "the output beam splitter must feed two detectors; closest known mode: 'edc_bench'",
    ),
    "bench_transmit_to_splitter": (
        lambda: _edited("edc_bench", "element d4 : detector { }", "\n".join(("element d4 : detector { }",) + _EXTRA_BS),
                        "connect eom3.transmit -> d4.in",
                        "connect eom3.transmit -> bs3.in1\nconnect bs3.out1 -> d4.in\nconnect bs3.out2 -> d5.in"),
        "each router's transmitted path must feed a detector; closest known mode: 'edc_bench'",
    ),
    "bench_five_detectors": (
        lambda: _shipped("edc_bench", extra_detector="d5"),
        "a bench layout must use exactly four detectors; closest known mode: 'edc_bench'",
    ),
    "no_known_layout": (
        lambda: _edited("open", "element d2 : detector { }", "\n".join(("element d2 : detector { }",) + _EXTRA_BS),
                        "connect bs1.out2 -> d2.in",
                        "connect bs1.out2 -> bs3.in1\nconnect bs3.out1 -> d2.in\nconnect bs3.out2 -> d5.in"),
        "wiring does not match any known layout; closest known mode: 'closed'",
    ),
    "gate_period": (
        lambda: _edited("edc_conceptual", "element s2 : signal { period = 1 us;",
                        "element s2 : signal { period = 2 us;"),
        "gate signal 's2' period 1/500000 differs from the source period",
    ),
    "gate_not_prefix": (
        lambda: _edited("edc_conceptual", "delay = 625 ns", "delay = 100 ns"),
        "gate signal 's2' must be high over a leading segment of the pulse, "
        "got high windows [('1/10000000', '1/2000000')] within the pulse",
    ),
}


@pytest.mark.parametrize("case", sorted(TOPOLOGY_CASES))
def test_topology_message(case):
    build, message = TOPOLOGY_CASES[case]
    with pytest.raises(TopologyError) as excinfo:
        to_experiment_config(build())
    assert str(excinfo.value) == message


if __name__ == "__main__":
    diags = {key: _diagnostics(text) for key, text in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(diags, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(diags)} cases ({N_MUTANTS + len(_malformed()) - len(diags)} out of range) to {GOLDEN}",
          file=sys.stderr)
