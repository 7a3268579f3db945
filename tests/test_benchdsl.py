"""Bench-language parsing, validation, formatting, topology recognition."""

from __future__ import annotations

import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from edcsim.benchdsl import (
    BenchParseError,
    Codes,
    _lex,
    format_bench,
    parse,
    to_experiment_config,
    try_parse,
)
from edcsim.cli import main
from edcsim.errors import ConfigurationError, TopologyError

MALFORMED_DIR = Path(__file__).parent / "data" / "malformed"
SHIPPED = ("open", "closed", "wheeler_delayed", "edc_conceptual", "edc_bench")

EXPECTED_CODES = {
    "unknown_kind.bench": Codes.UNKNOWN_KIND,
    "bad_token.bench": Codes.LEX,
    "dangling_port.bench": Codes.DANGLING_PORT,
    "duplicate_name.bench": Codes.DUP_NAME,
    "cycle.bench": Codes.CYCLE,
    "signal_range.bench": Codes.SIGNAL_RANGE,
    "double_feed.bench": Codes.DUP_CONNECTION,
    "no_source.bench": Codes.NO_SOURCE,
    "empty.bench": Codes.NO_SOURCE,
    "missing_semicolon.bench": Codes.SYNTAX,
    "undeclared_signal.bench": Codes.UNDECLARED_SIGNAL,
    "bad_unit.bench": Codes.PARAM,
    "unconnected.bench": Codes.UNCONNECTED,
    "sweep_range.bench": Codes.SWEEP,
    "multi_source.bench": Codes.MULTI_SOURCE,
}


def shipped_text(name: str) -> str:
    return (resources.files("edcsim") / "benches" / f"{name}.bench").read_text(encoding="utf-8")


class TestShippedFiles:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_parse_and_mode(self, name):
        prog = parse(shipped_text(name))
        cfg = to_experiment_config(prog)
        assert cfg.mode == name

    @pytest.mark.parametrize("name", SHIPPED)
    def test_roundtrip_identity(self, name):
        prog = parse(shipped_text(name))
        assert parse(format_bench(prog)) == prog

    @pytest.mark.parametrize("name", SHIPPED)
    def test_format_idempotent(self, name):
        prog = parse(shipped_text(name))
        once = format_bench(prog)
        assert format_bench(parse(once)) == once

    def test_bench_file_timing(self):
        prog = parse(shipped_text("edc_bench"))
        cfg = to_experiment_config(prog)
        assert cfg.td_frac == pytest.approx(0.2, abs=1e-15)
        assert cfg.period == pytest.approx(1e-6)
        assert len(prog.detectors) == 4
        # the two routers share one gate signal
        signals = {el.params["signal"] for el in prog.elements if el.kind == "gated_router"}
        assert signals == {"s2"}

    def test_conceptual_file_timing(self):
        cfg = to_experiment_config(parse(shipped_text("edc_conceptual")))
        assert cfg.td_frac == pytest.approx(0.25, abs=1e-15)

    def test_wheeler_choice_propagates(self):
        cfg = to_experiment_config(parse(shipped_text("wheeler_delayed")))
        assert cfg.insert_bs2 is True


class TestMalformedCorpus:
    @pytest.mark.parametrize("name", sorted(EXPECTED_CODES))
    def test_positioned_error_diagnostic(self, name):
        text = (MALFORMED_DIR / name).read_text(encoding="utf-8")
        prog, diags = try_parse(text)
        assert prog is None
        errors = [d for d in diags if d.severity == "error"]
        assert errors, f"{name}: no error diagnostics"
        n_lines = max(1, len(text.splitlines()))
        for d in errors:
            assert 1 <= d.line <= n_lines
            assert d.column >= 1
            line = text.splitlines()[d.line - 1] if text.splitlines() else ""
            assert d.column <= max(1, len(line) + 1)
        assert EXPECTED_CODES[name] in {d.code for d in errors}, \
            f"{name}: got {[d.code for d in errors]}"

    def test_parse_raises_with_diagnostics(self):
        with pytest.raises(BenchParseError) as excinfo:
            parse("element x : prism { }")
        assert any(d.code == Codes.UNKNOWN_KIND for d in excinfo.value.diagnostics)

    def test_empty_input_position(self):
        prog, diags = try_parse("")
        assert prog is None
        assert diags[0].line == 1 and diags[0].column == 1
        assert "no source" in diags[0].message


class TestParsing:
    def test_determinism(self):
        text = shipped_text("edc_bench")
        assert parse(text) == parse(text)
        _, d1 = try_parse("element x :")
        _, d2 = try_parse("element x :")
        assert [str(d) for d in d1] == [str(d) for d in d2]

    def test_unit_arithmetic_is_exact(self):
        prog = parse(
            "element src : source { rate = 1 MHz; duty = 50%; }\n"
            "element d1 : detector { }\n"
            "connect src.out -> d1.in\n"
        )
        assert prog.source.period == Fraction(1, 10**6)
        assert prog.source.duty == Fraction(1, 2)

    def test_newline_agnostic(self):
        text = shipped_text("closed").replace("\n", "\r\n")
        assert parse(text) == parse(shipped_text("closed"))

    def test_comments_ignored(self):
        text = "# top\nelement src : source { period = 1 us; } # tail\nelement d1 : detector { }\nconnect src.out -> d1.in\n"
        prog = parse(text)
        assert prog.source.name == "src"

    def test_unused_signal_warns(self):
        text = (
            "element src : source { period = 1 us; }\n"
            "element s9 : signal { period = 1 us; }\n"
            "element d1 : detector { }\n"
            "connect src.out -> d1.in\n"
        )
        prog, diags = try_parse(text)
        assert prog is not None
        assert any(d.code == Codes.UNUSED_SIGNAL and d.severity == "warning" for d in diags)


class TestTopologyInference:
    def test_minimal_open(self):
        text = (
            "element src : source { period = 1 us; }\n"
            "element bs1 : beam_splitter { }\n"
            "element d1 : detector { }\n"
            "element d2 : detector { }\n"
            "connect src.out -> bs1.in1\n"
            "connect bs1.out1 -> d1.in\n"
            "connect bs1.out2 -> d2.in\n"
        )
        assert to_experiment_config(parse(text)).mode == "open"

    def test_phase_difference_of_both_arms(self):
        text = (
            "element src : source { period = 1 us; }\n"
            "element bs1 : beam_splitter { }\n"
            "element pa : phase_shifter { phi = 0.75; }\n"
            "element pb : phase_shifter { phi = 0.25; }\n"
            "element bs2 : beam_splitter { }\n"
            "element d1 : detector { }\n"
            "element d2 : detector { }\n"
            "connect src.out -> bs1.in1\n"
            "connect bs1.out1 -> pa.in\n"
            "connect pa.out -> bs2.in1\n"
            "connect bs1.out2 -> pb.in\n"
            "connect pb.out -> bs2.in2\n"
            "connect bs2.out1 -> d1.in\n"
            "connect bs2.out2 -> d2.in\n"
        )
        cfg = to_experiment_config(parse(text))
        assert cfg.mode == "closed"
        assert cfg.phi == pytest.approx(0.5, abs=1e-15)

    def test_crossed_arms_flip_phase_sign(self):
        # the arm entering in2 carries the shifter, so the relative phase negates
        text = (
            "element src : source { period = 1 us; }\n"
            "element bs1 : beam_splitter { }\n"
            "element pa : phase_shifter { phi = 0.75; }\n"
            "element bs2 : beam_splitter { }\n"
            "element d1 : detector { }\n"
            "element d2 : detector { }\n"
            "connect src.out -> bs1.in1\n"
            "connect bs1.out1 -> pa.in\n"
            "connect pa.out -> bs2.in2\n"
            "connect bs1.out2 -> bs2.in1\n"
            "connect bs2.out1 -> d1.in\n"
            "connect bs2.out2 -> d2.in\n"
        )
        cfg = to_experiment_config(parse(text))
        assert cfg.phi == pytest.approx(-0.75, abs=1e-15)

    def test_three_detector_layout_rejected_with_closest(self):
        text = (
            "element src : source { period = 1 us; }\n"
            "element bs1 : beam_splitter { }\n"
            "element eom2 : gated_router { signal = s2; }\n"
            "element s2 : signal { period = 1 us; delay = 600 ns; }\n"
            "element d1 : detector { }\n"
            "element d2 : detector { }\n"
            "element d3 : detector { }\n"
            "connect src.out -> bs1.in1\n"
            "connect bs1.out1 -> eom2.in\n"
            "connect bs1.out2 -> d2.in\n"
            "connect eom2.transmit -> d3.in\n"
            "connect eom2.reflect -> d1.in\n"
        )
        with pytest.raises(TopologyError) as excinfo:
            to_experiment_config(parse(text))
        assert "closest known mode" in str(excinfo.value)

    def test_distinct_router_signals_rejected(self):
        text = shipped_text("edc_bench").replace(
            "element eom3 : gated_router { signal = s2; }",
            "element eom3 : gated_router { signal = s3; }",
        ).replace(
            "element s2 : signal { period = 1 us; duty = 50%; delay = 600 ns; }",
            "element s2 : signal { period = 1 us; duty = 50%; delay = 600 ns; }\n"
            "element s3 : signal { period = 1 us; duty = 50%; delay = 600 ns; }",
        )
        with pytest.raises(TopologyError) as excinfo:
            to_experiment_config(parse(text))
        assert "share one gate signal" in str(excinfo.value)

    def test_overrides_beat_file_values(self):
        prog = parse(shipped_text("edc_bench"))
        cfg = to_experiment_config(prog, phi=1.5, td_frac=0.6, n_photons=777, seed=9)
        assert cfg.phi == 1.5 and cfg.td_frac == 0.6
        assert cfg.n_photons == 777 and cfg.seed == 9

    def test_mid_pulse_gate_not_a_prefix_rejected(self):
        # gate rises inside the pulse and stays high past it: not a front/back cut
        text = shipped_text("edc_conceptual").replace("delay = 625 ns", "delay = 100 ns")
        with pytest.raises(TopologyError):
            to_experiment_config(parse(text))

    def test_td_override_out_of_range_rejected(self):
        prog = parse(shipped_text("edc_bench"))
        with pytest.raises(ConfigurationError):
            to_experiment_config(prog, td_frac=1.5)


class TestNumberRange:
    """Numbers beyond 400 characters or a decimal exponent of +-300 are E_PARAM errors."""

    @pytest.mark.parametrize("name, old, number", [
        ("closed", "phi = 0.0", "1e400"),
        ("closed", "period = 1 us", "1e400"),
        ("edc_conceptual", "stop = 6.283185307179586", "1e400"),
        ("closed", "period = 1 us", "1e1000000000"),
        ("closed", "phi = 0.0", "7" * 10**6),
        ("closed", "phi = 0.0", "1e-301"),
        ("closed", "phi = 0.0", "1" * 401),
        ("closed", "phi = 0.0", "1e99999999999999999999"),
        ("closed", "phi = 0.0", "-0.5e-99999999999999999999"),
    ], ids=["phi", "period", "sweep_stop", "huge_exponent", "million_digits", "tiny", "401_chars",
            "exponent_beyond_decimal", "negative_exponent_beyond_decimal"])
    def test_out_of_range_exits_2_with_one_diagnostic(self, name, old, number, capsys, tmp_path):
        key = old.split(" = ")[0]
        unit = " us" if key == "period" else ""
        text = shipped_text(name).replace(old, f"{key} = {number}{unit}")
        path = tmp_path / "range.bench"
        path.write_text(text, encoding="utf-8")
        line_no = text[:text.index(number)].count("\n") + 1
        col = text.index(number) - text.rfind("\n", 0, text.index(number))
        start = time.perf_counter()
        code = main(["run", "--bench", str(path), "--photons", "100"])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2 and elapsed < 2.0
        assert "Traceback" not in err
        assert err == f"{path}:{line_no}:{col}: error [{Codes.PARAM}] number out of range: at most 400 characters " \
                      "and a decimal exponent from -300 to 300\n"

    @pytest.mark.parametrize("number", ["1e300", "9.99e300", "-1e300", "1e-300", "0", "0.000", "0." + "1" * 398],
                             ids=["1e300", "9.99e300", "-1e300", "1e-300", "0", "0.000", "400_chars"])
    def test_in_range_numbers_parse(self, number):
        prog = parse(shipped_text("closed").replace("phi = 0.0", f"phi = {number}"))
        assert prog.elements[1].params["phi"] == float(Fraction(number))

    def test_extreme_periods_stay_finite(self):
        for period, seconds in (("1e300 s", 1e300), ("1e-300 ps", 1e-312), ("1e-300 Hz", 1e300)):
            key = "rate" if period.endswith("Hz") else "period"
            prog = parse(shipped_text("closed").replace("period = 1 us", f"{key} = {period}"))
            assert float(prog.source.period) == pytest.approx(seconds)


class TestLexer:
    def test_non_ascii_letters_and_decimal_digits(self):
        # letters start names, Unicode decimal digits are numbers
        prog = parse(shipped_text("closed").replace("bs1", "bsé").replace("period = 1 us", "period = ٣ us"))
        assert prog.elements[0].name == "bsé"
        assert prog.source.period == Fraction(3, 10**6)

    @pytest.mark.parametrize("char", ["²", "½", "Ⅷ"])  # superscript two, one half, roman eight
    def test_non_decimal_numerals_lex_as_names(self, char):
        tokens = _lex(f"x = {char}; y = 1{char};", [])
        assert [t.type for t in tokens] == ["IDENT", "=", "IDENT", ";", "IDENT", "=", "NUMBER", "IDENT", ";", "EOF"]
        text = shipped_text("closed").replace("phi = 0.0", f"phi = {char}")
        _, diags = try_parse(text)
        line = text[:text.index(char)].count("\n") + 1
        assert [str(d) for d in diags] == [f"{line}:30: error [{Codes.PARAM}] expected a plain number"]  # at "phi"

    def test_dot_is_punctuation(self):
        assert [t.type for t in _lex(".5 -.5", [])] == [".", "NUMBER", "NUMBER", "EOF"]

    def test_eof_column_ignores_a_trailing_comment(self):
        for text, position in (("element # note", (1, 9)), ("ab\n\r\tcd", (2, 5)), ("", (1, 1))):
            eof = _lex(text, [])[-1]
            assert (eof.line, eof.col) == position


class TestDeepGraphs:
    def test_long_mirror_cycle_names_the_closing_edge(self):
        n = 3000
        text = (
            shipped_text("open")
            + "".join(f"element m{i} : mirror {{ }}\n" for i in range(n))
            + "".join(f"connect m{i}.out -> m{(i + 1) % n}.in\n" for i in range(n))
        )
        prog, diags = try_parse(text)
        assert prog is None
        closing = text.splitlines().index(f"connect m{n - 1}.out -> m0.in") + 1
        assert [(d.line, d.column, d.code) for d in diags] == [(closing, 1, Codes.CYCLE)]
