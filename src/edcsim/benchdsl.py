r"""Parser, validator and formatter for ``.bench`` optical-bench files.

A bench file declares a pulsed source, optical elements, gate signals and
detectors, wires them into a directed graph, and optionally declares
parameter sweeps.  Grammar (EBNF):

    program   = { statement } EOF
    statement = element | connect | sweep
    element   = "element" NAME ":" KIND "{" { param } "}"
    connect   = "connect" NAME "." PORT "->" NAME "." PORT
    sweep     = "sweep" ( "phi" | "td_frac" ) "{" { param } "}"
    param     = NAME "=" value ";"
    value     = NUMBER [ UNIT | "%" ] | NAME
    comment   = "#" ... end-of-line

    NAME   = [^\W\d]\w*                           (Python ``re``, Unicode)
    NUMBER = (?:-[\d.]|\d)[\d.]*(?:[eE][+-]?\d+)?
    KIND   = "source" | "beam_splitter" | "phase_shifter" | "mirror"
           | "gated_router" | "detector" | "signal"
    UNIT   = "s" | "ms" | "us" | "ns" | "ps"          (durations)
           | "Hz" | "kHz" | "MHz" | "GHz"             (rates)

PORT is a NAME.  A NUMBER has at most 400 characters, and the power of ten
of its leading digit (``Decimal.adjusted()``) lies in [-300, 300]: nonzero
magnitudes run from 1e-300 to just below 1e301.  Any other NUMBER is an
``E_PARAM`` error at its position.

Durations and duty cycles are kept as exact rationals (seconds) until they
are bound to a sample grid, so unit conversions introduce no round-off.
Signals are square gates: high over ``[delay, delay + duty*period)``
within each period.  Both routers of a bench layout must reference one
shared signal, which is how the in-phase constraint between the two arm
gates is expressed.

Ports per kind: source ``out``; beam_splitter ``in1 in2 out1 out2``;
phase_shifter and mirror ``in out``; gated_router ``in transmit reflect``;
detector ``in``.

Parsing is deterministic and never consults the environment; invalid
input yields diagnostics with 1-based line/column positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import NamedTuple

from .errors import ConfigurationError, TopologyError
from .experiment import ExperimentConfig
from .optics import ELEMENT_PORTS, ElementSpec

__all__ = [
    "BenchParseError",
    "BenchProgram",
    "Connection",
    "ParseDiagnostic",
    "SignalSpec",
    "SourceSpec",
    "SweepRange",
    "format_bench",
    "parse",
    "to_experiment_config",
    "try_parse",
]

KINDS = ("source", "beam_splitter", "phase_shifter", "mirror", "gated_router", "detector", "signal")
SWEEP_VARS = ("phi", "td_frac")

# source/detector/signal port shapes; optical kinds come from optics.ELEMENT_PORTS
_PORTS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "source": ((), ("out",)),
    "detector": (("in",), ()),
    "signal": ((), ()),
    **ELEMENT_PORTS,
}

_TIME_UNITS = {
    "s": Fraction(1),
    "ms": Fraction(1, 10**3),
    "us": Fraction(1, 10**6),
    "ns": Fraction(1, 10**9),
    "ps": Fraction(1, 10**12),
}
_RATE_UNITS = {
    "Hz": Fraction(1),
    "kHz": Fraction(10**3),
    "MHz": Fraction(10**6),
    "GHz": Fraction(10**9),
}
# NUMBER range: checked before exact conversion, so every value scaled by a
# unit stays a finite float and converting it stays cheap
_MAX_NUMBER_CHARS = 400
_MAX_EXPONENT = 300


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

class Codes:
    """Diagnostic codes, one per distinct failure class."""

    LEX = "E_LEX"
    SYNTAX = "E_SYNTAX"
    UNKNOWN_KIND = "E_UNKNOWN_KIND"
    PARAM = "E_PARAM"
    DUP_NAME = "E_DUP_NAME"
    DANGLING_PORT = "E_DANGLING_PORT"
    DUP_CONNECTION = "E_DUP_CONNECTION"
    UNCONNECTED = "E_UNCONNECTED"
    CYCLE = "E_CYCLE"
    NO_SOURCE = "E_NO_SOURCE"
    MULTI_SOURCE = "E_MULTI_SOURCE"
    NO_DETECTOR = "E_NO_DETECTOR"
    UNDECLARED_SIGNAL = "E_UNDECLARED_SIGNAL"
    SIGNAL_RANGE = "E_SIGNAL_RANGE"
    SWEEP = "E_SWEEP"
    UNUSED_SIGNAL = "W_UNUSED_SIGNAL"


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str  # "error" | "warning"
    line: int
    column: int
    message: str
    code: str

    def __str__(self):
        return f"{self.line}:{self.column}: {self.severity} [{self.code}] {self.message}"


class BenchParseError(ValueError):
    """Raised by :func:`parse` when a bench file has error diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        errors = [d for d in self.diagnostics if d.severity == "error"]
        head = "; ".join(str(d) for d in errors[:3])
        more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
        super().__init__(f"invalid bench program: {head}{more}")


# ---------------------------------------------------------------------------
# Program representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SourceSpec:
    """Pulsed photon source: period, duty cycle, initial norm."""

    name: str
    period: Fraction
    duty: Fraction = Fraction(1, 2)
    norm: float = 1.0
    samples: int | None = None

    @property
    def pulse_length(self) -> Fraction:
        return self.period * self.duty


@dataclass(frozen=True)
class SignalSpec:
    """Named square gate: high over [delay, delay + duty*period) mod period."""

    name: str
    period: Fraction
    duty: Fraction = Fraction(1, 2)
    delay: Fraction = Fraction(0)

    def high_windows(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """High intervals folded into one period, sorted."""
        length = self.period * self.duty
        end = self.delay + length
        if end <= self.period:
            return ((self.delay, end),)
        return ((Fraction(0), end - self.period), (self.delay, self.period))


@dataclass(frozen=True)
class Connection:
    src: str
    src_port: str
    dst: str
    dst_port: str


@dataclass(frozen=True)
class SweepRange:
    variable: str
    start: float
    stop: float
    steps: int


@dataclass(frozen=True)
class BenchProgram:
    """Validated bench description."""

    source: SourceSpec
    elements: tuple[ElementSpec, ...]
    signals: tuple[SignalSpec, ...]
    detectors: tuple[str, ...]
    wiring: tuple[Connection, ...]
    sweeps: tuple[SweepRange, ...] = ()

    def signal(self, name: str) -> SignalSpec:
        for sig in self.signals:
            if sig.name == name:
                return sig
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

class _Token(NamedTuple):
    type: str  # IDENT NUMBER { } : ; = . -> % EOF
    text: str
    line: int
    col: int


_NUMBER_PATTERN = r"(?:-[\d.]|\d)[\d.]*(?:[eE](?P<exponent>[+-]?\d+))?"
_NUMBER_RE = re.compile(_NUMBER_PATTERN)

# alternatives are tried in order: "." is punctuation, never a number start
_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in (
    ("WS", r"[ \t\r]+"),
    ("IDENT", r"[^\W\d]\w*"),
    ("PUNCT", r"[{}:;=.%]"),
    ("NL", r"\n"),
    ("ARROW", r"->"),
    ("NUMBER", _NUMBER_PATTERN),
    ("COMMENT", r"#[^\n]*"),
    ("LEX", r"."),
)))


def _lex(text: str, diags: list) -> list[_Token]:
    tokens: list[_Token] = []
    line_no, line_start, end = 1, 0, 0
    for m in _TOKEN_RE.finditer(text):
        kind, value, col = m.lastgroup, m.group(), m.start() - line_start + 1
        end = m.start() if kind == "COMMENT" else m.end()  # a comment never advances the column
        if kind in ("IDENT", "NUMBER"):
            tokens.append(_Token(kind, value, line_no, col))
        elif kind in ("PUNCT", "ARROW"):
            tokens.append(_Token(value, value, line_no, col))
        elif kind == "NL":
            line_no, line_start = line_no + 1, m.end()
        elif kind == "LEX":
            diags.append(ParseDiagnostic("error", line_no, col, f"unexpected character {value!r}", Codes.LEX))
    tokens.append(_Token("EOF", "", line_no, end - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser and semantic analysis
# ---------------------------------------------------------------------------

class _Decl(NamedTuple):
    name: str
    kind: str
    params: dict
    token: _Token
    param_tokens: dict


class _Value(NamedTuple):
    type: str  # "number" | "percent" | "time" | "name"
    payload: object


class _Abandon(Exception):
    """A syntax error was recorded; skip to the next statement."""


_PARAM_SCHEMAS: dict[str, dict[str, str]] = {
    "source": {"period": "time", "rate": "time", "duty": "fraction", "norm": "float", "samples": "int"},
    "signal": {"period": "time", "rate": "time", "duty": "fraction", "delay": "time"},
    "phase_shifter": {"phi": "float"},
    "gated_router": {"signal": "name"},
    "beam_splitter": {"gate": "name", "choice": "name"},
    "mirror": {},
    "detector": {},
}
_SWEEP_SCHEMA = {"start": "float", "stop": "float", "steps": "int"}
_TARGETS = {  # parameter type: (accepted value types, diagnostic for any other value)
    "time": (("time",), "expected a duration (e.g. '1 us') or rate (e.g. '1 MHz')"),
    "fraction": (("percent", "number"), "expected a percentage or plain fraction"),
    "float": (("number",), "expected a plain number"),
    "int": (("number",), "expected an integer"),
    "name": (("name",), "expected a name"),
}


class _Parser:
    """Tokens to statements, then type-check parameters, wire the graph, run the checks."""

    def __init__(self, text: str):
        self.diags: list[ParseDiagnostic] = []
        self.tokens = _lex(text, self.diags)
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.type != "EOF":
            self.pos += 1
        return tok

    def _error(self, tok: _Token, message: str, code: str = Codes.SYNTAX):
        self.diags.append(ParseDiagnostic("error", tok.line, tok.col, message, code))

    def _warn(self, tok: _Token, message: str, code: str):
        self.diags.append(ParseDiagnostic("warning", tok.line, tok.col, message, code))

    def _abandon(self, tok: _Token, message: str, code: str = Codes.SYNTAX):
        self._error(tok, message, code)
        raise _Abandon

    def _expect(self, type_: str, what: str) -> _Token:
        tok = self._peek()
        if tok.type != type_:
            self._abandon(tok, f"expected {what}, found {tok.text or 'end of input'!r}")
        return self._next()

    def _recover(self):
        """Skip to the next statement keyword at the start of a line."""
        while True:
            tok = self._peek()
            if tok.type == "EOF":
                return
            if tok.type == "IDENT" and tok.text in ("element", "connect", "sweep") and tok.col == 1:
                return
            self._next()

    # -- grammar ------------------------------------------------------------

    def parse_program(self) -> tuple[BenchProgram | None, list[ParseDiagnostic]]:
        decls: list[_Decl] = []
        connects: list[tuple[Connection, _Token]] = []
        sweeps: list[tuple[str, tuple[dict, dict], _Token]] = []
        statements = {"element": (self._parse_element, decls), "connect": (self._parse_connect, connects),
                      "sweep": (self._parse_sweep, sweeps)}
        while (tok := self._peek()).type != "EOF":
            try:
                if tok.type != "IDENT" or tok.text not in statements:
                    self._abandon(tok, f"expected 'element', 'connect' or 'sweep', found {tok.text!r}")
                parse_statement, found = statements[tok.text]
                found.append(parse_statement())
            except _Abandon:
                self._recover()
        program = None if self._has_errors() else self._build(decls, connects, sweeps)
        return program, self.diags

    def _has_errors(self) -> bool:
        return any(d.severity == "error" for d in self.diags)

    def _parse_element(self) -> _Decl:
        self._next()  # 'element'
        name_tok = self._expect("IDENT", "an element name")
        self._expect(":", "':' after the element name")
        kind_tok = self._expect("IDENT", "an element kind")
        known = kind_tok.text in KINDS
        if not known:
            self._error(kind_tok, f"unknown element kind {kind_tok.text!r} (expected one of {', '.join(KINDS)})",
                        Codes.UNKNOWN_KIND)
        values, tokens = self._parse_block()  # parsed even for an unknown kind, so its errors are reported
        if not known:
            raise _Abandon
        return _Decl(name_tok.text, kind_tok.text, values, name_tok, tokens)

    def _parse_block(self) -> tuple[dict, dict]:
        self._expect("{", "'{'")
        values: dict = {}
        tokens: dict = {}
        while (tok := self._peek()).type != "}":
            if tok.type == "EOF":
                self._abandon(tok, "unterminated block: missing '}'")
            key_tok = self._expect("IDENT", "a parameter name")
            self._expect("=", "'=' after the parameter name")
            value = self._parse_value()
            self._expect(";", "';' after the parameter value")
            if key_tok.text in values:
                self._error(key_tok, f"duplicate parameter {key_tok.text!r}", Codes.PARAM)
            else:
                values[key_tok.text] = value
                tokens[key_tok.text] = key_tok
        self._next()
        return values, tokens

    def _parse_value(self) -> _Value:
        tok = self._peek()
        if tok.type == "IDENT":
            return _Value("name", self._next().text)
        if tok.type != "NUMBER":
            self._abandon(tok, f"expected a value, found {tok.text or 'end of input'!r}")
        self._next()
        number = self._number(tok)
        nxt = self._peek()
        if nxt.type == "%":
            self._next()
            return _Value("percent", number / 100)
        if nxt.type != "IDENT":
            return _Value("number", number)
        if nxt.text in _TIME_UNITS:
            self._next()
            return _Value("time", number * _TIME_UNITS[nxt.text])
        if nxt.text not in _RATE_UNITS:
            self._abandon(nxt, f"unknown unit {nxt.text!r}", Codes.PARAM)
        self._next()
        if number <= 0:
            self._abandon(tok, "rate must be positive", Codes.PARAM)
        return _Value("time", 1 / (number * _RATE_UNITS[nxt.text]))

    def _number(self, tok: _Token) -> Fraction:
        """Exact value of a NUMBER token, checked against the range before any big-integer work."""
        out_of_range = "number out of range: at most 400 characters and a decimal exponent from -300 to 300"
        if len(tok.text) > _MAX_NUMBER_CHARS:
            self._abandon(tok, out_of_range, Codes.PARAM)
        # a mantissa of at most 400 characters moves the leading digit's power of
        # ten by less than 400, so a larger exponent is out of range; Decimal
        # itself rejects exponents beyond its context as malformed
        exponent = _NUMBER_RE.fullmatch(tok.text).group("exponent")
        if exponent and abs(int(exponent)) > _MAX_EXPONENT + _MAX_NUMBER_CHARS:
            self._abandon(tok, out_of_range, Codes.PARAM)
        try:
            number = Decimal(tok.text)
        except InvalidOperation:
            self._abandon(tok, f"malformed number {tok.text!r}")
        if abs(number.adjusted()) > _MAX_EXPONENT:
            self._abandon(tok, out_of_range, Codes.PARAM)
        return Fraction(number)

    def _parse_connect(self) -> tuple[Connection, _Token]:
        kw = self._next()  # 'connect'
        parts = []
        for side in ("source", "destination"):
            name_tok = self._expect("IDENT", f"the {side} element name")
            self._expect(".", f"'.' between the {side} element and its port")
            parts.append((name_tok.text, self._expect("IDENT", f"the {side} port name").text))
            if side == "source":
                self._expect("->", "'->'")
        (src, sp), (dst, dp) = parts
        return Connection(src, sp, dst, dp), kw

    def _parse_sweep(self) -> tuple[str, tuple[dict, dict], _Token]:
        self._next()  # 'sweep'
        var_tok = self._expect("IDENT", "a sweep variable ('phi' or 'td_frac')")
        known = var_tok.text in SWEEP_VARS
        if not known:
            self._error(var_tok, f"unknown sweep variable {var_tok.text!r}", Codes.SWEEP)
        params = self._parse_block()  # parsed even for an unknown variable, so its errors are reported
        if not known:
            raise _Abandon
        return var_tok.text, params, var_tok

    # -- program ------------------------------------------------------------

    def _build(self, decls, connects, sweeps) -> BenchProgram | None:
        by_name: dict[str, _Decl] = {}
        for decl in decls:
            if decl.name in by_name:
                self._error(decl.token, f"duplicate name {decl.name!r}", Codes.DUP_NAME)
            else:
                by_name[decl.name] = decl
        unique = list(by_name.values())

        sources = [d for d in unique if d.kind == "source"]
        if not sources:
            self.diags.append(ParseDiagnostic("error", 1, 1, "no source declared", Codes.NO_SOURCE))
        for extra in sources[1:]:
            self._error(extra.token, "more than one source declared", Codes.MULTI_SOURCE)

        detectors = [d.name for d in unique if d.kind == "detector"]
        if sources and not detectors:
            self.diags.append(ParseDiagnostic("error", 1, 1, "no detector declared", Codes.NO_DETECTOR))

        typed = {decl.name: self._check_params(decl) for decl in unique}
        self._check_signal_refs(by_name, typed)
        self._check_wiring(by_name, connects)
        sweep_ranges = self._check_sweeps(sweeps)
        if self._has_errors():
            return None

        src = typed[sources[0].name]
        return BenchProgram(
            source=SourceSpec(sources[0].name, src["period"], src.get("duty", Fraction(1, 2)),
                              src.get("norm", 1.0), src.get("samples")),
            elements=tuple(ElementSpec(d.name, d.kind, dict(typed[d.name])) for d in unique if d.kind in ELEMENT_PORTS),
            signals=tuple(
                SignalSpec(d.name, typed[d.name]["period"], typed[d.name].get("duty", Fraction(1, 2)),
                           typed[d.name].get("delay", Fraction(0)))
                for d in unique if d.kind == "signal"
            ),
            detectors=tuple(detectors),
            wiring=tuple(c for c, _ in connects),
            sweeps=sweep_ranges,
        )

    def _check_params(self, decl: _Decl) -> dict:
        schema = _PARAM_SCHEMAS[decl.kind]
        out: dict = {}
        for key, value in decl.params.items():
            tok = decl.param_tokens[key]
            if key not in schema:
                self._error(tok, f"{decl.kind} has no parameter {key!r}", Codes.PARAM)
                continue
            converted = self._convert(value, schema[key], tok)
            if converted is not None:
                out["period" if key == "rate" else key] = converted
        if decl.kind in ("source", "signal"):
            if "period" in decl.params and "rate" in decl.params:
                self._error(decl.token, f"{decl.kind} {decl.name!r} must give either period or rate, not both",
                            Codes.PARAM)
            elif "period" not in out:
                self._error(decl.token, f"{decl.kind} {decl.name!r} needs a period or rate", Codes.PARAM)
            elif out["period"] <= 0:
                self._error(decl.token, f"{decl.kind} period must be positive", Codes.PARAM)
            duty = out.get("duty")
            if duty is not None and not 0 < duty < 1:
                self._error(decl.token, "duty must lie strictly between 0% and 100%", Codes.PARAM)
            delay = out.get("delay")
            if delay is not None and "period" in out and not 0 <= delay < out["period"]:
                self._error(decl.param_tokens["delay"], "signal delay must lie within one period",
                            Codes.SIGNAL_RANGE)
        if decl.kind == "gated_router" and "signal" not in out:
            self._error(decl.token, f"gated_router {decl.name!r} needs a signal", Codes.PARAM)
        if decl.kind == "beam_splitter" and "gate" in out and "choice" in out:
            self._error(decl.token, "a beam splitter cannot carry both gate and choice", Codes.PARAM)
        if decl.kind == "beam_splitter" and out.get("choice") not in (None, "insert", "omit"):
            self._error(decl.param_tokens["choice"], "choice must be 'insert' or 'omit'", Codes.PARAM)
        if decl.kind == "source" and "samples" in out and out["samples"] < 2:
            self._error(decl.param_tokens["samples"], "samples must be an integer >= 2", Codes.PARAM)
        return out

    def _convert(self, value: _Value, target: str, tok: _Token):
        accepted, message = _TARGETS[target]
        if value.type not in accepted or (target == "int" and value.payload.denominator != 1):
            self._error(tok, message, Codes.PARAM)
            return None
        if target == "float":
            return float(value.payload)
        return int(value.payload) if target == "int" else value.payload

    def _check_signal_refs(self, by_name, typed):
        referenced = set()
        for decl in by_name.values():
            for key in ("signal", "gate"):
                ref = typed[decl.name].get(key)
                if ref is None:
                    continue
                referenced.add(ref)
                target = by_name.get(ref)
                if target is None or target.kind != "signal":
                    self._error(decl.param_tokens[key], f"{key} references undeclared signal {ref!r}",
                                Codes.UNDECLARED_SIGNAL)
        for decl in by_name.values():
            if decl.kind == "signal" and decl.name not in referenced:
                self._warn(decl.token, f"signal {decl.name!r} is never referenced", Codes.UNUSED_SIGNAL)

    def _check_wiring(self, by_name, connects):
        fed: set[tuple[str, str]] = set()
        driven: set[tuple[str, str]] = set()
        adjacency: dict[str, list[tuple[str, _Token]]] = {name: [] for name in by_name}
        for conn, tok in connects:
            ok = True
            # _PORTS holds (inputs, outputs): index 1 for the source side, 0 for the destination
            for name, port, role, side in ((conn.src, conn.src_port, "output", 1),
                                           (conn.dst, conn.dst_port, "input", 0)):
                decl = by_name.get(name)
                if decl is None:
                    self._error(tok, f"connection references undeclared element {name!r}", Codes.DANGLING_PORT)
                    ok = False
                elif port not in _PORTS[decl.kind][side]:
                    self._error(tok, f"{decl.kind} {name!r} has no {role} port {port!r}", Codes.DANGLING_PORT)
                    ok = False
            if not ok:
                continue
            src_key = (conn.src, conn.src_port)
            dst_key = (conn.dst, conn.dst_port)
            if src_key in driven:
                self._error(tok, f"output {conn.src}.{conn.src_port} is already connected", Codes.DUP_CONNECTION)
            elif dst_key in fed:
                self._error(tok, f"input {conn.dst}.{conn.dst_port} is already connected", Codes.DUP_CONNECTION)
            else:
                driven.add(src_key)
                fed.add(dst_key)
                adjacency[conn.src].append((conn.dst, tok))

        for decl in by_name.values():
            ins, outs = _PORTS[decl.kind]
            for port in outs:
                if (decl.name, port) not in driven:
                    self._error(decl.token, f"output port {decl.name}.{port} is not connected", Codes.UNCONNECTED)
            if decl.kind == "beam_splitter":
                if not any((decl.name, port) in fed for port in ins):
                    self._error(decl.token, f"beam splitter {decl.name!r} has no connected input",
                                Codes.UNCONNECTED)
            else:
                for port in ins:
                    if (decl.name, port) not in fed:
                        self._error(decl.token, f"input port {decl.name}.{port} is not connected",
                                    Codes.UNCONNECTED)

        self._check_acyclic(adjacency)

    def _check_acyclic(self, adjacency):
        """Depth-first search with an explicit stack; reports the first edge that closes a cycle."""
        on_path: dict[str, bool] = {}  # absent: unvisited; True: on the current path; False: finished
        for root in adjacency:
            if root in on_path:
                continue
            on_path[root] = True
            stack = [(root, iter(adjacency[root]))]
            while stack:
                node, edges = stack[-1]
                for nxt, tok in edges:
                    if on_path.get(nxt):
                        self._error(tok, "wiring contains a cycle", Codes.CYCLE)
                        return
                    if nxt not in on_path:
                        on_path[nxt] = True
                        stack.append((nxt, iter(adjacency[nxt])))
                        break
                else:
                    on_path[node] = False
                    stack.pop()

    def _check_sweeps(self, sweeps) -> tuple[SweepRange, ...]:
        out = []
        seen = set()
        for var, (values, tokens), tok in sweeps:
            if var in seen:
                self._error(tok, f"duplicate sweep over {var!r}", Codes.SWEEP)
                continue
            seen.add(var)
            fields = {}
            for key in _SWEEP_SCHEMA:
                if key not in values:
                    self._error(tok, f"sweep needs {key!r}", Codes.SWEEP)
                    continue
                converted = self._convert(values[key], _SWEEP_SCHEMA[key], tokens[key])
                if converted is not None:
                    fields[key] = converted
            for key in values:
                if key not in _SWEEP_SCHEMA:
                    self._error(tokens[key], f"sweep has no parameter {key!r}", Codes.SWEEP)
            if not fields.keys() == values.keys() == _SWEEP_SCHEMA.keys():
                continue
            if fields["steps"] < 2:
                self._error(tokens["steps"], "sweep needs at least 2 steps", Codes.SWEEP)
            elif not fields["start"] < fields["stop"]:
                self._error(tokens["start"], "sweep start must be below stop", Codes.SWEEP)
            elif var == "td_frac" and not (0 <= fields["start"] and fields["stop"] <= 1):
                self._error(tokens["start"], "td_frac sweep must stay within [0, 1]", Codes.SWEEP)
            else:
                out.append(SweepRange(var, fields["start"], fields["stop"], fields["steps"]))
        return tuple(out)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def try_parse(text: str) -> tuple[BenchProgram | None, list[ParseDiagnostic]]:
    """Parse; return (program or None, all diagnostics)."""
    return _Parser(text).parse_program()


def parse(text: str) -> BenchProgram:
    """Parse a bench description, raising :class:`BenchParseError` on errors."""
    program, diags = try_parse(text)
    if program is None:
        raise BenchParseError(diags)
    return program


def format_bench(prog: BenchProgram) -> str:
    """Render a program in canonical form; ``parse(format_bench(p))`` equals ``p``."""
    lines = []
    src = prog.source
    params = [f"period = {_fmt_time(src.period)}", f"duty = {_fmt_percent(src.duty)}", f"norm = {src.norm!r}"]
    if src.samples is not None:
        params.append(f"samples = {src.samples}")
    lines.append(_element_line(src.name, "source", params))
    for sig in prog.signals:
        params = [f"period = {_fmt_time(sig.period)}", f"duty = {_fmt_percent(sig.duty)}",
                  f"delay = {_fmt_time(sig.delay)}"]
        lines.append(_element_line(sig.name, "signal", params))
    for el in prog.elements:
        params = []
        for key in _PARAM_SCHEMAS[el.kind]:
            if key in el.params:
                value = el.params[key]
                rendered = repr(value) if isinstance(value, float) else str(value)
                params.append(f"{key} = {rendered}")
        lines.append(_element_line(el.name, el.kind, params))
    for det in prog.detectors:
        lines.append(_element_line(det, "detector", []))
    for conn in prog.wiring:
        lines.append(f"connect {conn.src}.{conn.src_port} -> {conn.dst}.{conn.dst_port}")
    for sw in prog.sweeps:
        lines.append(f"sweep {sw.variable} {{ start = {sw.start!r}; stop = {sw.stop!r}; steps = {sw.steps}; }}")
    return "\n".join(lines) + "\n"


def _element_line(name: str, kind: str, params: list[str]) -> str:
    body = "".join(f"{p}; " for p in params)
    return f"element {name} : {kind} {{ {body}}}"


def _fmt_time(value: Fraction) -> str:
    for unit, scale in _TIME_UNITS.items():
        q = value / scale
        if q.denominator == 1:
            return f"{q.numerator} {unit}"
    return f"{float(value)!r} s"


def _fmt_percent(value: Fraction) -> str:
    q = value * 100
    if q.denominator == 1:
        return f"{q.numerator}%"
    return f"{float(q)!r}%"


# ---------------------------------------------------------------------------
# Topology recognition
# ---------------------------------------------------------------------------

_MODE_SIGNATURES = {
    "open": (1, 0, 2),
    "closed": (2, 0, 2),
    "wheeler_delayed": (2, 0, 2),
    "edc_conceptual": (2, 0, 2),
    "edc_bench": (2, 2, 4),
}


def to_experiment_config(
    prog: BenchProgram,
    phi: float | None = None,
    td_frac: float | None = None,
    *,
    n_photons: int = 100_000,
    seed: int = 42,
    samples_per_period: int | None = None,
) -> ExperimentConfig:
    """Map a bench program onto one of the five known experiment modes.

    ``phi`` and ``td_frac`` override the values implied by the file (the
    phase shifter parameters and the gate-signal timing).  Programs whose
    wiring matches none of the known layouts are rejected.
    """
    recognized = _classify(prog)
    cfg_phi = recognized.phi if phi is None else float(phi)
    cfg_td = recognized.td_frac if td_frac is None else float(td_frac)
    samples = samples_per_period or prog.source.samples or 1000
    try:
        return ExperimentConfig(
            mode=recognized.mode,
            phi=cfg_phi,
            td_frac=cfg_td,
            period=float(prog.source.period),
            samples_per_period=samples,
            n_photons=n_photons,
            seed=seed,
            insert_bs2=recognized.insert_bs2,
        )
    except ConfigurationError as exc:
        raise ConfigurationError(f"bench program maps to an invalid configuration: {exc}") from exc


class _Recognized(NamedTuple):
    mode: str
    phi: float
    td_frac: float
    insert_bs2: bool | None


def _closest_mode(prog: BenchProgram) -> str:
    n_bs = sum(1 for el in prog.elements if el.kind == "beam_splitter")
    n_router = sum(1 for el in prog.elements if el.kind == "gated_router")
    signature = (n_bs, n_router, len(prog.detectors))
    return min(
        _MODE_SIGNATURES,
        key=lambda mode: sum(abs(a - b) for a, b in zip(_MODE_SIGNATURES[mode], signature)),
    )


def _reject(prog: BenchProgram, why: str):
    raise TopologyError(f"{why}; closest known mode: {_closest_mode(prog)!r}")


def _classify(prog: BenchProgram) -> _Recognized:
    if prog.source.duty != Fraction(1, 2):
        raise TopologyError("experiment modes require a 50% duty source pulse")
    if prog.source.norm != 1.0:
        raise TopologyError("experiment modes require a unit-norm source")
    kind_of = {prog.source.name: "source", **{el.name: el.kind for el in prog.elements},
               **dict.fromkeys(prog.detectors, "detector")}
    params_of = {el.name: el.params for el in prog.elements}
    conn = {(c.src, c.src_port): (c.dst, c.dst_port) for c in prog.wiring}

    def chase(name: str, port: str) -> tuple[str, str, float]:
        """Follow pass-through elements, accumulating phase-shifter phases."""
        phase = 0.0
        nxt = conn.get((name, port))
        while nxt is not None:
            el, in_port = nxt
            kind = kind_of[el]
            if kind == "phase_shifter":
                phase += params_of[el].get("phi", 0.0)
            elif kind != "mirror":
                return el, in_port, phase
            nxt = conn.get((el, "out"))
        _reject(prog, f"path from {name}.{port} ends without reaching a junction or detector")

    def recombine(bs2: str, paths: str, port_a: str, phase_a: float, port_b: str, phase_b: float) -> float:
        """Both paths enter distinct inputs of ``bs2``, which feeds two detectors; their relative phase."""
        if {port_a, port_b} != {"in1", "in2"}:
            _reject(prog, f"{paths} must enter distinct inputs of the output beam splitter")
        for out_port in ("out1", "out2"):
            if kind_of[chase(bs2, out_port)[0]] != "detector":
                _reject(prog, "the output beam splitter must feed two detectors")
        return phase_a - phase_b if port_a == "in1" else phase_b - phase_a

    def require_detectors(layout: str, count: str):
        if len(prog.detectors) != {"two": 2, "four": 4}[count]:
            _reject(prog, f"{layout} layout must use exactly {count} detectors")

    bs1, _, _ = chase(prog.source.name, "out")
    if kind_of[bs1] != "beam_splitter":
        _reject(prog, "the source must feed the input beam splitter")
    end_a, port_a, phase_a = chase(bs1, "out1")
    end_b, port_b, phase_b = chase(bs1, "out2")

    # open layout: both arms end on detectors
    if kind_of[end_a] == "detector" and kind_of[end_b] == "detector":
        require_detectors("an open", "two")
        return _Recognized("open", phase_a - phase_b, 0.0, None)

    # closed family: both arms meet a second splitter
    if end_a == end_b and kind_of[end_a] == "beam_splitter":
        phi = recombine(end_a, "both arms", port_a, phase_a, port_b, phase_b)
        require_detectors("a closed", "two")
        bs2_params = params_of[end_a]
        if "choice" in bs2_params:
            return _Recognized("wheeler_delayed", phi, 0.0, bs2_params["choice"] == "insert")
        if "gate" in bs2_params:
            return _Recognized("edc_conceptual", phi, _prefix_td_frac(prog, bs2_params["gate"]), None)
        return _Recognized("closed", phi, 0.0, None)

    # bench layout: both arms hit gated routers
    if kind_of[end_a] == "gated_router" and kind_of[end_b] == "gated_router" and end_a != end_b:
        signal = params_of[end_a]["signal"]
        if params_of[end_b]["signal"] != signal:
            _reject(prog, "the two arm routers must share one gate signal (in-phase constraint)")
        bs2, refl_port_a, refl_phase_a = chase(end_a, "reflect")
        bs2_b, refl_port_b, refl_phase_b = chase(end_b, "reflect")
        if bs2 != bs2_b or kind_of[bs2] != "beam_splitter":
            _reject(prog, "both reflected paths must meet the output beam splitter")
        if params_of[bs2]:
            _reject(prog, "the bench output beam splitter takes no gate or choice")
        phi = recombine(bs2, "reflected paths", refl_port_a, phase_a + refl_phase_a,
                        refl_port_b, phase_b + refl_phase_b)
        for router in (end_a, end_b):
            if kind_of[chase(router, "transmit")[0]] != "detector":
                _reject(prog, "each router's transmitted path must feed a detector")
        require_detectors("a bench", "four")
        return _Recognized("edc_bench", phi, _prefix_td_frac(prog, signal), None)

    _reject(prog, "wiring does not match any known layout")


def _prefix_td_frac(prog: BenchProgram, signal_name: str) -> float:
    """Insertion delay implied by a gate signal, as a fraction of the pulse.

    The gate-high window must cover a leading segment ``[0, t_d)`` of the
    pulse (possibly empty or the whole pulse); the low remainder is the
    gated part.
    """
    sig = prog.signal(signal_name)
    if sig.period != prog.source.period:
        raise TopologyError(
            f"gate signal {signal_name!r} period {sig.period} differs from the source period"
        )
    pulse_len = prog.source.pulse_length
    pieces = []
    for start, end in sig.high_windows():
        lo = max(start, Fraction(0))
        hi = min(end, pulse_len)
        if lo < hi:
            pieces.append((lo, hi))
    if not pieces:
        return 0.0
    if len(pieces) == 1 and pieces[0][0] == 0:
        return float(pieces[0][1] / pulse_len)
    raise TopologyError(
        f"gate signal {signal_name!r} must be high over a leading segment of the pulse, "
        f"got high windows {[(str(a), str(b)) for a, b in pieces]} within the pulse"
    )
