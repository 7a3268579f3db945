"""Parser, validator and formatter for ``.bench`` optical-bench files.

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

    KIND  = "source" | "beam_splitter" | "phase_shifter" | "mirror"
          | "gated_router" | "detector" | "signal"
    UNIT  = "s" | "ms" | "us" | "ns" | "ps"          (durations)
          | "Hz" | "kHz" | "MHz" | "GHz"             (rates)

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

from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction

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

@dataclass(frozen=True)
class _Token:
    type: str  # IDENT NUMBER { } : ; = . -> % EOF
    text: str
    line: int
    col: int


_PUNCT = {"{": "{", "}": "}", ":": ":", ";": ";", "=": "=", ".": ".", "%": "%"}


def _lex(text: str, diags: list) -> list[_Token]:
    tokens: list[_Token] = []
    line_no = 1
    col = 1
    i = 0
    n = len(text)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line_no += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(_Token("->", "->", line_no, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, line_no, col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line_no, col))
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and (text[i + 1].isdigit() or text[i + 1] == ".")) or (
            ch == "." and i + 1 < n and text[i + 1].isdigit()
        ):
            j = i + 1 if ch == "-" else i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(_Token("NUMBER", text[i:j], line_no, col))
            col += j - i
            i = j
            continue
        diags.append(ParseDiagnostic("error", line_no, col, f"unexpected character {ch!r}", Codes.LEX))
        i += 1
        col += 1

    tokens.append(_Token("EOF", "", line_no, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@dataclass
class _Decl:
    name: str
    kind: str
    params: dict
    token: _Token
    param_tokens: dict = field(default_factory=dict)


class _Parser:
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

    def _expect(self, type_: str, what: str) -> _Token | None:
        tok = self._peek()
        if tok.type != type_:
            self._error(tok, f"expected {what}, found {tok.text or 'end of input'!r}")
            return None
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
        sweeps: list[tuple[str, dict, _Token]] = []

        while self._peek().type != "EOF":
            tok = self._peek()
            if tok.type == "IDENT" and tok.text == "element":
                decl = self._parse_element()
                if decl is None:
                    self._recover()
                else:
                    decls.append(decl)
            elif tok.type == "IDENT" and tok.text == "connect":
                conn = self._parse_connect()
                if conn is None:
                    self._recover()
                else:
                    connects.append(conn)
            elif tok.type == "IDENT" and tok.text == "sweep":
                sw = self._parse_sweep()
                if sw is None:
                    self._recover()
                else:
                    sweeps.append(sw)
            else:
                self._error(tok, f"expected 'element', 'connect' or 'sweep', found {tok.text!r}")
                self._recover()

        if any(d.severity == "error" for d in self.diags):
            return None, self.diags
        program = _Builder(self).build(decls, connects, sweeps)
        return (program, self.diags) if program is not None else (None, self.diags)

    def _parse_element(self) -> _Decl | None:
        self._next()  # 'element'
        name_tok = self._expect("IDENT", "an element name")
        if name_tok is None:
            return None
        if self._expect(":", "':' after the element name") is None:
            return None
        kind_tok = self._expect("IDENT", "an element kind")
        if kind_tok is None:
            return None
        if kind_tok.text not in KINDS:
            self._error(kind_tok, f"unknown element kind {kind_tok.text!r} (expected one of {', '.join(KINDS)})",
                        Codes.UNKNOWN_KIND)
            # keep parsing the block so later statements still get checked
        params = self._parse_block()
        if params is None:
            return None
        if kind_tok.text not in KINDS:
            return None
        values, tokens = params
        return _Decl(name_tok.text, kind_tok.text, values, name_tok, tokens)

    def _parse_block(self) -> tuple[dict, dict] | None:
        if self._expect("{", "'{'") is None:
            return None
        values: dict = {}
        tokens: dict = {}
        while True:
            tok = self._peek()
            if tok.type == "}":
                self._next()
                return values, tokens
            if tok.type == "EOF":
                self._error(tok, "unterminated block: missing '}'")
                return None
            key_tok = self._expect("IDENT", "a parameter name")
            if key_tok is None:
                return None
            if self._expect("=", "'=' after the parameter name") is None:
                return None
            value = self._parse_value()
            if value is None:
                return None
            if self._expect(";", "';' after the parameter value") is None:
                return None
            if key_tok.text in values:
                self._error(key_tok, f"duplicate parameter {key_tok.text!r}", Codes.PARAM)
                continue
            values[key_tok.text] = value
            tokens[key_tok.text] = key_tok

    def _parse_value(self):
        tok = self._peek()
        if tok.type == "NUMBER":
            self._next()
            try:
                number = Fraction(Decimal(tok.text))
            except (InvalidOperation, ValueError):
                self._error(tok, f"malformed number {tok.text!r}")
                return None
            nxt = self._peek()
            if nxt.type == "%":
                self._next()
                return _Value("percent", number / 100, tok)
            if nxt.type == "IDENT" and nxt.text in _TIME_UNITS:
                self._next()
                return _Value("time", number * _TIME_UNITS[nxt.text], tok)
            if nxt.type == "IDENT" and nxt.text in _RATE_UNITS:
                self._next()
                if number <= 0:
                    self._error(tok, "rate must be positive", Codes.PARAM)
                    return None
                return _Value("time", 1 / (number * _RATE_UNITS[nxt.text]), tok, from_rate=True)
            if nxt.type == "IDENT":
                self._error(nxt, f"unknown unit {nxt.text!r}", Codes.PARAM)
                return None
            return _Value("number", number, tok)
        if tok.type == "IDENT":
            self._next()
            return _Value("name", tok.text, tok)
        self._error(tok, f"expected a value, found {tok.text or 'end of input'!r}")
        return None

    def _parse_connect(self) -> tuple[Connection, _Token] | None:
        kw = self._next()  # 'connect'
        parts = []
        for side in ("source", "destination"):
            name_tok = self._expect("IDENT", f"the {side} element name")
            if name_tok is None:
                return None
            if self._expect(".", f"'.' between the {side} element and its port") is None:
                return None
            port_tok = self._expect("IDENT", f"the {side} port name")
            if port_tok is None:
                return None
            parts.append((name_tok.text, port_tok.text))
            if side == "source" and self._expect("->", "'->'") is None:
                return None
        (src, sp), (dst, dp) = parts
        return Connection(src, sp, dst, dp), kw

    def _parse_sweep(self) -> tuple[str, dict, _Token] | None:
        self._next()  # 'sweep'
        var_tok = self._expect("IDENT", "a sweep variable ('phi' or 'td_frac')")
        if var_tok is None:
            return None
        if var_tok.text not in SWEEP_VARS:
            self._error(var_tok, f"unknown sweep variable {var_tok.text!r}", Codes.SWEEP)
        params = self._parse_block()
        if params is None or var_tok.text not in SWEEP_VARS:
            return None
        return var_tok.text, params, var_tok


@dataclass(frozen=True)
class _Value:
    type: str  # "number" | "percent" | "time" | "name"
    payload: object
    token: _Token
    from_rate: bool = False


# ---------------------------------------------------------------------------
# Semantic analysis
# ---------------------------------------------------------------------------

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


class _Builder:
    """Second pass: type-check parameters, wire the graph, run the checks."""

    def __init__(self, parser: _Parser):
        self.p = parser

    def build(self, decls, connects, sweeps) -> BenchProgram | None:
        p = self.p
        by_name: dict[str, _Decl] = {}
        for decl in decls:
            if decl.name in by_name:
                p._error(decl.token, f"duplicate name {decl.name!r}", Codes.DUP_NAME)
                continue
            by_name[decl.name] = decl

        sources = [d for d in decls if d.kind == "source" and by_name.get(d.name) is d]
        if not sources:
            p.diags.append(ParseDiagnostic("error", 1, 1, "no source declared", Codes.NO_SOURCE))
        for extra in sources[1:]:
            p._error(extra.token, "more than one source declared", Codes.MULTI_SOURCE)

        detectors = [d for d in decls if d.kind == "detector" and by_name.get(d.name) is d]
        if sources and not detectors:
            p.diags.append(ParseDiagnostic("error", 1, 1, "no detector declared", Codes.NO_DETECTOR))

        typed: dict[str, dict] = {}
        for decl in by_name.values():
            typed[decl.name] = self._check_params(decl)

        self._check_signal_refs(by_name, typed)
        self._check_wiring(by_name, connects)
        sweep_ranges = self._check_sweeps(sweeps)

        if any(d.severity == "error" for d in p.diags):
            return None

        src = sources[0]
        source = SourceSpec(
            name=src.name,
            period=typed[src.name]["period"],
            duty=typed[src.name].get("duty", Fraction(1, 2)),
            norm=typed[src.name].get("norm", 1.0),
            samples=typed[src.name].get("samples"),
        )
        signals = tuple(
            SignalSpec(
                name=d.name,
                period=typed[d.name]["period"],
                duty=typed[d.name].get("duty", Fraction(1, 2)),
                delay=typed[d.name].get("delay", Fraction(0)),
            )
            for d in decls
            if d.kind == "signal" and by_name.get(d.name) is d
        )
        elements = tuple(
            ElementSpec(d.name, d.kind, dict(typed[d.name]))
            for d in decls
            if d.kind in ELEMENT_PORTS and by_name.get(d.name) is d
        )
        return BenchProgram(
            source=source,
            elements=elements,
            signals=signals,
            detectors=tuple(d.name for d in detectors),
            wiring=tuple(c for c, _ in connects),
            sweeps=sweep_ranges,
        )

    # -- parameters ---------------------------------------------------------

    def _check_params(self, decl: _Decl) -> dict:
        p = self.p
        schema = _PARAM_SCHEMAS[decl.kind]
        out: dict = {}
        for key, value in decl.params.items():
            tok = decl.param_tokens[key]
            if key not in schema:
                p._error(tok, f"{decl.kind} has no parameter {key!r}", Codes.PARAM)
                continue
            converted = self._convert(value, schema[key], tok)
            if converted is not None:
                out["period" if key == "rate" else key] = converted
        if decl.kind in ("source", "signal"):
            if "period" in decl.params and "rate" in decl.params:
                p._error(decl.token, f"{decl.kind} {decl.name!r} must give either period or rate, not both",
                         Codes.PARAM)
            elif "period" not in out:
                p._error(decl.token, f"{decl.kind} {decl.name!r} needs a period or rate", Codes.PARAM)
            elif out["period"] <= 0:
                p._error(decl.token, f"{decl.kind} period must be positive", Codes.PARAM)
            duty = out.get("duty")
            if duty is not None and not 0 < duty < 1:
                p._error(decl.token, "duty must lie strictly between 0% and 100%", Codes.PARAM)
            delay = out.get("delay")
            if delay is not None and "period" in out and not 0 <= delay < out["period"]:
                p._error(decl.param_tokens["delay"], "signal delay must lie within one period",
                         Codes.SIGNAL_RANGE)
        if decl.kind == "gated_router" and "signal" not in out:
            p._error(decl.token, f"gated_router {decl.name!r} needs a signal", Codes.PARAM)
        if decl.kind == "beam_splitter" and "gate" in out and "choice" in out:
            p._error(decl.token, "a beam splitter cannot carry both gate and choice", Codes.PARAM)
        if decl.kind == "beam_splitter" and out.get("choice") not in (None, "insert", "omit"):
            p._error(decl.param_tokens["choice"], "choice must be 'insert' or 'omit'", Codes.PARAM)
        if decl.kind == "source" and "samples" in out and out["samples"] < 2:
            p._error(decl.param_tokens["samples"], "samples must be an integer >= 2", Codes.PARAM)
        return out

    def _convert(self, value: _Value, target: str, tok: _Token):
        p = self.p
        if target == "time":
            if value.type != "time":
                p._error(tok, "expected a duration (e.g. '1 us') or rate (e.g. '1 MHz')", Codes.PARAM)
                return None
            return value.payload
        if target == "fraction":
            if value.type == "percent":
                return value.payload
            if value.type == "number":
                return value.payload
            p._error(tok, "expected a percentage or plain fraction", Codes.PARAM)
            return None
        if target == "float":
            if value.type != "number":
                p._error(tok, "expected a plain number", Codes.PARAM)
                return None
            return float(value.payload)
        if target == "int":
            if value.type != "number" or value.payload.denominator != 1:
                p._error(tok, "expected an integer", Codes.PARAM)
                return None
            return int(value.payload)
        if target == "name":
            if value.type != "name":
                p._error(tok, "expected a name", Codes.PARAM)
                return None
            return value.payload
        raise AssertionError(target)

    # -- signals ------------------------------------------------------------

    def _check_signal_refs(self, by_name, typed):
        p = self.p
        referenced = set()
        for decl in by_name.values():
            for key in ("signal", "gate"):
                ref = typed[decl.name].get(key)
                if ref is None:
                    continue
                referenced.add(ref)
                target = by_name.get(ref)
                if target is None or target.kind != "signal":
                    p._error(decl.param_tokens[key], f"{key} references undeclared signal {ref!r}",
                             Codes.UNDECLARED_SIGNAL)
        for decl in by_name.values():
            if decl.kind == "signal" and decl.name not in referenced:
                p._warn(decl.token, f"signal {decl.name!r} is never referenced", Codes.UNUSED_SIGNAL)

    # -- wiring -------------------------------------------------------------

    def _check_wiring(self, by_name, connects):
        p = self.p
        fed: dict[tuple[str, str], _Token] = {}
        driven: dict[tuple[str, str], _Token] = {}
        edges: list[tuple[str, str, _Token]] = []
        for conn, tok in connects:
            ok = True
            for name, port, direction in (
                (conn.src, conn.src_port, "out"),
                (conn.dst, conn.dst_port, "in"),
            ):
                decl = by_name.get(name)
                if decl is None:
                    p._error(tok, f"connection references undeclared element {name!r}", Codes.DANGLING_PORT)
                    ok = False
                    continue
                ins, outs = _PORTS[decl.kind]
                ports = outs if direction == "out" else ins
                if port not in ports:
                    role = "output" if direction == "out" else "input"
                    p._error(tok, f"{decl.kind} {name!r} has no {role} port {port!r}", Codes.DANGLING_PORT)
                    ok = False
            if not ok:
                continue
            src_key = (conn.src, conn.src_port)
            dst_key = (conn.dst, conn.dst_port)
            if src_key in driven:
                p._error(tok, f"output {conn.src}.{conn.src_port} is already connected", Codes.DUP_CONNECTION)
                continue
            if dst_key in fed:
                p._error(tok, f"input {conn.dst}.{conn.dst_port} is already connected", Codes.DUP_CONNECTION)
                continue
            driven[src_key] = tok
            fed[dst_key] = tok
            edges.append((conn.src, conn.dst, tok))

        for decl in by_name.values():
            ins, outs = _PORTS[decl.kind]
            for port in outs:
                if (decl.name, port) not in driven:
                    p._error(decl.token, f"output port {decl.name}.{port} is not connected", Codes.UNCONNECTED)
            if decl.kind == "beam_splitter":
                if not any((decl.name, port) in fed for port in ins):
                    p._error(decl.token, f"beam splitter {decl.name!r} has no connected input", Codes.UNCONNECTED)
            else:
                for port in ins:
                    if (decl.name, port) not in fed:
                        p._error(decl.token, f"input port {decl.name}.{port} is not connected", Codes.UNCONNECTED)

        self._check_acyclic(by_name, edges)

    def _check_acyclic(self, by_name, edges):
        p = self.p
        adjacency: dict[str, list[tuple[str, _Token]]] = {name: [] for name in by_name}
        for src, dst, tok in edges:
            adjacency[src].append((dst, tok))
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {name: WHITE for name in adjacency}

        def visit(node) -> _Token | None:
            color[node] = GRAY
            for nxt, tok in adjacency[node]:
                if color[nxt] == GRAY:
                    return tok
                if color[nxt] == WHITE:
                    found = visit(nxt)
                    if found is not None:
                        return found
            color[node] = BLACK
            return None

        for name in adjacency:
            if color[name] == WHITE:
                tok = visit(name)
                if tok is not None:
                    p._error(tok, "wiring contains a cycle", Codes.CYCLE)
                    return

    # -- sweeps -------------------------------------------------------------

    def _check_sweeps(self, sweeps) -> tuple[SweepRange, ...]:
        p = self.p
        out = []
        seen = set()
        for var, (values, tokens), tok in sweeps:
            if var in seen:
                p._error(tok, f"duplicate sweep over {var!r}", Codes.SWEEP)
                continue
            seen.add(var)
            fields = {}
            bad = False
            for key in _SWEEP_SCHEMA:
                if key not in values:
                    p._error(tok, f"sweep needs {key!r}", Codes.SWEEP)
                    bad = True
                    continue
                converted = self._convert(values[key], _SWEEP_SCHEMA[key], tokens[key])
                if converted is None:
                    bad = True
                else:
                    fields[key] = converted
            for key in values:
                if key not in _SWEEP_SCHEMA:
                    p._error(tokens[key], f"sweep has no parameter {key!r}", Codes.SWEEP)
                    bad = True
            if bad:
                continue
            if fields["steps"] < 2:
                p._error(tokens["steps"], "sweep needs at least 2 steps", Codes.SWEEP)
                continue
            if not fields["start"] < fields["stop"]:
                p._error(tokens["start"], "sweep start must be below stop", Codes.SWEEP)
                continue
            if var == "td_frac" and not (0 <= fields["start"] and fields["stop"] <= 1):
                p._error(tokens["start"], "td_frac sweep must stay within [0, 1]", Codes.SWEEP)
                continue
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
        lines.append(
            _element_line(
                sig.name,
                "signal",
                [
                    f"period = {_fmt_time(sig.period)}",
                    f"duty = {_fmt_percent(sig.duty)}",
                    f"delay = {_fmt_time(sig.delay)}",
                ],
            )
        )
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
        lines.append(
            f"sweep {sw.variable} {{ start = {sw.start!r}; stop = {sw.stop!r}; steps = {sw.steps}; }}"
        )
    return "\n".join(lines) + "\n"


def _element_line(name: str, kind: str, params: list[str]) -> str:
    if not params:
        return f"element {name} : {kind} {{ }}"
    body = " ".join(f"{p};" for p in params)
    return f"element {name} : {kind} {{ {body} }}"


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


@dataclass(frozen=True)
class _Recognized:
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
    kind_of = {prog.source.name: "source"}
    params_of: dict[str, dict] = {prog.source.name: {}}
    for el in prog.elements:
        kind_of[el.name] = el.kind
        params_of[el.name] = dict(el.params)
    for det in prog.detectors:
        kind_of[det] = "detector"
        params_of[det] = {}
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
                nxt = conn.get((el, "out"))
            elif kind == "mirror":
                nxt = conn.get((el, "out"))
            else:
                return el, in_port, phase
        _reject(prog, f"path from {name}.{port} ends without reaching a junction or detector")

    first, _, _ = chase(prog.source.name, "out")
    if kind_of[first] != "beam_splitter":
        _reject(prog, "the source must feed the input beam splitter")
    bs1 = first
    arm_a = chase(bs1, "out1")
    arm_b = chase(bs1, "out2")

    # open layout: both arms end on detectors
    if kind_of[arm_a[0]] == "detector" and kind_of[arm_b[0]] == "detector":
        if len(prog.detectors) != 2:
            _reject(prog, "an open layout must use exactly two detectors")
        return _Recognized("open", arm_a[2] - arm_b[2], 0.0, None)

    # closed family: both arms meet a second splitter
    if arm_a[0] == arm_b[0] and kind_of[arm_a[0]] == "beam_splitter":
        bs2 = arm_a[0]
        if {arm_a[1], arm_b[1]} != {"in1", "in2"}:
            _reject(prog, "both arms must enter distinct inputs of the output beam splitter")
        phi_derived = arm_a[2] - arm_b[2] if arm_a[1] == "in1" else arm_b[2] - arm_a[2]
        for out_port in ("out1", "out2"):
            el, _, _ = chase(bs2, out_port)
            if kind_of[el] != "detector":
                _reject(prog, "the output beam splitter must feed two detectors")
        if len(prog.detectors) != 2:
            _reject(prog, "a closed layout must use exactly two detectors")
        bs2_params = params_of[bs2]
        if "choice" in bs2_params:
            return _Recognized("wheeler_delayed", phi_derived, 0.0, bs2_params["choice"] == "insert")
        if "gate" in bs2_params:
            td = _prefix_td_frac(prog, bs2_params["gate"])
            return _Recognized("edc_conceptual", phi_derived, td, None)
        return _Recognized("closed", phi_derived, 0.0, None)

    # bench layout: both arms hit gated routers
    if (
        kind_of[arm_a[0]] == "gated_router"
        and kind_of[arm_b[0]] == "gated_router"
        and arm_a[0] != arm_b[0]
    ):
        router_a, router_b = arm_a[0], arm_b[0]
        sig_a = params_of[router_a]["signal"]
        sig_b = params_of[router_b]["signal"]
        if sig_a != sig_b:
            _reject(prog, "the two arm routers must share one gate signal (in-phase constraint)")
        refl_a = chase(router_a, "reflect")
        refl_b = chase(router_b, "reflect")
        if refl_a[0] != refl_b[0] or kind_of[refl_a[0]] != "beam_splitter":
            _reject(prog, "both reflected paths must meet the output beam splitter")
        bs2 = refl_a[0]
        if params_of[bs2]:
            _reject(prog, "the bench output beam splitter takes no gate or choice")
        if {refl_a[1], refl_b[1]} != {"in1", "in2"}:
            _reject(prog, "reflected paths must enter distinct inputs of the output beam splitter")
        for out_port in ("out1", "out2"):
            el, _, _ = chase(bs2, out_port)
            if kind_of[el] != "detector":
                _reject(prog, "the output beam splitter must feed two detectors")
        for router in (router_a, router_b):
            el, _, _ = chase(router, "transmit")
            if kind_of[el] != "detector":
                _reject(prog, "each router's transmitted path must feed a detector")
        if len(prog.detectors) != 4:
            _reject(prog, "a bench layout must use exactly four detectors")
        if refl_a[1] == "in1":
            phi_derived = (arm_a[2] + refl_a[2]) - (arm_b[2] + refl_b[2])
        else:
            phi_derived = (arm_b[2] + refl_b[2]) - (arm_a[2] + refl_a[2])
        td = _prefix_td_frac(prog, sig_a)
        return _Recognized("edc_bench", phi_derived, td, None)

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
