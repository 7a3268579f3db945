"""In-memory spans around calls into edcsim's public functions.

The benchmark never edits edcsim.  For a traced pass it replaces the
public functions listed in ``TARGETS`` by timing wrappers, both in their
home module and in every module that imported the name, and puts the
originals back afterwards.  Spans stay in memory until the run writes
them out.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _cfg_sizes(cfg, *_a, **_k):
    return {"samples": int(cfg.samples_per_period), "photons": int(cfg.n_photons)}


def _kernel_sizes(_cum, start, stop, *_a, **_k):
    return {"photons": int(stop) - int(start)}


def _rows_sizes(rows, *_a, **_k):
    return {"rows": len(rows)}


# (span name, home module, attribute, modules that imported the name, sizes)
TARGETS = (
    ("benchdsl.parse", "benchdsl", "parse", ("cli",), None),
    ("benchdsl.to_experiment_config", "benchdsl", "to_experiment_config", ("cli",), None),
    ("experiment.run", "experiment", "run", ("cli",), _cfg_sizes),
    ("analytic.detector_probs", "analytic", "detector_probs", (), None),
    ("analytic.predict", "analytic", "predict", (), None),
    ("measurement.sample_clicks", "measurement", "sample_clicks", ("cli",), None),
    ("measurement.estimators", "measurement", "estimators", ("cli",), None),
    ("measurement.chi_square_check", "measurement", "chi_square_check", ("cli",), None),
    ("kernels.sample_counts", "kernels", "sample_counts", (), _kernel_sizes),
    ("cli.simulate_row", "cli", "simulate_row", (), _cfg_sizes),
    ("cli.rows_to_csv", "cli", "rows_to_csv", (), _rows_sizes),
    ("cli.rows_to_json", "cli", "rows_to_json", (), _rows_sizes),
)


class Tracer:
    """Collects spans; each thread keeps its own stack of open spans.

    A span opened on a worker thread with nothing open on that thread takes
    the main thread's innermost open span as parent: the thread pool in
    ``measurement`` runs kernel halves while the main thread waits inside
    ``sample_clicks``.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def add(self, name: str, start: float, end: float, parent: int | None = None, **attrs) -> int:
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            self.spans.append(Span(sid, name, start, end, parent, self.run, attrs))
        return sid

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        main = self._main_stack
        parent = stack[-1] if stack else (main[-1] if main else None)
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, self.run, attrs))

    def wrap(self, name, fn, sizes=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = sizes(*args, **kwargs) if sizes else {}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self, modules: dict, run: str):
        """Wrap every target for the duration of the block, under run id ``run``."""
        self.run = run
        undo = []
        try:
            for name, home, attr, aliases, sizes in TARGETS:
                original = getattr(modules[home], attr)
                wrapped = self.wrap(name, original, sizes)
                for mod_name in (home, *aliases):
                    mod = modules[mod_name]
                    if getattr(mod, attr) is original:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(undo):
                setattr(mod, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    selfs = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        totals[s.layer] = totals.get(s.layer, 0.0) + selfs[s.id]
    return totals


def span_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds a timing wrapper adds to one call: wrapped minus bare no-op, median of repeats."""
    tracer = Tracer()
    bare = lambda: None  # noqa: E731
    wrapped = tracer.wrap("noop", bare)
    extra = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            bare()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        extra.append(((t2 - t1) - (t1 - t0)) / calls)
        tracer.spans.clear()
    return statistics.median(extra)
