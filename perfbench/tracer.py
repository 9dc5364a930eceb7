"""In-memory tracing of zfolio's layers, applied from outside the package.

The tracer replaces public functions and methods at the place where their
callers look them up (a module attribute or a class attribute) with thin
timing wrappers. `src/` is not modified; `uninstall()` puts every original
back.

Two kinds of record are kept:

* spans, for coarse calls: name, start, end and the index of the enclosing
  span, written out at the end of a run;
* counters, for hot leaf calls (one imputation, one matrix lookup): a call
  count and the total time, with no per-call record.

A span's self time is its duration minus the time of the spans and counted
calls made directly inside it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class Counter:
    calls: int = 0
    seconds: float = 0.0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, Counter] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)
    _counted_depth: int = 0
    paused: bool = False

    # -- recording -----------------------------------------------------

    def _finish(self, elapsed: float) -> None:
        if self._stack:
            self.spans[self._stack[-1]].child_time += elapsed

    @contextmanager
    def span(self, name: str):
        if self.paused:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), parent=parent)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            self._finish(record.duration)

    @contextmanager
    def pause(self):
        """Calls made inside are not recorded (benchmark-side checks)."""
        previous, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = previous

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()
        self._counted_depth = 0

    # -- wrapping ------------------------------------------------------

    def _wrap_span(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_counter(self, name, fn):
        tracer = self
        counters = self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            tracer._counted_depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                tracer._counted_depth -= 1
                counter = counters.get(name)
                if counter is None:
                    counter = counters[name] = Counter()
                counter.calls += 1
                counter.seconds += elapsed
                # a counted call inside another one (a conditional model's
                # predict inside the hierarchical predict) is already part
                # of the outer call's time
                if not tracer._counted_depth:
                    tracer._finish(elapsed)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_size(self, name, fn):
        """Counts the items the call returns, e.g. schedules enumerated."""
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not tracer.paused:
                counter = tracer.counters.setdefault(name, Counter())
                counter.calls += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, kind: str = "span") -> None:
        """Replace owner.attr with a recording wrapper named `name`.

        kind is "span", "counter" or "size" (see the wrappers above).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrap = {"span": self._wrap_span, "counter": self._wrap_counter,
                "size": self._wrap_size}[kind]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------

    def span_totals(self) -> dict[str, dict]:
        """Per span name: call count, inclusive and self seconds."""
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0})
            row["calls"] += 1
            row["seconds"] += s.duration
            row["self_seconds"] += s.self_time
        return out

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def to_doc(self) -> dict:
        return {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                for s in self.spans
            ],
            "counters": {
                k: {"calls": c.calls, "seconds": c.seconds}
                for k, c in sorted(self.counters.items())
            },
            "span_totals": self.span_totals(),
        }


def install_zfolio_tracing(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer metrics are read from.

    Calls the benchmark makes itself (build_portfolio, solve, extract_all,
    read_dimacs_file) get their spans from the benchmark's own code.
    """
    from zfolio import features, hierarchy, learning, portfolio, runners, runtimes, scoring

    spans = [
        (portfolio, "select_basis", "learning.select_basis"),
        (portfolio, "censored_fit", "learning.censored_fit"),
        (portfolio, "choose_backup", "portfolio.choose_backup"),
        (portfolio, "subset_search_exhaustive", "portfolio.subset_search"),
        (portfolio, "score_labels", "scoring.score_labels"),
        (portfolio.PortfolioSimulator, "__init__", "portfolio.simulator_init"),
        (runtimes.RuntimeMatrix, "restrict", "runtimes.restrict"),
        # _fit imports fit_gating from the hierarchy module at call time
        (hierarchy, "fit_gating", "hierarchy.fit_gating"),
        (features, "base_features", "features.static"),
        (features, "saps_probe", "probes.saps"),
        (features, "gsat_probe", "probes.gsat"),
        (features, "dpll_probe", "probes.dpll"),
    ]
    counters = [
        (learning, "truncated_normal_mean", "learning.truncated_normal_mean"),
        (runtimes.RuntimeMatrix, "get", "runtimes.get"),
        (scoring.ScoreContext, "virtual_total", "scoring.virtual_total"),
        (portfolio.PortfolioSimulator, "simulate", "portfolio.simulate"),
        (learning.RidgeModel, "predict", "learning.predict"),
        (hierarchy.HierarchicalModel, "predict", "hierarchy.predict"),
        (runners.SimulatedRunner, "run", "runners.run"),
        (runners.SimulatedRunner, "features", "runners.features"),
    ]
    for owner, attr, name in spans:
        tracer.patch(owner, attr, name, "span")
    for owner, attr, name in counters:
        tracer.patch(owner, attr, name, "counter")
    tracer.patch(portfolio, "enumerate_presolver_configs", "portfolio.schedules_enumerated", "size")
