"""Spans recorded from the benchmark's side of each layer boundary.

The program under ``src/`` is not edited.  Instead, a traced run wraps
the public functions of each layer (the table :data:`INSTRUMENTS`) in a
recorder: every call becomes a span with a name, a start and end on
``time.perf_counter`` (CLOCK_MONOTONIC, so spans from the benchmark
process and the program process share one time base), the id of the
enclosing span, and the gateway request id bound at the time.

The layer of a span is the part of its name before the first dot.
Self time is a span's duration minus the part of it covered by its
children.  The benchmark's own spans (layer ``bench``) are the roots:
each times one measured step.  :func:`reconcile` checks that the layer
spans under each root account for the root's duration: the root's own
self time is time no traced layer call covers, and a missing or
renamed layer function shows up there.
"""

from __future__ import annotations

import bisect
import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from typing import Any, Callable, Iterable

#: The layer of the benchmark's root spans.
ROOT_LAYER = "bench"

# (module, attribute path, span name).  The span name's prefix is the
# layer.  Request-path entries run inside the program's server.
INSTRUMENTS: tuple[tuple[str, str, str], ...] = (
    ("repro.io.serialize", "load_network", "io.load"),
    ("repro.io.serialize", "save_network", "io.save"),
    ("repro.graph.citation_network", "CitationNetwork.__init__", "graph.build"),
    ("repro.graph.builder", "NetworkBuilder.build", "graph.build"),
    ("repro.graph.matrix", "shared_operator", "graph.operator"),
    ("repro.serve.delta", "DeltaUpdater.extend_network", "graph.extend"),
    ("repro.core.fused", "FusedSolver.solve", "core.solve"),
    ("repro.core.power_iteration", "power_iterate", "core.scalar"),
    ("repro.eval.split", "split_by_ratio", "eval.split"),
    ("repro.eval.tuning", "tune_method", "eval.tune"),
    ("repro.eval.tuning", "evaluate_setting", "eval.evaluate"),
    ("repro.parallel.engine", "ExperimentEngine.map_evaluations", "parallel.map"),
    ("repro.serve.score_index", "ScoreIndex.add_method", "serve.index_add"),
    ("repro.serve.score_index", "ScoreIndex.save", "serve.index_save"),
    ("repro.serve.score_index", "ScoreIndex.load", "serve.index_load"),
    ("repro.serve.service", "RankingService.__init__", "serve.service"),
    ("repro.serve.service", "RankingService.top_k", "serve.top_k"),
    ("repro.serve.service", "RankingService.execute_batch", "serve.query"),
    ("repro.serve.service", "RankingService.update", "serve.update"),
    ("repro.serve.batch", "QueryEngine.execute_versioned", "serve.engine"),
    ("repro.serve.shard", "ShardedScoreIndex.sync", "serve.sync"),
    ("repro.serve.batch", "result_payload", "gateway.encode"),
    ("repro.stream.events", "EventLog.load", "stream.log_load"),
    ("repro.stream.ingest", "StreamIngestor.step", "stream.step"),
    ("repro.gateway.coalesce", "RequestCoalescer.submit", "gateway.coalesce"),
    ("repro.gateway.coalesce", "RequestCoalescer.exclusively", "gateway.update"),
)

_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _annotate(name: str, args: tuple, result: Any) -> dict[str, Any] | None:
    """Counts recorded at the boundary, next to the span."""
    if name == "core.solve":
        infos = [info for _, info in result]
        return {
            "columns": len(infos),
            "iterations": sum(int(info.iterations) for info in infos),
        }
    if name == "core.scalar":
        return {"iterations": int(result[1].iterations)}
    if name == "eval.tune":
        return {"points": len(result.sweep)}
    if name == "parallel.map":
        return {"points": len(args[2])}
    if name == "stream.step":
        return {"events": int(result.n_events), "version": int(result.version)}
    if name == "serve.query":
        return {"queries": len(args[1])}
    return None


class Tracer:
    """An in-memory span recorder; :meth:`install` wraps the layers."""

    def __init__(self, request_id: Callable[[], str | None]):
        """``request_id`` returns the gateway request id bound at a call."""
        self.spans: list[tuple] = []
        self.recording = False
        self._ids = itertools.count(1)
        self._request_id = request_id

    # -- recording ------------------------------------------------------
    def open(self, name: str) -> tuple[int, int | None, Any, float, contextvars.Token]:
        span_id = next(self._ids)
        parent = _CURRENT.get()
        token = _CURRENT.set(span_id)
        return span_id, parent, self._request_id(), time.perf_counter(), token

    def close(self, name: str, opened: tuple, attrs: dict | None) -> None:
        end = time.perf_counter()
        span_id, parent, rid, start, token = opened
        _CURRENT.reset(token)
        self.spans.append((span_id, parent, name, start, end, rid, attrs))

    @contextlib.contextmanager
    def span(self, name: str):
        """A root span of the benchmark's own, recorded while recording."""
        if not self.recording:
            yield
            return
        opened = self.open(name)
        try:
            yield
        finally:
            self.close(name, opened, {"root": True})

    # -- instrumentation --------------------------------------------------
    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                if not tracer.recording:
                    return await fn(*args, **kwargs)
                opened = tracer.open(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.close(name, opened, None)
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            opened = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                attrs = _annotate(name, args, result) if result is not None else None
                tracer.close(name, opened, attrs)
            return result
        return traced

    def install(self) -> None:
        """Wrap every function of :data:`INSTRUMENTS` where the program
        can reach it, for the life of the process.

        A module-level function is replaced in every loaded ``repro``
        module that imported it by name, so callers that did
        ``from module import name`` see the wrapper too.
        """
        for module_name, path, name in INSTRUMENTS:
            module = importlib.import_module(module_name)
            if "." in path:
                owner_name, attr = path.split(".")
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(raw.__func__, name))
                else:
                    replacement = self._wrap(raw, name)
                setattr(owner, attr, replacement)
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, name)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and \
                        getattr(loaded, path, None) is original:
                    setattr(loaded, path, wrapper)
        self._install_encode_probe()
        self._install_interval_probe()

    def _install_interval_probe(self) -> None:
        """Time the live updater's sleep between micro-batches
        (``GatewayConfig.update_interval``), a step of every catch-up.

        The updater sleeps through the ``asyncio`` name of its module,
        so the probe replaces that name in the module only.
        """
        updates = importlib.import_module("repro.gateway.updates")
        updates.asyncio = _proxy(updates.asyncio, sleep=self._wrap(
            updates.asyncio.sleep, "gateway.interval"))

    def _install_encode_probe(self) -> None:
        """Time the gateway's ``json.dumps`` of each response body.

        The gateway serialises inside a private method, so the probe
        replaces the ``json`` name in the gateway module only.
        """
        server = importlib.import_module("repro.gateway.server")
        server.json = _proxy(server.json, dumps=self._wrap(server.json.dumps,
                                                           "gateway.encode"))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _proxy(module: Any, **replaced: Callable) -> Any:
    """A stand-in for ``module`` with some of its names replaced."""
    class _Module:
        def __getattr__(self, attr):
            return getattr(module, attr)

    proxy = _Module()
    for attr, value in replaced.items():
        setattr(proxy, attr, value)
    return proxy


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "rid", "attrs", "children")

    def __init__(self, row):
        (self.id, self.parent, self.name, self.start, self.end,
         self.rid, self.attrs) = row
        self.attrs = self.attrs or {}
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(span: Span) -> float:
    """Length of the union of the children's intervals, clipped to ``span``."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in span.children
    )
    total = 0.0
    cursor = span.start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_time(span: Span) -> float:
    return span.duration - _covered(span)


def build_forest(rows: Iterable[tuple], external_roots: Iterable[tuple] = ()) -> list[Span]:
    """Link spans into trees under the root spans.

    Roots are the spans the benchmark opened around a measured step
    (marked ``root``) plus ``external_roots`` (the client side of each
    read, recorded in the benchmark process and carrying the request id
    it sent).  A span's parent is the span whose id it recorded.  A span
    recorded without a parent joins the external root with its request
    id; one with no request id joins the root whose interval contains it
    (the update batches of a catch-up).  Anything else (the gateway
    answering its own metrics endpoint) belongs to no measured step.
    """
    spans = [Span(row) for row in rows]
    by_id = {s.id: s for s in spans}
    roots = [s for s in spans if s.attrs.get("root")]
    external = [Span(row) for row in external_roots]
    by_rid = {s.rid: s for s in external}
    windows = sorted(roots, key=lambda s: s.start)
    starts = [s.start for s in windows]
    for span in spans:
        if span.attrs.get("root"):
            continue
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None and span.rid is not None:
            parent = by_rid.get(span.rid)
        elif parent is None:
            i = bisect.bisect_right(starts, span.start) - 1
            if i >= 0 and windows[i].end >= span.end:
                parent = windows[i]
        if parent is not None:
            parent.children.append(span)
    return roots + external


def walk(span: Span):
    yield span
    for child in span.children:
        yield from walk(child)


def layer_self_times(roots: Iterable[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for root in roots:
        for span in walk(root):
            layer = layer_of(span.name)
            totals[layer] = totals.get(layer, 0.0) + self_time(span)
    return totals


def name_self_times(roots: Iterable[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for root in roots:
        for span in walk(root):
            totals[span.name] = totals.get(span.name, 0.0) + self_time(span)
    return totals


def reconcile(roots: Iterable[Span]) -> float:
    """How far the layer spans miss the duration of the benchmark's steps.

    Over the ``bench`` roots: the share of their time that no layer
    span covers (their own self time), plus the share by which the
    layers' self times overrun the roots (overlapping or escaping
    spans).  Zero when the traced layer calls nest and cover every
    step end to end.
    """
    steps = [root for root in roots if layer_of(root.name) == ROOT_LAYER]
    total = sum(root.duration for root in steps)
    if total <= 0:
        return 1.0
    unattributed = sum(self_time(root) for root in steps)
    summed = sum(self_time(span) for root in steps for span in walk(root))
    return (unattributed + max(0.0, summed - total)) / total
