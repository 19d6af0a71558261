"""The program process: runs the repo's code, one command at a time.

``run.py`` starts this script, so the program's memory and CPU are
those of a process that did not generate the inputs.  Commands arrive
as JSON lines on stdin and each gets one JSON line on stdout; the
program's own logs go to stderr.  Serving commands host the gateway in
this process (:class:`repro.gateway.GatewayThread`) in the documented
production posture: INFO JSON logs, metrics, 1-in-20 request traces,
profiler off.

Usage: ``python3 perfbench/runner.py --cpu N [--trace]``.  The process
runs on CPU ``N`` only (``harness.PROGRAM_CPU``), but for the parallel
protocol.  With ``--trace``
the layer functions are wrapped (see :mod:`tracing`) before the first
command; recording is switched on and off by the ``trace`` command.

Offline jobs (rank, reopen, the serial protocol, replay slices) run in
the calling thread (``solver_jobs`` 1) and reply with the thread's CPU
time (``time.thread_time``), which leaves out time the thread spends
descheduled.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ALL_CPUS = os.sched_getaffinity(0)
# Pinned before numpy starts threads, so that every thread is pinned.
os.sched_setaffinity(0, {int(sys.argv[sys.argv.index("--cpu") + 1])})
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import repro.baselines  # noqa: E402,F401  (imported before wrapping)
import repro.core  # noqa: E402,F401
import repro.eval.experiment  # noqa: E402,F401
import repro.gateway  # noqa: E402
import repro.parallel  # noqa: E402
import repro.stream  # noqa: E402
from repro.eval.metrics import NDCG  # noqa: E402
from repro.io import serialize  # noqa: E402
from repro.obs import configure_logging, enable_tracing  # noqa: E402
from repro.obs.logging import current_request_id  # noqa: E402
from repro.serve import score_index, service as service_module  # noqa: E402

import gates  # noqa: E402
from tracing import Tracer  # noqa: E402

#: The gateway's documented production posture.
TRACE_SAMPLE = 0.05


class Clock:
    """Wall and calling-thread CPU time of a ``with`` block."""

    def __enter__(self) -> "Clock":
        self._wall, self._cpu = time.perf_counter(), time.thread_time()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.cpu = time.thread_time() - self._cpu
        self.wall = self.end - self._wall


class Program:
    """The program's state between commands; each public method is a command."""

    def __init__(self, traced: bool) -> None:
        self.tracer = Tracer(request_id=current_request_id)
        if traced:
            self.tracer.install()
        self.solved = None
        self.gateway = None
        self.ingestor = None
        self.replayer = None
        self.catchup: dict | None = None
        # The documented production posture, for every phase alike.
        configure_logging("INFO", json=True, stream=sys.stderr)
        enable_tracing(256, sample=TRACE_SAMPLE)

    # -- offline ranking --------------------------------------------------
    def rank(self, network: str, index: str, methods: list[str]) -> dict:
        with self.tracer.span("bench.rank"), Clock() as clock:
            solved = score_index.ScoreIndex(serialize.load_network(network))
            for label in methods:
                solved.add_method(label)
            solved.save(index)
        self.solved = solved
        return {"rank_s": clock.cpu, "index_bytes": os.path.getsize(index)}

    def open(self, index: str, method: str, k: int, times: int) -> dict:
        """Reopen ``index`` ``times`` times; ``open_s`` is the mean."""
        cpu, problems = 0.0, []
        for _ in range(times):
            with self.tracer.span("bench.open"), Clock() as clock:
                reloaded = score_index.ScoreIndex.load(index)
                loaded = time.perf_counter()
                service = service_module.RankingService(reloaded)
                page = service.top_k(method, k=k)
            cpu += clock.cpu
            problems += gates.index_mismatches(self.solved, reloaded)
            if len(page.entries) != min(k, reloaded.network.n_papers):
                problems.append("first page is short")
        return {
            "open_s": cpu / times,
            "first_query_s": clock.end - loaded,
            "mismatches": problems,
        }

    # -- the paper's protocol ------------------------------------------------
    def protocol(self, network: str, jobs: int, ratios: list[float], serial: bool) -> dict:
        net = serialize.load_network(network)
        with self.tracer.span("bench.protocol"), Clock() as clock:
            if serial:
                series = repro.eval.experiment.compare_over_ratios(
                    net, metric=NDCG(50), test_ratios=ratios
                )
            else:
                # The workers are forked from this thread and keep its CPUs.
                pinned = os.sched_getaffinity(0)
                os.sched_setaffinity(0, ALL_CPUS)
                try:
                    series = repro.parallel.ExperimentEngine(jobs=jobs).compare_over_ratios(
                        net, metric=NDCG(50), test_ratios=ratios
                    )
                finally:
                    os.sched_setaffinity(0, pinned)
        return {"protocol_s": clock.wall, "protocol_cpu_s": clock.cpu,
                "cells": gates.protocol_cells(series)}

    # -- in-process stream replay (no server) -------------------------------
    def replay_start(self, log: str, bootstrap: int, methods: list[str]) -> dict:
        events = repro.stream.EventLog.load(log)
        self.replayer = repro.stream.StreamIngestor(events, methods, bootstrap_size=bootstrap)
        self.replayer.step()
        return {"offset": self.replayer.offset}

    def replay_step(self, batches: int) -> dict:
        with self.tracer.span("bench.replay"), Clock() as clock:
            report = self.replayer.replay(max_batches=batches)
        return {"events": report.n_events, "batches": report.n_batches,
                "ingest_cpu_s": clock.cpu}

    def replay_check(self) -> dict:
        """Finalize the replay and compare it with a batch compute of
        the events it consumed."""
        replayer = self.replayer
        replayer.finalize()
        consumed = repro.stream.EventLog(replayer.log.events[: replayer.offset])
        reference = repro.stream.batch_compute(consumed, list(replayer.index.labels))
        problems = gates.scores_mismatches(
            {m: replayer.index.scores(m) for m in replayer.index.labels},
            {m: reference.scores(m) for m in reference.labels},
        )
        return {"batches": replayer.batches_applied, "mismatches": problems}

    # -- serving ---------------------------------------------------------------
    def serve(self, network: str, methods: list[str]) -> dict:
        with self.tracer.span("bench.setup"):
            net = serialize.load_network(network)
            index = score_index.ScoreIndex(net)
            for label in methods:
                index.add_method(label)
            service = service_module.RankingService(index)
        self.gateway = repro.gateway.GatewayThread(
            service, config=repro.gateway.GatewayConfig(port=0)
        ).start()
        return {"port": self.gateway.port}

    def ingest(self, log: str, bootstrap: int, methods: list[str]) -> dict:
        with self.tracer.span("bench.setup"):
            events = repro.stream.EventLog.load(log)
            self.ingestor = repro.stream.StreamIngestor(
                events, methods, bootstrap_size=bootstrap
            )
            self.ingestor.step()
        ingestor = self.ingestor
        catchup = {"events": len(events) - ingestor.offset, "done": threading.Event()}
        step = ingestor.step

        def step_and_mark_the_end():
            report = step()
            if ingestor.exhausted:
                # The catch-up ends when the step that took the log's
                # last event returns.
                catchup["finished"] = time.perf_counter()
                catchup["done"].set()
            return report

        ingestor.step = step_and_mark_the_end
        self.catchup = catchup
        catchup["started"] = time.perf_counter()
        self.gateway = repro.gateway.GatewayThread(
            ingestor.service,
            config=repro.gateway.GatewayConfig(port=0),
            ingestor=ingestor,
        ).start()
        return {"port": self.gateway.port}

    def wait_ingest(self, timeout: float) -> dict:
        catchup = self.catchup
        if not catchup["done"].wait(timeout):
            return {"error": "catch-up did not finish in time"}
        started, finished = catchup["started"], catchup["finished"]
        if self.tracer.recording:
            # The catch-up is a step of the benchmark's: the updater's
            # batches and sleeps must cover it.
            self.tracer.spans.append(
                (0, None, "bench.catchup", started, finished, None, {"root": True})
            )
        return {
            "ingest_s": finished - started,
            "events": catchup["events"],
            "batches": self.gateway.server.updater.batches_applied,
        }

    def stop(self) -> dict:
        if self.gateway is not None:
            self.gateway.stop()
            self.gateway = None
        return {}

    def finalize(self, out: str) -> dict:
        self.ingestor.finalize()
        index = self.ingestor.index
        np.savez(out, **{label: index.scores(label) for label in index.labels})
        return {}

    # -- tracing ---------------------------------------------------------------
    def trace(self, on: bool) -> dict:
        self.tracer.recording = bool(on)
        return {}

    def dump(self, path: str) -> dict:
        self.tracer.dump(path)
        return {"spans": len(self.tracer.spans)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    program = Program(args.trace)
    out = sys.stdout
    out.write(json.dumps({"ready": time.perf_counter()}) + "\n")
    out.flush()
    for line in sys.stdin:
        command = json.loads(line)
        op = command.pop("op")
        if op == "exit":
            program.stop()
            break
        try:
            reply = getattr(program, op)(**command)
        except Exception as error:  # reported to the benchmark, which fails the run
            reply = {"error": f"{type(error).__name__}: {error}"}
        out.write(json.dumps(reply) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
