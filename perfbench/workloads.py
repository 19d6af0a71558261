"""The workloads, their end-to-end metrics and their traced runs.

Every run reports every end-to-end metric, so every run exercises every
path the metrics name.  A workload is a corpus scale and a main phase;
the other paths run as short probes on the ``medium`` corpus (the
protocol on ``small`` networks).  Main phase and probes alternate in
rounds, so each metric is sampled across the whole run (see
:meth:`Probes.put` for how samples combine).  Every time but the
catch-up's is scaled to the reference machine's speed
(``harness.calibration``).

===========  ==================================  ==========================
workload     main phase (per round)              probes (per round)
===========  ==================================  ==========================
rank_scale   rank + reopen, 100k papers          protocol (one test
                                                 ratio) twice, a read
                                                 leg, a replay slice
ingest_live  catch-up of the ``small`` log's     a read leg, rank +
             second half beside reads            reopen, protocol (one
                                                 test ratio) twice
===========  ==================================  ==========================

With ``--trace 1`` the same rounds run, and the program records spans
in every second round: the span trees and the generator's own figures
come from the traced rounds, every other figure from the untraced ones.
The correctness gates run after the rounds, outside every timed region.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import gates
import loadgen
import tracing
from harness import (BenchError, Runner, at_reference_speed, calibrations, first_ok,
                     http_get, median)
from repro.gateway.loadgen import _ReplicaAtVersion, _target_of

METHODS = ["AR", "PR", "CC"]
#: Nominal read rate (requests/second), well below the highest rate that
#: meets the latency objective (about 1000/s on the reference machine),
#: so that a slower moment of a shared machine does not saturate it.
NOMINAL_RATE = 200
CATALOGUE_SIZE = 1000
#: Popularity skew within each kind of query.  An assumption, not a measurement:
#: no public query log of a scholarly ranking service is at hand to set
#: it from.  It sets the repeat share of the reads and so the LRU's hit
#: ratio, which ``read_cpu_ms`` depends on.
ZIPF_EXPONENT = 1.1
WARMUP_SECONDS = 0.3
#: A read leg lasts ``--seconds`` divided by this.
LEGS_PER_RUN_SECONDS = 7
WINDOW_SECONDS = 2.0
#: The rate ladder starts here (``loadgen.climb_ladder``).
LADDER_START = 800
RUNG_SECONDS = 0.4
SCALE_PAPERS = 100_000
#: The protocol probe tunes every method at this one test ratio.  It is
#: timed serially: on nproc workers the protocol needs every core of a
#: shared machine at once, and its time spread 0.16-0.28 of its median
#: over 10 runs; the traced run reports that time as parallel.speedup.
PROBE_RATIOS = [1.6]
#: Protocol probes per round, each on another network: the protocol's
#: cost varies by about a quarter from one network to the next (solver
#: iterations), so a run takes the mean over many.
PROTOCOLS_PER_ROUND = 2
#: Reopenings per ``open_s`` sample, by corpus: a ``medium`` index
#: reopens in ~50 ms, too short next to the calibration unit.
OPENS_PER_SAMPLE = {"medium": 5}
#: Reads beside ingest: every read waits behind update batches, so the
#: read path saturates far below ``NOMINAL_RATE``.
INGEST_READ_RATE = 100
#: Calibration units just before and just after each timed step; the
#: step is scaled by their median (one unit is a noisy gauge).
CALIBRATION_UNITS = 3
#: Largest share of the traced steps' time that the layer spans may
#: leave uncovered (``tracing.reconcile``).
RECONCILE_TOLERANCE = 0.02
PAGE = "/v1/top?method=AR&k=10&offset=0"



@dataclass(frozen=True)
class Profile:
    """Corpus sizes and repetition counts of a run."""

    #: rank_scale's main corpus (``scale`` is ``SCALE_PAPERS`` papers).
    scale: str
    #: The corpus of the probes and of the served static index.
    probe: str
    #: The corpus of the protocol probe.
    protocol: str
    #: ingest_live catches up the second half of this corpus's log.
    ingest: str
    rank_rounds: int
    ingest_rounds: int
    #: Micro-batches per replay slice (rank_scale).
    replay_batches: int


FULL = Profile(scale="scale", probe="medium", protocol="small", ingest="small",
               rank_rounds=4, ingest_rounds=3, replay_batches=60)
#: A quick pass over every code path, for the benchmark's own tests.
SMOKE = Profile(scale="tiny", probe="tiny", protocol="tiny", ingest="tiny",
                rank_rounds=1, ingest_rounds=1, replay_batches=5)

END_TO_END = {
    "setup_s": "s",
    "rss_mb": "MB",
    "rank_s": "s",
    "open_s": "s",
    "protocol_s": "s",
    "read_cpu_ms": "ms",
    "ingest_events_per_s": "1/s",
}

#: Read latency and the ladder's rate move with how much CPU a shared
#: machine lends the program at the moment (10 runs spread 0.3-0.9 of
#: their median), so they are reported by the traced run, unbounded.
PER_LAYER = {
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "read_max_rps": "1/s",
    "io.load_s": "s",
    "graph.build_s": "s",
    "graph.operator_s": "s",
    "graph.extend_s": "s",
    "core.solve_s": "s",
    "core.iterations": "count",
    "core.fused_columns": "count",
    "core.scalar_solves": "count",
    "eval.split_s": "s",
    "eval.tune_s": "s",
    "eval.grid_points": "count",
    "parallel.serial_s": "s",
    "parallel.speedup": "ratio",
    "serve.index_save_s": "s",
    "serve.index_load_s": "s",
    "serve.index_bytes": "bytes",
    "serve.first_query_s": "s",
    "serve.cache_hit_ratio": "ratio",
    "serve.cache_lookups": "count",
    "serve.query_s": "s",
    "serve.engine_s": "s",
    "serve.update_s": "s",
    "serve.sync_s": "s",
    "stream.log_load_s": "s",
    "stream.step_p50_s": "s",
    "stream.step_p99_s": "s",
    "stream.batches": "count",
    "stream.events": "count",
    "gateway.server_p50_ms": "ms",
    "gateway.batch_mean": "count",
    "gateway.shed": "count",
    "gateway.encode_s": "s",
    "gateway.update_hold_s": "s",
    "loadgen.late_p99_ms": "ms",
    "loadgen.backlog": "count",
    "loadgen.repeat_share": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.reconcile_error": "ratio",
}


# ----------------------------------------------------------------------
# Inputs: generated from the seed, outside every timed region
# ----------------------------------------------------------------------
class Inputs:
    """Seeded input files; the program receives only these files.

    Files are kept in ``directory`` (one per seed) and reused by later
    runs with the same seed, which only saves generation time: the same
    seed gives the same files either way.
    """

    def __init__(self, directory: str, seed: int) -> None:
        self.directory = directory
        self.seed = seed
        self._objects: dict[str, Any] = {}
        os.makedirs(directory, exist_ok=True)

    def _file(self, name: str, write: Callable[[str], None]) -> str:
        path = os.path.join(self.directory, name)
        if not os.path.exists(path):
            partial = f"{path}.{os.getpid()}.part"
            write(partial)
            os.replace(partial, path)
        return path

    def network(self, size: str, variant: int = 0) -> str:
        """A synthetic hep-th network; ``size`` is a profile size or ``scale``.

        ``variant`` draws another network of the same size from the seed.
        """
        def write(path: str) -> None:
            from repro.io.serialize import network_payload
            from repro.synth import generate_dataset

            seed = self.seed + 1_000_003 * variant
            if size == "scale":
                net = generate_dataset("hep-th", n_papers=SCALE_PAPERS, seed=seed)
            else:
                net = generate_dataset("hep-th", size=size, seed=seed)
            with open(path, "wb") as handle:  # keeps the name np.savez would extend
                np.savez_compressed(handle, **network_payload(net))
            if not variant:
                self._objects[size] = net

        suffix = f"-{variant}" if variant else ""
        return self._file(f"network-{size}{suffix}.npz", write)

    def corpus(self, size: str):
        path = self.network(size)
        if size not in self._objects:
            from repro.io import load_network

            self._objects[size] = load_network(path)
        return self._objects[size]

    def log(self, size: str) -> tuple[str, int]:
        """The event log of a network, and its bootstrap (first half)."""
        def write(path: str) -> None:
            from repro.stream import EventLog

            log = EventLog.from_network(self.corpus(size))
            log.save(path)
            self._objects[f"log-{size}"] = log

        path = self._file(f"events-{size}.jsonl", write)
        key = f"log-{size}"
        if key not in self._objects:
            from repro.stream import EventLog

            self._objects[key] = EventLog.load(path)
        return path, len(self._objects[key]) // 2

    def event_log(self, size: str):
        self.log(size)
        return self._objects[f"log-{size}"]

    def catalogue(self, size: str) -> tuple[list[dict[str, Any]], dict[str, int]]:
        """The read catalogue, over the papers in the first half of the
        corpus's event log (every served version contains them), and the
        plan's draws of each kind (``loadgen.build_catalogue``)."""
        from repro.stream.events import PaperEvent

        net = self.corpus(size)
        log = self.event_log(size)
        ids = [e.paper_id for e in log.events[: len(log) // 2] if isinstance(e, PaperEvent)]
        times = net.publication_times
        return loadgen.build_catalogue(
            random.Random(self.seed * 7919 + 1), METHODS, ids,
            (float(times.min()), float(times.max())), CATALOGUE_SIZE,
        )


class Result:
    """Metrics, operation counts and gate findings of one run."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, attempted: int, problems: list[str], what: str) -> None:
        self.attempted += attempted
        self.failed += len(problems)
        self.problems.extend(f"{what}: {p}" for p in problems[:5])


class Run:
    """One benchmark invocation: seed, measuring time, work directory."""

    def __init__(self, workdir: str, inputs_dir: str, seed: int, seconds: float,
                 traced: bool, profile: Profile = FULL) -> None:
        self.workdir = workdir
        self.profile = profile
        self.seed = seed
        self.traced = traced
        self.leg_seconds = seconds / LEGS_PER_RUN_SECONDS
        self.inputs = Inputs(inputs_dir, seed)
        self.result = Result()
        self.rng = random.Random(seed)
        #: Whether the program records spans in the current round.
        self.recording = False
        self.setup_samples: list[float] = []

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


# ----------------------------------------------------------------------
# Rounds, probes and reads
# ----------------------------------------------------------------------
@contextlib.contextmanager
def phase(name: str):
    """Log a phase's wall time on stderr (the result line is on stdout)."""
    started = time.perf_counter()
    yield
    print(f"phase {name}: {time.perf_counter() - started:.2f}s", file=sys.stderr)


def rounds(run: Run, runner: Runner, count: int, start: Callable[[Runner], float]):
    """The rounds of a run.

    In an untraced run every second round but the last ends by setting
    up one more fresh program (``set_up``) and closing it, so the
    ``setup_s`` samples are spread over the run like every other sample.  With
    ``--trace 1`` the program records spans in every second round (at
    least one of each kind), so each traced round has untraced
    neighbours to compare with; every sample is kept with whether it
    was recorded (``run.recording``).
    """
    if run.traced:
        count = max(2, count)
    for round_ in range(count):
        run.recording = run.traced and round_ % 2 == 1
        if run.traced:
            runner.call("trace", on=run.recording)
        with phase(f"round {round_}" + (" (traced)" if run.recording else "")):
            yield round_
        if not run.traced and round_ % 2 == 0 and round_ < count - 1:
            set_up(run, start).close()
    run.recording = False
    if run.traced:
        runner.call("trace", on=False)
    run.result.put("setup_s", median(run.setup_samples), "s")


class Probes:
    """The offline steps one program process runs, round after round.

    Each call appends a sample, marked traced or not; :meth:`put`
    reports the median of the untraced ones.
    """

    def __init__(self, run: Run, runner: Runner) -> None:
        self.run = run
        self.runner = runner
        self.samples: dict[str, list[tuple[float, bool]]] = defaultdict(list)
        self.replies: dict[str, list[dict]] = defaultdict(list)

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append((value, self.run.recording))

    def call(self, op: str, **arguments: Any) -> dict:
        """A program command, with the host's speed around it: the median
        time of the calibration units just before and after, in this
        process (``calibration_s``)."""
        before = calibrations(CALIBRATION_UNITS)
        reply = self.runner.call(op, **arguments)
        reply["calibration_s"] = median(before + calibrations(CALIBRATION_UNITS))
        return reply

    def values(self, name: str, traced: bool = False) -> list[float]:
        return [value for value, recorded in self.samples[name] if recorded == traced]

    def rank(self, size: str, opens: int) -> None:
        """Rank (load, solve, save), then take ``opens`` reopening
        samples."""
        network = self.run.inputs.network(size)
        index = self.run.path(f"index-{size}.npz")
        ranked = self.call("rank", network=network, index=index, methods=METHODS)
        self.sample("rank_s", at_reference_speed(ranked["rank_s"], ranked["calibration_s"]))
        self.replies["rank"].append(ranked)
        self.run.result.check(1, [], "rank")
        for _ in range(opens):
            self.open(size)

    def open(self, size: str) -> None:
        """One reopening sample of the index the last :meth:`rank` of
        ``size`` saved: the mean over enough reopenings to last about a
        quarter of a second, so the calibration around it is short next
        to it (``OPENS_PER_SAMPLE``)."""
        times = OPENS_PER_SAMPLE.get(size, 1)
        opened = self.call("open", index=self.run.path(f"index-{size}.npz"),
                           method="AR", k=10, times=times)
        self.sample("open_s", at_reference_speed(opened["open_s"], opened["calibration_s"]))
        self.replies["open"].append(opened)
        self.run.result.check(times, opened["mismatches"], f"reloaded index ({size})")

    def protocol(self, size: str) -> None:
        """The paper's protocol at ``PROBE_RATIOS`` as the library runs it,
        serially (``repro.eval.compare_over_ratios``, fused grid solves).

        Each call tunes on another network of ``size`` drawn from the
        seed: the protocol's cost depends on the network, and a median
        over several networks keeps one network from setting a run's
        figure.
        """
        variant = len(self.replies["protocol"])
        reply = self.call("protocol", network=self.run.inputs.network(size, variant),
                          jobs=1, ratios=PROBE_RATIOS, serial=True)
        self.sample("protocol_s", at_reference_speed(reply["protocol_cpu_s"],
                                                     reply["calibration_s"]))
        self.sample("protocol_wall_s", reply["protocol_s"])
        self.replies["protocol"].append(reply)

    def protocol_gate(self, size: str) -> dict:
        """The same protocol on ``nproc`` worker processes
        (``ExperimentEngine``) must choose what the serial run chose on
        the same network."""
        parallel = self.runner.call("protocol", network=self.run.inputs.network(size),
                                    jobs=os.cpu_count() or 1, ratios=PROBE_RATIOS,
                                    serial=False)
        cells = sum(len(v) for v in parallel["cells"].values())
        self.run.result.check(
            cells, gates.protocol_mismatches(parallel["cells"], self.replies["protocol"][0]["cells"]),
            f"protocol ({size})")
        return parallel

    def replay_start(self, size: str) -> None:
        log, bootstrap = self.run.inputs.log(size)
        self.runner.call("replay_start", log=log, bootstrap=bootstrap, methods=METHODS)

    def replay(self, batches: int) -> None:
        """The next ``batches`` micro-batches of the log, in process."""
        reply = self.call("replay_step", batches=batches)
        self.sample("ingest_s", at_reference_speed(reply["ingest_cpu_s"], reply["calibration_s"]))
        self.sample("ingest_events", reply["events"])

    def replay_gate(self) -> None:
        reply = self.runner.call("replay_check")
        self.run.result.check(reply["batches"], reply["mismatches"], "replay finalize")

    def put(self) -> None:
        """The end-to-end figures of the untraced samples.

        Repeats of one step on one input (ranking, reopening) report
        their median.  Steps over inputs that differ from sample to
        sample (the protocol over networks, ingest over a log's slices)
        report their total work over their total time.
        """
        for name in ("rank_s", "open_s", "protocol_s", "ingest_s"):
            print(f"samples {name}: {json.dumps(self.values(name))}", file=sys.stderr)
        result = self.run.result
        result.put("rank_s", median(self.values("rank_s")), "s")
        result.put("open_s", median(self.values("open_s")), "s")
        result.put("protocol_s", statistics.fmean(self.values("protocol_s")), "s")
        result.put("ingest_events_per_s",
                   sum(self.values("ingest_events")) / sum(self.values("ingest_s")), "1/s")

    def overhead(self, name: str) -> float:
        """Traced over untraced median of a step's time."""
        return median(self.values(name, traced=True)) / median(self.values(name))


class Reads:
    """Read traffic against one served corpus, and its verification."""

    def __init__(self, run: Run, size: str) -> None:
        self.run = run
        self.catalogue, draws = run.inputs.catalogue(size)
        self.targets = [_target_of(q) for q in self.catalogue]
        self.popularity = loadgen.Popularity(self.catalogue, draws, ZIPF_EXPONENT)
        self.connections = os.cpu_count() or 1
        #: Every leg sent, for the gate.
        self.legs: list[loadgen.Leg] = []
        #: The measured legs (not warm-ups or ladder rungs).
        self.measured: list[loadgen.Leg] = []
        #: Program CPU per answered read of each measured leg, and
        #: whether the leg was traced.
        self.cpu_ms: list[tuple[float, bool]] = []
        self.max_rps: list[float] = []

    def leg(self, port: int, seconds: float, rate: float = NOMINAL_RATE, *,
            stop: threading.Event | None = None, prefix: str = "n") -> loadgen.Leg:
        schedule = loadgen.poisson_schedule(self.run.rng, rate, seconds, self.popularity)
        leg = loadgen.run_leg(port, self.connections, self.targets, schedule,
                              rate, seconds, stop=stop, rid_prefix=prefix)
        leg.traced = self.run.recording
        self.legs.append(leg)
        return leg

    def warm(self, port: int) -> None:
        """A short unmeasured leg: the first reads build each method's
        ranking lazily, which a long-running server pays once."""
        self.leg(port, WARMUP_SECONDS, prefix=f"w{len(self.legs)}-")

    def nominal(self, runner: Runner, seconds: float) -> loadgen.Leg:
        """A measured leg at the nominal rate, with program CPU per read."""
        before = calibrations(CALIBRATION_UNITS)
        cpu = runner.cpu_seconds()
        leg = self.leg(runner.port, seconds, prefix=f"n{len(self.legs)}-")
        per_read = (runner.cpu_seconds() - cpu) / max(1, len(leg.ok))
        speed = median(before + calibrations(CALIBRATION_UNITS))
        self.cpu_ms.append((at_reference_speed(per_read, speed) * 1e3, leg.traced))
        self.measured.append(leg)
        return leg

    def beside(self, runner: Runner, stop: threading.Event, prefix: str) -> loadgen.Leg:
        """A measured leg at ``INGEST_READ_RATE`` that ends with ``stop``."""
        leg = self.leg(runner.port, 150.0, INGEST_READ_RATE, stop=stop, prefix=prefix)
        self.measured.append(leg)
        return leg

    def traced_legs(self, traced: bool) -> list[loadgen.Leg]:
        return [leg for leg in self.measured if leg.traced == traced]

    def ladder(self, port: int) -> None:
        """One climb of the rate ladder, untraced."""
        best, rungs = loadgen.climb_ladder(port, self.connections, self.targets,
                                           self.run.rng, self.popularity, RUNG_SECONDS,
                                           LADDER_START)
        self.legs.extend(rungs)
        if best is None:
            raise BenchError("no ladder rate met the latency objective")
        self.max_rps.append(best.achieved_rate())

    def put_max_rps(self) -> None:
        """The top passing rung's answer rate."""
        self.run.result.put("read_max_rps", median(self.max_rps), "1/s")

    def put_latency(self) -> None:
        """p50 and p99 of the untraced measured reads, each timed from
        when it was due.

        Both are medians over ``WINDOW_SECONDS`` windows of each window's
        quantile, so one stall of a shared machine moves one window.
        """
        windows = [w for leg in self.traced_legs(False) for w in leg.windows(WINDOW_SECONDS)]
        if not windows:
            raise BenchError("no answered reads to take quantiles of")
        for name, q in (("read_p50_ms", 0.5), ("read_p99_ms", 0.99)):
            self.run.result.put(name, median(loadgen.quantile(w, q) for w in windows) * 1e3, "ms")
        print(f"reads: {sum(map(len, windows))} latency samples in {len(windows)} windows",
              file=sys.stderr)

    def put_cpu(self) -> None:
        print(f"samples read_cpu_ms: {json.dumps(self.cpu_ms)}", file=sys.stderr)
        self.run.result.put("read_cpu_ms", median(
            value for value, traced in self.cpu_ms if not traced), "ms")

    def verify(self, service_at: Callable[[int], Any]) -> None:
        """Compare every response with a direct call at its version."""
        records = [r for leg in self.legs for r in leg.records]
        answered = [
            {"request": self.catalogue[r.query], "status": 200,
             "version": r.document.get("version"), "result": r.document.get("result")}
            for r in records if r.status == 200
        ]
        problems = [f"status {r.status}" for r in records if r.status != 200]
        problems += ["response differs from a direct call"] * gates.read_mismatches(
            answered, service_at)
        self.run.result.check(len(records), problems, "reads")

    def repeat_share(self, leg: loadgen.Leg) -> float:
        seen: set[int] = set()
        repeats = 0
        for record in sorted(leg.records, key=lambda r: r.due):
            repeats += record.query in seen
            seen.add(record.query)
        return repeats / max(1, len(leg.records))


def static_service(run: Run, size: str):
    """A direct :class:`RankingService` over the served corpus."""
    from repro.serve import RankingService, ScoreIndex

    index = ScoreIndex(run.inputs.corpus(size))
    for label in METHODS:
        index.add_method(label)
    return RankingService(index)


def verify_static(run: Run, reads: Reads, size: str) -> None:
    with phase(f"verify reads ({size})"):
        service = static_service(run, size)
        reads.verify(lambda v: service if v == service.version else None)


def cache_counts(port: int) -> tuple[int, int]:
    _, document = http_get(port, "/v1/metrics")
    cache = document.get("result_cache") or {}
    return int(cache.get("hits", 0)), int(cache.get("misses", 0))


def serve(run: Run, runner: Runner, size: str) -> float:
    """Start serving a static index; returns when it answered a page."""
    runner.port = runner.call("serve", network=run.inputs.network(size),
                              methods=METHODS)["port"]
    return first_ok(runner.port, PAGE)


def ingest(run: Run, runner: Runner) -> float:
    """Serve the log's first half while the rest streams in; returns
    when the server answered a page."""
    log, bootstrap = run.inputs.log(run.profile.ingest)
    runner.port = runner.call("ingest", log=log, bootstrap=bootstrap,
                              methods=METHODS)["port"]
    return first_ok(runner.port, PAGE)


def catch_up(runner: Runner, reads: Reads, prefix: str) -> dict:
    """Reads at the ingest rate until the server's updater is done."""
    done = threading.Event()
    outcome: dict[str, Any] = {}

    def wait() -> None:
        try:
            outcome.update(runner.call("wait_ingest", timeout=150))
        except BenchError as error:
            outcome["error"] = str(error)
        finally:
            done.set()

    waiter = threading.Thread(target=wait)
    waiter.start()
    reads.beside(runner, done, prefix)
    waiter.join()
    if "error" in outcome:
        raise BenchError(outcome["error"])
    return outcome


def check_ingest(run: Run, runner: Runner, reads: Reads, batches: int) -> None:
    """Every read against a replica at its version; finalize vs batch."""
    from repro.stream import StreamIngestor, batch_compute

    log = run.inputs.event_log(run.profile.ingest)
    replica = StreamIngestor(log, METHODS, bootstrap_size=len(log) // 2)
    reads.verify(_ReplicaAtVersion(replica))
    out = run.path("finalized.npz")
    runner.call("finalize", out=out)
    with np.load(out) as saved:
        finalized = {label: saved[label] for label in saved.files}
    reference = batch_compute(log, METHODS)
    want = {label: reference.scores(label) for label in METHODS}
    run.result.check(batches, gates.scores_mismatches(finalized, want), "finalized scores")


def set_up(run: Run, start: Callable[[Runner], float]) -> Runner:
    """A fresh program process, prepared by ``start``.

    ``start`` returns the moment the program is ready for the first
    timed operation; the time from spawning the process to then is one
    ``setup_s`` sample.
    """
    with phase(f"set-up {len(run.setup_samples)}"):
        # Calibrated before the spawn only: once ready, ingest_live's
        # program is busy catching up.
        speed = median(calibrations(CALIBRATION_UNITS))
        runner = Runner(run.workdir, traced=run.traced)
        run.setup_samples.append(at_reference_speed(start(runner) - runner.spawned, speed))
    return runner


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def rank_scale(run: Run) -> None:
    """Offline ranking at the scale tier: the ``repro index`` job
    (load, solve AR/PR/CC cold, save) and reopening, at 100k papers."""
    profile = run.profile
    with phase("inputs"):
        run.inputs.network(profile.scale)
        run.inputs.log(profile.probe)
        for variant in range(PROTOCOLS_PER_ROUND * max(2, profile.rank_rounds)):
            run.inputs.network(profile.protocol, variant)
    reads = Reads(run, profile.probe)

    def start(runner: Runner) -> float:
        return runner.ready

    with set_up(run, start) as runner:
        serve(run, runner, profile.probe)
        reads.warm(runner.port)
        probes = Probes(run, runner)
        probes.replay_start(profile.probe)
        before = cache_counts(runner.port)
        for _ in rounds(run, runner, profile.rank_rounds, start):
            # Short steps, spread over the round: the host's speed drifts.
            probes.rank(profile.scale, opens=1)
            probes.protocol(profile.protocol)
            reads.nominal(runner, run.leg_seconds)
            probes.open(profile.scale)
            probes.protocol(profile.protocol)
            probes.replay(profile.replay_batches)
        run.result.put("rss_mb", runner.peak_rss_mb(), "MB")
        if run.traced:
            gateway_metrics(run, runner.port, before)
            spans = load_spans(runner, run)
            reads.ladder(runner.port)
        runner.call("stop")
        with phase("gates"):
            parallel = probes.protocol_gate(profile.protocol)
            probes.replay_gate()
    verify_static(run, reads, profile.probe)
    probes.put()
    reads.put_cpu()
    if run.traced:
        traced_rounds = len(probes.values("rank_s", traced=True))
        put_layers(run, probes, reads, parallel, spans,
                   batches=profile.replay_batches * traced_rounds, ops=traced_rounds)
        run.result.put("trace.overhead_ratio", probes.overhead("rank_s"), "ratio")


def ingest_live(run: Run) -> None:
    """A live server restarted from the first half of its event log
    catches up the second half while answering reads."""
    profile = run.profile
    with phase("inputs"):
        run.inputs.log(profile.ingest)
        for variant in range(PROTOCOLS_PER_ROUND * max(2, profile.ingest_rounds)):
            run.inputs.network(profile.protocol, variant)
    reads = Reads(run, profile.ingest)
    after = Reads(run, profile.ingest)
    batches = 0

    def start(runner: Runner) -> float:
        return ingest(run, runner)

    with set_up(run, start) as runner:
        probes = Probes(run, runner)
        for round_ in rounds(run, runner, profile.ingest_rounds, start):
            # Every round restarts the server.  The catch-up's time is
            # not scaled to the reference speed: it did not follow the
            # calibration unit (see perfbench/README.md).
            runner.call("stop")
            ingest(run, runner)
            before = cache_counts(runner.port)
            catchup = catch_up(runner, reads, f"c{round_}-")
            probes.sample("ingest_s", catchup["ingest_s"])
            probes.sample("ingest_events", catchup["events"])
            if run.recording:
                gateway_metrics(run, runner.port, before)
                batches += catchup["batches"]
            # The caught-up server now serves a static index.
            after.warm(runner.port)
            after.nominal(runner, run.leg_seconds)
            # Short steps, spread over the round's tail.
            probes.rank(profile.probe, opens=1)
            for _ in range(PROTOCOLS_PER_ROUND):
                probes.protocol(profile.protocol)
                probes.rank(profile.probe, opens=1)
        run.result.put("rss_mb", runner.peak_rss_mb(), "MB")
        if run.traced:
            spans = load_spans(runner, run)
            after.ladder(runner.port)
        runner.call("stop")
        with phase("gates"):
            reads.legs += after.legs
            check_ingest(run, runner, reads, catchup["batches"])
            parallel = probes.protocol_gate(profile.protocol)
    probes.put()
    after.put_cpu()
    if run.traced:
        put_layers(run, probes, reads, parallel, spans, batches=batches,
                   ops=len(probes.values("ingest_s", traced=True)))
        after.put_max_rps()
        run.result.put("trace.overhead_ratio", probes.overhead("ingest_s"), "ratio")


WORKLOADS: dict[str, Callable[[Run], None]] = {
    "rank_scale": rank_scale,
    "ingest_live": ingest_live,
}


# ----------------------------------------------------------------------
# Traced runs: per-layer metrics
# ----------------------------------------------------------------------
def client_roots(legs: list[loadgen.Leg]) -> list[tuple]:
    """The benchmark-side span of every answered read (send to reply)."""
    return [
        (10 ** 12 + n, None, "loadgen.read", r.sent, r.done, r.rid, None)
        for n, r in enumerate(r for leg in legs for r in leg.ok)
    ]


def load_spans(runner: Runner, run: Run) -> list[list]:
    path = run.path("spans.json")
    runner.call("dump", path=path)
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def overlap(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    return sum(max(0.0, min(hi, b) - max(lo, a)) for a, b in intervals)


def put_layers(run: Run, probes: Probes, reads: Reads, parallel: dict, spans: list, *,
               batches: int, ops: int) -> None:
    """Every per-layer metric of a traced run.

    Span trees come from the traced rounds and the traced reads; read
    latency, the ladder and the protocol's speedup from untraced ones.
    """
    legs = reads.traced_legs(True)
    layer_metrics(run, spans, client_roots(legs), reads=sum(len(leg.ok) for leg in legs),
                  batches=batches, ops=ops)
    loadgen_metrics(run, reads, legs)
    reads.put_latency()
    if reads.max_rps:
        reads.put_max_rps()
    serial_s = median(probes.values("protocol_wall_s"))
    run.result.put("serve.index_bytes", probes.replies["rank"][-1]["index_bytes"], "bytes")
    run.result.put("serve.first_query_s", probes.replies["open"][-1]["first_query_s"], "s")
    run.result.put("parallel.serial_s", serial_s, "s")
    run.result.put("parallel.speedup", serial_s / parallel["protocol_s"], "ratio")


def layer_metrics(run: Run, spans: list, external: list[tuple], *,
                  reads: int = 0, batches: int = 0, ops: int = 1) -> None:
    """Per-layer metrics from the span trees of the traced rounds.

    Times are self times.  Request-path times are per answered read and
    update-path times per update batch; the other times and counts are
    per traced round (``ops`` of them).  A path the rounds do not run
    reads 0.
    """
    roots = tracing.build_forest(spans, external)
    setup = [root for root in roots if root.name == "bench.setup"]
    measured = [root for root in roots if root.name != "bench.setup"]
    nodes = [s for root in measured for s in tracing.walk(root)]
    names = tracing.name_self_times(measured)

    def per(divisor: int, *span_names: str) -> float:
        total = sum(names.get(n, 0.0) for n in span_names)
        return total / divisor if divisor else 0.0

    put = run.result.put
    put("io.load_s", per(ops, "io.load", "io.save"), "s")
    put("graph.build_s", per(ops, "graph.build"), "s")
    put("graph.operator_s", per(ops, "graph.operator"), "s")
    put("graph.extend_s", per(batches, "graph.extend"), "s")
    put("core.solve_s", per(ops, "core.solve", "core.scalar"), "s")
    solves = [s for s in nodes if s.name == "core.solve"]
    scalar = [s for s in nodes if s.name == "core.scalar"]
    scalar_ids = {s.id for s in scalar}
    put("core.iterations", sum(s.attrs.get("iterations", 0) for s in solves) / max(1, ops), "count")
    put("core.fused_columns", sum(
        s.attrs.get("columns", 0) for s in solves if s.parent not in scalar_ids
    ) / max(1, ops), "count")
    put("core.scalar_solves", len(scalar) / max(1, ops), "count")
    put("eval.split_s", per(ops, "eval.split"), "s")
    put("eval.tune_s", per(ops, "eval.tune", "eval.evaluate"), "s")
    points = sum(s.attrs.get("points", 0) for s in nodes if s.name == "eval.tune")
    put("eval.grid_points", points / max(1, ops), "count")
    put("serve.index_save_s", per(ops, "serve.index_save"), "s")
    put("serve.index_load_s", per(ops, "serve.index_load"), "s")
    put("serve.query_s", per(reads, "serve.query"), "s")
    put("serve.engine_s", per(reads, "serve.engine"), "s")
    put("serve.update_s", per(batches, "serve.update"), "s")
    put("serve.sync_s", per(batches or ops, "serve.sync"), "s")
    put("stream.log_load_s", tracing.name_self_times(setup).get("stream.log_load", 0.0), "s")
    steps = sorted(s.duration for s in nodes if s.name == "stream.step")
    put("stream.step_p50_s", loadgen.quantile(steps, 0.5) if steps else 0.0, "s")
    put("stream.step_p99_s", loadgen.quantile(steps, 0.99) if steps else 0.0, "s")
    put("stream.batches", len(steps) / ops, "count")
    events = sum(s.attrs.get("events", 0) for s in nodes if s.name == "stream.step")
    put("stream.events", events / ops, "count")
    put("gateway.encode_s", per(reads, "gateway.encode"), "s")
    updates = [(s.start, s.end) for s in nodes if s.name == "stream.step"]
    held = sum(
        overlap(updates, s.start, s.end) for s in nodes if s.name == "gateway.coalesce"
    )
    put("gateway.update_hold_s", held / reads if reads else 0.0, "s")
    layers = tracing.layer_self_times(roots)
    total = sum(layers.values()) or 1.0
    print("layer self time: " + ", ".join(
        f"{layer} {seconds / total:.1%}" for layer, seconds in
        sorted(layers.items(), key=lambda item: -item[1])), file=sys.stderr)
    steps_by_name: dict[str, list] = defaultdict(list)
    for root in roots:
        steps_by_name[root.name].append(root)
    print("unattributed: " + ", ".join(
        f"{name} {tracing.reconcile(group):.2%}" for name, group in sorted(steps_by_name.items())
        if tracing.layer_of(name) == tracing.ROOT_LAYER), file=sys.stderr)
    error = tracing.reconcile(roots)
    put("trace.reconcile_error", error, "ratio")
    problems = []
    if error > RECONCILE_TOLERANCE:
        problems.append(f"layer spans miss the traced steps by {error:.1%}")
    run.result.check(1, problems, "reconciliation")


def zero_missing(run: Run) -> None:
    for name, unit in PER_LAYER.items():
        if name not in run.result.metrics:
            run.result.put(name, 0.0, unit)


def gateway_metrics(run: Run, port: int, before: tuple[int, int]) -> None:
    _, document = http_get(port, "/v1/metrics")
    cache = document.get("result_cache") or {}
    hits = int(cache.get("hits", 0)) - before[0]
    misses = int(cache.get("misses", 0)) - before[1]
    run.result.put("serve.cache_hit_ratio", hits / max(1, hits + misses), "ratio")
    run.result.put("serve.cache_lookups", hits + misses, "count")
    run.result.put("gateway.server_p50_ms", document["latency"]["overall"]["p50_ms"], "ms")
    run.result.put("gateway.batch_mean", document["coalescing"]["mean_batch_size"], "count")
    responses = document["responses"]
    run.result.put("gateway.shed", responses["shed_429"] + responses["shed_503"], "count")


def loadgen_metrics(run: Run, reads: Reads, legs: list[loadgen.Leg]) -> None:
    run.result.put("loadgen.late_p99_ms", median(leg.late_p99() for leg in legs) * 1e3, "ms")
    run.result.put("loadgen.backlog", max(leg.backlog_end for leg in legs), "count")
    run.result.put("loadgen.repeat_share", median(reads.repeat_share(leg) for leg in legs),
                   "ratio")
