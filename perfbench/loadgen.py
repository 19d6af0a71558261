"""Open-loop HTTP reads: a seeded Poisson schedule on keep-alive connections.

One process and one asyncio loop drive at most ``nproc`` connections.
Requests are due on a Poisson schedule drawn from the seed, whatever
the server's pace, and each picks a query from a fixed catalogue: a
kind with the request plan's shares, then a query of that kind with a
Zipf-skewed popularity, so a measurable share of reads repeats.  The
skew is an assumption, not a measurement: no query log of a scholarly
ranking service is at hand to set its exponent from.  A
request is timed from the moment it was due, so a stall also counts
against the requests queued behind it.  How late the generator itself
woke up for a due request is recorded separately.

An HTTP/1.1 connection carries one request at a time, so a request that
falls due while every connection is busy waits in the generator: that
wait is part of its latency and of the backlog.
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import math
import random
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.gateway.loadgen import _read_response, _request_plan, _target_of

#: The program's default latency objective (``latency:99:250ms``).
SLO_SECONDS = 0.25
SLO_QUANTILE = 0.99
#: A rung has a growing backlog when its backlog grows faster than this
#: share of its rate (least-squares slope over the rung).
BACKLOG_GROWTH = 0.03
BACKLOG_SAMPLES = 20
#: The rate ladder: a fixed geometric grid of request rates, 5% apart.
LADDER = tuple(round(100 * 1.05 ** k) for k in range(60))
COARSE_STEP = 4


# ----------------------------------------------------------------------
# The query catalogue and the schedule
# ----------------------------------------------------------------------
def build_catalogue(
    rng: random.Random,
    methods: Sequence[str],
    paper_ids: Sequence[str],
    year_span: tuple[float, float],
    size: int,
) -> tuple[list[dict[str, Any]], dict[str, int]]:
    """Up to ``size`` distinct queries, drawn with the request mix of
    ``repro loadgen`` unchanged (its request plan) and kept in the order
    they first appear, and how many of the plan's draws were of each
    kind.  A small corpus has fewer distinct queries; drawing stops
    after ``20 * size`` draws."""
    seen: set[str] = set()
    catalogue = []
    draws: Counter[str] = Counter()
    for query in _request_plan(rng, methods, paper_ids, 20 * size, year_span):
        draws[query["kind"]] += 1
        target = _target_of(query)
        if target not in seen:
            seen.add(target)
            catalogue.append(query)
            if len(catalogue) == size:
                break
    return catalogue, dict(draws)


class Zipf:
    """Ranks ``0..n-1`` with probability proportional to ``1/(r+1)**s``."""

    def __init__(self, n: int, s: float) -> None:
        weights = [1.0 / (r + 1) ** s for r in range(n)]
        self.cumulative = list(itertools.accumulate(weights))

    def draw(self, rng: random.Random) -> int:
        x = rng.random() * self.cumulative[-1]
        return bisect.bisect_left(self.cumulative, x)


class Popularity:
    """Which catalogue query a read asks for.

    A read first takes a kind with the shares of the plan's draws, then
    a query of that kind by its Zipf rank (order of first appearance).
    One Zipf ranking over every kind would let the few queries at its
    head, which carry about half the reads, set each seed's mix of
    kinds: over ten seeds, comparisons were 4-40% of the reads.
    """

    def __init__(self, catalogue: Sequence[dict[str, Any]], draws: dict[str, int],
                 s: float) -> None:
        self.members = {
            kind: [i for i, query in enumerate(catalogue) if query["kind"] == kind]
            for kind in sorted(draws)
        }
        self.kinds = [kind for kind, members in self.members.items() if members]
        self.cumulative = list(itertools.accumulate(draws[kind] for kind in self.kinds))
        self.zipf = {kind: Zipf(len(self.members[kind]), s) for kind in self.kinds}

    def draw(self, rng: random.Random) -> int:
        x = rng.random() * self.cumulative[-1]
        kind = self.kinds[bisect.bisect_right(self.cumulative, x)]
        return self.members[kind][self.zipf[kind].draw(rng)]


def poisson_schedule(
    rng: random.Random, rate: float, seconds: float, popularity: Popularity | Zipf
) -> list[tuple[float, int]]:
    """``(due offset, catalogue index)`` pairs for one leg."""
    schedule = []
    due = rng.expovariate(rate)
    while due < seconds:
        schedule.append((due, popularity.draw(rng)))
        due += rng.expovariate(rate)
    return schedule


# ----------------------------------------------------------------------
# Running a leg
# ----------------------------------------------------------------------
@dataclass
class Record:
    query: int
    due: float
    sent: float = math.nan
    done: float = math.nan
    late: float | None = None
    status: int = 0
    document: dict[str, Any] = field(default_factory=dict)
    rid: str = ""


@dataclass
class Leg:
    rate: float
    seconds: float
    start: float
    dues: list[float] = field(default_factory=list)
    records: list[Record] = field(default_factory=list)
    aborted: bool = False
    #: Whether the program recorded spans during the leg.
    traced: bool = False

    @property
    def ok(self) -> list[Record]:
        return [r for r in self.records if r.status == 200]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.status != 200)

    def latencies(self) -> list[float]:
        return sorted(r.done - r.due for r in self.ok)

    def windows(self, seconds: float) -> list[list[float]]:
        """Sorted latencies of the reads due in each ``seconds`` window."""
        count = max(1, round(self.seconds / seconds))
        width = self.seconds / count
        buckets: list[list[float]] = [[] for _ in range(count)]
        for r in self.ok:
            slot = min(count - 1, max(0, int((r.due - self.start) / width)))
            buckets[slot].append(r.done - r.due)
        return [sorted(b) for b in buckets if b]

    def backlog_at(self, moment: float) -> int:
        """Requests due by ``moment`` and not yet answered at it."""
        answered = sum(1 for r in self.records if r.done <= moment)
        return bisect.bisect_right(self.dues, moment) - answered

    @property
    def backlog_end(self) -> int:
        return self.backlog_at(self.start + self.seconds)

    def backlog_growth(self) -> float:
        """Least-squares slope of the backlog over the leg (requests/s)."""
        times = [self.seconds * (i + 1) / BACKLOG_SAMPLES for i in range(BACKLOG_SAMPLES)]
        backlogs = [self.backlog_at(self.start + t) for t in times]
        mean_t = sum(times) / len(times)
        mean_b = sum(backlogs) / len(backlogs)
        covariance = sum((t - mean_t) * (b - mean_b) for t, b in zip(times, backlogs))
        return covariance / sum((t - mean_t) ** 2 for t in times)

    def late_p99(self) -> float:
        lates = sorted(r.late for r in self.records if r.late is not None)
        return quantile(lates, 0.99) if lates else 0.0

    def achieved_rate(self) -> float:
        """Answers per second, from the leg's start to its last answer."""
        answered = self.ok
        if not answered:
            return 0.0
        return len(answered) / (max(r.done for r in answered) - self.start)

    def meets_slo(self) -> bool:
        latencies = self.latencies()
        return (
            not self.aborted
            and self.failed == 0
            and bool(latencies)
            and quantile(latencies, SLO_QUANTILE) <= SLO_SECONDS
            and self.backlog_growth() <= BACKLOG_GROWTH * self.rate
        )


def quantile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sequence."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


async def _drive(
    port: int,
    connections: int,
    targets: Sequence[str],
    leg: Leg,
    schedule: Sequence[tuple[float, int]],
    abort_backlog: int | None,
    rid_prefix: str,
    stop: threading.Event | None,
) -> None:
    cursor = itertools.count()
    offsets = [offset for offset, _ in schedule]
    completed = [0]

    async def connection() -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            while True:
                i = next(cursor)
                if i >= len(schedule) or leg.aborted:
                    return
                if stop is not None and stop.is_set():
                    leg.seconds = min(leg.seconds, time.perf_counter() - leg.start)
                    return
                offset, query = schedule[i]
                due = leg.start + offset
                late = None
                now = time.perf_counter()
                if due > now:
                    await asyncio.sleep(due - now)
                    late = max(0.0, time.perf_counter() - due)
                elif abort_backlog is not None and (
                    bisect.bisect_right(offsets, now - leg.start) - completed[0]
                    > abort_backlog
                ):
                    leg.aborted = True
                    return
                record = Record(query=query, due=due, late=late,
                                rid=f"{rid_prefix}{i}")
                leg.records.append(record)
                record.sent = time.perf_counter()
                writer.write(
                    f"GET {targets[query]} HTTP/1.1\r\nHost: bench\r\n"
                    f"X-Request-Id: {record.rid}\r\n\r\n".encode("latin-1")
                )
                try:
                    record.status, _, record.document = await _read_response(reader)
                except (OSError, asyncio.IncompleteReadError):
                    record.status = 599
                    return
                finally:
                    record.done = time.perf_counter()
                    completed[0] += 1
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    await asyncio.gather(*(connection() for _ in range(connections)))


def run_leg(
    port: int,
    connections: int,
    targets: Sequence[str],
    schedule: Sequence[tuple[float, int]],
    rate: float,
    seconds: float,
    *,
    abort_backlog: int | None = None,
    rid_prefix: str = "pb",
    stop: threading.Event | None = None,
) -> Leg:
    """Send one schedule; returns when every sent request is answered.

    With ``stop``, the leg ends early once the event is set, and its
    ``seconds`` become the time it ran."""
    start = time.perf_counter() + 0.02
    leg = Leg(rate=rate, seconds=seconds, start=start,
              dues=[start + offset for offset, _ in schedule])
    asyncio.run(_drive(port, connections, targets, leg, schedule, abort_backlog,
                       rid_prefix, stop))
    return leg


def climb_ladder(
    port: int,
    connections: int,
    targets: Sequence[str],
    rng: random.Random,
    popularity: Popularity,
    rung_seconds: float,
    start_rate: float,
) -> tuple[Leg | None, list[Leg]]:
    """Find the highest ladder rate that meets the SLO.

    From the first ladder rate at or above ``start_rate`` (or, if that
    misses, the first rate below it that passes), a coarse pass climbs
    every ``COARSE_STEP``-th rate until one misses, then a fine pass
    climbs the rates between the last pass and that miss.  A rung
    that misses is run once more before it counts as a miss, so one
    stall on a shared machine does not end the climb.  Returns the
    highest passing rung and every rung run.
    """
    rungs: list[Leg] = []

    def attempt(k: int) -> Leg | None:
        for _ in range(2):
            rate = LADDER[k]
            schedule = poisson_schedule(rng, rate, rung_seconds, popularity)
            leg = run_leg(port, connections, targets, schedule, rate, rung_seconds,
                          abort_backlog=connections + int(rate * SLO_SECONDS),
                          rid_prefix=f"r{len(rungs)}-")
            rungs.append(leg)
            time.sleep(0.05)  # let the last answers of the rung drain
            if leg.meets_slo():
                return leg
        return None

    best: Leg | None = None
    best_k = -1
    ceiling = len(LADDER)  # the lowest rate known to miss
    k = bisect.bisect_left(LADDER, start_rate)
    while k >= 0:  # descend from the start until a rate passes
        best = attempt(k)
        if best is not None:
            best_k = k
            break
        ceiling = k
        k -= COARSE_STEP
    if best is None:
        return None, rungs
    k = best_k + COARSE_STEP
    while k < ceiling:
        leg = attempt(k)
        if leg is None:
            ceiling = k
            break
        best, best_k = leg, k
        k += COARSE_STEP
    for k in range(best_k + 1, min(best_k + COARSE_STEP, ceiling)):
        leg = attempt(k)
        if leg is None:
            break
        best = leg
    return best, rungs

