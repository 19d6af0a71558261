"""The benchmark side of the program process: start, command, observe."""

from __future__ import annotations

import http.client
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))


class BenchError(RuntimeError):
    """The program or the benchmark could not complete a run."""


# ----------------------------------------------------------------------
# Calibration: the host's speed at the moment
# ----------------------------------------------------------------------
#: What the calibration unit takes on the reference machine (2 vCPU,
#: median over 200 units), seconds.  A timed step is reported as its
#: time scaled by this over the unit's time around the step.
REFERENCE_CALIBRATION_S = 0.030
_UNIT: dict[str, Any] = {}
#: The CPU the program process runs on and the calibration unit is
#: timed on.  The speed of one CPU of a shared machine drifts apart from
#: that of the other: timed side by side, one ran the unit in 24 ms
#: while the other took 31 ms, and moments later 30 ms against 45 ms.
PROGRAM_CPU = max(os.sched_getaffinity(0))


def calibration() -> float:
    """CPU time of the calling thread for one fixed unit of work.

    The unit does what the program does most: sparse matrix-vector
    products (ten power-iteration steps over a seeded 100k x 100k
    matrix with 8 entries a row) and a dictionary loop in the
    interpreter.  On a shared machine the speed of a core drifts by up
    to 1.8x for seconds to minutes with other tenants' load, and moves
    this unit with it; the program's code never runs in it.  The unit
    runs on ``PROGRAM_CPU``, where the program runs.
    """
    import numpy as np
    import scipy.sparse

    if not _UNIT:
        rng = np.random.default_rng(12345)
        n = 100_000
        rows, cols = rng.integers(0, n, 8 * n), rng.integers(0, n, 8 * n)
        _UNIT["matrix"] = scipy.sparse.csr_matrix((np.ones(8 * n), (rows, cols)), shape=(n, n))
        _UNIT["vector"] = rng.random(n)
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {PROGRAM_CPU})  # this thread only
    try:
        started = time.thread_time()
        vector = _UNIT["vector"]
        for _ in range(10):
            vector = _UNIT["matrix"] @ vector
            vector /= vector.sum()
        counts: dict[int, int] = {}
        for i in range(10_000):
            counts[i % 997] = counts.get(i % 997, 0) + i
        return time.thread_time() - started
    finally:
        os.sched_setaffinity(0, allowed)


def calibrations(units: int) -> list[float]:
    """``units`` calibration units in a row: one unit alone is a noisy
    gauge, back to back they spread 0.2 of their median (quartile
    distance)."""
    return [calibration() for _ in range(units)]


def at_reference_speed(seconds: float, calibration_s: float) -> float:
    """``seconds`` measured while the calibration unit took
    ``calibration_s``, scaled to the reference machine's speed."""
    return seconds * REFERENCE_CALIBRATION_S / calibration_s


class Runner:
    """One program process (``runner.py``) and its JSON-lines channel."""

    def __init__(self, workdir: str, *, traced: bool = False) -> None:
        #: The port of the gateway the program serves, while it serves.
        self.port: int | None = None
        self.spawned = time.perf_counter()
        command = [sys.executable, os.path.join(HERE, "runner.py"), "--cpu", str(PROGRAM_CPU)]
        if traced:
            command.append("--trace")
        self._log = open(os.path.join(workdir, f"program-{self.spawned:.6f}.log"), "w")
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            bufsize=1,
        )
        ready = self._read()
        self.ready = time.perf_counter()
        if "ready" not in ready:
            raise BenchError(f"program did not start: {ready}")

    def _read(self) -> dict[str, Any]:
        line = self.process.stdout.readline()
        if not line:
            self.close()
            raise BenchError("program process exited; see its log")
        return json.loads(line)

    def call(self, op: str, **arguments: Any) -> dict[str, Any]:
        self.process.stdin.write(json.dumps({"op": op, **arguments}) + "\n")
        self.process.stdin.flush()
        reply = self._read()
        if "error" in reply:
            raise BenchError(f"{op}: {reply['error']}")
        return reply

    def cpu_seconds(self) -> float:
        """CPU time of the program's live threads, from the scheduler (ns)."""
        total = 0
        task_dir = f"/proc/{self.process.pid}/task"
        for task in os.listdir(task_dir):
            try:
                with open(f"{task_dir}/{task}/schedstat") as handle:
                    total += int(handle.read().split()[0])
            except FileNotFoundError:  # the thread ended meanwhile
                pass
        return total / 1e9

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.write(json.dumps({"op": "exit"}) + "\n")
                self.process.stdin.flush()
                self.process.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            stream.close()
        self._log.close()

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def http_get(port: int, path: str, timeout: float = 10.0) -> tuple[int, dict]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        body = response.read()
        return response.status, (json.loads(body) if body else {})
    finally:
        connection.close()


def first_ok(port: int, path: str, timeout: float = 30.0) -> float:
    """Poll ``path`` until it answers 200; returns the time it did."""
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        try:
            status, _ = http_get(port, path)
        except OSError:
            status = 0
        if status == 200:
            return time.perf_counter()
        time.sleep(0.005)
    raise BenchError(f"no 200 from {path} within {timeout}s")


def median(values) -> float:
    return float(statistics.median(values))
