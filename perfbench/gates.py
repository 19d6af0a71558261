"""Correctness gates.  Each returns the mismatches it found; an empty
result passes.  A mismatch counts as a failed operation."""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

import numpy as np
from repro.gateway.loadgen import _canon, _verify_records


def index_mismatches(solved, reloaded) -> list[str]:
    """Where a reloaded :class:`ScoreIndex` differs from the solved one.

    Bit-identity: same labels, version, paper ids, times and edges, and
    score vectors equal element for element in the same dtype.
    """
    problems = []
    if solved.labels != reloaded.labels:
        problems.append(f"labels {solved.labels} != {reloaded.labels}")
    if solved.version != reloaded.version:
        problems.append(f"version {solved.version} != {reloaded.version}")
    a, b = solved.network, reloaded.network
    if a.paper_ids != b.paper_ids:
        problems.append("paper ids differ")
    for name in ("publication_times", "citing", "cited"):
        if not _identical(getattr(a, name), getattr(b, name)):
            problems.append(f"network {name} differ")
    for label in solved.labels:
        if label in reloaded.labels and not _identical(
            solved.scores(label), reloaded.scores(label)
        ):
            problems.append(f"{label} scores differ")
    return problems


def scores_mismatches(
    got: Mapping[str, np.ndarray], want: Mapping[str, np.ndarray]
) -> list[str]:
    """Labels whose score vectors are not bit-identical."""
    if set(got) != set(want):
        return [f"labels {sorted(got)} != {sorted(want)}"]
    return [label for label in sorted(want) if not _identical(got[label], want[label])]


def _identical(x: np.ndarray, y: np.ndarray) -> bool:
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def protocol_cells(series) -> dict[str, list[list[Any]]]:
    """A comparison series as JSON: method -> [[ratio, params, score]]."""
    return {
        method: [
            [cell.x, dict(cell.result.best_params), cell.result.best_score]
            for cell in cells
        ]
        for method, cells in series.cells.items()
    }


def protocol_mismatches(
    got: Mapping[str, Sequence], want: Mapping[str, Sequence]
) -> list[str]:
    """Cells whose chosen parameters or best score differ."""
    if set(got) != set(want):
        return [f"methods {sorted(got)} != {sorted(want)}"]
    problems = []
    for method in sorted(want):
        if len(got[method]) != len(want[method]):
            problems.append(f"{method}: {len(got[method])} ratios")
            continue
        for g, w in zip(got[method], want[method]):
            if _canon(g) != _canon(w):
                problems.append(f"{method}@{w[0]}")
    return problems


def read_mismatches(
    records: Sequence[Mapping[str, Any]], service_at: Callable[[int], Any]
) -> int:
    """Answered reads that differ from a direct call at their version.

    ``records`` are ``{"request", "status", "version", "result"}``
    mappings; ``service_at(version)`` gives a service in the state the
    response reports, or ``None`` when that version cannot be rebuilt
    (which counts as a mismatch).
    """
    return _verify_records(records, service_at)[1]
