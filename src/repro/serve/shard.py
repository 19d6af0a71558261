"""The sharded score store — partitioned serving state.

A :class:`ShardedScoreIndex` splits the papers of a
:class:`~repro.serve.ScoreIndex` across N :class:`Shard` column stores
(paper ids, publication times, per-method score slices).  Scores are
always *solved globally* — PageRank-style fixed points are properties
of the whole graph, so sharding never re-solves anything — but storing
and querying them sharded is what lets the serving layer scale:

* each shard answers top-k / filter / rank-count requests over its own
  slice, independently and concurrently
  (:class:`~repro.serve.QueryEngine` k-way merges the per-shard
  candidate lists into the global page);
* each shard persists as its *own* ``.npz`` file in the existing
  score-index format — an individual shard file round-trips through
  :meth:`ScoreIndex.load` — and a saved store loads shards lazily, so
  opening a huge index to answer one query touches one manifest and at
  most a few shard files;
* :meth:`ShardedScoreIndex.sync` routes incremental growth to the
  affected shards: after a delta update, new papers are assigned by the
  store's partitioner and only the shards that gained papers are
  reported as touched.

Two partitioners are built in.  ``"hash"`` (default) spreads papers
uniformly by a stable FNV-1a hash of the external id — deterministic
across processes, unlike Python's salted ``hash``.  ``"year"`` assigns
contiguous publication-time ranges using quantile boundaries fixed at
build time, so year-filtered queries can skip shards entirely.

Every partitioning of the same index answers every query with results
*bit-identical* to the unsharded :class:`~repro.serve.RankingService`
— the property the shard-count {1, 2, 7} tests assert.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro._typing import FloatVector, IntVector
from repro.chaos.points import chaos_point
from repro.errors import ConfigurationError, IndexIntegrityError
from repro.serve.score_index import (
    ScoreIndex,
    index_payload,
    open_index_archive,
    write_index_archive,
)

__all__ = [
    "Shard",
    "ShardedScoreIndex",
    "StoreSnapshot",
    "PARTITIONERS",
    "SHARD_MANIFEST",
    "SHARD_FORMAT_VERSION",
    "hash_shard_of",
    "year_boundaries",
]

#: Supported partitioner names.
PARTITIONERS = ("hash", "year")

#: Manifest filename inside a saved shard directory.
SHARD_MANIFEST = "manifest.json"

#: On-disk format version of the shard directory layout.
SHARD_FORMAT_VERSION = 1


_FNV_OFFSET = 2166136261
_FNV_PRIME = 16777619


def hash_shard_of(paper_id: str, n_shards: int) -> int:
    """Stable shard assignment of one paper id (32-bit FNV-1a mod N).

    Python's built-in ``hash`` is salted per process; FNV-1a keeps the
    routing identical between the process that built a store and the
    process that applies a delta to it.  Zero bytes are skipped so the
    scalar form agrees with the vectorised bulk assignment, which
    operates on NUL-padded fixed-width byte columns.
    """
    value = _FNV_OFFSET
    for byte in str(paper_id).encode("utf-8"):
        if byte:
            value = ((value ^ byte) * _FNV_PRIME) & 0xFFFFFFFF
    return value % n_shards


def _hash_assign(paper_ids: Sequence[str], n_shards: int) -> IntVector:
    """Vectorised :func:`hash_shard_of` over a batch of ids.

    Ids are packed into a fixed-width byte matrix and the FNV-1a state
    is advanced one byte *column* at a time — ``max_id_length`` NumPy
    passes instead of one Python call per paper.  Non-ASCII ids cannot
    be packed into the byte matrix; they fall back to the scalar loop
    (identical results, just slower).
    """
    if not paper_ids:
        return np.zeros(0, dtype=np.int64)
    try:
        encoded = np.asarray(paper_ids, dtype=np.bytes_)
    except UnicodeEncodeError:
        return np.fromiter(
            (hash_shard_of(pid, n_shards) for pid in paper_ids),
            dtype=np.int64,
            count=len(paper_ids),
        )
    width = encoded.dtype.itemsize
    matrix = np.ascontiguousarray(encoded).view(np.uint8).reshape(
        len(paper_ids), width
    )
    state = np.full(len(paper_ids), _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    mask = np.uint64(0xFFFFFFFF)
    for column in range(width):
        byte = matrix[:, column].astype(np.uint64)
        advanced = ((state ^ byte) * prime) & mask
        state = np.where(byte != 0, advanced, state)
    return (state % np.uint64(n_shards)).astype(np.int64)


def year_boundaries(times: FloatVector, n_shards: int) -> FloatVector:
    """Interior quantile boundaries splitting ``times`` into N ranges.

    Returns ``n_shards - 1`` ascending split points; paper with time
    ``t`` goes to shard ``searchsorted(boundaries, t, side="right")``.
    Quantiles balance shard populations even for skewed year
    distributions (citation corpora grow exponentially).
    """
    quantiles = np.arange(1, n_shards) / n_shards
    return np.quantile(np.asarray(times, dtype=np.float64), quantiles)


def _assign(
    paper_ids: Sequence[str],
    times: FloatVector,
    n_shards: int,
    partitioner: str,
    boundaries: FloatVector | None,
) -> IntVector:
    """Shard id per paper, by the configured partitioner."""
    if partitioner == "hash":
        return _hash_assign(paper_ids, n_shards)
    if partitioner == "year":
        assert boundaries is not None
        return np.searchsorted(
            boundaries, np.asarray(times, dtype=np.float64), side="right"
        ).astype(np.int64)
    raise ConfigurationError(
        f"unknown partitioner {partitioner!r} "
        f"(available: {', '.join(PARTITIONERS)})"
    )


class Shard:
    """One shard's column store: a slice of the global serving state.

    Parameters
    ----------
    shard_id:
        Position of this shard in its store.
    global_indices:
        Ascending global paper indices this shard owns.  The global
        index is the universal tie-breaker (rankings break score ties
        by ascending index), so every shard carries it.
    paper_ids, times:
        External ids and publication times, parallel to
        ``global_indices``.
    scores:
        Per-method score slices, parallel to ``global_indices``.

    A shard memoises its per-method orderings (and filtered variants)
    on first use; the store drops and rebuilds shards on
    :meth:`ShardedScoreIndex.sync`, which is what keeps memos honest
    across versions.
    """

    def __init__(
        self,
        shard_id: int,
        global_indices: IntVector,
        paper_ids: Sequence[str],
        times: FloatVector,
        scores: Mapping[str, FloatVector],
    ) -> None:
        self.shard_id = int(shard_id)
        self.global_indices = np.asarray(global_indices, dtype=np.int64)
        self.paper_ids = tuple(str(p) for p in paper_ids)
        self.times = np.asarray(times, dtype=np.float64)
        self.scores = {
            label: np.asarray(vector, dtype=np.float64)
            for label, vector in scores.items()
        }
        for array in (self.global_indices, self.times, *self.scores.values()):
            array.setflags(write=False)
        # (label, span) -> local positions sorted by (score desc,
        # global index asc) within the span filter; span None = all.
        # Full orders (span None) are kept unconditionally; filtered
        # spans are user input and capped (FIFO) so arbitrary query
        # filters cannot grow the memo without bound.
        self._orders: dict[tuple[str, tuple[float, float] | None], IntVector] = {}
        self._id_index: dict[str, int] | None = None

    #: Maximum memoised *filtered* orders per shard (full per-method
    #: orders are always kept).
    MAX_SPAN_MEMOS = 32

    @property
    def n_papers(self) -> int:
        """Papers owned by this shard."""
        return len(self.paper_ids)

    @property
    def labels(self) -> tuple[str, ...]:
        """Method labels this shard carries scores for."""
        return tuple(self.scores)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Shard(id={self.shard_id}, n_papers={self.n_papers}, "
            f"methods={list(self.scores)})"
        )

    # ------------------------------------------------------------------
    # Orderings
    # ------------------------------------------------------------------
    def _score_vector(self, label: str) -> FloatVector:
        try:
            return self.scores[label]
        except KeyError:
            known = ", ".join(self.scores) or "<none>"
            raise ConfigurationError(
                f"method {label!r} is not in the index (indexed: {known})"
            ) from None

    def order(
        self, label: str, span: tuple[float, float] | None = None
    ) -> IntVector:
        """Local positions by (score desc, global index asc), filtered.

        The global-index tie-break makes per-shard orders mergeable
        into exactly the global ranking: within a shard the global
        indices are ascending, so a stable local sort suffices.  The
        full order is sorted once per method; span filters reuse it
        with a boolean selection (which preserves the sort), so a new
        filter costs O(n), not O(n log n).
        """
        key = (label, span)
        memo = self._orders.get(key)
        if memo is not None:
            return memo
        if span is None:
            scores = self._score_vector(label)
            candidates = np.arange(self.n_papers, dtype=np.int64)
            # lexsort's last key dominates: score descending, then the
            # (ascending) candidate position, which is ascending global
            # index because global_indices is sorted.
            order = candidates[
                np.lexsort((candidates, -scores))
            ]
        else:
            full = self.order(label, None)
            lo, hi = span
            ordered_times = self.times[full]
            order = full[(ordered_times >= lo) & (ordered_times <= hi)]
            spans_memoised = sum(
                1 for _, memo_span in self._orders if memo_span is not None
            )
            if spans_memoised >= self.MAX_SPAN_MEMOS:
                oldest = next(
                    memo_key
                    for memo_key in self._orders
                    if memo_key[1] is not None
                )
                del self._orders[oldest]
        order.setflags(write=False)
        self._orders[key] = order
        return order

    def candidates(
        self,
        label: str,
        span: tuple[float, float] | None,
        depth: int,
    ) -> tuple[int, IntVector]:
        """``(total_matching, top-depth local positions)`` for a merge.

        ``total_matching`` counts every paper of the shard inside the
        span (for pagination totals); the returned positions are the
        shard's best ``depth`` rows — enough for any global top-
        ``depth`` merge, since no merge can take more rows from one
        shard than it returns overall.
        """
        order = self.order(label, span)
        return int(order.size), order[:depth]

    def count_ranked_before(
        self, label: str, score: float, global_index: int
    ) -> int:
        """Papers of this shard ranking strictly before a global row.

        A paper ranks before ``(score, global_index)`` iff its score is
        higher, or equal with a smaller global index — the same
        tie-break the rankings use.  Binary search over the shard's
        descending score order keeps this O(log n) + O(ties).
        """
        order = self.order(label, None)
        if order.size == 0:
            return 0
        ordered_scores = self._score_vector(label)[order]
        # ordered_scores is descending; search its negation (ascending).
        lo = int(np.searchsorted(-ordered_scores, -score, side="left"))
        hi = int(np.searchsorted(-ordered_scores, -score, side="right"))
        ties = self.global_indices[order[lo:hi]]
        return lo + int(np.count_nonzero(ties < global_index))

    def location_of(self, paper_id: str) -> int | None:
        """Local position of ``paper_id``, or ``None`` if not owned."""
        if self._id_index is None:
            self._id_index = {
                pid: i for i, pid in enumerate(self.paper_ids)
            }
        return self._id_index.get(str(paper_id))


class StoreSnapshot:
    """One immutable read view of a sharded store — a *generation*.

    Everything a query execution needs lives here: the version, the
    labels, the shard column stores, and the pruning bounds.  The
    owning :class:`ShardedScoreIndex` swaps in a *new* snapshot as a
    single attribute assignment on :meth:`ShardedScoreIndex.sync` —
    atomic under the GIL — so a reader that captured a snapshot keeps
    a self-consistent view for its whole execution, no matter how many
    syncs land meanwhile.  This is what makes concurrent
    read-during-update safe: a response is computed entirely against
    the old generation or entirely against the new one, never a mix
    (the threaded shard tests and the gateway's live-update path both
    lean on exactly this).

    The only mutation a snapshot ever sees is the *lazy fill* of a
    detached store's shard cache — idempotent (two racing loaders
    produce equal shards) and invisible to correctness.
    """

    __slots__ = (
        "version", "labels", "n_papers", "n_shards", "partitioner",
        "_boundaries", "_shards", "_shard_paths",
    )

    def __init__(
        self,
        *,
        version: int,
        labels: tuple[str, ...],
        n_papers: int,
        n_shards: int,
        partitioner: str,
        boundaries: FloatVector | None,
        shards: dict[int, Shard],
        shard_paths: tuple[str, ...] | None,
    ) -> None:
        self.version = int(version)
        self.labels = tuple(labels)
        self.n_papers = int(n_papers)
        self.n_shards = int(n_shards)
        self.partitioner = partitioner
        self._boundaries = boundaries
        self._shards = shards
        self._shard_paths = shard_paths

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StoreSnapshot(version={self.version}, "
            f"n_shards={self.n_shards}, n_papers={self.n_papers})"
        )

    @property
    def loaded_shard_count(self) -> int:
        """Shards materialised in memory (lazy loads stay at 0)."""
        return len(self._shards)

    def loaded_shards(self) -> tuple[Shard, ...]:
        """The shards already in memory, in id order (no lazy loads)."""
        return tuple(
            self._shards[i] for i in sorted(self._shards)
        )

    def shard(self, shard_id: int) -> Shard:
        """The shard at ``shard_id``, loading it from disk if lazy."""
        if shard_id < 0 or shard_id >= self.n_shards:
            raise ConfigurationError(
                f"shard id {shard_id} out of range [0, {self.n_shards})"
            )
        existing = self._shards.get(shard_id)
        if existing is not None:
            return existing
        assert self._shard_paths is not None
        shard = _load_shard_file(
            self._shard_paths[shard_id], shard_id, self.labels,
            self.version,
        )
        self._shards[shard_id] = shard
        return shard

    def iter_shards(self) -> Iterable[Shard]:
        """All shards in id order (materialising lazy ones)."""
        return (self.shard(i) for i in range(self.n_shards))

    def shard_time_bounds(
        self, shard_id: int
    ) -> tuple[float, float] | None:
        """Conservative ``[lo, hi]`` publication-time bounds of a shard.

        Only the year partitioner guarantees bounds (its fixed
        boundaries): shard ``i`` holds papers with ``boundaries[i-1] <=
        t < boundaries[i]``, reported here inclusively on both ends to
        stay conservative.  ``None`` means "no guarantee" (hash
        partitioning) — callers must not prune.  The query engine uses
        this to skip shards whose range cannot intersect a year filter,
        without ever loading them.
        """
        if self.partitioner != "year" or self._boundaries is None:
            return None
        lo = (
            float(self._boundaries[shard_id - 1])
            if shard_id > 0
            else float("-inf")
        )
        hi = (
            float(self._boundaries[shard_id])
            if shard_id < self.n_shards - 1
            else float("inf")
        )
        return (lo, hi)


class ShardedScoreIndex:
    """Papers of a score index partitioned across N shards.

    Build one *attached* with :meth:`from_index` (it keeps a reference
    to the backing :class:`ScoreIndex` so :meth:`sync` can follow
    updates), or *detached* with :meth:`load` (query-only, reading a
    directory written by :meth:`save`).

    Internally all serving state lives in one :class:`StoreSnapshot`
    swapped atomically by :meth:`sync`; readers that need a stable
    multi-step view capture it once via :meth:`snapshot`.

    Examples
    --------
    >>> from repro.serve import ScoreIndex
    >>> from repro.synth import toy_network
    >>> index = ScoreIndex(toy_network())
    >>> index.add_method("CC")
    >>> store = ShardedScoreIndex.from_index(index, n_shards=3)
    >>> store.n_shards
    3
    >>> sum(store.shard(i).n_papers for i in range(3))
    8
    """

    def __init__(
        self,
        *,
        n_shards: int,
        partitioner: str,
        version: int,
        labels: tuple[str, ...],
        n_papers: int,
        boundaries: FloatVector | None,
        backing: ScoreIndex | None,
        assignment: IntVector | None,
        shards: dict[int, Shard] | None = None,
        shard_paths: tuple[str, ...] | None = None,
    ) -> None:
        self._backing = backing
        self._assignment = assignment
        self._snapshot = StoreSnapshot(
            version=version,
            labels=labels,
            n_papers=n_papers,
            n_shards=n_shards,
            partitioner=partitioner,
            boundaries=boundaries,
            shards=dict(shards or {}),
            shard_paths=shard_paths,
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_index(
        cls,
        index: ScoreIndex,
        *,
        n_shards: int = 1,
        partitioner: str = "hash",
    ) -> "ShardedScoreIndex":
        """Partition a live :class:`ScoreIndex` into an attached store.

        Raises
        ------
        ConfigurationError
            If ``n_shards < 1``, the partitioner is unknown, or the
            index has no solved methods to serve.
        """
        if n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be >= 1, got {n_shards}"
            )
        if partitioner not in PARTITIONERS:
            raise ConfigurationError(
                f"unknown partitioner {partitioner!r} "
                f"(available: {', '.join(PARTITIONERS)})"
            )
        if not index.labels:
            raise ConfigurationError(
                "cannot shard an index with no solved methods"
            )
        network = index.network
        boundaries = None
        if partitioner == "year":
            # n_shards == 1 yields an empty boundary array; searchsorted
            # then routes every paper to shard 0.
            boundaries = year_boundaries(
                network.publication_times, n_shards
            )
        assignment = _assign(
            network.paper_ids,
            network.publication_times,
            n_shards,
            partitioner,
            boundaries,
        )
        store = cls(
            n_shards=n_shards,
            partitioner=partitioner,
            version=index.version,
            labels=index.labels,
            n_papers=network.n_papers,
            boundaries=boundaries,
            backing=index,
            assignment=assignment,
            shards=_slice_shards(index, index.labels, assignment, n_shards),
        )
        return store

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Number of partitions."""
        return self._snapshot.n_shards

    @property
    def partitioner(self) -> str:
        """Partitioner name (``"hash"`` or ``"year"``)."""
        return self._snapshot.partitioner

    @property
    def version(self) -> int:
        """Version of the serving state the shards were sliced from."""
        return self._snapshot.version

    @property
    def labels(self) -> tuple[str, ...]:
        """Method labels available in every shard."""
        return self._snapshot.labels

    @property
    def n_papers(self) -> int:
        """Total papers across all shards."""
        return self._snapshot.n_papers

    @property
    def attached(self) -> bool:
        """Whether a backing :class:`ScoreIndex` is available."""
        return self._backing is not None

    @property
    def loaded_shard_count(self) -> int:
        """Shards materialised in memory (lazy loads stay at 0)."""
        return self._snapshot.loaded_shard_count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedScoreIndex(n_shards={self.n_shards}, "
            f"partitioner={self.partitioner!r}, "
            f"version={self.version}, n_papers={self.n_papers})"
        )

    def snapshot(self) -> StoreSnapshot:
        """The current generation — a stable view for multi-step reads.

        A capture is one attribute read (atomic under the GIL); the
        returned view never changes underneath the caller, even if
        :meth:`sync` swaps in a new generation mid-read.
        """
        return self._snapshot

    def shard(self, shard_id: int) -> Shard:
        """The shard at ``shard_id``, loading it from disk if lazy."""
        return self._snapshot.shard(shard_id)

    def iter_shards(self) -> Iterable[Shard]:
        """All shards in id order (materialising lazy ones)."""
        return self._snapshot.iter_shards()

    def shard_time_bounds(
        self, shard_id: int
    ) -> tuple[float, float] | None:
        """Conservative time bounds of a shard (see
        :meth:`StoreSnapshot.shard_time_bounds`)."""
        return self._snapshot.shard_time_bounds(shard_id)

    # ------------------------------------------------------------------
    # Incremental updates
    # ------------------------------------------------------------------
    def sync(self) -> tuple[int, ...]:
        """Follow the backing index; return the shards that gained papers.

        Routes each *new* paper (anything beyond the assignment's
        length — extension preserves existing indices) to its shard via
        the stored partitioner, then re-slices every shard's score
        columns (a refresh changes scores globally even when no paper
        moved).  Year-partitioned stores route new papers against the
        boundaries fixed at build time, so routing never disagrees
        between the building and the updating process.

        The new generation is assembled completely off to the side and
        published as one :class:`StoreSnapshot` swap — concurrent
        readers that captured :meth:`snapshot` before the swap keep
        serving the old generation, readers arriving after it see only
        the new one, and nobody ever observes a half-rebuilt store.

        Raises
        ------
        ConfigurationError
            On a detached (loaded-from-disk) store.
        """
        if self._backing is None or self._assignment is None:
            raise ConfigurationError(
                "cannot sync a detached sharded index (loaded from "
                "disk without its backing ScoreIndex)"
            )
        current = self._snapshot
        network = self._backing.network
        known = int(self._assignment.size)
        assignment = self._assignment
        touched: tuple[int, ...] = ()
        if network.n_papers > known:
            new_ids = network.paper_ids[known:]
            new_times = network.publication_times[known:]
            new_assignment = _assign(
                new_ids,
                new_times,
                current.n_shards,
                current.partitioner,
                current._boundaries,
            )
            assignment = np.concatenate([assignment, new_assignment])
            touched = tuple(
                int(s) for s in np.unique(new_assignment)
            )
        labels = self._backing.labels
        shards = _slice_shards(
            self._backing, labels, assignment, current.n_shards
        )
        chaos_point("shard.sync.swap")
        self._assignment = assignment
        self._snapshot = StoreSnapshot(
            version=self._backing.version,
            labels=labels,
            n_papers=network.n_papers,
            n_shards=current.n_shards,
            partitioner=current.partitioner,
            boundaries=current._boundaries,
            shards=shards,
            shard_paths=None,
        )
        return touched

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: str) -> str:
        """Write ``manifest.json`` plus one ``.npz`` per shard.

        Each shard file is a complete score index over the shard's
        induced subnetwork (cross-shard edges drop out — the file
        persists serving data, not the solve graph), so a single shard
        also loads via :meth:`ScoreIndex.load`.  Returns the manifest
        path.
        """
        if self._backing is None:
            raise ConfigurationError(
                "cannot save a detached sharded index; save() needs "
                "the backing ScoreIndex for the shard subnetworks"
            )
        os.makedirs(directory, exist_ok=True)
        snapshot = self._snapshot
        network = self._backing.network
        files = []
        for shard_id in range(snapshot.n_shards):
            shard = snapshot.shard(shard_id)
            filename = f"shard_{shard_id:04d}.npz"
            files.append(filename)
            payload = index_payload(
                network.subnetwork(shard.global_indices),
                snapshot.version,
                (
                    replace(
                        self._backing.entry(label),
                        scores=shard.scores[label],
                    )
                    for label in snapshot.labels
                ),
            )
            shard_meta = {
                "shard_format_version": SHARD_FORMAT_VERSION,
                "shard_id": shard_id,
                "n_shards": snapshot.n_shards,
                "partitioner": snapshot.partitioner,
            }
            payload["shard_meta"] = np.asarray(
                [json.dumps(shard_meta)], dtype=np.str_
            )
            payload["shard_global_indices"] = shard.global_indices
            with open(os.path.join(directory, filename), "w+b") as handle:
                write_index_archive(handle, payload)
        manifest = {
            "shard_format_version": SHARD_FORMAT_VERSION,
            "n_shards": snapshot.n_shards,
            "partitioner": snapshot.partitioner,
            "version": snapshot.version,
            "labels": list(snapshot.labels),
            "n_papers": snapshot.n_papers,
            "boundaries": (
                None
                if snapshot._boundaries is None
                else [float(b) for b in snapshot._boundaries]
            ),
            "files": files,
        }
        manifest_path = os.path.join(directory, SHARD_MANIFEST)
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2)
            handle.write("\n")
        return manifest_path

    @classmethod
    def load(cls, directory: str) -> "ShardedScoreIndex":
        """Open a saved store *lazily*: only the manifest is read now.

        Shard files are loaded on first access (:meth:`shard`), so a
        query that a year-partitioned plan confines to one shard pays
        for one file.  The result is detached — it answers queries but
        cannot :meth:`sync` or :meth:`save`.

        Raises
        ------
        IndexIntegrityError
            If the manifest is missing, malformed, or disagrees with
            the shard files it names.
        """
        manifest_path = os.path.join(directory, SHARD_MANIFEST)
        if not os.path.exists(manifest_path):
            raise IndexIntegrityError(
                f"{directory}: not a sharded score index "
                f"(missing {SHARD_MANIFEST})"
            )
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except json.JSONDecodeError as error:
            raise IndexIntegrityError(
                f"{manifest_path}: invalid JSON ({error})"
            ) from None
        try:
            declared = int(manifest["shard_format_version"])
            n_shards = int(manifest["n_shards"])
            partitioner = str(manifest["partitioner"])
            version = int(manifest["version"])
            labels = tuple(str(l) for l in manifest["labels"])
            n_papers = int(manifest["n_papers"])
            files = [str(f) for f in manifest["files"]]
            raw_boundaries = manifest["boundaries"]
        except (KeyError, TypeError, ValueError) as error:
            raise IndexIntegrityError(
                f"{manifest_path}: malformed manifest ({error})"
            ) from None
        if declared != SHARD_FORMAT_VERSION:
            raise IndexIntegrityError(
                f"{manifest_path}: unsupported shard format version "
                f"{declared} (this build reads "
                f"version {SHARD_FORMAT_VERSION})"
            )
        if len(files) != n_shards:
            raise IndexIntegrityError(
                f"{manifest_path}: manifest declares {n_shards} shards "
                f"but names {len(files)} files"
            )
        boundaries = (
            None
            if raw_boundaries is None
            else np.asarray(raw_boundaries, dtype=np.float64)
        )
        return cls(
            n_shards=n_shards,
            partitioner=partitioner,
            version=version,
            labels=labels,
            n_papers=n_papers,
            boundaries=boundaries,
            backing=None,
            assignment=None,
            shards={},
            shard_paths=tuple(
                os.path.join(directory, name) for name in files
            ),
        )


def _slice_shards(
    index: ScoreIndex,
    labels: tuple[str, ...],
    assignment: IntVector,
    n_shards: int,
) -> dict[int, Shard]:
    """Slice fresh shard column stores out of a backing index."""
    network = index.network
    ids = network.paper_ids
    times = network.publication_times
    vectors = {label: index.scores(label) for label in labels}
    shards: dict[int, Shard] = {}
    for shard_id in range(n_shards):
        owned = np.nonzero(assignment == shard_id)[0].astype(np.int64)
        shards[shard_id] = Shard(
            shard_id=shard_id,
            global_indices=owned,
            paper_ids=[ids[i] for i in owned],
            times=times[owned],
            scores={
                label: vector[owned]
                for label, vector in vectors.items()
            },
        )
    return shards


def _load_shard_file(
    path: str,
    shard_id: int,
    labels: tuple[str, ...],
    version: int,
) -> Shard:
    """Read one shard ``.npz`` and cross-check it against the manifest."""
    if not os.path.exists(path):
        raise IndexIntegrityError(f"shard file not found: {path}")
    with open_index_archive(path, IndexIntegrityError) as archive:
        required = {"paper_ids", "pub_time", "shard_meta", "index_meta",
                    "shard_global_indices"}
        missing = required - archive.names
        if missing:
            raise IndexIntegrityError(
                f"{path}: not a shard file (missing {sorted(missing)})"
            )
        shard_meta = archive.record("shard_meta")
        index_meta = archive.record("index_meta")
        if shard_meta.get("shard_id") != shard_id:
            raise IndexIntegrityError(
                f"{path}: shard file claims id "
                f"{shard_meta.get('shard_id')}, manifest expects "
                f"{shard_id}"
            )
        if index_meta.get("version") != version:
            raise IndexIntegrityError(
                f"{path}: shard is at index version "
                f"{index_meta.get('version')}, manifest expects "
                f"{version} — the store was partially overwritten"
            )
        keys = [f"index_scores__{label}" for label in labels]
        for label, key in zip(labels, keys):
            if key not in archive.names:
                raise IndexIntegrityError(
                    f"{path}: score vector for {label!r} is missing"
                )
        arrays = archive.arrays(
            ["paper_ids", "pub_time", "shard_global_indices", *keys]
        )
    paper_ids = arrays["paper_ids"].tolist()
    times = np.asarray(arrays["pub_time"], dtype=np.float64)
    global_indices = np.asarray(
        arrays["shard_global_indices"], dtype=np.int64
    )
    scores: dict[str, FloatVector] = {}
    for label, key in zip(labels, keys):
        vector = np.asarray(arrays[key], dtype=np.float64)
        if vector.shape != (len(paper_ids),):
            raise IndexIntegrityError(
                f"{path}: score vector for {label!r} has length "
                f"{vector.size}, expected {len(paper_ids)}"
            )
        scores[label] = vector
    if global_indices.shape != (len(paper_ids),):
        raise IndexIntegrityError(
            f"{path}: shard_global_indices has length "
            f"{global_indices.size}, expected {len(paper_ids)}"
        )
    return Shard(
        shard_id=shard_id,
        global_indices=global_indices,
        paper_ids=paper_ids,
        times=times,
        scores=scores,
    )
