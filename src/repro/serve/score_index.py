"""The versioned score index — per-method solutions over one snapshot.

A :class:`ScoreIndex` binds a :class:`~repro.graph.CitationNetwork`
snapshot to the score vectors of any number of registered ranking
methods (addressed by their paper labels: ``"AR"``, ``"PR"``, ...).  It
is the unit of state the serving layer works with:

* :class:`~repro.serve.RankingService` answers queries from it,
* :class:`~repro.serve.DeltaUpdater` refreshes it in place after a
  delta, warm-starting every method that supports it from its previous
  solution,
* :meth:`ScoreIndex.save` / :meth:`ScoreIndex.load` persist it as a
  single ``.npz`` file (network payload + score vectors + metadata), so
  a service restart never recomputes from scratch.

Every refresh bumps :attr:`ScoreIndex.version`; query-result caches key
on the version, which makes invalidation after updates automatic.

On-disk format (:data:`INDEX_FORMAT_VERSION` 2).  This module is the one
writer (:func:`write_index_archive`) and reader
(:func:`open_index_archive`) of index files, which stream checkpoints
and the shard files of :mod:`repro.serve.shard` share.  Members are
``<name>.npy`` entries stored without compression, so saving and
reopening run at memory speed rather than zlib speed; the price is
size (the benchmark's 100k-paper index is ~25 MB stored against
~2.7 MB deflated).  The zip comment seals the file with the sha256 of
every byte before it.  A reader checks the metadata record and the
member names first, so that a file of another kind or version gets its
own error, then verifies the seal before it decodes any bulk array:
any damaged byte fails as a typed error instead of loading silently.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import json
import os
import time
import zipfile
import zlib
from dataclasses import dataclass
from typing import Any, BinaryIO, Iterable, Iterator, Mapping

import numpy as np

from repro._typing import FloatVector
from repro.baselines import METHOD_REGISTRY, make_method, warm_startable
from repro.chaos.points import chaos_point
from repro.core.power_iteration import grow_start_vector
from repro.errors import (
    ConfigurationError,
    DataFormatError,
    IndexIntegrityError,
)
from repro.graph.citation_network import CitationNetwork
from repro.io.serialize import network_from_payload, network_payload
from repro.obs.logging import get_logger
from repro.obs.registry import REGISTRY
from repro.obs.trace import span

__all__ = ["ScoreIndex", "MethodEntry", "INDEX_FORMAT_VERSION"]

#: Version 2: stored (uncompressed) members and a sha256 seal in the zip
#: comment.  Version 1 files were deflated and unsealed.
INDEX_FORMAT_VERSION = 2

#: The seal is this prefix and 64 hex digits, the archive's zip comment.
_SEAL_PREFIX = b"repro-index-sha256:"
_SEAL_SIZE = len(_SEAL_PREFIX) + 64
_HASH_CHUNK = 1 << 20

_LOG = get_logger("serve.solver")

_SOLVES_TOTAL = REGISTRY.counter(
    "repro_solver_solves_total",
    "Method solves, by method label and convergence outcome.",
    ["method", "converged"],
)
_LAST_ITERATIONS = REGISTRY.gauge(
    "repro_solver_last_iterations",
    "Iterations of the most recent solve, by method.",
    ["method"],
)
_LAST_RESIDUAL = REGISTRY.gauge(
    "repro_solver_last_residual",
    "Final L1 residual of the most recent solve, by method.",
    ["method"],
)


@dataclass(frozen=True)
class MethodEntry:
    """One method's solution over the index's current snapshot.

    Attributes
    ----------
    label:
        Registry label (``"AR"``, ``"PR"``, ...).
    params:
        Constructor keyword arguments the method was registered with;
        refreshes re-instantiate the method from these via
        :func:`repro.baselines.make_method`.
    scores:
        The score vector, aligned with the snapshot's paper indices.
    iterations:
        Iterations of the solve that produced :attr:`scores` (0 for
        closed-form/non-iterative methods).
    converged:
        Whether that solve converged (always true for closed forms).
    warm_started:
        Whether the solve was seeded from a previous solution.
    """

    label: str
    params: Mapping[str, Any]
    scores: FloatVector
    iterations: int
    converged: bool
    warm_started: bool


class ScoreIndex:
    """Versioned per-method score vectors over a network snapshot.

    Parameters
    ----------
    network:
        The snapshot to score.
    version:
        Starting version number (0 for a fresh index; :meth:`load`
        restores the persisted value).
    solver_jobs:
        Thread count passed to the fused solver's row-chunked SpMV
        (``repro index --jobs`` / ``repro update --jobs``).  Scores are
        bit-identical for any value.

    Examples
    --------
    >>> from repro.synth import toy_network
    >>> index = ScoreIndex(toy_network())
    >>> index.add_method("CC")
    >>> index.labels
    ('CC',)
    >>> int(index.scores("CC").argmax())   # A, the most cited toy paper
    0
    """

    def __init__(
        self,
        network: CitationNetwork,
        *,
        version: int = 0,
        solver_jobs: int = 1,
    ) -> None:
        if network.n_papers == 0:
            raise ConfigurationError("cannot index an empty network")
        if solver_jobs < 1:
            raise ConfigurationError(
                f"solver_jobs must be >= 1, got {solver_jobs}"
            )
        self._network = network
        self._version = int(version)
        self._entries: dict[str, MethodEntry] = {}
        #: Thread count for the fused solver's row-chunked SpMV; results
        #: are bit-identical for any value (see repro.core.fused).
        self.solver_jobs = int(solver_jobs)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def network(self) -> CitationNetwork:
        """The current snapshot."""
        return self._network

    @property
    def version(self) -> int:
        """Monotonic counter, bumped by every :meth:`refresh`."""
        return self._version

    @property
    def labels(self) -> tuple[str, ...]:
        """Registered method labels, in registration order."""
        return tuple(self._entries)

    def __contains__(self, label: object) -> bool:
        return isinstance(label, str) and label.upper() in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScoreIndex(version={self._version}, "
            f"methods={list(self._entries)}, "
            f"n_papers={self._network.n_papers})"
        )

    def entry(self, label: str) -> MethodEntry:
        """The full :class:`MethodEntry` for ``label``."""
        key = label.upper()
        try:
            return self._entries[key]
        except KeyError:
            known = ", ".join(self._entries) or "<none>"
            raise ConfigurationError(
                f"method {label!r} is not in the index "
                f"(indexed: {known})"
            ) from None

    def scores(self, label: str) -> FloatVector:
        """The score vector for ``label``, aligned with paper indices."""
        return self.entry(label).scores

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def add_method(self, label: str, **params: Any) -> MethodEntry:
        """Register a method and solve it cold on the current snapshot.

        ``params`` are the method's constructor keyword arguments; they
        are stored so that every later refresh re-instantiates exactly
        the same configuration.
        """
        key = label.upper()
        if key in self._entries:
            raise ConfigurationError(f"method {label!r} is already indexed")
        entry = self._solve_fused(
            {key: (dict(params), None)}, self._network
        )[key]
        self._entries[key] = entry
        return entry

    def refresh(
        self,
        network: CitationNetwork | None = None,
        *,
        warm: bool = True,
    ) -> dict[str, MethodEntry]:
        """Re-solve every indexed method and bump the version.

        Parameters
        ----------
        network:
            A replacement snapshot (the delta-update path passes the
            extended network).  It must contain at least the papers of
            the current snapshot, *in the same index positions* — the
            contract :meth:`CitationNetwork.extend` guarantees.  ``None``
            re-solves on the unchanged snapshot.
        warm:
            Seed each method that supports it from its previous
            solution, grown to the new size.  ``False`` forces cold
            solves (the benchmark's comparison baseline).

        Notes
        -----
        The refresh is atomic: every method is re-solved against the
        new snapshot first, and the index state (network, entries,
        version) is only swapped once all solves succeeded.  A
        :class:`~repro.errors.ConvergenceError` mid-refresh therefore
        leaves the index exactly as it was, still serving the old
        version.
        """
        target = self._network
        if network is not None:
            if network.n_papers < self._network.n_papers:
                raise ConfigurationError(
                    "refresh network has fewer papers than the indexed "
                    f"snapshot ({network.n_papers} < "
                    f"{self._network.n_papers}); the index only grows"
                )
            target = network
        refreshed = self._solve_fused(
            {
                key: (dict(entry.params), entry.scores if warm else None)
                for key, entry in self._entries.items()
            },
            target,
        )
        chaos_point("index.refresh.swap")
        self._network = target
        self._entries = refreshed
        self._version += 1
        return dict(self._entries)

    def _solve_fused(
        self,
        specs: Mapping[str, tuple[dict[str, Any], FloatVector | None]],
        network: CitationNetwork,
    ) -> dict[str, MethodEntry]:
        """Solve ``{key: (params, previous)}`` through
        :func:`repro.core.fused.solve_methods`.

        Records the per-method instruments (``repro_solver_solves_total``,
        ``repro_solver_last_*``); wall-clock is reported per solver pass
        as ``repro_fused_pass_seconds``.
        """
        from repro.core.fused import solve_methods

        keys = list(specs)
        methods = []
        warm_flags = []
        for key in keys:
            params, previous = specs[key]
            method = make_method(key, **params)
            is_warm = previous is not None and warm_startable(key)
            if is_warm:
                method.start_vector = grow_start_vector(
                    previous, network.n_papers
                )
            methods.append(method)
            warm_flags.append(is_warm)
        started = time.perf_counter()
        with span(
            "solver.solve_fused", methods=",".join(keys)
        ) as sp:
            solved = solve_methods(
                network, methods, jobs=self.solver_jobs
            )
            if sp is not None:
                sp.set(papers=network.n_papers)
        elapsed = time.perf_counter() - started
        entries: dict[str, MethodEntry] = {}
        for key, is_warm, (scores, info) in zip(keys, warm_flags, solved):
            # Shared arrays are read-only throughout this codebase (see
            # CitationNetwork); the score vector doubles as the next
            # warm start and the ranking basis, so caller mutation must
            # fail loud.
            scores.setflags(write=False)
            iterations = info.iterations if info is not None else 0
            converged = info.converged if info is not None else True
            _SOLVES_TOTAL.inc(
                method=key, converged="true" if converged else "false"
            )
            _LAST_ITERATIONS.set(iterations, method=key)
            if info is not None:
                _LAST_RESIDUAL.set(info.residual, method=key)
            entries[key] = MethodEntry(
                label=key,
                params=specs[key][0],
                scores=scores,
                iterations=iterations,
                converged=converged,
                warm_started=is_warm,
            )
        _LOG.info(
            "solve_fused",
            extra={
                "methods": keys,
                "papers": network.n_papers,
                "iterations": {
                    key: entries[key].iterations for key in keys
                },
                "warm": [key for key, w in zip(keys, warm_flags) if w],
                "ms": round(elapsed * 1e3, 3),
            },
        )
        return entries

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Write the index (snapshot + scores + metadata) to ``path``.

        The file is a stored, sealed archive (see
        :func:`write_index_archive`).  The write is atomic (temp file +
        rename): ``repro update`` overwrites the live index in place,
        and an interrupted write must never destroy the only copy of
        the serving state.
        """
        payload = index_payload(
            self._network, self._version, self._entries.values()
        )
        # Temp debris from a *crashed* earlier save (the cleanup below
        # only runs on live exceptions, not on a kill) is swept here,
        # on the next commit attempt — the same recovery moment the
        # checkpoint protocol uses.
        for stale in glob.glob(f"{glob.escape(path)}.tmp-*"):
            os.remove(stale)
        temp_path = f"{path}.tmp-{os.getpid()}"
        try:
            with open(temp_path, "w+b") as handle:
                write_index_archive(handle, payload)
                handle.flush()
                chaos_point("index.save.write")
                os.fsync(handle.fileno())
            chaos_point("index.save.fsync")
            os.replace(temp_path, path)
            chaos_point("index.save.replace")
        except Exception:
            # Deliberately narrower than a finally: an injected crash
            # (BaseException) must leave the same orphaned temp file a
            # real kill would, so the sweep above stays honest.
            if os.path.exists(temp_path):
                os.remove(temp_path)
            raise

    @classmethod
    def load(cls, path: str) -> "ScoreIndex":
        """Read an index previously written by :meth:`save`.

        The metadata record and the member names are checked first, so
        a file of another kind or version gets its own error; the seal
        is verified before any bulk array is decoded.

        Raises
        ------
        DataFormatError
            If the file is missing, is a bare network file rather than
            an index, declares an unsupported index format version, is
            damaged, or fails its seal.
        IndexIntegrityError
            If the file parses as an index but its pieces disagree:
            metadata fields missing, method labels unknown to the
            registry or duplicated, score vectors missing, undeclared,
            or of the wrong length, version numbers malformed.  (A
            subclass of :class:`DataFormatError`.)
        """
        if not os.path.exists(path):
            raise DataFormatError(f"file not found: {path}")
        chaos_point("index.load")
        with open_index_archive(path, DataFormatError) as archive:
            if "index_meta" not in archive.names:
                raise DataFormatError(
                    f"{path}: not a repro score index (missing index_meta; "
                    "is this a bare network file?)"
                )
            meta = archive.record("index_meta")
            format_version = meta.get("index_format_version")
            if format_version != INDEX_FORMAT_VERSION:
                raise DataFormatError(
                    f"{path}: unsupported index format version "
                    f"{format_version} "
                    f"(this build reads version {INDEX_FORMAT_VERSION})"
                )
            records = _validated_method_records(meta, source=path)
            declared = {
                f"index_scores__{record['label']}": record["label"]
                for record in records["methods"]
            }
            for key, label in declared.items():
                if key not in archive.names:
                    raise IndexIntegrityError(
                        f"{path}: score vector for {label!r} is missing"
                    )
            undeclared = sorted(
                name
                for name in archive.names
                if name.startswith("index_scores__") and name not in declared
            )
            if undeclared:
                raise IndexIntegrityError(
                    f"{path}: score vectors not declared in the metadata: "
                    f"{undeclared} — the file was assembled inconsistently"
                )
            arrays = archive.arrays()
        network = network_from_payload(arrays, source=path)
        index = cls(network, version=records["version"])
        for record in records["methods"]:
            label = record["label"]
            scores = np.asarray(
                arrays[f"index_scores__{label}"], dtype=np.float64
            )
            scores.setflags(write=False)
            if scores.shape != (network.n_papers,):
                raise IndexIntegrityError(
                    f"{path}: score vector for {label!r} has length "
                    f"{scores.size}, expected {network.n_papers}"
                )
            index._entries[label] = MethodEntry(
                label=label,
                params=record["params"],
                scores=scores,
                iterations=record["iterations"],
                converged=record["converged"],
                warm_started=record["warm_started"],
            )
        return index


def index_payload(
    network: CitationNetwork, version: int, entries: Iterable[MethodEntry]
) -> dict[str, np.ndarray]:
    """The arrays of an index file: the network payload, the
    ``index_meta`` record and one ``index_scores__<label>`` vector per
    entry.  Shard files add their own members to it."""
    entries = list(entries)
    payload = network_payload(network)
    meta = {
        "index_format_version": INDEX_FORMAT_VERSION,
        "version": version,
        "methods": [
            {
                "label": entry.label,
                "params": dict(entry.params),
                "iterations": entry.iterations,
                "converged": entry.converged,
                "warm_started": entry.warm_started,
            }
            for entry in entries
        ],
    }
    payload["index_meta"] = np.asarray([json.dumps(meta)], dtype=np.str_)
    for entry in entries:
        payload[f"index_scores__{entry.label}"] = entry.scores
    return payload


def write_index_archive(
    handle: BinaryIO, arrays: Mapping[str, np.ndarray]
) -> None:
    """Write ``arrays`` to ``handle`` as a stored, sealed ``.npz``.

    ``handle`` is a new file opened for reading and writing (``"w+b"``).
    Members are ``<name>.npy`` entries stored without compression, as
    :func:`numpy.savez` writes them, so :func:`numpy.load` reads the
    file too.  The zip comment is the seal: :data:`_SEAL_PREFIX` and the
    hex sha256 of every byte before it.
    """
    with zipfile.ZipFile(
        handle, "w", zipfile.ZIP_STORED, allowZip64=True
    ) as archive:
        for name, array in arrays.items():
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(
                    member, np.asanyarray(array), allow_pickle=False
                )
        # A placeholder of the seal's length, so that the end record
        # already carries the final comment length when it is hashed.
        archive.comment = bytes(_SEAL_SIZE)
    sealed = handle.tell() - _SEAL_SIZE
    digest = _sha256_prefix(handle, sealed)
    handle.seek(sealed)
    handle.write(_SEAL_PREFIX + digest)


#: What ``zipfile`` and the ``.npy`` reader raise on damaged input: bad
#: headers, short reads, flags naming unsupported features, undecodable
#: names or records.  Any byte of a damaged file can land on one of
#: these before the seal is checked.
_ARCHIVE_ERRORS = (
    OSError,
    ValueError,
    EOFError,
    NotImplementedError,
    RuntimeError,
    zipfile.BadZipFile,
    zlib.error,
)


class IndexArchive:
    """An index or shard file opened by :func:`open_index_archive`.

    :attr:`names` and :meth:`record` read only the directory and small
    JSON records; :meth:`arrays` verifies the seal before it decodes a
    bulk array.  Every failure raises the archive's error type.
    """

    def __init__(
        self, path: str, handle: BinaryIO, archive: zipfile.ZipFile,
        error: type[DataFormatError],
    ) -> None:
        self.path = path
        self._handle = handle
        self._archive = archive
        self._error = error
        self.names = {
            name[: -len(".npy")]
            for name in archive.namelist()
            if name.endswith(".npy")
        }

    def _read(self, name: str) -> np.ndarray:
        with self._archive.open(f"{name}.npy") as member:
            return np.lib.format.read_array(member, allow_pickle=False)

    def record(self, name: str) -> dict[str, Any]:
        """The JSON object stored as the one-string member ``name``."""
        try:
            array = self._read(name)
            record = json.loads(str(array.reshape(-1)[0]))
        except (IndexError, *_ARCHIVE_ERRORS) as error:
            raise self._error(
                f"{self.path}: unreadable {name} record ({error})"
            ) from None
        if not isinstance(record, dict):
            raise self._error(f"{self.path}: {name} is not a JSON object")
        return record

    def arrays(
        self, names: Iterable[str] | None = None
    ) -> dict[str, np.ndarray]:
        """Verify the seal, then decode ``names`` (default: every member)."""
        size = os.fstat(self._handle.fileno()).st_size
        sealed = size - _SEAL_SIZE
        try:
            self._handle.seek(max(sealed, 0))
            seal = self._handle.read(_SEAL_SIZE)
            if len(seal) != _SEAL_SIZE or not seal.startswith(_SEAL_PREFIX):
                raise self._error(
                    f"{self.path}: archive carries no seal (written by "
                    "another tool, or damaged at its end)"
                )
            if _sha256_prefix(self._handle, sealed) != seal[len(_SEAL_PREFIX):]:
                raise self._error(
                    f"{self.path}: seal mismatch — the file changed after "
                    "it was written"
                )
            return {
                name: self._read(name)
                for name in (self.names if names is None else names)
            }
        except _ARCHIVE_ERRORS as error:
            raise self._error(
                f"{self.path}: not a readable archive ({error})"
            ) from None


@contextlib.contextmanager
def open_index_archive(
    path: str, error: type[DataFormatError]
) -> Iterator[IndexArchive]:
    """Open the index or shard file ``path``; damage raises ``error``."""
    with contextlib.ExitStack() as stack:
        try:
            handle = stack.enter_context(open(path, "rb"))
            archive = stack.enter_context(zipfile.ZipFile(handle))
        except _ARCHIVE_ERRORS as failure:
            # Directories, truncated files and flipped bytes fail the
            # zip open; a CLI caller must get a typed one-liner, not a
            # traceback.
            raise error(
                f"{path}: not a readable .npz index ({failure})"
            ) from None
        yield IndexArchive(path, handle, archive, error)


def _sha256_prefix(handle: BinaryIO, length: int) -> bytes:
    """Hex sha256 of the first ``length`` bytes of ``handle``, read in
    chunks so that hashing never holds the whole file."""
    digest = hashlib.sha256()
    handle.seek(0)
    remaining = length
    while remaining > 0:
        chunk = handle.read(min(remaining, _HASH_CHUNK))
        if not chunk:
            raise EOFError(f"file ended {remaining} bytes before its seal")
        digest.update(chunk)
        remaining -= len(chunk)
    return digest.hexdigest().encode("ascii")


def _validated_method_records(
    meta: Mapping[str, Any], *, source: str
) -> dict[str, Any]:
    """Validate a persisted index's metadata block.

    Returns ``{"version": int, "methods": [normalised records]}``.
    Every failure raises :class:`IndexIntegrityError` — a loader must
    never surface a bare :class:`KeyError` from a truncated or
    hand-edited file.
    """
    try:
        version = int(meta["version"])
        raw_methods = meta["methods"]
    except (KeyError, TypeError, ValueError) as error:
        raise IndexIntegrityError(
            f"{source}: malformed index metadata ({error!r})"
        ) from None
    if version < 0:
        raise IndexIntegrityError(
            f"{source}: negative index version {version}"
        )
    if not isinstance(raw_methods, list):
        raise IndexIntegrityError(
            f"{source}: metadata 'methods' must be a list, "
            f"got {type(raw_methods).__name__}"
        )
    methods: list[dict[str, Any]] = []
    seen: set[str] = set()
    for record in raw_methods:
        try:
            label = str(record["label"])
            normalised = {
                "label": label,
                "params": dict(record["params"]),
                "iterations": int(record["iterations"]),
                "converged": bool(record["converged"]),
                "warm_started": bool(record["warm_started"]),
            }
        except (KeyError, TypeError, ValueError) as error:
            raise IndexIntegrityError(
                f"{source}: malformed method record ({error!r})"
            ) from None
        if label != label.upper() or label.upper() not in METHOD_REGISTRY:
            known = ", ".join(sorted(METHOD_REGISTRY))
            raise IndexIntegrityError(
                f"{source}: metadata names unknown method {label!r} "
                f"(registered: {known})"
            )
        if label in seen:
            raise IndexIntegrityError(
                f"{source}: metadata declares method {label!r} twice"
            )
        seen.add(label)
        methods.append(normalised)
    return {"version": version, "methods": methods}
