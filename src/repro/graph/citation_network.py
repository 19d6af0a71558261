"""The citation-network data structure at the heart of the library.

A :class:`CitationNetwork` is an immutable snapshot of a scholarly corpus:
papers with publication times, directed citation edges (citing -> cited),
and optional author / venue metadata.  All ranking methods in
:mod:`repro.core` and :mod:`repro.baselines` operate on this structure.

Papers are addressed internally by dense integer indices ``0 .. n_papers-1``
in insertion order; the external (string) identifiers are kept in
:attr:`CitationNetwork.paper_ids` and can be translated both ways with
:meth:`CitationNetwork.index_of` and :meth:`CitationNetwork.id_of`.

The citation matrix follows the paper's convention (Section 2):

    ``C[i, j] = 1``  iff paper ``j`` cites paper ``i``

so that rows index the *cited* paper and columns the *citing* paper.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from repro._typing import FloatVector, IntVector
from repro.errors import GraphError

__all__ = ["CitationNetwork"]


def _as_array(values: Iterable, dtype: type) -> np.ndarray:
    """A fresh ``dtype`` array of ``values``; arrays are copied, not listed."""
    if isinstance(values, np.ndarray):
        return values.astype(dtype)
    return np.asarray(list(values), dtype=dtype)


def _as_index_array(values: Iterable[int], *, name: str) -> IntVector:
    """Convert ``values`` to a 1-D int64 array, validating dimensionality."""
    array = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
    if array.size == 0:
        return np.zeros(0, dtype=np.int64)
    if array.ndim != 1:
        raise GraphError(f"{name} must be one-dimensional, got shape {array.shape}")
    if not np.issubdtype(array.dtype, np.integer):
        raise GraphError(f"{name} must contain integers, got dtype {array.dtype}")
    return array.astype(np.int64)


class CitationNetwork:
    """An immutable directed citation network with publication times.

    Parameters
    ----------
    paper_ids:
        External identifiers of the papers, one per paper.  Must be unique.
    publication_times:
        Publication time of each paper, in (possibly fractional) years,
        e.g. ``1997.5``.  Length must equal ``len(paper_ids)``.
    citing, cited:
        Parallel integer arrays encoding the citation edges: paper
        ``citing[e]`` cites paper ``cited[e]``.
    paper_authors:
        Optional sequence (one entry per paper) of author-index tuples.
        Author indices are dense integers ``0 .. n_authors-1``.
    paper_venues:
        Optional integer array (one entry per paper) of venue indices,
        with ``-1`` meaning "venue unknown".
    author_indptr, author_indices:
        The same author lists in CSR form, given together instead
        of ``paper_authors``: paper ``i``'s authors are
        ``author_indices[author_indptr[i]:author_indptr[i + 1]]``.  The
        network stores its author lists this way in either case.
    validate:
        When true (the default), run structural integrity checks; see
        :meth:`validate`.

    Notes
    -----
    Instances should be treated as immutable: the underlying arrays are
    flagged read-only, and derived artifacts (degree vectors, sparse
    matrices) are cached on first use.
    """

    def __init__(
        self,
        paper_ids: Sequence[str],
        publication_times: Iterable[float],
        citing: Iterable[int],
        cited: Iterable[int],
        *,
        paper_authors: Sequence[Sequence[int]] | None = None,
        paper_venues: Iterable[int] | None = None,
        author_indptr: Iterable[int] | None = None,
        author_indices: Iterable[int] | None = None,
        validate: bool = True,
    ) -> None:
        self._paper_ids = tuple(map(str, paper_ids))
        self._pub_time = _as_array(publication_times, np.float64)
        self._citing = _as_index_array(citing, name="citing")
        self._cited = _as_index_array(cited, name="cited")
        self._pub_time.setflags(write=False)
        self._citing.setflags(write=False)
        self._cited.setflags(write=False)

        if paper_authors is not None:
            if author_indptr is not None or author_indices is not None:
                raise GraphError(
                    "give paper_authors or author_indptr/author_indices, "
                    "not both"
                )
            flat: list[int] = []
            author_indptr = [0]
            for authors in paper_authors:
                flat.extend(authors)
                author_indptr.append(len(flat))
            author_indices = np.asarray(flat, dtype=np.int64)
        if (author_indptr is None) != (author_indices is None):
            raise GraphError(
                "author_indptr and author_indices must be given together"
            )
        self._author_indptr: IntVector | None = None
        self._author_indices: IntVector | None = None
        if author_indptr is not None:
            self._author_indptr = _as_index_array(
                author_indptr, name="author_indptr"
            )
            self._author_indices = _as_index_array(
                author_indices, name="author_indices"
            )
            self._author_indptr.setflags(write=False)
            self._author_indices.setflags(write=False)

        if paper_venues is not None:
            self._paper_venues: IntVector | None = _as_array(
                paper_venues, np.int64
            )
            self._paper_venues.setflags(write=False)
        else:
            self._paper_venues = None

        self._index: dict[str, int] = dict(
            zip(self._paper_ids, range(len(self._paper_ids)))
        )
        if validate:
            self.validate()

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n_papers(self) -> int:
        """Number of papers (nodes) in the network."""
        return len(self._paper_ids)

    @property
    def n_citations(self) -> int:
        """Number of citation edges in the network."""
        return int(self._citing.size)

    @property
    def paper_ids(self) -> tuple[str, ...]:
        """External identifiers of all papers, in index order."""
        return self._paper_ids

    @property
    def publication_times(self) -> FloatVector:
        """Publication time (in years) of each paper."""
        return self._pub_time

    @property
    def citing(self) -> IntVector:
        """Citing-paper index of each edge (the source of the reference)."""
        return self._citing

    @property
    def cited(self) -> IntVector:
        """Cited-paper index of each edge (the target of the reference)."""
        return self._cited

    @cached_property
    def paper_authors(self) -> tuple[tuple[int, ...], ...] | None:
        """Author indices per paper, or ``None`` when unavailable.

        A tuple view derived on first use from :attr:`author_indptr` and
        :attr:`author_indices`, which the library's own paths use.
        """
        if self._author_indptr is None:
            return None
        flat = self._author_indices.tolist()
        bounds = self._author_indptr.tolist()
        return tuple(
            tuple(flat[start:stop]) for start, stop in zip(bounds, bounds[1:])
        )

    @property
    def author_indptr(self) -> IntVector | None:
        """Offsets of each paper's author list in :attr:`author_indices`
        (``n_papers + 1`` entries), or ``None`` without author data."""
        return self._author_indptr

    @property
    def author_indices(self) -> IntVector | None:
        """Every paper's author indices, concatenated in paper order, or
        ``None`` without author data."""
        return self._author_indices

    @property
    def paper_venues(self) -> IntVector | None:
        """Venue index per paper (``-1`` = unknown), or ``None``."""
        return self._paper_venues

    @property
    def has_authors(self) -> bool:
        """Whether author metadata is present."""
        return self._author_indptr is not None

    @property
    def has_venues(self) -> bool:
        """Whether venue metadata is present."""
        return self._paper_venues is not None

    @cached_property
    def n_authors(self) -> int:
        """Number of distinct authors (0 when author data is absent)."""
        if self._author_indices is None:
            return 0
        return int(self._author_indices.max(initial=-1)) + 1

    @cached_property
    def n_venues(self) -> int:
        """Number of distinct venues (0 when venue data is absent)."""
        if self._paper_venues is None:
            return 0
        return int(self._paper_venues.max(initial=-1)) + 1

    def index_of(self, paper_id: str) -> int:
        """Return the dense index of the paper with external id ``paper_id``."""
        try:
            return self._index[paper_id]
        except KeyError:
            raise GraphError(f"unknown paper id: {paper_id!r}") from None

    def id_of(self, index: int) -> str:
        """Return the external id of the paper at dense index ``index``."""
        return self._paper_ids[index]

    def __contains__(self, paper_id: object) -> bool:
        return paper_id in self._index

    def __len__(self) -> int:
        return self.n_papers

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        span = ""
        if self.n_papers:
            span = f", years {self._pub_time.min():.1f}-{self._pub_time.max():.1f}"
        return (
            f"CitationNetwork(n_papers={self.n_papers}, "
            f"n_citations={self.n_citations}{span})"
        )

    # ------------------------------------------------------------------
    # Derived structure (cached)
    # ------------------------------------------------------------------
    @cached_property
    def citation_matrix(self) -> sp.csr_matrix:
        """The sparse citation matrix ``C`` with ``C[i, j] = 1`` iff j cites i.

        Duplicate edges (the same reference listed twice in the source
        data) are collapsed to weight 1.
        """
        n = self.n_papers
        data = np.ones(self.n_citations, dtype=np.float64)
        matrix = sp.csr_matrix(
            (data, (self._cited, self._citing)), shape=(n, n)
        )
        # Collapse duplicate references to binary entries.
        matrix.data[:] = 1.0
        matrix.sum_duplicates()
        matrix.data[:] = np.minimum(matrix.data, 1.0)
        return matrix

    @cached_property
    def in_degree(self) -> IntVector:
        """Citation count of each paper (number of distinct citing papers)."""
        counts = np.asarray(self.citation_matrix.sum(axis=1)).ravel()
        return counts.astype(np.int64)

    @cached_property
    def out_degree(self) -> IntVector:
        """Reference-list length of each paper (distinct cited papers)."""
        counts = np.asarray(self.citation_matrix.sum(axis=0)).ravel()
        return counts.astype(np.int64)

    @cached_property
    def dangling_mask(self) -> np.ndarray:
        """Boolean mask of papers that cite no other paper in the network."""
        return self.out_degree == 0

    @cached_property
    def author_matrix(self) -> sp.csr_matrix:
        """Bipartite author-paper matrix ``A`` with ``A[a, p] = 1``.

        Raises
        ------
        GraphError
            If the network carries no author metadata.
        """
        if self._author_indptr is None:
            raise GraphError("this network has no author metadata")
        rows = self._author_indices
        cols = np.repeat(
            np.arange(self.n_papers, dtype=np.int64),
            np.diff(self._author_indptr),
        )
        data = np.ones(rows.size, dtype=np.float64)
        matrix = sp.csr_matrix(
            (data, (rows, cols)), shape=(self.n_authors, self.n_papers)
        )
        matrix.sum_duplicates()
        matrix.data[:] = 1.0
        return matrix

    @cached_property
    def venue_matrix(self) -> sp.csr_matrix:
        """Bipartite venue-paper matrix ``V`` with ``V[v, p] = 1``.

        Papers with unknown venue (index ``-1``) have an all-zero column.

        Raises
        ------
        GraphError
            If the network carries no venue metadata.
        """
        if self._paper_venues is None:
            raise GraphError("this network has no venue metadata")
        known = self._paper_venues >= 0
        papers = np.nonzero(known)[0]
        venues = self._paper_venues[known]
        data = np.ones(papers.size, dtype=np.float64)
        return sp.csr_matrix(
            (data, (venues, papers)), shape=(self.n_venues, self.n_papers)
        )

    # ------------------------------------------------------------------
    # Ages and time helpers
    # ------------------------------------------------------------------
    @cached_property
    def latest_time(self) -> float:
        """Publication time of the most recent paper (the network "now")."""
        if self.n_papers == 0:
            raise GraphError("empty network has no latest time")
        return float(self._pub_time.max())

    def ages(self, now: float | None = None) -> FloatVector:
        """Age of every paper at time ``now`` (default: :attr:`latest_time`).

        Ages are clipped below at zero so that a caller passing an earlier
        ``now`` never produces negative ages.
        """
        reference = self.latest_time if now is None else float(now)
        return np.maximum(reference - self._pub_time, 0.0)

    def citation_times(self) -> FloatVector:
        """Time of each citation edge = publication time of the citing paper."""
        return self._pub_time[self._citing]

    # ------------------------------------------------------------------
    # Validation and export
    # ------------------------------------------------------------------
    def validate(self, *, require_time_order: bool = False) -> None:
        """Check structural integrity, raising :class:`GraphError` on failure.

        Always checked: array-length agreement, unique external ids,
        edge-index bounds, absence of self-citations, finite publication
        times.  With ``require_time_order=True`` also require that no
        paper cites a paper published strictly after itself.
        """
        n = self.n_papers
        if self._pub_time.shape != (n,):
            raise GraphError(
                f"publication_times has length {self._pub_time.size}, "
                f"expected {n}"
            )
        if len(self._index) != n:
            raise GraphError("paper ids are not unique")
        if not np.all(np.isfinite(self._pub_time)):
            raise GraphError("publication times must be finite")
        if self._citing.shape != self._cited.shape:
            raise GraphError("citing and cited arrays differ in length")
        if self.n_citations:
            for name, arr in (("citing", self._citing), ("cited", self._cited)):
                if arr.min(initial=0) < 0 or arr.max(initial=0) >= n:
                    raise GraphError(f"{name} index out of range [0, {n})")
            if np.any(self._citing == self._cited):
                raise GraphError("self-citations are not allowed")
        if self._author_indptr is not None:
            indptr, indices = self._author_indptr, self._author_indices
            if indptr.shape != (n + 1,):
                raise GraphError("paper_authors length must equal n_papers")
            if (
                indptr[0] != 0
                or indptr[-1] != indices.size
                or np.any(np.diff(indptr) < 0)
            ):
                raise GraphError(
                    "author_indptr must rise from 0 to the number of "
                    "author_indices"
                )
            if indices.min(initial=0) < 0:
                raise GraphError("author indices must be non-negative")
        if self._paper_venues is not None and self._paper_venues.shape != (n,):
            raise GraphError("paper_venues length must equal n_papers")
        if require_time_order and self.n_citations:
            citing_t = self._pub_time[self._citing]
            cited_t = self._pub_time[self._cited]
            bad = citing_t < cited_t
            if np.any(bad):
                count = int(bad.sum())
                raise GraphError(
                    f"{count} citations point to papers published later "
                    "than the citing paper"
                )

    def to_networkx(self):
        """Export as a :class:`networkx.DiGraph` (edges citing -> cited).

        Node attributes: ``time`` (publication time), ``paper_id``.  Intended
        for interoperability and visualisation, not for the ranking paths.
        """
        import networkx as nx

        graph = nx.DiGraph()
        for i, pid in enumerate(self._paper_ids):
            graph.add_node(i, paper_id=pid, time=float(self._pub_time[i]))
        graph.add_edges_from(zip(self._citing.tolist(), self._cited.tolist()))
        return graph

    # ------------------------------------------------------------------
    # Subsetting
    # ------------------------------------------------------------------
    def subnetwork(self, paper_indices: Iterable[int]) -> "CitationNetwork":
        """Return the induced subnetwork on ``paper_indices``.

        Papers are re-indexed densely, preserving the relative order given
        by ``paper_indices``.  Edges with either endpoint outside the subset
        are dropped.  Author indices are preserved verbatim (they remain
        globally meaningful); venue indices likewise.
        """
        keep = _as_index_array(paper_indices, name="paper_indices")
        if keep.size != np.unique(keep).size:
            raise GraphError("paper_indices contains duplicates")
        if keep.size and (keep.min() < 0 or keep.max() >= self.n_papers):
            raise GraphError("paper_indices out of range")

        remap = np.full(self.n_papers, -1, dtype=np.int64)
        remap[keep] = np.arange(keep.size, dtype=np.int64)
        edge_ok = (remap[self._citing] >= 0) & (remap[self._cited] >= 0)

        indptr = indices = None
        if self._author_indptr is not None:
            starts = self._author_indptr[keep]
            lengths = self._author_indptr[keep + 1] - starts
            indptr = np.zeros(keep.size + 1, dtype=np.int64)
            np.cumsum(lengths, out=indptr[1:])
            # Position j of the kept lists reads starts[p] + (j - indptr[p])
            # for the kept paper p it falls in.
            offsets = np.repeat(starts - indptr[:-1], lengths)
            indices = self._author_indices[
                offsets + np.arange(indptr[-1], dtype=np.int64)
            ]
        venues = None
        if self._paper_venues is not None:
            venues = self._paper_venues[keep]

        return CitationNetwork(
            paper_ids=[self._paper_ids[i] for i in keep],
            publication_times=self._pub_time[keep],
            citing=remap[self._citing[edge_ok]],
            cited=remap[self._cited[edge_ok]],
            paper_venues=venues,
            author_indptr=indptr,
            author_indices=indices,
            validate=False,
        )

    # ------------------------------------------------------------------
    # Extension (incremental growth)
    # ------------------------------------------------------------------
    def extend(
        self,
        paper_ids: Sequence[str],
        publication_times: Iterable[float],
        citations: Iterable[tuple[str, str]],
        *,
        validate: bool = True,
    ) -> "CitationNetwork":
        """Return a new network with papers and citations appended.

        The crucial invariant for incremental ranking
        (:mod:`repro.serve`): every existing paper keeps its dense index,
        and the new papers take indices ``n_papers .. n_papers+k-1`` in
        the order given.  A score vector computed on this snapshot
        therefore stays aligned with the old coordinates of the extended
        network, which is what makes warm-started re-solves possible.

        Parameters
        ----------
        paper_ids:
            External ids of the new papers; must not collide with
            existing ids (or each other).
        publication_times:
            Publication time of each new paper, parallel to
            ``paper_ids``.
        citations:
            ``(citing_id, cited_id)`` pairs over the combined id space.
            Both endpoints must exist after the extension; unknown ids
            raise :class:`GraphError` (callers wanting a skip policy
            should resolve through :class:`~repro.graph.NetworkBuilder`).

        Notes
        -----
        New papers inherit empty author lists and unknown venues when the
        base network carries that metadata — bibliographic deltas in the
        serving path are citation events, not metadata updates.
        """
        new_ids = [str(p) for p in paper_ids]
        new_times = [float(t) for t in publication_times]
        if len(new_ids) != len(new_times):
            raise GraphError(
                f"{len(new_ids)} new papers but {len(new_times)} "
                "publication times"
            )
        combined_index = dict(self._index)
        for pid in new_ids:
            if pid in combined_index:
                raise GraphError(f"duplicate paper id: {pid!r}")
            combined_index[pid] = len(combined_index)

        extra_citing: list[int] = []
        extra_cited: list[int] = []
        for citing_id, cited_id in citations:
            try:
                source = combined_index[str(citing_id)]
            except KeyError:
                raise GraphError(
                    f"unknown citing paper: {citing_id!r}"
                ) from None
            try:
                target = combined_index[str(cited_id)]
            except KeyError:
                raise GraphError(
                    f"unknown cited paper: {cited_id!r}"
                ) from None
            extra_citing.append(source)
            extra_cited.append(target)

        indptr = None
        if self._author_indptr is not None:
            indptr = np.concatenate(
                [
                    self._author_indptr,
                    np.full(len(new_ids), self._author_indptr[-1]),
                ]
            )
        venues = None
        if self._paper_venues is not None:
            venues = np.concatenate(
                [self._paper_venues, np.full(len(new_ids), -1, dtype=np.int64)]
            )

        return CitationNetwork(
            paper_ids=list(self._paper_ids) + new_ids,
            publication_times=np.concatenate(
                [self._pub_time, np.asarray(new_times, dtype=np.float64)]
            ),
            citing=np.concatenate(
                [self._citing, np.asarray(extra_citing, dtype=np.int64)]
            ),
            cited=np.concatenate(
                [self._cited, np.asarray(extra_cited, dtype=np.int64)]
            ),
            paper_venues=venues,
            author_indptr=indptr,
            author_indices=self._author_indices,
            validate=validate,
        )

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[str, str]],
        publication_times: Mapping[str, float],
        **kwargs,
    ) -> "CitationNetwork":
        """Build a network from ``(citing_id, cited_id)`` pairs.

        Papers are indexed in the sorted order of their external ids for
        determinism.  Every id appearing in ``edges`` must have an entry
        in ``publication_times``; papers without edges may also be listed
        in ``publication_times`` and become isolated nodes.
        """
        edge_list = [(str(a), str(b)) for a, b in edges]
        ids = set(publication_times)
        for a, b in edge_list:
            if a not in ids:
                raise GraphError(f"no publication time for citing paper {a!r}")
            if b not in ids:
                raise GraphError(f"no publication time for cited paper {b!r}")
        ordered = sorted(ids)
        index = {pid: i for i, pid in enumerate(ordered)}
        citing = [index[a] for a, _ in edge_list]
        cited = [index[b] for _, b in edge_list]
        times = [float(publication_times[pid]) for pid in ordered]
        return cls(ordered, times, citing, cited, **kwargs)
