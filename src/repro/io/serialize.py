"""Binary save/load of citation networks (single ``.npz`` file).

Loaders and generators can be slow on large corpora; serialising the
parsed :class:`~repro.graph.CitationNetwork` lets experiments reload it
in milliseconds.  The format is a plain NumPy ``.npz`` archive:

* ``paper_ids``  — unicode array,
* ``pub_time``   — float64,
* ``citing`` / ``cited`` — int64 edge arrays,
* ``author_indptr`` / ``author_indices`` — CSR-encoded author lists
  (present only when the network has author data),
* ``venues``     — int64 (present only with venue data),
* ``format_version`` — for forward compatibility.

The payload helpers :func:`network_payload` / :func:`network_from_payload`
convert between a network and its array dictionary without touching the
filesystem; composite formats embedding a network (the score index of
:mod:`repro.serve`) build on them.  Both pass the network's author arrays
through as they are, so no per-paper Python object is built.

Network files stay deflated (:func:`numpy.savez_compressed`) and
unsealed: they are inputs, written once and read once per job, where
size matters more than load time.  The score index writes the same
payload stored and sealed instead (:mod:`repro.serve.score_index`).
"""

from __future__ import annotations

import os
from typing import Mapping

import numpy as np

from repro.errors import DataFormatError
from repro.graph.citation_network import CitationNetwork

__all__ = [
    "save_network",
    "load_network",
    "network_payload",
    "network_from_payload",
    "FORMAT_VERSION",
]

FORMAT_VERSION = 1


def network_payload(network: CitationNetwork) -> dict[str, np.ndarray]:
    """The array dictionary encoding ``network`` in the ``.npz`` format."""
    payload: dict[str, np.ndarray] = {
        "format_version": np.asarray([FORMAT_VERSION], dtype=np.int64),
        "paper_ids": np.asarray(network.paper_ids, dtype=np.str_),
        "pub_time": network.publication_times,
        "citing": network.citing,
        "cited": network.cited,
    }
    if network.has_authors:
        payload["author_indptr"] = network.author_indptr
        payload["author_indices"] = network.author_indices
    if network.paper_venues is not None:
        payload["venues"] = network.paper_venues
    return payload


def network_from_payload(
    arrays: Mapping[str, np.ndarray], *, source: str = "payload"
) -> CitationNetwork:
    """Rebuild a network from an array dictionary (or open archive).

    ``source`` names the origin in error messages.

    Raises
    ------
    DataFormatError
        If mandatory arrays are missing or the declared format version
        is unsupported.
    """
    members = set(arrays.keys()) if hasattr(arrays, "keys") else set(arrays)
    required = {"format_version", "paper_ids", "pub_time", "citing", "cited"}
    missing = required - members
    if missing:
        raise DataFormatError(
            f"{source}: not a repro network payload "
            f"(missing {sorted(missing)})"
        )
    version = int(arrays["format_version"][0])
    if version != FORMAT_VERSION:
        raise DataFormatError(
            f"{source}: unsupported format version {version} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    authors = {"author_indptr", "author_indices"} & members
    if len(authors) == 1:
        raise DataFormatError(
            f"{source}: {authors.pop()} without its partner array"
        )
    venues = arrays["venues"] if "venues" in members else None
    return CitationNetwork(
        paper_ids=arrays["paper_ids"].tolist(),
        publication_times=arrays["pub_time"],
        citing=arrays["citing"],
        cited=arrays["cited"],
        paper_venues=venues,
        author_indptr=arrays["author_indptr"] if authors else None,
        author_indices=arrays["author_indices"] if authors else None,
        validate=True,
    )


def save_network(network: CitationNetwork, path: str) -> None:
    """Write ``network`` to ``path`` (conventionally ``*.npz``)."""
    np.savez_compressed(path, **network_payload(network))


def load_network(path: str) -> CitationNetwork:
    """Read a network previously written by :func:`save_network`.

    Raises
    ------
    DataFormatError
        If the file is missing, lacks mandatory arrays, or declares an
        unsupported format version.
    """
    if not os.path.exists(path):
        raise DataFormatError(f"file not found: {path}")
    with np.load(path, allow_pickle=False) as archive:
        return network_from_payload(
            {name: archive[name] for name in archive.files}, source=path
        )
