"""Failure-injection tests: corrupt inputs, degenerate networks, and
adversarial configurations must fail loudly (or degrade gracefully where
the API documents it) — never return silently wrong rankings."""

import json
import os
import pathlib

import numpy as np
import pytest

from repro.baselines import METHOD_REGISTRY, make_method
from repro.errors import (
    ConfigurationError,
    DataFormatError,
    EvaluationError,
    GraphError,
    IndexIntegrityError,
    ReproError,
)
from repro.graph.builder import NetworkBuilder
from repro.graph.citation_network import CitationNetwork


def edgeless(n: int, *, spread: float = 1.0) -> CitationNetwork:
    """n isolated papers spanning `spread` years."""
    times = 2000.0 + np.linspace(0.0, spread, n)
    return CitationNetwork([f"p{i}" for i in range(n)], times, [], [])


class TestDegenerateNetworks:
    def test_every_method_handles_edgeless_network(self):
        """No citations at all: methods must still return valid scores
        (uniform-ish), not crash or divide by zero."""
        network = edgeless(6)
        for name in METHOD_REGISTRY:
            if name in ("FR", "WSDM"):
                continue  # require metadata, tested separately
            if name in ("AR", "NO-ATT"):
                method = make_method(name, decay_rate=-0.5)
            else:
                method = make_method(name)
            scores = method.scores(network)
            assert np.all(np.isfinite(scores)), name
            assert scores.min() >= 0, name

    def test_single_useful_paper_network(self):
        builder = NetworkBuilder()
        builder.add_paper("a", 2000.0)
        builder.add_paper("b", 2001.0, references=["a"])
        network = builder.build()
        scores = make_method("AR", decay_rate=-0.5).scores(network)
        assert scores.sum() == pytest.approx(1.0)

    def test_same_instant_publications(self):
        """All papers published at the same instant: ages are all zero,
        recency must degrade to uniform rather than NaN."""
        network = CitationNetwork(
            ["x", "y", "z"], [2000.0] * 3, [], []
        )
        from repro.core.recency import recency_vector

        vector = recency_vector(network, -1.0)
        assert np.allclose(vector, 1 / 3)

    def test_attrank_fit_fails_loudly_on_edgeless_network(self):
        """Auto-fitting w needs citation ages; with none the error must
        be a ReproError, not an inscrutable numpy failure."""
        with pytest.raises(ReproError):
            make_method("AR").scores(edgeless(5))


class TestCorruptFiles:
    def test_truncated_npz(self, toy, tmp_path):
        from repro.io.serialize import load_network, save_network

        path = str(tmp_path / "net.npz")
        save_network(toy, path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[: len(raw) // 2])
        with pytest.raises(Exception):  # zipfile/numpy error surface
            load_network(path)

    def test_binary_garbage_edge_file(self, tmp_path):
        from repro.io.edgelist import load_edge_list

        edges = tmp_path / "edges.bin"
        edges.write_bytes(bytes(range(256)))
        times = tmp_path / "times.txt"
        times.write_text("a 2000\n")
        with pytest.raises(DataFormatError):
            load_edge_list(str(edges), str(times))

    def test_empty_metadata_csv(self, tmp_path):
        from repro.io.edgelist import load_csv_dataset

        metadata = tmp_path / "papers.csv"
        metadata.write_text("")
        citations = tmp_path / "citations.csv"
        citations.write_text("a,b\n")
        with pytest.raises(DataFormatError):
            load_csv_dataset(str(metadata), str(citations))


def _flip_byte(path: str, offset: int) -> None:
    raw = bytearray(open(path, "rb").read())
    raw[offset] ^= 0xFF
    open(path, "wb").write(bytes(raw))


class TestCorruptServingFiles:
    """The serving stack's on-disk formats must fail with *typed*
    errors on corruption — never a bare zipfile/zlib/KeyError."""

    @pytest.fixture
    def shard_dir(self, toy, tmp_path) -> str:
        from repro.serve import ScoreIndex, ShardedScoreIndex

        index = ScoreIndex(toy)
        index.add_method("CC")
        directory = str(tmp_path / "store")
        ShardedScoreIndex.from_index(index, n_shards=2).save(directory)
        return directory

    def test_truncated_shard_npz(self, shard_dir):
        from repro.serve import ShardedScoreIndex

        path = os.path.join(shard_dir, "shard_0000.npz")
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[: len(raw) // 2])
        store = ShardedScoreIndex.load(shard_dir)  # manifest-only, lazy
        with pytest.raises(IndexIntegrityError, match="not a readable"):
            store.shard(0)

    def test_bit_flipped_shard_npz(self, shard_dir):
        from repro.serve import ShardedScoreIndex

        path = os.path.join(shard_dir, "shard_0000.npz")
        _flip_byte(path, os.path.getsize(path) // 2)
        store = ShardedScoreIndex.load(shard_dir)
        with pytest.raises(IndexIntegrityError):
            store.shard(0)

    def test_bit_flipped_index_npz(self, toy, tmp_path):
        from repro.serve import ScoreIndex

        index = ScoreIndex(toy)
        index.add_method("CC")
        path = str(tmp_path / "idx.npz")
        index.save(path)
        _flip_byte(path, os.path.getsize(path) // 2)
        with pytest.raises(DataFormatError):
            ScoreIndex.load(path)


class TestEverySingleByteFlip:
    """Flipping any one byte of an index or shard file must fail the
    load with a typed error: the seal covers every byte before it, and
    zipfile failures raised before the seal is checked are mapped."""

    @staticmethod
    def _flip_each(path, load, error):
        file = pathlib.Path(path)
        raw = file.read_bytes()
        escaped = []
        for offset in range(len(raw)):
            damaged = bytearray(raw)
            damaged[offset] ^= 0xFF
            file.write_bytes(damaged)
            try:
                load()
            except error:
                continue
            except Exception as failure:  # an untyped escape
                escaped.append((offset, type(failure).__name__))
            else:
                escaped.append((offset, "loaded"))
        file.write_bytes(raw)
        load()  # the undamaged file still loads
        assert escaped == []

    @pytest.fixture
    def index(self, toy):
        from repro.serve import ScoreIndex

        index = ScoreIndex(toy)
        index.add_method("CC")
        index.add_method("PR")
        return index

    def test_index_file(self, index, tmp_path):
        from repro.serve import ScoreIndex

        path = str(tmp_path / "idx.npz")
        index.save(path)
        self._flip_each(path, lambda: ScoreIndex.load(path), DataFormatError)

    @pytest.mark.slow
    def test_shard_file(self, index, tmp_path):
        from repro.serve import ShardedScoreIndex

        directory = str(tmp_path / "store")
        ShardedScoreIndex.from_index(index, n_shards=2).save(directory)
        self._flip_each(
            os.path.join(directory, "shard_0000.npz"),
            lambda: ShardedScoreIndex.load(directory).shard(0),
            IndexIntegrityError,
        )


class TestCorruptCheckpoints:
    """`repro stream resume` against a damaged checkpoint must exit 1
    with a typed one-line error, not a traceback."""

    @pytest.fixture
    def replayed(self, toy, tmp_path, capsys):
        from repro.cli import main
        from repro.io.serialize import save_network

        network_file = str(tmp_path / "net.npz")
        save_network(toy, network_file)
        log_file = str(tmp_path / "events.jsonl")
        assert main(
            ["stream", "extract", "--input", network_file,
             "--output", log_file]
        ) == 0
        ckpt = str(tmp_path / "ckpt")
        assert main(
            ["stream", "replay", "--log", log_file, "--methods", "CC",
             "--batch-size", "2", "--bootstrap-size", "4",
             "--max-batches", "2", "--checkpoint-dir", ckpt,
             "--checkpoint-every", "1"]
        ) == 0
        capsys.readouterr()
        return log_file, ckpt

    def test_corrupted_digest_is_a_stream_error(self, replayed, capsys):
        from repro.cli import main

        log_file, ckpt = replayed
        manifest = os.path.join(ckpt, "checkpoint.json")
        payload = json.load(open(manifest))
        payload["log_digest"] = "0" * len(payload["log_digest"])
        json.dump(payload, open(manifest, "w"))
        code = main(
            ["stream", "resume", "--checkpoint", ckpt, "--log", log_file]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "error: [StreamError]" in err and "digest" in err

    def test_corrupted_checkpoint_index_is_typed(self, replayed, capsys):
        from repro.cli import main

        log_file, ckpt = replayed
        (index_file,) = [
            name for name in os.listdir(ckpt) if name.endswith(".npz")
        ]
        path = os.path.join(ckpt, index_file)
        _flip_byte(path, os.path.getsize(path) // 2)
        code = main(
            ["stream", "resume", "--checkpoint", ckpt, "--log", log_file]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "error: [DataFormatError]" in err


class TestAdversarialConfiguration:
    def test_coefficients_fuzz(self):
        """Random invalid coefficient triples never construct."""
        from repro.core.attrank import AttRank

        rng = np.random.default_rng(0)
        for _ in range(50):
            alpha, beta, gamma = rng.uniform(-0.5, 1.5, size=3)
            if (
                0 <= alpha <= 1
                and 0 <= beta <= 1
                and 0 <= gamma <= 1
                and abs(alpha + beta + gamma - 1) <= 1e-6
            ):
                AttRank(alpha=alpha, beta=beta, gamma=gamma)
            else:
                with pytest.raises(ConfigurationError):
                    AttRank(alpha=alpha, beta=beta, gamma=gamma)

    def test_split_ratio_fuzz(self, toy):
        from repro.eval.split import split_by_ratio

        for ratio in (-1.0, 0.0, 0.5, 1.0, 2.01, 100.0, float("inf")):
            with pytest.raises(EvaluationError):
                split_by_ratio(toy, ratio)

    def test_subnetwork_index_fuzz(self, toy):
        rng = np.random.default_rng(1)
        for _ in range(20):
            indices = rng.integers(-3, 12, size=5)
            valid = (
                np.unique(indices).size == indices.size
                and indices.min() >= 0
                and indices.max() < toy.n_papers
            )
            if valid:
                toy.subnetwork(indices)
            else:
                with pytest.raises(GraphError):
                    toy.subnetwork(indices)
