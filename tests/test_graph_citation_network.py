"""Unit tests for repro.graph.citation_network."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.citation_network import CitationNetwork


def make(ids, times, citing, cited, **kwargs):
    return CitationNetwork(ids, times, citing, cited, **kwargs)


class TestConstruction:
    def test_basic_counts(self, toy):
        assert toy.n_papers == 8
        assert toy.n_citations == 13
        assert len(toy) == 8

    def test_paper_ids_preserved(self, toy):
        assert toy.paper_ids == ("A", "B", "C", "D", "E", "F", "G", "H")

    def test_index_round_trip(self, toy):
        for i, pid in enumerate(toy.paper_ids):
            assert toy.index_of(pid) == i
            assert toy.id_of(i) == pid

    def test_contains(self, toy):
        assert "A" in toy
        assert "nope" not in toy

    def test_unknown_id_raises(self, toy):
        with pytest.raises(GraphError, match="unknown paper id"):
            toy.index_of("nope")

    def test_empty_network(self):
        network = make([], [], [], [])
        assert network.n_papers == 0
        assert network.n_citations == 0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(GraphError, match="not unique"):
            make(["a", "a"], [2000.0, 2001.0], [], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(GraphError):
            make(["a", "b"], [2000.0], [], [])

    def test_self_citation_rejected(self):
        with pytest.raises(GraphError, match="self-citations"):
            make(["a", "b"], [2000.0, 2001.0], [1, 0], [1, 0])

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            make(["a", "b"], [2000.0, 2001.0], [1], [5])

    def test_non_finite_time_rejected(self):
        with pytest.raises(GraphError, match="finite"):
            make(["a", "b"], [2000.0, float("nan")], [], [])

    def test_mismatched_edge_arrays_rejected(self):
        with pytest.raises(GraphError, match="differ in length"):
            make(["a", "b"], [2000.0, 2001.0], [1], [])

    def test_time_order_validation_optional(self):
        # b (2000) cites a (2005): allowed by default, rejected on demand.
        network = make(["a", "b"], [2005.0, 2000.0], [1], [0])
        with pytest.raises(GraphError, match="published later"):
            network.validate(require_time_order=True)

    def test_arrays_read_only(self, toy):
        with pytest.raises(ValueError):
            toy.publication_times[0] = 0.0
        with pytest.raises(ValueError):
            toy.citing[0] = 0


class TestCitationMatrix:
    def test_convention_cited_rows(self, chain):
        # C[i, j] = 1 iff j cites i; chain: B cites A etc.
        matrix = chain.citation_matrix.toarray()
        a, b, c, d = (chain.index_of(x) for x in "ABCD")
        assert matrix[a, b] == 1
        assert matrix[b, c] == 1
        assert matrix[c, d] == 1
        assert matrix.sum() == 3

    def test_duplicate_references_collapse(self):
        network = make(["a", "b"], [2000.0, 2001.0], [1, 1], [0, 0])
        assert network.citation_matrix.toarray()[0, 1] == 1.0
        assert network.in_degree[0] == 1

    def test_degrees(self, toy):
        a = toy.index_of("A")
        f = toy.index_of("F")
        # A is cited by B, C, F.
        assert toy.in_degree[a] == 3
        # F cites D, E, A.
        assert toy.out_degree[f] == 3

    def test_degree_totals_match_edges(self, toy):
        assert toy.in_degree.sum() == toy.n_citations
        assert toy.out_degree.sum() == toy.n_citations

    def test_dangling_mask(self, toy):
        # Only A cites nothing.
        expected = np.zeros(8, dtype=bool)
        expected[toy.index_of("A")] = True
        assert np.array_equal(toy.dangling_mask, expected)


class TestMetadata:
    def test_authors_present(self, toy):
        assert toy.has_authors
        assert toy.n_authors == 5  # ada, bob, cyd, eve, hal

    def test_author_matrix_shape_and_content(self, toy):
        matrix = toy.author_matrix
        assert matrix.shape == (5, 8)
        # ada wrote A, C, E.
        ada_row = matrix.toarray()[0]
        assert ada_row.sum() == 3

    def test_venues_present(self, toy):
        assert toy.has_venues
        assert toy.n_venues == 3

    def test_venue_matrix_columns(self, toy):
        matrix = toy.venue_matrix.toarray()
        # every paper has a venue -> every column sums to 1
        assert np.array_equal(matrix.sum(axis=0), np.ones(8))

    def test_no_author_metadata_raises(self, chain):
        assert not chain.has_authors
        with pytest.raises(GraphError, match="no author metadata"):
            chain.author_matrix

    def test_no_venue_metadata_raises(self, chain):
        with pytest.raises(GraphError, match="no venue metadata"):
            chain.venue_matrix

    def test_unknown_venue_column_empty(self):
        network = make(
            ["a", "b"],
            [2000.0, 2001.0],
            [1],
            [0],
            paper_venues=[0, -1],
        )
        matrix = network.venue_matrix.toarray()
        assert matrix[:, 0].sum() == 1
        assert matrix[:, 1].sum() == 0


class TestAgesAndTimes:
    def test_latest_time(self, toy):
        assert toy.latest_time == 2003.0

    def test_latest_time_empty_raises(self):
        with pytest.raises(GraphError):
            make([], [], [], []).latest_time

    def test_ages_default_now(self, toy):
        ages = toy.ages()
        assert ages[toy.index_of("A")] == pytest.approx(13.0)
        assert ages[toy.index_of("H")] == pytest.approx(0.0)

    def test_ages_clipped_at_zero(self, toy):
        ages = toy.ages(now=1995.0)
        assert np.all(ages >= 0.0)

    def test_citation_times_are_citing_pub_times(self, chain):
        times = chain.citation_times()
        assert sorted(times.tolist()) == [2001.0, 2002.0, 2003.0]


class TestSubnetwork:
    def test_induced_edges_only(self, toy):
        indices = [toy.index_of(x) for x in ("A", "B", "C")]
        sub = toy.subnetwork(indices)
        assert sub.n_papers == 3
        # Edges among A, B, C: B->A, C->A, C->B.
        assert sub.n_citations == 3

    def test_preserves_metadata(self, toy):
        sub = toy.subnetwork([0, 1, 2])
        assert sub.has_authors and sub.has_venues

    def test_duplicate_indices_rejected(self, toy):
        with pytest.raises(GraphError, match="duplicates"):
            toy.subnetwork([0, 0])

    def test_out_of_range_rejected(self, toy):
        with pytest.raises(GraphError, match="out of range"):
            toy.subnetwork([0, 99])

    def test_empty_subnetwork(self, toy):
        sub = toy.subnetwork([])
        assert sub.n_papers == 0

    def test_reindexing_consistency(self, toy):
        indices = [toy.index_of(x) for x in ("C", "E", "F")]
        sub = toy.subnetwork(sorted(indices))
        assert set(sub.paper_ids) == {"C", "E", "F"}
        for pid in sub.paper_ids:
            original = toy.publication_times[toy.index_of(pid)]
            assert sub.publication_times[sub.index_of(pid)] == original


class TestFromEdges:
    def test_basic(self):
        network = CitationNetwork.from_edges(
            [("b", "a"), ("c", "a")],
            {"a": 2000.0, "b": 2001.0, "c": 2002.0},
        )
        assert network.n_papers == 3
        assert network.in_degree[network.index_of("a")] == 2

    def test_isolated_paper_allowed(self):
        network = CitationNetwork.from_edges(
            [("b", "a")], {"a": 2000.0, "b": 2001.0, "z": 1999.0}
        )
        assert "z" in network
        assert network.in_degree[network.index_of("z")] == 0

    def test_missing_time_raises(self):
        with pytest.raises(GraphError, match="no publication time"):
            CitationNetwork.from_edges([("b", "a")], {"b": 2001.0})

    def test_networkx_export(self, chain):
        graph = chain.to_networkx()
        assert graph.number_of_nodes() == 4
        assert graph.number_of_edges() == 3
        assert graph.nodes[0]["paper_id"] == "A"


def _random_author_lists(rng, n_papers, n_authors=12):
    """Author lists with empty entries and a repeated author."""
    lists = [
        tuple(int(a) for a in rng.integers(0, n_authors, rng.integers(0, 5)))
        for _ in range(n_papers)
    ]
    lists[0] = ()
    lists[1] = (3, 7, 3)
    return lists


def _reference_author_matrix(lists, n_authors, n_papers):
    """The author matrix as built from tuples: COO from (author, paper)
    pairs, duplicates summed, data set to 1."""
    import scipy.sparse as sp

    rows, cols = [], []
    for paper, authors in enumerate(lists):
        for author in authors:
            rows.append(author)
            cols.append(paper)
    matrix = sp.csr_matrix(
        (np.ones(len(rows), dtype=np.float64), (rows, cols)),
        shape=(n_authors, n_papers),
    )
    matrix.sum_duplicates()
    matrix.data[:] = 1.0
    return matrix


def _assert_same_bytes(actual, expected):
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


class TestAuthorArrays:
    """Author lists live in two int64 arrays; every view of them must
    agree with the tuple-of-tuples semantics."""

    @pytest.fixture(params=[0, 1, 2])
    def case(self, request):
        rng = np.random.default_rng(request.param)
        n = 40
        lists = _random_author_lists(rng, n)
        citing = np.arange(1, n, dtype=np.int64)
        cited = rng.integers(0, citing)  # every paper cites an older one
        network = make(
            [f"p{i}" for i in range(n)],
            np.linspace(2000.0, 2010.0, n),
            citing,
            cited,
            paper_authors=lists,
        )
        return rng, lists, network

    def test_construction_from_tuples(self, case):
        _, lists, network = case
        assert network.paper_authors == tuple(lists)
        assert network.n_authors == 1 + max(a for t in lists for a in t)
        lengths = [len(t) for t in lists]
        assert network.author_indptr.tolist() == [0, *np.cumsum(lengths)]
        assert network.author_indices.tolist() == [a for t in lists for a in t]
        for array in (network.author_indptr, network.author_indices):
            assert array.dtype == np.int64
            assert not array.flags.writeable

    def test_construction_from_arrays(self, case):
        _, lists, network = case
        rebuilt = make(
            network.paper_ids,
            network.publication_times,
            network.citing,
            network.cited,
            author_indptr=network.author_indptr,
            author_indices=network.author_indices,
        )
        assert rebuilt.paper_authors == tuple(lists)

    def test_payload_round_trip(self, case):
        from repro.io.serialize import network_from_payload, network_payload

        _, lists, network = case
        restored = network_from_payload(network_payload(network))
        assert restored.paper_authors == tuple(lists)
        assert np.array_equal(restored.author_indptr, network.author_indptr)
        assert np.array_equal(restored.author_indices, network.author_indices)

    def test_subnetwork(self, case):
        rng, lists, network = case
        keep = rng.permutation(network.n_papers)[:25]
        sub = network.subnetwork(keep)
        assert sub.paper_authors == tuple(lists[i] for i in keep)
        _assert_same_bytes(
            sub.author_matrix,
            _reference_author_matrix(
                [lists[i] for i in keep], sub.n_authors, sub.n_papers
            ),
        )
        assert network.subnetwork([]).paper_authors == ()

    def test_extend(self, case):
        _, lists, network = case
        grown = network.extend(
            ["n1", "n2"], [2011.0, 2011.5], [("n2", "n1"), ("n1", "p0")]
        )
        assert grown.paper_authors == tuple(lists) + ((), ())
        assert grown.n_authors == network.n_authors
        _assert_same_bytes(
            grown.author_matrix,
            _reference_author_matrix(
                lists + [(), ()], grown.n_authors, grown.n_papers
            ),
        )

    def test_author_matrix_bytes(self, case):
        _, lists, network = case
        _assert_same_bytes(
            network.author_matrix,
            _reference_author_matrix(
                lists, network.n_authors, network.n_papers
            ),
        )

    def test_only_empty_lists(self):
        network = make(["a", "b"], [2000.0, 2001.0], [1], [0],
                       paper_authors=[(), ()])
        assert network.has_authors
        assert network.n_authors == 0
        assert network.author_matrix.shape == (0, 2)

    def test_both_forms_rejected(self, toy):
        with pytest.raises(GraphError, match="not both"):
            make(["a"], [2000.0], [], [], paper_authors=[(0,)],
                 author_indptr=[0, 1], author_indices=[0])

    def test_half_pair_rejected(self):
        with pytest.raises(GraphError, match="together"):
            make(["a"], [2000.0], [], [], author_indptr=[0, 0])

    @pytest.mark.parametrize(
        "indptr, indices, match",
        [
            ([0, 1], [0], "length"),
            ([1, 1, 1], [0], "rise"),
            ([0, 2, 1], [0], "rise"),
            ([0, 1, 2], [0, -1], "non-negative"),
        ],
    )
    def test_malformed_arrays_rejected(self, indptr, indices, match):
        with pytest.raises(GraphError, match=match):
            make(["a", "b"], [2000.0, 2001.0], [], [],
                 author_indptr=indptr, author_indices=indices)

    def test_array_inputs_are_copied(self):
        times = np.array([2000.0, 2001.0])
        venues = np.array([0, 1])
        network = make(["a", "b"], times, [1], [0], paper_venues=venues)
        times[0] = 1990.0
        venues[0] = 5
        assert network.publication_times[0] == 2000.0
        assert network.paper_venues[0] == 0
        assert times.flags.writeable and venues.flags.writeable
