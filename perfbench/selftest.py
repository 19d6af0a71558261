"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench/selftest.py``.
They cover a quick pass of every workload (its printed metric names
must be those of ``BENCHMARK.json``), the seeding of the inputs, and
each correctness gate firing on a deliberately corrupted answer.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import gates  # noqa: E402
import loadgen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# The registered benchmark and a quick pass of each workload
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_workloads():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_prints_the_registered_metrics(workload, trace):
    spec = benchmark_json()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_missing_program_source_fails_without_a_result(tmp_path):
    copy = tmp_path / "checkout"
    (copy / "perfbench").mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (copy / "perfbench" / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank_scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=copy, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# ----------------------------------------------------------------------
# Inputs come from the seed
# ----------------------------------------------------------------------
def test_a_seed_change_changes_the_inputs(tmp_path):
    def files(directory, seed):
        inputs = workloads.Inputs(str(tmp_path / directory), seed)
        with open(inputs.network("tiny"), "rb") as handle:
            network = handle.read()
        with open(inputs.log("tiny")[0], "rb") as handle:
            log = handle.read()
        return network, log, inputs.catalogue("tiny")

    first, again, other = files("a", 1), files("b", 1), files("c", 2)
    assert first == again
    for mine, theirs in zip(first, other):
        assert mine != theirs


def test_a_seed_change_changes_the_read_schedule(tmp_path):
    catalogue, draws = workloads.Inputs(str(tmp_path), 1).catalogue("tiny")
    popularity = loadgen.Popularity(catalogue, draws, workloads.ZIPF_EXPONENT)

    def schedule(seed):
        return loadgen.poisson_schedule(random.Random(seed), 200, 1.0, popularity)

    assert schedule(1) == schedule(1)
    assert schedule(1) != schedule(2)


def test_reads_take_each_kind_with_the_plan_share(tmp_path):
    catalogue, draws = workloads.Inputs(str(tmp_path), 3).catalogue("tiny")
    popularity = loadgen.Popularity(catalogue, draws, workloads.ZIPF_EXPONENT)
    rng = random.Random(4)
    drawn = Counter(catalogue[popularity.draw(rng)]["kind"] for _ in range(20_000))
    for kind, count in draws.items():
        assert drawn[kind] / 20_000 == pytest.approx(count / sum(draws.values()), abs=0.015)


# ----------------------------------------------------------------------
# Every gate fires on a corrupted answer
# ----------------------------------------------------------------------
def _one_ulp_up(array):
    corrupted = np.array(array, copy=True)
    corrupted[0] = np.nextafter(corrupted[0], np.inf)
    return corrupted


def _index(scores):
    network = SimpleNamespace(paper_ids=("a", "b"), publication_times=np.array([1.0, 2.0]),
                              citing=np.array([1]), cited=np.array([0]))
    return SimpleNamespace(labels=("AR",), version=3, network=network,
                           scores=lambda label: scores)


def test_index_gate_fires_on_a_changed_score():
    scores = np.array([0.25, 0.75])
    assert gates.index_mismatches(_index(scores), _index(scores.copy())) == []
    assert gates.index_mismatches(_index(scores), _index(_one_ulp_up(scores)))


def test_scores_gate_fires_on_a_changed_score():
    want = {"AR": np.array([0.1, 0.9]), "PR": np.array([0.5, 0.5])}
    assert gates.scores_mismatches(dict(want), want) == []
    assert gates.scores_mismatches({**want, "PR": _one_ulp_up(want["PR"])}, want) == ["PR"]
    assert gates.scores_mismatches({"AR": want["AR"]}, want)


def test_protocol_gate_fires_on_changed_parameters_or_scores():
    want = {"AR": [[1.6, {"alpha": 0.2, "beta": 0.5}, 0.61]]}
    assert gates.protocol_mismatches(json.loads(json.dumps(want)), want) == []
    moved = {"AR": [[1.6, {"alpha": 0.3, "beta": 0.5}, 0.61]]}
    assert gates.protocol_mismatches(moved, want) == ["AR@1.6"]
    drifted = {"AR": [[1.6, {"alpha": 0.2, "beta": 0.5}, float(np.nextafter(0.61, 1))]]}
    assert gates.protocol_mismatches(drifted, want) == ["AR@1.6"]


def test_read_gate_fires_on_a_changed_answer():
    from repro.gateway.loadgen import _canon, _direct_payload
    from repro.serve import RankingService, ScoreIndex
    from repro.synth import generate_dataset

    index = ScoreIndex(generate_dataset("hep-th", size="tiny", seed=3))
    index.add_method("AR")
    service = RankingService(index)
    request = {"kind": "top", "method": "AR", "k": 5, "offset": 0, "span": None}
    result = _canon(_direct_payload(service, request))
    record = {"request": request, "status": 200, "version": service.version,
              "result": result}
    at = lambda version: service if version == service.version else None  # noqa: E731
    assert gates.read_mismatches([record], at) == 0
    assert gates.read_mismatches([{**record, "version": service.version + 1}], at) == 1
    changed = json.loads(json.dumps(result))
    changed["entries"][0]["score"] = float(np.nextafter(changed["entries"][0]["score"], 1))
    assert gates.read_mismatches([{**record, "result": changed}], at) == 1


def _step(*children):
    root = (1, None, "bench.rank", 0.0, 10.0, None, {"root": True})
    return tracing.build_forest([root, *children])


NESTED = [(2, 1, "io.load", 0.0, 4.0, None, None),
          (3, 1, "core.solve", 4.0, 10.0, None, None),
          (4, 3, "graph.operator", 5.0, 6.0, None, None)]


def test_reconciliation_passes_when_the_layers_cover_the_step():
    assert tracing.reconcile(_step(*NESTED)) == pytest.approx(0.0)


def test_reconciliation_fires_on_a_missing_layer_span():
    # The solve was not traced (say, a renamed function): the step's
    # last six seconds belong to no layer.
    assert tracing.reconcile(_step(NESTED[0])) == pytest.approx(0.6)
    assert tracing.reconcile(_step(NESTED[0])) > workloads.RECONCILE_TOLERANCE


def test_reconciliation_fires_on_overlapping_steps():
    overlapping = [*NESTED, (5, 1, "serve.index_save", 8.0, 9.5, None, None)]
    assert tracing.reconcile(_step(*overlapping)) > workloads.RECONCILE_TOLERANCE


def test_a_growing_backlog_misses_the_objective():
    def leg(service_seconds):
        due = [i / 100 for i in range(100)]
        records = [loadgen.Record(query=0, due=d, sent=d, done=d + service_seconds * (i + 1),
                                  status=200) for i, d in enumerate(due)]
        return loadgen.Leg(rate=100, seconds=1.0, start=0.0, dues=due, records=records)

    assert leg(0.0001).meets_slo()
    assert not leg(0.0015).meets_slo()  # answers fall behind the arrivals
