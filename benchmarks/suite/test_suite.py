"""Self-tests of the repo benchmark, at small sizes.

    PYTHONPATH=src python -m pytest benchmarks/suite -q

Each test shrinks a workload's chunk so the whole file runs in well
under a minute; the CLI has no size flag.
"""

from __future__ import annotations

import json

import pytest

import ladder
import reference
import run
import workloads as wl
from repro.net.serve import Request

SMALL_CHUNK = {"calldense": 8, "serve-inproc": 48, "serve-proc-direct": 48, "serve-proc-dispatch": 24}


def small(name: str, seed: int = 7):
    workload = wl.make(name, seed)
    workload.chunk = SMALL_CHUNK[name]
    return workload


def result_lines(capsys) -> tuple[list[str], dict]:
    lines = capsys.readouterr().out.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_every_listed_metric_prints_with_its_unit(name, capsys):
    assert run.run_one(small(name), seconds=0.2, trace=False) == 0
    lines, doc = result_lines(capsys)
    listed = run.spec()["end_to_end"]
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
    assert set(doc["metrics"]) == {entry["name"] for entry in listed}
    for entry in listed:
        metric = doc["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert metric["value"] > 0
        assert any(line.startswith(f"{name} {entry['name']} ") and f" {entry['unit']} n=" in line
                   for line in lines)


def test_corrupted_expected_fails_the_run(capsys):
    workload = small("serve-inproc")
    honest = workload.chunks

    def corrupted():
        for chunk in honest():
            first = chunk[0]
            chunk[0] = Request(first.index, first.op, first.a, first.b, first.expected + 1)
            yield chunk

    workload.chunks = corrupted
    assert run.run_one(workload, seconds=0.2, trace=False) == 1
    _lines, doc = result_lines(capsys)
    assert doc["correct"] is False and doc["failed"] >= 1


def test_calldense_wrong_answer_fails_the_run(capsys):
    workload = small("calldense")
    honest = workload.chunks

    def corrupted():
        for ops in honest():
            combo, n, expected = ops[0]
            ops[0] = (combo, n, expected + 1)
            yield ops

    workload.chunks = corrupted
    assert run.run_one(workload, seconds=0.2, trace=False) == 1


@pytest.mark.parametrize("name", ["calldense", "serve-inproc"])
def test_perturbed_reference_meter_exits_2(name, tmp_path, monkeypatch, capsys):
    doc = json.loads(reference.PATH.read_text())
    entry = doc["workloads"][name]
    if name == "calldense":
        entry["runs"]["i3/jit"]["counter"]["cycles"] += 1
    else:
        entry["meters"]["1"]["steps"] += 1
    perturbed = tmp_path / "reference.json"
    perturbed.write_text(json.dumps(doc))
    monkeypatch.setattr(reference, "PATH", perturbed)
    assert run.run_one(small(name), seconds=0.2, trace=False) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert name in captured.err


def test_first_difference_names_the_key():
    assert reference.first_difference({"a": {"b": [1, 2]}}, {"a": {"b": [1, 3]}}) == (
        "a.b.1: reference 2, observed 3"
    )
    assert reference.first_difference({"a": 1}, {"a": 1}) is None


def _check_nesting(spans):
    by_id = {span[0]: span for span in spans}
    for span in spans:
        if span[4] >= 0:
            parent = by_id[span[4]]
            assert parent[2] <= span[2] and span[3] <= parent[3], (parent, span)


@pytest.mark.parametrize("name", ["calldense", "serve-inproc"])
def test_traced_self_times_sum_to_the_root(name):
    _phase, metrics, _raw, _factor, tracer = run._traced(small(name), seconds=0.4)
    _check_nesting(tracer.spans)
    (root,) = [span for span in tracer.spans if span[1] == f"bench.{name}"]
    total = sum(tracer.self_times().values())
    assert abs(total - (root[3] - root[2])) <= 0.01 * (root[3] - root[2])
    listed = {entry["name"] for entry in run.spec()["per_layer"]}
    assert set(metrics) == listed
    assert metrics["machine.cycles_per_op"][0] > 0


def test_traced_process_mode_merges_worker_spans():
    _phase, metrics, _raw, _factor, tracer = run._traced(small("serve-proc-direct"), seconds=0.4)
    assert len(tracer.workers) == 2
    for doc in tracer.workers.values():
        _check_nesting(doc["spans"])
        assert any(span[1] == "net.worker.pump" for span in doc["spans"])
    pids = {event["pid"] for event in tracer.chrome()["traceEvents"]}
    assert set(tracer.workers) <= pids and tracer.pid in pids
    assert metrics["net.worker.busy_share"][0] > 0
    assert metrics["net.procserve.frames_per_req"][0] == 2


def test_ladder_rungs_and_identical_transport_meters(monkeypatch, capsys):
    monkeypatch.setattr(ladder, "REQUESTS", 24)
    assert ladder.main(7) == 0
    lines, doc = result_lines(capsys)
    assert doc["correct"]
    for rung in ladder.RUNGS:
        assert doc["metrics"][f"ladder.us_per_req.{rung}"]["value"] > 0
        assert doc["metrics"][f"ladder.cycles_per_req.{rung}"]["value"] > 0
    assert "r2-inproc and r3-socket modelled meters identical: True" in lines
