"""Tests for the snapshot / resume / chaos CLI verbs."""

import json

import pytest

from repro.cli import main

FIB_SRC = """
MODULE Main;
PROCEDURE fib(n): INT;
BEGIN
  IF n < 2 THEN RETURN n; END;
  RETURN fib(n - 1) + fib(n - 2);
END;
PROCEDURE main(): INT;
BEGIN
  RETURN fib(10);
END;
END.
"""


@pytest.fixture
def fib_file(tmp_path):
    path = tmp_path / "fib.mesa"
    path.write_text(FIB_SRC)
    return str(path)


def test_snapshot_then_resume_verified(fib_file, tmp_path, capsys):
    snap = str(tmp_path / "snap.json")
    assert main(["snapshot", fib_file, "--impl", "i3",
                 "--at-step", "200", "--out", snap]) == 0
    out = capsys.readouterr().out
    assert "froze i3 at step 200" in out

    doc = json.loads((tmp_path / "snap.json").read_text())
    assert doc["schema"] == "repro-snapshot-file/1"
    assert doc["impl"] == "i3"
    assert doc["state"]["schema"] == "repro-snapshot/3"
    assert doc["sources"]  # embedded, so resume needs no original files

    assert main(["resume", snap, "--verify"]) == 0
    out = capsys.readouterr().out
    assert "results: [55]" in out
    assert "bit-identical" in out


def test_snapshot_past_end_of_program_fails_cleanly(fib_file, tmp_path, capsys):
    snap = str(tmp_path / "snap.json")
    assert main(["snapshot", fib_file, "--at-step", "10000000",
                 "--out", snap]) == 1
    err = capsys.readouterr().err
    assert "halted" in err


def test_resume_rejects_non_snapshot_file(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"schema": "something-else/1"}))
    assert main(["resume", str(bogus)]) == 1
    assert "not a repro-snapshot-file/1 file" in capsys.readouterr().err


def test_chaos_small_sweep(tmp_path, capsys):
    report = str(tmp_path / "report.json")
    code = main(["chaos", "--corpus", "--programs", "fib",
                 "--plans", "av_empty", "trap_inject",
                 "--seeds", "2", "--report", report])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "all implementations conformant" in out
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["schema"] == "repro-chaos/1"
    assert payload["ok"] is True
    assert payload["cases"]


def test_chaos_corpus_stresses_every_corpus_program(tmp_path, capsys):
    """--corpus widens the sweep from the default subset to the whole
    corpus: every program runs a case or is skipped by name."""
    from repro.faults.chaos import DEFAULT_PROGRAMS
    from repro.workloads.programs import CORPUS

    report = tmp_path / "report.json"
    assert main(["chaos", "--corpus", "--plans", "heap_exhaust", "--seeds", "1",
                 "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    seen = {case["program"] for case in payload["cases"]}
    seen |= {skip["program"] for skip in payload["skipped"]}
    assert seen == set(CORPUS) != set(DEFAULT_PROGRAMS)


def test_chaos_rejects_unknown_program(capsys):
    assert main(["chaos", "--programs", "nope"]) == 2
    assert "unknown corpus programs" in capsys.readouterr().err


def test_chaos_rejects_unknown_plan(capsys):
    assert main(["chaos", "--plans", "meteor_strike"]) == 2
    assert "unknown plans" in capsys.readouterr().err


def test_chaos_rejects_seeds_below_one(capsys):
    assert main(["chaos", "--seeds", "0"]) == 2
    assert "--seeds must be at least 1" in capsys.readouterr().err


def test_chaos_sweep_that_runs_no_case_fails(tmp_path, capsys):
    """heap_exhaust applies only to recursive programs, so every cell is
    skipped: a sweep that ran nothing must not claim conformance."""
    report = tmp_path / "report.json"
    assert main(["chaos", "--programs", "calls", "--plans", "heap_exhaust",
                 "--report", str(report)]) == 1
    out = capsys.readouterr().out
    assert "FAILED: no case ran" in out
    assert "all implementations conformant" not in out
    payload = json.loads(report.read_text())
    assert payload["ok"] is False
    assert payload["cases"] == [] and len(payload["skipped"]) == 5
