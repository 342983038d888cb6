"""``benchmarks/run_all.py --json-out`` merges into its output, never
clobbers, and the committed modelled records match a fresh run."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_all(*argv: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run_all.py"), *argv],
        cwd=ROOT, env=env, check=True, capture_output=True,
    )


def test_json_sections_merge_by_experiment_and_carry_stamps(tmp_path):
    out = tmp_path / "bench.json"
    _run_all("--json-out", str(out), "c5")
    _run_all("--json-out", str(out), "c13")
    experiments = json.loads(out.read_text())["experiments"]
    assert set(experiments) == {"c5", "c13"}
    for section in experiments.values():
        stamp = section["stamp"]
        assert stamp["python"].count(".") == 2
        assert stamp["cpus"] >= 1
        assert stamp["date"].endswith("+00:00")
        if (ROOT / ".git").exists():
            assert len(stamp["git_sha"]) == 40


def test_committed_net_record_matches_a_fresh_run(tmp_path):
    """Every number in the net section is modelled (ticks, cycles, wire
    words, migrations): a change that moves one must regenerate
    ``BENCH_net.json`` with ``run_all.py --json-out BENCH_net.json net``."""
    out = tmp_path / "net.json"
    _run_all("--json-out", str(out), "net")
    fresh = json.loads(out.read_text())["experiments"]["net"]
    committed = json.loads((ROOT / "BENCH_net.json").read_text())["experiments"]["net"]
    fresh.pop("stamp")
    committed.pop("stamp")
    assert fresh == committed
