"""Exit codes and evidence of ``repro migrate``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


@pytest.mark.parametrize(
    "argv",
    [
        ["--at", "2", "--to", "2"],
        ["--at", "3", "--to", "2", "--mode", "shared"],
    ],
)
def test_migration_differential_passes(argv, capsys):
    assert main(["migrate", *argv, "--json"]) == 0
    out = capsys.readouterr().out
    evidence = json.loads(out[out.index("{"):])
    assert evidence["ok"] is True
    assert evidence["results"] == evidence["reference_results"] == [119]
    assert evidence["migrated_tick"] >= int(argv[1])
    if "shared" not in argv:
        assert evidence["aggregate_meters"] == evidence["reference_meters"]
        assert "bit-identical to the unmigrated run" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--impl", "i1", "--mode", "shared"], "refused"),
        (["--at", "100000"], "never blocked"),
        (["--to", "0"], "root's own home"),
        (["--program", "nope"], "unknown corpus program"),
    ],
)
def test_migration_refusals_exit_two(argv, message, capsys):
    assert main(["migrate", *argv]) == 2
    assert message in capsys.readouterr().err
