"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import SNAPSHOT_FILE_SCHEMA, main

MAIN_SRC = """
MODULE Main;
PROCEDURE main(): INT;
BEGIN
  OUTPUT 5;
  RETURN Util.double(21);
END;
END.
"""

UTIL_SRC = """
MODULE Util;
PROCEDURE double(x): INT;
BEGIN
  RETURN x + x;
END;
END.
"""


@pytest.fixture
def program(tmp_path):
    main_file = tmp_path / "main.mesa"
    util_file = tmp_path / "util.mesa"
    main_file.write_text(MAIN_SRC)
    util_file.write_text(UTIL_SRC)
    return [str(main_file), str(util_file)]


def test_run(program, capsys):
    assert main(["run", *program]) == 0
    out = capsys.readouterr().out
    assert "results: [42]" in out
    assert "output:  [5]" in out


def test_run_with_impl_and_stats(program, capsys):
    assert main(["run", *program, "--impl", "i4", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "results: [42]" in out
    assert "memory refs" in out
    assert "bank rate" in out


def test_run_with_entry_and_args(program, capsys):
    assert main(["run", *program, "--entry", "Util.double", "--args", "7"]) == 0
    assert "results: [14]" in capsys.readouterr().out


def test_disasm(program, capsys):
    assert main(["disasm", *program]) == 0
    out = capsys.readouterr().out
    assert "MODULE Main" in out
    assert "EFC0" in out  # the external call to Util.double
    assert "LV[0] -> Util.double" in out
    assert "RET" in out


def test_measure(program, capsys):
    assert main(["measure", *program]) == 0
    out = capsys.readouterr().out
    assert "I1 simple" in out and "I4 banks" in out
    assert out.count("[42]") == 4  # same results on the whole ladder


def test_bad_entry_rejected(program):
    with pytest.raises(SystemExit):
        main(["run", *program, "--entry", "nodot"])


#: Commands that check the entry and the --args count.
_ENTRY_COMMANDS = {
    "run": ["run"],
    "measure": ["measure"],
    "trace": ["trace"],
    "profile": ["profile"],
    "profile-shards": ["profile", "--shards", "2"],
    "snapshot": ["snapshot", "--at-step", "3", "--out", "unwritten.json"],
}

#: Each bad entry, as ``(arguments, the problem stderr names)``.
_BAD_ENTRIES = {
    "missing-procedure": (["--entry", "Main.nope"], "the program has no procedure Main.nope"),
    "too-few-args": (
        ["--entry", "Util.double"],
        "Util.double takes 1 argument(s); --args gave 0",
    ),
    "too-many-args": (
        ["--entry", "Util.double", "--args", "1", "2"],
        "Util.double takes 1 argument(s); --args gave 2",
    ),
}


@pytest.mark.parametrize(
    "command, entry, problem",
    [
        pytest.param(command, *_BAD_ENTRIES[case], id=f"{case}-{name}")
        for case in _BAD_ENTRIES
        for name, command in _ENTRY_COMMANDS.items()
    ]
    # disasm takes no --args, so only its entry is checked.
    + [
        pytest.param(
            ["disasm"], *_BAD_ENTRIES["missing-procedure"], id="missing-procedure-disasm"
        )
    ],
)
def test_bad_entry_input_exits_two_with_one_line(
    program, capsys, monkeypatch, tmp_path, command, entry, problem
):
    """Refused before the run: too few arguments would underflow the
    evaluation stack, and an extra one would stay on it as a result."""
    monkeypatch.chdir(tmp_path)
    assert main([command[0], *program, *command[1:], *entry]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{command[0]}: {problem}\n"


#: One command per input file a command reads; PROGRAM stands for the
#: two source files of the ``program`` fixture.
_MISSING_INPUTS = {
    "run": ["run", "gone.mesa"],
    "run-image": ["run", "--image", "gone.json"],
    "run-facts": ["run", "PROGRAM", "--engine", "jit", "--facts", "gone.json"],
    "resume": ["resume", "gone.json"],
    "disasm": ["disasm", "gone.mesa"],
    "measure": ["measure", "gone.mesa"],
    "trace": ["trace", "gone.mesa"],
    "profile": ["profile", "gone.mesa"],
    "snapshot": ["snapshot", "gone.mesa", "--at-step", "3", "--out", "unwritten.json"],
    "check": ["check", "gone.mesa"],
    "check-from-python": ["check", "--from-python", "gone.py"],
    "analyze": ["analyze", "gone.mesa"],
    "serve-workload": ["serve", "--workload", "gone.json"],
    "optimize-profile": [
        "optimize", "PROGRAM", "--profile", "gone.json", "--facts", "gone.json",
        "--out", "unwritten.json",
    ],
}


@pytest.mark.parametrize("command", _MISSING_INPUTS.values(), ids=_MISSING_INPUTS.keys())
def test_missing_input_file_exits_two_with_one_line(
    program, capsys, monkeypatch, tmp_path, command
):
    monkeypatch.chdir(tmp_path)
    argv = [word for arg in command for word in (program if arg == "PROGRAM" else [arg])]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    gone = next(word for word in command if word.startswith("gone"))
    assert captured.err == f"{command[0]}: cannot read {gone}: No such file or directory\n"
    assert not (tmp_path / "unwritten.json").exists()


#: One command per path that compiles the program it is given; SOURCE
#: stands for the source file, and ``resume`` reads its sources from a
#: snapshot file.
_COMPILING = {
    "run": ["run", "SOURCE"],
    "disasm": ["disasm", "SOURCE"],
    "measure": ["measure", "SOURCE"],
    "trace": ["trace", "SOURCE"],
    "profile": ["profile", "SOURCE"],
    "profile-shards": ["profile", "SOURCE", "--shards", "2"],
    "snapshot": ["snapshot", "SOURCE", "--at-step", "3", "--out", "unwritten.json"],
    "resume": ["resume", "SNAPSHOT"],
}

#: Programs that do not compile, as ``(source, the fault stderr names)``.
_UNCOMPILABLE = {
    "parse-error": (
        "MODULE Broken; PROCEDURE (",
        "expected an identifier, found '(' at line 1, column 26",
    ),
    "semantic-error": (
        "MODULE Main;\nPROCEDURE main(): INT;\nBEGIN\n  RETURN Other.f(1);\nEND;\nEND.\n",
        "unknown procedure Other.f at line 4, column 10",
    ),
}


@pytest.mark.parametrize(
    "command, source, fault",
    [
        pytest.param(command, *_UNCOMPILABLE[case], id=f"{case}-{name}")
        for case in _UNCOMPILABLE
        for name, command in _COMPILING.items()
    ],
)
def test_a_program_that_does_not_compile_exits_two_with_one_line(
    capsys, monkeypatch, tmp_path, command, source, fault
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "broken.mesa").write_text(source)
    snapshot = {
        "schema": SNAPSHOT_FILE_SCHEMA, "entry": "Main.main", "sources": [source],
        "impl": "i2", "args": [], "state": {},
    }
    (tmp_path / "snapshot.json").write_text(json.dumps(snapshot))
    paths = {"SOURCE": "broken.mesa", "SNAPSHOT": "snapshot.json"}
    assert main([paths.get(arg, arg) for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{command[0]}: cannot compile: {fault}\n"
    assert not (tmp_path / "unwritten.json").exists()


#: One command per JSON document a command reads, given ``[]`` there
#: (list.json) and an object elsewhere (object.json).
_NOT_OBJECTS = {
    "run-image": ["run", "--image", "list.json"],
    "run-facts": ["run", "PROGRAM", "--engine", "jit", "--facts", "list.json"],
    "resume": ["resume", "list.json"],
    "serve-workload": ["serve", "--workload", "list.json"],
    "optimize-profile": [
        "optimize", "PROGRAM", "--profile", "list.json", "--facts", "object.json",
        "--out", "unwritten.json",
    ],
    "optimize-facts": [
        "optimize", "PROGRAM", "--profile", "object.json", "--facts", "list.json",
        "--out", "unwritten.json",
    ],
}


@pytest.mark.parametrize("command", _NOT_OBJECTS.values(), ids=_NOT_OBJECTS.keys())
def test_a_json_input_that_is_not_an_object_exits_two_with_one_line(
    program, capsys, monkeypatch, tmp_path, command
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[]")
    (tmp_path / "object.json").write_text("{}")
    argv = [word for arg in command for word in (program if arg == "PROGRAM" else [arg])]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{command[0]}: cannot read list.json: not a JSON object\n"
    assert not (tmp_path / "unwritten.json").exists()


#: Knobs out of range, as ``(arguments, the problem stderr names)``;
#: PROGRAM stands for the two source files of the ``program`` fixture.
_OUT_OF_RANGE = {
    "serve-shards": (["serve", "--shards", "0"], "--shards must be at least 1, got 0"),
    "serve-shards-processes": (
        ["serve", "--processes", "--shards", "0"], "--shards must be at least 1, got 0"
    ),
    "serve-queue-capacity": (
        ["serve", "--queue-capacity", "0"], "--queue-capacity must be at least 1, got 0"
    ),
    "serve-queue-capacity-processes": (
        ["serve", "--processes", "--queue-capacity", "0"],
        "--queue-capacity must be at least 1, got 0",
    ),
    "serve-batch-size": (["serve", "--batch-size", "0"], "--batch-size must be at least 1, got 0"),
    "serve-batch-size-processes": (
        ["serve", "--processes", "--batch-size", "0"], "--batch-size must be at least 1, got 0"
    ),
    "serve-water": (
        ["serve", "--autoscale", "--high-water", "1", "--low-water", "2"],
        "--high-water (1) must exceed --low-water (2)",
    ),
    "serve-patience": (
        ["serve", "--autoscale", "--patience", "0"], "--patience must be at least 1, got 0"
    ),
    "serve-migration-budget": (
        ["serve", "--autoscale", "--migration-budget", "0"],
        "--migration-budget must be at least 1, got 0",
    ),
    "serve-pump-ticks": (
        ["serve", "--autoscale", "--pump-ticks", "0"], "--pump-ticks must be at least 1, got 0"
    ),
    "serve-requests-negative": (
        ["serve", "--requests", "-3"], "--requests must be at least 1, got -3"
    ),
    "serve-requests-zero": (["serve", "--requests", "0"], "--requests must be at least 1, got 0"),
    "serve-requests-processes": (
        ["serve", "--processes", "--requests", "0"], "--requests must be at least 1, got 0"
    ),
    "loadgen-requests-negative": (
        ["loadgen", "--requests", "-2"], "--requests must be at least 1, got -2"
    ),
    "loadgen-requests-zero": (
        ["loadgen", "--requests", "0"], "--requests must be at least 1, got 0"
    ),
    "trace-capacity-zero": (
        ["trace", "PROGRAM", "--capacity", "0"], "--capacity must be at least 1, got 0"
    ),
    "trace-capacity-negative": (
        ["trace", "PROGRAM", "--capacity", "-5"], "--capacity must be at least 1, got -5"
    ),
    "profile-top": (["profile", "PROGRAM", "--top", "-1"], "--top must be at least 1, got -1"),
    "profile-top-zero": (["profile", "PROGRAM", "--top", "0"], "--top must be at least 1, got 0"),
    "profile-shards": (
        ["profile", "PROGRAM", "--shards", "0"], "--shards must be at least 1, got 0"
    ),
    "profile-pin": (
        ["profile", "PROGRAM", "--shards", "2", "--pin", "Main=5"],
        "module 'Main' pinned to unknown shard 5",
    ),
    "optimize-placement-shards": (
        ["optimize", "--placement", "--shards", "0"], "a cluster needs at least one shard, got 0"
    ),
    "optimize-placement-requests": (
        ["optimize", "--placement", "--requests", "0"], "--requests must be at least 1, got 0"
    ),
    "optimize-placement-shards-requests": (
        ["optimize", "--placement", "--shards", "2", "--requests", "0"],
        "--requests must be at least 1, got 0",
    ),
}


@pytest.mark.parametrize(
    "command, problem", _OUT_OF_RANGE.values(), ids=_OUT_OF_RANGE.keys()
)
def test_a_knob_out_of_range_exits_two_with_one_line(
    program, capsys, monkeypatch, command, problem
):
    """Refused before any pool is built or worker forked."""
    import os

    def forbidden():
        raise AssertionError("forked a worker")

    monkeypatch.setattr(os, "fork", forbidden)
    argv = [word for arg in command for word in (program if arg == "PROGRAM" else [arg])]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{command[0]}: {problem}\n"


def test_python_file_without_sources_exits_two(capsys, tmp_path):
    host = tmp_path / "plain.py"
    host.write_text("x = 1\n")
    assert main(["trace", str(host)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"trace: {host}: no embedded MODULE sources\n"


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 8
    assert "FAIL" not in out
