"""Tests for the command-line interface."""

import pytest

from repro.cli import main

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


@pytest.mark.parametrize(
    "command",
    [
        ["run"],
        ["measure"],
        ["trace"],
        ["profile"],
        ["profile", "--shards", "2"],
        ["snapshot", "--at-step", "3", "--out", "unwritten.json"],
    ],
    ids=["run", "measure", "trace", "profile", "profile-shards", "snapshot"],
)
@pytest.mark.parametrize(
    "entry, problem",
    [
        (["--entry", "Main.nope"], "the program has no procedure Main.nope"),
        (["--entry", "Util.double"], "Util.double takes 1 argument(s); --args gave 0"),
        (
            ["--entry", "Util.double", "--args", "1", "2"],
            "Util.double takes 1 argument(s); --args gave 2",
        ),
    ],
    ids=["missing-procedure", "too-few-args", "too-many-args"],
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


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 8
    assert "FAIL" not in out
