"""Exit codes and output of ``repro check``."""

import pytest

from repro.cli import main

MAIN_SRC = """
MODULE Main;
PROCEDURE main(): INT;
BEGIN
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

ORPHAN_SRC = """
MODULE Main;
PROCEDURE unused(): INT;
BEGIN
  RETURN 1;
END;
PROCEDURE main(): INT;
BEGIN
  RETURN 2;
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


def test_clean_program_exits_zero(program, capsys):
    assert main(["check", *program]) == 0
    assert "clean" in capsys.readouterr().out


def test_all_presets_accept_the_program(program):
    for impl in ("i1", "i2", "i3", "i4"):
        assert main(["check", "--impl", impl, *program]) == 0


def test_corpus_exits_zero(capsys):
    assert main(["check", "--corpus"]) == 0
    out = capsys.readouterr().out
    assert "corpus:mathlib" in out or "corpus:mathlib: clean" in out


def test_warnings_do_not_fail_by_default(tmp_path, capsys):
    source = tmp_path / "orphan.mesa"
    source.write_text(ORPHAN_SRC)
    assert main(["check", str(source)]) == 0
    assert "unreachable-procedure" in capsys.readouterr().out


def test_strict_turns_warnings_into_failure(tmp_path, capsys):
    source = tmp_path / "orphan.mesa"
    source.write_text(ORPHAN_SRC)
    assert main(["check", "--strict", str(source)]) == 1
    assert "unreachable-procedure" in capsys.readouterr().out


def test_usage_error_exits_two(capsys):
    assert main(["check"]) == 2
    assert "give source files" in capsys.readouterr().err


def test_uncompilable_source_exits_two(tmp_path, capsys):
    source = tmp_path / "bad.mesa"
    source.write_text("MODULE Broken; PROCEDURE (")
    assert main(["check", str(source)]) == 2
    assert "cannot compile" in capsys.readouterr().out


def test_from_python_extracts_embedded_sources(tmp_path, capsys):
    host = tmp_path / "demo.py"
    host.write_text(f'A = """{MAIN_SRC}"""\nB = """{UTIL_SRC}"""\n')
    assert main(["check", "--from-python", str(host)]) == 0
    assert "clean" in capsys.readouterr().out


def test_from_python_without_sources_is_not_an_error(tmp_path, capsys):
    host = tmp_path / "plain.py"
    host.write_text("x = 1\n")
    assert main(["check", "--from-python", str(host)]) == 0
    assert "nothing to check" in capsys.readouterr().out


def test_example_files_check_clean(capsys):
    from pathlib import Path

    examples = Path(__file__).resolve().parent.parent / "examples"
    files = sorted(str(path) for path in examples.glob("*.py"))
    assert files, "examples/ directory should not be empty"
    assert main(["check", "--from-python", *files]) == 0


def test_check_builds_each_body_cfg_once(program, monkeypatch, capsys):
    """``repro check`` verifies the linked image only: one CFG per body."""
    import repro.check.checker as checker

    built = []
    build_cfg = checker.build_cfg

    def counting(body, report, module, procedure):
        built.append((module, procedure))
        return build_cfg(body, report, module, procedure)

    monkeypatch.setattr(checker, "build_cfg", counting)
    assert main(["check", *program]) == 0
    assert sorted(built) == [("Main", "main"), ("Util", "double")]


def test_entry_naming_no_procedure_cannot_link(program, capsys):
    assert main(["check", *program, "--entry", "Main.nope"]) == 2
    assert capsys.readouterr().out == (
        f"{', '.join(program)}: cannot link: module 'Main' has no procedure 'nope'\n"
    )
