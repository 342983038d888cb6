"""EXPERIMENTS.md's harness output matches a fresh run, section by section.

``benchmarks/generate_experiments.py`` writes ``run_all.py``'s full
output under "## Full harness output".  Every section prints only what
the code decides (the OBS and FAULTS host timings stay in their JSON
payloads), so this runs ``run_all.py`` in a subprocess and compares
each section, split at its banner, with the committed text; a change
that moves any line regenerates the file.
"""

from __future__ import annotations

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: A banner: a title line over a rule of "=" as long as it.
_BANNER = re.compile(r"^(.+)\n(=+)$", re.MULTILINE)


def _sections(text: str) -> list[tuple[str, str]]:
    """(experiment name, section text) in order, split at each banner;
    the name is the title's first word, ``C3 / T1: ...`` -> ``c3``."""
    starts = [match for match in _BANNER.finditer(text) if len(match[1]) == len(match[2])]
    sections = []
    for match, following in zip(starts, starts[1:] + [None]):
        end = following.start() if following is not None else len(text)
        name = re.split(r"[ :/]", match[1], maxsplit=1)[0].lower()
        sections.append((name, text[match.start() : end].rstrip("\n")))
    return sections


def test_committed_experiments_match_a_fresh_run():
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("run_all", ROOT / "benchmarks" / "run_all.py")
    run_all = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run_all)
    finally:
        sys.path[:] = path  # run_all puts benchmarks/ on the path
    names = list(run_all.EXPERIMENTS)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    fresh = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run_all.py"), *names],
        cwd=ROOT, env=env, check=True, capture_output=True, text=True,
    ).stdout
    harness = (ROOT / "EXPERIMENTS.md").read_text().partition("## Full harness output")[2]
    committed = harness.partition("```text\n")[2].rpartition("```")[0]
    expected = _sections(committed)
    got = _sections(fresh)
    assert [name for name, _ in got] == names
    assert [name for name, _ in expected] == names
    for (name, text), (_, record) in zip(got, expected):
        assert text == record, f"EXPERIMENTS.md's {name} section differs from a fresh run"
