"""The verifier's and the analyzer's output, pinned against a recorded fixture.

``tests/fixtures/verifier_golden.json`` holds, on each of I1-I4:

* ``facts``: the ``repro-facts/1`` document of every corpus program the
  preset links;
* ``defects``: the formatted ``analyze_image`` report, listing
  included, of every ``DEFECT_INJECTIONS`` and
  ``ANALYZER_DEFECT_INJECTIONS`` mutant, one per corpus program in
  which the injector finds a site;
* ``mutants``: for 50 seeded ``mutate_random_byte`` mutants of
  ``mathlib``, the mutation, the formatted report, and a SHA-256 of
  the facts when the mutant verifies clean.

A change to how the checker or the analyzer computes its results must
leave every byte of that as it was.  Regenerate (only when a change to
a diagnostic or to the facts is intended)::

    PYTHONPATH=src python -m tests.test_verifier_golden
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from repro.check import analyze_image
from repro.check.fuzz import (
    ANALYZER_DEFECT_INJECTIONS,
    DEFECT_INJECTIONS,
    build_image,
    mutate_random_byte,
)
from repro.interp.machineconfig import LinkageKind, MachineConfig
from repro.workloads.programs import CORPUS

FIXTURE = Path(__file__).parent / "fixtures" / "verifier_golden.json"
PRESETS = ("i1", "i2", "i3", "i4")
MUTANTS = 50
MUTANT_SEED = 7


def _linkable(preset: str):
    """The corpus programs *preset* can link (no descriptors under SIMPLE)."""
    simple = MachineConfig.preset(preset).linkage is LinkageKind.SIMPLE
    return [p for p in CORPUS.values() if not (simple and p.needs_descriptors)]


def _facts(preset: str) -> dict:
    return {
        program.name: analyze_image(
            build_image(program.sources, program.entry, preset)
        ).to_facts()
        for program in _linkable(preset)
    }


def _defects(preset: str) -> dict:
    reports = {}
    for program in _linkable(preset):
        for label, _check, inject in DEFECT_INJECTIONS + ANALYZER_DEFECT_INJECTIONS:
            image = build_image(program.sources, program.entry, preset)
            if inject(image):
                report = analyze_image(image).report
                reports[f"{program.name}: {label}"] = report.format(listing=True)
    return reports


def _mutants(preset: str) -> list:
    program = CORPUS["mathlib"]
    rng = random.Random(MUTANT_SEED)
    rows = []
    for _ in range(MUTANTS):
        image = build_image(program.sources, program.entry, preset)
        mutation = mutate_random_byte(image, rng)
        analysis = analyze_image(image)
        digest = None
        if analysis.ok:
            text = json.dumps(analysis.to_facts(), sort_keys=True)
            digest = hashlib.sha256(text.encode()).hexdigest()
        rows.append(
            {
                "mutation": mutation,
                "report": analysis.report.format(listing=True),
                "facts_sha256": digest,
            }
        )
    return rows


def documents(preset: str) -> dict:
    """Everything the fixture pins for one preset, JSON-safe."""
    return json.loads(
        json.dumps(
            {
                "facts": _facts(preset),
                "defects": _defects(preset),
                "mutants": _mutants(preset),
            }
        )
    )


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("preset", PRESETS)
def test_facts_match_the_fixture(golden, preset):
    expected = golden[preset]["facts"]
    actual = json.loads(json.dumps(_facts(preset)))
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], f"{name}/{preset}: facts changed"


@pytest.mark.parametrize("preset", PRESETS)
def test_defect_reports_match_the_fixture(golden, preset):
    expected = golden[preset]["defects"]
    actual = _defects(preset)
    assert sorted(actual) == sorted(expected)
    for key in expected:
        assert actual[key] == expected[key], f"{key}/{preset}: report changed"


@pytest.mark.parametrize("preset", PRESETS)
def test_random_mutant_reports_match_the_fixture(golden, preset):
    expected = golden[preset]["mutants"]
    actual = _mutants(preset)
    assert len(actual) == len(expected) == MUTANTS
    for row, want in zip(actual, expected):
        assert row == want, f"{row['mutation']}/{preset}: verdict changed"
    # The campaign exercises both arms: some mutants verify clean.
    assert any(row["facts_sha256"] for row in expected)
    assert any(row["facts_sha256"] is None for row in expected)


# -- one verification per body ------------------------------------------------


def _count_cfg_builds(monkeypatch) -> Counter:
    """Count ``build_cfg`` calls per body wherever the verifier and the
    analyzer look it up."""
    from repro.check import checker, interproc

    real = checker.build_cfg
    counts: Counter = Counter()

    def counting(body, report, module=None, procedure=None):
        counts[(module, procedure)] += 1
        return real(body, report, module, procedure)

    monkeypatch.setattr(checker, "build_cfg", counting)
    monkeypatch.setattr(interproc, "build_cfg", counting, raising=False)
    return counts


def _bodies(image) -> set:
    return {
        (name, procedure.name)
        for (name, instance), linked in image.instances.items()
        if instance == 0
        for procedure in linked.module.procedures
    }


@pytest.mark.parametrize("preset", PRESETS)
def test_analyze_builds_each_body_cfg_once(monkeypatch, preset):
    program = CORPUS["mathlib"]
    image = build_image(program.sources, program.entry, preset)
    counts = _count_cfg_builds(monkeypatch)
    assert analyze_image(image).ok
    assert set(counts) == _bodies(image)
    assert set(counts.values()) == {1}, counts


def test_fdo_candidate_is_verified_once(monkeypatch):
    from repro.fdo.decide import Plan
    from repro.fdo.rewrite import _try_candidate

    program = CORPUS["mathlib"]
    image = build_image(program.sources, program.entry, "i2")
    counts = _count_cfg_builds(monkeypatch)
    machine, why = _try_candidate(
        list(program.sources), "i2", program.entry, Plan(), {}, replay=False
    )
    assert machine is not None, why
    assert set(counts) == _bodies(image)
    assert set(counts.values()) == {1}, counts


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps({preset: documents(preset) for preset in PRESETS}, sort_keys=True)
        + "\n"
    )
    print(f"wrote {FIXTURE}")
