"""The ``repro-profile/1`` documents, pinned against a recorded fixture.

``tests/fixtures/profile_golden.json`` holds :func:`collect_profile` of
every corpus program on I1–I4 (the descriptor programs skipped on I1,
which cannot link them): edges, activations, the call-depth histogram,
each AV class's live-frame peak, ``structured``, the allocator traps,
the results and the meters.  ``repro optimize`` decides from these
fields, so a refactor of how a profile is read off a run must leave
every document as it was.

Regenerate (only when a profile change is intended)::

    PYTHONPATH=src python -m tests.test_profile_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.fdo import collect_profile
from repro.workloads.programs import corpus_sources
from tests.conftest import ALL_PRESETS

FIXTURE = Path(__file__).parent / "fixtures" / "profile_golden.json"

CASES = [
    (entry, preset)
    for entry in corpus_sources()
    for preset in ALL_PRESETS
    if not (preset == "i1" and entry.needs_descriptors)
]


def _case_id(entry, preset) -> str:
    return f"{entry.name}-{preset}"


def capture(entry, preset) -> dict:
    """The profile document of one corpus run, as JSON would read it back."""
    doc = collect_profile(list(entry.sources), preset, entry.entry, entry.args)
    return json.loads(json.dumps(doc))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_the_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(_case_id(*case) for case in CASES)


@pytest.mark.parametrize(
    "entry,preset", CASES, ids=[_case_id(*case) for case in CASES]
)
def test_profile_matches_the_recorded_fixture(entry, preset, golden):
    assert capture(entry, preset) == golden[_case_id(entry, preset)]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps(
            {_case_id(*case): capture(*case) for case in CASES},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {FIXTURE}")
