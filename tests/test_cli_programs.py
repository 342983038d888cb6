"""``repro check`` and ``repro analyze`` load the same programs."""

from __future__ import annotations

import re

import pytest

from repro.cli import main
from repro.faults.chaos import ALL_PRESETS
from repro.workloads.programs import CORPUS


@pytest.mark.parametrize("impl", ALL_PRESETS)
def test_check_corpus_is_clean_on_every_preset(impl, capsys):
    assert main(["check", "--corpus", "--impl", impl]) == 0
    assert ": cannot " not in capsys.readouterr().out


@pytest.mark.parametrize("verb", ["check", "analyze"])
def test_simple_linkage_skips_the_programs_that_need_descriptors(verb, capsys):
    main([verb, "--corpus", "--impl", "i1"])
    out = capsys.readouterr().out
    for name, program in CORPUS.items():
        listed = re.search(rf"corpus:{name}\b", out) is not None
        assert listed is not program.needs_descriptors, name
