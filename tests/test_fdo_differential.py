"""The FDO conformance matrix: optimized images against their originals.

The optimizer's contract (docs/fdo.md) is strict dominance: for every
corpus program on every implementation, the rewritten image computes
bit-identical results (and traps identically, at the same step, with
the same meters) while its modelled meters are never worse — and on
the call-dense programs under late-bound linkage, strictly better.
Both engines are held to the matrix: the interpreter runs the rewritten
image directly, and the JIT must agree with it exactly.
"""

from __future__ import annotations

import functools

import pytest

from repro.check.checker import check_image
from repro.check.interproc import analyze_image, image_fingerprint
from repro.errors import TrapError
from repro.fdo import (
    build_machine,
    collect_profile,
    image_document,
    load_image_document,
    optimize,
)
from repro.jit import install_jit
from repro.workloads.programs import CORPUS
from tests.conftest import ALL_PRESETS

#: Call-dense corpus programs where the rewrite must strictly win on
#: the late-bound presets (the CI acceptance bar).
CALL_DENSE = ("calls", "fib", "mutual", "queens")


@functools.lru_cache(maxsize=None)
def fdo_cell(name: str, preset: str):
    """(profile, OptimizeResult) for one corpus cell, cached per run."""
    program = CORPUS[name]
    sources = list(program.sources)
    profile = collect_profile(
        sources, preset, program.entry, tuple(program.args)
    )
    original = build_machine(sources, preset, program.entry)
    facts = analyze_image(original.image).to_facts()
    result = optimize(sources, preset, program.entry, profile, facts)
    return profile, result


def finish(machine, entry, args):
    machine.start(entry[0], entry[1], *args)
    return machine.run()


def skip_unbuildable(name: str, preset: str) -> None:
    if CORPUS[name].needs_descriptors and preset == "i1":
        pytest.skip("XFER-to-descriptor programs cannot link under SIMPLE")


@pytest.mark.parametrize("preset", ALL_PRESETS)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_bit_identical_and_never_worse(name, preset):
    """Every corpus cell: same results, same instruction count, meters
    no worse, and the emitted image re-verifies from scratch."""
    skip_unbuildable(name, preset)
    program = CORPUS[name]
    _, result = fdo_cell(name, preset)

    reference = build_machine(list(program.sources), preset, program.entry)
    ref_results = finish(reference, program.entry, program.args)

    optimized = result.build()
    assert image_fingerprint(optimized.image) == result.image_hash
    assert check_image(optimized.image).ok
    assert analyze_image(optimized.image).ok
    opt_results = finish(optimized, program.entry, program.args)

    assert opt_results == ref_results
    assert optimized.output == reference.output
    assert optimized.steps == reference.steps  # 1:1 instruction rewrite
    assert optimized.counter.cycles <= reference.counter.cycles
    assert (
        optimized.counter.memory_references
        <= reference.counter.memory_references
    )


@pytest.mark.parametrize("preset", ("i1", "i2"))
@pytest.mark.parametrize("name", CALL_DENSE)
def test_call_dense_strictly_faster_when_late_bound(name, preset):
    """Under SIMPLE/MESA linkage the hot-site promotions must shave
    counted resolution reads — a measurable, strict win."""
    program = CORPUS[name]
    _, result = fdo_cell(name, preset)
    assert any(
        decision["kind"] == "promote-site"
        for decision in result.log["decisions"]
    )

    reference = build_machine(list(program.sources), preset, program.entry)
    finish(reference, program.entry, program.args)
    optimized = result.build()
    finish(optimized, program.entry, program.args)

    assert optimized.counter.cycles < reference.counter.cycles
    assert (
        optimized.counter.memory_references
        < reference.counter.memory_references
    )


@pytest.mark.parametrize("preset", ALL_PRESETS)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_jit_agrees_on_optimized_images(name, preset):
    """The rewritten image under the JIT is indistinguishable from the
    rewritten image under the interpreter."""
    skip_unbuildable(name, preset)
    program = CORPUS[name]
    _, result = fdo_cell(name, preset)

    interp = result.build()
    interp_results = finish(interp, program.entry, program.args)

    jitted = result.build()
    install_jit(jitted)
    jit_results = finish(jitted, program.entry, program.args)

    assert jit_results == interp_results
    assert jitted.steps == interp.steps
    assert jitted.counter.snapshot() == interp.counter.snapshot()


_TRAPPY = """
MODULE Main;
PROCEDURE dbl(x): INT;
BEGIN
  RETURN x + x;
END;
PROCEDURE work(n): INT;
VAR i, acc: INT;
BEGIN
  acc := 0;
  i := 0;
  WHILE i < 30 DO
    acc := acc + dbl(i);
    i := i + 1;
  END;
  RETURN acc + 100 DIV n;
END;
PROCEDURE main(n): INT;
BEGIN
  RETURN work(n);
END;
END.
"""


@pytest.mark.parametrize("preset", ALL_PRESETS)
def test_traps_identical_after_rewrite(preset):
    """Profile a healthy run, rewrite, then feed both images a trapping
    argument: same trap kind, same step, same pc, same meters."""
    sources = [_TRAPPY]
    entry = ("Main", "main")
    profile = collect_profile(sources, preset, entry, (5,))
    original = build_machine(sources, preset, entry)
    facts = analyze_image(original.image).to_facts()
    result = optimize(sources, preset, entry, profile, facts)

    outcomes = []
    for machine in (build_machine(sources, preset, entry), result.build()):
        machine.start("Main", "main", 0)
        with pytest.raises(TrapError) as err:
            machine.run()
        outcomes.append((err.value.trap, machine.steps, machine.counter))
    (ref_trap, ref_steps, ref_counter), (opt_trap, opt_steps, opt_counter) = (
        outcomes
    )
    # The rewrite changes instruction *lengths* (LFC is two bytes, SDFC
    # three), so the trap pc legitimately moves; the kind, the step it
    # fires on, and meters-no-worse are the conformance surface.
    assert opt_trap == ref_trap == "divide_by_zero"
    assert opt_steps == ref_steps
    assert opt_counter.cycles <= ref_counter.cycles
    assert opt_counter.memory_references <= ref_counter.memory_references


@pytest.mark.parametrize("preset", ("i2", "i4"))
def test_image_file_round_trip(preset, tmp_path):
    """document → rebuild → fingerprint match → identical run."""
    program = CORPUS["calls"]
    _, result = fdo_cell("calls", preset)

    doc = image_document(result)
    machine, loaded = load_image_document(doc)
    assert loaded["image_hash"] == result.image_hash
    assert image_fingerprint(machine.image) == result.image_hash

    direct = result.build()
    direct_results = finish(direct, program.entry, program.args)
    loaded_results = finish(machine, program.entry, program.args)
    assert loaded_results == direct_results
    assert machine.counter.snapshot() == direct.counter.snapshot()
