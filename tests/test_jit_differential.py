"""The JIT conformance matrix: compiled blocks vs the interpreter.

The engine's contract (docs/jit.md) is bit-identity at every observable
boundary: meters, trap kinds, memory words, evaluation stack, and every
captured statistic — the snapshot document IS the state vector, so two
runs that capture identically are indistinguishable to any tool in the
repo.  These tests hold the JIT to that contract on the whole corpus
across I1-I4, under injected faults, across snapshot round-trips, and
across code-service invalidations.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StepLimitExceeded, TrapError
from repro.faults import chaos
from repro.faults.chaos import CANNED_PLANS, run_chaos
from repro.faults.plan import FaultPlan, Injection, on_event
from repro.faults.snapshot import capture, restore
from repro.interp.services import relocate_module
from repro.jit import JitRefusal, install_jit
from repro.workloads.generator import GeneratorConfig, generate_program
from repro.workloads.programs import CORPUS
from tests.conftest import ALL_PRESETS, build

#: Snapshot keys that name the host, not the machine state.
_HOST_KEYS = ("captured_at",)


def state_vector(machine) -> dict:
    """The full captured state minus host-only fields."""
    doc = capture(machine)
    for key in _HOST_KEYS:
        doc.pop(key, None)
    return doc


def corpus_pair(name: str, preset: str):
    """(interpreter machine, jit machine) for one corpus cell, both run
    to completion."""
    entry = CORPUS[name]
    ref = build(list(entry.sources), preset=preset, entry=entry.entry)
    ref.start(entry.entry[0], entry.entry[1], *entry.args)
    ref_results = ref.run()

    jit = build(list(entry.sources), preset=preset, entry=entry.entry)
    engine = install_jit(jit)
    jit.start(entry.entry[0], entry.entry[1], *entry.args)
    jit_results = jit.run()
    return ref, ref_results, jit, jit_results, engine


@pytest.mark.parametrize("preset", ALL_PRESETS)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_bit_identical(name, preset):
    """Every corpus program, every implementation: identical results,
    meters, memory, stacks, and statistics."""
    if CORPUS[name].needs_descriptors and preset == "i1":
        pytest.skip("XFER-to-descriptor programs cannot link under SIMPLE")
    ref, ref_results, jit, jit_results, engine = corpus_pair(name, preset)
    assert jit_results == ref_results
    assert jit.steps == ref.steps
    assert jit.counter.snapshot() == ref.counter.snapshot()
    assert state_vector(jit) == state_vector(ref)
    # The corpus is fully verified: compiled blocks did the work.
    assert engine.cache.ready and engine.cache.blocks


#: I1-I4, and i4 with three banks (every nest two deep overflows) and
#: with eight.
GENERATED_MACHINES = [(preset, {}) for preset in ALL_PRESETS] + [
    ("i4", {"bank_count": 3}),
    ("i4", {"bank_count": 8}),
]


@pytest.mark.parametrize(
    "preset, overrides",
    GENERATED_MACHINES,
    ids=[*ALL_PRESETS, "i4-banks3", "i4-banks8"],
)
def test_generated_call_trees_bit_identical(preset, overrides):
    """Twenty seeded generated programs, skewed call trees across four
    modules whose straight-line callees splice: results and state vectors
    equal the interpreter's, and every machine builds superblocks."""
    superblocks = 0
    for seed in range(20):
        program = generate_program(GeneratorConfig(seed=seed))
        ref = build(program.sources, preset=preset, entry=program.entry, **overrides)
        jit = build(program.sources, preset=preset, entry=program.entry, **overrides)
        engine = install_jit(jit)
        for machine in (ref, jit):
            machine.start(*program.entry)
        assert jit.run() == ref.run() == [program.expected], seed
        assert state_vector(jit) == state_vector(ref), seed
        superblocks += engine.stats.superblocks
    assert superblocks > 0


_DIV_TRAP = """
MODULE Main;
PROCEDURE main(n): INT;
BEGIN
  RETURN 100 DIV n;
END;
END.
"""

_EXHAUST = """
MODULE Main;
PROCEDURE spin(n): INT;
BEGIN
  RETURN spin(n + 1);
END;
PROCEDURE main(): INT;
BEGIN
  RETURN spin(0);
END;
END.
"""


@pytest.mark.parametrize("preset", ALL_PRESETS)
@pytest.mark.parametrize(
    "source,args,kind",
    [(_DIV_TRAP, (0,), "divide_by_zero"), (_EXHAUST, (), "resource_exhausted")],
    ids=["div_zero", "exhaust"],
)
def test_traps_bit_identical(preset, source, args, kind):
    """Trapping runs surface the same kind at the same step with the
    same meters under either engine."""
    outcomes = []
    for use_jit in (False, True):
        machine = build([source], preset=preset)
        if use_jit:
            install_jit(machine)
        machine.start("Main", "main", *args)
        with pytest.raises(TrapError) as err:
            machine.run()
        outcomes.append(
            (err.value.trap, machine.steps, machine.pc, machine.counter.snapshot())
        )
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == kind


@pytest.mark.parametrize("preset", ALL_PRESETS)
def test_chunked_run_bit_identical(preset):
    """`run(max_steps=k)` resumed to completion lands exactly where one
    uninterrupted interpreter run lands — the engine honours step
    budgets mid-block by deoptimizing to single steps."""
    entry = CORPUS["mutual"]
    ref = build(list(entry.sources), preset=preset)
    ref.start(*entry.entry)
    ref.run()

    jit = build(list(entry.sources), preset=preset)
    install_jit(jit)
    jit.start(*entry.entry)
    while not jit.halted:
        try:
            jit.run(max_steps=7)
        except StepLimitExceeded:
            continue
    assert state_vector(jit) == state_vector(ref)


def test_chaos_outcomes_identical_under_jit(monkeypatch):
    """All canned fault plans on every corpus program, both engines:
    identical outcome classes, traps, results and every outcome's
    meters.  Faults land between instructions with no tracer attached,
    so the JIT arm runs compiled blocks, call cells and superblocks up to
    and after every fault."""
    engines = []

    def installing(machine, *args, **kwargs):
        engines.append(install_jit(machine, *args, **kwargs))
        return engines[-1]

    monkeypatch.setattr("repro.jit.install_jit", installing)
    cases = {}
    for engine in ("interp", "jit"):
        report = run_chaos(
            programs=tuple(sorted(CORPUS)), seeds=1, plans=tuple(CANNED_PLANS), engine=engine
        )
        assert report.ok, engine
        cases[engine] = {
            (c.program, c.seed, c.plan["name"]): (
                c.to_dict(),
                {preset: o.meters for preset, o in c.outcomes.items()},
            )
            for c in report.cases
        }
    assert cases["interp"] == cases["jit"]
    assert {plan for _program, _seed, plan in cases["jit"]} == set(CANNED_PLANS)
    assert sum(e.cache.compiled_blocks for e in engines) > 0
    assert sum(e.stats.cells_built for e in engines) > 0
    assert sum(e.stats.superblocks for e in engines) > 0


@pytest.mark.parametrize("preset", ["i2", "i3"])
def test_a_drained_av_list_under_chaos_sends_superblocks_to_their_fallback(
    monkeypatch, preset
):
    """The canned ``av_empty`` plan draws one k per seed; here the same
    drain fires on the k-th allocation of ``calls`` for one whole loop
    pass of k (six calls), through the chaos harness: outcomes and
    meters equal on both engines, and some runs enter a superblock to
    find a list too short for its nest."""
    engines = []

    def installing(machine, *args, **kwargs):
        engines.append(install_jit(machine, *args, **kwargs))
        return engines[-1]

    monkeypatch.setattr("repro.jit.install_jit", installing)
    program = CORPUS["calls"]
    reference = chaos.reference_run(program, preset)
    for k in range(13, 19):
        plan = FaultPlan(
            name="av_empty",
            seed=0,
            injections=(Injection(on_event("alloc.frame", k), "drain_av"),),
        )
        outcomes = [
            chaos.run_case(program, preset, plan, reference, engine)
            for engine in ("interp", "jit")
        ]
        assert outcomes[0].to_dict() == outcomes[1].to_dict()
        assert outcomes[0].meters == outcomes[1].meters
        assert outcomes[1].results == reference.results
    assert sum(e.stats.superblocks for e in engines) > 0
    assert sum(e.stats.entry_fallbacks for e in engines) > 0


@settings(max_examples=12, deadline=None)
@given(
    cut=st.integers(min_value=1, max_value=700),
    preset=st.sampled_from(ALL_PRESETS),
)
def test_snapshot_roundtrip_resumes_on_jit(cut, preset):
    """Interrupt the interpreter anywhere, restore the snapshot onto
    fresh machines with and without the JIT, finish both: bit-identical
    endings, and the uninterrupted run's meters and region traffic (a
    restored machine's host caches start cold, and a cold linkage cache
    charges the same traffic as a warm one)."""
    entry = CORPUS["mutual"]
    ref = build(list(entry.sources), preset=preset)
    ref.start(*entry.entry)
    ref.run()
    cut = min(cut, ref.steps - 1)

    paused = build(list(entry.sources), preset=preset)
    paused.start(*entry.entry)
    for _ in range(cut):
        paused.step()
    saved = capture(paused)

    interp = build(list(entry.sources), preset=preset)
    restore(interp, saved)
    interp.run()

    resumed = build(list(entry.sources), preset=preset)
    engine = install_jit(resumed)
    restore(resumed, saved)
    assert not engine.cache.ready  # restore invalidated the code cache
    results = resumed.run()
    assert results == ref.results()
    assert state_vector(resumed) == state_vector(interp)
    assert resumed.counter.snapshot() == ref.counter.snapshot()
    assert resumed.memory.traffic == ref.memory.traffic
    assert resumed.steps == ref.steps


def test_relocate_invalidates_code_cache():
    """A code-service epoch bump mid-run recompiles and still agrees
    with the interpreter (the shared epoch hook, satellite of I5)."""
    sources = [
        """
MODULE Main;
PROCEDURE main(): INT;
VAR a, i: INT;
BEGIN
  a := 0;
  i := 0;
  WHILE i < 40 DO
    a := a + Lib.step(i);
    i := i + 1;
  END;
  RETURN a;
END;
END.
""",
        """
MODULE Lib;
PROCEDURE step(x): INT;
BEGIN
  RETURN x * 2 + 1;
END;
END.
""",
    ]
    ref = build(sources, preset="i2")
    ref.start()
    with pytest.raises(StepLimitExceeded):
        ref.run(max_steps=200)
    relocate_module(ref, "Lib")  # relocation itself charges the meters
    ref.run()

    jit = build(sources, preset="i2")
    engine = install_jit(jit)
    jit.start()
    with pytest.raises(StepLimitExceeded):
        jit.run(max_steps=200)
    relocate_module(jit, "Lib")
    assert engine.cache.invalidations >= 1
    assert jit.run() == ref.results()
    assert jit.counter.snapshot() == ref.counter.snapshot()
    assert engine.cache.ready  # recompiled after the bump


def test_facts_artifact_accepted_and_validated():
    """install_jit consumes a matching repro-facts/1 document, refuses a
    wrong schema, and refuses a foreign image_hash (exit-2 contract)."""
    from repro.check import analyze_image

    entry = CORPUS["mutual"]
    machine = build(list(entry.sources), preset="i2")
    facts = analyze_image(machine.image).to_facts()

    engine = install_jit(machine, facts)
    machine.start(*entry.entry)
    assert machine.run() == list(entry.expect_results)
    assert engine.cache.blocks

    stale = dict(facts, schema="repro-facts/0")
    with pytest.raises(JitRefusal):
        install_jit(build(list(entry.sources), preset="i2"), stale)

    foreign = dict(facts, image_hash="0" * 32)
    with pytest.raises(JitRefusal):
        install_jit(build(list(entry.sources), preset="i2"), foreign)


def test_observer_forces_interpreter():
    """Attaching a tracer makes the engine inert; outcomes unchanged."""
    from repro.obs import TraceRecorder

    entry = CORPUS["fib"]
    machine = build(list(entry.sources), preset="i2")
    engine = install_jit(machine)
    machine.attach_tracer(TraceRecorder(capacity=16))
    machine.start(*entry.entry)
    assert machine.run() == list(entry.expect_results)
    assert engine.stats.deopts == 0  # never entered compiled code
