"""Differential fuzzing of the verifier against the running machine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.check import analyze_image, check_image
from repro.check.fuzz import (
    ANALYZER_DEFECT_INJECTIONS,
    DEFECT_INJECTIONS,
    build_image,
    execute,
    run_campaign,
)
from repro.interp.machineconfig import MachineConfig
from repro.lang.compiler import CompileOptions, compile_program
from repro.lang.linker import link
from repro.workloads.generator import GeneratorConfig, generate_program
from repro.workloads.programs import CORPUS

#: A corpus host known to give each injector an applicable site.
HOSTS = {
    "stack-underflow": "ackermann",
    "lv-index": "mathlib",
    "gft-index": "mathlib",
    "fsi-range": "fib",
    "jump-into-instruction": "fib",
}


@pytest.mark.parametrize(
    ("label", "check_id", "inject"),
    DEFECT_INJECTIONS,
    ids=[check_id for _, check_id, _ in DEFECT_INJECTIONS],
)
def test_injected_defects_are_caught_statically(label, check_id, inject):
    program = CORPUS[HOSTS[check_id]]
    image = build_image(program.sources, program.entry, "i2")
    assert check_image(image).ok  # the host starts clean
    assert inject(image), f"no applicable site for {label!r}"
    report = check_image(image)
    diagnostics = report.by_check(check_id)
    assert diagnostics, f"{label}: expected {check_id}, got\n{report.format()}"
    assert not report.ok
    assert any(d.offset is not None for d in diagnostics), "finding has no location"


#: Corpus hosts giving each analyzer-targeted injector an applicable site.
ANALYZER_HOSTS = {
    "undeclared-xfer": "coroutine",
    "undeclared-capture": "coroutine",
    "fsi-too-small": "sort",
}


@pytest.mark.parametrize(
    ("label", "check_id", "inject"),
    ANALYZER_DEFECT_INJECTIONS,
    ids=[check_id for _, check_id, _ in ANALYZER_DEFECT_INJECTIONS],
)
def test_analyzer_injected_defects_refuse_facts(label, check_id, inject):
    program = CORPUS[ANALYZER_HOSTS[check_id]]
    image = build_image(program.sources, program.entry, "i2")
    assert analyze_image(image).ok  # the host starts clean
    image = build_image(program.sources, program.entry, "i2")
    assert inject(image), f"no applicable site for {label!r}"
    analysis = analyze_image(image)
    report = analysis.report
    assert report.by_check(check_id), (
        f"{label}: expected {check_id}, got\n{report.format()}"
    )
    assert not analysis.ok
    with pytest.raises(ValueError):
        analysis.to_facts()  # a lying image gets no facts


def test_clean_corpus_images_run_without_verified_faults():
    for name in ("fib", "mathlib", "calls"):
        program = CORPUS[name]
        image = build_image(program.sources, program.entry, "i2")
        assert check_image(image).ok
        assert execute(image, program.args) == "ok"


@pytest.mark.parametrize("preset", ["i2", "i3"])
def test_mutation_campaign_upholds_the_dichotomy(preset):
    program = CORPUS["mathlib"]
    trials = run_campaign(
        program.sources, program.entry, program.args, preset, trials=25, seed=7
    )
    violations = [t for t in trials if t.violates_dichotomy]
    assert not violations, "\n\n".join(
        f"{t.label}: ran to {t.outcome} despite\n{t.report.format()}" for t in violations
    )
    # The campaign must actually exercise the static arm: most random
    # byte flips break a property the verifier watches.
    rejected = [t for t in trials if not t.report.ok]
    assert rejected


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_generated_programs_verify_clean(seed):
    program = generate_program(
        GeneratorConfig(seed=seed, modules=2, procs_per_module=3, loop_iterations=5)
    )
    config = MachineConfig.preset("i2")
    modules = compile_program(list(program.sources), CompileOptions.for_config(config))
    image = link(modules, config, program.entry)
    image_report = check_image(image)
    assert image_report.ok, image_report.format()
