"""Resource-limit behaviour: stack overflow, arena exhaustion, layout."""

import pytest

from repro.errors import HeapExhausted, LinkError, TrapError
from repro.interp.machineconfig import MachineConfig
from repro.lang.compiler import CompileOptions, compile_program
from repro.lang.linker import LinkOptions, link
from tests.conftest import run_source


def _right_leaning(depth: int) -> str:
    deep = "1"
    for _ in range(depth):
        deep = f"1 + ({deep})"
    return f"MODULE Main;\nPROCEDURE main(): INT;\nBEGIN\n  RETURN {deep};\nEND;\nEND."


#: A program whose one expression needs 21 stack words.
DEEP_EXPRESSION = _right_leaning(20)


def test_eval_stack_overflow_traps():
    """A right-leaning expression deeper than the eval stack: the
    hardware's register stack is finite, so this traps."""
    with pytest.raises(TrapError) as excinfo:
        run_source([DEEP_EXPRESSION], eval_stack_depth=8)
    assert excinfo.value.trap == "stack_overflow"


def test_expression_fits_default_stack():
    results, _ = run_source([_right_leaning(12)])
    assert results == [13]


def test_frame_arena_exhaustion_under_runaway_recursion():
    source = [
        """
MODULE Main;
PROCEDURE forever(n): INT;
BEGIN
  RETURN forever(n + 1);
END;
PROCEDURE main(): INT;
BEGIN
  RETURN forever(0);
END;
END.
"""
    ]
    config = MachineConfig.i2()
    modules = compile_program(source, CompileOptions.for_config(config))
    image = link(
        modules,
        config,
        ("Main", "main"),
        LinkOptions(frame_region_words=512),
    )
    from repro.interp.machine import Machine

    machine = Machine(image)
    machine.start()
    # Exhaustion surfaces as a modelled trap with exact diagnostics, not
    # a host exception escaping from inside an instruction handler.
    with pytest.raises(TrapError) as excinfo:
        machine.run()
    assert excinfo.value.trap == "resource_exhausted"
    assert excinfo.value.pc == machine.pc
    assert excinfo.value.proc == "Main.forever"


def test_tiny_frame_region_rejected_or_survives_linking():
    """An absurdly small frame region either fails at link time or at
    the first allocation — never silently corrupts."""
    source = [
        "MODULE Main;\nPROCEDURE main(): INT;\nVAR r: INT;\nBEGIN\n"
        "  r := ALLOCATE(400);\n  RETURN r;\nEND;\nEND."
    ]
    config = MachineConfig.i2()
    modules = compile_program(source, CompileOptions.for_config(config))
    try:
        image = link(
            modules, config, ("Main", "main"), LinkOptions(frame_region_words=16)
        )
    except (LinkError, ValueError):
        return
    from repro.interp.machine import Machine

    machine = Machine(image)
    # start() allocates the root frame host-side (HeapExhausted); once
    # running, exhaustion surfaces as a modelled resource trap instead.
    with pytest.raises((HeapExhausted, TrapError)):
        machine.start()
        machine.run()


def test_gft_capacity_exhaustion():
    many = [
        f"MODULE M{i};\nPROCEDURE p(): INT;\nBEGIN\n  RETURN {i};\nEND;\nEND."
        for i in range(4)
    ]
    main = (
        "MODULE Main;\nPROCEDURE main(): INT;\nBEGIN\n  RETURN "
        + " + ".join(f"M{i}.p()" for i in range(4))
        + ";\nEND;\nEND."
    )
    config = MachineConfig.i2()
    modules = compile_program([main, *many], CompileOptions.for_config(config))
    with pytest.raises(LinkError):
        link(modules, config, ("Main", "main"), LinkOptions(gft_capacity=2))


def test_many_modules_link_and_run():
    many = [
        f"MODULE M{i};\nPROCEDURE p(x): INT;\nBEGIN\n  RETURN x + {i};\nEND;\nEND."
        for i in range(20)
    ]
    chain = "0"
    for i in range(20):
        chain = f"M{i}.p({chain})"
    main = f"MODULE Main;\nPROCEDURE main(): INT;\nBEGIN\n  RETURN {chain};\nEND;\nEND."
    results, machine = run_source([main, *many], preset="i2")
    assert results == [sum(range(20))]
    assert len(machine.image.instances) == 21
