"""Linked-image verification: table tampering must be caught statically."""

import pytest

from repro.check import check_image
from repro.check.fuzz import build_image
from repro.interp.machineconfig import MachineConfig
from repro.isa.assembler import Assembler
from repro.isa.opcodes import Op
from repro.isa.program import ModuleCode, Procedure
from repro.lang.compiler import CompileOptions, compile_program
from repro.lang.linker import link
from repro.mesa.descriptor import MAX_ENV, pack_descriptor
from repro.workloads.programs import CORPUS

PRESETS = ["i1", "i2", "i3", "i4"]


def mathlib(preset="i2"):
    program = CORPUS["mathlib"]
    return build_image(program.sources, program.entry, preset)


def error_checks(report):
    return sorted({d.check for d in report.errors})


# -- the clean baseline ----------------------------------------------------------


@pytest.mark.parametrize("preset", PRESETS)
def test_corpus_is_clean_at_both_levels(preset):
    config = MachineConfig.preset(preset)
    for program in CORPUS.values():
        if program.needs_descriptors and preset == "i1":
            continue  # PROC literals need packed descriptors (no GFT in I1)
        modules = compile_program(
            list(program.sources), CompileOptions.for_config(config)
        )
        image = link(modules, config, program.entry)
        image_report = check_image(image)
        assert image_report.ok, f"{program.name}/{preset}:\n{image_report.format()}"


# -- entry vector, fsi, and headers ----------------------------------------------


def test_tampered_ev_word():
    image = mathlib()
    linked = image.instance_of("Math")
    gcd = linked.module.procedure_named("gcd")
    address = linked.code_base + gcd.ev_index * 2
    image.code.buffer[address] = 0x7F
    image.code.buffer[address + 1] = 0xFF
    report = check_image(image)
    (diag,) = report.by_check("ev-entry")
    assert diag.procedure == "gcd"
    assert not report.ok


def test_fsi_out_of_range():
    image = mathlib()
    image.code.buffer[image.entry.entry_address] = 0xEE
    report = check_image(image)
    (diag,) = report.by_check("fsi-range")
    assert diag.severity.value == "error"


def test_loose_fsi_is_a_warning_not_an_error():
    image = mathlib()
    fsi = image.code.buffer[image.entry.entry_address]
    image.code.buffer[image.entry.entry_address] = fsi + 1  # bigger class, still legal
    report = check_image(image)
    assert report.ok
    (diag,) = report.by_check("fsi-loose")
    assert "fragmentation" in diag.message


def test_fsi_too_small_for_the_frame():
    # A frame bigger than the smallest ladder class, then lie about it.
    asm = Assembler()
    asm.emit(Op.LI0)
    asm.emit(Op.RET)
    module = ModuleCode(name="Hand")
    module.procedures.append(
        Procedure(
            name="main",
            ev_index=0,
            arg_count=0,
            result_count=1,
            frame_words=13,
            body=asm.assemble(),
        )
    )
    image = link([module], MachineConfig.preset("i2"), ("Hand", "main"))
    assert image.ladder.size_of(0) < 13
    image.code.buffer[image.entry.entry_address] = 0
    report = check_image(image)
    (diag,) = report.by_check("fsi-too-small")
    assert "13" in diag.message


# -- link vector and GFT ---------------------------------------------------------


def test_lv_word_without_descriptor_tag():
    image = mathlib()
    linked = image.instance_of("Main")
    image.memory.poke(linked.lv_base, 0x0040)  # even word: frame pointer, not desc
    report = check_image(image)
    assert "descriptor-tag" in error_checks(report)
    (diag,) = report.by_check("descriptor-tag")
    assert "link-vector entry 0" in diag.message
    assert diag.offset is not None  # pinned to the EFC site
    assert ">" in diag.context  # disassembled window marks the bad line
    assert diag.format(listing=True).count("\n") >= 1


def test_lv_descriptor_with_bad_gft_index():
    image = mathlib()
    linked = image.instance_of("Main")
    image.memory.poke(linked.lv_base, pack_descriptor(MAX_ENV, 0))
    report = check_image(image)
    assert "gft-index" in error_checks(report)


def test_gft_entry_pointing_nowhere():
    image = mathlib()
    image.memory.poke(image.gft.base, 0x0FF0)  # quad-aligned, but nobody's GF
    report = check_image(image)
    assert "gft-entry" in error_checks(report)


def test_gft_entry_with_wrong_bias():
    image = mathlib()
    gf_address, _bias = image.gft.peek_entry(0)
    image.memory.poke(image.gft.base, gf_address | 1)
    report = check_image(image)
    assert "gft-bias" in error_checks(report)


def test_swapped_lv_entries_mismatch_the_import_list():
    image = mathlib()
    linked = image.instance_of("Main")
    assert len(linked.module.imports) >= 2
    first = image.memory.peek(linked.lv_base)
    second = image.memory.peek(linked.lv_base + 1)
    image.memory.poke(linked.lv_base, second)
    image.memory.poke(linked.lv_base + 1, first)
    report = check_image(image)
    assert "import-mismatch" in error_checks(report)


def test_wide_lv_entry_under_simple_linkage():
    image = mathlib("i1")
    linked = image.instance_of("Main")
    image.memory.poke(linked.lv_base, 0x0001)  # not any procedure's fsi byte
    report = check_image(image)
    assert "lv-wide-entry" in error_checks(report)


# -- descriptor literals and DIRECTCALL ------------------------------------------


def test_tampered_proc_literal_descriptor():
    program = CORPUS["dispatch"]
    image = build_image(program.sources, program.entry, "i2")
    fixup = next(
        f
        for linked in image.instances.values()
        for f in linked.module.fixups
        if f.kind == "desc"
    )
    linked = next(
        lm for lm in image.instances.values() if any(f is fixup for f in lm.module.fixups)
    )
    procedure = linked.module.procedure_named(fixup.procedure)
    site = linked.code_base + procedure.entry_offset + 1 + fixup.site_offset
    image.code.buffer[site + 1] = 0x00
    image.code.buffer[site + 2] = 0x40  # even word: tag bit cleared
    report = check_image(image)
    assert "descriptor-tag" in error_checks(report)


def test_direct_header_gf_mismatch():
    image = mathlib("i3")
    linked = image.instance_of("Math")
    procedure = linked.module.procedure_named("gcd")
    assert procedure.direct_offset >= 0
    address = linked.code_base + procedure.direct_offset
    image.code.buffer[address] ^= 0x40
    report = check_image(image)
    assert "direct-header-gf" in error_checks(report)


def test_direct_call_into_nowhere():
    image = mathlib("i3")
    tampered = False
    for linked in image.instances.values():
        for fixup in linked.module.fixups:
            if fixup.kind not in ("dfc", "sdfc"):
                continue
            procedure = linked.module.procedure_named(fixup.procedure)
            site = linked.code_base + procedure.entry_offset + 1 + fixup.site_offset
            image.code.buffer[site + 1] = 0x3F
            image.code.buffer[site + 2] = 0xFF
            tampered = True
            break
        if tampered:
            break
    assert tampered, "expected a direct-call fixup under DIRECT linkage"
    report = check_image(image)
    assert "direct-target" in error_checks(report)


ORPHAN_SRC = """
MODULE Main;
PROCEDURE orphan(): INT;
BEGIN
  RETURN 1;
END;
PROCEDURE main(): INT;
BEGIN
  RETURN 2;
END;
END.
"""


def test_unreachable_procedure_is_reported_but_not_fatal():
    image = build_image((ORPHAN_SRC,), ("Main", "main"), "i2")
    report = check_image(image)
    assert report.ok
    (diag,) = report.by_check("unreachable-procedure")
    assert diag.procedure == "orphan"
