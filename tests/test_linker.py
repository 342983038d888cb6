"""Unit tests for the linker: layout, tables, fixups, bias slots."""

import pytest

from repro.errors import LinkError
from repro.interp.machine import Machine
from repro.interp.machineconfig import MachineConfig
from repro.jit import install_jit
from repro.lang.compiler import CompileOptions, compile_program
from repro.lang.linker import LinkOptions, link
from repro.mesa.globalframe import GF_CODE_BASE, GF_LINK_VECTOR
from repro.workloads.programs import CORPUS
from tests.conftest import build as build_machine
from tests.test_jit_exit_counts import CORPUS_CELLS

PAIR = [
    "MODULE Main;\nPROCEDURE main(): INT;\nBEGIN\n  RETURN Lib.f(4);\nEND;\nEND.",
    "MODULE Lib;\nPROCEDURE f(x): INT;\nBEGIN\n  RETURN x * 2;\nEND;\nEND.",
]


def build(preset="i2", sources=None, instances=None, multi=frozenset()):
    config = MachineConfig.preset(preset)
    modules = compile_program(sources or PAIR, CompileOptions.for_config(config, multi))
    return link(modules, config, ("Main", "main"), LinkOptions(instances=instances or {}))


def test_regions_laid_out_disjoint():
    image = build()
    names = {region.name for region in image.memory.regions}
    assert {"gft", "av", "link_vectors", "global_frames", "frames"} <= names


def test_global_frames_quad_aligned():
    image = build()
    for linked in image.instances.values():
        assert linked.gf_address % 4 == 0


def test_global_frame_header_contents():
    image = build()
    lib = image.instance_of("Lib")
    assert image.memory.peek(lib.gf_address + GF_CODE_BASE) == lib.code_base
    assert image.memory.peek(lib.gf_address + GF_LINK_VECTOR) == lib.lv_base


def test_link_vector_holds_descriptor():
    image = build()
    main = image.instance_of("Main")
    descriptor = main.lv.read_entry(main.module.imports.index(("Lib", "f")))
    assert descriptor % 2 == 1  # tagged as a procedure descriptor


def test_wide_link_vector_under_simple():
    image = build("i1")
    main = image.instance_of("Main")
    entry, gf = main.lv.read_entry(0)
    lib = image.instance_of("Lib")
    assert gf == lib.gf_address
    assert entry == lib.code_base + lib.module.procedure_named("f").entry_offset


def test_no_gft_under_simple():
    image = build("i1")
    assert image.gft is None


def test_direct_header_patched():
    image = build("i3")
    lib = image.instance_of("Lib")
    f = lib.module.procedure_named("f")
    header = lib.code_base + f.direct_offset
    value = (image.code.fetch_byte(header) << 8) | image.code.fetch_byte(header + 1)
    assert value == lib.gf_address


def test_entry_meta():
    image = build()
    assert image.entry.qualified_name == "Main.main"
    meta = image.proc_meta("Lib", "f")
    assert meta.arg_count == 1 and meta.result_count == 1


def test_procs_by_entry_covers_everything():
    image = build()
    names = {meta.qualified_name for meta in image.procs_by_entry.values()}
    assert names == {"Main.main", "Lib.f"}


def test_fsi_matches_ladder():
    image = build()
    for meta in image.procs_by_entry.values():
        assert image.ladder.size_of(meta.fsi) >= meta.frame_words


def test_duplicate_modules_rejected():
    config = MachineConfig.i2()
    modules = compile_program(PAIR, CompileOptions.for_config(config))
    modules[1].name = "Main"
    with pytest.raises(LinkError):
        link(modules, config, ("Main", "main"))


def test_unknown_entry_rejected():
    config = MachineConfig.i2()
    modules = compile_program(PAIR, CompileOptions.for_config(config))
    with pytest.raises(LinkError):
        link(modules, config, ("Nope", "main"))


def test_direct_call_to_multi_instance_rejected_at_link():
    """If the compiler emitted a DFC but the linker is told the target is
    multi-instance, that is a hard link error (D2)."""
    config = MachineConfig.i3()
    modules = compile_program(PAIR, CompileOptions.for_config(config))
    with pytest.raises(LinkError):
        link(modules, config, ("Main", "main"), LinkOptions(instances={"Lib": 2}))


def test_bias_slots_for_large_module():
    """A module with more than 32 procedures needs extra GFT entries with
    biases — the 128-entry escape hatch of section 5.1."""
    procedures = "\n".join(
        f"PROCEDURE p{i}(): INT;\nBEGIN\n  RETURN {i % 8};\nEND;" for i in range(40)
    )
    big = f"MODULE Big;\n{procedures}\nEND."
    main = (
        "MODULE Main;\nPROCEDURE main(): INT;\nBEGIN\n"
        "  RETURN Big.p0() + Big.p35() + Big.p39();\nEND;\nEND."
    )
    config = MachineConfig.i2()
    modules = compile_program([main, big], CompileOptions.for_config(config))
    image = link(modules, config, ("Main", "main"))
    assert len(image.instance_of("Big").env_indices) == 2
    machine = Machine(image)
    machine.start()
    assert machine.run() == [(0 + 3 + 7)]


def test_multi_instance_global_frames_are_separate():
    image = build(instances={"Lib": 3}, multi=frozenset({"Lib"}))
    addresses = {
        linked.gf_address
        for (name, _), linked in image.instances.items()
        if name == "Lib"
    }
    assert len(addresses) == 3


@pytest.mark.parametrize("engine", ["interp", "jit"])
@pytest.mark.parametrize("name, preset", CORPUS_CELLS)
def test_every_reference_lands_in_a_region(name, preset, engine):
    """The layout leaves no word a program touches outside every region:
    the first-fit allocator's free-list head lies in ``av`` beside the
    AV heap's list heads, so no traffic is attributed to ``""``."""
    entry = CORPUS[name]
    machine = build_machine(list(entry.sources), preset=preset, entry=entry.entry)
    if engine == "jit":
        install_jit(machine)
    machine.start(entry.entry[0], entry.entry[1], *entry.args)
    machine.run()
    assert machine.memory.traffic
    assert "" not in machine.memory.traffic
