"""Compilation on first entry: the JIT compiles what runs, when it runs.

``install_jit`` verifies the image and compiles nothing; every
verified procedure compiles the first time execution reaches its body
start, and an epoch bump re-arms that pending set instead of
recompiling the image.  These tests pin when a procedure compiles —
never before its first entry, never if it is never entered, once per
epoch — and that meters stay the interpreter's throughout.
"""

from __future__ import annotations

import pytest

import repro.jit.engine as jit_engine
from repro.errors import StepLimitExceeded
from repro.interp.services import relocate_module, replace_procedure
from repro.isa.assembler import Assembler
from repro.isa.opcodes import Op
from repro.jit import install_jit
from repro.net.cluster import Cluster
from repro.net.serve import SERVICE_SOURCES, Server, generate_workload
from tests.conftest import build

_LIB = [
    """
MODULE Main;
PROCEDURE main(): INT;
VAR a, i: INT;
BEGIN
  a := 0;
  i := 0;
  WHILE i < 30 DO
    a := a + Lib.f(i) + Lib.g(i);
    i := i + 1;
  END;
  RETURN a;
END;
PROCEDURE unused(x): INT;
BEGIN
  RETURN x + 7;
END;
END.
""",
    """
MODULE Lib;
PROCEDURE f(x): INT;
BEGIN
  RETURN x * 2;
END;
PROCEDURE g(x): INT;
BEGIN
  RETURN x + 1;
END;
END.
""",
]


def _body_starts(machine) -> dict[str, int]:
    """Qualified procedure name -> body start pc, as the image places it now."""
    return {
        f"{meta.module}.{meta.name}": entry + 1
        for entry, meta in machine.image.procs_by_entry.items()
    }


@pytest.fixture
def compiles(monkeypatch):
    """Every ``compile_procedure`` call, as (machine, qualified name)."""
    calls: list = []
    compile_procedure = jit_engine.compile_procedure

    def recording(meta, body, base, machine, ctx, ns):
        calls.append((machine, f"{meta.module}.{meta.name}"))
        return compile_procedure(meta, body, base, machine, ctx, ns)

    monkeypatch.setattr(jit_engine, "compile_procedure", recording)
    return calls


def _reference():
    """``Main.main`` run to completion on the interpreter."""
    machine = build(_LIB)
    machine.start()
    return machine, machine.run()


def test_nothing_compiles_before_the_first_run_or_if_never_entered(compiles):
    machine = build(_LIB)
    engine = install_jit(machine)
    starts = _body_starts(machine)
    assert compiles == []
    assert engine.cache.blocks == {} and engine.cache.procedures == 0
    assert set(engine.cache.pending) == set(starts.values())

    machine.start()
    results = machine.run()
    reference, reference_results = _reference()
    assert results == reference_results
    assert machine.counter.snapshot() == reference.counter.snapshot()
    # Each entered procedure compiled once, at its first entry; the one
    # nobody calls never compiled.
    assert sorted(name for _, name in compiles) == ["Lib.f", "Lib.g", "Main.main"]
    assert engine.cache.procedures == 3
    assert set(engine.cache.pending) == {starts["Main.unused"]}
    assert starts["Main.unused"] not in engine.cache.blocks


def _triple_body() -> bytes:
    """``Lib.f``'s replacement: ``RETURN x * 3``."""
    asm = Assembler()
    asm.emit(Op.SL0)  # COPY prologue: store the argument in local 0
    asm.emit(Op.LL0)
    asm.emit(Op.LI3)
    asm.emit(Op.MUL)
    asm.emit(Op.RET)
    return asm.assemble()


def _swap_mid_run(service, use_jit: bool):
    """Run ``Main.main`` 200 steps, apply *service*, finish."""
    machine = build(_LIB)
    engine = install_jit(machine) if use_jit else None
    machine.start()
    with pytest.raises(StepLimitExceeded):
        machine.run(max_steps=200)
    service(machine)
    return machine, engine, machine.run()


@pytest.mark.parametrize(
    "service,expected",
    [
        (
            lambda machine: relocate_module(machine, "Lib"),
            ["Lib.f", "Lib.f", "Lib.g", "Lib.g", "Main.main"],
        ),
        (
            lambda machine: replace_procedure(machine, "Lib", "f", _triple_body()),
            ["Lib.f", "Lib.g", "Lib.g", "Main.main"],
        ),
    ],
    ids=["relocate_module", "replace_procedure"],
)
def test_code_services_mid_run_recompile_on_next_entry(service, expected, compiles):
    """Main.main, Lib.f and Lib.g compile before the bump.  After it,
    each Lib procedure recompiles on its next entry, where the image
    now places it, except that Lib.f's replacement body is no
    procedure of the linked module, so the interpreter runs it;
    Main.main, caught mid-body, finishes on the interpreter;
    Main.unused never compiles."""
    reference, _, reference_results = _swap_mid_run(service, use_jit=False)
    machine, engine, results = _swap_mid_run(service, use_jit=True)
    assert results == reference_results
    assert machine.steps == reference.steps
    assert machine.counter.snapshot() == reference.counter.snapshot()

    assert engine.cache.invalidations >= 1
    assert sorted(name for _, name in compiles) == expected
    assert _body_starts(machine)["Lib.g"] in engine.cache.blocks


def test_a_body_that_fails_to_compile_is_tried_once(monkeypatch):
    attempts: list[str] = []
    compile_procedure = jit_engine.compile_procedure

    def refuse_lib_f(meta, body, base, machine, ctx, ns):
        attempts.append(f"{meta.module}.{meta.name}")
        if meta.name == "f":
            return None  # as for a body that does not re-verify
        return compile_procedure(meta, body, base, machine, ctx, ns)

    monkeypatch.setattr(jit_engine, "compile_procedure", refuse_lib_f)
    machine = build(_LIB)
    engine = install_jit(machine)
    machine.start()
    results = machine.run()
    reference, reference_results = _reference()
    assert results == reference_results
    assert machine.counter.snapshot() == reference.counter.snapshot()
    # Entered 30 times, tried once, then left to the interpreter.
    assert attempts.count("Lib.f") == 1
    f_start = _body_starts(machine)["Lib.f"]
    assert f_start not in engine.cache.pending
    assert f_start not in engine.cache.blocks
    assert engine.stats.deopt_steps > 0


def test_a_served_cluster_compiles_only_what_each_shard_runs(compiles):
    """The default stack: JIT shards, and nothing compiled before the
    first request.  A procedure runs only on its module's home shard
    (a call into a module homed elsewhere is a Remote XFER), so that is
    the only shard that compiles it, once."""
    cluster = Cluster(list(SERVICE_SOURCES), shards=4, config="i2")
    assert all(shard.machine.engine is not None for shard in cluster.shards)
    assert compiles == []

    workload = generate_workload(7, 480)
    report = Server(cluster, queue_capacity=8, batch_size=4).serve(workload)
    assert report.completed == 480 and report.lost == report.wrong == 0

    ran = {"Main.dispatch"} | {
        ("Fib.fib", "Gauss.sum", "Gcd.gcd", "Pow.power")[request.op]
        for request in workload
    }
    assert len(ran) == 5
    home = cluster.placement.home
    for shard in cluster.shards:
        compiled = [name for machine, name in compiles if machine is shard.machine]
        assert sorted(compiled) == sorted(
            name for name in ran if home(name.split(".")[0]) == shard.id
        )
        assert shard.machine.engine.cache.procedures == len(compiled)
    assert [shard.machine.engine.cache.procedures for shard in cluster.shards] == [
        0, 1, 1, 3
    ]
