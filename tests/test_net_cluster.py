"""Remote XFER conformance: split execution must not change the model.

The acceptance bar from the subsystem's design: the same corpus program
run single-machine and split across 2 shards must produce identical
return values, and identical **per-call modelled cost** — every remote
activation's callee-side step and cycle deltas bit-identical to a
reference machine replaying the same activations locally.  All RPC
overhead lives on the transport's explicit wire meters; the caller
additionally pays exactly one ordinary modelled process switch per
remote call (visible in ``SwitchStats.blocks``, never hidden).
"""

import pytest

from repro.errors import NetError, TrapError
from repro.interp.machineconfig import MachineConfig
from repro.interp.processes import Scheduler, SchedulerError
from repro.net.cluster import Cluster, build_shard_machine
from repro.net.shard import Shard
from repro.net.stitch import render, stitch
from repro.net.transport import SocketTransport
from repro.net.placement import HashRing, Placement
from repro.net import wire
from repro.workloads.programs import program
from tests.conftest import ALL_PRESETS, served_activations

MATHLIB = program("mathlib")
PINS = {"Main": 0, "Math": 1}


def _split(preset, **kwargs):
    return Cluster(
        list(MATHLIB.sources), shards=2, config=preset, pins=PINS, **kwargs
    )


@pytest.mark.parametrize("preset", ALL_PRESETS)
def test_split_matches_single_machine_results(preset):
    machine = build_shard_machine(list(MATHLIB.sources), MachineConfig.preset(preset))
    machine.start()
    single = machine.run()
    assert _split(preset).call("Main", "main") == single == list(MATHLIB.expect_results)


@pytest.mark.parametrize("preset", ALL_PRESETS)
def test_per_call_callee_meters_match_local_replay(preset):
    """Every remote activation costs exactly what the same activation
    costs on a local machine — measured from the stitched span stamps,
    compared against a fresh scheduler replaying the served sequence."""
    split = _split(preset, record=True)
    assert split.call("Main", "main") == list(MATHLIB.expect_results)

    events = split.trace_events()
    roots = stitch(events)
    assert len(roots) == 1
    remote_spans = [node for node, _ in roots[0].walk() if node.shard == 1]
    served = served_activations(events[1])
    assert len(remote_spans) == len(served) == 30  # 10 iterations x 3 calls

    reference = build_shard_machine(
        list(MATHLIB.sources), MachineConfig.preset(preset)
    )
    scheduler = Scheduler(reference)
    for span in remote_spans:
        module, proc, args, results = served[span.span]
        steps_before = reference.steps
        cycles_before = reference.counter.cycles
        replayed = scheduler.spawn(module, proc, *args)
        scheduler.run()
        assert list(replayed.results) == results
        assert span.steps == reference.steps - steps_before
        assert span.cycles == reference.counter.cycles - cycles_before


def test_caller_pays_exactly_one_switch_per_remote_call():
    split = _split("i2")
    split.call("Main", "main")
    stats = split.shards[0].scheduler.stats
    assert stats.blocks == 30
    assert stats.yields == 0  # blocks are not yields
    # And the wire cost is on the transport, not any machine.
    assert split.transport.stats.wire_words > 0


def test_two_seeded_runs_have_bit_identical_meters_on_every_shard():
    first = _split("i3")
    second = _split("i3")
    assert first.call("Main", "main") == second.call("Main", "main")
    assert first.meters() == second.meters()
    assert first.transport.stats.as_dict() == second.transport.stats.as_dict()


def test_socket_transport_is_semantically_identical():
    reference = _split("i2")
    reference.call("Main", "main")
    socketed = _split("i2", transport=SocketTransport())
    try:
        assert socketed.call("Main", "main") == list(MATHLIB.expect_results)
        assert socketed.meters() == reference.meters()
        assert (
            socketed.transport.stats.as_dict()
            == reference.transport.stats.as_dict()
        )
    finally:
        socketed.close()


def test_handshake_rejects_config_mismatch():
    """A shard built on a different preset must refuse the hello."""
    shard = Shard(
        1,
        build_shard_machine(list(MATHLIB.sources), MachineConfig.i4()),
        Placement([0, 1], pins=PINS),
    )
    greeting = wire.hello(
        0, 1, MachineConfig.i2(),
        shard.modules(),
    )
    with pytest.raises(NetError, match="configuration token mismatch"):
        shard.deliver([greeting])


def test_handshake_rejects_module_census_mismatch():
    shard = Shard(
        1,
        build_shard_machine(list(MATHLIB.sources), MachineConfig.i2()),
        Placement([0, 1], pins=PINS),
    )
    greeting = wire.hello(0, 1, MachineConfig.i2(), ["Main", "Other"])
    with pytest.raises(NetError, match="module census differs"):
        shard.deliver([greeting])


def test_remote_fault_propagates_with_diagnostics():
    """A trap on the callee shard faults the caller with the remote
    shard named in the detail, via cluster.call raising TrapError."""
    sources = [
        """
MODULE Main;
PROCEDURE main(): INT;
BEGIN
  RETURN Broken.divide(1, 0);
END;
END.
""",
        """
MODULE Broken;
PROCEDURE divide(a, b): INT;
BEGIN
  RETURN a DIV b;
END;
END.
""",
    ]
    cluster = Cluster(
        sources, shards=2, config="i2", pins={"Main": 0, "Broken": 1}
    )
    with pytest.raises(TrapError, match="remote fault on shard 1"):
        cluster.call("Main", "main")


def test_stitched_tree_renders_every_span():
    split = _split("i2", record=True)
    split.call("Main", "main")
    roots = stitch(split.trace_events())
    text = render(roots)
    assert "Main.main [shard 0]" in text
    assert "Math.gcd [shard 1]" in text
    assert "(no reply)" not in text  # every span completed
    assert text.count("\n") + 1 == 31


def test_dedup_makes_execution_at_most_once():
    """Delivering the same call twice must execute it once and resend
    the cached reply for the duplicate."""
    shard = Shard(
        1,
        build_shard_machine(list(MATHLIB.sources), MachineConfig.i2()),
        Placement([0, 1], pins=PINS),
    )
    call = wire.call(0, 1, 5, "0:1", "0:0", "Math", "gcd", [12, 18])
    shard.deliver([call])
    shard.step(0)
    first = shard.drain_outbox()
    assert len(first) == 1 and first[0].kind == "reply"
    executed = shard.machine.steps
    shard.deliver([call])  # duplicate after completion
    shard.step(1)
    second = shard.drain_outbox()
    assert second == first  # cached reply, byte-for-byte
    assert shard.machine.steps == executed  # nothing re-executed


def test_scheduler_block_unblock_and_fault_paths():
    machine = build_shard_machine(list(MATHLIB.sources), MachineConfig.i2())
    scheduler = Scheduler(machine)
    process = scheduler.spawn("Main", "main")
    with pytest.raises(SchedulerError):
        scheduler.unblock(process, [1])  # READY, not BLOCKED
    with pytest.raises(SchedulerError):
        scheduler.fault_blocked(process, {"trap": "x"})


def test_cluster_rejects_zero_shards_and_unpumped_stub_calls():
    with pytest.raises(NetError, match="at least one shard"):
        Cluster(list(MATHLIB.sources), shards=0)
    # Driving a shard machine outside its scheduler must fail loudly,
    # not silently skip the remote divert.
    split = _split("i2")
    machine = split.shards[0].machine
    machine.start("Main", "main")
    with pytest.raises(NetError, match="outside a scheduled process"):
        machine.run()


def test_memoized_ring_homes_equal_freshly_hashed_homes():
    """``HashRing.home`` hashes each key once; the memo must answer
    exactly what a fresh ring answers, and pins keep priority across a
    repin."""
    census = [f"Module{i}" for i in range(300)] + ["Main", "Fib", "Gauss", "Gcd", "Pow"]
    placement = Placement([0, 1, 2, 3])
    before = {module: placement.home(module) for module in census}
    assert before == {module: HashRing([0, 1, 2, 3]).home(module) for module in census}
    assert {module: placement.home(module) for module in census} == before
    assert len(set(before.values())) == 4
    pins = {"Module7": (before["Module7"] + 1) % 4, "Main": 3}
    assert placement.repin(pins) == 1
    after = {module: placement.home(module) for module in census}
    fresh = HashRing([0, 1, 2, 3])
    for module in census:
        assert after[module] == pins.get(module, fresh.home(module))


@pytest.mark.parametrize("engine", [None, "interp"], ids=["default", "interp"])
def test_a_cluster_compiles_once_and_links_one_image_per_shard(engine, monkeypatch):
    """The sources compile once and, on the JIT (the default), the
    verifier runs once per cluster: shard 0's install verifies, the
    other shards validate its facts document.  Every shard still links
    its own image into its own memory."""
    import repro.jit.engine as jit_engine
    import repro.lang.compiler as compiler
    from repro.check.interproc import image_fingerprint
    from repro.net.serve import SERVICE_SOURCES

    calls = {"compile_program": 0, "analyze_image": 0}

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(compiler, "compile_program")
    count(jit_engine, "analyze_image")
    kwargs = {} if engine is None else {"engine": engine}
    cluster = Cluster(list(SERVICE_SOURCES), shards=4, config="i2", **kwargs)
    jit = engine is None
    assert calls == {"compile_program": 1, "analyze_image": 1 if jit else 0}
    machines = [shard.machine for shard in cluster.shards]
    assert all((machine.engine is not None) == jit for machine in machines)
    assert len({image_fingerprint(machine.image) for machine in machines}) == 1

    address = machines[0].image.frame_region.base
    before = [machine.memory.peek(address) for machine in machines]
    machines[0].memory.poke(address, before[0] ^ 0xBEEF)
    assert [machine.memory.peek(address) for machine in machines[1:]] == before[1:]
