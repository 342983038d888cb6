"""Dynamic opcode profiles and transfer sequences, read off a tracer sink.

The machine has one observation hook, ``tracer``: a ``trace_steps``
sink sees every instruction as a ``machine.step`` event (the opcode
histogram), and every sink sees each transfer as an ``xfer.*`` event.
"""

from collections import Counter

from repro.isa.opcodes import Op
from repro.jit import install_jit
from repro.obs import TraceRecorder
from tests.conftest import build

SOURCE = [
    """
MODULE Main;
PROCEDURE leaf(x): INT;
BEGIN
  RETURN x + 1;
END;
PROCEDURE main(): INT;
VAR i, acc: INT;
BEGIN
  acc := 0;
  i := 0;
  WHILE i < 20 DO
    acc := acc + leaf(i);
    i := i + 1;
  END;
  RETURN acc;
END;
END.
"""
]


def _traced(trace_steps: bool = False):
    machine = build(SOURCE)
    recorder = TraceRecorder(capacity=None, trace_steps=trace_steps)
    machine.attach_tracer(recorder)
    machine.start()
    machine.run()
    return machine, recorder


def _opcodes(recorder: TraceRecorder) -> Counter:
    return Counter(event.name for event in recorder.by_kind("machine.step"))


def _transfers(recorder: TraceRecorder) -> list[tuple[str, str, str]]:
    """(kind, from, to) per call and return."""
    sequence = []
    for event in recorder.by_kind("xfer.call", "xfer.return"):
        if event.kind == "xfer.call":
            sequence.append((event.data["transfer"], event.data["source"], event.name))
        else:
            sequence.append(("return", event.name, event.data["target"]))
    return sequence


def test_profile_off_by_default():
    """No sink means no observation, and the JIT may run; a sink pins
    it to the interpreter.  A sink records steps only when asked."""
    machine = build(SOURCE)
    assert machine.tracer is None
    install_jit(machine)
    assert machine.engine.active()
    machine.attach_tracer(TraceRecorder())
    assert not machine.engine.active()

    _machine, recorder = _traced()
    assert not _opcodes(recorder)
    assert _transfers(recorder)


def test_profile_counts_match_steps():
    machine, recorder = _traced(trace_steps=True)
    profile = _opcodes(recorder)
    assert sum(profile.values()) == machine.steps
    assert profile[Op.LFC.name] == 20  # one local call per iteration
    assert profile[Op.RET.name] == 21  # 20 leaf returns + main's


def test_hot_opcodes_ranked():
    _machine, recorder = _traced(trace_steps=True)
    hot = _opcodes(recorder).most_common(3)
    assert len(hot) == 3
    counts = [executed for _, executed in hot]
    assert counts == sorted(counts, reverse=True)
    names = _opcodes(recorder)
    # Local-variable traffic dominates, as the encoding assumes.
    assert names["LL0"] + names.get("LL1", 0) >= names["LFC"]


def test_transfer_log_records_sequence():
    _machine, recorder = _traced()
    log = _transfers(recorder)
    calls = [entry for entry in log if entry[0] in ("local_call", "short_direct_call")]
    returns = [entry for entry in log if entry[0] == "return"]
    assert len(calls) == 20
    assert len(returns) == 21
    assert calls[0][1] == "Main.main" and calls[0][2] == "Main.leaf"
    assert log[-1] == ("return", "Main.main", "<halt>")


def test_transfer_log_off_by_default():
    """Transfers are seen only by an attached sink: a plain run leaves
    no tracer, and a sink detached before the run records nothing."""
    machine = build(SOURCE)
    machine.start()
    machine.run()
    assert machine.tracer is None

    machine = build(SOURCE)
    recorder = TraceRecorder(capacity=None)
    machine.attach_tracer(recorder)
    machine.detach_tracer()
    machine.start()
    machine.run()
    assert machine.tracer is None
    assert not _transfers(recorder)
