"""The repro-wire/1 transfer records and module placement."""

import pytest

from repro.errors import RouteError, WireError
from repro.interp.machineconfig import MachineConfig
from repro.net import wire
from repro.net.placement import HashRing, Placement
from repro.net.wire import Message, decode, wire_words


def test_call_reply_roundtrip_through_encoding():
    call = wire.call(0, 1, 7, "0:3", "0:0", "Math", "gcd", [12, 18])
    again = decode(call.encode())
    assert again == call
    reply = wire.reply(1, 0, 7, "0:3", [6])
    assert decode(reply.encode()) == reply
    error = wire.error(1, 0, 7, "0:3", "zero_divide", 0x1234, "Math.gcd", "boom")
    assert decode(error.encode()) == error


def test_encoding_is_canonical_and_wire_words_counts_it():
    message = wire.reply(1, 0, 9, "1:2", [3, 4])
    encoded = message.encode()
    assert encoded == message.encode()  # deterministic
    assert '"schema":"repro-wire/1"' in encoded
    assert message.wire_words == (len(encoded.encode("utf-8")) + 1) // 2
    assert wire_words("ab") == 1
    assert wire_words("abc") == 2


def test_unknown_kind_and_missing_fields_are_rejected():
    with pytest.raises(WireError, match="unknown message kind"):
        Message(kind="gossip", src=0, dst=1, body={})
    with pytest.raises(WireError, match="missing body field"):
        Message(kind="call", src=0, dst=1, body={"id": 1})


def test_decode_rejects_bad_records():
    with pytest.raises(WireError, match="not JSON"):
        decode("{")
    with pytest.raises(WireError, match="JSON object"):
        decode("[1]")
    with pytest.raises(WireError, match="unknown wire schema"):
        decode('{"schema": "repro-wire/99", "kind": "hello"}')
    with pytest.raises(WireError, match="missing"):
        decode('{"schema": "repro-wire/1", "kind": "hello"}')


def test_hello_carries_the_snapshot_config_token():
    config = MachineConfig.i3()
    message = wire.hello(0, 1, config, ["Zeta", "Alpha"])
    assert message.body["config"] == wire.config_token(config)
    assert message.body["modules"] == ["Alpha", "Zeta"]  # census is sorted
    assert wire.hello(0, 1, MachineConfig.i4(), []).body["config"] != (
        message.body["config"]
    )


def test_describe_labels_every_kind():
    call = wire.call(0, 1, 5, "0:1", None, "Math", "gcd", [4, 6])
    assert "call#5" in call.describe() and "Math.gcd" in call.describe()
    assert "reply#5" in wire.reply(1, 0, 5, "0:1", [2]).describe()
    assert "bad_trap" in wire.error(1, 0, 5, "0:1", "bad_trap", -1, "", "x").describe()


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------


def test_ring_is_deterministic_and_total():
    ring = HashRing([0, 1, 2, 3])
    again = HashRing([0, 1, 2, 3])
    for module in ("Main", "Math", "Fib", "Gauss", "Pow", "Gcd"):
        assert ring.home(module) == again.home(module)
        assert ring.home(module) in (0, 1, 2, 3)


def test_ring_spreads_modules_and_moves_few_on_growth():
    modules = [f"Module{i}" for i in range(200)]
    small = HashRing([0, 1, 2, 3])
    counts = {}
    for module in modules:
        counts[small.home(module)] = counts.get(small.home(module), 0) + 1
    assert set(counts) == {0, 1, 2, 3}  # every shard owns something
    grown = HashRing([0, 1, 2, 3, 4])
    moved = sum(1 for m in modules if small.home(m) != grown.home(m))
    # Consistent hashing: growth relocates roughly 1/N, never a reshuffle.
    assert moved < len(modules) // 2


def test_pins_override_the_ring_and_are_validated():
    placement = Placement([0, 1], pins={"Math": 1, "Main": 0})
    assert placement.home("Math") == 1
    assert placement.home("Main") == 0
    assert placement.table(["Main", "Math"]) == {"Main": 0, "Math": 1}
    with pytest.raises(RouteError, match="unknown shard"):
        Placement([0, 1], pins={"Math": 9})
    with pytest.raises(RouteError, match="at least one shard"):
        HashRing([])
    # Placement is fixed when it is built: the pin map is read-only.
    with pytest.raises(TypeError):
        placement.pins["Math"] = 0
    assert placement.home("Math") == 1
