"""The Remote XFER wire format: versioned transfer records.

A remote call is the paper's transfer record (section 5.2) stretched
across a machine boundary: the argument words that a local XFER would
leave on the evaluation stack travel as a ``call`` message, and the
result words come back as a ``reply``.  Every message is one versioned,
JSON-ready record — schema ``repro-wire/1`` — so a transport can carry
it in-process (a queue of :class:`Message` values) or over a byte
stream (``encode``/``decode`` round-trip, used by the socket
transport), and a chaos report can quote it verbatim.

The ``hello`` handshake reuses the snapshot codec's configuration
token (:func:`repro.faults.snapshot._config_token`): two shards may
exchange Remote XFERs only when their machine configurations — and
therefore their modelled meters — are identical, the same compatibility
rule ``repro-snapshot/3`` enforces for restore.  :func:`check_census`
is that check, for both serving stacks.

Wire cost is metered **explicitly and separately** from the machines:
:func:`wire_words` counts the 16-bit words of a message's encoded form,
and the transport accumulates them in the net metrics.  No machine
:class:`~repro.machine.costs.CycleCounter` is ever charged for wire
traffic — the conformance suite relies on callee-side meters being
bit-identical to a local run of the same activations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import NetError, WireError
from repro.faults.snapshot import _config_token as config_token

#: The schema this module writes and the only one it accepts.
WIRE_SCHEMA = "repro-wire/1"

#: Message kinds and the body fields each must carry.
_REQUIRED_BODY: dict[str, tuple[str, ...]] = {
    "hello": ("config", "modules"),
    "call": ("id", "span", "parent", "module", "proc", "args"),
    "reply": ("id", "span", "results"),
    "error": ("id", "span", "trap", "pc", "proc", "detail"),
}


@dataclass(frozen=True)
class Message:
    """One wire record: a kind, a source/destination shard, and a body.

    Encoded at most once: :meth:`encode` keeps its text, and a message
    decoded from text keeps that text, so a router never re-encodes.
    """

    kind: str
    src: int
    dst: int
    body: dict = field(default_factory=dict)

    #: The canonical encoding, once made or read (not a field).
    _text = None

    def __post_init__(self) -> None:
        required = _REQUIRED_BODY.get(self.kind)
        if required is None:
            raise WireError(
                f"unknown message kind {self.kind!r} "
                f"(known: {', '.join(sorted(_REQUIRED_BODY))})"
            )
        missing = [name for name in required if name not in self.body]
        if missing:
            raise WireError(
                f"{self.kind} message missing body field(s): {', '.join(missing)}"
            )

    def encode(self) -> str:
        """The canonical JSON encoding (sorted keys, no whitespace)."""
        text = self._text
        if text is None:
            text = json.dumps(
                {
                    "schema": WIRE_SCHEMA,
                    "kind": self.kind,
                    "src": self.src,
                    "dst": self.dst,
                    "body": self.body,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            object.__setattr__(self, "_text", text)
        return text

    @property
    def wire_words(self) -> int:
        """Size of the encoded record in 16-bit machine words."""
        return wire_words(self.encode())

    def describe(self) -> str:
        """A one-line human label (for traces and reports)."""
        body = self.body
        if self.kind == "call":
            return f"call#{body['id']} {body['module']}.{body['proc']}"
        if self.kind == "reply":
            return f"reply#{body['id']}"
        if self.kind == "error":
            return f"error#{body['id']} {body['trap']}"
        return self.kind


def wire_words(encoded: str) -> int:
    """16-bit words needed to carry *encoded* (UTF-8 bytes, rounded up)."""
    return (len(encoded.encode("utf-8")) + 1) // 2


def decode_doc(doc: dict, text: str | None = None) -> Message:
    """Validate one already-parsed wire document (shared with the
    worker protocol, which inspects the schema field before choosing a
    decoder and must not parse the JSON twice).  *text*, the frame the
    document was parsed from, becomes the message's encoding."""
    schema = doc.get("schema")
    if schema != WIRE_SCHEMA:
        raise WireError(
            f"unknown wire schema {schema!r} (this build speaks {WIRE_SCHEMA!r})"
        )
    for name in ("kind", "src", "dst", "body"):
        if name not in doc:
            raise WireError(f"wire record missing {name!r}")
    message = Message(
        kind=doc["kind"], src=doc["src"], dst=doc["dst"], body=doc["body"]
    )
    if text is not None:
        object.__setattr__(message, "_text", text)
    return message


def decode(text: str) -> Message:
    """Parse and validate one encoded wire record."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as fault:
        raise WireError(f"wire record is not JSON: {fault}") from fault
    if not isinstance(doc, dict):
        raise WireError("wire record must be a JSON object")
    return decode_doc(doc, text=text)


# -- constructors ------------------------------------------------------------


def hello(src: int, dst: int, config, modules: list[str]) -> Message:
    """The handshake: my configuration token and module list."""
    body = {"config": config_token(config), "modules": sorted(modules)}
    return Message(kind="hello", src=src, dst=dst, body=body)


def check_census(hellos: dict[int, Message]) -> None:
    """The hello check of both stacks: *hellos* maps shard id to the
    hello that speaks for it, and every one must carry the lowest
    shard's configuration token and module census.

    An in-process shard checks its greeter's hello against its own; the
    process front door checks every worker's hello once all have
    landed.  Raises :class:`~repro.errors.NetError` naming the first
    shard that differs.
    """
    first = min(hellos)
    reference = hellos[first].body
    for shard_id, message in sorted(hellos.items()):
        if message.body["config"] != reference["config"]:
            raise NetError(
                f"shard {shard_id} handshake failed: configuration token "
                f"mismatch with shard {first} — Remote XFER requires "
                "identical machine configurations"
            )
        if message.body["modules"] != reference["modules"]:
            raise NetError(
                f"shard {shard_id} handshake failed: module census differs "
                f"from shard {first} — shards must link the same image"
            )


def call(
    src: int,
    dst: int,
    request_id: int,
    span: str,
    parent: str | None,
    module: str,
    proc: str,
    args: list[int],
) -> Message:
    """A Remote XFER: the marshalled argument record."""
    return Message(
        kind="call",
        src=src,
        dst=dst,
        body={
            "id": request_id,
            "span": span,
            "parent": parent,
            "module": module,
            "proc": proc,
            "args": list(args),
        },
    )


def reply(src: int, dst: int, request_id: int, span: str, results: list[int]) -> Message:
    """The return transfer: the marshalled result record."""
    return Message(
        kind="reply",
        src=src,
        dst=dst,
        body={"id": request_id, "span": span, "results": list(results)},
    )


def error(
    src: int,
    dst: int,
    request_id: int,
    span: str,
    trap: str,
    pc: int,
    proc: str,
    detail: str,
) -> Message:
    """A remote fault: the callee's trap diagnostics, marshalled."""
    return Message(
        kind="error",
        src=src,
        dst=dst,
        body={
            "id": request_id,
            "span": span,
            "trap": trap,
            "pc": pc,
            "proc": proc,
            "detail": detail,
        },
    )
