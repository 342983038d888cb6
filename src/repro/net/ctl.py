"""The worker control plane: ``repro-ctl/1`` management records.

Data traffic between the front door and its worker processes is plain
``repro-wire/1`` (calls, replies, errors, the hello handshake) — the
whole point of process mode is that a worker speaks the *same* protocol
a shard speaks in-process.  But a worker is also an operating-system
process the front door must manage, and management is deliberately a
**separate, versioned schema** so the wire protocol stays exactly what
the conformance suite already pins.

A control record is one framed JSON document ``{"schema":
"repro-ctl/1", "kind": ..., "shard": ..., "seq": ..., "body": {...}}``;
``seq`` is echoed in the reply so the front door can correlate.  Kinds:

===============  ============================================
``meters``       -> ``meters_reply`` with the shard's modelled meters
``events``       -> ``events_reply`` with recorded trace events
``snapshot``     -> ``snapshot_reply`` with a ``repro-snapshot/2`` doc
``restore``      -> ``restore_reply`` after restoring such a doc
``status``       -> ``status_reply`` with the process table
``extract``      -> ``extract_reply`` with a ``repro-migrate/1`` slice
                 (the worker detaches the process; on refusal the
                 reply's ``slice`` is null and ``error`` says why)
``adopt``        -> ``adopt_reply`` with the adopted pid (or null +
                 ``error`` on refusal)
``settle``       -> ``settle_reply``; the source forwards to the adopter
                 (``adopted``) or takes the process back
``shutdown``     -> ``shutdown_reply``; the worker then exits cleanly
``worker_error`` (unsolicited) the worker's dying diagnostic
===============  ============================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import WireError

#: The schema this module writes and the only one it accepts.
CTL_SCHEMA = "repro-ctl/1"

#: Control kinds and the body fields each must carry.
_REQUIRED_BODY: dict[str, tuple[str, ...]] = {
    "meters": (),
    "meters_reply": ("meters",),
    "events": (),
    "events_reply": ("events",),
    "snapshot": (),
    "snapshot_reply": ("state",),
    "restore": ("state",),
    "restore_reply": (),
    "status": (),
    "status_reply": ("processes",),
    "extract": ("pid", "dst", "mode"),
    "extract_reply": ("slice",),
    "adopt": ("slice",),
    "adopt_reply": ("pid",),
    "settle": ("pid", "adopted"),
    "settle_reply": (),
    "shutdown": (),
    "shutdown_reply": (),
    "worker_error": ("error",),
}


@dataclass(frozen=True)
class Control:
    """One management record between the front door and a worker."""

    kind: str
    shard: int
    seq: int = 0
    body: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        required = _REQUIRED_BODY.get(self.kind)
        if required is None:
            raise WireError(
                f"unknown control kind {self.kind!r} "
                f"(known: {', '.join(sorted(_REQUIRED_BODY))})"
            )
        missing = [name for name in required if name not in self.body]
        if missing:
            raise WireError(
                f"{self.kind} control missing body field(s): {', '.join(missing)}"
            )

    def encode(self) -> str:
        """The canonical JSON encoding (sorted keys, no whitespace)."""
        return json.dumps(
            {
                "schema": CTL_SCHEMA,
                "kind": self.kind,
                "shard": self.shard,
                "seq": self.seq,
                "body": self.body,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def reply(self, kind: str, body: dict | None = None) -> Control:
        """The response record: same shard, same seq, reply kind."""
        return Control(kind=kind, shard=self.shard, seq=self.seq, body=body or {})


def decode_doc(doc: dict) -> Control:
    """Validate one already-parsed control document."""
    schema = doc.get("schema")
    if schema != CTL_SCHEMA:
        raise WireError(
            f"unknown control schema {schema!r} (this build speaks {CTL_SCHEMA!r})"
        )
    for name in ("kind", "shard", "seq", "body"):
        if name not in doc:
            raise WireError(f"control record missing {name!r}")
    return Control(
        kind=doc["kind"], shard=doc["shard"], seq=doc["seq"], body=doc["body"]
    )


def decode(text: str) -> Control:
    """Parse and validate one encoded control record."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as fault:
        raise WireError(f"control record is not JSON: {fault}") from fault
    if not isinstance(doc, dict):
        raise WireError("control record must be a JSON object")
    return decode_doc(doc)
