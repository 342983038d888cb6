"""repro.net — Remote XFER: multi-machine RPC and serving.

The paper's XFER primitive stretched across machine boundaries.  A
:class:`Cluster` holds N :class:`Shard` machines (each linking the same
program image) in one host process; a :class:`~repro.net.placement.
Placement` routes each module to a home shard; a call into a module
homed elsewhere is intercepted by the caller shard's **stub**, travels
as a versioned ``repro-wire/1`` transfer record over a
:class:`~repro.net.transport.InProcessTransport` (or the
:class:`~repro.net.transport.SocketTransport` behind the same
interface), and executes on the home shard as an ordinary root
activation — the callee sees a plain XFER with its exact modelled
semantics and charges.

Layered on top: the serving path (:mod:`repro.net.admission` — one
admission engine for batching, bounded run queues with backpressure,
retry with backoff and latency percentiles, driven in-process by
:mod:`repro.net.serve` and over OS workers by :mod:`repro.net.procserve`),
transport fault injection (:class:`~repro.net.transport.
NetFaultPolicy` interpreting ``net_*`` FaultPlan actions), the net
chaos sweep (:mod:`repro.net.chaos`), cross-shard trace stitching
(:mod:`repro.net.stitch`), and **process mode** (:mod:`repro.net.
procserve` / :mod:`repro.net.worker` — each shard a real OS process
speaking the same ``repro-wire/1`` protocol over framed sockets behind
an asyncio front door, managed over the separate ``repro-ctl/1``
control schema).

Metering discipline, which the conformance tests pin: the stub touches
only uncounted state paths; a remote call costs the caller exactly one
ordinary modelled process switch; all wire cost lives on the
transport's explicit meters, never on a machine's cycle counter; and
callee-side per-activation meter deltas are bit-identical to a local
machine replaying the same activations.
"""

from repro.net.admission import ServeReport
from repro.net.balance import Balancer, BalancerStats
from repro.net.cluster import Cluster, Ticket, build_shard_machine
from repro.net.colocate import PINS_SCHEMA, PlacementPlan, load_pins, plan_pins
from repro.net.ctl import CTL_SCHEMA, Control
from repro.net.frame import FrameBuffer, encode_frame
from repro.net.migrate import (
    MIGRATE_SCHEMA,
    MigrateError,
    adopt,
    aggregate_meters,
    extract,
    settle,
)
from repro.net.placement import HashRing, Placement
from repro.net.procserve import (
    FRONT_DOOR,
    ProcessCluster,
    ProcessServer,
    run_process_serve,
)
from repro.net.serve import (
    SERVICE_SOURCES,
    Request,
    Server,
    generate_skewed_workload,
    generate_workload,
    run_serve,
)
from repro.net.shard import Shard
from repro.net.stitch import Span, render, stitch
from repro.net.transport import (
    InProcessTransport,
    NetFaultPolicy,
    SocketTransport,
    TransportStats,
)
from repro.net.wire import WIRE_SCHEMA, Message, check_census, decode, wire_words

__all__ = [
    "Balancer",
    "BalancerStats",
    "CTL_SCHEMA",
    "Cluster",
    "Control",
    "FRONT_DOOR",
    "FrameBuffer",
    "HashRing",
    "InProcessTransport",
    "MIGRATE_SCHEMA",
    "Message",
    "MigrateError",
    "NetFaultPolicy",
    "PINS_SCHEMA",
    "Placement",
    "PlacementPlan",
    "ProcessCluster",
    "ProcessServer",
    "Request",
    "SERVICE_SOURCES",
    "ServeReport",
    "Server",
    "Shard",
    "SocketTransport",
    "Span",
    "Ticket",
    "TransportStats",
    "WIRE_SCHEMA",
    "adopt",
    "aggregate_meters",
    "build_shard_machine",
    "check_census",
    "decode",
    "encode_frame",
    "extract",
    "generate_skewed_workload",
    "generate_workload",
    "load_pins",
    "plan_pins",
    "render",
    "run_process_serve",
    "run_serve",
    "settle",
    "stitch",
    "wire_words",
]
