"""Net chaos: drive a split cluster through transport faults, on I1-I4.

The transport-fault sweeps of the one chaos harness
(:mod:`repro.faults.chaos`), which supplies their outcome, case and
report types, their case loop and their conformance check.  Under a
seeded plan of ``net_*`` injections — drops, duplicates, delays,
partitions — a cluster must either **RECOVER** (the retry discipline
re-sends, dedup keeps execution at-most-once, and the final results
equal the unfaulted single-machine reference) or **TRAP** cleanly (the
root request faults with a named trap and a detail that tells the
operator what was lost), and I1-I4 must agree on which.  Silent
corruption — a wrong answer, a hung pump, a request executed twice —
is non-conformance.

Three sweeps run the split case program (:func:`run_net_chaos`):

* in-process (:func:`run_net_case`): every case also re-runs itself
  and the same (preset, plan) pair must produce bit-identical per-shard
  modelled meters twice in a row, faults and all, because the
  transport's fault policy is a pure function of the send stream;
* racing a migration (``migrate=True``): the same, with the root
  migrated mid-flight to a spare shard, and every case must recover;
* over OS worker processes (:func:`run_net_case_process`): outcome
  class only, see :func:`run_net_chaos`.
"""

from __future__ import annotations

import random

from repro.errors import NetError
from repro.faults.chaos import (
    ALL_PRESETS,
    ChaosReport,
    Outcome,
    OutcomeClass,
    sweep,
)
from repro.faults.plan import FaultPlan, Injection, on_event
from repro.interp.processes import ProcessStatus
from repro.net.cluster import DEFAULT_MAX_RETRIES, Cluster
from repro.net.transport import InProcessTransport, NetFaultPolicy
from repro.workloads.programs import program

#: The split program every net case runs: Main on shard 0, Math on
#: shard 1, so every Math call is a Remote XFER exposed to the plan.
CASE_PROGRAM = "mathlib"
CASE_PINS = {"Main": 0, "Math": 1}
CASE_SHARDS = 2


def _plan_net_partition(rng: random.Random) -> tuple[Injection, ...]:
    """A partition mid-conversation, plus a drop and a duplicate."""
    return (
        Injection(
            on_event("net.send", rng.randrange(2, 20)),
            "net_partition",
            detail=f"0->1:{rng.randrange(2, 6)}",
        ),
        Injection(on_event("net.send", rng.randrange(20, 40)), "net_drop"),
        Injection(on_event("net.send", rng.randrange(40, 55)), "net_dup"),
    )


def _plan_net_drop_storm(rng: random.Random) -> tuple[Injection, ...]:
    """Several scattered drops; retries must cover every one."""
    ordinals = sorted(rng.sample(range(2, 55), 4))
    return tuple(
        Injection(on_event("net.send", ordinal), "net_drop")
        for ordinal in ordinals
    )


def _plan_net_dup_delay(rng: random.Random) -> tuple[Injection, ...]:
    """Duplicates and delays; dedup must keep execution at-most-once."""
    first, second = sorted(rng.sample(range(2, 50), 2))
    return (
        Injection(on_event("net.send", first), "net_dup"),
        Injection(
            on_event("net.send", second),
            "net_delay",
            detail=str(rng.randrange(2, 5)),
        ),
    )


#: Transmissions one request may make before its caller faults: the
#: initial send plus DEFAULT_MAX_RETRIES retransmissions (the contract
#: Shard.retry documents and test_net_transport pins).
RETRY_BUDGET_SENDS = 1 + DEFAULT_MAX_RETRIES
#: Consecutive drops in the blackhole plan: the full transmission
#: budget plus slack for frames of other conversations that may share
#: the targeted send ordinals.  Derived, not hard-coded, so a changed
#: retry default cannot quietly turn the blackhole into a recoverable
#: drop storm.
BLACKHOLE_DROPS = RETRY_BUDGET_SENDS + 2


def _plan_net_blackhole(rng: random.Random) -> tuple[Injection, ...]:
    """Swallow one call *and every retry of it*: enough consecutive
    drops (:data:`BLACKHOLE_DROPS` — the ``1 + max_retries``
    transmission budget, plus slack) outlast the retry budget, so the
    caller must trap with ``lost_request`` — never hang, never answer
    wrong."""
    start = rng.randrange(2, 40)
    return tuple(
        Injection(on_event("net.send", start + offset), "net_drop")
        for offset in range(BLACKHOLE_DROPS)
    )


NET_PLANS = {
    "net_partition": _plan_net_partition,
    "net_drop_storm": _plan_net_drop_storm,
    "net_dup_delay": _plan_net_dup_delay,
    "net_blackhole": _plan_net_blackhole,
}


def make_net_plan(name: str, seed: int) -> FaultPlan:
    """Instantiate canned net plan *name*, seeded and reproducible."""
    try:
        generator = NET_PLANS[name]
    except KeyError:
        raise NetError(
            f"unknown net chaos plan {name!r} (known: {', '.join(sorted(NET_PLANS))})"
        ) from None
    rng = random.Random(f"{name}:{seed}")
    return FaultPlan(name=name, seed=seed, injections=generator(rng))


#: Plans the migration sweep races against: a partition that heals and
#: a duplicate+delay plan — the two shapes that interact with the
#: forwarding tombstones (a delayed or duplicated reply must chase the
#: process to its new home; a retransmission must bounce off the
#: source's call forward without executing twice).  ``net_blackhole``
#: is excluded by design: it ends in a clean trap, which is orthogonal
#: to migration.
MIGRATION_PLANS = ("net_partition", "net_dup_delay")

#: Shards in a migration case: the split pair plus a spare to adopt.
MIGRATION_SHARDS = 3


def run_net_case(
    preset: str, plan: FaultPlan, migrate: bool = False, engine: str = "interp"
) -> Outcome:
    """One cluster run of the split case program under *plan*, on
    *engine*.

    With *migrate*, the cluster gets a spare third shard, and at the
    first pump tick from a seeded one (1-6) where the root sits BLOCKED
    on its remote reply, the root is migrated there (exclusive mode, so
    the sweep is uniform across I1-I4).  The migration races whatever
    the plan is doing to the wire.  The rest of the run is pumped to
    quiescence under :meth:`Cluster.pump`'s tick bound.
    """
    from repro.net.migrate import MigrateError

    prog = program(CASE_PROGRAM)
    policy = NetFaultPolicy(plan)
    cluster = Cluster(
        list(prog.sources),
        shards=MIGRATION_SHARDS if migrate else CASE_SHARDS,
        config=preset,
        pins=CASE_PINS,
        transport=InProcessTransport(policy=policy),
        engine=engine,
    )
    ticket = cluster.submit(prog.entry[0], prog.entry[1], *prog.args)
    migrate_at = random.Random(f"migrate:{plan.name}:{plan.seed}").randrange(1, 7)
    migrated = quiescent = False
    while migrate and not (migrated or quiescent):
        quiescent = not cluster.pump_tick()
        if (
            cluster.ticks >= migrate_at
            and ticket.process.status is ProcessStatus.BLOCKED
        ):
            try:
                cluster.migrate(ticket, MIGRATION_SHARDS - 1, mode="exclusive")
                migrated = True
            except MigrateError:
                # The spare was not idle at this tick (a duplicated call
                # can be executing there); try again at the next one.
                pass
    if not quiescent:
        cluster.pump()
    if ticket.status is ProcessStatus.DONE:
        outcome = Outcome(OutcomeClass.RECOVERED, results=ticket.results)
    elif ticket.status is ProcessStatus.FAULTED:
        fault = ticket.process.fault or {}
        outcome = Outcome(
            OutcomeClass.TRAPPED,
            trap=fault.get("trap", ""),
            detail=fault.get("detail", ""),
        )
    else:  # pragma: no cover - the pump only returns at quiescence
        raise NetError(f"case ended with ticket status {ticket.status}")
    outcome.ticks = cluster.ticks
    outcome.injections_fired = len(policy.fired)
    outcome.wire = cluster.transport.stats.as_dict()
    outcome.meters = cluster.meters()
    if migrate:
        outcome.wire["migrated"] = migrated
    return outcome


def run_net_case_process(
    preset: str, plan: FaultPlan, engine: str = "interp"
) -> Outcome:
    """One run of the split case program across real worker processes,
    each on *engine*.

    The same seeded plan drives the front door's transport, the
    in-process cluster's router: every routed frame is a ``net.send``,
    so drops, duplicates, delays, and partitions hit real sockets
    between real OS processes.
    """
    from repro.errors import LostRequest, TrapError
    from repro.net.procserve import ProcessCluster

    prog = program(CASE_PROGRAM)
    cluster = ProcessCluster(
        list(prog.sources),
        shards=CASE_SHARDS,
        config=preset,
        pins=CASE_PINS,
        fault_plan=plan,
        timeout_s=0.25,
        tick_seconds=0.02,
        engine=engine,
    )
    try:
        try:
            outcome = Outcome(
                OutcomeClass.RECOVERED,
                results=cluster.call(prog.entry[0], prog.entry[1], *prog.args),
            )
        except TrapError as fault:
            outcome = Outcome(
                OutcomeClass.TRAPPED, trap=fault.trap, detail=fault.detail
            )
        except LostRequest as fault:
            outcome = Outcome(
                OutcomeClass.TRAPPED, trap="lost_request", detail=str(fault)
            )
        outcome.injections_fired = len(cluster.policy.fired)
        outcome.wire = cluster.stats.as_dict()
        outcome.meters = cluster.meters()
    finally:
        cluster.close()
    return outcome


def run_net_chaos(
    plans: tuple[str, ...] | None = None,
    seeds: int | tuple[int, ...] = 3,
    presets: tuple[str, ...] | None = None,
    processes: bool = False,
    migrate: bool = False,
    engine: str = "interp",
) -> ChaosReport:
    """The transport-fault sweep: every plan, seeded, across the presets.

    Plans default to :data:`NET_PLANS`, or :data:`MIGRATION_PLANS` with
    *migrate*; presets to I1-I4, or to I2 alone with *processes*, where
    every case forks real OS workers.  Every shard runs on *engine*.

    In-process cases re-run themselves (meters must match twice).  Over
    OS workers (*processes*) conformance is **outcome-class only**:
    every case must either recover with the reference results or trap
    with full diagnostics — never hang, never answer wrong, never
    execute twice.  The meter-determinism re-run is deliberately *not*
    applied: with real sockets and real timers, frame arrival order is
    a function of host scheduling, not of the plan alone, so two runs
    of the same plan may legally retry (and therefore meter) slightly
    differently.  Per-activation meter conformance for process mode is
    pinned separately (tests/test_net_proc.py) where it is well
    defined.
    """
    if plans is None:
        plans = MIGRATION_PLANS if migrate else tuple(NET_PLANS)
    if presets is None:
        presets = ("i2",) if processes else ALL_PRESETS
    seed_list = tuple(range(seeds)) if isinstance(seeds, int) else tuple(seeds)
    prog = program(CASE_PROGRAM)
    cases = (
        (prog, seed, make_net_plan(name, seed), {})
        for name in plans
        for seed in seed_list
    )

    def run(_program, preset: str, plan: FaultPlan) -> Outcome:
        if processes:
            return run_net_case_process(preset, plan, engine)
        return run_net_case(preset, plan, migrate, engine)

    return sweep(
        ChaosReport(net=True), cases, presets, run,
        rerun=not processes, migrating=migrate,
    )
