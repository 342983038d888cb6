"""Live migration: move a process between shards mid-flight.

The paper's thesis makes this almost inevitable: a process switch is
just another XFER, a Remote XFER already stretches one across shards,
and ``repro-snapshot/3`` already serializes a process blocked on a
remote reply.  Migration composes the two.  A process is **quiesced**
at a block boundary — between scheduler slices, where a compiled block
has finished too, so the same boundary exists under ``--engine jit`` —
its state is **extracted** into a ``repro-migrate/2`` slice on the source
shard, **adopted** on the target (never on the source), and **settled**
on the source — the in-process cluster calls the three in a row, and
process mode sends them as ``repro-ctl/1`` verbs.  Until it settles, the
source holds every message for the process's requests.  After an
adoption the source keeps *tombstones*: a forwarding entry per
outstanding request, so the reply (or a late duplicate) still finds the
process at its new home.  Tombstones live as long as any entry of the
shard's request tables (:meth:`~repro.net.shard.Shard.remember`): once
evicted, a late reply is dropped and a late call refused, never run
again.  After a refusal the source takes the process back.  Either way
the slice resumes in exactly one place.

Two adoption modes, one slice schema:

``exclusive``
    The slice carries a full ``repro-snapshot/3`` of the source
    machine; the target — which must be **idle** (no live processes,
    nothing awaiting, nothing being served) — restores it wholesale,
    then surgically keeps its *own* meters (cycle counter, step count,
    memory traffic, scheduler stats, output) and prunes the process
    table to the one migrated process.  Because the adopted process
    resumes against a byte-identical store, heap, and bank state, every
    charge it pays on the target is exactly the charge it would have
    paid on the source: **cluster-aggregate meters are bit-identical**
    to the unmigrated run (the differential suite pins this), provided
    the vacated source takes no new allocation-visible work of its own
    before the migrated process would have finished there.

``shared``
    Only the process's frame chain moves: each frame block is carved
    from the target's arena through the uncounted loader interface
    (:meth:`repro.alloc.avheap.AVHeap.host_carve`), return links are
    rewritten to the relocated addresses, and the process record joins
    the target's table alongside whatever else it is running.  This is
    the mode the autoscaler uses on busy shards.  It is **results-
    exact** but makes no meter-identity promise, requires the AV frame
    heap (I2-I4; first-fit I1 must use exclusive), refuses flagged
    frames (a pointer to a local would dangle), and assumes the chain
    is self-contained — the serving corpus's pure procedures are; code
    that communicates through mutated module globals is not.

Host work throughout is **uncounted**: the machines never execute the
migration, so no modelled meter moves on either side — the paper's
machine has no MIGRATE instruction, and we do not invent one.
"""

from __future__ import annotations

import re
from bisect import insort

from repro.errors import NetError
from repro.faults.snapshot import capture, load_process, process_record, restore
from repro.interp.frames import FRAME_RETURN_LINK, FrameState
from repro.interp.processes import Process, ProcessStatus
from repro.net import wire
from repro.net.shard import Shard

#: The slice schema this module writes and the only one it adopts.
MIGRATE_SCHEMA = "repro-migrate/2"

#: Process states a migration can quiesce: READY, or BLOCKED on a
#: remote reply.  Between pump ticks no process is RUNNING.
_MIGRATABLE = (ProcessStatus.READY, ProcessStatus.BLOCKED)


class MigrateError(NetError):
    """A process cannot be extracted or adopted in the current state."""


# ---------------------------------------------------------------------------
# Extract (source side)
# ---------------------------------------------------------------------------


def extract(shard: Shard, process: Process, dst: int, mode: str = "exclusive") -> dict:
    """Slice *process* out of *shard* for adoption on shard *dst*.

    The shard must be quiescent (``scheduler.current is None``) and the
    process READY or BLOCKED — a block boundary.  Moves the net
    bookkeeping into the slice and reaps the process, installing no
    forwards: messages for its outstanding and served requests are held
    here until :func:`settle` says whether *dst* adopted it.
    """
    scheduler = shard.scheduler
    if scheduler.current is not None:
        raise MigrateError(
            "cannot extract mid-slice: quiesce the process at a block "
            "boundary first (between pump ticks)"
        )
    if process.status not in _MIGRATABLE:
        raise MigrateError(
            f"cannot extract p{process.pid} ({process.status.value}): only "
            "READY or BLOCKED processes migrate"
        )
    if mode not in ("exclusive", "shared"):
        raise MigrateError(f"unknown migration mode {mode!r}")
    if dst == shard.id:
        raise MigrateError(f"migration target is the source shard {dst}")

    # Build the refusal-capable payload FIRST: _slice_frames (and in
    # principle capture) may refuse, and a refusal must leave the shard
    # untouched — only settle undoes _detach_net and the reap.
    slice_: dict = {
        "schema": MIGRATE_SCHEMA,
        "mode": mode,
        "source": shard.id,
        "pid": process.pid,
        "span": shard._spans.get(process.pid),
    }
    if mode == "exclusive":
        slice_["snapshot"] = capture(shard.machine, scheduler)
    else:
        slice_["config"] = wire.config_token(shard.machine.config)
        slice_["frames"] = _slice_frames(shard, process)
        slice_["process"] = process_record(process)
    slice_["net"] = _detach_net(shard, process, dst)
    shard.reap(process)

    tracer = shard.machine.tracer
    if tracer is not None:
        tracer.emit(
            "net.migrate.extract",
            f"p{process.pid}",
            pid=process.pid,
            proc=f"{process.module}.{process.proc}",
            shard=shard.id,
            dst=dst,
            mode=mode,
            status=process.status.value,
        )
    return slice_


def _detach_net(shard: Shard, process: Process, dst: int) -> dict:
    """Move the process's net bookkeeping into the slice, and leave on
    *shard* what :func:`settle` needs to forward or restore it."""
    net: dict = {"served": []}
    awaiting = None
    # The outstanding request, if one is already on the wire.  (A
    # BLOCKED process whose call has not been flushed yet needs nothing:
    # the adopter's own flush will send it under a fresh id.)
    if process.remote is not None and "id" in process.remote:
        key = None
        entry = None
        for candidate, record in shard._awaiting.items():
            if record["process"] is process:
                key, entry = candidate, record
                break
        if entry is not None:
            del shard._awaiting[key]
            origin = key[1] if isinstance(key, tuple) else shard.id
            net["awaiting"] = {
                "origin": origin,
                "id": process.remote["id"],
                "message": entry["message"].encode(),
                "sends": entry["sends"],
            }
            awaiting = (key, entry)
    # Requests this process is serving: the reply must come from the
    # new home, and retries (placement-routed here) must bounce.
    served = [key for key, p in shard._served.items() if p is process]
    for key in served:
        del shard._served[key]
    net["served"] = [list(key) for key in served]
    shard._unsettled[process.pid] = {
        "process": process,
        "span": shard._spans.get(process.pid),
        "dst": dst,
        "awaiting": awaiting,
        "served": served,
        "keys": {*served, awaiting[0]} if awaiting else set(served),
        "held": [],
    }
    return net


def _slice_frames(shard: Shard, process: Process) -> list[dict]:
    """Serialize the process's frame chain, top frame first."""
    machine = shard.machine
    heap = machine.image.av_heap
    if heap is None:
        raise MigrateError(
            "shared adoption needs the AV frame heap (I2-I4); "
            "use exclusive mode on first-fit configurations"
        )
    memory = machine.memory
    records: list[dict] = []
    frame = process.frame
    while True:
        if frame is None or frame.address is None:
            raise MigrateError(
                f"p{process.pid} has an unmaterialized frame in its chain; "
                "quiesce at a block boundary before extracting"
            )
        if frame.flagged:
            raise MigrateError(
                f"frame {frame.proc.qualified_name} is flagged (a pointer "
                "to a local exists); shared relocation would dangle it"
            )
        granted_fsi = heap.fsi_of(frame.address)
        class_words = heap.ladder.size_of(granted_fsi)
        records.append(
            {
                "entry_address": frame.proc.entry_address,
                "address": frame.address,
                "gf": frame.gf,
                "fsi": frame.fsi,
                "granted_fsi": granted_fsi,
                "requested": heap._live[frame.address],
                "code_base": frame.code_base,
                "retained": frame.retained,
                "stashed_stack": list(frame.stashed_stack),
                "words": [
                    memory.peek(frame.address + offset)
                    for offset in range(class_words)
                ],
            }
        )
        link = memory.peek(frame.address + FRAME_RETURN_LINK)
        if link == 0:
            return records
        caller = machine.frames.at(link)
        if caller is None:
            raise MigrateError(
                f"return link {link:#x} has no frame state; the chain is "
                "not self-contained"
            )
        frame = caller


# ---------------------------------------------------------------------------
# Adopt (target side)
# ---------------------------------------------------------------------------


def adopt(shard: Shard, slice_: dict, now: float = 0) -> Process:
    """Install a migrated process from *slice_* onto *shard*.

    *now* seeds the adopted request's retry clock (pump ticks in the
    in-process cluster, ``time.monotonic()`` in a worker): the adopter
    grants the outstanding request a fresh timeout window rather than
    trying to reconcile two shards' clocks.  A slice is never adopted
    on the shard it came from: a refused migration settles there.
    """
    schema = slice_.get("schema")
    if schema != MIGRATE_SCHEMA:
        raise MigrateError(
            f"unknown migration schema {schema!r} (this build speaks "
            f"{MIGRATE_SCHEMA!r})"
        )
    if slice_["source"] == shard.id:
        raise MigrateError(
            f"shard {shard.id} is the slice's source; settle the "
            "migration there instead of adopting it back"
        )
    mode = slice_["mode"]
    if mode == "exclusive":
        process = _adopt_exclusive(shard, slice_)
    elif mode == "shared":
        process = _adopt_shared(shard, slice_)
    else:
        raise MigrateError(f"unknown migration mode {mode!r}")

    span = slice_.get("span")
    if span is not None:
        shard._spans[process.pid] = span
    net = slice_.get("net", {})
    awaiting = net.get("awaiting")
    if awaiting is not None:
        shard._awaiting[adopted_key(awaiting)] = {
            "process": process,
            "message": wire.decode(awaiting["message"]),
            "sent": now,
            "sends": awaiting["sends"],
        }
    for src, request_id in net.get("served", []):
        key = (src, request_id)
        # After a there-and-back migration this shard holds a call
        # forward for the request it now serves again: retire it.
        shard._call_forwards.pop(key, None)
        shard._served[key] = process

    tracer = shard.machine.tracer
    if tracer is not None:
        tracer.emit(
            "net.migrate.adopt",
            f"p{process.pid}",
            pid=process.pid,
            proc=f"{process.module}.{process.proc}",
            shard=shard.id,
            source=slice_["source"],
            mode=mode,
            status=process.status.value,
        )
    return process


def adopted_key(awaiting: dict) -> tuple:
    """The ``_awaiting`` key an adopted outstanding request lives under."""
    return ("adopt", awaiting["origin"], awaiting["id"])


def settle(shard: Shard, pid: int, adopted: bool, now: float = 0) -> None:
    """Finish the migration of process *pid* on its source *shard*.

    With *adopted*, the target took the process: install the reply
    forward and the call forwards toward it, then release the held
    messages through them.  Without, the target refused: put the process
    back in the run table under its pid and span, restore its net
    bookkeeping — the outstanding request's retry clock reseeded at
    *now*, as :func:`adopt` seeds it — and release the held messages
    here.  Either way the slice resumes in exactly one place.
    """
    unsettled = shard._unsettled.pop(pid, None)
    if unsettled is None:
        raise MigrateError(f"shard {shard.id} has no unsettled migration of p{pid}")
    process = unsettled["process"]
    awaiting = unsettled["awaiting"]
    if adopted:
        dst = unsettled["dst"]
        if awaiting is not None:
            shard.remember(shard._forwards, awaiting[0], dst)
        for key in unsettled["served"]:
            shard.remember(shard._call_forwards, key, dst)
    else:
        insort(shard.scheduler.processes, process, key=lambda p: p.pid)
        if unsettled["span"] is not None:
            shard._spans[pid] = unsettled["span"]
        if awaiting is not None:
            key, entry = awaiting
            entry["sent"] = now
            shard._awaiting[key] = entry
        for key in unsettled["served"]:
            shard._served[key] = process
    shard.deliver(unsettled["held"])


def _adopt_exclusive(shard: Shard, slice_: dict) -> Process:
    machine = shard.machine
    scheduler = shard.scheduler
    if scheduler.current is not None:
        raise MigrateError("cannot adopt mid-slice on the target")
    for process in scheduler.processes:
        if process.status not in (ProcessStatus.DONE, ProcessStatus.FAULTED):
            raise MigrateError(
                f"exclusive adoption needs an idle target: p{process.pid} "
                f"is {process.status.value}"
            )
    if shard._served or shard._awaiting or shard._unsettled:
        raise MigrateError(
            "exclusive adoption needs an idle target: requests are in flight"
        )

    # The transplant replaces the machine's whole state vector; keep the
    # target's own meters so per-shard charges stay physical and the
    # cluster aggregate matches the unmigrated run exactly.
    counter = machine.counter
    saved_counts = dict(counter.counts)
    saved_cycles = counter.cycles
    saved_steps = machine.steps
    saved_output = list(machine.output)
    saved_traffic = dict(machine.memory.traffic)
    saved_next_pid = scheduler._next_pid
    saved_stats = dict(vars(scheduler.stats))

    restore(machine, slice_["snapshot"], scheduler)

    counter.counts.clear()
    counter.counts.update(saved_counts)
    counter.cycles = saved_cycles
    machine.steps = saved_steps
    machine.output = saved_output
    machine.memory.traffic.clear()
    machine.memory.traffic.update(saved_traffic)
    # Never hand out a pid this shard has already used.
    scheduler._next_pid = max(scheduler._next_pid, saved_next_pid)
    vars(scheduler.stats).update(saved_stats)

    adopted = None
    for process in scheduler.processes:
        if process.pid == slice_["pid"]:
            adopted = process
            break
    if adopted is None:
        raise MigrateError(
            f"slice names pid {slice_['pid']} but the snapshot's process "
            "table has no such process"
        )
    if adopted.status not in _MIGRATABLE:
        raise MigrateError(
            f"slice pid {adopted.pid} is {adopted.status.value} in the "
            "snapshot; only READY or BLOCKED processes migrate"
        )
    scheduler.processes = [adopted]
    shard._spans.clear()
    return adopted


def _adopt_shared(shard: Shard, slice_: dict) -> Process:
    machine = shard.machine
    heap = machine.image.av_heap
    if heap is None:
        raise MigrateError(
            "shared adoption needs the AV frame heap (I2-I4); "
            "use exclusive mode on first-fit configurations"
        )
    if wire.config_token(machine.config) != slice_["config"]:
        raise MigrateError(
            "configuration mismatch: migration requires identical machine "
            "configurations (the hello invariant)"
        )
    memory = machine.memory
    records = slice_["frames"]
    mapping: dict[int, int] = {}
    for record in records:
        mapping[record["address"]] = heap.host_carve(
            record["granted_fsi"], requested_words=record["requested"]
        )
    states: list[FrameState] = []
    for record in records:
        pointer = mapping[record["address"]]
        words = record["words"]
        for offset, word in enumerate(words):
            memory.poke(pointer + offset, word)
        link = words[FRAME_RETURN_LINK]
        if link:
            relocated = mapping.get(link)
            if relocated is None:
                raise MigrateError(
                    f"return link {link:#x} escapes the migrated chain"
                )
            memory.poke(pointer + FRAME_RETURN_LINK, relocated)
        meta = machine.image.procs_by_entry.get(record["entry_address"])
        if meta is None:
            raise MigrateError(
                f"no procedure at entry {record['entry_address']:#x} in the "
                "target image — not the same program"
            )
        frame = FrameState(
            proc=meta,
            gf=record["gf"],
            fsi=record["fsi"],
            address=pointer,
            code_base=record["code_base"],
            flagged=False,
            freed=False,
            retained=record["retained"],
            stashed_stack=tuple(record["stashed_stack"]),
        )
        machine.frames.register(frame)
        states.append(frame)

    # A new record on this shard, so a fresh pid; then the saved state.
    record = slice_["process"]
    process = shard.scheduler.spawn(record["module"], record["proc"], *record["args"])
    load_process(process, record, states[0])
    return process


# ---------------------------------------------------------------------------
# Cluster-aggregate meters (the migration invariant)
# ---------------------------------------------------------------------------


def aggregate_meters(meters: dict[int, dict]) -> dict:
    """Sum per-shard meters into the cluster-level migration invariant.

    Migration moves *where* charges land, never *how many* there are:
    the per-shard split shifts with the process, but the sums over the
    cluster — event counts, cycles, steps, switches, blocks — are
    bit-identical to the unmigrated run.  This is the dict the
    differential suite compares.
    """
    totals: dict[str, int] = {}
    aggregate = {"steps": 0, "switches": 0, "blocks": 0}
    for entry in meters.values():
        for name, value in entry["counter"].items():
            totals[name] = totals.get(name, 0) + value
        aggregate["steps"] += entry["steps"]
        aggregate["switches"] += entry["switches"]
        aggregate["blocks"] += entry["blocks"]
    aggregate["counter"] = dict(sorted(totals.items()))
    return aggregate


# ---------------------------------------------------------------------------
# The migration differential
# ---------------------------------------------------------------------------


def migration_differential(prog, config: str, at: int, dst: int, mode: str) -> dict:
    """Prove one live migration safe against the run it interrupts.

    Runs corpus program *prog* split across shards twice — once
    untouched, once migrating its root to shard *dst* at the first
    block boundary at or after pump tick *at* — and compares results
    and cluster-aggregate modelled meters.  Exclusive mode must be
    bit-identical on both axes; shared mode must be results-identical
    (meter attribution legitimately shifts).  Returns the evidence, in
    which ``migrated_tick`` is None if the root never blocked at or
    after *at*; raises :class:`MigrateError` on a refused migration.
    """
    from repro.net.cluster import Cluster

    modules = [
        name
        for source in prog.sources
        for name in re.findall(r"MODULE\s+(\w+)\s*;", source)
    ]
    # The split that makes the demo interesting: the entry module alone
    # on shard 0, everything else on shard 1, shard 2 spare to adopt.
    pins = {m: (0 if m == prog.entry[0] else 1) for m in modules}

    def submit():
        cluster = Cluster(
            list(prog.sources), shards=max(3, dst + 1), config=config, pins=pins
        )
        return cluster, cluster.submit(prog.entry[0], prog.entry[1], *prog.args)

    reference, ref_ticket = submit()
    reference.pump()
    cluster, ticket = submit()
    migrated_tick = None
    moved = True
    while moved:
        moved = cluster.pump_tick()
        if (
            migrated_tick is None
            and cluster.ticks >= at
            and ticket.process.status is ProcessStatus.BLOCKED
        ):
            cluster.migrate(ticket, dst, mode=mode)
            migrated_tick = cluster.ticks
    agg = aggregate_meters(cluster.meters())
    ref_agg = aggregate_meters(reference.meters())
    ok = (
        ticket.status is ProcessStatus.DONE
        and ticket.results == ref_ticket.results
        and (mode == "shared" or agg == ref_agg)
    )
    return {
        "program": prog.name,
        "mode": mode,
        "pid": ticket.process.pid,
        "migrated_tick": migrated_tick,
        "results": ticket.results,
        "reference_results": ref_ticket.results,
        "aggregate_meters": agg,
        "reference_meters": ref_agg,
        "ok": ok,
    }
