"""Versioned snapshot/restore of the complete machine state vector.

The abstract machine's state is a closed, serializable object: the
sixteen-bit store, the code space, the evaluation stack, the machine
registers (LF, PC, GF, CB, returnContext), the frame graph, the frame
allocator (AV free lists, bump pointer, fast-frame stack, or first-fit
list), the IFU return stack, the register bank file with its renaming
assignment, the process table, the shared cycle counter, and any
registered trap contexts.  :func:`capture` serializes all of it to a
JSON-ready dict; :func:`restore` rebuilds it onto a **freshly linked
machine for the same program and configuration**, after which running
the machine is bit-identical — on every modelled meter — to never
having stopped.

Schema versioning policy (see ``docs/faults.md``): the schema string
``repro-snapshot/3`` names the layout; any change to the meaning or
shape of a section bumps the version, and :func:`restore` refuses a
snapshot whose schema it does not know.  (Version 2 added the process
records' ``remote`` field and the scheduler's ``blocks`` stat — a
process can now be BLOCKED on a Remote XFER, see :mod:`repro.net`.
Version 3 dropped the banks section's ``trace``, the Figure 3
assignment rows: the bank state is each bank and the ``lbank`` and
``sbank`` registers.)  Host-side caches (decode cache, linkage cache)
are deliberately **not** captured: they are rebuilt cold, and their
charging discipline guarantees identical meters either way.  Host trap
*handlers* (Python callables) are likewise not captured; trap
*contexts* (in-machine procedure descriptors) are.

Frames are serialized as a graph keyed by Python identity: every
reachable :class:`~repro.interp.frames.FrameState` gets an index, and
frame-valued fields (machine.frame, returnContext, return-stack
entries, bank bindings, process records) store indices.  A frame is
reconstructed from its procedure's ``entry_address`` through
``image.procs_by_entry`` — the link step is deterministic, so entry
addresses agree between the capturing and restoring images.
"""

from __future__ import annotations

from repro.banks.bankfile import BankRole
from repro.errors import ReproError
from repro.ifu.ifu import TransferKind
from repro.ifu.returnstack import ReturnStackEntry
from repro.interp.frames import FrameState
from repro.interp.processes import Process, ProcessStatus
from repro.interp.traps import TrapKind

#: The schema this module writes and the only one it restores.
SNAPSHOT_SCHEMA = "repro-snapshot/3"

#: Config fields that must match between capture and restore; the rest
#: (cost model, step limit) are carried by the rebuilt image itself.
_CONFIG_FIELDS = (
    "linkage",
    "arg_convention",
    "allocator",
    "return_stack_depth",
    "return_stack_policy",
    "bank_count",
    "bank_words",
    "track_dirty",
    "deferred_allocation",
    "pointer_policy",
    "eval_stack_depth",
)


class SnapshotError(ReproError):
    """A snapshot cannot be taken or restored in the current state."""


def process_record(process: Process) -> dict:
    """A process's saved state, JSON-ready: every field but ``frame``.

    The one encoder of a process record: snapshots, migration slices
    and a shard's ``status`` rows all carry this dict.
    """
    record = dict(vars(process))
    del record["frame"]
    record["args"] = list(process.args)
    record["status"] = process.status.value
    record["stack"] = list(process.stack)
    record["results"] = list(process.results)
    return record


def load_process(process: Process, record: dict, frame) -> None:
    """Set *process*'s state from a :func:`process_record` and its top
    *frame*.  The pid stays the one *process* has: its table owns it."""
    for name, value in record.items():
        if name not in ("pid", "frame"):
            setattr(process, name, value)
    process.args = tuple(record["args"])
    process.status = ProcessStatus(record["status"])
    process.stack = tuple(record["stack"])
    process.results = list(record["results"])
    process.frame = frame


def _config_token(config) -> dict:
    token = {}
    for name in _CONFIG_FIELDS:
        value = getattr(config, name)
        token[name] = getattr(value, "value", value)
    return token


def _rle_encode(words: list[int]) -> list[list[int]]:
    """Run-length encode a word array as [value, count] pairs."""
    runs: list[list[int]] = []
    for word in words:
        if runs and runs[-1][0] == word:
            runs[-1][1] += 1
        else:
            runs.append([word, 1])
    return runs


def _rle_decode(runs: list[list[int]]) -> list[int]:
    words: list[int] = []
    for value, count in runs:
        words.extend([value] * count)
    return words


# ---------------------------------------------------------------------------
# Capture
# ---------------------------------------------------------------------------


def _collect_frames(machine, scheduler=None) -> list[FrameState]:
    """Every FrameState the restored machine could ever touch."""
    seen: dict[int, FrameState] = {}

    def add(frame) -> None:
        if isinstance(frame, FrameState) and id(frame) not in seen:
            seen[id(frame)] = frame

    for frame in machine.frames.by_address.values():
        add(frame)
    add(machine.frame)
    add(machine.return_context)
    if machine.rstack is not None:
        for entry in machine.rstack.entries():
            add(entry.frame)
    if machine.bankfile is not None:
        for bank in machine.bankfile:
            add(bank.frame)
    if scheduler is not None:
        for process in scheduler.processes:
            add(process.frame)
    return list(seen.values())


def capture(machine, scheduler=None) -> dict:
    """Serialize the complete state vector of *machine* to a dict.

    The machine must be at an instruction boundary (between ``step()``
    calls — the run loop's yield break lands exactly there).  When a
    *scheduler* is supplied its process table is captured too, but only
    between time slices (``scheduler.current is None``): mid-slice the
    running process's state vector is split between the machine and the
    process record, and a snapshot would tear it.
    """
    if scheduler is not None and scheduler.current is not None:
        raise SnapshotError(
            "cannot snapshot mid-slice: the running process's state is "
            "not yet saved to its process record"
        )

    frames = _collect_frames(machine, scheduler)
    index_of = {id(frame): i for i, frame in enumerate(frames)}

    def ref(frame) -> int | None:
        return index_of[id(frame)] if isinstance(frame, FrameState) else None

    state: dict = {
        "schema": SNAPSHOT_SCHEMA,
        "config": _config_token(machine.config),
        "frames": [
            {
                "entry_address": f.proc.entry_address,
                "gf": f.gf,
                "fsi": f.fsi,
                "address": f.address,
                "code_base": f.code_base,
                "flagged": f.flagged,
                "freed": f.freed,
                "retained": f.retained,
                "stashed_stack": list(f.stashed_stack),
                "registered": (
                    f.address is not None
                    and machine.frames.by_address.get(f.address) is f
                ),
            }
            for f in frames
        ],
        "memory": {
            "size": machine.memory.size,
            "words": _rle_encode(machine.memory._words),
            "traffic": dict(machine.memory.traffic),
        },
        "code": {
            "bytes": machine.code.buffer.hex(),
            "epoch": machine.code.epoch,
        },
        "counter": {
            "counts": {e.value: c for e, c in machine.counter.counts.items()},
            "cycles": machine.counter.cycles,
        },
        "registers": {
            "frame": ref(machine.frame),
            "pc": machine.pc,
            "gf": machine.gf,
            "cb": machine.cb,
            "halted": machine.halted,
            "steps": machine.steps,
            "output": list(machine.output),
            "deferred_frames": machine.deferred_frames,
            "trap_count": machine.trap_count,
        },
        "stack": list(machine.stack.contents()),
        "return_context": _encode_return_context(machine, ref),
        "fetch": {
            "fast": {k.value: c for k, c in machine.fetch.fast.items()},
            "slow": {k.value: c for k, c in machine.fetch.slow.items()},
        },
        "divert": dict(vars(machine.divert_stats)),
        "trap_contexts": {
            kind.value: word for kind, word in machine.trap_contexts.items()
        },
    }

    if machine.rstack is not None:
        rstats = machine.rstack.stats
        state["rstack"] = {
            "entries": [
                {
                    "frame": ref(entry.frame),
                    "pc": entry.pc,
                    "cb": entry.cb,
                    "bank": entry.bank.id if entry.bank is not None else None,
                }
                for entry in machine.rstack.entries()
            ],
            "stats": {**vars(rstats), "flushes": dict(rstats.flushes)},
        }

    if machine.bankfile is not None:
        manager = machine.banks
        state["banks"] = {
            "file": [
                {
                    "id": bank.id,
                    "words": list(bank.words),
                    "role": bank.role.value,
                    "frame": ref(bank.frame),
                    "dirty": sorted(bank.dirty),
                    "assigned_at": bank.assigned_at,
                }
                for bank in machine.bankfile
            ],
            "seq": machine.bankfile._seq,
            "stats": dict(vars(machine.bankfile.stats)),
            "lbank": manager.lbank.id if manager.lbank is not None else None,
            "sbank": manager.sbank.id if manager.sbank is not None else None,
        }

    av_heap = machine.image.av_heap
    if av_heap is not None:
        state["av_heap"] = {
            "bump": av_heap._bump,
            "live": {str(ptr): words for ptr, words in av_heap._live.items()},
            "known": sorted(av_heap._known),
            "stats": _alloc_stats_dict(av_heap.stats),
        }
    first_fit = machine.image.first_fit
    if first_fit is not None:
        state["first_fit"] = {
            "live": {str(ptr): words for ptr, words in first_fit._live.items()},
            "stats": _alloc_stats_dict(first_fit.stats),
        }
    if machine.fast_frames is not None:
        fast = machine.fast_frames
        state["fast_frames"] = {
            "stack": list(fast._stack),
            "stats": dict(vars(fast.stats)),
        }

    if scheduler is not None:
        state["scheduler"] = {
            "quantum": scheduler.quantum,
            "trap_quota": scheduler.trap_quota,
            "rotor": scheduler._rotor,
            "stats": dict(vars(scheduler.stats)),
            "processes": [
                {**process_record(p), "frame": ref(p.frame)}
                for p in scheduler.processes
            ],
        }

    return state


def _encode_return_context(machine, ref) -> dict:
    context = machine.return_context
    if isinstance(context, FrameState):
        return {"kind": "frame", "frame": ref(context)}
    if context is None:
        return {"kind": "none"}
    return {"kind": "word", "value": context}


def _alloc_stats_dict(stats) -> dict:
    per_class = {str(fsi): count for fsi, count in stats.per_class_allocations.items()}
    return {**vars(stats), "per_class_allocations": per_class}


# ---------------------------------------------------------------------------
# Restore
# ---------------------------------------------------------------------------


def restore(machine, state: dict, scheduler=None) -> None:
    """Load *state* into a freshly built machine for the same program.

    *machine* must come from re-linking the same sources with the same
    configuration — the deterministic link guarantees identical entry
    addresses and table layout, which the config token and code-length
    checks verify.  After restore, ``machine.run()`` continues exactly
    where the captured machine stopped.  Every check runs before the
    first write: a refused snapshot leaves *machine* as it was.
    """
    schema = state.get("schema")
    if schema != SNAPSHOT_SCHEMA:
        raise SnapshotError(
            f"unknown snapshot schema {schema!r} (this build reads "
            f"{SNAPSHOT_SCHEMA!r})"
        )
    token = _config_token(machine.config)
    if token != state["config"]:
        raise SnapshotError(
            f"configuration mismatch: snapshot {state['config']} vs "
            f"machine {token}"
        )
    if "scheduler" in state and scheduler is None:
        raise SnapshotError("snapshot carries a process table; pass a scheduler")
    code_bytes = bytes.fromhex(state["code"]["bytes"])
    if len(code_bytes) != len(machine.code.buffer):
        raise SnapshotError(
            f"code size mismatch: snapshot {len(code_bytes)} bytes vs "
            f"relinked image {len(machine.code.buffer)} — not the same program"
        )
    memory = machine.memory
    if state["memory"]["size"] != memory.size:
        raise SnapshotError("memory size mismatch")
    words = _rle_decode(state["memory"]["words"])
    if len(words) != memory.size:
        raise SnapshotError("memory image does not decode to the full store")
    metas = []
    for record in state["frames"]:
        meta = machine.image.procs_by_entry.get(record["entry_address"])
        if meta is None:
            raise SnapshotError(
                f"no procedure at entry {record['entry_address']:#x} in the "
                f"relinked image — not the same program"
            )
        metas.append(meta)
    for section, present, what in (
        ("banks", machine.bankfile, "banks"),
        ("rstack", machine.rstack, "a return stack"),
        ("av_heap", machine.image.av_heap, "an AV heap"),
        ("first_fit", machine.image.first_fit, "a first-fit heap"),
        ("fast_frames", machine.fast_frames, "a fast-frame stack"),
    ):
        if present is not None and state.get(section) is None:
            raise SnapshotError(f"machine has {what} but snapshot has none")
    counter = machine.counter
    counts = {_event(value): count for value, count in state["counter"]["counts"].items()}
    cycles = sum(count * counter.charges[event] for event, count in counts.items())
    if cycles != state["counter"]["cycles"]:
        raise SnapshotError(
            f"counter cycles {state['counter']['cycles']} are not its counts "
            f"times this machine's charges ({cycles})"
        )

    # Code space: the relink should reproduce it bit-for-bit; restoring
    # the bytes also covers runs that patched code (services).
    machine.code.buffer[:] = code_bytes
    machine.code.epoch = state["code"]["epoch"]
    machine.invalidate_linkage()

    # The store, whole.
    memory._words[:] = words
    memory.traffic.clear()
    memory.traffic.update(state["memory"]["traffic"])

    # Meters (the cycles derive from the counts).
    counter.counts.update(counts)

    # The frame graph.
    frames: list[FrameState] = []
    machine.frames.by_address.clear()
    for record, meta in zip(state["frames"], metas, strict=True):
        frame = FrameState(
            proc=meta,
            gf=record["gf"],
            fsi=record["fsi"],
            address=record["address"],
            code_base=record["code_base"],
            flagged=record["flagged"],
            freed=record["freed"],
            retained=record["retained"],
            stashed_stack=tuple(record["stashed_stack"]),
        )
        frames.append(frame)
        if record["registered"]:
            machine.frames.register(frame)

    def deref(index) -> FrameState | None:
        return frames[index] if index is not None else None

    # Machine registers.
    registers = state["registers"]
    machine.frame = deref(registers["frame"])
    machine.pc = registers["pc"]
    machine.gf = registers["gf"]
    machine.cb = registers["cb"]
    machine.halted = registers["halted"]
    machine.steps = registers["steps"]
    machine.output = list(registers["output"])
    machine.deferred_frames = registers["deferred_frames"]
    machine.trap_count = registers["trap_count"]
    machine.yield_requested = False

    rc = state["return_context"]
    if rc["kind"] == "frame":
        machine.return_context = deref(rc["frame"])
    elif rc["kind"] == "word":
        machine.return_context = rc["value"]
    else:
        machine.return_context = None

    machine.stack.clear()
    machine.stack.load(tuple(state["stack"]))

    fetch = machine.fetch
    fetch.fast.clear()
    fetch.slow.clear()
    for value, count in state["fetch"]["fast"].items():
        fetch.fast[TransferKind(value)] = count
    for value, count in state["fetch"]["slow"].items():
        fetch.slow[TransferKind(value)] = count

    vars(machine.divert_stats).update(state["divert"])

    machine.trap_contexts.clear()
    for kind_value, word in state["trap_contexts"].items():
        machine.trap_contexts[TrapKind(kind_value)] = word

    # The register bank file, before the return stack (entries point at
    # banks).
    if machine.bankfile is not None:
        banks_state = state["banks"]
        bankfile = machine.bankfile
        for record in banks_state["file"]:
            bank = bankfile.bank(record["id"])
            bank.words[:] = record["words"]
            bank.role = BankRole(record["role"])
            bank.frame = deref(record["frame"])
            bank.dirty = set(record["dirty"])
            bank.assigned_at = record["assigned_at"]
        bankfile._seq = banks_state["seq"]
        vars(bankfile.stats).update(banks_state["stats"])
        manager = machine.banks
        manager.lbank = (
            bankfile.bank(banks_state["lbank"])
            if banks_state["lbank"] is not None
            else None
        )
        manager.sbank = (
            bankfile.bank(banks_state["sbank"])
            if banks_state["sbank"] is not None
            else None
        )

    if machine.rstack is not None:
        rstack_state = state["rstack"]
        rstack = machine.rstack
        rstack._entries.clear()
        for record in rstack_state["entries"]:
            rstack._entries.append(
                ReturnStackEntry(
                    frame=deref(record["frame"]),
                    pc=record["pc"],
                    cb=record["cb"],
                    bank=(
                        machine.bankfile.bank(record["bank"])
                        if record["bank"] is not None and machine.bankfile is not None
                        else None
                    ),
                )
            )
        stats = rstack_state["stats"]
        vars(rstack.stats).update(stats, flushes=dict(stats["flushes"]))

    av_heap = machine.image.av_heap
    if av_heap is not None:
        heap_state = state["av_heap"]
        av_heap._bump = heap_state["bump"]
        # The heaps' tables are restored in place, like the memory words
        # and the frame table, so compiled call cells bind them once.
        av_heap._live.clear()
        av_heap._live.update((int(k), v) for k, v in heap_state["live"].items())
        av_heap._known.clear()
        av_heap._known.update(heap_state["known"])
        _restore_alloc_stats(av_heap.stats, heap_state["stats"])
    first_fit = machine.image.first_fit
    if first_fit is not None:
        ff_state = state["first_fit"]
        first_fit._live.clear()
        first_fit._live.update((int(k), v) for k, v in ff_state["live"].items())
        _restore_alloc_stats(first_fit.stats, ff_state["stats"])
    if machine.fast_frames is not None:
        fast_state = state["fast_frames"]
        machine.fast_frames._stack = list(fast_state["stack"])
        vars(machine.fast_frames.stats).update(fast_state["stats"])

    if scheduler is not None and "scheduler" in state:
        _restore_scheduler(scheduler, state["scheduler"], deref)


def _restore_scheduler(scheduler, data: dict, deref) -> None:
    scheduler.quantum = data["quantum"]
    scheduler.trap_quota = data["trap_quota"]
    scheduler._rotor = data["rotor"]
    scheduler.current = None
    vars(scheduler.stats).update(data["stats"])
    scheduler.processes = []
    for record in data["processes"]:
        process = Process(record["pid"], record["module"], record["proc"], ())
        load_process(process, record, deref(record["frame"]))
        scheduler.processes.append(process)
    # The schema records no pid counter: continue past the newest pid.
    scheduler._next_pid = max((p.pid for p in scheduler.processes), default=-1) + 1


def _event(value: str):
    from repro.machine.costs import Event

    try:
        return Event(value)
    except ValueError:
        raise SnapshotError(f"unknown counter event {value!r}") from None


def _restore_alloc_stats(stats, data: dict) -> None:
    per_class = stats.per_class_allocations
    vars(stats).update(data, per_class_allocations=per_class)
    per_class.clear()
    per_class.update(
        (int(fsi), count) for fsi, count in data["per_class_allocations"].items()
    )
