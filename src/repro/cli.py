"""Command-line interface: run, disassemble, measure, trace, and profile.

Usage::

    python -m repro run prog.mesa [lib.mesa ...] [--impl i4] [--args 1 2]
    python -m repro disasm prog.mesa [--impl i2]
    python -m repro measure prog.mesa [lib.mesa ...] [--json]
    python -m repro trace prog.mesa [--format chrome|folded|jsonl] [--out f]
    python -m repro profile prog.mesa [--top 10] [--shards 2 --pin Math=1]
    python -m repro optimize prog.mesa --profile p.json --facts f.json --out o.json
    python -m repro run --image o.json [--engine jit]
    python -m repro serve --shards 4 --requests 1000 --seed 7
    python -m repro loadgen --requests 1000 --seed 7 --out workload.json
    python -m repro chaos --net

``run`` executes a program on one implementation and prints its results,
output channel, and meters.  ``disasm`` shows the compiled encoding
(entry vectors, fsi bytes, calling sequences).  ``measure`` runs the
whole I1-I4 ladder and prints the section 8 comparison table (``--json``
emits the raw :class:`~repro.machine.costs.CycleCounter` snapshots).
``trace`` records the observability event stream (:mod:`repro.obs`) and
exports it for chrome://tracing, flamegraph tools, or line-at-a-time
processing.  ``profile`` reconstructs the matched call/return tree and
prints the top procedures by inclusive/exclusive modelled cycles.

``trace`` and ``profile`` also accept Python files (like the examples)
whose embedded ``MODULE ...`` string literals form the program.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.report import format_table
from repro.analysis.timing import transfer_cost_table
from repro.errors import CompileError
from repro.faults.chaos import ALL_PRESETS
from repro.interp.machine import Machine
from repro.interp.machineconfig import LinkageKind, MachineConfig
from repro.isa.disassembler import format_listing
from repro.lang.compiler import CompileOptions, compile_program
from repro.lang.linker import link


class _BadInput(Exception):
    """Input a command cannot run: :func:`main` prints it on one stderr
    line and exits 2."""


def _read_input(path: str, parse=str):
    """Input file *path*, read and handed through *parse* (``json.loads``
    for a JSON document); a file that cannot be read or parsed is bad
    input."""
    try:
        return parse(Path(path).read_text())
    except OSError as fault:
        raise _BadInput(f"cannot read {path}: {fault.strerror}") from None
    except ValueError as fault:
        raise _BadInput(f"cannot read {path}: {fault}") from None


def _read_document(path: str) -> dict:
    """Input file *path* as a JSON document; one that is not an object
    is bad input."""
    doc = _read_input(path, json.loads)
    if not isinstance(doc, dict):
        raise _BadInput(f"cannot read {path}: not a JSON object")
    return doc


def _read_sources(paths: list[str]) -> list[str]:
    return [_read_input(path) for path in paths]


def _read_program_sources(paths: list[str]) -> list[str]:
    """Module sources from ``.mesa`` files or Python files with embedded
    ``MODULE ...`` string literals (the examples)."""
    sources: list[str] = []
    for path in paths:
        text = _read_input(path)
        if path.endswith(".py"):
            embedded = _embedded_sources(text)
            if not embedded:
                raise _BadInput(f"{path}: no embedded MODULE sources")
            sources.extend(embedded)
        else:
            sources.append(text)
    return sources


def _entry(text: str) -> tuple[str, str]:
    module, _, proc = text.partition(".")
    if not module or not proc:
        raise argparse.ArgumentTypeError("entry must look like Module.proc")
    return module, proc


def _add_entry(p, default=("Main", "main")) -> None:
    p.add_argument("--entry", type=_entry, default=default,
                   help="entry procedure, Module.proc (default Main.main)")


def _add_impl(p, default="i2", help="implementation preset (default {})") -> None:
    """``--impl``; a ``{}`` in *help* is filled with the default."""
    p.add_argument("--impl", choices=ALL_PRESETS, default=default,
                   help=help and help.format(default))


def _add_args(p, help="integer arguments for the entry procedure") -> None:
    p.add_argument("--args", type=int, nargs="*", default=[], help=help)


def _add_engine(p, help: str, default: str = "interp") -> None:
    p.add_argument("--engine", choices=["interp", "jit"], default=default, help=help)


def _pin(text: str) -> tuple[str, int]:
    module, _, shard = text.partition("=")
    if not module or not shard:
        raise argparse.ArgumentTypeError("pin must look like Module=shard")
    try:
        return module, int(shard)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"pin shard must be an integer, got {shard!r}"
        ) from None


def _check_counts(*knobs: tuple[str, int]) -> None:
    """Refuse a count flag below 1, before anything is built."""
    for flag, value in knobs:
        if value < 1:
            raise _BadInput(f"{flag} must be at least 1, got {value}")


def _check_entry(
    modules: list, entry: tuple[str, str], entry_args: list[int] | None
) -> None:
    """Refuse an entry procedure the program lacks, or ``--args`` that do
    not fill its parameters: too few underflow the evaluation stack, and
    extra ones stay on it as results.  *entry_args* is None for a
    command that takes no ``--args``."""
    arg_counts = {(m.name, p.name): p.arg_count for m in modules for p in m.procedures}
    name = ".".join(entry)
    if entry not in arg_counts:
        raise _BadInput(f"the program has no procedure {name}")
    if entry_args is not None and len(entry_args) != arg_counts[entry]:
        raise _BadInput(
            f"{name} takes {arg_counts[entry]} argument(s); --args gave {len(entry_args)}"
        )


def _compile(
    sources: list[str],
    config: MachineConfig,
    entry: tuple[str, str],
    entry_args: list[int] | None,
) -> list:
    """Compile *sources* for *config* and check the entry against them;
    a program that does not compile is bad input."""
    try:
        modules = compile_program(sources, CompileOptions.for_config(config))
    except CompileError as fault:
        raise _BadInput(f"cannot compile: {fault}") from None
    _check_entry(modules, entry, entry_args)
    return modules


def _build(
    sources: list[str], preset: str, entry: tuple[str, str], entry_args: list[int]
) -> Machine:
    config = MachineConfig.preset(preset)
    image = link(_compile(sources, config, entry, entry_args), config, entry)
    return Machine(image)


def cmd_run(args: argparse.Namespace) -> int:
    from repro.errors import TrapError
    from repro.obs import TraceRecorder

    if args.facts and args.engine != "jit":
        print("run: --facts requires --engine jit", file=sys.stderr)
        return 2
    if args.image:
        from repro.fdo import FdoRefusal, load_image_document

        if args.files:
            print(
                "run: --image already embeds the sources; give either "
                "source files or --image, not both",
                file=sys.stderr,
            )
            return 2
        try:
            machine, doc = load_image_document(_read_document(args.image))
        except FdoRefusal as refusal:
            print(f"run: image refused: {refusal}", file=sys.stderr)
            return 2
        module, _, proc = doc["entry"].partition(".")
        args.entry = (module, proc)
        modules = [linked.module for linked in machine.image.instances.values()]
        _check_entry(modules, args.entry, args.args)
    else:
        if not args.files:
            print("run: give source files or --image", file=sys.stderr)
            return 2
        machine = _build(_read_sources(args.files), args.impl, args.entry, args.args)
    recorder = None
    if args.engine == "jit":
        from repro.jit import JitRefusal, install_jit

        facts = None
        if args.facts:
            facts = _read_document(args.facts)
        try:
            install_jit(machine, facts)
        except JitRefusal as refusal:
            print(f"run: jit refused: {refusal}", file=sys.stderr)
            return 2
    else:
        # A small ring of recent events rides along on every run, so a
        # trap dies with a story (the faulting context plus the last
        # transfers) instead of a bare exception.  Under the JIT the
        # tracer would pin execution to the interpreter, so compiled
        # runs forgo the ring.
        recorder = TraceRecorder(capacity=256)
        machine.attach_tracer(recorder)
    machine.start(args.entry[0], args.entry[1], *args.args)
    try:
        results = machine.run()
    except TrapError as fault:
        _print_trap_diagnostics(machine, recorder, fault)
        return 1
    print(f"results: {results}")
    if machine.output:
        print(f"output:  {machine.output}")
    if args.stats:
        report = machine.report()
        print(f"\ninstructions: {report['steps']}")
        print(f"memory refs:  {report['memory_references']}")
        print(f"model cycles: {report['cycles']}")
        fetch = report["fetch"]
        print(f"jump-speed:   {fetch['call_return_jump_speed_fraction']:.1%}")
        if "return_stack_hit_rate" in report:
            print(f"return-stack: {report['return_stack_hit_rate']:.1%} hits")
        if "bank_overflow_rate" in report:
            print(f"bank rate:    {report['bank_overflow_rate']:.2%} overflow+underflow")
    return 0


def _print_trap_diagnostics(machine, recorder, fault) -> None:
    """An unhandled trap, narrated: class, PC, procedure, recent events."""
    frame = machine.frame
    where = frame.proc.qualified_name if frame is not None else "<no frame>"
    print(f"trap: {fault.trap}", file=sys.stderr)
    print(
        f"  at pc {machine.pc:#06x} in {where} "
        f"(step {machine.steps}, cycle {machine.counter.cycles})",
        file=sys.stderr,
    )
    if fault.detail:
        print(f"  detail: {fault.detail}", file=sys.stderr)
    tail = recorder.tail(10) if recorder is not None else []
    if tail:
        print(f"last {len(tail)} trace events:", file=sys.stderr)
        for event in tail:
            print(f"  {event}", file=sys.stderr)


def cmd_disasm(args: argparse.Namespace) -> int:
    config = MachineConfig.preset(args.impl)
    modules = _compile(_read_sources(args.files), config, args.entry, None)
    image = link(modules, config, args.entry)
    for module in modules:
        linked = image.instance_of(module.name)
        print(f"MODULE {module.name}  (code base {linked.code_base:#06x}, "
              f"gf {linked.gf_address:#06x})")
        for target_index, target in enumerate(module.imports):
            print(f"  LV[{target_index}] -> {target[0]}.{target[1]}")
        for procedure in module.procedures:
            entry = linked.code_base + procedure.entry_offset
            fsi = image.code.fetch_byte(entry)
            words = image.ladder.size_of(fsi)
            print(f"\n  PROCEDURE {procedure.name}  "
                  f"(entry {entry:#06x}, fsi {fsi} = {words} words)")
            listing = format_listing(procedure.body)
            print("    " + listing.replace("\n", "\n    "))
        print()
    return 0


#: Version tag of the ``measure --json`` output shape; bump on change.
MEASURE_JSON_SCHEMA = "repro-measure/1"


def cmd_measure(args: argparse.Namespace) -> int:
    sources = _read_program_sources(args.files)
    _compile(sources, MachineConfig.preset("i2"), args.entry, args.args)
    costs = transfer_cost_table(
        sources, entry=args.entry, args=tuple(args.args), engine=args.engine
    )
    if args.json:
        payload = {
            "schema": MEASURE_JSON_SCHEMA,
            "entry": f"{args.entry[0]}.{args.entry[1]}",
            "args": list(args.args),
            "engine": args.engine,
            "implementations": [
                {
                    "label": cost.label,
                    "results": list(cost.results),
                    "steps": cost.steps,
                    "calls": cost.calls,
                    "returns": cost.returns,
                    "memory_refs_per_transfer": cost.memory_refs,
                    "register_refs_per_transfer": cost.register_refs,
                    "cycles_per_transfer": cost.cycles_per_transfer,
                    "jump_speed_fraction": cost.jump_speed_fraction,
                    "counters": dict(cost.counters),
                }
                for cost in costs
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    rows = []
    for cost in costs:
        rows.append(
            [
                cost.label,
                list(cost.results),
                cost.transfers,
                f"{cost.memory_refs:.2f}",
                f"{cost.cycles_per_transfer:.1f}",
                f"{cost.jump_speed_fraction:.0%}",
            ]
        )
    print(
        format_table(
            ["implementation", "results", "transfers", "mem refs/xfer", "cycles/xfer", "jump speed"],
            rows,
        )
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Fast, self-contained checks of the paper's headline claims.

    A subset of the full benchmark harness (see ``benchmarks/run_all.py``)
    that needs no source files and runs in a couple of seconds.
    """
    failures = 0

    def check(label: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        suffix = f"  ({detail})" if detail else ""
        print(f"[{status}] {label}{suffix}")

    # T1 (section 5): the 34-bit example.
    from repro.analysis.space import d1_call_space, t1_savings

    t1 = t1_savings(3, 10, 32)
    check(
        "T1 indirection example: 96 -> 62 bits, 34 saved",
        (t1.direct_bits, t1.indirect_bits, t1.saved_bits) == (96, 62, 34),
    )

    # D1 (section 6): +30% / equal / +50%.
    one, two = d1_call_space(1), d1_call_space(2)
    check(
        "D1 call-site space: DFC +33%, SDFC +0% (1 call), +50% (2 calls)",
        abs(one.direct_overhead - 1 / 3) < 0.01
        and one.short_direct_overhead == 0.0
        and abs(two.short_direct_overhead - 0.5) < 0.01,
    )

    # Figure 2 (section 5.3): 3 references to allocate, 4 to free.
    from repro.alloc.avheap import AVHeap
    from repro.alloc.sizing import geometric_ladder
    from repro.machine.memory import Memory

    memory = Memory(1 << 16)
    heap = AVHeap(memory, geometric_ladder(), 16, 64, 1 << 14)
    heap.free(heap.allocate(2))
    snap = memory.counter.snapshot()
    pointer = heap.allocate(2)
    alloc_refs = memory.counter.delta_since(snap)
    snap = memory.counter.snapshot()
    heap.free(pointer)
    free_refs = memory.counter.delta_since(snap)
    check(
        "Figure 2 frame heap: 3 refs/allocate, 4 refs/free",
        alloc_refs["memory_read"] + alloc_refs["memory_write"] == 3
        and free_refs["memory_read"] + free_refs["memory_write"] == 4,
    )

    # Figure 3 (section 7.2): the exact bank assignment after each event.
    from repro.banks.renaming import figure3

    _, lbanks, sbanks = zip(*figure3())
    check(
        "Figure 3 renaming trace: Lbank 1,2,1,3,2,3,4,3 / Sbank 2,3,3,2,4,4,2,2",
        lbanks == (1, 2, 1, 3, 2, 3, 4, 3) and sbanks == (2, 3, 3, 2, 4, 4, 2, 2),
    )

    # Descriptor packing (section 5.1).
    from repro.mesa.descriptor import MAX_BIASED_ENTRIES, pack_descriptor, unpack_descriptor

    check(
        "Packed descriptor: 16 bits, 1024 env, 32 code, 128 via bias",
        unpack_descriptor(pack_descriptor(1023, 31)) == (1023, 31)
        and MAX_BIASED_ENTRIES == 128,
    )

    # The ladder end to end: identical results, shrinking traffic, >=95%.
    fib = """
MODULE Main;
PROCEDURE fib(n): INT;
BEGIN
  IF n < 2 THEN RETURN n; END;
  RETURN fib(n - 1) + fib(n - 2);
END;
PROCEDURE main(): INT;
BEGIN
  RETURN fib(11);
END;
END.
"""
    meters = {}
    for preset in ALL_PRESETS:
        machine = _build([fib], preset, ("Main", "main"), [])
        machine.start()
        results = machine.run()
        meters[preset] = (
            results,
            machine.counter.memory_references,
            machine.fetch.call_return_jump_speed_fraction,
        )
    check(
        "Ladder correctness: identical results on I1-I4",
        len({tuple(values[0]) for values in meters.values()}) == 1,
    )
    check(
        "Ladder shape: I4 memory refs < I3 < I2",
        meters["i4"][1] < meters["i3"][1] < meters["i2"][1],
        f"{meters['i2'][1]} -> {meters['i3'][1]} -> {meters['i4'][1]}",
    )
    check(
        "Headline: >=95% of calls+returns at jump speed on I3/I4",
        meters["i3"][2] >= 0.95 and meters["i4"][2] >= 0.95,
        f"{meters['i3'][2]:.1%}",
    )

    print(
        f"\n{8 - failures}/8 claims verified."
        if not failures
        else f"\n{failures} claim(s) FAILED."
    )
    return 1 if failures else 0


def _traced_run(args: argparse.Namespace, capacity: int | None, trace_steps: bool):
    """Build, attach a recorder, run; shared by ``trace`` and ``profile``."""
    from repro.obs import TraceRecorder

    machine = _build(_read_program_sources(args.files), args.impl, args.entry, args.args)
    recorder = TraceRecorder(capacity=capacity, trace_steps=trace_steps)
    machine.attach_tracer(recorder)
    machine.start(args.entry[0], args.entry[1], *args.args)
    results = machine.run()
    return machine, recorder, results


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        build_call_tree,
        to_chrome_trace,
        to_folded_stacks,
        to_jsonl,
        validate_chrome_trace,
    )

    if args.capacity is not None:
        _check_counts(("--capacity", args.capacity))
    machine, recorder, _ = _traced_run(args, args.capacity, args.steps)
    events = list(recorder.events)
    if recorder.dropped:
        print(
            f"warning: ring buffer dropped {recorder.dropped} of "
            f"{recorder.emitted} events (raise --capacity for a full trace)",
            file=sys.stderr,
        )
    if args.format == "chrome":
        tree = build_call_tree(
            events,
            total_cycles=machine.counter.cycles,
            total_steps=machine.steps,
            dropped=recorder.dropped,
        )
        payload = to_chrome_trace(events, tree)
        problems = validate_chrome_trace(payload)
        if problems:  # pragma: no cover - exporter bug guard
            for problem in problems:
                print(f"error: {problem}", file=sys.stderr)
            return 1
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "folded":
        text = to_folded_stacks(events)
    else:
        text = to_jsonl(events)
    if args.out:
        Path(args.out).write_text(text)
        print(
            f"wrote {len(events)} events ({args.format}) to {args.out}",
            file=sys.stderr,
        )
    else:
        print(text, end="")
    return 0


def _profile_cluster(args: argparse.Namespace) -> int:
    """``profile --shards N``: split the program across a cluster and
    print the stitched cross-shard call tree (one span per Remote XFER,
    costed with the callee shard's modelled meters)."""
    from repro.errors import RouteError
    from repro.net.cluster import Cluster
    from repro.net.stitch import render, stitch

    sources = _read_program_sources(args.files)
    _compile(sources, MachineConfig.preset(args.impl), args.entry, args.args)
    pins = dict(args.pin) if args.pin else None
    try:
        cluster = Cluster(
            sources,
            shards=args.shards,
            config=args.impl,
            entry=args.entry,
            pins=pins,
            record=True,
            # The recorder pins execution to the interpreter anyway, and a
            # program with verifier findings must stay profilable.
            engine="interp",
        )
    except RouteError as fault:  # a pin naming a shard outside --shards
        print(f"profile: {fault}", file=sys.stderr)
        return 2
    ticket = cluster.submit(args.entry[0], args.entry[1], *args.args)
    cluster.pump()
    print(f"results: {ticket.results}")
    roots = stitch(cluster.trace_events())
    spans = sum(1 for root in roots for _ in root.walk())
    remote = sum(
        1
        for root in roots
        for node, _ in root.walk()
        if node.origin not in ("", "root")
    )
    print(
        f"{spans} span(s), {remote} remote, across {args.shards} shard(s) "
        f"in {cluster.ticks} pump ticks"
    )
    print(f"placement: {cluster.placement.table(cluster.shards[0].modules())}")
    print()
    print(render(roots))
    print()
    for shard_id, meters in cluster.meters().items():
        print(
            f"shard {shard_id}: {meters['steps']} instructions, "
            f"{meters['counter']['cycles']} modelled cycles, "
            f"{meters['blocks']} remote stalls"
        )
    wire = cluster.transport.stats
    print(
        f"wire: {wire.sent} messages, {wire.wire_words} words "
        "(metered on the transport, never on a machine)"
    )
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import aggregate, build_call_tree

    _check_counts(("--top", args.top), ("--shards", args.shards))
    if (args.json or args.out) and args.shards > 1:
        print(
            "profile: --json/--out summarize one machine's run; they do "
            "not combine with --shards",
            file=sys.stderr,
        )
        return 2
    if args.shards > 1:
        return _profile_cluster(args)
    machine, recorder, results = _traced_run(args, capacity=None, trace_steps=False)
    if args.json or args.out:
        from repro.fdo import profile_document

        doc = profile_document(
            machine,
            list(recorder.events),
            results,
            args.impl,
            args.entry,
            tuple(args.args),
        )
        text = json.dumps(doc, indent=2)
        if args.out:
            Path(args.out).write_text(text + "\n")
            if not args.json:
                print(f"profile written to {args.out}")
        if args.json:
            print(text)
        return 0
    tree = build_call_tree(
        recorder.events,
        total_cycles=machine.counter.cycles,
        total_steps=machine.steps,
        dropped=recorder.dropped,
    )
    profiles = aggregate(tree)
    total = max(1, machine.counter.cycles)

    print(f"results: {results}")
    print(
        f"{machine.steps} instructions, {machine.counter.cycles} modelled "
        f"cycles, {machine.counter.memory_references} memory references"
    )
    if not tree.structured:
        print(
            "note: non-LIFO transfers (XFER/traps) in this run; "
            "attribution near them is approximate"
        )
    print()
    rows = []
    for profile in profiles[: args.top]:
        rows.append(
            [
                profile.name,
                profile.calls,
                profile.inclusive_cycles,
                f"{profile.inclusive_cycles / total:.1%}",
                profile.exclusive_cycles,
                f"{profile.exclusive_cycles / total:.1%}",
                f"{profile.exclusive_per_call:.1f}",
            ]
        )
    print(
        format_table(
            ["procedure", "calls", "incl cycles", "incl%", "excl cycles", "excl%", "excl/call"],
            rows,
        )
    )

    report = machine.report()
    lines = []
    if "return_stack_hit_rate" in report:
        lines.append(f"return-stack hit rate: {report['return_stack_hit_rate']:.1%}")
    if machine.bankfile is not None:
        stats = machine.bankfile.stats
        lines.append(
            f"bank traffic: {stats.words_spilled} words spilled, "
            f"{stats.words_filled} filled "
            f"({stats.overflows} overflows, {stats.underflows} underflows)"
        )
    if "alloc" in report:
        alloc = report["alloc"]
        lines.append(
            f"frames: {alloc['allocations']:.0f} allocated, "
            f"{alloc['frees']:.0f} freed, "
            f"{alloc['replenishments']:.0f} allocator traps"
        )
    if lines:
        print()
        for line in lines:
            print(line)
    return 0


#: Version tag of the snapshot *file* (the envelope around the machine
#: state, which carries its own ``repro-snapshot/N`` schema).
SNAPSHOT_FILE_SCHEMA = "repro-snapshot-file/1"


def cmd_snapshot(args: argparse.Namespace) -> int:
    """Run a program for N instructions, then freeze the state vector.

    The file embeds the module sources so ``resume`` can relink the same
    image without the original files; restore is only defined against an
    identically configured machine (see docs/faults.md).
    """
    from repro.faults import capture

    sources = _read_program_sources(args.files)
    machine = _build(sources, args.impl, args.entry, args.args)
    machine.start(args.entry[0], args.entry[1], *args.args)
    while not machine.halted and machine.steps < args.at_step:
        machine.step()
    if machine.halted:
        print(
            f"snapshot: program halted at step {machine.steps}, before "
            f"--at-step {args.at_step}; nothing to freeze",
            file=sys.stderr,
        )
        return 1
    doc = {
        "schema": SNAPSHOT_FILE_SCHEMA,
        "impl": args.impl,
        "entry": f"{args.entry[0]}.{args.entry[1]}",
        "args": list(args.args),
        "sources": sources,
        "state": capture(machine),
    }
    text = json.dumps(doc) + "\n"
    Path(args.out).write_text(text)
    print(
        f"froze {args.impl} at step {machine.steps} "
        f"(cycle {machine.counter.cycles}) to {args.out}"
    )
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    """Thaw a snapshot file onto a fresh image and run it to completion.

    ``--verify`` also runs the same program straight through and checks
    that resumed == uninterrupted on results, steps, and every modelled
    meter — the bit-identical-resume guarantee.
    """
    from repro.errors import TrapError
    from repro.faults import restore

    doc = _read_document(args.snapshot)
    if doc.get("schema") != SNAPSHOT_FILE_SCHEMA:
        print(
            f"resume: {args.snapshot} is not a {SNAPSHOT_FILE_SCHEMA} file "
            f"(schema {doc.get('schema')!r})",
            file=sys.stderr,
        )
        return 1
    entry = _entry(doc["entry"])
    machine = _build(doc["sources"], doc["impl"], entry, doc["args"])
    restore(machine, doc["state"])
    try:
        results = machine.run()
    except TrapError as fault:
        print(f"trap: {fault}", file=sys.stderr)
        return 1
    print(f"results: {results}")
    if machine.output:
        print(f"output:  {machine.output}")
    print(f"steps:   {machine.steps}  cycles: {machine.counter.cycles}")
    if args.verify:
        reference = _build(doc["sources"], doc["impl"], entry, doc["args"])
        reference.start(entry[0], entry[1], *doc["args"])
        ref_results = reference.run()
        mismatches = []
        if results != ref_results:
            mismatches.append(f"results {results} != {ref_results}")
        if machine.steps != reference.steps:
            mismatches.append(f"steps {machine.steps} != {reference.steps}")
        resumed, straight = machine.counter.snapshot(), reference.counter.snapshot()
        for key in sorted(set(resumed) | set(straight)):
            if resumed.get(key, 0) != straight.get(key, 0):
                mismatches.append(
                    f"{key} {resumed.get(key, 0)} != {straight.get(key, 0)}"
                )
        if mismatches:
            print("verify: resumed run DIVERGED from uninterrupted run:",
                  file=sys.stderr)
            for line in mismatches:
                print(f"  {line}", file=sys.stderr)
            return 1
        print("verify: resumed run is bit-identical to an uninterrupted run")
    return 0


#: Version tag of the loadgen workload file.
LOADGEN_SCHEMA = "repro-loadgen/1"


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Generate a seeded serving workload with host-computed answers."""
    from repro.net.serve import generate_workload

    _check_counts(("--requests", args.requests))
    workload = generate_workload(args.seed, args.requests)
    doc = {
        "schema": LOADGEN_SCHEMA,
        "seed": args.seed,
        "requests": args.requests,
        "workload": [request.to_dict() for request in workload],
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(
            f"{args.requests} request(s) (seed {args.seed}) written to {args.out}"
        )
    else:
        print(text, end="")
    return 0


def _print_serve(report, metrics, source: str, args: argparse.Namespace, extra: dict) -> int:
    """Print one serving report, in-process or process mode, and write
    its JSON document when asked."""
    summary = report.to_dict()
    if report.unit == "ms":
        where = (
            f"{report.shards} worker process(es), route={report.route}, "
            f"in {summary['elapsed_s']}s ({summary['requests_per_s']} req/s)"
        )
        label = "ms"
    else:
        where = f"{report.shards} shard(s) in {report.ticks} pump ticks"
        label = "pump ticks"
    print(
        f"served {report.completed}/{report.requests} request(s) ({source}) "
        f"on {where}"
    )
    print(
        f"lost={report.lost} wrong={report.wrong} retried={report.retried} "
        f"backpressure_stalls={report.backpressure_stalls}"
        + (f" migrations={report.migrations}" if args.autoscale else "")
    )
    print(
        f"latency: p50={summary[f'p50_{report.unit}']} "
        f"p99={summary[f'p99_{report.unit}']} {label}; "
        f"wire: {report.wire_words} words"
    )
    if args.json or args.out:
        doc = {"report": summary, "metrics": metrics.snapshot(), **extra}
        text = json.dumps(doc, indent=2) + "\n"
        if args.out:
            Path(args.out).write_text(text)
            print(f"report written to {args.out}")
        else:
            print(text, end="")
    return 0 if report.lost == 0 and report.wrong == 0 else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Drive a shard pool through a loadgen workload and report."""
    from repro.errors import RouteError
    from repro.jit import JitRefusal
    from repro.net.cluster import Cluster
    from repro.net.serve import SERVICE_SOURCES, Request, Server, generate_workload
    from repro.net.transport import SocketTransport

    # Refused before the pool is built (and, with --processes, its
    # workers forked): the library refuses the pool knobs only then, and
    # it would serve an empty workload.
    knobs = [
        ("--shards", args.shards),
        ("--requests", args.requests),
        ("--queue-capacity", args.queue_capacity),
        ("--batch-size", args.batch_size),
    ]
    if args.autoscale:
        knobs += [
            ("--pump-ticks", args.pump_ticks),
            ("--patience", args.patience),
            ("--migration-budget", args.migration_budget),
        ]
    _check_counts(*knobs)
    if args.autoscale and args.high_water <= args.low_water:
        print(
            f"serve: --high-water ({args.high_water}) must exceed "
            f"--low-water ({args.low_water})",
            file=sys.stderr,
        )
        return 2
    if args.workload:
        doc = _read_document(args.workload)
        if doc.get("schema") != LOADGEN_SCHEMA:
            print(
                f"serve: {args.workload} is not a {LOADGEN_SCHEMA} workload",
                file=sys.stderr,
            )
            return 2
        workload = [Request.from_dict(r) for r in doc["workload"]]
        source = args.workload
    elif args.skew:
        from repro.net.serve import generate_skewed_workload

        workload = generate_skewed_workload(args.seed, args.requests)
        source = f"seed {args.seed} (skewed 90/10)"
    else:
        workload = generate_workload(args.seed, args.requests)
        source = f"seed {args.seed}"
    if args.processes and args.autoscale:
        print("serve: --autoscale drives the in-process pump; drop "
              "--processes", file=sys.stderr)
        return 2
    if args.processes and args.pins and args.route == "direct":
        print("serve: --route direct homes every module on every worker, "
              "so it would ignore --pins; use --route dispatch",
              file=sys.stderr)
        return 2
    pins = None
    if args.pins:
        from repro.errors import NetError
        from repro.net.colocate import load_pins

        try:
            pins, planned_shards = load_pins(args.pins)
        except NetError as fault:
            print(f"serve: {fault}", file=sys.stderr)
            return 2
        if planned_shards and planned_shards != args.shards:
            print(
                f"serve: pin map {args.pins} was planned for "
                f"{planned_shards} shard(s), serving {args.shards}",
                file=sys.stderr,
            )
            return 2
    try:
        if args.processes:
            from repro.net.procserve import ProcessCluster, ProcessServer

            cluster = ProcessCluster(
                list(SERVICE_SOURCES),
                shards=args.shards,
                config=args.impl,
                pins=pins,
                self_homed=(args.route == "direct"),
                engine=args.engine,
            )
        else:
            cluster = Cluster(
                list(SERVICE_SOURCES),
                shards=args.shards,
                config=args.impl,
                pins=pins,
                transport=SocketTransport() if args.socket else None,
                engine=args.engine,
            )
    except JitRefusal as refusal:
        print(f"serve: jit refused: {refusal}", file=sys.stderr)
        return 2
    except RouteError as fault:  # a pin naming a shard outside --shards
        print(f"serve: {fault}", file=sys.stderr)
        return 2
    if args.processes:
        try:
            server = ProcessServer(
                cluster,
                route=args.route,
                queue_capacity=args.queue_capacity,
                batch_size=args.batch_size,
            )
            report = server.serve(workload)
            extra = {"meters": cluster.meters()}
        finally:
            cluster.close()
        return _print_serve(report, server.metrics, source, args, extra)
    balancer = None
    pump_ticks = None
    if args.autoscale:
        from repro.net.balance import Balancer

        balancer = Balancer(
            high_water=args.high_water,
            low_water=args.low_water,
            patience=args.patience,
            budget=args.migration_budget,
        )
        pump_ticks = args.pump_ticks
    server = Server(
        cluster,
        queue_capacity=args.queue_capacity,
        batch_size=args.batch_size,
        balancer=balancer,
        pump_ticks_per_round=pump_ticks,
    )
    try:
        report = server.serve(workload)
    finally:
        cluster.close()
    extra = {
        "placement": cluster.placement.table(cluster.shards[0].modules()),
        "wire": cluster.transport.stats.as_dict(),
    }
    return _print_serve(report, server.metrics, source, args, extra)


def cmd_migrate(args: argparse.Namespace) -> int:
    """Live-migrate a running process between shards and prove it safe
    (see :func:`repro.net.migrate.migration_differential`)."""
    from repro.net.migrate import MigrateError, migration_differential
    from repro.workloads.programs import CORPUS

    if args.program not in CORPUS:
        print(f"migrate: unknown corpus program {args.program!r} "
              f"(known: {', '.join(sorted(CORPUS))})", file=sys.stderr)
        return 2
    if args.to == 0:
        print("migrate: --to 0 is the root's own home; pick another shard",
              file=sys.stderr)
        return 2
    try:
        evidence = migration_differential(
            CORPUS[args.program], args.impl, args.at, args.to, args.mode
        )
    except MigrateError as refusal:
        print(f"migrate: refused: {refusal}", file=sys.stderr)
        return 2
    if evidence["migrated_tick"] is None:
        print(
            f"migrate: {args.program} never blocked at/after tick {args.at} "
            "— nothing to migrate (try a smaller --at)",
            file=sys.stderr,
        )
        return 2

    print(
        f"migrated {args.program} root p{evidence['pid']} to shard "
        f"{args.to} at tick {evidence['migrated_tick']} ({args.mode} mode)"
    )
    results, reference = evidence["results"], evidence["reference_results"]
    if results == reference:
        print(f"  results: {results} == unmigrated reference")
    else:
        print(f"  results: {results} != reference {reference}")
    same = evidence["aggregate_meters"] == evidence["reference_meters"]
    if args.mode == "exclusive":
        if same:
            print("  cluster-aggregate meters: bit-identical to the "
                  "unmigrated run")
        else:
            print("  cluster-aggregate meters: DIVERGED from the "
                  "unmigrated run")
    else:
        print(f"  cluster-aggregate meters: "
              f"{'identical' if same else 'shifted (expected)'} — shared mode "
              "promises results only")
    if args.json:
        print(json.dumps(evidence, indent=2))
    return 0 if evidence["ok"] else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    """Replay seeded fault plans across I1-I4; fail on any divergence."""
    from repro.faults.chaos import CANNED_PLANS, DEFAULT_PROGRAMS, run_chaos
    from repro.workloads.programs import CORPUS

    if args.seeds < 1:
        print("chaos: --seeds must be at least 1", file=sys.stderr)
        return 2
    for flag, given in (("--processes", args.processes), ("--migrate", args.migrate)):
        if given and not args.net:
            print(f"chaos: {flag} requires --net", file=sys.stderr)
            return 2
    if args.migrate and args.processes:
        print("chaos: --migrate races the in-process pump; drop "
              "--processes", file=sys.stderr)
        return 2
    if args.net:
        from repro.net.chaos import MIGRATION_PLANS, NET_PLANS, run_net_chaos

        canned = MIGRATION_PLANS if args.migrate else tuple(NET_PLANS)
    else:
        canned = tuple(CANNED_PLANS)
        if args.programs:
            programs = tuple(args.programs)
        else:
            programs = tuple(CORPUS) if args.corpus else DEFAULT_PROGRAMS
        unknown = [name for name in programs if name not in CORPUS]
        if unknown:
            print(f"chaos: unknown corpus programs {unknown}", file=sys.stderr)
            return 2
    plans = tuple(args.plans) if args.plans else canned
    unknown = [name for name in plans if name not in canned]
    if unknown:
        print(f"chaos: unknown plans {unknown} for this sweep "
              f"(canned: {', '.join(canned)})", file=sys.stderr)
        return 2
    if args.net:
        report = run_net_chaos(plans=plans, seeds=args.seeds,
                               processes=args.processes, migrate=args.migrate,
                               engine=args.engine)
    else:
        report = run_chaos(programs=programs, seeds=args.seeds, plans=plans,
                           engine=args.engine)
    print(report.summary())
    if args.report:
        Path(args.report).write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"report written to {args.report}")
    return 0 if report.ok else 1


def _embedded_sources(text: str) -> list[str]:
    """MESA module sources embedded in a Python file as string literals.

    The examples keep their programs in module-level strings; any string
    constant whose stripped text starts with ``MODULE `` counts.  All
    strings in one file form one program.
    """
    import ast as python_ast

    sources = []
    for node in python_ast.walk(python_ast.parse(text)):
        if (
            isinstance(node, python_ast.Constant)
            and isinstance(node.value, str)
            and node.value.lstrip().startswith("MODULE ")
        ):
            sources.append(node.value)
    return sources


def _programs(args: argparse.Namespace, verb: str, config: MachineConfig) -> list:
    """The programs ``check`` and ``analyze`` work on, as (label, sources,
    entry, corpus program) rows: each corpus program *config* can link,
    each ``--from-python`` file, or the files as one program.  An entry
    of None means :func:`_default_entry` once compiled."""
    programs = []
    if args.corpus:
        from repro.workloads.programs import CORPUS

        for name, program in CORPUS.items():
            if program.needs_descriptors and config.linkage is LinkageKind.SIMPLE:
                continue  # no packed descriptors under SIMPLE linkage
            programs.append((f"corpus:{name}", list(program.sources), program.entry, program))
    if args.from_python:
        for path in args.files:
            sources = _embedded_sources(_read_input(path))
            if sources:
                programs.append((path, sources, None, None))
            else:
                print(f"{path}: no embedded MODULE sources, nothing to {verb}")
    elif args.files:
        programs.append((", ".join(args.files), _read_sources(args.files), args.entry, None))
    return programs


def _default_entry(modules) -> tuple[str, str]:
    """``Main.main`` when present, else the first procedure compiled."""
    for module in modules:
        if module.name == "Main" and any(
            procedure.name == "main" for procedure in module.procedures
        ):
            return ("Main", "main")
    return (modules[0].name, modules[0].procedures[0].name)


def cmd_check(args: argparse.Namespace) -> int:
    """Statically verify programs: control flow, stack depths, linkage.

    Exit status: 0 all clean, 1 findings (errors; warnings too under
    ``--strict``), 2 when a program could not even be compiled or linked.
    """
    from repro.check import check_image
    from repro.errors import ReproError

    if not args.files and not args.corpus:
        print("check: give source files, --from-python files, or --corpus",
              file=sys.stderr)
        return 2

    config = MachineConfig.preset(args.impl)
    status = 0
    for label, sources, entry, _ in _programs(args, "check", config):
        try:
            modules = compile_program(sources, CompileOptions.for_config(config))
        except ReproError as fault:
            print(f"{label}: cannot compile: {fault}")
            status = 2
            continue
        try:
            image = link(modules, config, entry or _default_entry(modules))
        except ReproError as fault:
            print(f"{label}: cannot link: {fault}")
            status = 2
            continue
        report = check_image(image)
        failed = not report.ok or (args.strict and report.warnings)
        if report.diagnostics:
            print(f"== {label} ==")
            print(report.format(listing=args.listing))
        else:
            print(f"{label}: clean")
        if failed:
            status = max(status, 1)
    return status


def cmd_analyze(args: argparse.Namespace) -> int:
    """Interprocedural analysis: resolved call graph, effect summaries,
    stack/frame bounds, and the versioned ``repro-facts/1`` document.

    Exit status: 0 facts emitted for every program, 1 findings (the
    analysis gate failed, or ``--differential`` observed an edge or
    depth outside the static prediction), 2 when a program could not be
    compiled or linked.
    """
    from repro.check import FACTS_SCHEMA, analyze_image, soundness_differential
    from repro.errors import ReproError

    if not args.files and not args.corpus:
        print("analyze: give source files, --from-python files, or --corpus",
              file=sys.stderr)
        return 2

    config = MachineConfig.preset(args.impl)
    status = 0
    documents: dict[str, dict] = {}
    for label, sources, entry, program in _programs(args, "analyze", config):
        try:
            modules = compile_program(sources, CompileOptions.for_config(config))
            image = link(modules, config, entry or _default_entry(modules))
        except ReproError as fault:
            print(f"{label}: cannot build: {fault}", file=sys.stderr)
            status = 2
            continue
        extra = [tuple(root) for root in args.root] if args.root else None
        analysis = analyze_image(image, extra_roots=extra)
        if not analysis.ok:
            print(f"== {label} ==")
            print(analysis.report.format())
            status = max(status, 1)
            continue
        if args.strict and analysis.report.warnings:
            print(f"== {label} ==")
            print(analysis.report.format())
            status = max(status, 1)
        facts = analysis.to_facts()
        documents[label] = facts
        if not args.json:
            summary = facts["summary"]
            print(
                f"{label}: {summary['sites']} site(s): "
                f"{summary['monomorphic']} monomorphic, "
                f"{summary['polymorphic']} polymorphic, "
                f"{summary['unknown']} unknown"
            )
            for root, bound in facts["entry_bounds"].items():
                depth = bound["call_depth"]
                words = bound["frame_words"]
                print(
                    f"  {root}: call depth "
                    f"{'unbounded' if depth is None else depth}, frame words "
                    f"{'unbounded' if words is None else words}, eval depth "
                    f"{bound['eval_depth']}"
                )
        if args.differential and program is not None:
            problems = soundness_differential(program, args.impl)
            for problem in problems:
                print(f"  UNSOUND: {problem}")
            if problems:
                status = max(status, 1)
            elif not args.json:
                print("  differential: every observed edge and depth contained")

    if args.json or args.out:
        if len(documents) == 1 and not args.corpus:
            payload = next(iter(documents.values()))
        else:
            payload = {
                "schema": FACTS_SCHEMA,
                "impl": args.impl,
                "programs": documents,
            }
        text = json.dumps(payload, indent=2)
        if args.out:
            Path(args.out).write_text(text + "\n")
            if not args.json:
                print(f"facts written to {args.out}")
        if args.json:
            print(text)
    return status


def _optimize_placement(args: argparse.Namespace) -> int:
    """``optimize --placement``: a recorded serving run -> a pin map.

    Runs the service image under the loadgen workload with tracing on,
    stitches the per-shard spans, and plans pins that co-locate chatty
    caller/callee module pairs (``repro serve --pins FILE`` loads the
    result).
    """
    from repro.errors import NetError
    from repro.net.colocate import plan_pins
    from repro.net.serve import run_serve
    from repro.net.stitch import stitch

    _check_counts(("--requests", args.requests))
    try:
        report, cluster, _ = run_serve(
            shards=args.shards,
            requests=args.requests,
            seed=args.seed,
            config=args.impl,
            record=True,
        )
        if report.lost or report.wrong:
            print(
                f"optimize: profiling run lost {report.lost} / answered "
                f"{report.wrong} wrong — refusing to plan from it",
                file=sys.stderr,
            )
            return 2
        plan = plan_pins(stitch(cluster.trace_events()), args.shards)
    except NetError as fault:  # no shards, or a run with no spans to plan from
        print(f"optimize: {fault}", file=sys.stderr)
        return 2
    text = json.dumps(plan.to_dict(), indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"pin map written to {args.out}")
    else:
        print(text, end="")
    hot = plan.edges[:3]
    for edge in hot:
        together = plan.pins[edge["caller"]] == plan.pins[edge["callee"]]
        state = "co-located" if together else "split"
        print(
            f"  {edge['caller']} -> {edge['callee']}: {edge['calls']} "
            f"call(s), {state}"
        )
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    """Feedback-directed image rewriting: profile + facts → a verified
    optimized image (see ``docs/fdo.md``).

    Exit status: 0 when an image was emitted (a no-op rewrite still
    emits — the image is byte-identical to the original), 2 when the
    inputs are stale/mismatched or every rewrite candidate failed the
    verification gates.
    """
    from repro.errors import ReproError
    from repro.fdo import FdoRefusal, optimize, save_image

    if args.placement:
        return _optimize_placement(args)
    if not args.files or not args.profile or not args.facts or not args.out:
        print(
            "optimize: image rewriting needs source files, --profile, "
            "--facts, and --out (or use --placement for a pin map)",
            file=sys.stderr,
        )
        return 2
    sources = _read_program_sources(args.files)
    profile = _read_document(args.profile)
    facts = _read_document(args.facts)
    try:
        result = optimize(
            sources,
            args.impl,
            args.entry,
            profile,
            facts,
            min_calls=args.min_site_calls,
        )
    except FdoRefusal as refusal:
        print(f"optimize: refused: {refusal}", file=sys.stderr)
        return 2
    except ReproError as fault:
        print(f"optimize: cannot build: {fault}", file=sys.stderr)
        return 2
    save_image(result, args.out)
    log = result.log
    if args.log:
        Path(args.log).write_text(json.dumps(log, indent=2) + "\n")
    if args.json:
        print(json.dumps(log, indent=2))
        return 0
    kind = "no-op (byte-identical)" if log["noop"] else "rewritten"
    print(f"optimized image written to {args.out} ({kind})")
    for decision in log["decisions"]:
        saving = decision.get("expected_saving", {})
        cycles = saving.get("cycles")
        tail = f"  (expect -{cycles} cycles)" if cycles else ""
        where = decision.get("site") or ", ".join(
            decision.get("procedures", ())
        )
        where = f" {where}" if where else ""
        print(f"  {decision['kind']}:{where} {decision['rewrite']}{tail}")
    for refusal in log["refusals"]:
        site = f" {refusal['site']}" if "site" in refusal else ""
        print(f"  refused [{refusal['aspect']}]{site}: {refusal['reason']}")
    total = log["expected_saving"]
    if total["cycles"] or total["memory_references"]:
        print(
            f"  expected saving: {total['memory_references']} memory "
            f"references, {total['cycles']} cycles (replay-validated)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fast Procedure Calls (ASPLOS 1982) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    def common(p):
        p.add_argument("files", nargs="+", help="module source files")
        _add_entry(p)

    def observed(p):
        """The program flags of the subcommands that observe one run."""
        p.add_argument("files", nargs="+",
                       help="module source files (or .py files with embedded "
                            "MODULE literals, like the examples)")
        _add_entry(p)
        _add_impl(p, "i4")
        _add_args(p)

    run = command("run", cmd_run, "compile and execute a program")
    run.add_argument("files", nargs="*", help="module source files")
    _add_entry(run)
    _add_impl(run)
    _add_args(run)
    run.add_argument("--stats", action="store_true", help="print the meters")
    _add_engine(run, "execution engine (jit compiles verified blocks)")
    run.add_argument("--facts", metavar="PATH", default=None,
                     help="precomputed repro-facts/1 artifact (jit only; "
                     "must match the image)")
    run.add_argument("--image", metavar="PATH", default=None,
                     help="execute a repro-image/1 optimized image written "
                     "by `repro optimize` (instead of source files; the "
                     "file pins impl, entry, and sources)")

    disasm = command("disasm", cmd_disasm, "show the compiled encoding")
    common(disasm)
    _add_impl(disasm, help=None)

    measure = command("measure", cmd_measure, "run the I1-I4 ladder comparison")
    common(measure)
    _add_args(measure, help=None)
    _add_engine(measure, "execution engine for every rung of the ladder")
    measure.add_argument("--json", action="store_true",
                         help="emit machine-readable CycleCounter snapshots")

    trace = command(
        "trace", cmd_trace, "record and export the observability event stream"
    )
    observed(trace)
    trace.add_argument("--format", choices=["chrome", "folded", "jsonl"],
                       default="jsonl",
                       help="chrome (chrome://tracing JSON), folded "
                            "(flamegraph stacks), or jsonl (default)")
    trace.add_argument("--out", metavar="PATH", default=None,
                       help="write to a file instead of stdout")
    trace.add_argument("--capacity", type=int, default=None, metavar="N",
                       help="bound the event ring buffer (default: unbounded)")
    trace.add_argument("--steps", action="store_true",
                       help="also record one machine.step event per instruction")

    profile = command(
        "profile", cmd_profile,
        "call-tree profile by inclusive/exclusive modelled cycles",
    )
    observed(profile)
    profile.add_argument("--top", type=int, default=10, metavar="N",
                        help="procedures to list (default 10)")
    profile.add_argument("--shards", type=int, default=1, metavar="N",
                        help="split the program across N shards and print "
                             "the stitched cross-shard call tree (default 1)")
    profile.add_argument("--pin", type=_pin, action="append", metavar="MOD=SHARD",
                        help="pin a module to a shard (repeatable; default: "
                             "consistent-hash placement)")
    profile.add_argument("--json", action="store_true",
                        help="emit the repro-profile/1 document (the input "
                             "to `repro optimize`) instead of the table")
    profile.add_argument("--out", metavar="PATH", default=None,
                        help="write the repro-profile/1 document here")

    command("verify", cmd_verify, "fast checks of the paper's headline claims")

    snapshot = command(
        "snapshot", cmd_snapshot,
        "run N instructions, then freeze the machine state",
    )
    observed(snapshot)
    snapshot.add_argument("--at-step", type=int, required=True, metavar="N",
                          help="freeze after N executed instructions")
    snapshot.add_argument("--out", metavar="PATH", required=True,
                          help="snapshot file to write")

    resume = command(
        "resume", cmd_resume,
        "thaw a snapshot onto a fresh image and finish the run",
    )
    resume.add_argument("snapshot", help="file written by `repro snapshot`")
    resume.add_argument("--verify", action="store_true",
                        help="also run straight through and require the resumed "
                             "run to match on results, steps, and all meters")

    chaos = command(
        "chaos", cmd_chaos,
        "replay seeded fault plans across I1-I4 over the corpus",
    )
    chaos.add_argument("--corpus", action="store_true",
                       help="stress every corpus program instead of the "
                            "default subset (narrow it with --programs)")
    chaos.add_argument("--programs", nargs="*", metavar="NAME",
                       help="corpus programs to stress (default: chaos subset)")
    chaos.add_argument("--plans", nargs="*", metavar="NAME",
                       help="canned fault plans to replay (default: all)")
    chaos.add_argument("--seeds", type=int, default=5, metavar="N",
                       help="seeds per (program, plan) pair (default 5)")
    _add_engine(chaos, "install the jit on every machine: compiled code "
                "runs between the faults, and the report must equal the "
                "interpreter's")
    chaos.add_argument("--report", metavar="PATH", default=None,
                       help="write the full JSON conformance report here")
    chaos.add_argument("--net", action="store_true",
                       help="run the transport-fault sweep instead: drops, "
                            "duplicates, delays, and partitions over a "
                            "2-shard split cluster")
    chaos.add_argument("--processes", action="store_true",
                       help="with --net: drive the sweep across real OS "
                            "worker processes through the front door's "
                            "fault router (outcome-class conformance)")
    chaos.add_argument("--migrate", action="store_true",
                       help="with --net: migrate the root request "
                            "mid-flight in every case — the migration must "
                            "race the plan and still recover with the "
                            "reference results, deterministically")

    serve = command(
        "serve", cmd_serve, "drive a shard pool through a loadgen workload"
    )
    serve.add_argument("--shards", type=int, default=4, metavar="N",
                       help="shards in the pool (default 4)")
    _add_impl(serve, help="implementation preset per shard (default {})")
    serve.add_argument("--workload", metavar="PATH", default=None,
                       help="loadgen workload file (default: generate from "
                            "--requests/--seed)")
    serve.add_argument("--requests", type=int, default=100, metavar="N",
                       help="requests to generate when no workload file "
                            "(default 100)")
    serve.add_argument("--seed", type=int, default=7, metavar="S",
                       help="workload seed (default 7)")
    serve.add_argument("--queue-capacity", type=int, default=8, metavar="N",
                       help="bounded per-shard run queue (default 8)")
    serve.add_argument("--batch-size", type=int, default=4, metavar="N",
                       help="admissions per pump round (default 4)")
    serve.add_argument("--socket", action="store_true",
                       help="carry the wire records over a real socketpair")
    serve.add_argument("--processes", action="store_true",
                       help="promote each shard to a real OS worker process "
                            "behind the asyncio front door")
    _add_engine(serve, "shard engine, in process and in every forked "
                "worker (default jit); results and meters are the same on "
                "both", default="jit")
    serve.add_argument("--route", choices=["direct", "dispatch"],
                       default="direct",
                       help="process-mode routing: direct (leaf procedure on "
                            "a round-robin worker; the scale route) or "
                            "dispatch (Main.dispatch with worker-to-worker "
                            "Remote XFER; the conformance route)")
    serve.add_argument("--pins", metavar="PATH", default=None,
                       help="repro-pins/1 pin map from `repro optimize "
                            "--placement`: place modules where the plan says")
    serve.add_argument("--autoscale", action="store_true",
                       help="attach the migration balancer: tick-paced "
                            "pumping, hot shards drained onto cold ones via "
                            "live process migration (in-process shards only)")
    serve.add_argument("--skew", action="store_true",
                       help="use the 90/10 hot-key workload instead of the "
                            "uniform one (the autoscaling load shape)")
    serve.add_argument("--pump-ticks", type=int, default=1, metavar="N",
                       help="with --autoscale: pump ticks per admission "
                            "round (default 1)")
    serve.add_argument("--high-water", type=int, default=6, metavar="N",
                       help="with --autoscale: in-flight requests above "
                            "which a shard counts as hot (default 6)")
    serve.add_argument("--low-water", type=int, default=2, metavar="N",
                       help="with --autoscale: in-flight requests at/below "
                            "which a shard may receive migrants (default 2)")
    serve.add_argument("--patience", type=int, default=3, metavar="N",
                       help="with --autoscale: consecutive hot observations "
                            "before migrating (default 3)")
    serve.add_argument("--migration-budget", type=int, default=1, metavar="N",
                       help="with --autoscale: migrations per observation "
                            "(default 1)")
    serve.add_argument("--json", action="store_true",
                       help="also print the full JSON report")
    serve.add_argument("--out", metavar="PATH", default=None,
                       help="write the full JSON report here")

    migrate = command(
        "migrate", cmd_migrate,
        "live-migrate a running process between shards and prove it",
    )
    migrate.add_argument("--program", default="mathlib", metavar="NAME",
                         help="corpus program to run split (default mathlib)")
    _add_impl(migrate)
    migrate.add_argument("--at", type=int, default=2, metavar="TICK",
                         help="migrate at the first block boundary at/after "
                              "this pump tick (default 2)")
    migrate.add_argument("--to", type=int, default=2, metavar="SHARD",
                         help="target shard (default 2, the spare)")
    migrate.add_argument("--mode", choices=["exclusive", "shared"],
                         default="exclusive",
                         help="exclusive: idle target, cluster-aggregate "
                              "meters bit-identical; shared: busy target, "
                              "results-exact (default exclusive)")
    migrate.add_argument("--json", action="store_true",
                         help="also print the full JSON evidence")

    loadgen = command(
        "loadgen", cmd_loadgen,
        "generate a seeded serving workload with known answers",
    )
    loadgen.add_argument("--requests", type=int, default=100, metavar="N",
                         help="requests to generate (default 100)")
    loadgen.add_argument("--seed", type=int, default=7, metavar="S",
                         help="generator seed (default 7)")
    loadgen.add_argument("--out", metavar="PATH", default=None,
                         help="write the workload JSON here (default stdout)")

    check = command(
        "check", cmd_check, "statically verify programs without executing them"
    )
    check.add_argument("files", nargs="*", help="module source files")
    _add_entry(check, default=None)
    _add_impl(check, help="implementation preset to verify against (default {})")
    check.add_argument("--corpus", action="store_true",
                       help="also verify every workload corpus program")
    check.add_argument("--from-python", action="store_true",
                       help="treat each file as a Python file with embedded "
                            "MODULE string literals (the examples)")
    check.add_argument("--listing", action="store_true",
                       help="print disassembled context around each finding")
    check.add_argument("--strict", action="store_true",
                       help="warnings also fail the check")

    analyze = command(
        "analyze", cmd_analyze,
        "interprocedural analysis: call graph, effects, bounds, facts",
    )
    analyze.add_argument("files", nargs="*", help="module source files")
    _add_entry(analyze, default=None)
    _add_impl(analyze, help="implementation preset to analyze against (default {})")
    analyze.add_argument("--corpus", action="store_true",
                         help="analyze every workload corpus program")
    analyze.add_argument("--from-python", action="store_true",
                         help="treat each file as a Python file with embedded "
                              "MODULE string literals (the examples)")
    analyze.add_argument("--root", action="append", type=_entry, default=None,
                         metavar="MODULE.PROC",
                         help="extra call-graph root (spawned process or "
                              "served entry); repeatable")
    analyze.add_argument("--json", action="store_true",
                         help="print the repro-facts/1 JSON document")
    analyze.add_argument("--out", metavar="FILE",
                         help="also write the facts JSON to FILE")
    analyze.add_argument("--differential", action="store_true",
                         help="corpus soundness gate: run each program under "
                              "the tracer and assert every observed call "
                              "edge and depth is statically predicted")
    analyze.add_argument("--strict", action="store_true",
                         help="warnings also fail the analysis")

    optimize = command(
        "optimize", cmd_optimize,
        "feedback-directed image rewriting from a profile + facts",
    )
    optimize.add_argument("files", nargs="*",
                          help="module source files (or .py files with "
                               "embedded MODULE literals, like the examples)")
    _add_entry(optimize)
    _add_impl(optimize, help="implementation preset the rewrite targets "
              "(must match the profile; default {})")
    optimize.add_argument("--profile", metavar="PATH", default=None,
                          help="repro-profile/1 document from "
                               "`repro profile --out` (image rewriting)")
    optimize.add_argument("--facts", metavar="PATH", default=None,
                          help="repro-facts/1 artifact from "
                               "`repro analyze --out` (image rewriting)")
    optimize.add_argument("--out", metavar="PATH", default=None,
                          help="output file: optimized repro-image/1 "
                               "(required for image rewriting; run it with "
                               "`repro run --image`) or repro-pins/1 pin "
                               "map with --placement (default stdout)")
    optimize.add_argument("--placement", action="store_true",
                          help="plan a placement pin map instead: run the "
                               "service image recorded, stitch the "
                               "cross-shard spans, and co-locate chatty "
                               "module pairs (`repro serve --pins FILE`)")
    optimize.add_argument("--shards", type=int, default=4, metavar="N",
                          help="with --placement: shards to plan for "
                               "(default 4)")
    optimize.add_argument("--requests", type=int, default=100, metavar="N",
                          help="with --placement: profiling workload size "
                               "(default 100)")
    optimize.add_argument("--seed", type=int, default=7, metavar="S",
                          help="with --placement: profiling workload seed "
                               "(default 7)")
    optimize.add_argument("--log", metavar="PATH", default=None,
                          help="also write the repro-fdo/1 decision log here")
    optimize.add_argument("--json", action="store_true",
                          help="print the repro-fdo/1 decision log instead "
                               "of the summary")
    optimize.add_argument("--min-site-calls", type=int, default=2, metavar="N",
                          help="observed calls before a site counts as hot "
                               "(default 2)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _BadInput as problem:
        print(f"{args.command}: {problem}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
