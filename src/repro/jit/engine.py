"""The JIT engine: compilation driver, block dispatch, deoptimization.

``install_jit(machine)`` verifies the image (:func:`verified_facts`) or
validates a supplied ``repro-facts/1`` artifact against it, and
installs itself on the machine, compiling nothing; each verified
procedure compiles the first time execution reaches its body.
``Machine.run`` and the scheduler's time slices then delegate to
:meth:`JitEngine.run_until` whenever the engine is *active* — no tracer
attached — and the engine direct-threads compiled blocks, falling back
to interpreter single-steps at every deoptimization point.  Meters,
memory, traffic, and statistics are bit-identical to the interpreter
at every observable boundary.

Seeding a call cell rebuilds the cell's block as a superblock when its
callee is straight-line code up to its ``RET``
(:meth:`JitEngine._splice`): the generator that emits every block,
:func:`~repro.jit.compile.gen_block`, runs over the plan under the nest
the cells' :class:`~repro.jit.calls.Fold` hands out, which may refuse
it.  Each block whose plan read a block that changed is planned again,
so callees splice into their callers bottom-up.

Compiled code counts its exits rather than charging them: each
distinct static charge vector (events and region traffic) has one slot
in the engine's exit table, and an exit bumps its slot's hit count.
:meth:`JitEngine.charge` turns the hits into meter charges, at every
exit from :meth:`JitEngine.run_until` and before
``Machine.attach_tracer`` binds an observer or a host trap handler
runs, so no charge is ever pending where anything can read it.
"""

from __future__ import annotations

import time
from itertools import compress

from repro.check.interproc import FACTS_SCHEMA, analyze_image, image_fingerprint
from repro.errors import (
    AllocationError,
    EvalStackOverflow,
    HeapExhausted,
    MemoryFault,
)
from repro.interp.traps import TrapKind, TrapTransfer
from repro.machine.costs import Event
from repro.machine.memory import MDS_WORDS

from repro.jit import templates as T
from repro.jit.calls import CallSite, make_cells
from repro.jit.codecache import CodeCache
from repro.jit.compile import CompilerContext, compile_procedure, gen_block, plan_superblock
from repro.jit.deopt import EngineStats, JitRefusal


def verified_facts(image) -> dict:
    """Verify *image* once; return its ``repro-facts/1`` document.

    Raises :class:`JitRefusal` when the verifier has findings.  The
    document installs the JIT on any machine over an image that links
    the same way (``install_jit(machine, facts)``), which validates the
    fingerprint instead of verifying again.
    """
    analysis = analyze_image(image)
    if not analysis.ok:
        first = "; ".join(str(d) for d in analysis.report.errors[:3])
        raise JitRefusal(f"image fails static verification: {first}")
    return analysis.to_facts()


class JitEngine:
    """Compiled-block execution for one machine."""

    def __init__(self, machine, facts: dict | None = None) -> None:
        self.machine = machine
        self.stats = EngineStats()
        image = machine.image

        if facts is not None:
            schema = facts.get("schema")
            if schema != FACTS_SCHEMA:
                raise JitRefusal(
                    f"facts schema {schema!r}; this build consumes "
                    f"{FACTS_SCHEMA!r}"
                )
            expected = image_fingerprint(image)
            supplied = facts.get("image_hash")
            if supplied != expected:
                raise JitRefusal(
                    f"facts image_hash {supplied!r} does not match this image "
                    f"({expected!r}); re-run `repro analyze --out`"
                )
            doc = facts
        else:
            doc = verified_facts(image)
        self.facts = doc

        site_classes: dict = {}
        for proc in doc.get("procedures", ()):
            site_classes[(proc["module"], proc["name"])] = {
                site["offset"]: site["classification"]
                for site in proc.get("sites", ())
                if site.get("kind") == "call"
            }

        memory = machine.memory
        inline_memory = memory.size == MDS_WORDS

        def region_name(address: int) -> str:
            region = memory.region_of(address)
            return region.name if region is not None else ""

        module_gfs: dict = {}
        for (name, _inst), linked in image.instances.items():
            module_gfs.setdefault(name, []).append(linked.gf_address)

        #: The exit table: static charge vector -> slot, each slot's
        #: ``(events, traffic)``, and each slot's pending hits
        #: (``_H`` in compiled code; zero outside :meth:`run_until`).
        self._slots: dict = {}
        self._vectors: list = []
        self._hits: list[int] = []
        self._ctx = CompilerContext(
            exit_slot=self.exit_slot,
            depth=machine.stack.depth,
            banked=machine.banks is not None,
            bank_words=(
                machine.bankfile.bank_words if machine.banks is not None else 0
            ),
            tails=T.tail_ops(machine.config),
            inline_memory=inline_memory,
            frames_name=image.frame_region.name,
            region_name=region_name,
            module_gfs=module_gfs,
            site_classes=site_classes,
            make_site=CallSite,
            on_seed=self._on_seed,
        )
        #: The call and return cells are built with the first compile.
        self._cells_built = False
        self._ns = {
            "_ST": machine.stack,
            "_H": self._hits,
            "_W": memory._words,
            # RD/WR's dynamic traffic, attributed through the memory's
            # own region index exactly as Memory.read/write do, so they
            # see regions added after install.
            "_TR": memory.traffic,
            "_IX": memory._index,
            "_RN": memory._names,
            "_BKS": machine.banks,
            "_TT": TrapTransfer,
            "_ESO": EvalStackOverflow,
            "_HE": HeapExhausted,
            "_AMF": (AllocationError, MemoryFault),
            "_K_SO": TrapKind.STACK_OVERFLOW,
            "_K_RE": TrapKind.RESOURCE_EXHAUSTED,
            "_K_SF": TrapKind.STORAGE_FAULT,
        }
        self.cache = CodeCache()
        machine.on_epoch_bump(self.cache.invalidate)
        self._arm()

    # -- compilation ----------------------------------------------------

    def _arm(self) -> None:
        """Arm the cache for the current code epoch: every verified
        procedure's body start becomes pending."""
        cache = self.cache
        image = self.machine.image
        pending = cache.pending
        for (_name, inst), linked in sorted(image.instances.items()):
            if inst != 0:
                continue
            for procedure in linked.module.procedures:
                entry = linked.code_base + procedure.entry_offset
                meta = image.procs_by_entry.get(entry)
                if meta is not None:
                    pending[entry + 1] = (meta, len(procedure.body))
        cache.ready = True
        cache.procedures = 0

    def _compile(self, start: int) -> None:
        """Compile the pending procedure whose body starts at *start*.

        Tried once per epoch: a body that does not re-verify leaves the
        pending set all the same, and the interpreter runs it.
        """
        begin = time.perf_counter()
        if not self._cells_built:
            self._build_cells()
        cache = self.cache
        meta, length = cache.pending.pop(start)
        machine = self.machine
        body = bytes(machine.code.buffer[start : start + length])
        out = compile_procedure(meta, body, start, machine, self._ctx, self._ns)
        if out:
            cache.blocks.update(out)
            cache.procedures += 1
            cache.compiled_blocks += len(out)
        cache.compile_seconds += time.perf_counter() - begin
        if out and cache.dependents:
            # Superblocks that waited for this body to splice it.
            self._splice({
                dependent for block in out for dependent in cache.dependents.get(block, ())
            })

    def _build_cells(self) -> None:
        """Build the call and return cells the compiled blocks call.

        Their source is assembled and compiled once per process (see
        :func:`~repro.jit.calls.make_cells`) and runs in the blocks'
        namespace, so like the blocks they wait for the first compile:
        an install compiles nothing.
        """
        ctx = self._ctx
        ctx.fast_call, ctx.fast_return, ctx.fold = make_cells(
            self.machine, ctx, self._ns, self.stats
        )
        if ctx.fold is not None:
            ctx.specs = self.cache.specs
        self._cells_built = True

    # -- superblocks ----------------------------------------------------

    def _on_seed(self, site, gf: int) -> None:
        """A cell was seeded: a monomorphic site's block may splice it."""
        if site.monomorphic and self._ctx.fold is not None:
            self._splice({site.start})

    def _splice(self, todo: set) -> None:
        """(Re)build the superblock at each block start of *todo*, then
        at each block whose plan read a block that changed, so callees
        splice bottom-up.

        Only a module with one instance splices its blocks: a block runs
        under every instance's gf, and a superblock under one gf would
        send the others through its entry fallback.  The unspliced block
        stays compiled as that fallback.  A plan that splices nothing
        new leaves the block as it is.
        """
        cache = self.cache
        ctx = self._ctx
        while todo:
            start = todo.pop()
            found = ctx.specs.get(start)
            gfs = ctx.module_gfs.get(found[1].module, ()) if found else ()
            if len(gfs) != 1:
                continue
            gf = gfs[0]
            begin = time.perf_counter()
            parts, consulted = plan_superblock(start, gf, ctx)
            for block in consulted:
                cache.dependents.setdefault(block, set()).add(start)
            shape = _shape(parts)
            built = None
            if shape and shape != cache.shapes.get(start):
                plain = cache.plain.setdefault(start, cache.blocks[start])
                ns = dict(self._ns, _fb=plain[0], _ES=self.stats)
                meta = parts[0][1]
                out = gen_block(parts, ctx, ns, self.machine, "", ctx.fold.nest(gf, meta))
                if out is not None:
                    name, lines, steps = out
                    exec(compile("\n".join(lines), f"<jit {meta.module}.{meta.name}>", "exec"), ns)
                    built = (ns[name], steps)
            cache.compile_seconds += time.perf_counter() - begin
            if built is None:
                continue
            cache.shapes[start] = shape
            cache.blocks[start] = built
            self.stats.superblocks += 1
            todo |= cache.dependents.get(start, set()) - {start}

    # -- the exit table -------------------------------------------------

    def exit_slot(self, events: dict, traffic: dict) -> int | None:
        """The exit-table slot of one static charge vector, interned
        once; None when the vector charges nothing."""
        events = tuple((event, events[event]) for event in Event if events.get(event))
        traffic = tuple(sorted(traffic.items()))
        if not events and not traffic:
            return None
        key = (events, traffic)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = len(self._vectors)
            self._vectors.append(key)
            self._hits.append(0)
        return slot

    def charge(self) -> None:
        """Charge every pending exit hit to the meters and zero it.

        Hits × vector go to ``counter.counts`` and ``memory.traffic``
        (the counter derives the cycles).  Charges are additive, so
        charging late leaves the meters exactly where charging at each
        exit would.
        """
        hits = self._hits
        vectors = self._vectors
        machine = self.machine
        counts = machine.counter.counts
        traffic = machine.memory.traffic
        for slot in compress(range(len(hits)), hits):
            times = hits[slot]
            hits[slot] = 0
            events, regions = vectors[slot]
            for event, n in events:
                counts[event] += n * times
            for region, n in regions:
                traffic[region] = traffic.get(region, 0) + n * times

    # -- execution ------------------------------------------------------

    def active(self) -> bool:
        """Compiled execution is only legal with no observer attached."""
        return self.machine.tracer is None

    def run_until(self, ceiling: int) -> bool:
        """Run compiled blocks until HALT, a yield, or ``steps`` reaches
        *ceiling*; True when it stopped at the budget.

        The contract of ``Machine._run_until``, which delegates here
        while the engine is active: a block runs only if all of its
        steps fit under the ceiling, and the interpreter single-steps
        the rest of the way.  Every exit, a raised trap included,
        charges the exits' pending hits (:meth:`charge`).
        """
        m = self.machine
        cache = self.cache
        blocks = cache.blocks
        pending = cache.pending
        code = m.code
        stats = self.stats

        try:
            while not m.halted:
                if m.steps >= ceiling:
                    return True
                if m._code_epoch != code.epoch:
                    m.invalidate_linkage()  # notifies the code cache too
                if not cache.ready:
                    self._arm()
                if not self.active():
                    # An observer was attached mid-run (a trap handler
                    # enabling tracing; attach_tracer charged the pending
                    # hits): hand the rest to the interpreter.
                    stats.observer_bailouts += 1
                    return m._interpret(ceiling)
                pair = blocks.get(m.pc)
                if pair is None and m.pc in pending:
                    self._compile(m.pc)  # first entry into this body
                    pair = blocks.get(m.pc)
                if pair is None or m.steps + pair[1] > ceiling:
                    self._interp_until_block(ceiling)
                else:
                    fn = pair[0]
                    result = fn(m)
                    while result >= 0:
                        pair = blocks.get(result)
                        if pair is None or m.steps + pair[1] > ceiling:
                            break
                        result = pair[0](m)
                    if result == -2:
                        stats.deopts += 1
                        self._interp_until_block(ceiling)
                if m.yield_requested:
                    break
            return False
        finally:
            self.charge()

    def _interp_until_block(self, ceiling: int) -> None:
        """Single-step the interpreter until a compiled block boundary or
        a pending body start, a halt, a yield, or the step ceiling.

        Steps at least once unless stopped first (a deopt pc may itself
        be a block start — the entry guard that failed would just fail
        again).
        """
        m = self.machine
        blocks = self.cache.blocks
        pending = self.cache.pending
        stats = self.stats
        while not (m.halted or m.yield_requested or m.steps >= ceiling):
            m.step()
            stats.deopt_steps += 1
            if m.pc in blocks or m.pc in pending:
                return

    def stats_dict(self) -> dict:
        """Cache + engine counters for benchmark tables."""
        out = self.cache.stats()
        out.update(self.stats.as_dict())
        out["exit_slots"] = len(self._vectors)
        return out


def _shape(parts: list) -> tuple:
    """The cells a superblock plan splices, nested as it nests them."""
    return tuple(
        (id(part.cell), _shape(part.body)) for part in parts if not isinstance(part, tuple)
    )


def install_jit(machine, facts: dict | None = None) -> JitEngine:
    """Verify *machine*'s image and attach a JIT engine to it.

    Procedures compile on first entry.  Raises :class:`JitRefusal` when
    the image fails static verification or the supplied facts artifact
    does not match it.
    """
    engine = JitEngine(machine, facts)
    machine.engine = engine
    return engine
