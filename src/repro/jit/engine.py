"""The JIT engine: compilation driver, block dispatch, deoptimization.

``install_jit(machine)`` verifies the image (or validates a supplied
``repro-facts/1`` artifact against it), compiles every verified
procedure's basic blocks, and installs itself on the machine.
``Machine.run`` and the scheduler's time slices then delegate to
:meth:`JitEngine.run_until` whenever the engine is *active* — no tracer
attached — and the engine direct-threads compiled blocks, falling back
to interpreter single-steps at every deoptimization point.  Meters,
memory, traffic, and statistics are bit-identical to the interpreter
at every observable boundary.
"""

from __future__ import annotations

import time

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
from repro.jit.calls import CallSite, make_fast_call, make_fast_return
from repro.jit.codecache import CodeCache
from repro.jit.compile import EVENT_VARS, CompilerContext, compile_procedure
from repro.jit.deopt import EngineStats, JitRefusal


class JitEngine:
    """Compiled-block execution for one machine."""

    def __init__(
        self,
        machine,
        facts: dict | None = None,
        hot_order: list[str] | None = None,
    ) -> None:
        self.machine = machine
        self.stats = EngineStats()
        #: Hot-first qualified procedure names (a profile's block order,
        #: e.g. from a repro-fdo/1 log): those procedures compile first,
        #: so the code cache's block dict is laid out hottest-first.
        self.hot_order = list(hot_order or ())
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
            analysis = analyze_image(image)
            if not analysis.ok:
                first = "; ".join(str(d) for d in analysis.report.errors[:3])
                raise JitRefusal(f"image fails static verification: {first}")
            doc = analysis.to_facts()
        self.facts = doc

        site_classes: dict = {}
        for proc in doc.get("procedures", ()):
            site_classes[(proc["module"], proc["name"])] = {
                site["offset"]: site["classification"]
                for site in proc.get("sites", ())
                if site.get("kind") == "call"
            }

        memory = machine.memory
        counter = machine.counter
        inline_memory = memory.size == MDS_WORDS and all(
            region.writable for region in memory.regions
        )
        if inline_memory:
            names = [""] * memory.size
            for region in memory.regions:
                names[region.base : region.limit] = [region.name] * region.size
        else:
            names = []

        def region_name(address: int) -> str:
            region = memory.region_of(address)
            return region.name if region is not None else ""

        module_gfs: dict = {}
        for (name, _inst), linked in image.instances.items():
            module_gfs.setdefault(name, []).append(linked.gf_address)

        fast_call = make_fast_call(machine, self.stats)
        fast_return = make_fast_return(machine, self.stats)

        self._ctx = CompilerContext(
            charge={event: counter.model.charge(event) for event in Event},
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
            fast_call=fast_call,
            fast_return=fast_return,
            make_site=CallSite,
        )
        self._ns = {
            "_ST": machine.stack,
            "_CTR": counter,
            "_CC": counter.counts,
            "_W": memory._words,
            "_TR": memory.traffic,
            "_NM": names,
            "_BKS": machine.banks,
            "_TT": TrapTransfer,
            "_ESO": EvalStackOverflow,
            "_HE": HeapExhausted,
            "_AMF": (AllocationError, MemoryFault),
            "_K_SO": TrapKind.STACK_OVERFLOW,
            "_K_RE": TrapKind.RESOURCE_EXHAUSTED,
            "_K_SF": TrapKind.STORAGE_FAULT,
            "_fc": fast_call,
            "_fr": fast_return,
        }
        for event, var in EVENT_VARS.items():
            self._ns[var] = event

        self.cache = CodeCache(machine.code)
        machine.on_epoch_bump(self.cache.invalidate)
        self._ensure_compiled()

    # -- compilation ----------------------------------------------------

    def _ensure_compiled(self) -> None:
        cache = self.cache
        if cache.ready:
            return
        begin = time.perf_counter()
        machine = self.machine
        image = machine.image
        raw = image.code.raw
        blocks: dict = {}
        procedures = 0
        worklist = []
        for (_name, inst), linked in sorted(image.instances.items()):
            if inst != 0:
                continue
            for procedure in linked.module.procedures:
                entry = linked.code_base + procedure.entry_offset
                meta = image.procs_by_entry.get(entry)
                if meta is None:
                    continue
                worklist.append((entry, procedure, meta))
        if self.hot_order:
            rank = {name: index for index, name in enumerate(self.hot_order)}
            cold = len(rank)
            worklist.sort(
                key=lambda item: rank.get(
                    f"{item[2].module}.{item[2].name}", cold
                )
            )
        for entry, procedure, meta in worklist:
            base = entry + 1
            body = raw[base : base + len(procedure.body)]
            out = compile_procedure(
                meta, body, base, machine, self._ctx, self._ns
            )
            if out:
                blocks.update(out)
                procedures += 1
        cache.blocks.clear()
        cache.blocks.update(blocks)
        cache.ready = True
        cache.epoch = machine.code.epoch
        cache.procedures = procedures
        cache.compiled_blocks += len(blocks)
        cache.compile_seconds += time.perf_counter() - begin

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
        the rest of the way.
        """
        m = self.machine
        cache = self.cache
        blocks = cache.blocks
        code = m.code
        stats = self.stats

        while not m.halted:
            if m.steps >= ceiling:
                return True
            if m._code_epoch != code.epoch:
                m.invalidate_linkage()  # notifies the code cache too
            if not cache.ready:
                self._ensure_compiled()
            if not self.active():
                # An observer was attached mid-run (a trap handler
                # enabling tracing): hand the rest to the interpreter.
                stats.observer_bailouts += 1
                return m._interpret(ceiling)
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

    def _interp_until_block(self, ceiling: int) -> None:
        """Single-step the interpreter until a compiled block boundary,
        a halt, a yield, or the step ceiling.

        Steps at least once unless stopped first (a deopt pc may itself
        be a block start — the entry guard that failed would just fail
        again).
        """
        m = self.machine
        blocks = self.cache.blocks
        stats = self.stats
        while not (m.halted or m.yield_requested or m.steps >= ceiling):
            m.step()
            stats.deopt_steps += 1
            if m.pc in blocks:
                return

    def stats_dict(self) -> dict:
        """Cache + engine counters for benchmark tables."""
        out = self.cache.stats()
        out.update(self.stats.as_dict())
        out["hot_ordered"] = len(self.hot_order)
        return out


def install_jit(
    machine,
    facts: dict | None = None,
    hot_order: list[str] | None = None,
) -> JitEngine:
    """Verify, compile, and attach a JIT engine to *machine*.

    *hot_order* feeds a profile's hotness ranking into the compile
    queue (see ``docs/fdo.md``).  Raises :class:`JitRefusal` when the
    image fails static verification or the supplied facts artifact does
    not match it.
    """
    engine = JitEngine(machine, facts, hot_order=hot_order)
    machine.engine = engine
    return engine
