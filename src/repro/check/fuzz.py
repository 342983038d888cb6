"""Differential fuzzing: the verifier's verdict against the machine's.

The property under test is a dichotomy.  For an image built from a
corpus program and then mutated:

* if :func:`~repro.check.checker.check_image` passes it with **no
  errors and no dynamic-op notes**, then running it must not raise any
  of the fault classes the verifier claims to exclude
  (:data:`VERIFIED_FAULTS`: decode faults, eval-stack under/overflow,
  linkage-table faults, frame-size faults, bad transfer contexts);
* otherwise the mutant was rejected statically — offset-precise — and
  anything may happen at runtime.

Bodies containing ``XF``/``ALOC``/``FREE`` are excluded from the first
arm (the NOTE diagnostics mark them) because their faults depend on
run-time data the verifier cannot see.

Besides the random byte-flip campaign, :data:`DEFECT_INJECTIONS` builds
one representative mutant per defect class — stack underflow, bad LV
index, bad GFT index, bad fsi, jump into the middle of an instruction —
so tests can assert each is caught statically with a precise location.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import (
    DecodeError,
    EvalStackOverflow,
    EvalStackUnderflow,
    FrameSizeError,
    InvalidContext,
    LinkError,
    ReproError,
    StepLimitExceeded,
    TrapError,
)
from repro.interp.image import ProgramImage
from repro.interp.machine import Machine
from repro.interp.machineconfig import MachineConfig
from repro.isa.opcodes import Op
from repro.lang.compiler import CompileOptions, compile_program
from repro.lang.linker import link
from repro.mesa.descriptor import MAX_ENV, pack_descriptor

from repro.check.checker import check_image
from repro.check.diagnostics import CheckReport

#: Fault classes a clean verification (with no dynamic-op notes)
#: promises the machine will not raise.
VERIFIED_FAULTS = (
    DecodeError,
    EvalStackUnderflow,
    EvalStackOverflow,
    LinkError,
    FrameSizeError,
    InvalidContext,
    TrapError,
)

#: Check ids marking data-dependent instructions; a report containing
#: any of these is outside the dichotomy's first arm.
DYNAMIC_NOTE_CHECKS = ("dynamic-transfer", "dynamic-frame")


def build_image(
    sources: tuple[str, ...] | list[str],
    entry: tuple[str, str],
    preset: str = "i2",
) -> ProgramImage:
    """Compile and link a fresh image (one per mutant — images are cheap
    and mutation must never leak into the next trial)."""
    config = MachineConfig.preset(preset)
    modules = compile_program(list(sources), CompileOptions.for_config(config))
    return link(modules, config, entry)


def execute(image: ProgramImage, args: tuple[int, ...] = (), max_steps: int = 200_000) -> str:
    """Run the image's entry; classify the outcome.

    Returns ``"ok"``, ``"step-limit"``, ``"fault:<Name>"`` for a
    verified fault class, or ``"other:<Name>"`` for faults outside the
    verifier's contract (e.g. a data-dependent memory fault).
    """
    machine = Machine(image)
    try:
        machine.start(None, None, *args)
        machine.run(max_steps)
    except VERIFIED_FAULTS as fault:
        return f"fault:{type(fault).__name__}"
    except StepLimitExceeded:
        return "step-limit"
    except ReproError as fault:
        return f"other:{type(fault).__name__}"
    return "ok"


def has_dynamic_notes(report: CheckReport) -> bool:
    return any(report.by_check(check) for check in DYNAMIC_NOTE_CHECKS)


@dataclass
class FuzzTrial:
    """One mutant's paper trail."""

    label: str
    report: CheckReport
    #: Outcome string from :func:`execute`, or "" when the mutant was
    #: rejected statically (no run needed).
    outcome: str

    @property
    def violates_dichotomy(self) -> bool:
        """Statically clean, dynamically trapped — the property failure."""
        return (
            self.report.ok
            and not has_dynamic_notes(self.report)
            and self.outcome.startswith("fault:")
        )


def mutate_random_byte(image: ProgramImage, rng: random.Random) -> str:
    """Flip one code byte (body, EV word, fsi byte, or direct header)."""
    address = rng.randrange(image.code.size)
    old = image.code.buffer[address]
    new = rng.randrange(256)
    while new == old:
        new = rng.randrange(256)
    image.code.buffer[address] = new
    image.code.epoch += 1
    return f"code[{address:#06x}]: {old:#04x} -> {new:#04x}"


def run_campaign(
    sources: tuple[str, ...] | list[str],
    entry: tuple[str, str],
    args: tuple[int, ...] = (),
    preset: str = "i2",
    trials: int = 40,
    seed: int = 0,
    max_steps: int = 200_000,
) -> list[FuzzTrial]:
    """Mutate the program *trials* times; check, then run the clean ones."""
    rng = random.Random(seed)
    results: list[FuzzTrial] = []
    for _ in range(trials):
        image = build_image(sources, entry, preset)
        label = mutate_random_byte(image, rng)
        report = check_image(image)
        outcome = ""
        if report.ok and not has_dynamic_notes(report):
            outcome = execute(image, args, max_steps)
        results.append(FuzzTrial(label=label, report=report, outcome=outcome))
    return results


# -- targeted defect injection ---------------------------------------------------
#
# Each injector mutates the image in place to plant one defect of its
# class, returning True when it found an applicable site.  The paired
# check id is what check_image must report for the mutant.


def _decoded_bodies(image: ProgramImage):
    """Yield ``(linked, procedure, body_base_address, decoded items)``."""
    from repro.isa.disassembler import disassemble

    raw = image.code.raw
    for (_name, instance), linked in sorted(image.instances.items()):
        if instance:
            continue
        for procedure in linked.module.procedures:
            start = linked.code_base + procedure.entry_offset + 1
            body = raw[start : start + len(procedure.body)]
            try:
                items = disassemble(body)
            except DecodeError:
                continue
            yield linked, procedure, start, items


def inject_stack_underflow(image: ProgramImage) -> bool:
    """Plant an instruction that pops below a provably-zero stack depth.

    Two sites guarantee depth zero without dataflow: the first
    instruction of a procedure entered with an empty stack (ADD there
    pops two from nothing), and the final RET of a zero-result procedure
    (POP there pops one from nothing).  Both replacements are one byte
    for one byte, so the rest of the body decodes unchanged and the
    diagnostic is exactly ``stack-underflow``.
    """
    from repro.interp.machineconfig import ArgConvention

    copy = image.config.arg_convention is ArgConvention.COPY
    for _linked, procedure, start, items in _decoded_bodies(image):
        entry_depth = procedure.arg_count if copy else 0
        if entry_depth == 0 and items[0].length == 1:
            image.code.buffer[start] = int(Op.ADD)
            image.code.epoch += 1
            return True
        last = items[-1]
        if procedure.result_count == 0 and last.instruction.op is Op.RET:
            image.code.buffer[start + last.offset] = int(Op.POP)
            image.code.epoch += 1
            return True
    return False


def inject_bad_lv_index(image: ProgramImage) -> bool:
    """Retarget an external call at a link-vector slot past the imports."""
    hot = {Op[f"EFC{i}"] for i in range(8)}
    for linked, _procedure, start, items in _decoded_bodies(image):
        if len(linked.module.imports) >= 8:
            continue
        for item in items:
            if item.instruction.op in hot:
                image.code.buffer[start + item.offset] = int(Op.EFC7)
                image.code.epoch += 1
                return True
    return False


def inject_bad_gft_index(image: ProgramImage) -> bool:
    """Poke a link-vector word to a descriptor with an absurd env field."""
    if image.gft is None:
        return False
    for (_name, instance), linked in sorted(image.instances.items()):
        if instance or not linked.module.imports:
            continue
        image.memory.poke(linked.lv_base, pack_descriptor(MAX_ENV, 0))
        return True
    return False


def inject_bad_fsi(image: ProgramImage) -> bool:
    """Stamp an fsi byte far past the allocation vector's ladder."""
    meta = image.entry
    image.code.buffer[meta.entry_address] = 0xEE
    image.code.epoch += 1
    return True


def inject_jump_into_instruction(image: ProgramImage) -> bool:
    """Re-aim a jump displacement at an operand byte of a wide instruction."""
    from repro.isa.disassembler import disassemble
    from repro.isa.opcodes import OperandKind, OPERAND_KINDS

    for (_name, instance), linked in sorted(image.instances.items()):
        if instance:
            continue
        for procedure in linked.module.procedures:
            start = linked.code_base + procedure.entry_offset + 1
            body = image.code.raw[start : start + len(procedure.body)]
            try:
                items = disassemble(body)
            except DecodeError:
                continue
            wide = [item for item in items if item.length > 1]
            for item in items:
                if OPERAND_KINDS[item.instruction.op] is not OperandKind.S8:
                    continue
                if item.target() is None:
                    continue
                after = item.offset + item.length
                for victim in wide:
                    displacement = victim.offset + 1 - after
                    if -128 <= displacement <= 127:
                        image.code.buffer[start + item.offset + 1] = displacement & 0xFF
                        image.code.epoch += 1
                        return True
    return False


#: (defect label, check id ``check_image`` must report, injector).
DEFECT_INJECTIONS = [
    ("stack underflow", "stack-underflow", inject_stack_underflow),
    ("bad LV index", "lv-index", inject_bad_lv_index),
    ("bad GFT index", "gft-index", inject_bad_gft_index),
    ("bad fsi", "fsi-range", inject_bad_fsi),
    ("jump into mid-instruction", "jump-into-instruction", inject_jump_into_instruction),
]


# -- analyzer-targeted defect injection ------------------------------------------
#
# Same contract as DEFECT_INJECTIONS, but the verdict comes from
# :func:`repro.check.interproc.analyze_image`: each defect either lies
# to the analyzer about a procedure's transfer behaviour (compiler
# metadata tamper) or under-declares a frame so the facts gate must
# refuse to emit.  Tests assert the paired check id appears AND that
# ``ImageAnalysis.to_facts`` raises — a lying image gets no facts.


def inject_hidden_indirect_callee(image: ProgramImage) -> bool:
    """Declare ``performs_xfer=False`` on a body that contains XF.

    The classic FDO footgun: a procedure whose indirect callees vanish
    from the call graph because the compiler's summary says it never
    transfers.  The analyzer must catch the lie by scanning the
    bytecode (check id ``undeclared-xfer``).
    """
    for _linked, procedure, _start, items in _decoded_bodies(image):
        if any(item.instruction.op is Op.XF for item in items):
            procedure.performs_xfer = False
            return True
    return False


def inject_hidden_context_capture(image: ProgramImage) -> bool:
    """Declare ``captures_context=False`` on a body using LLC/LRC.

    A frame that escapes through an undeclared capture can be XFERed
    into behind the analyzer's back, so the resumable set would be
    under-approximated (check id ``undeclared-capture``).
    """
    for _linked, procedure, _start, items in _decoded_bodies(image):
        if any(item.instruction.op in (Op.LLC, Op.LRC) for item in items):
            procedure.captures_context = False
            return True
    return False


def inject_underdeclared_frame(image: ProgramImage) -> bool:
    """Stamp an entry fsi byte to a ladder class smaller than the frame.

    The frame-size bounds in the facts are computed from the fsi bytes;
    an under-declared frame would make them optimistic, so the base
    check (``fsi-too-small``) must fail the image before facts exist.
    """
    for _linked, procedure, start, _items in _decoded_bodies(image):
        if image.ladder.size_of(0) < procedure.frame_words:
            image.code.buffer[start - 1] = 0  # fsi byte precedes the body
            image.code.epoch += 1
            return True
    return False


#: (defect label, check id ``analyze_image`` must report, injector).
ANALYZER_DEFECT_INJECTIONS = [
    ("hidden indirect callee", "undeclared-xfer", inject_hidden_indirect_callee),
    ("hidden context capture", "undeclared-capture", inject_hidden_context_capture),
    ("under-declared frame size", "fsi-too-small", inject_underdeclared_frame),
]


# -- FDO-targeted defect injection -----------------------------------------------
#
# Same contract again, but the subject is an image the feedback-directed
# optimizer rewrote (promoted DFC/SDFC sites with section 6 headers,
# retuned fsi bytes).  Each injector plants the defect a buggy rewriter
# would introduce; check_image must refuse the image — which is exactly
# the gate `repro optimize` runs before emitting, so a caught injection
# here proves a buggy rewrite cannot ship.


def build_optimized_image(
    sources: tuple[str, ...] | list[str],
    entry: tuple[str, str],
    preset: str = "i2",
    args: tuple[int, ...] = (),
) -> ProgramImage:
    """An image rewritten by the FDO pipeline (fresh per mutant)."""
    from repro.check.interproc import analyze_image
    from repro.fdo import collect_profile, optimize

    profile = collect_profile(list(sources), preset, entry, tuple(args))
    facts = analyze_image(build_image(sources, entry, preset)).to_facts()
    result = optimize(list(sources), preset, entry, profile, facts)
    return result.build().image


def inject_bad_direct_header(image: ProgramImage) -> bool:
    """Corrupt the inline GF word of a promoted DIRECTCALL header.

    A rewriter that emits the header but patches the wrong GF would send
    every promoted call into a foreign global frame; the checker must
    hold the header word to the owning instance's GF
    (check id ``direct-header-gf``).
    """
    for (_name, instance), linked in sorted(image.instances.items()):
        if instance:
            continue
        for procedure in linked.module.procedures:
            if procedure.direct_offset < 0:
                continue
            address = linked.code_base + procedure.direct_offset
            image.code.buffer[address] ^= 0x5A
            image.code.epoch += 1
            return True
    return False


def inject_promoted_target_into_body(image: ProgramImage) -> bool:
    """Re-aim a promoted DFC/SDFC one byte off its header.

    The early-bound address is the whole point of promotion; an
    off-by-one leaves it pointing into the header's interior, which is
    not any procedure's DIRECTCALL header (check id ``direct-target``).
    """
    for _linked, _procedure, start, items in _decoded_bodies(image):
        for item in items:
            if item.instruction.op in (Op.DFC, Op.SDFC):
                operand_end = start + item.offset + item.length - 1
                image.code.buffer[operand_end] ^= 0x01
                image.code.epoch += 1
                return True
    return False


def inject_fsi_below_observed(image: ProgramImage) -> bool:
    """Stamp a promoted procedure's fsi under its frame need.

    Models a frame-retuning decision taken below the observed maximum
    frame size: the linker refuses such overrides (LinkError), so the
    only way the image can exist is a tampered rewrite — and the base
    check must still catch it (check id ``fsi-too-small``).
    """
    for _linked, procedure, start, _items in _decoded_bodies(image):
        if procedure.direct_offset < 0:
            continue
        if image.ladder.size_of(0) < procedure.frame_words:
            image.code.buffer[start - 1] = 0  # fsi byte precedes the body
            image.code.epoch += 1
            return True
    return False


#: (defect label, check id ``check_image`` must report, injector);
#: subjects come from :func:`build_optimized_image`.
FDO_DEFECT_INJECTIONS = [
    ("promoted header wrong GF", "direct-header-gf", inject_bad_direct_header),
    ("promoted call into header interior", "direct-target",
     inject_promoted_target_into_body),
    ("fsi under observed frame", "fsi-too-small", inject_fsi_below_observed),
]
