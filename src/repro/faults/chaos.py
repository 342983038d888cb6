"""The chaos conformance harness: seeded fault plans across I1-I4.

The paper's central promise is that I1-I4 are four implementations of
*one* machine: same programs, same answers, different costs.  That
promise must also hold under duress — an exhausted arena, a drained
free list, a flush storm, an injected trap, a kill-and-restore, or a
wire that drops, duplicates and delays Remote XFER frames — or the
ladder's differential measurements mean nothing.  This harness replays
seeded :class:`~repro.faults.plan.FaultPlan` schedules on every
implementation and classifies each run:

``RECOVERED``
    The run absorbed the fault and finished with the program's
    expected results (the section 5.3 software allocator refilled a
    drained list; the section 7.1 fallback flushed and refilled; the
    retry discipline re-sent a dropped call).
``TRAPPED``
    The run surfaced a modelled trap cleanly — a
    :class:`~repro.errors.TrapError` with exact (kind, pc, proc)
    diagnostics, or off the wire a named trap with a detail that says
    what was lost — never a host exception from inside the interpreter.
``RESUMED``
    The machine was killed after a snapshot, restored onto a freshly
    linked image, and finished with expected results and modelled
    meters **bit-identical** to an uninterrupted reference run.

One case loop (:func:`sweep`) and one check (:func:`_check_case`)
serve every sweep: the machine sweep here (:func:`run_chaos`) and the
transport-fault sweeps of :mod:`repro.net.chaos` (in-process, over OS
workers, and racing a migration).  For every case all implementations
must land in the same outcome class (and on the same trap kind when
TRAPPED).  PCs and procedure names are asserted *valid* per
implementation, not equal across them — the four encodings place
instructions differently by design.
"""

from __future__ import annotations

import enum
import random
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

from repro.errors import StepLimitExceeded, TrapError
from repro.faults.inject import apply_state_action, firing_schedule
from repro.faults.plan import FaultPlan, Injection, at_step, on_event
from repro.faults.snapshot import capture, restore
from repro.interp.machine import Machine
from repro.interp.machineconfig import MachineConfig
from repro.interp.traps import TrapKind, TrapTransfer
from repro.lang.compiler import CompileOptions, compile_program
from repro.lang.linker import link
from repro.obs.tracer import TraceRecorder
from repro.workloads.programs import CORPUS, Program

#: The report format versions (see docs/faults.md for the policy): one
#: for machine-fault sweeps, one for transport-fault sweeps.
CHAOS_SCHEMA = "repro-chaos/1"
NET_CHAOS_SCHEMA = "repro-net-chaos/1"

#: Implementations under conformance test.
ALL_PRESETS = ("i1", "i2", "i3", "i4")

#: Default corpus subset: recursive programs stress the allocators and
#: the return stack; calls/mathlib stress linkage under flush storms.
DEFAULT_PROGRAMS = ("fib", "calls", "queens", "mathlib", "ackermann")

#: Restore attempts per case before declaring the plan divergent.
MAX_RESTORES = 3

#: Plans that only make sense where recursion forces every
#: implementation (including I4's deferred allocation) into the heap.
_RECURSIVE = frozenset({"fib", "ackermann", "queens"})


class OutcomeClass(enum.Enum):
    RECOVERED = "recovered"
    TRAPPED = "trapped"
    RESUMED = "resumed"


@dataclass
class Outcome:
    """How one (program, implementation, plan) run ended; a cluster run
    also records its pump ticks and wire stats, and meters per shard."""

    klass: OutcomeClass
    trap: str = ""
    pc: int = -1
    proc: str = ""
    detail: str = ""
    results: list[int] = field(default_factory=list)
    output: list[int] = field(default_factory=list)
    steps: int = 0
    meters: dict = field(default_factory=dict)
    restores: int = 0
    injections_fired: int = 0
    ticks: int = 0
    wire: dict = field(default_factory=dict)
    #: The JIT's counts (:data:`ENGINE_COUNTS`) summed over every machine
    #: the case built, a restored one included; empty on the interpreter.
    #: In-process only: the report does not carry them.
    engine_counts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "class": self.klass.value,
            "trap": self.trap,
            "pc": self.pc,
            "proc": self.proc,
            "detail": self.detail,
            "results": list(self.results),
            "steps": self.steps,
            "restores": self.restores,
            "injections_fired": self.injections_fired,
            "ticks": self.ticks,
            "wire": dict(self.wire),
        }


#: The :class:`~repro.jit.deopt.EngineStats` counts an outcome carries.
ENGINE_COUNTS = ("superblocks", "entry_fallbacks", "deopts", "cells_built")


def _engine_counts(machines: list[Machine]) -> dict:
    """:data:`ENGINE_COUNTS` summed over the JIT engines of *machines*."""
    engines = [machine.engine for machine in machines if machine.engine is not None]
    if not engines:
        return {}
    return {
        key: sum(getattr(engine.stats, key) for engine in engines) for key in ENGINE_COUNTS
    }


class ChaosError(Exception):
    """The harness itself is misconfigured (not a conformance failure)."""


# ---------------------------------------------------------------------------
# Building machines and reference runs
# ---------------------------------------------------------------------------


def _build(program: Program, preset: str, engine: str = "interp") -> Machine:
    config = MachineConfig.preset(preset)
    modules = compile_program(list(program.sources), CompileOptions.for_config(config))
    image = link(modules, config, program.entry)
    machine = Machine(image)
    if engine == "jit":
        from repro.jit import install_jit

        install_jit(machine)
    return machine


@dataclass
class Reference:
    """An uninterrupted run of (program, preset): the oracle, and the
    ``(kind, step)`` stamp of every event it emitted, in order, which
    fault triggers resolve against."""

    results: list[int]
    output: list[int]
    steps: int
    meters: dict
    stamps: list[tuple[str, int]]


def _run_to(machine: Machine, step: int | None = None) -> None:
    """Run *machine* until it halts or, given *step*, until ``steps``
    reaches it.

    No scheduler rides a chaos run, so a ``YIELD`` has no other process
    to switch to: the run carries on at once, as a scheduler with one
    ready process would resume it (``Machine.run`` alone returns at the
    yield).  Running to the end past the step limit raises
    :class:`~repro.errors.StepLimitExceeded`, as ``Machine.run`` does.
    """
    limit = machine.config.step_limit
    ceiling = limit if step is None else min(step, limit)
    while not machine._run_until(ceiling) and machine.yield_requested and not machine.halted:
        machine.yield_requested = False
    if step is None and not machine.halted and machine.steps >= limit:
        raise StepLimitExceeded(limit)


def reference_run(program: Program, preset: str) -> Reference:
    """Run *program* on *preset* with no faults; record the oracle."""
    machine = _build(program, preset)
    recorder = TraceRecorder(capacity=None)
    machine.attach_tracer(recorder)
    machine.start(program.entry[0], program.entry[1], *program.args)
    _run_to(machine)
    results = machine.results()
    return Reference(
        results=results,
        output=list(machine.output),
        steps=machine.steps,
        meters=machine.counter.snapshot(),
        stamps=[(event.kind, event.steps) for event in recorder],
    )


# ---------------------------------------------------------------------------
# Canned plan generators
# ---------------------------------------------------------------------------
#
# Each generator gets the program, the references of the presets the
# plan applies to (for sizing triggers so they fire on every one of
# them), and a seeded RNG; it returns a FaultPlan, or None when the plan
# does not apply to this program (e.g. too few allocations to target).


def _min_event(refs: dict[str, Reference], kind: str) -> int:
    return min(
        sum(1 for stamped, _step in ref.stamps if stamped == kind)
        for ref in refs.values()
    )


def _min_steps(refs: dict[str, Reference]) -> int:
    return min(ref.steps for ref in refs.values())


def _plan_av_empty(program, refs, rng) -> FaultPlan | None:
    """Drain every AV free list on the k-th allocation; the next one
    takes the section 5.3 software-allocator trap and the run recovers.
    It applies to the presets that allocate a frame (:data:`_APPLIES`):
    I4's deferred allocation gives a non-recursive program none."""
    ceiling = _min_event(refs, "alloc.frame")
    if ceiling < 1:
        return None
    k = rng.randint(1, ceiling)
    return FaultPlan(
        name="av_empty",
        seed=0,
        injections=(Injection(on_event("alloc.frame", k), "drain_av"),),
    )


def _plan_heap_exhaust(program, refs, rng) -> FaultPlan | None:
    """Empty the frame arena at machine start; the first allocation must
    surface RESOURCE_EXHAUSTED on every implementation.

    Fires on ``machine.begin`` (not a mid-run step) because frees refill
    free lists: exhausting mid-run lets a free/allocate interleaving —
    which legitimately differs between implementations — decide whether
    the next allocation traps, and the outcome class would diverge.
    Only recursive programs apply: they call before they ever free, on
    every rung of the ladder including I4's deferred allocation.
    """
    if program.name not in _RECURSIVE:
        return None
    return FaultPlan(
        name="heap_exhaust",
        seed=0,
        injections=(Injection(on_event("machine.begin", 1), "exhaust_heap"),),
    )


def _plan_spill_storm(program, refs, rng) -> FaultPlan | None:
    """Force return-stack and bank flushes at three seeded call points;
    I3/I4 must fall back to the general scheme and still finish right
    (on I1/I2 the actions are no-ops and the run is undisturbed)."""
    calls = _min_event(refs, "xfer.call")
    if calls < 3:
        return None
    k = rng.randint(1, calls // 3)
    return FaultPlan(
        name="spill_storm",
        seed=0,
        injections=(
            Injection(on_event("xfer.call", k), "flush_rstack"),
            Injection(on_event("xfer.call", 2 * k), "flush_banks"),
            Injection(on_event("xfer.call", 3 * k), "flush_rstack"),
        ),
    )


def _plan_kill_resume(program, refs, rng) -> FaultPlan | None:
    """Snapshot at step S1, kill at step S2: the driver restores the
    snapshot onto a fresh image and the finished run must be
    bit-identical to the uninterrupted reference on all meters."""
    steps = _min_steps(refs)
    if steps < 10:
        return None
    s1 = rng.randint(1, steps // 2)
    s2 = rng.randint(s1 + 1, steps - 1)
    return FaultPlan(
        name="kill_resume",
        seed=0,
        injections=(
            Injection(at_step(s1), "snapshot"),
            Injection(at_step(s2), "kill"),
        ),
    )


def _plan_trap_inject(program, refs, rng) -> FaultPlan | None:
    """Dispatch a DIVIDE_BY_ZERO trap at a seeded step; with no trap
    context registered every implementation must surface the same
    TrapError kind with valid (pc, proc) diagnostics."""
    steps = _min_steps(refs)
    if steps < 2:
        return None
    s = rng.randint(1, steps - 1)
    return FaultPlan(
        name="trap_inject",
        seed=0,
        injections=(Injection(at_step(s), "trap", detail="divide_by_zero"),),
    )


#: The event a preset's reference must emit for a plan to apply there;
#: a plan not named applies on every preset.
_APPLIES = {"av_empty": "alloc.frame"}


def _applies(plan_name: str, reference: Reference) -> bool:
    kind = _APPLIES.get(plan_name)
    return kind is None or any(stamped == kind for stamped, _step in reference.stamps)


CANNED_PLANS = {
    "av_empty": _plan_av_empty,
    "heap_exhaust": _plan_heap_exhaust,
    "spill_storm": _plan_spill_storm,
    "kill_resume": _plan_kill_resume,
    "trap_inject": _plan_trap_inject,
}


def make_plan(
    name: str, program: Program, refs: dict[str, Reference], seed: int
) -> FaultPlan | None:
    """Instantiate canned plan *name* for *program*, seeded; None if it
    does not apply.  The same (name, program, seed) always yields the
    same plan — triggers are sized from the references, which are a
    pure function of program and preset."""
    rng = random.Random(f"{name}:{program.name}:{seed}")
    plan = CANNED_PLANS[name](program, refs, rng)
    if plan is None:
        return None
    return FaultPlan(name=plan.name, seed=seed, injections=plan.injections)


# ---------------------------------------------------------------------------
# Running one case
# ---------------------------------------------------------------------------


def run_case(
    program: Program,
    preset: str,
    plan: FaultPlan,
    reference: Reference,
    engine: str = "interp",
) -> Outcome:
    """Run *program* on *preset* under *plan*; classify the ending.

    Every machine injection fires between two instructions, at its step
    on *reference*, the preset's uninterrupted run
    (:func:`~repro.faults.inject.firing_schedule`): the machine runs to
    that step and the action is carried out there.  A state action
    applies in place; a snapshot captures the state vector beside the
    schedule position after it; a kill restores the last snapshot onto
    a freshly linked image, which fires again what came after the
    snapshot but never the kill; a trap is dispatched.  No tracer
    rides the run, so with ``engine="jit"`` compiled code runs up to
    and after every fault.
    """
    schedule = firing_schedule(plan, reference.stamps)
    machine = _build(program, preset, engine)
    machines = [machine]
    machine.start(program.entry[0], program.entry[1], *program.args)

    position = 0  # the next schedule entry to fire
    saved: tuple[dict, int] | None = None  # (machine state, position)
    restores = 0
    fired = 0

    try:
        while position < len(schedule):
            step, index, injection = schedule[position]
            _run_to(machine, step)
            if machine.halted:
                break
            position += 1
            fired += 1
            action = injection.action
            if action == "snapshot":
                saved = (capture(machine), position)
            elif action == "kill":
                if saved is None:
                    raise ChaosError(
                        f"plan {plan.name!r} kills at injection {index} "
                        f"with no prior snapshot"
                    )
                if restores >= MAX_RESTORES:
                    raise ChaosError(
                        f"plan {plan.name!r} exceeded {MAX_RESTORES} restores"
                    )
                del schedule[position - 1]  # the kill already happened
                machine_state, position = saved
                machine = _build(program, preset, engine)
                machines.append(machine)
                restore(machine, machine_state)
                restores += 1
            elif action == "trap":
                try:
                    machine.trap(TrapKind(injection.detail), "injected")
                except TrapTransfer:
                    pass
            else:
                apply_state_action(machine, action)
        _run_to(machine)
    except TrapError as err:
        return Outcome(
            klass=OutcomeClass.TRAPPED,
            trap=err.trap,
            pc=err.pc,
            proc=err.proc,
            detail=err.detail,
            steps=machine.steps,
            meters=machine.counter.snapshot(),
            restores=restores,
            injections_fired=fired,
            engine_counts=_engine_counts(machines),
        )
    return Outcome(
        klass=OutcomeClass.RESUMED if restores else OutcomeClass.RECOVERED,
        results=machine.results(),
        output=list(machine.output),
        steps=machine.steps,
        meters=machine.counter.snapshot(),
        restores=restores,
        injections_fired=fired,
        engine_counts=_engine_counts(machines),
    )


# ---------------------------------------------------------------------------
# The conformance sweep
# ---------------------------------------------------------------------------


@dataclass
class CaseResult:
    """One (program, seed, plan) cell: outcomes on every preset."""

    program: str
    seed: int
    plan: dict
    outcomes: dict[str, Outcome]
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "seed": self.seed,
            "plan": self.plan,
            "outcomes": {p: o.to_dict() for p, o in self.outcomes.items()},
            "failures": list(self.failures),
        }


@dataclass
class ChaosReport:
    """One sweep: cases, skips, and the conformance verdict.

    ``net`` marks a transport-fault sweep: its report carries the
    ``repro-net-chaos/1`` schema, and its traps come off the wire.
    """

    net: bool = False
    cases: list[CaseResult] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        # A sweep that ran no case has shown nothing.
        return bool(self.cases) and all(case.ok for case in self.cases)

    def to_dict(self) -> dict:
        return {
            "schema": NET_CHAOS_SCHEMA if self.net else CHAOS_SCHEMA,
            "ok": self.ok,
            "cases": [case.to_dict() for case in self.cases],
            "skipped": list(self.skipped),
        }

    def summary(self) -> str:
        lines = []
        failed = [case for case in self.cases if not case.ok]
        presets = {preset for case in self.cases for preset in case.outcomes}
        by_class: dict[str, int] = {}
        for case in self.cases:
            for outcome in case.outcomes.values():
                key = outcome.klass.value
                by_class[key] = by_class.get(key, 0) + 1
        lines.append(
            f"{'net chaos' if self.net else 'chaos'}: {len(self.cases)} cases "
            f"x {len(presets)} impls, "
            f"{len(self.skipped)} skipped (plan not applicable)"
        )
        lines.append(
            "outcomes: "
            + ", ".join(f"{k}={v}" for k, v in sorted(by_class.items()))
        )
        if not self.cases:
            lines.append("FAILED: no case ran")
        elif failed:
            lines.append(f"FAILED: {len(failed)} non-conformant cases")
            for case in failed[:10]:
                lines.append(
                    f"  {case.program} seed={case.seed} "
                    f"plan={case.plan['name']}: {'; '.join(case.failures)}"
                )
        else:
            lines.append("all implementations conformant")
        return "\n".join(lines)


def _check_case(
    program: Program, outcomes: dict[str, Outcome],
    refs: dict[str, Reference], net: bool,
) -> list[str]:
    """Conformance and per-outcome validity checks for one case.

    A machine trap must name its kind, pc and procedure; a trap off the
    wire (*net*) its kind and a detail, since a lost request has no pc.
    """
    failures: list[str] = []
    classes = {o.klass for o in outcomes.values()}
    if len(classes) > 1:
        failures.append(
            "outcome classes diverge: "
            + ", ".join(f"{p}={o.klass.value}" for p, o in sorted(outcomes.items()))
        )
        return failures

    klass = next(iter(classes))
    if klass is OutcomeClass.TRAPPED:
        kinds = {o.trap for o in outcomes.values()}
        if len(kinds) > 1:
            failures.append(f"trap kinds diverge: {sorted(kinds)}")
        for preset, outcome in outcomes.items():
            if net:
                if not outcome.trap:
                    failures.append(f"{preset}: trapped without a trap kind")
                if not outcome.detail:
                    failures.append(f"{preset}: trapped without diagnostics")
                continue
            if not outcome.trap:
                failures.append(f"{preset}: trapped without a kind")
            if outcome.pc < 0:
                failures.append(f"{preset}: trapped without a pc")
            if not outcome.proc:
                failures.append(f"{preset}: trapped without a procedure")
        return failures

    expected = list(program.expect_results)
    for preset, outcome in outcomes.items():
        if outcome.results != expected:
            failures.append(
                f"{preset}: recovered with results {outcome.results} "
                f"!= reference {expected}"
                if net
                else f"{preset}: results {outcome.results} != expected {expected}"
            )
        if program.expect_output and outcome.output != list(program.expect_output):
            failures.append(f"{preset}: output diverged from the program's")
    if klass is OutcomeClass.RESUMED:
        for preset, outcome in outcomes.items():
            if outcome.restores < 1:
                failures.append(f"{preset}: classed RESUMED without a restore")
            if outcome.meters != refs[preset].meters:
                delta = {
                    key: outcome.meters.get(key, 0) - refs[preset].meters.get(key, 0)
                    for key in set(outcome.meters) | set(refs[preset].meters)
                    if outcome.meters.get(key, 0) != refs[preset].meters.get(key, 0)
                }
                failures.append(
                    f"{preset}: meters diverged from uninterrupted run: {delta}"
                )
            if outcome.steps != refs[preset].steps:
                failures.append(
                    f"{preset}: steps {outcome.steps} != reference "
                    f"{refs[preset].steps}"
                )
    return failures


def sweep(
    report: ChaosReport,
    cases: Iterable[tuple[Program, int, FaultPlan, dict[str, Reference]]],
    presets: tuple[str, ...],
    run: Callable[[Program, str, FaultPlan], Outcome],
    rerun: bool = False,
    migrating: bool = False,
) -> ChaosReport:
    """Run each (program, seed, plan, refs) case and check it; the one
    case loop behind every chaos sweep.  A case runs on the presets its
    *refs* hold references for, and one without references (a transport
    sweep's) on every preset of *presets*.

    *rerun* runs each preset twice: a cluster's fault policy is a pure
    function of its send stream, so the per-shard meters must match.
    *migrating* marks cases that migrate their root mid-flight, which
    must recover.
    """
    for program, seed, plan, refs in cases:
        outcomes: dict[str, Outcome] = {}
        failures: list[str] = []
        for preset in tuple(refs) or presets:
            outcome = outcomes[preset] = run(program, preset, plan)
            if rerun and run(program, preset, plan).meters != outcome.meters:
                failures.append(
                    f"{preset}: per-shard meters differ between two seeded "
                    f"runs of the same {'migrated ' if migrating else ''}plan"
                )
            if migrating and outcome.klass is not OutcomeClass.RECOVERED:
                failures.append(
                    f"{preset}: migration case must recover, got "
                    f"{outcome.klass.value} ({outcome.trap}: {outcome.detail})"
                )
        failures += _check_case(program, outcomes, refs, report.net)
        report.cases.append(
            CaseResult(
                program=program.name,
                seed=seed,
                plan=plan.to_dict(),
                outcomes=outcomes,
                failures=failures,
            )
        )
    return report


def run_chaos(
    programs: tuple[str, ...] = DEFAULT_PROGRAMS,
    seeds: int | tuple[int, ...] = 5,
    plans: tuple[str, ...] = tuple(CANNED_PLANS),
    presets: tuple[str, ...] = ALL_PRESETS,
    engine: str = "interp",
) -> ChaosReport:
    """The machine sweep: programs x seeds x plans, each across the
    *presets* it applies to.  A program that transfers to descriptors
    cannot link on I1, and a plan may apply on some presets only
    (:data:`_APPLIES`); ``report.skipped`` names each preset left out."""
    seed_list = tuple(range(seeds)) if isinstance(seeds, int) else tuple(seeds)
    report = ChaosReport()
    refs: dict[str, Reference] = {}  # the current program's, by preset

    def cases() -> Iterator[tuple[Program, int, FaultPlan, dict[str, Reference]]]:
        for name in programs:
            program = CORPUS[name]
            linked = tuple(
                preset for preset in presets
                if not (program.needs_descriptors and preset == "i1")
            )
            report.skipped += [
                {"program": name, "preset": preset, "reason": "needs descriptors"}
                for preset in presets if preset not in linked
            ]
            if not linked:
                continue
            refs.clear()
            refs.update((preset, reference_run(program, preset)) for preset in linked)
            for seed in seed_list:
                for plan_name in plans:
                    applied = {
                        preset: refs[preset] for preset in linked
                        if _applies(plan_name, refs[preset])
                    }
                    plan = applied and make_plan(plan_name, program, applied, seed)
                    if not plan:
                        report.skipped.append(
                            {"program": name, "seed": seed, "plan": plan_name,
                             "reason": "not applicable"}
                        )
                        continue
                    report.skipped += [
                        {"program": name, "seed": seed, "plan": plan_name,
                         "preset": preset, "reason": "not applicable"}
                        for preset in linked if preset not in applied
                    ]
                    yield program, seed, plan, applied

    return sweep(
        report, cases(), presets,
        lambda program, preset, plan: run_case(
            program, preset, plan, refs[preset], engine
        ),
    )
