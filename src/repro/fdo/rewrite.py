"""The rewriter: apply a plan, verify, replay, and only then emit.

Promotion changes instruction lengths (LFC is two bytes, SDFC three,
DFC four), so the rewrite is a deterministic *rebuild* — recompile with
the promotion set, relink with the frame overrides — not an in-place
patch.  Site identity crosses the rebuild as ``(module, procedure,
call_ordinal)``: call instructions appear in body-offset order exactly
as the generator emitted them, on both sides.

Three gates stand between a plan and an emitted image:

1. **Fingerprints** — the profile and the facts must both carry the
   fingerprint of the image actually built from the sources; stale or
   foreign artifacts are refused (exit 2 at the CLI).
2. **Static verification** — the rebuilt image must pass
   ``analyze_image`` with zero errors.  That is one ``check_image``
   pass, whose record the analyzer summarizes: each body is verified
   once.
3. **Replay** — the rebuilt image re-runs the profiled workload; its
   results must be bit-identical and its modelled meters no worse than
   the profile recorded.  Frame/bank decisions that regress are dropped
   (and logged as refusals) rather than shipped; promotions are
   statically cheaper and never dropped.  A plan with nothing left is a
   no-op: the emitted image is byte-identical to the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.interp.machine import Machine
from repro.interp.machineconfig import MachineConfig
from repro.lang.compiler import CompileOptions, compile_program
from repro.lang.linker import LinkOptions, link

from repro.fdo.decide import Plan, build_plan, plan_log
from repro.fdo.profile import PROFILE_SCHEMA, validate_profile


class FdoRefusal(ReproError):
    """The optimizer refused to rewrite (stale inputs, failed gates)."""


@dataclass
class OptimizeResult:
    """A verified rewrite: everything needed to rebuild it anywhere."""

    sources: list[str]
    impl: str
    entry: tuple[str, str]
    promotions: list[tuple[str, str, int]]
    fsi_overrides: dict[tuple[str, str], int]
    replenish_batch: int | None
    bank_count: int | None
    original_hash: str
    image_hash: str
    log: dict = field(default_factory=dict)

    def build(self) -> Machine:
        """A fresh machine for the optimized image."""
        return build_machine(
            self.sources,
            self.impl,
            self.entry,
            promotions=frozenset(self.promotions),
            fsi_overrides=self.fsi_overrides,
            replenish_batch=self.replenish_batch,
            bank_count=self.bank_count,
        )


def build_machine(
    sources: list[str],
    impl: str,
    entry: tuple[str, str],
    *,
    promotions: frozenset[tuple[str, str, int]] = frozenset(),
    fsi_overrides: dict[tuple[str, str], int] | None = None,
    replenish_batch: int | None = None,
    bank_count: int | None = None,
) -> Machine:
    """Deterministic build: same inputs, same fingerprint."""
    _, image = _compile_link(
        sources,
        impl,
        entry,
        promotions=promotions,
        fsi_overrides=fsi_overrides,
        replenish_batch=replenish_batch,
        bank_count=bank_count,
    )
    return Machine(image)


def _compile_link(
    sources: list[str],
    impl: str,
    entry: tuple[str, str],
    *,
    promotions: frozenset[tuple[str, str, int]] = frozenset(),
    fsi_overrides: dict[tuple[str, str], int] | None = None,
    replenish_batch: int | None = None,
    bank_count: int | None = None,
):
    config = MachineConfig.preset(impl)
    if bank_count is not None:
        config = config.but(bank_count=bank_count)
    modules = compile_program(
        sources, CompileOptions.for_config(config, promotions=promotions)
    )
    options = LinkOptions(fsi_overrides=dict(fsi_overrides or {}))
    if replenish_batch is not None:
        options.replenish_batch = replenish_batch
    image = link(modules, config, entry, options)
    return modules, image


def optimize(
    sources: list[str],
    impl: str,
    entry: tuple[str, str],
    profile: dict,
    facts: dict,
    *,
    min_calls: int = 2,
    replay: bool = True,
) -> OptimizeResult:
    """The whole pass: plan, rebuild, verify, replay, log.

    Raises :class:`FdoRefusal` when the inputs are stale or the rewrite
    cannot be proven sound.
    """
    from repro.check.interproc import FACTS_SCHEMA, image_fingerprint

    complaint = validate_profile(profile)
    if complaint:
        raise FdoRefusal(f"bad profile: {complaint}")
    if facts.get("schema") != FACTS_SCHEMA:
        raise FdoRefusal(
            f"bad facts: schema {facts.get('schema')!r} is not {FACTS_SCHEMA}"
        )
    if profile.get("impl") != impl:
        raise FdoRefusal(
            f"profile was collected on {profile.get('impl')!r} but the "
            f"rewrite targets {impl!r}; interest levels encode different "
            "linkage, so the evidence does not transfer"
        )

    modules, image = _compile_link(sources, impl, entry)
    original_hash = image_fingerprint(image)
    for label, doc in (("profile", profile), ("facts", facts)):
        if doc.get("image_hash") != original_hash:
            raise FdoRefusal(
                f"stale {label}: image_hash {doc.get('image_hash')!r} does "
                f"not match the built image {original_hash!r}"
            )

    config = MachineConfig.preset(impl)
    plan = build_plan(
        facts, profile, config, modules, image.ladder, min_calls=min_calls
    )

    # Fallback ladder: full plan, then without the frame/bank decisions,
    # then the no-op.  The first candidate that verifies and replays
    # no-worse wins.
    attempts: list[tuple[str, Plan]] = [("full", plan)]
    if not plan.is_noop and (
        plan.fsi_overrides
        or plan.replenish_batch is not None
        or plan.bank_count is not None
    ):
        attempts.append(("promotions-only", _promotions_only(plan)))
    attempts.append(("noop", _noop(plan)))

    last_reason = "no plan attempted"
    for label, candidate in attempts:
        machine, reason = _try_candidate(
            sources, impl, entry, candidate, profile, replay
        )
        if machine is None:
            last_reason = reason
            continue
        if label != "full":
            candidate.refusals.append(
                {
                    "aspect": "fallback",
                    "reason": f"dropped to {label}: {last_reason}",
                }
            )
        optimized_hash = image_fingerprint(machine.image)
        log = plan_log(
            candidate,
            impl,
            f"{entry[0]}.{entry[1]}",
            original_hash,
            optimized_hash,
        )
        return OptimizeResult(
            sources=list(sources),
            impl=impl,
            entry=entry,
            promotions=sorted(candidate.promotions),
            fsi_overrides=dict(candidate.fsi_overrides),
            replenish_batch=candidate.replenish_batch,
            bank_count=candidate.bank_count,
            original_hash=original_hash,
            image_hash=optimized_hash,
            log=log,
        )
    raise FdoRefusal(f"every candidate failed the gates: {last_reason}")


def _promotions_only(plan: Plan) -> Plan:
    kept = {"promote-site"}
    return Plan(
        promotions=set(plan.promotions),
        decisions=[d for d in plan.decisions if d["kind"] in kept],
        refusals=list(plan.refusals),
        block_order=list(plan.block_order),
    )


def _noop(plan: Plan) -> Plan:
    return Plan(
        refusals=list(plan.refusals), block_order=list(plan.block_order)
    )


def _try_candidate(
    sources: list[str],
    impl: str,
    entry: tuple[str, str],
    plan: Plan,
    profile: dict,
    replay: bool,
):
    """Build + verify + replay one candidate; (machine, "") or (None, why)."""
    from repro.check.interproc import analyze_image

    try:
        _, image = _compile_link(
            sources,
            impl,
            entry,
            promotions=frozenset(plan.promotions),
            fsi_overrides=plan.fsi_overrides,
            replenish_batch=plan.replenish_batch,
            bank_count=plan.bank_count,
        )
    except ReproError as fault:
        return None, f"rebuild failed: {fault}"
    analysis = analyze_image(image)
    if not analysis.ok:
        heads = "; ".join(
            f"{finding.check}: {finding.message}"
            for finding in analysis.report.errors[:3]
        )
        return None, f"analyze_image found errors: {heads}"
    machine = Machine(image)
    if replay:
        args = profile.get("args", [])
        machine.start(entry[0], entry[1], *args)
        try:
            results = machine.run()
        except ReproError as fault:
            return None, f"replay trapped: {fault}"
        if list(results) != list(profile.get("results", [])):
            return None, (
                f"replay results {list(results)} diverged from the "
                f"profiled run {profile.get('results')}"
            )
        meters = profile.get("meters", {})
        if machine.counter.cycles > meters.get("cycles", machine.counter.cycles):
            return None, (
                f"replay cost {machine.counter.cycles} cycles, worse than "
                f"the profiled {meters['cycles']}"
            )
        refs = machine.counter.memory_references
        if refs > meters.get("memory_references", refs):
            return None, (
                f"replay made {refs} memory references, worse than the "
                f"profiled {meters['memory_references']}"
            )
        # The replay dirtied the image's memory and meters; hand back a
        # fresh deterministic rebuild instead.
        _, image = _compile_link(
            sources,
            impl,
            entry,
            promotions=frozenset(plan.promotions),
            fsi_overrides=plan.fsi_overrides,
            replenish_batch=plan.replenish_batch,
            bank_count=plan.bank_count,
        )
        machine = Machine(image)
    return machine, ""
