"""The decision engine: facts + profile → a rewrite plan.

Every decision intersects *dynamic* evidence (the profile) with *static*
soundness (the facts):

* **Site promotion** — a LOCALCALL/EXTERNALCALL site may become
  SHORTDIRECTCALL/DIRECTCALL only when the facts classify it
  ``monomorphic`` (the pushdown call graph proved the single target) and
  the profile shows the caller→target edge hot.  Promotion removes the
  site's counted resolution reads (section 6: "all of the data lookups
  ... are replaced by an address computed at load time"); the exact
  per-call saving is the linkage's resolution cost.
* **Frame-size retuning** — the section 5.4 question.  Occupied AV size
  classes are merged upward into the largest occupied class when the
  observed live-frame peaks predict fewer allocator traps:
  ``ceil(a/b) + ceil(c/b) >= ceil((a+c)/b)``, so a merge never adds
  traps, and every trap costs a modelled ``ALLOCATOR_TRAP``.  Refused
  outright when any reachable body takes frame addresses (LLA/ALOC/
  FREE/RETAIN/LLC/LRC/XF) — those programs may observe frame placement.
* **Replenish batch** — sized to the post-merge peak so a hot class
  traps once, not ``ceil(peak/4)`` times.
* **Bank count** (I4) — raised to cover the observed call-depth
  distribution so the register-bank stack stops spilling.
* **Block order** — procedures by observed hotness, recorded in the
  log (the JIT compiles on first entry and takes no order).

The plan is advisory: the rewriter re-verifies statically and replays
the profile's run, dropping any frame/bank decision that fails to beat
the recorded meters.  The machine-readable ``repro-fdo/1`` log records
every decision (site, evidence, rewrite, expected saving) and every
refusal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.interp.machineconfig import (
    FrameAllocatorKind,
    LinkageKind,
    MachineConfig,
)

#: Version tag of the decision-log document; bump on shape change.
FDO_SCHEMA = "repro-fdo/1"

#: Counted memory references a resolved call costs per linkage, i.e.
#: what promotion to DIRECTCALL (0 counted resolution reads; the header
#: fetches ride the IFU) saves per executed call.  MESA: GFT entry +
#: descriptor unpack reads + fsi byte (section 5: "five memory
#: references"); SIMPLE: wide link-vector pair + fsi byte; LOCALCALL:
#: entry-vector word + fsi byte.
_RESOLVE_READS = {
    ("mesa", "external"): 5,
    ("simple", "external"): 3,
    ("mesa", "local"): 2,
    ("simple", "local"): 2,
}

#: Modelled cycles per counted memory reference and per allocator trap
#: (see repro.machine.costs.DEFAULT_COSTS).
_READ_CYCLES = 2
_TRAP_CYCLES = 50

#: Opcodes whose presence anywhere makes frame placement observable —
#: frame-size retuning must not move such a program's frames.
_FRAME_SENSITIVE_OPS = frozenset(
    {"LLA", "ALOC", "FREE", "RETAIN", "LLC", "LRC", "XF"}
)

#: Ceiling on the replenish batch and the rebuilt bank count; large
#: enough for every observed corpus peak, small enough to stay honest.
_MAX_BATCH = 32
_MAX_BANKS = 16


@dataclass
class Plan:
    """The rewrite, in the exact shape the rebuild pipeline consumes."""

    #: ``(module, procedure, call_ordinal)`` sites to compile as SDFC/DFC.
    promotions: set[tuple[str, str, int]] = field(default_factory=set)
    #: ``(module, procedure) -> fsi`` overrides for the linker.
    fsi_overrides: dict[tuple[str, str], int] = field(default_factory=dict)
    replenish_batch: int | None = None
    bank_count: int | None = None
    #: Hot-first qualified procedure names, recorded in the log.
    block_order: list[str] = field(default_factory=list)
    decisions: list[dict] = field(default_factory=list)
    refusals: list[dict] = field(default_factory=list)

    @property
    def is_noop(self) -> bool:
        return not (
            self.promotions
            or self.fsi_overrides
            or self.replenish_batch is not None
            or self.bank_count is not None
        )


def build_plan(
    facts: dict,
    profile: dict,
    config: MachineConfig,
    modules: list,
    ladder,
    *,
    min_calls: int = 2,
    multi_instance: frozenset[str] = frozenset(),
) -> Plan:
    """Intersect the facts with the profile into a :class:`Plan`.

    *modules* are the original compiled :class:`ModuleCode` objects (for
    the call-ordinal mapping and the frame-sensitivity scan); *ladder*
    is the link-time :class:`SizeLadder`.
    """
    plan = Plan()
    edge_counts: dict[tuple[str, str], int] = {}
    for edge in profile.get("edges", ()):
        key = (edge["caller"], edge["callee"])
        edge_counts[key] = edge_counts.get(key, 0) + edge["count"]

    _plan_promotions(
        plan, facts, config, modules, edge_counts, min_calls, multi_instance
    )
    _plan_frames(plan, profile, config, modules, ladder)
    _plan_banks(plan, profile, config)
    plan.block_order = [
        name
        for name, entry in sorted(
            profile.get("procedures", {}).items(),
            key=lambda item: (-item[1]["activations"], item[0]),
        )
    ]
    return plan


# -- site promotion ----------------------------------------------------------


def _plan_promotions(
    plan: Plan,
    facts: dict,
    config: MachineConfig,
    modules: list,
    edge_counts: dict[tuple[str, str], int],
    min_calls: int,
    multi_instance: frozenset[str],
) -> None:
    if config.linkage is LinkageKind.DIRECT:
        plan.refusals.append(
            {
                "aspect": "promotion",
                "reason": "linkage is already DIRECT; every eligible site "
                "is early-bound statically",
            }
        )
        return
    linkage = config.linkage.value
    ordinals = {
        module.name: _call_ordinals(module) for module in modules
    }
    for proc in facts.get("procedures", ()):
        caller = f"{proc['module']}.{proc['name']}"
        for site in proc.get("sites", ()):
            if site["kind"] != "call":
                continue
            count = 0
            if site["targets"]:
                count = max(
                    edge_counts.get((caller, target), 0)
                    for target in site["targets"]
                )
            if count < min_calls:
                continue  # cold; not worth a log entry per site
            if site["classification"] != "monomorphic":
                plan.refusals.append(
                    {
                        "aspect": "promotion",
                        "site": f"{caller}+{site['offset']}",
                        "reason": f"site is {site['classification']} "
                        f"({count} observed calls); DIRECTCALL needs a "
                        "single statically proven target",
                    }
                )
                continue
            target = site["targets"][0]
            target_module = target.split(".", 1)[0]
            if target_module in multi_instance:
                plan.refusals.append(
                    {
                        "aspect": "promotion",
                        "site": f"{caller}+{site['offset']}",
                        "reason": f"target module {target_module!r} is "
                        "multi-instance (D2: stay on EXTERNALCALL)",
                    }
                )
                continue
            ordinal = ordinals[proc["module"]].get(
                (proc["name"], site["offset"])
            )
            if ordinal is None:
                plan.refusals.append(
                    {
                        "aspect": "promotion",
                        "site": f"{caller}+{site['offset']}",
                        "reason": "no call instruction at the facts offset "
                        "(stale facts?)",
                    }
                )
                continue
            shape = "local" if target_module == proc["module"] else "external"
            reads = _RESOLVE_READS[(linkage, shape)]
            plan.promotions.add((proc["module"], proc["name"], ordinal))
            plan.decisions.append(
                {
                    "kind": "promote-site",
                    "site": f"{caller}+{site['offset']}",
                    "ordinal": ordinal,
                    "rewrite": f"{site['opcode']} -> "
                    + ("SDFC" if shape == "local" else "DFC"),
                    "target": target,
                    "evidence": {"calls": count, "classification": "monomorphic"},
                    "expected_saving": {
                        "memory_references": reads * count,
                        "cycles": reads * count * _READ_CYCLES,
                    },
                }
            )


def _call_ordinals(module) -> dict[tuple[str, int], int]:
    """Map ``(procedure, body_offset) -> call ordinal`` for one module.

    Call instructions appear in the body in emission order, so the n-th
    call instruction by offset is the n-th ``_call`` the generator made —
    the identity the promotion set is keyed by.
    """
    from repro.isa.disassembler import disassemble
    from repro.isa.opcodes import CALL_OPS

    mapping: dict[tuple[str, int], int] = {}
    for procedure in module.procedures:
        ordinal = 0
        for item in disassemble(procedure.body):
            if item.instruction.op in CALL_OPS:
                mapping[(procedure.name, item.offset)] = ordinal
                ordinal += 1
    return mapping


# -- frame-size retuning (the section 5.4 answer) ----------------------------


def _plan_frames(
    plan: Plan, profile: dict, config: MachineConfig, modules: list, ladder
) -> None:
    if config.allocator is not FrameAllocatorKind.AV_HEAP:
        plan.refusals.append(
            {
                "aspect": "frames",
                "reason": f"allocator {config.allocator.value!r} does not "
                "use the AV size-class ladder",
            }
        )
        return
    if not profile.get("structured", False):
        plan.refusals.append(
            {
                "aspect": "frames",
                "reason": "profile saw non-LIFO transfers; live-frame "
                "peaks are approximate",
            }
        )
        return
    sensitive = _frame_sensitive_ops(modules)
    if sensitive:
        plan.refusals.append(
            {
                "aspect": "frames",
                "reason": "program takes frame addresses "
                f"({', '.join(sorted(sensitive))}); retuning would move "
                "observable frame placement",
            }
        )
        return
    peaks = {
        int(fsi): peak for fsi, peak in profile.get("class_peaks", {}).items()
    }
    occupied = sorted(fsi for fsi, peak in peaks.items() if peak > 0)
    batch = None
    if len(occupied) >= 2:
        # Merge every occupied class into the largest one.  The joint
        # peak is at most the sum of the class peaks, and ceil is
        # subadditive, so the estimate never under-counts the win.
        top = occupied[-1]
        joint_peak = sum(peaks[fsi] for fsi in occupied)
        before = sum(-(-peaks[fsi] // 4) for fsi in occupied)
        after = -(-joint_peak // 4)
        if after < before:
            overrides: dict[tuple[str, str], int] = {}
            for name, entry in profile.get("procedures", {}).items():
                if entry["fsi"] in occupied and entry["fsi"] != top:
                    module, proc = name.split(".", 1)
                    overrides[(module, proc)] = top
            if overrides:
                plan.fsi_overrides = overrides
                plan.decisions.append(
                    {
                        "kind": "retune-fsi",
                        "rewrite": f"merge classes {occupied[:-1]} into "
                        f"{top} ({ladder.size_of(top)} words)",
                        "procedures": sorted(
                            f"{m}.{p}" for m, p in overrides
                        ),
                        "evidence": {
                            "class_peaks": {str(k): peaks[k] for k in occupied}
                        },
                        "expected_saving": {
                            "allocator_traps": before - after,
                            "cycles": (before - after) * _TRAP_CYCLES,
                        },
                    }
                )
                peaks = {top: joint_peak}
    top_peak = max(peaks.values(), default=0)
    if top_peak > 4:
        batch = min(_MAX_BATCH, top_peak)
        traps_before = sum(-(-peak // 4) for peak in peaks.values())
        traps_after = sum(-(-peak // batch) for peak in peaks.values())
        if traps_after < traps_before:
            plan.replenish_batch = batch
            plan.decisions.append(
                {
                    "kind": "replenish-batch",
                    "rewrite": f"4 -> {batch} frames per allocator trap",
                    "evidence": {"peak_live_frames": top_peak},
                    "expected_saving": {
                        "allocator_traps": traps_before - traps_after,
                        "cycles": (traps_before - traps_after) * _TRAP_CYCLES,
                    },
                }
            )


def _frame_sensitive_ops(modules: list) -> set[str]:
    from repro.isa.disassembler import disassemble

    found: set[str] = set()
    for module in modules:
        for procedure in module.procedures:
            for item in disassemble(procedure.body):
                name = item.instruction.op.name
                if name in _FRAME_SENSITIVE_OPS:
                    found.add(name)
    return found


# -- I4 bank count -----------------------------------------------------------


def _plan_banks(plan: Plan, profile: dict, config: MachineConfig) -> None:
    if config.bank_count == 0:
        return
    max_depth = profile.get("depth", {}).get("max", 0)
    if max_depth <= config.bank_count:
        return
    banks = min(_MAX_BANKS, max(3, max_depth))
    if banks <= config.bank_count:
        return
    plan.bank_count = banks
    plan.decisions.append(
        {
            "kind": "bank-count",
            "rewrite": f"{config.bank_count} -> {banks} register banks",
            "evidence": {
                "max_call_depth": max_depth,
                "histogram": profile.get("depth", {}).get("histogram", {}),
            },
            "expected_saving": {
                "note": "fewer bank spill/fill references; validated by "
                "replay, not estimated"
            },
        }
    )


def plan_log(
    plan: Plan,
    impl: str,
    entry: str,
    original_hash: str,
    optimized_hash: str,
) -> dict:
    """The versioned ``repro-fdo/1`` decision-log document."""
    return {
        "schema": FDO_SCHEMA,
        "impl": impl,
        "entry": entry,
        "original_image_hash": original_hash,
        "optimized_image_hash": optimized_hash,
        "noop": plan.is_noop,
        "decisions": plan.decisions,
        "refusals": plan.refusals,
        "block_order": plan.block_order,
        "expected_saving": {
            "memory_references": sum(
                d.get("expected_saving", {}).get("memory_references", 0)
                for d in plan.decisions
            ),
            "cycles": sum(
                d.get("expected_saving", {}).get("cycles", 0)
                for d in plan.decisions
            ),
        },
    }
