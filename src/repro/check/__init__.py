"""Static verification of linked XFER images.

The subsystem the machine's trust story leans on: before an image runs,
:func:`check_image` proves the properties the interpreter otherwise
discovers by trapping — clean decode, jumps on instruction boundaries,
path-independent eval-stack depths, transfer records matching target
signatures, linkage tables whose every descriptor resolves, and fsi
bytes the allocation vector can honour.

See ``docs/checker.md`` for the full catalogue of checks and the paper
sections each one guards.
"""

from repro.check.callgraph import CallGraph, ProcNode, spawn_roots
from repro.check.cfg import BasicBlock, ControlFlowGraph, build_cfg
from repro.check.checker import check_image
from repro.check.diagnostics import (
    CheckReport,
    Diagnostic,
    Severity,
    instruction_context,
)
from repro.check.effects import DYNAMIC_OPS, FIXED_EFFECTS, OperandLimits
from repro.check.interproc import (
    FACTS_SCHEMA,
    CallSite,
    EntryBounds,
    ImageAnalysis,
    ProcSummary,
    analyze_image,
    soundness_differential,
)
from repro.check.stackcheck import CallEffect, StackRules, verify_stack_depths

__all__ = [
    "BasicBlock",
    "CallEffect",
    "CallGraph",
    "CallSite",
    "CheckReport",
    "ControlFlowGraph",
    "DYNAMIC_OPS",
    "Diagnostic",
    "EntryBounds",
    "FACTS_SCHEMA",
    "FIXED_EFFECTS",
    "ImageAnalysis",
    "OperandLimits",
    "ProcNode",
    "ProcSummary",
    "Severity",
    "StackRules",
    "analyze_image",
    "build_cfg",
    "check_image",
    "instruction_context",
    "soundness_differential",
    "spawn_roots",
    "verify_stack_depths",
]
