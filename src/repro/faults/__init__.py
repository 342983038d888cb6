"""Deterministic fault injection, snapshot/restore, and chaos testing.

The paper's ladder of implementations (I1-I4) is only trustworthy if
every rung degrades *identically* under resource exhaustion: an empty AV
free list, a full frame arena, a bank-file overflow storm, a trap inside
a trap.  This package makes those situations reproducible on demand and
checks that the implementations never diverge:

* :mod:`repro.faults.plan` — a seeded, declarative **FaultPlan** DSL:
  inject at step N, or after the instruction that emits the k-th
  occurrence of any traced event (``alloc.frame``, ``bank.spill``,
  ``ifu.flush``, ``xfer.trap``, ...).
* :mod:`repro.faults.inject` — resolves each injection to a step of the
  program's uninterrupted run and applies the state actions.  A fault
  lands between two instructions: the harness runs the machine to the
  firing step on step budgets, as the scheduler's time slices do, so a
  machine with a JIT engine runs compiled code up to every fault and
  the modelled meters are untouched until one fires.
* :mod:`repro.faults.snapshot` — versioned serialization of the complete
  machine state vector (frames, heaps and AV free lists, bank file, IFU
  return stack, process table, counters, pending traps).  ``capture``
  then ``restore`` onto a freshly linked image resumes a run that is
  bit-identical to an uninterrupted one on all modelled meters.
* :mod:`repro.faults.chaos` — the one conformance harness: replay
  seeded fault plans across I1-I4 and assert every run **recovers**,
  **traps** cleanly with exact diagnostics, or **resumes** from its last
  snapshot — and that the implementations never disagree on the outcome
  class.  Its outcome, case and report types, case loop and check also
  serve the transport-fault sweeps of :mod:`repro.net.chaos`, which
  this package does not import (the net transport imports the plan DSL).

See ``docs/faults.md`` for the fault taxonomy and the snapshot schema
versioning policy.
"""

from repro.faults.chaos import (
    CANNED_PLANS,
    ChaosReport,
    Outcome,
    OutcomeClass,
    run_case,
    run_chaos,
)
from repro.faults.plan import (
    CONTROL_ACTIONS,
    STATE_ACTIONS,
    FaultPlan,
    Injection,
    Trigger,
    at_step,
    on_event,
)
from repro.faults.snapshot import (
    SNAPSHOT_SCHEMA,
    SnapshotError,
    capture,
    restore,
)

__all__ = [
    "CANNED_PLANS",
    "CONTROL_ACTIONS",
    "ChaosReport",
    "FaultPlan",
    "Injection",
    "Outcome",
    "OutcomeClass",
    "SNAPSHOT_SCHEMA",
    "STATE_ACTIONS",
    "SnapshotError",
    "Trigger",
    "at_step",
    "capture",
    "on_event",
    "restore",
    "run_case",
    "run_chaos",
]
