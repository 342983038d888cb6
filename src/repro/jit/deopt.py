"""Deoptimization contract and refusal conditions for the JIT.

The JIT only ever runs code it can prove it replays exactly; anything
else is handed back to the interpreter.  Two mechanisms implement
that:

* **Refusal** (:class:`JitRefusal`): the whole image is rejected at
  install time — the static checker found errors, or a supplied facts
  artifact does not match the image.  The CLI maps a refusal to exit
  status 2, the same convention as every other bad-input path.

* **Deoptimization**: a compiled block bails out *before* committing
  any charge for the instruction that needs interpreter help (guard
  failure, potential trap, divert/bank miss, step-ceiling proximity),
  sets ``machine.pc`` to that instruction, and returns the ``-2``
  sentinel.  The engine then single-steps the real interpreter until
  the pc lands back on a compiled block boundary.  Because guards fire
  before any mutation, the committed meter charges always correspond
  to exactly the fully-executed instructions — the interpreter resumes
  from a state it could have produced itself.

Attaching a tracer (the fault injector, snapshot capture triggers and
plain tracing all observe through one) deactivates the engine
wholesale: ``Machine.run`` consults ``engine.active()``
first and falls through to the interpreter loop, so chaos and
observability runs are interpreter runs by construction.
"""

from __future__ import annotations

from dataclasses import dataclass


class JitRefusal(Exception):
    """The JIT declines to compile this image (bad image or bad facts)."""


@dataclass
class EngineStats:
    """Counters the engine keeps while running compiled code."""

    #: Times a block bailed out to the interpreter (guard failure,
    #: trap-prone instruction, bank/divert miss, ...).
    deopts: int = 0
    #: Interpreter single-steps taken while returning to a block boundary.
    deopt_steps: int = 0
    #: Call-site cells built (one per (site, gf) pair seeded).
    cells_built: int = 0
    #: Call sites demoted to the generic handler (polymorphism observed
    #: beyond what the facts promised, or an unsupported target shape).
    sites_demoted: int = 0
    #: Runs that fell back to the interpreter mid-flight because an
    #: observer was attached while compiled code was running.
    observer_bailouts: int = 0

    def as_dict(self) -> dict:
        return {
            "deopts": self.deopts,
            "deopt_steps": self.deopt_steps,
            "cells_built": self.cells_built,
            "sites_demoted": self.sites_demoted,
            "observer_bailouts": self.observer_bailouts,
        }


__all__ = ["JitRefusal", "EngineStats"]
