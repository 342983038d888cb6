"""The compiled-block cache, keyed on the code-space epoch.

Compiled blocks are host-side caches of code-derived state, exactly
like the decode cache and the :class:`~repro.mesa.linkage.LinkageCache`:
any code-space epoch bump (module relocation, procedure replacement,
segment growth) makes them stale.  The cache therefore subscribes to
the machine's shared epoch-bump hook (``Machine.on_epoch_bump``) — the
same single hook the linkage cache invalidates through — so the
code-swapping services in :mod:`repro.interp.services` can never flush
one cache and leave the other holding stale compiled code.

Entries are ``pc -> (block_fn, max_steps)`` pairs: the function runs
the block against a machine, and ``max_steps`` bounds how many modelled
steps it can commit (the engine uses it to respect step ceilings
exactly).  Procedures not yet entered wait in :attr:`CodeCache.pending`,
keyed on their body start; an epoch bump drops both maps, and the
engine re-arms the pending set for the new layout.
"""

from __future__ import annotations

from typing import Callable


class CodeCache:
    """Compiled basic blocks for one machine's code space."""

    def __init__(self) -> None:
        #: pc -> (fn, max_steps); fn(machine) returns the next pc, or a
        #: negative sentinel (-1: re-check machine state; -2: deopt).
        self.blocks: dict[int, tuple[Callable, int]] = {}
        #: body start pc -> (ProcMeta, body length) of every verified
        #: procedure not yet compiled in this epoch.
        self.pending: dict[int, tuple] = {}
        #: False until the engine has armed the pending set for the
        #: current epoch.
        self.ready = False
        #: Superblock bookkeeping (see ``JitEngine._splice``): block
        #: start -> (spec, meta, terminating CallSite); the unspliced
        #: (fn, max_steps) of each superblock's block; the splices it
        #: holds; and block start -> the superblock starts whose plans
        #: read it.
        self.specs: dict[int, tuple] = {}
        self.plain: dict[int, tuple[Callable, int]] = {}
        self.shapes: dict[int, tuple] = {}
        self.dependents: dict[int, set[int]] = {}
        self.invalidations = 0
        #: Blocks compiled over the cache's life (cumulative).
        self.compiled_blocks = 0
        #: Procedures compiled in the current epoch.
        self.procedures = 0
        #: Host seconds spent generating + exec'ing block functions.
        self.compile_seconds = 0.0

    def invalidate(self) -> None:
        """Drop every compiled block and pending body (epoch-bump
        subscriber).

        Clears in place so the engine's hoisted ``blocks`` and
        ``pending`` references stay valid, mirroring
        ``Machine.invalidate_linkage``.
        """
        if self.ready or self.blocks:
            self.invalidations += 1
        self.blocks.clear()
        self.pending.clear()
        for table in (self.specs, self.plain, self.shapes, self.dependents):
            table.clear()
        self.ready = False

    def stats(self) -> dict:
        """Code-cache statistics for benchmark tables."""
        return {
            "blocks": len(self.blocks),
            "procedures": self.procedures,
            "compiled_blocks": self.compiled_blocks,
            "invalidations": self.invalidations,
            "compile_seconds": self.compile_seconds,
        }
