"""Template-compiling JIT backend (implementation step I5).

Compiles verified procedures' basic blocks into host-Python closures
whose exits count themselves into an exit table that the engine turns
into meter-exact charges, direct-threaded block-to-block dispatch, facts-driven call specialization, and interpreter
deoptimization at every point the static model cannot cover.  See
``docs/jit.md`` for the contract.
"""

from repro.jit.codecache import CodeCache
from repro.jit.deopt import EngineStats, JitRefusal
from repro.jit.engine import JitEngine, install_jit, verified_facts

__all__ = [
    "CodeCache",
    "EngineStats",
    "JitEngine",
    "JitRefusal",
    "install_jit",
    "verified_facts",
]
