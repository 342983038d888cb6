"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random

import pytest

from repro.interp.machine import Machine
from repro.interp.machineconfig import MachineConfig
from repro.lang.compiler import CompileOptions, compile_program
from repro.lang.linker import LinkOptions, link
from repro.machine.costs import CycleCounter
from repro.machine.memory import Memory


#: Every seeded RNG in the suite derives from this one knob, so a
#: whole-suite reseed is `REPRO_TEST_SEED=n pytest` — and the default is
#: pinned so CI runs are reproducible.
DEFAULT_TEST_SEED = int(os.environ.get("REPRO_TEST_SEED", "1982"))


def make_rng(seed: int | str = DEFAULT_TEST_SEED) -> random.Random:
    """A deterministic RNG; the single sanctioned way tests get entropy.

    Accepts ints or strings (``make_rng(f"case:{i}")`` gives independent
    streams per case without manual seed arithmetic).
    """
    return random.Random(seed)


@pytest.fixture
def seeded_rng() -> random.Random:
    """A fresh, deterministically seeded RNG per test."""
    return make_rng()


@pytest.fixture
def seed_runs(monkeypatch) -> list:
    """The ``(site, gf)`` of every JIT call-cell ``seed`` run by engines
    that build their cells during the test, in order."""
    import repro.jit.engine as jit_engine

    runs: list = []
    make_cells = jit_engine.make_cells

    def counting_cells(machine, ctx, ns, stats):
        cells = make_cells(machine, ctx, ns, stats)
        seed = ns["seed"]

        def counted(m, site, gf):
            runs.append((site, gf))
            return seed(m, site, gf)

        ns["seed"] = counted
        return cells

    monkeypatch.setattr(jit_engine, "make_cells", counting_cells)
    return runs


@pytest.fixture
def counter() -> CycleCounter:
    return CycleCounter()


@pytest.fixture
def memory(counter: CycleCounter) -> Memory:
    return Memory(1 << 16, counter)


ALL_PRESETS = ("i1", "i2", "i3", "i4")


def build(sources, preset="i2", entry=("Main", "main"), multi_instance=frozenset(),
          instances=None, **config_overrides) -> Machine:
    """Compile/link/load helper used across machine tests."""
    config = MachineConfig.preset(preset, **config_overrides)
    options = CompileOptions.for_config(config, multi_instance=multi_instance)
    modules = compile_program(list(sources), options)
    link_options = LinkOptions(instances=instances or {})
    image = link(modules, config, entry, link_options)
    return Machine(image)


def run_source(sources, preset="i2", args=(), entry=("Main", "main"), **overrides):
    """Build, start, run; returns (results, machine)."""
    machine = build(sources, preset=preset, entry=entry, **overrides)
    machine.start(entry[0], entry[1], *args)
    results = machine.run()
    return results, machine


def served_activations(events) -> dict[str, tuple[str, str, list, list]]:
    """span -> (module, proc, args, results) of what one shard served.

    Read off the shard's trace, since a shard reaps each process once it
    hands it off: the ``net.serve`` event names the call, and the
    ``sched.done`` event of the same pid carries its results."""
    serving = {}
    served = {}
    for event in events:
        if event.kind == "net.serve":
            serving[event.data["pid"]] = event
        elif event.kind == "sched.done" and event.data["pid"] in serving:
            start = serving.pop(event.data["pid"])
            module, proc = start.name.split(".")
            served[start.data["span"]] = (
                module, proc, start.data["args"], event.data["results"]
            )
    return served
