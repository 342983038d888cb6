"""FAULTS — cost of the resilience machinery (snapshot and restore).

Two questions with budgets attached (fault injection itself costs a run
nothing until a fault fires: the chaos harness runs the machine to each
firing step on a step budget, with no observer attached):

* **Snapshot latency** — how long `capture` takes mid-run, and how big
  the state vector is on each implementation.  The RLE memory section
  keeps the document proportional to *touched* state, not the 64K
  address space.
* **Resume fidelity** — restore onto a fresh image and finish: asserted
  bit-identical to the straight-through run on every meter (the chaos
  harness widens this over the corpus; here it gates the benchmark).

The report prints only what the code decides: steps, snapshot bytes
and resume fidelity.  The capture and restore timings are host noise at
this size, so they stay in the JSON: ``python benchmarks/run_all.py
--json faults`` writes them.
"""

from __future__ import annotations

import json
import time

from repro.analysis.report import banner, format_table
from repro.faults import capture, restore
from repro.interp.machine import Machine
from repro.interp.machineconfig import MachineConfig
from repro.lang.compiler import CompileOptions, compile_program
from repro.lang.linker import link

_FIB = """
MODULE Main;
PROCEDURE fib(n): INT;
BEGIN
  IF n < 2 THEN RETURN n; END;
  RETURN fib(n - 1) + fib(n - 2);
END;
PROCEDURE main(): INT;
BEGIN
  RETURN fib(15);
END;
END.
"""

PRESETS = ("i1", "i2", "i3", "i4")

def _build(preset: str) -> Machine:
    config = MachineConfig.preset(preset)
    modules = compile_program([_FIB], CompileOptions.for_config(config))
    return Machine(link(modules, config, ("Main", "main")))


def _measure() -> dict:
    presets: dict[str, dict] = {}
    for preset in PRESETS:
        # Snapshot latency + size at mid-run, and resume fidelity.
        machine = _build(preset)
        machine.start()
        while machine.steps < 500:
            machine.step()
        begin = time.perf_counter()
        state = capture(machine)
        capture_seconds = time.perf_counter() - begin
        size_bytes = len(json.dumps(state))

        fresh = _build(preset)
        begin = time.perf_counter()
        restore(fresh, state)
        restore_seconds = time.perf_counter() - begin
        fresh.run()
        reference = _build(preset)
        reference.start()
        reference.run()
        if fresh.counter.snapshot() != reference.counter.snapshot():
            raise AssertionError(f"{preset}: resumed run diverged from reference")

        presets[preset] = {
            "steps": reference.steps,
            "capture_ms": capture_seconds * 1e3,
            "restore_ms": restore_seconds * 1e3,
            "snapshot_bytes": size_bytes,
        }
    return presets


_PAYLOAD: dict | None = None


def json_payload() -> dict:
    global _PAYLOAD
    if _PAYLOAD is None:
        _PAYLOAD = {
            "benchmark": "snapshot/restore cost",
            "workload": {"program": "fib(15)", "mid_run_snapshot_step": 500},
            "presets": _measure(),
        }
    return _PAYLOAD


def report() -> str:
    payload = json_payload()
    rows = [
        [preset, entry["steps"], f"{entry['snapshot_bytes']:,}"]
        for preset, entry in payload["presets"].items()
    ]
    table = format_table(["preset", "steps", "snapshot bytes"], rows)
    return (
        banner("FAULTS: snapshot size and resume fidelity")
        + "\n"
        + table
        + "\nresume-after-restore bit-identical to the uninterrupted run"
        + "\nhost timings (capture, restore): --json only"
    )


if __name__ == "__main__":
    print(report())
