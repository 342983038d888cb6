"""OBS — host-side cost of the observability subsystem.

The tracing hooks live on the interpreter's hottest paths (every call,
return, pop, spill, and allocation), so their cost is a first-class
budget, not an afterthought:

* **disabled** — the default: ``machine.tracer is None``, so every hook
  is one attribute load and an ``is None`` test.  The budget for this
  mode, **≤2%** of the host's opcodes, is checked as a count by
  tests/test_obs_opcode_budget.py.
* **recorder** — a bounded :class:`~repro.obs.tracer.TraceRecorder`
  attached: every mechanism event is materialized and appended to the
  ring.

Whatever the mode, the *modelled* machine must not notice: results,
step counts, and every ``CycleCounter`` meter are asserted bit-identical
across both (the differential test in tests/test_obs_differential.py
widens this over the corpus).

The report prints only what the code decides: steps, events recorded
and the meters' identity.  Host timings are noise at this size, so they
stay in the JSON: ``python benchmarks/run_all.py --json-out
BENCH_obs_overhead.json obs`` writes them to ``BENCH_obs_overhead.json``
(CI uploads it).
"""

from __future__ import annotations

import time

from repro.interp.machine import Machine
from repro.interp.machineconfig import MachineConfig
from repro.lang.compiler import CompileOptions, compile_program
from repro.lang.linker import link
from repro.obs import TraceRecorder

from repro.analysis.report import banner, format_table

#: The call-dense shape of the repo benchmark's ``calldense`` workload:
#: the worst case for the hooks because call/return (two hook sites plus
#: an IFU pop) dominate.
_CALL_DENSE = """
MODULE Main;
VAR acc: INT;
PROCEDURE inc(x): INT;
BEGIN
  RETURN x + 1;
END;
PROCEDURE double(x): INT;
BEGIN
  RETURN x + x;
END;
PROCEDURE combine(a, b): INT;
BEGIN
  RETURN inc(a) + double(b);
END;
PROCEDURE step(x): INT;
BEGIN
  RETURN combine(inc(x), double(x));
END;
PROCEDURE main(n): INT;
VAR i: INT;
BEGIN
  acc := 0;
  i := 0;
  WHILE i < n DO
    acc := acc + step(i);
    i := i + 1;
  END;
  RETURN acc;
END;
END.
"""

PRESETS = ("i1", "i2", "i3", "i4")

MODES = ("disabled", "recorder")


def _build(preset: str) -> Machine:
    config = MachineConfig.preset(preset)
    options = CompileOptions.for_config(config)
    modules = compile_program([_CALL_DENSE], options)
    image = link(modules, config, ("Main", "main"))
    return Machine(image)


def _attach(machine: Machine, mode: str) -> None:
    if mode == "recorder":
        machine.attach_tracer(TraceRecorder(capacity=4096))


def _time_mode(preset: str, mode: str, iterations: int, repeats: int):
    """Best-of-*repeats* wall time; returns (seconds, machine)."""
    best = None
    machine = None
    for _ in range(repeats):
        machine = _build(preset)
        _attach(machine, mode)
        machine.start("Main", "main", iterations)
        begin = time.perf_counter()
        machine.run()
        elapsed = time.perf_counter() - begin
        best = elapsed if best is None else min(best, elapsed)
    return best, machine


def _measure_presets(iterations: int, repeats: int) -> dict:
    presets = {}
    for preset in PRESETS:
        timings = {}
        machines = {}
        for mode in MODES:
            seconds, machine = _time_mode(preset, mode, iterations, repeats)
            timings[mode] = seconds
            machines[mode] = machine
        # The hooks must not move a single modelled number, in any mode.
        reference = machines["disabled"]
        for mode in MODES[1:]:
            machine = machines[mode]
            assert machine.results() == reference.results(), mode
            assert machine.steps == reference.steps, mode
            assert machine.counter.snapshot() == reference.counter.snapshot(), mode
        disabled = timings["disabled"]
        presets[preset] = {
            "steps": reference.steps,
            "seconds": {mode: round(timings[mode], 4) for mode in MODES},
            "steps_per_second": {
                mode: round(reference.steps / timings[mode]) for mode in MODES
            },
            "overhead_vs_disabled": {
                mode: round(timings[mode] / disabled - 1.0, 4) for mode in MODES[1:]
            },
            "events_recorded": machines["recorder"].tracer.emitted,
            "modelled_meters_identical": True,
        }
    return presets


_PAYLOADS: dict[tuple[int, int], dict] = {}


def json_payload(iterations: int = 500, repeats: int = 3) -> dict:
    """The BENCH_obs_overhead.json payload (memoized per parameter set)."""
    key = (iterations, repeats)
    if key in _PAYLOADS:
        return _PAYLOADS[key]
    presets = _measure_presets(iterations, repeats)
    payload = {
        "benchmark": "observability subsystem host overhead",
        "workload": {
            "program": "call-dense corpus shape (Main.main(n))",
            "iterations": iterations,
            "repeats": repeats,
        },
        "modes": list(MODES),
        "presets": presets,
    }
    _PAYLOADS[key] = payload
    return payload


def report() -> str:
    payload = json_payload()
    rows = [
        [preset, entry["steps"], f"{entry['events_recorded']:,}"]
        for preset, entry in payload["presets"].items()
    ]
    table = format_table(["preset", "steps", "events recorded"], rows)
    return (
        banner("OBS: observability, disabled and recording")
        + "\n"
        + table
        + "\nmodelled cycles and memory references are bit-identical in both modes"
        + "\ntracing-disabled budget: the hooks run at most 2% of the host's "
        "opcodes (tests/test_obs_opcode_budget.py)"
        + "\nhost timings: --json only"
    )


def test_obs_overhead_shape():
    payload = json_payload(iterations=120, repeats=1)
    assert set(payload["presets"]) == set(PRESETS)
    for entry in payload["presets"].values():
        assert entry["modelled_meters_identical"]
        assert entry["events_recorded"] > 0


def test_bench_run_tracing_disabled(benchmark):
    machine = _build("i2")

    def once():
        machine.stack.clear()
        machine.start("Main", "main", 120)
        machine.run()

    benchmark(once)


def test_bench_run_with_recorder(benchmark):
    machine = _build("i2")
    recorder = TraceRecorder(capacity=4096)
    machine.attach_tracer(recorder)

    def once():
        recorder.clear()
        machine.stack.clear()
        machine.start("Main", "main", 120)
        machine.run()

    benchmark(once)


if __name__ == "__main__":
    print(report())
