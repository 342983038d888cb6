"""HOST — host wall-clock speed of the interpreter itself.

The paper's claim is about the *modelled* machine: control transfer
should cost no more than an unconditional jump.  This experiment is
about the *host*: how fast the Python interpreter executes the modelled
machine, which gates every dynamic experiment in the harness.  It
times a call-dense workload (the corpus "calls" shape, scaled) across
I1-I4 in two modes:

* **baseline** — the pre-change interpreter: a per-step ``step()``
  driver with the call-site linkage cache disabled, re-resolving every
  EFC/LFC/DFC target through the LV/GFT/EV chain on every call;
* **optimized** — the fused ``run()`` loop with linkage caching on.

Both modes must produce bit-identical results, step counts, and
modelled meters (asserted here and in tests/test_host_perf.py); only
host seconds may differ.  A synthetic-trace section (reusing
:mod:`repro.workloads.synthetic`) times the return-stack replay under
both overflow policies — SPILL_OLDEST is the path the deque-backed
stack makes O(1) per spill.

``python benchmarks/run_all.py --json host`` writes the measurements to
``BENCH_host.json``.
"""

from __future__ import annotations

import time

from repro.errors import MachineHalted, StepLimitExceeded
from repro.ifu.returnstack import OverflowPolicy
from repro.interp.machine import Machine
from repro.interp.machineconfig import MachineConfig
from repro.interp.traps import TrapKind, TrapTransfer
from repro.isa.instruction import decode
from repro.lang.compiler import CompileOptions, compile_program
from repro.lang.linker import link
from repro.machine.costs import Event
from repro.workloads.synthetic import TraceConfig, call_return_trace, depth_profile
from repro.workloads.traces import TraceOp, replay_on_return_stack

from repro.analysis.report import banner, format_table

#: The corpus "calls" program with a parameterized driver loop: four
#: tiny leaf/near-leaf procedures, one call or return every few
#: instructions — the structured-programming shape of section 7.
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

#: Pre-change reference (interpreter at the seed commit, before the
#: linkage cache and fused loop existed), measured on the same workload
#: with iterations=2000: steps per host second.
PRE_CHANGE_STEPS_PER_SECOND = {
    "i1": 65_153,
    "i2": 63_769,
    "i3": 73_695,
    "i4": 92_979,
}


def _build(preset: str, host_linkage_cache: bool) -> Machine:
    config = MachineConfig.preset(preset, host_linkage_cache=host_linkage_cache)
    options = CompileOptions.for_config(config)
    modules = compile_program([_CALL_DENSE], options)
    image = link(modules, config, ("Main", "main"))
    return Machine(image)


class _LegacyDriver:
    """A faithful replica of the pre-change interpreter loop.

    The seed's ``run()`` made one ``step()`` *method call* per
    instruction; ``step()`` kept an instruction-only decode cache,
    looked the handler up in the dispatch table every step, and
    re-imported ``EvalStackOverflow`` from inside the loop.  All of
    that — including the per-step call overhead — is reproduced here
    against the unchanged machine state and handlers, so the measured
    improvement is relative to what the interpreter actually did before
    the host performance layer, not to a partially-optimized hybrid.
    """

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self._decode_cache: dict[int, object] = {}
        self._code_epoch = machine.code.epoch

    def run(self) -> list[int]:
        machine = self.machine
        budget = machine.config.step_limit
        while not machine.halted:
            if machine.steps >= budget:
                raise StepLimitExceeded(budget)
            self.step()
            if machine.yield_requested:
                break
        return machine.results()

    def step(self) -> None:
        machine = self.machine
        if machine.halted:
            raise MachineHalted("step() on a halted machine")
        if self._code_epoch != machine.code.epoch:
            self._decode_cache.clear()
            self._code_epoch = machine.code.epoch
        instruction = self._decode_cache.get(machine.pc)
        if instruction is None:
            instruction = decode(machine.code.buffer, machine.pc)
            self._decode_cache[machine.pc] = instruction
        machine.counter.record(Event.DECODE)
        machine.steps += 1
        next_pc = machine.pc + instruction.length
        machine.pc = next_pc
        from repro.errors import EvalStackOverflow

        try:
            machine._dispatch[instruction.op](instruction, next_pc)
        except TrapTransfer:
            pass
        except EvalStackOverflow as fault:
            try:
                machine.trap(TrapKind.STACK_OVERFLOW, str(fault))
            except TrapTransfer:
                pass


def _legacy_run(machine: Machine) -> list[int]:
    return _LegacyDriver(machine).run()


def _time_mode(preset: str, iterations: int, repeats: int, optimized: bool):
    """Best-of-*repeats* wall time; returns (seconds, machine)."""
    best = None
    machine = None
    for _ in range(repeats):
        machine = _build(preset, host_linkage_cache=optimized)
        machine.start("Main", "main", iterations)
        begin = time.perf_counter()
        if optimized:
            machine.run()
        else:
            _legacy_run(machine)
        elapsed = time.perf_counter() - begin
        best = elapsed if best is None else min(best, elapsed)
    return best, machine


def _measure_presets(iterations: int, repeats: int) -> dict:
    presets = {}
    for preset in PRESETS:
        base_s, base_machine = _time_mode(preset, iterations, repeats, optimized=False)
        opt_s, opt_machine = _time_mode(preset, iterations, repeats, optimized=True)
        # The host layer must not move a single modelled number.
        assert base_machine.results() == opt_machine.results()
        assert base_machine.steps == opt_machine.steps
        assert base_machine.counter.snapshot() == opt_machine.counter.snapshot()
        presets[preset] = {
            "steps": opt_machine.steps,
            "baseline_seconds": round(base_s, 4),
            "optimized_seconds": round(opt_s, 4),
            "baseline_steps_per_second": round(opt_machine.steps / base_s),
            "optimized_steps_per_second": round(opt_machine.steps / opt_s),
            "improvement": round(1.0 - opt_s / base_s, 4),
            "linkage_cache": opt_machine.linkage_cache.stats(),
        }
    return presets


def _measure_synthetic(length: int) -> dict:
    """Return-stack replay over a calibrated synthetic trace, timed for
    both overflow policies (SPILL_OLDEST exercises the deque fix)."""
    trace = call_return_trace(TraceConfig(length=length))
    peak, mean = depth_profile(trace)
    calls = sum(1 for event in trace if event.op is TraceOp.CALL)
    timings = {}
    for policy in (OverflowPolicy.FULL_FLUSH, OverflowPolicy.SPILL_OLDEST):
        begin = time.perf_counter()
        replay = replay_on_return_stack(trace, depth=4, policy=policy)
        timings[policy.value] = {
            "seconds": round(time.perf_counter() - begin, 4),
            "hit_rate": round(replay.hit_rate, 4),
        }
    return {
        "events": length,
        "calls": calls,
        "max_depth": peak,
        "mean_depth": round(mean, 2),
        "replay": timings,
    }


_PAYLOADS: dict[tuple[int, int], dict] = {}


def json_payload(iterations: int = 500, repeats: int = 3) -> dict:
    """The BENCH_host.json payload (memoized per parameter set)."""
    key = (iterations, repeats)
    if key in _PAYLOADS:
        return _PAYLOADS[key]
    presets = _measure_presets(iterations, repeats)
    improvements = [entry["improvement"] for entry in presets.values()]
    payload = {
        "benchmark": "host interpreter wall-clock speed",
        "workload": {
            "program": "call-dense corpus shape (Main.main(n))",
            "iterations": iterations,
            "repeats": repeats,
        },
        "presets": presets,
        "mean_improvement": round(sum(improvements) / len(improvements), 4),
        "min_improvement": round(min(improvements), 4),
        "pre_change_reference": {
            "note": (
                "interpreter at the seed commit (no linkage cache, "
                "unfused step loop), iterations=2000"
            ),
            "steps_per_second": PRE_CHANGE_STEPS_PER_SECOND,
        },
        "synthetic_trace": _measure_synthetic(length=50_000),
    }
    _PAYLOADS[key] = payload
    return payload


def report() -> str:
    payload = json_payload()
    rows = []
    for preset, entry in payload["presets"].items():
        rows.append(
            [
                preset,
                entry["steps"],
                f"{entry['baseline_seconds']:.3f}",
                f"{entry['optimized_seconds']:.3f}",
                f"{entry['baseline_steps_per_second']:,}",
                f"{entry['optimized_steps_per_second']:,}",
                f"{entry['improvement']:.0%}",
            ]
        )
    # The acceptance bar: a call-dense workload must run at least 25%
    # faster on the host.  (Mean across the ladder; each preset's number
    # is reported for scrutiny.)
    assert payload["mean_improvement"] >= 0.25, payload["mean_improvement"]
    table = format_table(
        [
            "preset",
            "steps",
            "baseline s",
            "optimized s",
            "baseline steps/s",
            "optimized steps/s",
            "improvement",
        ],
        rows,
    )
    synthetic = payload["synthetic_trace"]
    trace_line = (
        f"\nsynthetic trace ({synthetic['events']} events, "
        f"{synthetic['calls']} calls, max depth {synthetic['max_depth']}): "
        + ", ".join(
            f"{policy} replay {data['seconds']:.3f}s (hit rate {data['hit_rate']:.1%})"
            for policy, data in synthetic["replay"].items()
        )
    )
    text = banner("HOST: interpreter wall-clock speed (linkage cache + fused loop)")
    return (
        text
        + "\n"
        + table
        + trace_line
        + "\nmodelled cycles and memory references are bit-identical in both modes"
    )


def test_host_report_shape():
    payload = json_payload(iterations=120, repeats=1)
    assert set(payload["presets"]) == set(PRESETS)
    for entry in payload["presets"].values():
        assert entry["linkage_cache"]["hits"] > 0


def test_bench_fused_run(benchmark):
    machine = _build("i2", host_linkage_cache=True)

    def once():
        machine.stack.clear()
        machine.start("Main", "main", 120)
        machine.run()

    benchmark(once)


def test_bench_stepwise_uncached(benchmark):
    machine = _build("i2", host_linkage_cache=False)

    def once():
        machine.stack.clear()
        machine.start("Main", "main", 120)
        _legacy_run(machine)

    benchmark(once)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--engine",
        choices=["interp", "jit", "both"],
        default="interp",
        help="interp: legacy-vs-fused interpreter table; jit: compiled "
        "blocks vs the interpreter (bench_jit); both: print the two",
    )
    cli_args = parser.parse_args()
    if cli_args.engine in ("interp", "both"):
        print(report())
    if cli_args.engine in ("jit", "both"):
        import bench_jit

        print(bench_jit.report())
