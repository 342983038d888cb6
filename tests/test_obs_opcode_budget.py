"""The disabled observer's ≤2% budget, checked as a count.

Every observability hook is guarded by one test of a ``tracer``
attribute (docs/observability.md), so a machine with no tracer attached
pays only those tests.  Over one warm call-dense ``Main.main(5)`` run on
I1–I4, interpreted and compiled, this counts every bytecode the host
executes (``sys.settrace`` with ``f_trace_opcodes``) and those on the
package's own source lines that mention ``tracer``; the second may be at
most 2% of the first.  Counts are the same on every run, where a timed
ratio drifts with host load.
"""

from __future__ import annotations

import linecache
import sys
from pathlib import Path

import pytest

import repro
from repro.jit import install_jit
from tests.conftest import ALL_PRESETS, build
from tests.test_jit_host_calls import CALL_DENSE

#: The disabled mode's budget: the hooks' share of the host's opcodes.
BUDGET = 0.02

_PACKAGE = str(Path(repro.__file__).parent)


def _opcodes(machine) -> tuple[int, int]:
    """(opcodes, opcodes on package lines naming ``tracer``) of one warm
    ``Main.main(5)`` run."""
    machine.start("Main", "main", 5)
    machine.run()  # compile, seed and splice
    counts = [0, 0]
    hooks: dict = {}

    def opcode(frame, event, arg):
        if event == "opcode" and frame.f_lineno is not None:
            counts[0] += 1
            code = frame.f_code
            key = (code.co_filename, frame.f_lineno)
            hook = hooks.get(key)
            if hook is None:
                hook = hooks[key] = key[0].startswith(_PACKAGE) and (
                    "tracer" in linecache.getline(*key)
                )
            counts[1] += hook
        return opcode

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return opcode

    machine.start("Main", "main", 5)
    previous = sys.gettrace()
    sys.settrace(call)
    try:
        results = machine.run()
    finally:
        sys.settrace(previous)
    assert results == [sum(5 * i + 2 for i in range(5))]
    return counts[0], counts[1]


@pytest.mark.parametrize("engine", ["interp", "jit"])
@pytest.mark.parametrize("preset", ALL_PRESETS)
def test_disabled_hooks_take_at_most_two_percent_of_the_opcodes(preset, engine):
    machine = build([CALL_DENSE], preset=preset)
    if engine == "jit":
        install_jit(machine)
    total, hooked = _opcodes(machine)
    assert hooked > 0  # the count sees the hooks at all
    assert hooked / total <= BUDGET, f"{hooked} of {total} opcodes"
