"""FDO — feedback-directed rewriting closes the profile → linkage loop.

Each corpus program is profiled once per implementation, rewritten by
``repro.fdo.optimize`` (hot monomorphic sites promoted to section 6
DIRECTCALLs, frame classes and the replenish batch retuned from the
observed peaks, I4's bank count sized to the call-depth histogram), and
then both images run the same workload.  The moving numbers are the
modelled meters — counted memory references and cycles — because that
is the currency the paper prices linkage in; host seconds are the repo
benchmark's business (``benchmarks/suite``).

The acceptance bar mirrors the conformance suite: results bit-identical
everywhere, zero meter regressions anywhere, and a strictly positive
aggregate call-path saving on i1-i3 (i4 is already direct + banked, so
its wins are workload-dependent and only reported).

``python benchmarks/run_all.py --json-out BENCH_fdo.json fdo`` writes
the measurements under the ``fdo`` experiment (CI uploads the file).
"""

from __future__ import annotations

from repro.analysis.report import banner, format_table
from repro.check.interproc import analyze_image
from repro.fdo import build_machine, collect_profile, optimize
from repro.workloads.programs import CORPUS

PRESETS = ("i1", "i2", "i3", "i4")

#: Presets that must show an aggregate call-path saving (the late-bound
#: rungs plus the direct rung's allocator/frame retuning).
MUST_IMPROVE = ("i1", "i2", "i3")


def _corpus_for(preset: str, corpus) -> list[str]:
    return [
        name
        for name in corpus
        if not (CORPUS[name].needs_descriptors and preset == "i1")
    ]


def _run(machine, entry, args):
    machine.start(entry[0], entry[1], *args)
    results = machine.run()
    return results, {
        "cycles": machine.counter.cycles,
        "memory_references": machine.counter.memory_references,
    }


def _measure(corpus) -> dict:
    presets: dict[str, dict] = {}
    for preset in PRESETS:
        programs: dict[str, dict] = {}
        totals = {"original": [0, 0], "optimized": [0, 0]}
        regressions = []
        for name in _corpus_for(preset, corpus):
            program = CORPUS[name]
            sources = list(program.sources)
            profile = collect_profile(
                sources, preset, program.entry, tuple(program.args)
            )
            original = build_machine(sources, preset, program.entry)
            facts = analyze_image(original.image).to_facts()
            result = optimize(sources, preset, program.entry, profile, facts)

            ref_results, ref = _run(original, program.entry, program.args)
            opt_results, opt = _run(result.build(), program.entry, program.args)
            assert opt_results == ref_results, name

            if (
                opt["cycles"] > ref["cycles"]
                or opt["memory_references"] > ref["memory_references"]
            ):
                regressions.append(name)
            totals["original"][0] += ref["cycles"]
            totals["original"][1] += ref["memory_references"]
            totals["optimized"][0] += opt["cycles"]
            totals["optimized"][1] += opt["memory_references"]
            programs[name] = {
                "original": ref,
                "optimized": opt,
                "cycles_saved": ref["cycles"] - opt["cycles"],
                "memory_references_saved": (
                    ref["memory_references"] - opt["memory_references"]
                ),
                "decisions": [
                    decision["kind"]
                    for decision in result.log["decisions"]
                ],
                "noop": result.log["noop"],
            }
        presets[preset] = {
            "programs": programs,
            "original_cycles": totals["original"][0],
            "optimized_cycles": totals["optimized"][0],
            "cycles_saved": totals["original"][0] - totals["optimized"][0],
            "memory_references_saved": (
                totals["original"][1] - totals["optimized"][1]
            ),
            "regressions": regressions,
        }
    return presets


_PAYLOADS: dict[tuple, dict] = {}


def json_payload(corpus: tuple[str, ...] | None = None) -> dict:
    """The ``fdo`` section's payload (memoized per corpus)."""
    corpus = tuple(corpus) if corpus is not None else tuple(sorted(CORPUS))
    if corpus in _PAYLOADS:
        return _PAYLOADS[corpus]
    presets = _measure(corpus)
    payload = {
        "benchmark": "feedback-directed image rewriting (profile-guided "
        "promotion + frame/bank retuning)",
        "corpus": list(corpus),
        "presets": presets,
        "acceptance": {
            "zero_regressions": all(
                not entry["regressions"] for entry in presets.values()
            ),
            "call_path_saving_on": {
                preset: presets[preset]["cycles_saved"] > 0
                and presets[preset]["memory_references_saved"] > 0
                for preset in MUST_IMPROVE
            },
            "results": "bit-identical on every (program, preset) cell",
        },
    }
    _PAYLOADS[corpus] = payload
    return payload


def report() -> str:
    payload = json_payload()
    rows = []
    for preset, entry in payload["presets"].items():
        rewritten = sum(
            1 for cell in entry["programs"].values() if not cell["noop"]
        )
        rows.append(
            [
                preset,
                len(entry["programs"]),
                rewritten,
                f"{entry['original_cycles']:,}",
                f"{entry['optimized_cycles']:,}",
                f"{entry['cycles_saved']:,}",
                f"{entry['memory_references_saved']:,}",
                len(entry["regressions"]),
            ]
        )
    acceptance = payload["acceptance"]
    assert acceptance["zero_regressions"], {
        preset: entry["regressions"]
        for preset, entry in payload["presets"].items()
    }
    assert all(acceptance["call_path_saving_on"].values()), acceptance
    table = format_table(
        [
            "preset",
            "programs",
            "rewritten",
            "orig cycles",
            "fdo cycles",
            "cycles saved",
            "refs saved",
            "regressions",
        ],
        rows,
    )
    text = banner("FDO: profile-guided promotion and retuning over the corpus")
    return (
        text
        + "\n"
        + table
        + "\nresults bit-identical per cell; savings are modelled meters"
        + "\naggregate call-path saving required (and found) on "
        + ", ".join(MUST_IMPROVE)
    )


def test_fdo_report_shape():
    payload = json_payload(corpus=("calls", "fib", "dispatch"))
    assert set(payload["presets"]) == set(PRESETS)
    assert payload["acceptance"]["zero_regressions"]
    for preset in MUST_IMPROVE:
        assert payload["presets"][preset]["cycles_saved"] > 0


if __name__ == "__main__":
    print(report())
