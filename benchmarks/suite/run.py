"""The repo benchmark: every end-to-end and per-layer metric from one command.

Usage (from the repository root; ``src/`` is put on the path here)::

    python3 benchmarks/suite/run.py                    # all four workloads
    python3 benchmarks/suite/run.py --workload calldense --seed 3 --seconds 20
    python3 benchmarks/suite/run.py --workload serve-inproc --trace 1
    python3 benchmarks/suite/run.py --ladder           # host-cost ladder

``--trace 0`` (the default) prints the end-to-end metrics listed in
``BENCHMARK.json``; ``--trace 1`` runs the workload untraced for half
of ``--seconds`` and then the same chunks again with span wrappers on,
prints the per-layer metrics, and writes the merged Chrome trace to
``benchmarks/suite/out/``.  Each metric prints as ``workload metric
value unit n=samples``; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A JSON record of the run, stamped with the git commit,
Python version, CPU count, UTC date and load average, is written next
to the trace.

Exit status: 0 when every answer was right, 1 on a wrong answer, 2 when
a fresh system's modelled meters differ from ``reference.json``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
OUT = SUITE / "out"
sys.path[:0] = [str(ROOT / "src"), str(SUITE)]

try:
    import reference
    import workloads as wl
    from hostspeed import sampled
    from spans import Tracer
except ImportError as missing:
    print(f"run.py: cannot import the program from {ROOT / 'src'}: {missing}", file=sys.stderr)
    raise SystemExit(1) from None


#: No chunk starts later than this many seconds into a workload's run,
#: so a run ends within three minutes even on a slow host or commit.
MEASURE_LIMIT_S = 120


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- metrics -------------------------------------------------------------------


class AsMeasured:
    """A host-speed stand-in that leaves every time as measured."""

    def factor(self, start: float, end: float) -> float:
        return 1.0


def end_to_end(phase: wl.Phase, builds: list, rss_mb: float, speed) -> dict:
    """name -> (value, samples).  Each operation and build is divided by
    the host-speed factor over its own interval, throughput and CPU by
    the factor over the measured chunks."""
    factor = speed.factor(phase.begin, phase.end)
    latencies = [(end - start) / speed.factor(start, end) for start, end in phase.spans]
    setups = [(end - start) / speed.factor(start, end) for start, end in builds]
    ops = phase.attempted
    done = ops - phase.failed
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "ops_per_s": (done / phase.wall * factor, done),
        "p50_ms": (wl.nearest_rank(latencies, 0.50) * 1e3, len(latencies)),
        "p99_ms": (wl.nearest_rank(latencies, 0.99) * 1e3, len(latencies)),
        "cpu_ms_per_op": (phase.cpu / ops * 1e3 / factor, ops),
        "peak_rss_mb": (rss_mb, 1),
    }


def normalize(value: float, unit: str, factor: float) -> float:
    """A time at reference host speed: times divide, rates multiply."""
    if unit in ("s", "ms", "us"):
        return value / factor
    if unit.endswith("/s"):
        return value * factor
    return value


def per_layer(workload, tracer: Tracer, phase: wl.Phase, before: dict, after: dict,
              reply_cache) -> dict:
    """name -> (value, samples), as measured in the traced phase;
    ``trace.overhead`` is added by the caller.

    Time spent in a layer is reported as a share: of the traced build for
    set-up layers, of the measured window's wall time for the others
    (summed over processes, so it can exceed 1).  A layer a workload
    never reaches then reads 0 as a share, not as a time."""
    window = (phase.begin, phase.end)
    delta = {key: after[key] - before[key] for key in before}
    ops = phase.attempted
    whole = tracer.self_times()
    selfs = tracer.self_times(window)
    _calls, build_s = tracer.inclusive("bench.build")

    def ratio(part, whole_):
        return part / whole_ if whole_ else 0.0

    def share(name):
        return ratio(selfs.get(name, 0.0), phase.wall)

    out = {
        f"{layer}_share": ratio(whole.get(layer, 0.0), build_s)
        for layer in ("lang.compile", "lang.link", "check.analyze", "jit.install",
                      "net.worker.build")
    }
    _calls, run_s = tracer.inclusive("interp.processes.run", window)
    if isinstance(workload, wl.CallDense):
        interp = [phase.engine_time[(preset, "interp")] for preset in wl.PRESETS]
        out["interp.steps_per_s"] = ratio(sum(s for s, _ in interp), sum(t for _, t in interp))
    else:
        out["interp.steps_per_s"] = ratio(delta["steps"], run_s)
    for preset in wl.PRESETS:
        jit = phase.engine_time.get((preset, "jit"), (0, 0.0))
        base = phase.engine_time.get((preset, "interp"), (0, 0.0))
        out[f"jit.speedup.{preset}"] = ratio(ratio(*jit), ratio(*base))
    hits = delta["linkage_hits"]
    out["interp.linkage_hit_ratio"] = ratio(hits, hits + delta["linkage_misses"])
    out["jit.deopts"] = delta["jit_deopts"]
    out["jit.blocks"] = after["jit_blocks"]
    for preset in ("i3", "i4"):
        fast = delta[f"fast.{preset}"]
        out[f"ifu.fast_transfer_share.{preset}"] = ratio(fast, fast + delta[f"slow.{preset}"])
    out["alloc.allocator_traps"] = delta["allocator_traps"]
    out["banks.flushes"] = delta["bank_flushes"]
    out["machine.memory_refs"] = delta["memory_refs"]
    out["machine.cycles_per_op"] = ratio(delta["cycles"], ops)

    out["interp.processes.run_share"] = ratio(run_s, phase.wall)
    out["interp.processes.table_len"] = tracer.gauges.get("interp.processes.table_len", 0)

    out["net.shard.step_share"] = share("net.shard.step")
    out["net.shard.deliver_share"] = share("net.shard.deliver")
    out["net.shard.remote_calls"] = delta["remote_calls"]
    out["net.shard.reply_cache_len"] = (
        reply_cache if reply_cache is not None
        else tracer.gauges.get("net.shard.reply_cache_len", 0)
    )
    out["net.wire.encodes"] = tracer.inclusive("net.wire.encode", window)[0]
    out["net.wire.encode_share"] = share("net.wire.encode")
    out["net.wire.decodes"] = tracer.inclusive("net.wire.decode", window)[0]
    out["net.wire.decode_share"] = share("net.wire.decode")
    out["net.wire.words_per_req"] = ratio(delta["wire_words"], ops)
    out["net.frame.feed_share"] = share("net.frame.feed")
    out["net.frame.frames_per_feed"] = ratio(
        tracer.counts["net.frame.frames"], tracer.inclusive("net.frame.feed")[0]
    )
    out["net.transport.send_share"] = share("net.transport.send")
    out["net.transport.poll_share"] = share("net.transport.poll")
    out["net.transport.messages_per_req"] = ratio(delta["messages"], ops)
    out["net.cluster.ticks"] = delta["ticks"]
    out["net.cluster.tick_share"] = share("net.cluster.tick")
    out["net.serve.admission_share"] = share("net.serve.serve")
    out["net.serve.rounds"] = tracer.inclusive("net.cluster.pump", window)[0]
    proc = isinstance(workload, wl.ServeProc)
    out["net.serve.backpressure_stalls"] = 0 if proc else phase.stalls
    out["net.procserve.frames_per_req"] = ratio(delta["frames"], ops)
    out["net.procserve.frontdoor_cpu_share"] = ratio(phase.frontdoor_cpu, phase.cpu) if proc else 0.0
    out["net.procserve.backpressure_stalls"] = phase.stalls if proc else 0
    out["net.procserve.inflight_max"] = tracer.gauges.get("net.procserve.inflight_max", 0)
    out["net.worker.busy_share"] = tracer.worker_busy_share(
        ("net.worker.pump", "net.worker.dispatch"), window
    )
    out["net.worker.idle_pumps"] = tracer.counts["net.worker.idle_pumps"]
    return {name: (value, ops) for name, value in out.items()}


# -- one workload --------------------------------------------------------------


def _untraced(workload, seconds: float, deadline: float = math.inf):
    """(phase, metrics at reference speed, metrics as measured, factor)."""
    references = reference.load()
    first = wl.SETUP_REPEATS // 2
    with sampled(workload.single_threaded) as speed:
        system, builds = wl.build(workload, first)
        try:
            reference.check(workload, system, references)
            stream = wl.warm_up(workload, system)
            phase = wl.measure(
                workload, system, stream, wl.chunk_count(workload, seconds), (speed.pid,),
                deadline,
            )
            rss_mb = wl.peak_rss_mb(wl.worker_pids((speed.pid,)))
        finally:
            workload.close(system)
        system, later = wl.build(workload, wl.SETUP_REPEATS - first)
        workload.close(system)
        builds += later
    metrics = end_to_end(phase, builds, rss_mb, speed)
    raw = end_to_end(phase, builds, rss_mb, AsMeasured())
    return phase, metrics, raw, speed.factor(phase.begin, phase.end)


def _traced(workload, seconds: float, deadline: float = math.inf):
    """(phase, metrics at reference speed, metrics as measured, factor, tracer)."""
    references = reference.load()
    with sampled(workload.single_threaded) as speed:
        untraced, phase, raw, tracer = _traced_phases(
            workload, seconds, references, speed.pid, deadline
        )
    units = {entry["name"]: entry["unit"] for entry in spec()["per_layer"]}
    factor = speed.factor(phase.begin, phase.end)
    metrics = {
        name: (normalize(value, units[name], factor), samples)
        for name, (value, samples) in raw.items()
    }
    # Seconds per chunk, traced over untraced: the same chunks (fewer only
    # past the deadline), each half at its own host speed.
    def per_chunk(part: wl.Phase, part_factor: float) -> float:
        return part.wall / part_factor / part.chunks

    untraced_factor = speed.factor(untraced.begin, untraced.end)
    raw["trace.overhead"] = (per_chunk(phase, 1.0) / per_chunk(untraced, 1.0), phase.attempted)
    metrics["trace.overhead"] = (
        per_chunk(phase, factor) / per_chunk(untraced, untraced_factor), phase.attempted
    )
    return phase, metrics, raw, factor, tracer


def _traced_phases(workload, seconds: float, references: dict, sampler: int, deadline: float):
    system, _ = wl.build(workload, repeats=1)
    try:
        reference.check(workload, system, references)
        chunks = wl.chunk_count(workload, seconds / 2)
        untraced = wl.measure(
            workload, system, wl.warm_up(workload, system), chunks, (sampler,), deadline
        )
    finally:
        workload.close(system)

    spool = OUT / f"spool-{os.getpid()}"
    spool.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(spool)
    tracer.install()
    try:
        with tracer.span(f"bench.{workload.name}"):
            with tracer.span("bench.build"):
                system = workload.build()
            try:
                reference.check(workload, system, references)
                stream = wl.warm_up(workload, system)
                before = workload.snapshot(system)
                phase = wl.measure(
                    workload, system, stream, untraced.chunks, (sampler,), deadline
                )
                after = workload.snapshot(system)
                reply_cache = workload.reply_cache_len(system)
            finally:
                workload.close(system)
        tracer.merge_workers()
    finally:
        tracer.uninstall()
        shutil.rmtree(spool, ignore_errors=True)
    path = OUT / f"trace-{workload.name}-seed{workload.seed}.json"
    path.write_text(json.dumps(tracer.chrome()))
    print(f"trace: {path.relative_to(ROOT)}")
    phase.wrong += untraced.wrong
    phase.lost += untraced.lost
    raw = per_layer(workload, tracer, phase, before, after, reply_cache)
    return untraced, phase, raw, tracer


def provenance() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "loadavg": list(os.getloadavg()),
    }


def result_doc(phase: wl.Phase, metrics: dict, listed: list[dict]) -> dict:
    """The contract's last line: every listed metric, with its unit."""
    return {
        "correct": phase.wrong == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]][0], "unit": entry["unit"]}
            for entry in listed
        },
    }


def run_one(workload, seconds: float, trace: bool) -> int:
    """Run one workload, print its metrics and result line; return the
    exit status."""
    name, seed = workload.name, workload.seed
    listed = spec()["per_layer" if trace else "end_to_end"]
    deadline = time.monotonic() + MEASURE_LIMIT_S
    try:
        if trace:
            phase, metrics, raw, factor, _tracer = _traced(workload, seconds, deadline)
        else:
            phase, metrics, raw, factor = _untraced(workload, seconds, deadline)
    except reference.ReferenceMismatch as mismatch:
        print(f"modelled-meter mismatch: {mismatch}", file=sys.stderr)
        return 2
    planned = wl.chunk_count(workload, seconds / 2 if trace else seconds)
    if phase.chunks < planned:
        print(f"{name}: measuring stopped at the {MEASURE_LIMIT_S} s limit after "
              f"{phase.chunks} of {planned} chunks", file=sys.stderr)
    doc = result_doc(phase, metrics, listed)
    print(f"{name} host.factor {factor:.4f} x (kernel time / reference; values below are "
          "at reference speed, as measured in brackets)")
    for entry in listed:
        value, samples = metrics[entry["name"]]
        print(f"{name} {entry['name']} {value:.6g} {entry['unit']} n={samples} "
              f"[{raw[entry['name']][0]:.6g}]")
    OUT.mkdir(exist_ok=True)
    record = dict(provenance(), workload=name, seed=seed, seconds=seconds, trace=trace,
                  host_factor=factor, as_measured={key: value for key, (value, _) in raw.items()},
                  result=doc)
    (OUT / f"record-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(doc))
    return 0 if doc["correct"] else 1


def run_many(names: list[str], seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh subprocess; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, child.returncode)
        if child.returncode == 2 or not lines:
            continue
        doc = json.loads(lines[-1])
        combined["correct"] &= doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        for metric, entry in doc["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(wl.WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=wl.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--ladder", action="store_true",
                        help="run the host-cost ladder instead of the workloads")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    # ProcessCluster binds its unix socket under tempfile's directory.
    # Keep it inside the checkout, as a relative path so the socket path
    # stays within the 108-byte AF_UNIX limit however deep the checkout.
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = os.path.relpath(OUT / "tmp")
    if args.ladder:
        import ladder

        return ladder.main(args.seed)
    names = args.workload or list(wl.WORKLOADS)
    if len(names) == 1:
        return run_one(wl.make(names[0], args.seed), seconds, bool(args.trace))
    return run_many(names, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
