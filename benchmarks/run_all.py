"""Run every experiment's report and print the paper-vs-measured tables.

Usage::

    python benchmarks/run_all.py                          # all experiments
    python benchmarks/run_all.py f2 c5 c13                # a subset
    python benchmarks/run_all.py --json-out BENCH_net.json net   # + JSON

The output of a full run is recorded in EXPERIMENTS.md.  Timing-oriented
micro-benchmarks live in the same modules and run separately with
``pytest benchmarks/ --benchmark-only``; the repo benchmark
(``benchmarks/suite``) is the one harness that times whole workloads.

With ``--json-out PATH``, results are also written machine-readably to
PATH: experiments that expose a ``json_payload()`` contribute
structured data, the rest contribute their report text.  Sections are
merged into an existing file by experiment name, so runs of different
subsets accumulate, and each section carries a ``stamp``: git SHA (in a
git checkout), Python version, CPU count and UTC date.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

#: Experiment name -> module name, imported lazily so one broken bench
#: fails fast with a clear message instead of taking the whole runner
#: (and every other experiment) down at import time.
EXPERIMENTS = {
    "f1": "bench_f1_indirection",
    "f2": "bench_f2_frameheap",
    "f3": "bench_f3_banks",
    "c1": "bench_c1_call_density",
    "c2": "bench_c2_byte_census",
    "c3": "bench_c3_t1_savings",
    "c4": "bench_c4_descriptor",
    "c5": "bench_c5_jump_speed",
    "c6": "bench_c6_d1_space",
    "c7": "bench_c7_bank_overflow",
    "c8": "bench_c8_frame_sizes",
    "c9": "bench_c9_alloc_speed",
    "c10": "bench_c10_arg_passing",
    "c12": "bench_c12_return_stack",
    "c13": "bench_c13_implementations",
    "c14": "bench_c14_pointer_locals",
    "c15": "bench_c15_local_traffic",
    "c16": "bench_c16_hybrid",
    "fdo": "bench_fdo",
    "obs": "bench_obs_overhead",
    "faults": "bench_faults",
    "net": "bench_net",
}


def _load(name: str):
    """Import one experiment module; fail fast and loud on breakage."""
    import importlib

    module_name = EXPERIMENTS[name]
    try:
        return importlib.import_module(module_name)
    except Exception as fault:
        print(
            f"benchmark {name!r} ({module_name}.py) failed to import: "
            f"{type(fault).__name__}: {fault}",
            file=sys.stderr,
        )
        print(
            "fix or exclude it explicitly; refusing to run a partial suite",
            file=sys.stderr,
        )
        raise SystemExit(2) from fault


def stamp() -> dict:
    """Where and when a section was measured."""
    doc = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    if (ROOT / ".git").exists():
        try:
            doc["git_sha"] = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return doc


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"subset to run (default: all of {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--json-out",
        metavar="PATH",
        help="also merge machine-readable results into PATH",
    )
    args = parser.parse_args(argv)

    wanted = [name.lower() for name in args.experiments] or list(EXPERIMENTS)
    unknown = [name for name in wanted if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2

    collected: dict[str, object] = {}
    for name in wanted:
        module = _load(name)
        text = module.report()
        print(text)
        print()
        if args.json_out:
            payload_fn = getattr(module, "json_payload", None)
            payload = payload_fn() if payload_fn else {"report": text}
            collected[name] = {**payload, "stamp": stamp()}

    if args.json_out:
        out = Path(args.json_out)
        doc = json.loads(out.read_text()) if out.exists() else {}
        doc.setdefault("experiments", {}).update(collected)
        out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
