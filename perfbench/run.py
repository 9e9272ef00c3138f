"""Layered end-to-end benchmark of the repro package.

    python3 perfbench/run.py --workload mine --seed 1 --seconds 12 --trace 0

Workloads: ``mine``, ``serve``, ``stream-ingest`` (see perfbench/README.md).
Every line but the last is for people: each metric by name with its unit.
The last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The exit code is 0 only when every
answer was verified; 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
import traceback
from pathlib import Path

import common
import spec
from common import ROOT, SRC, BenchError


def _import_repro():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    origin = (SRC / "repro").resolve()
    if origin not in Path(repro.__file__).resolve().parents:
        raise BenchError(f"imported repro from {repro.__file__}, not {origin}")


#: workload name -> the module in this directory that runs it
WORKLOAD_MODULES = {"mine": "wl_mine", "serve": "wl_serve", "stream-ingest": "wl_stream"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOAD_MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)
    # a SIGTERM unwinds like an exit, so the daemon and scratch space go too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        _import_repro()
        from spans import Tracer

        tracer = Tracer() if args.trace else None
        module = importlib.import_module(WORKLOAD_MODULES[args.workload])
        with common.Scratch(args.workload, args.seed) as scratch:
            outcome = module.run(args.seed, args.seconds, tracer, args.tiny, scratch)
            if tracer is not None:
                spans_path = common.SCRATCH / f"spans-{args.workload}.jsonl"
                tracer.dump(spans_path)
                outcome.info["spans"] = len(tracer.spans)
                outcome.info["spans_file"] = str(spans_path.relative_to(ROOT))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except Exception:  # the benchmark failed to run: no result line
        traceback.print_exc()
        return 2

    info = {"workload": args.workload, **common.env_info(args.seed), **outcome.info}
    print("# " + json.dumps(info, sort_keys=True, default=str))
    for problem in outcome.problems:
        print(f"# FAILED: {problem}")
    error_rate = outcome.failed / max(outcome.attempted, 1)
    for name, value, unit in outcome.named + [("error_rate", error_rate, "ratio")]:
        print(f"{name} = {value:.6g} {unit}")

    if args.trace:
        units = spec.PER_LAYER_UNITS
        values = {name: outcome.layers.get(name, 0) for name in units}
        for name, unit in units.items():
            print(f"{name} = {values[name]:.6g} {unit}")
    else:
        units = spec.END_TO_END_UNITS
        values = {name: outcome.metrics[name] for name in units}
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
