"""Benchmark entry point.

    python3 perfbench/run.py --workload progressive-exp1 --seed 1 --seconds 20 --trace 0

Runs one workload against the program under ``src/`` of the checkout this
file lives in, prints an environment record and a metric table, and ends
with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of untraced runs; ``--trace 1``
reports the per-layer metrics of a traced run (see ``README.md``).
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

import harness
import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds(repeats: int = 3) -> float:
    """Median wall time of a fresh interpreter importing the workloads.

    This is the start of every in-process set-up: process start until the
    program's modules are loaded.  It is measured in child processes, after
    the window, because this process has imported them already.
    """
    code = "import sys; sys.path[:0] = sys.argv[1:]; import workloads"
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code, str(Path(__file__).resolve().parent), str(SRC)],
            check=True, timeout=120,
        )
        samples.append(time.perf_counter() - start)
    return harness.median(samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro
    import workloads

    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    state_dir = ROOT / harness.STATE_DIRNAME
    version = harness.source_fingerprint(SRC, Path(__file__).resolve().parent)
    record = harness.RunRecord()
    store = harness.DigestStore(state_dir, version)
    ctx = workloads.Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), root=ROOT, state_dir=state_dir,
        record=record, store=store,
    )
    workloads.WORKLOADS[args.workload](ctx)
    store.save()

    env = harness.environment(ROOT, args.workload, args.seed, version)
    if args.trace:
        values = layers.summarize(record.layers, record.traced_s, record.untraced_s)
        for name, share in sorted(layers.shares(values, record.traced_s).items()):
            print(f"share {name} {100.0 * share:.1f}%")
        metrics = {name: (value, len(record.layers)) for name, value in values.items()}
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        units.update(layers.EXTRA_UNITS)
        reported = [name for name, _, _ in layers.PER_LAYER]
    else:
        import_s = import_seconds() if args.workload in workloads.IN_PROCESS else 0.0
        metrics = harness.end_to_end_metrics(record, import_s)
        units = dict(harness.END_TO_END)
        reported = list(units)
    harness.emit(record, env, metrics, units, reported)
    return 0


if __name__ == "__main__":
    sys.exit(main())
