"""Alternating perfbench runs of two checkouts of this repository.

    python3 benchmarks/perfbench_ab.py BASE_CHECKOUT HEAD_CHECKOUT

Runs both gated workloads of ``BENCHMARK.json`` as three alternating pairs
(``--seed 1 --seconds 20``; the base goes first in the first pair) with each
checkout's own ``perfbench/run.py``, and prints the median of every
end-to-end metric per side.  Exits non-zero when a run fails or reports
``correct: false``, or when ``final_hv`` differs between the two sides.  It sets no
speed bound: speed claims stay a same-machine A/B by the author.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 3
RUN_ARGS = ["--seed", "1", "--seconds", "20"]


def perfbench(checkout: Path, workload: str) -> dict:
    """One untraced run; the ``metrics`` of its closing JSON line."""
    out = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload, *RUN_ARGS],
        cwd=checkout, check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if result["correct"] is not True:
        raise SystemExit(f"{checkout}: {workload} is not correct: {result}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: perfbench_ab.py BASE_CHECKOUT HEAD_CHECKOUT", file=sys.stderr)
        return 2
    sides = {"base": Path(argv[0]).resolve(), "head": Path(argv[1]).resolve()}
    spec = json.loads((sides["head"] / "BENCHMARK.json").read_text())
    metric_names = [metric["name"] for metric in spec["end_to_end"]]
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {side: [] for side in sides}
        for pair in range(PAIRS):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(perfbench(sides[side], workload))
        print(f"{workload}: medians of {PAIRS} runs (base -> head)")
        for name in metric_names:
            base, head = (statistics.median(r[name] for r in runs[side]) for side in sides)
            print(f"  {name:<14} {base:>12.5g} {head:>12.5g}")
        hv = {side: sorted({r["final_hv"] for r in runs[side]}) for side in sides}
        if hv["base"] != hv["head"]:
            print(f"  final_hv differs: base {hv['base']}, head {hv['head']}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
