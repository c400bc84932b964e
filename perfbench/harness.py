"""Shared plumbing of the benchmark: run records, statistics, environment,
output digests and the result line.

Nothing here imports :mod:`repro`; ``run.py`` puts the checkout's ``src``
directory on ``sys.path`` before any workload module is loaded.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

#: scratch space of the benchmark inside the checkout (ignored by git)
STATE_DIRNAME = ".perfbench"


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


# --------------------------------------------------------------------------- #
# run record and failure accounting
# --------------------------------------------------------------------------- #
@dataclass
class RunRecord:
    """Samples one benchmark run collects; turned into metrics at the end."""

    #: seconds from process start until the first round could run, per set-up
    setup_s: List[float] = field(default_factory=list)
    #: timed phase per unit (one search, one block of evaluations, one job pair)
    unit_s: List[float] = field(default_factory=list)
    #: fresh evaluations per unit, aligned with unit_s
    unit_evals: List[int] = field(default_factory=list)
    #: wall time of every propose→evaluate→observe round
    round_s: List[float] = field(default_factory=list)
    #: per round: wall time divided by the fresh evaluations it ran (ms)
    eval_ms: List[float] = field(default_factory=list)
    #: hypervolume of each unit whose output is deterministic (fixed units)
    hv: List[float] = field(default_factory=list)
    #: extra resident memory of processes outside this one (serve daemon)
    external_rss_mb: float = 0.0
    #: per-layer values, one dict per traced unit (trace runs only)
    layers: List[Dict[str, float]] = field(default_factory=list)
    #: timed phase of traced and untraced twins (trace runs only)
    traced_s: List[float] = field(default_factory=list)
    untraced_s: List[float] = field(default_factory=list)
    #: operation accounting
    attempted: int = 0
    failed: int = 0
    errors: List[Dict[str, str]] = field(default_factory=list)
    checks: Dict[str, int] = field(default_factory=lambda: {"passed": 0, "new": 0, "skipped": 0})

    def add_round(self, seconds: float, fresh: int) -> None:
        self.round_s.append(seconds)
        if fresh > 0:
            self.eval_ms.append(1000.0 * seconds / fresh)

    def fail(self, op: str, kind: str, message: str) -> None:
        self.failed += 1
        self.errors.append({"op": op, "type": kind, "message": message[:500]})

    @contextmanager
    def operation(self, op: str) -> Iterator[None]:
        """Count one attempted operation; a raise is recorded, not propagated."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # the benchmark must keep running and report
            self.fail(op, type(exc).__name__, "".join(
                traceback.format_exception_only(type(exc), exc)).strip())


# --------------------------------------------------------------------------- #
# output digests, checked across runs of the same seed
# --------------------------------------------------------------------------- #
def digest(rows: Sequence[Sequence[object]]) -> str:
    """Order-independent digest of result rows; floats keep every digit."""
    text = json.dumps(sorted(json.dumps([repr(v) for v in row]) for row in rows))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def source_fingerprint(*roots: Path) -> str:
    """Digest of the program's and the benchmark's source, so stored digests
    are only ever compared between runs of the same code and inputs."""
    sha = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            sha.update(str(path.relative_to(root.parent)).encode("utf-8"))
            sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


class DigestStore:
    """Digests of earlier runs in this checkout, keyed by program version.

    A key seen before must reproduce its digest exactly; a new key is stored.
    """

    def __init__(self, state_dir: Path, version: str):
        self.path = state_dir / "digests.json"
        self.version = version
        try:
            self._data: Dict[str, str] = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self._data = {}

    def check(self, record: RunRecord, key: str, value: str) -> None:
        full = f"{self.version}/{key}"
        known = self._data.get(full)
        if known is None:
            self._data[full] = value
            record.checks["new"] += 1
        elif known == value:
            record.checks["passed"] += 1
        else:
            record.fail(key, "OutputMismatch", f"digest {value[:12]} != stored {known[:12]}")

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self._data, sort_keys=True, indent=0))
        os.replace(tmp, self.path)


# --------------------------------------------------------------------------- #
# environment record
# --------------------------------------------------------------------------- #
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> Dict[str, object]:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, AttributeError):
        return {"name": None, "version": None}


def _git(root: Path) -> Dict[str, object]:
    if not (root / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout
        return {"commit": commit, "dirty": bool(status.strip())}
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}


def environment(root: Path, workload: str, seed: int, version: str) -> Dict[str, object]:
    import numpy as np

    threads = {
        key: value for key, value in sorted(os.environ.items())
        if key.startswith(("OPENBLAS_", "OMP_", "MKL_", "BLIS_", "VECLIB_"))
    }
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "cpu": _cpu_model(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": threads,
        "git": _git(root),
        "source_fingerprint": version,
    }


# --------------------------------------------------------------------------- #
# memory
# --------------------------------------------------------------------------- #
def own_peak_rss_mb() -> float:
    """Peak RSS of this process (MiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process (MiB); 0 when it cannot be read."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


# --------------------------------------------------------------------------- #
# unit scheduling
# --------------------------------------------------------------------------- #
class Window:
    """Decides whether another unit fits in the measured window.

    The first ``minimum`` units always run (they carry the deterministic
    outputs); after that a unit starts only while it is expected to end
    inside the window.
    """

    def __init__(self, seconds: float, minimum: int):
        self.seconds = seconds
        self.minimum = minimum
        self.start = time.perf_counter()
        self.durations: List[float] = []

    def units(self) -> Iterator[int]:
        index = 0
        while True:
            elapsed = time.perf_counter() - self.start
            if index >= self.minimum:
                if elapsed + mean(self.durations) > self.seconds:
                    return
            began = time.perf_counter()
            yield index
            self.durations.append(time.perf_counter() - began)
            index += 1


# --------------------------------------------------------------------------- #
# result line
# --------------------------------------------------------------------------- #
#: (name, unit) of every end-to-end metric, in BENCHMARK.json order
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("search_s", "s"),
    ("evals_per_s", "1/s"),
    ("round_p50_s", "s"),
    ("eval_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("final_hv", "hv"),
)


def end_to_end_metrics(record: RunRecord, import_s: float) -> Dict[str, Tuple[float, int]]:
    """``name -> (value, sample count)`` for every end-to-end metric."""
    return {
        "setup_s": (import_s + median(record.setup_s), len(record.setup_s)),
        "search_s": (median(record.unit_s), len(record.unit_s)),
        "evals_per_s": (sum(record.unit_evals) / sum(record.unit_s), sum(record.unit_evals)),
        "round_p50_s": (median(record.round_s), len(record.round_s)),
        "eval_p50_ms": (median(record.eval_ms), len(record.eval_ms)),
        "peak_rss_mb": (own_peak_rss_mb() + record.external_rss_mb, 1),
        "final_hv": (mean(record.hv), len(record.hv)),
    }


def emit(
    record: RunRecord,
    env: Dict[str, object],
    metrics: Dict[str, Tuple[float, int]],
    units: Dict[str, str],
    reported: Sequence[str],
) -> None:
    """Print the report table of ``metrics``, then the one-line JSON result
    carrying the ``reported`` ones."""
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{'metric':<34}{'value':>16}  {'unit':<8}{'samples':>8}")
    for name, (value, count) in metrics.items():
        print(f"{name:<34}{value:>16.6g}  {units[name]:<8}{count:>8}")
    print(f"checks {json.dumps(record.checks, sort_keys=True)}")
    for error in record.errors:
        print("error " + json.dumps(error, sort_keys=True))
    result = {
        "correct": record.failed == 0,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": units[name]} for name in reported
        },
    }
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
