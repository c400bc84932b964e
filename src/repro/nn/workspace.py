"""Per-thread scratch high-water meter for the conv kernels.

``conv2d`` and ``quant_conv2d`` allocate transient scratch on every call —
the padded input (float32, or int8 for ``quant_conv2d``) and the float32
patch matrix of their shared gather — and drop it when the op (or, for a
training forward, its backward) is done.  Each call reports that byte
count here, and this thread keeps the largest one.  The evaluator's latency probe rebases the
meter with :func:`reset_workspace_peak` and reads
``workspace_stats()["bytes_peak"]`` afterwards: the largest single-kernel
scratch at the probe batch, the figure the cost model's activation estimate
is checked against.

The meter is thread-local for the same reason grad mode and the profiling
sink are: the serve daemon runs concurrent search jobs, and one job's
kernels must not move another job's reading.
"""

from __future__ import annotations

import threading
from typing import Dict

__all__ = ["record_scratch", "workspace_stats", "reset_workspace_peak"]

_TLS = threading.local()


def record_scratch(nbytes: int) -> None:
    """Report one kernel call's transient scratch bytes on this thread."""
    if nbytes > getattr(_TLS, "peak", 0):
        _TLS.peak = nbytes


def workspace_stats() -> Dict[str, int]:
    """``{"bytes_peak"}``: this thread's largest single-kernel scratch."""
    return {"bytes_peak": getattr(_TLS, "peak", 0)}


def reset_workspace_peak() -> int:
    """Zero this thread's peak; returns the old one.

    Call before a measurement window, then read
    ``workspace_stats()["bytes_peak"]`` after it.
    """
    prev = getattr(_TLS, "peak", 0)
    _TLS.peak = 0
    return prev
