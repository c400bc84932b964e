"""The disk tiers of evaluation reuse: one keyed store, two codecs.

AutoMC's progressive search extends evaluated schemes one step at a time,
so work is reused at two grains, both persisted under a directory that
concurrent processes, recycled worker pools and later runs share:

* :class:`ResultCache` — finished :class:`EvaluationResult` s as JSON, so a
  repeated scheme costs nothing.  JSON floats round-trip exactly (``repr``
  based), so a hit reproduces the original result bit for bit.
* :class:`ModelSnapshotStore` — trained prefix models (structure + state via
  :func:`~repro.nn.serialization.save_module`, plus the accuracy carry and
  per-step reports/costs), so a new scheme resumes its longest stored
  prefix instead of replaying it.  A state dict alone would not do: the
  structure comes from the surgery the snapshot exists to skip.  Resuming
  is bit-identical to replaying, because per-step RNG seeds derive from
  stable digests of sub-scheme identifiers.

Both are a :class:`DiskStore`, which owns everything but the codec:

* **Layout** — ``<dir>/<fingerprint[:16]>/<sha256(identifier)[:24]><suffix>``
  (``.json`` results, ``.snap`` snapshots), so evaluators with different
  fingerprints never exchange entries.
* **Atomic writes** — :func:`atomic_write` encodes into a temp file in the
  same directory and renames it into place, so readers never see a partial
  file and no locking is needed.
* **Misses** — a missing file, an entry stored under another identifier (a
  digest collision; the file is kept) and an unreadable file (a truncated
  write from a killed worker, foreign data; the file is deleted) all read
  as misses, and the caller evaluates or replays instead.
* **Oldest-first eviction** — every hit refreshes the file's mtime, and
  eviction deletes by ``(mtime, name)`` under an entry cap, a byte cap or
  both, never the entry just written.
* **Foreign hits** — ``written_ids`` holds what this instance wrote, so a
  hit outside it is work another job, process or run paid for.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Callable, List, Optional, Set, Tuple, TypeVar, Union

from ..compression import StepReport
from ..nn.serialization import load_module, save_module
from ..space.scheme import CompressionScheme
from .evaluator import EvaluationResult, ModelSnapshot

#: default ResultCache size cap (one JSON file per evaluated scheme)
DEFAULT_CACHE_ENTRIES = 10_000

#: default on-disk budget — roughly a few hundred resnet56-sized snapshots
DEFAULT_SNAPSHOT_BUDGET_MB = 256.0

T = TypeVar("T")

#: (mtime, size, path) of one stored file
Entry = Tuple[float, int, Path]


def atomic_write(path, encode: Callable[[str], None]) -> int:
    """Write ``path`` by running ``encode(tmp)`` on a temp file beside it and
    renaming the result into place; returns the bytes written.

    A failing ``encode`` leaves neither the temp file nor ``path`` behind.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    os.close(fd)
    try:
        encode(tmp)
        size = os.path.getsize(tmp)
        os.replace(tmp, path)
    except BaseException:
        _unlink(tmp)
        raise
    return size


def _unlink(path) -> bool:
    try:
        os.unlink(path)
    except OSError:
        return False
    return True


def _scan(root: Path, suffix: Union[str, Tuple[str, ...]]) -> List[Entry]:
    """Every ``suffix`` file under ``root`` (a tuple matches any of its
    suffixes), oldest first by ``(mtime, name)``."""
    entries = []
    try:
        names = os.listdir(root)
    except OSError:
        return []
    for name in names:
        if not name.endswith(suffix):
            continue
        path = Path(root) / name
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append((stat.st_mtime, stat.st_size, path))
    entries.sort(key=lambda e: (e[0], e[2].name))
    return entries


def _evict(
    entries: List[Entry],
    max_entries: Optional[int] = None,
    max_bytes: Optional[int] = None,
    keep: Optional[Path] = None,
) -> int:
    """Delete ``entries`` oldest first until both caps hold; ``keep`` survives
    even when it alone breaks a cap.  Returns the number of files removed."""
    count = len(entries)
    total = sum(size for _, size, _ in entries)
    removed = 0
    for _, size, path in entries:
        if (max_entries is None or count <= max_entries) and (
            max_bytes is None or total <= max_bytes
        ):
            break
        if path == keep or not _unlink(path):
            continue
        count -= 1
        total -= size
        removed += 1
    return removed


def _stats(root: Path, suffix: Union[str, Tuple[str, ...]]) -> dict:
    entries = _scan(root, suffix)
    return {
        "root": str(root),
        "entries": len(entries),
        "bytes": sum(size for _, size, _ in entries),
    }


class DiskStore:
    """One fingerprint's directory of files keyed by identifier.

    Subclasses supply the file ``suffix`` and the codec: they :meth:`read`
    with a ``decode(path)`` that returns ``(stored identifier, value)`` and
    :meth:`write` with an ``encode(tmp_path)``.
    """

    suffix: str

    def __init__(self, directory, fingerprint: str):
        self.root = Path(directory) / fingerprint[:16]
        self.root.mkdir(parents=True, exist_ok=True)
        #: identifiers this instance wrote; a hit outside it is foreign
        self.written_ids: Set[str] = set()

    def _path(self, identifier: str) -> Path:
        digest = hashlib.sha256(identifier.encode("utf-8")).hexdigest()[:24]
        return self.root / f"{digest}{self.suffix}"

    def __contains__(self, identifier: str) -> bool:
        return self._path(identifier).exists()

    def read(self, identifier: str, decode: Callable[[Path], Tuple[str, T]]) -> Optional[T]:
        """The decoded entry, its mtime refreshed; ``None`` on any miss."""
        path = self._path(identifier)
        try:
            stored, value = decode(path)
        except FileNotFoundError:
            return None
        except Exception:  # truncated write, foreign data: any decode error
            _unlink(path)
            return None
        if stored != identifier:  # digest collision
            return None
        try:
            os.utime(path)  # mark as recently used for eviction ordering
        except OSError:
            pass
        return value

    def write(self, identifier: str, encode: Callable[[str], None]) -> int:
        """Store one entry atomically; returns the bytes written."""
        size = atomic_write(self._path(identifier), encode)
        self.written_ids.add(identifier)
        return size

    def entries(self) -> List[Entry]:
        return _scan(self.root, self.suffix)

    def evict(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
        keep: Optional[Path] = None,
    ) -> int:
        return _evict(self.entries(), max_entries, max_bytes, keep)

    def stats(self) -> dict:
        """Point-in-time entries and bytes of this fingerprint's directory."""
        return _stats(self.root, self.suffix)


class ResultCache(DiskStore):
    """Evaluation results as JSON, capped at ``max_entries`` files per
    fingerprint (``None`` disables the cap).

    The entry count is seeded by one scan on the first new entry and kept
    up to date after that, so a put does not scan a full directory.  One
    instance can serve several engines (the serve scheduler hands one cache
    to every job).
    """

    suffix = ".json"

    def __init__(
        self,
        cache_dir,
        fingerprint: str,
        max_entries: Optional[int] = DEFAULT_CACHE_ENTRIES,
    ):
        super().__init__(cache_dir, fingerprint)
        self.max_entries = max_entries
        self._entry_count: Optional[int] = None

    def get(self, scheme: CompressionScheme) -> Optional[EvaluationResult]:
        def decode(path: Path) -> Tuple[str, EvaluationResult]:
            payload = json.loads(path.read_text())
            return payload["identifier"], EvaluationResult(
                scheme=scheme,
                params=payload["params"],
                flops=payload["flops"],
                accuracy=payload["accuracy"],
                base_params=payload["base_params"],
                base_flops=payload["base_flops"],
                base_accuracy=payload["base_accuracy"],
                cost=payload["cost"],
                step_reports=[StepReport(**r) for r in payload["step_reports"]],
                step_costs=list(payload["step_costs"]),
                latency_ms=payload.get("latency_ms", 0.0),
                workspace_bytes_peak=payload.get("workspace_bytes_peak", 0),
            )

        return self.read(scheme.identifier, decode)

    def put(self, result: EvaluationResult) -> None:
        identifier = result.scheme.identifier
        payload = {
            "identifier": identifier,
            "params": result.params,
            "flops": result.flops,
            "accuracy": result.accuracy,
            "base_params": result.base_params,
            "base_flops": result.base_flops,
            "base_accuracy": result.base_accuracy,
            "cost": result.cost,  # informational; hits are re-charged at zero
            "step_costs": result.step_costs,
            "step_reports": [asdict(r) for r in result.step_reports],
            "latency_ms": result.latency_ms,
            "workspace_bytes_peak": result.workspace_bytes_peak,
        }
        existed = identifier in self
        self.write(identifier, lambda tmp: Path(tmp).write_text(json.dumps(payload)))
        if existed:
            return
        if self._entry_count is None:
            self._entry_count = len(self.entries())
        else:
            self._entry_count += 1
        if self.max_entries is not None and self._entry_count > self.max_entries:
            self._entry_count -= self.evict(
                max_entries=self.max_entries, keep=self._path(identifier)
            )


class ModelSnapshotStore(DiskStore):
    """Prefix-model snapshots under a byte budget (``budget_bytes``; ``None``
    means :data:`DEFAULT_SNAPSHOT_BUDGET_MB`).

    Every put scans the directory, so the budget holds exactly even when
    several processes share it.
    """

    suffix = ".snap"

    def __init__(self, snapshot_dir, fingerprint: str, budget_bytes: Optional[int] = None):
        super().__init__(snapshot_dir, fingerprint)
        self.budget_bytes = (
            int(DEFAULT_SNAPSHOT_BUDGET_MB * 1024 * 1024)
            if budget_bytes is None
            else int(budget_bytes)
        )

    def get(self, identifier: str) -> Optional[ModelSnapshot]:
        def decode(path: Path) -> Tuple[str, ModelSnapshot]:
            model, extra = load_module(path)
            return extra.get("identifier"), ModelSnapshot(
                identifier=identifier,
                model=model,
                accuracy=extra["accuracy"],
                step_reports=list(extra.get("step_reports", [])),
                step_costs=list(extra.get("step_costs", [])),
            )

        return self.read(identifier, decode)

    def put(self, snapshot: ModelSnapshot) -> int:
        """Persist one snapshot, then enforce the budget; returns its bytes."""
        extra = {
            "identifier": snapshot.identifier,
            "accuracy": snapshot.accuracy,
            "step_reports": list(snapshot.step_reports),
            "step_costs": list(snapshot.step_costs),
        }
        size = self.write(
            snapshot.identifier, lambda tmp: save_module(snapshot.model, tmp, extra=extra)
        )
        self.evict(max_bytes=self.budget_bytes, keep=self._path(snapshot.identifier))
        return size


# -- `repro cache`: every fingerprint directory under a store directory -----

#: ``repro cache`` reads and prunes the entries of both tiers
_TIER_SUFFIXES = (ResultCache.suffix, ModelSnapshotStore.suffix)


def _fingerprint_dirs(cache_dir: Path) -> List[Path]:
    if not cache_dir.is_dir():
        return []
    return [child for child in sorted(cache_dir.iterdir()) if child.is_dir()]


def cache_stats(cache_dir) -> dict:
    """Aggregate accounting for every fingerprint directory under ``cache_dir``,
    a result cache's or a snapshot store's."""
    cache_dir = Path(cache_dir)
    fingerprints = [_stats(child, _TIER_SUFFIXES) for child in _fingerprint_dirs(cache_dir)]
    return {
        "cache_dir": str(cache_dir),
        "fingerprints": fingerprints,
        "entries": sum(f["entries"] for f in fingerprints),
        "bytes": sum(f["bytes"] for f in fingerprints),
    }


def prune_cache(cache_dir, max_entries: int) -> dict:
    """Prune every fingerprint directory to ``max_entries`` entries of each
    tier (results, snapshots), oldest first.

    The cap applies *per fingerprint and tier* (matching ``ResultCache``'s
    own cap, so one busy configuration cannot starve another's cache).
    Returns the post-prune :func:`cache_stats` with a ``removed`` total
    added.
    """
    cache_dir = Path(cache_dir)
    removed = sum(
        _evict(_scan(child, suffix), max_entries=max_entries)
        for child in _fingerprint_dirs(cache_dir)
        for suffix in _TIER_SUFFIXES
    )
    stats = cache_stats(cache_dir)
    stats["removed"] = removed
    return stats
