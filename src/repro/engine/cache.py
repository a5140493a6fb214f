"""Content-addressed cache of per-binary analysis records.

The cache key is the SHA-256 of the ELF bytes; the analysis version
(:data:`repro.engine.codec.ANALYSIS_VERSION`) is part of the on-disk
address, so records produced by an incompatible analysis are never
read back.  Layout::

    <cache_dir>/v<ANALYSIS_VERSION>/<sha[:2]>/<sha>.json

Two implementations share the interface: :class:`AnalysisCache`
persists to disk (warm runs survive the process), and
:class:`MemoryCache` keeps records in-process (used as the default so
repeated pipeline runs inside one study — e.g. Table 12's database
mirror — skip re-analysis).

Besides successful :class:`BinaryRecord` entries, the cache holds
*negative* entries: an :class:`repro.engine.errors.AnalysisFault`
stored under the content hash of bytes whose analysis failed.  A warm
run over known-bad bytes skips re-analysis the same way it skips
re-analysis of known-good bytes — ``get`` simply returns the fault and
the engine re-quarantines.  Bumping ``ANALYSIS_VERSION`` invalidates
negative entries along with everything else, so a fixed analyzer gets
a fresh chance at previously failing inputs.

A third entry kind lives beside the per-binary records: interned
:class:`repro.dataset.Dataset` snapshots, addressed by the footprint
mapping's content fingerprint under ::

    <cache_dir>/v<ANALYSIS_VERSION>/datasets/<fp[:2]>/<fp>.rsnap

A warm study run that replays the same corpus mmaps the snapshot and
materializes masks lazily (:mod:`repro.store`) instead of re-interning
every footprint.  A version-mismatched or torn snapshot reads as a
miss and is dropped (:class:`repro.store.StoreError` subclasses
:class:`repro.dataset.codec.DatasetCodecError`).
"""

from __future__ import annotations

import os
import pathlib
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from ..dataset.codec import DatasetCodecError
from ..dataset.core import Dataset
from ..obs import MetricsRegistry
from ..packages.popcon import PopularityContest
from ..packages.repository import Repository
from ..store import load_snapshot, write_snapshot

from .codec import ANALYSIS_VERSION, CodecError, entry_from_json, \
    entry_to_json
from .errors import AnalysisFault
from .record import BinaryRecord

#: What a cache lookup can return: a record, a negative entry, or None.
CacheEntry = Union[BinaryRecord, AnalysisFault]


@dataclass
class CacheStats:
    """Hit/miss/store counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid: int = 0          # unreadable / version-mismatched entries
    negative_hits: int = 0    # lookups answered by a quarantined fault
    negative_stores: int = 0  # faults written (negative caching)
    dataset_hits: int = 0     # interned-dataset snapshots served
    dataset_misses: int = 0   # snapshot lookups that re-intern
    dataset_stores: int = 0   # snapshots written

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class MemoryCache:
    """In-process record cache (no persistence)."""

    def __init__(self) -> None:
        self._records: Dict[str, CacheEntry] = {}
        self._datasets: Dict[str, Dataset] = {}
        self.stats = CacheStats()
        # Engine hook; lookups are dict reads, nothing worth timing.
        self.metrics: Optional[MetricsRegistry] = None

    def get(self, sha256: str) -> Optional[CacheEntry]:
        entry = self._records.get(sha256)
        if entry is None:
            self.stats.misses += 1
            return None
        if isinstance(entry, AnalysisFault):
            self.stats.negative_hits += 1
        else:
            self.stats.hits += 1
        return entry

    def put(self, sha256: str, record: BinaryRecord) -> None:
        self._records[sha256] = record
        self.stats.stores += 1

    def put_fault(self, sha256: str, fault: AnalysisFault) -> None:
        """Negative-cache: these bytes are known to fail analysis."""
        self._records[sha256] = fault
        self.stats.negative_stores += 1

    # --- interned-dataset snapshots --------------------------------------

    def get_dataset(self, fingerprint: str,
                    popcon: Optional[PopularityContest] = None,
                    repository: Optional[Repository] = None,
                    ) -> Optional[Dataset]:
        dataset = self._datasets.get(fingerprint)
        if dataset is None:
            self.stats.dataset_misses += 1
            return None
        self.stats.dataset_hits += 1
        bind_popcon = dataset.popcon if popcon is None else popcon
        bind_repo = (dataset.repository if repository is None
                     else repository)
        if (bind_popcon is dataset.popcon
                and bind_repo is dataset.repository):
            return dataset
        return dataset.rebound(bind_popcon, bind_repo)

    def put_dataset(self, fingerprint: str, dataset: Dataset) -> None:
        self._datasets[fingerprint] = dataset
        self.stats.dataset_stores += 1

    def clear(self) -> int:
        count = len(self._records) + len(self._datasets)
        self._records.clear()
        self._datasets.clear()
        return count

    def entry_count(self) -> int:
        return len(self._records) + len(self._datasets)

    def size_bytes(self) -> int:
        return 0


class AnalysisCache:
    """Disk-backed content-addressed record cache."""

    def __init__(self, cache_dir: str) -> None:
        self.root = pathlib.Path(cache_dir)
        self.version_dir = self.root / f"v{ANALYSIS_VERSION}"
        self.stats = CacheStats()
        # Set by the engine per run; disk read/write latency lands in
        # the run's ``engine.cache.{get,put}_seconds`` histograms.
        self.metrics: Optional[MetricsRegistry] = None

    # --- addressing ----------------------------------------------------

    def _path(self, sha256: str) -> pathlib.Path:
        return self.version_dir / sha256[:2] / f"{sha256}.json"

    def _dataset_path(self, fingerprint: str) -> pathlib.Path:
        return (self.version_dir / "datasets" / fingerprint[:2]
                / f"{fingerprint}.rsnap")

    def _observe(self, metric: str, seconds: float) -> None:
        if self.metrics is not None:
            self.metrics.histogram(metric).observe(seconds)

    # --- record interface ----------------------------------------------

    def get(self, sha256: str) -> Optional[CacheEntry]:
        start = time.perf_counter()
        try:
            return self._get(sha256)
        finally:
            self._observe("engine.cache.get_seconds",
                          time.perf_counter() - start)

    def _get(self, sha256: str) -> Optional[CacheEntry]:
        path = self._path(sha256)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            self.stats.misses += 1
            return None
        try:
            entry = entry_from_json(text)
        except CodecError:
            # Corrupt or stale entry: treat as a miss and drop it so
            # the slot is rewritten with a fresh record.
            self.stats.invalid += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        if isinstance(entry, AnalysisFault):
            self.stats.negative_hits += 1
        else:
            self.stats.hits += 1
        return entry

    def put(self, sha256: str, record: BinaryRecord) -> None:
        self._write(sha256, record)
        self.stats.stores += 1

    def put_fault(self, sha256: str, fault: AnalysisFault) -> None:
        """Negative-cache: these bytes are known to fail analysis."""
        self._write(sha256, fault)
        self.stats.negative_stores += 1

    def _write(self, sha256: str, entry: CacheEntry) -> None:
        start = time.perf_counter()
        try:
            self._write_entry(sha256, entry)
        finally:
            self._observe("engine.cache.put_seconds",
                          time.perf_counter() - start)

    def _write_entry(self, sha256: str, entry: CacheEntry) -> None:
        self._atomic_write(self._path(sha256), entry_to_json(entry))

    @staticmethod
    def _atomic_write(path: pathlib.Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic publish: a crashed writer must never leave a torn
        # entry that later reads as corrupt.
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # --- interned-dataset snapshots --------------------------------------

    def get_dataset(self, fingerprint: str,
                    popcon: Optional[PopularityContest] = None,
                    repository: Optional[Repository] = None,
                    ) -> Optional[Dataset]:
        """Load an interned dataset snapshot, or None on a miss.

        ``popcon`` / ``repository`` are rebound onto the loaded
        dataset — weights and dependency graphs are derived live, so
        only the interner and bitsets need persisting.
        """
        start = time.perf_counter()
        try:
            return self._get_dataset(fingerprint, popcon, repository)
        finally:
            self._observe("engine.cache.get_dataset_seconds",
                          time.perf_counter() - start)

    def _get_dataset(self, fingerprint: str,
                     popcon: Optional[PopularityContest],
                     repository: Optional[Repository],
                     ) -> Optional[Dataset]:
        path = self._dataset_path(fingerprint)
        try:
            dataset = load_snapshot(path, popcon, repository)
        except DatasetCodecError:
            # StoreError subclasses DatasetCodecError: any failed
            # integrity check — torn write, bit rot, stale format
            # version — reads as a miss and drops the entry.
            self.stats.invalid += 1
            self.stats.dataset_misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        except OSError:  # absent (the usual miss) or unreadable
            self.stats.dataset_misses += 1
            return None
        self.stats.dataset_hits += 1
        return dataset

    def put_dataset(self, fingerprint: str, dataset: Dataset) -> None:
        start = time.perf_counter()
        try:
            # write_snapshot publishes atomically (mkstemp + replace),
            # same torn-write guarantee as _atomic_write.
            write_snapshot(self._dataset_path(fingerprint), dataset,
                           fingerprint)
        finally:
            self._observe("engine.cache.put_dataset_seconds",
                          time.perf_counter() - start)
        self.stats.dataset_stores += 1

    # --- maintenance ----------------------------------------------------

    def _entries(self):
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("v*/??/*.json")):
            yield path
        for path in sorted(self.root.glob("v*/datasets/??/*.rsnap")):
            yield path

    def entry_count(self) -> int:
        return sum(1 for _ in self._entries())

    def size_bytes(self) -> int:
        total = 0
        for path in self._entries():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def clear(self) -> int:
        """Delete every cached record (all versions); return count."""
        removed = 0
        for path in list(self._entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
