"""Series reader: mmap-backed, per-release lazy materialization.

Opening a ``.rser`` does O(header + SMET) work: both CRCs are
verified, the release index is decoded, and nothing else moves.  The
base snapshot loads through :func:`repro.store.load_snapshot_bytes` on
a zero-copy slice the first time any release is touched; each delta
decodes the first time the chain walks past it, and materialized
releases are cached so trend queries that sweep release ranges pay for
each release once.

A replayed release is the same mask-backed
:class:`repro.dataset.Dataset` a ``.rsnap`` opens to, built by
:meth:`Dataset.from_columns <repro.dataset.Dataset.from_columns>` with
the release's decoded mask rows as its column source
(:func:`repro.dataset.core.row_columns`): a dimension's mask
column is read out of the rows on the first query over it, and a
package's :class:`repro.analysis.footprint.Footprint` is built only on
``dataset[name]``.  So ``at(k)`` costs the delta walk plus the
release's popcon and repository, not packages times names.

Corruption discipline matches the store: every failure raises a typed
:class:`repro.store.StoreError` *before* any partial state is
published — a release either materializes completely or the series
object is left exactly as it was.
"""

from __future__ import annotations

import json
import pathlib
from functools import partial
from typing import Dict, List, Optional, Tuple

from ..dataset.core import Dataset, row_columns
from ..dataset.dimensions import DIMENSION_ORDER
from ..packages.package import Package
from ..packages.popcon import PopularityContest
from ..packages.repository import Repository
from ..store.errors import StoreLayoutError
from ..store.format import SnapshotHeader, decode_header, map_file
from ..store.reader import load_snapshot_bytes
from .format import (MAX_RELEASES, SERIES, SERIES_MAGIC, ReleaseDelta,
                     decode_delta, delta_tag)


def sniff_series(head: bytes) -> bool:
    """True when a file's first bytes are a ``.rser`` series."""
    return bytes(head[:len(SERIES_MAGIC)]) == SERIES_MAGIC


#: name -> (unresolved_sites, one mask per dimension); insertion order
#: is the release's canonical package order.
_Rows = Dict[str, Tuple[int, Tuple[int, ...]]]


class _ReleaseState:
    """Everything needed to materialize one release, order-preserving."""

    __slots__ = ("rows", "popcon", "deps")

    def __init__(self, rows: _Rows,
                 popcon: Optional[Tuple[int, Dict[str, int]]],
                 deps: Optional[Dict[str, Tuple[str, Tuple[str, ...],
                                                Tuple[str, ...]]]],
                 ) -> None:
        self.rows = rows
        self.popcon = popcon
        self.deps = deps


class DatasetSeries:
    """A validated multi-release series with lazy time travel.

    ``at(k)`` returns release ``k`` as a mask-backed
    :class:`repro.dataset.Dataset` with bit-identical metric results to
    an eager rebuild of that release — materializing (and caching) only
    the releases actually touched.
    """

    def __init__(self, data, resources: Tuple = ()) -> None:
        header = decode_header(data, SERIES)
        self._data = data
        self._header = header
        self._resources = resources
        meta = self._decode_smet(data, header)
        self.n_releases: int = meta["n_releases"]
        self.fingerprints: Tuple[str, ...] = tuple(meta["fingerprints"])
        self.n_packages: Tuple[int, ...] = tuple(meta["n_packages"])
        #: The content address of the whole release chain.
        self.series_fingerprint: str = header.fingerprint
        for release in range(1, self.n_releases):
            if delta_tag(release) not in header.sections:
                raise StoreLayoutError(
                    f"missing delta section for release {release}")
        expected = {b"SMET", b"BASE"}
        expected.update(delta_tag(release)
                        for release in range(1, self.n_releases))
        for tag in header.sections:
            if tag not in expected:
                raise StoreLayoutError(
                    f"unexpected section {tag!r} for "
                    f"{self.n_releases} releases")
        self._base: Optional[Dataset] = None
        self._deltas: Dict[int, ReleaseDelta] = {}
        self._states: Dict[int, _ReleaseState] = {}
        self._datasets: Dict[int, Dataset] = {}

    @staticmethod
    def _decode_smet(data, header: SnapshotHeader) -> Dict:
        offset, length = header.sections[b"SMET"]
        try:
            meta = json.loads(bytes(data[offset:offset + length]))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StoreLayoutError(
                f"SMET is not JSON ({exc})") from None
        if not isinstance(meta, dict):
            raise StoreLayoutError("SMET is not an object")
        n_releases = meta.get("n_releases")
        fingerprints = meta.get("fingerprints")
        n_packages = meta.get("n_packages")
        if (not isinstance(n_releases, int)
                or not 1 <= n_releases <= MAX_RELEASES):
            raise StoreLayoutError("SMET has no sane n_releases")
        if (not isinstance(fingerprints, list)
                or len(fingerprints) != n_releases
                or not all(isinstance(fp, str) and len(fp) == 64
                           for fp in fingerprints)):
            raise StoreLayoutError(
                "SMET fingerprints do not match n_releases")
        if (not isinstance(n_packages, list)
                or len(n_packages) != n_releases
                or not all(isinstance(n, int) and n >= 0
                           for n in n_packages)):
            raise StoreLayoutError(
                "SMET n_packages does not match n_releases")
        return meta

    # --- lazy chain ------------------------------------------------------

    def _base_dataset(self) -> Dataset:
        if self._base is None:
            offset, length = self._header.sections[b"BASE"]
            view = memoryview(self._data)[offset:offset + length]
            base = load_snapshot_bytes(
                view, resources=(view,) + self._resources)
            if base.source_fingerprint != self.fingerprints[0]:
                raise StoreLayoutError(
                    "BASE fingerprint disagrees with SMET")
            if len(base.packages) != self.n_packages[0]:
                raise StoreLayoutError(
                    f"BASE holds {len(base.packages)} packages, "
                    f"SMET says {self.n_packages[0]}")
            self._base = base
        return self._base

    def _delta(self, release: int) -> ReleaseDelta:
        delta = self._deltas.get(release)
        if delta is None:
            tag = delta_tag(release)
            offset, length = self._header.sections[tag]
            delta = decode_delta(self._data[offset:offset + length],
                                 tag.decode("ascii"),
                                 self._base_dataset().space)
            self._deltas[release] = delta
        return delta

    def _state(self, release: int) -> _ReleaseState:
        state = self._states.get(release)
        if state is not None:
            return state
        if release == 0:
            base = self._base_dataset()
            columns = [base.masks(dim) for dim in DIMENSION_ORDER]
            unresolved = base._unresolved
            rows: _Rows = {
                name: (unresolved[i],
                       tuple(column[i] for column in columns))
                for i, name in enumerate(base.packages)}
            popcon = None
            if base.popcon is not None:
                popcon = (base.popcon.total_installations,
                          {name: base.popcon.installations(name)
                           for name in base.popcon.packages()})
            deps = None
            if base.repository is not None:
                deps = {package.name: (package.category,
                                       tuple(package.depends),
                                       tuple(package.provides))
                        for package in base.repository}
            state = _ReleaseState(rows, popcon, deps)
        else:
            state = self._advance(self._state(release - 1),
                                  self._delta(release), release)
        self._states[release] = state
        return state

    @staticmethod
    def _advance(previous: _ReleaseState, delta: ReleaseDelta,
                 release: int) -> _ReleaseState:
        """Apply one delta, committing nothing until it fully checks out."""

        def bad(reason: str) -> StoreLayoutError:
            return StoreLayoutError(
                f"delta for release {release}: {reason}")

        rows = dict(previous.rows)
        for name in delta.removed:
            if name not in rows:
                raise bad(f"removes unknown package {name!r}")
            del rows[name]
        for entry in delta.changed:
            if entry.name not in rows:
                raise bad(f"changes unknown package {entry.name!r}")
            rows[entry.name] = (entry.unresolved, entry.masks)
        for entry in delta.added:
            if entry.name in rows:
                raise bad(f"adds existing package {entry.name!r}")
            rows[entry.name] = (entry.unresolved, entry.masks)

        popcon = previous.popcon
        if delta.has_popcon != (popcon is not None):
            raise bad("popcon presence flips mid-series")
        if delta.has_popcon:
            counts = dict(popcon[1])
            for name in delta.popcon_removed:
                if name not in counts:
                    raise bad(f"popcon removes unknown {name!r}")
                del counts[name]
            for name, count in delta.popcon_set:
                counts[name] = count
            popcon = (delta.popcon_total, counts)

        deps = previous.deps
        if delta.has_deps != (deps is not None):
            raise bad("repository presence flips mid-series")
        if delta.has_deps:
            deps = dict(deps)
            for name in delta.deps_removed:
                if name not in deps:
                    raise bad(f"deps removes unknown {name!r}")
                del deps[name]
            provides_of = dict(delta.provides_upserts)
            for name, category, depends in delta.deps_upserts:
                deps[name] = (category, depends,
                              provides_of.get(name, ()))

        return _ReleaseState(rows, popcon, deps)

    # --- public surface --------------------------------------------------

    def at(self, release: int) -> Dataset:
        """Materialize release ``release`` (cached per release).

        Release 0 is the embedded base snapshot; a later release is a
        mask-backed :class:`repro.dataset.Dataset` over the rows its delta
        chain leaves, with its popcon and repository built (and
        checked) before it is published.  No footprint is built here.
        """
        if not isinstance(release, int) or isinstance(release, bool):
            raise ValueError(f"unknown release {release!r}")
        if not 0 <= release < self.n_releases:
            raise ValueError(
                f"unknown release {release}; series holds releases "
                f"0..{self.n_releases - 1}")
        cached = self._datasets.get(release)
        if cached is not None:
            return cached
        if release == 0:
            dataset = self._base_dataset()
        else:
            state = self._state(release)
            if len(state.rows) != self.n_packages[release]:
                raise StoreLayoutError(
                    f"release {release} materializes "
                    f"{len(state.rows)} packages, SMET says "
                    f"{self.n_packages[release]}")
            popcon = None
            if state.popcon is not None:
                try:
                    popcon = PopularityContest(state.popcon[0],
                                               state.popcon[1])
                except ValueError as exc:
                    raise StoreLayoutError(
                        f"release {release} popcon: {exc}") from None
            repository = None
            if state.deps is not None:
                try:
                    repository = Repository(
                        [Package(name, category=category,
                                 depends=list(depends),
                                 provides=list(provides))
                         for name, (category, depends, provides)
                         in state.deps.items()])
                except ValueError as exc:
                    raise StoreLayoutError(
                        f"release {release} deps: {exc}") from None
            dataset = Dataset.from_columns(
                packages=tuple(state.rows),
                space=self._base_dataset().space,
                column=partial(row_columns,
                               [masks for _, masks in
                                state.rows.values()]),
                unresolved=tuple(row[0] for row in state.rows.values()),
                popcon=popcon, repository=repository,
                source_fingerprint=self.fingerprints[release])
        self._datasets[release] = dataset
        return dataset

    @property
    def head(self) -> Dataset:
        """The newest release — what un-versioned queries serve."""
        return self.at(self.n_releases - 1)

    def releases(self) -> List[Dataset]:
        return [self.at(release)
                for release in range(self.n_releases)]

    def stats(self) -> Dict[str, object]:
        """Header-level series metadata (no release materialization)."""
        base_offset, base_length = self._header.sections[b"BASE"]
        deltas = {
            release: self._header.sections[delta_tag(release)][1]
            for release in range(1, self.n_releases)}
        return {
            "format": "rser",
            "version": self._header.version,
            "series_fingerprint": self.series_fingerprint,
            "file_size": self._header.file_size,
            "n_releases": self.n_releases,
            "n_packages": list(self.n_packages),
            "fingerprints": list(self.fingerprints),
            "base_bytes": base_length,
            "delta_bytes": sum(deltas.values()),
            "delta_bytes_per_release": deltas,
        }

    def dependency_drift(self) -> List[Dict[str, int]]:
        """Per-release drift of the dependency-semantics surface.

        Materializes every release (cached) and reports how many
        virtual packages, provider edges, and alternative groups each
        one carries — flat releases report zeros.  Releases without a
        repository report zeros too, so the shape is stable across
        series kinds.
        """
        drift: List[Dict[str, int]] = []
        for release in range(self.n_releases):
            repository = self.at(release).repository
            if repository is None:
                drift.append({"release": release,
                              "n_virtual_packages": 0,
                              "n_provider_edges": 0,
                              "n_alternative_groups": 0})
            else:
                drift.append({
                    "release": release,
                    "n_virtual_packages": len(repository.virtual_names()),
                    "n_provider_edges": repository.n_provider_edges(),
                    "n_alternative_groups":
                        repository.n_alternative_groups(),
                })
        return drift

    # --- trend/diff queries (delegating to repro.metrics.trends) --------

    def release_diff(self, frm: int, to: int, dimension: str = "syscall",
                     weighted: bool = False, noise_floor: float = 0.02):
        from ..metrics.trends import release_diff
        return release_diff(self, frm, to, dimension=dimension,
                            weighted=weighted, noise_floor=noise_floor)

    def importance_trend(self, apis=None, dimension: str = "syscall",
                         weighted: bool = True, limit: int = 5,
                         start: int = 0, stop: Optional[int] = None):
        from ..metrics.trends import importance_trend
        return importance_trend(self, apis=apis, dimension=dimension,
                                weighted=weighted, limit=limit,
                                start=start, stop=stop)

    def completeness_trend(self, supported, dimension: str = "syscall",
                           ignore_empty: bool = True, start: int = 0,
                           stop: Optional[int] = None):
        from ..metrics.trends import completeness_trend
        return completeness_trend(self, supported, dimension=dimension,
                                  ignore_empty=ignore_empty,
                                  start=start, stop=stop)

    def __repr__(self) -> str:
        return (f"DatasetSeries({self.n_releases} releases, "
                f"{self.n_packages[0]}->{self.n_packages[-1]} "
                f"packages, fingerprint="
                f"{self.series_fingerprint[:12]}...)")


# --- public loaders ------------------------------------------------------

def load_series_bytes(data, resources: Tuple = ()) -> DatasetSeries:
    """Load a series from an in-memory buffer (bytes or mmap)."""
    return DatasetSeries(data, resources=resources)


def load_series(path) -> DatasetSeries:
    """mmap ``path`` read-only and load it lazily.

    Falls back to a plain read where mapping is unsupported, exactly
    like :func:`repro.store.load_snapshot`.
    """
    data, resources = map_file(path)
    try:
        return load_series_bytes(data, resources)
    except BaseException:
        for resource in resources:
            resource.close()
        raise


def series_info(path) -> Dict[str, object]:
    """Header-level metadata without materializing any release."""
    data = pathlib.Path(path).read_bytes()
    series = DatasetSeries(data)
    info = series.stats()
    info["sections"] = {
        tag.decode("ascii"): length
        for tag, (_, length) in sorted(series._header.sections.items())}
    return info
