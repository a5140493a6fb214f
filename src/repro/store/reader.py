"""Snapshot reader: mmap-backed, lazily materialized datasets.

Opening a ``.rsnap`` does O(header + name tables) work: the file is
mapped read-only, both CRCs are verified (a sequential pass at memory
bandwidth — the cost the cold path avoids is building millions of
Python objects, not reading bytes), and only the package list and the
six interner tables are decoded eagerly, because every query needs
name→id resolution.  Everything per-package stays bytes until touched:

* a dimension's mask column materializes on the first metric query
  over that dimension (``int.from_bytes`` per row, straight off the
  map);
* a package's :class:`repro.analysis.footprint.Footprint` materializes
  on first ``dataset[name]`` access;
* ``bitsets`` (the interned rows as objects) materialize only for
  code that iterates them — the mask columns above never do.

The loaded dataset is a plain :class:`repro.dataset.Dataset`, built
with :meth:`Dataset.from_columns <repro.dataset.Dataset.from_columns>`
over a column source that slices rows off the map: same class as an
in-memory or series-release dataset, bit-identical metric results
(``tests/test_store_roundtrip.py`` pins all three paths — eager JSON,
mmap-lazy, and the legacy reference implementations — to equality).
A ``rebound`` copy shares the column source, so it keeps the map too.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Tuple

from ..dataset.core import ApiSpace, ColumnSource, Dataset
from ..dataset.dimensions import DIMENSION_ORDER
from ..dataset.interner import ApiInterner
from ..packages.package import Package
from ..packages.popcon import PopularityContest
from ..packages.repository import Repository
from .errors import StoreLayoutError
from .format import (MAGIC, Cursor, SnapshotHeader, decode_header,
                     map_file, mask_row_bytes)


def sniff_format(head: bytes) -> str:
    """``"rsnap"`` or ``"json"`` from a file's first bytes."""
    return "rsnap" if bytes(head[:len(MAGIC)]) == MAGIC else "json"


# --- section decoders ----------------------------------------------------

def _decode_meta(data, header: SnapshotHeader) -> Dict:
    offset, length = header.sections[b"META"]
    try:
        meta = json.loads(bytes(data[offset:offset + length]))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreLayoutError(f"META is not JSON ({exc})") from None
    if not isinstance(meta, dict) or "n_packages" not in meta:
        raise StoreLayoutError("META lacks n_packages")
    return meta


def _section_cursor(data, header: SnapshotHeader, tag: bytes) -> Cursor:
    offset, length = header.sections[tag]
    return Cursor(data[offset:offset + length], tag.decode("ascii"))


def _decode_popcon(data,
                   header: SnapshotHeader,
                   ) -> Optional[PopularityContest]:
    if b"POPC" not in header.sections:
        return None
    cursor = _section_cursor(data, header, b"POPC")
    total = cursor.u64()
    count = cursor.u32()
    counts = {}
    for _ in range(count):
        name = cursor.string()
        counts[name] = cursor.u64()
    try:
        return PopularityContest(total, counts)
    except ValueError as exc:
        raise StoreLayoutError(f"POPC: {exc}") from None


def _decode_provides(data,
                     header: SnapshotHeader) -> Dict[str, List[str]]:
    """Provides: edges from the optional PRVS section (DEPS-v2).

    Absent in pre-refactor snapshots and in snapshots of corpora
    without virtual packages — both load as degenerate AND graphs.
    """
    if b"PRVS" not in header.sections:
        return {}
    cursor = _section_cursor(data, header, b"PRVS")
    count = cursor.u32()
    provides: Dict[str, List[str]] = {}
    for _ in range(count):
        name = cursor.string()
        names = cursor.string_list()
        if name in provides:
            raise StoreLayoutError(f"PRVS: duplicate entry {name!r}")
        provides[name] = names
    return provides


def _decode_repository(data,
                       header: SnapshotHeader,
                       ) -> Optional[Repository]:
    if b"DEPS" not in header.sections:
        return None
    provides = _decode_provides(data, header)
    cursor = _section_cursor(data, header, b"DEPS")
    count = cursor.u32()
    packages = []
    for _ in range(count):
        name = cursor.string()
        category = cursor.string()
        depends = cursor.string_list()
        packages.append(Package(name, category=category,
                                depends=depends,
                                provides=provides.pop(name, [])))
    if provides:
        raise StoreLayoutError(
            f"PRVS names unknown packages: "
            f"{sorted(provides)[:5]}")
    try:
        return Repository(packages)
    except ValueError as exc:
        raise StoreLayoutError(f"DEPS: {exc}") from None


def _mapped_columns(data, mask_slices: Dict[str, Tuple[int, int]],
                    n_packages: int) -> ColumnSource:
    """The column source of a ``.rsnap``: one ``int.from_bytes`` per
    row, straight off the buffer."""

    def column(dimension: str) -> List[int]:
        offset, row_bytes = mask_slices[dimension]
        if row_bytes == 0:
            return [0] * n_packages
        from_bytes = int.from_bytes
        return [from_bytes(data[start:start + row_bytes], "little")
                for start in range(offset,
                                   offset + n_packages * row_bytes,
                                   row_bytes)]

    return column


def _dataset_from_buffer(data, header: SnapshotHeader,
                         popcon: Optional[PopularityContest],
                         repository: Optional[Repository],
                         resources: Tuple) -> Dataset:
    meta = _decode_meta(data, header)
    packages = tuple(_section_cursor(data, header,
                                     b"PKGS").string_list())
    if len(packages) != meta["n_packages"]:
        raise StoreLayoutError(
            f"META says {meta['n_packages']} packages, "
            f"PKGS holds {len(packages)}")
    if len(set(packages)) != len(packages):
        raise StoreLayoutError("duplicate package names")
    itab = _section_cursor(data, header, b"ITAB")
    interners = {}
    for dim in DIMENSION_ORDER:
        names = itab.string_list()
        interner = ApiInterner(names)
        if list(interner.names) != names:
            raise StoreLayoutError(
                f"ITAB {dim}: names not in sorted id order")
        interners[dim] = interner
    space = ApiSpace(interners)
    mask_slices: Dict[str, Tuple[int, int]] = {}
    for index, dim in enumerate(DIMENSION_ORDER):
        tag = f"MSK{index}".encode("ascii")
        offset, length = header.sections[tag]
        cursor = Cursor(data[offset:offset + length],
                        tag.decode("ascii"))
        row_bytes = cursor.u32()
        if row_bytes != mask_row_bytes(space.size(dim)):
            raise StoreLayoutError(
                f"{tag.decode()}: row is {row_bytes} bytes; "
                f"universe of {space.size(dim)} needs "
                f"{mask_row_bytes(space.size(dim))}")
        expected = 4 + row_bytes * len(packages)
        if length != expected:
            raise StoreLayoutError(
                f"{tag.decode()}: {length} bytes != expected "
                f"{expected}")
        mask_slices[dim] = (offset + 4, row_bytes)
    unrs = _section_cursor(data, header, b"UNRS")
    count = unrs.u32()
    if count != len(packages):
        raise StoreLayoutError(
            f"UNRS holds {count} counts for {len(packages)} packages")
    unresolved = unrs.u64_array(count)
    if popcon is None:
        popcon = _decode_popcon(data, header)
    if repository is None:
        repository = _decode_repository(data, header)
    return Dataset.from_columns(
        packages=packages, space=space,
        column=_mapped_columns(data, mask_slices, len(packages)),
        unresolved=unresolved,
        popcon=popcon, repository=repository,
        source_fingerprint=header.fingerprint, resources=resources)


# --- public loaders ------------------------------------------------------

def load_snapshot_bytes(data,
                        popcon: Optional[PopularityContest] = None,
                        repository: Optional[Repository] = None,
                        resources: Tuple = ()) -> Dataset:
    """Load a snapshot from an in-memory buffer (bytes or mmap).

    Explicit ``popcon`` / ``repository`` override the embedded POPC /
    DEPS sections — the :meth:`repro.dataset.Dataset.rebound`
    convention the engine cache and serve reload rely on.
    """
    header = decode_header(data)
    return _dataset_from_buffer(data, header, popcon, repository,
                                resources)


def load_snapshot(path,
                  popcon: Optional[PopularityContest] = None,
                  repository: Optional[Repository] = None,
                  ) -> Dataset:
    """mmap ``path`` read-only and load it lazily.

    The map (and file handle) stay referenced by the returned dataset
    and are released when it is garbage collected.  Falls back to a
    plain read for filesystems that cannot map (still lazy — the
    buffer just lives on the heap).
    """
    data, resources = map_file(path)
    try:
        return load_snapshot_bytes(data, popcon, repository, resources)
    except BaseException:
        for resource in resources:
            resource.close()
        raise


def snapshot_info(path) -> Dict[str, object]:
    """Header-level metadata without loading the dataset.

    Validates the full integrity ladder (so the answer is
    trustworthy), then reports version, fingerprint, package count,
    and per-section sizes — the ``dataset convert`` / debugging
    surface.
    """
    data = pathlib.Path(path).read_bytes()
    header = decode_header(data)
    meta = _decode_meta(data, header)
    return {
        "format": "rsnap",
        "version": header.version,
        "fingerprint": header.fingerprint,
        "file_size": header.file_size,
        "n_packages": meta["n_packages"],
        "sections": {tag.decode("ascii"): length
                     for tag, (_, length) in
                     sorted(header.sections.items())},
        "has_popcon": b"POPC" in header.sections,
        "has_repository": b"DEPS" in header.sections,
        "has_provides": b"PRVS" in header.sections,
    }
