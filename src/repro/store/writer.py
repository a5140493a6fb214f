"""Snapshot writer: :class:`repro.dataset.Dataset` -> ``.rsnap`` bytes.

The writer serializes exactly what the JSON codec persists — interner
name tables, per-package masks, unresolved-site counts — plus two
optional sections the JSON codec treats as runtime inputs: the popcon
count vector and a skeleton of the dependency graph.  Embedding them
makes a ``.rsnap`` self-contained for serving (weights and dependency
closures reconstruct bit-exactly from integer counts and edge lists),
while explicit ``popcon=`` / ``repository=`` arguments at load time
still override, preserving the engine cache's rebind convention.

Files are published atomically (temp file + ``os.replace``) so a
crashed writer can never leave a torn snapshot that later reads as
corrupt — the same discipline as the engine cache's JSON entries.
"""

from __future__ import annotations

import json
import os
import pathlib
import struct
import tempfile
from typing import List, Optional, Tuple

from ..dataset.codec import footprints_fingerprint
from ..dataset.core import Dataset
from ..dataset.dimensions import DIMENSION_ORDER
from .format import (encode_file, mask_row_bytes, pack_str,
                     pack_str_list)

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def _meta_section(dataset: Dataset) -> bytes:
    meta = {"n_packages": len(dataset.packages)}
    return json.dumps(meta, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _interner_section(dataset: Dataset) -> bytes:
    return b"".join(
        pack_str_list(dataset.space.interner(dim).names)
        for dim in DIMENSION_ORDER)


def _mask_section(dataset: Dataset, dimension: str) -> bytes:
    row_bytes = mask_row_bytes(dataset.space.size(dimension))
    parts = [_U32.pack(row_bytes)]
    if row_bytes:
        parts.extend(mask.to_bytes(row_bytes, "little")
                     for mask in dataset.masks(dimension))
    return b"".join(parts)


def _unresolved_section(dataset: Dataset) -> bytes:
    counts = [dataset[name].unresolved_sites
              for name in dataset.packages]
    return _U32.pack(len(counts)) + struct.pack(
        f"<{len(counts)}Q", *counts)


def _popcon_section(dataset: Dataset) -> Optional[bytes]:
    popcon = dataset.popcon
    if popcon is None:
        return None
    entries = sorted(popcon.packages())
    parts = [_U64.pack(popcon.total_installations),
             _U32.pack(len(entries))]
    for name in entries:
        parts.append(pack_str(name))
        parts.append(_U64.pack(popcon.installations(name)))
    return b"".join(parts)


def _deps_section(dataset: Dataset) -> Optional[bytes]:
    repository = dataset.repository
    if repository is None:
        return None
    packages = list(repository)
    parts = [_U32.pack(len(packages))]
    for package in packages:
        parts.append(pack_str(package.name))
        parts.append(pack_str(package.category))
        parts.append(pack_str_list(package.depends))
    return b"".join(parts)


def _provides_section(dataset: Dataset) -> Optional[bytes]:
    """Provides: edges (DEPS-v2).  Omitted when no package provides
    anything, so flat corpora keep byte-identical snapshots."""
    repository = dataset.repository
    if repository is None:
        return None
    providing = [package for package in repository if package.provides]
    if not providing:
        return None
    parts = [_U32.pack(len(providing))]
    for package in providing:
        parts.append(pack_str(package.name))
        parts.append(pack_str_list(package.provides))
    return b"".join(parts)


def snapshot_to_bytes(dataset: Dataset,
                      fingerprint: Optional[str] = None) -> bytes:
    """Encode ``dataset`` as one complete ``.rsnap`` file image.

    ``fingerprint`` defaults to the dataset's content address
    (:func:`repro.dataset.codec.footprints_fingerprint`); a dataset
    loaded from a snapshot reuses its embedded fingerprint instead of
    rehashing the corpus.
    """
    if fingerprint is None:
        fingerprint = dataset.source_fingerprint
    if fingerprint is None:
        fingerprint = footprints_fingerprint(dataset)
    sections: List[Tuple[bytes, bytes]] = [
        (b"META", _meta_section(dataset)),
        (b"PKGS", pack_str_list(dataset.packages)),
        (b"ITAB", _interner_section(dataset)),
    ]
    for index, dim in enumerate(DIMENSION_ORDER):
        sections.append((f"MSK{index}".encode("ascii"),
                         _mask_section(dataset, dim)))
    sections.append((b"UNRS", _unresolved_section(dataset)))
    popc = _popcon_section(dataset)
    if popc is not None:
        sections.append((b"POPC", popc))
    deps = _deps_section(dataset)
    if deps is not None:
        sections.append((b"DEPS", deps))
    provides = _provides_section(dataset)
    if provides is not None:
        sections.append((b"PRVS", provides))
    return encode_file(fingerprint, sections)


def write_snapshot(path, dataset: Dataset,
                   fingerprint: Optional[str] = None) -> int:
    """Atomically write ``dataset`` to ``path``; return bytes written."""
    data = snapshot_to_bytes(dataset, fingerprint)
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=str(target.parent),
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return len(data)
