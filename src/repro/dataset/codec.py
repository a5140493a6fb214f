"""Versioned JSON codec for interned datasets.

Persists exactly the state that is expensive to rebuild — the
per-dimension interner name tables and the per-package bitmasks — so a
warm engine run reconstructs a :class:`repro.dataset.Dataset` without
re-unioning, re-sorting, or re-hashing a single API name.  Masks are
hex strings (JSON has no big integers); interner name lists are stored
in id order, which :class:`repro.dataset.ApiInterner` guarantees is
sorted order, so an encode/decode round trip is exact.

Popcon and repository objects are runtime inputs, not part of the
payload — the engine rebinds them on load (:meth:`Dataset.rebound`
semantics).  ``unresolved_sites`` rides along per package so the
reconstructed source footprints compare equal to the originals.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from typing import Any, Dict, Mapping, Optional, Tuple

from ..analysis.footprint import Footprint
from ..packages.popcon import PopularityContest
from ..packages.repository import Repository
from .bitset import BitsetFootprint
from .core import ApiSpace, Dataset, row_columns
from .dimensions import DIMENSION_ORDER, FOOTPRINT_FIELDS
from .interner import ApiInterner

#: Version of the dataset payload layout.  Bump on incompatible change;
#: stale payloads are rejected and the caller re-interns from source.
DATASET_CODEC_VERSION = "1"


class DatasetCodecError(ValueError):
    """Raised when a dataset payload is malformed or stale."""


def dataset_to_dict(dataset: Dataset) -> Dict[str, Any]:
    """Encode the interned state of ``dataset`` (not popcon/repo)."""
    return {
        "dataset_codec_version": DATASET_CODEC_VERSION,
        "interners": {
            dim: list(dataset.space.interner(dim).names)
            for dim in DIMENSION_ORDER},
        "packages": list(dataset.packages),
        "masks": [[format(mask, "x") for mask in bits.masks]
                  for bits in dataset.bitsets],
        "unresolved_sites": [fp.unresolved_sites
                             for fp in dataset.values()],
    }


def dataset_from_dict(payload: Dict[str, Any],
                      popcon: Optional[PopularityContest] = None,
                      repository: Optional[Repository] = None,
                      ) -> Dataset:
    """Rebuild a :class:`Dataset` without re-interning anything."""
    if not isinstance(payload, dict):
        raise DatasetCodecError("dataset: expected an object")
    version = payload.get("dataset_codec_version")
    if version != DATASET_CODEC_VERSION:
        raise DatasetCodecError(
            f"dataset: codec version {version!r} "
            f"!= {DATASET_CODEC_VERSION!r}")
    try:
        interners = payload["interners"]
        packages = tuple(payload["packages"])
        mask_rows = payload["masks"]
        unresolved = tuple(int(sites) for sites in payload.get(
            "unresolved_sites", [0] * len(packages)))
        space = ApiSpace({
            dim: ApiInterner(interners.get(dim, ()))
            for dim in DIMENSION_ORDER})
        # BitsetFootprint checks each row's width.
        rows = [BitsetFootprint(int(mask, 16) for mask in row).masks
                for row in mask_rows]
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetCodecError(f"dataset: malformed payload "
                                f"({exc})") from None
    if not (len(packages) == len(rows) == len(unresolved)):
        raise DatasetCodecError("dataset: package/mask row mismatch")
    if len(set(packages)) != len(packages):
        raise DatasetCodecError("dataset: duplicate package names")
    return Dataset.from_columns(
        packages, space, partial(row_columns, rows), unresolved,
        popcon, repository, source_fingerprint=None)


def dataset_to_json(dataset: Dataset) -> str:
    return json.dumps(dataset_to_dict(dataset), sort_keys=True,
                      separators=(",", ":"))


def dataset_from_json(text: str,
                      popcon: Optional[PopularityContest] = None,
                      repository: Optional[Repository] = None,
                      ) -> Dataset:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DatasetCodecError(
            f"dataset: invalid JSON ({exc})") from None
    return dataset_from_dict(payload, popcon=popcon,
                             repository=repository)


def footprints_fingerprint(
        footprints: Mapping[str, Footprint]) -> str:
    """Content address of a footprint mapping (cache key).

    Stable across processes: packages and API names are emitted
    sorted, so any mapping with the same contents — regardless of
    insertion or hash order — fingerprints identically.
    """
    digest = hashlib.sha256()
    digest.update(DATASET_CODEC_VERSION.encode())
    # Dimension blobs are memoized per frozenset object: synthetic and
    # paper-scale corpora share footprint sets across thousands of
    # packages, and hashing 30k packages one API name at a time is the
    # dominant cost of snapshot writes.  The cache holds the set
    # itself, pinning its id() for the duration of the call.
    blob_cache: Dict[int, Tuple[frozenset, bytes]] = {}
    for name in sorted(footprints):
        footprint = footprints[name]
        parts = [b"\x00", name.encode()]
        for dim in DIMENSION_ORDER:
            apis = getattr(footprint, FOOTPRINT_FIELDS[dim])
            cached = blob_cache.get(id(apis))
            if cached is None:
                blob = b"\x01" + b"".join(
                    api.encode() + b"\x02" for api in sorted(apis))
                blob_cache[id(apis)] = (apis, blob)
            else:
                blob = cached[1]
            parts.append(blob)
        parts.append(str(footprint.unresolved_sites).encode())
        digest.update(b"".join(parts))
    return digest.hexdigest()
