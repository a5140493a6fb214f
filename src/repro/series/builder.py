"""Series writer: a list of release datasets -> ``.rser`` bytes.

The builder canonicalizes its input into one shared interned space
(the union of every release's APIs) so delta mask rows are directly
comparable, stores release 0 through the existing ``.rsnap`` writer,
and derives one delta per later release.  Everything it enforces at
build time — one space, canonical package order, popcon/repository
present in all releases or none — is exactly what the reader's decode
invariant assumes, so a well-formed file can never decode into an
inconsistent release chain.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pathlib
import tempfile
from typing import List, Sequence, Tuple

from ..dataset.codec import footprints_fingerprint
from ..dataset.core import ApiSpace, Dataset, as_dataset
from ..store.format import encode_file
from ..store.writer import snapshot_to_bytes
from .format import (MAX_RELEASES, SERIES, ReleaseDelta, delta_between,
                     delta_tag, encode_delta)


def series_fingerprint_of(fingerprints: Sequence[str]) -> str:
    """Content address of a series: a hash over its release chain."""
    digest = hashlib.sha256()
    digest.update(b"repro.series:1:")
    digest.update(":".join(fingerprints).encode("ascii"))
    return digest.hexdigest()


def _release_fingerprint(dataset: Dataset) -> str:
    fingerprint = getattr(dataset, "source_fingerprint", None)
    if fingerprint is None:
        fingerprint = footprints_fingerprint(dataset)
    return fingerprint


def _canonical_releases(releases: Sequence) -> List[Dataset]:
    """Adapt inputs to Datasets sharing one interned space.

    Datasets that already share a space (the :mod:`repro.synth.evolve`
    output, or a series' own materialized releases) pass through with
    their bitsets intact; mixed-space inputs are re-interned into the
    union of every release's APIs.  Either way the result satisfies
    :func:`repro.series.format.delta_between`'s preconditions.
    """
    if not releases:
        raise ValueError("a series needs at least one release")
    if len(releases) > MAX_RELEASES:
        raise ValueError(
            f"a series holds at most {MAX_RELEASES} releases")
    datasets = [as_dataset(release) for release in releases]
    first_space = datasets[0].space
    if all(dataset.space == first_space for dataset in datasets[1:]):
        return datasets
    union = ApiSpace.from_footprints(itertools.chain.from_iterable(
        (dataset[name] for name in dataset.packages)
        for dataset in datasets))
    rebuilt = []
    for dataset in datasets:
        clone = Dataset(
            {name: dataset[name] for name in dataset.packages},
            popcon=dataset.popcon, repository=dataset.repository,
            space=union)
        fingerprint = getattr(dataset, "source_fingerprint", None)
        if fingerprint is not None:
            clone.source_fingerprint = fingerprint
        rebuilt.append(clone)
    return rebuilt


def series_to_bytes(releases: Sequence) -> bytes:
    """Encode a release train as one complete ``.rser`` file image."""
    datasets = _canonical_releases(releases)
    fingerprints = [_release_fingerprint(dataset)
                    for dataset in datasets]
    meta = {
        "n_releases": len(datasets),
        "fingerprints": fingerprints,
        "n_packages": [len(dataset.packages) for dataset in datasets],
    }
    sections: List[Tuple[bytes, bytes]] = [
        (b"SMET", json.dumps(meta, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")),
        (b"BASE", snapshot_to_bytes(datasets[0],
                                    fingerprint=fingerprints[0])),
    ]
    space = datasets[0].space
    for release in range(1, len(datasets)):
        delta = delta_between(datasets[release - 1], datasets[release])
        sections.append((delta_tag(release),
                         encode_delta(delta, space)))
    return encode_file(series_fingerprint_of(fingerprints), sections,
                       SERIES)


def build_series(releases: Sequence):
    """Build an in-memory :class:`repro.series.DatasetSeries`."""
    from .reader import load_series_bytes
    return load_series_bytes(series_to_bytes(releases))


def write_series(path, releases: Sequence) -> int:
    """Atomically write a series to ``path``; return bytes written."""
    data = series_to_bytes(releases)
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
