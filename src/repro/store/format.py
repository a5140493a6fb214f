"""The ``.rsnap`` wire format: header, section table, primitives.

Layout (all integers little-endian)::

    offset 0   magic        8 bytes   b"\\x89RSNAP\\r\\n"
    offset 8   version      u32       STORE_VERSION
    offset 12  n_sections   u32
    offset 16  file_size    u64       total bytes, truncation check
    offset 24  fingerprint  64 bytes  ascii hex sha256 (codec fingerprint)
    offset 88  payload_crc  u32       crc32 of every payload byte
    offset 92  section table: n_sections x (tag 4s, offset u64, length u64)
    ...        meta_crc     u32       crc32 of header + section table
    ...        payload sections (absolute offsets, contiguous)

The magic follows the PNG convention — a high-bit first byte so text
tools never mistake the file for ASCII, then the format name, then
``\\r\\n`` so line-ending translation is detected as corruption.  The
first byte also makes one-read format sniffing trivial: a JSON dataset
snapshot starts with ``{``.

Sections (tags are 4 ASCII bytes):

======  ==================================================================
META    canonical JSON: {"n_packages": N} (+ optional corpus metadata)
PKGS    package names, input-mapping order (u32 count, len-prefixed utf8)
ITAB    six interner name tables, DIMENSION_ORDER, id (= sorted) order
MSK0-5  per-dimension masks: u32 row_bytes, then n_packages LE byte rows
UNRS    per-package unresolved_sites (u32 count, u64 each)
POPC    optional popcon: u64 total, u32 entries, (name, u64 count) each
DEPS    optional repository skeleton: (name, category, depends) per pkg
PRVS    optional Provides: edges: u32 entries, (name, provides list) each
======  ==================================================================

``DEPS`` entries carry ``a | b`` alternative syntax verbatim inside
the depends strings, so pre-refactor snapshots decode unchanged as
degenerate AND graphs; ``PRVS`` is written only when some package
declares ``Provides:`` — a flat corpus produces byte-identical files
before and after the AND-OR dependency refactor (DEPS-v2).

Integrity is two checksums: ``meta_crc`` covers the header and section
table (so a flipped offset can never be followed), ``payload_crc``
covers every payload byte (so a mid-file bit flip is caught before any
value is materialized).  ``file_size`` catches truncation without
hashing anything.

The header, section table and integrity ladder are a container that
``.rser`` shares byte for byte under its own magic, version and tags:
:func:`encode_file` and :func:`decode_header` take the format's
:class:`Container` identity, and :data:`SNAPSHOT` is ``.rsnap``'s.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .errors import (StoreCRCError, StoreLayoutError, StoreMagicError,
                     StoreTruncatedError, StoreVersionError)

#: First bytes of every binary snapshot; JSON snapshots start with "{".
MAGIC = b"\x89RSNAP\r\n"

#: Bump on incompatible wire-layout change.  Readers reject any other
#: version (the JSON codec is the portable migration path).
STORE_VERSION = 1

_HEADER = struct.Struct("<8sIIQ64sI")     # magic .. payload_crc
_SECTION = struct.Struct("<4sQQ")         # tag, offset, length
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

HEADER_SIZE = _HEADER.size
SECTION_SIZE = _SECTION.size


@dataclass(frozen=True)
class Container:
    """The identity of one file format built on this container.

    ``.rsnap`` and ``.rser`` share the header, the section table and
    the integrity ladder byte for byte; they differ only in what this
    names.  ``noun`` and ``suffix`` make the error messages
    ("not a .rser series", "snapshot version 2 != supported 1").
    """

    magic: bytes
    version: int
    #: Sections every file of this format must carry.
    required_tags: Tuple[bytes, ...]
    #: Section counts above this are rejected as garbage.
    max_sections: int
    noun: str
    suffix: str


#: The ``.rsnap`` snapshot (v1 defines 13 sections; 64 is garbage).
SNAPSHOT = Container(
    magic=MAGIC, version=STORE_VERSION,
    required_tags=(b"META", b"PKGS", b"ITAB", b"MSK0", b"MSK1",
                   b"MSK2", b"MSK3", b"MSK4", b"MSK5", b"UNRS"),
    max_sections=64, noun="snapshot", suffix=".rsnap")


def crc32(data) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def mask_row_bytes(universe_size: int) -> int:
    """Bytes per package mask row for a dimension of this many APIs."""
    return (universe_size + 7) // 8


# --- primitive encoders --------------------------------------------------

def pack_str(name: str) -> bytes:
    """u16 length + utf8 bytes (API/package names are short)."""
    encoded = name.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise ValueError(f"name too long for snapshot: {name[:40]!r}...")
    return _U16.pack(len(encoded)) + encoded


def pack_str_list(names) -> bytes:
    materialized = list(names)
    out = [_U32.pack(len(materialized))]
    out.extend(pack_str(name) for name in materialized)
    return b"".join(out)


class Cursor:
    """Bounds-checked reader over one section's bytes.

    Every overrun raises :class:`StoreLayoutError` — by the time a
    cursor runs, both CRCs have passed, so an overrun means the writer
    and reader disagree about the layout, not that the file is torn.
    """

    __slots__ = ("data", "pos", "tag")

    def __init__(self, data, tag: str) -> None:
        self.data = data
        self.pos = 0
        self.tag = tag

    def _take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise StoreLayoutError(
                f"section {self.tag}: read past end "
                f"({end} > {len(self.data)})")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def u16(self) -> int:
        return _U16.unpack(self._take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self._take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self._take(8))[0]

    def u64_array(self, count: int) -> Tuple[int, ...]:
        raw = self._take(8 * count)
        return struct.unpack(f"<{count}Q", raw)

    def string(self) -> str:
        length = self.u16()
        raw = self._take(length)
        try:
            return bytes(raw).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StoreLayoutError(
                f"section {self.tag}: bad utf-8 ({exc})") from None

    def string_list(self) -> List[str]:
        count = self.u32()
        if count > len(self.data):  # each entry is >= 2 bytes
            raise StoreLayoutError(
                f"section {self.tag}: impossible count {count}")
        return [self.string() for _ in range(count)]

    def exhausted(self) -> bool:
        return self.pos == len(self.data)


# --- header --------------------------------------------------------------

@dataclass(frozen=True)
class SnapshotHeader:
    """Decoded header + section table of one validated snapshot."""

    version: int
    file_size: int
    fingerprint: str
    payload_crc: int
    sections: Dict[bytes, Tuple[int, int]]   # tag -> (offset, length)

    @property
    def payload_start(self) -> int:
        return (HEADER_SIZE + len(self.sections) * SECTION_SIZE
                + _U32.size)


def encode_file(fingerprint: str,
                sections: List[Tuple[bytes, bytes]],
                container: Container = SNAPSHOT) -> bytes:
    """Assemble a complete ``container`` file from (tag, payload) pairs."""
    fp_bytes = fingerprint.encode("ascii")
    if len(fp_bytes) != 64:
        raise ValueError("fingerprint must be 64 ascii hex chars")
    n_sections = len(sections)
    payload_start = (HEADER_SIZE + n_sections * SECTION_SIZE
                     + _U32.size)
    table = []
    offset = payload_start
    payload_parts = []
    for tag, payload in sections:
        table.append(_SECTION.pack(tag, offset, len(payload)))
        payload_parts.append(payload)
        offset += len(payload)
    payload = b"".join(payload_parts)
    file_size = payload_start + len(payload)
    header = _HEADER.pack(container.magic, container.version,
                          n_sections, file_size, fp_bytes,
                          crc32(payload))
    meta = header + b"".join(table)
    return meta + _U32.pack(crc32(meta)) + payload


def decode_header(data,
                  container: Container = SNAPSHOT) -> SnapshotHeader:
    """Validate ``data`` as a ``container`` file and decode its header.

    Runs the full integrity ladder — magic, version, size, both CRCs,
    section-table sanity — and raises the matching typed
    :class:`repro.store.errors.StoreError`.  After this returns, every
    section slice is in bounds and every payload byte is checksummed:
    lazy materialization can never observe corruption.
    """
    noun = container.noun
    size = len(data)
    if size < HEADER_SIZE:
        raise StoreTruncatedError(
            f"{noun} is {size} bytes; header needs {HEADER_SIZE}")
    (magic, version, n_sections, file_size, fp_bytes,
     payload_crc) = _HEADER.unpack_from(data, 0)
    if magic != container.magic:
        raise StoreMagicError(f"bad magic {bytes(magic)!r}; not a "
                              f"{container.suffix} {noun}")
    if version != container.version:
        raise StoreVersionError(f"{noun} version {version} != "
                                f"supported {container.version}")
    if file_size != size:
        raise StoreTruncatedError(
            f"header claims {file_size} bytes, file has {size}")
    if n_sections > container.max_sections:
        raise StoreLayoutError(f"implausible section count "
                               f"{n_sections}")
    meta_end = HEADER_SIZE + n_sections * SECTION_SIZE
    payload_start = meta_end + _U32.size
    if payload_start > size:
        raise StoreTruncatedError(
            f"section table overruns the file "
            f"({payload_start} > {size})")
    (meta_crc,) = _U32.unpack_from(data, meta_end)
    if crc32(data[:meta_end]) != meta_crc:
        raise StoreCRCError("header/section-table checksum mismatch")
    if crc32(data[payload_start:]) != payload_crc:
        raise StoreCRCError("payload checksum mismatch")
    try:
        fingerprint = bytes(fp_bytes).decode("ascii")
    except UnicodeDecodeError:  # pragma: no cover - crc catches first
        raise StoreCRCError("fingerprint is not ascii") from None
    sections: Dict[bytes, Tuple[int, int]] = {}
    for index in range(n_sections):
        tag, offset, length = _SECTION.unpack_from(
            data, HEADER_SIZE + index * SECTION_SIZE)
        tag = bytes(tag)
        if tag in sections:
            raise StoreLayoutError(f"duplicate section {tag!r}")
        if offset < payload_start or offset + length > size:
            raise StoreLayoutError(
                f"section {tag!r} [{offset}, {offset + length}) "
                f"outside payload [{payload_start}, {size})")
        sections[tag] = (offset, length)
    for tag in container.required_tags:
        if tag not in sections:
            raise StoreLayoutError(f"missing section {tag!r}")
    return SnapshotHeader(version=version, file_size=file_size,
                          fingerprint=fingerprint,
                          payload_crc=payload_crc, sections=sections)
