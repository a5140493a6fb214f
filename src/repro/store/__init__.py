"""repro.store: zero-copy binary snapshots of the dataset substrate.

The JSON codec (:mod:`repro.dataset.codec`) is the portable
interchange format, but its cold path is O(corpus): every load parses
the text and converts every hex mask row before the first query can
run.  This package adds a
versioned, struct-packed binary format — ``.rsnap`` — whose cold open
is O(header + name tables): the file is mmap'd, integrity-checked with
two CRCs, and everything per-package stays raw bytes until a query
touches it: the loaded :class:`repro.dataset.Dataset` reads its mask
columns straight off the map.

Contract with the JSON codec:

* ``JSON -> .rsnap -> JSON`` round-trips byte-identically;
* every metric over an mmap-loaded dataset equals the eager path (and
  the legacy ``dataset.reference`` implementations) bit for bit;
* a snapshot that fails any integrity check raises a typed
  :class:`StoreError` — never a partial Dataset — and the hierarchy
  subclasses :class:`repro.dataset.DatasetCodecError`, so existing
  corrupt-payload handling (engine-cache delete-to-miss, serve reload
  rejection) applies unchanged.

See DESIGN.md "Snapshot store" for the wire layout and the
lazy-materialization rules.
"""

from .errors import (StoreCRCError, StoreError, StoreLayoutError,
                     StoreMagicError, StoreTruncatedError,
                     StoreVersionError)
from .format import MAGIC, STORE_VERSION, decode_header
from .reader import (load_snapshot, load_snapshot_bytes, sniff_format,
                     snapshot_info)
from .writer import snapshot_to_bytes, write_snapshot

__all__ = [
    "MAGIC",
    "STORE_VERSION",
    "StoreCRCError",
    "StoreError",
    "StoreLayoutError",
    "StoreMagicError",
    "StoreTruncatedError",
    "StoreVersionError",
    "decode_header",
    "load_snapshot",
    "load_snapshot_bytes",
    "sniff_format",
    "snapshot_info",
    "snapshot_to_bytes",
    "write_snapshot",
]
