"""The ``.rsnap`` wire format: round-trips, integrity ladder, and the
engine-facing error contract.

Three promises are pinned here:

* a snapshot round-trips losslessly (JSON -> .rsnap -> JSON is
  byte-identical; embedded popcon/repository reconstruct bit-exact
  weights and closures, and explicit arguments override them);
* **no corruption produces a partial dataset** — truncation at any
  length, bad magic, wrong version, CRC damage, and single-bit flips
  anywhere in the file all raise a typed :class:`StoreError` before a
  single package is visible;
* the error types slot into the existing taxonomies: ``StoreError``
  is a :class:`repro.dataset.codec.DatasetCodecError` (the engine
  cache's delete-to-miss handler) and classifies as ``format`` in the
  engine fault taxonomy.
"""

import hashlib

import pytest

from repro.dataset import (Dataset, DatasetCodecError,
                           dataset_to_json, footprints_fingerprint)
from repro.engine import AnalysisCache
from repro.engine.errors import classify_exception
from repro.store import (MAGIC, STORE_VERSION, SnapshotDataset,
                         StoreCRCError, StoreError, StoreMagicError,
                         StoreTruncatedError, StoreVersionError,
                         load_snapshot, load_snapshot_bytes,
                         sniff_format, snapshot_info,
                         snapshot_to_bytes, write_snapshot)
from repro.synth import PaperScaleConfig, build_paper_corpus


@pytest.fixture(scope="module")
def corpus():
    return build_paper_corpus(PaperScaleConfig.tiny())


@pytest.fixture(scope="module")
def snapshot_bytes(corpus):
    return snapshot_to_bytes(corpus.dataset)


class TestRoundTrip:
    def test_json_rsnap_json_is_byte_identical(self, corpus,
                                               snapshot_bytes):
        before = dataset_to_json(corpus.dataset)
        after = dataset_to_json(load_snapshot_bytes(snapshot_bytes))
        assert before == after

    def test_fingerprint_is_embedded_not_recomputed(self, corpus,
                                                    snapshot_bytes):
        loaded = load_snapshot_bytes(snapshot_bytes)
        assert loaded.source_fingerprint == \
            footprints_fingerprint(corpus.dataset)

    def test_embedded_popcon_reconstructs_exact_weights(
            self, corpus, snapshot_bytes):
        loaded = load_snapshot_bytes(snapshot_bytes)
        assert loaded.popcon is not corpus.popcon
        assert loaded.weights == corpus.dataset.weights

    def test_embedded_repository_reconstructs_closures(
            self, corpus, snapshot_bytes):
        loaded = load_snapshot_bytes(snapshot_bytes)
        name = corpus.dataset.packages[-1]
        assert loaded.repository.dependency_closure(name) == \
            corpus.repository.dependency_closure(name)

    def test_explicit_bindings_override_embedded(self, corpus,
                                                 snapshot_bytes):
        loaded = load_snapshot_bytes(snapshot_bytes,
                                     popcon=corpus.popcon,
                                     repository=corpus.repository)
        assert loaded.popcon is corpus.popcon
        assert loaded.repository is corpus.repository

    def test_wire_bytes_are_pinned(self, snapshot_bytes):
        # The sha256 of the tiny paper corpus's .rsnap: any change to
        # the bytes the writer produces fails here.  The digest does
        # not depend on PYTHONHASHSEED.
        assert hashlib.sha256(snapshot_bytes).hexdigest() == (
            "817235b8efef8ef371e3219213f37c7c"
            "2721f0a0b71ca9bdb15aac0daf2e8943")

    def test_mmap_load_from_disk(self, corpus, tmp_path):
        path = tmp_path / "corpus.rsnap"
        written = write_snapshot(path, corpus.dataset)
        assert written == path.stat().st_size
        loaded = load_snapshot(path)
        assert dataset_to_json(loaded) == \
            dataset_to_json(corpus.dataset)

    def test_sniff_format(self, snapshot_bytes, corpus):
        assert sniff_format(snapshot_bytes) == "rsnap"
        assert sniff_format(
            dataset_to_json(corpus.dataset).encode()) == "json"

    def test_snapshot_info(self, corpus, tmp_path):
        path = tmp_path / "corpus.rsnap"
        write_snapshot(path, corpus.dataset)
        info = snapshot_info(path)
        assert info["format"] == "rsnap"
        assert info["version"] == STORE_VERSION
        assert info["n_packages"] == len(corpus.dataset.packages)
        assert info["fingerprint"] == \
            footprints_fingerprint(corpus.dataset)
        assert info["has_popcon"] and info["has_repository"]


class TestLazyMaterialization:
    def test_masks_equal_eager_per_dimension(self, corpus,
                                             snapshot_bytes):
        loaded = load_snapshot_bytes(snapshot_bytes)
        for dim in ("syscall", "ioctl", "fcntl", "prctl",
                    "pseudofile", "libc", "all"):
            assert loaded.masks(dim) == corpus.dataset.masks(dim)

    def test_footprints_equal_eager(self, corpus, snapshot_bytes):
        loaded = load_snapshot_bytes(snapshot_bytes)
        for name in corpus.dataset.packages:
            assert loaded[name] == corpus.dataset[name]

    def test_rebound_yields_complete_eager_clone(self, corpus,
                                                 snapshot_bytes):
        loaded = load_snapshot_bytes(snapshot_bytes)
        clone = loaded.rebound(corpus.popcon, corpus.repository)
        assert not isinstance(clone, SnapshotDataset)
        assert isinstance(clone, Dataset)
        assert dict(clone) == dict(corpus.dataset)
        assert clone.popcon is corpus.popcon


class TestCorruption:
    """Every damaged byte raises StoreError; never a partial dataset."""

    def test_bad_magic(self, snapshot_bytes):
        mangled = b"NOTSNAP\n" + snapshot_bytes[8:]
        with pytest.raises(StoreMagicError):
            load_snapshot_bytes(mangled)

    def test_json_payload_is_not_a_snapshot(self, corpus):
        with pytest.raises(StoreMagicError):
            load_snapshot_bytes(
                dataset_to_json(corpus.dataset).encode())

    def test_wrong_version(self, snapshot_bytes):
        bumped = bytearray(snapshot_bytes)
        bumped[8] = 0xFF  # version u32 starts right after magic
        with pytest.raises(StoreVersionError):
            load_snapshot_bytes(bytes(bumped))

    @pytest.mark.parametrize("keep", [0, 1, 7, 8, 50, 91, 92, 200])
    def test_truncation_at_any_prefix(self, snapshot_bytes, keep):
        with pytest.raises(StoreError):
            load_snapshot_bytes(snapshot_bytes[:keep])

    def test_truncated_payload(self, snapshot_bytes):
        with pytest.raises(StoreTruncatedError):
            load_snapshot_bytes(snapshot_bytes[:-1])

    def test_trailing_garbage(self, snapshot_bytes):
        with pytest.raises(StoreTruncatedError):
            load_snapshot_bytes(snapshot_bytes + b"\x00")

    def test_payload_bit_flips_raise_crc_error(self, snapshot_bytes):
        import random
        rng = random.Random(4)
        payload_start = len(snapshot_bytes) - 64
        for _ in range(32):
            position = rng.randrange(96, len(snapshot_bytes))
            flipped = bytearray(snapshot_bytes)
            flipped[position] ^= 1 << rng.randrange(8)
            with pytest.raises(StoreError):
                load_snapshot_bytes(bytes(flipped))
        assert payload_start > 96  # sanity: file has a payload

    def test_empty_file_on_disk(self, tmp_path):
        path = tmp_path / "empty.rsnap"
        path.write_bytes(b"")
        with pytest.raises(StoreTruncatedError):
            load_snapshot(path)


class TestErrorContract:
    def test_store_error_is_a_codec_error(self):
        assert issubclass(StoreError, DatasetCodecError)
        assert issubclass(StoreCRCError, StoreError)

    def test_classify_exception_maps_to_format(self):
        fault = classify_exception(
            StoreCRCError("payload CRC mismatch"))
        assert fault.error_class == "format"
        assert fault.stage == "load"

    def test_corrupt_cache_rsnap_self_deletes(self, corpus, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        fingerprint = footprints_fingerprint(corpus.dataset)
        cache.put_dataset(fingerprint, corpus.dataset)
        path = cache._dataset_path(fingerprint)
        assert path.suffix == ".rsnap"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        assert cache.get_dataset(fingerprint) is None
        assert cache.stats.invalid == 1
        assert not path.exists()

    def test_cache_roundtrip_through_rsnap(self, corpus, tmp_path):
        cache = AnalysisCache(str(tmp_path))
        fingerprint = footprints_fingerprint(corpus.dataset)
        cache.put_dataset(fingerprint, corpus.dataset)
        loaded = cache.get_dataset(fingerprint, corpus.popcon,
                                   corpus.repository)
        assert loaded is not None
        assert cache.stats.dataset_hits == 1
        assert dataset_to_json(loaded) == \
            dataset_to_json(corpus.dataset)
        assert loaded.popcon is corpus.popcon

    def test_magic_is_binary_sniffable(self):
        # PNG-style: high bit set, CR LF to catch text-mode mangling.
        assert MAGIC[0] == 0x89
        assert MAGIC.endswith(b"\r\n")
        assert sniff_format(b"{") == "json"
