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

import contextlib
import gc
import hashlib
import mmap
import warnings
from unittest import mock

import pytest

from repro.dataset import (Dataset, DatasetCodecError,
                           dataset_to_json, footprints_fingerprint)
from repro.dataset.interner import ApiInterner
from repro.engine import AnalysisCache
from repro.engine.errors import classify_exception
from repro.metrics import dep_semantics_ablation
from repro.series import load_series, write_series
from repro.store import (MAGIC, STORE_VERSION,
                         StoreCRCError, StoreError, StoreLayoutError,
                         StoreMagicError, StoreTruncatedError,
                         StoreVersionError, load_snapshot,
                         load_snapshot_bytes, sniff_format,
                         snapshot_info, snapshot_to_bytes,
                         write_snapshot)
from repro.store.format import Cursor, pack_str, pack_str_list
from repro.synth import (EvolutionConfig, PaperScaleConfig,
                         build_paper_corpus, evolve_corpus)


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
        assert isinstance(clone, Dataset)
        assert dict(clone) == dict(corpus.dataset)
        assert clone.popcon is corpus.popcon

    def test_rebound_builds_nothing(self, corpus, snapshot_bytes):
        loaded = load_snapshot_bytes(snapshot_bytes)
        with names_of_calls() as rebound_calls:
            and_only = loaded.rebound(
                corpus.popcon, corpus.repository.and_only_view())
        assert len(rebound_calls) == 0
        assert and_only.source_fingerprint == loaded.source_fingerprint
        with names_of_calls() as lazy_calls:
            lazy = dep_semantics_ablation(load_snapshot_bytes(
                snapshot_bytes))
        with names_of_calls() as eager_calls:
            eager = dep_semantics_ablation(corpus.dataset)
        assert len(lazy_calls) <= len(eager_calls)
        assert lazy == eager


@contextlib.contextmanager
def names_of_calls():
    """Record every ``ApiInterner.names_of`` call: building a footprint
    from masks makes one per dimension."""
    names_of = ApiInterner.names_of
    calls = []

    def counting(interner, mask):
        calls.append(mask)
        return names_of(interner, mask)

    with mock.patch.object(ApiInterner, "names_of", counting):
        yield calls


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


def _series_contents(series):
    return [dataset_to_json(series.at(release))
            for release in range(series.n_releases)]


class TestMapFile:
    """Both loaders share one mapping helper; when the filesystem
    cannot map, they read the bytes and close the file."""

    @pytest.fixture(scope="class")
    def train(self):
        return evolve_corpus(EvolutionConfig(
            n_releases=3, base=PaperScaleConfig.at_scale(0.002, seed=5),
            seed=5)).datasets()

    @pytest.mark.parametrize("kind", ["snapshot", "series"])
    def test_unmappable_file_loads_and_closes(self, corpus, train,
                                              tmp_path, kind):
        if kind == "snapshot":
            path = tmp_path / "corpus.rsnap"
            write_snapshot(path, corpus.dataset)
            load, contents = load_snapshot, dataset_to_json
        else:
            path = tmp_path / "train.rser"
            write_series(path, train)
            load, contents = load_series, _series_contents
        expected = contents(load(path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with mock.patch.object(mmap, "mmap",
                                   side_effect=OSError("no mmap")):
                loaded = load(path)
            gc.collect()
        assert [w for w in caught
                if issubclass(w.category, ResourceWarning)] == []
        assert contents(loaded) == expected


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


@pytest.fixture(params=[bytes, memoryview], ids=["bytes", "memoryview"])
def section(request):
    """Wrap raw section bytes the way a reader may see them: a plain
    buffer or a zero-copy view into a mapped file."""
    return lambda raw: Cursor(request.param(raw), "TEST")


class TestCursor:
    def layout_error(self, read):
        with pytest.raises(StoreLayoutError) as caught:
            read()
        return str(caught.value)

    def test_section_ends_inside_a_length(self, section):
        assert self.layout_error(section(b"\x05").string) == \
            "section TEST: read past end (2 > 1)"

    def test_length_runs_past_the_end(self, section):
        assert self.layout_error(section(b"\x05\x00ab").string) == \
            "section TEST: read past end (7 > 4)"

    def test_invalid_utf8(self, section):
        assert self.layout_error(section(b"\x02\x00a\xff").string) == (
            "section TEST: bad utf-8 ('utf-8' codec can't decode byte "
            "0xff in position 1: invalid start byte)")

    def test_list_count_larger_than_the_section(self, section):
        raw = b"\x09\x00\x00\x00" + pack_str("a")
        assert self.layout_error(section(raw).string_list) == \
            "section TEST: impossible count 9"

    def test_empty_and_longest_strings_decode(self, section):
        longest = "é" + "x" * 0xFFFD   # 65,535 utf-8 bytes
        cursor = section(pack_str("") + pack_str(longest)
                         + pack_str_list(["ab", ""]))
        assert cursor.string() == ""
        assert cursor.string() == longest
        assert cursor.string_list() == ["ab", ""]
        assert cursor.exhausted()
