"""Unit tests for the interned, bitset-backed dataset substrate."""

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.footprint import Footprint, PackageFootprint
from repro.dataset import (
    ALL_DIMENSIONS,
    ApiInterner,
    ApiSpace,
    BitsetFootprint,
    CondensedDependencyGraph,
    DIMENSION_ORDER,
    DIMENSIONS,
    Dataset,
    DatasetCodecError,
    as_dataset,
    dataset_from_json,
    dataset_to_json,
    footprints_fingerprint,
    iter_bits,
    namespaced,
    popcount,
    split_namespaced,
)
from repro.dataset import reference
from repro.metrics import missing_apis_report
from repro.packages.package import Package
from repro.packages.popcon import PopularityContest
from repro.packages.repository import Repository


def _corpus():
    """A small handcrafted corpus touching every dimension."""
    footprints = {
        "editor": Footprint.build(
            syscalls=["read", "write", "open"],
            ioctls=["TCGETS"], libc_symbols=["printf", "malloc"]),
        "daemon": Footprint.build(
            syscalls=["read", "epoll_wait", "accept"],
            fcntls=["F_SETFL"], prctls=["PR_SET_NAME"],
            pseudo_files=["/proc/self/status"]),
        "tool": Footprint.build(syscalls=["read", "write"],
                                libc_symbols=["printf"]),
        "doc-pack": Footprint.EMPTY,
    }
    popcon = PopularityContest(1000, {
        "editor": 800, "daemon": 150, "tool": 420, "doc-pack": 90})
    repository = Repository([
        Package("editor", depends=["tool"]),
        Package("daemon", depends=["editor", "ghost-dep"]),
        Package("tool", depends=["editor"]),    # cycle editor<->tool
        Package("doc-pack"),
    ])
    return footprints, popcon, repository


class TestInterner:
    def test_sorted_dense_ids(self):
        interner = ApiInterner(["write", "read", "open", "read"])
        assert interner.names == ("open", "read", "write")
        assert [interner.id_of(n) for n in interner.names] == [0, 1, 2]
        assert interner.name_of(1) == "read"
        assert len(interner) == 3
        assert "read" in interner and "close" not in interner

    def test_mask_roundtrip(self):
        interner = ApiInterner(["a", "b", "c", "d"])
        mask = interner.mask_of(["d", "a"])
        assert interner.names_of(mask) == ["a", "d"]
        assert popcount(mask) == 2

    def test_unknown_names_ignored_unless_strict(self):
        interner = ApiInterner(["a"])
        assert interner.mask_of(["a", "zz"]) == interner.mask_of(["a"])
        with pytest.raises(KeyError):
            interner.mask_of(["zz"], strict=True)

    def test_universe_mask(self):
        interner = ApiInterner(["a", "b", "c"])
        assert interner.universe_mask == 0b111
        assert interner.names_of(interner.universe_mask) == \
            ["a", "b", "c"]

    def test_iter_bits(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b101001)) == [0, 3, 5]


class TestBitsetFootprint:
    def test_algebra(self):
        a = BitsetFootprint([0b011, 0, 0, 0, 0, 0])
        b = BitsetFootprint([0b110, 0, 0, 0, 0, 1])
        union = a | b
        assert union.mask("syscall") == 0b111
        assert union.mask("libc") == 1
        assert a.difference(b).mask("syscall") == 0b001
        assert not a.subset_of(b)
        assert a.subset_of(union)
        assert union.bit_count() == 4
        assert BitsetFootprint.union_all([a, b]) == union

    def test_empty(self):
        empty = BitsetFootprint()
        assert empty.is_empty
        assert empty.bit_count() == 0


class TestDimensions:
    def test_namespacing_roundtrip(self):
        for dimension in DIMENSION_ORDER:
            api = namespaced(dimension, "NAME")
            assert split_namespaced(api) == (dimension, "NAME")
        # Unprefixed names are syscalls.
        assert split_namespaced("read") == ("syscall", "read")

    def test_registry_is_shared_with_metrics(self):
        from repro.metrics import importance
        assert importance.DIMENSIONS is DIMENSIONS
        assert set(DIMENSIONS) == set(ALL_DIMENSIONS)


class TestApiSpace:
    def test_all_dimension_matches_api_set(self):
        footprints, _, _ = _corpus()
        space = ApiSpace.from_footprints(footprints.values())
        for name, footprint in footprints.items():
            bitset = space.intern(footprint)
            all_names = space.names_of("all",
                                       space.all_mask(bitset))
            assert frozenset(all_names) == footprint.api_set()

    def test_id_of_unknown_raises(self):
        footprints, _, _ = _corpus()
        space = ApiSpace.from_footprints(footprints.values())
        with pytest.raises(KeyError):
            space.id_of("syscall", "no_such_call")


class TestDataset:
    def test_mapping_protocol_preserves_order(self):
        footprints, popcon, repository = _corpus()
        dataset = Dataset(footprints, popcon, repository)
        assert list(dataset) == list(footprints)
        assert dataset["editor"] == footprints["editor"]
        assert len(dataset) == 4
        assert dict(dataset) == footprints

    def test_users_index_matches_reference(self):
        footprints, popcon, _ = _corpus()
        dataset = Dataset(footprints, popcon)
        for dimension in ALL_DIMENSIONS:
            index = reference.dependents_index(footprints, dimension)
            users = dataset.users_index(dimension)
            rebuilt = {
                dataset.space.name_of(dimension, api_id):
                    [dataset.packages[i] for i in pkg_ids]
                for api_id, pkg_ids in enumerate(users) if pkg_ids}
            assert rebuilt == {api: list(pkgs)
                               for api, pkgs in index.items()}

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_users_index_matches_per_bit_reference(self, data):
        # Universe sizes on and off byte boundaries; masks that are
        # empty or carry the universe's top bit.
        sizes = st.one_of(st.integers(0, 300),
                          st.integers(0, 37).map(lambda k: 8 * k))

        def masks_in(size):
            if size == 0:
                return st.just(0)
            top = 1 << (size - 1)
            return st.one_of(st.just(0), st.just(top),
                             st.integers(0, (1 << size) - 1),
                             st.integers(0, top - 1).map(
                                 lambda mask: mask | top))

        universe = {dim: data.draw(sizes, label=dim)
                    for dim in ("syscall", "ioctl")}
        names = {dim: [f"{dim}{i:03d}" for i in range(size)]
                 for dim, size in universe.items()}
        space = ApiSpace({dim: ApiInterner(dim_names)
                          for dim, dim_names in names.items()})
        rows = data.draw(st.lists(st.tuples(masks_in(universe["syscall"]),
                                            masks_in(universe["ioctl"])),
                                  max_size=12), label="rows")
        footprints = {
            f"pkg{i}": Footprint.build(
                syscalls=space.names_of("syscall", syscall),
                ioctls=space.names_of("ioctl", ioctl))
            for i, (syscall, ioctl) in enumerate(rows)}
        dataset = Dataset(footprints, space=space)
        for dimension in ALL_DIMENSIONS:
            expected = [[] for _ in range(space.size(dimension))]
            for pkg_id, mask in enumerate(dataset.masks(dimension)):
                for api_id in iter_bits(mask):
                    expected[api_id].append(pkg_id)
            assert dataset.users_index(dimension) == expected

    def test_importance_equals_reference(self):
        footprints, popcon, _ = _corpus()
        dataset = Dataset(footprints, popcon)
        for dimension in ALL_DIMENSIONS:
            assert dataset.importance_table(dimension) == \
                reference.importance_table(footprints, popcon,
                                           dimension)

    def test_usage_equals_reference(self):
        footprints, popcon, _ = _corpus()
        dataset = Dataset(footprints, popcon)
        assert dataset.usage_table("syscall") == \
            reference.unweighted_importance_table(footprints)

    def test_importance_table_returns_fresh_copies(self):
        footprints, popcon, _ = _corpus()
        dataset = Dataset(footprints, popcon)
        first = dataset.importance_table("syscall")
        first["injected"] = 1.0
        assert "injected" not in dataset.importance_table("syscall")

    def test_empty_masks_are_assumed(self):
        footprints, popcon, repository = _corpus()
        dataset = Dataset(footprints, popcon, repository)

        def empty(dimension):
            return [dataset.packages[i] for i, mask in
                    enumerate(dataset.masks(dimension)) if not mask]

        assert empty("syscall") == ["doc-pack"]
        assert empty("ioctl") == ["daemon", "tool", "doc-pack"]
        # editor -> tool: tool's ioctl mask is empty, so it is assumed
        # supported and does not gate editor; without the assumption
        # tool is outside the universe and poisons editor.
        editor = dataset.package_index["editor"]
        assumed = dataset.condensed_graph("ioctl").tracker()
        assert assumed.mark_satisfied(editor) == [editor]
        strict = dataset.condensed_graph(
            "ioctl", assume_trivial=False).tracker()
        assert strict.mark_satisfied(editor) == []

    def test_rebound_shares_popcon_independent_caches(self):
        footprints, popcon, repository = _corpus()
        dataset = Dataset(footprints, popcon, repository)
        masks = dataset.masks("syscall")
        other = PopularityContest(1000, {"editor": 10})
        rebound = dataset.rebound(other, repository)
        assert rebound.masks("syscall") is masks
        assert rebound.weight_of("editor") == 0.01
        assert dataset.weight_of("editor") == 0.8

    def test_user_weight_sums_match_per_api_sums(self):
        footprints, popcon, _ = _corpus()
        dataset = Dataset(footprints, popcon)
        for dimension in ALL_DIMENSIONS:
            expected = []
            for users in dataset.users_index(dimension):
                total = None
                for pkg_id in users:
                    total = (total or 0.0) + dataset.weights[pkg_id]
                expected.append(total)
            assert dataset.user_weight_sums(dimension) == expected

    def test_rebound_resets_user_weight_sums(self):
        footprints, popcon, repository = _corpus()
        dataset = Dataset(footprints, popcon, repository)
        other = PopularityContest(1000, {
            "editor": 10, "daemon": 600, "tool": 300, "doc-pack": 5})
        for dimension in ALL_DIMENSIONS:
            # Warm the per-API sums under the first popcon.
            missing_apis_report([], dataset, dimension=dimension)
        rebound = dataset.rebound(other, repository)
        fresh = Dataset(footprints, other, repository)
        for dimension in ALL_DIMENSIONS:
            assert missing_apis_report([], rebound, dimension=dimension) \
                == missing_apis_report([], fresh, dimension=dimension)

    def test_stats(self):
        footprints, popcon, repository = _corpus()
        stats = Dataset(footprints, popcon, repository).stats()
        assert stats.n_packages == 4
        assert stats.n_apis["syscall"] == 5
        assert stats.n_nonempty["syscall"] == 3
        assert stats.has_popcon and stats.has_repository
        assert stats.n_dependency_edges == 4
        assert stats.total_weight == pytest.approx(1.46)

    def test_as_dataset_passthrough(self):
        footprints, popcon, repository = _corpus()
        dataset = Dataset(footprints, popcon, repository)
        assert as_dataset(dataset) is dataset
        assert as_dataset(dataset, popcon, repository) is dataset
        adapted = as_dataset(footprints, popcon)
        assert isinstance(adapted, Dataset)
        assert adapted.popcon is popcon


def _graph_over(footprints, repository, universe, assumed):
    """A graph over ``footprints``' package order, built from names."""
    packages = list(footprints)
    return packages, CondensedDependencyGraph(
        packages, [packages.index(name) for name in universe],
        repository, [packages.index(name) for name in assumed])


class TestCondensedGraph:
    def test_tracker_matches_reference(self):
        footprints, _, repository = _corpus()
        universe = [pkg for pkg, fp in footprints.items()
                    if fp.syscalls]
        packages, graph = _graph_over(footprints, repository, universe,
                                      ["doc-pack"])
        legacy = reference._SupportTracker(universe, repository,
                                           frozenset(["doc-pack"]))
        tracker = graph.tracker()
        for package in universe:
            assert [packages[i] for i in tracker.mark_satisfied(
                packages.index(package))] == \
                legacy.mark_satisfied(package)

    def test_ghost_dependency_poisons_component(self):
        footprints, _, repository = _corpus()
        packages, graph = _graph_over(footprints, repository,
                                      list(footprints), [])
        tracker = graph.tracker()
        # daemon depends on ghost-dep (outside the repository is fine,
        # APT-style) — but editor/tool form a cycle, each satisfiable.
        newly = []
        for package in footprints:
            newly.extend(packages[i] for i in tracker.mark_satisfied(
                packages.index(package)))
        assert set(newly) == set(footprints)

    def test_trackers_are_independent(self):
        footprints, _, repository = _corpus()
        packages, graph = _graph_over(footprints, repository,
                                      list(footprints), [])
        editor = packages.index("editor")
        first = graph.tracker()
        first.mark_satisfied(editor)
        second = graph.tracker()
        assert second.mark_satisfied(editor) == \
            graph.tracker().mark_satisfied(editor)

    def test_built_graph_holds_flat_int_lists(self):
        # The condensation must not keep per-component containers
        # alive: every list attribute is a flat list of ints.
        footprints = {f"p{i}": Footprint.build(syscalls=["read"])
                      for i in range(6)}
        repository = Repository([
            Package("p0", depends=["p1 | p2", "p3"]),
            Package("p1", depends=["p0 | p4"]),
            Package("p2", depends=["p1"]),
            Package("p3", depends=["p4", "p5 | p0"]),
            Package("p4", depends=["p3"]),
            Package("p5"),
        ])
        _, graph = _graph_over(footprints, repository,
                               list(footprints), [])
        assert graph.cyclic_super_of       # the rescue path is built
        lists = 0
        for slot in CondensedDependencyGraph.__slots__:
            value = getattr(graph, slot)
            if isinstance(value, dict):
                assert all(type(key) is int and type(item) is int
                           for key, item in value.items()), slot
                continue
            assert isinstance(value, (list, bytearray)), slot
            if isinstance(value, list):
                lists += 1
                assert all(type(item) is int for item in value), slot
        assert lists >= 12


class TestCodec:
    def test_roundtrip_exact(self):
        footprints, popcon, repository = _corpus()
        dataset = Dataset(footprints, popcon, repository)
        loaded = dataset_from_json(dataset_to_json(dataset),
                                   popcon, repository)
        assert loaded.packages == dataset.packages
        assert dict(loaded) == dict(dataset)
        assert loaded.space == dataset.space
        for dimension in ALL_DIMENSIONS:
            assert loaded.masks(dimension) == dataset.masks(dimension)
            assert loaded.importance_table(dimension) == \
                dataset.importance_table(dimension)

    def test_version_mismatch_rejected(self):
        footprints, popcon, _ = _corpus()
        payload = json.loads(dataset_to_json(Dataset(footprints)))
        payload["dataset_codec_version"] = "999"
        with pytest.raises(DatasetCodecError):
            dataset_from_json(json.dumps(payload))

    def test_garbage_rejected(self):
        with pytest.raises(DatasetCodecError):
            dataset_from_json("{not json")

    def test_duplicate_names_rejected(self):
        footprints, _, _ = _corpus()
        payload = json.loads(dataset_to_json(Dataset(footprints)))
        payload["packages"][1] = payload["packages"][0]
        with pytest.raises(DatasetCodecError, match="duplicate"):
            dataset_from_json(json.dumps(payload))

    def test_fingerprint_insertion_order_invariant(self):
        footprints, _, _ = _corpus()
        shuffled = dict(reversed(list(footprints.items())))
        assert footprints_fingerprint(footprints) == \
            footprints_fingerprint(shuffled)

    def test_fingerprint_tracks_content(self):
        footprints, _, _ = _corpus()
        changed = dict(footprints)
        changed["tool"] = Footprint.build(syscalls=["read"])
        assert footprints_fingerprint(footprints) != \
            footprints_fingerprint(changed)


class TestEngineCacheDatasets:
    def test_disk_roundtrip(self, tmp_path):
        from repro.engine.cache import AnalysisCache
        footprints, popcon, repository = _corpus()
        dataset = Dataset(footprints, popcon, repository)
        fingerprint = footprints_fingerprint(footprints)
        cache = AnalysisCache(str(tmp_path))
        assert cache.get_dataset(fingerprint) is None
        cache.put_dataset(fingerprint, dataset)
        loaded = cache.get_dataset(fingerprint, popcon, repository)
        assert dict(loaded) == dict(dataset)
        assert loaded.popcon is popcon
        assert cache.stats.dataset_hits == 1
        assert cache.stats.dataset_misses == 1
        assert cache.stats.dataset_stores == 1

    def test_corrupt_snapshot_is_a_miss(self, tmp_path):
        from repro.engine.cache import AnalysisCache
        footprints, popcon, _ = _corpus()
        fingerprint = footprints_fingerprint(footprints)
        cache = AnalysisCache(str(tmp_path))
        cache.put_dataset(fingerprint, Dataset(footprints))
        path = cache._dataset_path(fingerprint)
        path.write_text("{torn", encoding="utf-8")
        assert cache.get_dataset(fingerprint) is None
        assert cache.stats.invalid == 1
        assert not path.exists()

    def test_memory_cache_rebinds(self):
        from repro.engine.cache import MemoryCache
        footprints, popcon, repository = _corpus()
        dataset = Dataset(footprints, popcon, repository)
        cache = MemoryCache()
        cache.put_dataset("fp", dataset)
        assert cache.get_dataset("fp") is dataset
        other = PopularityContest(10, {"editor": 1})
        rebound = cache.get_dataset("fp", other)
        assert rebound is not dataset
        assert rebound.popcon is other


class TestFootprintFastPaths:
    """Satellite: no-copy fast paths on the footprint model."""

    def test_requires_only_accepts_set_likes(self):
        footprint = Footprint.build(syscalls=["read", "write"])
        assert footprint.requires_only({"read", "write", "open"})
        assert footprint.requires_only(frozenset(["read", "write"]))
        assert not footprint.requires_only({"read"})
        # Non-set iterables still work (materialized once).
        assert footprint.requires_only(iter(["read", "write"]))

    def test_merged_with_shares_empty_provenance(self):
        base = PackageFootprint("pkg")
        merged = base.merged_with(Footprint.build(syscalls=["read"]))
        assert merged.per_executable is base.per_executable
        assert merged.footprint.syscalls == frozenset(["read"])

    def test_merged_with_copies_nonempty_provenance(self):
        base = PackageFootprint(
            "pkg", per_executable={"bin": Footprint.EMPTY})
        merged = base.merged_with(Footprint.EMPTY)
        assert merged.per_executable is not base.per_executable
        assert merged.per_executable == base.per_executable


class TestPickle:
    """In-memory datasets, and the corpora that hold them, pickle
    together with their column source."""

    @staticmethod
    def assert_same(copy, dataset):
        assert dict(copy) == dict(dataset)
        assert copy.bitsets == dataset.bitsets
        for dimension in ALL_DIMENSIONS:
            assert copy.importance_table(dimension) == \
                dataset.importance_table(dimension)

    def test_in_memory_dataset(self):
        footprints, popcon, repository = _corpus()
        dataset = Dataset(footprints, popcon, repository)
        dataset.importance_table("syscall")   # warm caches pickle too
        self.assert_same(pickle.loads(pickle.dumps(dataset)), dataset)

    def test_paper_corpus(self):
        from repro.synth import PaperScaleConfig, build_paper_corpus
        corpus = build_paper_corpus(PaperScaleConfig.tiny())
        corpus.dataset.importance_table("syscall")
        copy = pickle.loads(pickle.dumps(corpus))
        self.assert_same(copy.dataset, corpus.dataset)


class TestStudyIntegration:
    def test_study_threads_one_dataset(self, study):
        assert isinstance(study.footprints, Dataset)
        assert study.footprints is study.dataset
        assert study.dataset.popcon is study.popcon
        assert study.dataset.repository is study.repository

    def test_dataset_report_renders(self, study):
        output = study.dataset_report()
        assert output.experiment == "dataset"
        assert "syscall" in output.rendered
        assert "dependency graph" in output.rendered

    def test_export_dataset(self, study, tmp_path):
        path = tmp_path / "dataset.json"
        written = study.export_dataset(str(path))
        assert written == path.stat().st_size
        loaded = dataset_from_json(path.read_text(encoding="utf-8"))
        assert loaded.packages == study.dataset.packages
