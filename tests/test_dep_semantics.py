"""AND-of-OR dependency semantics, end to end.

Covers the refactor from the flat AND-graph to APT's real dependency
model: ``a | b`` alternative groups, ``Provides:`` virtual packages,
the provider-aware repository indexes, the greatest-fixed-point
closure, the AND-only ablation, the snapshot/series codecs, and the
gated synthetic emitters.  The companion property suite
(``test_dep_semantics_properties.py``) drives the same semantics
against the naive oracle over randomized ecosystems; this file pins
the concrete behaviours with hand-built repositories.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.footprint import Footprint
from repro.dataset import Dataset
from repro.metrics import (
    dep_semantics_ablation,
    supported_packages,
    weighted_completeness,
)
from repro.packages.package import (Package, dependency_groups,
                                    split_alternatives)
from repro.packages.popcon import PopularityContest
from repro.packages.repository import Repository
from repro.series import DatasetSeries, series_to_bytes
from repro.store import decode_header, load_snapshot_bytes, snapshot_to_bytes
from repro.synth import (
    EcosystemConfig,
    EvolutionConfig,
    PaperScaleConfig,
    build_ecosystem,
    build_paper_corpus,
    evolve_corpus,
)


class TestParser:
    def test_plain_entry_is_single_alternative(self):
        assert split_alternatives("mawk") == ("mawk",)

    def test_alternatives_split_and_strip(self):
        assert split_alternatives("mawk | gawk") == ("mawk", "gawk")
        assert split_alternatives(" a |b|  c ") == ("a", "b", "c")

    def test_empty_alternatives_are_dropped(self):
        assert split_alternatives("|") == ()
        assert split_alternatives("a ||") == ("a",)

    @given(st.text(alphabet="ab| \t", max_size=12))
    def test_entries_without_bar_parse_like_any_other(self, dep):
        # The "|"-free fast path returns what the general split does.
        assert split_alternatives(dep) == tuple(
            alt for alt in (part.strip() for part in dep.split("|"))
            if alt)

    def test_dependency_groups_skips_empty_entries(self):
        assert dependency_groups(["a | b", "", "c"]) == \
            (("a", "b"), ("c",))

    def test_package_exposes_parsed_groups(self):
        package = Package("mutt", depends=["libc6", "exim4 | postfix"])
        assert package.dependency_groups() == \
            (("libc6",), ("exim4", "postfix"))


@pytest.fixture()
def mail_repo():
    """The classic Debian mail-transport-agent arrangement."""
    return Repository([
        Package("postfix", depends=["libc6"],
                provides=["mail-transport-agent"]),
        Package("exim4", depends=["libc6"],
                provides=["mail-transport-agent"]),
        Package("mutt", depends=["mail-transport-agent", "libc6"]),
        Package("cron", depends=["postfix | exim4"]),
        Package("libc6"),
        Package("broken", depends=["no-such-package"]),
    ])


class TestRepositoryIndexes:
    def test_providers_in_insertion_order(self, mail_repo):
        assert mail_repo.providers_of("mail-transport-agent") == \
            ("postfix", "exim4")
        assert mail_repo.providers_of("libc6") == ()

    def test_is_virtual(self, mail_repo):
        assert mail_repo.is_virtual("mail-transport-agent")
        assert not mail_repo.is_virtual("postfix")
        assert not mail_repo.is_virtual("no-such-package")

    def test_satisfiers_real_package_first(self, mail_repo):
        assert mail_repo.satisfiers("mail-transport-agent") == \
            ("postfix", "exim4")
        assert mail_repo.satisfiers("libc6") == ("libc6",)
        assert mail_repo.satisfiers("no-such-package") == ()

    def test_real_name_also_provided_lists_itself_first(self):
        repo = Repository([
            Package("awk", provides=["awk"]),
            Package("gawk", provides=["awk"]),
        ])
        assert repo.satisfiers("awk") == ("awk", "gawk")
        # Provided *and* real: not a virtual name.
        assert repo.virtual_names() == ()

    def test_virtual_names_and_counts(self, mail_repo):
        assert mail_repo.virtual_names() == ("mail-transport-agent",)
        assert mail_repo.n_provider_edges() == 2
        assert mail_repo.n_alternative_groups() == 1

    def test_add_invalidates_cached_indexes(self, mail_repo):
        assert "sendmail" not in \
            mail_repo.providers_of("mail-transport-agent")
        before = mail_repo.reverse_dependencies("postfix")
        mail_repo.add(Package("mta-monitor",
                              depends=["mail-transport-agent"]))
        mail_repo.add(Package("sendmail",
                              provides=["mail-transport-agent"]))
        assert mail_repo.providers_of("mail-transport-agent") == \
            ("postfix", "exim4", "sendmail")
        after = mail_repo.reverse_dependencies("postfix")
        assert "mta-monitor" in after
        assert after > before

    def test_duplicate_add_rejected(self, mail_repo):
        with pytest.raises(ValueError):
            mail_repo.add(Package("postfix"))


class TestReverseDependencies:
    def test_direct_alternative_and_virtual_dependents(self, mail_repo):
        assert mail_repo.reverse_dependencies("postfix") == \
            frozenset({"mutt", "cron"})
        assert mail_repo.reverse_dependencies("libc6") == \
            frozenset({"postfix", "exim4", "mutt"})

    def test_index_is_built_only_when_asked(self, mail_repo):
        # Closure and curve lookups never need the reverse index.
        mail_repo.dependency_groups_of("mutt")
        mail_repo.satisfiers("mail-transport-agent")
        assert mail_repo._reverse is None
        assert mail_repo.reverse_dependencies("postfix") == \
            frozenset({"mutt", "cron"})
        assert mail_repo._reverse is not None

    def test_self_dependency_is_kept(self):
        repo = Repository([Package("ouroboros",
                                   depends=["ouroboros"])])
        assert repo.reverse_dependencies("ouroboros") == \
            frozenset({"ouroboros"})


class TestValidationSplit:
    def test_dangling_vs_virtual_satisfied(self, mail_repo):
        report = mail_repo.validate_dependencies_report()
        assert report.dangling == ["broken -> no-such-package"]
        assert report.virtual_satisfied == \
            ["mutt -> mail-transport-agent"]
        assert bool(report)

    def test_validate_dependencies_lists_only_dangling(self, mail_repo):
        assert mail_repo.validate_dependencies() == \
            ["broken -> no-such-package"]

    def test_clean_repository_reports_falsy(self):
        repo = Repository([Package("a", depends=["b"]), Package("b")])
        report = repo.validate_dependencies_report()
        assert not report
        assert report.dangling == []
        assert report.virtual_satisfied == []


class TestAndOnlyView:
    def test_collapses_groups_and_drops_provides(self, mail_repo):
        view = mail_repo.and_only_view()
        assert view.get("cron").depends == ["postfix"]
        assert view.get("postfix").provides == []
        assert view.providers_of("mail-transport-agent") == ()
        # The virtual dependency is now dangling in the view.
        assert "mutt -> mail-transport-agent" in \
            view.validate_dependencies()

    def test_flat_repository_round_trips(self):
        repo = Repository([
            Package("a", category="libs", depends=["b", "c"]),
            Package("b", depends=["c"]),
            Package("c"),
        ])
        view = repo.and_only_view()
        for package in repo:
            mirrored = view.get(package.name)
            assert mirrored.depends == package.depends
            assert mirrored.category == package.category
        assert view.validate_dependencies() == []


class TestDependencyClosure:
    def test_closure_follows_alternatives_and_providers(self, mail_repo):
        assert mail_repo.dependency_closure("mutt") == \
            frozenset({"mutt", "postfix", "exim4", "libc6"})
        assert mail_repo.dependency_closure("cron") == \
            frozenset({"cron", "postfix", "exim4", "libc6"})

    def test_closure_survives_or_cycles(self):
        repo = Repository([
            Package("a", depends=["b | c"]),
            Package("b", depends=["a"]),
            Package("c"),
        ])
        assert repo.dependency_closure("a") == \
            frozenset({"a", "b", "c"})

    def test_unknown_targets_ignored(self, mail_repo):
        assert mail_repo.dependency_closure("broken") == \
            frozenset({"broken"})


def _dataset(spec, repository):
    """spec: name -> (syscalls, installs)."""
    footprints = {name: Footprint.build(syscalls=calls)
                  for name, (calls, _) in spec.items()}
    popcon = PopularityContest(1000, {
        name: installs for name, (_, installs) in spec.items()})
    return Dataset(footprints, popcon, repository)


class TestClosureSemantics:
    def test_one_supported_alternative_satisfies_the_group(self):
        repo = Repository([
            Package("app", depends=["lib1 | lib2"]),
            Package("lib1"), Package("lib2"),
        ])
        dataset = _dataset({"app": (["open"], 100),
                            "lib1": (["read"], 100),
                            "lib2": (["write"], 100)}, repo)
        assert supported_packages({"open", "write"}, dataset) == \
            {"app", "lib2"}
        # AND-only tooling would pin app to lib1 and drop it.
        and_only = Dataset(dict(dataset), dataset.popcon,
                           repo.and_only_view())
        assert supported_packages({"open", "write"}, and_only) == \
            {"lib2"}

    def test_virtual_gates_until_some_provider_supported(self):
        repo = Repository([
            Package("postfix", provides=["mail-transport-agent"]),
            Package("mutt", depends=["mail-transport-agent"]),
        ])
        spec = {"postfix": (["accept"], 100),
                "mutt": (["read"], 100)}
        dataset = _dataset(spec, repo)
        assert supported_packages({"read"}, dataset) == set()
        assert supported_packages({"read", "accept"}, dataset) == \
            {"postfix", "mutt"}

    def test_dangling_alternative_never_gates(self):
        repo = Repository([
            Package("app", depends=["no-such-thing"]),
        ])
        dataset = _dataset({"app": (["open"], 100)}, repo)
        assert supported_packages({"open"}, dataset) == {"app"}

    def test_or_cycle_rescued_by_greatest_fixed_point(self):
        # a and b satisfy each other through alternative groups whose
        # other branch (deadlib) is unsupported.  A least-fixed-point
        # would deadlock and drop both; APT's semantics keep both.
        repo = Repository([
            Package("a", depends=["b | deadlib"]),
            Package("b", depends=["a | deadlib"]),
            Package("deadlib"),
        ])
        spec = {"a": (["read"], 100), "b": (["write"], 100),
                "deadlib": (["futex"], 100)}
        dataset = _dataset(spec, repo)
        assert supported_packages({"read", "write"}, dataset) == \
            {"a", "b"}
        assert supported_packages({"read"}, dataset) == set()

    def test_weighted_completeness_counts_rescued_alternatives(self):
        repo = Repository([
            Package("app", depends=["lib1 | lib2"]),
            Package("lib1"), Package("lib2"),
        ])
        dataset = _dataset({"app": (["open"], 600),
                            "lib1": (["read"], 200),
                            "lib2": (["write"], 200)}, repo)
        full = weighted_completeness({"open", "write"}, dataset)
        and_only = weighted_completeness(
            {"open", "write"},
            Dataset(dict(dataset), dataset.popcon,
                    repo.and_only_view()))
        assert full > and_only


@pytest.fixture(scope="module")
def flat_corpus():
    return build_paper_corpus(PaperScaleConfig.tiny(seed=9))


@pytest.fixture(scope="module")
def semantics_corpus():
    return build_paper_corpus(
        PaperScaleConfig.tiny(seed=9, dependency_semantics=True))


class TestAblation:
    def test_requires_a_repository(self, flat_corpus):
        dataset = Dataset(dict(flat_corpus.dataset),
                          flat_corpus.popcon)
        with pytest.raises(ValueError):
            dep_semantics_ablation(dataset)

    def test_flat_corpus_gap_is_exactly_zero(self, flat_corpus):
        result = dep_semantics_ablation(flat_corpus.dataset)
        assert result["n_virtual_packages"] == 0
        assert result["n_provider_edges"] == 0
        assert result["n_alternative_groups"] == 0
        assert result["final_gap"] == 0.0
        assert result["max_abs_gap"] == 0.0
        assert result["mean_abs_gap"] == 0.0
        assert result["n_ranks_diverging"] == 0
        assert result["full"]["final_completeness"] == \
            result["and_only"]["final_completeness"]

    def test_semantics_corpus_shows_a_measurable_gap(
            self, semantics_corpus):
        result = dep_semantics_ablation(semantics_corpus.dataset)
        assert result["n_virtual_packages"] > 0
        assert result["n_provider_edges"] > 0
        assert result["n_alternative_groups"] > 0
        assert result["max_abs_gap"] > 0.0
        assert result["n_ranks_diverging"] > 0
        assert result["n_apis"] > 0
        assert 1 <= result["max_gap_rank"] <= result["n_apis"]

    def test_gap_sign_matches_final_completeness(self,
                                                 semantics_corpus):
        result = dep_semantics_ablation(semantics_corpus.dataset)
        assert result["final_gap"] == pytest.approx(
            result["full"]["final_completeness"]
            - result["and_only"]["final_completeness"])


class TestSnapshotCodec:
    def test_provides_round_trip(self, semantics_corpus):
        blob = snapshot_to_bytes(semantics_corpus.dataset)
        assert b"PRVS" in decode_header(blob).sections
        loaded = load_snapshot_bytes(blob)
        source = semantics_corpus.repository
        assert sorted(loaded.repository.virtual_names()) == \
            sorted(source.virtual_names())
        for package in source:
            assert loaded.repository.get(package.name).provides == \
                package.provides

    def test_flat_snapshot_has_no_provides_section(self, flat_corpus):
        blob = snapshot_to_bytes(flat_corpus.dataset)
        assert b"PRVS" not in decode_header(blob).sections
        loaded = load_snapshot_bytes(blob)
        assert all(not package.provides
                   for package in loaded.repository)

    def test_ablation_survives_a_round_trip(self, semantics_corpus):
        loaded = load_snapshot_bytes(
            snapshot_to_bytes(semantics_corpus.dataset))
        assert dep_semantics_ablation(loaded) == \
            dep_semantics_ablation(semantics_corpus.dataset)


@pytest.fixture(scope="module")
def semantics_series():
    train = evolve_corpus(EvolutionConfig(
        n_releases=3,
        base=PaperScaleConfig.tiny(seed=9,
                                   dependency_semantics=True),
        seed=5))
    return train, DatasetSeries(series_to_bytes(train.datasets()))


class TestSeriesCodec:
    def test_provides_round_trip_per_release(self, semantics_series):
        train, series = semantics_series
        for release, eager in enumerate(train.datasets()):
            decoded = series.at(release).repository
            for package in eager.repository:
                mirrored = decoded.get(package.name)
                assert mirrored.depends == package.depends
                assert mirrored.provides == package.provides

    def test_dependency_drift_counts(self, semantics_series):
        _, series = semantics_series
        drift = series.dependency_drift()
        assert len(drift) == series.n_releases
        for row in drift:
            assert row["n_virtual_packages"] > 0
            assert row["n_alternative_groups"] > 0

    def test_flat_series_drift_is_all_zero(self, flat_corpus):
        train = evolve_corpus(EvolutionConfig(
            n_releases=2, base=PaperScaleConfig.tiny(seed=9), seed=5))
        series = DatasetSeries(series_to_bytes(train.datasets()))
        for row in series.dependency_drift():
            assert row["n_virtual_packages"] == 0
            assert row["n_provider_edges"] == 0
            assert row["n_alternative_groups"] == 0


class TestSynthGating:
    def test_default_corpus_is_untouched_by_the_flag_plumbing(
            self, flat_corpus):
        again = build_paper_corpus(PaperScaleConfig.tiny(seed=9))
        assert snapshot_to_bytes(flat_corpus.dataset) == \
            snapshot_to_bytes(again.dataset)

    def test_semantics_flag_does_not_perturb_shared_draws(
            self, flat_corpus, semantics_corpus):
        # The gated emitters draw from an independent RNG stream, so
        # every package the flat corpus knows keeps exactly the same
        # footprint when semantics are enabled.  (Popcon *weights* may
        # shift: the metapackages join the Zipf ranking.)
        flat = flat_corpus.dataset
        rich = semantics_corpus.dataset
        assert set(flat.packages) <= set(rich.packages)
        for name in flat.packages:
            assert rich[name] == flat[name]

    def test_semantics_corpus_emits_all_three_patterns(
            self, semantics_corpus):
        repo = semantics_corpus.repository
        virtuals = repo.virtual_names()
        assert any(name.startswith("pvirt-") for name in virtuals)
        assert repo.n_alternative_groups() > 0
        metas = [p for p in repo if p.category == "metapackage"]
        assert metas
        assert all(p.name.startswith("pmeta-") for p in metas)

    def test_semantics_corpus_has_no_new_dangling_deps(
            self, flat_corpus, semantics_corpus):
        flat_report = \
            flat_corpus.repository.validate_dependencies_report()
        rich_report = \
            semantics_corpus.repository.validate_dependencies_report()
        # Ghost deps stay dangling; everything the emitters added is
        # either real or provider-satisfied.
        assert all(entry.split(" -> ")[1].startswith("ghost-")
                   for entry in rich_report.dangling)
        assert len(rich_report.dangling) == len(flat_report.dangling)
        assert rich_report.virtual_satisfied

    def test_ecosystem_semantics_are_provider_clean(self):
        eco = build_ecosystem(EcosystemConfig(
            n_filler_packages=6, n_driver_packages=2,
            n_script_packages=8, seed=7,
            dependency_semantics=True))
        repo = eco.repository
        assert repo.validate_dependencies() == []
        report = repo.validate_dependencies_report()
        assert report.virtual_satisfied
        assert "interpreters-meta" in repo
        assert repo.n_alternative_groups() > 0
        runtime_virtuals = [name for name in repo.virtual_names()
                            if name.endswith("-runtime")]
        assert runtime_virtuals


class TestStatsSurfaces:
    def test_dataset_stats_counts(self, semantics_corpus, flat_corpus):
        stats = semantics_corpus.dataset.stats()
        repo = semantics_corpus.repository
        assert stats.n_virtual_packages == len(repo.virtual_names())
        assert stats.n_provider_edges == repo.n_provider_edges()
        assert stats.n_alternative_groups == \
            repo.n_alternative_groups()
        flat_stats = flat_corpus.dataset.stats()
        assert flat_stats.n_virtual_packages == 0
        assert flat_stats.n_alternative_groups == 0

    def test_rendered_stats_mention_the_new_counts(
            self, semantics_corpus):
        from repro.reports.text import render_dataset_stats
        rendered = render_dataset_stats(
            semantics_corpus.dataset.stats())
        assert "virtual packages" in rendered
        assert "alternative groups" in rendered

    def test_serve_payloads(self, semantics_corpus, flat_corpus):
        from repro.serve.endpoints import (BadRequestError,
                                           dep_semantics_payload,
                                           stats_payload)
        payload = stats_payload(semantics_corpus.dataset, {})
        assert payload["n_virtual_packages"] > 0
        assert payload["n_alternative_groups"] > 0
        ablation = dep_semantics_payload(semantics_corpus.dataset,
                                         {"dimension": "syscall"})
        assert ablation["max_abs_gap"] > 0.0
        bare = Dataset(dict(flat_corpus.dataset), flat_corpus.popcon)
        with pytest.raises(BadRequestError):
            dep_semantics_payload(bare, {"dimension": "syscall"})
