"""Metric tests: the Appendix A formulas on hand-built inputs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.footprint import Footprint
from repro.dataset import Dataset
from repro.metrics import (
    api_importance,
    band_counts,
    close_over_dependencies,
    completeness_curve,
    count_at_least,
    dep_semantics_ablation,
    dependents_index,
    first_rank_reaching,
    importance_of_packages,
    importance_table,
    inverted_cdf,
    missing_apis_report,
    ranked,
    stages,
    supported_packages,
    unweighted_api_importance,
    unweighted_importance_table,
    weighted_completeness,
)
from repro.packages import Package, PopularityContest, Repository
from repro.synth import PaperScaleConfig, build_paper_corpus


def _fp(*syscalls):
    return Footprint.build(syscalls=syscalls)


def _setup():
    footprints = {
        "everywhere": _fp("read", "write"),
        "common": _fp("read", "socket"),
        "niche": _fp("read", "kexec_load"),
    }
    popcon = PopularityContest(1000, {
        "everywhere": 1000, "common": 500, "niche": 10})
    return footprints, popcon


class TestApiImportance:
    def test_formula_single_user(self):
        footprints, popcon = _setup()
        assert api_importance("kexec_load", footprints,
                              popcon) == pytest.approx(0.01)

    def test_formula_multiple_users_independence(self):
        footprints, popcon = _setup()
        # read used by all three: 1 - (1-1)(1-0.5)(1-0.01) = 1
        assert api_importance("read", footprints, popcon) == 1.0
        # socket used only by 'common'
        assert api_importance("socket", footprints,
                              popcon) == pytest.approx(0.5)

    def test_unused_api_is_zero(self):
        footprints, popcon = _setup()
        assert api_importance("mbind", footprints, popcon) == 0.0

    def test_importance_of_packages_matches_appendix(self):
        popcon = PopularityContest(100, {"a": 50, "b": 50})
        # 1 - (1-0.5)(1-0.5)
        assert importance_of_packages(["a", "b"],
                                      popcon) == pytest.approx(0.75)

    def test_table_matches_single_queries(self):
        footprints, popcon = _setup()
        table = importance_table(footprints, popcon)
        for api in ("read", "write", "socket", "kexec_load"):
            assert table[api] == pytest.approx(
                api_importance(api, footprints, popcon))

    def test_universe_adds_zero_entries(self):
        footprints, popcon = _setup()
        table = importance_table(footprints, popcon,
                                 universe=["mbind"])
        assert table["mbind"] == 0.0

    def test_dependents_index(self):
        footprints, _ = _setup()
        index = dependents_index(footprints)
        assert set(index["read"]) == {"everywhere", "common", "niche"}
        assert index["socket"] == ["common"]

    def test_ranked_descending(self):
        values = {"a": 0.2, "b": 0.9, "c": 0.9}
        assert ranked(values) == [("b", 0.9), ("c", 0.9), ("a", 0.2)]

    def test_count_at_least(self):
        values = {"a": 0.2, "b": 0.9, "c": 1.0}
        assert count_at_least(values, 0.9) == 2

    def test_band_counts(self):
        values = {"a": 1.0, "b": 0.5, "c": 0.05, "d": 0.0}
        bands = band_counts(values)
        assert bands == {"indispensable": 1, "mid": 1, "low": 1,
                         "unused": 1}

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=20))
    def test_importance_bounded(self, probabilities):
        popcon = PopularityContest(10 ** 6, {
            f"p{i}": int(p * 10 ** 6)
            for i, p in enumerate(probabilities)})
        value = importance_of_packages(
            [f"p{i}" for i in range(len(probabilities))], popcon)
        assert 0.0 <= value <= 1.0
        assert value >= max(
            popcon.install_probability(f"p{i}")
            for i in range(len(probabilities))) - 1e-9


class TestUnweighted:
    def test_fraction_of_packages(self):
        footprints, _ = _setup()
        table = unweighted_importance_table(footprints)
        assert table["read"] == 1.0
        assert table["socket"] == pytest.approx(1 / 3)

    def test_single_api_matches_table(self):
        footprints, _ = _setup()
        assert unweighted_api_importance(
            "socket", footprints) == pytest.approx(1 / 3)

    def test_empty_footprints(self):
        assert unweighted_importance_table({}, universe=["x"]) == {
            "x": 0.0}


class TestWeightedCompleteness:
    def test_full_support(self):
        footprints, popcon = _setup()
        value = weighted_completeness(
            ["read", "write", "socket", "kexec_load"], footprints,
            popcon)
        assert value == pytest.approx(1.0)

    def test_no_support(self):
        footprints, popcon = _setup()
        assert weighted_completeness([], footprints, popcon) == 0.0

    def test_partial_support_weighting(self):
        footprints, popcon = _setup()
        value = weighted_completeness(["read", "write"], footprints,
                                      popcon)
        # only 'everywhere' works: 1000 / (1000 + 500 + 10)
        assert value == pytest.approx(1000 / 1510)

    def test_dependency_closure_drops_dependents(self):
        footprints = {
            "app": _fp("read"),
            "lib": _fp("mbind"),
        }
        popcon = PopularityContest(100, {"app": 100, "lib": 50})
        repo = Repository([
            Package("app", depends=["lib"]),
            Package("lib"),
        ])
        value = weighted_completeness(["read"], footprints, popcon,
                                      repo)
        assert value == 0.0  # lib unsupported -> app unsupported

    def test_ignore_empty_excludes_library_packages(self):
        footprints = {
            "app": _fp("read"),
            "data-only": Footprint.EMPTY,
        }
        popcon = PopularityContest(100, {"app": 50, "data-only": 100})
        value = weighted_completeness(["read"], footprints, popcon)
        assert value == pytest.approx(1.0)
        diluted = weighted_completeness(["read"], footprints, popcon,
                                        ignore_empty=False)
        assert diluted == pytest.approx(1.0)  # empty is also supported

    def test_empty_dep_does_not_invalidate(self):
        footprints = {
            "app": _fp("read"),
            "libdata": Footprint.EMPTY,
        }
        popcon = PopularityContest(100, {"app": 100, "libdata": 100})
        repo = Repository([
            Package("app", depends=["libdata"]),
            Package("libdata"),
        ])
        assert weighted_completeness(
            ["read"], footprints, popcon, repo) == pytest.approx(1.0)

    def test_supported_packages_concrete(self):
        footprints, popcon = _setup()
        supported = supported_packages(["read", "write"], footprints)
        assert supported == {"everywhere"}

    def test_missing_apis_report_ranks_by_weight(self):
        footprints, popcon = _setup()
        report = missing_apis_report(["read", "write"], footprints,
                                     popcon)
        apis = [api for api, _ in report]
        assert apis[0] == "socket"  # blocks 0.5 weight vs 0.01


class TestCloseOverDependencies:
    def test_cascading_removal(self):
        repo = Repository([
            Package("a", depends=["b"]),
            Package("b", depends=["c"]),
            Package("c"),
        ])
        result = close_over_dependencies({"a", "b"}, repo)
        assert result == set()  # c unsupported cascades up

    def test_assume_supported(self):
        repo = Repository([
            Package("a", depends=["c"]),
            Package("c"),
        ])
        result = close_over_dependencies({"a"}, repo,
                                         assume_supported={"c"})
        assert result == {"a"}

    def test_cycle_safe(self):
        repo = Repository([
            Package("a", depends=["b"]),
            Package("b", depends=["a"]),
        ])
        assert close_over_dependencies({"a", "b"}, repo) == {"a", "b"}


class TestCurveAndStages:
    def _inputs(self):
        footprints = {
            "tiny": _fp("read"),
            "mid": _fp("read", "write"),
            "big": _fp("read", "write", "socket"),
        }
        popcon = PopularityContest(100, {"tiny": 100, "mid": 60,
                                         "big": 30})
        return footprints, popcon

    def test_curve_monotone_nondecreasing(self):
        footprints, popcon = self._inputs()
        curve = completeness_curve(footprints, popcon)
        values = [point.completeness for point in curve]
        assert values == sorted(values)

    def test_curve_ends_at_one(self):
        footprints, popcon = self._inputs()
        curve = completeness_curve(footprints, popcon)
        assert curve[-1].completeness == pytest.approx(1.0)

    def test_curve_orders_by_usage_within_ties(self):
        footprints, popcon = self._inputs()
        curve = completeness_curve(footprints, popcon)
        apis = [point.api for point in curve]
        assert apis[0] == "read"  # used by all three packages

    def test_curve_step_values(self):
        footprints, popcon = self._inputs()
        curve = completeness_curve(footprints, popcon)
        # after 'read': tiny supported (100/190)
        assert curve[0].completeness == pytest.approx(100 / 190)
        # after 'write': + mid
        assert curve[1].completeness == pytest.approx(160 / 190)

    def test_first_rank_reaching(self):
        footprints, popcon = self._inputs()
        curve = completeness_curve(footprints, popcon)
        assert first_rank_reaching(curve, 0.5) == 1
        assert first_rank_reaching(curve, 0.999) == 3
        assert first_rank_reaching(curve, 2.0) is None

    def test_stages_cover_curve(self):
        footprints, popcon = self._inputs()
        curve = completeness_curve(footprints, popcon)
        result = stages(curve, thresholds=(0.5, 0.8, 1.0))
        assert result[0].end <= result[-1].end
        assert result[-1].completeness == pytest.approx(1.0)

    def test_inverted_cdf_sorted(self):
        values = inverted_cdf({"a": 0.1, "b": 1.0, "c": 0.5})
        assert values == [1.0, 0.5, 0.1]

    @given(st.dictionaries(
        st.sampled_from(["read", "write", "open", "close", "mmap"]),
        st.floats(0.01, 1.0), min_size=1, max_size=5))
    def test_curve_monotone_property(self, weights):
        footprints = {
            f"pkg-{api}": _fp(api, "read") for api in weights
        }
        popcon = PopularityContest(1000, {
            f"pkg-{api}": max(1, int(w * 1000))
            for api, w in weights.items()})
        curve = completeness_curve(footprints, popcon)
        values = [point.completeness for point in curve]
        assert all(a <= b + 1e-12
                   for a, b in zip(values, values[1:]))


class TestCloseOverUnknownPackages:
    def test_footprint_package_missing_from_repository(self):
        # Regression: this used to crash with UnknownPackageError; a
        # package without dependency metadata is never invalidated.
        repo = Repository([Package("known", depends=[])])
        result = close_over_dependencies({"known", "ghost"}, repo)
        assert result == {"known", "ghost"}

    def test_unknown_package_kept_while_dependents_cascade(self):
        repo = Repository([
            Package("a", depends=["b"]),
            Package("b"),
        ])
        result = close_over_dependencies({"a", "ghost"}, repo)
        assert result == {"ghost"}  # a loses b, ghost is untouched


def _reference_curve(footprints, popcon, repository,
                     dimension="syscall"):
    """The pre-optimization curve: full dependency fixed point at
    every rank.  Kept as the oracle for the incremental version."""
    from repro.metrics.importance import DIMENSIONS
    select = DIMENSIONS[dimension]
    trivially = {p for p, f in footprints.items() if not select(f)}
    footprints = {p: f for p, f in footprints.items() if select(f)}
    importance = importance_table(footprints, popcon, dimension)
    usage = unweighted_importance_table(footprints, dimension)
    order = sorted(importance, key=lambda a: (-importance[a],
                                              -usage.get(a, 0.0), a))
    requirement_count = {}
    users = {}
    for package, footprint in footprints.items():
        needs = select(footprint)
        requirement_count[package] = len(needs)
        for api in needs:
            users.setdefault(api, []).append(package)
    total = sum(popcon.install_probability(p) for p in footprints)
    satisfied = {p for p, c in requirement_count.items() if c == 0}
    points = []
    for rank, api in enumerate(order, start=1):
        for package in users.get(api, ()):
            requirement_count[package] -= 1
            if requirement_count[package] == 0:
                satisfied.add(package)
        supported = close_over_dependencies(
            set(satisfied), repository, assume_supported=trivially)
        weight = sum(popcon.install_probability(p) for p in supported)
        points.append((rank, api, weight / total))
    return points


class TestIncrementalCurveMatchesReference:
    """The worklist curve must equal the per-rank fixed point exactly."""

    def _assert_identical(self, footprints, popcon, repository):
        expected = _reference_curve(footprints, popcon, repository)
        actual = [(p.n_apis, p.api, p.completeness)
                  for p in completeness_curve(footprints, popcon,
                                              repository)]
        assert len(actual) == len(expected)
        for (rank, api, value), (erank, eapi, evalue) in zip(
                actual, expected):
            assert (rank, api) == (erank, eapi)
            assert value == pytest.approx(evalue, abs=1e-12)

    def test_simple_chain(self):
        repo = Repository([
            Package("a", depends=["b"]),
            Package("b"),
            Package("c"),
        ])
        footprints = {
            "a": _fp("read"),
            "b": _fp("write"),
            "c": _fp("read", "socket"),
        }
        popcon = PopularityContest(100, {"a": 50, "b": 30, "c": 20})
        self._assert_identical(footprints, popcon, repo)

    def test_dependency_cycle(self):
        # The subtle case: a satisfied cycle must stay supported (the
        # closure computes a greatest fixed point; a naive additive
        # worklist would drop it).
        repo = Repository([
            Package("a", depends=["b"]),
            Package("b", depends=["a"]),
            Package("e", depends=["a"]),
        ])
        footprints = {
            "a": _fp("read"),
            "b": _fp("write"),
            "e": _fp("read", "write", "socket"),
        }
        popcon = PopularityContest(100, {"a": 40, "b": 40, "e": 20})
        self._assert_identical(footprints, popcon, repo)

    def test_footprint_dep_missing_from_repository(self):
        # Regression: a dependency that carries its own footprint but
        # is absent from the repository must never gate its dependent —
        # the reference closure only invalidates on in-repository deps,
        # but the tracker used to add a hard edge for any dep in the
        # footprint universe (reference 0.8 vs tracker 0.0 at rank 1).
        repo = Repository([Package("a", depends=["ghost"])])
        footprints = {
            "a": _fp("read"),
            "ghost": _fp("write"),     # footprint-bearing, not in repo
        }
        popcon = PopularityContest(100, {"a": 80, "ghost": 20})
        self._assert_identical(footprints, popcon, repo)

    def test_poisoned_and_unknown_dependencies(self):
        repo = Repository([
            Package("a", depends=["outsider"]),  # repo pkg, no footprint
            Package("outsider"),
            Package("b", depends=["missing"]),   # dep not in repo
            Package("trivial"),
            Package("c", depends=["trivial"]),   # dep assumed supported
        ])
        footprints = {
            "a": _fp("read"),
            "b": _fp("write"),
            "c": _fp("read", "write"),
            "ghost": _fp("read"),                # pkg not in repo
            "trivial": Footprint.EMPTY,          # empty: assumed
        }
        popcon = PopularityContest(100, {"a": 30, "b": 30, "c": 20,
                                         "ghost": 10, "trivial": 10})
        self._assert_identical(footprints, popcon, repo)

    def test_study_sized_ecosystem(self, study):
        self._assert_identical(study.footprints, study.popcon,
                               study.repository)


# --- the support-rank curve against a frozen decrement loop ----------------

_CURVE_SYSCALLS = ["read", "write", "open", "close", "mmap", "futex"]
_CURVE_IOCTLS = ["TCGETS", "FIONREAD"]
#: Importance entries no package uses, in both dimensions' spellings.
_UNUSED_APIS = ["kexec_load", "not_a_syscall", "ioctl:NOT_AN_IOCTL"]
_VIRTUAL = ["mta", "awk"]


def _decrement_loop_curve(dataset, dimension, importance, ignore_empty):
    """The curve as one counter decrement per (API, user) pair, frozen
    from before the support-rank scan, returned as plain tuples."""
    space = dataset.space
    weights = dataset.weights
    universe_ids = dataset.universe_ids(dimension, ignore_empty)
    if importance is None:
        importance = dataset.importance_table(dimension)
    usage = dataset.usage_table(dimension, ignore_empty=ignore_empty)
    order = sorted(importance,
                   key=lambda api: (-importance[api],
                                    -usage.get(api, 0.0), api))
    requirement_count = [mask.bit_count()
                         for mask in dataset.masks(dimension)]
    users = dataset.users_index(dimension)
    total_weight = sum(weights[i] for i in universe_ids)
    if total_weight == 0:
        return []
    tracker = (None if dataset.repository is None
               else dataset.condensed_graph(
                   dimension, ignore_empty, assume_trivial=True).tracker())

    def note_satisfied(pkg_id):
        if tracker is None:
            return weights[pkg_id]
        return sum(weights[i] for i in tracker.mark_satisfied(pkg_id))

    supported_weight = 0.0
    for i in universe_ids:
        if requirement_count[i] == 0:
            supported_weight += note_satisfied(i)
    curve = []
    for rank, api in enumerate(order, start=1):
        try:
            api_id = space.id_of(dimension, api)
        except KeyError:
            api_id = None
        if api_id is not None:
            for pkg_id in users[api_id]:
                requirement_count[pkg_id] -= 1
                if requirement_count[pkg_id] == 0:
                    supported_weight += note_satisfied(pkg_id)
        curve.append((rank, api, supported_weight / total_weight))
    return curve


@st.composite
def _curve_inputs(draw):
    """Small corpora, flat or AND-of-OR, with or without a repository,
    plus the curve's knobs.  Few APIs and weights in tenths keep
    popcount and importance ties, and float sums whose last bit
    depends on the order they add in, frequent."""
    n = draw(st.integers(min_value=1, max_value=8))
    names = [f"pkg{i}" for i in range(n)]
    footprints = {}
    for name in names:
        syscalls = draw(st.lists(st.sampled_from(_CURVE_SYSCALLS),
                                 unique=True, max_size=4))
        ioctls = draw(st.lists(st.sampled_from(_CURVE_IOCTLS),
                               unique=True, max_size=1))
        footprints[name] = Footprint.build(syscalls=syscalls,
                                           ioctls=ioctls)
    popcon = PopularityContest(1000, {
        name: draw(st.sampled_from([0, 100, 200, 300, 700, 1000]))
        for name in names})
    andor = draw(st.booleans())
    pool = names + ["outsider", "ghost"] + (_VIRTUAL if andor else [])
    packages = []
    for name in names:
        depends = []
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            alternatives = draw(st.lists(
                st.sampled_from(pool), unique=True, min_size=1,
                max_size=3 if andor else 1))
            depends.append(" | ".join(alternatives))
        provides = (draw(st.lists(st.sampled_from(_VIRTUAL), unique=True))
                    if andor else [])
        packages.append(Package(name, depends=depends, provides=provides))
    packages.append(Package("outsider"))
    repository = (Repository(packages) if draw(st.booleans())
                  else None)
    dimension = draw(st.sampled_from(["syscall", "all"]))
    importance = None
    if draw(st.booleans()):
        used = (_CURVE_SYSCALLS if dimension == "syscall" else
                _CURVE_SYSCALLS + [f"ioctl:{name}"
                                   for name in _CURVE_IOCTLS])
        importance = draw(st.dictionaries(
            st.sampled_from(used + _UNUSED_APIS),
            st.sampled_from([0.0, 0.5, 1.0]), max_size=10))
    return (footprints, popcon, repository, dimension, importance,
            draw(st.booleans()))


class TestSupportRankCurve:
    @settings(max_examples=300, deadline=None)
    @given(_curve_inputs())
    def test_equals_decrement_loop_bit_for_bit(self, inputs):
        (footprints, popcon, repository, dimension, importance,
         ignore_empty) = inputs
        dataset = Dataset(footprints, popcon, repository)
        expected = _decrement_loop_curve(dataset, dimension, importance,
                                         ignore_empty)
        actual = [(point.n_apis, point.api, point.completeness)
                  for point in completeness_curve(
                      dataset, dimension=dimension,
                      importance=importance, ignore_empty=ignore_empty)]
        assert actual == expected


# --- dep_semantics ablation: one curve on a flat corpus -------------------

def _two_curve_ablation(dataset, dimension="syscall"):
    """The ablation report as two full curves, frozen from before the
    flat-corpus shortcut."""
    repository = dataset.repository
    and_only = dataset.rebound(dataset.popcon,
                               repository.and_only_view())
    full_curve = completeness_curve(dataset, dimension=dimension)
    and_only_curve = completeness_curve(and_only, dimension=dimension)
    gaps = [full.completeness - degraded.completeness
            for full, degraded in zip(full_curve, and_only_curve)]
    max_abs_gap = 0.0
    max_gap = 0.0
    max_gap_rank = 0
    for point, gap in zip(full_curve, gaps):
        if abs(gap) > max_abs_gap:
            max_abs_gap = abs(gap)
            max_gap = gap
            max_gap_rank = point.n_apis
    n_points = len(gaps)
    mean_abs_gap = (sum(abs(gap) for gap in gaps) / n_points
                    if n_points else 0.0)

    def _curve_summary(curve):
        if not curve:
            return {"final_completeness": 0.0, "mean_completeness": 0.0}
        return {
            "final_completeness": curve[-1].completeness,
            "mean_completeness": (sum(p.completeness for p in curve)
                                  / len(curve)),
        }

    return {
        "dimension": dimension,
        "n_apis": n_points,
        "n_packages": len(dataset.packages),
        "n_virtual_packages": len(repository.virtual_names()),
        "n_provider_edges": repository.n_provider_edges(),
        "n_alternative_groups": repository.n_alternative_groups(),
        "full": _curve_summary(full_curve),
        "and_only": _curve_summary(and_only_curve),
        "final_gap": gaps[-1] if gaps else 0.0,
        "max_gap": max_gap,
        "max_abs_gap": max_abs_gap,
        "max_gap_rank": max_gap_rank,
        "mean_abs_gap": mean_abs_gap,
        "n_ranks_diverging": sum(1 for gap in gaps if gap != 0.0),
    }


class TestAblationMatchesTwoCurves:
    @pytest.mark.parametrize("dependency_semantics", [False, True])
    @pytest.mark.parametrize("dimension", ["syscall", "all"])
    def test_report_equals_two_curve_path(self, dependency_semantics,
                                          dimension):
        corpus = build_paper_corpus(PaperScaleConfig.tiny(
            seed=9, dependency_semantics=dependency_semantics))
        flat = (corpus.repository.n_alternative_groups() == 0
                and corpus.repository.n_provider_edges() == 0)
        assert flat is not dependency_semantics
        expected = _two_curve_ablation(corpus.dataset, dimension)
        report = dep_semantics_ablation(corpus.dataset,
                                        dimension=dimension)
        assert report == expected
        if flat:
            assert report["n_ranks_diverging"] == 0
            assert report["max_abs_gap"] == 0.0
