"""Workload-advisor tests (§6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.footprint import Footprint
from repro.compat.advisor import (
    WorkloadSuggestion,
    change_impact,
    coverage_plan,
    workload_suggestions,
)
from repro.dataset import ApiInterner, ApiSpace, Dataset, namespaced
from repro.packages import Package, PopularityContest, Repository


def _fp(*syscalls):
    return Footprint.build(syscalls=syscalls)


def _inputs():
    footprints = {
        "web-server": _fp("epoll_wait", "accept4", "sendfile",
                          "read", "write"),
        "database": _fp("pread64", "pwrite64", "fsync", "read"),
        "tool": _fp("read", "write"),
        "niche": _fp("sendfile",),
    }
    popcon = PopularityContest(1000, {
        "web-server": 700, "database": 300, "tool": 950, "niche": 5})
    repo = Repository([
        Package("web-server", depends=["tool"]),
        Package("database"),
        Package("tool"),
        Package("niche"),
        Package("framework", depends=["web-server"]),
    ])
    return footprints, popcon, repo


class TestWorkloadSuggestions:
    def test_coverage_ranks_first(self):
        footprints, popcon, _ = _inputs()
        suggestions = workload_suggestions(
            ["epoll_wait", "sendfile", "fsync"], footprints, popcon)
        assert suggestions[0].package == "web-server"
        assert suggestions[0].coverage == 2

    def test_popularity_breaks_ties(self):
        footprints, popcon, _ = _inputs()
        suggestions = workload_suggestions(
            ["sendfile"], footprints, popcon)
        assert suggestions[0].package == "web-server"  # 0.7 > 0.005
        assert suggestions[1].package == "niche"

    def test_non_users_excluded(self):
        footprints, popcon, _ = _inputs()
        suggestions = workload_suggestions(
            ["epoll_wait"], footprints, popcon)
        assert {s.package for s in suggestions} == {"web-server"}

    def test_limit(self):
        footprints, popcon, _ = _inputs()
        suggestions = workload_suggestions(
            ["read"], footprints, popcon, limit=2)
        assert len(suggestions) == 2


class TestChangeImpact:
    def test_unused_api(self):
        footprints, popcon, repo = _inputs()
        impact = change_impact("kexec_load", footprints, popcon, repo)
        assert impact.direct_users == ()
        assert impact.affected_installs == 0.0
        assert "removable" in impact.verdict

    def test_niche_api(self):
        footprints, popcon, repo = _inputs()
        impact = change_impact("fsync", footprints, popcon, repo)
        assert impact.direct_users == ("database",)
        assert impact.affected_installs == pytest.approx(0.3)

    def test_indispensable_api(self):
        footprints, popcon, repo = _inputs()
        impact = change_impact("read", footprints, popcon, repo)
        # 1 - (1-0.7)(1-0.3)(1-0.95)
        assert impact.affected_installs == pytest.approx(0.9895)

    def test_cascade_includes_reverse_dependencies(self):
        footprints, popcon, repo = _inputs()
        impact = change_impact("epoll_wait", footprints, popcon, repo)
        assert "framework" in impact.cascade
        assert "web-server" not in impact.cascade  # direct, not cascade


class TestCoveragePlan:
    def test_greedy_covers_everything(self):
        footprints, popcon, _ = _inputs()
        plan = coverage_plan(
            ["epoll_wait", "fsync", "sendfile", "pread64"],
            footprints, popcon)
        covered = set()
        for suggestion in plan:
            covered |= set(suggestion.apis_exercised)
        assert {"epoll_wait", "fsync", "sendfile",
                "pread64"} <= covered

    def test_plan_is_small(self):
        footprints, popcon, _ = _inputs()
        plan = coverage_plan(
            ["epoll_wait", "fsync", "sendfile", "pread64"],
            footprints, popcon)
        assert len(plan) == 2  # web-server + database suffice

    def test_uncoverable_api_leaves_plan_partial(self):
        footprints, popcon, _ = _inputs()
        plan = coverage_plan(["kexec_load"], footprints, popcon)
        assert plan == []


class TestOnMeasuredArchive:
    def test_qemu_suggested_for_rare_syscalls(self, study):
        suggestions = workload_suggestions(
            ["mq_timedsend", "mq_getsetattr"], study.footprints,
            study.popcon)
        assert suggestions[0].package == "qemu-user"

    def test_change_impact_kexec(self, study):
        impact = change_impact("kexec_load", study.footprints,
                               study.popcon, study.repository)
        assert "kexec-tools" in impact.direct_users
        assert impact.affected_installs < 0.10
        assert "niche" in impact.verdict

    def test_change_impact_read_unremovable(self, study):
        impact = change_impact("read", study.footprints, study.popcon,
                               study.repository)
        assert "unremovable" in impact.verdict


# --- frozen naive advisors ------------------------------------------------
# The per-package implementations the ranked advisors replaced, kept
# verbatim as the oracle: a sorted name tuple for every package that
# exercises the set, and a greedy loop that keeps every candidate.

def _naive_workload_suggestions(modified_apis, dataset, dimension, limit):
    space = dataset.space
    modified_mask = space.mask_of(dimension, modified_apis)
    masks = dataset.masks(dimension)
    suggestions = []
    for position, package in enumerate(dataset.packages):
        exercised_mask = masks[position] & modified_mask
        if not exercised_mask:
            continue
        exercised = tuple(sorted(space.names_of(dimension,
                                                exercised_mask)))
        suggestions.append(WorkloadSuggestion(
            package=package,
            install_probability=dataset.weight_of(package),
            apis_exercised=exercised,
        ))
    suggestions.sort(key=lambda s: (-s.coverage,
                                    -s.install_probability, s.package))
    return suggestions[:limit]


def _naive_coverage_plan(modified_apis, dataset, dimension):
    space = dataset.space
    remaining = space.mask_of(dimension, modified_apis)
    masks = dataset.masks(dimension)
    candidates = {}
    for position, package in enumerate(dataset.packages):
        overlap = masks[position] & remaining
        if overlap:
            candidates[package] = overlap
    chosen = []
    while remaining and candidates:
        best_pkg, best_apis = max(
            candidates.items(),
            key=lambda item: ((item[1] & remaining).bit_count(),
                              dataset.weight_of(item[0]),
                              item[0]))
        gain = best_apis & remaining
        if not gain:
            break
        chosen.append(WorkloadSuggestion(
            package=best_pkg,
            install_probability=dataset.weight_of(best_pkg),
            apis_exercised=tuple(sorted(
                space.names_of(dimension, best_apis))),
        ))
        remaining &= ~gain
        del candidates[best_pkg]
    return chosen


# Interned names outnumber the ones packages draw from, so some APIs
# have no user; "ghost" is not interned at all.
_SYSCALLS = [f"sys{i}" for i in range(8)]
_IOCTLS = [f"ioc{i}" for i in range(3)]


@st.composite
def _advisor_inputs(draw):
    n_packages = draw(st.integers(0, 12))
    footprints = {}
    counts = {}
    for i in range(n_packages):
        # Small pools give popcount ties; an empty footprint is allowed.
        syscalls = draw(st.sets(st.sampled_from(_SYSCALLS[:6]),
                                max_size=4))
        ioctls = draw(st.sets(st.sampled_from(_IOCTLS[:2]), max_size=2))
        footprints[f"pkg{i:02d}"] = Footprint.build(syscalls=syscalls,
                                                    ioctls=ioctls)
        # Few distinct counts give weight ties; 0 is a zero weight.
        counts[f"pkg{i:02d}"] = draw(st.sampled_from([0, 0, 1, 5, 10]))
    space = ApiSpace({"syscall": ApiInterner(_SYSCALLS),
                      "ioctl": ApiInterner(_IOCTLS)})
    dataset = Dataset(footprints, PopularityContest(10, counts),
                      space=space)
    dimension = draw(st.sampled_from(["syscall", "all"]))
    pool = _SYSCALLS + ["ghost"]
    if dimension == "all":
        pool += [namespaced("ioctl", name) for name in _IOCTLS]
    modified = draw(st.lists(st.sampled_from(pool), max_size=6,
                             unique=True))
    return dataset, dimension, modified


class TestAgainstNaiveAdvisors:
    @settings(max_examples=200, deadline=None)
    @given(inputs=_advisor_inputs(), limit=st.sampled_from([0, 1, 3, 50]))
    def test_workload_suggestions(self, inputs, limit):
        dataset, dimension, modified = inputs
        assert workload_suggestions(modified, dataset,
                                    dimension=dimension, limit=limit) \
            == _naive_workload_suggestions(modified, dataset, dimension,
                                           limit)

    @settings(max_examples=200, deadline=None)
    @given(inputs=_advisor_inputs())
    def test_coverage_plan(self, inputs):
        dataset, dimension, modified = inputs
        assert coverage_plan(modified, dataset, dimension=dimension) \
            == _naive_coverage_plan(modified, dataset, dimension)
