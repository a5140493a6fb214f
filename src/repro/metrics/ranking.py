"""Importance ranking and the incremental implementation path (§3.2).

Implements the greedy strategy behind Figure 3 and Table 4: order APIs
by importance, then measure weighted completeness as the top-N set
grows.  The resulting curve tells a system builder what the next most
valuable API is and how much of a typical installation each
implementation stage unlocks.

The curve runs on the interned substrate: per-package requirement
counts come from mask popcounts, the api -> users index is the
dataset's cached id index, and the dependency condensation
(:class:`repro.dataset.CondensedDependencyGraph`) is built once per
dataset and reused across curve calls — only the cheap per-run
counters (:class:`repro.dataset.SupportTracker`) are fresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from ..dataset.core import FootprintsLike, as_dataset
from ..packages.popcon import PopularityContest
from ..packages.repository import Repository
from .importance import ranked


@dataclass(frozen=True)
class CurvePoint:
    """One point on the Figure 3 curve."""

    n_apis: int
    api: str                 # the API added at this step
    completeness: float


@dataclass(frozen=True)
class Stage:
    """One row of Table 4."""

    number: int
    start: int               # first rank in this stage (1-based)
    end: int                 # last rank
    completeness: float
    sample_apis: Tuple[str, ...]


def completeness_curve(footprints: FootprintsLike,
                       popcon: Optional[PopularityContest] = None,
                       repository: Optional[Repository] = None,
                       dimension: str = "syscall",
                       importance: Optional[Mapping[str, float]] = None,
                       ignore_empty: bool = True,
                       ) -> List[CurvePoint]:
    """Weighted completeness after adding each next-most-important API.

    APIs are added in decreasing weighted importance; ties (the large
    100%-importance head) are broken by unweighted importance, so the
    calls every binary needs come first — this is what makes the
    minimal "hello world" set appear at the head of the curve (§3.2).
    Packages with an empty footprint are excluded (see
    :func:`repro.metrics.completeness.weighted_completeness`).

    Runs incrementally: per package, how many required APIs are still
    missing (a mask popcount); per dependency-graph component, how many
    members and dependencies are still unsupported — so the whole curve
    costs O(APIs + packages + dependency edges) instead of re-running
    the dependency fixed point at every rank.
    """
    dataset = as_dataset(footprints, popcon, repository)
    popcon = dataset._require_popcon()
    repository = dataset.repository
    space = dataset.space
    packages = dataset.packages
    weights = dataset.weights
    universe_ids = dataset.universe_ids(dimension, ignore_empty)

    if importance is None:
        # Empty-in-dimension packages use no APIs, so the table over
        # the filtered universe equals the table over everything.
        importance = dataset.importance_table(dimension)
    usage = dataset.usage_table(dimension, ignore_empty=ignore_empty)
    order = sorted(importance,
                   key=lambda api: (-importance[api],
                                    -usage.get(api, 0.0), api))

    requirement_count = list(dataset.bit_counts(dimension))
    users = dataset.users_index(dimension)

    total_weight = sum(weights[i] for i in universe_ids)
    if total_weight == 0:
        return []

    tracker = (None if repository is None
               else dataset.condensed_graph(
                   dimension, ignore_empty,
                   assume_trivial=True).tracker())

    supported_weight = 0.0

    def note_satisfied(package: str) -> float:
        if tracker is None:
            return dataset.weight_of(package)
        return sum(dataset.weight_of(p)
                   for p in tracker.mark_satisfied(package))

    for i in universe_ids:
        if requirement_count[i] == 0:
            supported_weight += note_satisfied(packages[i])
    curve: List[CurvePoint] = []
    for rank, api in enumerate(order, start=1):
        try:
            api_id = space.id_of(dimension, api)
        except KeyError:
            api_id = None         # universe-extended API nobody uses
        if api_id is not None:
            for pkg_id in users[api_id]:
                requirement_count[pkg_id] -= 1
                if requirement_count[pkg_id] == 0:
                    supported_weight += note_satisfied(
                        packages[pkg_id])
        curve.append(CurvePoint(
            rank, api, supported_weight / total_weight))
    return curve


def stages(curve: Sequence[CurvePoint],
           thresholds: Sequence[float] = (0.011, 0.10, 0.50, 0.90, 1.0),
           samples_per_stage: int = 10) -> List[Stage]:
    """Cut the curve into Table 4's implementation stages.

    Stage *k* ends at the first point whose completeness reaches
    ``thresholds[k]`` (the paper's 1.1% / ~10% / ~50% / ~90% / 100%).
    """
    result: List[Stage] = []
    start = 1
    for number, threshold in enumerate(thresholds, start=1):
        end_point = None
        for point in curve:
            if point.n_apis >= start and point.completeness >= threshold:
                end_point = point
                break
        if end_point is None:
            end_point = curve[-1] if curve else None
        if end_point is None:
            break
        sample = tuple(
            point.api for point in curve
            if start <= point.n_apis <= end_point.n_apis
        )[:samples_per_stage]
        result.append(Stage(
            number=number, start=start, end=end_point.n_apis,
            completeness=end_point.completeness, sample_apis=sample))
        start = end_point.n_apis + 1
        if start > len(curve):
            break
    return result


def first_rank_reaching(curve: Sequence[CurvePoint],
                        completeness: float) -> Optional[int]:
    """The N at which the curve first reaches ``completeness``."""
    for point in curve:
        if point.completeness >= completeness:
            return point.n_apis
    return None


def inverted_cdf(importance: Mapping[str, float]) -> List[float]:
    """Figure 2's presentation: importance sorted descending."""
    return [value for _, value in ranked(importance)]
