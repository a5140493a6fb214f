"""Importance ranking and the incremental implementation path (§3.2).

Implements the greedy strategy behind Figure 3 and Table 4: order APIs
by importance, then measure weighted completeness as the top-N set
grows.  The resulting curve tells a system builder what the next most
valuable API is and how much of a typical installation each
implementation stage unlocks.

The curve runs on the interned substrate.  ``prefix[r]`` is the mask
of the first ``r`` ranked APIs; a package joins at its *support
rank*, the smallest ``r`` whose prefix covers its mask, found by
bisection once per distinct mask.  Packages are bucketed by that rank
in package order, and the buckets are fed to the tracker rank by
rank.  That is the same sequence of ``mark_satisfied`` calls a
per-(API, user) decrement loop makes — an API's users are listed in
package order, so the packages it completes reach zero in package
order — which keeps every summed float bit-identical while skipping
one counter update per (API, user) pair.  The dependency
condensation (:class:`repro.dataset.CondensedDependencyGraph`) is
built once per dataset and reused across curve calls — only the
cheap per-run counters (:class:`repro.dataset.SupportTracker`) are
fresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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

    Runs incrementally.  Each package joins the curve at its *support
    rank*: the first rank whose prefix of APIs covers its mask.  Per
    dependency-graph component, the tracker counts how many members
    and dependencies are still unsupported — so the whole curve costs
    O(APIs + distinct masks * log APIs + dependency edges) instead of
    re-running the dependency fixed point at every rank.
    """
    dataset = as_dataset(footprints, popcon, repository)
    popcon = dataset._require_popcon()
    repository = dataset.repository
    space = dataset.space
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

    total_weight = sum(weights[i] for i in universe_ids)
    if total_weight == 0:
        return []

    # prefix[r]: the APIs of the first r ranks.  A name nobody uses
    # (an ``importance`` entry outside the space) adds no bit.
    prefix = [0]
    covered = 0
    for api in order:
        try:
            covered |= 1 << space.id_of(dimension, api)
        except KeyError:
            pass
        prefix.append(covered)
    ranked = _by_support_rank(dataset.masks(dimension), universe_ids,
                              prefix)

    tracker = (None if repository is None
               else dataset.condensed_graph(
                   dimension, ignore_empty,
                   assume_trivial=True).tracker())

    def note_satisfied(pkg_id: int) -> float:
        if tracker is None:
            return weights[pkg_id]
        newly = tracker.mark_satisfied(pkg_id)
        return sum(weights[i] for i in newly) if newly else 0.0

    supported_weight = 0.0
    for pkg_id in ranked[0]:
        supported_weight += note_satisfied(pkg_id)
    curve: List[CurvePoint] = []
    for rank, api in enumerate(order, start=1):
        for pkg_id in ranked[rank]:
            supported_weight += note_satisfied(pkg_id)
        curve.append(CurvePoint(
            rank, api, supported_weight / total_weight))
    return curve


def _by_support_rank(masks: Sequence[int], universe_ids: Sequence[int],
                     prefix: Sequence[int]) -> List[List[int]]:
    """Bucket ``universe_ids`` by support rank, package order inside
    each bucket.

    A package's rank is the smallest ``r`` with ``prefix[r]``
    covering its mask, found by bisection once per distinct mask.
    Bucket ``r`` lists exactly the packages whose last missing API
    arrived at rank ``r`` (rank 0: nothing missing), in the order a
    per-(API, user) decrement loop reached zero on them — its users
    lists run in package order — so the tracker sees the same calls
    in the same order and the summed floats are bit-identical.  A
    package the full prefix never covers is in no bucket.
    """
    last = len(prefix) - 1
    full = prefix[last]
    rank_of: Dict[int, int] = {}
    buckets: List[List[int]] = [[] for _ in prefix]
    for pkg_id in universe_ids:
        mask = masks[pkg_id]
        rank = rank_of.get(mask)
        if rank is None:
            if mask & full != mask:
                rank = -1
            else:
                low, high = 0, last
                while low < high:
                    middle = (low + high) // 2
                    if mask & prefix[middle] == mask:
                        high = middle
                    else:
                        low = middle + 1
                rank = low
            rank_of[mask] = rank
        if rank >= 0:
            buckets[rank].append(pkg_id)
    return buckets


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
