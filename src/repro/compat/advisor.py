"""Research-planning advisors (§1, §6).

Two practical questions the paper says its dataset answers:

* *"If a given system API is optimized, what widely-used applications
  would likely benefit?"* — so a researcher can pick evaluation
  workloads that actually exercise the modified calls
  (:func:`workload_suggestions`).
* *"What is the impact of an API change on applications?"* — so a
  kernel maintainer can see who breaks before deprecating
  (:func:`change_impact`).

Both advisors intersect per-package footprints with the modified-API
set; on an interned :class:`repro.dataset.Dataset` those intersections
are single bitmask ANDs over the dataset's cached masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..dataset.core import FootprintsLike, as_dataset
from ..metrics.importance import dependents_index
from ..packages.popcon import PopularityContest
from ..packages.repository import Repository


@dataclass(frozen=True)
class WorkloadSuggestion:
    """One candidate evaluation workload."""

    package: str
    install_probability: float
    apis_exercised: Tuple[str, ...]   # of the modified set

    @property
    def coverage(self) -> int:
        return len(self.apis_exercised)


def workload_suggestions(modified_apis: Iterable[str],
                         footprints: FootprintsLike,
                         popcon: Optional[PopularityContest] = None,
                         dimension: str = "syscall",
                         limit: int = 10) -> List[WorkloadSuggestion]:
    """Rank packages as evaluation workloads for a set of modified
    APIs: prefer packages exercising more of the set, then more widely
    installed ones (a benefit nobody installs is not a benefit).

    Packages are ranked on ``(-popcount, -weight, name)`` keys (names
    are unique, so the order is total) and only the ``[:limit]`` rows
    returned get their API names decoded.
    """
    dataset = as_dataset(footprints, popcon)
    space = dataset.space
    modified_mask = space.mask_of(dimension, modified_apis)
    hits = [(position, exercised)
            for position, mask in enumerate(dataset.masks(dimension))
            if (exercised := mask & modified_mask)]
    if not hits:
        return []
    weights = dataset.weights
    packages = dataset.packages
    ranked = sorted((-exercised.bit_count(), -weights[position],
                     packages[position], exercised)
                    for position, exercised in hits)
    return [WorkloadSuggestion(
                package=package,
                install_probability=-negative_weight,
                apis_exercised=tuple(sorted(space.names_of(dimension,
                                                           exercised))))
            for _, negative_weight, package, exercised
            in ranked[:limit]]


@dataclass(frozen=True)
class ChangeImpact:
    """Consequences of removing or changing one API."""

    api: str
    direct_users: Tuple[str, ...]          # packages using the API
    affected_installs: float               # probability >=1 user installed
    cascade: Tuple[str, ...]               # dependents of direct users
    verdict: str                           # human-readable summary


def change_impact(api: str,
                  footprints: FootprintsLike,
                  popcon: Optional[PopularityContest] = None,
                  repository: Optional[Repository] = None,
                  dimension: str = "syscall") -> ChangeImpact:
    """What breaks if ``api`` is removed (§6's deprecation question).

    The cascade follows the full dependency semantics: a package
    counts as a dependent of ``P`` when any alternative in one of its
    groups names ``P`` directly *or* names a virtual package ``P``
    provides — so deprecating an API used only by the concrete
    provider of ``mail-transport-agent`` still surfaces every package
    depending on the virtual name.
    """
    dataset = as_dataset(footprints, popcon, repository)
    if dataset.repository is None:
        raise ValueError("change_impact needs a dependency repository")
    index = dependents_index(dataset, dimension)
    users = sorted(index.get(api, []))
    probability_none = 1.0
    for package in users:
        probability_none *= 1.0 - dataset.weight_of(package)
    affected = 1.0 - probability_none
    cascade = set()
    for package in users:
        cascade |= dataset.repository.reverse_dependencies(package)
    cascade -= set(users)
    if not users:
        verdict = "unused: removable today"
    elif affected < 0.10:
        verdict = (f"niche: port {len(users)} package(s) "
                   f"({', '.join(users[:4])}) then remove")
    elif affected < 0.995:
        verdict = "substantial user base: deprecate with a long horizon"
    else:
        verdict = "indispensable: effectively unremovable"
    return ChangeImpact(
        api=api,
        direct_users=tuple(users),
        affected_installs=affected,
        cascade=tuple(sorted(cascade)),
        verdict=verdict,
    )


def coverage_plan(modified_apis: Iterable[str],
                  footprints: FootprintsLike,
                  popcon: Optional[PopularityContest] = None,
                  dimension: str = "syscall",
                  ) -> List[WorkloadSuggestion]:
    """Greedy minimum workload set covering every modified API.

    Answers "what is the smallest benchmark suite that exercises all
    my changes?" — packages are added in order of marginal coverage.

    Each candidate carries its weight next to its overlap mask, and
    after every pick the candidates with nothing left to cover are
    dropped: such a candidate can never win a later round (when every
    candidate is exhausted the greedy loop stops anyway), so the plan
    is unchanged while each round scans only live candidates.
    """
    dataset = as_dataset(footprints, popcon)
    space = dataset.space
    remaining = space.mask_of(dimension, modified_apis)
    hits = [(position, overlap)
            for position, mask in enumerate(dataset.masks(dimension))
            if (overlap := mask & remaining)]
    if not hits:
        return []
    weights = dataset.weights
    packages = dataset.packages
    candidates = [(overlap, weights[position], packages[position])
                  for position, overlap in hits]
    chosen: List[WorkloadSuggestion] = []
    while candidates:
        best_apis, weight, best_pkg = max(
            candidates,
            key=lambda item: ((item[0] & remaining).bit_count(),
                              item[1], item[2]))
        chosen.append(WorkloadSuggestion(
            package=best_pkg,
            install_probability=weight,
            apis_exercised=tuple(sorted(
                space.names_of(dimension, best_apis))),
        ))
        remaining &= ~best_apis
        candidates = [item for item in candidates
                      if item[0] & remaining]
    return chosen
