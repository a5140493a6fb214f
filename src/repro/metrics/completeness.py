"""Weighted completeness (Appendix A.2).

For a target system described by its supported API set, the expected
fraction of packages in a typical installation that the system can run::

    WC = sum_{pkg supported} Pr{pkg} / sum_{pkg} Pr{pkg}

A package is *supported* when its API footprint is a subset of the
supported set **and** all of its (transitive) dependencies are
supported — §2.2 step 3 marks a supported package unsupported when it
depends on an unsupported one.

The subset tests run on interned bitmasks (``mask & ~supported == 0``)
via :mod:`repro.dataset`; plain footprint mappings are interned on
entry.  Where a result is a float sum over a package *set*, the set is
built with the same insertion history the legacy set-based code used,
so summation order — and therefore every last bit of the result — is
unchanged.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Set

from ..dataset.core import FootprintsLike, as_dataset
from ..dataset.dimensions import DIMENSIONS
from ..packages.popcon import PopularityContest
from ..packages.repository import Repository


def directly_supported(footprints: FootprintsLike,
                       supported_apis: FrozenSet[str],
                       dimension: str = "syscall",
                       ) -> Set[str]:
    """Packages whose own footprint fits in ``supported_apis``."""
    dataset = as_dataset(footprints)
    supported_mask = dataset.space.mask_of(dimension, supported_apis)
    packages = dataset.packages
    return {packages[i] for i, mask in
            enumerate(dataset.masks(dimension))
            if mask & ~supported_mask == 0}


def close_over_dependencies(supported: Set[str],
                            repository: Repository,
                            assume_supported: Optional[Set[str]] = None,
                            ) -> Set[str]:
    """Drop packages with an unsatisfiable dependency group.

    Dependency semantics are AND-of-OR with virtual providers: every
    group must keep at least one satisfiable alternative, where an
    alternative is satisfiable when it has no satisfier in the
    repository at all (a dangling virtual reference never gates), or
    when some satisfier — the real package or any provider — is in the
    result or assumed.  On a repository without alternatives or
    ``Provides:`` this degenerates to the pre-refactor AND rule with
    an identical discard history.

    ``assume_supported`` names packages outside the measurement
    universe (e.g. footprint-less library packages) whose presence in a
    dependency list never invalidates a dependent.

    Fixed-point: removing a package can invalidate its dependents, so
    iterate until stable (the graph may contain cycles; the loop
    terminates because the set only shrinks).
    """
    result = set(supported)
    assumed = assume_supported or set()
    changed = True
    while changed:
        changed = False
        for name in list(result):
            if name not in repository:
                # A footprint package absent from the repository has no
                # dependency metadata to check; absence alone never
                # invalidates it (same treatment as assume_supported).
                continue
            for group in repository.dependency_groups_of(name):
                satisfied = False
                for alternative in group:
                    satisfiers = repository.satisfiers(alternative)
                    if not satisfiers:
                        satisfied = True
                        break
                    if any(s in result or s in assumed
                           for s in satisfiers):
                        satisfied = True
                        break
                if not satisfied:
                    result.discard(name)
                    changed = True
                    break
    return result


def _closed_supported(dataset, supported_ids: List[int], dimension: str,
                      ignore_empty: bool,
                      assume_trivial: bool) -> Set[str]:
    """Dependency-close the packages ``supported_ids`` via the cached
    condensation.

    Returns a set whose iteration order matches what the legacy
    ``close_over_dependencies(supported, ...)`` produced for the name
    set built from ``supported_ids`` in order: same copy of the same
    source set, same discards — so float sums over it are bit-for-bit
    identical.  The closure is a fixed point, so marking in id order
    keeps the same survivors, and discards never move the entries
    that remain.
    """
    graph = dataset.condensed_graph(dimension, ignore_empty,
                                    assume_trivial=assume_trivial)
    tracker = graph.tracker()
    packages = dataset.packages
    survived = bytearray(len(packages))
    for pkg_id in supported_ids:
        for newly in tracker.mark_satisfied(pkg_id):
            survived[newly] = 1
    # A copy of the built set, not the built set itself: the copy
    # sizes its table afresh, and the legacy sum ran over the copy.
    result = set({packages[i] for i in supported_ids})
    for pkg_id in supported_ids:
        if not survived[pkg_id]:
            result.discard(packages[pkg_id])
    return result


def weighted_completeness(supported_apis: Iterable[str],
                          footprints: FootprintsLike,
                          popcon: Optional[PopularityContest] = None,
                          repository: Optional[Repository] = None,
                          dimension: str = "syscall",
                          ignore_empty: bool = True) -> float:
    """The paper's system-wide compatibility metric.

    ``ignore_empty`` drops packages with an empty footprint in the
    chosen dimension (pure library/data packages) from both numerator
    and denominator: they run trivially on any system and would only
    dilute the measurement.
    """
    dataset = as_dataset(footprints, popcon, repository)
    popcon = dataset._require_popcon()
    repository = dataset.repository
    universe_ids = dataset.universe_ids(dimension, ignore_empty)
    supported_mask = dataset.space.mask_of(dimension, supported_apis)
    masks = dataset.masks(dimension)
    packages = dataset.packages
    supported_ids = [i for i in universe_ids
                     if masks[i] & ~supported_mask == 0]
    if repository is not None:
        # Legacy assumed exactly the packages outside the universe
        # supported — the empty-footprint set when ignore_empty.
        supported = _closed_supported(dataset, supported_ids, dimension,
                                      ignore_empty,
                                      assume_trivial=ignore_empty)
    else:
        supported = {packages[i] for i in supported_ids}
    weights = dataset.weights
    numerator = sum(dataset.weight_of(pkg) for pkg in supported)
    denominator = sum(weights[i] for i in universe_ids)
    return numerator / denominator if denominator else 0.0


def supported_packages(supported_apis: Iterable[str],
                       footprints: FootprintsLike,
                       repository: Optional[Repository] = None,
                       dimension: str = "syscall") -> Set[str]:
    """The concrete supported-package set (steps 2-3 of §2.2)."""
    dataset = as_dataset(footprints, repository=repository)
    supported_mask = dataset.space.mask_of(dimension, supported_apis)
    packages = dataset.packages
    supported_ids = [i for i, mask in enumerate(dataset.masks(dimension))
                     if mask & ~supported_mask == 0]
    if dataset.repository is None:
        return {packages[i] for i in supported_ids}
    # Full universe, but empty-footprint packages still count as
    # trivially supported dependencies (legacy behaviour).
    return _closed_supported(dataset, supported_ids, dimension,
                             ignore_empty=False, assume_trivial=True)


def missing_apis_report(supported_apis: Iterable[str],
                        footprints: FootprintsLike,
                        popcon: Optional[PopularityContest] = None,
                        dimension: str = "syscall",
                        limit: int = 10,
                        ignore_empty: bool = True,
                        ) -> List[tuple]:
    """Most valuable APIs to add next (§4.1's "suggested APIs").

    Ranks each unsupported API by the total installation probability of
    the packages it currently blocks.  Every user of an unsupported API
    is blocked by it, so that total is the API's summed user weight,
    which :meth:`Dataset.user_weight_sums` caches per release: a call
    costs O(APIs), not a walk over every package's missing bits.  The
    cached sums run in package order, the order a per-package
    accumulation adds in, so the floats are bit-for-bit the same.

    ``ignore_empty`` restricts the accounting to the same universe
    :func:`weighted_completeness` uses.  A package empty in the
    dimension uses no API and blocks nothing, so the flag cannot
    change the result; it keeps the two metrics' signatures aligned.
    """
    dataset = as_dataset(footprints, popcon)
    supported_mask = dataset.space.mask_of(dimension, supported_apis)
    name_of = dataset.space.name_of
    ranked = sorted(
        ((name_of(dimension, api_id), weight)
         for api_id, weight in enumerate(
             dataset.user_weight_sums(dimension))
         if weight is not None and not supported_mask >> api_id & 1),
        key=lambda item: (-item[1], item[0]))
    return ranked[:limit]
