"""The shared dataset facade: interned footprints + weights + graph.

Every metric in the study is a set-algebra query over the same three
inputs — per-package API footprints, the popcon weight vector, and the
dependency graph.  :class:`Dataset` binds them once: footprints are
interned into per-dimension bitmasks (:class:`repro.dataset.ApiSpace`
assigns the ids), popcon probabilities are materialized into a weight
vector aligned with package ids, and the SCC-condensed dependency DAG
is built once per (dimension, universe) and cached.

One class holds this state for every source.  Per-package masks come
from a column source, read one dimension at a time on first use: the
constructor's source reads the interned rows it was given
(:func:`row_columns`), a ``.rsnap`` file's source slices rows off the
mmap, and a series release's reads its decoded delta rows
(:meth:`Dataset.from_columns`).  Footprints are built from the masks
on first access and memoized; an in-memory dataset prefills the memo
with the caller's objects.

Compatibility contract: a :class:`Dataset` is itself a
``Mapping[str, Footprint]`` over the *source* footprints, so every
legacy signature that takes a footprint mapping accepts one unchanged.
All derived orderings preserve the input mapping's package order —
user lists, weight summations, and curve accumulations run in exactly
the sequence the legacy set-based code used, which is what keeps
floating-point results bit-for-bit identical (see
``tests/test_dataset_equivalence.py``).
"""

from __future__ import annotations

import copy
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass
from functools import partial
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple, Union)

from ..analysis.footprint import Footprint
from ..packages.popcon import PopularityContest
from ..packages.repository import Repository
from .bitset import DIMENSION_INDEX, BitsetFootprint
from .dimensions import (DIMENSION_ORDER, FOOTPRINT_FIELDS,
                         NAMESPACE_PREFIXES, split_namespaced)
from .graph import CondensedDependencyGraph
from .interner import BYTE_BITS, ApiInterner


class ApiSpace:
    """The interned API universe: one :class:`ApiInterner` per
    dimension, plus the composed ``"all"`` space.

    The ``"all"`` space concatenates the per-dimension id ranges in
    :data:`DIMENSION_ORDER` — a dimension's ids are shifted by the
    total size of every dimension before it, with system calls at
    offset 0.  Names in the ``"all"`` space carry the
    :data:`NAMESPACE_PREFIXES` namespacing, matching
    :meth:`Footprint.api_set`.
    """

    __slots__ = ("interners", "offsets", "all_size")

    def __init__(self, interners: Mapping[str, ApiInterner]) -> None:
        self.interners: Dict[str, ApiInterner] = {
            dim: interners.get(dim, ApiInterner())
            for dim in DIMENSION_ORDER}
        offsets: Dict[str, int] = {}
        offset = 0
        for dim in DIMENSION_ORDER:
            offsets[dim] = offset
            offset += len(self.interners[dim])
        self.offsets = offsets
        self.all_size = offset

    @classmethod
    def from_footprints(cls, footprints: Iterable[Footprint],
                        ) -> "ApiSpace":
        materialized = list(footprints)
        interners = {}
        for dim in DIMENSION_ORDER:
            field = FOOTPRINT_FIELDS[dim]
            names: set = set()
            for footprint in materialized:
                names |= getattr(footprint, field)
            interners[dim] = ApiInterner(names)
        return cls(interners)

    # --- introspection --------------------------------------------------

    def interner(self, dimension: str) -> ApiInterner:
        return self.interners[dimension]

    def size(self, dimension: str) -> int:
        if dimension == "all":
            return self.all_size
        return len(self.interners[dimension])

    def universe_mask(self, dimension: str) -> int:
        return (1 << self.size(dimension)) - 1

    def universe_names(self, dimension: str) -> List[str]:
        """Every interned name, in id order (``"all"``: namespaced)."""
        if dimension != "all":
            return list(self.interners[dimension].names)
        names: List[str] = []
        for dim in DIMENSION_ORDER:
            prefix = NAMESPACE_PREFIXES[dim]
            names.extend(prefix + name
                         for name in self.interners[dim].names)
        return names

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ApiSpace)
                and all(self.interners[dim] == other.interners[dim]
                        for dim in DIMENSION_ORDER))

    def __hash__(self) -> int:
        return hash(tuple(self.interners[dim]._names
                          for dim in DIMENSION_ORDER))

    def __repr__(self) -> str:
        sizes = ", ".join(f"{dim}={len(self.interners[dim])}"
                          for dim in DIMENSION_ORDER)
        return f"ApiSpace({sizes})"

    # --- interning ------------------------------------------------------

    def intern(self, footprint: Footprint) -> BitsetFootprint:
        """Intern one footprint (strict: every name must be known)."""
        return BitsetFootprint(
            self.interners[dim].mask_of(
                getattr(footprint, FOOTPRINT_FIELDS[dim]), strict=True)
            for dim in DIMENSION_ORDER)

    def all_mask(self, footprint: BitsetFootprint) -> int:
        """The footprint's composed ``"all"``-space mask."""
        mask = 0
        offsets = self.offsets
        for dim, dim_mask in zip(DIMENSION_ORDER, footprint.masks):
            mask |= dim_mask << offsets[dim]
        return mask

    def mask_of(self, dimension: str, names: Iterable[str]) -> int:
        """Bitmask of ``names`` in ``dimension``'s id space.

        Unknown names are ignored (a supported-API set may name APIs
        no measured package uses).  ``"all"`` accepts namespaced names.
        """
        if dimension != "all":
            return self.interners[dimension].mask_of(names)
        mask = 0
        for name in names:
            dim, bare = split_namespaced(name)
            interner = self.interners[dim]
            if bare in interner:
                mask |= 1 << (self.offsets[dim] + interner.id_of(bare))
        return mask

    def names_of(self, dimension: str, mask: int) -> List[str]:
        """The names in ``mask``, in id order (``"all"``: namespaced)."""
        if dimension != "all":
            return self.interners[dimension].names_of(mask)
        names: List[str] = []
        for dim in DIMENSION_ORDER:
            interner = self.interners[dim]
            sub = (mask >> self.offsets[dim]) & interner.universe_mask
            prefix = NAMESPACE_PREFIXES[dim]
            names.extend(prefix + name
                         for name in interner.names_of(sub))
        return names

    def name_of(self, dimension: str, api_id: int) -> str:
        if dimension != "all":
            return self.interners[dimension].name_of(api_id)
        for dim in reversed(DIMENSION_ORDER):
            offset = self.offsets[dim]
            if api_id >= offset:
                return (NAMESPACE_PREFIXES[dim]
                        + self.interners[dim].name_of(api_id - offset))
        raise IndexError(api_id)

    def id_of(self, dimension: str, name: str) -> int:
        if dimension != "all":
            return self.interners[dimension].id_of(name)
        dim, bare = split_namespaced(name)
        return self.offsets[dim] + self.interners[dim].id_of(bare)


@dataclass(frozen=True)
class DatasetStats:
    """Summary of one dataset, for the CLI/report ``dataset`` surface."""

    n_packages: int
    n_apis: Dict[str, int]          # dimension -> interned universe size
    n_nonempty: Dict[str, int]      # dimension -> packages using it
    total_weight: Optional[float]   # sum of install probabilities
    has_popcon: bool
    has_repository: bool
    n_dependency_edges: int
    n_virtual_packages: int = 0     # provided names with no real package
    n_provider_edges: int = 0       # total Provides: declarations
    n_alternative_groups: int = 0   # dependency groups with >1 alternative


#: dimension -> that dimension's per-package masks, in package order.
ColumnSource = Callable[[str], List[int]]


def row_columns(rows: Sequence[Tuple[int, ...]],
                dimension: str) -> List[int]:
    """The in-memory column source: ``dimension``'s masks read out of
    per-package mask rows (one mask per dimension, package order).

    Bind the rows with :func:`functools.partial`, which keeps the
    source picklable, unlike a closure.
    """
    index = DIMENSION_INDEX[dimension]
    return [row[index] for row in rows]


class Dataset(MappingABC):
    """Interned package footprints + popcon weights + dependency DAG.

    Also a read-only ``Mapping[str, Footprint]`` over the source
    footprints, so it can be passed wherever a footprint mapping is
    expected.  Package ids are positions in the *input mapping order*
    (never re-sorted — see the module docstring).

    The constructor interns source footprints and prefills the
    footprint memo with them; :meth:`from_columns` starts from a
    :data:`ColumnSource` alone (``.rsnap``, series releases, the JSON
    codec).
    """

    def __init__(self, footprints: Mapping[str, Footprint],
                 popcon: Optional[PopularityContest] = None,
                 repository: Optional[Repository] = None,
                 space: Optional[ApiSpace] = None,
                 bitsets: Optional[Iterable[BitsetFootprint]] = None,
                 ) -> None:
        memo: Dict[str, Footprint] = dict(footprints)
        if space is None:
            space = ApiSpace.from_footprints(memo.values())
        if bitsets is None:
            bitsets = [space.intern(fp) for fp in memo.values()]
        else:
            bitsets = list(bitsets)
            if len(bitsets) != len(memo):
                raise ValueError("bitsets do not match packages")
        self._bind(tuple(memo), space,
                   partial(row_columns, [bits.masks for bits in bitsets]),
                   tuple(fp.unresolved_sites for fp in memo.values()),
                   popcon, repository, None, ())
        self._footprints = memo
        self._bitsets = bitsets

    @classmethod
    def from_columns(cls, packages: Tuple[str, ...], space: ApiSpace,
                     column: ColumnSource,
                     unresolved: Tuple[int, ...],
                     popcon: Optional[PopularityContest],
                     repository: Optional[Repository],
                     source_fingerprint: Optional[str],
                     resources: Tuple = ()) -> "Dataset":
        """A dataset over mask columns; nothing per package is built.

        ``packages`` must be distinct.  ``resources`` (an mmap and its
        file) stay referenced as long as the dataset is.
        """
        dataset = cls.__new__(cls)
        dataset._bind(tuple(packages), space, column, unresolved,
                      popcon, repository, source_fingerprint, resources)
        return dataset

    def _bind(self, packages: Tuple[str, ...], space: ApiSpace,
              column: ColumnSource, unresolved: Tuple[int, ...],
              popcon: Optional[PopularityContest],
              repository: Optional[Repository],
              source_fingerprint: Optional[str],
              resources: Tuple) -> None:
        self.packages = packages
        self.package_index: Dict[str, int] = {
            name: i for i, name in enumerate(packages)}
        self.space = space
        self.popcon = popcon
        self.repository = repository
        #: The content address recorded in the file the dataset was
        #: read from (``None`` when built in memory): what
        #: ``footprints_fingerprint`` would compute, without touching
        #: a single footprint.
        self.source_fingerprint = source_fingerprint
        self._column = column
        self._unresolved = unresolved
        # Keeps the mmap/file objects alive as long as the dataset is.
        self._resources = resources
        self._footprints: Dict[str, Footprint] = {}   # lazy memo
        self._bitsets: Optional[List[BitsetFootprint]] = None
        # Lazy caches.  All are pure functions of the fields above;
        # rebound copies share every one their change leaves valid.
        self._weights: Optional[Tuple[float, ...]] = None
        self._weight_by_name: Optional[Dict[str, float]] = None
        self._masks: Dict[str, List[int]] = {}
        self._universe_ids: Dict[Tuple[str, bool], List[int]] = {}
        self._users: Dict[str, List[List[int]]] = {}
        self._user_weights: Dict[str, List[Optional[float]]] = {}
        self._importance: Dict[str, Dict[str, float]] = {}
        self._usage: Dict[Tuple[str, bool], Dict[str, float]] = {}
        self._graphs: Dict[Tuple[str, bool, bool],
                           CondensedDependencyGraph] = {}

    # --- Mapping[str, Footprint] protocol -------------------------------

    def __getitem__(self, package: str) -> Footprint:
        # One dict lookup on a hit: full passes (fingerprinting, the
        # writer's UNRS section) run this 30k times.
        try:
            return self._footprints[package]
        except KeyError:
            pass
        index = self.package_index[package]   # KeyError = Mapping
        fields = {
            FOOTPRINT_FIELDS[dim]: frozenset(
                self.space.interner(dim).names_of(self.masks(dim)[index]))
            for dim in DIMENSION_ORDER}
        footprint = Footprint(unresolved_sites=self._unresolved[index],
                              **fields)
        self._footprints[package] = footprint
        return footprint

    def __iter__(self) -> Iterator[str]:
        return iter(self.packages)

    def __len__(self) -> int:
        return len(self.packages)

    def __repr__(self) -> str:
        return (f"Dataset({len(self.packages)} packages, {self.space!r}, "
                f"popcon={self.popcon is not None}, "
                f"repository={self.repository is not None})")

    # --- weights --------------------------------------------------------

    def _require_popcon(self) -> PopularityContest:
        if self.popcon is None:
            raise ValueError("this Dataset was built without a "
                             "PopularityContest; weighted queries need "
                             "one (pass popcon= when constructing)")
        return self.popcon

    @property
    def weights(self) -> Tuple[float, ...]:
        """Install probability per package id, in package order."""
        if self._weights is None:
            popcon = self._require_popcon()
            self._weights = tuple(popcon.install_probability(name)
                                  for name in self.packages)
        return self._weights

    def weight_of(self, package: str) -> float:
        if self._weight_by_name is None:
            self._weight_by_name = dict(zip(self.packages, self.weights))
        return self._weight_by_name[package]

    # --- per-package masks ----------------------------------------------

    def masks(self, dimension: str) -> List[int]:
        """Per-package mask in ``dimension``'s id space, package order."""
        cached = self._masks.get(dimension)
        if cached is None:
            if dimension == "all":
                offsets = self.space.offsets
                cached = [0] * len(self.packages)
                for dim in DIMENSION_ORDER:
                    shift = offsets[dim]
                    for i, mask in enumerate(self.masks(dim)):
                        if mask:
                            cached[i] |= mask << shift
            else:
                cached = self._column(dimension)
            self._masks[dimension] = cached
        return cached

    @property
    def bitsets(self) -> List[BitsetFootprint]:
        """The interned rows as objects, package order (do not mutate)."""
        if self._bitsets is None:
            columns = [self.masks(dim) for dim in DIMENSION_ORDER]
            self._bitsets = [BitsetFootprint(row)
                             for row in zip(*columns)]
        return self._bitsets

    def universe_ids(self, dimension: str,
                     ignore_empty: bool = True) -> List[int]:
        """Package ids in the measurement universe, package order.

        ``ignore_empty=True`` drops packages with an empty footprint in
        the dimension (the same filter
        :func:`repro.metrics.completeness.weighted_completeness`
        applies to both numerator and denominator).
        """
        key = (dimension, ignore_empty)
        cached = self._universe_ids.get(key)
        if cached is None:
            if ignore_empty:
                cached = [i for i, mask in enumerate(self.masks(dimension))
                          if mask]
            else:
                cached = list(range(len(self.packages)))
            self._universe_ids[key] = cached
        return cached

    # --- derived tables -------------------------------------------------

    def users_index(self, dimension: str) -> List[List[int]]:
        """api id -> package ids using it, in package order.

        The per-API package order matches the legacy
        ``dependents_index`` lists exactly (both append while scanning
        packages in mapping order), which keeps importance products
        bit-for-bit identical.
        """
        cached = self._users.get(dimension)
        if cached is None:
            size = self.space.size(dimension)
            cached = [[] for _ in range(size)]
            width = (size + 7) // 8
            for pkg_id, mask in enumerate(self.masks(dimension)):
                if not mask:
                    continue
                base = 0
                for byte in mask.to_bytes(width, "little"):
                    if byte:
                        for bit in BYTE_BITS[byte]:
                            cached[base + bit].append(pkg_id)
                    base += 8
            self._users[dimension] = cached
        return cached

    def user_weight_sums(self, dimension: str) -> List[Optional[float]]:
        """api id -> summed weight of the API's users (``None`` when
        no package uses it), do not mutate.

        Each sum runs over :meth:`users_index` order, which is package
        order, with an explicit ``+=`` loop: the same additions in the
        same sequence as a per-package accumulation, so the floats are
        bit-for-bit identical.  (``sum()`` of floats is compensated on
        Python 3.12+ and would change the last bits.)
        """
        cached = self._user_weights.get(dimension)
        if cached is None:
            weights = self.weights
            cached = []
            for users in self.users_index(dimension):
                if not users:
                    cached.append(None)
                    continue
                total = 0.0
                for pkg_id in users:
                    total += weights[pkg_id]
                cached.append(total)
            self._user_weights[dimension] = cached
        return cached

    def importance_table(self, dimension: str = "syscall",
                         universe: Iterable[str] = (),
                         ) -> Dict[str, float]:
        """Weighted API importance (Appendix A.1) for every used API.

        Identical floats to the legacy path: per API, the product of
        ``1 - Pr{pkg}`` runs over users in package order.
        """
        base = self._importance.get(dimension)
        if base is None:
            weights = self.weights
            name_of = self.space.name_of
            base = {}
            for api_id, users in enumerate(self.users_index(dimension)):
                if not users:
                    continue
                probability_none = 1.0
                for pkg_id in users:
                    probability_none *= 1.0 - weights[pkg_id]
                base[name_of(dimension, api_id)] = 1.0 - probability_none
            self._importance[dimension] = base
        table = dict(base)
        for api in universe:
            table.setdefault(api, 0.0)
        return table

    def usage_table(self, dimension: str = "syscall",
                    ignore_empty: bool = False,
                    universe: Iterable[str] = (),
                    ) -> Dict[str, float]:
        """Unweighted importance (§5): fraction of packages per API.

        ``ignore_empty`` controls the denominator — the legacy curve
        computes usage over the non-empty universe.
        """
        key = (dimension, ignore_empty)
        base = self._usage.get(key)
        if base is None:
            total = len(self.universe_ids(dimension, ignore_empty))
            base = {}
            if total:
                name_of = self.space.name_of
                for api_id, users in enumerate(
                        self.users_index(dimension)):
                    if users:
                        base[name_of(dimension, api_id)] = (
                            len(users) / total)
            self._usage[key] = base
        table = dict(base)
        for api in universe:
            table.setdefault(api, 0.0)
        return table

    # --- dependency graph -----------------------------------------------

    def condensed_graph(self, dimension: str = "syscall",
                        ignore_empty: bool = True,
                        assume_trivial: bool = True,
                        ) -> CondensedDependencyGraph:
        """The SCC-condensed dependency DAG over the universe.

        ``assume_trivial`` treats empty-footprint packages (the ids
        whose mask in ``dimension`` is 0) as always supported (the
        completeness-curve convention; weighted completeness with
        ``ignore_empty=False`` assumes nothing).
        """
        if self.repository is None:
            raise ValueError("this Dataset was built without a "
                             "Repository; dependency closure needs one")
        key = (dimension, ignore_empty, assume_trivial)
        cached = self._graphs.get(key)
        if cached is None:
            assumed = ([i for i, mask in enumerate(self.masks(dimension))
                        if not mask] if assume_trivial else ())
            cached = CondensedDependencyGraph(
                self.packages, self.universe_ids(dimension, ignore_empty),
                self.repository, assumed)
            self._graphs[key] = cached
        return cached

    # --- rebinding ------------------------------------------------------

    def rebound(self, popcon: Optional[PopularityContest],
                repository: Optional[Repository]) -> "Dataset":
        """A shallow copy with different popcon / repository: it shares
        the column source, the footprint memo and every cache the
        change does not invalidate."""
        clone = copy.copy(self)
        clone.popcon = popcon
        clone.repository = repository
        if popcon is not self.popcon:
            clone._weights = None
            clone._weight_by_name = None
            clone._user_weights = {}
            clone._importance = {}
        if repository is not self.repository:
            clone._graphs = {}
        return clone

    # --- stats ----------------------------------------------------------

    def stats(self) -> DatasetStats:
        from .dimensions import ALL_DIMENSIONS
        n_apis = {dim: self.space.size(dim) for dim in ALL_DIMENSIONS}
        n_nonempty = {
            dim: len(self.universe_ids(dim, ignore_empty=True))
            for dim in ALL_DIMENSIONS}
        total_weight = (sum(self.weights)
                        if self.popcon is not None else None)
        n_edges = 0
        n_virtual = 0
        n_provider_edges = 0
        n_alternative_groups = 0
        if self.repository is not None:
            n_edges = sum(len(package.depends)
                          for package in self.repository)
            n_virtual = len(self.repository.virtual_names())
            n_provider_edges = self.repository.n_provider_edges()
            n_alternative_groups = self.repository.n_alternative_groups()
        return DatasetStats(
            n_packages=len(self.packages),
            n_apis=n_apis,
            n_nonempty=n_nonempty,
            total_weight=total_weight,
            has_popcon=self.popcon is not None,
            has_repository=self.repository is not None,
            n_dependency_edges=n_edges,
            n_virtual_packages=n_virtual,
            n_provider_edges=n_provider_edges,
            n_alternative_groups=n_alternative_groups,
        )


FootprintsLike = Union[Mapping[str, Footprint], Dataset]


def as_dataset(footprints: FootprintsLike,
               popcon: Optional[PopularityContest] = None,
               repository: Optional[Repository] = None) -> Dataset:
    """Adapt any footprint mapping to a :class:`Dataset`.

    A Dataset passes through unchanged when the explicit popcon /
    repository arguments agree with (or defer to) its own; otherwise a
    rebound copy shares the interned state.  A plain mapping is
    interned on entry — this is the adapter shim that keeps every
    legacy ``Mapping[str, Footprint]`` signature working.
    """
    if isinstance(footprints, Dataset):
        dataset = footprints
        popcon_ok = popcon is None or popcon is dataset.popcon
        repo_ok = repository is None or repository is dataset.repository
        if popcon_ok and repo_ok:
            return dataset
        return dataset.rebound(
            dataset.popcon if popcon is None else popcon,
            dataset.repository if repository is None else repository)
    return Dataset(footprints, popcon=popcon, repository=repository)
