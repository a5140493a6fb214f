"""APT-style package repository with dependency resolution.

Models the part of APT's behaviour the study relies on: the package
namespace, ``Depends:`` edges with ``a | b`` alternatives, ``Provides:``
virtual packages, and transitive dependency closure (weighted
completeness marks a package unsupported when any of its dependency
groups is unsatisfiable, §2.2 step 3).

Dependency semantics are AND-of-OR: every ``Depends:`` entry is a group
of alternatives and any one alternative satisfies the group.  An
alternative names either a real package or a virtual package; a virtual
is satisfied by any of its providers.  Flat dependency lists (no ``|``,
no ``Provides:``) degenerate to the plain AND-graph the paper assumes,
with behaviour identical to the pre-refactor model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Optional,
                    Set, Tuple)

from .package import Package, dependency_groups


class UnknownPackageError(KeyError):
    """Raised when a dependency or lookup names a missing package."""


@dataclass(frozen=True)
class DependencyReport:
    """Split dependency-validation report.

    ``dangling`` lists ``"pkg -> dep"`` entries whose target is neither
    a real package nor provided by one; ``virtual_satisfied`` lists
    entries whose target is absent as a real package but satisfied by
    at least one provider.
    """

    dangling: List[str]
    virtual_satisfied: List[str]

    def __bool__(self) -> bool:
        return bool(self.dangling or self.virtual_satisfied)


class Repository:
    """A collection of packages indexed by name.

    Provider/group indexes are built lazily on first use, the
    reverse-dependency index only when :meth:`reverse_dependencies`
    first needs it; :meth:`add` invalidates all three, so lookups
    between mutations are O(1) instead of a full repository scan per
    call.
    """

    def __init__(self, packages: Iterable[Package] = ()) -> None:
        self._packages: Dict[str, Package] = {}
        self._groups: Optional[Dict[str, Tuple[Tuple[str, ...], ...]]] = None
        self._providers: Optional[Dict[str, List[str]]] = None
        self._reverse: Optional[Dict[str, List[str]]] = None
        for package in packages:
            self.add(package)

    def add(self, package: Package) -> None:
        if package.name in self._packages:
            raise ValueError(f"duplicate package {package.name!r}")
        self._packages[package.name] = package
        self._groups = None
        self._providers = None
        self._reverse = None

    def __contains__(self, name: str) -> bool:
        return name in self._packages

    def __len__(self) -> int:
        return len(self._packages)

    def __iter__(self) -> Iterator[Package]:
        return iter(self._packages.values())

    def get(self, name: str) -> Package:
        try:
            return self._packages[name]
        except KeyError:
            raise UnknownPackageError(name) from None

    def names(self) -> List[str]:
        return list(self._packages)

    # --- cached dependency indexes ------------------------------------------

    def _ensure_indexes(self) -> None:
        if self._groups is not None:
            return
        groups: Dict[str, Tuple[Tuple[str, ...], ...]] = {}
        providers: Dict[str, List[str]] = {}
        for package in self._packages.values():
            groups[package.name] = dependency_groups(package.depends)
            for virtual in package.provides:
                providers.setdefault(virtual, []).append(package.name)
        # ``_groups`` is the built-flag: set it last, so a concurrent
        # reader never sees it without ``_providers``.
        self._providers = providers
        self._groups = groups

    def _ensure_reverse(self) -> None:
        # Only reverse_dependencies reads this index, so the closure,
        # the curve and each series release never pay for it.
        if self._reverse is not None:
            return
        self._ensure_indexes()
        providers = self._providers
        reverse: Dict[str, List[str]] = {}
        for name, groups in self._groups.items():
            seen: Set[str] = set()
            for group in groups:
                for alternative in group:
                    targets = [alternative]
                    targets.extend(providers.get(alternative, ()))
                    for target in targets:
                        if target in seen:
                            continue
                        seen.add(target)
                        reverse.setdefault(target, []).append(name)
        self._reverse = reverse

    def dependency_groups_of(self, name: str) -> Tuple[Tuple[str, ...], ...]:
        """Parsed AND-of-OR groups of ``name`` (empty if unknown)."""
        self._ensure_indexes()
        return self._groups.get(name, ())

    def providers_of(self, name: str) -> Tuple[str, ...]:
        """Packages declaring ``Provides: name``, in insertion order."""
        self._ensure_indexes()
        return tuple(self._providers.get(name, ()))

    def is_virtual(self, name: str) -> bool:
        """True for names that exist only through providers."""
        self._ensure_indexes()
        return name not in self._packages and name in self._providers

    def satisfiers(self, name: str) -> Tuple[str, ...]:
        """Real packages that can stand in for dependency target ``name``.

        The real package of that name (if any) first, then providers in
        insertion order.  Empty for an unknown, unprovided name — which
        the closure ignores, matching APT's tolerance of dangling
        virtual references.
        """
        self._ensure_indexes()
        satisfiers: List[str] = []
        if name in self._packages:
            satisfiers.append(name)
        for provider in self._providers.get(name, ()):
            if provider not in satisfiers:
                satisfiers.append(provider)
        return tuple(satisfiers)

    def virtual_names(self) -> Tuple[str, ...]:
        """All provided names that are not also real packages."""
        self._ensure_indexes()
        return tuple(name for name in self._providers
                     if name not in self._packages)

    def n_provider_edges(self) -> int:
        """Total ``Provides:`` declarations across the repository."""
        self._ensure_indexes()
        return sum(len(names) for names in self._providers.values())

    def n_alternative_groups(self) -> int:
        """Dependency groups with more than one alternative."""
        self._ensure_indexes()
        return sum(1 for groups in self._groups.values()
                   for group in groups if len(group) > 1)

    # --- dependency handling ------------------------------------------------

    def dependency_closure(self, name: str) -> FrozenSet[str]:
        """All packages reachable from ``name`` via Depends, inclusive.

        Reachability follows every alternative of every group and every
        provider of a virtual alternative.  Cycle-safe (APT permits
        dependency cycles; they are common between e.g. libc and
        libgcc).  Unknown, unprovided dependencies are ignored,
        matching APT's behaviour for optional virtual packages.
        """
        closure: Set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in closure or current not in self._packages:
                continue
            closure.add(current)
            for group in self.dependency_groups_of(current):
                for alternative in group:
                    stack.extend(self.satisfiers(alternative))
        return frozenset(closure)

    def reverse_dependencies(self, name: str) -> FrozenSet[str]:
        """Packages that depend on ``name`` directly or via a virtual.

        A package counts when some alternative names ``name`` itself,
        or names a virtual package that ``name`` provides.  Backed by
        the reverse-adjacency index, built on first call.
        """
        self._ensure_reverse()
        dependents = set(self._reverse.get(name, ()))
        package = self._packages.get(name)
        if package is not None:
            for provided in package.provides:
                dependents.update(self._reverse.get(provided, ()))
        return frozenset(dependents)

    def validate_dependencies(self) -> List[str]:
        """Return genuinely dangling dependency targets.

        An alternative that is no real package but has a provider is
        *not* dangling — see :meth:`validate_dependencies_report` for
        the split view.  On repositories without ``Provides:`` this is
        exactly the pre-refactor report.
        """
        return self.validate_dependencies_report().dangling

    def validate_dependencies_report(self) -> DependencyReport:
        """Classify non-package dependency targets.

        ``dangling`` — no real package, no provider (a true ghost);
        ``virtual_satisfied`` — no real package but at least one
        provider declares it.
        """
        self._ensure_indexes()
        dangling: List[str] = []
        virtual_satisfied: List[str] = []
        for package in self:
            for group in self._groups[package.name]:
                for alternative in group:
                    if alternative in self._packages:
                        continue
                    entry = f"{package.name} -> {alternative}"
                    if self._providers.get(alternative):
                        virtual_satisfied.append(entry)
                    else:
                        dangling.append(entry)
        return DependencyReport(dangling=dangling,
                                virtual_satisfied=virtual_satisfied)

    def and_only_view(self) -> "Repository":
        """Degraded copy modelling AND-only resolvers.

        Collapses every group to its *first* alternative and drops all
        ``Provides:`` — the way pre-alternatives tooling (debootstrap,
        and this codebase before the AND-OR refactor) mishandles rich
        dependency metadata.  The ablation experiment measures the
        completeness error this degradation introduces.  On a corpus
        without alternatives or virtuals the view is semantically
        identical to the source repository.
        """
        collapsed = []
        for package in self:
            groups = dependency_groups(package.depends)
            collapsed.append(Package(
                name=package.name,
                category=package.category,
                artifacts=package.artifacts,
                depends=[group[0] for group in groups],
                description=package.description))
        return Repository(collapsed)

    def topological_order(self) -> List[Package]:
        """Dependencies-first order; cycles broken arbitrarily."""
        order: List[Package] = []
        visited: Dict[str, int] = {}  # 0 = visiting, 1 = done

        def visit(name: str) -> None:
            state = visited.get(name)
            if state is not None:
                return
            visited[name] = 0
            package = self._packages.get(name)
            if package is not None:
                for group in self.dependency_groups_of(name):
                    for alternative in group:
                        for dep in self.satisfiers(alternative):
                            if visited.get(dep) != 0:
                                visit(dep)
                order.append(package)
            visited[name] = 1

        for name in self._packages:
            visit(name)
        return order
