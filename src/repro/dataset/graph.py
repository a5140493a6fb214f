"""SCC-condensed AND-OR dependency graph for incremental support tracking.

:func:`repro.metrics.completeness.close_over_dependencies` computes
the *greatest* fixed point of "supported and every dependency group
satisfiable" — a dependency cycle whose members are all satisfied stays
supported.  A naive additive worklist computes the *least* fixed
point, which wrongly drops such cycles.  Condensing the must-edge
graph into strongly connected components first makes the two coincide
for plain AND dependencies: on a DAG, a component is supported exactly
when every member is directly satisfied, no member depends on a
package that can never be supported, and every successor component is
supported.

Dependency semantics are AND-of-OR with virtual providers.  Each
``Depends:`` group resolves, per node, to the set of in-universe
*satisfier* nodes (the real alternative packages plus providers of
virtual alternatives):

* a group with an unknown, unprovided alternative never gates (the
  closure's legacy tolerance of dangling virtual references);
* a group satisfied by the node itself, or by an *assumed* package
  (outside the measurement universe), never gates;
* a group with satisfiers in the repository but none reachable inside
  the universe poisons the node — it can never be supported;
* exactly one in-universe satisfier degenerates to a **must-edge**
  (exactly the pre-refactor AND edge, so flat corpora condense
  bit-identically);
* two or more satisfiers form an **OR-group** tracked as a residual
  counter: the group is met once *some* satisfier's component is
  supported.

OR-groups reintroduce the least/greatest fixed point gap that SCC
condensation solved for must-edges: components that satisfy each
other's OR-groups in a cycle never fire under forward counter
propagation.  The tracker therefore precomputes *super-components*
(SCCs of the component-level must+OR digraph) and, whenever counters
inside a cyclic super-component move, runs a local greatest-fixed-point
rescue that supports any mutually-consistent residue at once.  Flat
corpora have no OR edges, so every super-component is a singleton and
the rescue machinery never engages.

The pre-refactor curve rebuilt one tracker (Tarjan included) on
every evaluation; :mod:`repro.dataset.reference` keeps that version
as the oracle.  Here it is split into the immutable
:class:`CondensedDependencyGraph` — which the
:class:`repro.dataset.Dataset` facade caches per (dimension,
universe) — and the cheap mutable :class:`SupportTracker` state that
each curve run spawns from it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple


class CondensedDependencyGraph:
    """Immutable condensation of the dependency graph over a universe.

    ``universe`` is the measured package set (iteration order is
    preserved — it determines member order inside components, which
    downstream float summations depend on).  ``assumed`` names
    packages outside the measurement universe (e.g. footprint-less
    library packages) whose presence in a dependency list never
    invalidates a dependent.
    """

    __slots__ = ("component_of", "members", "initial_unsatisfied",
                 "poisoned", "dependents", "initial_unmet",
                 "or_group_owner", "or_group_satisfiers",
                 "groups_owned", "groups_of_satisfier",
                 "initial_unmet_groups", "must_deps",
                 "cyclic_super_of", "super_members")

    def __init__(self, universe: Iterable[str], repository,
                 assumed: Iterable[str]) -> None:
        nodes = list(universe)
        node_set = set(nodes)
        assumed_set = set(assumed)
        adjacency: Dict[str, List[str]] = {name: [] for name in nodes}
        poisoned_nodes: Set[str] = set()
        # Groups with >= 2 in-universe satisfiers: (owner, satisfiers).
        raw_or_groups: List[Tuple[str, Tuple[str, ...]]] = []
        # Many packages depend on the same few targets.
        satisfiers_of: Dict[str, Tuple[str, ...]] = {}
        for name in nodes:
            if name not in repository:
                # No dependency metadata: never invalidated (mirrors
                # close_over_dependencies skipping unknown packages).
                continue
            for group in repository.dependency_groups_of(name):
                resolved: List[str] = []
                resolved_seen: Set[str] = set()
                gates = True
                for alternative in group:
                    satisfiers = satisfiers_of.get(alternative)
                    if satisfiers is None:
                        satisfiers = repository.satisfiers(alternative)
                        satisfiers_of[alternative] = satisfiers
                    if not satisfiers:
                        # An unknown, unprovided alternative satisfies
                        # the whole group — close_over_dependencies
                        # only invalidates on targets present in the
                        # repository.
                        gates = False
                        break
                    for satisfier in satisfiers:
                        if satisfier == name or satisfier in assumed_set:
                            # Self-satisfying groups are consistent
                            # under the greatest fixed point; assumed
                            # packages are supported by fiat.
                            gates = False
                            break
                        if (satisfier in node_set
                                and satisfier not in resolved_seen):
                            resolved_seen.add(satisfier)
                            resolved.append(satisfier)
                        # In the repository but outside the universe
                        # and not assumed: can never be supported, so
                        # it cannot satisfy the group — drop it.
                    if not gates:
                        break
                if not gates:
                    continue
                if not resolved:
                    # Every satisfier is a measured-universe outsider
                    # that is neither assumed supported nor absent:
                    # the closure can never keep this package.
                    poisoned_nodes.add(name)
                elif len(resolved) == 1:
                    adjacency[name].append(resolved[0])
                else:
                    raw_or_groups.append((name, tuple(resolved)))

        component_of = self._condense(nodes, adjacency)
        n_components = max(component_of.values()) + 1 if nodes else 0
        self.component_of = component_of
        self.members: List[List[str]] = [[] for _ in range(n_components)]
        for name in nodes:
            self.members[component_of[name]].append(name)
        self.initial_unsatisfied = [len(members)
                                    for members in self.members]
        self.poisoned = [False] * n_components
        for name in poisoned_nodes:
            self.poisoned[component_of[name]] = True
        dependents: List[set] = [set() for _ in range(n_components)]
        unmet: List[set] = [set() for _ in range(n_components)]
        for name in nodes:
            comp = component_of[name]
            for dep in adjacency[name]:
                dep_comp = component_of[dep]
                if dep_comp != comp:
                    unmet[comp].add(dep_comp)
                    dependents[dep_comp].add(comp)
        self.initial_unmet = [len(deps) for deps in unmet]
        self.dependents = [sorted(deps) for deps in dependents]
        self.must_deps = [sorted(deps) for deps in unmet]

        # --- OR-groups at component level --------------------------------
        self.or_group_owner: List[int] = []
        self.or_group_satisfiers: List[Tuple[int, ...]] = []
        self.groups_owned: List[List[int]] = [[] for _ in
                                              range(n_components)]
        self.groups_of_satisfier: List[List[int]] = [
            [] for _ in range(n_components)]
        for name, satisfiers in raw_or_groups:
            owner = component_of[name]
            comps: List[int] = []
            comps_seen: Set[int] = set()
            satisfied_within = False
            for satisfier in satisfiers:
                comp = component_of[satisfier]
                if comp == owner:
                    # A satisfier inside the owner's own SCC: under the
                    # greatest fixed point the group is satisfied
                    # whenever the component is, so it never
                    # independently blocks — drop the constraint.
                    satisfied_within = True
                    break
                if comp not in comps_seen:
                    comps_seen.add(comp)
                    comps.append(comp)
            if satisfied_within:
                continue
            gid = len(self.or_group_owner)
            self.or_group_owner.append(owner)
            self.or_group_satisfiers.append(tuple(comps))
            self.groups_owned[owner].append(gid)
            for comp in comps:
                self.groups_of_satisfier[comp].append(gid)
        self.initial_unmet_groups = [len(gids)
                                     for gids in self.groups_owned]

        # --- super-components (SCCs over must+OR edges) -------------------
        # Only cyclic super-components matter: they are where forward
        # counter propagation (a least fixed point) can deadlock on
        # OR-cycles and the tracker must fall back to a local greatest
        # fixed point.  Flat corpora produce none (must-edges alone
        # form a DAG after condensation).
        self.cyclic_super_of: Dict[int, int] = {}
        self.super_members: Dict[int, List[int]] = {}
        if self.or_group_owner:
            comp_nodes = list(range(n_components))
            comp_adjacency: Dict[int, List[int]] = {
                comp: list(self.must_deps[comp]) for comp in comp_nodes}
            for gid, owner in enumerate(self.or_group_owner):
                comp_adjacency[owner].extend(
                    self.or_group_satisfiers[gid])
            super_of = self._condense(comp_nodes, comp_adjacency)
            members: Dict[int, List[int]] = {}
            for comp in comp_nodes:
                members.setdefault(super_of[comp], []).append(comp)
            for super_id, comps in members.items():
                if len(comps) > 1:
                    self.super_members[super_id] = sorted(comps)
                    for comp in comps:
                        self.cyclic_super_of[comp] = super_id

    @staticmethod
    def _condense(nodes, adjacency) -> Dict:
        """Iterative Tarjan SCC; returns node -> component id."""
        index_of: Dict = {}
        lowlink: Dict = {}
        on_stack = set()
        stack: List = []
        component_of: Dict = {}
        counter = [0]
        components = [0]

        for root in nodes:
            if root in index_of:
                continue
            work = [(root, iter(adjacency[root]))]
            index_of[root] = lowlink[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, edges = work[-1]
                advanced = False
                for dep in edges:
                    if dep not in index_of:
                        index_of[dep] = lowlink[dep] = counter[0]
                        counter[0] += 1
                        stack.append(dep)
                        on_stack.add(dep)
                        work.append((dep, iter(adjacency[dep])))
                        advanced = True
                        break
                    if dep in on_stack:
                        lowlink[node] = min(lowlink[node],
                                            index_of[dep])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent],
                                          lowlink[node])
                if lowlink[node] == index_of[node]:
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component_of[member] = components[0]
                        if member == node:
                            break
                    components[0] += 1
        return component_of

    def tracker(self) -> "SupportTracker":
        """Fresh mutable support state over this condensation."""
        return SupportTracker(self)


class SupportTracker:
    """Incremental dependency closure over a condensation DAG.

    Packages flip to supported monotonically as APIs are added, so one
    run over a ranked API list costs O(edges) total instead of
    re-running the dependency fixed point at every rank.  OR-groups
    are residual counters; OR-cycles are resolved by a local greatest
    fixed point over their super-component (see module docstring).
    """

    __slots__ = ("_graph", "_component_of", "_members", "_unsatisfied",
                 "_poisoned", "_dependents", "_unmet_deps", "_supported",
                 "_unmet_groups", "_group_satisfied", "_group_owner",
                 "_groups_of_satisfier", "_groups_owned", "_must_deps",
                 "_group_satisfiers", "_cyclic_super_of",
                 "_super_members", "_dirty")

    def __init__(self, graph: CondensedDependencyGraph) -> None:
        self._graph = graph
        self._component_of = graph.component_of
        self._members = graph.members
        self._unsatisfied = list(graph.initial_unsatisfied)
        self._poisoned = graph.poisoned
        self._dependents = graph.dependents
        self._unmet_deps = list(graph.initial_unmet)
        self._supported = [False] * len(graph.members)
        self._unmet_groups = list(graph.initial_unmet_groups)
        self._group_satisfied = [False] * len(graph.or_group_owner)
        self._group_owner = graph.or_group_owner
        self._group_satisfiers = graph.or_group_satisfiers
        self._groups_of_satisfier = graph.groups_of_satisfier
        self._groups_owned = graph.groups_owned
        self._must_deps = graph.must_deps
        self._cyclic_super_of = graph.cyclic_super_of
        self._super_members = graph.super_members
        self._dirty: Set[int] = set()

    def mark_satisfied(self, package: str) -> List[str]:
        """One package's own footprint is now covered.

        Returns every package that *became supported* as a result —
        the package's component if it just completed, plus any
        dependent components cascading to supported, plus any OR-cycle
        residue the rescue pass resolves.
        """
        comp = self._component_of[package]
        self._unsatisfied[comp] -= 1
        self._note_dirty(comp)
        newly: List[str] = []
        worklist = [comp]
        while True:
            while worklist:
                candidate = worklist.pop()
                if (self._supported[candidate]
                        or self._unsatisfied[candidate] > 0
                        or self._unmet_deps[candidate] > 0
                        or self._unmet_groups[candidate] > 0
                        or self._poisoned[candidate]):
                    continue
                self._support(candidate, newly, worklist)
            if not self._dirty:
                break
            rescued = self._rescue()
            if not rescued:
                break
            for candidate in rescued:
                if not self._supported[candidate]:
                    self._support(candidate, newly, worklist)
        return newly

    def _support(self, candidate: int, newly: List[str],
                 worklist: List[int]) -> None:
        """Flip one component to supported and propagate counters."""
        self._supported[candidate] = True
        newly.extend(self._members[candidate])
        for dependent in self._dependents[candidate]:
            self._unmet_deps[dependent] -= 1
            self._note_dirty(dependent)
            worklist.append(dependent)
        for gid in self._groups_of_satisfier[candidate]:
            if self._group_satisfied[gid]:
                continue
            self._group_satisfied[gid] = True
            owner = self._group_owner[gid]
            self._unmet_groups[owner] -= 1
            self._note_dirty(owner)
            worklist.append(owner)

    def _note_dirty(self, comp: int) -> None:
        super_id = self._cyclic_super_of.get(comp)
        if super_id is not None:
            self._dirty.add(super_id)

    def _rescue(self) -> List[int]:
        """Local greatest fixed point over dirty cyclic supers.

        A set X of components inside one super-component may be
        supported together exactly when every member has all its own
        footprints satisfied and each of its constraints (must-edge or
        OR-group) is met by a component that is already supported or
        also in X.  Forward counter propagation cannot discover such
        mutually-dependent sets; iterated removal from the candidate
        set computes the maximal one.
        """
        rescued: List[int] = []
        for super_id in sorted(self._dirty):
            candidates = {
                comp for comp in self._super_members[super_id]
                if not self._supported[comp]
                and not self._poisoned[comp]
                and self._unsatisfied[comp] == 0}
            changed = True
            while changed and candidates:
                changed = False
                for comp in sorted(candidates):
                    consistent = all(
                        self._supported[dep] or dep in candidates
                        for dep in self._must_deps[comp])
                    if consistent:
                        for gid in self._groups_owned[comp]:
                            if self._group_satisfied[gid]:
                                continue
                            if not any(self._supported[satisfier]
                                       or satisfier in candidates
                                       for satisfier in
                                       self._group_satisfiers[gid]):
                                consistent = False
                                break
                    if not consistent:
                        candidates.discard(comp)
                        changed = True
            rescued.extend(sorted(candidates))
        self._dirty.clear()
        return rescued
