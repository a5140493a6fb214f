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
corpora have no OR edges, so no super-component is cyclic and the
rescue machinery never engages.

Layout.  Every node is a package id (a position in the dataset's
package order) and every adjacency is CSR: ``x_start[i]:x_start[i+1]``
slices the flat int list ``x_ids``.  A built graph therefore holds a
few dozen flat int lists whatever its size — no per-component Python
containers and no name-keyed dicts — so the garbage collector has
almost nothing to traverse.  The pre-refactor curve rebuilt one
tracker (Tarjan included) on every evaluation;
:mod:`repro.dataset.reference` keeps that version as the oracle.

Floats stay bit-identical to the name-keyed build because every order
a caller can observe is kept: Tarjan visits nodes in package order
and a node's edges in group order, so component ids come out the
same; members are kept in package order, so
:meth:`SupportTracker.mark_satisfied` returns ids in exactly the order
it used to return names; dependents and must-deps are de-duplicated
and ascending, as ``sorted(set)`` made them.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def _csr(n_rows: int, rows: Sequence[int],
         values: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Stable sort of ``(row, value)`` pairs into CSR form.

    Values keep their input order inside each row.
    """
    counts = [0] * n_rows
    for row in rows:
        counts[row] += 1
    order = sorted(range(len(rows)), key=rows.__getitem__)
    return (list(accumulate(counts, initial=0)),
            [values[i] for i in order])


def _row_sizes(start: Sequence[int]) -> List[int]:
    """Row lengths of a CSR offset list."""
    return [end - first for first, end in zip(start, start[1:])]


def _tarjan(n: int, roots: Iterable[int], edge_start: Sequence[int],
            edge_end: Sequence[int],
            edges: Sequence[int]) -> Tuple[List[int], int]:
    """Iterative Tarjan SCC over int nodes ``0..n-1``.

    Node ``v``'s out-edges are ``edges[edge_start[v]:edge_end[v]]``.
    Roots are tried in the given order and each node's edges in list
    order, so component ids depend only on those two orders.  Returns
    ``(component_of, n_components)``; nodes never reached keep -1.
    """
    index_of = [-1] * n
    lowlink = [0] * n
    on_stack = bytearray(n)
    cursor = list(edge_start)
    stack: List[int] = []
    component_of = [-1] * n
    counter = 0
    n_components = 0
    work: List[int] = []
    for root in roots:
        if index_of[root] >= 0:
            continue
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        work.append(root)
        while work:
            node = work[-1]
            position = cursor[node]
            end = edge_end[node]
            advanced = False
            while position < end:
                dep = edges[position]
                position += 1
                if index_of[dep] < 0:
                    cursor[node] = position
                    index_of[dep] = lowlink[dep] = counter
                    counter += 1
                    stack.append(dep)
                    on_stack[dep] = 1
                    work.append(dep)
                    advanced = True
                    break
                if on_stack[dep] and index_of[dep] < lowlink[node]:
                    lowlink[node] = index_of[dep]
            if advanced:
                continue
            cursor[node] = position
            work.pop()
            if work:
                parent = work[-1]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
            if lowlink[node] == index_of[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = 0
                    component_of[member] = n_components
                    if member == node:
                        break
                n_components += 1
    return component_of, n_components


class CondensedDependencyGraph:
    """Immutable condensation of the dependency graph over a universe.

    ``packages`` is the dataset's package order; every node is an id
    into it.  ``universe_ids`` is the measured package set (its order
    determines member order inside components, which downstream float
    summations depend on — pass it in package order).
    ``assumed_ids`` names packages (e.g. footprint-less library
    packages) whose presence in a dependency list never invalidates a
    dependent.

    Attributes are flat int lists, CSR where per-row: component ``c``
    has members ``member_ids[member_start[c]:member_start[c + 1]]``,
    and likewise ``dependent_*``, ``must_*`` (component level),
    ``or_satisfier_*`` (per OR-group), ``owned_*`` and
    ``satisfier_group_*`` (OR-group ids per component).
    ``component_of`` is indexed by package id (-1 outside the
    universe).
    """

    __slots__ = ("component_of", "member_start", "member_ids",
                 "poisoned", "dependent_start", "dependent_ids",
                 "must_start", "must_ids", "or_group_owner",
                 "or_satisfier_start", "or_satisfier_ids",
                 "owned_start", "owned_ids", "satisfier_group_start",
                 "satisfier_group_ids", "cyclic_super_of",
                 "super_start", "super_ids", "initial_unsatisfied",
                 "initial_unmet", "initial_unmet_groups")

    def __init__(self, packages: Sequence[str],
                 universe_ids: Iterable[int], repository,
                 assumed_ids: Iterable[int]) -> None:
        nodes = list(universe_ids)
        n_packages = len(packages)
        index_of = {name: i for i, name in enumerate(packages)}
        in_universe = bytearray(n_packages)
        for node in nodes:
            in_universe[node] = 1
        assumed = bytearray(n_packages)
        for node in assumed_ids:
            assumed[node] = 1

        # One resolution per alternative name: None when it never gates
        # (no satisfier at all, or an assumed one), else its
        # in-universe satisfier ids.  Satisfiers outside the universe
        # that are not assumed can never be supported, so they are
        # dropped.
        resolution: Dict[str, Optional[Tuple[int, ...]]] = {}

        def resolve(alternative: str) -> Optional[Tuple[int, ...]]:
            satisfiers = repository.satisfiers(alternative)
            resolved: Optional[Tuple[int, ...]] = None
            if satisfiers:
                ids = []
                for satisfier in satisfiers:
                    node = index_of.get(satisfier)
                    if node is None:
                        continue
                    if assumed[node]:
                        break
                    if in_universe[node]:
                        ids.append(node)
                else:
                    resolved = tuple(ids)
            resolution[alternative] = resolved
            return resolved

        groups_of = repository.dependency_groups_of
        edge_start = [0] * n_packages
        edge_end = [0] * n_packages
        edges: List[int] = []           # must-edge targets, by source
        edge_sources: List[int] = []
        poisoned_nodes: List[int] = []
        # Groups with >= 2 in-universe satisfiers: owner, satisfiers.
        or_nodes: List[int] = []
        or_node_satisfiers: List[Tuple[int, ...]] = []
        for node in nodes:
            edge_start[node] = len(edges)
            name = packages[node]
            # A package without dependency metadata is never
            # invalidated (close_over_dependencies skips it).
            for group in (groups_of(name) if name in repository else ()):
                resolved: Sequence[int] = ()
                for alternative in group:
                    satisfiers = (resolution[alternative]
                                  if alternative in resolution
                                  else resolve(alternative))
                    if satisfiers is None or node in satisfiers:
                        # Dangling, assumed or self-satisfied: the
                        # greatest fixed point never drops the node.
                        break
                    if not resolved:
                        resolved = satisfiers
                    else:
                        resolved = list(resolved)
                        resolved.extend(satisfier
                                        for satisfier in satisfiers
                                        if satisfier not in resolved)
                else:
                    if not resolved:
                        poisoned_nodes.append(node)
                    elif len(resolved) == 1:
                        edges.append(resolved[0])
                        edge_sources.append(node)
                    else:
                        or_nodes.append(node)
                        or_node_satisfiers.append(tuple(resolved))
            edge_end[node] = len(edges)

        component_of, n_components = _tarjan(
            n_packages, nodes, edge_start, edge_end, edges)
        self.component_of = component_of
        self.member_start, self.member_ids = _csr(
            n_components, [component_of[node] for node in nodes], nodes)
        poisoned = bytearray(n_components)
        for node in poisoned_nodes:
            poisoned[component_of[node]] = 1
        self.poisoned = poisoned

        # Must-deps per component, de-duplicated and ascending; then
        # dependents, filled in ascending component order.
        rows: List[int] = []
        dep_comps: List[int] = []
        for source, target in zip(edge_sources, edges):
            comp = component_of[source]
            dep_comp = component_of[target]
            if dep_comp != comp:
                rows.append(comp)
                dep_comps.append(dep_comp)
        start, grouped = _csr(n_components, rows, dep_comps)
        must_start = [0] * (n_components + 1)
        must_ids: List[int] = []
        owners_of_deps: List[int] = []
        for comp in range(n_components):
            first, end = start[comp], start[comp + 1]
            if end - first == 1:
                must_ids.append(grouped[first])
                owners_of_deps.append(comp)
            elif end > first:
                for dep_comp in sorted(set(grouped[first:end])):
                    must_ids.append(dep_comp)
                    owners_of_deps.append(comp)
            must_start[comp + 1] = len(must_ids)
        self.must_start, self.must_ids = must_start, must_ids
        self.dependent_start, self.dependent_ids = _csr(
            n_components, must_ids, owners_of_deps)

        # --- OR-groups at component level --------------------------------
        owners: List[int] = []
        satisfier_rows: List[int] = []
        satisfier_comps: List[int] = []
        for node, satisfiers in zip(or_nodes, or_node_satisfiers):
            owner = component_of[node]
            comps: List[int] = []
            for satisfier in satisfiers:
                comp = component_of[satisfier]
                if comp == owner:
                    # A satisfier inside the owner's own SCC: under the
                    # greatest fixed point the group is satisfied
                    # whenever the component is, so it never
                    # independently blocks — drop the constraint.
                    break
                if comp not in comps:
                    comps.append(comp)
            else:
                gid = len(owners)
                owners.append(owner)
                satisfier_rows.extend([gid] * len(comps))
                satisfier_comps.extend(comps)
        self.or_group_owner = owners
        self.or_satisfier_start, self.or_satisfier_ids = _csr(
            len(owners), satisfier_rows, satisfier_comps)
        self.owned_start, self.owned_ids = _csr(
            n_components, owners, range(len(owners)))
        self.satisfier_group_start, self.satisfier_group_ids = _csr(
            n_components, satisfier_comps, satisfier_rows)

        # Per-component counters a fresh tracker copies.
        self.initial_unsatisfied = _row_sizes(self.member_start)
        self.initial_unmet = _row_sizes(self.must_start)
        self.initial_unmet_groups = _row_sizes(self.owned_start)

        # --- super-components (SCCs over must+OR edges) -------------------
        # Only cyclic super-components matter: they are where forward
        # counter propagation (a least fixed point) can deadlock on
        # OR-cycles and the tracker must fall back to a local greatest
        # fixed point.  Flat corpora produce none (must-edges alone
        # form a DAG after condensation), so they skip this pass.
        #: component -> dense id of its cyclic super-component; dense
        #: ids ascend with Tarjan's super ids, so sorted order agrees.
        self.cyclic_super_of: Dict[int, int] = {}
        self.super_start: List[int] = [0]
        self.super_ids: List[int] = []
        if owners:
            self._build_supers(n_components)

    def _build_supers(self, n_components: int) -> None:
        must_start, must_ids = self.must_start, self.must_ids
        owned_start, owned_ids = self.owned_start, self.owned_ids
        or_start, or_ids = self.or_satisfier_start, self.or_satisfier_ids
        edge_start = [0] * n_components
        edge_end = [0] * n_components
        edges: List[int] = []
        for comp in range(n_components):
            edge_start[comp] = len(edges)
            edges.extend(must_ids[must_start[comp]:must_start[comp + 1]])
            for gid in owned_ids[owned_start[comp]:owned_start[comp + 1]]:
                edges.extend(or_ids[or_start[gid]:or_start[gid + 1]])
            edge_end[comp] = len(edges)
        super_of, n_supers = _tarjan(n_components, range(n_components),
                                     edge_start, edge_end, edges)
        sizes = [0] * n_supers
        for super_id in super_of:
            sizes[super_id] += 1
        dense = [-1] * n_supers
        n_cyclic = 0
        for super_id, size in enumerate(sizes):
            if size > 1:
                dense[super_id] = n_cyclic
                n_cyclic += 1
        rows: List[int] = []
        comps: List[int] = []
        for comp, super_id in enumerate(super_of):
            row = dense[super_id]
            if row >= 0:
                self.cyclic_super_of[comp] = row
                rows.append(row)
                comps.append(comp)
        self.super_start, self.super_ids = _csr(n_cyclic, rows, comps)

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
    Takes and returns package ids.
    """

    __slots__ = ("_graph", "_unsatisfied", "_unmet_deps", "_supported",
                 "_unmet_groups", "_group_satisfied", "_dirty")

    def __init__(self, graph: CondensedDependencyGraph) -> None:
        self._graph = graph
        self._unsatisfied = list(graph.initial_unsatisfied)
        self._unmet_deps = list(graph.initial_unmet)
        self._unmet_groups = list(graph.initial_unmet_groups)
        self._supported = bytearray(len(graph.initial_unsatisfied))
        self._group_satisfied = bytearray(len(graph.or_group_owner))
        self._dirty: set = set()

    def mark_satisfied(self, package: int) -> List[int]:
        """One package's own footprint is now covered.

        Returns the id of every package that *became supported* as a
        result — the package's component if it just completed, plus
        any dependent components cascading to supported, plus any
        OR-cycle residue the rescue pass resolves.
        """
        graph = self._graph
        cyclic = graph.cyclic_super_of
        comp = graph.component_of[package]
        unsatisfied = self._unsatisfied
        unmet_deps = self._unmet_deps
        unmet_groups = self._unmet_groups
        poisoned = graph.poisoned
        unsatisfied[comp] -= 1
        newly: List[int] = []
        if cyclic and comp in cyclic:
            self._dirty.add(cyclic[comp])
        elif (unsatisfied[comp] or unmet_deps[comp] or unmet_groups[comp]
              or poisoned[comp]):
            # Still blocked and no rescue pending (the dirty set is
            # empty between calls): nothing can change.
            return newly
        supported = self._supported
        worklist = [comp]
        while True:
            while worklist:
                candidate = worklist.pop()
                if (supported[candidate]
                        or unsatisfied[candidate] > 0
                        or unmet_deps[candidate] > 0
                        or unmet_groups[candidate] > 0
                        or poisoned[candidate]):
                    continue
                self._support(candidate, newly, worklist)
            if not self._dirty:
                break
            rescued = self._rescue()
            if not rescued:
                break
            for candidate in rescued:
                if not supported[candidate]:
                    self._support(candidate, newly, worklist)
        return newly

    def _support(self, candidate: int, newly: List[int],
                 worklist: List[int]) -> None:
        """Flip one component to supported and propagate counters."""
        graph = self._graph
        cyclic = graph.cyclic_super_of
        self._supported[candidate] = 1
        start = graph.member_start
        newly.extend(graph.member_ids[start[candidate]:
                                      start[candidate + 1]])
        start = graph.dependent_start
        dependents = graph.dependent_ids[start[candidate]:
                                         start[candidate + 1]]
        # A component is queued when a counter of its reaches 0; a
        # queued component still blocked elsewhere would only be
        # popped and skipped, so the support order is unchanged.
        if dependents:
            unmet_deps = self._unmet_deps
            for dependent in dependents:
                unmet_deps[dependent] -= 1
                if cyclic and dependent in cyclic:
                    self._dirty.add(cyclic[dependent])
                if not unmet_deps[dependent]:
                    worklist.append(dependent)
        start = graph.satisfier_group_start
        if start[candidate] == start[candidate + 1]:
            return
        group_satisfied = self._group_satisfied
        owners = graph.or_group_owner
        for gid in graph.satisfier_group_ids[start[candidate]:
                                             start[candidate + 1]]:
            if group_satisfied[gid]:
                continue
            group_satisfied[gid] = 1
            owner = owners[gid]
            self._unmet_groups[owner] -= 1
            if owner in cyclic:
                self._dirty.add(cyclic[owner])
            if not self._unmet_groups[owner]:
                worklist.append(owner)

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
        graph = self._graph
        supported = self._supported
        group_satisfied = self._group_satisfied
        must_start, must_ids = graph.must_start, graph.must_ids
        owned_start, owned_ids = graph.owned_start, graph.owned_ids
        or_start, or_ids = graph.or_satisfier_start, graph.or_satisfier_ids
        super_start = graph.super_start
        rescued: List[int] = []
        for super_id in sorted(self._dirty):
            candidates = {
                comp for comp in graph.super_ids[
                    super_start[super_id]:super_start[super_id + 1]]
                if not supported[comp]
                and not graph.poisoned[comp]
                and self._unsatisfied[comp] == 0}
            changed = True
            while changed and candidates:
                changed = False
                for comp in sorted(candidates):
                    consistent = all(
                        supported[dep] or dep in candidates
                        for dep in must_ids[must_start[comp]:
                                            must_start[comp + 1]])
                    if consistent:
                        for gid in owned_ids[owned_start[comp]:
                                             owned_start[comp + 1]]:
                            if group_satisfied[gid]:
                                continue
                            if not any(supported[satisfier]
                                       or satisfier in candidates
                                       for satisfier in or_ids[
                                           or_start[gid]:
                                           or_start[gid + 1]]):
                                consistent = False
                                break
                    if not consistent:
                        candidates.discard(comp)
                        changed = True
            rescued.extend(sorted(candidates))
        self._dirty.clear()
        return rescued
