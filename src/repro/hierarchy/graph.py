"""The hierarchy graph of section 2.1.

A :class:`Hierarchy` is a rooted directed acyclic graph over string-named
nodes.  The root is the attribute *domain* itself; an edge runs from each
more general class to each more specific class derived from it; declared
*instances* sit at the leaves.  Following the paper (footnote 3) an
instance is just a singleton class: membership (``∈``) and subset (``⊆``)
are deliberately conflated, and both are answered by graph reachability.

Two structural rules from section 3.1 are enforced:

* **type irredundancy** — the graph must stay acyclic; any mutation that
  would close a cycle raises :class:`~repro.errors.CycleError`;
* every node other than the root has at least one parent (nodes are
  created under the root by default), so the graph stays rooted.

The appendix's *preference edges* — special edges that induce binding
strength without asserting set inclusion — are stored separately: they
participate in the *binding* order (used by preemption) but never in
membership, descendants, or explication.

Performance notes.  Reachability queries dominate every downstream
algorithm, so the hierarchy keeps lazily-built caches: a topological
order, per-node ancestor/descendant bitsets (Python ints indexed by node
rank), one family for the membership graph and one for the binding graph
(membership plus preference edges).  Caches are invalidated by a version
counter bumped on every mutation.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.errors import (
    CycleError,
    DuplicateNodeError,
    HierarchyError,
    UnknownNodeError,
)
from repro.hierarchy import algorithms

_WORD = (1 << 64) - 1  # one saturated word of a rank bitset


def _instance_parent_error(child: str, parent: str) -> HierarchyError:
    return HierarchyError(
        "cannot derive {!r} from instance {!r}: instances are leaves".format(child, parent)
    )


class Hierarchy:
    """A rooted DAG of classes with instances at the leaves.

    Parameters
    ----------
    name:
        A label for the domain, e.g. ``"animal"``.  Used in rendering and
        schema error messages.
    root:
        The name of the root node (the whole domain).  Defaults to the
        hierarchy name.

    Examples
    --------
    >>> h = Hierarchy("animal")
    >>> h.add_class("bird")
    >>> h.add_class("penguin", parents=["bird"])
    >>> h.add_instance("tweety", parents=["bird"])
    >>> h.subsumes("bird", "tweety")
    True
    """

    def __init__(self, name: str, root: str | None = None) -> None:
        if not name:
            raise HierarchyError("hierarchy name must be non-empty")
        self.name = name
        self.root = root if root is not None else name
        self._children: Dict[str, Set[str]] = {self.root: set()}
        self._parents: Dict[str, Set[str]] = {self.root: set()}
        self._instances: Set[str] = set()
        self._pref_children: Dict[str, Set[str]] = {}
        self._pref_parents: Dict[str, Set[str]] = {}
        self._insertion: List[str] = [self.root]
        self._version = 0
        self._cache_version = -1
        self._cache: Dict[str, object] = {}
        # Linear caches the batch helpers can use without forcing
        # the O(n^2/64) bitset build in :meth:`_masks` (order/rank plus
        # the insertion rank) and the redundancy flag's own cache.
        self._order_version = -1
        self._order_cache: Tuple[List[str], Dict[str, int], Dict[str, int]] = ([], {}, {})
        self._redundant_version = -1
        self._redundant_cache: Set[Tuple[str, str]] = set()
        self._meet_capable_version = -1
        self._meet_capable_cache: FrozenSet[str] = frozenset()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_class(self, name: str, parents: Sequence[str] | None = None) -> None:
        """Add a class under ``parents`` (default: directly under the root)."""
        self._add_node(name, parents)

    def add_instance(self, name: str, parents: Sequence[str] | None = None) -> None:
        """Add an instance (a leaf).  Instances may not later gain children."""
        self._add_node(name, parents)
        self._instances.add(name)

    def _add_node(self, name: str, parents: Sequence[str] | None) -> None:
        if not name:
            raise HierarchyError("node name must be non-empty")
        if name in self._children:
            raise DuplicateNodeError(
                "node {!r} already exists in hierarchy {!r}".format(name, self.name)
            )
        parent_list = list(parents) if parents is not None else [self.root]
        if not parent_list:
            raise HierarchyError(
                "node {!r} needs at least one parent (the hierarchy is rooted)".format(name)
            )
        for parent in parent_list:
            self._require(parent)
            if parent in self._instances:
                raise _instance_parent_error(name, parent)
        self._children[name] = set()
        self._parents[name] = set()
        self._insertion.append(name)
        for parent in parent_list:
            self._children[parent].add(name)
            self._parents[name].add(parent)
        self._version += 1

    def add_edge(self, parent: str, child: str) -> None:
        """Declare ``child`` ⊆ ``parent`` between two existing nodes.

        Raises :class:`CycleError` if the edge would violate type
        irredundancy.  Adding an edge parallel to an existing path is
        legal (the appendix uses one deliberately) but flips the
        hierarchy out of transitively-reduced normal form, which switches
        binding computations onto the slower node-elimination path.
        """
        self._require(parent)
        self._require(child)
        if parent in self._instances:
            raise _instance_parent_error(child, parent)
        if child == parent or self.subsumes(child, parent):
            raise CycleError(
                "edge {!r} -> {!r} would create a cycle (type irredundancy)".format(
                    parent, child
                )
            )
        self._children[parent].add(child)
        self._parents[child].add(parent)
        self._version += 1

    def add_preference_edge(self, weaker: str, stronger: str) -> None:
        """Add an appendix-style preference edge: tuples at ``stronger``
        preempt tuples at ``weaker`` wherever both apply.

        The edge shapes the tuple-binding graph exactly like a class edge
        from ``weaker`` to ``stronger`` would, but asserts no set
        inclusion: membership, descendants, and explication ignore it.
        """
        self._require(weaker)
        self._require(stronger)
        if weaker == stronger or self.binding_subsumes(stronger, weaker):
            raise CycleError(
                "preference edge {!r} -> {!r} would create a binding cycle".format(
                    weaker, stronger
                )
            )
        self._pref_children.setdefault(weaker, set()).add(stronger)
        self._pref_parents.setdefault(stronger, set()).add(weaker)
        self._version += 1

    def remove_node(self, name: str, keep_redundant: bool = False) -> None:
        """Remove ``name`` via the paper's node-elimination procedure,
        reconnecting its predecessors to its successors so that all other
        reachability is preserved."""
        self._require(name)
        if name == self.root:
            raise HierarchyError("cannot remove the root of a hierarchy")
        graph = {node: set(children) for node, children in self._children.items()}
        algorithms.eliminate_node(graph, name, keep_redundant=keep_redundant)
        self._children = graph
        self._parents = algorithms.invert(graph)
        self._instances.discard(name)
        self._insertion.remove(name)
        for table in (self._pref_children, self._pref_parents):
            table.pop(name, None)
            for targets in table.values():
                targets.discard(name)
        self._version += 1

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def __contains__(self, name: object) -> bool:
        return name in self._children

    def __len__(self) -> int:
        return len(self._children)

    def __iter__(self) -> Iterator[str]:
        return iter(self._insertion)

    def nodes(self) -> List[str]:
        """All node names in insertion order (root first)."""
        return list(self._insertion)

    def edges(self) -> List[Tuple[str, str]]:
        """All class edges as ``(parent, child)`` pairs."""
        return [
            (parent, child)
            for parent in self._insertion
            for child in sorted(self._children[parent])
        ]

    def preference_edges(self) -> List[Tuple[str, str]]:
        """All preference edges as ``(weaker, stronger)`` pairs."""
        return [
            (weaker, stronger)
            for weaker in sorted(self._pref_children)
            for stronger in sorted(self._pref_children[weaker])
        ]

    def parents(self, name: str) -> FrozenSet[str]:
        self._require(name)
        return frozenset(self._parents[name])

    def children(self, name: str) -> FrozenSet[str]:
        self._require(name)
        return frozenset(self._children[name])

    def is_instance(self, name: str) -> bool:
        self._require(name)
        return name in self._instances

    def is_leaf(self, name: str) -> bool:
        """True iff ``name`` has no children.

        Leaves are the *atoms* of the domain: explication enumerates
        them, and an atomic item is a cartesian product of them.  A
        childless class counts (the paper allows leaves to "represent
        classes as well rather than instances").
        """
        self._require(name)
        return not self._children[name]

    def leaves(self) -> List[str]:
        """All leaf nodes, in insertion order."""
        return [name for name in self._insertion if not self._children[name]]

    def leaves_under(self, name: str) -> List[str]:
        """The atoms of class ``name``: its leaf descendants (or itself),
        in insertion order.  Walks the cone directly — O(cone) instead of
        a full-width bitset scan, and never forces the mask build."""
        self._require(name)
        ins_rank = self._order()[2]
        leaves = [
            node
            for node in self.downward_closure((name,))
            if not self._children[node]
        ]
        leaves.sort(key=ins_rank.__getitem__)
        return leaves

    def topological_order(self) -> List[str]:
        """A deterministic topological order of the class graph."""
        return list(self._order()[0])

    def topological_rank(self, name: str) -> int:
        """The position of ``name`` in :meth:`topological_order`.

        Ancestors always rank strictly below their descendants, so the
        rank is a ready-made linear-extension sort key.
        """
        self._require(name)
        return self._order()[1][name]

    def topological_ranks(self) -> Dict[str, int]:
        """The full name → :meth:`topological_rank` mapping.

        Callers sorting many items should bind this dict once instead of
        calling :meth:`topological_rank` per value: the per-call version
        check and attribute hops dominate tight sort loops.  Treat the
        returned dict as read-only — it *is* the cache."""
        return self._order()[1]

    def ancestor_masks(self) -> Dict[str, int]:
        """The name → reflexive ancestor bitset mapping, bits indexed by
        :meth:`topological_rank` (the raw form of :meth:`ancestors`).

        Bind it once for batch subsumption tests: the strict subsumers
        of a node are ``masks[name] ^ (1 << rank)``.  Treat the returned
        dict as read-only — it *is* the cache."""
        return self._masks()["anc"]  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # subsumption / reachability
    # ------------------------------------------------------------------

    def subsumes(self, general: str, specific: str) -> bool:
        """True iff ``specific`` ⊆ ``general`` (reflexive)."""
        self._require(general)
        self._require(specific)
        masks = self._masks()
        return bool(masks["desc"][general] >> masks["rank"][specific] & 1)

    def strictly_subsumes(self, general: str, specific: str) -> bool:
        """True iff ``specific`` ⊂ ``general`` (irreflexive)."""
        return general != specific and self.subsumes(general, specific)

    def binding_subsumes(self, general: str, specific: str) -> bool:
        """Subsumption in the binding order (class edges plus preference
        edges).  Identical to :meth:`subsumes` when no preference edges
        exist."""
        self._require(general)
        self._require(specific)
        masks = self._masks()
        return bool(masks["bind_desc"][general] >> masks["rank"][specific] & 1)

    def descendants(self, name: str, include_self: bool = True) -> Set[str]:
        self._require(name)
        masks = self._masks()
        mask = masks["desc"][name]
        if not include_self:
            mask &= ~(1 << masks["rank"][name])
        return self._unpack(mask)

    def ancestors(self, name: str, include_self: bool = True) -> Set[str]:
        self._require(name)
        masks = self._masks()
        mask = masks["anc"][name]
        if not include_self:
            mask &= ~(1 << masks["rank"][name])
        return self._unpack(mask)

    def maximal_common_descendants(self, a: str, b: str) -> List[str]:
        """The *meet set* of ``a`` and ``b``: common descendants with no
        strictly more general common descendant.

        This is the set the conflict machinery (section 3.1) probes for
        intersection evidence, and the building block of the
        multi-attribute *maximal conflict-resolution set*.  If ``a``
        subsumes ``b`` the result is ``[b]``; if the two classes share no
        node the result is empty (the paper's "optimistic" disjointness).

        Answers are memoised per hierarchy version (the *meet table*),
        so algebra sweeps that probe the same value pair across many
        item pairs pay for each component meet exactly once.
        """
        self._require(a)
        self._require(b)
        masks = self._masks()
        if a == b:
            return [a]
        meets: Dict[Tuple[str, str], Tuple[str, ...]] = masks["meets"]  # type: ignore[assignment]
        key = (a, b) if a <= b else (b, a)
        hit = meets.get(key)
        if hit is not None:
            return list(hit)
        desc = masks["desc"]
        da, db = desc[a], desc[b]
        common = da & db
        if not common:
            out: List[str] = []
        elif common == db:  # a subsumes b
            out = [b]
        elif common == da:  # b subsumes a
            out = [a]
        else:
            out = self._maximal_of_mask(common)
        meets[key] = tuple(out)
        return out

    def _maximal_of_mask(self, mask: int) -> List[str]:
        """The nodes of a bitset with no strict ancestor in the bitset,
        in topological-rank order (only the set bits are visited)."""
        masks = self._masks()
        order: List[str] = masks["order"]  # type: ignore[assignment]
        anc = masks["anc"]
        out: List[str] = []
        rest = mask
        while rest:
            low = rest & -rest
            node = order[low.bit_length() - 1]
            if anc[node] & mask == low:
                out.append(node)
            rest ^= low
        return out

    def meet_capable(self) -> FrozenSet[str]:
        """The nodes with a (reflexive) descendant that has two or more
        class parents — the only values that can take part in a meet
        that is not already one of its arguments.

        Why: let ``a`` and ``b`` be incomparable and ``m`` one of their
        maximal common descendants.  ``m`` is neither ``a`` nor ``b``,
        so it is entered from a parent below ``a`` and from a parent
        below ``b``; were those the same node it would be a common
        descendant strictly above ``m``.  Hence ``m`` has two parents
        and lies below both ``a`` and ``b``.

        A tree has none.  Cached per hierarchy version; a plain upward
        walk from the multi-parent nodes, so it never forces the bitset
        build in :meth:`_masks`."""
        if self._meet_capable_version == self._version:
            return self._meet_capable_cache
        capable: Set[str] = set()
        stack = [node for node, parents in self._parents.items() if len(parents) > 1]
        while stack:
            node = stack.pop()
            if node not in capable:
                capable.add(node)
                stack.extend(self._parents[node])
        self._meet_capable_cache = frozenset(capable)
        self._meet_capable_version = self._version
        return self._meet_capable_cache

    def meet_closed_values(
        self, values: Iterable[str], stats: Counter | None = None
    ) -> Set[str]:
        """The smallest superset of ``values`` closed under pairwise
        meets (:meth:`maximal_common_descendants`).

        Only :meth:`meet_capable` values can produce a meet outside the
        pool, so the rest are closed as they stand: on a tree the answer
        is ``set(values)`` and the hierarchy is never walked.  The
        capable values go through a bulk bitset sweep rather than a
        quadratic scan of node pairs: each round seeds them onto their
        nodes, sweeps the masks down (:meth:`downward_union`) and back
        up the class graph, so every capable value knows — in one pass
        — exactly which others share a descendant with it.  Only those
        pairs are probed for meets; comparable pairs are skipped
        outright (their meet is the lower value, already pooled).  A
        new meet has two parents, so it is capable and joins the next
        round.

        ``stats``, when given, is a :class:`collections.Counter`
        incremented in place: ``probed`` by the values that entered an
        overlap sweep, ``sweeps`` by the whole-hierarchy walks made (two
        per round: down, then up).
        """
        capable = self.meet_capable()
        pool: Set[str] = set()
        order: List[str] = []  # the capable pool values, first seen first
        for value in values:
            if value not in pool:
                self._require(value)
                pool.add(value)
                if value in capable:
                    order.append(value)
        if len(order) < 2:
            return pool
        desc = self._masks()["desc"]
        start = 0
        while start < len(order):
            frontier = len(order)
            overlap = self._overlap_masks(order)
            if stats is not None:
                stats["probed"] += frontier - start
                stats["sweeps"] += 2
            for j in range(start, frontier):
                vj = order[j]
                dj = desc[vj]
                partners = overlap[vj] & ((1 << j) - 1)
                while partners:
                    low = partners & -partners
                    partners ^= low
                    di = desc[order[low.bit_length() - 1]]
                    common = dj & di
                    if common == dj or common == di:
                        continue  # comparable: the meet is already pooled
                    for node in self._maximal_of_mask(common):
                        if node not in pool:
                            pool.add(node)
                            order.append(node)
            start = frontier
        return pool

    def _overlap_masks(self, values: Sequence[str]) -> Dict[str, int]:
        """For each node, the bitset of ``values`` (by position) sharing
        at least one descendant with it."""
        seed: Dict[str, int] = {}
        for i, value in enumerate(values):
            seed[value] = seed.get(value, 0) | (1 << i)
        return self.overlap_union(seed)

    def overlap_union(self, seed: Dict[str, int]) -> Dict[str, int]:
        """The *overlap* analogue of :meth:`downward_union`: the result
        at each node is the union of the seed masks of every node whose
        descendant cone intersects its own.  One downward sweep pushes
        each seed to the nodes it subsumes, one upward sweep unions the
        result back over each node's descendant cone — O(V + E) for what
        would otherwise be a cone-intersection test per (seed, node)
        pair.  This is how the product meet-closure decides which item
        pairs can possibly meet without probing them."""
        down = self.downward_union(seed)
        up: Dict[str, int] = {}
        for node in reversed(self._masks()["order"]):  # type: ignore[arg-type]
            mask = down[node]
            for child in self._children[node]:
                mask |= up[child]
            up[node] = mask
        return up

    def descendant_mask(self, name: str) -> int:
        """The descendant bitset of ``name`` as a Python int; bit ``i``
        is set iff the node of :meth:`topological_rank` ``i`` is a
        (reflexive) descendant.  This is the raw form of
        :meth:`descendants`, exposed for batch algorithms that combine
        many reachability facts without materialising node sets."""
        self._require(name)
        return self._masks()["desc"][name]  # type: ignore[index]

    def downward_union(self, seed: Dict[str, int]) -> Dict[str, int]:
        """Sweep integer bitmasks down the class graph in one pass.

        The result at each node is the union of its own ``seed`` mask
        with the seed masks of *all* its ancestors — i.e. the seeds that
        subsume the node.  One O(V + E) traversal answers what would
        otherwise be a reachability query per (seed, node) pair; the
        bulk truth evaluator uses it to push every stored tuple's bit
        down to each hierarchy node its value subsumes.  Nodes absent
        from ``seed`` contribute the empty mask.  Redundant class edges
        are harmless (union is idempotent); preference edges are
        ignored, matching the applicability order.
        """
        out: Dict[str, int] = {}
        for node in self._masks()["order"]:  # type: ignore[union-attr]
            mask = seed.get(node, 0)
            for parent in self._parents[node]:
                mask |= out[parent]
            out[node] = mask
        return out

    def ancestor_union(self, seed: Dict[str, int], nodes: Iterable[str]) -> Dict[str, int]:
        """:meth:`downward_union` at ``nodes`` only: per node, the union
        of the seed masks of its (reflexive) ancestors.

        Walks up from each node and memoises, so the cost is the upward
        closure of ``nodes`` — for a candidate pool, the pool plus the
        classes above it — not the hierarchy.  The result also holds
        the ancestors visited on the way.
        """
        out: Dict[str, int] = {}
        parents_of = self._parents
        for start in nodes:
            if start in out:
                continue
            stack = [start]
            while stack:
                node = stack[-1]
                mask = seed.get(node, 0)
                for parent in parents_of[node]:
                    above = out.get(parent)
                    if above is None:
                        stack.append(parent)  # finish the parent first
                        break
                    mask |= above
                else:
                    out[node] = mask
                    stack.pop()
        return out

    def redundant_edges(self) -> Set[Tuple[str, str]]:
        """Class edges parallel to a longer path (see the appendix).

        An edge ``p -> v`` is redundant iff some longer ``p`` to ``v``
        path exists; in a DAG that path's last hop enters ``v`` from
        another parent ``q``, so the exact characterisation is: ``p`` is
        a strict ancestor of a sibling parent ``q`` of ``v``.  Only
        multi-parent nodes can carry one, so the scan is free on tree
        hierarchies and never touches the full-width bitsets."""
        if self._redundant_version == self._version:
            return self._redundant_cache
        redundant: Set[Tuple[str, str]] = set()
        for node, parents in self._parents.items():
            if len(parents) < 2:
                continue
            parent_set = set(parents)
            for q in parents:
                seen: Set[str] = set()
                stack = list(self._parents[q])
                while stack:
                    above = stack.pop()
                    if above in seen:
                        continue
                    seen.add(above)
                    if above in parent_set:
                        redundant.add((above, node))
                    stack.extend(self._parents[above])
        self._redundant_cache = redundant
        self._redundant_version = self._version
        return redundant

    def is_transitively_reduced(self) -> bool:
        """True iff the class graph carries no redundant edges — the
        normal form off-path preemption assumes."""
        return not self.redundant_edges()

    def class_graph(self) -> Dict[str, Set[str]]:
        """A copy of the class adjacency (parent -> children)."""
        return {node: set(children) for node, children in self._children.items()}

    def binding_graph(self) -> Dict[str, Set[str]]:
        """A copy of the class adjacency with preference edges merged in."""
        graph = self.class_graph()
        for weaker, stronger in self.preference_edges():
            graph[weaker].add(stronger)
        return graph

    def has_preference_edges(self) -> bool:
        return any(self._pref_children.values())

    @property
    def version(self) -> int:
        """Mutation counter; anything caching against a hierarchy should
        key on ``(id(h), h.version)``."""
        return self._version

    # ------------------------------------------------------------------
    # cones and bulk loading
    # ------------------------------------------------------------------

    def downward_closure(self, values: Iterable[str]) -> Set[str]:
        """Every (reflexive) descendant of any of ``values``: the cones a
        write touched, which :meth:`BulkEvaluator.advanced
        <repro.core.bulk.BulkEvaluator.advanced>` re-sweeps and the
        cone-scoped commit check probes, and the node set
        :meth:`leaves_under` filters.

        A plain graph walk, O(closure): pulling full-width descendant
        bitsets here would cost O(hierarchy) per touched cone."""
        closure: Set[str] = set()
        stack: List[str] = []
        for value in values:
            self._require(value)
            if value not in closure:
                closure.add(value)
                stack.append(value)
        while stack:
            node = stack.pop()
            for child in self._children[node]:
                if child not in closure:
                    closure.add(child)
                    stack.append(child)
        return closure

    @classmethod
    def from_node_table(
        cls,
        name: str,
        root: str,
        nodes: Iterable[Tuple[str, Sequence[str], bool]],
        prefs: Iterable[Tuple[str, str]] = (),
        version: int = 1,
    ) -> "Hierarchy":
        """Bulk-load a node table (snapshot decode): ``(name, parents,
        is_instance)`` triples in insertion order, no listed parents
        meaning the root, and ``version`` the saved mutation counter.

        Every node is created before any parent is linked, so a table
        loads in any order.  It is checked as the per-node API checks,
        with the same typed errors (empty or duplicate name, unknown
        parent, instance parent, cycle), in time linear in the table:
        only a table listing some parent after its child can hold a
        class cycle, and that one is checked by the
        :meth:`topological_order` its first read would compute anyway.
        """
        hierarchy = cls(name, root=root)
        children = hierarchy._children
        parents_of = hierarchy._parents
        instances = hierarchy._instances
        table = list(nodes)
        names = [node for node, _, _ in table]
        children.update({node: set() for node in names})
        if len(children) != len(names) + 1 or not all(names):
            seen = {root}
            for node in names:
                if not node:
                    raise HierarchyError("node name must be non-empty")
                if node in seen:
                    raise DuplicateNodeError(
                        "node {!r} already exists in hierarchy {!r}".format(node, name)
                    )
                seen.add(node)
        hierarchy._insertion.extend(names)
        instances.update(node for node, _, is_instance in table if is_instance)
        # ``parents_of`` holds exactly the nodes linked so far, so a
        # parent missing from it is listed after its child.
        parent_first = True
        for node, parents, _ in table:
            parent_set = set(parents) or {root}
            for parent in parent_set:
                if parent not in parents_of:
                    hierarchy._require(parent)
                    parent_first = False
                children[parent].add(node)
            parents_of[node] = parent_set
        for instance in instances:
            if children[instance]:
                raise _instance_parent_error(min(children[instance]), instance)
        pref_children = hierarchy._pref_children
        pref_parents = hierarchy._pref_parents
        for weaker, stronger in prefs:
            hierarchy._require(weaker)
            hierarchy._require(stronger)
            pref_children.setdefault(weaker, set()).add(stronger)
            pref_parents.setdefault(stronger, set()).add(weaker)
        hierarchy._version = version
        if not parent_first:
            hierarchy._order()  # CycleError on a class cycle
        if pref_children:
            algorithms.topological_order(hierarchy.binding_graph())
        return hierarchy

    def __repr__(self) -> str:
        return "Hierarchy({!r}, {} nodes, {} edges)".format(
            self.name, len(self), sum(len(c) for c in self._children.values())
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _require(self, name: str) -> None:
        if name not in self._children:
            raise UnknownNodeError(
                "unknown node {!r} in hierarchy {!r}".format(name, self.name)
            )

    def _unpack(self, mask: int) -> Set[str]:
        """The nodes of a rank bitset.  Walks the set bits one 64-bit
        word at a time, so the cost follows the mask's population (a
        cone), not the hierarchy; a saturated word — the root's mask is
        nothing else — is one slice of the order list."""
        order: List[str] = self._masks()["order"]  # type: ignore[assignment]
        out: Set[str] = set()
        base = 0
        while mask:
            word = mask & _WORD
            if word == _WORD:
                out.update(order[base : base + 64])
            else:
                while word:
                    low = word & -word
                    out.add(order[base + low.bit_length() - 1])
                    word ^= low
            mask >>= 64
            base += 64
        return out

    def _order(self) -> Tuple[List[str], Dict[str, int], Dict[str, int]]:
        """``(order, rank, insertion_rank)`` — the linear slice of the
        cache.  Separate from :meth:`_masks` so order-only consumers
        (sort keys, cone walks) never pay
        for the quadratic bitset build."""
        if self._order_version == self._version:
            return self._order_cache
        order = algorithms.topological_order(self._children, tie_break=self._insertion)
        rank = {node: i for i, node in enumerate(order)}
        ins_rank = {node: i for i, node in enumerate(self._insertion)}
        self._order_cache = (order, rank, ins_rank)
        self._order_version = self._version
        return self._order_cache

    def _masks(self) -> Dict[str, object]:
        if self._cache_version == self._version:
            return self._cache
        order, rank, _ = self._order()
        desc = self._descendant_masks(self._children, order, rank)
        bind_children = self._children
        if self.has_preference_edges():
            bind_children = self.binding_graph()
            bind_order = algorithms.topological_order(bind_children, tie_break=self._insertion)
            bind_desc = self._descendant_masks(bind_children, bind_order, rank)
        else:
            bind_desc = desc
        anc: Dict[str, int] = {}
        for node in order:
            mask = 1 << rank[node]
            for parent in self._parents[node]:
                mask |= anc[parent]
            anc[node] = mask
        self._cache = {
            "order": order,
            "rank": rank,
            "desc": desc,
            "bind_desc": bind_desc,
            "anc": anc,
            # Meet table: (a, b) value pair -> meet set, filled lazily by
            # maximal_common_descendants and discarded with the rest of
            # the cache whenever the hierarchy version moves.
            "meets": {},
        }
        self._cache_version = self._version
        return self._cache

    @staticmethod
    def _descendant_masks(
        children: Dict[str, Set[str]],
        order: Sequence[str],
        rank: Dict[str, int],
    ) -> Dict[str, int]:
        masks: Dict[str, int] = {}
        for node in reversed(order):
            mask = 1 << rank[node]
            for child in children.get(node, ()):
                mask |= masks[child]
            masks[node] = mask
        return masks
