"""Product (item) hierarchies — section 2.2.

An *item* of a multi-attribute relation is one node from each attribute's
hierarchy; the item hierarchy is the cartesian product of the attribute
hierarchy graphs, with an edge between two items iff they differ in
exactly one attribute and that attribute's values are joined by an edge.

The product graph grows geometrically with the number of attributes, and
the paper is explicit that its model avoids "an attendant geometric
growth" — so this class never materialises the product.  All queries
(subsumption, meets, parents, leaves) are answered componentwise; only
the *ancestor cone* of a single item is ever built explicitly, and only
by the slow node-elimination binding path, because that cone is the
product of per-attribute ancestor sets (small in practice).

Structural facts used throughout (proved componentwise):

* item ``a`` subsumes item ``b`` iff every component of ``a`` subsumes
  the corresponding component of ``b``;
* the meet set (maximal common descendants) of two items is the cartesian
  product of the per-attribute meet sets, and is empty iff any attribute's
  meet set is empty — the paper's optimistic disjointness;
* the product graph is transitively reduced iff every factor is: every
  product edge steps strictly down in exactly one component, so a
  parallel path can never leave the other components' values.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.errors import SchemaError, UnknownNodeError
from repro.hierarchy.graph import Hierarchy

Item = Tuple[str, ...]


class ProductHierarchy:
    """The lazily-evaluated cartesian product of attribute hierarchies."""

    def __init__(self, factors: Sequence[Hierarchy]) -> None:
        if not factors:
            raise SchemaError("a product hierarchy needs at least one factor")
        self.factors: Tuple[Hierarchy, ...] = tuple(factors)

    @property
    def arity(self) -> int:
        return len(self.factors)

    @property
    def top(self) -> Item:
        """The root item: the tuple of the factor roots (the full domain D*)."""
        return tuple(h.root for h in self.factors)

    @property
    def version(self) -> Tuple[int, ...]:
        return tuple(h.version for h in self.factors)

    # ------------------------------------------------------------------
    # membership / validation
    # ------------------------------------------------------------------

    def check_item(self, item: Sequence[str]) -> Item:
        """Validate arity and per-attribute node existence; return a tuple."""
        values = tuple(item)
        if len(values) != self.arity:
            raise SchemaError(
                "item {} has arity {}, expected {}".format(values, len(values), self.arity)
            )
        for value, hierarchy in zip(values, self.factors):
            if value not in hierarchy:
                raise UnknownNodeError(
                    "unknown node {!r} in hierarchy {!r}".format(value, hierarchy.name)
                )
        return values

    def __contains__(self, item: object) -> bool:
        try:
            self.check_item(item)  # type: ignore[arg-type]
        except (SchemaError, UnknownNodeError, TypeError):
            return False
        return True

    # ------------------------------------------------------------------
    # order
    # ------------------------------------------------------------------

    def subsumes(self, general: Item, specific: Item) -> bool:
        """Reflexive componentwise subsumption: ``specific ⊆ general``."""
        return all(
            h.subsumes(g, s) for h, g, s in zip(self.factors, general, specific)
        )

    def strictly_subsumes(self, general: Item, specific: Item) -> bool:
        return general != specific and self.subsumes(general, specific)

    def binding_subsumes(self, general: Item, specific: Item) -> bool:
        """Subsumption in the binding order (preference edges included)."""
        return all(
            h.binding_subsumes(g, s) for h, g, s in zip(self.factors, general, specific)
        )

    def is_leaf(self, item: Item) -> bool:
        """True iff the item is *atomic*: every component is a leaf."""
        return all(h.is_leaf(v) for h, v in zip(self.factors, item))

    def meet(self, a: Item, b: Item) -> List[Item]:
        """The maximal common descendants of items ``a`` and ``b``.

        Componentwise: the cartesian product of per-attribute meet sets;
        empty as soon as any attribute pair shares no descendant.  Each
        component meet is a lookup in the factor's memoised meet table
        after the first probe of that value pair.
        """
        per_attribute: List[List[str]] = []
        for h, va, vb in zip(self.factors, a, b):
            meets = h.maximal_common_descendants(va, vb)
            if not meets:
                return []
            per_attribute.append(meets)
        return [tuple(combo) for combo in itertools.product(*per_attribute)]

    def meet_closure(
        self, items: Iterable[Item], stats: Counter | None = None
    ) -> Set[Item]:
        """The smallest superset of ``items`` closed under pairwise meets.

        Unary products delegate to the factor's closed-value-set routine
        (:meth:`Hierarchy.meet_closed_values`): no item pairs are
        enumerated at all, and only meet-capable values are swept.
        Higher arities probe only the pairs that can possibly meet: each
        round, one :meth:`Hierarchy.overlap_union` sweep per attribute
        tells every pool item which earlier items share a descendant
        with it on that attribute, and the AND across attributes is
        exactly the pairs with a non-empty product meet.  (Two items
        comparable on every attribute, in opposite directions, meet in a
        third, so the meet-capable shortcut does not carry over.)
        Disjoint-heavy pools (stored relations mostly are) therefore
        cost O(attributes · (V + E)) per round instead of a quadratic
        pair scan, and each surviving probe hits the factors' memoised
        meet tables.

        ``stats`` is incremented as :meth:`Hierarchy.meet_closed_values`
        describes.
        """
        pool: Set[Item] = set(items)
        if not pool:
            return pool
        if self.arity == 1:
            factor = self.factors[0]
            closed = factor.meet_closed_values((v for (v,) in pool), stats)
            if len(closed) == len(pool):  # nothing met: the items are the closure
                return pool
            return {(value,) for value in closed}
        order: List[Item] = list(pool)
        start = 0
        while start < len(order):
            frontier = len(order)
            partner_masks = self._partner_masks(order)
            if stats is not None:
                stats["probed"] += frontier - start
                stats["sweeps"] += 2 * self.arity
            for j in range(start, frontier):
                new = order[j]
                partners = partner_masks[j] & ((1 << j) - 1)
                while partners:
                    low = partners & -partners
                    partners ^= low
                    for met in self.meet(new, order[low.bit_length() - 1]):
                        if met not in pool:
                            pool.add(met)
                            order.append(met)
            start = frontier
        return pool

    def _partner_masks(self, items: Sequence[Item]) -> List[int]:
        """Per item, the bitset of ``items`` whose meet with it can be
        non-empty: the AND over attributes of the overlap-union masks at
        the item's component values."""
        out: List[int] = []
        for position, factor in enumerate(self.factors):
            seed: Dict[str, int] = {}
            for i, item in enumerate(items):
                value = item[position]
                seed[value] = seed.get(value, 0) | (1 << i)
            overlap = factor.overlap_union(seed)
            if position == 0:
                out = [overlap[item[0]] for item in items]
            else:
                for i, item in enumerate(items):
                    out[i] &= overlap[item[position]]
        return out

    def topological_key(self, item: Item):
        """A sort key realising a linear extension of the subsumption
        order: ancestors always sort before descendants.

        Per attribute a topological rank puts every ancestor before its
        descendants; comparing the rank tuples lexicographically therefore
        orders ``a`` before ``b`` whenever ``a`` strictly subsumes ``b``.
        """
        return tuple(h.topological_rank(v) for h, v in zip(self.factors, item))

    def topological_sort(
        self, items: Iterable[Item], reverse: bool = False
    ) -> List[Item]:
        """``sorted(items, key=self.topological_key)``, with the
        per-factor rank dicts bound once up front.  Use this on hot
        paths: :meth:`topological_key` re-resolves every factor's rank
        table per item, which dominates large candidate sorts."""
        ranks = [h.topological_ranks() for h in self.factors]
        if self.arity == 1:
            first = ranks[0]
            key = lambda item: first[item[0]]  # noqa: E731
        else:
            key = lambda item: tuple(  # noqa: E731
                rank[value] for rank, value in zip(ranks, item)
            )
        return sorted(items, key=key, reverse=reverse)

    # ------------------------------------------------------------------
    # neighbourhood / cones
    # ------------------------------------------------------------------

    def parents(self, item: Item) -> List[Item]:
        """Immediate predecessors of ``item`` in the product graph."""
        out: List[Item] = []
        for i, (h, v) in enumerate(zip(self.factors, item)):
            for parent in sorted(h.parents(v)):
                out.append(item[:i] + (parent,) + item[i + 1:])
        return out

    def children(self, item: Item) -> List[Item]:
        """Immediate successors of ``item`` in the product graph."""
        out: List[Item] = []
        for i, (h, v) in enumerate(zip(self.factors, item)):
            for child in sorted(h.children(v)):
                out.append(item[:i] + (child,) + item[i + 1:])
        return out

    def ancestors_or_self(self, item: Item) -> Iterator[Item]:
        """Every item subsuming ``item``: the product of per-attribute
        ancestor sets.  Beware: the cone size is the product of the
        per-attribute cone sizes."""
        cones = [sorted(h.ancestors(v)) for h, v in zip(self.factors, item)]
        return (tuple(combo) for combo in itertools.product(*cones))

    def cone_size(self, item: Item) -> int:
        """``len(list(self.ancestors_or_self(item)))`` without enumerating."""
        size = 1
        for h, v in zip(self.factors, item):
            size *= len(h.ancestors(v))
        return size

    def leaves_under(self, item: Item) -> Iterator[Item]:
        """The atomic items of ``item``'s cone (the extension of the class)."""
        per_attribute = [h.leaves_under(v) for h, v in zip(self.factors, item)]
        return (tuple(combo) for combo in itertools.product(*per_attribute))

    def count_leaves_under(self, item: Item) -> int:
        """The extension size of ``item`` without enumerating it."""
        count = 1
        for h, v in zip(self.factors, item):
            count *= len(h.leaves_under(v))
        return count

    def all_leaves(self) -> Iterator[Item]:
        """Every atomic item of the whole domain D*."""
        return self.leaves_under(self.top)

    def all_items(self) -> Iterator[Item]:
        """Every item of D* (use only on small universes, e.g. test oracles)."""
        per_attribute = [h.nodes() for h in self.factors]
        return (tuple(combo) for combo in itertools.product(*per_attribute))

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    def has_redundant_edges(self) -> bool:
        return any(not h.is_transitively_reduced() for h in self.factors)

    def has_preference_edges(self) -> bool:
        return any(h.has_preference_edges() for h in self.factors)

    def needs_elimination_binding(self) -> bool:
        """True when binding must run the full node-elimination procedure
        (redundant or preference edges present) instead of the fast
        subsumption-order shortcut."""
        return self.has_redundant_edges() or self.has_preference_edges()

    def cone_graph(self, item: Item, binding: bool = True) -> Dict[Item, Set[Item]]:
        """The induced product graph on ``ancestors_or_self(item)``.

        ``binding=True`` merges in preference edges (per factor).  This
        is the graph the node-elimination binding path works on; it is
        the only place the product structure is materialised.
        """
        if binding:
            adjacency = [h.binding_graph() for h in self.factors]
            cones = [
                self._binding_ancestors(h, adj, v)
                for h, adj, v in zip(self.factors, adjacency, item)
            ]
        else:
            adjacency = [h.class_graph() for h in self.factors]
            cones = [h.ancestors(v) for h, v in zip(self.factors, item)]
        nodes = [tuple(combo) for combo in itertools.product(*[sorted(c) for c in cones])]
        node_set = set(nodes)
        graph: Dict[Item, Set[Item]] = {node: set() for node in nodes}
        for node in nodes:
            for i, value in enumerate(node):
                for child in adjacency[i].get(value, ()):
                    succ = node[:i] + (child,) + node[i + 1:]
                    if succ in node_set:
                        graph[node].add(succ)
        return graph

    @staticmethod
    def _binding_ancestors(h: Hierarchy, adjacency: Dict[str, Set[str]], value: str) -> Set[str]:
        """Ancestors of ``value`` in the binding graph (class + preference)."""
        if not h.has_preference_edges():
            return h.ancestors(value)
        reverse: Dict[str, Set[str]] = {}
        for parent, children in adjacency.items():
            for child in children:
                reverse.setdefault(child, set()).add(parent)
        seen = {value}
        stack = [value]
        while stack:
            node = stack.pop()
            for parent in reverse.get(node, ()):
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return seen

    def __repr__(self) -> str:
        return "ProductHierarchy({})".format(", ".join(h.name for h in self.factors))
