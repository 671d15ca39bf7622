"""Preemption semantics: which applicable tuple binds strongest.

The body of the paper uses *off-path preemption*: a tuple ``i`` binds
more strongly to an item than a tuple ``j`` iff there is a path from
``j`` to ``i`` in the (item) hierarchy — i.e. ``i`` is the more specific
assertion — in addition to both being applicable.  The appendix defines
two alternatives, *on-path preemption* ("every path from ``j`` to the
item must pass through ``i``") and *no preemption* (all applicable
tuples bind equally), and notes that arbitrary preference rules can be
grafted on via special hierarchy edges after which off-path semantics
apply.

All three are implemented as interchangeable :class:`PreemptionStrategy`
objects.  Per the appendix, "all the relational operations, both the
standard ones and the new ones, stay the same.  The difference arises
only in the construction of … the tuple binding graph" — so the strategy
is a property of a relation, consulted by the binding machinery and by
nothing else.

Implementation notes
--------------------
* **Fast path (off-path).**  When every attribute hierarchy is
  transitively reduced — the normal form the appendix prescribes for
  off-path preemption — the strongest binders of an item are simply the
  *minimal* applicable asserted items in the binding order.  No graph is
  materialised.
* **Slow path.**  When a hierarchy carries redundant class edges (the
  appendix's "Pamela is a Penguin" link), off-path falls back to the
  paper's literal mechanism: build the induced product graph on the
  item's ancestor cone and run the node-elimination procedure on every
  non-asserted node; the item's immediate predecessors are the
  strongest binders.  On-path preemption always uses this mechanism,
  with redundant edges *kept* during elimination, exactly as the
  appendix prescribes.
* **Preference edges** participate in the binding order (they are merged
  into the binding graph / binding subsumption) but never in
  applicability: a tuple applies to an item only if its item
  set-subsumes it.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.core.htuple import HTuple
from repro.hierarchy import algorithms
from repro.hierarchy.product import Item, ProductHierarchy


def _relevant(
    product: ProductHierarchy,
    asserted: Mapping[Item, bool],
    item: Item,
    supplied: Sequence[Item] | None,
) -> List[Item]:
    """The asserted items strictly applicable to ``item``.

    ``supplied`` lets the caller hand over a precomputed subsumer list
    (the items of a :class:`~repro.core.bulk.BulkEvaluator`
    applicability mask) instead of the O(relation) scan.
    """
    if supplied is not None:
        return [other for other in supplied if other != item]
    return [
        other for other in asserted if other != item and product.subsumes(other, item)
    ]


class PreemptionStrategy:
    """Base class; subclasses implement :meth:`strongest_binders`."""

    name = "abstract"

    def strongest_binders(
        self,
        product: ProductHierarchy,
        asserted: Mapping[Item, bool],
        item: Item,
        relevant: Sequence[Item] | None = None,
    ) -> List[HTuple]:
        """The tuples that bind strongest to ``item``.

        An empty result means no asserted tuple applies: the universal
        negated tuple wins and the item's truth value defaults to
        ``False``.  A tuple asserted at the item itself always binds
        strongest, whatever the strategy.  ``relevant`` optionally
        supplies the item's asserted subsumers, already computed.
        """
        raise NotImplementedError

    def applicable(
        self,
        product: ProductHierarchy,
        asserted: Mapping[Item, bool],
        item: Item,
        relevant: Sequence[Item] | None = None,
    ) -> List[HTuple]:
        """Every asserted tuple whose item set-subsumes ``item``, in a
        deterministic most-specific-first order.  This is the node set of
        the item's tuple-binding graph."""
        hits = _relevant(product, asserted, item, relevant)
        if item in asserted:
            hits = hits + [item]
        hits.sort(key=product.topological_key, reverse=True)
        return [HTuple(other, asserted[other]) for other in hits]

    def __repr__(self) -> str:
        return "<{} preemption>".format(self.name)


class OffPathPreemption(PreemptionStrategy):
    """The paper's default: more specific assertions win (section 2.1)."""

    name = "off-path"

    def strongest_binders(
        self,
        product: ProductHierarchy,
        asserted: Mapping[Item, bool],
        item: Item,
        relevant: Sequence[Item] | None = None,
    ) -> List[HTuple]:
        if item in asserted:
            return [HTuple(item, asserted[item])]
        applicable = _relevant(product, asserted, item, relevant)
        if not applicable:
            return []
        if product.has_redundant_edges():
            return _eliminate_binders(
                product, asserted, item, applicable, keep_redundant=False
            )
        pool = set(applicable)
        minimal = [
            a
            for a in applicable
            if not any(b != a and product.binding_subsumes(a, b) for b in pool)
        ]
        minimal.sort(key=product.topological_key)
        return [HTuple(other, asserted[other]) for other in minimal]


class OnPathPreemption(PreemptionStrategy):
    """The appendix alternative: ``i`` preempts ``j`` only when every
    path from ``j`` to the item passes through ``i``."""

    name = "on-path"

    def strongest_binders(
        self,
        product: ProductHierarchy,
        asserted: Mapping[Item, bool],
        item: Item,
        relevant: Sequence[Item] | None = None,
    ) -> List[HTuple]:
        if item in asserted:
            return [HTuple(item, asserted[item])]
        applicable = _relevant(product, asserted, item, relevant)
        if not applicable:
            return []
        return _eliminate_binders(
            product, asserted, item, applicable, keep_redundant=True
        )


class NoPreemption(PreemptionStrategy):
    """The appendix's most conservative option: a conflict is declared
    whenever two applicable tuples disagree, however specific either is.
    Equivalent to binding over the transitive closure of the hierarchy."""

    name = "none"

    def strongest_binders(
        self,
        product: ProductHierarchy,
        asserted: Mapping[Item, bool],
        item: Item,
        relevant: Sequence[Item] | None = None,
    ) -> List[HTuple]:
        if item in asserted:
            return [HTuple(item, asserted[item])]
        return self.applicable(product, asserted, item, relevant)


def _eliminate_binders(
    product: ProductHierarchy,
    asserted: Mapping[Item, bool],
    item: Item,
    relevant: Sequence[Item],
    keep_redundant: bool,
) -> List[HTuple]:
    """The literal tuple-binding-graph mechanism of section 2.1.

    Build the induced product graph on the item's binding ancestor cone,
    eliminate every node that carries no applicable tuple (all but
    ``relevant`` and the item itself), and read off the item's immediate
    predecessors.
    """
    graph = product.cone_graph(item, binding=True)
    keep = set(relevant)
    keep.add(item)
    doomed = [node for node in graph if node not in keep]
    rank = {n: i for i, n in enumerate(algorithms.topological_order(graph))}
    for node in sorted(doomed, key=rank.__getitem__):
        algorithms.eliminate_node(graph, node, keep_redundant=keep_redundant)
    preds = algorithms.immediate_predecessors(graph, item)
    ordered = sorted(preds, key=product.topological_key)
    return [HTuple(node, asserted[node]) for node in ordered]


OFF_PATH = OffPathPreemption()
ON_PATH = OnPathPreemption()
NO_PREEMPTION = NoPreemption()

STRATEGIES: Dict[str, PreemptionStrategy] = {
    OFF_PATH.name: OFF_PATH,
    ON_PATH.name: ON_PATH,
    NO_PREEMPTION.name: NO_PREEMPTION,
}
