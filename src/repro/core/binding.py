"""Truth evaluation: subsumption graphs, tuple-binding graphs, justification.

This module turns a bag of signed tuples into answers:

* :func:`truth_of` — the truth value of any item, per section 2.1: "the
  truth value of an item is obtained as the truth value of the tuple
  that binds strongest to it"; mixed strongest binders raise
  :class:`~repro.errors.AmbiguityError`.
* :func:`subsumption_graph` — the relation's subsumption graph (the
  hierarchy with every tuple-less node eliminated), rooted at the
  universal negated tuple; this is the structure `consolidate` walks.
* :func:`binding_graph` — an item's tuple-binding graph (Fig. 1d).
* :func:`justify` — section 3.4's answer-justification feature (Fig. 9):
  which stored tuples were applicable to a query answer and which of
  them decided it.

Functions take any object with ``schema`` (a
:class:`~repro.core.schema.RelationSchema`), ``asserted`` (a mapping
from item to truth value) and ``strategy`` attributes — in practice a
:class:`~repro.core.relation.HRelation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.htuple import HTuple, UNIVERSAL
from repro.core.preemption import PreemptionStrategy
from repro.errors import AmbiguityError
from repro.hierarchy import algorithms
from repro.hierarchy.product import Item


def strongest_binders(
    relation, item: Item, strategy: PreemptionStrategy | None = None
) -> List[HTuple]:
    """The tuples binding strongest to ``item`` (possibly empty).

    The per-item *reference*: one O(relation) subsumption scan and the
    strategy's own construction per call, no cache and no postings.
    :func:`justify` and the property suites compare the engine
    (:mod:`repro.core.bulk`) against it; nothing else should call it."""
    item = relation.schema.check_item(item)
    chosen = strategy if strategy is not None else relation.strategy
    return chosen.strongest_binders(relation.schema.product, relation.asserted, item)


def truth_and_binders(
    relation, item: Item, strategy: PreemptionStrategy | None = None
) -> Tuple[Optional[bool], List[HTuple]]:
    """``(truth, binders)`` without raising: ``truth`` is ``None`` when
    the strongest binders disagree (a conflict), ``False`` when nothing
    applies (the universal negated tuple wins)."""
    binders = strongest_binders(relation, item, strategy)
    if not binders:
        return False, binders
    truths = {b.truth for b in binders}
    if len(truths) == 1:
        return binders[0].truth, binders
    return None, binders


def truth_of(relation, item: Item, strategy: PreemptionStrategy | None = None) -> bool:
    """The truth value of ``item``; raises :class:`AmbiguityError` when
    the ambiguity constraint fails at it."""
    truth, binders = truth_and_binders(relation, item, strategy)
    if truth is None:
        raise AmbiguityError(item, [(b.item, b.truth) for b in binders])
    return truth


# ----------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------


def subsumption_graph(relation) -> Dict[object, Set[object]]:
    """The relation's subsumption graph as ``{node: successors}``.

    Nodes are the asserted items plus :data:`UNIVERSAL`, which feeds
    every node that would otherwise be parentless (section 3.3.1).  On
    transitively-reduced hierarchies the graph is the Hasse diagram of
    the asserted items under subsumption, which is exactly what the
    paper's node-elimination construction produces there; with redundant
    class edges present, the literal elimination procedure runs on the
    union of the asserted items' ancestor cones.
    """
    product = relation.schema.product
    items: List[Item] = sorted(relation.asserted, key=product.topological_key)
    if product.has_redundant_edges() or product.has_preference_edges():
        graph = _eliminated_graph(relation, items)
    else:
        graph = _hasse_graph(product, items)
    # One pass over the edges finds every node with a predecessor; the
    # rest are the roots the universal negated tuple feeds.
    with_predecessor: Set[object] = set()
    for succs in graph.values():
        with_predecessor.update(succs)
    graph[UNIVERSAL] = {node for node in graph if node not in with_predecessor}
    return graph


def _hasse_graph(product, items: List[Item], schema=None) -> Dict[object, Set[object]]:
    """Covering graph of ``items`` under subsumption, via one posting
    sweep per attribute (``bulk.subsumer_masks``) instead of a pairwise
    ``subsumes`` scan: ``i`` covers ``j`` iff ``i`` is minimal among
    ``j``'s strict subsumers."""
    from repro.core import bulk as _bulk

    if schema is None:
        schema = _SchemaView(product)
    subsumers = _bulk.subsumer_masks(schema, items)
    graph: Dict[object, Set[object]] = {item: set() for item in items}
    for j, item in enumerate(items):
        covers = _bulk.minimal_of_mask(subsumers[j], subsumers)
        while covers:
            low = covers & -covers
            graph[items[low.bit_length() - 1]].add(item)
            covers ^= low
    return graph


class _SchemaView:
    """The slice of the schema interface ``bulk.subsumer_masks`` reads
    (just the factor hierarchies), for callers holding only a product."""

    def __init__(self, product) -> None:
        self.hierarchies = product.factors


def _eliminated_graph(relation, items: List[Item]) -> Dict[object, Set[object]]:
    product = relation.schema.product
    merged: Dict[Item, Set[Item]] = {}
    for item in items:
        cone = product.cone_graph(item, binding=True)
        for node, succs in cone.items():
            merged.setdefault(node, set()).update(succs)
    keep = set(items)
    doomed = [node for node in merged if node not in keep]
    rank = {n: i for i, n in enumerate(algorithms.topological_order(merged))}
    for node in sorted(doomed, key=rank.__getitem__):
        algorithms.eliminate_node(merged, node, keep_redundant=False)
    return {node: set(succs) for node, succs in merged.items()}


def binding_graph(relation, item: Item) -> Dict[object, Set[object]]:
    """The tuple-binding graph for ``item`` (Fig. 1d).

    Nodes are the asserted items applicable to ``item`` plus the item
    itself; edges reflect binding strength under the relation's
    preemption strategy.  The item's immediate predecessors are its
    strongest binders.
    """
    product = relation.schema.product
    item = relation.schema.check_item(item)
    applicable = [
        t.item
        for t in relation.strategy.applicable(product, relation.asserted, item)
        if t.item != item
    ]
    graph = product.cone_graph(item, binding=True)
    keep = set(applicable) | {item}
    keep_redundant = relation.strategy.name == "on-path"
    doomed = [node for node in graph if node not in keep]
    rank = {n: i for i, n in enumerate(algorithms.topological_order(graph))}
    for node in sorted(doomed, key=rank.__getitem__):
        algorithms.eliminate_node(graph, node, keep_redundant=keep_redundant)
    if relation.strategy.name == "none":
        # No preemption: the transitive closure makes every applicable
        # tuple an immediate predecessor of the item.
        closure = algorithms.transitive_closure(graph)
        for node in applicable:
            if item in closure[node]:
                graph[node].add(item)
    return graph


# ----------------------------------------------------------------------
# justification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Justification:
    """Why an item has the truth value it has (section 3.4, Fig. 9).

    Attributes
    ----------
    item:
        The item asked about.
    truth:
        Its truth value, or ``None`` if the strongest binders conflict.
    deciders:
        The strongest-binding tuples (empty means the universal negated
        tuple decided, i.e. nothing applies).
    applicable:
        Every stored tuple applicable to the item, most specific first —
        the rows Fig. 9b prints.
    graph:
        The tuple-binding graph, for rendering.
    """

    item: Item
    truth: Optional[bool]
    deciders: Tuple[HTuple, ...]
    applicable: Tuple[HTuple, ...]
    graph: Dict[object, Set[object]] = field(hash=False, compare=False, default_factory=dict)

    @property
    def decided_by_default(self) -> bool:
        """True when no stored tuple applies and the closed-world default
        (the universal negated tuple) supplied the answer."""
        return not self.deciders

    def __str__(self) -> str:
        verdict = {True: "true", False: "false", None: "CONFLICT"}[self.truth]
        deciders = ", ".join(str(t) for t in self.deciders) or str(UNIVERSAL)
        return "({}) is {} because of {}".format(", ".join(self.item), verdict, deciders)


def justify(relation, item: Item) -> Justification:
    """Explain the truth value of ``item``: deciders, applicable tuples,
    and the tuple-binding graph."""
    item = relation.schema.check_item(item)
    truth, deciders = truth_and_binders(relation, item)
    applicable = relation.strategy.applicable(
        relation.schema.product, relation.asserted, item
    )
    graph = binding_graph(relation, item)
    return Justification(
        item=item,
        truth=truth,
        deciders=tuple(deciders),
        applicable=tuple(applicable),
        graph=graph,
    )
