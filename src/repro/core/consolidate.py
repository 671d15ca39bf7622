"""The ``consolidate`` operator (section 3.3.1).

Consolidation removes *redundant* tuples — tuples carrying the same
truth value as all of their immediate predecessors in the relation's
subsumption graph — without changing the equivalent flat relation.  The
subsumption graph is rooted at the universal negated tuple, so a
parentless negated tuple is redundant too.

The nodes are examined in topologically sorted order; the paper (citing
its companion memorandum [15]) states this achieves the unique minimum
relation with no redundant tuples.  When a tuple is deleted, the
corresponding node is eliminated from the subsumption graph by the node
elimination procedure, so subsequent redundancy tests see the updated
graph — this is what lets both the ``(student, incoherent-teacher)``
tuple *and* the conflict-resolving ``(obsequious-student,
incoherent-teacher)`` tuple of Fig. 6 be removed in one pass.

Implementation.  On normal-form products (no redundant or preference
edges — every hierarchy its own transitive reduction) the graph is the
Hasse diagram of the asserted items, and node elimination preserves
reachability without introducing parallel edges.  The immediate
predecessors of a node in the partially-consolidated graph are then
exactly the *minimal kept strict subsumers* of its item — so the whole
pass runs as one bulk subsumption sweep (:func:`redundancy_sweep`) over
posting bitsets: no graph is built and no node is eliminated.  Products
that need elimination binding fall back to the literal
graph-construction procedure.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core import binding as _binding
from repro.core import bulk as _bulk
from repro.core.htuple import UNIVERSAL
from repro.hierarchy import algorithms
from repro.hierarchy.product import Item


def consolidate(relation, name: str | None = None):
    """Return a copy of ``relation`` with every redundant tuple removed.

    The result has exactly the same flat extension; it is the unique
    minimum representation under the relation's item hierarchy.
    """
    out = relation.copy(name=name or relation.name)
    for item in redundant_tuples(relation):
        out.discard(item)
    return out


def redundant_tuples(relation) -> List[Item]:
    """The items consolidation would remove, in removal order (useful
    for explaining a consolidation without performing it)."""
    product = relation.schema.product
    if product.needs_elimination_binding():
        return _redundant_by_elimination(relation)
    items = product.topological_sort(relation.asserted)
    flags = redundancy_sweep(
        relation.schema, items, [relation.asserted[item] for item in items]
    )
    return [item for item, redundant in zip(items, flags) if redundant]


def redundancy_sweep(
    schema, items: Sequence[Item], truths: Sequence[bool]
) -> List[bool]:
    """One bulk subsumption sweep deciding redundancy for every item.

    ``items`` must be listed in a linear extension of the subsumption
    order (ancestors first) with their truth values; the result flags
    each item the topologically-ordered elimination pass would remove.
    An item is redundant iff its minimal *kept* strict subsumers — the
    immediate predecessors in the partially-consolidated subsumption
    graph — unanimously carry its truth value; with no kept subsumer
    the universal negated tuple is the predecessor.  Valid on
    normal-form products only (the caller gates on
    ``needs_elimination_binding``).
    """
    subsumers = _bulk.subsumer_masks(schema, items)
    kept_true = kept_false = 0  # the kept items so far, by truth value
    bit = 1
    flags: List[bool] = []
    for above, truth in zip(subsumers, truths):
        if truth:
            agree, differ = above & kept_true, above & kept_false
        else:
            agree, differ = above & kept_false, above & kept_true
        if agree and differ:
            # Kept subsumers of both signs: only the minimal ones are
            # predecessors.  (Unanimous ones are decided without it.)
            differ &= _bulk.minimal_of_mask(agree | differ, subsumers)
        if differ:
            same = False
        elif agree:
            same = True
        else:
            same = truth is UNIVERSAL.truth
        flags.append(same)
        if not same:
            if truth:
                kept_true |= bit
            else:
                kept_false |= bit
        bit <<= 1
    return flags


def _redundant_by_elimination(relation) -> List[Item]:
    """The literal procedure: build the subsumption graph, walk it in
    topological order, eliminate each redundant node as it is found."""
    graph = _binding.subsumption_graph(relation)
    order = algorithms.topological_order(graph)
    removed: List[Item] = []
    for node in order:
        if node is UNIVERSAL:
            continue
        truth = relation.asserted[node]
        preds = algorithms.immediate_predecessors(graph, node)
        pred_truths = {
            UNIVERSAL.truth if p is UNIVERSAL else relation.asserted[p]
            for p in preds
        }
        if pred_truths == {truth}:
            algorithms.eliminate_node(graph, node, keep_redundant=False)
            removed.append(node)
    return removed
