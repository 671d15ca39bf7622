"""The ``explicate`` operator (section 3.3.2).

Explication flattens a relation — wholly, or over a chosen subset of its
attributes — to the unique extension in which the chosen attributes
carry only atomic values.  It is the inverse direction of condensation,
"useful when a count, average, or other statistical operation is to be
performed over the relation".

Algorithm (verbatim from the paper): traverse the relation subsumption
graph in reverse topologically sorted order; for the tuple at each node,
enumerate the membership of the classes valued in the attributes to be
explicated; insert each enumerated tuple into the result unless a tuple
for the same item was already inserted.  First-writer-wins is sound
because the traversal order puts every more specific tuple first, so for
any atom the first applicable writer is one of its minimal binders —
which, in a consistent relation, all agree.

After a *full* explication every negated tuple in the result is
redundant (the subsumption graph degenerates into isolated atoms under
the universal negated root), so they are dropped by default; after a
*partial* explication the negated tuples still cancel class-valued
tuples on the untouched attributes and are retained.

A full explication that drops negated tuples is exactly the flat
extension, so it is served by the bulk truth evaluator
(:mod:`repro.core.bulk`): one subsumption sweep, then a bitset lookup
per atom — and the negative tuples' cones are never enumerated at all
(any true atom below a negative tuple lies below its positive
counter-binder too).  A relation that turns out to be inconsistent
falls back to the writer-order algorithm so the historical output is
preserved; partial explications always use it.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence

from repro.errors import SchemaError
from repro.hierarchy.product import Item


def explicate(
    relation,
    attributes: Sequence[str] | None = None,
    drop_negated: bool | None = None,
    name: str | None = None,
):
    """Flatten ``relation`` over ``attributes`` (default: all of them).

    Parameters
    ----------
    attributes:
        The attributes whose values must become atomic.  ``None`` means
        every attribute — a full explication to the flat extension.
    drop_negated:
        Whether to drop negated result tuples.  Defaults to ``True`` for
        a full explication (where they are provably redundant) and
        ``False`` for a partial one (where they are not).
    """
    schema = relation.schema
    if attributes is None:
        chosen = list(schema.attributes)
    else:
        chosen = list(attributes)
        for attribute in chosen:
            schema.index_of(attribute)
        if len(set(chosen)) != len(chosen):
            raise SchemaError("duplicate attributes in explicate: {}".format(chosen))
    full = set(chosen) == set(schema.attributes)
    if drop_negated is None:
        drop_negated = full
    if full and drop_negated:
        atoms = _bulk_extension(relation)
        if atoms is not None:
            out = relation.copy(name=name or relation.name)
            out.clear()
            for atom in atoms:
                out.assert_item(atom, truth=True)
            return out
    explicated_indices = {schema.index_of(a) for a in chosen}

    ordered = schema.product.topological_sort(relation.asserted, reverse=True)
    result: Dict[Item, bool] = {}
    insertion: List[Item] = []
    for item in ordered:
        truth = relation.asserted[item]
        expansions: List[List[str]] = []
        for index, value in enumerate(item):
            if index in explicated_indices:
                expansions.append(schema.hierarchies[index].leaves_under(value))
            else:
                expansions.append([value])
        for combo in itertools.product(*expansions):
            if combo not in result:
                result[combo] = truth
                insertion.append(combo)

    out = relation.copy(name=name or relation.name)
    out.clear()
    for item in insertion:
        truth = result[item]
        if drop_negated and not truth:
            continue
        out.assert_item(item, truth=truth)
    return out


def _bulk_extension(relation) -> List[Item] | None:
    """The positive atoms of ``relation`` via the bulk evaluator, in a
    deterministic most-specific-writer-first order, or ``None`` when a
    conflicted atom demands the legacy writer-order fallback."""
    from repro.core import bulk

    evaluator = bulk.evaluator_for(relation)
    product = relation.schema.product
    ordered = product.topological_sort(
        (item for item, truth in relation.asserted.items() if truth),
        reverse=True,
    )
    atoms: List[Item] = []
    seen = set()
    for item in ordered:
        for atom in product.leaves_under(item):
            if atom in seen:
                continue
            seen.add(atom)
            truth = evaluator.truth(atom)
            if truth is None:
                return None
            if truth:
                atoms.append(atom)
    return atoms


def extension_relation(relation, name: str | None = None):
    """The equivalent flat relation as an :class:`HRelation`: a full
    explication with negated tuples dropped.  Sugar used all over the
    test oracle."""
    return explicate(relation, attributes=None, drop_negated=True, name=name)
