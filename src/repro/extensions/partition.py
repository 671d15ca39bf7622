"""Partition and covering declarations (section 3.2).

Two redundancy patterns the base model *cannot* detect without extra
expressive power:

* Fig. 5: a class C contained in the **union** of A and B — "without a
  notion of union … it is not possible to express the fact that C is a
  subset of A union B", so a tuple on C is never considered redundant.
* The dual: C **partitioned** into A and B ("every instance of C is an
  instance of at least one of A or B") — "if there are tuples t_A and
  t_B defined for the sets A and B, then a tuple t_C is redundant, in
  that it is always overridden by one or the other".

:class:`PartitionRegistry` records such declarations, and
:func:`consolidate_with_partitions` extends consolidation to use them.
Every declaration is validated against the hierarchy (each part must be
a subclass of the whole) and, because membership can drift as the
hierarchy grows, each candidate removal is *verified*: the tuple is
dropped only if the relation's extension over the whole's cone is
unchanged — exactly the caution the paper voices ("if such a fact is
true … at some point in time, there is no guarantee that it will remain
true").
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.core.consolidate import consolidate as _consolidate
from repro.core.relation import HRelation
from repro.errors import HierarchyError
from repro.hierarchy.graph import Hierarchy


class PartitionRegistry:
    """Declared coverings: ``whole ⊆ part₁ ∪ … ∪ partₖ`` per hierarchy.

    ``exhaustive=True`` (a partition) additionally promises the parts
    are subclasses of the whole that jointly exhaust it; a plain
    covering (Fig. 5's Venn diagram) only promises containment in the
    union.  Both enable the same consolidation rule here because
    removals are verified against the actual extension.
    """

    def __init__(self) -> None:
        self._coverings: Dict[int, List[Tuple[str, Tuple[str, ...]]]] = {}

    def declare(
        self,
        hierarchy: Hierarchy,
        whole: str,
        parts: Sequence[str],
        exhaustive: bool = True,
    ) -> None:
        if len(parts) < 2:
            raise HierarchyError("a covering needs at least two parts")
        for node in (whole, *parts):
            if node not in hierarchy:
                raise HierarchyError(
                    "unknown node {!r} in hierarchy {!r}".format(node, hierarchy.name)
                )
        if exhaustive:
            for part in parts:
                if not hierarchy.subsumes(whole, part):
                    raise HierarchyError(
                        "partition part {!r} is not a subclass of {!r}".format(
                            part, whole
                        )
                    )
            covered: Set[str] = set()
            for part in parts:
                covered |= set(hierarchy.leaves_under(part))
            missing = set(hierarchy.leaves_under(whole)) - covered
            if missing:
                raise HierarchyError(
                    "parts do not exhaust {!r}: missing {}".format(
                        whole, sorted(missing)
                    )
                )
        self._coverings.setdefault(id(hierarchy), []).append((whole, tuple(parts)))

    def coverings_for(self, hierarchy: Hierarchy) -> List[Tuple[str, Tuple[str, ...]]]:
        return list(self._coverings.get(id(hierarchy), ()))


def consolidate_with_partitions(
    relation: HRelation, registry: PartitionRegistry, name: str | None = None
) -> HRelation:
    """Partition-aware removals, then standard consolidation.

    For every tuple whose value on some attribute is a declared whole,
    if every part carries its own asserted tuple (same item elsewhere),
    tentatively drop the whole's tuple and keep the drop only when the
    flat extension over the whole's cone is unchanged.  This pass runs
    *before* the ordinary one: standard consolidation would otherwise
    remove the parts' tuples as redundant under the whole first — the
    very trap §3.2 warns about for conflict-resolving tuples.
    """
    out = relation.copy(name=name or relation.name)
    changed = True
    while changed:
        changed = False
        for item in list(out.items()):
            for index, hierarchy in enumerate(out.schema.hierarchies):
                for whole, parts in registry.coverings_for(hierarchy):
                    if item[index] != whole:
                        continue
                    part_items = [
                        item[:index] + (part,) + item[index + 1:] for part in parts
                    ]
                    if not all(p in out.asserted for p in part_items):
                        continue
                    if _cone_extension_unchanged(out, item):
                        out.retract(item)
                        changed = True
                        break
                if changed:
                    break
            if changed:
                break
    return _consolidate(out, name=name or relation.name)


def _cone_extension_unchanged(relation: HRelation, item) -> bool:
    """Would retracting ``item`` leave every atom under it unchanged?"""
    trial = relation.copy(name="trial")
    trial.retract(item)
    for atom in relation.schema.product.leaves_under(item):
        try:
            before = relation.truth_of(atom)
            after = trial.truth_of(atom)
        except Exception:
            return False
        if before != after:
            return False
    # Removing a tuple can also surface new conflicts elsewhere; verify.
    return not trial.conflicts()
