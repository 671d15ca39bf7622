"""Per-relation statistics, maintained incrementally from delta logs.

One :class:`RelationStats` snapshot per relation records:

* stored-tuple / positive / negative counts;
* per-attribute distinct-value multisets (how many stored tuples use
  each hierarchy value on each position);
* ``est_extension`` — the summed leaf count under the positive tuples'
  cones (:meth:`ProductHierarchy.count_leaves_under` per tuple).  It
  overcounts overlapping cones deliberately: as a *coverage* proxy for
  "how likely is this relation to answer true at a random candidate"
  the overlap does not matter, only the relative magnitudes do.

Snapshots refresh lazily on access.  A refresh first tries the
relation's delta log (:meth:`HRelation.changes_since`): each changed
item is diffed against a mirrored copy of the asserted map and only its
contribution is patched — O(changed) instead of O(tuples).  A trimmed
log (more than ``delta_log_limit`` writes since the last look) or a
hierarchy version bump falls back to a full rebuild.  The property
suite pins the equivalence: stats patched through any delta sequence
equal stats rebuilt from scratch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

_ABSENT = object()


class RelationStats:
    """The statistics snapshot for one relation (see module docstring)."""

    def __init__(self, relation) -> None:
        self._relation = relation
        self._leaf_counts: List[Dict[str, int]] = [
            {} for _ in relation.schema.hierarchies
        ]
        self._rebuild()

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------

    def _rebuild(self) -> None:
        relation = self._relation
        self.tuples = 0
        self.positives = 0
        self.negatives = 0
        self.est_extension = 0
        #: per attribute: stored-tuple count by hierarchy value
        self.value_counts: List[Dict[str, int]] = [
            {} for _ in relation.schema.hierarchies
        ]
        self._mirror: Dict[Tuple[str, ...], bool] = {}
        for item, truth in relation.asserted.items():
            self._add(item, truth)
        self._version = relation.version
        self._product_version = tuple(relation.schema.product.version)

    def _leaves(self, item: Tuple[str, ...]) -> int:
        count = 1
        for position, (hierarchy, value) in enumerate(
            zip(self._relation.schema.hierarchies, item)
        ):
            memo = self._leaf_counts[position]
            per_value = memo.get(value)
            if per_value is None:
                per_value = memo[value] = len(hierarchy.leaves_under(value))
            count *= per_value
        return count

    def _add(self, item: Tuple[str, ...], truth: bool) -> None:
        self.tuples += 1
        if truth:
            self.positives += 1
            self.est_extension += self._leaves(item)
        else:
            self.negatives += 1
        for position, value in enumerate(item):
            counts = self.value_counts[position]
            counts[value] = counts.get(value, 0) + 1
        self._mirror[item] = truth

    def _remove(self, item: Tuple[str, ...], truth: bool) -> None:
        self.tuples -= 1
        if truth:
            self.positives -= 1
            self.est_extension -= self._leaves(item)
        else:
            self.negatives -= 1
        for position, value in enumerate(item):
            counts = self.value_counts[position]
            remaining = counts.get(value, 0) - 1
            if remaining > 0:
                counts[value] = remaining
            else:
                counts.pop(value, None)
        self._mirror.pop(item, None)

    # ------------------------------------------------------------------
    # refresh
    # ------------------------------------------------------------------

    @property
    def fresh(self) -> bool:
        relation = self._relation
        return (
            self._version == relation.version
            and self._product_version == tuple(relation.schema.product.version)
        )

    def refresh(self) -> "RelationStats":
        relation = self._relation
        if self._product_version != tuple(relation.schema.product.version):
            # A hierarchy mutation moves leaf counts under every value;
            # no per-item patch can be sound.
            self._leaf_counts = [{} for _ in relation.schema.hierarchies]
            self._rebuild()
            return self
        if self._version == relation.version:
            return self
        changed = relation.changes_since(self._version)
        if changed is None:
            self._rebuild()
            return self
        for item in changed:
            now = relation.asserted.get(item, _ABSENT)
            before = self._mirror.get(item, _ABSENT)
            if now is before:
                continue
            if before is not _ABSENT:
                self._remove(item, before)
            if now is not _ABSENT:
                self._add(item, now)
        self._version = relation.version
        return self

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def distinct(self, position: int) -> int:
        return len(self.value_counts[position])

    def coverage(self) -> int:
        """The ordering weight: estimated atoms answered *true*."""
        return self.est_extension

    def snapshot(self) -> Dict[str, object]:
        """A comparable value summary (the property suite diffs a
        delta-patched snapshot against a from-scratch rebuild)."""
        return {
            "tuples": self.tuples,
            "positives": self.positives,
            "negatives": self.negatives,
            "est_extension": self.est_extension,
            "values": tuple(
                tuple(sorted(counts.items())) for counts in self.value_counts
            ),
        }

    def __repr__(self) -> str:
        return "RelationStats({} tuples, {} positive, ~{} atoms)".format(
            self.tuples, self.positives, self.est_extension
        )


def stats_for(relation) -> RelationStats:
    """The cached, auto-refreshed stats snapshot for ``relation``
    (attached to the relation like its bulk evaluator)."""
    stats: Optional[RelationStats] = getattr(relation, "_planner_stats", None)
    if stats is None or stats._relation is not relation:
        stats = RelationStats(relation)
        relation._planner_stats = stats
        return stats
    return stats.refresh()
