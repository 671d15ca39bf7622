"""The flat oracle: flatten, apply the textbook operator, compare.

The paper's guarantee is that a hierarchical relation equals exactly
one flat relation.  Expected answers are therefore computed with
``repro.flat`` on flat inputs that come from the datasets' construction
(plain sets, see :mod:`benchmarks.e2e.datasets`), and an answer that
arrives over the wire as a hierarchical relation is flattened — loaded
into an ``HRelation`` over a local copy of the hierarchy and explicated
— before it is compared.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from benchmarks.e2e import config
from benchmarks.e2e.datasets import Datasets, build_cones, build_grid
from repro.core.relation import HRelation
from repro.flat import algebra as flat_algebra
from repro.flat.relation import FlatRelation, from_hrelation

_FLAT_OPS = {
    "union": flat_algebra.union,
    "intersection": flat_algebra.intersection,
    "difference": flat_algebra.difference,
}


class FlatOracle:
    def __init__(self, datasets: Datasets) -> None:
        self.datasets = datasets
        self._cones_db = build_cones(datasets.cones)
        self._grid_db = build_grid(datasets.grid)
        self._flat: Dict[Tuple[str, Optional[int]], FlatRelation] = {}
        self._expected: Dict[Tuple[str, int, Optional[int]], Set[tuple]] = {}

    def self_check(self) -> Optional[str]:
        """The by-construction sets must be the extensions of the
        relations the server is given, or the oracle itself is wrong."""
        for name in ("left", "right"):
            built = from_hrelation(self._cones_db.relation(name)).rows()
            if built != self.datasets.cones.flat_rows(name):
                return "by-construction rows of {!r} differ from its extension".format(name)
        if from_hrelation(self._grid_db.relation("r")).rows() != self.datasets.grid.flat_rows():
            return "by-construction rows of 'r' differ from its extension"
        return None

    def flat(self, relation: str, retracted: Optional[int]) -> FlatRelation:
        key = (relation, retracted if relation == "left" else None)
        if key not in self._flat:
            self._flat[key] = FlatRelation(
                ["value"], self.datasets.cones.flat_rows(relation, key[1]), name=relation
            )
        return self._flat[key]

    def expected(self, kind: str, arg: int, retracted: Optional[int]) -> Set[tuple]:
        key = (kind, arg if kind == "select" else -1, retracted)
        if key not in self._expected:
            left = self.flat("left", retracted)
            if kind in _FLAT_OPS:
                rows = _FLAT_OPS[kind](left, self.flat("right", None)).rows()
            elif kind == "select":
                members = {
                    "c{}i{}".format(arg, i) for i in range(config.CONES_INSTANCES)
                }
                rows = flat_algebra.select(left, lambda m: m["value"] in members).rows()
            elif kind == "extension":
                rows = left.rows()
            else:
                raise ValueError("no flat operator for {!r}".format(kind))
            self._expected[key] = set(rows)
        return self._expected[key]

    @staticmethod
    def _flatten(template: HRelation, pairs) -> Set[tuple]:
        relation = HRelation(template.schema, name="answer", strategy=template.strategy)
        relation.load_tuples((tuple(item), bool(truth)) for item, truth in pairs)
        return set(relation.extension())

    def check_query(self, kind: str, arg: int, retracted: Optional[int], result) -> Optional[str]:
        """``None`` when the wire result equals the flat answer."""
        label = "{}(arg={}, retracted={})".format(kind, arg, retracted)
        if kind == "conflicts":
            if result.kind != "conflicts" or result.payload:
                return "{} -> {!r}, expected no conflicts".format(label, result.payload)
            return None
        if kind == "extension":
            if result.kind != "extension":
                return "{} -> kind {!r}".format(label, result.kind)
            got = {tuple(row) for row in result.payload}
        else:
            if result.kind != "relation":
                return "{} -> kind {!r}".format(label, result.kind)
            got = self._flatten(self._cones_db.relation("left"), result.payload["tuples"])
        want = self.expected(kind, arg, retracted)
        if got != want:
            return "{} -> {} flat rows, expected {} ({} differ)".format(
                label, len(got), len(want), len(got ^ want)
            )
        return None

    def check_scan(self, rows) -> Optional[str]:
        """The drained cursor, flattened, against the flat selection."""
        grid = FlatRelation(["a", "b"], self.datasets.grid.flat_rows(), name="r")
        cone = {"a{}".format(a) for a in range(config.GRID_C0)}
        want = flat_algebra.select(grid, lambda m: m["a"] in cone).rows()
        got = self._flatten(self._grid_db.relation("r"), rows)
        if got != want:
            return "scan -> {} flat rows, expected {} ({} differ)".format(
                len(got), len(want), len(got ^ want)
            )
        return None
