"""The two seeded datasets and the data directory a server boots from.

Only public API is used — ``HierarchicalDatabase``, ``Hierarchy``,
``HRelation`` and ``RecoveryManager.checkpoint`` — never
``repro.workloads``, so a later PR cannot change the inputs.

``cones``
    One hierarchy ``h`` of 128 disjoint classes ``cX`` with 32
    instances ``cXiY`` each (4096 leaves), and two unary relations
    ``left`` / ``right``.  Each asserts every class positively and, per
    class, 8 seeded instances negatively — the paper's penguin pattern:
    a class-level rule with instance-level exceptions.  2304 stored
    tuples stand for 2 x 3072 flat rows.

``grid``
    Hierarchies ``ga`` (classes ``c0`` with 246 instances, ``c1`` with
    94) and ``gb`` (10 classes of 34 instances), and one binary relation
    ``r`` of 20 000 stored tuples: four class-level positives under
    ``c1`` and 19 996 seeded instance pairs, every 7th negative.

Alongside the databases this module keeps the *by-construction* truth —
plain Python sets that never touched the engine — from which the flat
oracle is built.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set, Tuple

from benchmarks.e2e import config
from repro.engine.database import HierarchicalDatabase
from repro.server.recovery import RecoveryManager

Key = Tuple[int, int]  # (class index, instance index)


def class_name(c: int) -> str:
    return "c{}".format(c)


def key_name(key: Key) -> str:
    return "c{}i{}".format(key[0], key[1])


@dataclass(frozen=True)
class ConesTruth:
    """What ``cones`` means, independent of the engine."""

    exceptions: Dict[str, FrozenSet[Key]]  # relation -> negative instance keys
    toggle_classes: Tuple[int, ...]  # classes the write streams flip on ``left``

    def flat_rows(self, relation: str, retracted: Optional[int] = None) -> Set[Tuple[str]]:
        """The flat extension of ``relation`` when ``left``'s class-level
        tuple for class ``retracted`` is absent (``None``: all present)."""
        gone = retracted if relation == "left" else None
        exceptions = self.exceptions[relation]
        return {
            (key_name((c, i)),)
            for c in range(config.CONES_CLASSES)
            if c != gone
            for i in range(config.CONES_INSTANCES)
            if (c, i) not in exceptions
        }

    def truth(self, relation: str, key: Key, retracted: Optional[int] = None) -> bool:
        if relation == "left" and key[0] == retracted:
            return False
        return key not in self.exceptions[relation]


def cones_truth(seed: int) -> ConesTruth:
    rng = random.Random("cones:{}".format(seed))
    exceptions = {}
    for relation in ("left", "right"):
        chosen = set()
        for c in range(config.CONES_CLASSES):
            for i in rng.sample(range(config.CONES_INSTANCES), config.CONES_EXCEPTIONS):
                chosen.add((c, i))
        exceptions[relation] = frozenset(chosen)
    toggles = tuple(rng.sample(range(config.CONES_CLASSES), config.TOGGLE_CLASSES))
    return ConesTruth(exceptions, toggles)


def build_cones(truth: ConesTruth, name: str = "cones") -> HierarchicalDatabase:
    db = HierarchicalDatabase(name)
    h = db.create_hierarchy("h")
    for c in range(config.CONES_CLASSES):
        h.add_class(class_name(c))
        for i in range(config.CONES_INSTANCES):
            h.add_instance(key_name((c, i)), [class_name(c)])
    for relation in ("left", "right"):
        rel = db.create_relation(relation, [("value", "h")])
        for c in range(config.CONES_CLASSES):
            rel.assert_item((class_name(c),), True)
        for key in sorted(truth.exceptions[relation]):
            rel.assert_item((key_name(key),), False)
    return db


@dataclass(frozen=True)
class GridTruth:
    class_positives: Tuple[int, ...]  # d-class indices asserted as (c1, dK)
    cells: Tuple[Tuple[int, int, bool], ...]  # (a index, b index, sign)

    def flat_rows(self) -> Set[Tuple[str, str]]:
        """The flat extension of ``r``."""
        per_class = config.GRID_INSTANCES // config.GRID_B_CLASSES
        rows = {
            ("a{}".format(a), "b{}".format(b))
            for a in range(config.GRID_C0, config.GRID_INSTANCES)
            for d in self.class_positives
            for b in range(d * per_class, (d + 1) * per_class)
        }
        for a, b, sign in self.cells:
            if sign:
                rows.add(("a{}".format(a), "b{}".format(b)))
        for a, b, sign in self.cells:
            if not sign:
                rows.discard(("a{}".format(a), "b{}".format(b)))
        return rows


def grid_truth(seed: int) -> GridTruth:
    rng = random.Random("grid:{}".format(seed))
    positives = tuple(range(0, config.GRID_B_CLASSES, 3))
    n = config.GRID_INSTANCES
    picked = rng.sample(range(n * n), config.GRID_TUPLES - len(positives))
    cells = tuple(
        (cell // n, cell % n, index % config.GRID_NEGATIVE_EVERY != 0)
        for index, cell in enumerate(picked)
    )
    return GridTruth(positives, cells)


def build_grid(truth: GridTruth, name: str = "grid") -> HierarchicalDatabase:
    db = HierarchicalDatabase(name)
    ga = db.create_hierarchy("ga")
    ga.add_class("c0")
    ga.add_class("c1")
    for a in range(config.GRID_INSTANCES):
        ga.add_instance("a{}".format(a), ["c0" if a < config.GRID_C0 else "c1"])
    gb = db.create_hierarchy("gb")
    per_class = config.GRID_INSTANCES // config.GRID_B_CLASSES
    for d in range(config.GRID_B_CLASSES):
        gb.add_class("d{}".format(d))
    for b in range(config.GRID_INSTANCES):
        gb.add_instance("b{}".format(b), ["d{}".format(b // per_class)])
    rel = db.create_relation("r", [("a", "ga"), ("b", "gb")])
    for d in truth.class_positives:
        rel.assert_item(("c1", "d{}".format(d)), True)
    for a, b, sign in truth.cells:
        rel.assert_item(("a{}".format(a), "b{}".format(b)), sign)
    return db


@dataclass
class Datasets:
    seed: int
    cones: ConesTruth
    grid: GridTruth

    def tenant_databases(self) -> Dict[str, HierarchicalDatabase]:
        """One fresh database per tenant the server hosts."""
        dbs = {
            config.TENANT_CONES: build_cones(self.cones, "cones"),
            config.TENANT_GRID: build_grid(self.grid, "grid"),
        }
        for tenant in config.TENANTS_MIXED:
            dbs[tenant] = build_cones(self.cones, tenant)
        return dbs


def make_datasets(seed: int) -> Datasets:
    return Datasets(seed, cones_truth(seed), grid_truth(seed))


def tenant_dir(data_dir: str, tenant: str) -> str:
    """The default tenant lives at the data-dir root, named ones below it."""
    return data_dir if tenant == config.TENANT_CONES else os.path.join(data_dir, tenant)


def write_data_dir(datasets: Datasets, data_dir: str) -> None:
    """Build every tenant's database and checkpoint it into ``data_dir``
    (one ``snapshot.bin`` + stamped empty journal per tenant)."""
    for tenant, database in datasets.tenant_databases().items():
        manager = RecoveryManager(
            tenant_dir(data_dir, tenant),
            fsync=config.FSYNC,
            snapshot_interval=config.SNAPSHOT_INTERVAL,
            name=tenant,
        )
        manager.checkpoint(database)
