"""Worker-side shard execution.

A worker receives one :class:`~repro.parallel.snapshot.ShardSnapshot`
per task, rebuilds *real* :class:`Hierarchy` / :class:`RelationSchema` /
:class:`HRelation` objects from it, and runs the stock serial machinery
— :class:`~repro.core.bulk.BulkEvaluator` sweeps, the fused redundancy
sweep, the conflict probe — over the shard.  The rebuilt
sub-hierarchies preserve subsumption, paths, meets and leaf status for
every value the shard can touch, so the shard's computation is the
serial computation restricted to the shard's cone.

Workers make **no ownership decisions**: they return everything they
compute and the coordinator keeps each item only from its authoritative
shard (:meth:`~repro.parallel.partition.Partition.owner_map`).  A shard
cannot judge ownership itself — an item reached only through a residual
tuple's cone looks component-free inside the shard's sub-hierarchy even
when its component seeds live in another shard's group — and for the
same reason a shard's truth for a *non-owned* item may be wrong (its
applicable set is only complete in the owner's shard).  So conflicts
are reported, not raised: a ``None`` truth is only genuine if the
coordinator finds it in the item's owner shard.

Tasks and results are plain dicts so the process boundary stays cheap.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Dict, List, Optional, Tuple

from repro.core import bulk as _bulk
from repro.core.algebra import pointwise_sweep
from repro.core.preemption import STRATEGIES
from repro.core.relation import HRelation
from repro.core.schema import RelationSchema
from repro.hierarchy.graph import Hierarchy
from repro.hierarchy.product import Item

from repro.parallel.snapshot import ShardSnapshot

#: True while this process is executing a shard task.  The coordinator
#: gate checks it so operations run *inside* a worker (the conflict
#: probe, evaluator delegation) never try to re-partition and recurse.
_ACTIVE = False


def _fn_any(*truths: bool) -> bool:
    return any(truths)


def _fn_all(*truths: bool) -> bool:
    return all(truths)


def _fn_andnot(a: bool, b: bool) -> bool:
    return a and not b


#: The picklable stand-ins for the algebra's combining lambdas.  An
#: operation whose ``fn`` has no token here falls back to serial at the
#: coordinator gate — it never reaches a worker.
FN_TOKENS = {
    "or": _fn_any,
    "any": _fn_any,
    "and": _fn_all,
    "all": _fn_all,
    "andnot": _fn_andnot,
}


class _ShardContext:
    """The rebuilt shard: schema, input evaluators, closure seeds."""

    def __init__(self, snapshot: ShardSnapshot) -> None:
        self.snapshot = snapshot
        hierarchies: Dict[str, Hierarchy] = {
            key: Hierarchy.from_subgraph_payload(payload)
            for key, payload in snapshot.hierarchies.items()
        }
        self.schema = RelationSchema(
            [
                (attribute, hierarchies[key])
                for attribute, key in zip(
                    snapshot.attributes, snapshot.hierarchy_keys
                )
            ]
        )
        self.strategy = STRATEGIES[snapshot.strategy]
        top = self.schema.product.top

        self.evaluators: List[object] = []
        self.relations: List[Optional[HRelation]] = []
        self.seeds: set = set(snapshot.extra_seeds)
        for n, shard_input in enumerate(snapshot.inputs):
            if shard_input.cone is not None:
                self.evaluators.append(
                    _bulk.ConeEvaluator(self.schema.product, shard_input.cone)
                )
                self.relations.append(None)
                continue
            positions = shard_input.positions
            if positions is None:
                in_schema = self.schema
            else:
                in_schema = RelationSchema(
                    [
                        (snapshot.attributes[p], hierarchies[snapshot.hierarchy_keys[p]])
                        for p in positions
                    ]
                )
            strategy = STRATEGIES[shard_input.strategy or snapshot.strategy]
            relation = HRelation(
                in_schema, name="shard{}_in{}".format(snapshot.shard, n),
                strategy=strategy,
            )
            signs = _bulk.mask_from_bytes(shard_input.signs)
            for i, item in enumerate(shard_input.items):
                relation.assert_item(item, truth=bool(signs >> i & 1))
            evaluator = _bulk.evaluator_for(relation)
            if positions is None:
                self.evaluators.append(evaluator)
                self.seeds.update(shard_input.items)
            else:
                self.evaluators.append(
                    _bulk.ProjectedEvaluator(evaluator, positions)
                )
                for item in shard_input.items:
                    padded = list(top)
                    for position, value in zip(positions, item):
                        padded[position] = value
                    self.seeds.add(tuple(padded))
            self.relations.append(relation)


def _pointwise(context: _ShardContext, task: dict) -> dict:
    # A conflict is genuine only if this shard owns the item — the
    # coordinator decides; meanwhile the sweep evaluates it as false
    # (the owner's copy, not this one, is what gets emitted).
    inconsistent: List[Item] = []
    sweep = pointwise_sweep(
        context.schema,
        context.evaluators,
        FN_TOKENS[task["fn_token"]],
        context.seeds,
        task["consolidate"],
        conflicted=inconsistent,
    )
    return {
        "ok": True,
        "shard": context.snapshot.shard,
        "emitted": sweep.emitted,
        "inconsistent": inconsistent,
        "candidates": len(sweep.candidates),
    }


def _extension(context: _ShardContext) -> dict:
    relation = context.relations[0]
    evaluator = _bulk.evaluator_for(relation)
    product = context.schema.product
    seen = set()
    atoms: List[Item] = []
    ambiguous: List[Tuple[Item, List[Tuple[Item, bool]]]] = []
    for item, truth in relation.asserted.items():
        if not truth:
            continue
        for atom in product.leaves_under(item):
            if atom in seen:
                continue
            seen.add(atom)
            answer = evaluator.truth(atom)
            if answer is None:
                _, binders = evaluator.truth_and_binders(atom)
                ambiguous.append(
                    (atom, [(b.item, b.truth) for b in binders])
                )
            elif answer:
                atoms.append(atom)
    return {
        "ok": True,
        "shard": context.snapshot.shard,
        "atoms": atoms,
        "ambiguous": ambiguous,
        "candidates": len(seen),
    }


def _conflicts(context: _ShardContext) -> dict:
    from repro.core.conflicts import find_conflicts

    relation = context.relations[0]
    found = [
        (conflict.item, [(b.item, b.truth) for b in conflict.binders])
        for conflict in find_conflicts(relation)
    ]
    return {
        "ok": True,
        "shard": context.snapshot.shard,
        "conflicts": found,
    }


def run_shard_task(task: dict) -> dict:
    """Execute one shard task; always returns a result dict."""
    global _ACTIVE
    kind = task["kind"]
    if kind == "crash":  # test hook: simulate a dying worker process
        os.kill(os.getpid(), signal.SIGKILL)
    started = time.perf_counter()
    _ACTIVE = True
    try:
        context = _ShardContext(task["snapshot"])
        if kind == "pointwise":
            result = _pointwise(context, task)
        elif kind == "extension":
            result = _extension(context)
        elif kind == "conflicts":
            result = _conflicts(context)
        else:
            raise ValueError("unknown shard task kind {!r}".format(kind))
    finally:
        _ACTIVE = False
    result["elapsed_ms"] = (time.perf_counter() - started) * 1000.0
    return result
