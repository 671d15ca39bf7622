"""The coordinator: gate, partition, dispatch, merge.

Every parallel entry point follows one shape:

1. **Gate** — cheap checks that decide serial vs parallel *before* any
   partitioning work: layer enabled, no ``capture`` hook, a picklable
   combining function, sweep-friendly hierarchies, and a cost gate —
   the planner's priced serial-vs-dispatch comparison
   (:func:`repro.planner.parallel_gate`), or the fixed ``min_tuples``
   constant when the planner is off; either way small workloads never
   pay partition + pickle + merge, and ``min_tuples=0`` force-enables.
2. **Partition** — cone-partition the distinct routed items
   (:func:`repro.parallel.partition.partition_items`); a workload that
   does not decompose (single cone, oversized residual) declines here.
3. **Dispatch** — build one :class:`ShardSnapshot` per bin and run the
   shard tasks on the pool (inline for one worker).
4. **Merge** — per-shard owned results are disjoint by construction, so
   the merge is a concatenation re-sorted by the full product's
   topological key: the exact insertion order of the serial sweep.
   Worker error markers are re-raised as the same exceptions the serial
   path raises.

Each ``maybe_*`` function returns ``None`` when the gate declines, and
the caller falls through to its serial code — the parallel layer is
strictly an accelerator, never a semantic fork.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.core import bulk as _bulk
from repro.core.conflicts import Conflict
from repro.core.htuple import HTuple
from repro.core.relation import HRelation
from repro.errors import AmbiguityError, InconsistentRelationError
from repro.hierarchy.product import Item
from repro.obs import default_registry
from repro.obs import span as _span

from repro.parallel.config import config
from repro.parallel.partition import Partition, partition_items
from repro.parallel.snapshot import build_snapshots
from repro.parallel.worker import FN_TOKENS

#: Sentinel returned by :func:`maybe_extension` (with
#: ``raise_on_conflict=False``) when a shard hit a conflicted atom —
#: distinct from ``None`` ("gate declined, run serial").
CONFLICT = object()


@dataclass
class Plan:
    """What the gate + partitioner decided for one operation; the
    ``EXPLAIN`` renderer and the dispatchers both read it."""

    partition: Optional[Partition] = None
    reason: str = ""
    workers: int = 0
    strategy: object = None
    input_specs: Tuple[tuple, ...] = ()
    extra_seeds: Tuple[Item, ...] = ()

    @property
    def parallel(self) -> bool:
        return self.partition is not None

    @property
    def shards(self) -> int:
        return self.partition.shards if self.partition else 0

    @property
    def residual(self) -> int:
        return len(self.partition.residual) if self.partition else 0

    def describe(self) -> str:
        """The one-line summary ``EXPLAIN`` prints."""
        if self.parallel:
            return "shards={} residual={}".format(self.shards, self.residual)
        return "serial ({})".format(self.reason)


def _pad(item: Item, positions: Sequence[int], top: Item) -> Item:
    padded = list(top)
    for position, value in zip(positions, item):
        padded[position] = value
    return tuple(padded)


def _worker_active() -> bool:
    from repro.parallel import worker

    return worker._ACTIVE


def plan(
    schema,
    input_specs: Sequence[tuple],
    extra_seeds: Sequence[Item] = (),
    fn_token: Optional[str] = None,
    capture=None,
) -> Plan:
    """Gate + partition; never dispatches.  ``input_specs`` entries are
    ``("full", relation)``, ``("proj", relation, positions)`` or
    ``("cone", item)``."""
    cfg = config()
    if cfg.workers < 1:
        return Plan(reason="disabled")
    if _worker_active():
        return Plan(reason="inside a worker")
    if capture is not None:
        return Plan(reason="capture hook requested")
    if fn_token is not None and fn_token not in FN_TOKENS:
        return Plan(reason="combining function is not shippable")
    product = schema.product
    if product.has_preference_edges() or product.needs_elimination_binding():
        return Plan(reason="hierarchy needs per-item binding")

    specs = [spec for spec in input_specs if spec[0] != "cone"]
    if cfg.min_tuples > 0:
        # ``min_tuples=0`` forces dispatch (tests and the forced-parallel
        # CI leg); otherwise the planner prices it, before any stored
        # tuple is routed — a declined operator costs O(inputs).
        from repro import planner as _planner

        total = sum(len(spec[1].asserted) for spec in specs)
        worthwhile, why = _planner.parallel_gate(total, len(input_specs))
        if not worthwhile:
            return Plan(reason=why)

    top = product.top
    routed: Set[Item] = set()
    for spec in specs:
        relation = spec[1]
        if spec[0] == "proj":
            positions = spec[2]
            routed.update(_pad(item, positions, top) for item in relation.asserted)
        else:
            routed.update(relation.asserted)

    items = product.topological_sort(routed)
    partition, why = partition_items(
        schema,
        items,
        workers=cfg.workers,
        forced_residual=tuple(extra_seeds),
        residual_limit=cfg.residual_limit,
        fanout=cfg.fanout,
    )
    if partition is None:
        return Plan(reason=why)
    return Plan(
        partition=partition,
        workers=cfg.workers,
        input_specs=tuple(input_specs),
        extra_seeds=tuple(extra_seeds),
    )


def _declined(operation_plan: Plan) -> None:
    if operation_plan.reason not in ("disabled", "inside a worker"):
        default_registry().counter("parallel.fallbacks").inc()


def _dispatch(span_name: str, tasks: List[dict], workers: int) -> List[dict]:
    from repro.parallel import pool as _pool

    registry = default_registry()
    registry.counter("parallel.ops").inc()
    registry.counter("parallel.shards").inc(len(tasks))
    results = _pool.run_tasks(tasks, workers)
    elapsed = [r.get("elapsed_ms", 0.0) for r in results]
    if elapsed:
        registry.histogram("parallel.skew.ms").observe(
            max(elapsed) - min(elapsed)
        )
    for result in results:
        with _span(
            span_name + ".shard",
            shard=result.get("shard"),
            elapsed_ms=round(result.get("elapsed_ms", 0.0), 3),
            ok=result["ok"],
        ):
            pass
    return results


def _owned_inconsistency(results: Sequence[dict], owner_of) -> Optional[Item]:
    """The first genuinely conflicted item: one a shard reported *and*
    owns.  Non-owner reports are spurious (incomplete applicable sets)."""
    for result in results:
        for item in result.get("inconsistent", ()):
            if owner_of(item) == result["shard"]:
                return tuple(item)
    return None


def maybe_pointwise(
    schema,
    strategy,
    input_specs: Sequence[tuple],
    fn_token: str,
    name: str,
    extra_seeds: Sequence[Item] = (),
    consolidate: bool = True,
    capture=None,
) -> Optional[HRelation]:
    """Parallel pointwise combinator, or ``None`` for the serial path."""
    operation_plan = plan(
        schema, input_specs, extra_seeds, fn_token=fn_token, capture=capture
    )
    if not operation_plan.parallel:
        _declined(operation_plan)
        return None
    partition = operation_plan.partition
    with _span(
        "parallel.pointwise",
        shards=partition.shards,
        residual=len(partition.residual),
        fn=fn_token,
    ) as sp:
        snapshots = build_snapshots(
            schema, strategy.name, input_specs, partition, extra_seeds,
            skip_roots=True,
        )
        tasks = [
            {
                "kind": "pointwise",
                "snapshot": snapshot,
                "fn_token": fn_token,
                "consolidate": consolidate,
            }
            for snapshot in snapshots
        ]
        results = _dispatch("parallel.pointwise", tasks, operation_plan.workers)
        owner_of = partition.owner_map(schema)
        conflicted = _owned_inconsistency(results, owner_of)
        if conflicted is not None:
            raise InconsistentRelationError(
                [Conflict(item=conflicted, binders=())]
            )
        merged = _bulk.merge_emitted(
            schema.product,
            [
                [
                    (item, truth)
                    for item, truth in result["emitted"]
                    if owner_of(item) == result["shard"]
                ]
                for result in results
            ],
        )
        out = HRelation(schema, name=name, strategy=strategy)
        out.load_tuples(merged)
        sp.annotate(tuples_out=len(out))
        return out


def maybe_combine(
    relations: Sequence[HRelation],
    fn_token: str,
    name: str,
    extra_items: Sequence[Item] = (),
    consolidate: bool = True,
    capture=None,
) -> Optional[HRelation]:
    return maybe_pointwise(
        relations[0].schema,
        relations[0].strategy,
        [("full", relation) for relation in relations],
        fn_token,
        name,
        extra_seeds=tuple(extra_items),
        consolidate=consolidate,
        capture=capture,
    )


def maybe_select(
    relation: HRelation,
    cone_item: Item,
    name: str,
    consolidate: bool = True,
    capture=None,
) -> Optional[HRelation]:
    return maybe_pointwise(
        relation.schema,
        relation.strategy,
        [("full", relation), ("cone", cone_item)],
        "and",
        name,
        extra_seeds=(cone_item,),
        consolidate=consolidate,
        capture=capture,
    )


def maybe_join(
    left: HRelation,
    right: HRelation,
    merged_schema,
    name: str,
    consolidate: bool = True,
) -> Optional[HRelation]:
    """Parallel zero-copy join (callers have already verified both
    evaluators are sweep-exact under off-path preemption)."""
    left_positions = tuple(
        merged_schema.index_of(a) for a in left.schema.attributes
    )
    right_positions = tuple(
        merged_schema.index_of(a) for a in right.schema.attributes
    )
    return maybe_pointwise(
        merged_schema,
        left.strategy,
        [("proj", left, left_positions), ("proj", right, right_positions)],
        "and",
        name,
        consolidate=consolidate,
    )


def maybe_extension(relation, raise_on_conflict: bool = True):
    """Parallel flat extension: a sorted list of atoms, ``None`` when
    the gate declines, or :data:`CONFLICT` when a shard hit a conflicted
    atom and ``raise_on_conflict`` is off (``explicate`` then reruns the
    legacy writer-order algorithm, exactly as serial does)."""
    operation_plan = plan(relation.schema, [("full", relation)])
    if not operation_plan.parallel:
        _declined(operation_plan)
        return None
    partition = operation_plan.partition
    with _span(
        "parallel.extension",
        shards=partition.shards,
        residual=len(partition.residual),
    ) as sp:
        snapshots = build_snapshots(
            relation.schema, relation.strategy.name, [("full", relation)],
            partition,
        )
        tasks = [
            {"kind": "extension", "snapshot": snapshot}
            for snapshot in snapshots
        ]
        results = _dispatch("parallel.extension", tasks, operation_plan.workers)
        owner_of = partition.owner_map(relation.schema)
        for result in results:
            for atom, binders in result.get("ambiguous", ()):
                if owner_of(atom) != result["shard"]:
                    continue
                if not raise_on_conflict:
                    return CONFLICT
                raise AmbiguityError(
                    tuple(atom),
                    [(tuple(binder), truth) for binder, truth in binders],
                )
        product = relation.schema.product
        atoms: List[Item] = []
        for result in results:
            atoms.extend(
                tuple(atom)
                for atom in result["atoms"]
                if owner_of(atom) == result["shard"]
            )
        atoms = product.topological_sort(atoms)
        sp.annotate(atoms=len(atoms))
        return atoms


def maybe_conflicts(relation) -> Optional[List[Conflict]]:
    """Parallel conflict scan, or ``None`` for the serial path."""
    operation_plan = plan(relation.schema, [("full", relation)])
    if not operation_plan.parallel:
        _declined(operation_plan)
        return None
    partition = operation_plan.partition
    with _span(
        "parallel.conflicts",
        shards=partition.shards,
        residual=len(partition.residual),
    ) as sp:
        snapshots = build_snapshots(
            relation.schema, relation.strategy.name, [("full", relation)],
            partition,
        )
        tasks = [
            {"kind": "conflicts", "snapshot": snapshot}
            for snapshot in snapshots
        ]
        results = _dispatch("parallel.conflicts", tasks, operation_plan.workers)
        owner_of = partition.owner_map(relation.schema)
        product = relation.schema.product
        reverse = relation.strategy.name == "none"
        out: List[Conflict] = []
        for result in results:
            for item, binders in result["conflicts"]:
                if owner_of(item) != result["shard"]:
                    continue
                ordered = sorted(
                    (tuple(binder) for binder, _ in binders),
                    key=product.topological_key,
                    reverse=reverse,
                )
                truth_of = {tuple(b): t for b, t in binders}
                out.append(
                    Conflict(
                        item=tuple(item),
                        binders=tuple(
                            HTuple(binder, truth_of[binder])
                            for binder in ordered
                        ),
                    )
                )
        out.sort(key=lambda conflict: product.topological_key(conflict.item))
        sp.annotate(conflicts=len(out))
        return out
