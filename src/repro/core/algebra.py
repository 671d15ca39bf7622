"""Standard relational operators over hierarchical relations (section 3.4).

The paper fixes the semantics rather than the algorithms: "any
manipulations on hierarchical relations should have the same effect
whether performed on the hierarchical relations or on the equivalent
flat relations".  The algorithms here operate directly on the condensed
form — flattening only when the semantics itself is existential — via
one engine, the **pointwise combinator**:

    Given consistent relations R₁…Rₖ over one schema and a boolean
    function *fn* with fn(false,…,false) = false, emit the tuple
    ``(m, fn(truth₁(m), …, truthₖ(m)))`` for every item *m* in the
    *meet-closure* of the inputs' asserted items (plus any extra seed
    items).  The result's flat extension is the pointwise combination
    of the inputs' flat extensions.

    Why it works: let *m* be a minimal emitted item containing an item
    *y*, and let *t* be any minimal binder of *y* in Rᵢ.  Some maximal
    common descendant *q* of (m, t) lies above *y*; *q* is in the
    closure, and minimality of *m* forces q = m, hence m ⊆ t.  Then *t*
    is a minimal binder of *m* too (an interposer at *m* would interpose
    at *y*), so by Rᵢ's consistency truthᵢ(m) = truthᵢ(y).  Thus every
    strongest binder of *y* in the result carries
    fn(truth₁(y), …, truthₖ(y)); items below no candidate default to
    false, which fn's zero-preservation matches.  ∎

The operators then fall out:

* **union** = OR, **intersection** = AND, **difference** = AND-NOT;
* **selection** = AND with a one-tuple *cone* relation (the selection
  class, padded with hierarchy roots on the other attributes);
* **join** = AND of cylindric extensions over the merged schema;
* **projection** is existential, so it partially explicates the dropped
  attributes and ORs the per-dropped-atom slices.

Results may contain redundant tuples (the paper notes the same of its
own examples); every operator takes ``consolidate=`` (default ``True``)
since consolidation never changes the flat relation.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core import bulk as _bulk
from repro.core.conflicts import Conflict
from repro.core.consolidate import consolidate as _consolidate
from repro.core.consolidate import redundancy_sweep as _redundancy_sweep
from repro.core.explicate import explicate as _explicate
from repro.core.relation import HRelation
from repro.core.schema import RelationSchema
from repro.errors import InconsistentRelationError, SchemaError
from repro.hierarchy.product import Item, ProductHierarchy
from repro.obs import default_registry
from repro.obs import span as _span


def _count(op: str) -> None:
    """Bump the operator's call counter in the process-global registry
    (core code has no database handle; see docs/OBSERVABILITY.md)."""
    default_registry().counter("algebra." + op + ".calls").inc()


def meet_closure(product: ProductHierarchy, items: Iterable[Item]) -> Set[Item]:
    """The smallest superset of ``items`` closed under pairwise meets
    (maximal common descendants).

    Delegates to :meth:`ProductHierarchy.meet_closure`: unary schemas
    run one bulk closed-value-set sweep (no item pairs at all); higher
    arities probe each unordered pair once against the factors'
    memoised meet tables, so no component meet is ever recomputed.
    """
    return product.meet_closure(items)


class Sweep(NamedTuple):
    """What one :func:`pointwise_sweep` produced."""

    #: The meet-closure of the seeds, ancestors first.
    candidates: List[Item]
    #: The combined truth of each candidate.
    truths: List[bool]
    #: The ``(item, truth)`` pairs to store, in candidate order: the
    #: non-redundant ones when ``fused``, else every candidate.
    emitted: List[Tuple[Item, bool]]
    #: Whether consolidation ran inside the sweep.
    fused: bool
    #: Values that entered a meet-closure overlap sweep (0 on a tree).
    closure_probed: int
    #: Whole-hierarchy walks the meet-closure made (0 on a tree; the
    #: redundancy pass only ever visits the candidates' ancestors).
    hierarchy_sweeps: int


def pointwise_sweep(
    schema: RelationSchema,
    evaluators: Sequence[object],
    fn: Callable[..., bool],
    seeds: Iterable[Item],
    consolidate: bool,
    shortcircuit: Optional[str] = None,
) -> Sweep:
    """Candidates → truths → redundancy flags → emitted pairs: the
    kernel behind :func:`_pointwise`.

    Evaluates the meet-closure of ``seeds`` through the given truth
    evaluators in topological order.  With ``consolidate`` on a
    normal-form product, consolidation is *fused* into the sweep: a
    candidate whose truth matches all of its minimal already-kept
    subsumers is never emitted.  Fusing is a soundness predicate, not a
    priced choice: the mask sweep is exact only when the product needs
    no elimination binding.  Otherwise every candidate is emitted and
    the caller consolidates.

    ``shortcircuit`` (``"or"`` / ``"and"``) stops probing a candidate's
    evaluators at the first truth that settles the function value —
    first *true* for OR, first *false* for AND.

    A candidate whose strongest binders conflict in some input raises
    :class:`InconsistentRelationError`.
    """
    product = schema.product
    stats: Counter = Counter()
    candidates = product.topological_sort(product.meet_closure(seeds, stats))
    probes = [evaluator.truth for evaluator in evaluators]
    truths: List[bool] = []  # None marks a conflicted candidate until checked below
    if shortcircuit is None:
        for item in candidates:
            row = []  # written out: a comprehension per candidate costs a frame
            for probe in probes:
                row.append(probe(item))
            truths.append(None if None in row else fn(*row))
    else:
        settle = shortcircuit == "or"  # the truth that ends a candidate's scan
        for item in candidates:
            value = not settle
            for probe in probes:
                truth = probe(item)
                if truth is None:
                    value = None
                    break
                if truth == settle:
                    value = settle
                    break
            truths.append(value)
    if None in truths:
        raise InconsistentRelationError(
            [Conflict(item=candidates[truths.index(None)], binders=())]
        )
    # The fused mask sweep is exact only without elimination binding;
    # non-normal-form products run the literal two-step procedure.
    fused = consolidate and not product.needs_elimination_binding()
    if fused:
        flags = _redundancy_sweep(schema, candidates, truths)
        emitted = [
            pair for pair, redundant in zip(zip(candidates, truths), flags)
            if not redundant
        ]
    else:
        emitted = list(zip(candidates, truths))
    return Sweep(candidates, truths, emitted, fused, stats["probed"], stats["sweeps"])


def _pointwise(
    schema: RelationSchema,
    strategy,
    evaluators: Sequence[object],
    fn: Callable[..., bool],
    name: str,
    seeds: Iterable[Item],
    consolidate: bool,
    capture: Optional[Dict] = None,
    shortcircuit: Optional[str] = None,
) -> HRelation:
    """The bitset-native pointwise engine every operator rides: one
    :func:`pointwise_sweep`, stored through the trusted bulk-load path
    (:meth:`HRelation.load_tuples` — the pairs are schema-checked
    candidates, each distinct, so per-tuple validation, version bumps
    and delta-log appends would be spent on a result nobody else can
    see yet).  Non-normal-form products then run the literal
    consolidation procedure.

    ``shortcircuit`` is set by :func:`combine` for symmetric combining
    functions over three or more inputs.  The candidate set, every
    emitted truth and the emission order are exactly those of the
    exhaustive loop, so results stay bit-identical; only conflict
    *detection* narrows, to the probes actually made (the documented
    precondition — consistent inputs — is unaffected).

    ``capture``, when a dict, receives the full pre-consolidation
    ``candidates`` / ``truths`` lists — the state the delta-refresh
    path of :mod:`repro.core.views` patches incrementally.
    """
    with _span("algebra.pointwise", inputs=len(evaluators)) as sp:
        sweep = pointwise_sweep(
            schema, evaluators, fn, seeds, consolidate, shortcircuit=shortcircuit
        )
        sp.annotate(
            candidates=len(sweep.candidates),
            closure_probed=sweep.closure_probed,
            hierarchy_sweeps=sweep.hierarchy_sweeps,
            fused=sweep.fused,
        )
        if capture is not None:
            capture["candidates"] = sweep.candidates
            capture["truths"] = sweep.truths
        out = HRelation(schema, name=name, strategy=strategy)
        out.load_tuples(sweep.emitted)
        if sweep.fused:
            default_registry().counter("algebra.fused_sweeps").inc()
        elif consolidate:
            out = _consolidate(out, name=name)
        sp.annotate(tuples_out=len(out))
        return out


#: Symmetric combining-function tokens and the truth that settles them
#: ("or": stop at the first true; "and": stop at the first false).
#: Applied only to three or more inputs: a binary operator probes both,
#: so a conflict in either input still raises.  ``andnot`` is
#: order-sensitive and absent on purpose.
_SHORTCIRCUIT: Dict[str, str] = {"or": "or", "any": "or", "and": "and", "all": "and"}


def combine(
    relations: Sequence[HRelation],
    fn: Callable[..., bool],
    name: str = "combined",
    extra_items: Iterable[Item] = (),
    consolidate: bool = True,
    capture: Optional[Dict] = None,
    fn_token: Optional[str] = None,
) -> HRelation:
    """The pointwise combinator (see module docstring).

    All ``relations`` must share one schema and be consistent;
    ``fn`` must map all-false to false (checked).  Raises
    :class:`InconsistentRelationError` if evaluating a candidate hits a
    conflict in any input.

    ``fn_token`` optionally names ``fn`` (``"or"``, ``"and"``,
    ``"andnot"``, ``"any"``, ``"all"``).  A symmetric one over three or
    more inputs is short-circuited per candidate, in input order (see
    :data:`_SHORTCIRCUIT`); binary operators, ``andnot`` and anonymous
    callables probe every input.  The result is identical either way —
    only the probe count per candidate changes.
    """
    if not relations:
        raise SchemaError("combine needs at least one relation")
    schema = relations[0].schema
    for other in relations[1:]:
        schema.require_same_as(other.schema, "combine")
    if fn(*([False] * len(relations))):
        raise SchemaError(
            "combine requires fn(false, ..., false) == false; items below "
            "no candidate default to false and fn must agree"
        )
    seeds: Set[Item] = set(extra_items)
    for relation in relations:
        seeds.update(relation.asserted)
    _count("combine")
    with _span(
        "algebra.combine",
        inputs=len(relations),
        tuples_in=sum(len(r) for r in relations),
    ):
        # One bulk evaluator per input: the candidate set is evaluated
        # set-at-a-time instead of re-deriving a binding per (item, input).
        evaluators = [_bulk.evaluator_for(relation) for relation in relations]
        shortcircuit = _SHORTCIRCUIT.get(fn_token) if len(relations) >= 3 else None
        return _pointwise(
            schema, relations[0].strategy, evaluators, fn, name, seeds, consolidate,
            capture=capture, shortcircuit=shortcircuit,
        )


# ----------------------------------------------------------------------
# set operations (Fig. 10)
# ----------------------------------------------------------------------


def union(
    left: HRelation, right: HRelation, name: str | None = None,
    consolidate: bool = True, capture: Optional[Dict] = None,
) -> HRelation:
    """Flat semantics: an atom satisfies the union iff it satisfies
    either argument ("Jack and Jill between them love")."""
    _count("union")
    with _span("algebra.union", left=left.name, right=right.name):
        return combine(
            [left, right],
            lambda a, b: a or b,
            name=name or "{}_union_{}".format(left.name, right.name),
            consolidate=consolidate,
            capture=capture,
            fn_token="or",
        )


def intersection(
    left: HRelation, right: HRelation, name: str | None = None,
    consolidate: bool = True, capture: Optional[Dict] = None,
) -> HRelation:
    """Flat semantics: both arguments ("Jack and Jill both love")."""
    _count("intersection")
    with _span("algebra.intersection", left=left.name, right=right.name):
        return combine(
            [left, right],
            lambda a, b: a and b,
            name=name or "{}_intersect_{}".format(left.name, right.name),
            consolidate=consolidate,
            capture=capture,
            fn_token="and",
        )


def difference(
    left: HRelation, right: HRelation, name: str | None = None,
    consolidate: bool = True, capture: Optional[Dict] = None,
) -> HRelation:
    """Flat semantics: the left but not the right ("Jack loves but Jill
    does not")."""
    _count("difference")
    with _span("algebra.difference", left=left.name, right=right.name):
        return combine(
            [left, right],
            lambda a, b: a and not b,
            name=name or "{}_minus_{}".format(left.name, right.name),
            consolidate=consolidate,
            capture=capture,
            fn_token="andnot",
        )


# ----------------------------------------------------------------------
# selection (Figs. 7–9)
# ----------------------------------------------------------------------


def select(
    relation: HRelation,
    conditions: Mapping[str, str],
    name: str | None = None,
    consolidate: bool = True,
    capture: Optional[Dict] = None,
) -> HRelation:
    """Selection by class membership: keep the atoms whose value on each
    conditioned attribute lies inside the given class (or equals the
    given atom).

    ``select(respects, {"student": "obsequious_student"})`` is Fig. 7;
    conditioning on an instance, as in Fig. 8, is the same call because
    an instance is a singleton class.
    """
    if not conditions:
        return relation.copy(name=name or relation.name)
    schema = relation.schema
    cone_item = schema.item_from_mapping(dict(conditions), default_top=True)
    _count("select")
    with _span(
        "algebra.select", source=relation.name, tuples_in=len(relation)
    ):
        return _cone_pointwise(
            relation,
            [cone_item],
            lambda a, b: a and b,
            name or "{}_where".format(relation.name),
            consolidate,
            capture=capture,
        )


def select_cones(
    relation: HRelation,
    cones: Sequence[Item],
    fn: Callable[..., bool],
    name: str,
    consolidate: bool = True,
) -> HRelation:
    """Selection by membership in several cones at once: keep the atoms
    where ``fn(in relation, in cones[0], in cones[1], ...)`` holds.

    ``fn`` must be false whenever its first argument is.  This is the
    engine behind :func:`repro.core.where.select_where`;
    :func:`select` is its one-cone AND case.
    """
    _count("select")
    with _span(
        "algebra.select", source=relation.name, tuples_in=len(relation)
    ):
        return _cone_pointwise(relation, cones, fn, name, consolidate)


def _cone_pointwise(
    relation: HRelation,
    cones: Sequence[Item],
    fn: Callable[..., bool],
    name: str,
    consolidate: bool,
    capture: Optional[Dict] = None,
) -> HRelation:
    # A selection cone is a one-tuple relation whose truth function is
    # plain subsumption — valid under every strategy — so it is evaluated
    # directly instead of being materialised and re-bound.
    schema = relation.schema
    evaluators: List[object] = [_bulk.evaluator_for(relation)]
    evaluators.extend(_bulk.ConeEvaluator(schema.product, cone) for cone in cones)
    seeds: Set[Item] = set(relation.asserted)
    seeds.update(cones)
    return _pointwise(
        schema, relation.strategy, evaluators, fn, name, seeds, consolidate,
        capture=capture,
    )


# ----------------------------------------------------------------------
# projection and join (Fig. 11)
# ----------------------------------------------------------------------


def project(
    relation: HRelation,
    attributes: Sequence[str],
    name: str | None = None,
    consolidate: bool = True,
) -> HRelation:
    """Projection onto ``attributes`` with flat (existential) semantics:
    a projected atom is in the result iff *some* extension of it over the
    dropped attributes is in the relation.

    Existential quantification is not pointwise, so the dropped
    attributes are partially explicated and the per-atom slices are
    ORed together; the kept attributes stay condensed throughout.
    """
    kept = list(attributes)
    if not kept:
        raise SchemaError("projection needs at least one attribute")
    schema = relation.schema
    kept_indices = [schema.index_of(a) for a in kept]
    dropped = [a for a in schema.attributes if a not in set(kept)]
    out_schema = schema.restrict(kept)
    out_name = name or "{}_project".format(relation.name)
    _count("project")
    with _span(
        "algebra.project", source=relation.name, tuples_in=len(relation)
    ) as sp:
        if not dropped:
            out = HRelation(out_schema, name=out_name, strategy=relation.strategy)
            for item, truth in relation.asserted.items():
                out.assert_item(tuple(item[i] for i in kept_indices), truth=truth)
            out = _consolidate(out, name=out_name) if consolidate else out
            sp.annotate(slices=0, tuples_out=len(out))
            return out

        partial = _explicate(relation, attributes=dropped, drop_negated=False)
        dropped_indices = [schema.index_of(a) for a in dropped]
        slices: Dict[Tuple[str, ...], HRelation] = {}
        for item, truth in partial.asserted.items():
            atom_key = tuple(item[i] for i in dropped_indices)
            kept_item = tuple(item[i] for i in kept_indices)
            piece = slices.get(atom_key)
            if piece is None:
                piece = HRelation(out_schema, name="slice", strategy=relation.strategy)
                slices[atom_key] = piece
            piece.assert_item(kept_item, truth=truth)
        pieces = [slices[key] for key in sorted(slices)]
        sp.annotate(slices=len(pieces))
        if not pieces:  # empty input: the projection is empty too
            return HRelation(out_schema, name=out_name, strategy=relation.strategy)
        return combine(
            pieces,
            lambda *truths: any(truths),
            name=out_name,
            consolidate=consolidate,
            fn_token="any",
        )


def join(
    left: HRelation, right: HRelation, name: str | None = None, consolidate: bool = True
) -> HRelation:
    """Natural join on the shared attribute names (which must be bound
    to the same hierarchy objects).

    Implemented as the pointwise AND of the two *cylindric extensions*
    over the merged schema.  When both evaluators are sweep-exact under
    the paper's default strategy, the extensions are never materialised:
    a projection adaptor maps each merged-schema candidate onto the
    input's own attribute positions (padding with a hierarchy root
    preserves the binding structure exactly, so projecting instead of
    padding answers the same query zero-copy).  Otherwise each input is
    padded with the hierarchy root (the whole domain) on the attributes
    it lacks, as before.
    """
    if left.strategy.name != right.strategy.name:
        raise SchemaError(
            "cannot join relations with different preemption strategies: "
            "{!r} uses {!r}, {!r} uses {!r}".format(
                left.name, left.strategy.name, right.name, right.strategy.name
            )
        )
    merged_schema = left.schema.join_schema(right.schema)[0]
    out_name = name or "{}_join_{}".format(left.name, right.name)
    _count("join")
    with _span(
        "algebra.join",
        left=left.name,
        right=right.name,
        tuples_in=len(left) + len(right),
    ) as sp:
        if left.strategy.name == "off-path":
            left_eval = _bulk.evaluator_for(left)
            right_eval = _bulk.evaluator_for(right)
            # Zero-copy is sound only when both evaluators are
            # sweep-exact, and whenever it is sound it is also cheapest.
            if left_eval.sweep_exact and right_eval.sweep_exact:
                default_registry().counter("algebra.join.zero_copy").inc()
                sp.annotate(zero_copy=True)
                left_pos, left_seeds = _padded_seeds(merged_schema, left)
                right_pos, right_seeds = _padded_seeds(merged_schema, right)
                return _pointwise(
                    merged_schema,
                    left.strategy,
                    [
                        _bulk.ProjectedEvaluator(left_eval, left_pos),
                        _bulk.ProjectedEvaluator(right_eval, right_pos),
                    ],
                    lambda a, b: a and b,
                    out_name,
                    left_seeds | right_seeds,
                    consolidate,
                )

        sp.annotate(zero_copy=False)
        left_cyl = HRelation(merged_schema, name="cyl_left", strategy=left.strategy)
        for item, truth in left.asserted.items():
            padded = list(merged_schema.product.top)
            for value, attribute in zip(item, left.schema.attributes):
                padded[merged_schema.index_of(attribute)] = value
            left_cyl.assert_item(tuple(padded), truth=truth)

        right_cyl = HRelation(merged_schema, name="cyl_right", strategy=right.strategy)
        for item, truth in right.asserted.items():
            padded = list(merged_schema.product.top)
            for value, attribute in zip(item, right.schema.attributes):
                padded[merged_schema.index_of(attribute)] = value
            right_cyl.assert_item(tuple(padded), truth=truth)

        return combine(
            [left_cyl, right_cyl],
            lambda a, b: a and b,
            name=out_name,
            consolidate=consolidate,
            fn_token="and",
        )


def _padded_seeds(
    merged_schema: RelationSchema, relation: HRelation
) -> Tuple[List[int], Set[Item]]:
    """``relation``'s attribute positions within the merged schema, and
    its asserted items padded with roots up to that schema (the seeds its
    cylindric extension would contribute to the candidate set)."""
    top = merged_schema.product.top
    positions = [merged_schema.index_of(a) for a in relation.schema.attributes]
    seeds: Set[Item] = set()
    for item in relation.asserted:
        padded = list(top)
        for position, value in zip(positions, item):
            padded[position] = value
        seeds.add(tuple(padded))
    return positions, seeds


def divide(
    dividend: HRelation, divisor: HRelation, name: str | None = None,
    consolidate: bool = True,
) -> HRelation:
    """Relational division with flat semantics: the kept sub-items of
    ``dividend`` related to *every* atom of ``divisor``'s extension.

    Division is a universal quantifier, i.e. a conjunction over the
    divisor's atoms — which *is* pointwise: partially explicate the
    shared attributes, slice per divisor atom, and AND the slices with
    the combinator.  An empty divisor divides out to the plain
    projection, matching the textbook convention.
    """
    shared = list(divisor.schema.attributes)
    for attribute in shared:
        if dividend.schema.hierarchy_for(attribute) is not divisor.schema.hierarchy_for(
            attribute
        ):
            raise SchemaError(
                "division attribute {!r} is bound to different hierarchies".format(
                    attribute
                )
            )
    kept = [a for a in dividend.schema.attributes if a not in set(shared)]
    if not kept:
        raise SchemaError("division needs at least one surviving attribute")
    out_name = name or "{}_divide_{}".format(dividend.name, divisor.name)
    _count("divide")
    # The divisor's extension is streamed straight off its bulk
    # evaluator — the atoms are never sorted or collected into a list.
    # AND is symmetric and the candidate set is a union of the slices'
    # seeds, so enumeration order cannot affect the result.
    atoms = divisor.extension()
    first = next(atoms, None)
    if first is None:
        return project(dividend, kept, name=out_name, consolidate=consolidate)

    with _span(
        "algebra.divide",
        dividend=dividend.name,
        divisor=divisor.name,
        tuples_in=len(dividend),
    ) as sp:
        out_schema = dividend.schema.restrict(kept)
        kept_indices = [dividend.schema.index_of(a) for a in kept]
        shared_indices = [dividend.schema.index_of(a) for a in shared]
        partial = _explicate(dividend, attributes=shared, drop_negated=False)
        slices: Dict[Tuple[str, ...], HRelation] = {}
        for item, truth in partial.asserted.items():
            atom_key = tuple(item[i] for i in shared_indices)
            piece = slices.get(atom_key)
            if piece is None:
                piece = HRelation(out_schema, name="slice", strategy=dividend.strategy)
                slices[atom_key] = piece
            piece.assert_item(tuple(item[i] for i in kept_indices), truth=truth)
        empty = HRelation(out_schema, name="empty", strategy=dividend.strategy)
        pieces: List[HRelation] = []
        atom = first
        while atom is not None:
            pieces.append(slices.get(atom, empty))
            atom = next(atoms, None)
        sp.annotate(divisor_atoms=len(pieces))
        return combine(
            pieces,
            lambda *truths: all(truths),
            name=out_name,
            consolidate=consolidate,
            fn_token="all",
        )


def semijoin(
    left: HRelation, right: HRelation, name: str | None = None, consolidate: bool = True
) -> HRelation:
    """``left ⋉ right``: the left atoms with at least one join partner.

    Flat semantics: project the natural join back onto the left schema
    and intersect with the left relation — built from the primitives so
    it inherits their flat-equivalence guarantee.
    """
    out_name = name or "{}_semijoin_{}".format(left.name, right.name)
    _count("semijoin")
    with _span("algebra.semijoin", left=left.name, right=right.name):
        joined = join(left, right, consolidate=False)
        back = project(joined, list(left.schema.attributes), consolidate=False)
        return intersection(left, back, name=out_name, consolidate=consolidate)


def antijoin(
    left: HRelation, right: HRelation, name: str | None = None, consolidate: bool = True
) -> HRelation:
    """``left ▷ right``: the left atoms with *no* join partner."""
    out_name = name or "{}_antijoin_{}".format(left.name, right.name)
    _count("antijoin")
    with _span("algebra.antijoin", left=left.name, right=right.name):
        matched = semijoin(left, right, consolidate=False)
        return difference(left, matched, name=out_name, consolidate=consolidate)


def rename(
    relation: HRelation, mapping: Mapping[str, str], name: str | None = None
) -> HRelation:
    """A copy of ``relation`` with attributes renamed (values untouched)."""
    out_schema = relation.schema.renamed(dict(mapping))
    out = HRelation(out_schema, name=name or relation.name, strategy=relation.strategy)
    for item, truth in relation.asserted.items():
        out.assert_item(item, truth=truth)
    return out
