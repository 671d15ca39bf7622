"""The paper's primary contribution: the hierarchical relational model.

The public surface re-exported here is what the README documents:

* :class:`RelationSchema` — attribute names bound to hierarchy domains;
* :class:`HTuple` — an item plus a truth value (section 2.1);
* :class:`HRelation` — a hierarchical relation (sections 2.1–2.2);
* preemption strategies ``OFF_PATH`` / ``ON_PATH`` / ``NO_PREEMPTION``
  (appendix);
* the per-item binding reference: :func:`truth_of`,
  :func:`strongest_binders`, :func:`justify`, :func:`binding_graph`;
* the engine every relation answers from: :class:`BulkEvaluator` /
  :func:`evaluator_for`, :func:`bulk_truth_of` / :func:`bulk_truths`;
* conflict machinery: :func:`find_conflicts`,
  :func:`complete_resolution_set`, :func:`minimal_resolution_set`;
* the two new operators: :func:`consolidate` and :func:`explicate`
  (section 3.3);
* the standard operators, redefined for hierarchical relations
  (section 3.4): :func:`select`, :func:`project`, :func:`join`,
  :func:`union`, :func:`intersection`, :func:`difference`,
  :func:`rename`.
"""

from repro.core import aggregate
from repro.core.algebra import (
    antijoin,
    difference,
    divide,
    intersection,
    join,
    project,
    rename,
    select,
    semijoin,
    union,
)
from repro.core.binding import (
    Justification,
    binding_graph,
    justify,
    strongest_binders,
    subsumption_graph,
    truth_of,
)
from repro.core.bulk import (
    BulkEvaluator,
    evaluator_for,
    truth_of as bulk_truth_of,
    truths as bulk_truths,
)
from repro.core.conflicts import (
    Conflict,
    complete_resolution_set,
    find_conflicts,
    is_consistent,
    minimal_resolution_set,
)
from repro.core.consolidate import consolidate
from repro.core.equivalence import (
    containment_witness,
    contains,
    difference_witness,
    equivalent,
)
from repro.core.explicate import explicate
from repro.core.htuple import UNIVERSAL, HTuple, format_item
from repro.core.integrity import IntegrityChecker, check_consistent
from repro.core.preemption import (
    NO_PREEMPTION,
    OFF_PATH,
    ON_PATH,
    PreemptionStrategy,
)
from repro.core.provenance import AssertionRecord, ProvenanceTracker
from repro.core.relation import HRelation
from repro.core.schema import RelationSchema
from repro.core.views import MaterializedView, ViewPlan, ViewRegistry, ViewRelation
from repro.core.where import And, Condition, Member, Not, Or, member, select_where

__all__ = [
    "RelationSchema",
    "HTuple",
    "UNIVERSAL",
    "format_item",
    "HRelation",
    "OFF_PATH",
    "ON_PATH",
    "NO_PREEMPTION",
    "PreemptionStrategy",
    "Justification",
    "binding_graph",
    "justify",
    "strongest_binders",
    "subsumption_graph",
    "truth_of",
    "BulkEvaluator",
    "evaluator_for",
    "bulk_truth_of",
    "bulk_truths",
    "Conflict",
    "complete_resolution_set",
    "find_conflicts",
    "is_consistent",
    "minimal_resolution_set",
    "consolidate",
    "explicate",
    "select",
    "project",
    "join",
    "semijoin",
    "antijoin",
    "divide",
    "equivalent",
    "contains",
    "difference_witness",
    "containment_witness",
    "union",
    "intersection",
    "difference",
    "rename",
    "IntegrityChecker",
    "check_consistent",
    "Condition",
    "Member",
    "And",
    "Or",
    "Not",
    "member",
    "select_where",
    "aggregate",
    "MaterializedView",
    "ViewPlan",
    "ViewRegistry",
    "ViewRelation",
    "ProvenanceTracker",
    "AssertionRecord",
]
