"""Exception policies: warn on / forbid / freely permit exceptions.

An *exception* here is an assertion whose truth value differs from what
the item would inherit anyway — a negated tuple under a positive class,
or a positive re-insertion under a negated one.  The model itself
permits them freely; a front end may instead warn, or reject them, and
may pick the policy per class ("depending on factors such as the class
involved").
"""

from __future__ import annotations

import enum
import warnings
from typing import Dict, Sequence

from repro.core import bulk as _bulk
from repro.core.relation import HRelation
from repro.errors import ReproError


class ExceptionWarning(UserWarning):
    """Issued by the WARN policy when an exception is asserted."""


class ExceptionDisallowedError(ReproError):
    """Raised by the FORBID policy when an exception is asserted."""


class ExceptionPolicy(enum.Enum):
    ALLOW = "allow"
    WARN = "warn"
    FORBID = "forbid"


class GuardedRelation:
    """An :class:`HRelation` wrapper that applies exception policies.

    The default policy applies everywhere; per-class overrides apply to
    any assertion whose item falls under the class (checked per
    attribute value).  The most specific applicable override wins;
    among incomparable overrides the strictest wins (FORBID > WARN >
    ALLOW).

    Examples
    --------
    >>> # guarded = GuardedRelation(flies, default=ExceptionPolicy.WARN)
    >>> # guarded.set_policy("penguin", ExceptionPolicy.ALLOW)
    >>> # guarded.assert_item(("penguin",), truth=False)   # no warning
    """

    _STRICTNESS = {
        ExceptionPolicy.ALLOW: 0,
        ExceptionPolicy.WARN: 1,
        ExceptionPolicy.FORBID: 2,
    }

    def __init__(
        self, relation: HRelation, default: ExceptionPolicy = ExceptionPolicy.ALLOW
    ) -> None:
        self.relation = relation
        self.default = default
        self._overrides: Dict[str, ExceptionPolicy] = {}

    def set_policy(self, class_name: str, policy: ExceptionPolicy) -> None:
        """Override the policy for items falling under ``class_name``
        (in whichever attribute hierarchy defines that class)."""
        if not any(class_name in h for h in self.relation.schema.hierarchies):
            raise ReproError(
                "class {!r} appears in no hierarchy of {}".format(
                    class_name, self.relation.schema
                )
            )
        self._overrides[class_name] = policy

    def policy_for(self, item: Sequence[str]) -> ExceptionPolicy:
        item = self.relation.schema.check_item(item)
        applicable = []
        for value, hierarchy in zip(item, self.relation.schema.hierarchies):
            for class_name, policy in self._overrides.items():
                if class_name in hierarchy and hierarchy.subsumes(class_name, value):
                    applicable.append(policy)
        if not applicable:
            return self.default
        return max(applicable, key=self._STRICTNESS.__getitem__)

    def is_exception(self, item: Sequence[str], truth: bool) -> bool:
        """Would asserting ``(item, truth)`` override an inherited value?

        True when the item currently inherits the *opposite* truth value
        from some applicable tuple (not merely the closed-world
        default)."""
        key = self.relation.schema.check_item(item)
        current, binders = _bulk.evaluator_for(self.relation).truth_and_binders(key)
        if not binders:
            return False  # only the closed-world default; not an exception
        return current is None or current != truth

    def assert_item(self, item: Sequence[str], truth: bool = True) -> None:
        """Assert through the policy gate."""
        if self.is_exception(item, truth):
            policy = self.policy_for(item)
            if policy is ExceptionPolicy.FORBID:
                raise ExceptionDisallowedError(
                    "exception at ({}) is forbidden by policy".format(", ".join(item))
                )
            if policy is ExceptionPolicy.WARN:
                warnings.warn(
                    "asserting exception at ({})".format(", ".join(item)),
                    ExceptionWarning,
                    stacklevel=2,
                )
        self.relation.assert_item(item, truth=truth)
