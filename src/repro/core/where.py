"""A condition language for selections: boolean combinations of
class-membership tests.

Section 3.4's examples only select by a single class; real queries want
"penguins that are not amazing flying penguins" or "royal or Indian
elephants".  Any boolean combination of membership tests is still
*pointwise* — each membership cone is a consistent one-tuple relation,
and the whole expression is evaluated per meet-closure candidate — so
the same combinator that powers the basic operators handles it, with
the same flat-equivalence guarantee:

    flatten(select_where(R, expr)) ==
        {x in flatten(R) : expr holds of x's attribute values}

Build conditions with :func:`member` and combine with ``&``, ``|``,
``~`` (or the spelled-out :class:`And` / :class:`Or` / :class:`Not`):

>>> # select_where(flies, member("creature", "penguin")
>>> #                     & ~member("creature", "amazing_flying_penguin"))
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import SchemaError


class Condition:
    """Base class; supports ``&``, ``|``, ``~`` composition."""

    def members(self) -> List["Member"]:
        """Every membership leaf, left to right (with duplicates removed
        by the caller)."""
        raise NotImplementedError

    def evaluate(self, assignment: Dict["Member", bool]) -> bool:
        """The condition's value given each leaf's truth."""
        raise NotImplementedError

    def __and__(self, other: "Condition") -> "Condition":
        return And(self, other)

    def __or__(self, other: "Condition") -> "Condition":
        return Or(self, other)

    def __invert__(self) -> "Condition":
        return Not(self)


class Member(Condition):
    """``attribute``'s value lies inside ``node``'s cone (an instance is
    a singleton class, so equality tests are this too)."""

    def __init__(self, attribute: str, node: str) -> None:
        self.attribute = attribute
        self.node = node

    def members(self) -> List["Member"]:
        return [self]

    def evaluate(self, assignment: Dict["Member", bool]) -> bool:
        return assignment[self]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Member)
            and self.attribute == other.attribute
            and self.node == other.node
        )

    def __hash__(self) -> int:
        return hash((self.attribute, self.node))

    def __repr__(self) -> str:
        return "member({!r}, {!r})".format(self.attribute, self.node)


class And(Condition):
    def __init__(self, *parts: Condition) -> None:
        if not parts:
            raise SchemaError("And needs at least one part")
        self.parts = parts

    def members(self) -> List[Member]:
        return [m for part in self.parts for m in part.members()]

    def evaluate(self, assignment: Dict[Member, bool]) -> bool:
        return all(part.evaluate(assignment) for part in self.parts)

    def __repr__(self) -> str:
        return "(" + " & ".join(repr(p) for p in self.parts) + ")"


class Or(Condition):
    def __init__(self, *parts: Condition) -> None:
        if not parts:
            raise SchemaError("Or needs at least one part")
        self.parts = parts

    def members(self) -> List[Member]:
        return [m for part in self.parts for m in part.members()]

    def evaluate(self, assignment: Dict[Member, bool]) -> bool:
        return any(part.evaluate(assignment) for part in self.parts)

    def __repr__(self) -> str:
        return "(" + " | ".join(repr(p) for p in self.parts) + ")"


class Not(Condition):
    def __init__(self, part: Condition) -> None:
        self.part = part

    def members(self) -> List[Member]:
        return self.part.members()

    def evaluate(self, assignment: Dict[Member, bool]) -> bool:
        return not self.part.evaluate(assignment)

    def __repr__(self) -> str:
        return "~{!r}".format(self.part)


def member(attribute: str, node: str) -> Member:
    """The basic membership test (see :class:`Member`)."""
    return Member(attribute, node)


def select_where(relation, condition: Condition, name: str | None = None,
                 consolidate: bool = True):
    """Selection by an arbitrary boolean membership condition.

    The relation's own truth is ANDed with the condition, so the result
    is always a sub-relation of the input (zero-preservation holds
    whatever the condition, including pure negations).
    """
    from repro.core.algebra import select_cones

    leaves: List[Member] = []
    for leaf in condition.members():
        if leaf not in leaves:
            leaves.append(leaf)
    cones = [
        relation.schema.item_from_mapping(
            {leaf.attribute: leaf.node}, default_top=True
        )
        for leaf in leaves
    ]

    def fn(relation_truth: bool, *cone_truths: bool) -> bool:
        assignment = dict(zip(leaves, cone_truths))
        return relation_truth and condition.evaluate(assignment)

    return select_cones(
        relation,
        cones,
        fn,
        name or "{}_where".format(relation.name),
        consolidate=consolidate,
    )
