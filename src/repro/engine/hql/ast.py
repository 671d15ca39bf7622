"""HQL abstract syntax: one dataclass per statement kind."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


class Statement:
    """Marker base class for all HQL statements."""


class WhereExpr:
    """Marker base class for WHERE expressions."""


@dataclass(frozen=True)
class WhereTest(WhereExpr):
    """``attr = value`` (membership in the value's cone) or, negated,
    ``attr != value``."""

    attribute: str
    value: str
    negated: bool = False


@dataclass(frozen=True)
class WhereAnd(WhereExpr):
    parts: Tuple[WhereExpr, ...]


@dataclass(frozen=True)
class WhereOr(WhereExpr):
    parts: Tuple[WhereExpr, ...]


@dataclass(frozen=True)
class WhereNot(WhereExpr):
    part: WhereExpr


def conjunction(pairs) -> Optional[WhereExpr]:
    """Build the WHERE tree for plain ``a = x AND b = y`` conditions."""
    tests: List[WhereExpr] = [WhereTest(a, v) for a, v in pairs]
    if not tests:
        return None
    if len(tests) == 1:
        return tests[0]
    return WhereAnd(tuple(tests))


@dataclass(frozen=True)
class CreateHierarchy(Statement):
    name: str
    root: Optional[str] = None


@dataclass(frozen=True)
class CreateNode(Statement):
    """CREATE CLASS / CREATE INSTANCE ... IN hierarchy [UNDER parents]."""

    name: str
    hierarchy: str
    parents: Tuple[str, ...] = ()
    instance: bool = False


@dataclass(frozen=True)
class Prefer(Statement):
    """PREFER stronger OVER weaker IN hierarchy."""

    stronger: str
    weaker: str
    hierarchy: str


@dataclass(frozen=True)
class CreateRelation(Statement):
    name: str
    attributes: Tuple[Tuple[str, str], ...]
    strategy: Optional[str] = None


@dataclass(frozen=True)
class Assert(Statement):
    relation: str
    values: Tuple[str, ...]
    truth: bool = True


@dataclass(frozen=True)
class Retract(Statement):
    relation: str
    values: Tuple[str, ...]


@dataclass(frozen=True)
class Truth(Statement):
    relation: str
    values: Tuple[str, ...]


@dataclass(frozen=True)
class Justify(Statement):
    relation: str
    values: Tuple[str, ...]


@dataclass(frozen=True)
class Select(Statement):
    """``SELECT [attrs | *] FROM rel [WHERE expr] [LIMIT n [OFFSET m]]
    [AS name]`` — an empty ``attributes`` tuple (or ``*``) keeps every
    attribute.  ``limit``/``offset`` slice the *stored-tuple* result in
    insertion order before rendering (and before aliasing)."""

    relation: str
    where: Optional[WhereExpr] = None
    alias: Optional[str] = None
    attributes: Tuple[str, ...] = ()
    limit: Optional[int] = None
    offset: int = 0


@dataclass(frozen=True)
class Project(Statement):
    relation: str
    attributes: Tuple[str, ...]
    alias: Optional[str] = None
    limit: Optional[int] = None
    offset: int = 0


@dataclass(frozen=True)
class BinaryOp(Statement):
    """JOIN / UNION / INTERSECT / DIFFERENCE left WITH right
    [LIMIT n [OFFSET m]] [AS alias]."""

    op: str
    left: str
    right: str
    alias: Optional[str] = None
    limit: Optional[int] = None
    offset: int = 0


@dataclass(frozen=True)
class Consolidate(Statement):
    relation: str
    alias: Optional[str] = None


@dataclass(frozen=True)
class Explicate(Statement):
    relation: str
    attributes: Tuple[str, ...] = ()
    alias: Optional[str] = None


@dataclass(frozen=True)
class Conflicts(Statement):
    relation: str


@dataclass(frozen=True)
class Extension(Statement):
    relation: str


@dataclass(frozen=True)
class Show(Statement):
    what: str  # "RELATIONS" | "HIERARCHIES"


@dataclass(frozen=True)
class Begin(Statement):
    pass


@dataclass(frozen=True)
class Commit(Statement):
    pass


@dataclass(frozen=True)
class Rollback(Statement):
    pass


@dataclass(frozen=True)
class Drop(Statement):
    kind: str  # "RELATION" | "HIERARCHY"
    name: str


@dataclass(frozen=True)
class Count(Statement):
    """COUNT rel [WHERE expr] — extension size (section 3.3.2's
    motivating statistical operation)."""

    relation: str
    where: Optional[WhereExpr] = None


@dataclass(frozen=True)
class Save(Statement):
    path: str


@dataclass(frozen=True)
class Load(Statement):
    path: str


@dataclass(frozen=True)
class Explain(Statement):
    """EXPLAIN <query>: run the query and report how — inputs, binding
    strategy and path, meet-closure candidate count, result size.

    ``EXPLAIN ANALYZE`` additionally executes the query with tracing
    forced on and appends the per-operator span tree (wall time, tuple
    counts, cache / zero-copy / fused status)."""

    inner: Statement
    analyze: bool = False


@dataclass(frozen=True)
class Stats(Statement):
    """STATS; — render the live metrics registries (the database's
    engine metrics plus the process-global core-layer registry)."""


def _quote(name: str) -> str:
    """Quote a name for HQL output when it is not a bare identifier."""
    if name and all(ch.isalnum() or ch in "_-." for ch in name):
        return name
    return "'{}'".format(name)


def _limit_to_hql(statement) -> str:
    """The `` LIMIT n [OFFSET m]`` suffix of a sliceable statement
    (empty when no limit/offset is set)."""
    if statement.limit is None and not statement.offset:
        return ""
    text = " LIMIT {}".format("ALL" if statement.limit is None else statement.limit)
    if statement.offset:
        text += " OFFSET {}".format(statement.offset)
    return text


def where_to_hql(expr: WhereExpr) -> str:
    """Render a WHERE expression (fully parenthesised for compounds, so
    the round-trip never depends on precedence)."""
    if isinstance(expr, WhereTest):
        return "{} {} {}".format(
            _quote(expr.attribute), "!=" if expr.negated else "=", _quote(expr.value)
        )
    if isinstance(expr, WhereAnd):
        return "(" + " AND ".join(where_to_hql(p) for p in expr.parts) + ")"
    if isinstance(expr, WhereOr):
        return "(" + " OR ".join(where_to_hql(p) for p in expr.parts) + ")"
    if isinstance(expr, WhereNot):
        return "NOT {}".format(where_to_hql(expr.part))
    raise TypeError("no HQL rendering for {}".format(type(expr).__name__))


def to_hql(statement: Statement) -> str:
    """Render a statement back to HQL text (used by the operation log;
    ``parse(to_hql(s)) == [s]`` for every statement kind)."""
    if isinstance(statement, CreateHierarchy):
        text = "CREATE HIERARCHY {}".format(_quote(statement.name))
        if statement.root:
            text += " ROOT {}".format(_quote(statement.root))
        return text + ";"
    if isinstance(statement, CreateNode):
        text = "CREATE {} {} IN {}".format(
            "INSTANCE" if statement.instance else "CLASS",
            _quote(statement.name),
            _quote(statement.hierarchy),
        )
        if statement.parents:
            text += " UNDER {}".format(", ".join(_quote(p) for p in statement.parents))
        return text + ";"
    if isinstance(statement, Prefer):
        return "PREFER {} OVER {} IN {};".format(
            _quote(statement.stronger), _quote(statement.weaker), _quote(statement.hierarchy)
        )
    if isinstance(statement, CreateRelation):
        text = "CREATE RELATION {} ({})".format(
            _quote(statement.name),
            ", ".join("{}: {}".format(_quote(a), _quote(h)) for a, h in statement.attributes),
        )
        if statement.strategy:
            text += " WITH STRATEGY '{}'".format(statement.strategy)
        return text + ";"
    if isinstance(statement, Assert):
        return "ASSERT {}{} ({});".format(
            "" if statement.truth else "NOT ",
            _quote(statement.relation),
            ", ".join(_quote(v) for v in statement.values),
        )
    if isinstance(statement, Retract):
        return "RETRACT {} ({});".format(
            _quote(statement.relation), ", ".join(_quote(v) for v in statement.values)
        )
    if isinstance(statement, Truth):
        return "TRUTH {} ({});".format(
            _quote(statement.relation), ", ".join(_quote(v) for v in statement.values)
        )
    if isinstance(statement, Justify):
        return "JUSTIFY {} ({});".format(
            _quote(statement.relation), ", ".join(_quote(v) for v in statement.values)
        )
    if isinstance(statement, Select):
        if statement.attributes:
            text = "SELECT {} FROM {}".format(
                ", ".join(_quote(a) for a in statement.attributes),
                _quote(statement.relation),
            )
        else:
            text = "SELECT FROM {}".format(_quote(statement.relation))
        if statement.where is not None:
            text += " WHERE {}".format(where_to_hql(statement.where))
        text += _limit_to_hql(statement)
        if statement.alias:
            text += " AS {}".format(_quote(statement.alias))
        return text + ";"
    if isinstance(statement, Project):
        text = "PROJECT {} ON {}".format(
            _quote(statement.relation), ", ".join(_quote(a) for a in statement.attributes)
        )
        text += _limit_to_hql(statement)
        if statement.alias:
            text += " AS {}".format(_quote(statement.alias))
        return text + ";"
    if isinstance(statement, BinaryOp):
        text = "{} {} WITH {}".format(
            statement.op, _quote(statement.left), _quote(statement.right)
        )
        text += _limit_to_hql(statement)
        if statement.alias:
            text += " AS {}".format(_quote(statement.alias))
        return text + ";"
    if isinstance(statement, Consolidate):
        text = "CONSOLIDATE {}".format(_quote(statement.relation))
        if statement.alias:
            text += " AS {}".format(_quote(statement.alias))
        return text + ";"
    if isinstance(statement, Explicate):
        text = "EXPLICATE {}".format(_quote(statement.relation))
        if statement.attributes:
            text += " ON {}".format(", ".join(_quote(a) for a in statement.attributes))
        if statement.alias:
            text += " AS {}".format(_quote(statement.alias))
        return text + ";"
    if isinstance(statement, Conflicts):
        return "CONFLICTS {};".format(_quote(statement.relation))
    if isinstance(statement, Extension):
        return "EXTENSION {};".format(_quote(statement.relation))
    if isinstance(statement, Count):
        text = "COUNT {}".format(_quote(statement.relation))
        if statement.where is not None:
            text += " WHERE {}".format(where_to_hql(statement.where))
        return text + ";"
    if isinstance(statement, Show):
        return "SHOW {};".format(statement.what)
    if isinstance(statement, Begin):
        return "BEGIN;"
    if isinstance(statement, Commit):
        return "COMMIT;"
    if isinstance(statement, Rollback):
        return "ROLLBACK;"
    if isinstance(statement, Drop):
        return "DROP {} {};".format(statement.kind, _quote(statement.name))
    if isinstance(statement, Save):
        return "SAVE '{}';".format(statement.path)
    if isinstance(statement, Load):
        return "LOAD '{}';".format(statement.path)
    if isinstance(statement, Explain):
        return (
            "EXPLAIN ANALYZE " if statement.analyze else "EXPLAIN "
        ) + to_hql(statement.inner)
    if isinstance(statement, Stats):
        return "STATS;"
    raise TypeError("no HQL rendering for {}".format(type(statement).__name__))


#: Statement kinds that mutate the database (the operation log records
#: these and only these).
MUTATING = (
    CreateHierarchy,
    CreateNode,
    Prefer,
    CreateRelation,
    Assert,
    Retract,
    Consolidate,
    Explicate,
    Drop,
)
