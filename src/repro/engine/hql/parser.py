"""Recursive-descent parser for HQL.

``parse(text)`` returns a list of :mod:`~repro.engine.hql.ast`
statements; all errors are :class:`~repro.errors.HQLSyntaxError` with a
line/column position.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.engine.hql import ast
from repro.engine.hql.lexer import Token, tokenize
from repro.errors import HQLSyntaxError

_BINARY_OPS = {"JOIN", "UNION", "INTERSECT", "DIFFERENCE", "DIVIDE", "SEMIJOIN", "ANTIJOIN"}


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type != "EOF":
            self._pos += 1
        return token

    def _error(self, message: str) -> HQLSyntaxError:
        token = self._peek()
        return HQLSyntaxError(message, token.line, token.column)

    def _at_keyword(self, *keywords: str) -> bool:
        return self._peek().keyword() in keywords

    def _expect_keyword(self, keyword: str) -> Token:
        if not self._at_keyword(keyword):
            raise self._error(
                "expected {!r}, found {!r}".format(keyword, self._peek().value)
            )
        return self._advance()

    def _accept_keyword(self, keyword: str) -> bool:
        if self._at_keyword(keyword):
            self._advance()
            return True
        return False

    def _expect_type(self, token_type: str) -> Token:
        if self._peek().type != token_type:
            raise self._error(
                "expected {}, found {!r}".format(token_type, self._peek().value)
            )
        return self._advance()

    def _name(self) -> str:
        """An identifier or quoted string used as a name/value."""
        token = self._peek()
        if token.type in ("IDENT", "STRING"):
            self._advance()
            return token.value
        raise self._error("expected a name, found {!r}".format(token.value))

    def _name_list(self) -> Tuple[str, ...]:
        names = [self._name()]
        while self._peek().type == "COMMA":
            self._advance()
            names.append(self._name())
        return tuple(names)

    def _values_in_parens(self) -> Tuple[str, ...]:
        self._expect_type("LPAREN")
        values = self._name_list()
        self._expect_type("RPAREN")
        return values

    def _optional_alias(self) -> Optional[str]:
        if self._accept_keyword("AS"):
            return self._name()
        return None

    def _nonnegative_int(self, what: str) -> int:
        """A number after LIMIT/OFFSET.  Numbers lex as IDENT tokens
        (bare words), so validation happens here."""
        token = self._peek()
        if token.type != "IDENT" or not token.value.isdigit():
            raise self._error(
                "expected a non-negative integer after {}, found {!r}".format(
                    what, token.value
                )
            )
        self._advance()
        return int(token.value)

    def _limit_clause(self) -> Tuple[Optional[int], int]:
        """``[LIMIT n|ALL [OFFSET m]]`` — ``(limit, offset)``, with
        ``None`` for no/ALL limit."""
        limit: Optional[int] = None
        offset = 0
        if self._accept_keyword("LIMIT"):
            if not self._accept_keyword("ALL"):
                limit = self._nonnegative_int("LIMIT")
            if self._accept_keyword("OFFSET"):
                offset = self._nonnegative_int("OFFSET")
        return limit, offset

    def _end_statement(self) -> None:
        if self._peek().type == "SEMI":
            self._advance()
        elif self._peek().type != "EOF":
            raise self._error(
                "expected ';' or end of input, found {!r}".format(self._peek().value)
            )

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def parse(self) -> List[ast.Statement]:
        statements: List[ast.Statement] = []
        while self._peek().type != "EOF":
            if self._peek().type == "SEMI":  # empty statement
                self._advance()
                continue
            statements.append(self._statement())
            self._end_statement()
        return statements

    def _statement(self) -> ast.Statement:
        keyword = self._peek().keyword()
        handler = {
            "CREATE": self._create,
            "PREFER": self._prefer,
            "ASSERT": self._assert,
            "RETRACT": self._retract,
            "TRUTH": self._truth,
            "JUSTIFY": self._justify,
            "SELECT": self._select,
            "PROJECT": self._project,
            "CONSOLIDATE": self._consolidate,
            "EXPLICATE": self._explicate,
            "CONFLICTS": self._conflicts,
            "EXTENSION": self._extension,
            "COUNT": self._count,
            "LOAD": self._load,
            "EXPLAIN": self._explain,
            "STATS": self._stats,
            "SHOW": self._show,
            "BEGIN": self._begin,
            "COMMIT": self._commit,
            "ROLLBACK": self._rollback,
            "DROP": self._drop,
            "SAVE": self._save,
        }.get(keyword)
        if handler is not None:
            return handler()
        if keyword in _BINARY_OPS:
            return self._binary_op()
        raise self._error("unknown statement {!r}".format(self._peek().value))

    def _create(self) -> ast.Statement:
        self._expect_keyword("CREATE")
        if self._accept_keyword("HIERARCHY"):
            name = self._name()
            root = self._name() if self._accept_keyword("ROOT") else None
            return ast.CreateHierarchy(name=name, root=root)
        if self._at_keyword("CLASS", "INSTANCE"):
            instance = self._advance().keyword() == "INSTANCE"
            name = self._name()
            self._expect_keyword("IN")
            hierarchy = self._name()
            parents: Tuple[str, ...] = ()
            if self._accept_keyword("UNDER"):
                parents = self._name_list()
            return ast.CreateNode(
                name=name, hierarchy=hierarchy, parents=parents, instance=instance
            )
        if self._accept_keyword("RELATION"):
            name = self._name()
            self._expect_type("LPAREN")
            attributes = []
            while True:
                attr = self._name()
                self._expect_type("COLON")
                hier = self._name()
                attributes.append((attr, hier))
                if self._peek().type == "COMMA":
                    self._advance()
                    continue
                break
            self._expect_type("RPAREN")
            strategy = None
            if self._accept_keyword("WITH"):
                self._expect_keyword("STRATEGY")
                strategy = self._name()
            return ast.CreateRelation(
                name=name, attributes=tuple(attributes), strategy=strategy
            )
        raise self._error("expected HIERARCHY, CLASS, INSTANCE, or RELATION")

    def _prefer(self) -> ast.Statement:
        self._expect_keyword("PREFER")
        stronger = self._name()
        self._expect_keyword("OVER")
        weaker = self._name()
        self._expect_keyword("IN")
        hierarchy = self._name()
        return ast.Prefer(stronger=stronger, weaker=weaker, hierarchy=hierarchy)

    def _assert(self) -> ast.Statement:
        self._expect_keyword("ASSERT")
        truth = not self._accept_keyword("NOT")
        relation = self._name()
        values = self._values_in_parens()
        return ast.Assert(relation=relation, values=values, truth=truth)

    def _retract(self) -> ast.Statement:
        self._expect_keyword("RETRACT")
        relation = self._name()
        return ast.Retract(relation=relation, values=self._values_in_parens())

    def _truth(self) -> ast.Statement:
        self._expect_keyword("TRUTH")
        relation = self._name()
        return ast.Truth(relation=relation, values=self._values_in_parens())

    def _justify(self) -> ast.Statement:
        self._expect_keyword("JUSTIFY")
        relation = self._name()
        return ast.Justify(relation=relation, values=self._values_in_parens())

    def _select(self) -> ast.Statement:
        self._expect_keyword("SELECT")
        attributes: Tuple[str, ...] = ()
        if not self._accept_keyword("FROM"):
            # Optional projection list (or *) before FROM.
            if self._peek().type == "STAR":
                self._advance()
            else:
                attributes = self._name_list()
            self._expect_keyword("FROM")
        relation = self._name()
        where = self._where_expr() if self._accept_keyword("WHERE") else None
        limit, offset = self._limit_clause()
        alias = self._optional_alias()
        return ast.Select(
            relation=relation,
            where=where,
            alias=alias,
            attributes=attributes,
            limit=limit,
            offset=offset,
        )

    # WHERE grammar (loosest to tightest): OR, AND, NOT, then a
    # parenthesised expression or an ``attr = value`` / ``attr != value``
    # test.
    def _where_expr(self) -> ast.WhereExpr:
        parts = [self._where_and()]
        while self._accept_keyword("OR"):
            parts.append(self._where_and())
        return parts[0] if len(parts) == 1 else ast.WhereOr(tuple(parts))

    def _where_and(self) -> ast.WhereExpr:
        parts = [self._where_unary()]
        while self._accept_keyword("AND"):
            parts.append(self._where_unary())
        return parts[0] if len(parts) == 1 else ast.WhereAnd(tuple(parts))

    def _where_unary(self) -> ast.WhereExpr:
        if self._accept_keyword("NOT"):
            return ast.WhereNot(self._where_unary())
        if self._peek().type == "LPAREN":
            self._advance()
            inner = self._where_expr()
            self._expect_type("RPAREN")
            return inner
        attr = self._name()
        if self._peek().type == "NEQ":
            self._advance()
            return ast.WhereTest(attr, self._name(), negated=True)
        self._expect_type("EQ")
        return ast.WhereTest(attr, self._name())

    def _project(self) -> ast.Statement:
        self._expect_keyword("PROJECT")
        relation = self._name()
        self._expect_keyword("ON")
        attributes = self._name_list()
        limit, offset = self._limit_clause()
        return ast.Project(
            relation=relation,
            attributes=attributes,
            limit=limit,
            offset=offset,
            alias=self._optional_alias(),
        )

    def _binary_op(self) -> ast.Statement:
        op = self._advance().keyword()
        left = self._name()
        self._expect_keyword("WITH")
        right = self._name()
        limit, offset = self._limit_clause()
        return ast.BinaryOp(
            op=op,
            left=left,
            right=right,
            limit=limit,
            offset=offset,
            alias=self._optional_alias(),
        )

    def _consolidate(self) -> ast.Statement:
        self._expect_keyword("CONSOLIDATE")
        relation = self._name()
        return ast.Consolidate(relation=relation, alias=self._optional_alias())

    def _explicate(self) -> ast.Statement:
        self._expect_keyword("EXPLICATE")
        relation = self._name()
        attributes: Tuple[str, ...] = ()
        if self._accept_keyword("ON"):
            attributes = self._name_list()
        return ast.Explicate(
            relation=relation, attributes=attributes, alias=self._optional_alias()
        )

    def _conflicts(self) -> ast.Statement:
        self._expect_keyword("CONFLICTS")
        return ast.Conflicts(relation=self._name())

    def _extension(self) -> ast.Statement:
        self._expect_keyword("EXTENSION")
        return ast.Extension(relation=self._name())

    def _show(self) -> ast.Statement:
        self._expect_keyword("SHOW")
        if self._accept_keyword("RELATIONS"):
            return ast.Show(what="RELATIONS")
        if self._accept_keyword("HIERARCHIES"):
            return ast.Show(what="HIERARCHIES")
        raise self._error("expected RELATIONS or HIERARCHIES")

    def _begin(self) -> ast.Statement:
        self._expect_keyword("BEGIN")
        return ast.Begin()

    def _commit(self) -> ast.Statement:
        self._expect_keyword("COMMIT")
        return ast.Commit()

    def _rollback(self) -> ast.Statement:
        self._expect_keyword("ROLLBACK")
        return ast.Rollback()

    def _drop(self) -> ast.Statement:
        self._expect_keyword("DROP")
        if self._accept_keyword("RELATION"):
            return ast.Drop(kind="RELATION", name=self._name())
        if self._accept_keyword("HIERARCHY"):
            return ast.Drop(kind="HIERARCHY", name=self._name())
        raise self._error("expected RELATION or HIERARCHY")

    def _count(self) -> ast.Statement:
        self._expect_keyword("COUNT")
        relation = self._name()
        where = self._where_expr() if self._accept_keyword("WHERE") else None
        return ast.Count(relation=relation, where=where)

    def _save(self) -> ast.Statement:
        self._expect_keyword("SAVE")
        return ast.Save(path=self._name())

    def _load(self) -> ast.Statement:
        self._expect_keyword("LOAD")
        return ast.Load(path=self._name())

    def _explain(self) -> ast.Statement:
        self._expect_keyword("EXPLAIN")
        analyze = self._accept_keyword("ANALYZE")
        inner = self._statement()
        if not isinstance(
            inner, (ast.Select, ast.Count, ast.Project, ast.BinaryOp)
        ):
            raise self._error(
                "EXPLAIN supports SELECT, COUNT, PROJECT, and the binary operators"
            )
        return ast.Explain(inner=inner, analyze=analyze)

    def _stats(self) -> ast.Statement:
        self._expect_keyword("STATS")
        return ast.Stats()


def parse(text: str) -> List[ast.Statement]:
    """Parse an HQL script into a statement list."""
    return _Parser(tokenize(text)).parse()
