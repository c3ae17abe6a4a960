"""Recursive-descent parser for the SELECT-only SQL dialect.

Covers: CTEs (with a recursive flag), joins, set operations, subqueries
(scalar, IN, EXISTS, derived tables), CASE, casts (both spellings),
aggregate and scalar function calls, LIKE/BETWEEN/IN predicates, and
window calls parsed as opaque function calls. The whole input must
parse.

Nesting is capped at MAX_DEPTH so that every recursive pass over a tree
(render, bind, execute, `walk`, features) stays well inside Python's
recursion limit. Two measures must each stay within it: the parser's
own nesting (one level per statement, per expression -- so per
parenthesis -- and per parenthesized join) and the height of the tree
(the statement node is level 1). Deeper input is a SqlSyntaxError.
"""

from .ast_nodes import (
    ArrayLit, Between, Binary, Case, Cast, ColumnRef, Cte, DerivedTable,
    Exists, FuncCall, InList, InSubquery, IsNull, Join, Like, LimitClause,
    Literal, OrderItem, Quantified, SelectCore, SelectItem, SelectStmt,
    SetOp, Star, Subquery, TableRef, Unary, children,
)
from .errors import SqlSyntaxError, UnsupportedConstruct
from .lexer import tokenize

MAX_DEPTH = 64
_TOO_DEEP = f"query nested deeper than {MAX_DEPTH} levels"


def parse_sql(text):
    """Parse one SELECT statement. Returns a SelectStmt.

    Raises SqlSyntaxError (with byte offset and an expected-token hint) on
    malformed input, and UnsupportedConstruct for recognized-but-unsupported
    syntax.
    """
    if not text or not text.strip():
        raise SqlSyntaxError("empty query text", 0, "SELECT")
    stmt = _Parser(text, tokenize(text)).parse_statement()
    if _height(stmt) > MAX_DEPTH:
        raise SqlSyntaxError(_TOO_DEEP, 0)
    return stmt


def _height(root):
    """Levels of the tree under `root` (iterative, so any height works)."""
    height = 0
    stack = [(root, 1)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        stack.extend((child, level + 1) for child in children(node))
    return height


class _Parser:
    def __init__(self, text, tokens):
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # nesting of the sub-parse in progress

    # --- token helpers ---

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def take(self):
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at_kw(self, *words):
        tok = self.peek()
        return tok.kind == "KW" and tok.value in words

    def at_op(self, *ops):
        tok = self.peek()
        return tok.kind == "OP" and tok.value in ops

    def accept_kw(self, *words):
        if self.at_kw(*words):
            return self.take()
        return None

    def accept_op(self, *ops):
        if self.at_op(*ops):
            return self.take()
        return None

    def expect_kw(self, word):
        tok = self.peek()
        if tok.kind == "KW" and tok.value == word:
            return self.take()
        raise SqlSyntaxError(f"unexpected {tok.raw or 'end of input'!r}",
                             tok.offset, word)

    def expect_op(self, op):
        tok = self.peek()
        if tok.kind == "OP" and tok.value == op:
            return self.take()
        raise SqlSyntaxError(f"unexpected {tok.raw or 'end of input'!r}",
                             tok.offset, f"'{op}'")

    def descend(self):
        """Enter one nesting level; the caller leaves with `ascend`."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise SqlSyntaxError(_TOO_DEEP, self.peek().offset)

    def ascend(self, node):
        self.depth -= 1
        return node

    def error(self, expected):
        tok = self.peek()
        what = tok.raw if tok.kind != "EOF" else "end of input"
        raise SqlSyntaxError(f"unexpected {what!r}", tok.offset, expected)

    # --- statement level ---

    def parse_statement(self):
        stmt = self.parse_select_stmt()
        self.accept_op(";")
        if self.peek().kind != "EOF":
            self.error("end of statement")
        return stmt

    def parse_select_stmt(self):
        self.descend()
        ctes = []
        if self.accept_kw("WITH"):
            recursive = bool(self.accept_kw("RECURSIVE"))
            ctes.append(self.parse_cte(recursive))
            while self.accept_op(","):
                ctes.append(self.parse_cte(recursive))

        body = self.parse_set_expr()

        order_by = []
        if self.accept_kw("ORDER"):
            self.expect_kw("BY")
            order_by.append(self.parse_order_item())
            while self.accept_op(","):
                order_by.append(self.parse_order_item())

        limit = None
        if self.accept_kw("LIMIT"):
            count = self.parse_expr()
            offset = self.parse_expr() if self.accept_kw("OFFSET") else None
            limit = LimitClause(count, offset)
        elif self.accept_kw("OFFSET"):
            # OFFSET without LIMIT: keep the offset, no count cap
            offset = self.parse_expr()
            limit = LimitClause(Literal(None), offset)

        return self.ascend(SelectStmt(body=body, ctes=ctes, order_by=order_by,
                                      limit=limit))

    def parse_cte(self, recursive):
        name = self.parse_identifier("CTE name")[0]
        columns = []
        if self.accept_op("("):
            columns.append(self.parse_identifier("column name")[0])
            while self.accept_op(","):
                columns.append(self.parse_identifier("column name")[0])
            self.expect_op(")")
        self.expect_kw("AS")
        self.expect_op("(")
        query = self.parse_select_stmt()
        self.expect_op(")")
        return Cte(name=name, query=query, columns=columns, recursive=recursive)

    def parse_set_expr(self):
        left = self.parse_set_term()
        while self.at_kw("UNION", "EXCEPT"):
            kind = self.take().value.lower()
            all_flag = bool(self.accept_kw("ALL"))
            if not all_flag:
                self.accept_kw("DISTINCT")
            right = self.parse_set_term()
            left = SetOp(kind=kind, all=all_flag, left=left, right=right)
        return left

    def parse_set_term(self):
        # INTERSECT binds tighter than UNION/EXCEPT
        left = self.parse_core_or_paren()
        while self.at_kw("INTERSECT"):
            self.take()
            all_flag = bool(self.accept_kw("ALL"))
            if not all_flag:
                self.accept_kw("DISTINCT")
            right = self.parse_core_or_paren()
            left = SetOp(kind="intersect", all=all_flag, left=left, right=right)
        return left

    def parse_core_or_paren(self):
        if self.at_op("("):
            self.take()
            inner = self.parse_select_stmt()
            self.expect_op(")")
            if not inner.ctes and not inner.order_by and inner.limit is None:
                return inner.body
            return inner
        return self.parse_select_core()

    def parse_select_core(self):
        self.expect_kw("SELECT")
        distinct = False
        if self.accept_kw("DISTINCT"):
            distinct = True
        else:
            self.accept_kw("ALL")

        items = [self.parse_select_item()]
        while self.accept_op(","):
            items.append(self.parse_select_item())

        from_item = None
        if self.accept_kw("FROM"):
            from_item = self.parse_from_item()
            while self.accept_op(","):
                right = self.parse_from_item()
                from_item = Join(kind="cross", left=from_item, right=right)

        where = self.parse_expr() if self.accept_kw("WHERE") else None

        group_by = []
        if self.accept_kw("GROUP"):
            self.expect_kw("BY")
            group_by.append(self.parse_expr())
            while self.accept_op(","):
                group_by.append(self.parse_expr())

        having = self.parse_expr() if self.accept_kw("HAVING") else None

        return SelectCore(items=items, from_item=from_item, where=where,
                          group_by=group_by, having=having, distinct=distinct)

    def parse_select_item(self):
        if self.at_op("*"):
            self.take()
            return Star()
        # qualified star: name . *
        if self.peek().kind in ("IDENT", "QIDENT") and \
                self.peek(1).kind == "OP" and self.peek(1).value == "." and \
                self.peek(2).kind == "OP" and self.peek(2).value == "*":
            name = self.take().value
            self.take()
            self.take()
            return Star(qualifier=name)
        expr = self.parse_expr()
        alias, quoted = self.parse_optional_alias()
        return SelectItem(expr=expr, alias=alias, alias_quoted=quoted)

    def parse_optional_alias(self):
        if self.accept_kw("AS"):
            return self.parse_identifier("alias")
        tok = self.peek()
        if tok.kind in ("IDENT", "QIDENT"):
            return self.parse_identifier("alias")
        return None, False

    def parse_identifier(self, what):
        tok = self.peek()
        if tok.kind == "IDENT":
            self.take()
            return tok.value, False
        if tok.kind == "QIDENT":
            self.take()
            return tok.value, True
        self.error(what)

    def parse_from_item(self):
        left = self.parse_from_primary()
        while True:
            kind = self.peek_join_kind()
            if kind is None:
                return left
            right = self.parse_from_primary()
            condition = None
            if kind != "cross":
                self.expect_kw("ON")
                condition = self.parse_expr()
            left = Join(kind=kind, left=left, right=right, condition=condition)

    def peek_join_kind(self):
        """Consume a join introducer and return its kind, or None."""
        if self.at_kw("NATURAL") or self.at_kw("USING"):
            tok = self.peek()
            raise UnsupportedConstruct(
                f"{tok.value} joins are outside the dialect subset "
                f"(offset {tok.offset})")
        if self.accept_kw("JOIN"):
            return "inner"
        if self.accept_kw("INNER"):
            self.expect_kw("JOIN")
            return "inner"
        for word in ("LEFT", "RIGHT", "FULL"):
            if self.at_kw(word):
                self.take()
                self.accept_kw("OUTER")
                self.expect_kw("JOIN")
                return word.lower()
        if self.accept_kw("CROSS"):
            self.expect_kw("JOIN")
            return "cross"
        return None

    def parse_from_primary(self):
        if self.accept_op("("):
            if self.at_kw("SELECT", "WITH"):
                query = self.parse_select_stmt()
                self.expect_op(")")
                alias, _ = self.parse_optional_alias()
                return DerivedTable(query=query, alias=alias)
            # parenthesized join tree
            self.descend()
            item = self.parse_from_item()
            self.expect_op(")")
            return self.ascend(item)
        name, quoted = self.parse_identifier("table name")
        alias, _ = self.parse_optional_alias()
        return TableRef(name=name, alias=alias, quoted=quoted)

    def parse_order_item(self):
        expr = self.parse_expr()
        descending = False
        if self.accept_kw("DESC"):
            descending = True
        else:
            self.accept_kw("ASC")
        return OrderItem(expr=expr, descending=descending)

    # --- expressions ---

    def parse_expr(self):
        self.descend()
        return self.ascend(self.parse_or())

    def parse_or(self):
        left = self.parse_and()
        while self.accept_kw("OR"):
            left = Binary("OR", left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_not()
        while self.accept_kw("AND"):
            left = Binary("AND", left, self.parse_not())
        return left

    def parse_not(self):
        nots = 0
        while self.accept_kw("NOT"):
            nots += 1
        expr = self.parse_predicate()
        for _ in range(nots):
            expr = Unary("NOT", expr)
        return expr

    def parse_predicate(self):
        left = self.parse_additive()
        while True:
            if self.at_op("=", "<>", "!=", "<", "<=", ">", ">="):
                op = self.take().value
                if op == "!=":
                    op = "<>"
                if self.at_kw("ANY", "SOME", "ALL"):
                    quant = self.take().value
                    quant = "ANY" if quant == "SOME" else quant
                    operand = self.parse_quantified_operand()
                    left = Quantified(op=op, left=left, quantifier=quant,
                                      operand=operand)
                else:
                    left = Binary(op, left, self.parse_additive())
                continue
            if self.accept_kw("IS"):
                negated = bool(self.accept_kw("NOT"))
                self.expect_kw("NULL")
                left = IsNull(left, negated=negated)
                continue
            negated = bool(self.accept_kw("NOT"))
            if self.accept_kw("IN"):
                left = self.parse_in_tail(left, negated)
                continue
            if self.accept_kw("BETWEEN"):
                low = self.parse_additive()
                self.expect_kw("AND")
                high = self.parse_additive()
                left = Between(left, low, high, negated=negated)
                continue
            if self.accept_kw("LIKE"):
                left = Like(left, self.parse_additive(), negated=negated)
                continue
            if negated:
                self.error("IN, BETWEEN, or LIKE after NOT")
            return left

    def parse_quantified_operand(self):
        self.expect_op("(")
        if self.at_kw("SELECT", "WITH"):
            query = self.parse_select_stmt()
            self.expect_op(")")
            return Subquery(query)
        expr = self.parse_expr()
        self.expect_op(")")
        return expr

    def parse_in_tail(self, operand, negated):
        self.expect_op("(")
        if self.at_kw("SELECT", "WITH"):
            query = self.parse_select_stmt()
            self.expect_op(")")
            return InSubquery(operand, query, negated=negated)
        items = [self.parse_expr()]
        while self.accept_op(","):
            items.append(self.parse_expr())
        self.expect_op(")")
        return InList(operand, items, negated=negated)

    def parse_additive(self):
        left = self.parse_multiplicative()
        while self.at_op("+", "-", "||"):
            op = self.take().value
            left = Binary(op, left, self.parse_multiplicative())
        return left

    def parse_multiplicative(self):
        left = self.parse_unary()
        while self.at_op("*", "/", "%"):
            op = self.take().value
            left = Binary(op, left, self.parse_unary())
        return left

    def parse_unary(self):
        signs = []
        while self.at_op("-", "+"):
            signs.append(self.take().value)
        expr = self.parse_postfix()
        for op in reversed(signs):
            expr = Unary(op, expr)
        return expr

    def parse_postfix(self):
        expr = self.parse_primary()
        while self.accept_op("::"):
            expr = Cast(expr, self.parse_type_name())
        return expr

    def parse_type_name(self):
        name, _ = self.parse_identifier("type name")
        # second word of two-word types, e.g. double precision
        if name == "double" and self.peek().kind == "IDENT" and \
                self.peek().value == "precision":
            self.take()
            name = "double precision"
        if self.accept_op("("):
            parts = [str(self.expect_number())]
            while self.accept_op(","):
                parts.append(str(self.expect_number()))
            self.expect_op(")")
            name = f"{name}({', '.join(parts)})"
        return name

    def expect_number(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.take()
            return tok.value
        self.error("number")

    def parse_primary(self):
        tok = self.peek()

        if tok.kind == "NUMBER":
            self.take()
            return Literal(tok.value)
        if tok.kind == "STRING":
            self.take()
            return Literal(tok.value)
        if self.accept_kw("NULL"):
            return Literal(None)
        if self.accept_kw("TRUE"):
            return Literal(True)
        if self.accept_kw("FALSE"):
            return Literal(False)

        if self.accept_kw("CASE"):
            return self.parse_case()

        if self.accept_kw("CAST"):
            self.expect_op("(")
            operand = self.parse_expr()
            self.expect_kw("AS")
            type_name = self.parse_type_name()
            self.expect_op(")")
            return Cast(operand, type_name)

        if self.accept_kw("EXISTS"):
            self.expect_op("(")
            query = self.parse_select_stmt()
            self.expect_op(")")
            return Exists(query)

        if self.accept_kw("ARRAY"):
            self.expect_op("[")
            items = []
            if not self.at_op("]"):
                items.append(self.parse_expr())
                while self.accept_op(","):
                    items.append(self.parse_expr())
            self.expect_op("]")
            return ArrayLit(items)

        if self.at_op("("):
            self.take()
            if self.at_kw("SELECT", "WITH"):
                query = self.parse_select_stmt()
                self.expect_op(")")
                return Subquery(query)
            expr = self.parse_expr()
            self.expect_op(")")
            return expr

        if tok.kind in ("IDENT", "QIDENT"):
            return self.parse_name_or_call()

        self.error("expression")

    def parse_case(self):
        operand = None
        if not self.at_kw("WHEN"):
            operand = self.parse_expr()
        whens = []
        while self.accept_kw("WHEN"):
            cond = self.parse_expr()
            self.expect_kw("THEN")
            whens.append((cond, self.parse_expr()))
        if not whens:
            self.error("WHEN")
        else_ = self.parse_expr() if self.accept_kw("ELSE") else None
        self.expect_kw("END")
        return Case(operand=operand, whens=whens, else_=else_)

    def parse_name_or_call(self):
        tok = self.take()
        name = tok.value
        quoted = tok.kind == "QIDENT"

        if not quoted and self.at_op("("):
            self.take()
            return self.parse_call_tail(name)

        if self.at_op(".") and self.peek(1).kind in ("IDENT", "QIDENT"):
            self.take()
            col_tok = self.take()
            return ColumnRef(
                table=name, column=col_tok.value,
                table_quoted=quoted, column_quoted=(col_tok.kind == "QIDENT"),
                raw=f"{tok.raw}.{col_tok.raw}",
            )
        return ColumnRef(table=None, column=name, column_quoted=quoted,
                         raw=tok.raw)

    def parse_call_tail(self, name):
        distinct = False
        star = False
        args = []
        if self.at_op("*"):
            self.take()
            star = True
        elif not self.at_op(")"):
            if self.accept_kw("DISTINCT"):
                distinct = True
            # DISTINCT(expr) written as a pseudo-call, e.g. count(distinct(x))
            args.append(self.parse_expr())
            while self.accept_op(","):
                args.append(self.parse_expr())
        self.expect_op(")")

        window_text = None
        if self.accept_kw("OVER"):
            window_text = self.capture_parenthesized()
        return FuncCall(name=name, args=args, distinct=distinct, star=star,
                        window_text=window_text)

    def capture_parenthesized(self):
        """Consume a balanced parenthesized token group, returning raw text."""
        start = self.expect_op("(")
        depth = 1
        while depth:
            tok = self.take()
            if tok.kind == "EOF":
                raise SqlSyntaxError("unterminated OVER clause",
                                     start.offset, "')'")
            if tok.kind == "OP" and tok.value == "(":
                depth += 1
            elif tok.kind == "OP" and tok.value == ")":
                depth -= 1
                if depth == 0:
                    end = tok.offset + 1
                    return self.text[start.offset:end]
