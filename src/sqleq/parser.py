"""Parser for the SELECT-only SQL dialect.

Covers: CTEs (with a recursive flag), joins, set operations, subqueries
(scalar, IN, EXISTS, derived tables), CASE, casts (both spellings),
aggregate and scalar function calls, LIKE/BETWEEN/IN predicates, and
window calls parsed as opaque function calls. The whole input must
parse.

Statements are parsed by recursive descent, expressions by precedence
climbing over these binding powers (`BINDING_POWERS` holds the infix
ones, and `render` parenthesizes by the same table):

    OR 1   AND 2   prefix NOT 3   + - || 5   * / % 6
    comparisons, IS [NOT] NULL, [NOT] IN, [NOT] BETWEEN, [NOT] LIKE 4

`climb(min_bp)` reads an operand, then takes each infix operator of
power above `min_bp`, parsing its right operand at that power, so each
chain is left-deep. After an operator of power p only powers <= p may
follow (`a IS NULL + 1` is an error). Prefix NOT covers an operand
climbed at power 3. Signs bind tighter than `*`, `::` tighter than
signs; chains of signs, NOT and `::` are loops, never recursion.

Nesting is capped at MAX_DEPTH so that every recursive pass over a tree
(render, bind, execute, features) stays well inside Python's
recursion limit. The parser's own nesting (one level per statement, per
expression -- so per parenthesis -- and per parenthesized join) is
checked as a level is entered, at the offset of its first token. The
tree's height (the statement node is level 1) is counted as it is
built: each parse method leaves its subtree's height in `_Parser.h`,
and a tree taller than the cap is rejected at offset 0 once the whole
input has parsed. Either excess is a SqlSyntaxError.
"""

from .ast_nodes import (
    ArrayLit, Between, Binary, Case, Cast, ColumnRef, Cte, DerivedTable,
    Exists, FuncCall, InList, InSubquery, IsNull, Join, Like, LimitClause,
    Literal, OrderItem, Quantified, SelectCore, SelectItem, SelectStmt,
    SetOp, Star, Subquery, TableRef, Unary,
)
from .errors import SqlSyntaxError, UnsupportedConstruct
from .lexer import tokenize

MAX_DEPTH = 64
_TOO_DEEP = f"query nested deeper than {MAX_DEPTH} levels"

_NOT, _PREDICATE, _MAX_BP = 3, 4, 6
BINDING_POWERS = {
    "OR": 1, "AND": 2,
    **dict.fromkeys(("=", "<>", "!=", "<", "<=", ">", ">=", "IS", "NOT",
                     "IN", "BETWEEN", "LIKE"), _PREDICATE),
    **dict.fromkeys(("+", "-", "||"), 5),
    **dict.fromkeys(("*", "/", "%"), _MAX_BP),
}
# Kinds whose value is free text: a string 'AND' is no operator.
# Identifiers are lower-case, so none equals a keyword.
_TEXT_KINDS = ("STRING", "QIDENT")
_SIGNS = ("-", "+")
_CONSTANTS = {"NULL": None, "TRUE": True, "FALSE": False}
_PRIMARY_WORDS = frozenset(("CASE", "CAST", "EXISTS", "ARRAY", *_CONSTANTS))
_JOINS = {"JOIN": "inner", "INNER": "inner", "LEFT": "left",
          "RIGHT": "right", "FULL": "full", "CROSS": "cross"}


def parse_sql(text):
    """Parse one SELECT statement. Returns a SelectStmt.

    Raises SqlSyntaxError (with byte offset and an expected-token hint) on
    malformed input, and UnsupportedConstruct for recognized-but-unsupported
    syntax.
    """
    if not text or not text.strip():
        raise SqlSyntaxError("empty query text", 0, "SELECT")
    parser = _Parser(text, tokenize(text))
    stmt = parser.parse_statement()
    if parser.h > MAX_DEPTH:
        raise SqlSyntaxError(_TOO_DEEP, 0)
    return stmt


class _Parser:
    def __init__(self, text, tokens):
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self.tok = tokens[0]  # the current token, its kind and value
        self.kind = self.tok.kind
        self.value = self.tok.value
        self.depth = 0  # nesting of the sub-parse in progress
        self.h = 0      # height of the subtree the last parse returned

    # --- token cursor ---

    def take(self):
        """Consume the current token (EOF stays current) and return it."""
        tok = self.tok
        if self.kind != "EOF":
            self.pos += 1
            self.tok = nxt = self.tokens[self.pos]
            self.kind = nxt.kind
            self.value = nxt.value
        return tok

    def peek(self, ahead):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def at_kw(self, *words):
        return self.kind == "KW" and self.value in words

    def accept_kw(self, word):
        if self.value == word and self.kind == "KW":
            return self.take()
        return None

    def accept_op(self, op):
        if self.value == op and self.kind == "OP":
            return self.take()
        return None

    def expect_kw(self, word):
        return self.accept_kw(word) or self.error(word)

    def expect_op(self, op):
        return self.accept_op(op) or self.error(f"'{op}'")

    def descend(self):
        """Enter one nesting level; the caller leaves by decrementing depth."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise SqlSyntaxError(_TOO_DEEP, self.tok.offset)

    def error(self, expected):
        tok = self.tok
        what = tok.raw if tok.kind != "EOF" else "end of input"
        raise SqlSyntaxError(f"unexpected {what!r}", tok.offset, expected)

    def parse_list(self, parse, *args):
        """Comma-separated items; `h` is the height of the tallest."""
        items = [parse(*args)]
        height = self.h
        while self.accept_op(","):
            items.append(parse(*args))
            height = max(height, self.h)
        self.h = height
        return items

    # --- statement level ---

    def parse_statement(self):
        stmt = self.parse_select_stmt()
        self.accept_op(";")
        if self.kind != "EOF":
            self.error("end of statement")
        return stmt

    def parse_select_stmt(self):
        self.descend()
        ctes = []
        height = 0
        if self.accept_kw("WITH"):
            recursive = bool(self.accept_kw("RECURSIVE"))
            ctes = self.parse_list(self.parse_cte, recursive)
            height = self.h

        body = self.parse_set_expr()
        height = max(height, self.h)

        order_by = []
        if self.accept_kw("ORDER"):
            self.expect_kw("BY")
            order_by = self.parse_list(self.parse_order_item)
            height = max(height, self.h)

        # the LimitClause sits one level above its count and offset
        limit = None
        if self.accept_kw("LIMIT"):
            count = self.parse_expr()
            height = max(height, self.h + 1)
            offset = None
            if self.accept_kw("OFFSET"):
                offset = self.parse_expr()
                height = max(height, self.h + 1)
            limit = LimitClause(count, offset)
        elif self.accept_kw("OFFSET"):
            # OFFSET without LIMIT: keep the offset, no count cap
            limit = LimitClause(Literal(None), self.parse_expr())
            height = max(height, self.h + 1)

        self.depth -= 1
        self.h = height + 1
        return SelectStmt(body=body, ctes=ctes, order_by=order_by,
                          limit=limit)

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
        self.h += 1
        return Cte(name=name, query=query, columns=columns, recursive=recursive)

    def parse_set_expr(self, tight=False):
        # INTERSECT binds tighter than UNION/EXCEPT
        words = ("INTERSECT",) if tight else ("UNION", "EXCEPT")
        left = (self.parse_core_or_paren() if tight
                else self.parse_set_expr(True))
        while self.at_kw(*words):
            height = self.h
            kind = self.take().value.lower()
            all_flag = self.parse_quantifier("ALL", "DISTINCT")
            right = (self.parse_core_or_paren() if tight
                     else self.parse_set_expr(True))
            left = SetOp(kind=kind, all=all_flag, left=left, right=right)
            self.h = max(height, self.h) + 1
        return left

    def parse_quantifier(self, word, default):
        """True after `word`; False after `default` or neither."""
        if self.accept_kw(word):
            return True
        self.accept_kw(default)
        return False

    def parse_core_or_paren(self):
        if self.accept_op("("):
            inner = self.parse_select_stmt()
            self.expect_op(")")
            if not inner.ctes and not inner.order_by and inner.limit is None:
                self.h -= 1
                return inner.body
            return inner
        return self.parse_select_core()

    def parse_select_core(self):
        self.expect_kw("SELECT")
        distinct = self.parse_quantifier("DISTINCT", "ALL")
        items = self.parse_list(self.parse_select_item)
        height = self.h

        from_item = None
        if self.accept_kw("FROM"):
            from_item = self.parse_from_item()
            from_height = self.h
            while self.accept_op(","):
                right = self.parse_from_item()
                from_item = Join(kind="cross", left=from_item, right=right)
                from_height = max(from_height, self.h) + 1
            height = max(height, from_height)

        where = having = None
        if self.accept_kw("WHERE"):
            where = self.parse_expr()
            height = max(height, self.h)

        group_by = []
        if self.accept_kw("GROUP"):
            self.expect_kw("BY")
            group_by = self.parse_list(self.parse_expr)
            height = max(height, self.h)

        if self.accept_kw("HAVING"):
            having = self.parse_expr()
            height = max(height, self.h)

        self.h = height + 1
        return SelectCore(items=items, from_item=from_item, where=where,
                          group_by=group_by, having=having, distinct=distinct)

    def parse_select_item(self):
        self.h = 1
        if self.accept_op("*"):
            return Star()
        # qualified star: name . *
        if self.kind in ("IDENT", "QIDENT"):
            dot, star = self.peek(1), self.peek(2)
            if dot.kind == "OP" and dot.value == "." and \
                    star.kind == "OP" and star.value == "*":
                name = self.take().value
                self.take()
                self.take()
                return Star(qualifier=name)
        expr = self.parse_expr()
        self.h += 1
        alias, quoted = self.parse_optional_alias()
        return SelectItem(expr=expr, alias=alias, alias_quoted=quoted)

    def parse_optional_alias(self):
        if self.accept_kw("AS") or self.kind in ("IDENT", "QIDENT"):
            return self.parse_identifier("alias")
        return None, False

    def parse_identifier(self, what):
        kind = self.kind
        if kind == "IDENT" or kind == "QIDENT":
            return self.take().value, kind == "QIDENT"
        self.error(what)

    def parse_from_item(self):
        left = self.parse_from_primary()
        while True:
            kind = self.parse_join_kind()
            if kind is None:
                return left
            height = self.h
            right = self.parse_from_primary()
            height = max(height, self.h)
            condition = None
            if kind != "cross":
                self.expect_kw("ON")
                condition = self.parse_expr()
                height = max(height, self.h)
            left = Join(kind=kind, left=left, right=right, condition=condition)
            self.h = height + 1

    def parse_join_kind(self):
        """Consume a join introducer and return its kind, or None."""
        word = self.value if self.kind == "KW" else None
        if word == "NATURAL" or word == "USING":
            raise UnsupportedConstruct(
                f"{word} joins are outside the dialect subset "
                f"(offset {self.tok.offset})")
        kind = _JOINS.get(word)
        if kind is not None and self.take().value != "JOIN":
            if kind in ("left", "right", "full"):
                self.accept_kw("OUTER")
            self.expect_kw("JOIN")
        return kind

    def parse_from_primary(self):
        if self.accept_op("("):
            if self.at_kw("SELECT", "WITH"):
                query = self.parse_select_stmt()
                self.expect_op(")")
                self.h += 1
                alias, _ = self.parse_optional_alias()
                return DerivedTable(query=query, alias=alias)
            # parenthesized join tree
            self.descend()
            item = self.parse_from_item()
            self.expect_op(")")
            self.depth -= 1
            return item
        name, quoted = self.parse_identifier("table name")
        alias, _ = self.parse_optional_alias()
        self.h = 1
        return TableRef(name=name, alias=alias, quoted=quoted)

    def parse_order_item(self):
        expr = self.parse_expr()
        self.h += 1
        return OrderItem(expr, self.parse_quantifier("DESC", "ASC"))

    # --- expressions ---

    def parse_expr(self):
        self.descend()
        expr = self.climb(0)
        self.depth -= 1
        return expr

    def climb(self, min_bp):
        """Parse an operand and the operators binding tighter than min_bp."""
        if min_bp < _NOT and self.value == "NOT" and self.kind == "KW":
            nots = 0
            while self.accept_kw("NOT"):
                nots += 1
            left = self.climb(_NOT)
            for _ in range(nots):
                left = Unary("NOT", left)
            height = self.h + nots
            ceiling = _NOT
        else:
            signs = []
            while self.value in _SIGNS and self.kind == "OP":
                signs.append(self.take().value)
            left = self.parse_primary()
            height = self.h
            while self.value == "::" and self.kind == "OP":
                self.take()
                left = Cast(left, self.parse_type_name())
                height += 1
            for op in reversed(signs):
                left = Unary(op, left)
            height += len(signs)
            ceiling = _MAX_BP

        while True:
            bp = BINDING_POWERS.get(self.value, 0)
            if not min_bp < bp <= ceiling or self.kind in _TEXT_KINDS:
                self.h = height
                return left
            ceiling = bp
            if bp == _PREDICATE:
                left = self.parse_predicate(left)
            else:
                op = self.take().value
                left = Binary(op, left, self.climb(bp))
            right_height = self.h
            height = (height if height > right_height else right_height) + 1

    def parse_predicate(self, left):
        """The level-4 test whose operator is the current token.

        Leaves in `h` the height of the operands after the operator.
        """
        tok = self.take()
        op = tok.value
        if tok.kind == "OP":  # a comparison
            if op == "!=":
                op = "<>"
            if self.at_kw("ANY", "SOME", "ALL"):
                quant = self.take().value.replace("SOME", "ANY")
                return Quantified(op, left, quant,
                                  self.parse_quantified_operand())
            return Binary(op, left, self.climb(_PREDICATE))
        if op == "IS":
            negated = bool(self.accept_kw("NOT"))
            self.expect_kw("NULL")
            self.h = 0
            return IsNull(left, negated=negated)
        negated = op == "NOT"
        if negated:
            if not self.at_kw("IN", "BETWEEN", "LIKE"):
                self.error("IN, BETWEEN, or LIKE after NOT")
            op = self.take().value
        if op == "IN":
            return self.parse_in_tail(left, negated)
        if op == "BETWEEN":
            low = self.climb(_PREDICATE)
            low_height = self.h
            self.expect_kw("AND")
            high = self.climb(_PREDICATE)
            self.h = max(low_height, self.h)
            return Between(left, low, high, negated=negated)
        return Like(left, self.climb(_PREDICATE), negated=negated)

    def parse_quantified_operand(self):
        self.expect_op("(")
        if self.at_kw("SELECT", "WITH"):
            operand = Subquery(self.parse_select_stmt())
            self.h += 1
        else:
            operand = self.parse_expr()
        self.expect_op(")")
        return operand

    def parse_in_tail(self, operand, negated):
        self.expect_op("(")
        if self.at_kw("SELECT", "WITH"):
            query = self.parse_select_stmt()
            self.expect_op(")")
            return InSubquery(operand, query, negated=negated)
        items = self.parse_list(self.parse_expr)
        self.expect_op(")")
        return InList(operand, items, negated=negated)

    def parse_type_name(self):
        name, _ = self.parse_identifier("type name")
        # second word of two-word types, e.g. double precision
        if name == "double" and self.kind == "IDENT" and \
                self.value == "precision":
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
        if self.kind == "NUMBER":
            return self.take().value
        self.error("number")

    def parse_primary(self):
        kind = self.kind
        if kind == "IDENT" or kind == "QIDENT":
            return self.parse_name_or_call()
        self.h = 1
        if kind == "NUMBER" or kind == "STRING":
            return Literal(self.take().value)
        if kind == "KW" and self.value in _PRIMARY_WORDS:
            word = self.take().value
            if word == "CASE":
                return self.parse_case()
            if word == "CAST":
                self.expect_op("(")
                operand = self.parse_expr()
                self.h += 1
                self.expect_kw("AS")
                type_name = self.parse_type_name()
                self.expect_op(")")
                return Cast(operand, type_name)
            if word == "EXISTS":
                self.expect_op("(")
                query = self.parse_select_stmt()
                self.expect_op(")")
                self.h += 1
                return Exists(query)
            if word == "ARRAY":
                self.expect_op("[")
                items = []
                if not self.accept_op("]"):
                    items = self.parse_list(self.parse_expr)
                    self.expect_op("]")
                    self.h += 1
                return ArrayLit(items)
            return Literal(_CONSTANTS[word])
        if self.accept_op("("):
            if self.at_kw("SELECT", "WITH"):
                query = self.parse_select_stmt()
                self.expect_op(")")
                self.h += 1
                return Subquery(query)
            expr = self.parse_expr()
            self.expect_op(")")
            return expr

        self.error("expression")

    def parse_case(self):
        operand = None
        height = 0
        if not self.at_kw("WHEN"):
            operand = self.parse_expr()
            height = self.h
        whens = []
        while self.accept_kw("WHEN"):
            cond = self.parse_expr()
            height = max(height, self.h)
            self.expect_kw("THEN")
            whens.append((cond, self.parse_expr()))
            height = max(height, self.h)
        if not whens:
            self.error("WHEN")
        else_ = None
        if self.accept_kw("ELSE"):
            else_ = self.parse_expr()
            height = max(height, self.h)
        self.expect_kw("END")
        self.h = height + 1
        return Case(operand=operand, whens=whens, else_=else_)

    def parse_name_or_call(self):
        tok = self.take()
        name = tok.value
        quoted = tok.kind == "QIDENT"

        if not quoted and self.accept_op("("):
            # the call is parsed here, not in a helper, so that nested
            # calls take one stack frame fewer per level
            distinct = star = False
            args = []
            self.h = 1
            if self.accept_op("*"):
                star = True
            elif not (self.value == ")" and self.kind == "OP"):
                distinct = bool(self.accept_kw("DISTINCT"))
                # DISTINCT(expr) as a pseudo-call, e.g. count(distinct(x))
                args = self.parse_list(self.parse_expr)
                self.h += 1
            self.expect_op(")")
            window_text = None
            if self.accept_kw("OVER"):
                window_text = self.capture_parenthesized()
            return FuncCall(name=name, args=args, distinct=distinct,
                            star=star, window_text=window_text)

        self.h = 1
        if self.value == "." and self.kind == "OP" and \
                self.peek(1).kind in ("IDENT", "QIDENT"):
            self.take()
            col_tok = self.take()
            return ColumnRef(name, col_tok.value, quoted,
                             col_tok.kind == "QIDENT",
                             f"{tok.raw}.{col_tok.raw}")
        return ColumnRef(table=None, column=name, column_quoted=quoted,
                         raw=tok.raw)

    def capture_parenthesized(self):
        """Consume a balanced parenthesized token group, returning raw text."""
        start = self.expect_op("(")
        depth = 1
        while depth:
            tok = self.take()
            if tok.kind == "EOF":
                raise SqlSyntaxError("unterminated OVER clause",
                                     start.offset, "')'")
            if tok.kind == "OP" and tok.value in ("(", ")"):
                depth += 1 if tok.value == "(" else -1
        return self.text[start.offset:tok.offset + 1]
