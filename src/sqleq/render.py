"""Canonical single-line renderer for parsed statements.

The output is deterministic: keywords upper-case, unquoted identifiers
lower-case, single spaces, explicit AS for aliases, parentheses only
where precedence requires them, with a binary operator's precedence
read from the parser's `BINDING_POWERS`. Round-trip guarantee: parsing the
rendered text yields a structurally equal AST.
"""

from .ast_nodes import (
    ArrayLit, Between, Binary, Case, Cast, ColumnRef, DerivedTable, Exists,
    FuncCall, InList, InSubquery, IsNull, Join, Like, Literal, Quantified,
    SelectStmt, SetOp, Star, Subquery, TableRef, Unary,
)
from .parser import BINDING_POWERS

_JOIN_WORD = {
    "inner": "JOIN", "left": "LEFT JOIN", "right": "RIGHT JOIN",
    "full": "FULL JOIN", "cross": "CROSS JOIN",
}
_SETOP_PREC = {"union": 1, "except": 1, "intersect": 2}


def render_statement(stmt):
    parts = []
    if stmt.ctes:
        recursive = "RECURSIVE " if any(c.recursive for c in stmt.ctes) else ""
        ctes = ", ".join(_render_cte(c) for c in stmt.ctes)
        parts.append(f"WITH {recursive}{ctes}")
    parts.append(_render_body(stmt.body, 0))
    if stmt.order_by:
        keys = ", ".join(_render_order_item(o) for o in stmt.order_by)
        parts.append(f"ORDER BY {keys}")
    if stmt.limit:
        if stmt.limit.count == Literal(None) and stmt.limit.offset is not None:
            parts.append(f"OFFSET {render_expression(stmt.limit.offset)}")
        else:
            clause = f"LIMIT {render_expression(stmt.limit.count)}"
            if stmt.limit.offset is not None:
                clause += f" OFFSET {render_expression(stmt.limit.offset)}"
            parts.append(clause)
    return " ".join(parts)


def render_expression(expr):
    return _expr(expr, 0)


def _render_cte(cte):
    cols = f"({', '.join(cte.columns)})" if cte.columns else ""
    return f"{cte.name}{cols} AS ({render_statement(cte.query)})"


def _render_body(body, parent_prec):
    if isinstance(body, SelectStmt):
        return f"({render_statement(body)})"
    if isinstance(body, SetOp):
        prec = _SETOP_PREC[body.kind]
        word = body.kind.upper() + (" ALL" if body.all else "")
        left = _render_body(body.left, prec)
        right = _render_body(body.right, prec + 1)
        text = f"{left} {word} {right}"
        if prec < parent_prec:
            return f"({text})"
        return text
    return _render_core(body)


def _render_core(core):
    parts = ["SELECT"]
    if core.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_render_select_item(i) for i in core.items))
    if core.from_item is not None:
        parts.append("FROM")
        parts.append(_render_from(core.from_item, top=True))
    if core.where is not None:
        parts.append(f"WHERE {render_expression(core.where)}")
    if core.group_by:
        keys = ", ".join(render_expression(e) for e in core.group_by)
        parts.append(f"GROUP BY {keys}")
    if core.having is not None:
        parts.append(f"HAVING {render_expression(core.having)}")
    return " ".join(parts)


def _render_select_item(item):
    if isinstance(item, Star):
        return f"{_name(item.qualifier, False)}.*" if item.qualifier else "*"
    text = render_expression(item.expr)
    if item.alias:
        return f"{text} AS {_name(item.alias, item.alias_quoted)}"
    return text


def _render_from(item, top=False):
    if isinstance(item, TableRef):
        text = _name(item.name, item.quoted)
        if item.alias:
            text += f" AS {item.alias}"
        return text
    if isinstance(item, DerivedTable):
        text = f"({render_statement(item.query)})"
        if item.alias:
            text += f" AS {item.alias}"
        return text
    if isinstance(item, Join):
        left = _render_from(item.left)
        # a Join as the right operand only arises from parentheses
        right = _render_from(item.right)
        if isinstance(item.right, Join):
            right = f"({right})"
        text = f"{left} {_JOIN_WORD[item.kind]} {right}"
        if item.condition is not None:
            text += f" ON {render_expression(item.condition)}"
        return text
    raise TypeError(f"not a FROM item: {item!r}")


def _render_order_item(item):
    text = render_expression(item.expr)
    return f"{text} DESC" if item.descending else text


def _name(name, quoted):
    if quoted:
        escaped = name.replace('"', '""')
        return f'"{escaped}"'
    return name


def _expr(e, parent_prec):
    kind = type(e)  # exact node types, the most frequent first
    if kind is ColumnRef:
        col = _name(e.column, e.column_quoted)
        if e.table:
            return f"{_name(e.table, e.table_quoted)}.{col}"
        return col
    if kind is Literal:
        return _literal(e.value)
    if kind is Binary:
        prec = BINDING_POWERS[e.op]
        text = f"{_expr(e.left, prec)} {e.op} {_expr(e.right, prec + 1)}"
        return _wrap(text, prec, parent_prec)
    if kind is FuncCall:
        if e.star:
            inner = "*"
        else:
            args = ", ".join(_expr(a, 0) for a in e.args)
            inner = f"DISTINCT {args}" if e.distinct else args
        text = f"{e.name.upper()}({inner})"
        if e.window_text is not None:
            text += f" OVER {e.window_text}"
        return text
    if kind is Unary:
        if e.op == "NOT":
            return _wrap(f"NOT {_expr(e.operand, 3)}", 3, parent_prec)
        return _wrap(f"{e.op}{_expr(e.operand, 7)}", 7, parent_prec)
    if kind is IsNull:
        word = "IS NOT NULL" if e.negated else "IS NULL"
        return _wrap(f"{_expr(e.operand, 5)} {word}", 4, parent_prec)
    if kind is InList:
        word = "NOT IN" if e.negated else "IN"
        items = ", ".join(_expr(i, 0) for i in e.items)
        return _wrap(f"{_expr(e.operand, 5)} {word} ({items})", 4, parent_prec)
    if kind is InSubquery:
        word = "NOT IN" if e.negated else "IN"
        sub = render_statement(e.query)
        return _wrap(f"{_expr(e.operand, 5)} {word} ({sub})", 4, parent_prec)
    if kind is Between:
        word = "NOT BETWEEN" if e.negated else "BETWEEN"
        text = (f"{_expr(e.operand, 5)} {word} "
                f"{_expr(e.low, 5)} AND {_expr(e.high, 5)}")
        return _wrap(text, 4, parent_prec)
    if kind is Like:
        word = "NOT LIKE" if e.negated else "LIKE"
        text = f"{_expr(e.operand, 5)} {word} {_expr(e.pattern, 5)}"
        return _wrap(text, 4, parent_prec)
    if kind is Quantified:
        if isinstance(e.operand, Subquery):
            inner = f"({render_statement(e.operand.query)})"
        else:
            inner = f"({_expr(e.operand, 0)})"
        text = f"{_expr(e.left, 5)} {e.op} {e.quantifier} {inner}"
        return _wrap(text, 4, parent_prec)
    if kind is Exists:
        return f"EXISTS ({render_statement(e.query)})"
    if kind is Subquery:
        return f"({render_statement(e.query)})"
    if kind is Case:
        parts = ["CASE"]
        if e.operand is not None:
            parts.append(_expr(e.operand, 0))
        for cond, result in e.whens:
            parts.append(f"WHEN {_expr(cond, 0)} THEN {_expr(result, 0)}")
        if e.else_ is not None:
            parts.append(f"ELSE {_expr(e.else_, 0)}")
        parts.append("END")
        return " ".join(parts)
    if kind is Cast:
        return _wrap(f"{_expr(e.operand, 8)}::{e.type_name}", 8, parent_prec)
    if kind is ArrayLit:
        items = ", ".join(_expr(i, 0) for i in e.items)
        return f"ARRAY[{items}]"
    raise TypeError(f"not an expression: {e!r}")


def _wrap(text, prec, parent_prec):
    return f"({text})" if prec < parent_prec else text


def _literal(value):
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return repr(value)
