"""Unoptimized relational-algebra plans and their prompt-text rendering.

A plan mirrors source clause order (FROM, WHERE, GROUP BY, HAVING,
SELECT, ORDER BY, LIMIT) with no rewriting. Rendering emits one
`Logical<Op>(args)` line per operator, children indented two spaces per
level. `plan_or_placeholder` maps every parse or planning failure (a
`SqleqError`) to the fixed placeholder string; any other exception is a
defect and propagates.

A run plans each distinct query text once per schema: `run_benchmark`
hands `pair_plans` a memo that lives as long as the run and holds plan
texts only, the placeholder included, never an exception.
"""

from .ast_nodes import DerivedTable, Literal, SelectStmt, SetOp, TableRef
from .binder import bind
from .errors import SqleqError
from .parser import parse_sql
from .render import render_expression

PLAN_ERROR_PLACEHOLDER = "ERROR WHILE GENERATING PLAN"

_SETOP_OP = {"union": "Union", "intersect": "Intersect", "except": "Except"}


class PlanNode:
    def __init__(self, op, args, children=None):
        # Scan, CteRef, Values, Filter, Project, Join, Aggregate, Sort,
        # Limit, Union, Intersect, Except, CteBind
        self.op = op
        self.args = args
        self.children = [] if children is None else children

    def ops(self):
        """Operator names in depth-first order (handy for assertions)."""
        found = [self.op]
        for child in self.children:
            found.extend(child.ops())
        return found


def build_plan(ast, schema):
    """Resolve names against `schema` and build the clause-order plan.

    Names resolve through `binder.bind`; star projections render as
    their expansion against the resolved scope.
    """
    return _plan_statement(ast, bind(ast, schema))


def render_plan(plan):
    lines = []
    _render_lines(plan, 0, lines)
    return "\n".join(lines)


def _render_lines(node, depth, lines):
    lines.append("  " * depth + f"Logical{node.op}({node.args})")
    for child in node.children:
        _render_lines(child, depth + 1, lines)


def plan_or_placeholder(text, schema):
    """Plan text for a query, or the fixed placeholder if it does not
    parse or resolve."""
    try:
        return render_plan(build_plan(parse_sql(text), schema))
    except SqleqError:
        return PLAN_ERROR_PLACEHOLDER


def pair_plans(pair, schema, memo=None):
    """The (sql1, sql2) plan texts a prompt shows for a query pair.

    `memo`, a dict the caller owns, keeps the plan text of each (query
    text, schema) this function has planned with it; a text found there
    is not planned again. Without one, the pair's texts are planned
    afresh.
    """
    if memo is None:
        memo = {}
    return (_memo_plan(pair.sql1, schema, memo),
            _memo_plan(pair.sql2, schema, memo))


def _memo_plan(text, schema, memo):
    # the entry holds `schema` itself, so while the memo lives no other
    # schema can take over its id; two threads may plan one text at
    # once, and both get the same text
    key = (text, id(schema))
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = (schema, plan_or_placeholder(text, schema))
    return entry[1]


# --- plan construction ---

def _plan_statement(stmt, binding):
    plan = _plan_body(stmt.body, binding)

    if stmt.order_by:
        keys = ", ".join(
            render_expression(o.expr) + (" DESC" if o.descending else "")
            for o in stmt.order_by
        )
        plan = PlanNode("Sort", keys, [plan])

    if stmt.limit:
        parts = []
        if stmt.limit.count != Literal(None):
            parts.append(render_expression(stmt.limit.count))
        if stmt.limit.offset is not None:
            parts.append(f"offset={render_expression(stmt.limit.offset)}")
        plan = PlanNode("Limit", ", ".join(parts), [plan])

    for cte in reversed(stmt.ctes):
        args = f"{cte.name}, recursive" if cte.recursive else cte.name
        plan = PlanNode("CteBind", args,
                        [_plan_statement(cte.query, binding), plan])

    return plan


def _plan_body(body, binding):
    if isinstance(body, SetOp):
        args = "all" if body.all else "distinct"
        return PlanNode(_SETOP_OP[body.kind], args,
                        [_plan_body(body.left, binding),
                         _plan_body(body.right, binding)])
    if isinstance(body, SelectStmt):
        return _plan_statement(body, binding)
    return _plan_core(body, binding)


def _plan_core(core, binding):
    items = binding.items[id(core)]
    if core.from_item is None:
        # SELECT without FROM collapses to a single Values row
        rendered = ", ".join(render_expression(item.expr) for item in items)
        plan = PlanNode("Values", f"({rendered})")
        if core.where is not None:
            plan = PlanNode("Filter", render_expression(core.where), [plan])
        return plan

    plan = _plan_from(core.from_item, binding)

    if core.where is not None:
        plan = PlanNode("Filter", render_expression(core.where), [plan])

    if id(core) in binding.grouped:
        group = ", ".join(render_expression(e) for e in core.group_by)
        aggs = ", ".join(dict.fromkeys(
            map(render_expression, binding.aggregates[id(core)])))
        plan = PlanNode("Aggregate", f"group=[{group}], aggs=[{aggs}]", [plan])

    if core.having is not None:
        plan = PlanNode("Filter", render_expression(core.having), [plan])

    rendered = []
    for item in items:
        text = render_expression(item.expr)
        if item.alias:
            text += f" AS {item.alias}"
        rendered.append(text)
    plan = PlanNode("Project", ", ".join(rendered), [plan])

    if core.distinct:
        names = ", ".join(binding.names[id(core)])
        plan = PlanNode("Aggregate", f"group=[{names}], aggs=[]", [plan])

    return plan


def _plan_from(item, binding):
    if isinstance(item, TableRef):
        alias = (item.alias or item.name).lower()
        if id(item) in binding.ctes:
            args = item.name if alias == item.name else f"{item.name} AS {alias}"
            return PlanNode("CteRef", args)
        args = item.name if alias == item.name.lower() else \
            f"{item.name} AS {alias}"
        return PlanNode("Scan", args)
    if isinstance(item, DerivedTable):
        return _plan_statement(item.query, binding)
    args = item.kind
    if item.condition is not None:
        args += f", {render_expression(item.condition)}"
    return PlanNode("Join", args, [_plan_from(item.left, binding),
                                   _plan_from(item.right, binding)])
