"""Structural feature counts used for corpus complexity profiles.

Counts are taken over the whole statement including CTE bodies and
subqueries, so they reflect source occurrences rather than semantics
(e.g. ORDER BY keys inside a CTE still count). Nesting depth is the
maximum select-statement depth: CTE bodies, derived tables and
expression subqueries add a level; set-operation arms do not.
"""

from .ast_nodes import (
    Case, Cte, DerivedTable, Exists, FuncCall, InSubquery, Join, LimitClause,
    OrderItem, SelectCore, SelectStmt, SetOp, Subquery, children, walk,
)
from .records import Record


class FeatureProfile(Record):
    def __init__(self, joins=0, subqueries=0, ctes=0, aggregate_calls=0,
                 group_by_clauses=0, order_by_keys=0, limit_clauses=0,
                 set_operators=0, scalar_function_calls=0,
                 case_expressions=0, recursive_ctes=0, nesting_depth=1):
        self.joins = joins
        self.subqueries = subqueries
        self.ctes = ctes
        self.aggregate_calls = aggregate_calls
        self.group_by_clauses = group_by_clauses
        self.order_by_keys = order_by_keys
        self.limit_clauses = limit_clauses
        self.set_operators = set_operators
        self.scalar_function_calls = scalar_function_calls
        self.case_expressions = case_expressions
        self.recursive_ctes = recursive_ctes
        self.nesting_depth = nesting_depth

    def as_dict(self):
        """The counts by name, in the order `__init__` declares them."""
        return dict(vars(self))


def extract_features(ast):
    profile = FeatureProfile(nesting_depth=_depth(ast))
    for node in walk(ast):
        if isinstance(node, Join):
            profile.joins += 1
        elif isinstance(node, (Subquery, InSubquery, Exists, DerivedTable)):
            profile.subqueries += 1
        elif isinstance(node, Cte):
            profile.ctes += 1
            if node.recursive:
                profile.recursive_ctes += 1
        elif isinstance(node, FuncCall):
            if node.is_aggregate:
                profile.aggregate_calls += 1
            else:
                profile.scalar_function_calls += 1
        elif isinstance(node, SelectCore):
            if node.group_by:
                profile.group_by_clauses += 1
        elif isinstance(node, OrderItem):
            profile.order_by_keys += 1
        elif isinstance(node, LimitClause):
            profile.limit_clauses += 1
        elif isinstance(node, SetOp):
            profile.set_operators += 1
        elif isinstance(node, Case):
            profile.case_expressions += 1
    return profile


def _depth(stmt):
    deeper, same_level = _immediate_statements(stmt)
    depth = 1
    for sub in deeper:
        depth = max(depth, 1 + _depth(sub))
    for arm in same_level:
        depth = max(depth, _depth(arm))
    return depth


def _immediate_statements(stmt):
    """Nested statements one boundary below `stmt`.

    Returns (depth-increasing, same-level) statement lists; traversal
    stops at each statement boundary so every level is counted once.
    """
    deeper = [cte.query for cte in stmt.ctes]
    same_level = []
    stack = [stmt.body] + [item.expr for item in stmt.order_by]
    while stack:
        node = stack.pop()
        if isinstance(node, SelectStmt):
            same_level.append(node)  # parenthesized set-operation arm
        elif isinstance(node, Cte):
            deeper.append(node.query)
        elif isinstance(node, DerivedTable):
            deeper.append(node.query)
        elif isinstance(node, (Subquery, Exists)):
            deeper.append(node.query)
        elif isinstance(node, InSubquery):
            deeper.append(node.query)
            stack.append(node.operand)
        else:
            stack.extend(children(node))
    return deeper, same_level
