"""Structural feature counts used for corpus complexity profiles.

Counts are taken over the whole statement including CTE bodies and
subqueries, so they reflect source occurrences rather than semantics
(e.g. ORDER BY keys inside a CTE still count). Nesting depth is the
maximum select-statement depth: each statement that
`ast_nodes.select_level` does not enter -- a CTE body, a derived table,
an expression subquery anywhere, LIMIT and OFFSET included -- adds a
level, except a parenthesized set-operation arm.
"""

from .ast_nodes import (
    Case, Cte, DerivedTable, Exists, FuncCall, InSubquery, Join, LimitClause,
    OrderItem, SelectCore, SelectStmt, SetOp, Subquery, children,
    select_level, walk,
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
    depth = 1
    arms = set()  # ids of statements that continue this level
    for node in select_level(stmt):
        if isinstance(node, SelectStmt) and node is not stmt:
            depth = max(depth, _depth(node) + (id(node) not in arms))
        elif isinstance(node, (SelectStmt, SetOp)):
            # a statement directly under this one or under a set
            # operation is a parenthesized body or arm
            arms.update(map(id, children(node)))
    return depth
