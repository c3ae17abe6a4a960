"""AST node types for the SELECT-only dialect.

Nodes compare structurally (dataclass equality). Fields that carry
provenance rather than meaning -- the raw source text of a column
reference -- are excluded from comparison so that parse/render
round-trips stay equal. Nodes carry no name bindings: `binder.bind`
keeps those outside the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

AGGREGATE_NAMES = frozenset({"sum", "count", "avg", "min", "max"})


# --- expressions ---

@dataclass
class Literal:
    value: object  # None | bool | int | float | str


@dataclass
class ColumnRef:
    table: Optional[str]   # normalized (lower unless quoted)
    column: str
    table_quoted: bool = False
    column_quoted: bool = False
    raw: str = field(default="", compare=False, repr=False)


@dataclass
class Unary:
    op: str  # '-' | '+' | 'NOT'
    operand: Expr


@dataclass
class Binary:
    op: str  # arithmetic, comparison, 'AND', 'OR', '||'
    left: Expr
    right: Expr


@dataclass
class IsNull:
    operand: Expr
    negated: bool = False


@dataclass
class InList:
    operand: Expr
    items: list
    negated: bool = False


@dataclass
class InSubquery:
    operand: Expr
    query: SelectStmt
    negated: bool = False


@dataclass
class Between:
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass
class Like:
    operand: Expr
    pattern: Expr
    negated: bool = False


@dataclass
class Exists:
    query: SelectStmt


@dataclass
class Subquery:
    query: SelectStmt


@dataclass
class Quantified:
    """Comparison against ANY/ALL of a subquery or array-valued expression."""
    op: str
    left: Expr
    quantifier: str  # 'ANY' | 'ALL'
    operand: Union[Subquery, Expr]


@dataclass
class Case:
    operand: Optional[Expr]
    whens: list  # [(condition, result)]
    else_: Optional[Expr]


@dataclass
class FuncCall:
    name: str  # normalized lower
    args: list
    distinct: bool = False
    star: bool = False           # COUNT(*)
    window_text: Optional[str] = None  # raw OVER (...) clause, parsed opaquely

    @property
    def is_aggregate(self):
        return self.name in AGGREGATE_NAMES and self.window_text is None

    @property
    def is_window(self):
        return self.window_text is not None


@dataclass
class Cast:
    operand: Expr
    type_name: str


@dataclass
class ArrayLit:
    items: list


Expr = Union[
    Literal, ColumnRef, Unary, Binary, IsNull, InList, InSubquery, Between,
    Like, Exists, Subquery, Quantified, Case, FuncCall, Cast, ArrayLit,
]


# --- select structure ---

@dataclass
class Star:
    qualifier: Optional[str] = None  # t.* carries the relation name


@dataclass
class SelectItem:
    expr: Expr
    alias: Optional[str] = None
    alias_quoted: bool = False

    def output_name(self):
        """Result-column name: the alias, else the column name for bare refs."""
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.column
        return None


@dataclass
class TableRef:
    name: str
    alias: Optional[str] = None
    quoted: bool = False


@dataclass
class DerivedTable:
    query: SelectStmt
    alias: Optional[str] = None


@dataclass
class Join:
    kind: str  # inner | left | right | full | cross
    left: FromItem
    right: FromItem
    condition: Optional[Expr] = None


FromItem = Union[TableRef, DerivedTable, Join]


@dataclass
class OrderItem:
    expr: Expr
    descending: bool = False  # direction defaults to ascending


@dataclass
class LimitClause:
    count: Expr
    offset: Optional[Expr] = None


@dataclass
class SelectCore:
    items: list          # SelectItem | Star
    from_item: Optional[FromItem] = None
    where: Optional[Expr] = None
    group_by: list = field(default_factory=list)
    having: Optional[Expr] = None
    distinct: bool = False


@dataclass
class SetOp:
    kind: str  # union | intersect | except
    all: bool
    # arms are cores, nested set ops, or parenthesized full statements
    left: Union[SelectCore, SetOp, SelectStmt]
    right: Union[SelectCore, SetOp, SelectStmt]


@dataclass
class Cte:
    name: str
    query: SelectStmt
    columns: list = field(default_factory=list)
    recursive: bool = False


@dataclass
class SelectStmt:
    body: Union[SelectCore, SetOp]
    ctes: list = field(default_factory=list)
    order_by: list = field(default_factory=list)
    limit: Optional[LimitClause] = None


def walk(node):
    """Yield `node` and every AST node reachable from it, depth-first."""
    yield node
    for child in children(node):
        yield from walk(child)


def children(node):
    """Yield the AST nodes directly under `node`, in source order."""
    if isinstance(node, SelectStmt):
        for cte in node.ctes:
            yield cte
        yield node.body
        for item in node.order_by:
            yield item
        if node.limit:
            yield node.limit
    elif isinstance(node, Cte):
        yield node.query
    elif isinstance(node, SetOp):
        yield node.left
        yield node.right
    elif isinstance(node, SelectCore):
        for item in node.items:
            yield item
        if node.from_item:
            yield node.from_item
        if node.where:
            yield node.where
        yield from node.group_by
        if node.having:
            yield node.having
    elif isinstance(node, SelectItem):
        yield node.expr
    elif isinstance(node, Join):
        yield node.left
        yield node.right
        if node.condition:
            yield node.condition
    elif isinstance(node, DerivedTable):
        yield node.query
    elif isinstance(node, OrderItem):
        yield node.expr
    elif isinstance(node, LimitClause):
        yield node.count
        if node.offset:
            yield node.offset
    elif isinstance(node, Unary):
        yield node.operand
    elif isinstance(node, Binary):
        yield node.left
        yield node.right
    elif isinstance(node, IsNull):
        yield node.operand
    elif isinstance(node, InList):
        yield node.operand
        yield from node.items
    elif isinstance(node, InSubquery):
        yield node.operand
        yield node.query
    elif isinstance(node, Between):
        yield node.operand
        yield node.low
        yield node.high
    elif isinstance(node, Like):
        yield node.operand
        yield node.pattern
    elif isinstance(node, Exists):
        yield node.query
    elif isinstance(node, Subquery):
        yield node.query
    elif isinstance(node, Quantified):
        yield node.left
        yield node.operand
    elif isinstance(node, Case):
        if node.operand:
            yield node.operand
        for cond, result in node.whens:
            yield cond
            yield result
        if node.else_:
            yield node.else_
    elif isinstance(node, FuncCall):
        yield from node.args
    elif isinstance(node, Cast):
        yield node.operand
    elif isinstance(node, ArrayLit):
        yield from node.items
