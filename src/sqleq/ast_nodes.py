"""AST node types for the SELECT-only dialect.

Every node derives from `records.Record`: nodes compare structurally,
field by field, and are unhashable, so the binder and executor key
them by id(). Their repr is `Name(field=value, ...)`. Fields that
carry provenance rather than meaning -- the raw source text of a
column reference -- are left out of comparison and repr so that
parse/render round-trips stay equal. Nodes carry no name bindings:
`binder.bind` keeps those outside the tree.
"""

from .records import Record

AGGREGATE_NAMES = frozenset({"sum", "count", "avg", "min", "max"})


# --- expressions ---

class Literal(Record):
    def __init__(self, value):
        self.value = value  # None | bool | int | float | str


class ColumnRef(Record):
    def __init__(self, table, column, table_quoted=False,
                 column_quoted=False, raw=""):
        self.table = table  # normalized (lower unless quoted)
        self.column = column
        self.table_quoted = table_quoted
        self.column_quoted = column_quoted
        self.raw = raw

    def _fields(self):
        return {name: value for name, value in vars(self).items()
                if name != "raw"}


class Unary(Record):
    def __init__(self, op, operand):
        self.op = op  # '-' | '+' | 'NOT'
        self.operand = operand


class Binary(Record):
    def __init__(self, op, left, right):
        self.op = op  # arithmetic, comparison, 'AND', 'OR', '||'
        self.left = left
        self.right = right


class IsNull(Record):
    def __init__(self, operand, negated=False):
        self.operand = operand
        self.negated = negated


class InList(Record):
    def __init__(self, operand, items, negated=False):
        self.operand = operand
        self.items = items
        self.negated = negated


class InSubquery(Record):
    def __init__(self, operand, query, negated=False):
        self.operand = operand
        self.query = query
        self.negated = negated


class Between(Record):
    def __init__(self, operand, low, high, negated=False):
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated


class Like(Record):
    def __init__(self, operand, pattern, negated=False):
        self.operand = operand
        self.pattern = pattern
        self.negated = negated


class Exists(Record):
    def __init__(self, query):
        self.query = query


class Subquery(Record):
    def __init__(self, query):
        self.query = query


class Quantified(Record):
    """Comparison against ANY/ALL of a subquery or array-valued expression."""

    def __init__(self, op, left, quantifier, operand):
        self.op = op
        self.left = left
        self.quantifier = quantifier  # 'ANY' | 'ALL'
        self.operand = operand        # Subquery or expression


class Case(Record):
    def __init__(self, operand, whens, else_):
        self.operand = operand  # None for a searched CASE
        self.whens = whens      # [(condition, result)]
        self.else_ = else_


class FuncCall(Record):
    def __init__(self, name, args, distinct=False, star=False,
                 window_text=None):
        self.name = name  # normalized lower
        self.args = args
        self.distinct = distinct
        self.star = star                # COUNT(*)
        self.window_text = window_text  # raw OVER (...), parsed opaquely

    @property
    def is_aggregate(self):
        return self.name in AGGREGATE_NAMES and self.window_text is None

    @property
    def is_window(self):
        return self.window_text is not None


class Cast(Record):
    def __init__(self, operand, type_name):
        self.operand = operand
        self.type_name = type_name


class ArrayLit(Record):
    def __init__(self, items):
        self.items = items


# --- select structure ---

class Star(Record):
    def __init__(self, qualifier=None):
        self.qualifier = qualifier  # t.* carries the relation name


class SelectItem(Record):
    def __init__(self, expr, alias=None, alias_quoted=False):
        self.expr = expr
        self.alias = alias
        self.alias_quoted = alias_quoted

    def output_name(self):
        """Result-column name: the alias, else the column name for bare refs."""
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.column
        return None


class TableRef(Record):
    def __init__(self, name, alias=None, quoted=False):
        self.name = name
        self.alias = alias
        self.quoted = quoted


class DerivedTable(Record):
    def __init__(self, query, alias=None):
        self.query = query
        self.alias = alias


class Join(Record):
    def __init__(self, kind, left, right, condition=None):
        self.kind = kind  # inner | left | right | full | cross
        self.left = left  # TableRef | DerivedTable | Join
        self.right = right
        self.condition = condition


class OrderItem(Record):
    def __init__(self, expr, descending=False):
        self.expr = expr
        self.descending = descending  # direction defaults to ascending


class LimitClause(Record):
    def __init__(self, count, offset=None):
        self.count = count
        self.offset = offset


class SelectCore(Record):
    def __init__(self, items, from_item=None, where=None, group_by=None,
                 having=None, distinct=False):
        self.items = items  # SelectItem | Star
        self.from_item = from_item
        self.where = where
        self.group_by = [] if group_by is None else group_by
        self.having = having
        self.distinct = distinct


class SetOp(Record):
    def __init__(self, kind, all, left, right):
        self.kind = kind  # union | intersect | except
        self.all = all
        # arms are cores, nested set ops, or parenthesized full statements
        self.left = left
        self.right = right


class Cte(Record):
    def __init__(self, name, query, columns=None, recursive=False):
        self.name = name
        self.query = query
        self.columns = [] if columns is None else columns
        self.recursive = recursive


class SelectStmt(Record):
    def __init__(self, body, ctes=None, order_by=None, limit=None):
        self.body = body  # SelectCore | SetOp
        self.ctes = [] if ctes is None else ctes
        self.order_by = [] if order_by is None else order_by
        self.limit = limit


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
