"""AST node types for the SELECT-only dialect.

Every node derives from `records.Record`: nodes compare structurally,
field by field, and are unhashable, so the binder and executor key
them by id(). Their repr is `Name(field=value, ...)`. Fields that
carry provenance rather than meaning -- the raw source text of a
column reference -- are left out of comparison and repr so that
parse/render round-trips stay equal. Nodes carry no name bindings:
`binder.bind` keeps those outside the tree.

This module alone knows the tree's shape. CHILD_FIELDS lists, once for
each node class, the fields that hold its child nodes in source order;
`children`, `walk` (preorder, over an explicit stack, so it does not
recurse) and `select_level` read only that table. `select_level` defines
where a select level ends, for the binder, the executor and the
feature counts alike.
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


# The fields of each node type that hold its child nodes, in source
# order: a node, None, or a list of nodes or of CASE branch tuples.
CHILD_FIELDS = {
    Literal: (),
    ColumnRef: (),
    Unary: ("operand",),
    Binary: ("left", "right"),
    IsNull: ("operand",),
    InList: ("operand", "items"),
    InSubquery: ("operand", "query"),
    Between: ("operand", "low", "high"),
    Like: ("operand", "pattern"),
    Exists: ("query",),
    Subquery: ("query",),
    Quantified: ("left", "operand"),
    Case: ("operand", "whens", "else_"),
    FuncCall: ("args",),
    Cast: ("operand",),
    ArrayLit: ("items",),
    Star: (),
    SelectItem: ("expr",),
    TableRef: (),
    DerivedTable: ("query",),
    Join: ("left", "right", "condition"),
    OrderItem: ("expr",),
    LimitClause: ("count", "offset"),
    SelectCore: ("items", "from_item", "where", "group_by", "having"),
    SetOp: ("left", "right"),
    Cte: ("query",),
    SelectStmt: ("ctes", "body", "order_by", "limit"),
}


def children(node):
    """The AST nodes directly under `node`, in source order: its
    CHILD_FIELDS in turn, a list item by item (a CASE branch as its
    condition, then its result), None skipped."""
    out = []
    for name in CHILD_FIELDS[type(node)]:
        value = getattr(node, name)
        if isinstance(value, list):
            for item in value:
                if isinstance(item, tuple):
                    out.extend(item)
                else:
                    out.append(item)
        elif value is not None:
            out.append(value)
    return out


def walk(node):
    """Yield `node` and every AST node below it, in preorder."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def select_level(node, stop=None):
    """Yield `node` and the nodes at its select level, last child first.

    A SelectStmt below `node` starts a level of its own: it is yielded
    but not entered. So the statement of an expression subquery, an
    EXISTS, an IN subquery, a derived table, a CTE or a parenthesized
    set-operation arm keeps its nodes, while the operand of an IN
    subquery stays at this level. A node for which `stop(node)` is
    true, `node` itself included, is yielded but not entered either.
    """
    root, stack = node, [node]
    while stack:
        node = stack.pop()
        yield node
        if (node is root or not isinstance(node, SelectStmt)) and \
                (stop is None or not stop(node)):
            stack.extend(children(node))


def is_aggregate_call(node):
    """Whether `node` is a call of an aggregate (not a window) function."""
    return isinstance(node, FuncCall) and node.is_aggregate
