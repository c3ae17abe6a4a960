"""In-memory interpreter for the supported dialect subset.

Evaluates a parsed statement against a concrete database instance:
scans, filters, all five join kinds, grouping with SUM/COUNT/AVG/MIN/MAX
(COUNT(*), DISTINCT), set operations, non-recursive CTEs, scalar/IN/
EXISTS subqueries (correlated), CASE, COALESCE, casts, arithmetic and
string concatenation.

Names bind first (`binder.bind`), so a name error -- UnresolvedName,
AmbiguousColumn, a duplicate alias -- is raised before any row is read.
Rows are flat tuples: a join concatenates its two sides (an outer join
pads the missing side with NULLs) and a column reference reads
`row[slot]` after stepping out `depth` enclosing row contexts.

An ORDER BY key that names no output column is a hidden column (as in
PostgreSQL's "resjunk" entries): the select core appends its value after
the output columns, computed after them in the same row or group
context, and the sort cuts it off again. A set operation, a
parenthesized statement or a DISTINCT core cannot, and raises if it has
rows.

Each expression compiles once per execute, on first use, to a closure
over the row context (`_compile`): column slots, operators, function,
aggregate and cast names, literal LIKE patterns and literal IN lists are
resolved while compiling, and the closures run on every row. Compiling
raises nothing; each error is raised by the row that reaches it, so an
expression that no row reaches raises nothing, over an empty table too.

A few shapes take a fast path, chosen once per execute from the bound
tree; each gives exactly the values and errors of the general closure:
- a projection (when no grouping, HAVING or hidden key needs row
  contexts), GROUP BY keys or an aggregate's argument made only of
  columns of the working row (depth 0) read them straight from the row
  list with `itemgetter`, building no row context (`_read_columns`);
- `=`, `<>`, `<`, `<=`, `>`, `>=` between such a column and a non-NULL
  literal read the cell and, when it has the literal's exact type,
  apply Python's operator, as the value model does for two cells of one
  scalar type (`_build_column_vs_literal`);
- AND and OR check their operands inline, the left before the right
  runs.
Instances are validated column by column; a faulty one is checked
again row by row, so its first fault in row order is the one reported.

Joins and subqueries probe hash indexes where a condition's top-level
AND conjuncts include `x = y` with one side reading only a fixed row
source and the other only the probing row or enclosing rows (`_Index`):
- a join hashes its right side on the ON keys, probed by each left row;
- a correlated subquery core whose FROM item reads no enclosing row
  (`Binding.correlated`) builds its FROM rows and their index once per
  execute, probed with the outer sides of its WHERE keys;
- an uncorrelated expression subquery runs once per execute, on first
  use; IN looks values up in a `_ValueSet`.
The full condition still runs on every candidate and rows keep the
nested loop's order, so results equal the nested loop's whenever it
succeeds; key expressions are evaluated only where it would have
evaluated the condition. Pairs of rows a key equality rules out are not
evaluated further, so a residual conjunct that would raise only on such
pairs no longer raises (PostgreSQL takes the same freedom).

Semantics notes:
- values compare, group and sort by the value model of `values.py`,
  which the oracle shares: GROUP BY, DISTINCT, set operations, IN and
  hash probes match as `canon` keys do (whole columns on the raw rows
  where `values.row_keys` allows), and ORDER BY is a stable sort on
  `sort_key`, applied in reverse for DESC;
- predicates use three-valued logic; only rows where the condition is
  True survive WHERE/ON/HAVING;
- aggregates skip NULLs (except COUNT(*)); SUM/AVG/MIN/MAX of no values
  is NULL, COUNT is 0;
- no result of arithmetic, SUM, AVG or a cast to a real type is an
  infinity or NaN: those raise RuntimeExecError instead, since a NaN
  never equals itself and would make a query differ from itself.

Recursive CTEs and window functions raise UnsupportedFeature.
"""

import math
import operator
import re
from collections import Counter

from .ast_nodes import (
    ArrayLit, Between, Binary, Case, Cast, ColumnRef, Cte, DerivedTable,
    Exists, FuncCall, InList, InSubquery, IsNull, Join, Like, Literal,
    Quantified, SelectStmt, SetOp, Subquery, TableRef, Unary,
    is_aggregate_call, select_level, walk,
)
from .binder import bind
from .errors import InstanceError, RuntimeExecError, UnsupportedFeature
from .values import (
    canon, canon_row, cell_types, is_number, is_scalar, raw_keys_exact,
    row_keys, sort_key, sorts_raw, values_equal,
)


# --- data containers ---

class ResultTable:
    def __init__(self, column_count, rows, ordered):
        self.column_count = column_count
        self.rows = rows        # list of value tuples
        self.ordered = ordered  # outermost statement had ORDER BY


class DatabaseInstance:
    """Per-table row multisets conforming to a schema definition."""

    def __init__(self, schema, tables=None):
        self.schema = schema
        # name -> (columns, rows)
        self.tables = {} if tables is None else tables

    def table(self, name):
        entry = self.tables.get(name.lower())
        if entry is not None:
            return entry
        table = self.schema.find_table(name)
        if table is None:
            raise RuntimeExecError(f"unknown table {name!r}")
        return ([c.lower() for c in table.columns], [])


def instance_from_dict(data, schema):
    """Build and validate an instance from {"tables": {name: {...}}} JSON.

    Each table spec needs "columns" (the schema's, in order) and "rows"
    (lists of that arity). A cell is null or of type bool, int, str or
    float (finite), not a subclass of one, so every cell has a `canon`
    key. Anything else raises InstanceError.
    """
    if not isinstance(data, dict):
        raise InstanceError("instance must be a JSON object")
    specs = data.get("tables", {})
    if not isinstance(specs, dict):
        raise InstanceError("instance 'tables' must be a JSON object")
    tables = {}
    for name, spec in specs.items():
        table = schema.find_table(name)
        if table is None:
            raise InstanceError(f"instance table {name!r} not in schema")
        if not isinstance(spec, dict):
            raise InstanceError(f"table {name!r} spec must be a JSON object")
        for key in ("columns", "rows"):
            if not isinstance(spec.get(key), list):
                raise InstanceError(f"table {name!r} needs a {key!r} list")
        if not all(isinstance(c, str) for c in spec["columns"]):
            raise InstanceError(f"table {name!r} column names must be text")
        columns = [c.lower() for c in spec["columns"]]
        declared = [c.lower() for c in table.columns]
        if columns != declared:
            raise InstanceError(
                f"table {name!r} columns {columns} do not match schema "
                f"{declared}")
        rows = spec["rows"]
        width = len(columns)
        # whole columns first; on any fault the row-by-row check finds
        # the first one in row-major order
        if all(type(row) is list and len(row) == width for row in rows) \
                and all(map(_valid_column, zip(*rows))):
            rows = list(map(tuple, rows))
        else:
            rows = [_checked_row(name, row, width) for row in rows]
        tables[name.lower()] = (columns, rows)
    instance = DatabaseInstance(schema=schema, tables=tables)
    _check_primary_keys(instance)
    return instance


_CELL_TYPES = frozenset((type(None), bool, int, float, str))


def _valid_column(cells):
    types = set(map(type, cells))
    if not types <= _CELL_TYPES:
        return False
    return float not in types or \
        all(math.isfinite(cell) for cell in cells if type(cell) is float)


def _checked_row(name, row, width):
    if not isinstance(row, (list, tuple)):
        raise InstanceError(f"table {name!r} row {row!r} is not a list")
    if len(row) != width:
        raise InstanceError(f"table {name!r} row arity {len(row)} != {width}")
    for cell in row:
        if not _valid_cell(cell):
            raise InstanceError(
                f"table {name!r} cell {cell!r} is not null, a boolean, a "
                f"number, or text")
    return tuple(row)


def _valid_cell(cell):
    if type(cell) is float:
        return math.isfinite(cell)
    return type(cell) in _CELL_TYPES


def _check_primary_keys(instance):
    for ref in instance.schema.primary_keys:
        table_name, _, column = ref.partition(".")
        columns, rows = instance.table(table_name)
        idx = columns.index(column.lower())
        values = [row[idx] for row in rows]
        keys = values if raw_keys_exact([cell_types(values)]) \
            else map(canon, values)
        seen = set()
        for value, key in zip(values, keys):
            if value is None:
                raise InstanceError(f"NULL in primary key column {ref}")
            if key in seen:
                raise InstanceError(f"duplicate primary key value in {ref}")
            seen.add(key)


# --- public entry point ---

def execute(ast, instance):
    """Run a statement against an instance; returns a ResultTable.

    Raises UnsupportedFeature for recursive CTEs or window calls, a
    PlanError (UnresolvedName, AmbiguousColumn, duplicate alias) when a
    name does not bind, and RuntimeExecError for runtime violations.
    """
    for node in walk(ast):
        if isinstance(node, Cte) and node.recursive:
            raise UnsupportedFeature("recursive CTE")
        if isinstance(node, FuncCall) and node.is_window:
            raise UnsupportedFeature("window function")
    env = _Env(instance, bind(ast, instance.schema))
    width, rows = _exec_stmt(ast, env, None)
    return ResultTable(column_count=width, rows=rows,
                       ordered=bool(ast.order_by))


# --- internal machinery ---

class _Env:
    """Instance, the statement's binding, CTE results by id(Cte), what
    runs once per execute (`memo`: uncorrelated subquery results, IN
    value sets, indexes of correlated cores), the equality keys found
    in each condition (`keys`), the closure of each expression compiled
    so far (`fns`), all keyed by id() of AST nodes, and the row-list
    reader of each list of expressions (`reads`, keyed by their ids)."""
    __slots__ = ("instance", "binding", "ctes", "memo", "keys", "fns",
                 "reads")

    def __init__(self, instance, binding):
        self.instance = instance
        self.binding = binding
        self.ctes = {}
        self.memo = {}
        self.keys = {}
        self.fns = {}
        self.reads = {}


class _Ctx:
    """One flat working row, the enclosing row context, and the member
    rows of the group when aggregating."""
    __slots__ = ("row", "outer", "group")

    def __init__(self, row, outer=None, group=None):
        self.row = row
        self.outer = outer
        self.group = group


class _NoRow:
    """Row of an aggregate over no input rows: it has no column values."""

    def __getitem__(self, slot):
        raise RuntimeExecError("column read in an aggregate over no rows")


def _exec_stmt(stmt, env, outer_ctx):
    """Returns (width, rows)."""
    for cte in stmt.ctes:
        width, rows = _exec_stmt(cte.query, env, None)
        if cte.columns and len(cte.columns) != width:
            raise RuntimeExecError(
                f"CTE {cte.name!r} column list arity mismatch")
        env.ctes[id(cte)] = (width, rows)

    order = env.binding.order.get(id(stmt), ())
    hidden = [item.expr for index, item in zip(order, stmt.order_by)
              if index is None]
    width, rows = _exec_body(stmt.body, env, outer_ctx, hidden)

    if stmt.order_by:
        if hidden and rows and len(rows[0]) == width:
            raise RuntimeExecError(
                "ORDER BY expression must name an output column here")
        rows = _sort_rows(rows, stmt, width, env)

    if stmt.limit is not None:
        rows = _apply_limit(rows, stmt.limit, env)

    return width, rows


def _exec_body(body, env, outer_ctx, hidden=()):
    """Returns (width, rows); a select core appends the values of the
    `hidden` expressions to its rows, after the `width` output columns."""
    if isinstance(body, SetOp):
        return _exec_setop(body, env, outer_ctx)
    if isinstance(body, SelectStmt):
        return _exec_stmt(body, env, outer_ctx)
    return _exec_core(body, env, outer_ctx, hidden)


def _exec_setop(op, env, outer_ctx):
    width, left = _exec_body(op.left, env, outer_ctx)
    right_width, right = _exec_body(op.right, env, outer_ctx)
    if width != right_width:
        raise RuntimeExecError(
            f"{op.kind.upper()} arms have different column counts")

    both = left + right
    if op.kind == "union":
        return width, both if op.all else _dedupe(both, row_keys(both))
    # INTERSECT keeps left rows found on the right, EXCEPT the others;
    # ALL consumes one right row per match, DISTINCT dedupes the left
    keys = row_keys(both)
    lkeys, rcounts = keys[:len(left)], Counter(keys[len(left):])
    keyed = list(zip(lkeys, left))
    keep_found = op.kind == "intersect"
    rows = []
    for key, row in (keyed if op.all else _dedupe(keyed, lkeys)):
        found = rcounts[key] > 0
        if found and op.all:
            rcounts[key] -= 1
        if found == keep_found:
            rows.append(row)
    return width, rows


def _exec_core(core, env, outer_ctx, hidden):
    if core.from_item is None:
        rows = [()]
    elif core.where is None or id(core.from_item) in env.binding.correlated:
        rows = _exec_from(core.from_item, env, outer_ctx)[1]
    else:
        rows = _probe_from(core, env, outer_ctx)
    if core.where is not None:
        where = _compile(core.where, env)
        ctx = _Ctx(None, outer_ctx)  # reused: rows, not contexts, escape
        kept = []
        for row in rows:
            ctx.row = row
            if where(ctx) is True:
                kept.append(row)
        rows = kept

    exprs = [item.expr for item in env.binding.items[id(core)]]
    if id(core) in env.binding.grouped:
        ctxs = _group(rows, core.group_by, env, outer_ctx)
    elif core.having is not None or hidden:
        ctxs = [_Ctx(row, outer_ctx) for row in rows]
    else:
        ctxs = None
    if core.having is not None:
        having = _compile(core.having, env)
        ctxs = [c for c in ctxs if having(c) is True]
    read = None if ctxs is not None else _read_columns(exprs, env)
    if read is not None:
        out = read(rows)
    else:
        project = _row_fn([_compile(e, env) for e in exprs])
        if ctxs is not None:
            out = [project(ctx) for ctx in ctxs]
        else:
            ctx = _Ctx(None, outer_ctx)  # reused: no later clause reads it
            out = []
            for row in rows:
                ctx.row = row
                out.append(project(ctx))

    if core.distinct:  # a distinct row has no one context for hidden keys
        out = _dedupe(out, row_keys(out))
    elif hidden:  # a second pass: every select item runs before any key
        keys = _row_fn([_compile(e, env) for e in hidden])
        out = [row + keys(ctx) for row, ctx in zip(out, ctxs)]

    return len(exprs), out


def _exec_from(item, env, outer_ctx):
    """Returns (row width, flat rows) of a FROM item."""
    if isinstance(item, TableRef):
        cte = env.binding.ctes.get(id(item))
        if cte is not None:
            return env.ctes[id(cte)]
        columns, rows = env.instance.table(item.name)
        return len(columns), rows

    if isinstance(item, DerivedTable):
        return _exec_stmt(item.query, env, outer_ctx)

    if isinstance(item, Join):
        left_width, left = _exec_from(item.left, env, outer_ctx)
        right_width, right = _exec_from(item.right, env, outer_ctx)
        condition = None if item.kind == "cross" else item.condition
        ctx = _Ctx(None, outer_ctx)  # reused: rows, not contexts, escape
        index = None
        if condition is not None:
            keep = _compile(condition, env)
            if left and right:
                keys = _equi_keys(condition, env, lambda depth, slot:
                                  depth == 0 and slot >= left_width)
                if keys is not None:
                    index = _Index(right, keys, ctx, (None,) * left_width)
        candidates = range(len(right))
        out = []
        matched_right = [False] * len(right)
        for lrow in left:
            any_match = False
            if index is not None:
                ctx.row = lrow
                candidates = index.probe(ctx)
            for j in candidates:
                rrow = right[j]
                ctx.row = lrow + rrow
                if condition is not None and keep(ctx) is not True:
                    continue
                any_match = True
                matched_right[j] = True
                out.append(ctx.row)
            if not any_match and item.kind in ("left", "full"):
                out.append(lrow + (None,) * right_width)
        if item.kind in ("right", "full"):
            null_left = (None,) * left_width
            out.extend(null_left + rrow
                       for rrow, matched in zip(right, matched_right)
                       if not matched)
        return left_width + right_width, out

    raise RuntimeExecError(f"cannot evaluate FROM item {item!r}")


def _probe_from(core, env, outer_ctx):
    """FROM rows of a core whose FROM item reads no enclosing row.

    When WHERE has `inner = outer` conjuncts, the rows and their index
    are built once per execute, and the enclosing row picks its
    candidates by probing with the outer sides; WHERE still runs on
    each candidate.
    """
    keys = _equi_keys(core.where, env, lambda depth, slot: depth == 0)
    if keys is None:
        return _exec_from(core.from_item, env, outer_ctx)[1]
    index = env.memo.get(id(core))
    if index is None:
        rows = _exec_from(core.from_item, env, outer_ctx)[1]
        index = env.memo[id(core)] = _Index(rows, keys,
                                            _Ctx(None, outer_ctx))
    if not index.rows:
        return []
    return [index.rows[i] for i in index.probe(_Ctx(None, outer_ctx))]


def _group(rows, group_by, env, outer_ctx):
    """Contexts of the groups of `rows` in first-occurrence order, each
    reading its first row; NULL keys group together."""
    if not group_by:
        rep = rows[0] if rows else _NoRow()
        return [_Ctx(rep, outer_ctx, group=rows)]
    read = _read_columns(group_by, env)
    if read is not None:
        keys = read(rows)
    else:
        key_of = _row_fn([_compile(e, env) for e in group_by])
        ctx = _Ctx(None, outer_ctx)  # reused: rows, not contexts, escape
        keys = []
        for row in rows:
            ctx.row = row
            keys.append(key_of(ctx))
    buckets = {}
    for key, row in zip(row_keys(keys), rows):
        buckets.setdefault(key, []).append(row)
    return [_Ctx(members[0], outer_ctx, group=members)
            for members in buckets.values()]


def _sort_rows(rows, stmt, width, env):
    """`rows`, the list the body built, sorted and cut back to `width`
    columns; a key bound to None reads the next hidden column. A key
    column `sorts_raw` allows sorts on its cells, NULLs set apart in
    their order: first, as `sort_key` puts them, or last when DESC."""
    keys = []
    hidden = width
    for index, item in zip(env.binding.order[id(stmt)], stmt.order_by):
        if index is None:
            index, hidden = hidden, hidden + 1
        keys.append((index, item.descending))
    for slot, descending in reversed(keys):
        cell = operator.itemgetter(slot)
        types = set(map(type, map(cell, rows)))
        if not sorts_raw(types):
            rows.sort(key=lambda row: sort_key(row[slot]), reverse=descending)
            continue
        nulls = []
        if type(None) in types:
            nulls = [row for row in rows if row[slot] is None]
            rows = [row for row in rows if row[slot] is not None]
        rows.sort(key=cell, reverse=descending)
        rows = rows + nulls if descending else nulls + rows
    if hidden > width:
        return [row[:width] for row in rows]
    return rows


def _apply_limit(rows, limit, env):
    offset = 0
    if limit.offset is not None:
        offset = _limit_value(limit.offset, env, "OFFSET")
    if limit.count == Literal(None):
        return rows[offset:]
    count = _limit_value(limit.count, env, "LIMIT")
    return rows[offset:offset + count]


def _limit_value(expr, env, what):
    value = _compile(expr, env)(_Ctx(()))
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise RuntimeExecError(f"{what} requires a non-negative integer")
    return value


# --- hash probes on equality conjuncts ---

class _Index:
    """Fixed rows bucketed on the values of the fixed sides of equality
    conjuncts; `probe` returns the positions of the rows whose key equals
    the probing sides' values, in row order.

    Keys are `canon` values, so 1 and 1.0 meet and TRUE stays apart
    from 1, as with `=`; a NULL key matches nothing. The buckets only
    narrow the candidates: the caller still runs the whole condition on
    each one.
    """
    __slots__ = ("rows", "probe_fns", "buckets")

    def __init__(self, rows, keys, ctx, pad=()):
        fixed_fns, self.probe_fns = keys
        self.rows = rows
        self.buckets = {}
        for i, row in enumerate(rows):
            ctx.row = pad + row
            key = _key([f(ctx) for f in fixed_fns])
            if key is not None:
                self.buckets.setdefault(key, []).append(i)

    def probe(self, ctx):
        key = _key([f(ctx) for f in self.probe_fns])
        return () if key is None else self.buckets.get(key, ())


def _key(values):
    if any(value is None for value in values):
        return None
    return canon_row(values)


def _equi_keys(condition, env, is_fixed):
    """Closures of ([fixed sides], [probing sides]) of the `x = y`
    conjuncts of `condition` where one side reads only fixed slots and
    the other only other ones, neither holding a subquery or an
    aggregate; None when no conjunct qualifies. `is_fixed(depth, slot)`
    tells the slots apart, and does so the same way on every call for a
    given condition.
    """
    if id(condition) not in env.keys:
        fixed, probing = [], []
        for conjunct in _conjuncts(condition):
            if not (isinstance(conjunct, Binary) and conjunct.op == "="):
                continue
            sides = (conjunct.left, conjunct.right)
            reads = [_reads(side, env.binding, is_fixed) for side in sides]
            if reads[1] == {True} and reads[0] == {False}:
                sides = sides[::-1]
            elif not (reads[0] == {True} and reads[1] == {False}):
                continue
            fixed.append(_compile(sides[0], env))
            probing.append(_compile(sides[1], env))
        env.keys[id(condition)] = (fixed, probing) if fixed else None
    return env.keys[id(condition)]


def _conjuncts(condition):
    """The operands of the top-level ANDs of `condition`, in order."""
    out, stack = [], [condition]
    while stack:
        node = stack.pop()
        if isinstance(node, Binary) and node.op == "AND":
            stack += (node.right, node.left)
        else:
            out.append(node)
    return out


def _reads(expr, binding, is_fixed):
    """{is_fixed(depth, slot)} over the column references of `expr`; an
    empty set for a subquery or an aggregate, which never make a key."""
    reads = set()
    for node in select_level(expr):
        if isinstance(node, SelectStmt) or is_aggregate_call(node):
            return set()
        if isinstance(node, ColumnRef):
            reads.add(is_fixed(*binding.slots[id(node)]))
    return reads


class _ValueSet:
    """The right side of `value IN (...)`, as the set of its members'
    `canon` keys; `contains` answers under three-valued logic: FALSE for
    an empty set, else NULL for a NULL value, else TRUE when a member
    equals it, else NULL when a member is NULL, else FALSE."""
    __slots__ = ("keys", "saw_null")

    def __init__(self, values):
        self.keys = set()
        self.saw_null = False
        for value in values:
            if value is None:
                self.saw_null = True
            else:
                self.keys.add(canon(value))

    def contains(self, value):
        if not self.keys and not self.saw_null:
            return False
        if value is None:
            return None
        if canon(value) in self.keys:
            return True
        return None if self.saw_null else False


# --- value helpers ---

def _finite(value, what):
    """`value`, unless it is an infinite or NaN float."""
    if isinstance(value, float) and not math.isfinite(value):
        raise _non_finite(what)
    return value


def _non_finite(what):
    return RuntimeExecError(f"{what} gives a non-finite number")


def _text(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return _str(value)


def _str(value, convert=str):
    """`convert(value)`; an int too long for text raises RuntimeExecError."""
    try:
        return convert(value)
    except ValueError as exc:  # past the interpreter's 4300-digit limit
        raise RuntimeExecError("integer too long to convert to text") from exc


def _truthy(value):
    if isinstance(value, bool):
        return value
    raise RuntimeExecError("NOT needs a boolean operand")


def _not_boolean():
    return RuntimeExecError("AND/OR need boolean operands")


def _and3(a, b):
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def _negate3(value):
    return None if value is None else (not value)


def _compare(op, left, right):
    """Three-valued comparison under the value model."""
    if left is None or right is None:
        return None
    compare = _COMPARISONS.get(op)
    if compare is None:
        raise RuntimeExecError(f"unknown comparison {op}")
    return compare(left, right)


def _ordering(order):
    """`order` of two non-NULL cells by their sort keys."""
    def compare(left, right):
        if type(left) is type(right) is not tuple:
            return order(left, right)  # as their sort keys would
        return order(sort_key(left), sort_key(right))
    return compare


_COMPARISONS = {
    "=": values_equal, "<>": lambda left, right: not values_equal(left, right),
    "<": _ordering(operator.lt), "<=": _ordering(operator.le),
    ">": _ordering(operator.gt), ">=": _ordering(operator.ge),
}
_PLAIN_COMPARISONS = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
}
_MIRRORED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv, "%": operator.mod}


def _dedupe(items, keys):
    """`items` without the later ones whose key (in `keys`, one per item;
    `items` itself when they key on themselves) was seen."""
    if keys is items:
        return list(dict.fromkeys(items))
    firsts = {}
    for key, item in zip(keys, items):
        firsts.setdefault(key, item)
    return list(firsts.values())


def _like_regex(pattern):
    """Regular expression of a LIKE pattern; `%` and `_` match any
    character, a newline too."""
    out = ["(?s)"]
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return "".join(out)


# --- expression compilation ---
#
# Each expression becomes a closure `fn(ctx)` the first time a clause
# needs it in an execute. What depends only on the tree is decided here:
# column slots, operators, function and aggregate names, cast targets,
# literal LIKE patterns and literal IN lists. Errors are raised by the
# closures, on the row that meets them, never while compiling, so an
# expression no row reaches raises nothing.

def _compile(expr, env):
    """The closure of `expr` in this execute, built on first use."""
    fn = env.fns.get(id(expr))
    if fn is None:
        build = _BUILDERS.get(type(expr), _build_unknown)
        fn = env.fns[id(expr)] = build(expr, env)
    return fn


def _row_fn(fns):
    """Closure building the output tuple of a row from column closures.
    One and two columns skip the list comprehension, which costs a frame
    per row: measured, they save about a fifth of `oracle-scan`'s
    executor time."""
    if len(fns) == 1:
        (only,) = fns
        return lambda ctx: (only(ctx),)
    if len(fns) == 2:
        first, second = fns
        return lambda ctx: (first(ctx), second(ctx))
    return lambda ctx: tuple([fn(ctx) for fn in fns])


def _read_columns(exprs, env):
    """A function from a list of working rows to the tuple of `exprs`'
    values in each, when every expression is a column of the working row
    itself: it reads the rows with `itemgetter`, building no row context.
    None when an expression is anything else. Decided once per execute."""
    key = tuple(map(id, exprs))
    if key not in env.reads:
        slots = [_own_slot(expr, env) for expr in exprs]
        env.reads[key] = _reader(slots) if slots and None not in slots \
            else None
    return env.reads[key]


def _reader(slots):
    if len(slots) == 1:
        (slot,) = slots
        return lambda rows: [(row[slot],) for row in rows]
    get = operator.itemgetter(*slots)
    return lambda rows: list(map(get, rows))


def _own_slot(expr, env):
    """The slot of `expr` when it is a column of the working row itself
    (depth 0), else None."""
    if type(expr) is ColumnRef:
        depth, slot = env.binding.slots[id(expr)]
        if depth == 0:
            return slot
    return None


def _build_unknown(expr, env):
    name = type(expr).__name__

    def unknown(ctx):
        raise RuntimeExecError(f"cannot evaluate {name}")
    return unknown


def _build_literal(expr, env):
    value = expr.value
    return lambda ctx: value


def _build_column(expr, env):
    # the hottest closure: reads of the row and of the enclosing row
    # skip the loop, which measured a fifth of `oracle-scan`'s executor time
    depth, slot = env.binding.slots[id(expr)]
    if depth == 0:
        return lambda ctx: ctx.row[slot]
    if depth == 1:
        return lambda ctx: ctx.outer.row[slot]

    def column(ctx):
        for _ in range(depth):
            ctx = ctx.outer
        return ctx.row[slot]
    return column


def _build_unary(expr, env):
    operand = _compile(expr.operand, env)
    op = expr.op
    if op == "NOT":
        def not_(ctx):
            value = operand(ctx)
            return None if value is None else (not _truthy(value))
        return not_
    negate = op == "-"

    def sign(ctx):
        value = operand(ctx)
        if value is None:
            return None
        if not is_number(value):
            raise RuntimeExecError(f"unary {op} needs a number")
        return -value if negate else value
    return sign


def _build_binary(expr, env):
    op = expr.op
    if op in _COMPARISONS:
        fast = _build_column_vs_literal(expr, env)
        if fast is not None:
            return fast
    left = _compile(expr.left, env)
    right = _compile(expr.right, env)
    # a value that is not None, True or False is not a boolean
    if op == "AND":
        def and_(ctx):
            a = left(ctx)
            if a is not True and a is not False and a is not None:
                raise _not_boolean()
            b = right(ctx)
            if b is not True and b is not False and b is not None:
                raise _not_boolean()
            if a is False or b is False:
                return False
            return None if a is None or b is None else True
        return and_
    if op == "OR":
        def or_(ctx):
            a = left(ctx)
            if a is not True and a is not False and a is not None:
                raise _not_boolean()
            b = right(ctx)
            if b is not True and b is not False and b is not None:
                raise _not_boolean()
            if a is True or b is True:
                return True
            return None if a is None or b is None else False
        return or_
    if op in _COMPARISONS:
        compare = _COMPARISONS[op]

        def comparison(ctx):
            a = left(ctx)
            b = right(ctx)
            return None if a is None or b is None else compare(a, b)
        return comparison
    if op == "||":
        def concat(ctx):
            a = left(ctx)
            b = right(ctx)
            if isinstance(a, tuple) or isinstance(b, tuple):
                return (a if isinstance(a, tuple) else (a,)) + \
                    (b if isinstance(b, tuple) else (b,))
            if a is None or b is None:
                return None
            return _text(a) + _text(b)
        return concat
    return _build_arithmetic(op, left, right)


def _build_column_vs_literal(expr, env):
    """The comparison of a column of the working row with a non-NULL
    scalar literal, on either side (mirrored when on the left); None for
    any other comparison. A cell of the literal's exact type compares
    with Python's operator, as `values_equal` and `_ordering` would; any
    other cell through `_COMPARISONS`."""
    op, column, literal = expr.op, expr.left, expr.right
    if type(column) is Literal:
        op, column, literal = _MIRRORED[op], literal, column
    if type(literal) is not Literal or not is_scalar(literal.value):
        return None
    slot = _own_slot(column, env)
    if slot is None:
        return None
    value = literal.value
    kind = type(value)
    plain = _PLAIN_COMPARISONS[op]
    compare = _COMPARISONS[op]

    def column_vs_literal(ctx):
        cell = ctx.row[slot]
        if cell is None:
            return None
        if type(cell) is kind:
            return plain(cell, value)
        return compare(cell, value)
    return column_vs_literal


def _build_arithmetic(op, left, right):
    apply = _ARITHMETIC.get(op)
    by_zero = {"/": "division by zero", "%": "modulo by zero"}.get(op)

    def arithmetic(ctx):
        a = left(ctx)
        b = right(ctx)
        if a is None or b is None:
            return None
        if not is_number(a) or not is_number(b):
            raise RuntimeExecError(f"operator {op} needs numeric operands")
        if apply is None:
            raise RuntimeExecError(f"unknown operator {op}")
        if by_zero is not None and b == 0:
            raise RuntimeExecError(by_zero)
        try:
            return _finite(apply(a, b), f"operator {op}")
        except OverflowError as exc:
            raise _non_finite(f"operator {op}") from exc
    return arithmetic


def _build_is_null(expr, env):
    operand = _compile(expr.operand, env)
    negated = expr.negated
    return lambda ctx: (operand(ctx) is None) is not negated


def _build_in_list(expr, env):
    operand = _compile(expr.operand, env)
    negated = expr.negated
    if all(isinstance(item, Literal) for item in expr.items):
        members = _ValueSet([item.value for item in expr.items])

        def in_literals(ctx):
            result = members.contains(operand(ctx))
            return _negate3(result) if negated else result
        return in_literals
    items = [_compile(item, env) for item in expr.items]

    def in_list(ctx):
        value = operand(ctx)
        result = _ValueSet([item(ctx) for item in items]).contains(value)
        return _negate3(result) if negated else result
    return in_list


def _build_in_subquery(expr, env):
    operand = _compile(expr.operand, env)
    query = expr.query
    negated = expr.negated
    correlated = id(query) in env.binding.correlated

    def in_subquery(ctx):
        value = operand(ctx)
        if correlated:
            members = _ValueSet(_column(query, env, ctx, "IN"))
        else:
            members = env.memo.get(id(expr))
            if members is None:
                members = env.memo[id(expr)] = _ValueSet(
                    _column(query, env, ctx, "IN"))
        result = members.contains(value)
        return _negate3(result) if negated else result
    return in_subquery


def _build_between(expr, env):
    operand = _compile(expr.operand, env)
    low = _compile(expr.low, env)
    high = _compile(expr.high, env)
    negated = expr.negated
    le = _COMPARISONS["<="]

    def between(ctx):
        value = operand(ctx)
        lo = low(ctx)
        hi = high(ctx)
        above = None if lo is None or value is None else le(lo, value)
        below = None if value is None or hi is None else le(value, hi)
        result = _and3(above, below)
        return _negate3(result) if negated else result
    return between


def _build_like(expr, env):
    operand = _compile(expr.operand, env)
    negated = expr.negated
    if isinstance(expr.pattern, Literal) and \
            isinstance(expr.pattern.value, str):
        match = re.compile(_like_regex(expr.pattern.value)).fullmatch

        def like_literal(ctx):
            value = operand(ctx)
            if value is None:
                return None
            if not isinstance(value, str):
                raise RuntimeExecError("LIKE needs text operands")
            return (match(value) is not None) is not negated
        return like_literal
    pattern_of = _compile(expr.pattern, env)

    def like(ctx):
        value = operand(ctx)
        pattern = pattern_of(ctx)
        if value is None or pattern is None:
            return None
        if not isinstance(value, str) or not isinstance(pattern, str):
            raise RuntimeExecError("LIKE needs text operands")
        return (re.fullmatch(_like_regex(pattern), value) is not None) \
            is not negated
    return like


def _build_exists(expr, env):
    query = expr.query
    return lambda ctx: bool(_subquery_rows(query, env, ctx)[1])


def _build_subquery(expr, env):
    query = expr.query

    def scalar(ctx):
        rows = _column(query, env, ctx, "scalar")
        if len(rows) > 1:
            raise RuntimeExecError(
                "scalar subquery returned more than one row")
        return rows[0] if rows else None
    return scalar


def _build_quantified(expr, env):
    left = _compile(expr.left, env)
    op = expr.op
    any_ = expr.quantifier == "ANY"
    if isinstance(expr.operand, Subquery):
        query = expr.operand.query
        operand = None
    else:
        operand = _compile(expr.operand, env)

    def quantified(ctx):
        value = left(ctx)
        if operand is None:
            values = _column(query, env, ctx, "quantified")
        else:
            array = operand(ctx)
            if array is None:
                return None
            if not isinstance(array, tuple):
                raise RuntimeExecError("ANY/ALL needs a subquery or array")
            values = array
        results = [_compare(op, value, v) for v in values]
        if any_:
            if any(r is True for r in results):
                return True
            return None if any(r is None for r in results) else False
        if any(r is False for r in results):
            return False
        return None if any(r is None for r in results) else True
    return quantified


def _build_case(expr, env):
    whens = [(_compile(cond, env), _compile(result, env))
             for cond, result in expr.whens]
    else_ = None if expr.else_ is None else _compile(expr.else_, env)
    if expr.operand is None:
        def searched(ctx):
            for cond, result in whens:
                if cond(ctx) is True:
                    return result(ctx)
            return None if else_ is None else else_(ctx)
        return searched
    subject_of = _compile(expr.operand, env)

    def simple(ctx):
        subject = subject_of(ctx)
        for cond, result in whens:
            if _compare("=", subject, cond(ctx)) is True:
                return result(ctx)
        return None if else_ is None else else_(ctx)
    return simple


def _build_call(call, env):
    if call.is_aggregate:
        return _build_aggregate(call, env)
    name = call.name
    args = [_compile(arg, env) for arg in call.args]
    if name == "coalesce":
        def coalesce(ctx):
            for value in [arg(ctx) for arg in args]:
                if value is not None:
                    return value
            return None
        return coalesce
    if name == "nullif":
        def nullif(ctx):
            values = [arg(ctx) for arg in args]
            if len(values) != 2:
                raise RuntimeExecError("NULLIF takes two arguments")
            return None if _compare("=", *values) is True else values[0]
        return nullif
    builtin = _SCALAR_BUILTINS.get(name)

    def scalar_call(ctx):
        values = [arg(ctx) for arg in args]
        if builtin is None:
            raise RuntimeExecError(f"unknown function {name!r}")
        if any(value is None for value in values):
            return None
        return builtin(values)
    return scalar_call


def _first(args, name):
    if not args:
        raise RuntimeExecError(f"{name} needs an argument")
    return args[0]


def _upper(args):
    return _str(_first(args, "UPPER")).upper()


def _lower(args):
    return _str(_first(args, "LOWER")).lower()


def _length(args):
    return len(_str(_first(args, "LENGTH")))


def _abs(args):
    value = _first(args, "ABS")
    if not is_number(value):
        raise RuntimeExecError("ABS needs a number")
    return abs(value)


def _round(args):
    value = _first(args, "ROUND")
    if not is_number(value):
        raise RuntimeExecError("ROUND needs a number")
    digits = args[1] if len(args) > 1 else 0
    try:
        return round(value, digits) if digits else float(round(value))
    except TypeError as exc:
        raise RuntimeExecError("ROUND digits must be an integer") from exc
    except OverflowError as exc:
        raise _non_finite("ROUND") from exc


def _lpad(args):
    if len(args) < 2:
        raise RuntimeExecError("LPAD needs a value and a width")
    text = _text(args[0])
    width = args[1]
    fill = _text(args[2]) if len(args) > 2 else " "
    if not isinstance(width, int) or isinstance(width, bool) or width < 0:
        raise RuntimeExecError("LPAD width must be a non-negative integer")
    if len(text) >= width or not fill:
        return text[:width]
    need = width - len(text)
    try:
        pad = (fill * (need // len(fill) + 1))[:need]
    except (OverflowError, MemoryError) as exc:
        raise RuntimeExecError("LPAD width is too large") from exc
    return pad + text


_SCALAR_BUILTINS = {
    "upper": _upper, "lower": _lower, "length": _length, "abs": _abs,
    "round": _round, "lpad": _lpad,
}


def _build_aggregate(call, env):
    name = call.name.upper()
    outside = f"aggregate {name} outside a grouped context"
    if call.star:
        def count_star(ctx):
            if ctx.group is None:
                raise RuntimeExecError(outside)
            return len(ctx.group)
        return count_star
    if len(call.args) != 1:
        def wrong_arity(ctx):
            if ctx.group is None:
                raise RuntimeExecError(outside)
            raise RuntimeExecError(f"{name} takes exactly one argument")
        return wrong_arity
    finish = _AGGREGATES[call.name]
    distinct = call.distinct
    slot = _own_slot(call.args[0], env)
    if slot is not None:
        cell = operator.itemgetter(slot)

        def values_of(members, outer):
            return [value for value in map(cell, members)
                    if value is not None]
    else:
        arg = _compile(call.args[0], env)

        def values_of(members, outer):
            member = _Ctx(None, outer)
            values = []
            for row in members:
                member.row = row
                value = arg(member)
                if value is not None:
                    values.append(value)
            return values

    def aggregate(ctx):
        members = ctx.group
        if members is None:
            raise RuntimeExecError(outside)
        values = values_of(members, ctx.outer)
        if distinct:
            values = _dedupe(values, map(canon, values))
        return finish(values)
    return aggregate


def _sum(values):
    if not values:
        return None
    _require_numbers(values, "SUM")
    try:
        return _finite(sum(values), "SUM")
    except OverflowError as exc:
        raise _non_finite("SUM") from exc


def _avg(values):
    if not values:
        return None
    _require_numbers(values, "AVG")
    try:
        return _finite(sum(values) / len(values), "AVG")
    except OverflowError as exc:
        raise _non_finite("AVG") from exc


def _require_numbers(values, what):
    for v in values:
        if not is_number(v):
            raise RuntimeExecError(f"{what} needs numeric values")


_AGGREGATES = {
    "count": len,
    "sum": _sum,
    "avg": _avg,
    "min": lambda values: min(values, key=sort_key) if values else None,
    "max": lambda values: max(values, key=sort_key) if values else None,
}


def _build_cast(expr, env):
    operand = _compile(expr.operand, env)
    type_name = expr.type_name
    base = type_name.split("(")[0].strip().lower()
    convert = _CASTS.get(base)

    def cast(ctx):
        value = operand(ctx)
        if value is None:
            return None
        if convert is None:
            raise RuntimeExecError(
                f"unsupported cast target {type_name!r}")
        try:
            return convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise RuntimeExecError(
                f"cannot cast {_str(value, repr)} to {base}") from exc
    return cast


def _to_int(value):
    if isinstance(value, (int, float)):
        return int(value)
    return int(str(value).strip())


def _to_real(value):
    result = float(value)
    if not math.isfinite(result):
        raise ValueError(value)
    return result


def _to_bool(value):
    if isinstance(value, bool):
        return value
    if is_number(value):
        return value != 0
    lowered = str(value).strip().lower()
    if lowered in ("t", "true", "1", "yes"):
        return True
    if lowered in ("f", "false", "0", "no"):
        return False
    raise ValueError(value)


_CASTS = {
    **dict.fromkeys(("int", "integer", "bigint", "smallint"), _to_int),
    **dict.fromkeys(("real", "float", "double precision", "numeric",
                     "decimal"), _to_real),
    **dict.fromkeys(("text", "varchar", "char", "character"), _text),
    **dict.fromkeys(("boolean", "bool"), _to_bool),
}


def _build_array(expr, env):
    items = [_compile(item, env) for item in expr.items]
    return lambda ctx: tuple([item(ctx) for item in items])


def _subquery_rows(query, env, ctx):
    """(width, rows) of an expression subquery run for the row of `ctx`;
    an uncorrelated one runs once per execute, on first use."""
    if id(query) in env.binding.correlated:
        return _exec_stmt(query, env, ctx)
    result = env.memo.get(id(query))
    if result is None:
        result = env.memo[id(query)] = _exec_stmt(query, env, ctx)
    return result


def _column(query, env, ctx, what):
    """Values of a subquery that must return one column."""
    width, rows = _subquery_rows(query, env, ctx)
    if width != 1:
        raise RuntimeExecError(f"{what} subquery must return one column")
    return [row[0] for row in rows]


_BUILDERS = {
    Literal: _build_literal, ColumnRef: _build_column, Unary: _build_unary,
    Binary: _build_binary, IsNull: _build_is_null, InList: _build_in_list,
    InSubquery: _build_in_subquery, Between: _build_between,
    Like: _build_like, Exists: _build_exists, Subquery: _build_subquery,
    Quantified: _build_quantified, Case: _build_case, FuncCall: _build_call,
    Cast: _build_cast, ArrayLit: _build_array,
}
