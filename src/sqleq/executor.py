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
- predicates use three-valued logic; only rows where the condition is
  True survive WHERE/ON/HAVING;
- GROUP BY, DISTINCT and set-operation deduplication treat NULLs as
  equal and compare numbers by value (1 == 1.0);
- ORDER BY uses a stable sort over the documented total order
  null < booleans < numbers < text, applied in reverse for DESC;
- aggregates skip NULLs (except COUNT(*)); SUM/AVG/MIN/MAX of no values
  is NULL, COUNT is 0.

Recursive CTEs and window functions raise UnsupportedFeature.
"""

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field

from .ast_nodes import (
    ArrayLit, Between, Binary, Case, Cast, ColumnRef, Cte, DerivedTable,
    Exists, FuncCall, InList, InSubquery, IsNull, Join, Like, Literal,
    Quantified, SelectStmt, SetOp, Subquery, TableRef, Unary, walk,
)
from .binder import bind
from .errors import InstanceError, RuntimeExecError, UnsupportedFeature


# --- data containers ---

@dataclass
class ResultTable:
    column_count: int
    rows: list          # list of value tuples
    ordered: bool       # outermost statement had ORDER BY


@dataclass
class DatabaseInstance:
    """Per-table row multisets conforming to a schema definition."""
    schema: object
    tables: dict = field(default_factory=dict)  # name -> (columns, rows)

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
    (lists of that arity). A cell is null, a boolean, an integer, a
    finite float or text, so every cell has a `_canon` key. Anything else
    raises InstanceError.
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
        rows = []
        for row in spec["rows"]:
            if not isinstance(row, (list, tuple)):
                raise InstanceError(
                    f"table {name!r} row {row!r} is not a list")
            if len(row) != len(columns):
                raise InstanceError(
                    f"table {name!r} row arity {len(row)} != {len(columns)}")
            for cell in row:
                if not _valid_cell(cell):
                    raise InstanceError(
                        f"table {name!r} cell {cell!r} is not null, a "
                        f"boolean, a number, or text")
            rows.append(tuple(row))
        tables[name.lower()] = (columns, rows)
    instance = DatabaseInstance(schema=schema, tables=tables)
    _check_primary_keys(instance)
    return instance


def load_instances(path, schema):
    """Load one instance or a list of instances from a JSON file."""
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if isinstance(data, list):
        return [instance_from_dict(d, schema) for d in data]
    return [instance_from_dict(data, schema)]


def _valid_cell(cell):
    if isinstance(cell, float):
        return math.isfinite(cell)
    return cell is None or isinstance(cell, (bool, int, str))


def _check_primary_keys(instance):
    for ref in instance.schema.primary_keys:
        table_name, _, column = ref.partition(".")
        columns, rows = instance.table(table_name)
        try:
            idx = columns.index(column.lower())
        except ValueError:
            continue
        seen = set()
        for row in rows:
            value = row[idx]
            if value is None:
                raise InstanceError(f"NULL in primary key column {ref}")
            key = _canon(value)
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
    if ast.partial:
        raise RuntimeExecError("cannot execute a partial statement")
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
    value sets, indexes of correlated cores) and the equality keys found
    in each condition (`keys`)."""
    __slots__ = ("instance", "binding", "ctes", "memo", "keys")

    def __init__(self, instance, binding):
        self.instance = instance
        self.binding = binding
        self.ctes = {}
        self.memo = {}
        self.keys = {}


class _Ctx:
    """One flat working row, the enclosing row context, and the member
    contexts of the group when aggregating."""
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

    width, pairs = _exec_body(stmt.body, env, outer_ctx)

    if stmt.order_by:
        rows = _sort_rows(pairs, stmt, env)
    else:
        rows = [out for out, _ctx in pairs]

    if stmt.limit is not None:
        rows = _apply_limit(rows, stmt.limit, env)

    return width, rows


def _exec_body(body, env, outer_ctx):
    """Returns (width, [(output row, row context or None)])."""
    if isinstance(body, SetOp):
        return _exec_setop(body, env, outer_ctx)
    if isinstance(body, SelectStmt):
        width, rows = _exec_stmt(body, env, outer_ctx)
        return width, [(row, None) for row in rows]
    return _exec_core(body, env, outer_ctx)


def _exec_setop(op, env, outer_ctx):
    width, left = _exec_body(op.left, env, outer_ctx)
    right_width, right = _exec_body(op.right, env, outer_ctx)
    if width != right_width:
        raise RuntimeExecError(
            f"{op.kind.upper()} arms have different column counts")
    lrows = [row for row, _ in left]
    rrows = [row for row, _ in right]

    if op.kind == "union":
        rows = lrows + rrows if op.all else _dedupe_rows(lrows + rrows)
    else:
        # INTERSECT keeps left rows found on the right, EXCEPT the others;
        # ALL consumes one right row per match, DISTINCT dedupes the left
        rcounts = Counter(map(_canon_row, rrows))
        keep_found = op.kind == "intersect"
        rows = []
        for row in (lrows if op.all else _dedupe_rows(lrows)):
            key = _canon_row(row)
            found = rcounts[key] > 0
            if found and op.all:
                rcounts[key] -= 1
            if found == keep_found:
                rows.append(row)

    return width, [(row, None) for row in rows]


def _exec_core(core, env, outer_ctx):
    if core.from_item is None:
        rows = [()]
    elif core.where is None or id(core.from_item) in env.binding.correlated:
        rows = _exec_from(core.from_item, env, outer_ctx)[0]
    else:
        rows = _probe_from(core, env, outer_ctx)
    ctxs = [_Ctx(row, outer_ctx) for row in rows]

    if core.where is not None:
        ctxs = [c for c in ctxs if _eval(core.where, c, env) is True]

    if id(core) in env.binding.grouped:
        ctxs = _group(ctxs, core.group_by, env, outer_ctx)
    if core.having is not None:
        ctxs = [c for c in ctxs if _eval(core.having, c, env) is True]

    exprs = [item.expr for item in env.binding.items[id(core)]]
    pairs = [(tuple(_eval(e, ctx, env) for e in exprs), ctx) for ctx in ctxs]

    if core.distinct:
        pairs = [(out, None) for out in _dedupe_rows(out for out, _ in pairs)]

    return len(exprs), pairs


def _exec_from(item, env, outer_ctx):
    """Returns (flat rows, row width) of a FROM item."""
    if isinstance(item, TableRef):
        cte = env.binding.ctes.get(id(item))
        if cte is not None:
            width, rows = env.ctes[id(cte)]
            return rows, width
        columns, rows = env.instance.table(item.name)
        return rows, len(columns)

    if isinstance(item, DerivedTable):
        width, rows = _exec_stmt(item.query, env, outer_ctx)
        return rows, width

    if isinstance(item, Join):
        left, left_width = _exec_from(item.left, env, outer_ctx)
        right, right_width = _exec_from(item.right, env, outer_ctx)
        condition = None if item.kind == "cross" else item.condition
        ctx = _Ctx(None, outer_ctx)  # reused: rows, not contexts, escape
        index = None
        if condition is not None and left and right:
            keys = _equi_keys(condition, env, lambda depth, slot:
                              depth == 0 and slot >= left_width)
            if keys is not None:
                index = _Index(right, keys, env, ctx, (None,) * left_width)
        candidates = range(len(right))
        out = []
        matched_right = [False] * len(right)
        for lrow in left:
            any_match = False
            if index is not None:
                ctx.row = lrow
                candidates = index.probe(ctx, env)
            for j in candidates:
                rrow = right[j]
                ctx.row = lrow + rrow
                if condition is not None and \
                        _eval(condition, ctx, env) is not True:
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
        return out, left_width + right_width

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
        return _exec_from(core.from_item, env, outer_ctx)[0]
    index = env.memo.get(id(core))
    if index is None:
        rows = _exec_from(core.from_item, env, outer_ctx)[0]
        index = env.memo[id(core)] = _Index(rows, keys, env,
                                            _Ctx(None, outer_ctx))
    if not index.rows:
        return []
    return [index.rows[i] for i in index.probe(_Ctx(None, outer_ctx), env)]


def _group(ctxs, group_by, env, outer_ctx):
    """Group contexts in first-occurrence order; NULL keys group together."""
    if not group_by:
        rep = ctxs[0].row if ctxs else _NoRow()
        return [_Ctx(rep, outer_ctx, group=ctxs)]
    buckets = {}
    for ctx in ctxs:
        key = tuple(_canon(_eval(e, ctx, env)) for e in group_by)
        buckets.setdefault(key, []).append(ctx)
    return [_Ctx(members[0].row, outer_ctx, group=members)
            for members in buckets.values()]


def _sort_rows(pairs, stmt, env):
    """Output rows in ORDER BY order; keys were bound to an output index,
    or to None for an expression over the row context."""
    indexes = env.binding.order[id(stmt)]
    keyed = []
    for out, ctx in pairs:
        keys = []
        for index, item in zip(indexes, stmt.order_by):
            if index is not None:
                value = out[index]
            elif ctx is None:
                raise RuntimeExecError(
                    "ORDER BY expression must name an output column here")
            else:
                value = _eval(item.expr, ctx, env)
            keys.append(sort_key(value))
        keyed.append((keys, out))
    for i in range(len(indexes) - 1, -1, -1):
        keyed.sort(key=lambda entry: entry[0][i],
                   reverse=stmt.order_by[i].descending)
    return [out for _keys, out in keyed]


def _apply_limit(rows, limit, env):
    offset = 0
    if limit.offset is not None:
        offset = _limit_value(limit.offset, env, "OFFSET")
    if limit.count == Literal(None):
        return rows[offset:]
    count = _limit_value(limit.count, env, "LIMIT")
    return rows[offset:offset + count]


def _limit_value(expr, env, what):
    value = _eval(expr, _Ctx(()), env)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise RuntimeExecError(f"{what} requires a non-negative integer")
    return value


# --- hash probes on equality conjuncts ---

class _Index:
    """Fixed rows bucketed on the values of the fixed sides of equality
    conjuncts; `probe` returns the positions of the rows whose key equals
    the probing sides' values, in row order.

    Keys are `_canon` values, so 1 and 1.0 meet and TRUE stays apart
    from 1, as with `=`; a NULL key matches nothing. The buckets only
    narrow the candidates: the caller still runs the whole condition on
    each one.
    """
    __slots__ = ("rows", "probe_exprs", "buckets")

    def __init__(self, rows, keys, env, ctx, pad=()):
        fixed_exprs, self.probe_exprs = keys
        self.rows = rows
        self.buckets = {}
        for i, row in enumerate(rows):
            ctx.row = pad + row
            key = _key([_eval(e, ctx, env) for e in fixed_exprs])
            if key is not None:
                self.buckets.setdefault(key, []).append(i)

    def probe(self, ctx, env):
        key = _key([_eval(e, ctx, env) for e in self.probe_exprs])
        return () if key is None else self.buckets.get(key, ())


def _key(values):
    if any(value is None for value in values):
        return None
    return tuple(_canon(value) for value in values)


def _equi_keys(condition, env, is_fixed):
    """([fixed sides], [probing sides]) of the `x = y` conjuncts of
    `condition` where one side reads only fixed slots and the other only
    other ones, neither holding a subquery or an aggregate; None when no
    conjunct qualifies. `is_fixed(depth, slot)` tells the slots apart,
    and does so the same way on every call for a given condition.
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
            fixed.append(sides[0])
            probing.append(sides[1])
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
    for node in walk(expr):
        if isinstance(node, (Subquery, Exists, InSubquery)) or \
                isinstance(node, FuncCall) and node.is_aggregate:
            return set()
        if isinstance(node, ColumnRef):
            reads.add(is_fixed(*binding.slots[id(node)]))
    return reads


class _ValueSet:
    """The right side of `value IN (...)`, hashed on `_canon`; `contains`
    answers under three-valued logic: FALSE for an empty set, else NULL
    for a NULL value, else TRUE when a member equals it, else NULL when
    a member is NULL, else FALSE."""
    __slots__ = ("values", "saw_null")

    def __init__(self, values):
        self.values = {}
        self.saw_null = False
        for value in values:
            if value is None:
                self.saw_null = True
            else:
                self.values.setdefault(_canon(value), value)

    def contains(self, value):
        if not self.values and not self.saw_null:
            return False
        if value is None:
            return None
        member = self.values.get(_canon(value))
        if member is not None and _values_equal(value, member):
            return True
        return None if self.saw_null else False


# --- expression evaluation ---

def _eval(expr, ctx, env):
    if isinstance(expr, Literal):
        return expr.value

    if isinstance(expr, ColumnRef):
        depth, slot = env.binding.slots[id(expr)]
        while depth:
            ctx = ctx.outer
            depth -= 1
        return ctx.row[slot]

    if isinstance(expr, Unary):
        value = _eval(expr.operand, ctx, env)
        if expr.op == "NOT":
            return None if value is None else (not _truthy(value))
        if value is None:
            return None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise RuntimeExecError(f"unary {expr.op} needs a number")
        return -value if expr.op == "-" else value

    if isinstance(expr, Binary):
        return _eval_binary(expr, ctx, env)

    if isinstance(expr, IsNull):
        is_null = _eval(expr.operand, ctx, env) is None
        return (not is_null) if expr.negated else is_null

    if isinstance(expr, InList):
        value = _eval(expr.operand, ctx, env)
        result = _ValueSet([_eval(i, ctx, env) for i in expr.items]) \
            .contains(value)
        return _negate3(result) if expr.negated else result

    if isinstance(expr, InSubquery):
        value = _eval(expr.operand, ctx, env)
        if id(expr.query) in env.binding.correlated:
            members = _ValueSet(_column(expr.query, env, ctx, "IN"))
        else:
            members = env.memo.get(id(expr))
            if members is None:
                members = env.memo[id(expr)] = _ValueSet(
                    _column(expr.query, env, ctx, "IN"))
        result = members.contains(value)
        return _negate3(result) if expr.negated else result

    if isinstance(expr, Between):
        value = _eval(expr.operand, ctx, env)
        low = _eval(expr.low, ctx, env)
        high = _eval(expr.high, ctx, env)
        result = _and3(_compare("<=", low, value), _compare("<=", value, high))
        return _negate3(result) if expr.negated else result

    if isinstance(expr, Like):
        value = _eval(expr.operand, ctx, env)
        pattern = _eval(expr.pattern, ctx, env)
        if value is None or pattern is None:
            return None
        if not isinstance(value, str) or not isinstance(pattern, str):
            raise RuntimeExecError("LIKE needs text operands")
        result = bool(re.fullmatch(_like_regex(pattern), value))
        return (not result) if expr.negated else result

    if isinstance(expr, Exists):
        return bool(_subquery_rows(expr.query, env, ctx)[1])

    if isinstance(expr, Subquery):
        rows = _column(expr.query, env, ctx, "scalar")
        if len(rows) > 1:
            raise RuntimeExecError("scalar subquery returned more than one row")
        return rows[0] if rows else None

    if isinstance(expr, Quantified):
        return _eval_quantified(expr, ctx, env)

    if isinstance(expr, Case):
        if expr.operand is not None:
            subject = _eval(expr.operand, ctx, env)
            for cond, result in expr.whens:
                if _compare("=", subject, _eval(cond, ctx, env)) is True:
                    return _eval(result, ctx, env)
        else:
            for cond, result in expr.whens:
                if _eval(cond, ctx, env) is True:
                    return _eval(result, ctx, env)
        return _eval(expr.else_, ctx, env) if expr.else_ is not None else None

    if isinstance(expr, FuncCall):
        return _eval_call(expr, ctx, env)

    if isinstance(expr, Cast):
        return _eval_cast(_eval(expr.operand, ctx, env), expr.type_name)

    if isinstance(expr, ArrayLit):
        return tuple(_eval(i, ctx, env) for i in expr.items)

    raise RuntimeExecError(f"cannot evaluate {type(expr).__name__}")


def _eval_binary(expr, ctx, env):
    op = expr.op
    if op == "AND":
        return _and3(_bool3(_eval(expr.left, ctx, env)),
                     _bool3(_eval(expr.right, ctx, env)))
    if op == "OR":
        return _or3(_bool3(_eval(expr.left, ctx, env)),
                    _bool3(_eval(expr.right, ctx, env)))

    left = _eval(expr.left, ctx, env)
    right = _eval(expr.right, ctx, env)

    if op in ("=", "<>", "<", "<=", ">", ">="):
        return _compare(op, left, right)

    if op == "||":
        if isinstance(left, tuple) or isinstance(right, tuple):
            lpart = left if isinstance(left, tuple) else (left,)
            rpart = right if isinstance(right, tuple) else (right,)
            return lpart + rpart
        if left is None or right is None:
            return None
        return _text(left) + _text(right)

    if left is None or right is None:
        return None
    if not _is_number(left) or not _is_number(right):
        raise RuntimeExecError(f"operator {op} needs numeric operands")
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise RuntimeExecError("division by zero")
        return left / right
    if op == "%":
        if right == 0:
            raise RuntimeExecError("modulo by zero")
        return left % right
    raise RuntimeExecError(f"unknown operator {op}")


def _eval_quantified(expr, ctx, env):
    left = _eval(expr.left, ctx, env)
    if isinstance(expr.operand, Subquery):
        values = _column(expr.operand.query, env, ctx, "quantified")
    else:
        operand = _eval(expr.operand, ctx, env)
        if operand is None:
            return None
        if not isinstance(operand, tuple):
            raise RuntimeExecError("ANY/ALL needs a subquery or array")
        values = list(operand)

    results = [_compare(expr.op, left, v) for v in values]
    if expr.quantifier == "ANY":
        if any(r is True for r in results):
            return True
        return None if any(r is None for r in results) else False
    if any(r is False for r in results):
        return False
    return None if any(r is None for r in results) else True


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


def _eval_call(call, ctx, env):
    name = call.name

    if call.is_aggregate:
        if ctx.group is None:
            raise RuntimeExecError(
                f"aggregate {name.upper()} outside a grouped context")
        return _eval_aggregate(call, ctx.group, env)

    args = [_eval(a, ctx, env) for a in call.args]

    if name == "coalesce":
        for value in args:
            if value is not None:
                return value
        return None
    if name == "nullif":
        if len(args) != 2:
            raise RuntimeExecError("NULLIF takes two arguments")
        return None if _compare("=", args[0], args[1]) is True else args[0]
    if name in ("upper", "lower", "length", "abs", "round", "lpad"):
        return _eval_scalar_builtin(name, args)
    raise RuntimeExecError(f"unknown function {name!r}")


def _eval_scalar_builtin(name, args):
    if any(a is None for a in args):
        return None
    if name == "upper":
        return str(args[0]).upper()
    if name == "lower":
        return str(args[0]).lower()
    if name == "length":
        return len(str(args[0]))
    if name == "abs":
        if not _is_number(args[0]):
            raise RuntimeExecError("ABS needs a number")
        return abs(args[0])
    if name == "round":
        if not _is_number(args[0]):
            raise RuntimeExecError("ROUND needs a number")
        digits = args[1] if len(args) > 1 else 0
        return round(args[0], digits) if digits else float(round(args[0]))
    if name == "lpad":
        if len(args) < 2:
            raise RuntimeExecError("LPAD needs a value and a width")
        text = _text(args[0])
        width = args[1]
        fill = _text(args[2]) if len(args) > 2 else " "
        if not isinstance(width, int) or isinstance(width, bool) or width < 0:
            raise RuntimeExecError("LPAD width must be a non-negative integer")
        if len(text) >= width:
            return text[:width]
        pad = (fill * width)[: width - len(text)]
        return pad + text
    raise RuntimeExecError(f"unknown function {name!r}")


def _eval_aggregate(call, members, env):
    if call.star:
        return len(members)

    if len(call.args) != 1:
        raise RuntimeExecError(
            f"{call.name.upper()} takes exactly one argument")
    values = [_eval(call.args[0], member, env) for member in members]
    values = [v for v in values if v is not None]
    if call.distinct:
        deduped = []
        seen = set()
        for v in values:
            key = _canon(v)
            if key not in seen:
                seen.add(key)
                deduped.append(v)
        values = deduped

    name = call.name
    if name == "count":
        return len(values)
    if not values:
        return None
    if name == "sum":
        _require_numbers(values, "SUM")
        return sum(values)
    if name == "avg":
        _require_numbers(values, "AVG")
        return sum(values) / len(values)
    if name == "min":
        return min(values, key=sort_key)
    if name == "max":
        return max(values, key=sort_key)
    raise RuntimeExecError(f"unknown aggregate {name!r}")


def _require_numbers(values, what):
    for v in values:
        if not _is_number(v):
            raise RuntimeExecError(f"{what} needs numeric values")


def _eval_cast(value, type_name):
    base = type_name.split("(")[0].strip().lower()
    if value is None:
        return None
    try:
        if base in ("int", "integer", "bigint", "smallint"):
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, float):
                return int(value)
            return int(str(value).strip())
        if base in ("real", "float", "double precision", "numeric", "decimal"):
            if isinstance(value, bool):
                return float(value)
            return float(value)
        if base in ("text", "varchar", "char", "character"):
            return _text(value)
        if base in ("boolean", "bool"):
            if isinstance(value, bool):
                return value
            if isinstance(value, (int, float)):
                return value != 0
            lowered = str(value).strip().lower()
            if lowered in ("t", "true", "1", "yes"):
                return True
            if lowered in ("f", "false", "0", "no"):
                return False
            raise ValueError(value)
    except (TypeError, ValueError) as exc:
        raise RuntimeExecError(f"cannot cast {value!r} to {base}") from exc
    raise RuntimeExecError(f"unsupported cast target {type_name!r}")


# --- value helpers ---

def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _text(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _truthy(value):
    if isinstance(value, bool):
        return value
    raise RuntimeExecError("NOT needs a boolean operand")


def _bool3(value):
    if value is None or isinstance(value, bool):
        return value
    raise RuntimeExecError("AND/OR need boolean operands")


def _and3(a, b):
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def _or3(a, b):
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def _negate3(value):
    return None if value is None else (not value)


def _compare(op, left, right):
    """Three-valued comparison with the documented cross-family order."""
    if left is None or right is None:
        return None
    if op == "=":
        return _values_equal(left, right)
    if op == "<>":
        return not _values_equal(left, right)
    lk, rk = sort_key(left), sort_key(right)
    if op == "<":
        return lk < rk
    if op == "<=":
        return lk <= rk
    if op == ">":
        return lk > rk
    if op == ">=":
        return lk >= rk
    raise RuntimeExecError(f"unknown comparison {op}")


def _values_equal(left, right):
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool) and \
            left == right
    if _is_number(left) and _is_number(right):
        return left == right
    if isinstance(left, tuple) and isinstance(right, tuple):
        return len(left) == len(right) and all(
            _values_equal(a, b) for a, b in zip(left, right))
    if type(left) is type(right):
        return left == right
    return False


def sort_key(value):
    """Total order over cells: null < booleans < numbers < text < arrays."""
    if value is None:
        return (0, False)
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, tuple):
        return (4, tuple(sort_key(v) for v in value))
    raise RuntimeExecError(f"cannot order value {value!r}")


def _canon(value):
    """Canonical key for grouping, dedup and hash probes: NULLs equal,
    1 == 1.0 (Python hashes equal numbers alike), TRUE apart from 1."""
    if value is None:
        return ("null",)
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, (int, float)):
        return ("num", value)
    if isinstance(value, str):
        return ("txt", value)
    if isinstance(value, tuple):
        return ("arr", tuple(_canon(v) for v in value))
    raise RuntimeExecError(f"cannot hash value {value!r}")


def _canon_row(row):
    return tuple(_canon(v) for v in row)


def _dedupe_rows(rows):
    seen = set()
    out = []
    for row in rows:
        key = _canon_row(row)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


def _like_regex(pattern):
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return "".join(out)
