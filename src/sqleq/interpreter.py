"""The in-memory interpreter behind `executor.execute`.

Imported on the first `executor.execute` call. `run` evaluates a
parsed statement against a concrete database instance: scans, filters,
all five join kinds, grouping with SUM/COUNT/AVG/MIN/MAX (COUNT(*),
DISTINCT), set operations, non-recursive CTEs, scalar/IN/EXISTS
subqueries (correlated), CASE, COALESCE, casts, arithmetic and string
concatenation.

Names bind first (`binder.bind`), so a name error -- UnresolvedName,
AmbiguousColumn, a duplicate alias -- is raised before any row is read.
Rows are flat tuples: a join concatenates its two sides (an outer join
pads the missing side with NULLs) and a column of the working row reads
`row[slot]`. Enclosing rows reach a subquery as parameters, as in
PostgreSQL's PARAM_EXEC parameters of correlated SubPlans: each scope
level has one cell, `env.levels[level]`; a correlated subquery
evaluated on a row of level L stores that row in `levels[L]` before it
runs, and a column of an enclosing scope reads `levels[level][slot]`.
Every scope that run reaches lies above L (the binder numbers CTE
definitions and LIMIT/OFFSET from their statement's level, not from
0), so no one overwrites a cell while it is read.

An ORDER BY key that names no output column is a hidden column (as in
PostgreSQL's "resjunk" entries): the select core appends its value after
the output columns, computed after them on the same working row, and
the sort cuts it off again. A set operation, a
parenthesized statement or a DISTINCT core cannot, and raises if it has
rows.

Each expression compiles once per execute, on first use: column slots,
operators, function, aggregate and cast names, literal LIKE patterns and
literal IN lists are resolved while compiling. Compiling raises nothing;
each error is raised by the row that reaches it, so an expression that
no row reaches raises nothing, over an empty table too. The compiled
closures and the per-execute caches that hold them are let go when
`run` returns or raises, so a run leaves no reference cycles behind
for the cyclic garbage collector.

Every expression compiles to one row function `f(row)` (`_compile`),
a column of the working row to an `itemgetter`, which each per-row step
(WHERE, a join's ON, GROUP BY keys, HAVING, select items, hidden ORDER
BY keys, aggregate arguments) maps over its rows. A grouped core's
working row is its group's first row plus a last cell that holds the
group's member rows. An aggregate call reads that cell when the binder
put it in `Binding.group_calls`, and raises anywhere else; one over no
input rows gets a `_NoRow`, whose column reads raise.
A comparison with a non-NULL literal applies Python's operator when the
other side has the literal's exact type, as the value model does for
two cells of one scalar type; AND and OR check each operand inline, the
left before the right runs.

What reads no enclosing row runs once per execute, on first use, and
its result is kept (`_run_once`): every CTE, and each subquery and FROM
item not in `Binding.correlated`, inside a correlated subquery too; IN
looks values up in a `_ValueSet`. One function builds and probes every
hash index (`_hash_probe`), on the top-level AND conjuncts `x = y` of a
condition with one side reading only a fixed row source and the other
only the probing row or enclosing rows: a join hashes its right side on
its ON keys, probed by each left row, and a core its FROM rows on its
WHERE keys, probed by the enclosing row. An index is built again only
over other rows, so once over kept rows and per run over a correlated
FROM item's. The full condition still runs on every candidate and rows
keep the nested loop's order, so results equal the nested loop's
whenever it succeeds; key expressions are evaluated only where it would
have evaluated the condition. Pairs of rows a key equality rules out are
not evaluated further, so a residual conjunct that would raise only on
such pairs no longer raises (PostgreSQL takes the same freedom).

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
- an aggregate whose argument reads columns, all of enclosing scopes
  (`SELECT (SELECT COUNT(t.b)) FROM t`), in a grouped core's select
  items, HAVING or hidden ORDER BY keys raises UnsupportedFeature
  before any row is read: SQL aggregates it in the enclosing query, not
  in the groups of its own core;
- no result of arithmetic, SUM, AVG or a cast to a real type is an
  infinity or NaN: those raise RuntimeExecError instead, since a NaN
  never equals itself and would make a query differ from itself.
"""

import math
import operator
import re
from collections import Counter

from .ast_nodes import (
    ArrayLit, Between, Binary, Case, Cast, ColumnRef, DerivedTable,
    Exists, FuncCall, InList, InSubquery, IsNull, Join, Like, Literal,
    Quantified, SelectStmt, SetOp, Subquery, TableRef, Unary,
    is_aggregate_call, select_level,
)
from .binder import bind
from .errors import RuntimeExecError, UnsupportedFeature
from .values import (
    canon, canon_row, is_number, is_scalar, row_keys, sort_key, sorts_raw,
    values_equal,
)


def run(ast, instance):
    """(width, rows) of a statement `executor.execute` has checked for
    unsupported features, run against `instance`."""
    binding = bind(ast, instance.schema)
    _check_aggregates(binding)
    env = _Env(instance, binding)
    try:
        return _exec_stmt(ast, env)
    finally:
        # compiled closures hold the env that caches them: break the
        # cycles so the run leaves no garbage for the cyclic collector
        for cache in (env.memo, env.keys, env.fns):
            cache.clear()


def _check_aggregates(binding):
    """Raise UnsupportedFeature for a call of `Binding.group_calls` whose
    argument reads columns, all of enclosing scopes: SQL aggregates it
    in the enclosing query, not in the groups of its own core."""
    for call in binding.group_calls.values():
        outer = {binding.slots[id(node)][0] > 0
                 for arg in call.args for node in select_level(arg)
                 if type(node) is ColumnRef}
        if outer == {True}:
            raise UnsupportedFeature(
                f"aggregate {call.name.upper()} of enclosing columns")


class _Env:
    """Instance, the statement's binding, the cells of enclosing rows
    (`levels`: scope level -> the row a subquery last ran on), the
    results of what runs once per execute (`memo`, see `_run_once`, and
    IN value sets), the equality keys of each condition and the index
    last built on them (`keys`, see `_hash_probe`), and the row
    functions compiled so far (`fns`); the caches are keyed by id() of
    AST nodes."""
    __slots__ = ("instance", "binding", "levels", "memo", "keys", "fns")

    def __init__(self, instance, binding):
        self.instance = instance
        self.binding = binding
        self.levels = {}
        self.memo = {}
        self.keys = {}
        self.fns = {}


class _NoRow:
    """Working row of an aggregate over no input rows: its last cell
    holds no member rows, and a column read raises."""
    __slots__ = ()

    def __getitem__(self, slot):
        if slot == -1:
            return []
        raise RuntimeExecError("column read in an aggregate over no rows")


def _exec_stmt(stmt, env):
    """Returns (width, rows)."""
    for cte in stmt.ctes:
        width, _ = _run_once(cte.query, _exec_stmt, env)
        if cte.columns and len(cte.columns) != width:
            raise RuntimeExecError(
                f"CTE {cte.name!r} column list arity mismatch")

    order = env.binding.order.get(id(stmt), ())
    hidden = [item.expr for index, item in zip(order, stmt.order_by)
              if index is None]
    width, rows = _exec_body(stmt.body, env, hidden)

    if stmt.order_by:
        if hidden and rows and len(rows[0]) == width:
            raise RuntimeExecError(
                "ORDER BY expression must name an output column here")
        rows = _sort_rows(rows, stmt, width, env)

    if stmt.limit is not None:
        rows = _apply_limit(rows, stmt.limit, env)

    return width, rows


def _exec_body(body, env, hidden=()):
    """Returns (width, rows); a select core appends the values of the
    `hidden` expressions to its rows, after the `width` output columns."""
    if isinstance(body, SetOp):
        return _exec_setop(body, env)
    if isinstance(body, SelectStmt):
        return _exec_stmt(body, env)
    return _exec_core(body, env, hidden)


def _exec_setop(op, env):
    width, left = _exec_body(op.left, env)
    right_width, right = _exec_body(op.right, env)
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


def _exec_core(core, env, hidden):
    rows = [()]
    if core.from_item is not None:
        _, rows = _run_once(core.from_item, _exec_from, env)
    if core.where is not None:
        probe = _hash_probe(core.where, 0, rows, env)
        if probe is not None:  # the probing sides read enclosing rows
            index, fns = probe
            rows = [rows[i] for i in index.probe([f(()) for f in fns])]
        where = _compile(core.where, env)
        rows = [row for row in rows if where(row) is True]

    if id(core) in env.binding.grouped:  # the steps below map group rows
        rows = _group(rows, core.group_by, env)
    if core.having is not None:
        having = _compile(core.having, env)
        rows = [row for row in rows if having(row) is True]
    exprs = [item.expr for item in env.binding.items[id(core)]]
    out = list(_tuples([_compile(expr, env) for expr in exprs], rows))

    if core.distinct:  # a distinct row has no one working row for keys
        out = _dedupe(out, row_keys(out))
    elif hidden:  # a second pass: every select item runs before any key
        keys = _tuples([_compile(expr, env) for expr in hidden], rows)
        out = [row + key for row, key in zip(out, keys)]

    return len(exprs), out


def _run_once(node, run, env):
    """`run(node, env)` for a statement or FROM item in
    `Binding.correlated`. Any other reads no enclosing row, so it runs
    once per execute, on first use, and its result is kept in `memo`."""
    if id(node) in env.binding.correlated:
        return run(node, env)
    result = env.memo.get(id(node))
    if result is None:
        result = env.memo[id(node)] = run(node, env)
    return result


def _exec_from(item, env):
    """Returns (row width, flat rows) of a FROM item."""
    if isinstance(item, TableRef):
        cte = env.binding.ctes.get(id(item))
        if cte is not None:
            return env.memo[id(cte.query)]
        columns, rows = env.instance.table(item.name)
        return len(columns), rows

    if isinstance(item, DerivedTable):
        return _exec_stmt(item.query, env)

    if isinstance(item, Join):
        left_width, left = _run_once(item.left, _exec_from, env)
        right_width, right = _run_once(item.right, _exec_from, env)
        condition = None if item.kind == "cross" else item.condition
        keep = probe = None
        if condition is not None:
            keep = _compile(condition, env)
            if left:
                probe = _hash_probe(condition, left_width, right, env)
        if probe is not None:
            index, fns = probe
            probes = _tuples(fns, left)
        candidates = range(len(right))
        out = []
        matched_right = [False] * len(right)
        for lrow in left:
            any_match = False
            if probe is not None:  # run as each left row comes
                candidates = index.probe(next(probes))
            for j in candidates:
                row = lrow + right[j]
                if keep is not None and keep(row) is not True:
                    continue
                any_match = True
                matched_right[j] = True
                out.append(row)
            if not any_match and item.kind in ("left", "full"):
                out.append(lrow + (None,) * right_width)
        if item.kind in ("right", "full"):
            null_left = (None,) * left_width
            out.extend(null_left + rrow
                       for rrow, matched in zip(right, matched_right)
                       if not matched)
        return left_width + right_width, out

    raise RuntimeExecError(f"cannot evaluate FROM item {item!r}")


def _group(rows, group_by, env):
    """The working rows of the groups of `rows`, in first-occurrence
    order: a group's first row, then one last cell holding its member
    rows; NULL keys group together."""
    if not group_by:
        return [rows[0] + (rows,) if rows else _NoRow()]
    fns = [_compile(expr, env) for expr in group_by]
    buckets = {}
    for key, row in zip(row_keys(list(_tuples(fns, rows))), rows):
        buckets.setdefault(key, []).append(row)
    return [members[0] + (members,) for members in buckets.values()]


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
    value = _compile(expr, env)(())
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise RuntimeExecError(f"{what} requires a non-negative integer")
    return value


# --- hash probes on equality conjuncts ---

class _Index:
    """Fixed rows bucketed on the values of the fixed sides of equality
    conjuncts, row functions given `pad + row`; `probe` returns the
    positions of the rows whose key equals the probing sides' `values`,
    in row order.

    Keys are `canon` values, so 1 and 1.0 meet and TRUE stays apart
    from 1, as with `=`; a NULL key matches nothing. The buckets only
    narrow the candidates: the caller still runs the whole condition on
    each one.
    """
    __slots__ = ("rows", "buckets")

    def __init__(self, rows, fixed_fns, pad):
        self.rows = rows
        self.buckets = {}
        for i, row in enumerate(rows):
            row = pad + row
            key = _key([f(row) for f in fixed_fns])
            if key is not None:
                self.buckets.setdefault(key, []).append(i)

    def probe(self, values):
        key = _key(values)
        return () if key is None else self.buckets.get(key, ())


def _key(values):
    # no cell but NULL itself equals None
    return None if None in values else canon_row(values)


def _hash_probe(condition, width, right, env):
    """(`_Index` of `right`, row functions of the probing sides) on the
    `x = y` conjuncts of `condition` with one side reading only fixed
    slots (depth 0, past the probing row's `width` columns) and the
    other only other ones, neither holding a subquery or an aggregate;
    None without such a conjunct or without rows in `right`. The keys
    and the last index are kept in `env.keys`; the index is built again
    only over another `right` list."""
    entry = env.keys.get(id(condition))
    if entry is None:
        fixed, probing = [], []
        for conjunct in _conjuncts(condition):
            if not (isinstance(conjunct, Binary) and conjunct.op == "="):
                continue
            sides = (conjunct.left, conjunct.right)
            reads = [_reads(side, env.binding, width) for side in sides]
            if reads[1] == {True} and reads[0] == {False}:
                sides = sides[::-1]
            elif not (reads[0] == {True} and reads[1] == {False}):
                continue
            fixed.append(_compile(sides[0], env))
            probing.append(_compile(sides[1], env))
        entry = env.keys[id(condition)] = [fixed, probing, None]
    fixed, probing, index = entry
    if not fixed or not right:
        return None
    if index is None or index.rows is not right:
        index = entry[2] = _Index(right, fixed, (None,) * width)
    return index, probing


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


def _reads(expr, binding, width):
    """{whether the slot is fixed} over the column references of `expr`;
    an empty set for a subquery or an aggregate, which make no key."""
    reads = set()
    for node in select_level(expr):
        if isinstance(node, SelectStmt) or is_aggregate_call(node):
            return set()
        if isinstance(node, ColumnRef):
            depth, slot = binding.slots[id(node)]
            reads.add(depth == 0 and slot >= width)
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

def _compile(expr, env):
    """The row function of `expr` in this execute, built on first use."""
    fn = env.fns.get(id(expr))
    if fn is None:
        build = _BUILDERS.get(type(expr), _build_unknown)
        fn = env.fns[id(expr)] = build(expr, env)
    return fn


def _tuples(fns, rows):
    """The tuples of `fns`' values in `rows`, lazily, run row by row and
    left to right: `zip` takes one value from each map in turn. On 3000
    rows, two columns take 40% and three 13% of the time of a function
    building each tuple, one as long as a comprehension of 1-tuples."""
    if len(fns) == 1:  # no comprehension: a correlated core runs often
        return zip(map(fns[0], rows))
    return zip(*[map(fn, rows) for fn in fns]) if fns else [()] * len(rows)


def _build_unknown(expr, env):
    name = type(expr).__name__

    def unknown(row):
        raise RuntimeExecError(f"cannot evaluate {name}")
    return unknown


def _build_literal(expr, env):
    value = expr.value
    return lambda row: value


def _build_column(expr, env):
    depth, slot = env.binding.slots[id(expr)]
    if depth == 0:
        return operator.itemgetter(slot)
    levels, level = env.levels, env.binding.levels[id(expr)]
    return lambda row: levels[level][slot]


def _build_unary(expr, env):
    operand = _compile(expr.operand, env)
    op = expr.op
    if op == "NOT":
        def not_(row):
            value = operand(row)
            if type(value) is bool:
                return not value
            if value is None:
                return None
            raise RuntimeExecError("NOT needs a boolean operand")
        return not_
    negate = op == "-"

    def sign(row):
        value = operand(row)
        if value is None:
            return None
        if not is_number(value):
            raise RuntimeExecError(f"unary {op} needs a number")
        return -value if negate else value
    return sign


def _build_binary(expr, env):
    op = expr.op
    if op in _COMPARISONS:
        versus = _build_versus_literal(expr, env)
        if versus is not None:
            return versus
    left = _compile(expr.left, env)
    right = _compile(expr.right, env)
    # a value that is not None, True or False is not a boolean
    if op == "AND":
        def and_(row):
            a = left(row)
            if a is not True and a is not False and a is not None:
                raise _not_boolean()
            b = right(row)
            if b is not True and b is not False and b is not None:
                raise _not_boolean()
            if a is False or b is False:
                return False
            return None if a is None or b is None else True
        return and_
    if op == "OR":
        def or_(row):
            a = left(row)
            if a is not True and a is not False and a is not None:
                raise _not_boolean()
            b = right(row)
            if b is not True and b is not False and b is not None:
                raise _not_boolean()
            if a is True or b is True:
                return True
            return None if a is None or b is None else False
        return or_
    if op in _COMPARISONS:
        compare = _COMPARISONS[op]

        def comparison(row):
            a = left(row)
            b = right(row)
            return None if a is None or b is None else compare(a, b)
        return comparison
    if op == "||":
        def concat(row):
            a = left(row)
            b = right(row)
            if isinstance(a, tuple) or isinstance(b, tuple):
                return (a if isinstance(a, tuple) else (a,)) + \
                    (b if isinstance(b, tuple) else (b,))
            if a is None or b is None:
                return None
            return _text(a) + _text(b)
        return concat
    return _build_arithmetic(op, left, right)


def _build_versus_literal(expr, env):
    """The comparison of an operand with a non-NULL scalar literal, on
    either side (mirrored when on the left); None for any other
    comparison. A value of the literal's exact type compares with
    Python's operator, as `values_equal` and `_ordering` would; any
    other value through `_COMPARISONS`."""
    op, operand, literal = expr.op, expr.left, expr.right
    if type(operand) is Literal:
        op, operand, literal = _MIRRORED[op], literal, operand
    if type(literal) is not Literal or not is_scalar(literal.value):
        return None
    value = literal.value
    kind = type(value)
    plain = _PLAIN_COMPARISONS[op]
    compare = _COMPARISONS[op]
    if type(operand) is ColumnRef and not env.binding.slots[id(operand)][0]:
        # read inline: an `itemgetter` call costs such a WHERE a few %
        slot = env.binding.slots[id(operand)][1]

        def column_versus_literal(row):
            a = row[slot]
            if a is None:
                return None
            if type(a) is kind:
                return plain(a, value)
            return compare(a, value)
        return column_versus_literal
    value_of = _compile(operand, env)

    def versus_literal(row):
        a = value_of(row)
        if a is None:
            return None
        if type(a) is kind:
            return plain(a, value)
        return compare(a, value)
    return versus_literal


def _build_arithmetic(op, left, right):
    apply = _ARITHMETIC.get(op)
    by_zero = {"/": "division by zero", "%": "modulo by zero"}.get(op)

    def arithmetic(row):
        a = left(row)
        b = right(row)
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
    return lambda row: (operand(row) is None) is not negated


def _build_in_list(expr, env):
    operand = _compile(expr.operand, env)
    negated = expr.negated
    if all(isinstance(item, Literal) for item in expr.items):
        members = _ValueSet([item.value for item in expr.items])

        def in_literals(row):
            result = members.contains(operand(row))
            return _negate3(result) if negated else result
        return in_literals
    items = [_compile(item, env) for item in expr.items]

    def in_list(row):
        value = operand(row)
        result = _ValueSet([item(row) for item in items]).contains(value)
        return _negate3(result) if negated else result
    return in_list


def _build_in_subquery(expr, env):
    operand = _compile(expr.operand, env)
    run = _subquery(expr.query, env)
    negated = expr.negated
    correlated = id(expr.query) in env.binding.correlated

    def in_subquery(row):
        value = operand(row)
        if correlated:
            members = _ValueSet(_column(run, row, "IN"))
        else:
            members = env.memo.get(id(expr))
            if members is None:
                members = env.memo[id(expr)] = _ValueSet(
                    _column(run, row, "IN"))
        result = members.contains(value)
        return _negate3(result) if negated else result
    return in_subquery


def _build_between(expr, env):
    operand = _compile(expr.operand, env)
    low = _compile(expr.low, env)
    high = _compile(expr.high, env)
    negated = expr.negated
    le = _COMPARISONS["<="]

    def between(row):
        value = operand(row)
        lo = low(row)
        hi = high(row)
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

        def like_literal(row):
            value = operand(row)
            if value is None:
                return None
            if not isinstance(value, str):
                raise RuntimeExecError("LIKE needs text operands")
            return (match(value) is not None) is not negated
        return like_literal
    pattern_of = _compile(expr.pattern, env)

    def like(row):
        value = operand(row)
        pattern = pattern_of(row)
        if value is None or pattern is None:
            return None
        if not isinstance(value, str) or not isinstance(pattern, str):
            raise RuntimeExecError("LIKE needs text operands")
        return (re.fullmatch(_like_regex(pattern), value) is not None) \
            is not negated
    return like


def _build_exists(expr, env):
    run = _subquery(expr.query, env)
    return lambda row: bool(run(row)[1])


def _build_subquery(expr, env):
    run = _subquery(expr.query, env)

    def scalar(row):
        rows = _column(run, row, "scalar")
        if len(rows) > 1:
            raise RuntimeExecError(
                "scalar subquery returned more than one row")
        return rows[0] if rows else None
    return scalar


def _build_quantified(expr, env):
    left = _compile(expr.left, env)
    op = expr.op
    compare = _COMPARISONS.get(op)
    if compare is None:
        def compare(value, member):
            raise RuntimeExecError(f"unknown comparison {op}")
    any_ = expr.quantifier == "ANY"
    if isinstance(expr.operand, Subquery):
        run = _subquery(expr.operand.query, env)
        operand = None
    else:
        operand = _compile(expr.operand, env)

    def quantified(row):
        value = left(row)
        if operand is None:  # a subquery
            values = _column(run, row, "quantified")
        else:
            array = operand(row)
            if array is None:
                return None
            if not isinstance(array, tuple):
                raise RuntimeExecError("ANY/ALL needs a subquery or array")
            values = array
        results = [None if value is None or v is None else compare(value, v)
                   for v in values]
        if any_ in results:  # a TRUE decides ANY, a FALSE ALL
            return any_
        return None if None in results else not any_
    return quantified


def _build_case(expr, env):
    whens = [(_compile(cond, env), _compile(result, env))
             for cond, result in expr.whens]
    else_ = None if expr.else_ is None else _compile(expr.else_, env)
    if expr.operand is None:
        def searched(row):
            for cond, result in whens:
                if cond(row) is True:
                    return result(row)
            return None if else_ is None else else_(row)
        return searched
    subject_of = _compile(expr.operand, env)

    def simple(row):
        subject = subject_of(row)
        for cond, result in whens:
            value = cond(row)
            if subject is not None and value is not None and \
                    values_equal(subject, value):
                return result(row)
        return None if else_ is None else else_(row)
    return simple


def _build_call(call, env):
    if id(call) in env.binding.group_calls:
        return _build_aggregate(call, env)
    if call.is_aggregate:
        message = f"aggregate {call.name.upper()} outside a grouped context"

        def outside(row):
            raise RuntimeExecError(message)
        return outside
    name = call.name
    args = [_compile(arg, env) for arg in call.args]
    if name == "coalesce":
        def coalesce(row):
            for value in [arg(row) for arg in args]:
                if value is not None:
                    return value
            return None
        return coalesce
    if name == "nullif":
        def nullif(row):
            values = [arg(row) for arg in args]
            if len(values) != 2:
                raise RuntimeExecError("NULLIF takes two arguments")
            left, right = values
            if left is not None and right is not None and \
                    values_equal(left, right):
                return None
            return left
        return nullif
    builtin = _SCALAR_BUILTINS.get(name)

    def scalar_call(row):
        values = [arg(row) for arg in args]
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
    """Aggregate `call` of a grouped core, whose working rows hold the
    member rows in their last cell."""
    if call.star:
        return lambda row: len(row[-1])
    if len(call.args) != 1:
        message = f"{call.name.upper()} takes exactly one argument"

        def wrong_arity(row):
            raise RuntimeExecError(message)
        return wrong_arity
    finish = _AGGREGATES[call.name]
    distinct = call.distinct
    value_of = _compile(call.args[0], env)

    def aggregate(row):
        values = [value for value in map(value_of, row[-1])
                  if value is not None]
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

    def cast(row):
        value = operand(row)
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
    return lambda row: tuple([item(row) for item in items])


def _subquery(query, env):
    """Function from the row a subquery expression is evaluated on to
    the (width, rows) of its statement `query`: a correlated one first
    stores the row in the cell of its level, which the enclosing columns
    it reads read; any other runs once (`_run_once`)."""
    if id(query) not in env.binding.correlated:
        return lambda row: _run_once(query, _exec_stmt, env)
    levels, level = env.levels, env.binding.levels[id(query)]

    def correlated(row):
        levels[level] = row
        return _exec_stmt(query, env)
    return correlated


def _column(run, row, what):
    """Values of a subquery that must return one column, `run` (from
    `_subquery`) on `row`."""
    width, rows = run(row)
    if width != 1:
        raise RuntimeExecError(f"{what} subquery must return one column")
    return [cells[0] for cells in rows]


_BUILDERS = {
    Literal: _build_literal, ColumnRef: _build_column, Unary: _build_unary,
    Binary: _build_binary, IsNull: _build_is_null, InList: _build_in_list,
    InSubquery: _build_in_subquery, Between: _build_between,
    Like: _build_like, Exists: _build_exists, Subquery: _build_subquery,
    Quantified: _build_quantified, Case: _build_case, FuncCall: _build_call,
    Cast: _build_cast, ArrayLit: _build_array,
}
