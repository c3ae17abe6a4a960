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
pads the missing side with NULLs) and a column reference reads
`row[slot]` after stepping out `depth` enclosing row contexts.

An ORDER BY key that names no output column is a hidden column (as in
PostgreSQL's "resjunk" entries): the select core appends its value after
the output columns, computed after them in the same row or group
context, and the sort cuts it off again. A set operation, a
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

An expression that reads only columns of the working row (depth 0) and
holds no aggregate and no correlated subquery is row-local: it compiles
to a row function `f(row)` (`_compile_row`), a column to an
`itemgetter`, which every per-row step (WHERE, a join's ON, GROUP BY
keys, aggregate arguments, and in a core that is not grouped HAVING,
select items and hidden ORDER BY keys) maps over its rows (`_on_rows`).
Any other expression compiles to a closure over the row context
(`_compile`), run in one context kept for it, or over a grouped core's
groups. A comparison with a non-NULL literal applies Python's operator
when the other side has the literal's exact type, as the value model
does for two cells of one scalar type; AND and OR check each operand
inline, the left before the right runs.

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
    children, is_aggregate_call, select_level,
)
from .binder import bind
from .errors import RuntimeExecError
from .values import (
    canon, canon_row, is_number, is_scalar, row_keys, sort_key, sorts_raw,
    values_equal,
)


def run(ast, instance):
    """(width, rows) of a statement `executor.execute` has checked for
    unsupported features, run against `instance`."""
    env = _Env(instance, bind(ast, instance.schema))
    try:
        return _exec_stmt(ast, env, None)
    finally:
        # compiled closures hold the env that caches them: break the
        # cycles so the run leaves no garbage for the cyclic collector
        for cache in (env.memo, env.keys, env.fns, env.row_fns, env.on_rows):
            cache.clear()


class _Env:
    """Instance, the statement's binding, the results of what runs once
    per execute (`memo`, see `_run_once`, and IN value sets), the
    equality keys of each condition and the index last built on them
    (`keys`, see `_hash_probe`), and what is compiled so far: context
    closures (`fns`), row functions (`row_fns`) and what `_on_rows`
    hands out (`on_rows`), all keyed by id() of AST nodes."""
    __slots__ = ("instance", "binding", "memo", "keys", "fns", "row_fns",
                 "on_rows")

    def __init__(self, instance, binding):
        self.instance = instance
        self.binding = binding
        self.memo = {}
        self.keys = {}
        self.fns = {}
        self.row_fns = {}
        self.on_rows = {}


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
        width, _ = _run_once(cte.query, _exec_stmt, env, None)
        if cte.columns and len(cte.columns) != width:
            raise RuntimeExecError(
                f"CTE {cte.name!r} column list arity mismatch")

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
    rows = [()]
    if core.from_item is not None:
        rows = _run_once(core.from_item, _exec_from, env, outer_ctx)[1]
    if core.where is not None:
        probe = _hash_probe(core.where, 0, rows, env, outer_ctx)
        if probe is not None:  # the probing row is the enclosing one
            index, fns = probe
            rows = [rows[i] for i in index.probe([f(()) for f in fns])]
        where = _on_rows(core.where, env, outer_ctx)
        rows = [row for row in rows if where(row) is True]

    grouped = id(core) in env.binding.grouped
    if grouped:  # the steps below map group contexts instead of rows
        rows = _group(rows, core.group_by, env, outer_ctx)
    if core.having is not None:
        (having,) = _fns([core.having], env, outer_ctx, grouped)
        rows = [row for row in rows if having(row) is True]
    exprs = [item.expr for item in env.binding.items[id(core)]]
    out = list(_tuples(_fns(exprs, env, outer_ctx, grouped), rows))

    if core.distinct:  # a distinct row has no one context for hidden keys
        out = _dedupe(out, row_keys(out))
    elif hidden:  # a second pass: every select item runs before any key
        keys = _tuples(_fns(hidden, env, outer_ctx, grouped), rows)
        out = [row + key for row, key in zip(out, keys)]

    return len(exprs), out


def _run_once(node, run, env, outer_ctx):
    """`run(node, env, outer_ctx)` for a statement or FROM item in
    `Binding.correlated`. Any other reads no enclosing row, so it runs
    once per execute, on first use, and its result is kept in `memo`."""
    if id(node) in env.binding.correlated:
        return run(node, env, outer_ctx)
    result = env.memo.get(id(node))
    if result is None:
        result = env.memo[id(node)] = run(node, env, None)
    return result


def _exec_from(item, env, outer_ctx):
    """Returns (row width, flat rows) of a FROM item."""
    if isinstance(item, TableRef):
        cte = env.binding.ctes.get(id(item))
        if cte is not None:
            return env.memo[id(cte.query)]
        columns, rows = env.instance.table(item.name)
        return len(columns), rows

    if isinstance(item, DerivedTable):
        return _exec_stmt(item.query, env, outer_ctx)

    if isinstance(item, Join):
        left_width, left = _run_once(item.left, _exec_from, env, outer_ctx)
        right_width, right = _run_once(item.right, _exec_from, env,
                                       outer_ctx)
        condition = None if item.kind == "cross" else item.condition
        keep = probe = None
        if condition is not None:
            keep = _on_rows(condition, env, outer_ctx)
            if left:
                probe = _hash_probe(condition, left_width, right, env,
                                    outer_ctx)
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


def _group(rows, group_by, env, outer_ctx):
    """Contexts of the groups of `rows` in first-occurrence order, each
    reading its first row; NULL keys group together."""
    if not group_by:
        rep = rows[0] if rows else _NoRow()
        return [_Ctx(rep, outer_ctx, group=rows)]
    keys = list(_tuples(_fns(group_by, env, outer_ctx, False), rows))
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


def _hash_probe(condition, width, right, env, outer_ctx):
    """(`_Index` of `right`, functions of the probing sides from `_fns`)
    on the `x = y` conjuncts of `condition` with one side reading only
    fixed slots (depth 0, past the probing row's `width` columns) and the
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
            fixed.append(_compile_row(sides[0], env))
            probing.append(sides[1])
        entry = env.keys[id(condition)] = [fixed, probing, None]
    fixed, probing, index = entry
    if not fixed or not right:
        return None
    if index is None or index.rows is not right:
        index = entry[2] = _Index(right, fixed, (None,) * width)
    return index, _fns(probing, env, outer_ctx, False)


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


def _row_local(expr, env):
    """Whether `expr` reads only columns of the working row and holds no
    aggregate and no correlated subquery."""
    stack = [expr]  # its select level, walked as `select_level` does
    while stack:
        node = stack.pop()
        if type(node) is ColumnRef:
            if env.binding.slots[id(node)][0]:
                return False
        elif isinstance(node, SelectStmt):
            if id(node) in env.binding.correlated:
                return False
        elif is_aggregate_call(node):
            return False
        else:
            stack += children(node)
    return True


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
# One builder per node type serves both targets: it compiles its
# operands with `sub`, the compile function of its target, and its
# function takes `x`, the row or the context, and hands it on. Only
# columns, correlated subqueries and aggregates read a context itself.

def _compile(expr, env):
    """The context closure of `expr` in this execute, built on first use;
    a column of the working row reads `ctx.row[slot]`."""
    fn = env.fns.get(id(expr))
    if fn is None:
        build = _BUILDERS.get(type(expr), _build_unknown)
        fn = env.fns[id(expr)] = build(expr, env, _compile)
    return fn


def _compile_row(expr, env):
    """The row function of row-local `expr` in this execute, built on
    first use; a column is `itemgetter(slot)`."""
    fn = env.row_fns.get(id(expr))
    if fn is None:
        build = _BUILDERS.get(type(expr), _build_unknown)
        fn = env.row_fns[id(expr)] = build(expr, env, _compile_row)
    return fn


def _on_rows(expr, env, outer_ctx):
    """Function from a working row below `outer_ctx` to the value of
    `expr` in it: the row function of a row-local expression, else its
    context closure run in one context kept for it, pointed at
    `outer_ctx` here. Its uses never overlap: a step is done with it
    when it returns, and no expression runs itself."""
    entry = env.on_rows.get(id(expr))
    if entry is None:
        entry = env.on_rows[id(expr)] = _row_entry(expr, env)
    fn, ctx = entry
    if ctx is not None:
        ctx.outer = outer_ctx
    return fn


def _row_entry(expr, env):
    """(`expr` as a function of the working row; None, or the context
    its context closure runs in, whose `outer` the caller sets)."""
    if _row_local(expr, env):
        return _compile_row(expr, env), None
    fn = _compile(expr, env)
    ctx = _Ctx(None)

    def on_row(row):
        ctx.row = row
        return fn(ctx)
    return on_row, ctx


def _fns(exprs, env, outer_ctx, grouped):
    """Functions of `exprs` in a core's step: `_on_rows`, or context
    closures when the core is `grouped` and the step maps its groups."""
    if grouped:
        return [_compile(expr, env) for expr in exprs]
    return [_on_rows(expr, env, outer_ctx) for expr in exprs]


def _tuples(fns, rows):
    """The tuples of `fns`' values in `rows`, lazily, run row by row and
    left to right: `zip` takes one value from each map in turn. On 3000
    rows, two columns take 40% and three 13% of the time of a function
    building each tuple, one as long as a comprehension of 1-tuples."""
    if len(fns) == 1:  # no comprehension: a correlated core runs often
        return zip(map(fns[0], rows))
    return zip(*[map(fn, rows) for fn in fns]) if fns else [()] * len(rows)


def _build_unknown(expr, env, sub):
    name = type(expr).__name__

    def unknown(x):
        raise RuntimeExecError(f"cannot evaluate {name}")
    return unknown


def _build_literal(expr, env, sub):
    value = expr.value
    return lambda x: value


def _build_column(expr, env, sub):
    # the hottest closure: reads of the row and of the enclosing row
    # skip the loop, which measured a fifth of `oracle-scan`'s executor time
    depth, slot = env.binding.slots[id(expr)]
    if sub is _compile_row:  # a row-local column: depth 0
        return operator.itemgetter(slot)
    if depth == 0:
        return lambda ctx: ctx.row[slot]
    if depth == 1:
        return lambda ctx: ctx.outer.row[slot]

    def column(ctx):
        for _ in range(depth):
            ctx = ctx.outer
        return ctx.row[slot]
    return column


def _build_unary(expr, env, sub):
    operand = sub(expr.operand, env)
    op = expr.op
    if op == "NOT":
        def not_(x):
            value = operand(x)
            return None if value is None else (not _truthy(value))
        return not_
    negate = op == "-"

    def sign(x):
        value = operand(x)
        if value is None:
            return None
        if not is_number(value):
            raise RuntimeExecError(f"unary {op} needs a number")
        return -value if negate else value
    return sign


def _build_binary(expr, env, sub):
    op = expr.op
    if op in _COMPARISONS:
        versus = _build_versus_literal(expr, env, sub)
        if versus is not None:
            return versus
    left = sub(expr.left, env)
    right = sub(expr.right, env)
    # a value that is not None, True or False is not a boolean
    if op == "AND":
        def and_(x):
            a = left(x)
            if a is not True and a is not False and a is not None:
                raise _not_boolean()
            b = right(x)
            if b is not True and b is not False and b is not None:
                raise _not_boolean()
            if a is False or b is False:
                return False
            return None if a is None or b is None else True
        return and_
    if op == "OR":
        def or_(x):
            a = left(x)
            if a is not True and a is not False and a is not None:
                raise _not_boolean()
            b = right(x)
            if b is not True and b is not False and b is not None:
                raise _not_boolean()
            if a is True or b is True:
                return True
            return None if a is None or b is None else False
        return or_
    if op in _COMPARISONS:
        compare = _COMPARISONS[op]

        def comparison(x):
            a = left(x)
            b = right(x)
            return None if a is None or b is None else compare(a, b)
        return comparison
    if op == "||":
        def concat(x):
            a = left(x)
            b = right(x)
            if isinstance(a, tuple) or isinstance(b, tuple):
                return (a if isinstance(a, tuple) else (a,)) + \
                    (b if isinstance(b, tuple) else (b,))
            if a is None or b is None:
                return None
            return _text(a) + _text(b)
        return concat
    return _build_arithmetic(op, left, right)


def _build_versus_literal(expr, env, sub):
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
    if sub is _compile_row and type(operand) is ColumnRef:
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
    value_of = sub(operand, env)

    def versus_literal(x):
        a = value_of(x)
        if a is None:
            return None
        if type(a) is kind:
            return plain(a, value)
        return compare(a, value)
    return versus_literal


def _build_arithmetic(op, left, right):
    apply = _ARITHMETIC.get(op)
    by_zero = {"/": "division by zero", "%": "modulo by zero"}.get(op)

    def arithmetic(x):
        a = left(x)
        b = right(x)
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


def _build_is_null(expr, env, sub):
    operand = sub(expr.operand, env)
    negated = expr.negated
    return lambda x: (operand(x) is None) is not negated


def _build_in_list(expr, env, sub):
    operand = sub(expr.operand, env)
    negated = expr.negated
    if all(isinstance(item, Literal) for item in expr.items):
        members = _ValueSet([item.value for item in expr.items])

        def in_literals(x):
            result = members.contains(operand(x))
            return _negate3(result) if negated else result
        return in_literals
    items = [sub(item, env) for item in expr.items]

    def in_list(x):
        value = operand(x)
        result = _ValueSet([item(x) for item in items]).contains(value)
        return _negate3(result) if negated else result
    return in_list


def _build_in_subquery(expr, env, sub):
    operand = sub(expr.operand, env)
    query = expr.query
    negated = expr.negated
    correlated = id(query) in env.binding.correlated

    def in_subquery(x):
        value = operand(x)
        if correlated:
            members = _ValueSet(_column(query, env, x, "IN"))
        else:
            members = env.memo.get(id(expr))
            if members is None:
                members = env.memo[id(expr)] = _ValueSet(
                    _column(query, env, x, "IN"))
        result = members.contains(value)
        return _negate3(result) if negated else result
    return in_subquery


def _build_between(expr, env, sub):
    operand = sub(expr.operand, env)
    low = sub(expr.low, env)
    high = sub(expr.high, env)
    negated = expr.negated
    le = _COMPARISONS["<="]

    def between(x):
        value = operand(x)
        lo = low(x)
        hi = high(x)
        above = None if lo is None or value is None else le(lo, value)
        below = None if value is None or hi is None else le(value, hi)
        result = _and3(above, below)
        return _negate3(result) if negated else result
    return between


def _build_like(expr, env, sub):
    operand = sub(expr.operand, env)
    negated = expr.negated
    if isinstance(expr.pattern, Literal) and \
            isinstance(expr.pattern.value, str):
        match = re.compile(_like_regex(expr.pattern.value)).fullmatch

        def like_literal(x):
            value = operand(x)
            if value is None:
                return None
            if not isinstance(value, str):
                raise RuntimeExecError("LIKE needs text operands")
            return (match(value) is not None) is not negated
        return like_literal
    pattern_of = sub(expr.pattern, env)

    def like(x):
        value = operand(x)
        pattern = pattern_of(x)
        if value is None or pattern is None:
            return None
        if not isinstance(value, str) or not isinstance(pattern, str):
            raise RuntimeExecError("LIKE needs text operands")
        return (re.fullmatch(_like_regex(pattern), value) is not None) \
            is not negated
    return like


def _build_exists(expr, env, sub):
    query = expr.query
    return lambda x: bool(_run_once(query, _exec_stmt, env, x)[1])


def _build_subquery(expr, env, sub):
    query = expr.query

    def scalar(x):
        rows = _column(query, env, x, "scalar")
        if len(rows) > 1:
            raise RuntimeExecError(
                "scalar subquery returned more than one row")
        return rows[0] if rows else None
    return scalar


def _build_quantified(expr, env, sub):
    left = sub(expr.left, env)
    op = expr.op
    any_ = expr.quantifier == "ANY"
    if isinstance(expr.operand, Subquery):
        query = expr.operand.query
        operand = None
    else:
        operand = sub(expr.operand, env)

    def quantified(x):
        value = left(x)
        if operand is None:  # a subquery: `x` is a context
            values = _column(query, env, x, "quantified")
        else:
            array = operand(x)
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


def _build_case(expr, env, sub):
    whens = [(sub(cond, env), sub(result, env))
             for cond, result in expr.whens]
    else_ = None if expr.else_ is None else sub(expr.else_, env)
    if expr.operand is None:
        def searched(x):
            for cond, result in whens:
                if cond(x) is True:
                    return result(x)
            return None if else_ is None else else_(x)
        return searched
    subject_of = sub(expr.operand, env)

    def simple(x):
        subject = subject_of(x)
        for cond, result in whens:
            if _compare("=", subject, cond(x)) is True:
                return result(x)
        return None if else_ is None else else_(x)
    return simple


def _build_call(call, env, sub):
    if call.is_aggregate:
        return _build_aggregate(call, env)
    name = call.name
    args = [sub(arg, env) for arg in call.args]
    if name == "coalesce":
        def coalesce(x):
            for value in [arg(x) for arg in args]:
                if value is not None:
                    return value
            return None
        return coalesce
    if name == "nullif":
        def nullif(x):
            values = [arg(x) for arg in args]
            if len(values) != 2:
                raise RuntimeExecError("NULLIF takes two arguments")
            return None if _compare("=", *values) is True else values[0]
        return nullif
    builtin = _SCALAR_BUILTINS.get(name)

    def scalar_call(x):
        values = [arg(x) for arg in args]
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
    value_of, member = _row_entry(call.args[0], env)

    def aggregate(ctx):
        members = ctx.group
        if members is None:
            raise RuntimeExecError(outside)
        if member is not None:
            member.outer = ctx.outer
        values = [value for value in map(value_of, members)
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


def _build_cast(expr, env, sub):
    operand = sub(expr.operand, env)
    type_name = expr.type_name
    base = type_name.split("(")[0].strip().lower()
    convert = _CASTS.get(base)

    def cast(x):
        value = operand(x)
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


def _build_array(expr, env, sub):
    items = [sub(item, env) for item in expr.items]
    return lambda x: tuple([item(x) for item in items])


def _column(query, env, x, what):
    """Values of a subquery that must return one column; `x` is the
    context it runs for, or a row function's row when it is not
    correlated (`_run_once`)."""
    width, rows = _run_once(query, _exec_stmt, env, x)
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
