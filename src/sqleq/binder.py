"""Name binding shared by the planner and the executor.

`bind` resolves every name of a statement once, before any row is read.
The result is a `Binding` keyed by the identity of AST nodes, so the
tree itself carries no per-schema state and one parsed statement can
run against several instances.

Rows are flat tuples: a FROM clause concatenates its relations in
source order, so a column reference becomes (outer depth, slot): `slot`
of the row of the scope `depth` scopes out. `Binding.levels` gives the
level of that scope, which names the cell the executor reads an
enclosing row from.

Resolution rules:
- a qualified name `t.c` looks for relation alias `t` in the innermost
  scope first, then in each enclosing scope; an unqualified name must
  match exactly one relation of the first scope that has it
  (`AmbiguousColumn` otherwise);
- a relation with repeated column names binds the first of them;
- `*` and `t.*` expand into qualified references;
- ORDER BY keys resolve to a 1-based output position, then to a unique
  output name, then to an expression over the input relations;
- relation aliases of one FROM clause must differ.

Scopes follow execution: an expression subquery sees the row it is
evaluated on, a derived table sees only the rows around its FROM
clause, a CTE definition and LIMIT/OFFSET see no enclosing row. An
expression is bound over its select level, walked as
`ast_nodes.select_level` walks it, which ends the level at each nested
statement: the binder binds that statement where the walk meets it, and
an IN subquery's operand stays in the outer scope.

Levels: a scope's level is one more than its enclosing scope's. A CTE
definition and LIMIT/OFFSET bind in a scope with no row at the level of
the statement's own cores, not at 0, so every scope a subquery's run
reaches lies above the level of the row the subquery runs on.

Aggregates: a core with a GROUP BY, or an aggregate call in its select
items or HAVING, is grouped. Those calls and the aggregate calls of its
statement's hidden ORDER BY keys (bound to None) aggregate its groups:
`Binding.group_calls` holds them, and any other call is outside a group.

Correlation: the binder tracks the lowest level any column reference
resolves to. A subquery statement or FROM item with a reference that
resolves to a scope outside it reads an enclosing row; its id goes into
`Binding.correlated`. The executor runs the other subqueries once and
keeps the rows of the other FROM items, so a false "correlated" only
costs time, while a false "uncorrelated" would return wrong rows.
"""

from .ast_nodes import (
    ColumnRef, DerivedTable, Join, Literal, SelectItem, SelectStmt, SetOp,
    Star, TableRef, children, is_aggregate_call,
)
from .errors import AmbiguousColumn, PlanError, UnresolvedName


class Binding:
    """Name resolution of one statement, keyed by id() of AST nodes.

    Per SelectCore, `items` holds its select items with stars expanded,
    `names` their output names (`output_name`), and `aggregates` the
    `aggregate_calls` of those items and then of HAVING, in that order.
    `group_calls` holds every call that aggregates a grouped core's
    groups, those of its statement's hidden ORDER BY keys too.
    """

    def __init__(self):
        self.slots = {}        # ColumnRef -> (depth, slot)
        self.items = {}        # SelectCore -> [SelectItem]
        self.names = {}        # SelectCore -> [str]
        self.aggregates = {}   # SelectCore -> [FuncCall]
        self.grouped = set()   # SelectCores that aggregate
        self.group_calls = {}  # FuncCall -> itself
        self.order = {}        # SelectStmt -> [int | None]
        self.ctes = {}         # TableRef -> Cte it names
        # ColumnRef -> level of the scope it reads; subquery SelectStmt
        # -> level of the row it runs on
        self.levels = {}
        # subquery SelectStmts and FROM items that read an enclosing row
        self.correlated = set()


def bind(stmt, schema):
    """Resolve every name of `stmt` against `schema`.

    Raises UnresolvedName, AmbiguousColumn or PlanError (duplicate
    alias, unexpandable star). ORDER BY keys map to an output index, or
    to None when the key is an expression over the input row.
    """
    binder = _Binder(schema)
    binder.statement(stmt, {}, None)
    return binder.binding


def aggregate_calls(expr):
    """Aggregate calls at this select level (subqueries keep their own,
    and a call's arguments are not searched), last child first."""
    calls = []
    stack = [expr]  # its select level, walked as `select_level` does
    while stack:
        node = stack.pop()
        if is_aggregate_call(node):
            calls.append(node)
        elif node is expr or type(node) is not SelectStmt:
            stack += children(node)
    return calls


def output_name(item, position):
    """The alias or column name of a select item, else `col<position>`."""
    return item.output_name() or f"col{position}"


_UNREACHED = float("inf")  # level reached by no column reference


class _Scope:
    """Relations of one flat row plus the scope of the enclosing row."""
    __slots__ = ("relations", "parent", "level")

    def __init__(self, relations, parent, level=None):
        self.relations = []  # [(alias, lowered columns or None, offset)]
        offset = 0
        for alias, columns, lowered in relations:
            self.relations.append((alias, lowered, offset))
            # a recursive CTE's placeholder (None) never executes
            offset += len(columns or ())
        self.parent = parent
        if level is None:
            level = 0 if parent is None else parent.level + 1
        self.level = level

    def resolve(self, ref):
        scope, depth = self, 0
        while scope is not None:
            slot = scope._resolve_local(ref)
            if slot is not None:
                return depth, slot
            scope, depth = scope.parent, depth + 1
        raise UnresolvedName(
            f"{ref.table}.{ref.column}" if ref.table else ref.column)

    def _resolve_local(self, ref):
        name = ref.column.lower()
        if ref.table:
            table = ref.table.lower()
            for alias, lowered, offset in self.relations:
                if alias == table:
                    if lowered is None:
                        return offset  # a placeholder has every column
                    if name not in lowered:
                        raise UnresolvedName(f"{ref.table}.{ref.column}")
                    return offset + lowered.index(name)
            return None
        matches = [offset if lowered is None else offset + lowered.index(name)
                   for _alias, lowered, offset in self.relations
                   if lowered is None or name in lowered]
        if len(matches) > 1:
            raise AmbiguousColumn(ref.column)
        return matches[0] if matches else None


def _relation(alias, columns):
    """(alias, columns, lowered columns) of a relation in a FROM clause;
    both lists are None for a recursive CTE's placeholder."""
    if columns is None:
        return alias, None, None
    return alias, columns, [column.lower() for column in columns]


class _Binder:
    def __init__(self, schema):
        self.schema = schema
        self.binding = Binding()
        self.reach = _UNREACHED  # lowest scope level resolved to so far

    def tracked(self, node, outer, bind, *args):
        """Return `bind(*args)`; flag `node` correlated when a reference
        in it resolves to scope `outer` or further out."""
        saved, self.reach = self.reach, _UNREACHED
        result = bind(*args)
        if outer is not None and self.reach <= outer.level:
            self.binding.correlated.add(id(node))
        self.reach = min(saved, self.reach)
        return result

    def isolated(self, bind, *args):
        """Return `bind(*args)` for a part that sees no enclosing row."""
        saved = self.reach
        result = bind(*args)
        self.reach = saved
        return result

    def statement(self, stmt, ctes, outer):
        """Bind a statement run inside `outer`; returns its output names.

        `ctes` maps each visible CTE name to (Cte, output columns).
        """
        no_row = _Scope([], None, 0 if outer is None else outer.level + 1)
        if stmt.ctes:
            ctes = dict(ctes)
            for cte in stmt.ctes:
                visible = ctes
                if cte.recursive:
                    placeholder = cte.columns or _peek_output_names(cte.query)
                    visible = {**ctes, cte.name: (cte, placeholder)}
                names = self.isolated(self.statement, cte.query, visible,
                                      no_row)
                ctes[cte.name] = (cte, list(cte.columns) or names)
        names, scope = self.body(stmt.body, ctes, outer)
        if stmt.order_by:
            self.order_keys(stmt, names, scope or _Scope([], outer), ctes)
        if stmt.limit is not None:
            for expr in (stmt.limit.count, stmt.limit.offset):
                if expr is not None:
                    self.isolated(self.expr, expr, no_row, ctes)
        return names

    def body(self, body, ctes, outer):
        """Returns (output names, scope of a select core or None)."""
        if isinstance(body, SetOp):
            names, _ = self.body(body.left, ctes, outer)
            self.body(body.right, ctes, outer)
            return names, None
        if isinstance(body, SelectStmt):
            return self.statement(body, ctes, outer), None
        return self.core(body, ctes, outer)

    def core(self, core, ctes, outer):
        relations = []
        if core.from_item is not None:
            relations = self.from_item(core.from_item, ctes, outer)
        scope = _Scope(relations, outer)
        items = _expand_stars(core.items, relations)
        per_group = [item.expr for item in items]
        if core.having is not None:
            per_group.append(core.having)
        for expr in [core.where, *core.group_by, *per_group]:
            if expr is not None:
                self.expr(expr, scope, ctes)
        aggregates = []
        for expr in per_group:
            aggregates.extend(aggregate_calls(expr))
        names = [output_name(item, i) for i, item in enumerate(items)]
        binding = self.binding
        binding.items[id(core)] = items
        binding.names[id(core)] = names
        binding.aggregates[id(core)] = aggregates
        if core.group_by or aggregates:
            binding.grouped.add(id(core))
            binding.group_calls.update((id(call), call) for call in aggregates)
        return names, scope

    def from_item(self, item, ctes, outer):
        """Relations [`_relation`] of a FROM item, in row order."""
        return self.tracked(item, outer, self._from_item, item, ctes, outer)

    def _from_item(self, item, ctes, outer):
        if isinstance(item, TableRef):
            alias = (item.alias or item.name).lower()
            if item.name in ctes:
                cte, columns = ctes[item.name]
                self.binding.ctes[id(item)] = cte
                return [_relation(alias, columns)]
            table = self.schema.find_table(item.name)
            if table is None:
                raise UnresolvedName(item.name)
            lowered = [c.lower() for c in table.columns]
            return [(alias, lowered, lowered)]
        if isinstance(item, DerivedTable):
            names = self.statement(item.query, ctes, outer)
            return [_relation((item.alias or "subquery").lower(), names)]
        if isinstance(item, Join):
            relations = self.from_item(item.left, ctes, outer) + \
                self.from_item(item.right, ctes, outer)
            seen = set()
            for alias, _columns, _lowered in relations:
                if alias in seen:
                    raise PlanError(f"duplicate relation alias {alias!r}")
                seen.add(alias)
            if item.condition is not None:
                self.expr(item.condition, _Scope(relations, outer), ctes)
            return relations
        raise PlanError(f"cannot plan FROM item {item!r}")

    def expr(self, expr, scope, ctes):
        stack = [expr]  # its select level, walked as `select_level` does
        while stack:
            node = stack.pop()
            if type(node) is ColumnRef:
                depth, slot = scope.resolve(node)
                self.binding.slots[id(node)] = depth, slot
                level = self.binding.levels[id(node)] = scope.level - depth
                self.reach = min(self.reach, level)
            elif type(node) is SelectStmt:
                self.binding.levels[id(node)] = scope.level
                self.tracked(node, scope, self.statement, node, ctes, scope)
            else:
                stack += children(node)

    def order_keys(self, stmt, names, scope, ctes):
        lowered = [name.lower() for name in names]
        keys = []
        for item in stmt.order_by:
            expr = item.expr
            if isinstance(expr, Literal) and isinstance(expr.value, int) and \
                    not isinstance(expr.value, bool):
                if not 1 <= expr.value <= len(names):
                    raise UnresolvedName(f"ORDER BY position {expr.value}")
                keys.append(expr.value - 1)
            elif isinstance(expr, ColumnRef) and expr.table is None and \
                    lowered.count(expr.column.lower()) == 1:
                keys.append(lowered.index(expr.column.lower()))
            else:
                self.expr(expr, scope, ctes)
                keys.append(None)
                if id(stmt.body) in self.binding.grouped:
                    self.binding.group_calls.update(
                        (id(call), call) for call in aggregate_calls(expr))
        self.binding.order[id(stmt)] = keys


def _expand_stars(items, relations):
    expanded = []
    for item in items:
        if not isinstance(item, Star):
            expanded.append(item)
            continue
        if not relations:
            raise PlanError("star projection requires a FROM clause")
        targets = relations
        if item.qualifier:
            targets = [r for r in relations if r[0] == item.qualifier.lower()]
            if not targets:
                raise UnresolvedName(item.qualifier)
        for alias, columns, _lowered in targets:
            if columns is None:
                raise PlanError(
                    f"cannot expand * against relation {alias!r}")
            for column in columns:
                expanded.append(SelectItem(expr=ColumnRef(
                    table=alias, column=column, raw=f"{alias}.{column}")))
    return expanded


def _peek_output_names(stmt):
    """Output names of a recursive CTE, taken from its non-recursive arm."""
    body = stmt.body
    while isinstance(body, SetOp):
        body = body.left
    if isinstance(body, SelectStmt):
        return _peek_output_names(body)
    names = []
    for i, item in enumerate(body.items):
        if isinstance(item, Star):
            return None
        names.append(output_name(item, i))
    return names
