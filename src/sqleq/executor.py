"""Database instances and the entry point of the in-memory interpreter.

`instance_from_dict` validates an instance column by column; a faulty
one is checked again row by row, so its first fault in row order is the
one reported. `execute` runs a statement on an instance. It imports the
interpreter (`interpreter.py`) on its first call, so a process that
never executes a statement does not compile it.
"""

import math

from .ast_nodes import Cte, FuncCall, walk
from .errors import InstanceError, RuntimeExecError, UnsupportedFeature
from .values import SCALAR_TYPES, canon, cell_types, raw_keys_exact


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
                and all(map(_valid_cells, zip(*rows))):
            rows = list(map(tuple, rows))
        else:
            rows = [_checked_row(name, row, width) for row in rows]
        tables[name.lower()] = (columns, rows)
    instance = DatabaseInstance(schema=schema, tables=tables)
    _check_primary_keys(instance)
    return instance


_CELL_TYPES = SCALAR_TYPES | {type(None)}


def _valid_cells(cells):
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
        if not _valid_cells((cell,)):
            raise InstanceError(
                f"table {name!r} cell {cell!r} is not null, a boolean, a "
                f"number, or text")
    return tuple(row)


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

# `interpreter.run`, bound on the first `execute` call: an import
# statement run on every call would cost each execution about 1 µs
_run = None


def execute(ast, instance):
    """Run a statement against an instance; returns a ResultTable.

    Raises UnsupportedFeature for recursive CTEs, window calls or an
    aggregate whose argument reads only enclosing columns, a PlanError
    (UnresolvedName, AmbiguousColumn, duplicate alias) when a name does
    not bind, and RuntimeExecError for runtime violations.
    """
    for node in walk(ast):
        if isinstance(node, Cte) and node.recursive:
            raise UnsupportedFeature("recursive CTE")
        if isinstance(node, FuncCall) and node.is_window:
            raise UnsupportedFeature("window function")
    global _run
    if _run is None:
        from .interpreter import run as _run
    width, rows = _run(ast, instance)
    return ResultTable(column_count=width, rows=rows,
                       ordered=bool(ast.order_by))
