"""Database schema model and its prompt-text serialization.

Schema JSON format:

    {
      "tables": [{"name": "t", "columns": ["a", "b"]}, ...],
      "foreign_keys": [["t1.x", "t2.y"], ...],
      "primary_keys": ["t.a", ...]
    }

A field of another shape (`"columns": "ab"`, a name that is not text)
is a SchemaError naming the field.
"""

import json
from .errors import SchemaError
from .records import Frozen, Record


class TableDef(Frozen, Record):
    def __init__(self, name, columns):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "columns", columns)

    def has_column(self, column):
        lowered = column.lower()
        return any(c.lower() == lowered for c in self.columns)


class SchemaDef(Frozen, Record):
    def __init__(self, tables, foreign_keys=(), primary_keys=()):
        object.__setattr__(self, "tables", tables)
        # (("t.c", "t.c"), ...) and ("t.c", ...)
        object.__setattr__(self, "foreign_keys", foreign_keys)
        object.__setattr__(self, "primary_keys", primary_keys)
        seen = set()
        for table in self.tables:
            lowered = table.name.lower()
            if lowered in seen:
                raise SchemaError(f"duplicate table name {table.name!r}")
            seen.add(lowered)
            if not table.columns:
                raise SchemaError(f"table {table.name!r} has no columns")
        for left, right in self.foreign_keys:
            self._check_ref(left, "foreign key")
            self._check_ref(right, "foreign key")
        for ref in self.primary_keys:
            self._check_ref(ref, "primary key")

    def _check_ref(self, ref, what):
        table_name, _, column = ref.partition(".")
        if not column:
            raise SchemaError(f"{what} {ref!r} is not of the form table.column")
        table = self.find_table(table_name)
        if table is None:
            raise SchemaError(f"{what} {ref!r} names unknown table")
        if not table.has_column(column):
            raise SchemaError(f"{what} {ref!r} names unknown column")

    def find_table(self, name):
        lowered = name.lower()
        for table in self.tables:
            if table.name.lower() == lowered:
                return table
        return None


def schema_from_dict(data):
    """The SchemaDef of a schema's JSON form; a field of the wrong shape
    is a SchemaError that names it."""
    if not isinstance(data, dict):
        raise SchemaError("schema must be a JSON object")
    tables = []
    for table in _list_field(data, "tables", dict, "objects"):
        name = table.get("name")
        if not isinstance(name, str):
            raise SchemaError(f"table name {name!r} is not text")
        columns = _list_field(table, "columns", str, "text",
                              f" of table {name!r}")
        tables.append(TableDef(name=name, columns=tuple(columns)))
    foreign_keys = _list_field(data, "foreign_keys", list, "pairs")
    for fk in foreign_keys:
        if len(fk) != 2 or not all(isinstance(ref, str) for ref in fk):
            raise SchemaError(f"foreign key {fk!r} is not a pair of text")
    return SchemaDef(
        tables=tuple(tables), foreign_keys=tuple(map(tuple, foreign_keys)),
        primary_keys=tuple(_list_field(data, "primary_keys", str, "text")))


def _list_field(data, field, kind, kind_name, owner=""):
    value = data.get(field, [])
    if not isinstance(value, list) or \
            not all(isinstance(item, kind) for item in value):
        raise SchemaError(f"{field}{owner} must be a list of {kind_name}")
    return value


def load_schema(path):
    with open(path, encoding="utf-8") as f:
        return schema_from_dict(json.load(f))


def load_schemas(path):
    """Load a {schema_name: schema} file used by benchmark datasets."""
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise SchemaError("schemas file must map names to schemas")
    return {name: schema_from_dict(spec) for name, spec in data.items()}


def serialize_schema(schema):
    """Render the schema block inserted into prompts.

    One line per table in schema order, a blank line, then the key lists.
    Empty lists keep their brackets: `Foreign_keys = [  ]`.
    """
    lines = [
        f"Table {t.name}, columns = [ {', '.join(('*',) + t.columns)} ]"
        for t in schema.tables
    ]
    fks = ", ".join(f"{left} = {right}" for left, right in schema.foreign_keys)
    pks = ", ".join(schema.primary_keys)
    return (
        "\n".join(lines)
        + f"\n\nForeign_keys = [ {fks} ]"
        + f"\nPrimary_keys = [ {pks} ]"
    )
