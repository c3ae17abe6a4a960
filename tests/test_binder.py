import pytest

import corpusqueries as corpus
from sqleq.ast_nodes import SelectCore, is_aggregate_call, select_level, walk
from sqleq.binder import aggregate_calls, bind, output_name
from sqleq.errors import AmbiguousColumn, UnresolvedName
from sqleq.parser import parse_sql
from sqleq.schema import SchemaDef, TableDef

TU = SchemaDef(tables=(TableDef("t", ("a", "b", "A")),
                       TableDef("u", ("a", "c"))))


@pytest.mark.parametrize("sql, error, message", [
    ("SELECT x FROM t WHERE y = 1", UnresolvedName, "y"),
    ("SELECT x FROM t ORDER BY y", UnresolvedName, "x"),
    ("SELECT a FROM t GROUP BY x HAVING y > 1", UnresolvedName, "x"),
    ("SELECT a FROM t WHERE a IN (SELECT x FROM u) AND y = 1",
     UnresolvedName, "y"),
    ("SELECT a FROM t WHERE x = 1 AND a IN (SELECT y FROM u)",
     UnresolvedName, "y"),
    ("SELECT b FROM t JOIN u ON t.a = u.a WHERE zz = 1",
     UnresolvedName, "zz"),
    ("SELECT zz FROM t JOIN u ON t.a = u.a WHERE a = 1",
     AmbiguousColumn, "a"),
    ("SELECT t.x + u.y FROM t CROSS JOIN u", UnresolvedName, "u.y"),
    ("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.zz = t.yy)",
     UnresolvedName, "t.yy"),
    ("SELECT d.x FROM (SELECT zz FROM t) AS d WHERE q = 1",
     UnresolvedName, "zz"),
    ("WITH c AS (SELECT q FROM t) SELECT w FROM c", UnresolvedName, "q"),
    ("SELECT b FROM t JOIN u ON x = 1 JOIN t AS v ON y = 2",
     UnresolvedName, "x"),
    ("SELECT CASE WHEN x = 1 THEN y END FROM t", UnresolvedName, "y"),
    ("SELECT SUM(x) + COUNT(y) FROM t", UnresolvedName, "y"),
    ("SELECT b FROM t LIMIT (SELECT x FROM u WHERE y = 1)",
     UnresolvedName, "y"),
    ("SELECT b FROM t UNION SELECT x FROM u WHERE y = 1",
     UnresolvedName, "y"),
])
def test_first_bad_name_in_binding_order_is_reported(sql, error, message):
    with pytest.raises(error) as caught:
        bind(parse_sql(sql), TU)
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize("sql, slots", [
    # names compare lower-cased; a repeated name binds its first column
    ("SELECT A, b FROM t", [("a", (0, 0)), ("b", (0, 1))]),
    ('SELECT d.A, d.b FROM (SELECT b AS "A", a AS "a", b FROM t) AS d',
     [("a", (0, 0)), ("b", (0, 2))]),
])
def test_column_binds_first_of_its_lowered_name(sql, slots):
    stmt = parse_sql(sql)
    binding = bind(stmt, TU)
    assert [(item.expr.column, binding.slots[id(item.expr)])
            for item in stmt.body.items] == slots


@pytest.mark.parametrize("sql, schema", [
    (sql, "baseball") for sql in corpus.ASSIGNMENT_QUERIES] + [
    ("SELECT DISTINCT a, b + 1 AS s, COUNT(*) FROM t GROUP BY a, b "
     "HAVING MAX(b) > 1 AND SUM(b) > (SELECT COUNT(*) FROM u)", "tu"),
    ("SELECT * FROM t JOIN u ON t.a = u.a", "tu"),
    ("SELECT SUM(MAX(b)), MIN(b) + 1, SUM(b) OVER (PARTITION BY a) FROM t",
     "tu"),
])
def test_names_and_aggregates_of_each_core(sql, schema, baseball_schema):
    stmt = parse_sql(sql)
    binding = bind(stmt, baseball_schema if schema == "baseball" else TU)
    cores = [node for node in walk(stmt) if isinstance(node, SelectCore)]
    assert cores
    for core in cores:
        items = binding.items[id(core)]
        assert binding.names[id(core)] == [
            output_name(item, i) for i, item in enumerate(items)]
        per_group = [item.expr for item in items]
        if core.having is not None:
            per_group.append(core.having)
        # the definition: calls yielded by `select_level`, stopping at each
        expected = [node for expr in per_group
                    for node in select_level(expr, is_aggregate_call)
                    if is_aggregate_call(node)]
        assert [call for expr in per_group
                for call in aggregate_calls(expr)] == expected
        assert [id(call) for call in binding.aggregates[id(core)]] == \
            [id(call) for call in expected]
        assert (id(core) in binding.grouped) == \
            bool(core.group_by or expected)


@pytest.mark.parametrize("sql, names", [
    # items, HAVING and hidden ORDER BY keys of a grouped core; not a
    # key that names an output column, nor an aggregate's argument
    ("SELECT a, SUM(b) AS s FROM t GROUP BY a HAVING MAX(b) > 0 "
     "ORDER BY s, COUNT(*) DESC, MIN(b) + AVG(SUM(b))",
     ["sum", "max", "count", "min", "avg"]),
    ("SELECT COUNT(*) FROM t ORDER BY SUM(b)", ["count", "sum"]),
    # each subquery's core by itself, an outer-only argument too
    ("SELECT (SELECT COUNT(*) FROM u ORDER BY SUM(t.b)) FROM t",
     ["count", "sum"]),
    ("SELECT a FROM t GROUP BY a ORDER BY (SELECT MAX(c) FROM u)", ["max"]),
    # no grouped core: every call is outside a grouped context
    ("SELECT a FROM t WHERE SUM(b) > 0 ORDER BY COUNT(*)", []),
    ("SELECT COUNT(*) FROM t UNION SELECT a FROM u ORDER BY SUM(1)",
     ["count"]),
])
def test_group_calls_are_those_a_grouped_core_reads_its_group_for(sql, names):
    binding = bind(parse_sql(sql), TU)
    calls = binding.group_calls.values()
    assert sorted(call.name for call in calls) == sorted(names)
    assert all(binding.group_calls[id(call)] is call for call in calls)
