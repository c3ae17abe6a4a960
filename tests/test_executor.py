import enum
import gc
import random
import sqlite3
from collections import Counter

import pytest

import corpusqueries as corpus
from sqleq.ast_nodes import ColumnRef, Literal, walk
from sqleq.binder import bind
from sqleq.errors import InstanceError, RuntimeExecError, UnsupportedFeature
from sqleq.executor import execute, instance_from_dict
from sqleq.oracle import oracle_check
from sqleq.parser import parse_sql
from sqleq.schema import SchemaDef, TableDef


def make_instance(schema, **tables):
    spec = {}
    for table in schema.tables:
        name = table.name
        spec[name] = {"columns": list(table.columns),
                      "rows": tables.get(name, [])}
    return instance_from_dict({"tables": spec}, schema)


@pytest.fixture
def nums():
    schema = SchemaDef(tables=(TableDef("t", ("x", "y")),))
    return schema, make_instance(
        schema, t=[[1, "a"], [2, "b"], [None, "c"], [2, None]])


@pytest.fixture
def pair_tables():
    schema = SchemaDef(tables=(TableDef("l", ("k", "v")),
                               TableDef("r", ("k", "w"))))
    instance = make_instance(
        schema,
        l=[[1, "a"], [2, "b"], [None, "n"]],
        r=[[1, "x"], [1, "y"], [3, "z"]])
    return schema, instance


def run(sql, instance):
    return execute(parse_sql(sql), instance)


class TestAggregates:
    def test_count_star_counts_rows(self, nums):
        _, inst = nums
        assert run("SELECT COUNT(*) FROM t", inst).rows == [(4,)]

    def test_count_column_skips_nulls(self, nums):
        _, inst = nums
        assert run("SELECT COUNT(x) FROM t", inst).rows == [(3,)]

    def test_sum_all_null_is_null(self):
        schema = SchemaDef(tables=(TableDef("t", ("x",)),))
        inst = make_instance(schema, t=[[None], [None]])
        assert run("SELECT SUM(x) FROM t", inst).rows == [(None,)]

    def test_sum_empty_is_null_count_zero(self):
        schema = SchemaDef(tables=(TableDef("t", ("x",)),))
        inst = make_instance(schema)
        assert run("SELECT SUM(x), COUNT(x), COUNT(*) FROM t", inst).rows == \
            [(None, 0, 0)]

    def test_avg_and_distinct(self, nums):
        _, inst = nums
        assert run("SELECT AVG(x) FROM t", inst).rows == [(5 / 3,)]
        assert run("SELECT COUNT(DISTINCT x) FROM t", inst).rows == [(2,)]
        assert run("SELECT SUM(DISTINCT x) FROM t", inst).rows == [(3,)]

    def test_group_by_groups_nulls_together(self, nums):
        _, inst = nums
        result = run("SELECT x, COUNT(*) FROM t GROUP BY x", inst)
        assert result.rows == [(1, 1), (2, 2), (None, 1)]

    def test_having_filters_groups(self, nums):
        _, inst = nums
        result = run("SELECT x FROM t GROUP BY x HAVING COUNT(*) > 1", inst)
        assert result.rows == [(2,)]

    def test_min_max_skip_nulls(self, nums):
        _, inst = nums
        assert run("SELECT MIN(x), MAX(x) FROM t", inst).rows == [(1, 2)]

    def test_aggregate_without_group_context_errors(self, nums):
        _, inst = nums
        with pytest.raises(RuntimeExecError):
            run("SELECT x FROM t WHERE SUM(x) > 1", inst)

    def test_order_by_aggregate_in_grouped_query(self, nums):
        _, inst = nums
        rows = run("SELECT x FROM t GROUP BY x ORDER BY COUNT(*) DESC, x",
                   inst).rows
        assert rows == [(2,), (None,), (1,)]

    def test_group_by_expression(self, nums):
        _, inst = nums
        rows = run("SELECT x % 2, COUNT(*) FROM t WHERE x IS NOT NULL "
                   "GROUP BY x % 2", inst).rows
        assert rows == [(1, 1), (0, 2)]


class TestThreeValuedLogic:
    def test_null_comparison_filters_row(self, nums):
        _, inst = nums
        assert run("SELECT y FROM t WHERE x > 1", inst).rows == \
            [("b",), (None,)]

    def test_not_of_unknown_stays_unknown(self, nums):
        _, inst = nums
        rows = run("SELECT y FROM t WHERE NOT x > 1", inst).rows
        assert rows == [("a",)]  # NULL row still excluded

    def test_or_short_circuit_with_null(self, nums):
        _, inst = nums
        rows = run("SELECT y FROM t WHERE x > 1 OR x IS NULL", inst).rows
        assert rows == [("b",), ("c",), (None,)]

    def test_in_list_with_null_member(self, nums):
        _, inst = nums
        assert run("SELECT y FROM t WHERE x IN (1, NULL)", inst).rows == \
            [("a",)]
        assert run("SELECT y FROM t WHERE x NOT IN (1, NULL)", inst).rows == []

    def test_case_only_fires_on_true(self, nums):
        _, inst = nums
        rows = run("SELECT CASE WHEN x > 1 THEN 'big' ELSE 'rest' END FROM t",
                   inst).rows
        assert rows == [("rest",), ("big",), ("rest",), ("big",)]


class TestJoins:
    def test_inner_join_multiplicity(self, pair_tables):
        _, inst = pair_tables
        rows = run("SELECT l.k, r.w FROM l JOIN r ON l.k = r.k", inst).rows
        assert rows == [(1, "x"), (1, "y")]

    def test_left_join_pads_with_nulls(self, pair_tables):
        _, inst = pair_tables
        rows = run("SELECT l.k, r.w FROM l LEFT JOIN r ON l.k = r.k",
                   inst).rows
        assert rows == [(1, "x"), (1, "y"), (2, None), (None, None)]

    def test_null_keys_never_match(self, pair_tables):
        _, inst = pair_tables
        rows = run("SELECT l.v FROM l JOIN r ON l.k = r.k", inst).rows
        assert ("n",) not in rows

    def test_full_join(self, pair_tables):
        _, inst = pair_tables
        rows = run("SELECT l.v, r.w FROM l FULL JOIN r ON l.k = r.k",
                   inst).rows
        assert rows == [("a", "x"), ("a", "y"), ("b", None), ("n", None),
                        (None, "z")]

    def test_cross_join_count(self, pair_tables):
        _, inst = pair_tables
        assert len(run("SELECT l.k, r.k FROM l CROSS JOIN r", inst).rows) == 9


class TestSortingAndLimits:
    def test_total_order_nulls_first_ascending(self, nums):
        _, inst = nums
        rows = run("SELECT x FROM t ORDER BY x", inst).rows
        assert rows == [(None,), (1,), (2,), (2,)]

    def test_descending_reverses(self, nums):
        _, inst = nums
        rows = run("SELECT x FROM t ORDER BY x DESC", inst).rows
        assert rows == [(2,), (2,), (1,), (None,)]

    def test_sort_is_stable(self, nums):
        _, inst = nums
        rows = run("SELECT x, y FROM t ORDER BY x", inst).rows
        assert rows == [(None, "c"), (1, "a"), (2, "b"), (2, None)]

    def test_order_by_underlying_column_not_projected(self, pair_tables):
        _, inst = pair_tables
        rows = run("SELECT v FROM l ORDER BY k DESC", inst).rows
        assert rows == [("b",), ("a",), ("n",)]

    def test_order_by_output_alias(self, nums):
        _, inst = nums
        rows = run("SELECT x AS renamed FROM t ORDER BY renamed", inst).rows
        assert rows[0] == (None,)

    def test_limit_offset(self, nums):
        _, inst = nums
        rows = run("SELECT x FROM t ORDER BY x LIMIT 2 OFFSET 1", inst).rows
        assert rows == [(1,), (2,)]

    def test_negative_limit_rejected(self, nums):
        _, inst = nums
        with pytest.raises(RuntimeExecError):
            run("SELECT x FROM t LIMIT -1", inst)

    def test_ordered_flag_from_outer_statement(self, nums):
        _, inst = nums
        assert run("SELECT x FROM t ORDER BY x", inst).ordered
        assert not run("SELECT x FROM t", inst).ordered
        cte = ("WITH c AS (SELECT x FROM t ORDER BY x) "
               "SELECT x FROM c")
        assert not run(cte, inst).ordered


class TestHiddenOrderColumns:
    """ORDER BY keys that name no output column are evaluated where the
    select items are, sorted on and cut off before the rows leave."""

    NO_CONTEXT = "ORDER BY expression must name an output column here"

    def test_distinct_core_raises_only_with_rows(self, nums):
        schema, inst = nums
        sql = "SELECT DISTINCT y FROM t ORDER BY x"
        with pytest.raises(RuntimeExecError, match=self.NO_CONTEXT):
            run(sql, inst)
        assert run(sql, make_instance(schema)).rows == []

    def test_set_operation_key_on_the_enclosing_row(self, nums):
        _, inst = nums
        sql = ("SELECT x FROM t WHERE EXISTS (SELECT u.x FROM t AS u "
               "WHERE u.x > {} UNION SELECT 1 WHERE 1 > {} ORDER BY t.y)")
        with pytest.raises(RuntimeExecError, match=self.NO_CONTEXT):
            run(sql.format(0, 0), inst)
        assert run(sql.format(9, 9), inst).rows == []

    def test_parenthesized_statement_raises_only_with_rows(self, nums):
        _, inst = nums
        sql = ("SELECT x FROM t WHERE EXISTS "
               "((SELECT u.x FROM t AS u LIMIT {}) ORDER BY t.y)")
        with pytest.raises(RuntimeExecError, match=self.NO_CONTEXT):
            run(sql.format(3), inst)
        assert run(sql.format(0), inst).rows == []

    def test_grouped_key_not_selected_with_desc_and_limit(self, nums):
        _, inst = nums
        result = run("SELECT MIN(y) FROM t GROUP BY x "
                     "ORDER BY SUM(x) DESC, x LIMIT 2", inst)
        assert result.rows == [("b",), ("a",)]
        assert result.column_count == 1

    def test_hidden_columns_never_leave_a_statement(self, nums):
        _, inst = nums
        rows = run("SELECT x FROM t WHERE y IN "
                   "(SELECT y FROM t ORDER BY x DESC)", inst).rows
        assert rows == [(1,), (2,), (None,)]
        rows = run("WITH c AS (SELECT y FROM t ORDER BY x DESC) "
                   "SELECT * FROM c", inst).rows
        assert rows == [("b",), (None,), ("a",), ("c",)]

    def test_select_item_error_wins_over_a_key_error(self, nums):
        _, inst = nums
        # the key raises on the first row, the select item on the second
        with pytest.raises(RuntimeExecError, match="division by zero"):
            run("SELECT 10 / (x - 2) FROM t ORDER BY 10 % (x - 1)", inst)


class TestSetOps:
    @pytest.fixture
    def ab(self):
        schema = SchemaDef(tables=(TableDef("a", ("x",)),
                                   TableDef("b", ("x",))))
        return make_instance(schema, a=[[1], [1], [2], [None]],
                             b=[[1], [3], [None]])

    def test_union_dedupes_nulls_too(self, ab):
        rows = run("SELECT x FROM a UNION SELECT x FROM b", ab).rows
        assert rows == [(1,), (2,), (None,), (3,)]

    def test_union_all_keeps_duplicates(self, ab):
        rows = run("SELECT x FROM a UNION ALL SELECT x FROM b", ab).rows
        assert len(rows) == 7

    def test_intersect(self, ab):
        rows = run("SELECT x FROM a INTERSECT SELECT x FROM b", ab).rows
        assert rows == [(1,), (None,)]

    def test_except(self, ab):
        rows = run("SELECT x FROM a EXCEPT SELECT x FROM b", ab).rows
        assert rows == [(2,)]

    def test_arity_mismatch(self, ab):
        with pytest.raises(RuntimeExecError):
            run("SELECT x FROM a UNION SELECT x, x FROM b", ab)


class TestSubqueries:
    def test_scalar_subquery_empty_is_null(self, pair_tables):
        _, inst = pair_tables
        rows = run("SELECT (SELECT w FROM r WHERE r.k = 99) FROM l",
                   inst).rows
        assert rows == [(None,), (None,), (None,)]

    def test_scalar_subquery_two_rows_errors(self, pair_tables):
        _, inst = pair_tables
        with pytest.raises(RuntimeExecError,
                           match="more than one row"):
            run("SELECT (SELECT w FROM r) FROM l", inst)

    def test_correlated_exists(self, pair_tables):
        _, inst = pair_tables
        rows = run("SELECT v FROM l WHERE EXISTS "
                   "(SELECT 1 FROM r WHERE r.k = l.k)", inst).rows
        assert rows == [("a",)]

    def test_in_subquery(self, pair_tables):
        _, inst = pair_tables
        rows = run("SELECT v FROM l WHERE k IN (SELECT k FROM r)", inst).rows
        assert rows == [("a",)]

    def test_derived_table(self, pair_tables):
        _, inst = pair_tables
        rows = run("SELECT doubled FROM "
                   "(SELECT k * 2 AS doubled FROM l WHERE k IS NOT NULL) d "
                   "ORDER BY doubled", inst).rows
        assert rows == [(2,), (4,)]

    def test_cte_chain(self, pair_tables):
        _, inst = pair_tables
        rows = run("WITH one AS (SELECT k FROM l WHERE k = 1), "
                   "two AS (SELECT k + 1 AS k FROM one) "
                   "SELECT k FROM two", inst).rows
        assert rows == [(2,)]

    def test_repeated_output_name_binds_the_first_like_sqlite(
            self, pair_tables):
        _, inst = pair_tables
        sql = "SELECT x FROM (SELECT k AS x, v AS x FROM l) s"
        conn = sqlite3.connect(":memory:")
        conn.execute("CREATE TABLE l (k, v)")
        conn.executemany("INSERT INTO l VALUES (?, ?)", inst.table("l")[1])
        assert run(sql, inst).rows == conn.execute(sql).fetchall() == \
            [(1,), (2,), (None,)]

    def test_correlated_reference_two_levels_out(self, pair_tables):
        schema, inst = pair_tables
        # l.v sits two scopes out, at slot 1 of its row, while the middle
        # scope's row (r) has a different column at that slot
        ast = parse_sql("SELECT k FROM l WHERE EXISTS (SELECT 1 FROM r "
                        "WHERE r.k = l.k AND EXISTS (SELECT 1 FROM r AS r2 "
                        "WHERE r2.w = 'x' AND l.v = 'a'))")
        ref = next(node for node in walk(ast)
                   if isinstance(node, ColumnRef) and node.raw == "l.v")
        assert bind(ast, schema).slots[id(ref)] == (2, 1)
        assert execute(ast, inst).rows == [(1,)]

    def test_cte_shadows_table_name(self, pair_tables):
        _, inst = pair_tables
        rows = run("WITH l AS (SELECT 99 AS k) SELECT k FROM l", inst).rows
        assert rows == [(99,)]


T_ROWS = [(1, 10), (2, 20), (2, 5)]
S_ROWS = [(1, 0), (2, 1), (3, 1)]


@pytest.fixture
def ts_tables():
    """(instance, sqlite3 connection) over t(a, b) and s(a, c)."""
    schema = SchemaDef(tables=(TableDef("t", ("a", "b")),
                               TableDef("s", ("a", "c"))))
    inst = make_instance(schema, t=[list(row) for row in T_ROWS],
                         s=[list(row) for row in S_ROWS])
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t (a, b)")
    conn.execute("CREATE TABLE s (a, c)")
    conn.executemany("INSERT INTO t VALUES (?, ?)", T_ROWS)
    conn.executemany("INSERT INTO s VALUES (?, ?)", S_ROWS)
    return inst, conn


class TestEnclosingRowsMatchSqlite:
    """Subqueries that read enclosing rows from a group, from an
    aggregate's argument, two levels down, and past a CTE or a LIMIT
    that runs inside them give sqlite3's rows; an aggregate of enclosing
    columns alone is unsupported."""

    @pytest.mark.parametrize("sql,expected", [
        ("SELECT a, COUNT(*) FROM t GROUP BY a "
         "HAVING COUNT(*) > (SELECT COUNT(*) FROM s WHERE s.a = t.a)",
         [(2, 2)]),
        ("SELECT a, SUM((SELECT c FROM s WHERE s.a = t.a)) FROM t "
         "GROUP BY a", [(1, 0), (2, 2)]),
        ("SELECT t.a, (SELECT SUM(s.c + t.b) FROM s) FROM t",
         [(1, 32), (2, 62), (2, 17)]),
        ("SELECT t.a, t.b FROM t WHERE EXISTS (SELECT 1 FROM "
         "(SELECT s.c FROM s WHERE s.a = t.a AND s.c > 0) d)",
         [(2, 20), (2, 5)]),
        # siblings two levels down, both reading t
        ("SELECT t.b, (SELECT (SELECT COUNT(*) FROM s s2 WHERE s2.a <= t.a)"
         " + (SELECT MAX(s3.c) FROM s s3 WHERE s3.a = t.a) "
         "FROM s WHERE s.a = t.a) FROM t", [(10, 1), (20, 3), (5, 3)]),
        ("SELECT t.a FROM t WHERE EXISTS (SELECT 1 FROM s WHERE s.a = t.a "
         "AND EXISTS (SELECT 1 FROM s s2 WHERE s2.c = s.c AND s2.a > t.a) "
         "AND EXISTS (SELECT 1 FROM s s3 WHERE s3.a < t.a))", [(2,), (2,)]),
        ("SELECT t.b, (SELECT s.a * t.a AS k FROM s ORDER BY k DESC "
         "LIMIT 1 OFFSET 1) FROM t", [(10, 2), (20, 4), (5, 4)]),
        # the CTE's own correlated subquery runs while t's row is read
        ("SELECT t.a, (WITH c AS (SELECT s.a, (SELECT COUNT(*) FROM s s2 "
         "WHERE s2.c = s.c) AS n FROM s) SELECT COUNT(*) FROM c "
         "WHERE c.a >= t.a) FROM t", [(1, 3), (2, 2), (2, 2)]),
        # so does the LIMIT's, before the second arm reads s's row
        ("SELECT t.a, (SELECT (SELECT SUM(u.x) FROM (SELECT v.x FROM "
         "(SELECT t2.a AS x FROM t t2 LIMIT (SELECT COUNT(*) FROM s s2 "
         "WHERE EXISTS (SELECT 1 FROM s s3 WHERE s3.a = s2.a + 1))) v "
         "UNION ALL SELECT t3.b FROM t t3 WHERE t3.a = s.a) u) "
         "FROM s WHERE s.a = t.a) FROM t", [(1, 13), (2, 28), (2, 28)]),
    ])
    def test_rows(self, ts_tables, sql, expected):
        inst, conn = ts_tables
        assert run(sql, inst).rows == conn.execute(sql).fetchall() == \
            expected

    def test_correlated_hidden_order_key_with_limit(self, ts_tables):
        # sqlite3 reads no enclosing column in a subquery's ORDER BY, so
        # its side names the key in a correlated derived table
        inst, conn = ts_tables
        ours = run("SELECT t.b, (SELECT s.a FROM s ORDER BY "
                   "ABS(s.a - t.a) DESC, s.a LIMIT 1) FROM t", inst).rows
        theirs = conn.execute(
            "SELECT t.b, (SELECT k FROM (SELECT s.a AS k, ABS(s.a - t.a) "
            "AS d FROM s ORDER BY d DESC, s.a LIMIT 1) q) FROM t").fetchall()
        assert ours == theirs == [(10, 3), (20, 1), (5, 1)]

    @pytest.mark.parametrize("sql,expected", [
        ("SELECT t.a, (SELECT COUNT(*) FROM s WHERE s.a = t.a), "
         "(SELECT COUNT(1) FROM s WHERE s.a > t.a) FROM t",
         [(1, 1, 2), (2, 1, 1), (2, 1, 1)]),
        ("SELECT t.a, (SELECT MAX(s.c * t.b) FROM s WHERE s.a >= t.a) "
         "FROM t", [(1, 10), (2, 20), (2, 5)]),
    ])
    def test_aggregates_of_star_literals_and_inner_columns_run(
            self, ts_tables, sql, expected):
        inst, conn = ts_tables
        assert run(sql, inst).rows == conn.execute(sql).fetchall() == \
            expected

    @pytest.mark.parametrize("sql,counterpart", [
        ("SELECT (SELECT COUNT(t.b)) FROM t", "SELECT COUNT(b) FROM t"),
        ("SELECT (SELECT SUM(t.b)) FROM t", "SELECT SUM(b) FROM t"),
        ("SELECT (SELECT SUM(t.b + 1) FROM s) FROM t",
         "SELECT SUM(b + 1) FROM t"),
    ])
    def test_aggregate_of_enclosing_columns_only_is_unsupported(
            self, ts_tables, sql, counterpart):
        # SQL aggregates such a call in the enclosing query: sqlite3
        # gives one row, where aggregating it per inner group gave three
        inst, conn = ts_tables
        assert conn.execute(sql).fetchall() == \
            conn.execute(counterpart).fetchall()
        outcome = oracle_check(sql, counterpart, [inst])
        assert outcome.status == "inconclusive"
        empty = make_instance(inst.schema)
        with pytest.raises(UnsupportedFeature, match="enclosing columns"):
            run(sql, empty)

    @pytest.mark.parametrize("sql,counterpart", [
        ("SELECT (SELECT s.a FROM s GROUP BY s.a ORDER BY SUM(t.b) "
         "LIMIT 1) FROM t", "SELECT MIN(a) FROM s"),
        ("SELECT (SELECT COUNT(*) FROM s ORDER BY SUM(t.b)) FROM t",
         "SELECT COUNT(*) FROM s"),
    ])
    def test_aggregate_of_enclosing_columns_in_a_hidden_key_is_unsupported(
            self, ts_tables, sql, counterpart):
        # SQL aggregates SUM(t.b) in the enclosing query, which then
        # gives one row that the counterpart may give (sqlite3 reads no
        # enclosing column in a subquery's ORDER BY); aggregating it per
        # inner group gave a row per row of t, a false witness
        inst, _ = ts_tables
        assert oracle_check(sql, counterpart, [inst]).status == \
            "inconclusive"
        with pytest.raises(UnsupportedFeature,
                           match="aggregate SUM of enclosing columns"):
            run(sql, make_instance(inst.schema))

    @pytest.mark.parametrize("sql", [
        "SELECT a FROM t GROUP BY a ORDER BY SUM(b) DESC",
        "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY SUM(b), a LIMIT 1",
        "SELECT b FROM t GROUP BY b HAVING SUM(a) > 1 ORDER BY -SUM(a), b",
        "SELECT COUNT(*) FROM t ORDER BY SUM(b)",
        "SELECT t.a, (SELECT s.c FROM s GROUP BY s.c ORDER BY SUM(s.a) "
        "DESC LIMIT 1) FROM t",
        "SELECT t.a FROM t WHERE t.b > (SELECT MIN(s.c) FROM s "
        "WHERE s.a = t.a GROUP BY s.a ORDER BY SUM(s.c))",
    ])
    def test_grouped_core_sorts_by_its_own_aggregates(self, ts_tables, sql):
        inst, conn = ts_tables
        assert run(sql, inst).rows == conn.execute(sql).fetchall()

    @pytest.mark.parametrize("sql", [
        "SELECT a, COUNT(*) FROM t",
        "SELECT COUNT(*) FROM t HAVING a > 0",
    ])
    def test_column_of_an_aggregate_over_no_rows_raises(self, sql):
        schema = SchemaDef(tables=(TableDef("t", ("a", "b")),))
        with pytest.raises(RuntimeExecError) as info:
            run(sql, make_instance(schema))
        assert str(info.value) == "column read in an aggregate over no rows"


class TestNoCyclicGarbage:
    """`execute` leaves no reference cycles behind, so a run never waits
    on the cyclic collector; subquery statements compile closures that
    the run's caches hold."""

    STATEMENTS = [
        "SELECT v FROM l WHERE EXISTS "
        "(SELECT 1 FROM r WHERE r.k = l.k AND r.k{div} = 1)",
        "SELECT v FROM l WHERE NOT EXISTS "
        "(SELECT 1 FROM r WHERE r.k = l.k AND r.k{div} = 1)",
        "SELECT v, (SELECT COUNT(*) FROM r WHERE r.k = l.k AND r.k{div} > 0)"
        " FROM l",
        "SELECT v, (SELECT MAX(r.k{div}) FROM r WHERE r.k = l.k) FROM l",
        "SELECT v FROM l WHERE k IN (SELECT r.k{div} FROM r)",
        "SELECT v FROM l WHERE k NOT IN (SELECT r.k{div} FROM r)",
        "SELECT v FROM l WHERE k IN "
        "(SELECT r.k{div} FROM r WHERE r.w > l.v)",
        "SELECT k, COUNT(*) FROM l GROUP BY k HAVING COUNT(*) >= "
        "(SELECT COUNT(*) FROM r WHERE r.k = l.k AND r.k{div} > 0)",
        "SELECT v FROM l WHERE EXISTS (SELECT 1 FROM r WHERE r.k = l.k "
        "AND EXISTS (SELECT 1 FROM r AS r2 WHERE r2.w = r.w "
        "AND l.k{div} = 1))",
    ]

    @staticmethod
    def run_then_collect(sql, instance):
        """Whether `sql` raised, and what the cyclic collector then finds."""
        gc.collect()
        gc.disable()
        try:
            try:
                run(sql, instance)
                raised = False
            except RuntimeExecError:
                raised = True
            return raised, gc.collect()
        finally:
            gc.enable()

    @pytest.mark.parametrize("template", STATEMENTS)
    @pytest.mark.parametrize("div", ["", " / 0"])
    def test_run_leaves_no_cycles(self, pair_tables, template, div):
        _, inst = pair_tables
        assert self.run_then_collect(template.format(div=div), inst) == \
            (bool(div), 0)


class TestErrorsAndValidation:
    def test_recursive_cte_unsupported(self, nums):
        _, inst = nums
        for sql in ("WITH RECURSIVE c AS (SELECT 1) SELECT * FROM c",
                    # checked before names bind: `zz` would not resolve
                    "WITH RECURSIVE c AS (SELECT zz FROM t) SELECT * FROM c"):
            with pytest.raises(UnsupportedFeature, match="recursive"):
                run(sql, inst)

    def test_window_unsupported(self, nums):
        _, inst = nums
        with pytest.raises(UnsupportedFeature, match="window"):
            run("SELECT SUM(x) OVER (ORDER BY x) FROM t", inst)

    def test_division_by_zero(self, nums):
        _, inst = nums
        with pytest.raises(RuntimeExecError, match="division"):
            run("SELECT 1 / 0 FROM t", inst)

    def test_instance_arity_checked(self):
        schema = SchemaDef(tables=(TableDef("t", ("a", "b")),))
        with pytest.raises(InstanceError, match="arity"):
            instance_from_dict(
                {"tables": {"t": {"columns": ["a", "b"], "rows": [[1]]}}},
                schema)

    def test_primary_key_uniqueness_checked(self):
        schema = SchemaDef(tables=(TableDef("t", ("a",)),),
                           primary_keys=("t.a",))
        with pytest.raises(InstanceError, match="duplicate"):
            instance_from_dict(
                {"tables": {"t": {"columns": ["a"], "rows": [[1], [1]]}}},
                schema)

    def test_primary_key_null_rejected(self):
        schema = SchemaDef(tables=(TableDef("t", ("a",)),),
                           primary_keys=("t.a",))
        with pytest.raises(InstanceError, match="NULL"):
            instance_from_dict(
                {"tables": {"t": {"columns": ["a"], "rows": [[None]]}}},
                schema)

    @pytest.mark.parametrize("data,match", [
        ([], "JSON object"),
        ({"tables": [["t"]]}, "JSON object"),
        ({"tables": {"t": [1]}}, "JSON object"),
        ({"tables": {"t": {"rows": [[1, 2]]}}}, "'columns'"),
        ({"tables": {"t": {"columns": ["a", "b"]}}}, "'rows'"),
        ({"tables": {"t": {"columns": [1, 2], "rows": []}}}, "text"),
        ({"tables": {"t": {"columns": ["a", "b"], "rows": [5]}}},
         "not a list"),
        ({"tables": {"t": {"columns": ["a", "b"], "rows": [[1, [2]]]}}},
         "cell"),
        ({"tables": {"t": {"columns": ["a", "b"], "rows": [[1, {}]]}}},
         "cell"),
        ({"tables": {"t": {"columns": ["a", "b"],
                           "rows": [[1, float("nan")]]}}}, "cell"),
        ({"tables": {"t": {"columns": ["a", "b"],
                           "rows": [[float("-inf"), 1]]}}}, "cell"),
    ])
    def test_malformed_instance_rejected(self, data, match):
        schema = SchemaDef(tables=(TableDef("t", ("a", "b")),))
        with pytest.raises(InstanceError, match=match):
            instance_from_dict(data, schema)

    @pytest.mark.parametrize("cell", [
        enum.IntEnum("Level", "LOW")(1),
        type("Name", (str,), {})("x"),
        type("Ratio", (float,), {})(0.5),
    ])
    def test_cell_of_a_subclass_rejected(self, cell):
        # the executor orders, compares and hashes cells by exact type
        schema = SchemaDef(tables=(TableDef("t", ("a",)),))
        with pytest.raises(InstanceError, match="cell"):
            instance_from_dict(
                {"tables": {"t": {"columns": ["a"], "rows": [[cell]]}}},
                schema)

    def test_every_cell_kind_accepted(self):
        schema = SchemaDef(tables=(TableDef("t", ("a",)),))
        cells = [None, True, 0, 10 ** 30, -2.5, "x"]
        inst = instance_from_dict({"tables": {"t": {
            "columns": ["a"], "rows": [[c] for c in cells]}}}, schema)
        assert run("SELECT a FROM t", inst).rows == [(c,) for c in cells]

    def test_missing_instance_table_treated_empty(self):
        schema = SchemaDef(tables=(TableDef("t", ("a",)),
                                   TableDef("s", ("b",))))
        inst = instance_from_dict(
            {"tables": {"t": {"columns": ["a"], "rows": [[1]]}}}, schema)
        assert run("SELECT b FROM s", inst).rows == []


class TestWitnessPairRows:
    """Hand-computed outputs of the caught-stealing pair on the witness.

    With two batting rows (cs 2 and 3) for one player, the aggregating
    variant returns a single total of 5 while the join variant returns
    the two raw rows sorted 3 then 2.
    """

    @pytest.fixture
    def witness(self):
        schema = SchemaDef(tables=(
            TableDef("batting", ("playerid", "yearid", "cs")),
            TableDef("people", ("playerid", "namefirst", "namelast")),
        ))
        return make_instance(
            schema,
            batting=[["p1", 2000, 2], ["p1", 2001, 3]],
            people=[["p1", "Alice", "Smith"]])

    def test_aggregating_variant_totals(self, witness):
        result = run(corpus.CAUGHT_STEALING_CTE, witness)
        assert result.rows == [("p1", "Alice", "Smith", 5)]
        assert result.ordered

    def test_join_variant_keeps_raw_rows(self, witness):
        result = run(corpus.CAUGHT_STEALING_JOIN, witness)
        assert result.rows == [("p1", "Alice", "Smith", 3),
                               ("p1", "Alice", "Smith", 2)]


class TestAssignmentQueries:
    """The multi-CTE corpus queries run end to end on small instances."""

    @pytest.fixture
    def league(self, baseball_schema):
        return make_instance(
            baseball_schema,
            batting=[["p1", 2000, 2, 1, 0, 2], ["p1", 2001, 3, 0, 0, 0],
                     ["p2", 1999, None, 0, 1, 0]],
            people=[["p1", "Alice", "Smith", 1980, 5, 7],
                    ["p2", "Bo", "Jones", None, None, None]],
            fielding=[["p1", 2000]],
            pitching=[["p2", 1999, "NYC"]],
            awardsshareplayers=[["p1", 10, 2001], ["p1", 5, 1999],
                                ["p2", 3, 2005]])

    def test_runscore_query(self, league):
        result = run(corpus.RUNSCORE_CTE, league)
        assert result.rows == [("p1", "Alice", 10), ("p2", "Bo", 3)]

    def test_player_points_query(self, league):
        result = run(corpus.PLAYER_POINTS, league)
        assert result.rows == [("p1", "Alice Smith", 10),
                               ("p2", "Bo Jones", 3)]

    def test_seasons_union_query(self, league):
        result = run(corpus.SEASONS_UNION, league)
        assert result.rows == [
            ("p1", "Alice", "Smith", "1980-05-07", 2),
            ("p2", "Bo", "Jones", "", 1),
        ]


class TestScalarExpressions:
    def test_concat_and_cast(self, nums):
        _, inst = nums
        rows = run("SELECT y || '-' || x::text FROM t WHERE x = 1",
                   inst).rows
        assert rows == [("a-1",)]

    def test_concat_null_propagates(self, nums):
        _, inst = nums
        rows = run("SELECT y || x::text FROM t WHERE x IS NULL", inst).rows
        assert rows == [(None,)]

    def test_coalesce_and_nullif(self, nums):
        _, inst = nums
        rows = run("SELECT COALESCE(x, 0), NULLIF(x, 2) FROM t", inst).rows
        assert rows == [(1, 1), (2, None), (0, None), (2, None)]

    def test_lpad(self, nums):
        _, inst = nums
        rows = run("SELECT lpad(x::text, 3, '0') FROM t WHERE x = 2", inst).rows
        assert rows == [("002",), ("002",)]

    def test_lpad_fill_longer_than_pad_or_empty(self, nums):
        _, inst = nums
        rows = run("SELECT lpad('a', 4, 'xy'), lpad('a', 4, '') FROM t "
                   "WHERE x = 1", inst).rows
        assert rows == [("xyxa", "a")]

    def test_like(self, nums):
        _, inst = nums
        rows = run("SELECT y FROM t WHERE y LIKE '_'", inst).rows
        assert rows == [("a",), ("b",), ("c",)]

    def test_like_wildcards_match_a_newline(self):
        schema = SchemaDef(tables=(TableDef("t", ("id", "s")),))
        inst = make_instance(schema, t=[[1, "a\nb"], [2, "ab"]])
        assert run("SELECT id FROM t WHERE s LIKE 'a%'", inst).rows == \
            [(1,), (2,)]
        assert run("SELECT id FROM t WHERE s LIKE 'a_b'", inst).rows == \
            [(1,)]
        assert run("SELECT id FROM t WHERE s LIKE ('a' || '_b')",
                   inst).rows == [(1,)]

    def test_between(self, nums):
        _, inst = nums
        rows = run("SELECT x FROM t WHERE x BETWEEN 1 AND 1", inst).rows
        assert rows == [(1,)]


# --- compiled expressions against stdlib sqlite3 ---

WORDS = ("apple", "apricot", "banana", "berry", "cherry", "ap", "")


def seeded_m_rows(seed, n):
    """Rows of m(id, k, x, r, s): a tenth of each non-key cell NULL, `x`
    mixing integers, integral reals (3.0) and halves, lower-case text
    (sqlite's LIKE folds case)."""
    rng = random.Random(seed)

    def cell(make):
        return None if rng.random() < 0.1 else make()

    def mixed():
        value = rng.randrange(21)
        return rng.choice([value, float(value), value + 0.5])

    return [[i, cell(lambda: rng.randrange(10)), cell(mixed),
             cell(lambda: round(rng.uniform(0, 500), 2)),
             cell(lambda: rng.choice(WORDS))] for i in range(n)]


SQLITE_EXPRESSION_QUERIES = [
    "SELECT id, s FROM m WHERE s LIKE 'ap%'",
    "SELECT id FROM m WHERE s NOT LIKE '%rr_'",
    "SELECT id, s FROM m WHERE s LIKE 'ap' OR s LIKE '_e%y'",
    "SELECT id, x FROM m WHERE x BETWEEN 3 AND 7.5",
    "SELECT id FROM m WHERE x NOT BETWEEN k AND 10",
    "SELECT id, k FROM m WHERE k IN (1, 3, NULL)",
    "SELECT id FROM m WHERE k NOT IN (1, 3, NULL)",
    "SELECT id, k NOT IN (1, 3), x IN (2, 2.5, 4.0) FROM m",
    "SELECT id, CASE k WHEN 1 THEN 'one' WHEN 2.0 THEN 'two' "
    "ELSE 'many' END FROM m",
    "SELECT id, CASE WHEN x > 10 THEN 'big' WHEN x > 5 THEN 'mid' "
    "WHEN x IS NULL THEN 'none' END FROM m",
    "SELECT id, COALESCE(x, r, -1), NULLIF(k, 3), NULLIF(s, 'ap') FROM m",
    "SELECT id, x + r, x * 2, k - x, -r FROM m WHERE x + r > 50 OR k = 0",
    "SELECT id FROM m WHERE NOT (k > 4 AND s <> 'berry') OR r IS NULL",
    "SELECT k, COUNT(*), COUNT(x), SUM(x), AVG(r), MIN(x), MAX(s) "
    "FROM m GROUP BY k HAVING COUNT(*) > 5",
    "SELECT s, SUM(k), MIN(r), MAX(x) FROM m GROUP BY s "
    "HAVING SUM(k) > 20 OR s IS NULL",
    "SELECT COUNT(DISTINCT x), SUM(DISTINCT k), AVG(x) FROM m",
    "SELECT DISTINCT k, s FROM m",
    "SELECT DISTINCT x FROM m",
    "SELECT k FROM m WHERE x > 5 UNION SELECT k FROM m WHERE r < 100",
    "SELECT k, s FROM m WHERE x > 5 INTERSECT "
    "SELECT k, s FROM m WHERE r < 300",
    "SELECT x FROM m EXCEPT SELECT x FROM m WHERE k < 5",
    "SELECT k FROM m WHERE s LIKE 'b%' UNION ALL "
    "SELECT x FROM m WHERE x BETWEEN 1 AND 2",
]
SQLITE_ORDERED_QUERIES = [
    "SELECT id, x, s FROM m ORDER BY x DESC, s, id LIMIT 25",
    "SELECT id, r FROM m WHERE s IS NOT NULL ORDER BY r, id "
    "LIMIT 10 OFFSET 5",
    "SELECT k, COUNT(*) FROM m GROUP BY k ORDER BY COUNT(*) DESC, k "
    "LIMIT 3",
    "SELECT id, COALESCE(s, 'zzz') AS t FROM m ORDER BY t DESC, id LIMIT 40",
]


def sqlite_canon(row):
    """1, 1.0 and TRUE alike (sqlite has no booleans); reals to nine
    significant digits, since sqlite may sum a group in another order."""
    return tuple(("null",) if v is None else
                 ("num", float(f"{float(v):.9g}"))
                 if isinstance(v, (int, float)) else ("txt", v) for v in row)


def test_expressions_match_sqlite_at_1000_rows():
    rows = seeded_m_rows(5, 1000)
    assert any(isinstance(row[2], int) for row in rows)
    assert any(isinstance(row[2], float) and row[2].is_integer()
               for row in rows)
    schema = SchemaDef(tables=(TableDef("m", ("id", "k", "x", "r", "s")),))
    inst = make_instance(schema, m=rows)
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE m (id, k, x, r, s)")
    conn.executemany("INSERT INTO m VALUES (?, ?, ?, ?, ?)", rows)
    for sql in SQLITE_EXPRESSION_QUERIES:
        ours = run(sql, inst).rows
        theirs = conn.execute(sql).fetchall()
        assert Counter(map(sqlite_canon, ours)) == \
            Counter(map(sqlite_canon, theirs)), sql
    for sql in SQLITE_ORDERED_QUERIES:
        ours = run(sql, inst).rows
        theirs = conn.execute(sql).fetchall()
        assert ours and list(map(sqlite_canon, ours)) == \
            list(map(sqlite_canon, theirs)), sql


def test_group_reads_its_first_row():
    """A group's non-aggregate values come from its first row, so 1.0
    and 1 in one group give 1.0 when 1.0 comes first."""
    schema = SchemaDef(tables=(TableDef("t", ("x", "y")),))
    inst = make_instance(schema, t=[[1.0, "a"], [1, "b"], [2, "c"],
                                    [2.0, "d"]])
    rows = run("SELECT x, COUNT(*) FROM t GROUP BY x", inst).rows
    assert repr(rows) == "[(1.0, 2), (2, 2)]"
    rows = run("SELECT x, COUNT(*) FROM t GROUP BY x HAVING MIN(y) < 'z'",
               inst).rows
    assert repr(rows) == "[(1.0, 2), (2, 2)]"


def test_aggregate_argument_reads_the_enclosing_row(pair_tables):
    _, inst = pair_tables
    rows = run("SELECT l.k, (SELECT SUM(r.k * l.k) FROM r) FROM l",
               inst).rows
    assert rows == [(1, 5), (2, 10), (None, None)]


def test_arrays_compare_element_by_element(nums):
    """TRUE stays apart from 1 inside arrays too; 1 equals 1.0."""
    _, inst = nums
    rows = run("SELECT ARRAY[TRUE] = ARRAY[1], "
               "ARRAY[1, 'a'] = ARRAY[1.0, 'a'], ARRAY[2] < ARRAY[TRUE] "
               "FROM t WHERE x = 1", inst).rows
    assert rows == [(False, True, False)]


class TestBooleansBesideNumbers:
    """Where one column holds both TRUE and 1, every keyed step keeps
    them apart (Python's == would not), inside arrays too; 1 and 1.0
    still meet, the first one seen kept."""

    @pytest.fixture
    def mixed(self):
        schema = SchemaDef(tables=(TableDef("t", ("id", "v")),))
        return make_instance(schema, t=[
            [1, True], [2, 1], [3, 1.0], [4, None], [5, True], [6, False],
            [7, 0]])

    @pytest.mark.parametrize("sql,expected", [
        ("SELECT DISTINCT v FROM t",
         "[(True,), (1,), (None,), (False,), (0,)]"),
        ("SELECT DISTINCT ARRAY[v], 0 FROM t",
         "[((True,), 0), ((1,), 0), ((None,), 0), ((False,), 0), "
         "((0,), 0)]"),
        ("SELECT v, COUNT(*) FROM t GROUP BY v",
         "[(True, 2), (1, 2), (None, 1), (False, 1), (0, 1)]"),
        ("SELECT MIN(id), COUNT(*) FROM t GROUP BY ARRAY[v]",
         "[(1, 2), (2, 2), (4, 1), (6, 1), (7, 1)]"),
        ("SELECT v FROM t WHERE id <= 2 UNION SELECT v FROM t WHERE id > 2",
         "[(True,), (1,), (None,), (False,), (0,)]"),
        ("SELECT v FROM t WHERE id IN (1, 6) "
         "INTERSECT SELECT v FROM t WHERE id IN (2, 7)", "[]"),
        ("SELECT ARRAY[v] FROM t WHERE id IN (1, 6) "
         "INTERSECT ALL SELECT ARRAY[v] FROM t WHERE id IN (2, 7)", "[]"),
        ("SELECT v FROM t WHERE id IN (1, 6) "
         "EXCEPT SELECT v FROM t WHERE id IN (2, 7)", "[(True,), (False,)]"),
        ("SELECT v FROM t WHERE id IN (1, 5, 6) "
         "EXCEPT ALL SELECT v FROM t WHERE id IN (2, 3, 7)",
         "[(True,), (True,), (False,)]"),
        ("SELECT id FROM t ORDER BY v, id",
         "[(4,), (6,), (1,), (5,), (7,), (2,), (3,)]"),
        ("SELECT id FROM t ORDER BY v DESC",
         "[(2,), (3,), (7,), (1,), (5,), (6,), (4,)]"),
        ("SELECT id FROM t ORDER BY ARRAY[v] DESC, id DESC",
         "[(3,), (2,), (7,), (5,), (1,), (6,), (4,)]"),
    ])
    def test_keyed_steps(self, mixed, sql, expected):
        assert repr(run(sql, mixed).rows) == expected

    def test_primary_key(self):
        schema = SchemaDef(tables=(TableDef("t", ("k",)),),
                           primary_keys=("t.k",))
        instance_from_dict({"tables": {"t": {
            "columns": ["k"], "rows": [[True], [1], [False], [0]]}}}, schema)
        with pytest.raises(InstanceError, match="duplicate primary key"):
            instance_from_dict({"tables": {"t": {
                "columns": ["k"], "rows": [[True], [1], [1.0]]}}}, schema)


@pytest.mark.parametrize("order", ["x, id", "x DESC, id", "x DESC, id DESC",
                                   "x + 0, id DESC", "k DESC, x, id"])
def test_order_over_ints_reals_and_nulls_matches_sqlite(order):
    """Ties between 1 and 1.0 and between NULLs, over rows stored out of
    key order, so each pass of the sort must keep the order it got."""
    rng = random.Random(3)
    rows = [[i, rng.randrange(3),
             rng.choice([None, None, 0, 0.0, -0.0, 1, 1.0, 2, 2.5, -1,
                         10 ** 18, 1e18])] for i in range(200)]
    rng.shuffle(rows)
    schema = SchemaDef(tables=(TableDef("m", ("id", "k", "x")),))
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE m (id, k, x)")
    conn.executemany("INSERT INTO m VALUES (?, ?, ?)", rows)
    sql = f"SELECT id FROM m ORDER BY {order}"
    assert run(sql, make_instance(schema, m=rows)).rows == \
        conn.execute(sql).fetchall()


class TestErrorsRaiseOnlyWhereEvaluated:
    """Expressions compile once per execute, but each error is raised by
    the row that reaches it: never over an empty table, and with the
    same message as before over a non-empty one."""

    QUERIES = [
        ("SELECT FOO(x) FROM t", "unknown function 'foo'"),
        ("SELECT CAST(x AS BLOB) FROM t", "unsupported cast target 'blob'"),
        ("SELECT NULLIF(x) FROM t", "NULLIF takes two arguments"),
        ("SELECT LPAD(y) FROM t WHERE y IS NOT NULL",
         "LPAD needs a value and a width"),
        ("SELECT x, SUM(x, x) FROM t GROUP BY x",
         "SUM takes exactly one argument"),
        ("SELECT x FROM t WHERE COUNT(x) > 1",
         "aggregate COUNT outside a grouped context"),
        ("SELECT COUNT(*) FROM t GROUP BY MAX(x)",
         "aggregate MAX outside a grouped context"),
        ("SELECT t.x FROM t JOIN t AS u ON SUM(u.x) = 1",
         "aggregate SUM outside a grouped context"),
        ("SELECT x FROM t ORDER BY MIN(y)",
         "aggregate MIN outside a grouped context"),
        ("SELECT x FROM t WHERE x > 2 OR (SELECT y FROM t AS u "
         "ORDER BY SUM(t.x)) = 'a'",
         "aggregate SUM outside a grouped context"),
        ("SELECT x FROM t WHERE x > 1 AND y / 0 = 1", "needs numeric"),
        ("SELECT CASE WHEN x IS NULL THEN FOO(x) END FROM t",
         "unknown function 'foo'"),
    ]

    @pytest.mark.parametrize("sql,message", QUERIES)
    def test_raised_on_rows_only(self, nums, sql, message):
        schema, inst = nums
        empty = make_instance(schema)
        assert run(sql, empty).rows == []
        assert oracle_check(sql, sql, [empty]).status == "consistent"
        with pytest.raises(RuntimeExecError) as info:
            run(sql, inst)
        assert message in str(info.value)

    def test_aggregate_of_an_aggregate_raises_on_a_member_row(self, nums):
        schema, inst = nums
        sql = "SELECT SUM(MAX(x)) FROM t"
        # the one group of no rows runs MAX on no row
        assert run(sql, make_instance(schema)).rows == [(None,)]
        with pytest.raises(RuntimeExecError,
                           match="aggregate MAX outside a grouped context"):
            run(sql, inst)

    def test_unsupported_cast_target_spares_null(self, nums):
        _, inst = nums
        rows = run("SELECT CAST(x AS BLOB) FROM t WHERE x IS NULL",
                   inst).rows
        assert rows == [(None,)]

    def test_branch_no_row_takes_never_raises(self, nums):
        _, inst = nums
        rows = run("SELECT CASE WHEN x = 99 THEN FOO(x) ELSE 1 END, "
                   "COALESCE(x, 0) FROM t", inst).rows
        assert rows == [(1, 1), (1, 2), (1, 0), (1, 2)]

    @pytest.mark.parametrize("sql,message", [
        ("SELECT ROUND(x, 'x') FROM t", "ROUND digits must be an integer"),
        ("SELECT ROUND(x, 1.5) FROM t", "ROUND digits must be an integer"),
        ("SELECT CAST(x * 1e308 AS INT) FROM t", "non-finite"),
        ("SELECT UPPER() FROM t", "UPPER needs an argument"),
    ])
    def test_python_errors_become_runtime_errors(self, nums, sql, message):
        _, inst = nums
        with pytest.raises(RuntimeExecError, match=message):
            run(sql, inst)

    @pytest.mark.parametrize("sql,message", [
        ("SELECT CAST(0.5 AS INT) FROM t", "cannot cast inf to int"),
        ("SELECT ROUND(0.5) FROM t", "ROUND gives a non-finite number"),
    ])
    def test_infinite_literal_of_a_built_tree(self, nums, sql, message):
        """No SQL text lexes to an infinity (`1e999` is a syntax error),
        but a caller may build the tree itself."""
        _, inst = nums
        ast = parse_sql(sql)
        (literal,) = [node for node in walk(ast) if type(node) is Literal]
        literal.value = float("inf")
        with pytest.raises(RuntimeExecError, match=message):
            execute(ast, inst)
