"""An expression gives the same values and errors whether it reads the
columns of its working row or, inside a correlated subquery, those of
the enclosing row, from the cell the subquery stores that row in. Also
pinned: a comparison with a literal, AND/OR, plain-column projections,
group keys and aggregate arguments, the order in which per-row steps
run, and instances validated by column."""

import pytest
from hypothesis import given, settings, strategies as st

from sqleq.errors import InstanceError, RuntimeExecError
from sqleq.executor import execute, instance_from_dict
from sqleq.parser import parse_sql
from sqleq.schema import SchemaDef, TableDef
from sqleq.values import sort_key, values_equal

SCHEMA = SchemaDef(tables=(TableDef("t", ("id", "a")),))

# cells that look alike: Python's == takes some of them for equal
_CELLS = [None, True, False, 0, 1, 2, -1, 0.0, -0.0, 1.0, 2.5, 10 ** 400,
          "x", "1", ""]
# literals as written in SQL, with their values
_LITERALS = {"TRUE": True, "FALSE": False, "0": 0, "1": 1, "2": 2,
             "0.0": 0.0, "1.0": 1.0, "2.5": 2.5, "'1'": "1", "'x'": "x"}
_OPS = {
    "=": values_equal,
    "<>": lambda left, right: not values_equal(left, right),
    "<": lambda left, right: sort_key(left) < sort_key(right),
    "<=": lambda left, right: sort_key(left) <= sort_key(right),
    ">": lambda left, right: sort_key(left) > sort_key(right),
    ">=": lambda left, right: sort_key(left) >= sort_key(right),
}


def table(cells):
    return instance_from_dict({"tables": {"t": {
        "columns": ["id", "a"],
        "rows": [[i, cell] for i, cell in enumerate(cells)]}}}, SCHEMA)


def run(sql, instance):
    return execute(parse_sql(sql), instance).rows


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_CELLS), max_size=8),
       st.sampled_from(sorted(_OPS)), st.sampled_from(sorted(_LITERALS)),
       st.booleans())
def test_column_versus_literal_matches_the_value_model(cells, op, literal,
                                                       literal_first):
    # a bare literal takes the literal comparison, one wrapped in
    # COALESCE the generic one; both agree with the value model
    value = _LITERALS[literal]
    wrapped_literal = f"COALESCE({literal}, {literal})"
    if literal_first:
        bare, wrapped = f"{literal} {op} a", f"{wrapped_literal} {op} a"
        expected = [None if cell is None else _OPS[op](value, cell)
                    for cell in cells]
    else:
        bare, wrapped = f"a {op} {literal}", f"a {op} {wrapped_literal}"
        expected = [None if cell is None else _OPS[op](cell, value)
                    for cell in cells]
    instance = table(cells)
    got = run(f"SELECT {bare}, {wrapped} FROM t", instance)
    assert got == [(result, result) for result in expected]
    assert [type(first) for first, _ in got] == \
        [type(result) for result in expected]


@pytest.mark.parametrize("sql,expected", [
    # TRUE is never 1, while 1 and 1.0 meet
    ("SELECT id FROM t WHERE a = TRUE", [(0,)]),
    ("SELECT id FROM t WHERE a = 1", [(1,), (2,)]),
    ("SELECT id FROM t WHERE 1 = a", [(1,), (2,)]),
    ("SELECT id FROM t WHERE a <> 1", [(0,), (3,), (4,), (5,)]),
    # a literal on the left mirrors the operator
    ("SELECT id FROM t WHERE 1 < a", [(3,), (4,), (5,)]),
    ("SELECT id FROM t WHERE a > 1", [(3,), (4,), (5,)]),
    ("SELECT id FROM t WHERE 2.5 >= a", [(0,), (1,), (2,), (3,)]),
    # text sorts after every number, booleans before them
    ("SELECT id FROM t WHERE a > 100", [(4,), (5,)]),
    ("SELECT id FROM t WHERE a < 'a'", [(0,), (1,), (2,), (3,), (4,)]),
    ("SELECT id FROM t WHERE a < 0", [(0,)]),
    ("SELECT id FROM t WHERE a >= FALSE",
     [(0,), (1,), (2,), (3,), (4,), (5,)]),
    # a comparison with NULL is unknown, so it matches nothing
    ("SELECT id FROM t WHERE a = NULL", []),
])
def test_column_versus_literal_pinned(sql, expected):
    instance = table([True, 1, 1.0, 2.5, "1", "x", None])
    assert run(sql, instance) == expected


def test_array_cell_versus_literal():
    instance = table([1, None, "x"])
    rows = run("SELECT b = 1, b < 1, 1 <> b "
               "FROM (SELECT ARRAY[a] AS b FROM t) s", instance)
    assert rows == [(False, False, True), (False, False, True),
                    (False, False, True)]


@pytest.mark.parametrize("condition", ["a AND 1 / 0 = 1",
                                       "a OR 1 / 0 = 1"])
def test_and_or_check_the_left_side_before_the_right_runs(condition):
    with pytest.raises(RuntimeExecError,
                       match="^AND/OR need boolean operands$"):
        run(f"SELECT id FROM t WHERE {condition}", table([5]))


@pytest.mark.parametrize("sql,message", [
    ("SELECT id FROM t WHERE a = 1 AND id", "AND/OR need boolean"),
    ("SELECT id FROM t WHERE a = 2 OR 'x'", "AND/OR need boolean"),
    ("SELECT id FROM t WHERE a IS NULL AND 1 / 0 = 1", "division by zero"),
    ("SELECT id FROM t WHERE a = 1 OR 1 / 0 = 1", "division by zero"),
])
def test_and_or_run_both_sides(sql, message):
    with pytest.raises(RuntimeExecError, match=message):
        run(sql, table([1]))


def test_and_or_three_valued():
    instance = table([True, False, None])
    rows = run("SELECT a AND TRUE, a AND FALSE, a AND NULL, a OR TRUE, "
               "a OR FALSE, a OR NULL FROM t", instance)
    assert rows == [(True, False, None, True, True, True),
                    (False, False, False, True, False, None),
                    (None, False, None, True, None, None)]


TWO_COLUMNS = SchemaDef(tables=(TableDef("t", ("id", "a", "b")),))
_LOOK_ALIKE = [None, True, False, 0, 1, 1.0, -0.0, 2.5, "x", "1"]
# each shape once with every operand a column of t
_SHAPES = [
    "{a} = 1", "1 < {a}", "{a} >= 'x'", "2.5 > {a}", "TRUE <> {a}",
    "{a} <= FALSE", "'1' = {a}", "{a} + 0 = 1", "2.5 > -{b}",
    "{a} = {b}", "{a} < {b}",
    "{a} AND {b}", "{a} OR {b}", "NOT {a}", "{a} AND {b} = 1",
    "{a} + {b}", "{a} - 1", "2 * {a}", "{a} / {b}", "{a} % {b}", "-{a}",
    "{a} || {b}", "{a} || 'y'",
    "{a} IS NULL", "{b} IS NOT NULL",
    "{a} IN (1, 'x', NULL)", "{a} NOT IN (0, {b})", "{a} IN (TRUE, 2.5)",
    "{a} BETWEEN 0 AND {b}", "{a} NOT BETWEEN {b} AND 2",
    "{a} LIKE 'x%'", "{a} LIKE {b}",
    "CASE WHEN {a} THEN 1 WHEN {b} THEN 2 ELSE 3 END",
    "CASE {a} WHEN 1 THEN 'one' WHEN {b} THEN 'b' END",
    "COALESCE({a}, {b}, 0)", "NULLIF({a}, {b})",
    "CAST({a} AS INT)", "CAST({a} AS TEXT)", "CAST({a} AS REAL)",
    "CAST({a} AS BOOLEAN)",
    "ARRAY[{a}, {b}]", "ARRAY[{a}] = ARRAY[{b}]", "ARRAY[{a}] < {b}",
    # an uncorrelated subquery reads no row: it runs once, in either
    "{a} IN (SELECT 1)", "{a} = (SELECT 2.5)", "EXISTS (SELECT 1) AND {a}",
    "{a} = (SELECT 1 UNION ALL SELECT 2)",
]


def outcome(sql, instance):
    """The rows by repr, so their types too, or the error raised."""
    try:
        return repr(run(sql, instance))
    except RuntimeExecError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_LOOK_ALIKE),
                          st.sampled_from(_LOOK_ALIKE)), max_size=5),
       st.sampled_from(_SHAPES), st.booleans())
def test_row_functions_match_context_closures(rows, shape, in_where):
    """Each shape runs on t's rows as the working row and in a scalar
    subquery that reads t's row as its enclosing row."""
    instance = instance_from_dict({"tables": {"t": {
        "columns": ["id", "a", "b"],
        "rows": [[i, a, b] for i, (a, b) in enumerate(rows)]}}}, TWO_COLUMNS)
    own = shape.format(a="a", b="b")
    outer = shape.format(a="t.a", b="t.b")
    if in_where:
        sqls = (f"SELECT id FROM t WHERE {own}",
                f"SELECT id FROM t WHERE (SELECT {outer})")
    else:
        sqls = f"SELECT {own} FROM t", f"SELECT (SELECT {outer}) FROM t"
    assert outcome(sqls[0], instance) == outcome(sqls[1], instance)


class TestEvaluationOrder:
    """Each per-row step runs over all its rows before the next step
    starts, so the error raised is the earlier step's."""

    @pytest.fixture
    def instance(self):
        # row 0 divides by zero, row 1 adds text
        return instance_from_dict({"tables": {"t": {
            "columns": ["id", "a", "b"],
            "rows": [[0, 0, 1], [1, "x", 0]]}}}, TWO_COLUMNS)

    @pytest.mark.parametrize("sql", [
        "SELECT 10 / a FROM t HAVING a + 1 > 0",
        "SELECT 10 / (SELECT t.a) FROM t HAVING (SELECT t.a) + 1 > 0",
    ])
    def test_having_filters_every_row_before_any_item(self, instance, sql):
        with pytest.raises(RuntimeExecError,
                           match="^operator \\+ needs numeric operands$"):
            run(sql, instance)

    @pytest.mark.parametrize("sql", [
        "SELECT a + 1 FROM t ORDER BY 10 / a",
        "SELECT (SELECT t.a + 1) FROM t ORDER BY (SELECT 10 / t.a)",
    ])
    def test_every_item_runs_before_any_hidden_key(self, instance, sql):
        with pytest.raises(RuntimeExecError,
                           match="^operator \\+ needs numeric operands$"):
            run(sql, instance)

    def test_items_raise_in_row_order(self, instance):
        with pytest.raises(RuntimeExecError, match="^division by zero$"):
            run("SELECT a + 1, 10 / a FROM t", instance)

    @pytest.mark.parametrize("sql", [
        "SELECT * FROM t x JOIN t y ON x.id = y.id AND 1 / y.b = 1",
        "SELECT * FROM t x JOIN t y ON x.id < y.id + 1 AND 1 / y.b = 1",
        "SELECT (SELECT COUNT(*) FROM t x JOIN t y "
        "ON x.id = y.id AND 1 / o.b = 1) FROM t o",
    ])
    def test_on_raises_on_a_pair_the_loop_reaches(self, instance, sql):
        with pytest.raises(RuntimeExecError, match="^division by zero$"):
            run(sql, instance)

    def test_probe_runs_as_each_left_row_comes(self, instance):
        # row 0 of x probes with 1, meets row 1 of y and divides by zero
        # in ON before row 1 of x probes with 'x' + 1
        with pytest.raises(RuntimeExecError, match="^division by zero$"):
            run("SELECT * FROM t x JOIN t y "
                "ON x.a + 1 = y.id AND 1 / y.b = 1", instance)

    def test_on_skips_pairs_the_keys_rule_out(self, instance):
        # y.b = 0 only in row 1, which the one row of x does not meet
        rows = run("SELECT x.id FROM (SELECT * FROM t WHERE id = 0) x "
                   "JOIN t y ON x.id = y.id AND 1 / y.b = 1", instance)
        assert rows == [(0,)]


class TestPlainColumnSteps:
    @pytest.fixture
    def grouped(self):
        schema = SchemaDef(tables=(TableDef("g", ("k", "v", "w")),))
        return schema, instance_from_dict({"tables": {"g": {
            "columns": ["k", "v", "w"],
            "rows": [[1, None, True], [1, None, 1], [2, 5, True],
                     [2, 7, 1.0], [3, None, None], [2, 1, True]]}}}, schema)

    def test_aggregates_over_an_empty_table(self):
        empty = table([])
        assert run("SELECT MAX(a), SUM(a), COUNT(a), COUNT(*) FROM t",
                   empty) == [(None, None, 0, 0)]
        assert run("SELECT MAX(a), SUM(a), COUNT(a) FROM t GROUP BY id",
                   empty) == []

    def test_aggregates_over_all_null_groups(self, grouped):
        _, instance = grouped
        rows = run("SELECT k, MAX(v), SUM(v), COUNT(v), COUNT(*), MIN(w) "
                   "FROM g GROUP BY k", instance)
        assert rows == [(1, None, None, 0, 2, True), (2, 7, 13, 3, 3, True),
                        (3, None, None, 0, 1, None)]

    def test_group_keys_keep_true_apart_from_one(self, grouped):
        _, instance = grouped
        assert run("SELECT w, COUNT(*) FROM g GROUP BY w", instance) == \
            [(True, 3), (1, 2), (None, 1)]
        assert run("SELECT k, w, COUNT(*) FROM g GROUP BY k, w",
                   instance) == [(1, True, 1), (1, 1, 1), (2, True, 2),
                                 (2, 1.0, 1), (3, None, 1)]

    def test_one_column_projection_gives_one_tuples(self):
        cells = [True, 1, None, "x"]
        rows = run("SELECT a FROM t", table(cells))
        assert rows == [(cell,) for cell in cells]
        assert all(type(row) is tuple for row in rows)

    def test_projection_reorders_and_repeats_columns(self):
        rows = run("SELECT a, id, a FROM t", table(["x", None]))
        assert rows == [("x", 0, "x"), (None, 1, None)]

    def test_sorting_a_projection_leaves_the_table_alone(self):
        instance = table([3, 1, 2])
        assert run("SELECT * FROM t ORDER BY a", instance) == \
            [(1, 1), (2, 2), (0, 3)]
        assert run("SELECT a FROM t ORDER BY a DESC", instance) == \
            [(3,), (2,), (1,)]
        assert run("SELECT * FROM t", instance) == [(0, 3), (1, 1), (2, 2)]


class TestValidationByColumn:
    """Instances are checked column by column, but a faulty one reports
    the first fault in row-major order, with the row-by-row message."""

    SCHEMA = SchemaDef(tables=(TableDef("t", ("a", "b")),))

    def load(self, rows):
        return instance_from_dict(
            {"tables": {"t": {"columns": ["a", "b"], "rows": rows}}},
            self.SCHEMA)

    @pytest.mark.parametrize("rows,message", [
        # a tuple row passes; the nested list in row 2 comes before the
        # arity fault of row 3
        ([[1, "x"], (2, "y"), [3, [4]], [5, 6, 7]], r"cell \[4\]"),
        ([[1, float("nan")], [1, 2, 3]], "cell nan"),
        ([[1, 2], [3], [{}, 1]], "row arity 1 != 2"),
        # row-major: the dict in row 0 before the list in row 1
        ([[1, {}], [[], 2]], r"cell \{\}"),
        ([[True, 2.5], [None, float("inf")], [5, "x"]], "cell inf"),
        ([[1, 2], 7, [1, [2]]], "row 7 is not a list"),
    ])
    def test_first_fault_in_row_major_order(self, rows, message):
        with pytest.raises(InstanceError, match=message):
            self.load(rows)

    def test_tuple_rows_are_accepted(self):
        instance = self.load([(1, "x"), [2.5, None], (True, -0.0)])
        assert instance.tables["t"][1] == [(1, "x"), (2.5, None),
                                           (True, -0.0)]

    def test_rows_become_tuples(self):
        instance = self.load([[1, "x"], [None, 0.5]])
        rows = instance.tables["t"][1]
        assert rows == [(1, "x"), (None, 0.5)]
        assert all(type(row) is tuple for row in rows)
