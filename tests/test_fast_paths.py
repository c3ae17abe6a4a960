"""The executor's fast paths give exactly what the general closures give:
a column compared with a literal, AND/OR, plain-column projections,
group keys and aggregate arguments, and instances validated by column."""

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
    value = _LITERALS[literal]
    if literal_first:
        fast, general = f"{literal} {op} a", f"{literal} {op} COALESCE(a, a)"
        expected = [None if cell is None else _OPS[op](value, cell)
                    for cell in cells]
    else:
        fast, general = f"a {op} {literal}", f"COALESCE(a, a) {op} {literal}"
        expected = [None if cell is None else _OPS[op](cell, value)
                    for cell in cells]
    instance = table(cells)
    got = run(f"SELECT {fast}, {general} FROM t", instance)
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
    # a NULL literal takes the general path and matches nothing
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
