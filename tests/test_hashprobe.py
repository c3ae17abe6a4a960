"""Hash probes in the executor: binder correlation flags, subqueries
that run once, and the hashed paths checked against stdlib sqlite3, the
queryfam reference and the nested loop."""

import random
import re
import sqlite3
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import queryfam
from sqleq import interpreter
from sqleq.ast_nodes import (
    Cte, DerivedTable, Exists, InSubquery, Join, SelectCore, Subquery,
    TableRef, walk,
)
from sqleq.binder import bind
from sqleq.errors import RuntimeExecError
from sqleq.executor import execute, instance_from_dict
from sqleq.parser import parse_sql
from sqleq.schema import SchemaDef, TableDef, schema_from_dict

LR = SchemaDef(tables=(TableDef("l", ("k", "v")), TableDef("r", ("k", "w"))))
EMP_DEPT = SchemaDef(tables=(
    TableDef("emp", ("eid", "dept", "grade", "salary")),
    TableDef("dept", ("did", "grade", "name", "budget"))))


def lr_instance(l_rows, r_rows):
    return instance_from_dict({"tables": {
        "l": {"columns": ["k", "v"], "rows": l_rows},
        "r": {"columns": ["k", "w"], "rows": r_rows}}}, LR)


def emp_dept_instance(emp, dept):
    return instance_from_dict({"tables": {
        "emp": {"columns": ["eid", "dept", "grade", "salary"], "rows": emp},
        "dept": {"columns": ["did", "grade", "name", "budget"],
                 "rows": dept}}}, EMP_DEPT)


def subqueries(ast):
    """Statements of the expression subqueries of `ast`, in source order."""
    return [node.query for node in walk(ast)
            if isinstance(node, (Exists, InSubquery, Subquery))]


def from_items(ast):
    return [node.from_item for node in walk(ast)
            if isinstance(node, SelectCore) and node.from_item is not None]


class TestCorrelationFlags:
    def test_uncorrelated_subquery(self):
        ast = parse_sql("SELECT k FROM l WHERE k IN (SELECT r.k FROM r "
                        "WHERE r.w = 'x')")
        assert bind(ast, LR).correlated == set()

    def test_reference_two_levels_out_flags_every_level_between(self):
        ast = parse_sql("SELECT k FROM l WHERE EXISTS (SELECT 1 FROM r "
                        "WHERE EXISTS (SELECT 1 FROM r AS r2 "
                        "WHERE r2.w = l.v))")
        middle, inner = subqueries(ast)
        flags = bind(ast, LR).correlated
        assert id(middle) in flags and id(inner) in flags
        assert all(id(item) not in flags for item in from_items(ast))

    def test_correlation_only_through_a_derived_table(self):
        ast = parse_sql("SELECT k FROM l WHERE EXISTS (SELECT 1 FROM "
                        "(SELECT r.w FROM r WHERE r.k = l.k) d)")
        (sub,) = subqueries(ast)
        derived = sub.body.from_item
        assert isinstance(derived, DerivedTable)
        flags = bind(ast, LR).correlated
        assert flags == {id(sub), id(derived)}

    def test_correlation_only_through_a_subquery_on(self):
        ast = parse_sql("SELECT k FROM l WHERE EXISTS (SELECT 1 FROM r "
                        "JOIN r AS r2 ON r2.k = l.k)")
        (sub,) = subqueries(ast)
        join = sub.body.from_item
        assert isinstance(join, Join)
        flags = bind(ast, LR).correlated
        assert flags == {id(sub), id(join)}
        assert isinstance(join.left, TableRef) and id(join.left) not in flags

    def test_cte_and_limit_inside_a_subquery_read_no_enclosing_row(self):
        ast = parse_sql("SELECT k FROM l WHERE k IN (WITH c AS "
                        "(SELECT k FROM r) SELECT k FROM c "
                        "LIMIT (SELECT COUNT(*) FROM r))")
        assert bind(ast, LR).correlated == set()

    def test_lowest_level_is_kept_across_siblings(self):
        # the first EXISTS is uncorrelated; the second reads l
        ast = parse_sql("SELECT k FROM l WHERE EXISTS (SELECT 1 FROM r) "
                        "AND EXISTS (SELECT 1 FROM r WHERE r.k = l.k)")
        first, second = subqueries(ast)
        assert bind(ast, LR).correlated == {id(second)}


def count_runs(monkeypatch, query):
    """Count the _exec_stmt calls that run `query`."""
    calls = Counter()
    real = interpreter._exec_stmt

    def counting(stmt, env, outer_ctx):
        calls[id(stmt)] += 1
        return real(stmt, env, outer_ctx)

    monkeypatch.setattr(interpreter, "_exec_stmt", counting)
    return lambda: calls[id(query)]


def record_index_builds(monkeypatch):
    """List that gets the row count of every _Index built."""
    built = []

    class Recording(interpreter._Index):
        __slots__ = ()

        def __init__(self, rows, *args):
            built.append(len(rows))
            super().__init__(rows, *args)

    monkeypatch.setattr(interpreter, "_Index", Recording)
    return built


class TestRunOnce:
    INST = [[1, "a"], [2, "b"], [None, "n"]], [[1, "x"], [1, "y"], [3, "z"]]

    @pytest.mark.parametrize("sql", [
        "SELECT k FROM l WHERE k IN (SELECT k FROM r)",
        "SELECT k FROM l WHERE k NOT IN (SELECT k FROM r)",
        "SELECT k FROM l WHERE EXISTS (SELECT 1 FROM r WHERE w = 'z')",
        "SELECT k, (SELECT MAX(k) FROM r) FROM l",
        "SELECT k FROM l WHERE k < ALL (SELECT k FROM r)",
    ])
    def test_uncorrelated_subquery_runs_once_per_execute(
            self, monkeypatch, sql):
        ast = parse_sql(sql)
        (sub,) = subqueries(ast)
        runs = count_runs(monkeypatch, sub)
        inst = lr_instance(*self.INST)
        first = execute(ast, inst).rows
        assert runs() == 1
        assert execute(ast, inst).rows == first
        assert runs() == 2

    def test_correlated_subquery_runs_per_outer_row(self, monkeypatch):
        ast = parse_sql("SELECT k FROM l WHERE EXISTS "
                        "(SELECT 1 FROM r WHERE r.k = l.k)")
        (sub,) = subqueries(ast)
        runs = count_runs(monkeypatch, sub)
        assert execute(ast, lr_instance(*self.INST)).rows == [(1,)]
        assert runs() == 3

    def test_two_row_scalar_subquery_raises_only_when_reached(
            self, monkeypatch):
        ast = parse_sql("SELECT k, (SELECT k FROM r) FROM l")
        (sub,) = subqueries(ast)
        runs = count_runs(monkeypatch, sub)
        with pytest.raises(RuntimeExecError, match="more than one row"):
            execute(ast, lr_instance(*self.INST))
        assert runs() == 1
        assert execute(ast, lr_instance([], self.INST[1])).rows == []
        assert runs() == 1

    def test_correlated_core_builds_its_index_once(self, monkeypatch):
        ast = parse_sql("SELECT k FROM l WHERE EXISTS (SELECT 1 FROM r "
                        "WHERE r.k = l.k AND r.w <> 'y')")
        built = record_index_builds(monkeypatch)
        assert execute(ast, lr_instance(*self.INST)).rows == [(1,)]
        assert built == [3]

    def test_cte_in_a_correlated_subquery_runs_once(self, monkeypatch):
        ast = parse_sql("SELECT k FROM l WHERE EXISTS (WITH c AS "
                        "(SELECT k FROM r WHERE w <> 'y') "
                        "SELECT 1 FROM c WHERE c.k = l.k)")
        (cte,) = [node for node in walk(ast) if isinstance(node, Cte)]
        runs = count_runs(monkeypatch, cte.query)
        assert execute(ast, lr_instance(*self.INST)).rows == [(1,)]
        assert runs() == 1

    def test_uncorrelated_derived_table_of_a_correlated_core_runs_once(
            self, monkeypatch):
        ast = parse_sql("SELECT k FROM l WHERE EXISTS (SELECT 1 FROM "
                        "(SELECT k FROM r) x WHERE x.k > l.k)")
        (derived,) = [item for item in from_items(ast)
                      if isinstance(item, DerivedTable)]
        runs = count_runs(monkeypatch, derived.query)
        assert execute(ast, lr_instance(*self.INST)).rows == [(1,), (2,)]
        assert runs() == 1

    def test_uncorrelated_join_of_a_correlated_core_builds_once(
            self, monkeypatch):
        ast = parse_sql("SELECT k FROM l WHERE EXISTS (SELECT 1 FROM r "
                        "JOIN r AS r2 ON r.k = r2.k WHERE r2.k > l.k)")
        built = record_index_builds(monkeypatch)
        assert execute(ast, lr_instance(*self.INST)).rows == [(1,), (2,)]
        assert built == [3]

    def test_correlated_derived_table_probes_an_index_per_outer_row(
            self, monkeypatch):
        # l = (1, a), (2, b), (NULL, n): the derived table keeps r's rows
        # 1 and 3, all three for b; only l's key 1 meets one of them
        ast = parse_sql("SELECT l.k, (SELECT COUNT(*) FROM (SELECT r.k "
                        "FROM r WHERE r.w <> 'y' OR l.v = 'b') x "
                        "WHERE x.k = l.k) FROM l")
        built = record_index_builds(monkeypatch)
        assert execute(ast, lr_instance(*self.INST)).rows == [
            (1, 1), (2, 0), (None, 0)]
        assert built == [2, 3, 2]


    @pytest.mark.parametrize("op", ["AND", "OR"])
    def test_non_boolean_left_operand_raises_before_right_runs(
            self, monkeypatch, op):
        ast = parse_sql(f"SELECT k FROM l WHERE k {op} EXISTS "
                        "(SELECT 1 FROM r WHERE r.k = l.k)")
        (sub,) = subqueries(ast)
        runs = count_runs(monkeypatch, sub)
        with pytest.raises(RuntimeExecError, match="AND/OR need boolean"):
            execute(ast, lr_instance(*self.INST))
        assert runs() == 0

    @pytest.mark.parametrize("op", ["AND", "OR"])
    def test_right_operand_runs_whatever_the_left_answers(
            self, monkeypatch, op):
        ast = parse_sql(f"SELECT k FROM l WHERE k = 1 {op} EXISTS "
                        "(SELECT 1 FROM r WHERE r.k = l.k)")
        (sub,) = subqueries(ast)
        runs = count_runs(monkeypatch, sub)
        assert execute(ast, lr_instance(*self.INST)).rows == [(1,)]
        assert runs() == 3

# --- hashed path against stdlib sqlite3 ---

def seeded_emp_dept(seed, n_emp, n_dept):
    """emp/dept rows with 5% NULL keys, duplicate keys (domain half the
    dept size) and a fifth of the keys stored as reals (1.0 for 1)."""
    rng = random.Random(seed)
    domain = max(2, n_dept // 2)

    def key():
        draw = rng.random()
        if draw < 0.05:
            return None
        value = rng.randrange(domain)
        return float(value) if draw < 0.25 else value

    emp = [[i, key(), rng.randrange(3), rng.choice([None, *range(100)])]
           for i in range(n_emp)]
    dept = [[key(), rng.randrange(3), f"d{i}", rng.randrange(100)]
            for i in range(n_dept)]
    return emp, dept


SQLITE_QUERIES = [
    *(f"SELECT e.eid, e.dept, d.did, d.name FROM emp e {kind} JOIN dept d "
      f"ON {on}"
      for kind in ("INNER", "LEFT", "RIGHT", "FULL")
      for on in ("e.dept = d.did",
                 "e.dept = d.did AND d.grade = e.grade",
                 "d.did = e.dept AND e.salary > d.budget")),
    "SELECT e.eid FROM emp e WHERE e.dept IN (SELECT d.did FROM dept d)",
    "SELECT e.eid FROM emp e WHERE e.dept NOT IN (SELECT d.did FROM dept d)",
    "SELECT e.eid FROM emp e WHERE e.dept NOT IN "
    "(SELECT d.did FROM dept d WHERE d.did IS NOT NULL AND d.budget > 20)",
    "SELECT e.eid FROM emp e WHERE EXISTS (SELECT 1 FROM dept d "
    "WHERE d.did = e.dept AND d.budget > 50)",
    "SELECT e.eid FROM emp e WHERE NOT EXISTS (SELECT 1 FROM dept d "
    "WHERE d.did = e.dept AND d.grade = e.grade)",
    "SELECT d.did, (SELECT MAX(e.salary) FROM emp e WHERE e.dept = d.did) "
    "FROM dept d",
    "SELECT d.name, (SELECT COUNT(*) FROM emp e "
    "WHERE e.dept = d.did AND e.grade = d.grade) FROM dept d",
    # FROM items of correlated subqueries
    "SELECT e.eid FROM emp e WHERE EXISTS (WITH x AS (SELECT did FROM dept "
    "WHERE budget > 20) SELECT 1 FROM x WHERE x.did = e.dept)",
    "SELECT d.did, (SELECT COUNT(*) FROM (SELECT dept FROM emp "
    "WHERE salary > 30) x WHERE x.dept = d.did) FROM dept d",
    "SELECT e.eid FROM emp e WHERE EXISTS (SELECT 1 FROM dept d "
    "JOIN emp e2 ON e2.dept = d.did "
    "WHERE d.did = e.dept AND e2.grade = e.grade)",
    "SELECT e.eid FROM emp e WHERE e.grade IN (SELECT x.grade FROM "
    "(SELECT did, grade FROM dept WHERE budget < 70) x "
    "WHERE x.did = e.dept)",
    "SELECT d.did, (SELECT MAX(x.salary) FROM (SELECT salary FROM emp "
    "WHERE grade > 0) x WHERE x.salary > d.budget) FROM dept d",
]


def canon_row(row):
    return tuple(("null",) if v is None else
                 ("num", float(v)) if isinstance(v, (int, float)) else
                 ("txt", v) for v in row)


def empty_results_matching_sqlite(emp, dept):
    """Run SQLITE_QUERIES on both engines, assert equal multisets and
    return how many results were empty."""
    inst = emp_dept_instance(emp, dept)
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE emp (eid, dept, grade, salary)")
    conn.execute("CREATE TABLE dept (did, grade, name, budget)")
    conn.executemany("INSERT INTO emp VALUES (?, ?, ?, ?)", emp)
    conn.executemany("INSERT INTO dept VALUES (?, ?, ?, ?)", dept)
    empty = 0
    for sql in SQLITE_QUERIES:
        ours = execute(parse_sql(sql), inst).rows
        theirs = conn.execute(sql).fetchall()
        assert Counter(map(canon_row, ours)) == \
            Counter(map(canon_row, theirs)), sql
        empty += not ours
    return empty


@pytest.mark.parametrize("n_emp,n_dept", [(1000, 1000), (40, 12)])
def test_hashed_paths_match_sqlite(n_emp, n_dept):
    emp, dept = seeded_emp_dept(n_emp * 7 + n_dept, n_emp, n_dept)
    assert any(isinstance(row[1], float) for row in emp)
    assert any(row[0] is None for row in dept)
    empty = empty_results_matching_sqlite(emp, dept)
    if n_emp == 1000:
        assert empty == 1  # only NOT IN over a NULL did


def test_empty_dept_matches_sqlite():
    """`x IN (empty)` is FALSE and `x NOT IN (empty)` TRUE for every x,
    a NULL x included."""
    emp, _ = seeded_emp_dept(11, 40, 12)
    assert any(row[1] is None for row in emp)
    empty_results_matching_sqlite(emp, [])
    inst = emp_dept_instance(emp, [])
    not_in = execute(parse_sql("SELECT e.eid FROM emp e WHERE e.dept NOT IN "
                               "(SELECT d.did FROM dept d)"), inst).rows
    assert len(not_in) == len(emp)


def test_queryfam_joins_at_200_rows_match_reference():
    schema = schema_from_dict(queryfam.schema_dict())
    for seed in range(12):
        rng = random.Random(f"join200-{seed}")
        instance_dict = queryfam.random_instance(rng, max_rows=200)
        query = queryfam._gen_join(rng)
        if query["jkind"] == "cross":
            continue  # no condition to hash; criterion 7 covers it
        sql = queryfam.to_sql(query)
        result = execute(parse_sql(sql),
                         instance_from_dict(instance_dict, schema))
        rows, ordered, _cols = queryfam.reference_eval(query, instance_dict)
        if ordered:
            assert result.rows == rows, sql
        else:
            def canon(row):
                return tuple(queryfam._rcanon(v) for v in row)
            assert sorted(result.rows, key=canon) == \
                sorted(rows, key=canon), sql


# --- hashed path against the nested loop ---

TWIN_QUERIES = [
    *(f"SELECT e.eid, e.dept, d.did, d.name FROM emp e {kind} JOIN dept d "
      f"ON {on}"
      for kind in ("INNER", "LEFT", "RIGHT", "FULL")
      for on in ("[e.dept = d.did]",
                 "[e.dept = d.did] AND [d.grade = e.grade]",
                 "[d.did = e.dept] AND e.salary > d.budget")),
    "SELECT e.eid FROM emp e WHERE EXISTS (SELECT 1 FROM dept d "
    "WHERE [d.did = e.dept] AND d.budget > 1)",
    "SELECT e.eid FROM emp e WHERE NOT EXISTS (SELECT 1 FROM dept d "
    "WHERE [d.did = e.dept] AND [e.grade = d.grade])",
    "SELECT d.did, (SELECT MAX(e.salary) FROM emp e "
    "WHERE [e.dept = d.did]) FROM dept d",
    "SELECT d.name, (SELECT COUNT(*) FROM emp e WHERE [e.dept = d.did]) "
    "FROM dept d",
    "SELECT e.eid FROM emp e JOIN dept d ON [e.dept = d.did] "
    "WHERE EXISTS (SELECT 1 FROM emp e2 WHERE [e2.grade = d.grade] "
    "AND [e2.dept = e.dept]) LIMIT 5",
]
# IN against a correlated twin: the always-true `e.eid IS NULL OR ...`
# makes the subquery read the outer row, so it runs for every outer row
IN_QUERIES = [
    ("SELECT e.eid FROM emp e WHERE e.dept {op} (SELECT d.did FROM dept d)",
     "SELECT e.eid FROM emp e WHERE e.dept {op} (SELECT d.did FROM dept d "
     "WHERE e.eid IS NULL OR e.eid IS NOT NULL)"),
]
KEYS = st.sampled_from([None, 0, 1, 1.0, 2, 2.0, True, False, "1"])
SMALL = st.sampled_from([None, 0, 1, 2])


def hashed_and_twin(template):
    equality = re.compile(r"\[(\S+) = (\S+)\]")
    return (equality.sub(r"\1 = \2", template),
            equality.sub(r"NOT (\1 <> \2)", template))


@settings(max_examples=60, deadline=None)
@given(emp=st.lists(st.tuples(st.integers(0, 9), KEYS, KEYS, SMALL),
                    max_size=7),
       dept=st.lists(st.tuples(KEYS, KEYS, st.sampled_from(["a", "b"]),
                               SMALL), max_size=7))
def test_hashed_path_equals_nested_loop(emp, dept):
    inst = emp_dept_instance([list(row) for row in emp],
                             [list(row) for row in dept])
    pairs = [hashed_and_twin(t) for t in TWIN_QUERIES] + [
        (hashed.format(op=op), twin.format(op=op))
        for hashed, twin in IN_QUERIES for op in ("IN", "NOT IN")]
    for hashed, twin in pairs:
        # repr tells 1, 1.0 and TRUE apart
        assert repr(execute(parse_sql(hashed), inst).rows) == \
            repr(execute(parse_sql(twin), inst).rows), hashed


def test_equality_conjuncts_pick_the_hashed_path(monkeypatch):
    built = record_index_builds(monkeypatch)
    inst = lr_instance([[1, "a"], [2, "b"]], [[1, "x"], [3, "z"]])
    for sql, hashed in [
            ("SELECT l.v FROM l JOIN r ON l.k = r.k AND r.w <> 'q'", True),
            ("SELECT l.v FROM l JOIN r ON r.k + 0 = l.k * 1", True),
            ("SELECT l.v FROM l JOIN r ON NOT (l.k <> r.k)", False),
            ("SELECT l.v FROM l JOIN r ON l.k = r.k OR l.k = 5", False),
            ("SELECT l.v FROM l JOIN r ON l.k < r.k", False),
            ("SELECT l.v FROM l JOIN r ON l.k = l.k", False),
            ("SELECT l.v FROM l JOIN r ON r.k = (SELECT MAX(k) FROM l)",
             False),
            ("SELECT l.v FROM l LEFT JOIN r ON l.k = r.k", True),
            ("SELECT l.v FROM l JOIN r ON l.k = r.k", True)]:
        built.clear()
        execute(parse_sql(sql), inst)
        assert bool(built) == hashed, sql
    built.clear()
    execute(parse_sql("SELECT l.v FROM l JOIN r ON l.k = r.k"),
            lr_instance([], [[1, "x"]]))
    assert built == []  # no key is evaluated against an empty side


def test_twin_queries_take_the_correlated_path():
    for template in TWIN_QUERIES:
        ast = parse_sql(hashed_and_twin(template)[0])
        flags = bind(ast, EMP_DEPT).correlated
        for node in walk(ast):
            if isinstance(node, Exists):
                assert id(node.query) in flags
