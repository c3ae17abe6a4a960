import itertools
import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import corpusqueries as corpus
from sqleq.errors import InstanceError
from sqleq.executor import ResultTable, instance_from_dict
from sqleq.oracle import Comparison, compare_results, oracle_check
from sqleq.schema import SchemaDef, TableDef


# near-equal values, so that perturbed copies cross in sort order
_REALS = st.one_of(
    st.sampled_from([0.3, 0.1 + 0.2, 1.0, 1.0 + 6e-10, -2.5, 0.0]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


# cells that look alike: a cell is swapped for any member of its group,
# equal or not under the documented rule
_LOOKALIKES = [
    [0.3, 0.1 + 0.2],
    [1.0, 1.0 + 6e-10, 1.0 - 6e-10, 1, True],
    [0, 0.0, False],
    [2, 2.0],
    ["x", "y"],
]
_CELLS = st.recursive(
    st.sampled_from([None] + [cell for group in _LOOKALIKES
                              for cell in group]),
    lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=4)


def _same_cell(a, b):
    """The documented rule, written out: NULL = NULL, TRUE <> 1,
    1 = 1.0, reals within 1e-9 relative, arrays element-wise."""
    if a is None or b is None:
        return a is None and b is None
    if type(a) is tuple or type(b) is tuple:
        return type(a) is type(b) and len(a) == len(b) and \
            all(map(_same_cell, a, b))
    if type(a) in (bool, str) or type(b) in (bool, str):
        return type(a) is type(b) and a == b
    if type(a) is int and type(b) is int:
        return a == b
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _same_rows(rows1, rows2, ordered):
    """Brute force: some permutation of `rows2` (the identity, when
    ordered) matches `rows1` cell by cell."""
    if len(rows1) != len(rows2):
        return False
    arrangements = [rows2] if ordered else itertools.permutations(rows2)
    return any(all(_same_cell(a, b)
                   for row1, row2 in zip(rows1, arranged)
                   for a, b in zip(row1, row2))
               for arranged in arrangements)


def _lookalike(cell, pick):
    if type(cell) is tuple:
        return tuple(_lookalike(c, pick) for c in cell)
    for group in _LOOKALIKES:
        if any(type(c) is type(cell) and c == cell for c in group):
            return pick(group)
    return cell


def table(rows, ncols=None, ordered=False):
    ncols = ncols if ncols is not None else (len(rows[0]) if rows else 1)
    return ResultTable(column_count=ncols, rows=rows, ordered=ordered)


@pytest.fixture
def witness_schema():
    return SchemaDef(tables=(
        TableDef("batting", ("playerid", "yearid", "cs")),
        TableDef("people", ("playerid", "namefirst", "namelast")),
    ))


def baseball_instance(schema, batting_rows):
    return instance_from_dict({"tables": {
        "batting": {"columns": ["playerid", "yearid", "cs"],
                    "rows": batting_rows},
        "people": {"columns": ["playerid", "namefirst", "namelast"],
                   "rows": [["p1", "Alice", "Smith"]]},
    }}, schema)


def _squared(times):
    """`a` squared `times` times, as nested products."""
    sql = "a"
    for _ in range(times):
        sql = f"({sql}) * ({sql})"
    return sql


def _big_instance():
    # a squared five times is past float range, ten times past the
    # interpreter's 4300-digit limit on int-to-text conversion
    schema = SchemaDef(tables=(TableDef("t", ("a", "b")),))
    return instance_from_dict({"tables": {"t": {
        "columns": ["a", "b"], "rows": [[10 ** 18, 1.5]]}}}, schema)


class TestCompareResults:
    def test_multiset_ignores_order_when_unordered(self):
        r1 = table([(1,), (2,)])
        r2 = table([(2,), (1,)])
        assert compare_results(r1, r2).identical

    def test_ordered_pair_respects_order(self):
        r1 = table([(1,), (2,)], ordered=True)
        r2 = table([(2,), (1,)], ordered=True)
        outcome = compare_results(r1, r2)
        assert not outcome.identical
        assert "order" in outcome.reason

    def test_arity_mismatch(self):
        outcome = compare_results(table([(1, 2, 3)]), table([(1, 2, 3, 4)]))
        assert not outcome.identical
        assert "column count" in outcome.reason

    def test_duplicates_matter_in_bags(self):
        assert not compare_results(table([(1,), (1,)]),
                                   table([(1,)])).identical

    @pytest.mark.parametrize("a,b", [((1,), (2,)), (("x", 1), ("x", 2)),
                                     ((True,), (1,))])
    def test_multiplicities_matter_with_equal_row_sets(self, a, b):
        outcome = compare_results(table([a, a, b]), table([a, b, b]))
        assert not outcome.identical
        assert outcome.reason == "multiset contents differ"

    def test_nulls_equal_in_results(self):
        assert compare_results(table([(None,)]), table([(None,)])).identical

    def test_real_tolerance(self):
        assert compare_results(table([(0.1 + 0.2,)]),
                               table([(0.3,)])).identical
        assert not compare_results(table([(0.3,)]),
                                   table([(0.301,)])).identical

    def test_int_float_equal(self):
        assert compare_results(table([(1,)]), table([(1.0,)])).identical

    def test_mixed_ordered_unordered_warns_and_compares_multiset(self):
        r1 = table([(1,), (2,)], ordered=True)
        r2 = table([(2,), (1,)], ordered=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = compare_results(r1, r2)
        assert outcome.identical
        assert caught and "multiset" in str(caught[0].message)

    def test_column_names_never_matter(self):
        # ResultTable carries no names at all: comparison is positional
        assert compare_results(table([(1, "a")]), table([(1, "a")])).identical

    def test_int_beyond_float_range_matches_only_itself(self):
        huge = 10 ** 400
        r1 = table([(huge,), (0.3,)])
        assert compare_results(r1, table([(0.1 + 0.2,), (huge,)])).identical
        assert not compare_results(r1, table([(0.3,), (1e308,)])).identical
        assert not compare_results(table([(huge,)], ordered=True),
                                   table([(1.5,)], ordered=True)).identical

    def test_reals_match_across_exact_columns(self):
        # sorting first would pair 0.1 + 0.2 with 0.3 under different
        # text values; each text value must find its own close real
        r1 = table([(0.1 + 0.2, "b"), (0.3, "a")])
        r2 = table([(0.3, "b"), (0.1 + 0.2, "a")])
        assert compare_results(r1, r2).identical
        assert not compare_results(r1, table([(0.3, "b"), (0.4, "a")])).identical

    @pytest.mark.parametrize("ordered", [False, True])
    @pytest.mark.parametrize("rows1,rows2,identical", [
        ([(True,)], [(1,)], False),
        ([(True, "a"), (1, "a")], [(1, "a"), (True, "a")], None),
        ([(True,), (1,)], [(1.0,), (1,)], False),
        ([((True,),)], [((1,),)], False),
        ([((1, False),), ((True, 0),)], [((1, False),), ((True, 0),)], True),
        ([(True, 0.3), (1, 0.5)], [(True, 0.1 + 0.2), (1, 0.5)], True),
        ([(True, 0.3), (1, 0.5)], [(1, 0.1 + 0.2), (True, 0.5)], False),
    ])
    def test_booleans_stay_apart_from_numbers(self, rows1, rows2,
                                              identical, ordered):
        """Python's == takes TRUE for 1; a column holding both keeps them
        apart, ordered or not, inside arrays too. None: identical only as
        multisets."""
        if identical is None:
            identical = not ordered
        outcome = compare_results(table(rows1, ordered=ordered),
                                  table(rows2, ordered=ordered))
        assert outcome.identical == identical
        if not identical:
            assert outcome.reason == ("row order differ" if ordered
                                      else "multiset contents differ")

    @given(st.lists(st.tuples(st.sampled_from(["x", "y", None]),
                              _REALS, _REALS), max_size=8),
           st.lists(st.floats(-4e-10, 4e-10), min_size=16, max_size=16),
           st.randoms(use_true_random=False))
    def test_permuted_perturbed_reals_never_refute(self, rows, deltas, rnd):
        # within 4e-10 relative of the original is within REAL_REL_TOL
        perturbed = [(text, x * (1 + deltas[2 * i]),
                      y * (1 + deltas[2 * i + 1]))
                     for i, (text, x, y) in enumerate(rows)]
        rnd.shuffle(perturbed)
        assert compare_results(table(rows, ncols=3),
                               table(perturbed, ncols=3)).identical

    @given(st.lists(st.tuples(st.integers(-3, 3),
                              st.sampled_from(["x", "y"])), max_size=5),
           st.lists(st.tuples(st.integers(-3, 3),
                              st.sampled_from(["x", "y"])), max_size=5))
    def test_symmetric(self, rows1, rows2):
        r1 = table(rows1, ncols=2)
        r2 = table(rows2, ncols=2)
        assert compare_results(r1, r2).identical == \
            compare_results(r2, r1).identical

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3), st.booleans(), st.data())
    def test_matches_brute_force_reference(self, width, ordered, data):
        rows = st.lists(st.tuples(*[_CELLS] * width), max_size=5)
        rows1 = data.draw(rows)
        if data.draw(st.booleans()):
            rows2 = data.draw(rows)
        else:
            # a permuted copy with cells swapped for look-alikes
            rows2 = [tuple(_lookalike(cell, lambda group: data.draw(
                st.sampled_from(group))) for cell in row)
                for row in data.draw(st.permutations(rows1))]
        outcome = compare_results(table(rows1, width, ordered),
                                  table(rows2, width, ordered))
        assert outcome.identical == _same_rows(rows1, rows2, ordered)


class TestOracleCheck:
    def test_witness_refutes_assignment_pair(self, witness_schema):
        witness = baseball_instance(
            witness_schema, [["p1", 2000, 2], ["p1", 2001, 3]])
        outcome = oracle_check(corpus.CAUGHT_STEALING_CTE,
                               corpus.CAUGHT_STEALING_JOIN, [witness])
        assert outcome.status == "refuted"
        assert outcome.witness_index == 0

    def test_single_row_instance_is_consistent(self, witness_schema):
        single = baseball_instance(witness_schema, [["p1", 2000, 2]])
        outcome = oracle_check(corpus.CAUGHT_STEALING_CTE,
                               corpus.CAUGHT_STEALING_JOIN, [single])
        assert outcome.status == "consistent"

    def test_refuted_on_later_instance_reports_index(self, witness_schema):
        single = baseball_instance(witness_schema, [["p1", 2000, 2]])
        witness = baseball_instance(
            witness_schema, [["p1", 2000, 2], ["p1", 2001, 3]])
        outcome = oracle_check(corpus.CAUGHT_STEALING_CTE,
                               corpus.CAUGHT_STEALING_JOIN,
                               [single, witness])
        assert outcome.status == "refuted"
        assert outcome.witness_index == 1

    def test_an_instance_that_did_not_load_keeps_its_index(
            self, witness_schema):
        single = baseball_instance(witness_schema, [["p1", 2000, 2]])
        witness = baseball_instance(
            witness_schema, [["p1", 2000, 2], ["p1", 2001, 3]])
        broken = InstanceError("instance must be a JSON object")
        outcome = oracle_check(corpus.CAUGHT_STEALING_CTE,
                               corpus.CAUGHT_STEALING_JOIN,
                               [single, broken, witness])
        assert (outcome.status, outcome.witness_index, outcome.errors) == \
            ("refuted", 2, ("instance 1: instance must be a JSON object",))
        outcome = oracle_check(corpus.CAUGHT_STEALING_CTE,
                               corpus.CAUGHT_STEALING_JOIN, [broken, single])
        assert (outcome.status, outcome.errors) == \
            ("inconclusive", ("instance 0: instance must be a JSON object",))

    def test_like_percent_matches_a_newline(self):
        schema = SchemaDef(tables=(TableDef("t", ("id", "s")),))
        instance = instance_from_dict({"tables": {"t": {
            "columns": ["id", "s"], "rows": [[1, "a\nb"], [2, "ab"]]}}},
            schema)
        outcome = oracle_check("SELECT id FROM t WHERE s LIKE '%'",
                               "SELECT id FROM t WHERE s IS NOT NULL",
                               [instance])
        assert outcome.status == "consistent", outcome.reason

    def test_identical_queries_consistent(self, witness_schema):
        instance = baseball_instance(witness_schema, [["p1", 2000, 2]])
        outcome = oracle_check("SELECT playerid FROM people",
                               "SELECT playerid FROM people", [instance])
        assert outcome.status == "consistent"

    def test_recursive_cte_inconclusive(self, witness_schema):
        schema = SchemaDef(tables=(TableDef("graph1", ("p1", "p2", "w")),))
        instance = instance_from_dict({"tables": {
            "graph1": {"columns": ["p1", "p2", "w"],
                       "rows": [["a", "b", 1]]},
        }}, schema)
        outcome = oracle_check(corpus.PATH_EXISTS_RECURSIVE,
                               corpus.PATH_EXISTS_RECURSIVE, [instance])
        assert outcome.status == "inconclusive"
        assert any("UnsupportedFeature" in e for e in outcome.errors)

    def test_name_error_inconclusive_even_on_empty_tables(
            self, witness_schema):
        empty = instance_from_dict({"tables": {}}, witness_schema)
        outcome = oracle_check("SELECT zz FROM batting",
                               "SELECT cs FROM batting", [empty])
        assert outcome.status == "inconclusive"
        assert any("UnresolvedName" in e for e in outcome.errors)

    def test_not_in_empty_subquery_keeps_null_operand(self):
        """`NULL NOT IN (empty)` is TRUE, as in sqlite3, so NOT IN and
        NOT EXISTS agree when `dept` is empty."""
        schema = SchemaDef(tables=(TableDef("emp", ("eid", "dept")),
                                   TableDef("dept", ("did",))))
        instance = instance_from_dict({"tables": {
            "emp": {"columns": ["eid", "dept"], "rows": [[1, None], [2, 5]]},
            "dept": {"columns": ["did"], "rows": []},
        }}, schema)
        outcome = oracle_check(
            "SELECT e.eid FROM emp e WHERE e.dept NOT IN "
            "(SELECT d.did FROM dept d)",
            "SELECT e.eid FROM emp e WHERE NOT EXISTS "
            "(SELECT 1 FROM dept d WHERE d.did = e.dept)", [instance])
        assert outcome.status == "consistent", outcome.reason

    @pytest.mark.parametrize("sql,message", [
        ("SELECT a * 1e308 * 10 - a * 1e308 * 10 FROM t",
         "operator * gives a non-finite number"),
        ("SELECT a * 1e308 * 10 FROM t WHERE a > 1",
         "operator * gives a non-finite number"),
        ("SELECT a + 1e308 + 1e308 FROM t", "operator + gives a non-finite"),
        ("SELECT a / 1e-308 / 1e-308 FROM t", "operator / gives a non-finite"),
        ("SELECT SUM(a + 1e308) FROM t", "SUM gives a non-finite number"),
        ("SELECT AVG(a + 1e308) FROM t", "AVG gives a non-finite number"),
        ("SELECT CAST('1e999' AS REAL) FROM t", "cannot cast '1e999' to real"),
        ("SELECT CAST('nan' AS REAL) FROM t", "cannot cast 'nan' to real"),
        ("SELECT CAST('-inf' AS DOUBLE PRECISION) FROM t",
         "cannot cast '-inf' to double precision"),
    ])
    def test_non_finite_float_makes_self_comparison_inconclusive(
            self, sql, message):
        """NaN never equals itself, so a query compared with itself would
        be refuted if a NaN reached the result; no float the executor
        computes is infinite or NaN."""
        schema = SchemaDef(tables=(TableDef("t", ("a",)),))
        instance = instance_from_dict({"tables": {"t": {
            "columns": ["a"], "rows": [[1], [2.5], [None], [40]]}}}, schema)
        outcome = oracle_check(sql, sql, [instance])
        assert outcome.status == "inconclusive", outcome
        assert outcome.errors[0].startswith(
            f"instance 0: RuntimeExecError: {message}"), outcome

    @pytest.mark.parametrize("sql1,sql2,status", [
        ("SELECT ARRAY[TRUE] FROM t", "SELECT ARRAY[1] FROM t", "refuted"),
        ("SELECT ARRAY[0.1 + 0.2] FROM t", "SELECT ARRAY[0.3] FROM t",
         "consistent"),
        # an int beyond float range is close to no real
        (f"SELECT {_squared(5)} FROM t", "SELECT b FROM t", "refuted"),
        (f"SELECT {_squared(5)} FROM t ORDER BY a",
         "SELECT b FROM t ORDER BY a", "refuted"),
        # an int past the 4300-digit text limit casts to itself
        (f"SELECT CAST({_squared(10)} AS INT) FROM t",
         f"SELECT {_squared(10)} FROM t", "consistent"),
    ], ids=["bool-array", "real-array", "huge-int", "huge-int-ordered",
            "cast-huge-int"])
    def test_results_compare_on_the_executor_values(self, sql1, sql2,
                                                     status):
        outcome = oracle_check(sql1, sql2, [_big_instance()])
        assert outcome.status == status, outcome

    @pytest.mark.parametrize("sql", [
        f"SELECT CAST({_squared(10)} AS TEXT) FROM t",
        f"SELECT {_squared(10)} || 'x' FROM t",
        f"SELECT LPAD({_squared(10)}, 3) FROM t",
        f"SELECT UPPER({_squared(10)}) FROM t",
        f"SELECT LENGTH({_squared(10)}) FROM t",
        f"SELECT CAST({_squared(10)} AS REAL) FROM t",
    ], ids=["cast-text", "concat", "lpad", "upper", "length", "cast-real"])
    def test_int_too_long_for_text_is_inconclusive(self, sql):
        outcome = oracle_check(sql, sql, [_big_instance()])
        assert outcome.status == "inconclusive", outcome
        assert outcome.errors == ("instance 0: RuntimeExecError: integer "
                                  "too long to convert to text",), outcome

    @pytest.mark.parametrize("width", ["10000000000000000000", _squared(10)],
                             ids=["past-index-size", "past-text-limit"])
    def test_unbuildable_lpad_width_is_inconclusive(self, width):
        sql = f"SELECT LPAD('a', {width}) FROM t"
        outcome = oracle_check(sql, sql, [_big_instance()])
        assert outcome.status == "inconclusive", outcome
        assert outcome.errors == ("instance 0: RuntimeExecError: LPAD width "
                                  "is too large",), outcome

    def test_parse_failure_inconclusive(self, witness_schema):
        instance = baseball_instance(witness_schema, [["p1", 2000, 2]])
        outcome = oracle_check("SELECT FROM", "SELECT 1", [instance])
        assert outcome.status == "inconclusive"

    def test_error_plus_no_refutation_is_inconclusive(self, witness_schema):
        good = baseball_instance(witness_schema, [["p1", 2000, 2]])
        outcome = oracle_check(
            "SELECT SUM(cs) OVER (ORDER BY yearid) FROM batting",
            "SELECT cs FROM batting", [good])
        assert outcome.status == "inconclusive"

    def test_requires_instances(self):
        with pytest.raises(ValueError):
            oracle_check("SELECT 1", "SELECT 1", [])

    def test_comparison_dataclass(self):
        assert Comparison(True).identical
        assert Comparison(False, "why").reason == "why"

    def test_refuted_implies_neq_on_labeled_fixture(self, witness_schema):
        # a refutation must never land on a correctly labeled EQ pair
        labeled_pairs = [
            (corpus.CAUGHT_STEALING_CTE, corpus.CAUGHT_STEALING_JOIN, "NEQ"),
            ("SELECT playerid FROM people",
             "SELECT playerid FROM people WHERE 1 = 1", "EQ"),
            ("SELECT COUNT(*) FROM batting",
             "SELECT COUNT(*) FROM batting WHERE TRUE", "EQ"),
            ("SELECT cs FROM batting", "SELECT yearid FROM batting", "NEQ"),
        ]
        instances = [
            baseball_instance(witness_schema,
                              [["p1", 2000, 2], ["p1", 2001, 3]]),
            baseball_instance(witness_schema, [["p1", 2000, 2]]),
        ]
        refuted_labels = []
        for sql1, sql2, label in labeled_pairs:
            outcome = oracle_check(sql1, sql2, instances)
            if outcome.status == "refuted":
                refuted_labels.append(label)
        assert refuted_labels and set(refuted_labels) == {"NEQ"}
