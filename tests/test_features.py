import pytest

import corpusqueries as corpus
from sqleq.features import extract_features
from sqleq.parser import parse_sql


def profile(sql):
    return extract_features(parse_sql(sql))


class TestCounts:
    def test_assignment_cte_query(self):
        p = profile(corpus.CAUGHT_STEALING_CTE)
        assert p.ctes == 1
        assert p.joins == 1
        assert p.aggregate_calls == 1
        assert p.scalar_function_calls == 3  # the COALESCE calls
        assert p.order_by_keys == 5          # 1 inner + 4 outer
        assert p.limit_clauses == 1
        assert p.group_by_clauses == 1
        assert p.subqueries == 0
        assert p.nesting_depth == 2

    def test_plain_select_all_zero(self):
        p = profile("SELECT a FROM t")
        counts = p.as_dict()
        assert counts.pop("nesting_depth") == 1
        assert all(v == 0 for v in counts.values())

    def test_union_counts_one_set_operator(self):
        p = profile("SELECT a FROM t UNION SELECT a FROM s")
        assert p.set_operators == 1
        assert p.nesting_depth == 1

    def test_recursive_cte_counted_twice(self):
        p = profile(corpus.PATH_EXISTS_RECURSIVE)
        assert p.ctes == 1
        assert p.recursive_ctes == 1
        assert p.case_expressions == 1

    def test_subquery_kinds_counted(self):
        p = profile("SELECT (SELECT MAX(b) FROM s), a FROM (SELECT a FROM t) x "
                    "WHERE EXISTS (SELECT 1 FROM u) AND a IN (SELECT c FROM v)")
        assert p.subqueries == 4
        assert p.nesting_depth == 2

    @pytest.mark.parametrize("sql", [
        "SELECT a FROM t LIMIT (SELECT 1)",
        "SELECT a FROM t LIMIT 1 OFFSET (SELECT COUNT(*) FROM u)",
    ])
    def test_limit_and_offset_subqueries_add_a_level(self, sql):
        p = profile(sql)
        assert p.subqueries == 1
        assert p.nesting_depth == 2

    def test_parenthesized_set_operation_arms_add_no_level(self):
        p = profile("(SELECT a FROM t) UNION (SELECT b FROM "
                    "(SELECT b FROM u) AS x)")
        assert p.nesting_depth == 2

    def test_aggregates_counted_per_call_site(self):
        p = profile("SELECT SUM(a), SUM(a), COUNT(*) FROM t GROUP BY b")
        assert p.aggregate_calls == 3

    def test_window_call_counts_as_scalar(self):
        p = profile("SELECT row_number() OVER (ORDER BY a) FROM t")
        assert p.aggregate_calls == 0
        assert p.scalar_function_calls == 1


class TestInvariance:
    @pytest.mark.parametrize("sql", corpus.ALL_QUERIES)
    def test_whitespace_and_case_invariant(self, sql):
        base = extract_features(parse_sql(sql))
        mangled = " ".join(sql.split()).lower()
        assert extract_features(parse_sql(mangled)) == base

    @pytest.mark.parametrize("sql", corpus.ALL_QUERIES)
    def test_counts_non_negative_depth_positive(self, sql):
        p = extract_features(parse_sql(sql))
        counts = p.as_dict()
        assert counts["nesting_depth"] >= 1
        assert all(v >= 0 for v in counts.values())
