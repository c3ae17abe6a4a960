import pytest

import corpusqueries as corpus
from sqleq.errors import AmbiguousColumn, UnresolvedName
from sqleq.parser import parse_sql
from sqleq.plan import (
    PLAN_ERROR_PLACEHOLDER, build_plan, plan_or_placeholder, render_plan,
)


def plan_for(sql, schema):
    return build_plan(parse_sql(sql), schema)


class TestClauseOrder:
    def test_filter_under_project(self, toy_schema):
        plan = plan_for("SELECT a FROM t WHERE a > 1", toy_schema)
        assert plan.ops() == ["Project", "Filter", "Scan"]

    def test_assignment_join_query_shape(self, baseball_schema):
        plan = plan_for(corpus.CAUGHT_STEALING_JOIN, baseball_schema)
        assert plan.ops() == ["Limit", "Sort", "Project", "Join",
                              "Scan", "Scan"]

    def test_assignment_cte_query_shape(self, baseball_schema):
        plan = plan_for(corpus.CAUGHT_STEALING_CTE, baseball_schema)
        assert plan.ops() == [
            "CteBind",
            "Sort", "Project", "Aggregate", "Scan",   # CTE definition
            "Limit", "Sort", "Project", "Join", "CteRef", "Scan",
        ]

    def test_full_clause_ladder(self, toy_schema):
        plan = plan_for(
            "SELECT a, COUNT(*) FROM t WHERE b > 0 GROUP BY a "
            "HAVING COUNT(*) > 1 ORDER BY a LIMIT 5", toy_schema)
        assert plan.ops() == ["Limit", "Sort", "Project", "Filter",
                              "Aggregate", "Filter", "Scan"]

    def test_operator_sequence_never_reordered(self, toy_schema):
        # WHERE stays below the aggregate, HAVING above: source clause order
        plan = plan_for("SELECT COUNT(*) FROM t WHERE a = 1 GROUP BY b",
                        toy_schema)
        assert plan.ops() == ["Project", "Aggregate", "Filter", "Scan"]

    def test_sequence_matches_clause_derived_expectation(self, toy_schema):
        # every clause combination maps onto the fixed operator ladder
        for has_where in (False, True):
            for has_group in (False, True):
                for has_order in (False, True):
                    for has_limit in (False, True):
                        sql = "SELECT COUNT(*) FROM t" if has_group else \
                            "SELECT a FROM t"
                        expected = ["Scan"]
                        if has_where:
                            sql += " WHERE a > 0"
                            expected.insert(0, "Filter")
                        if has_group:
                            sql += " GROUP BY b"
                            expected.insert(0, "Aggregate")
                        expected.insert(0, "Project")
                        if has_order:
                            sql += " ORDER BY 1"
                            expected.insert(0, "Sort")
                        if has_limit:
                            sql += " LIMIT 3"
                            expected.insert(0, "Limit")
                        plan = plan_for(sql, toy_schema)
                        assert plan.ops() == expected, sql


class TestRendering:
    def test_project_over_scan(self, toy_schema):
        plan = plan_for("SELECT a FROM t", toy_schema)
        assert render_plan(plan) == "LogicalProject(a)\n  LogicalScan(t)"

    def test_from_less_select_is_single_values_node(self, toy_schema):
        plan = plan_for("SELECT 1", toy_schema)
        assert render_plan(plan) == "LogicalValues((1))"

    def test_values_with_no_rows_renders_empty_args(self):
        from sqleq.plan import PlanNode
        assert render_plan(PlanNode("Values", "")) == "LogicalValues()"

    def test_join_args_inline_children_indented(self, toy_schema):
        plan = plan_for("SELECT t.a FROM t JOIN t AS u ON t.a = u.b",
                        toy_schema)
        text = render_plan(plan)
        lines = text.split("\n")
        assert lines[0] == "LogicalProject(t.a)"
        assert lines[1] == "  LogicalJoin(inner, t.a = u.b)"
        assert lines[2] == "    LogicalScan(t)"
        assert lines[3] == "    LogicalScan(t AS u)"

    def test_star_expands_against_schema(self, toy_schema):
        plan = plan_for("SELECT * FROM t", toy_schema)
        assert render_plan(plan) == \
            "LogicalProject(t.a, t.b)\n  LogicalScan(t)"

    def test_set_op_args(self, toy_schema):
        plan = plan_for("SELECT a FROM t UNION ALL SELECT b FROM t",
                        toy_schema)
        assert plan.op == "Union" and plan.args == "all"
        plan = plan_for("SELECT a FROM t EXCEPT SELECT b FROM t", toy_schema)
        assert plan.op == "Except" and plan.args == "distinct"

    def test_recursive_cte_planned(self, baseball_schema):
        plan = plan_for(corpus.PATH_EXISTS_RECURSIVE, baseball_schema)
        assert plan.op == "CteBind"
        assert plan.args == "sub, recursive"

    def test_injective_on_corpus(self, baseball_schema, toy_schema):
        texts = set()
        plans = []
        for sql in corpus.ASSIGNMENT_QUERIES:
            plans.append(render_plan(plan_for(sql, baseball_schema)))
        simple = ["SELECT a FROM t", "SELECT b FROM t",
                  "SELECT a FROM t WHERE a > 1",
                  "SELECT a FROM t ORDER BY a"]
        for sql in simple:
            plans.append(render_plan(plan_for(sql, toy_schema)))
        for text in plans:
            assert text not in texts
            texts.add(text)

    def test_deterministic(self, baseball_schema):
        one = render_plan(plan_for(corpus.RUNSCORE_CTE, baseball_schema))
        two = render_plan(plan_for(corpus.RUNSCORE_CTE, baseball_schema))
        assert one == two


class TestResolution:
    def test_unknown_column(self, toy_schema):
        with pytest.raises(UnresolvedName, match="x"):
            plan_for("SELECT x FROM t", toy_schema)

    def test_last_operand_is_resolved_first(self, toy_schema):
        with pytest.raises(UnresolvedName, match="^y$"):
            plan_for("SELECT x + y FROM t", toy_schema)

    def test_aggregates_listed_last_operand_first(self, toy_schema):
        text = render_plan(plan_for(
            "SELECT SUM(a) + MAX(b), COUNT(*) FROM t", toy_schema))
        assert "aggs=[MAX(b), SUM(a), COUNT(*)]" in text

    def test_nested_aggregate_is_not_listed(self, toy_schema):
        text = render_plan(plan_for("SELECT SUM(MAX(a)) FROM t", toy_schema))
        assert "aggs=[SUM(MAX(a))]" in text

    def test_unknown_table(self, toy_schema):
        with pytest.raises(UnresolvedName, match="missing"):
            plan_for("SELECT a FROM missing", toy_schema)

    def test_ambiguous_column(self, toy_schema):
        with pytest.raises(AmbiguousColumn):
            plan_for("SELECT a FROM t JOIN t AS u ON t.a = u.a", toy_schema)

    def test_order_by_output_alias_resolves(self, toy_schema):
        plan = plan_for("SELECT a AS x FROM t ORDER BY x", toy_schema)
        assert plan.ops() == ["Sort", "Project", "Scan"]

    def test_correlated_subquery_resolves(self, toy_schema):
        plan = plan_for(
            "SELECT a FROM t WHERE EXISTS "
            "(SELECT 1 FROM t AS u WHERE u.a = t.b)", toy_schema)
        assert plan.ops() == ["Project", "Filter", "Scan"]


class TestPlaceholder:
    def test_syntax_error(self, toy_schema):
        assert plan_or_placeholder("SELECT FROM", toy_schema) == \
            PLAN_ERROR_PLACEHOLDER

    def test_unresolved_table(self, toy_schema):
        assert plan_or_placeholder("SELECT a FROM nope", toy_schema) == \
            PLAN_ERROR_PLACEHOLDER

    def test_valid_query_renders(self, toy_schema):
        text = plan_or_placeholder("SELECT 1", toy_schema)
        assert text == "LogicalValues((1))"

    @pytest.mark.parametrize("sql", ["", "   ", "DROP TABLE t",
                                     "SELECT a FROM t WHERE", "((("])
    def test_never_raises(self, sql, toy_schema):
        text = plan_or_placeholder(sql, toy_schema)
        assert text == PLAN_ERROR_PLACEHOLDER

    def test_defect_propagates(self, toy_schema, monkeypatch):
        def broken(ast, schema):
            raise TypeError("defect")

        monkeypatch.setattr("sqleq.plan.build_plan", broken)
        with pytest.raises(TypeError, match="defect"):
            plan_or_placeholder("SELECT a FROM t", toy_schema)

    @pytest.mark.parametrize("sql", corpus.ASSIGNMENT_QUERIES)
    def test_corpus_non_empty_plan_or_placeholder(self, sql, baseball_schema):
        text = plan_or_placeholder(sql, baseball_schema)
        assert text  # either a plan or the placeholder, never empty
        assert text != ""
