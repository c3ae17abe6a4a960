"""The record classes behave as their callers rely on: AST nodes compare
by structure and print as `Name(field=value, ...)`, frozen records refuse
assignment, defaults are fresh objects and key orders hold."""

import pytest

from sqleq.ast_nodes import ColumnRef, Cte, Literal, SelectCore, SelectStmt
from sqleq.backend import Completion, GenConfig, MockRule
from sqleq.bench import CoverageReport, Metrics
from sqleq.errors import BadExemplarSet, SchemaError
from sqleq.executor import DatabaseInstance
from sqleq.features import FeatureProfile, extract_features
from sqleq.lexer import Token
from sqleq.oracle import Comparison, OracleOutcome
from sqleq.parser import parse_sql
from sqleq.pipeline import Verdict
from sqleq.plan import PlanNode
from sqleq.prompts import Exemplar, ExemplarSet, PromptBundle
from sqleq.render import render_statement
from sqleq.schema import SchemaDef, TableDef

import corpusqueries as corpus


class TestAstNodes:
    @pytest.mark.parametrize("sql", corpus.ALL_QUERIES[:12])
    def test_parse_render_parse_compares_equal(self, sql):
        stmt = parse_sql(sql)
        assert parse_sql(render_statement(stmt)) == stmt

    def test_raw_text_is_left_out_of_equality(self):
        assert ColumnRef("t", "a", raw="T.A") == ColumnRef("t", "a", raw="t.a")
        assert ColumnRef("t", "a") != ColumnRef("t", "b")
        assert ColumnRef("t", "a") != ColumnRef("t", "a", column_quoted=True)

    def test_nodes_of_different_types_differ(self):
        assert Literal(1) != ColumnRef(None, "1")
        assert Literal(None) != SelectCore([Literal(None)])

    def test_nodes_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(parse_sql("SELECT a FROM t"))
        with pytest.raises(TypeError):
            hash(Literal(1))

    def test_repr_of_a_simple_statement(self):
        stmt = parse_sql("SELECT t.a, COUNT(*) AS n FROM t WHERE a + 1 > 2 "
                         "GROUP BY t.a ORDER BY n DESC LIMIT 3")
        assert repr(stmt) == (
            "SelectStmt(body=SelectCore(items=[SelectItem(expr=ColumnRef("
            "table='t', column='a', table_quoted=False, column_quoted=False), "
            "alias=None, alias_quoted=False), SelectItem(expr=FuncCall("
            "name='count', args=[], distinct=False, star=True, "
            "window_text=None), alias='n', alias_quoted=False)], "
            "from_item=TableRef(name='t', alias=None, quoted=False), "
            "where=Binary(op='>', left=Binary(op='+', left=ColumnRef("
            "table=None, column='a', table_quoted=False, "
            "column_quoted=False), right=Literal(value=1)), "
            "right=Literal(value=2)), group_by=[ColumnRef(table='t', "
            "column='a', table_quoted=False, column_quoted=False)], "
            "having=None, distinct=False), ctes=[], order_by=[OrderItem("
            "expr=ColumnRef(table=None, column='n', table_quoted=False, "
            "column_quoted=False), descending=True)], limit=LimitClause("
            "count=Literal(value=3), offset=None))")

    def test_repr_of_a_statement_with_cte_set_op_and_case(self):
        stmt = parse_sql(
            "WITH c (x) AS (SELECT \"A\" FROM t) SELECT CASE WHEN x IN "
            "(1, 2.5) THEN 'y' END, CAST(x AS INT) FROM c WHERE NOT EXISTS "
            "(SELECT 1 FROM u) UNION ALL SELECT b, NULL FROM t")
        core_tail = "where=None, group_by=[], having=None, distinct=False)"
        stmt_tail = "ctes=[], order_by=[], limit=None)"

        def col(name, quoted=False):
            return (f"ColumnRef(table=None, column={name!r}, "
                    f"table_quoted=False, column_quoted={quoted})")

        def item(expr):
            return f"SelectItem(expr={expr}, alias=None, alias_quoted=False)"

        def table(name):
            return f"TableRef(name={name!r}, alias=None, quoted=False)"

        exists = (f"Exists(query=SelectStmt(body=SelectCore(items=["
                  f"{item('Literal(value=1)')}], from_item={table('u')}, "
                  f"{core_tail}, {stmt_tail})")
        left = (
            "SelectCore(items=["
            + item("Case(operand=None, whens=[(InList(operand="
                   f"{col('x')}, items=[Literal(value=1), "
                   "Literal(value=2.5)], negated=False), "
                   "Literal(value='y'))], else_=None)")
            + ", " + item(f"Cast(operand={col('x')}, type_name='int')")
            + f"], from_item={table('c')}, where=Unary(op='NOT', "
            f"operand={exists}), group_by=[], having=None, distinct=False)")
        right = (f"SelectCore(items=[{item(col('b'))}, "
                 f"{item('Literal(value=None)')}], from_item={table('t')}, "
                 f"{core_tail}")
        cte = (f"Cte(name='c', query=SelectStmt(body=SelectCore(items=["
               f"{item(col('A', True))}], from_item={table('t')}, "
               f"{core_tail}, {stmt_tail}, columns=['x'], recursive=False)")
        assert repr(stmt) == (
            f"SelectStmt(body=SetOp(kind='union', all=True, left={left}, "
            f"right={right}), ctes=[{cte}], order_by=[], limit=None)")


def _exemplars():
    return tuple(Exemplar("s", "SELECT 1", "SELECT 1", label, "why")
                 for label in ("EQ", "EQ", "NEQ", "NEQ"))


FROZEN = {
    "Token": lambda: Token("KW", "SELECT", "select", 0),
    "GenConfig": lambda: GenConfig(model="m"),
    "Completion": lambda: Completion(text="x"),
    "MockRule": lambda: MockRule(response="x"),
    "Metrics": lambda: Metrics(1, 1, 1, 0, 0, 0, 1.0, 0.0, 0.0),
    "CoverageReport": lambda: CoverageReport(1, 2, 1, 1),
    "Comparison": lambda: Comparison(True),
    "OracleOutcome": lambda: OracleOutcome("consistent"),
    "PromptBundle": lambda: PromptBundle("basic", "body"),
    "Exemplar": lambda: _exemplars()[0],
    "ExemplarSet": lambda: ExemplarSet(_exemplars()),
    "TableDef": lambda: TableDef("t", ("a",)),
    "SchemaDef": lambda: SchemaDef((TableDef("t", ("a",)),)),
}


class TestOtherRecords:
    @pytest.mark.parametrize("make", FROZEN.values(), ids=FROZEN.keys())
    def test_frozen_records_refuse_assignment(self, make):
        record = make()
        # a tuple record (Token) keeps its fields in the tuple, not a dict
        name = record._fields[0] if isinstance(record, tuple) \
            else next(iter(vars(record)))
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, "changed")
        with pytest.raises(AttributeError):
            record.new_field = 1
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before

    def test_init_checks_still_run(self):
        with pytest.raises(ValueError, match="max_retries must be >= 0"):
            GenConfig(model="m", max_retries=-1)
        with pytest.raises(BadExemplarSet, match="exactly 4"):
            ExemplarSet(_exemplars()[:3])
        with pytest.raises(SchemaError, match="duplicate table"):
            SchemaDef((TableDef("t", ("a",)), TableDef("T", ("b",))))
        with pytest.raises(SchemaError, match="unknown column"):
            SchemaDef((TableDef("t", ("a",)),), primary_keys=("t.b",))

    @pytest.mark.parametrize("make, field", [
        (lambda: SelectCore([]), "group_by"),
        (lambda: SelectStmt(None), "ctes"),
        (lambda: SelectStmt(None), "order_by"),
        (lambda: Cte("c", None), "columns"),
        (lambda: PlanNode("Scan", "t"), "children"),
        (lambda: Verdict("Unknown"), "completions"),
        (lambda: PromptBundle("basic", "body"), "meta"),
        (lambda: DatabaseInstance(None), "tables"),
    ])
    def test_each_default_container_is_fresh(self, make, field):
        first, second = getattr(make(), field), getattr(make(), field)
        assert first == type(first)() and first is not second

    def test_value_equality_where_callers_compare(self):
        assert Completion("x", attempts=2) == Completion("x", attempts=2)
        assert Completion("x") != Completion("y")
        assert ExemplarSet(_exemplars()) == ExemplarSet(_exemplars())
        assert SchemaDef((TableDef("t", ("a",)),)) == \
            SchemaDef((TableDef("t", ("a",)),))
        assert FeatureProfile(joins=1) != FeatureProfile()

    def test_feature_profile_keeps_its_key_order(self):
        profile = extract_features(parse_sql(
            "SELECT a FROM t JOIN u ON t.x = u.x ORDER BY a LIMIT 1"))
        assert list(profile.as_dict()) == [
            "joins", "subqueries", "ctes", "aggregate_calls",
            "group_by_clauses", "order_by_keys", "limit_clauses",
            "set_operators", "scalar_function_calls", "case_expressions",
            "recursive_ctes", "nesting_depth"]
        assert profile.as_dict()["joins"] == 1

    def test_metrics_and_coverage_keep_their_key_order(self):
        assert list(Metrics(1, 1, 1, 0, 0, 0, 1.0, 0.0, 0.0).as_dict()) == [
            "eq_total", "neq_total", "eq_correct", "neq_correct",
            "unknown_predictions", "errors", "eq_accuracy", "neq_accuracy",
            "gm"]
        assert list(CoverageReport(1, 2, 1, 1).as_dict()) == [
            "supported_total", "unsupported_total", "supported_correct",
            "unsupported_correct"]
