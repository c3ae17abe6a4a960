import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import corpusqueries as corpus
import lexer_reference
from conftest import perfbench_texts
from sqleq.ast_nodes import (
    Between, Binary, Cast, ColumnRef, Cte, FuncCall, InList, IsNull, Join,
    Like, Literal, Quantified, SelectCore, SelectItem, SelectStmt, Star,
    Subquery, TableRef, Unary, walk,
)
from sqleq.cli import main
from sqleq.errors import SqleqError, SqlSyntaxError, UnsupportedConstruct
from sqleq.executor import instance_from_dict
from sqleq.features import extract_features
from sqleq.lexer import OPERATORS, tokenize
from sqleq.oracle import oracle_check
from sqleq.parser import MAX_DEPTH, parse_sql
from sqleq.plan import PLAN_ERROR_PLACEHOLDER, plan_or_placeholder
from sqleq.render import render_expression, render_statement


class TestBasics:
    def test_minimal_select(self):
        ast = parse_sql("SELECT 1")
        core = ast.body
        assert isinstance(core, SelectCore)
        assert len(core.items) == 1
        assert core.items[0].expr == Literal(1)
        assert core.from_item is None

    def test_assignment_cte_query_structure(self):
        ast = parse_sql(corpus.CAUGHT_STEALING_CTE)
        assert len(ast.ctes) == 1
        assert isinstance(ast.ctes[0], Cte)
        assert ast.ctes[0].name == "result"
        joins = [n for n in walk(ast) if isinstance(n, Join)]
        assert len(joins) == 1
        groups = [n for n in walk(ast)
                  if isinstance(n, SelectCore) and n.group_by]
        assert len(groups) == 1

    def test_missing_projection_offset(self):
        with pytest.raises(SqlSyntaxError) as excinfo:
            parse_sql("SELECT FROM")
        assert excinfo.value.offset == 7
        assert excinfo.value.expected == "expression"

    def test_empty_text(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("   ")

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError) as excinfo:
            parse_sql("SELECT 'abc")
        assert excinfo.value.offset == 7

    def test_natural_join_unsupported_in_strict(self):
        with pytest.raises(UnsupportedConstruct):
            parse_sql("SELECT * FROM t NATURAL JOIN s")

    def test_strict_rejects_trailing(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql("SELECT a FROM t !!!")


class TestLexicalRules:
    def test_number_forms(self):
        tokens = tokenize("1 1.5 .5 1e5 1.5E-3")
        assert [(t.kind, t.value) for t in tokens[:-1]] == [
            ("NUMBER", 1), ("NUMBER", 1.5), ("NUMBER", 0.5),
            ("NUMBER", 1e5), ("NUMBER", 1.5e-3)]
        assert [type(t.value) for t in tokens[:-1]] == \
            [int, float, float, float, float]

    def test_exponent_without_digits_is_not_part_of_the_number(self):
        assert [t.raw for t in tokenize("1e+")] == ["1", "e", "+", ""]

    def test_doubled_quotes_escape(self):
        string, qident, _ = tokenize("'It''s' \"A\"\"B\"")
        assert (string.kind, string.value, string.raw) == \
            ("STRING", "It's", "'It''s'")
        assert (qident.kind, qident.value) == ("QIDENT", 'A"B')

    @pytest.mark.parametrize("text", ["/*/", "x /* y"])
    def test_unterminated_block_comment(self, text):
        with pytest.raises(SqlSyntaxError) as excinfo:
            tokenize(text)
        assert excinfo.value.offset == text.index("/*")
        assert excinfo.value.expected == "*/"

    @pytest.mark.parametrize("sql,offset,message", [
        ("SELECT 1e+ FROM t", 9, "unexpected '+'"),
        ("SELECT 1e- FROM t", 9, "unexpected '-'"),
        ("SELECT ²", 7, "unexpected character '²'"),
        ("SELECT " + "9" * 5000, 7, "integer literal too long"),
    ], ids=["1e+", "1e-", "superscript-two", "5000-digit-int"])
    def test_malformed_literal_is_a_syntax_error(self, sql, offset, message):
        with pytest.raises(SqlSyntaxError) as excinfo:
            parse_sql(sql)
        assert excinfo.value.offset == offset
        assert str(excinfo.value).startswith(message)

    @pytest.mark.parametrize("text", ["²", "½", "9" * 5000],
                             ids=["superscript-two", "one-half",
                                  "5000-digit-int"])
    def test_lexer_rejects_what_no_token_can_hold(self, text):
        with pytest.raises(SqlSyntaxError) as excinfo:
            tokenize(text)
        assert excinfo.value.offset == 0


class TestFloatLiteralRange:
    """A float literal past the largest float is a syntax error at its
    offset, as an int too long to convert is: no literal reaches the
    renderer, the planner or the executor as an infinity."""

    @pytest.fixture
    def instance(self, toy_schema):
        return instance_from_dict(
            {"tables": {"t": {"columns": ["a", "b"], "rows": [[1, 2]]}}},
            toy_schema)

    @pytest.mark.parametrize("literal", [
        "1e999", "9" * 5000 + ".5", "1.8E308", ".1e+310",
    ], ids=["1e999", "5000-digit-float", "1.8E308", ".1e+310"])
    def test_overflowing_float_is_a_syntax_error(self, literal, toy_schema,
                                                 instance, capsys):
        sql = f"SELECT a, {literal} FROM t"
        for step in (tokenize, parse_sql):
            with pytest.raises(SqlSyntaxError) as excinfo:
                step(sql)
            assert excinfo.value.offset == 10
            assert str(excinfo.value) == \
                "numeric literal out of range at offset 10"
        assert plan_or_placeholder(sql, toy_schema) == PLAN_ERROR_PLACEHOLDER
        outcome = oracle_check(sql, "SELECT a, 1 FROM t", [instance])
        assert (outcome.status, outcome.errors) == ("inconclusive", (
            "SqlSyntaxError: numeric literal out of range at offset 10",))
        assert main(["features", "--sql", sql]) == 65
        assert capsys.readouterr().err == (
            "error: SqlSyntaxError: numeric literal out of range at offset "
            "10\n")

    @pytest.mark.parametrize("literal,value", [
        ("1.7976931348623157e308", sys.float_info.max),
        ("1e308", 1e308),
        ("1e-999", 0.0),
        ("9" * 300 + ".5", float("9" * 300 + ".5")),
    ])
    def test_finite_and_underflowing_floats_lex(self, literal, value):
        number, _ = tokenize(literal)
        assert (number.kind, number.value) == ("NUMBER", value)


# Fragments that probe the lexical rules: quotes and their escapes, both
# comment forms, number pieces and characters that are digits or letters
# only to some of Python's string predicates.
_sqlish = st.lists(st.sampled_from([
    "SELECT ", "FROM ", "WHERE ", "t", "a", " ", "\n", "'", '"', "''",
    "--", "/*", "*/", "/", "*", "-", "+", ".", "e", "E", "0", "1", "9",
    "(", ")", ",", "=", ";", "Σ", "²", "½", "١", "9" * 4301,
]), max_size=30).map("".join)


@settings(max_examples=300, deadline=None)
@given(_sqlish)
def test_lexer_and_parser_raise_only_toolkit_errors(text):
    for step in (tokenize, parse_sql):
        try:
            step(text)
        except SqleqError:
            pass


def _lexed(tokenize_text, text):
    """The `(kind, value, raw, offset)` of each token, or the message,
    offset and expected text of the syntax error."""
    try:
        tokens = tokenize_text(text)
    except SqlSyntaxError as exc:
        return ("error", str(exc), exc.offset, exc.expected)
    return [token if isinstance(token, tuple)
            else (token.kind, token.value, token.raw, token.offset)
            for token in tokens]


# Quotes and comments, closed, doubled and unterminated; characters that
# are digits or letters only to some of Python's string predicates;
# number forms and pieces; whitespace `\s` takes; every operator.
_LEXER_PIECES = [
    "'", '"', "''", '""', "'x'", '"Y"', "--", "/*", "*/", "/* c */",
    "-- c\n", "²", "½", "٣", "Σ", "_", "a", "SELECT", "from", "x1", ".5",
    "1e+", "1.5E-3", "e", "E", "0", "9", "9" * 5000, "\t", "\n", "\x1c",
    " ", "!", ":", "|", "@", *OPERATORS,
]


class TestLexerAgainstReference:
    """`tokenize` gives the tokens, or the error, that the earlier
    finditer loop in `lexer_reference` gives."""

    @settings(max_examples=1500, deadline=None)
    @given(st.lists(st.sampled_from(_LEXER_PIECES), max_size=16)
           .map("".join))
    def test_tricky_pieces(self, text):
        assert _lexed(tokenize, text) == \
            _lexed(lexer_reference.tokenize, text)

    @given(st.text(max_size=60))
    def test_any_text(self, text):
        assert _lexed(tokenize, text) == \
            _lexed(lexer_reference.tokenize, text)

    @pytest.mark.parametrize("seed", [3, 41])
    def test_perfbench_corpora(self, seed):
        texts = perfbench_texts(seed)
        assert len(texts) > 1000
        assert [_lexed(tokenize, t) for t in texts] == \
            [_lexed(lexer_reference.tokenize, t) for t in texts]

    def test_unclosed_comments_scan_in_linear_time(self):
        """The scan ends at the first `/*` that no comment closes; it
        does not look for a `*/` again from every later one (that took
        1.3 s for 8,000 of them, and grows with their square)."""
        text = "SELECT " + "/* " * 30_000
        started = time.perf_counter()
        with pytest.raises(SqlSyntaxError) as excinfo:
            tokenize(text)
        assert time.perf_counter() - started < 2.0
        assert excinfo.value.offset == 7
        assert excinfo.value.expected == "*/"


def _nested_parens(levels):
    return "SELECT " + "(" * levels + "a" + ")" * levels + " FROM t"


def _plus_chain(terms):
    return "SELECT " + " + ".join(["a"] * terms) + " FROM t"


def _and_chain(terms):
    return "SELECT a FROM t WHERE " + " AND ".join(["a = 1"] * terms)


def _cast_chain(casts):
    return "SELECT a" + "::int" * casts + " FROM t"


# The deepest input of each shape: parentheses nest inside the statement
# and the select-item expression, which take two parser levels; a
# left-deep chain of n additions sits under statement, core and item
# nodes and over its leaf, a tree of height n + 4. A WHERE chain of n
# ANDs sits under statement and core nodes and over an `a = 1` of two
# levels, n + 4 as well; n casts sit between the item and the leaf, n + 4.
DEEPEST = [(_nested_parens, MAX_DEPTH - 2), (_plus_chain, MAX_DEPTH - 3),
           (_and_chain, MAX_DEPTH - 3), (_cast_chain, MAX_DEPTH - 4)]


class TestDepthLimit:
    @pytest.fixture
    def instance(self, toy_schema):
        return instance_from_dict(
            {"tables": {"t": {"columns": ["a", "b"], "rows": [[1, 2]]}}},
            toy_schema)

    @pytest.mark.parametrize("shape, size", DEEPEST)
    def test_deepest_input_runs_through_every_pass(self, shape, size,
                                                  toy_schema, instance):
        sql = shape(size)
        ast = parse_sql(sql)
        assert parse_sql(render_statement(ast)) == ast
        assert len(list(walk(ast))) >= 4
        assert extract_features(ast).nesting_depth == 1
        assert plan_or_placeholder(sql, toy_schema) != PLAN_ERROR_PLACEHOLDER
        assert oracle_check(sql, sql, [instance]).status == "consistent"

    @pytest.mark.parametrize("shape, size", DEEPEST)
    def test_one_level_deeper_is_a_syntax_error(self, shape, size,
                                                toy_schema, instance):
        sql = shape(size + 1)
        with pytest.raises(SqlSyntaxError, match="nested deeper"):
            parse_sql(sql)
        outcome = oracle_check(sql, "SELECT a FROM t", [instance])
        assert outcome.status == "inconclusive"
        assert plan_or_placeholder(sql, toy_schema) == PLAN_ERROR_PLACEHOLDER
        assert main(["features", "--sql", sql]) == 65

    @pytest.mark.parametrize("sql", [
        "SELECT a FROM t WHERE " + "NOT " * 500 + "a = 1",
        "SELECT " + "- " * 500 + "a FROM t",
        "SELECT a FROM " + "(" * 500 + "t" + ")" * 500,
        "SELECT a FROM t WHERE a IN (" * 500 + "1" + ")" * 500,
    ], ids=["not", "sign", "from-parens", "in-lists"])
    def test_other_deep_shapes_are_syntax_errors(self, sql):
        with pytest.raises(SqlSyntaxError, match="nested deeper"):
            parse_sql(sql)

    # Chains the parser builds in a loop: however long, each is a depth
    # error, never a RecursionError.
    @pytest.mark.parametrize("sql", [
        "SELECT " + "- " * 5000 + "a FROM t",
        "SELECT a FROM t WHERE " + "NOT " * 5000 + "a = 1",
        "SELECT a" + "::int" * 5000 + " FROM t",
        _and_chain(5000),
        "SELECT a FROM t WHERE " + " OR ".join(["a = 1"] * 5000),
        "SELECT " + " = ".join(["a"] * 5000) + " FROM t",
        "SELECT a" + " IS NULL" * 5000 + " FROM t",
        "SELECT " + " || ".join(["a"] * 5000) + " FROM t",
        "SELECT a FROM t" + " JOIN t ON a = b" * 5000,
        "SELECT a FROM " + ", ".join(["t"] * 5000),
        " UNION ALL ".join(["SELECT a FROM t"] * 5000),
        " INTERSECT ".join(["SELECT a FROM t"] * 5000),
    ], ids=["sign", "not", "cast", "and", "or", "eq", "is-null", "concat",
            "join-on", "comma-from", "union-all", "intersect"])
    def test_loop_built_chains_of_5000_are_syntax_errors(self, sql):
        with pytest.raises(SqlSyntaxError, match="nested deeper") as excinfo:
            parse_sql(sql)
        assert excinfo.value.offset == 0

    def test_deepest_nesting_fits_in_780_stack_frames(self):
        # The costliest level is an operator of every power around a
        # call: about 12 frames, so MAX_DEPTH levels stay well inside the
        # default recursion limit of 1000 wherever the parser is called.
        sql = "a"
        for _ in range(MAX_DEPTH - 2):
            sql = f"a OR b AND NOT c = d + e * f({sql})"
        frame, depth = sys._getframe(), 0
        while frame:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 780)
        try:
            with pytest.raises(SqlSyntaxError, match="nested deeper"):
                parse_sql("SELECT " + sql)
        finally:
            sys.setrecursionlimit(limit)


def _expr(sql):
    return parse_sql(f"SELECT {sql}").body.items[0].expr


def _col(name):
    return ColumnRef(None, name)


a, b, c, d, e, f, x = map(_col, "abcdefx")


class TestPrecedence:
    """Exact tree shapes: a round trip through `render` cannot catch a
    precedence error, since render adds the parentheses it needs."""

    def test_every_level_in_one_expression(self):
        assert _expr("a OR b AND NOT c = d + e * -f::int") == Binary(
            "OR", a, Binary("AND", b, Unary("NOT", Binary(
                "=", c, Binary("+", d, Binary(
                    "*", e, Unary("-", Cast(f, "int"))))))))

    @pytest.mark.parametrize("op", ["-", "="])
    def test_binary_chains_are_left_deep(self, op):
        assert _expr(f"a {op} b {op} c") == \
            Binary(op, Binary(op, a, b), c)

    def test_not_covers_the_predicate(self):
        assert _expr("NOT NOT a IN (1)") == \
            Unary("NOT", Unary("NOT", InList(a, [Literal(1)])))

    def test_pattern_is_arithmetic(self):
        assert _expr("a NOT LIKE b || c") == \
            Like(a, Binary("||", b, c), negated=True)

    def test_between_bounds_stop_at_and(self):
        assert _expr("a BETWEEN b + 1 AND c AND d") == Binary(
            "AND", Between(a, Binary("+", b, Literal(1)), c), d)

    def test_comparison_after_is_null(self):
        assert _expr("x IS NOT NULL = TRUE") == \
            Binary("=", IsNull(x, negated=True), Literal(True))

    def test_quantified_comparison(self):
        assert _expr("a = ANY (SELECT b FROM t)") == Quantified(
            "=", a, "ANY", Subquery(parse_sql("SELECT b FROM t")))

    def test_signs_bind_tighter_than_multiplication(self):
        assert _expr("- - a * b") == \
            Binary("*", Unary("-", Unary("-", a)), b)

    @pytest.mark.parametrize("sql, offset, expected", [
        ("SELECT a NOT NULL", 13, "IN, BETWEEN, or LIKE after NOT"),
        ("SELECT a IS NULL + 1", 17, "end of statement"),
        ("SELECT a = NOT b", 11, "expression"),
        ("SELECT a BETWEEN b = c AND d", 19, "AND"),
    ], ids=["not-null", "arithmetic-after-is-null", "not-after-comparison",
            "comparison-in-between-bound"])
    def test_misplaced_operators(self, sql, offset, expected):
        with pytest.raises(SqlSyntaxError) as excinfo:
            parse_sql(sql)
        assert (excinfo.value.offset, excinfo.value.expected) == \
            (offset, expected)
        assert str(excinfo.value).startswith(
            f"unexpected {sql[offset:].split()[0]!r}")


class TestDialect:
    def test_recursive_flag(self):
        ast = parse_sql(corpus.PATH_EXISTS_RECURSIVE)
        assert ast.ctes[0].recursive

    def test_window_call_parsed_opaquely(self):
        ast = parse_sql("SELECT row_number() OVER (ORDER BY a) FROM t")
        call = next(n for n in walk(ast) if isinstance(n, FuncCall))
        assert call.is_window
        assert call.window_text == "(ORDER BY a)"

    def test_quoted_identifier_preserved(self):
        ast = parse_sql('SELECT "MixedCase" FROM t')
        ref = next(n for n in walk(ast) if isinstance(n, ColumnRef))
        assert ref.column == "MixedCase"
        assert ref.column_quoted

    def test_unquoted_identifier_folded(self):
        ast = parse_sql("SELECT MixedCase FROM T")
        ref = next(n for n in walk(ast) if isinstance(n, ColumnRef))
        assert ref.column == "mixedcase"
        assert not ref.column_quoted

    def test_column_ref_keeps_raw_text(self):
        ast = parse_sql("SELECT People.PlayerID FROM people")
        ref = next(n for n in walk(ast) if isinstance(n, ColumnRef))
        assert ref.raw == "People.PlayerID"
        assert (ref.table, ref.column) == ("people", "playerid")

    def test_order_direction_defaults_ascending(self):
        ast = parse_sql("SELECT a FROM t ORDER BY a, b DESC")
        assert [item.descending for item in ast.order_by] == [False, True]

    def test_intersect_binds_tighter_than_union(self):
        ast = parse_sql("SELECT a FROM t UNION SELECT b FROM s "
                        "INTERSECT SELECT c FROM u")
        assert ast.body.kind == "union"
        assert ast.body.right.kind == "intersect"

    @pytest.mark.parametrize("sql", corpus.ALL_QUERIES)
    def test_corpus_parses_strict(self, sql):
        ast = parse_sql(sql)
        assert isinstance(ast, SelectStmt)


class TestRoundTrip:
    @pytest.mark.parametrize("sql", corpus.ALL_QUERIES)
    def test_parse_render_parse_is_stable(self, sql):
        first = parse_sql(sql)
        rendered = render_statement(first)
        second = parse_sql(rendered)
        assert first == second
        assert render_statement(second) == rendered

    @pytest.mark.parametrize("node", [
        Star(), SelectItem(expr=Literal(1)), TableRef("t"),
        parse_sql("SELECT 1"), "a", 1, None,
    ])
    def test_render_expression_rejects_a_non_expression(self, node):
        with pytest.raises(TypeError) as caught:
            render_expression(node)
        assert str(caught.value) == f"not an expression: {node!r}"


_names = st.sampled_from(["a", "b", "c", "playerid", "yearid"])
_tables = st.sampled_from(["t", "s", "people", "batting"])
_ints = st.integers(min_value=-99, max_value=99)
_strings = st.text(
    alphabet=st.characters(blacklist_characters="'", min_codepoint=32,
                           max_codepoint=126),
    max_size=8)


@st.composite
def _exprs(draw, depth=0):
    if depth >= 2:
        choice = draw(st.integers(0, 2))
    else:
        choice = draw(st.integers(0, 5))
    if choice == 0:
        return str(draw(_ints))
    if choice == 1:
        return "'" + draw(_strings).replace("'", "''") + "'"
    if choice == 2:
        return draw(_names)
    if choice == 3:
        op = draw(st.sampled_from(["+", "-", "*", "=", "<", ">=", "<>"]))
        return (f"({draw(_exprs(depth + 1))} {op} "
                f"{draw(_exprs(depth + 1))})")
    if choice == 4:
        return f"COALESCE({draw(_exprs(depth + 1))}, 0)"
    return (f"CASE WHEN {draw(_exprs(depth + 1))} > 0 THEN "
            f"{draw(_exprs(depth + 1))} ELSE NULL END")


@st.composite
def _selects(draw):
    items = ", ".join(draw(st.lists(_exprs(), min_size=1, max_size=3)))
    sql = f"SELECT {items} FROM {draw(_tables)}"
    if draw(st.booleans()):
        sql += f" WHERE {draw(_exprs())} >= 1"
    if draw(st.booleans()):
        sql += f" ORDER BY {draw(_names)} DESC"
    if draw(st.booleans()):
        sql += f" LIMIT {draw(st.integers(0, 50))}"
    return sql


@settings(max_examples=200, deadline=None)
@given(_selects())
def test_generated_statements_round_trip(sql):
    first = parse_sql(sql)
    rendered = render_statement(first)
    assert parse_sql(rendered) == first
