"""The tree's shape is declared once: `walk` reaches every node that any
field of a node holds, once each and in preorder, and `select_level`
stops at nested statements and where its caller asks it to."""

import ast
import random
from pathlib import Path

import pytest

import corpusqueries as corpus
import queryfam
from sqleq.ast_nodes import (
    FuncCall, SelectStmt, children, is_aggregate_call, select_level, walk,
)
from sqleq.binder import aggregate_calls
from sqleq.errors import SqleqError
from sqleq.parser import parse_sql
from sqleq.records import Record

TESTS = Path(__file__).resolve().parent


def _suite_texts():
    """Every text the suite's corpora parse: the string constants of the
    test modules, `corpusqueries` and 2000 `queryfam` cases."""
    texts = list(corpus.ALL_QUERIES)
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        texts += [node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, str)]
    rng = random.Random(2000)
    texts += [queryfam.random_case(rng)[2] for _ in range(2000)]
    trees = []
    for text in dict.fromkeys(texts):
        try:
            trees.append(parse_sql(text))
        except SqleqError:
            continue
    return trees


def _held(node):
    """The nodes any field of `node` holds, lists and tuples included."""
    out = []
    for value in vars(node).values():
        items = value if isinstance(value, list) else [value]
        for item in items:
            out.extend(item if isinstance(item, tuple) else [item])
    return [item for item in out if isinstance(item, Record)]


def test_walk_reaches_every_held_node_once_in_preorder():
    trees = _suite_texts()
    assert len(trees) > 1500
    for tree in trees:
        order = list(walk(tree))
        position = {id(node): i for i, node in enumerate(order)}
        assert len(position) == len(order)  # no node twice
        size = {}
        stack = [(tree, False)]
        while stack:  # subtree sizes over the fields, children first
            node, done = stack.pop()
            if done:
                size[id(node)] = 1 + sum(size[id(c)] for c in _held(node))
            else:
                stack.append((node, True))
                stack.extend((child, False) for child in _held(node))
        assert size.keys() == position.keys()  # every held node walked
        for node in order:
            # each child's subtree lies inside its parent's, right after
            # the parent: the walk is a preorder
            start = position[id(node)]
            end = start + size[id(node)]
            for child in _held(node):
                assert start < position[id(child)]
                assert position[id(child)] + size[id(child)] <= end


def test_children_follow_source_order():
    stmt = parse_sql("WITH c AS (SELECT 1) SELECT CASE a WHEN 1 THEN 2 "
                     "ELSE 3 END FROM c ORDER BY 1 LIMIT 4")
    assert [type(node).__name__ for node in children(stmt)] == \
        ["Cte", "SelectCore", "OrderItem", "LimitClause"]
    case = stmt.body.items[0].expr
    assert children(case)[0].column == "a"
    assert [node.value for node in children(case)[1:]] == [1, 2, 3]


def test_walk_does_not_recurse():
    depth = 5000
    expr = parse_sql("SELECT 1").body.items[0].expr
    for _ in range(depth):
        expr = FuncCall("abs", [expr])
    assert sum(1 for _ in walk(expr)) == depth + 1


class TestSelectLevel:
    def test_nested_statements_are_yielded_not_entered(self):
        stmt = parse_sql("SELECT a FROM (SELECT b FROM u) AS d "
                         "WHERE a IN (SELECT c FROM v) LIMIT (SELECT 1)")
        nested = [node for node in select_level(stmt)
                  if isinstance(node, SelectStmt)]
        assert nested[0] is stmt and len(nested) == 4
        columns = [node.column for node in select_level(stmt)
                   if hasattr(node, "column")]
        assert sorted(columns) == ["a", "a"]  # the IN operand stays here

    def test_stop_applies_to_the_root(self):
        expr = parse_sql("SELECT SUM(MAX(a)) FROM t").body.items[0].expr
        assert list(select_level(expr, is_aggregate_call)) == [expr]

    @pytest.mark.parametrize("sql, names", [
        ("SELECT (SELECT MAX(b) FROM s) + SUM(a) FROM t", ["sum"]),
        ("SELECT MIN(a) IN (SELECT COUNT(*) FROM s) FROM t", ["min"]),
    ])
    def test_aggregate_calls_leave_subqueries_out(self, sql, names):
        expr = parse_sql(sql).body.items[0].expr
        assert [call.name for call in aggregate_calls(expr)] == names
