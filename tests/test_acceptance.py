"""Acceptance criteria, one test per criterion.

Each test prints a single `ACCEPTANCE <n> <name>: PASS|FAIL` line
(bypassing capture so the lines always appear) and enforces the stated
runtime bounds.
"""

import contextlib
import json
import math
import random
import re
import sys
import time

import pytest

import corpusqueries as corpus
import datafix
import queryfam
from conftest import FIXTURES, GOLDEN, Pair, write_jsonl
from sqleq.backend import GenConfig, MockBackend, MockRule
from sqleq.bench import (
    QueryPair, breakdown, compute_metrics, coverage_compare, emit_report,
    load_dataset, run_benchmark,
)
from sqleq.cli import main
from sqleq.executor import execute, instance_from_dict
from sqleq.oracle import oracle_check
from sqleq.parser import parse_sql
from sqleq.pipeline import PipelineConfig
from sqleq.plan import PLAN_ERROR_PLACEHOLDER, plan_or_placeholder
from sqleq.prompts import (
    build_basic, build_classify, build_cot, build_decide, build_explain,
    build_fewshot, exemplar_set_from_file,
)
from sqleq.schema import SchemaDef, TableDef, schema_from_dict


@contextlib.contextmanager
def criterion(number, name, budget_seconds=None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL", file=sys.__stdout__)
        raise
    elapsed = time.perf_counter() - started
    if budget_seconds is not None and elapsed > budget_seconds:
        print(f"ACCEPTANCE {number} {name}: FAIL "
              f"(runtime {elapsed:.2f}s > {budget_seconds}s)",
              file=sys.__stdout__)
        raise AssertionError(
            f"criterion {number} exceeded {budget_seconds}s "
            f"({elapsed:.2f}s)")
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)",
          file=sys.__stdout__)


# Published benchmark summary rows: (EQ accuracy, NEQ accuracy, GM), the
# twenty strategy/model rows of the 385/189 corpus plus one per-question
# row (0.667 / 1.000).
TABLE_GM_ENTRIES = [
    (0.888, 0.032, 0.1686), (1.000, 0.005, 0.0707), (0.948, 0.153, 0.3808),
    (0.873, 0.667, 0.7631), (0.982, 0.032, 0.1773),
    (0.966, 0.069, 0.2582), (0.974, 0.069, 0.2592), (0.912, 0.291, 0.5152),
    (0.875, 0.714, 0.7904), (0.964, 0.138, 0.3647),
    (0.883, 0.026, 0.1515), (1.000, 0.005, 0.0707), (0.953, 0.175, 0.4084),
    (0.917, 0.571, 0.7236), (0.987, 0.063, 0.2494),
    (0.862, 0.302, 0.5102), (0.966, 0.190, 0.4284), (0.800, 0.566, 0.6729),
    (0.919, 0.672, 0.7859), (0.906, 0.328, 0.5451),
    (0.667, 1.000, 0.8167),
]


def _predictions_with_accuracy(eq_accuracy, neq_accuracy, denominator=1000):
    pairs = []
    predictions = {}
    eq_correct = round(eq_accuracy * denominator)
    neq_correct = round(neq_accuracy * denominator)
    for i in range(denominator):
        pair = QueryPair(id=f"eq{i}", sql1="a", sql2="b", schema_name="s",
                         label="EQ")
        pairs.append(pair)
        predictions[pair.id] = "Equivalent" if i < eq_correct \
            else "NonEquivalent"
    for i in range(denominator):
        pair = QueryPair(id=f"neq{i}", sql1="a", sql2="b", schema_name="s",
                         label="NEQ")
        pairs.append(pair)
        predictions[pair.id] = "NonEquivalent" if i < neq_correct \
            else "Equivalent"
    return predictions, pairs


def test_criterion_1_metric_oracle():
    with criterion(1, "metric-oracle", budget_seconds=1.0):
        for eq, neq, printed_gm in TABLE_GM_ENTRIES:
            predictions, pairs = _predictions_with_accuracy(eq, neq)
            metrics = compute_metrics(predictions, pairs)
            assert metrics.eq_accuracy == pytest.approx(eq, abs=1e-12)
            assert metrics.neq_accuracy == pytest.approx(neq, abs=1e-12)
            assert abs(metrics.gm - printed_gm) < 1e-3, \
                f"({eq}, {neq}) -> {metrics.gm} vs printed {printed_gm}"
            if eq > 0 and neq > 0:
                assert metrics.gm > 0
            assert metrics.gm == pytest.approx(math.sqrt(eq * neq))


def test_criterion_2_prompt_fidelity(golden_pair, golden_schema):
    with criterion(2, "prompt-fidelity", budget_seconds=1.0):
        exemplars = exemplar_set_from_file(FIXTURES / "exemplars.json")
        plans = ("LogicalProject(playerid)\n  LogicalScan(people)",
                 "LogicalProject(playerid)\n  LogicalScan(batting)")
        expl = ("SQL_1 lists every player id from the people table.",
                "SQL_2 lists the player id of every batting record.")
        checks = [
            (build_basic(golden_pair, golden_schema), "basic.txt"),
            (build_basic(golden_pair, golden_schema, plans),
             "basic_with_plans.txt"),
            (build_cot(golden_pair, golden_schema), "cot.txt"),
            (build_fewshot(golden_pair, golden_schema, exemplars=exemplars),
             "fewshot.txt"),
            (build_explain(1, golden_pair, golden_schema), "explain_1.txt"),
            (build_explain(2, golden_pair, golden_schema), "explain_2.txt"),
            (build_decide(golden_pair, golden_schema, expl1=expl[0],
                          expl2=expl[1]), "decide.txt"),
            (build_classify("The two queries return the same rows, so they "
                            "are equivalent."), "classify.txt"),
        ]
        for bundle, golden_name in checks:
            golden = (GOLDEN / golden_name).read_bytes()
            assert bundle.body.encode("utf-8") == golden, \
                f"{golden_name} mismatch"

        # with-plan variants differ from without-plan only inside ### SQL
        for builder in (build_basic, build_cot):
            without = builder(golden_pair, golden_schema).body
            with_plans = builder(golden_pair, golden_schema, plans).body
            parts_without = without.split("### ")
            parts_with = with_plans.split("### ")
            assert len(parts_without) == len(parts_with)
            for a, b in zip(parts_without, parts_with):
                if a.startswith("SQL\n"):
                    assert a != b
                else:
                    assert a == b


def test_criterion_3_placeholder_convention(toy_schema, capsys, tmp_path):
    with criterion(3, "plan-placeholder"):
        bad_queries = ["SELECT FROM", "SELECT a FROM missing_table",
                       "completely bogus ((", "SELECT x FROM t"]
        for sql in bad_queries:
            assert plan_or_placeholder(sql, toy_schema) == \
                "ERROR WHILE GENERATING PLAN"

        # placeholder lands verbatim in prompts
        pair = Pair("p", "SELECT a FROM t", "SELECT FROM")
        plans = (plan_or_placeholder(pair.sql1, toy_schema),
                 plan_or_placeholder(pair.sql2, toy_schema))
        body = build_basic(pair, toy_schema, plans).body
        assert "\nERROR WHILE GENERATING PLAN\n" in body

        # and in cmd_plan output, with exit code 0
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps(
            {"tables": [{"name": "t", "columns": ["a", "b"]}]}))
        code = main(["plan", "--sql", "SELECT FROM",
                     "--schema", str(schema_path)])
        assert code == 0
        assert capsys.readouterr().out == "ERROR WHILE GENERATING PLAN\n"
        assert PLAN_ERROR_PLACEHOLDER == "ERROR WHILE GENERATING PLAN"


def test_criterion_4_shortcut_and_denominators(tmp_path):
    with criterion(4, "shortcut-denominators"):
        data = write_jsonl(tmp_path / "pairs.jsonl",
                           datafix.difficulty_records())
        schemas = tmp_path / "schemas.json"
        schemas.write_text(json.dumps(datafix.TOY_SCHEMAS))
        dataset = load_dataset(data, schemas)
        assert len(dataset.pairs) == 1034

        mock = MockBackend(default="Equivalent")
        cfg = PipelineConfig(strategy_cfg=GenConfig(model="m"),
                             fail_soft=True)
        report = run_benchmark(dataset, "basic", False,
                               mock, cfg, parallelism=8)

        assert report.metrics.eq_total == 385
        assert report.metrics.neq_total == 189
        exact_ids = {p.id for p in dataset.pairs if p.exact}
        assert len(exact_ids) == 460
        assert not (exact_ids & report.scored_ids)
        # exact-match pairs shortcut: only scored pairs reach the backend
        assert mock.call_count == 574 * 2
        for verdict in report.verdicts:
            if verdict.pair_id in exact_ids:
                assert verdict.shortcut
                assert verdict.completions == []

        by_difficulty = breakdown(report, "difficulty")
        totals = {name: (m.eq_total, m.neq_total)
                  for name, m in by_difficulty.items()}
        assert totals == {"Easy": (38, 20), "Medium": (188, 62),
                          "Hard": (84, 42), "ExtraHard": (75, 65)}


def _strip_timestamps(report_text):
    return re.sub(r'"(started_at|finished_at)": "[^"]*"', r'"\1": ""',
                  report_text)


def test_criterion_5_pipeline_determinism(tmp_path):
    with criterion(5, "pipeline-determinism"):
        records = []
        for i in range(9):
            records.append({
                "id": f"d-eq{i}", "sql1": f"SELECT a FROM t WHERE b = {i}",
                "sql2": f"SELECT a FROM t WHERE {i} = b",
                "schema": "toy", "label": "EQ",
            })
        for i in range(9):
            records.append({
                "id": f"d-neq{i}", "sql1": f"SELECT a FROM t WHERE b = {i}",
                "sql2": f"SELECT a FROM t WHERE b = {i + 500}",
                "schema": "toy", "label": "NEQ",
            })
        records.append({"id": "d-x0", "sql1": "SELECT a FROM t",
                        "sql2": "select  a from t;", "schema": "toy",
                        "label": "EQ"})
        records.append({"id": "d-x1", "sql1": "SELECT b FROM t",
                        "sql2": "SELECT B FROM T", "schema": "toy",
                        "label": "EQ"})
        assert len(records) == 20
        data = write_jsonl(tmp_path / "pairs.jsonl", records)
        schemas = tmp_path / "schemas.json"
        schemas.write_text(json.dumps(datafix.TOY_SCHEMAS))
        dataset = load_dataset(data, schemas)

        emitted = []
        call_counts = []
        for parallelism in (1, 4, 16, 4, 4):
            mock = MockBackend(rules=[
                MockRule(response="Non Equivalent", strategy="classify"),
                MockRule(response="these queries differ"),
            ])
            cfg = PipelineConfig(strategy_cfg=GenConfig(model="m"),
                                 fail_soft=True)
            report = run_benchmark(dataset, "multistage", False,
                                   mock, cfg,
                                   parallelism=parallelism)
            emitted.append(_strip_timestamps(emit_report(report, "json")))
            call_counts.append(mock.call_count)

        assert len(set(emitted)) == 1, "reports differ across runs"
        # multistage: exactly 4 backend calls per non-shortcut pair
        assert call_counts == [18 * 4] * 5


def test_criterion_6_oracle_refutation():
    with criterion(6, "oracle-refutation", budget_seconds=1.0):
        schema = schema_from_dict(datafix.QUESTION_SCHEMAS["baseball"])
        witness = instance_from_dict({"tables": {
            "batting": {"columns": ["playerid", "yearid", "cs"],
                        "rows": [["p1", 2000, 2], ["p1", 2001, 3]]},
            "people": {"columns": ["playerid", "namefirst", "namelast"],
                       "rows": [["p1", "Alice", "Smith"]]},
        }}, schema)
        single = instance_from_dict({"tables": {
            "batting": {"columns": ["playerid", "yearid", "cs"],
                        "rows": [["p1", 2000, 2]]},
            "people": {"columns": ["playerid", "namefirst", "namelast"],
                       "rows": [["p1", "Alice", "Smith"]]},
        }}, schema)

        refuted = oracle_check(corpus.CAUGHT_STEALING_CTE,
                               corpus.CAUGHT_STEALING_JOIN, [witness])
        assert refuted.status == "refuted"
        assert refuted.witness_index == 0

        consistent = oracle_check(corpus.CAUGHT_STEALING_CTE,
                                  corpus.CAUGHT_STEALING_JOIN, [single])
        assert consistent.status == "consistent"

        graph_schema = SchemaDef(tables=(
            TableDef("graph1", ("p1", "p2", "w")),))
        graph_instance = instance_from_dict({"tables": {
            "graph1": {"columns": ["p1", "p2", "w"],
                       "rows": [["a", "b", 1]]}}}, graph_schema)
        inconclusive = oracle_check(corpus.PATH_EXISTS_RECURSIVE,
                                    corpus.PATH_EXISTS_RECURSIVE,
                                    [graph_instance])
        assert inconclusive.status == "inconclusive"
        assert any("UnsupportedFeature" in err
                   for err in inconclusive.errors)


def test_criterion_7_executor_property_suite():
    with criterion(7, "executor-vs-reference", budget_seconds=60.0):
        schema = schema_from_dict(queryfam.schema_dict())
        cases = 0
        for seed in range(1000):
            rng = random.Random(seed)
            instance_dict, query, sql = queryfam.random_case(rng)
            instance = instance_from_dict(instance_dict, schema)
            result = execute(parse_sql(sql), instance)
            expected_rows, expected_ordered, expected_cols = \
                queryfam.reference_eval(query, instance_dict)
            assert result.column_count == expected_cols, sql
            assert result.ordered == expected_ordered, sql
            if expected_ordered:
                assert result.rows == expected_rows, sql
            else:
                def canon(row):
                    return tuple(queryfam._rcanon(v) for v in row)
                assert sorted(result.rows, key=canon) == \
                    sorted(expected_rows, key=canon), sql
            cases += 1
        assert cases >= 1000


def test_criterion_8_coverage_report(tmp_path):
    with criterion(8, "coverage-report"):
        records = datafix.question_records()
        data = write_jsonl(tmp_path / "pairs.jsonl", records)
        schemas = tmp_path / "schemas.json"
        schemas.write_text(json.dumps(datafix.QUESTION_SCHEMAS))
        dataset = load_dataset(data, schemas)
        assert len(dataset.pairs) == 499

        script = [MockRule(response=r["response"],
                           pair_id=r["match"]["pair_id"])
                  for r in datafix.scripted_question_rules()]
        mock = MockBackend(rules=script)
        cfg = PipelineConfig(strategy_cfg=GenConfig(model="m"),
                             fail_soft=True)
        report = run_benchmark(dataset, "basic", False,
                               mock, cfg, parallelism=8)

        predictions = report.predictions()
        correct_flags = {}
        for pair in dataset.pairs:
            predicted = predictions[pair.id]
            correct_flags[pair.id] = (
                (pair.label == "EQ" and predicted == "Equivalent") or
                (pair.label == "NEQ" and predicted == "NonEquivalent"))
        assert sum(correct_flags.values()) == 306

        # supported subset shaped like the published coverage row:
        # 151 supported with 124 of them predicted correctly, 348
        # unsupported with 182 correct.
        supported = []
        want_correct, want_incorrect = 124, 151 - 124
        for pair in dataset.pairs:
            if correct_flags[pair.id] and want_correct:
                supported.append(pair.id)
                want_correct -= 1
            elif not correct_flags[pair.id] and want_incorrect:
                supported.append(pair.id)
                want_incorrect -= 1
        assert len(supported) == 151
        supported_set = set(supported)
        rows = [{"pair_id": p.id, "supported": p.id in supported_set}
                for p in dataset.pairs]
        tool_path = write_jsonl(tmp_path / "tool.jsonl", rows)

        coverage = coverage_compare(report, tool_path)
        assert coverage.supported_total == 151
        assert coverage.unsupported_total == 348
        assert coverage.supported_correct == 124
        assert coverage.unsupported_correct == 182

        # the same scripted run reproduces the per-question summary row
        by_question = breakdown(report, "question")
        expected = {
            "Q1": (0.667, 1.000, 0.8167),
            "Q2": (0.637, 0.857, 0.7389),
            "Q3": (0.779, 0.531, 0.6432),
            "Q4": (1.000, 0.500, 0.7071),
            "Q5": (0.900, 0.237, 0.4618),
        }
        for question, (eq, neq, gm) in expected.items():
            metrics = by_question[question]
            assert abs(metrics.eq_accuracy - eq) < 1e-3, question
            assert abs(metrics.neq_accuracy - neq) < 1e-3, question
            assert abs(metrics.gm - gm) < 1e-3, question


def test_criterion_9_unknown_policy_property():
    with criterion(9, "unknown-policy"):
        rng = random.Random(20240817)
        labels = ["Equivalent", "NonEquivalent", "Unknown"]
        for _ in range(300):
            n = rng.randint(1, 60)
            pairs = [QueryPair(id=f"p{i}", sql1="a", sql2="b",
                               schema_name="s",
                               label=rng.choice(["EQ", "NEQ"]))
                     for i in range(n)]
            predictions = {p.id: rng.choice(labels) for p in pairs}
            policy_a = compute_metrics(predictions, pairs, "as_neq")
            policy_b = compute_metrics(predictions, pairs, "always_wrong")
            assert policy_a.eq_accuracy == policy_b.eq_accuracy
            if policy_a.neq_accuracy is not None:
                assert policy_a.neq_accuracy >= policy_b.neq_accuracy
