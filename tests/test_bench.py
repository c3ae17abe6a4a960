import json
import math
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import datafix
from conftest import child_env, perfbench_workloads, write_jsonl
from sqleq.backend import GenConfig, MockBackend, MockRule
from sqleq.bench import (
    CoverageReport, QueryPair, breakdown, compute_metrics,
    coverage_compare, emit_report, load_dataset, run_benchmark, write_report,
)
from sqleq import bench, normalize, pipeline, plan
from sqleq.errors import DatasetParseError, DuplicateId, MissingSchema
from sqleq.pipeline import PipelineConfig
from sqleq.plan import PLAN_ERROR_PLACEHOLDER, pair_plans
from sqleq.prompts import build_strategy, exemplar_set_from_file


def dataset_paths(tmp_path, records, schemas=None):
    schemas = schemas if schemas is not None else datafix.TOY_SCHEMAS
    data_path = write_jsonl(tmp_path / "pairs.jsonl", records)
    schema_path = tmp_path / "schemas.json"
    schema_path.write_text(json.dumps(schemas))
    return data_path, schema_path


def scored_pair(pair_id, label, difficulty="Easy", question=None):
    return QueryPair(id=pair_id, sql1="q1", sql2="q2", schema_name="s",
                     label=label, difficulty=difficulty, question=question)


class TestLoadDataset:
    def test_three_valid_lines(self, tmp_path):
        records = [
            {"id": "a", "sql1": "SELECT 1", "sql2": "SELECT 2",
             "schema": "toy", "label": "NEQ"},
            {"id": "b", "sql1": "SELECT 1", "sql2": "SELECT 1",
             "schema": "toy", "label": "EQ"},
            {"id": "c", "sql1": "SELECT 3", "sql2": "select 3;",
             "schema": "toy", "label": "EQ", "difficulty": "Hard"},
        ]
        data, schemas = dataset_paths(tmp_path, records)
        loaded = load_dataset(data, schemas)
        assert len(loaded.pairs) == 3
        assert [p.exact for p in loaded.pairs] == [False, True, True]
        assert loaded.pairs[2].difficulty == "Hard"

    def test_missing_label_reports_line(self, tmp_path):
        records = [
            {"id": "a", "sql1": "SELECT 1", "sql2": "SELECT 2",
             "schema": "toy", "label": "EQ"},
            {"id": "b", "sql1": "SELECT 1", "sql2": "SELECT 2",
             "schema": "toy"},
        ]
        data, schemas = dataset_paths(tmp_path, records)
        with pytest.raises(DatasetParseError, match="line 2"):
            load_dataset(data, schemas)

    @pytest.mark.parametrize("field,value,message", [
        ("sql1", 5, "sql1 must be text"),
        ("sql2", None, "sql2 must be text"),
        ("question", 7, "question must be text or null"),
        ("explanation", ["why"], "explanation must be text or null"),
    ])
    def test_text_field_of_wrong_type_reports_line(self, tmp_path, field,
                                                   value, message):
        records = [
            {"id": "a", "sql1": "SELECT 1", "sql2": "SELECT 2",
             "schema": "toy", "label": "EQ", "question": "Q1"},
            {"id": "b", "sql1": "SELECT 1", "sql2": "SELECT 2",
             "schema": "toy", "label": "EQ", field: value},
        ]
        data, schemas = dataset_paths(tmp_path, records)
        with pytest.raises(DatasetParseError, match=f"line 2: {message}"):
            load_dataset(data, schemas)

    def test_absent_or_null_question_and_explanation_load(self, tmp_path):
        records = [
            {"id": "a", "sql1": "SELECT 1", "sql2": "SELECT 2",
             "schema": "toy", "label": "EQ"},
            {"id": "b", "sql1": "SELECT 1", "sql2": "SELECT 2",
             "schema": "toy", "label": "EQ", "question": None,
             "explanation": None},
        ]
        data, schemas = dataset_paths(tmp_path, records)
        pairs = load_dataset(data, schemas).pairs
        assert [(p.question, p.explanation) for p in pairs] == \
            [(None, None), (None, None)]

    def test_duplicate_id_rejected(self, tmp_path):
        record = {"id": "same", "sql1": "SELECT 1", "sql2": "SELECT 2",
                  "schema": "toy", "label": "EQ"}
        data, schemas = dataset_paths(tmp_path, [record, record])
        with pytest.raises(DuplicateId):
            load_dataset(data, schemas)

    def test_missing_schema_rejected(self, tmp_path):
        records = [{"id": "a", "sql1": "SELECT 1", "sql2": "SELECT 2",
                    "schema": "elsewhere", "label": "EQ"}]
        data, schemas = dataset_paths(tmp_path, records)
        with pytest.raises(MissingSchema):
            load_dataset(data, schemas)

    def test_bad_json_line(self, tmp_path):
        data = tmp_path / "pairs.jsonl"
        data.write_text('{"id": "a"\n')
        schemas = tmp_path / "schemas.json"
        schemas.write_text(json.dumps(datafix.TOY_SCHEMAS))
        with pytest.raises(DatasetParseError, match="line 1"):
            load_dataset(data, schemas)

    @pytest.mark.parametrize("value, difficulty", [
        ("Easy", "Easy"), ("ExtraHard", "ExtraHard"),
        ("Unlabeled", "Unlabeled"), (None, "Unlabeled"), ("hard", "Hard"),
        ("MEDIUM", "Medium"), ("Extra Hard", "ExtraHard"),
        ("extra-hard", "ExtraHard"), ("Extra", "ExtraHard"),
        (" easy ", "Easy"), ("Extra_Hard!", "ExtraHard"), (["Easy"], "Easy"),
        ("Difficult", None), ("", None), (5, None), (True, None),
        ({"d": 1}, None),
    ])
    def test_difficulty_normalizes_or_reports_line(self, tmp_path, value,
                                                   difficulty):
        records = [{"id": "a", "sql1": "SELECT 1", "sql2": "SELECT 2",
                    "schema": "toy", "label": "EQ", "difficulty": value}]
        data, schemas = dataset_paths(tmp_path, records)
        if difficulty is None:
            with pytest.raises(DatasetParseError) as caught:
                load_dataset(data, schemas)
            assert str(caught.value) == \
                f"line 1: unknown difficulty {value!r}"
        else:
            [pair] = load_dataset(data, schemas).pairs
            assert pair.difficulty == difficulty
            assert type(pair.difficulty) is str

    @pytest.mark.parametrize("line", [5, [1], "text", None])
    def test_line_that_is_not_an_object_reports_line(self, tmp_path, line):
        records = [{"id": "a", "sql1": "SELECT 1", "sql2": "SELECT 2",
                    "schema": "toy", "label": "EQ"}, line]
        data, schemas = dataset_paths(tmp_path, records)
        with pytest.raises(DatasetParseError,
                           match="line 2: not a JSON object"):
            load_dataset(data, schemas)

    def test_difficulty_corpus_fixture_counts(self, tmp_path):
        data, schemas = dataset_paths(tmp_path, datafix.difficulty_records())
        loaded = load_dataset(data, schemas)
        assert len(loaded.pairs) == 1034
        exact = [p for p in loaded.pairs if p.exact]
        scored = [p for p in loaded.pairs if not p.exact]
        assert len(exact) == 460
        assert sum(1 for p in scored if p.label == "EQ") == 385
        assert sum(1 for p in scored if p.label == "NEQ") == 189


class TestComputeMetrics:
    def test_simple_counts(self):
        pairs = [scored_pair("e1", "EQ"), scored_pair("e2", "EQ"),
                 scored_pair("n1", "NEQ"), scored_pair("n2", "NEQ")]
        predictions = {"e1": "Equivalent", "e2": "NonEquivalent",
                       "n1": "NonEquivalent", "n2": "NonEquivalent"}
        metrics = compute_metrics(predictions, pairs)
        assert metrics.eq_accuracy == 0.5
        assert metrics.neq_accuracy == 1.0
        assert metrics.gm == math.sqrt(0.5)

    def test_gm_zero_when_class_accuracy_zero(self):
        pairs = [scored_pair("e1", "EQ"), scored_pair("n1", "NEQ")]
        predictions = {"e1": "Equivalent", "n1": "Equivalent"}
        metrics = compute_metrics(predictions, pairs)
        assert metrics.neq_accuracy == 0.0
        assert metrics.gm == 0.0

    def test_gm_recompute_invariant(self):
        pairs = [scored_pair(f"e{i}", "EQ") for i in range(8)]
        pairs += [scored_pair(f"n{i}", "NEQ") for i in range(5)]
        predictions = {p.id: ("Equivalent" if i % 3 else "NonEquivalent")
                       for i, p in enumerate(pairs)}
        metrics = compute_metrics(predictions, pairs)
        assert metrics.gm == pytest.approx(
            math.sqrt(metrics.eq_accuracy * metrics.neq_accuracy))

    def test_empty_class_reports_not_applicable(self):
        pairs = [scored_pair("e1", "EQ")]
        metrics = compute_metrics({"e1": "Equivalent"}, pairs)
        assert metrics.eq_accuracy == 1.0
        assert metrics.neq_accuracy is None
        assert metrics.gm is None

    def test_unknown_policy_default_counts_as_neq(self):
        pairs = [scored_pair("e1", "EQ"), scored_pair("n1", "NEQ")]
        predictions = {"e1": "Unknown", "n1": "Unknown"}
        as_neq = compute_metrics(predictions, pairs, "as_neq")
        assert as_neq.eq_accuracy == 0.0
        assert as_neq.neq_accuracy == 1.0
        always_wrong = compute_metrics(predictions, pairs, "always_wrong")
        assert always_wrong.eq_accuracy == 0.0
        assert always_wrong.neq_accuracy == 0.0
        assert as_neq.unknown_predictions == 2

    def test_missing_prediction_rejected(self):
        with pytest.raises(ValueError, match="missing prediction"):
            compute_metrics({}, [scored_pair("e1", "EQ")])

    def test_unknown_policy_name_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics({}, [], unknown_policy="optimistic")


@given(st.lists(
    st.tuples(st.sampled_from(["EQ", "NEQ"]),
              st.sampled_from(["Equivalent", "NonEquivalent", "Unknown"])),
    min_size=1, max_size=60))
def test_unknown_policy_property(assignments):
    pairs = [scored_pair(f"p{i}", label)
             for i, (label, _pred) in enumerate(assignments)]
    predictions = {f"p{i}": pred
                   for i, (_label, pred) in enumerate(assignments)}
    policy_a = compute_metrics(predictions, pairs, "as_neq")
    policy_b = compute_metrics(predictions, pairs, "always_wrong")
    assert policy_a.eq_accuracy == policy_b.eq_accuracy
    if policy_a.neq_accuracy is not None:
        assert policy_a.neq_accuracy >= policy_b.neq_accuracy


class TestRunAndReports:
    def _small_run(self, tmp_path, parallelism=2):
        records = [
            {"id": f"p{i:02d}", "sql1": f"SELECT a FROM t WHERE b = {i}",
             "sql2": f"SELECT a FROM t WHERE b = {i + 50}",
             "schema": "toy", "label": "EQ" if i % 2 else "NEQ",
             "difficulty": "Easy" if i < 5 else "Medium"}
            for i in range(10)
        ]
        records.append({"id": "px", "sql1": "SELECT 9 FROM t",
                        "sql2": "select 9 from t", "schema": "toy",
                        "label": "EQ"})
        data, schemas = dataset_paths(tmp_path, records)
        dataset = load_dataset(data, schemas)
        mock = MockBackend(rules=[
            MockRule(response="Equivalent", substring="WHERE b = 1"),
            MockRule(response="Non Equivalent"),
        ])
        cfg = PipelineConfig(strategy_cfg=GenConfig(model="mock-model"),
                             fail_soft=True)
        report = run_benchmark(dataset, "basic", False,
                               mock, cfg,
                               parallelism=parallelism)
        return report, mock

    def test_run_scores_exclude_exact(self, tmp_path):
        report, _mock = self._small_run(tmp_path)
        assert len(report.verdicts) == 11
        assert len(report.scored_ids) == 10
        assert "px" not in report.scored_ids

    def test_exact_pair_shortcut_no_calls(self, tmp_path):
        report, mock = self._small_run(tmp_path)
        shortcut = next(v for v in report.verdicts if v.pair_id == "px")
        assert shortcut.shortcut
        assert mock.call_count == 20  # 10 scored pairs x 2 calls

    def test_one_exact_match_per_pair(self, tmp_path, monkeypatch):
        # load_dataset computes the flag and check_pair reuses it
        calls = []

        def counting(sql1, sql2):
            calls.append((sql1, sql2))
            return normalize.exact_match(sql1, sql2)

        monkeypatch.setattr(bench, "exact_match", counting)
        monkeypatch.setattr(pipeline, "exact_match", counting)
        report, _mock = self._small_run(tmp_path)
        assert len(calls) == len(set(calls)) == len(report.pairs) == 11
        assert next(v for v in report.verdicts if v.pair_id == "px").shortcut

    def test_report_independent_of_parallelism(self, tmp_path):
        texts = []
        for parallelism in (1, 4):
            report, _ = self._small_run(tmp_path, parallelism)
            payload = json.loads(emit_report(report, "json"))
            payload.pop("started_at")
            payload.pop("finished_at")
            texts.append(json.dumps(payload, sort_keys=True))
        assert texts[0] == texts[1]

    def test_breakdown_difficulty(self, tmp_path):
        report, _ = self._small_run(tmp_path)
        by_difficulty = breakdown(report, "difficulty")
        assert set(by_difficulty) == {"Easy", "Medium"}
        easy = by_difficulty["Easy"]
        assert easy.eq_total + easy.neq_total == 5

    def test_breakdown_single_difficulty_dataset(self, tmp_path):
        records = [
            {"id": "a", "sql1": "SELECT 1 FROM t", "sql2": "SELECT 2 FROM t",
             "schema": "toy", "label": "NEQ", "difficulty": "Hard"},
        ]
        data, schemas = dataset_paths(tmp_path, records)
        dataset = load_dataset(data, schemas)
        cfg = PipelineConfig(strategy_cfg=GenConfig(model="m"))
        report = run_benchmark(dataset, "basic", False,
                               MockBackend(), cfg,
                               parallelism=1)
        assert list(breakdown(report, "difficulty")) == ["Hard"]

    def test_breakdown_axis_validation(self, tmp_path):
        report, _ = self._small_run(tmp_path)
        with pytest.raises(ValueError):
            breakdown(report, "color")

    def test_emit_json_deterministic_and_gm_consistent(self, tmp_path):
        report, _ = self._small_run(tmp_path)
        one = emit_report(report, "json")
        two = emit_report(report, "json")
        assert one == two
        payload = json.loads(one)
        metrics = payload["metrics"]
        if metrics["eq_accuracy"] is not None and \
                metrics["neq_accuracy"] is not None:
            assert metrics["gm"] == pytest.approx(math.sqrt(
                metrics["eq_accuracy"] * metrics["neq_accuracy"]))
        assert [row["pair_id"] for row in payload["pairs"]] == \
            sorted(row["pair_id"] for row in payload["pairs"])

    def test_emit_csv_has_rows_and_metric_footer(self, tmp_path):
        report, _ = self._small_run(tmp_path)
        text = emit_report(report, "csv")
        lines = text.strip().split("\n")
        assert lines[0].startswith("pair_id,")
        assert sum(1 for ln in lines if ln.startswith("p")) - 1 == 11
        assert any(ln.startswith("# gm,") for ln in lines)

    def test_emit_markdown_tables(self, tmp_path):
        report, _ = self._small_run(tmp_path)
        text = emit_report(report, "markdown")
        assert "## Overall" in text
        assert "## By difficulty" in text
        assert "| EQ n | NEQ n |" in text

    def test_write_report(self, tmp_path):
        report, _ = self._small_run(tmp_path)
        out = tmp_path / "report.json"
        write_report(report, "json", out)
        assert json.loads(out.read_text())["strategy"] == "basic"

    def test_unknown_format(self, tmp_path):
        report, _ = self._small_run(tmp_path)
        with pytest.raises(ValueError):
            emit_report(report, "xml")

    def test_config_echo_in_report(self, tmp_path):
        report, _ = self._small_run(tmp_path)
        assert report.config["strategy_gen"]["model"] == "mock-model"
        assert report.config["strategy_gen"]["temperature"] == 0.2
        assert report.config["backend"] == "MockBackend"

    def test_fewshot_exemplar_pairs_excluded_from_run(self, tmp_path):
        from sqleq.prompts import select_exemplars
        records = [
            {"id": f"f{i:02d}", "sql1": f"SELECT a FROM t WHERE b = {i}",
             "sql2": f"SELECT a FROM t WHERE {i} = b",
             "schema": "toy", "label": "EQ" if i % 2 else "NEQ"}
            for i in range(12)
        ]
        data, schemas = dataset_paths(tmp_path, records)
        dataset = load_dataset(data, schemas)
        exemplars = select_exemplars(dataset, seed=1)
        cfg = PipelineConfig(strategy_cfg=GenConfig(model="m"),
                             exemplars=exemplars)
        report = run_benchmark(dataset, "fewshot", False,
                               MockBackend(), cfg,
                               parallelism=1)
        excluded = set(exemplars.excluded_ids)
        assert len(excluded) == 4
        assert not {v.pair_id for v in report.verdicts} & excluded
        assert not report.scored_ids & excluded
        assert report.metrics.eq_total + report.metrics.neq_total == 8


class _RecordingBackend(MockBackend):
    """A mock that keeps the body of every strategy prompt by pair id."""

    def __init__(self):
        super().__init__(rules=[MockRule(response="Equivalent")])
        self.prompts = {}

    def complete(self, bundle, cfg):
        if bundle.strategy != "classify":
            self.prompts[bundle.meta.get("pair_id")] = bundle.body
        return super().complete(bundle, cfg)


# `t` resolves `a` and `b` under "toy" and neither under "other"
MEMO_SCHEMAS = {"toy": datafix.TOY_SCHEMAS["toy"],
                "other": {"tables": [{"name": "t", "columns": ["c"]}]}}


class TestPlanMemo:
    """One run plans each distinct (query text, schema) once, and its
    prompts are those of a run that plans every pair afresh."""

    def _dataset(self, tmp_path, schemas=None, count=12):
        texts = ["SELECT a FROM t WHERE b = 1", "SELECT a FROM t WHERE b = 2",
                 "SELECT b FROM t", "SELECT FROM"]
        records = [
            {"id": f"p{i:03d}", "sql1": texts[i % 4],
             "sql2": texts[(i + 1) % 4],
             "schema": "toy" if i % 12 < 8 else "other", "label": "EQ"}
            for i in range(count)
        ]
        data, schema_path = dataset_paths(
            tmp_path, records, MEMO_SCHEMAS if schemas is None else schemas)
        return load_dataset(data, schema_path)

    def _run(self, dataset, parallelism=1):
        backend = _RecordingBackend()
        cfg = PipelineConfig(strategy_cfg=GenConfig(model="m"))
        run_benchmark(dataset, "basic", True, backend, cfg,
                      parallelism=parallelism)
        return backend.prompts

    def test_each_distinct_text_is_planned_once(self, tmp_path,
                                                monkeypatch):
        dataset = self._dataset(tmp_path)
        planned = []

        def counting(text, schema):
            planned.append((text, id(schema)))
            return original(text, schema)

        original = plan.plan_or_placeholder
        monkeypatch.setattr(plan, "plan_or_placeholder", counting)
        self._run(dataset)
        distinct = {(text, id(dataset.schema_for(pair)))
                    for pair in dataset.pairs for text in (pair.sql1,
                                                           pair.sql2)}
        assert len(planned) == len(set(planned)) == len(distinct) == 8

    def test_same_text_gets_each_schema_plan(self, tmp_path):
        prompts = self._run(self._dataset(tmp_path))
        # p000 (toy) and p008 (other) show the same two texts
        assert "LogicalProject(a)" in prompts["p000"]
        assert PLAN_ERROR_PLACEHOLDER not in prompts["p000"]
        assert "LogicalProject" not in prompts["p008"]
        assert prompts["p008"].count(PLAN_ERROR_PLACEHOLDER) == 2

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_prompts_match_unmemoized_plans(self, tmp_path, parallelism):
        # workers that share the memo switch often, so two of them plan
        # one text at once now and then
        dataset = self._dataset(tmp_path, count=240)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            prompts = self._run(dataset, parallelism)
        finally:
            sys.setswitchinterval(interval)
        assert len(prompts) == len(dataset.pairs)
        for pair in dataset.pairs:
            schema = dataset.schema_for(pair)
            expected = build_strategy("basic", pair, schema,
                                      pair_plans(pair, schema))
            assert prompts[pair.id] == expected.body

    def test_runs_do_not_share_plans(self, tmp_path):
        # the second run's "toy" has the columns of "other"
        renamed = dict(MEMO_SCHEMAS, toy=MEMO_SCHEMAS["other"])
        (tmp_path / "1").mkdir()
        (tmp_path / "2").mkdir()
        first = self._run(self._dataset(tmp_path / "1"))
        second = self._run(self._dataset(tmp_path / "2", renamed))
        assert "LogicalProject(a)" in first["p000"]
        assert second["p000"].count(PLAN_ERROR_PLACEHOLDER) == 2

    def test_a_defect_propagates_and_is_not_kept(self, tmp_path,
                                                 monkeypatch):
        calls = []

        def broken(ast, schema):
            calls.append(ast)
            raise RuntimeError("defect")

        monkeypatch.setattr(plan, "build_plan", broken)
        dataset = self._dataset(tmp_path)
        pair = dataset.pairs[0]
        memo = {}
        for _ in range(2):
            with pytest.raises(RuntimeError, match="defect"):
                pair_plans(pair, dataset.schema_for(pair), memo)
        assert len(calls) == 2 and memo == {}
        with pytest.raises(RuntimeError, match="defect"):
            self._run(dataset)


class _HookBackend(MockBackend):
    """A mock whose first call of each pair (the strategy prompt) runs
    `hook(pair_id)` before answering; the classify call runs no hook."""

    def __init__(self, hook):
        super().__init__(rules=[MockRule(response="Equivalent")])
        self.hook = hook

    def complete(self, bundle, cfg):
        if bundle.strategy == "basic":
            self.hook(bundle.meta.get("pair_id"))
        return super().complete(bundle, cfg)


class PairFailed(Exception):
    pass


WAIT_S = 10


class TestFanOut:
    """run_benchmark's worker threads: bounded, in input order, off the
    calling thread, and stopped by the first failure or by an interrupted
    join."""

    def _run(self, tmp_path, backend, parallelism, count=10):
        records = [
            {"id": f"p{i:02d}", "sql1": f"SELECT a FROM t WHERE b = {i}",
             "sql2": f"SELECT a FROM t WHERE b = {i + 50}",
             "schema": "toy", "label": "EQ"}
            for i in range(count)
        ]
        data, schemas = dataset_paths(tmp_path, records)
        cfg = PipelineConfig(strategy_cfg=GenConfig(model="m"))
        return run_benchmark(load_dataset(data, schemas), "basic", False,
                             backend, cfg, parallelism=parallelism)

    def test_exception_of_the_earliest_failing_pair_is_raised(self,
                                                               tmp_path):
        later_failed = threading.Event()

        def hook(pair_id):
            if pair_id == "p05":
                later_failed.set()
                raise PairFailed(pair_id)
            if pair_id == "p03":
                assert later_failed.wait(WAIT_S)
                raise PairFailed(pair_id)

        with pytest.raises(PairFailed) as caught:
            self._run(tmp_path, _HookBackend(hook), parallelism=4)
        assert caught.value.args == ("p03",)

    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_no_pair_starts_after_a_failure(self, tmp_path, parallelism):
        started = []
        failed = threading.Event()

        def hook(pair_id):
            started.append(pair_id)
            if pair_id == "p02":
                failed.set()
                raise PairFailed(pair_id)
            if parallelism > 1:
                # the pairs in flight when p02 fails finish after it
                assert failed.wait(WAIT_S)
                time.sleep(0.05)

        with pytest.raises(PairFailed):
            self._run(tmp_path, _HookBackend(hook), parallelism, count=20)
        assert started == ["p00", "p01", "p02"]

    def test_parallelism_pairs_in_flight_and_never_more(self, tmp_path):
        barrier = threading.Barrier(3, timeout=WAIT_S)
        lock = threading.Lock()
        in_flight = []
        most = 0
        started = []

        def hook(pair_id):
            nonlocal most
            with lock:
                started.append(pair_id)
                in_flight.append(pair_id)
                most = max(most, len(in_flight))
            barrier.wait()
            with lock:
                in_flight.remove(pair_id)

        report = self._run(tmp_path, _HookBackend(hook), parallelism=3,
                           count=9)
        assert most == 3
        assert len(report.verdicts) == 9
        # pairs start in input order, one barrier round at a time
        rounds = [sorted(started[i:i + 3]) for i in (0, 3, 6)]
        assert rounds == [["p00", "p01", "p02"], ["p03", "p04", "p05"],
                          ["p06", "p07", "p08"]]

    def test_more_workers_than_pairs(self, tmp_path):
        threads = set()

        def hook(pair_id):
            threads.add(threading.current_thread())

        report = self._run(tmp_path, _HookBackend(hook), parallelism=8,
                           count=3)
        assert [v.pair_id for v in report.verdicts] == ["p00", "p01", "p02"]
        assert 1 <= len(threads) <= 3
        assert threading.main_thread() not in threads

    def test_every_pair_checked_once_under_frequent_switches(self):
        # more workers than cores, switching threads every microsecond,
        # and checks short enough that handing out the next pair is a
        # large share of the work: a lost update of the shared cursor
        # would check a pair twice or skip one
        seen = []
        ready = threading.Barrier(8, timeout=WAIT_S)
        local = threading.local()

        def check(x):
            if not hasattr(local, "ready"):
                local.ready = ready.wait()   # all workers contend from here
            seen.append(x)
            return -x

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = bench._check_pairs(range(20_000), check, parallelism=8)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(seen) == list(range(20_000))
        assert results == [-x for x in range(20_000)]

    def test_empty_dataset(self, tmp_path):
        report = self._run(tmp_path, MockBackend(), parallelism=4, count=0)
        assert report.verdicts == []

    @pytest.mark.parametrize("count", [0, 3])
    def test_zero_parallelism_rejected(self, tmp_path, count):
        with pytest.raises(ValueError):
            self._run(tmp_path, MockBackend(), parallelism=0, count=count)

    def test_interrupted_join_stops_the_workers(self, tmp_path,
                                                monkeypatch):
        started = []
        workers = []
        both_started = threading.Event()
        release = threading.Event()
        lock = threading.Lock()

        def hook(pair_id):
            with lock:
                started.append(pair_id)
                workers.append(threading.current_thread())
                if len(started) == 2:
                    both_started.set()
            assert release.wait(WAIT_S)

        join = threading.Thread.join

        def interrupted_join(thread, timeout=None):
            assert both_started.wait(WAIT_S)
            raise KeyboardInterrupt

        monkeypatch.setattr(threading.Thread, "join", interrupted_join)
        with pytest.raises(KeyboardInterrupt):
            self._run(tmp_path, _HookBackend(hook), parallelism=2)
        monkeypatch.undo()
        release.set()
        for worker in workers:
            join(worker, WAIT_S)
            assert not worker.is_alive()
        assert sorted(started) == ["p00", "p01"]


TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_pairs_are_children_of_the_run_span(tmp_path):
    # perfbench/tracer.py parents a worker thread's first span on the
    # span the main thread is in: the main thread must only wait inside
    # run_benchmark, never check a pair itself
    data = write_jsonl(tmp_path / "pairs.jsonl",
                       datafix.question_records()[:60])
    schemas = tmp_path / "schemas.json"
    schemas.write_text(json.dumps(datafix.QUESTION_SCHEMAS))
    script = tmp_path / "mock.json"
    script.write_text(json.dumps(datafix.scripted_question_rules()))
    spans_path = tmp_path / "spans.jsonl"
    subprocess.run(
        [sys.executable, str(TRACER), str(spans_path), "bench",
         "--dataset", str(data), "--schemas", str(schemas),
         "--strategy", "basic", "--with-plans", "--parallelism", "2",
         "--out", str(tmp_path / "report.json"),
         "--mock-script", str(script)],
        env=child_env(), capture_output=True, text=True, check=True,
        timeout=120)
    head, *lines = spans_path.read_text().splitlines()
    assert json.loads(head) == {"absent": []}
    spans = [json.loads(line) for line in lines]
    [run] = [s["id"] for s in spans if s["name"] == "bench.run_benchmark"]
    checks = [s for s in spans if s["name"] == "pipeline.check_pair"]
    assert len(checks) == 60
    assert {s["parent"] for s in checks} == {run}
    # the plans of a pair are made inside its check
    plans = [s for s in spans if s["name"] == "plan.plan_or_placeholder"]
    assert plans
    assert {s["parent"] for s in plans} <= {s["id"] for s in checks}


class TestCoverage:
    def _report(self, tmp_path):
        report, _ = TestRunAndReports()._small_run(tmp_path)
        return report

    def test_all_supported_all_correct_overlap_equals_total(self, tmp_path):
        records = [
            {"id": f"c{i}", "sql1": f"SELECT a FROM t WHERE b = {i}",
             "sql2": f"SELECT a FROM t WHERE b = {i + 9}",
             "schema": "toy", "label": "EQ" if i % 2 else "NEQ"}
            for i in range(6)
        ]
        data, schemas = dataset_paths(tmp_path, records)
        dataset = load_dataset(data, schemas)
        rules = [MockRule(response="Equivalent" if r["label"] == "EQ"
                          else "Non Equivalent", pair_id=r["id"])
                 for r in records]
        cfg = PipelineConfig(strategy_cfg=GenConfig(model="m"))
        report = run_benchmark(dataset, "basic", False,
                               MockBackend(rules=rules),
                               cfg, parallelism=1)
        assert report.metrics.eq_accuracy == 1.0
        assert report.metrics.neq_accuracy == 1.0
        path = write_jsonl(tmp_path / "tool.jsonl",
                           [{"pair_id": r["id"], "supported": True}
                            for r in records])
        coverage = coverage_compare(report, path)
        assert coverage.supported_total == 6
        assert coverage.supported_correct == coverage.supported_total
        assert coverage.unsupported_total == 0

    def test_unknown_pair_id_warns_and_ignored(self, tmp_path):
        report = self._report(tmp_path)
        path = write_jsonl(tmp_path / "tool.jsonl", [
            {"pair_id": "p00", "supported": True},
            {"pair_id": "does-not-exist", "supported": True},
        ])
        with pytest.warns(UserWarning, match="unknown pair id"):
            coverage = coverage_compare(report, path)
        assert coverage.supported_total == 1

    @pytest.mark.parametrize("text, message", [
        ('[1]\n', "line 1: not a JSON object"),
        ('{"pair_id": "p00"}\n{"pair_id": \n', "line 2: invalid JSON"),
    ])
    def test_malformed_tool_results_line(self, tmp_path, text, message):
        report = self._report(tmp_path)
        path = tmp_path / "tool.jsonl"
        path.write_text(text)
        with pytest.raises(DatasetParseError, match=message):
            coverage_compare(report, path)

    def test_as_dict(self):
        coverage = CoverageReport(2, 3, 1, 0)
        assert coverage.as_dict()["supported_total"] == 2


def _written(value):
    out = []
    bench._write_json(value, out, "\n")
    return "".join(out)


def _json_dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


# Non-ASCII, line separators, lone surrogates, control characters and
# every character with a short escape.
_json_text = st.text() | st.sampled_from([
    "", "é", "日本", "\u2028", "\u2029", "\ud800", "\udfff x",
    "\x00\x1f\x7f", '"\\/\b\f\n\r\t', "😀"])
_json_scalars = (
    st.none() | st.booleans() | _json_text
    | st.integers() | st.integers(min_value=-10 ** 40, max_value=10 ** 40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 0.0, 1e16, 5e-324, 1e-7, math.nan, math.inf,
                       -math.inf, 1.0, 0.1, -1.5e300]))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_json_text, inner, max_size=4),
    max_leaves=30)


class TestReportWriter:
    """`_write_json` writes what `json.dumps(indent=2, sort_keys=True)`
    writes."""

    @settings(max_examples=500, deadline=None)
    @given(_json_values)
    def test_any_payload(self, value):
        assert _written(value) == _json_dumps(value)

    @pytest.mark.parametrize("value", [
        {1: "a", 2.5: "b", -3: "c"}, {True: 1, False: 2}, {None: 0},
        {math.nan: [], math.inf: {}}, [], {}, [[], {}, [[{}]]],
        [1, 2.0, True, None, "x"], 10 ** 100, -0.0, "\ud83d",
    ], ids=["number-keys", "bool-keys", "none-key", "float-keys",
            "empty-list", "empty-dict", "nested-empties", "mixed-list",
            "big-int", "negative-zero", "lone-surrogate"])
    def test_edge_values(self, value):
        assert _written(value) == _json_dumps(value)

    def test_subclasses_are_written_as_their_base(self):
        class Text(str):
            pass

        class Number(int):
            pass

        class Real(float):
            pass

        value = {"a": [Text("v"), Number(7), Real(0.5), Real(math.nan)],
                 Text("b"): {Text("c"): Number(-2)},
                 "c": {Number(3): Real(1), Number(1): 0, Real(2.5): None}}
        assert _written(value) == _json_dumps(value)

    @pytest.mark.parametrize("value", [
        {"a": {1, 2}}, [object()], {(1, 2): "x"}, {"a": 1, 2: "b"},
    ], ids=["set", "object", "tuple-key", "mixed-keys"])
    def test_failures_match(self, value):
        with pytest.raises(TypeError) as expected:
            _json_dumps(value)
        with pytest.raises(TypeError) as got:
            _written(value)
        assert str(got.value) == str(expected.value)

    def test_reports_of_the_benchmark_corpora(self, tmp_path):
        """Every strategy with plans off and on over the seed-3 pipeline
        corpora of `perfbench`."""
        workloads = perfbench_workloads()
        exemplars = exemplar_set_from_file(
            workloads.write_exemplars(tmp_path))
        for corpus in (workloads.difficulty_corpus(3),
                       workloads.question_corpus(3),
                       workloads.multi_clause_corpus(3)):
            paths = corpus.write(tmp_path)
            dataset = load_dataset(paths["dataset"], paths["schemas"])
            backend = MockBackend.from_file(paths["mock_script"])
            cfg = PipelineConfig(GenConfig(model="mock"),
                                 exemplars=exemplars, fail_soft=True)
            for strategy in pipeline.STRATEGIES:
                for plans in (False, True):
                    report = run_benchmark(dataset, strategy, plans,
                                           backend, cfg, parallelism=2)
                    payload = bench._report_payload(report)
                    assert emit_report(report, "json") == \
                        _json_dumps(payload) + "\n"
