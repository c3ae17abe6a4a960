import gc
import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import datafix
from conftest import GOLDEN, FIXTURES, child_env, write_jsonl
from sqleq.cli import (
    GC_THRESHOLD, SWITCH_INTERVAL, _build_parser, main, resolve_config,
)
from sqleq.pipeline import STRATEGIES

# the two timestamps of a JSON report, whose values differ between runs
_TIMESTAMPS = re.compile(r'^(  "(?:started|finished)_at": )"[^"\n]*"', re.M)
GOLDEN_PAIR_ARGS = ["--sql1", "SELECT playerid FROM people",
                    "--sql2", "SELECT playerid FROM batting"]


@pytest.fixture
def schema_file(tmp_path, golden_schema):
    payload = {
        "tables": [{"name": t.name, "columns": list(t.columns)}
                   for t in golden_schema.tables],
        "foreign_keys": [list(fk) for fk in golden_schema.foreign_keys],
        "primary_keys": list(golden_schema.primary_keys),
    }
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def mock_script(tmp_path):
    path = tmp_path / "mock.json"
    path.write_text(json.dumps([
        {"match": {"substring": "### Text"}, "response": "Non Equivalent"},
        {"match": {}, "response": "different results"},
    ]))
    return str(path)


class TestCheck:
    def test_identical_pair_exits_zero(self, schema_file, capsys):
        code = main(["check", "--sql1", "SELECT playerid FROM people",
                     "--sql2", "select  playerid from people;",
                     "--schema", schema_file])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["label"] == "Equivalent"
        assert record["shortcut"] is True

    def test_scripted_neq_exits_one(self, schema_file, mock_script, capsys):
        code = main(["check", "--sql1", "SELECT playerid FROM people",
                     "--sql2", "SELECT playerid FROM batting",
                     "--schema", schema_file,
                     "--backend", "mock", "--mock-script", mock_script])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["label"] == "NonEquivalent"

    def test_default_mock_yields_unknown_exit_two(self, schema_file, capsys):
        code = main(["check", "--sql1", "SELECT playerid FROM people",
                     "--sql2", "SELECT playerid FROM batting",
                     "--schema", schema_file])
        assert code == 2

    def test_unreachable_backend_exit(self, schema_file, tmp_path, capsys):
        with socket.socket() as sock:  # a loopback port nothing listens on
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"retries": 0}))
        code = main(["--config", str(config), "check", *GOLDEN_PAIR_ARGS,
                     "--schema", schema_file, "--backend", "http",
                     "--endpoint", f"http://127.0.0.1:{port}/v1"])
        assert code == 69
        assert capsys.readouterr().err.startswith("error: TransportError: ")

    @pytest.mark.parametrize("endpoint", [
        "http://[::1", "localhost:9/x", "ftp://127.0.0.1:9/y",
        "http://127.0.0.1:abc/v1",
    ])
    def test_unusable_endpoint_usage_error(self, schema_file, endpoint,
                                           capsys):
        # rejected before any request: no retries, no waiting
        code = main(["check", *GOLDEN_PAIR_ARGS, "--schema", schema_file,
                     "--backend", "http", "--endpoint", endpoint])
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad endpoint: {endpoint!r}")

    def test_missing_schema_file_usage_error(self, capsys):
        code = main(["check", "--sql1", "SELECT 1", "--sql2", "SELECT 2",
                     "--schema", "/nowhere/schema.json"])
        assert code == 64
        assert "error:" in capsys.readouterr().err


class TestPlanFeaturesPrompt:
    def test_plan_placeholder_exits_zero(self, schema_file, capsys):
        code = main(["plan", "--sql", "SELECT FROM", "--schema", schema_file])
        assert code == 0
        assert capsys.readouterr().out.strip() == \
            "ERROR WHILE GENERATING PLAN"

    def test_plan_valid_query(self, schema_file, capsys):
        code = main(["plan", "--sql", "SELECT playerid FROM people",
                     "--schema", schema_file])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("LogicalProject(playerid)")

    def test_features_json(self, capsys):
        code = main(["features", "--sql",
                     "SELECT a FROM t UNION SELECT a FROM s"])
        assert code == 0
        profile = json.loads(capsys.readouterr().out)
        assert profile["set_operators"] == 1

    def test_features_syntax_error_exit(self, capsys):
        code = main(["features", "--sql", "SELECT FROM"])
        assert code == 65
        assert capsys.readouterr().err.startswith("error: SqlSyntaxError: ")

    def test_features_unsupported_construct_exit(self, capsys):
        code = main(["features", "--sql",
                     "SELECT a FROM t NATURAL JOIN s"])
        assert code == 65
        assert capsys.readouterr().err.startswith(
            "error: UnsupportedConstruct: ")

    def test_features_of_a_character_no_token_holds(self, capsys):
        code = main(["features", "--sql", "SELECT ²"])
        assert code == 65
        assert capsys.readouterr().err.strip() == (
            "error: SqlSyntaxError: unexpected character '²' at offset 7")

    def test_prompt_basic_matches_golden(self, schema_file, capsys):
        code = main(["prompt", "--strategy", "basic",
                     "--sql1", "SELECT playerid FROM people",
                     "--sql2", "SELECT playerid FROM batting",
                     "--schema", schema_file])
        assert code == 0
        golden = (GOLDEN / "basic.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden

    def test_prompt_fewshot_matches_golden(self, schema_file, capsys):
        code = main(["prompt", "--strategy", "fewshot",
                     "--sql1", "SELECT playerid FROM people",
                     "--sql2", "SELECT playerid FROM batting",
                     "--schema", schema_file,
                     "--exemplars", str(FIXTURES / "exemplars.json")])
        assert code == 0
        golden = (GOLDEN / "fewshot.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden

    def test_prompt_classify(self, capsys):
        code = main(["prompt", "--strategy", "classify", "--text", "hello"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.endswith("### Answer")
        assert "hello" in out

    def test_prompt_missing_args_usage_error(self, capsys):
        assert main(["prompt", "--strategy", "basic"]) == 64

    @pytest.mark.parametrize("extra,golden_name", [
        (["--strategy", "cot"], "cot.txt"),
        (["--strategy", "basic", "--with-plans"], "basic_with_plans.txt"),
        (["--strategy", "explain", "--slot", "2"], "explain_2.txt"),
        (["--strategy", "decide",
          "--expl1", "SQL_1 lists every player id from the people table.",
          "--expl2", "SQL_2 lists the player id of every batting record."],
         "decide.txt"),
    ])
    def test_prompt_stage_matches_golden(self, schema_file, capsys, extra,
                                         golden_name):
        code = main(["prompt", *extra, *GOLDEN_PAIR_ARGS,
                     "--schema", schema_file])
        assert code == 0
        golden = (GOLDEN / golden_name).read_text(encoding="utf-8")
        assert capsys.readouterr().out == golden

    def test_prompt_fewshot_without_exemplars_names_the_flag(
            self, schema_file, capsys):
        code = main(["prompt", "--strategy", "fewshot", *GOLDEN_PAIR_ARGS,
                     "--schema", schema_file])
        assert code == 64
        assert capsys.readouterr().err.strip() == \
            "error: fewshot prompt needs --exemplars"

    @pytest.mark.parametrize("command", ["check", "bench"])
    def test_strategy_choices_are_the_pipeline_strategies(self, command):
        subcommands = next(a for a in _build_parser()._actions
                           if a.dest == "command")
        strategy = next(a for a in subcommands.choices[command]._actions
                        if a.dest == "strategy")
        assert tuple(strategy.choices) == STRATEGIES


def bench_one_pair(tmp_path, out):
    """Exit code of `sqleq bench` over one pair with its report going to
    `tmp_path / out`, beside a file `report.json` that holds "kept"."""
    data = write_jsonl(tmp_path / "pairs.jsonl", [{
        "id": "p1", "sql1": "SELECT playerid FROM people",
        "sql2": "SELECT playerid FROM batting", "schema": "baseball",
        "label": "NEQ"}])
    schemas = tmp_path / "schemas.json"
    schemas.write_text(json.dumps(datafix.QUESTION_SCHEMAS))
    (tmp_path / "report.json").write_text("kept")
    return main(["bench", "--dataset", str(data), "--schemas", str(schemas),
                 "--strategy", "basic", "--out", str(tmp_path / out)])


class TestBench:
    def test_end_to_end_with_mock(self, tmp_path, capsys):
        records = datafix.question_records()[:20]
        data = write_jsonl(tmp_path / "pairs.jsonl", records)
        schemas = tmp_path / "schemas.json"
        schemas.write_text(json.dumps(datafix.QUESTION_SCHEMAS))
        script = tmp_path / "mock.json"
        script.write_text(json.dumps(datafix.scripted_question_rules()))
        out = tmp_path / "report.json"
        code = main(["bench", "--dataset", str(data),
                     "--schemas", str(schemas),
                     "--strategy", "basic", "--out", str(out),
                     "--format", "json",
                     "--mock-script", str(script)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["out"] == str(out)
        payload = json.loads(out.read_text())
        assert len(payload["pairs"]) == 20

    @pytest.mark.parametrize("out", [".", "missing/report.json",
                                     "report.json/x"])
    @pytest.mark.parametrize("checked_first", [True, False])
    def test_unwritable_report_path_usage_error(self, tmp_path, out,
                                                checked_first, capsys,
                                                monkeypatch):
        # a directory, a missing directory, a file used as a directory;
        # past the check before the run, the write itself fails
        if not checked_first:
            monkeypatch.setattr("sqleq.cli._unwritable", lambda path: 0)
        assert bench_one_pair(tmp_path, out) == 64
        assert capsys.readouterr().err.startswith(
            f"error: cannot write report {tmp_path / out}: ")

    @pytest.mark.parametrize("out", [".", "missing/report.json",
                                     "report.json/x", "locked/report.json"])
    def test_unwritable_report_path_found_before_any_pair_runs(
            self, tmp_path, out, capsys, monkeypatch):
        # with an HTTP backend every pair would be paid for in vain
        runs = []
        monkeypatch.setattr("sqleq.cli.run_benchmark",
                            lambda *args, **kwargs: runs.append(args))
        locked = tmp_path / "locked"
        locked.mkdir(mode=0o500)
        if out.startswith("locked") and os.access(locked, os.W_OK):
            pytest.skip("this user may write into a read-only directory")
        assert bench_one_pair(tmp_path, out) == 64
        assert capsys.readouterr().err.startswith(
            f"error: cannot write report {tmp_path / out}: ")
        assert runs == []
        assert not (tmp_path / "missing").exists()
        assert (tmp_path / "report.json").read_text() == "kept"
        assert list(locked.iterdir()) == []

    def test_missing_dataset_usage_error(self, tmp_path, capsys):
        schemas = tmp_path / "schemas.json"
        schemas.write_text(json.dumps(datafix.TOY_SCHEMAS))
        code = main(["bench", "--dataset", "/nope.jsonl",
                     "--schemas", str(schemas), "--out",
                     str(tmp_path / "r.json")])
        assert code == 64


class TestOracleCommand:
    def test_refuted_pair_reported(self, tmp_path, capsys):
        records = [{
            "id": "w1",
            "sql1": "SELECT SUM(cs) FROM batting GROUP BY playerid",
            "sql2": "SELECT cs FROM batting",
            "schema": "baseball",
            "label": "NEQ",
        }]
        data = write_jsonl(tmp_path / "pairs.jsonl", records)
        schemas = tmp_path / "schemas.json"
        schemas.write_text(json.dumps(datafix.QUESTION_SCHEMAS))
        instance = tmp_path / "witness.json"
        instance.write_text(json.dumps({"tables": {
            "batting": {"columns": ["playerid", "yearid", "cs"],
                        "rows": [["p1", 2000, 2], ["p1", 2001, 3]]},
            "people": {"columns": ["playerid", "namefirst", "namelast"],
                       "rows": [["p1", "A", "B"]]},
        }}))
        code = main(["oracle", "--dataset", str(data),
                     "--schemas", str(schemas),
                     "--instances", str(instance), "--format", "json"])
        assert code == 0
        line = capsys.readouterr().out.strip().split("\n")[0]
        outcome = json.loads(line)
        assert outcome["status"] == "refuted"
        assert outcome["witness_index"] == 0


    @pytest.mark.parametrize("instance", [
        {"tables": {"t": {"rows": [[1]]}}},
        {"tables": {"t": {"columns": ["a"], "rows": [5]}}},
        {"tables": {"t": {"columns": ["a"], "rows": [[[1]]]}}},
        {"tables": {"t": {"columns": ["a"], "rows": [[1.5], [float("nan")]]}}},
        [7],
    ])
    def test_malformed_instance_is_inconclusive(self, tmp_path, capsys,
                                                instance):
        data = write_jsonl(tmp_path / "pairs.jsonl", [{
            "id": "p1", "sql1": "SELECT a FROM t",
            "sql2": "SELECT a * 1 FROM t", "schema": "s", "label": "EQ"}])
        schemas = tmp_path / "schemas.json"
        schemas.write_text(json.dumps({"s": {
            "tables": [{"name": "t", "columns": ["a"]}],
            "foreign_keys": [], "primary_keys": []}}))
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance))  # writes NaN as a bare NaN
        code = main(["oracle", "--dataset", str(data),
                     "--schemas", str(schemas),
                     "--instances", str(path), "--format", "json"])
        assert code == 0
        outcome = json.loads(capsys.readouterr().out.strip())
        assert outcome["status"] == "inconclusive"
        assert outcome["errors"][0].startswith("instance 0: ")


    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_instance_indexes_count_the_ones_that_did_not_load(
            self, tmp_path, capsys, fmt):
        # instance 0 does not load; instance 1 refutes the first pair
        # and agrees on the second
        data = write_jsonl(tmp_path / "pairs.jsonl", [
            {"id": pid, "sql1": s1, "sql2": s2, "schema": "s",
             "label": "NEQ"} for pid, s1, s2 in [
                ("differ", "SELECT a FROM t", "SELECT a + 1 FROM t"),
                ("agree", "SELECT a FROM t", "SELECT a * 1 FROM t")]])
        schemas = tmp_path / "schemas.json"
        schemas.write_text(json.dumps({"s": {
            "tables": [{"name": "t", "columns": ["a"]}]}}))
        instances = tmp_path / "instances.json"
        instances.write_text(json.dumps(
            [5, {"tables": {"t": {"columns": ["a"], "rows": [[1]]}}}]))
        code = main(["oracle", "--dataset", str(data),
                     "--schemas", str(schemas),
                     "--instances", str(instances), "--format", fmt])
        assert code == 0
        captured = capsys.readouterr()
        load_error = "instance 0: instance must be a JSON object"
        if fmt == "json":
            differ, agree = [json.loads(line) for line in
                             captured.out.strip().split("\n")]
            assert differ == {"pair_id": "differ", "status": "refuted",
                              "witness_index": 1,
                              "reason": "multiset contents differ",
                              "errors": [load_error]}
            assert agree == {"pair_id": "agree", "status": "inconclusive",
                             "witness_index": None, "reason": None,
                             "errors": [load_error]}
        else:
            assert captured.out == (
                "differ: Refuted (instance 1: multiset contents differ)\n"
                f"agree: Inconclusive ({load_error})\n")
        assert captured.err == \
            "refuted 1, consistent 0, inconclusive 1\n"

    def test_pair_that_cannot_evaluate_is_inconclusive_and_run_goes_on(
            self, tmp_path, capsys):
        pairs = [("round-text", "SELECT ROUND(a, 'x') FROM t",
                  "SELECT ROUND(a, 1.5) FROM t"),
                 ("cast-overflow", "SELECT CAST(a * 1e308 AS INT) FROM t",
                  "SELECT a FROM t"),
                 ("nan", "SELECT a * 1e308 * 10 - a * 1e308 * 10 FROM t",
                  "SELECT a * 1e308 * 10 - a * 1e308 * 10 FROM t"),
                 ("after", "SELECT a FROM t", "SELECT a + 1 FROM t")]
        data = write_jsonl(tmp_path / "pairs.jsonl", [
            {"id": pid, "sql1": s1, "sql2": s2, "schema": "s",
             "label": "NEQ"} for pid, s1, s2 in pairs])
        schemas = tmp_path / "schemas.json"
        schemas.write_text(json.dumps({"s": {
            "tables": [{"name": "t", "columns": ["a"]}],
            "foreign_keys": [], "primary_keys": []}}))
        instance = tmp_path / "instance.json"
        instance.write_text(json.dumps(
            {"tables": {"t": {"columns": ["a"], "rows": [[1.5], [20]]}}}))
        code = main(["oracle", "--dataset", str(data),
                     "--schemas", str(schemas),
                     "--instances", str(instance), "--format", "json"])
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        statuses = {json.loads(line)["pair_id"]: json.loads(line)
                    for line in out}
        for pid in ("round-text", "cast-overflow", "nan"):
            assert statuses[pid]["status"] == "inconclusive", pid
            assert statuses[pid]["errors"][0].startswith(
                "instance 0: RuntimeExecError: "), statuses[pid]
        assert statuses["after"]["status"] == "refuted"

    def test_malformed_literal_is_inconclusive_and_run_goes_on(
            self, tmp_path, capsys):
        data = write_jsonl(tmp_path / "pairs.jsonl", [
            {"id": pid, "sql1": s1, "sql2": s2, "schema": "s",
             "label": "NEQ"} for pid, s1, s2 in [
                ("bad-number", "SELECT 1e+ FROM t", "SELECT a FROM t"),
                ("after", "SELECT a FROM t", "SELECT a + 1 FROM t")]])
        schemas = tmp_path / "schemas.json"
        schemas.write_text(json.dumps({"s": {
            "tables": [{"name": "t", "columns": ["a"]}]}}))
        instance = tmp_path / "instance.json"
        instance.write_text(json.dumps(
            {"tables": {"t": {"columns": ["a"], "rows": [[1]]}}}))
        code = main(["oracle", "--dataset", str(data),
                     "--schemas", str(schemas),
                     "--instances", str(instance), "--format", "json"])
        assert code == 0
        bad, after = [json.loads(line) for line in
                      capsys.readouterr().out.strip().split("\n")]
        assert bad["status"] == "inconclusive"
        assert bad["errors"][0].startswith("SqlSyntaxError: "), bad
        assert after["status"] == "refuted"


    def test_no_instance_at_all_is_a_usage_error(self, tmp_path, capsys):
        data = write_jsonl(tmp_path / "pairs.jsonl",
                           datafix.question_records()[:1])
        schemas = tmp_path / "schemas.json"
        schemas.write_text(json.dumps(datafix.QUESTION_SCHEMAS))
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        code = main(["oracle", "--dataset", str(data),
                     "--schemas", str(schemas),
                     "--instances", str(empty), str(empty)])
        assert code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == \
            "error: the --instances files hold no instance"


class TestMalformedFiles:
    """A malformed input file is a usage error (exit 64) naming the file,
    never an internal error."""

    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def assert_malformed(self, capsys, code, what, path):
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed {what} file {path}: "), err
        assert "internal" not in err

    def check_args(self, schema_file):
        return ["check", *GOLDEN_PAIR_ARGS, "--schema", schema_file]

    @pytest.mark.parametrize("text", [
        "[{\"schema\": \"s\", \"sql2\": \"SELECT 1\", \"label\": \"EQ\", "
        "\"explanation\": \"e\"}]",
        "[{\"schema\": ",
    ])
    def test_exemplars_file(self, tmp_path, schema_file, capsys, text):
        path = self.write(tmp_path, "exemplars.json", text)
        code = main(["prompt", "--strategy", "fewshot", *GOLDEN_PAIR_ARGS,
                     "--schema", schema_file, "--exemplars", path])
        self.assert_malformed(capsys, code, "exemplars", path)
        code = main([*self.check_args(schema_file), "--strategy", "fewshot",
                     "--exemplars-file", path])
        self.assert_malformed(capsys, code, "exemplars", path)

    def test_mock_script_file(self, tmp_path, schema_file, capsys):
        path = self.write(tmp_path, "mock.json", "[{\"response\": ")
        code = main([*self.check_args(schema_file), "--mock-script", path])
        self.assert_malformed(capsys, code, "mock script", path)

    @pytest.mark.parametrize("name,text", [
        ("conf.json", "{\"model\": "),
        ("conf.json", "[1, 2]"),
        ("conf.toml", "model = "),
    ])
    def test_config_file(self, tmp_path, schema_file, capsys, name, text):
        path = self.write(tmp_path, name, text)
        code = main(["--config", path, *self.check_args(schema_file)])
        self.assert_malformed(capsys, code, "config", path)

    def test_schemas_file_of_a_dataset(self, tmp_path, capsys):
        data = write_jsonl(tmp_path / "pairs.jsonl",
                           datafix.question_records()[:1])
        path = self.write(tmp_path, "schemas.json", "{\"baseball\": ")
        code = main(["oracle", "--dataset", str(data), "--schemas", path,
                     "--instances", path])
        self.assert_malformed(capsys, code, "schemas", path)

    def test_schema_file_of_the_wrong_shape(self, tmp_path, capsys):
        path = self.write(tmp_path, "schema.json", json.dumps(
            {"tables": [{"name": "t", "columns": "ab"}]}))
        code = main(["check", *GOLDEN_PAIR_ARGS, "--schema", path])
        self.assert_malformed(capsys, code, "schema", path)

    def test_directory_is_not_a_schema_file(self, tmp_path, capsys):
        code = main(["check", *GOLDEN_PAIR_ARGS, "--schema", str(tmp_path)])
        assert code == 64
        assert capsys.readouterr().err.strip() == \
            f"error: schema file not found: {tmp_path}"

    def test_missing_instance_file(self, tmp_path, capsys):
        data = write_jsonl(tmp_path / "pairs.jsonl",
                           datafix.question_records()[:1])
        schemas = self.write(tmp_path, "schemas.json",
                             json.dumps(datafix.QUESTION_SCHEMAS))
        code = main(["oracle", "--dataset", str(data), "--schemas", schemas,
                     "--instances", "/nowhere/instance.json"])
        assert code == 64
        assert capsys.readouterr().err.strip() == \
            "error: instance file not found: /nowhere/instance.json"


class TestBadSettingsAndRecords:
    """A setting of the wrong type or out of range and a dataset or
    exemplar file that breaks the toolkit's rules are usage errors
    (exit 64)."""

    def dataset_args(self, tmp_path, records):
        data = write_jsonl(tmp_path / "pairs.jsonl", records)
        schemas = tmp_path / "schemas.json"
        schemas.write_text(json.dumps(datafix.QUESTION_SCHEMAS))
        return str(data), ["bench", "--dataset", str(data), "--schemas",
                           str(schemas), "--out", str(tmp_path / "r.json")]

    def test_wrong_typed_parallelism_in_bench(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"parallelism": "x"}))
        _, args = self.dataset_args(tmp_path,
                                    datafix.question_records()[:2])
        assert main(["--config", str(config), *args]) == 64
        err = capsys.readouterr().err
        assert err.strip() == (f"error: malformed config file {config}: "
                               "setting 'parallelism' must be an integer, "
                               "got 'x'")

    @pytest.mark.parametrize("name,text,setting", [
        ("cfg.json", '{"parallelism": true}', "parallelism"),
        ("cfg.json", '{"temperature": "hot"}', "temperature"),
        ("cfg.json", '{"shortcut": 1}', "shortcut"),
        ("cfg.json", '{"model": null}', "model"),
        ("cfg.json", '{"backend": "grpc"}', "backend"),
        ("cfg.json", '{"unknown_policy": "as_eq"}', "unknown_policy"),
        ("cfg.toml", 'retries = "3"\n', "retries"),
    ])
    def test_wrong_typed_setting(self, tmp_path, schema_file, capsys, name,
                                 text, setting):
        config = tmp_path / name
        config.write_text(text)
        code = main(["--config", str(config), "check", *GOLDEN_PAIR_ARGS,
                     "--schema", schema_file])
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed config file {config}: "
                              f"setting {setting!r} must be "), err

    def test_zero_parallelism_flag_in_bench(self, tmp_path, capsys):
        _, args = self.dataset_args(tmp_path,
                                    datafix.question_records()[:2])
        assert main([*args, "--parallelism", "0"]) == 64
        err = capsys.readouterr().err
        assert err.strip() == \
            "error: bad setting: parallelism must be positive"

    @pytest.mark.parametrize("setting,value,message", [
        ("parallelism", 0, "parallelism must be positive"),
        ("temperature", -1, "temperature must be >= 0"),
        ("max_tokens", 0, "max_tokens must be positive"),
        ("timeout", -1, "timeout must be positive"),
        ("retries", -1, "retries must be >= 0"),
    ])
    def test_out_of_range_setting(self, tmp_path, schema_file, capsys,
                                  setting, value, message):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({setting: value}))
        code = main(["--config", str(config), "check", *GOLDEN_PAIR_ARGS,
                     "--schema", schema_file])
        assert code == 64
        err = capsys.readouterr().err
        assert err.strip() == f"error: bad setting: {message}"

    def test_well_typed_settings_pass(self, tmp_path):
        config = tmp_path / "cfg.json"
        settings = {"temperature": 1, "timeout": 2.5, "endpoint": None,
                    "shortcut": False, "unknown_policy": "always_wrong",
                    "backend": "mock", "other": ["ignored"]}
        config.write_text(json.dumps(settings))
        merged = resolve_config(TestConfigResolution.Args(
            config=str(config)))
        assert {k: merged[k] for k in settings if k != "other"} == \
            {k: v for k, v in settings.items() if k != "other"}

    @pytest.mark.parametrize("mutate,message", [
        (lambda rs: [{k: v for k, v in rs[0].items() if k != "label"}],
         "line 1: missing field 'label'"),
        (lambda rs: [rs[0], {**rs[1], "schema": "nowhere"}],
         "line 2: schema 'nowhere'"),
        (lambda rs: [rs[0], {**rs[1], "id": rs[0]["id"]}],
         "duplicate pair id"),
        (lambda rs: [rs[0], {**rs[1], "question": 7}],
         "line 2: question must be text or null"),
        (lambda rs: [rs[0], 5], "line 2: not a JSON object"),
    ])
    def test_dataset_breaking_rules(self, tmp_path, capsys, mutate, message):
        records = mutate(datafix.question_records()[:2])
        path, args = self.dataset_args(tmp_path, records)
        assert main(args) == 64
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed dataset file {path}: "
                              f"{message}"), err

    def test_exemplar_set_breaking_rules(self, tmp_path, schema_file,
                                         capsys):
        entry = {"schema": "s", "sql1": "SELECT 1", "sql2": "SELECT 2",
                 "label": "EQ", "explanation": "e"}
        path = tmp_path / "exemplars.json"
        path.write_text(json.dumps([entry] * 4))
        code = main(["check", *GOLDEN_PAIR_ARGS, "--schema", schema_file,
                     "--strategy", "fewshot", "--exemplars-file", str(path)])
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed exemplars file {path}: "
                              "exemplars must be two equivalent"), err


class TestInternalErrors:
    def test_unexpected_exception_exits_70_without_traceback(
            self, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr("sqleq.cli.cmd_features", broken)
        assert main(["features", "--sql", "SELECT 1"]) == 70
        err = capsys.readouterr().err
        assert err.strip() == "error: internal: RuntimeError: boom"
        assert "Traceback" not in err

    def test_planner_defect_fails_the_bench_run(self, tmp_path, monkeypatch,
                                                capsys):
        # a defect is no plan failure: it must not become the placeholder
        def broken(ast, schema):
            raise TypeError("defect")

        monkeypatch.setattr("sqleq.plan.build_plan", broken)
        data = write_jsonl(tmp_path / "pairs.jsonl",
                           datafix.question_records()[:20])
        schemas = tmp_path / "schemas.json"
        schemas.write_text(json.dumps(datafix.QUESTION_SCHEMAS))
        script = tmp_path / "mock.json"
        script.write_text(json.dumps(datafix.scripted_question_rules()))
        out = tmp_path / "report.json"
        code = main(["bench", "--dataset", str(data),
                     "--schemas", str(schemas), "--strategy", "basic",
                     "--with-plans", "--out", str(out),
                     "--mock-script", str(script)])
        assert code == 70
        err = capsys.readouterr().err
        assert err.strip() == "error: internal: TypeError: defect"
        assert not out.exists()


class TestConfigResolution:
    class Args:
        def __init__(self, **kwargs):
            self.__dict__.update(kwargs)

        def __getattr__(self, name):
            return None

    def test_precedence_flags_over_env_over_file(self, tmp_path, monkeypatch):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"model": "file-model",
                                      "api_key": "file-key",
                                      "parallelism": 9}))
        monkeypatch.setenv("SQLEQ_CONFIG", str(config))
        monkeypatch.setenv("SQLEQ_API_KEY", "env-key")
        merged = resolve_config(self.Args(model="flag-model"))
        assert merged["model"] == "flag-model"   # flag wins
        assert merged["api_key"] == "env-key"    # env beats file
        assert merged["parallelism"] == 9        # file beats default
        assert merged["temperature"] == 0.2      # default

    def test_toml_config(self, tmp_path, monkeypatch):
        config = tmp_path / "conf.toml"
        config.write_text('model = "toml-model"\nparallelism = 2\n')
        monkeypatch.delenv("SQLEQ_CONFIG", raising=False)
        merged = resolve_config(self.Args(config=str(config)))
        assert merged["model"] == "toml-model"
        assert merged["parallelism"] == 2

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 64


class TestArgumentErrors:
    """An argument the parser rejects is a usage error (64), not
    argparse's exit code 2, which `check` gives for Unknown."""

    REJECTED = [
        ["check", "--sql1", "SELECT 1", "--bogus"],
        ["check", "--sql1", "SELECT 1", "--sql2", "SELECT 1"],
        ["check", *GOLDEN_PAIR_ARGS, "--schema", "s.json", "--strategy", "x"],
        # check samples no exemplars, so it takes no seed
        ["check", *GOLDEN_PAIR_ARGS, "--schema", "s.json", "--seed", "1"],
        ["bench", "--dataset", "d", "--schemas", "s", "--out", "o",
         "--parallelism", "x"],
        ["nope"],
    ]

    @pytest.mark.parametrize("args", REJECTED)
    def test_main_and_the_process_exit_64(self, capsys, args):
        assert main(args) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage: sqleq")
        assert "\nerror: sqleq" in err
        done = subprocess.run([sys.executable, "-m", "sqleq.cli", *args],
                              env=child_env(), capture_output=True,
                              text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (64, "", err)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["check", "--help"])
        assert exited.value.code == 0
        assert "--sql1" in capsys.readouterr().out

    def test_bench_keeps_its_seed(self):
        args = _build_parser().parse_args(
            ["bench", "--dataset", "d", "--schemas", "s", "--out", "o",
             "--seed", "7"])
        assert resolve_config(args)["seed"] == 7


class TestProcessEntryPoint:
    """`run` (the `sqleq` script, `python -m sqleq.cli`) sets the
    process's collector for an acyclic heap; `main` leaves it alone."""

    @staticmethod
    def child(*args):
        return subprocess.run([sys.executable, *args], env=child_env(),
                              capture_output=True, text=True, timeout=60)

    @pytest.mark.parametrize("args", [
        ["features", "--sql", "SELECT a FROM t"],
        ["features", "--sql", "SELECT FROM"],
        [],
    ])
    def test_main_leaves_the_collector_as_it_found_it(self, capsys, args):
        before = (gc.get_threshold(), gc.get_freeze_count(),
                  sys.getswitchinterval())
        main(args)
        assert (gc.get_threshold(), gc.get_freeze_count(),
                sys.getswitchinterval()) == before

    def test_run_freezes_the_heap_and_raises_the_threshold(self):
        done = self.child(
            "-c", "import gc, sqleq.cli\n"
            "code = sqleq.cli.run(['features', '--sql', 'SELECT 1'])\n"
            "print(code, gc.get_threshold()[0], gc.get_freeze_count(), "
            "len(gc.get_objects()))")
        code, threshold, frozen, tracked = map(
            int, done.stdout.splitlines()[-1].split())
        assert (code, threshold) == (0, GC_THRESHOLD)
        assert GC_THRESHOLD > 700 and frozen > 0
        # frozen again after main: teardown has next to nothing to sweep
        assert tracked < 100

    def test_run_sets_the_switch_interval(self):
        done = self.child(
            "-c", "import sys, sqleq.cli\n"
            "before = sys.getswitchinterval()\n"
            "code = sqleq.cli.run(['features', '--sql', 'SELECT 1'])\n"
            "print(code, before, sys.getswitchinterval())")
        code, before, after = done.stdout.splitlines()[-1].split()
        assert (int(code), float(before)) == (0, 0.005)
        assert float(after) == SWITCH_INTERVAL > 0.005

    def test_bench_report_is_the_same_at_any_parallelism(self, tmp_path):
        """Worker threads under `run`'s policies write the report one
        thread writes, but for its timestamps and the parallelism its
        settings record."""
        records = datafix.question_records()
        data = write_jsonl(tmp_path / "pairs.jsonl", records)
        schemas = tmp_path / "schemas.json"
        schemas.write_text(json.dumps(datafix.QUESTION_SCHEMAS))
        script = tmp_path / "mock.json"
        script.write_text(json.dumps(datafix.scripted_question_rules()))
        reports = []
        for parallelism in (1, 2):
            out = tmp_path / f"report-{parallelism}.json"
            done = self.child(
                "-m", "sqleq.cli", "bench", "--backend", "mock",
                "--with-plans", "--dataset", str(data),
                "--schemas", str(schemas), "--strategy", "basic",
                "--mock-script", str(script), "--out", str(out),
                "--format", "json", "--parallelism", str(parallelism))
            assert done.returncode == 0, done.stderr
            report, stamps = _TIMESTAMPS.subn(r'\1""', out.read_text())
            assert stamps == 2
            assert report.count(f'"parallelism": {parallelism},') == 2
            reports.append(report)
        assert reports[1] == reports[0].replace('"parallelism": 1,',
                                                '"parallelism": 2,')
        assert len(json.loads(reports[0])["pairs"]) == len(records)

    @pytest.mark.parametrize("args,code", [
        ([], 64),
        (["plan", "--sql", "SELECT 1", "--schema", "missing.json"], 64),
        (["features", "--sql", "SELECT FROM"], 65),
    ])
    def test_run_exits_as_main_does(self, capsys, args, code):
        assert main(args) == code
        err = capsys.readouterr().err
        done = self.child("-m", "sqleq.cli", *args)
        assert done.returncode == code
        if code == 65:
            assert done.stderr == err

    def test_console_script_names_run(self):
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        assert 'sqleq = "sqleq.cli:run"' in pyproject.read_text(
            encoding="utf-8").splitlines()
