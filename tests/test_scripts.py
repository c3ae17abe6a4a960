"""Smoke tests for the runnable scripts (subprocess, real entry points)."""

import subprocess
import sys
from pathlib import Path

import sqleq
from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=180)


def test_make_fixtures(tmp_path):
    result = run_script("make_fixtures.py", str(tmp_path))
    assert result.returncode == 0, result.stderr
    names = {p.name for p in tmp_path.iterdir()}
    assert {"difficulty_corpus.jsonl", "toy_schemas.json", "questions.jsonl",
            "question_schemas.json", "mock_strong_model.json",
            "witness_instance.json", "exemplars.json"} <= names
    assert len((tmp_path / "difficulty_corpus.jsonl")
               .read_text().strip().split("\n")) == 1034


def test_oracle_witness_demo():
    result = run_script("run_oracle_witness.py")
    assert result.returncode == 0, result.stderr
    assert "refuted" in result.stdout
    assert "consistent" in result.stdout


def test_mock_benchmark_writes_reports(tmp_path):
    result = run_script("run_mock_benchmark.py", str(tmp_path))
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "report_basic_nolp.json").exists()
    assert (tmp_path / "summary_basic_lp.md").exists()
    # the scripted run lands on the expected overall accuracies
    assert "0.710  0.458  0.570" in result.stdout


def test_fixtures_drive_the_cli_oracle(tmp_path):
    assert run_script("make_fixtures.py", str(tmp_path)).returncode == 0
    pairs = tmp_path / "pair.jsonl"
    pairs.write_text(
        '{"id": "w", "sql1": "SELECT playerid, SUM(COALESCE(cs, 0)) '
        'FROM batting GROUP BY playerid", '
        '"sql2": "SELECT playerid, cs FROM batting", '
        '"schema": "baseball", "label": "NEQ"}\n')
    result = subprocess.run(
        [sys.executable, "-m", "sqleq.cli", "oracle",
         "--dataset", str(pairs),
         "--schemas", str(tmp_path / "question_schemas.json"),
         "--instances", str(tmp_path / "witness_instance.json"),
         "--format", "json"],
        capture_output=True, text=True, timeout=60,
        cwd=ROOT, env=child_env())
    assert result.returncode == 0, result.stderr
    assert '"status": "refuted"' in result.stdout


def test_diff_executor_finds_no_difference_with_itself():
    src = Path(sqleq.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "diff_executor.py"),
         str(src), "--cases", "20", "--tiny"],
        capture_output=True, text=True, timeout=180, env=child_env())
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1].endswith(" 0 differences")
    assert not result.stdout.startswith("DIFF")


def test_diff_reports_finds_no_difference_with_itself():
    src = Path(sqleq.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "diff_reports.py"),
         str(src), "--tiny"],
        capture_output=True, text=True, timeout=600, env=child_env())
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout == "144 runs, 0 failed, 0 differences\n"
