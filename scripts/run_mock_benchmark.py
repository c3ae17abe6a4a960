"""Offline benchmark demo: every strategy against the scripted mock.

Runs the question-tagged dataset through all four prompting strategies
(with and without logical plans in the prompt) using the deterministic
mock backend, prints an EQ/NEQ/GM summary table, and writes one JSON
report per run plus a markdown summary of the plans-enabled basic run.

Usage:
    python scripts/run_mock_benchmark.py [out_dir]
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))

import datafix  # noqa: E402
from sqleq.backend import GenConfig, MockBackend, MockRule  # noqa: E402
from sqleq.bench import load_dataset, run_benchmark, write_report  # noqa: E402
from sqleq.pipeline import PipelineConfig  # noqa: E402
from sqleq.prompts import select_exemplars  # noqa: E402


def build_dataset(work_dir):
    pairs_path = work_dir / "questions.jsonl"
    with open(pairs_path, "w", encoding="utf-8") as f:
        for record in datafix.question_records():
            f.write(json.dumps(record) + "\n")
    schemas_path = work_dir / "schemas.json"
    schemas_path.write_text(json.dumps(datafix.QUESTION_SCHEMAS))
    return load_dataset(pairs_path, schemas_path)


def scripted_backend():
    rules = [MockRule(response=r["response"], pair_id=r["match"]["pair_id"])
             for r in datafix.scripted_question_rules()]
    return MockBackend(rules=rules, default="Unknown")


def fmt(value):
    return " n/a " if value is None else f"{value:.3f}"


def main():
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    with tempfile.TemporaryDirectory() as tmp:
        dataset = build_dataset(Path(tmp))

        print(f"{'strategy':<12} {'plans':<6} {'EQ':>6} {'NEQ':>6} {'GM':>6}")
        for strategy in ("basic", "cot", "fewshot", "multistage"):
            for plans_enabled in (False, True):
                cfg = PipelineConfig(
                    strategy_cfg=GenConfig(model="scripted-mock"),
                    exemplars=select_exemplars(dataset, seed=0)
                    if strategy == "fewshot" else None,
                    fail_soft=True,
                )
                report = run_benchmark(
                    dataset, strategy, plans_enabled,
                    scripted_backend(), cfg,
                    parallelism=8)
                metrics = report.metrics
                print(f"{strategy:<12} {str(plans_enabled):<6} "
                      f"{fmt(metrics.eq_accuracy):>6} "
                      f"{fmt(metrics.neq_accuracy):>6} "
                      f"{fmt(metrics.gm):>6}")
                suffix = "lp" if plans_enabled else "nolp"
                write_report(report, "json",
                             out_dir / f"report_{strategy}_{suffix}.json")
                if strategy == "basic" and plans_enabled:
                    write_report(report, "markdown",
                                 out_dir / "summary_basic_lp.md")

    print(f"\nreports under {out_dir}/")


if __name__ == "__main__":
    main()
