"""Compare the reports `sqleq bench` writes in this checkout with another
checkout's.

Usage:
    python scripts/diff_reports.py OTHER_SRC [--tiny]

OTHER_SRC is the `src` directory of another checkout. Both packages run
`sqleq bench --backend mock` as separate processes, as users run it,
over the three `perfbench` pipeline corpora of seed 3 (the benchmark's
tiny scale with --tiny), for every strategy, with plans off and on, in
the json, csv and markdown formats, at --parallelism 1 and 2. For each
run the report, stdout, stderr and exit code of the two sides are
compared byte for byte; only the values of `started_at` and
`finished_at` in a JSON report are left out.

A mock report holds no prompt text, so the plans are compared on their
own too: each package prints, for the three corpora of seeds 3 and 41
(seed 3 at the tiny scale with --tiny), `plan_or_placeholder` of every
query text and the `basic` prompt with plans of every pair, and the
two printouts, stderr and exit codes are compared the same way.

Every difference is printed, and the last line counts the runs, the
runs and printouts of this checkout that exited non-zero, and the
differences, those of the printouts included; the exit status is 1
when there is a difference.
"""

import argparse
import itertools
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SEED = 3
PLAN_SEEDS = (3, 41)
TINY_SCALE = 0.05
FORMATS = {"json": "json", "csv": "csv", "markdown": "md"}
PARALLELISM = (1, 2)
_TIMESTAMP = re.compile(r'^(  "(?:started|finished)_at": )"[^"\n]*"', re.M)
# Run with one package: for each (dataset, schemas) path pair in argv,
# one JSON line per query text (its plan) and per pair (its prompt).
_PRINT_PLANS = """
import json, sys
from sqleq.bench import load_dataset
from sqleq.plan import pair_plans, plan_or_placeholder
from sqleq.prompts import build_strategy
paths = sys.argv[1:]
for dataset_path, schemas_path in zip(paths[::2], paths[1::2]):
    dataset = load_dataset(dataset_path, schemas_path)
    for pair in dataset.pairs:
        schema = dataset.schema_for(pair)
        for text in (pair.sql1, pair.sql2):
            print(json.dumps(plan_or_placeholder(text, schema)))
        prompt = build_strategy("basic", pair, schema,
                                pair_plans(pair, schema))
        print(json.dumps(prompt.body))
"""


def runs(directory, scale):
    """(name, sqleq arguments) of every run; each writes `report.<ext>`
    in its working directory."""
    exemplars = workloads.write_exemplars(directory)
    for corpus in (workloads.difficulty_corpus(SEED, scale),
                   workloads.question_corpus(SEED, scale),
                   workloads.multi_clause_corpus(SEED, scale)):
        paths = corpus.write(directory)
        for strategy, plans, (fmt, ext), parallelism in itertools.product(
                workloads.STRATEGIES, (False, True), FORMATS.items(),
                PARALLELISM):
            args = ["bench", "--dataset", str(paths["dataset"]),
                    "--schemas", str(paths["schemas"]),
                    "--strategy", strategy,
                    "--out", f"report.{ext}", "--format", fmt,
                    "--parallelism", str(parallelism),
                    "--backend", "mock",
                    "--mock-script", str(paths["mock_script"])]
            if plans:
                args.append("--with-plans")
            if strategy == "fewshot":
                args += ["--exemplars-file", str(exemplars)]
            yield (f"{corpus.name}-{strategy}-{'lp' if plans else 'nolp'}"
                   f"-{fmt}-p{parallelism}"), args


def plan_checks(directory, tiny):
    """(name, [dataset, schemas, ...] paths) of every plan printout."""
    scale = TINY_SCALE if tiny else 1.0
    for seed in (SEED,) if tiny else PLAN_SEEDS:
        seed_dir = directory / f"plans-{seed}"
        seed_dir.mkdir()
        paths = []
        for corpus in (workloads.difficulty_corpus(seed, scale),
                       workloads.question_corpus(seed, scale),
                       workloads.multi_clause_corpus(seed, scale)):
            written = corpus.write(seed_dir)
            paths += [str(written["dataset"]), str(written["schemas"])]
        yield f"plans-seed-{seed}", paths


def print_plans(src, paths):
    """Exit code, stdout and stderr of `_PRINT_PLANS` over `paths` with
    the package under `src`."""
    result = subprocess.run(
        [sys.executable, "-c", _PRINT_PLANS, *paths], env=_env(src),
        capture_output=True, text=True, stdin=subprocess.DEVNULL,
        timeout=600)
    return {"exit code": result.returncode, "stdout": result.stdout,
            "stderr": result.stderr}


def _env(src):
    env = {k: v for k, v in os.environ.items()
           if k not in ("SQLEQ_CONFIG", "SQLEQ_API_KEY")}
    env["PYTHONPATH"] = str(src)
    return env


def run(src, args, directory):
    """What one `sqleq` run in `directory` gives: exit code, stdout,
    stderr and the report, each as text (the report None if none was
    written)."""
    directory.mkdir(parents=True)
    result = subprocess.run([sys.executable, "-m", "sqleq.cli", *args],
                            cwd=directory, env=_env(src), capture_output=True,
                            text=True, stdin=subprocess.DEVNULL, timeout=300)
    reports = list(directory.glob("report.*"))
    report = reports[0].read_text(encoding="utf-8") if reports else None
    if report is not None:
        report = _TIMESTAMP.sub(r'\1""', report)
    return {"exit code": result.returncode, "stdout": result.stdout,
            "stderr": result.stderr, "report": report}


def first_difference(mine, theirs):
    """The first line on which two texts differ, for the message."""
    if not isinstance(mine, str) or not isinstance(theirs, str):
        return f"this: {mine!r}\n  other: {theirs!r}"
    lines = zip(mine.splitlines(), theirs.splitlines())
    for number, (a, b) in enumerate(lines, start=1):
        if a != b:
            return f"line {number}\n  this:  {a!r}\n  other: {b!r}"
    return (f"{len(mine.splitlines())} against "
            f"{len(theirs.splitlines())} lines")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other_src", help="the src directory of the other "
                        "checkout")
    parser.add_argument("--tiny", action="store_true",
                        help="the benchmark's tiny corpus sizes")
    args = parser.parse_args(argv)
    sides = (ROOT / "src", Path(args.other_src).resolve())
    differences = failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        planned = list(runs(tmp, TINY_SCALE if args.tiny else 1.0))
        printouts = list(plan_checks(tmp, args.tiny))
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [
                (name, [pool.submit(run, src, sqleq_args,
                                    tmp / side / name)
                        for side, src in zip(("this", "other"), sides)])
                for name, sqleq_args in planned]
            futures += [
                (name, [pool.submit(print_plans, src, paths)
                        for src in sides])
                for name, paths in printouts]
            for name, (mine, theirs) in futures:
                mine, theirs = mine.result(), theirs.result()
                failed += mine["exit code"] != 0
                for what in mine:
                    if mine[what] != theirs[what]:
                        differences += 1
                        print(f"DIFF {name} {what}: "
                              f"{first_difference(mine[what], theirs[what])}")
    print(f"{len(planned)} runs, {failed} failed, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
