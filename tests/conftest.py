import json
import os
import sys
from pathlib import Path

import pytest

# the checkout's package, unless PYTHONPATH names a directory holding
# one (such as another copy under test)
if not any((Path(entry) / "sqleq" / "__init__.py").is_file()
           for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep)
           if entry):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sqleq  # noqa: E402
from sqleq.schema import SchemaDef, TableDef  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def baseball_schema():
    """The assignment-corpus schema used by the caught-stealing queries."""
    return SchemaDef(tables=(
        TableDef("batting", ("playerid", "yearid", "cs", "h2b", "h3b", "hr")),
        TableDef("people", ("playerid", "namefirst", "namelast",
                            "birthyear", "birthmonth", "birthday")),
        TableDef("fielding", ("playerid", "yearid")),
        TableDef("pitching", ("playerid", "yearid", "teamid")),
        TableDef("awardsshareplayers", ("playerid", "pointswon", "yearid")),
        TableDef("allstarfull", ("playerid", "yearid", "teamid", "gp")),
        TableDef("graph1", ("p1", "p2", "w")),
    ))


@pytest.fixture
def toy_schema():
    return SchemaDef(tables=(TableDef("t", ("a", "b")),))


@pytest.fixture
def golden_schema():
    """Fixed two-table schema behind every prompt golden file."""
    return SchemaDef(
        tables=(
            TableDef("people", ("playerid", "namefirst", "namelast")),
            TableDef("batting", ("playerid", "yearid", "cs")),
        ),
        foreign_keys=(("batting.playerid", "people.playerid"),),
        primary_keys=("people.playerid",),
    )


class Pair:
    """Minimal pair object for pipeline/prompt tests."""

    def __init__(self, pair_id, sql1, sql2):
        self.id = pair_id
        self.sql1 = sql1
        self.sql2 = sql2


@pytest.fixture
def golden_pair():
    return Pair("golden-1", "SELECT playerid FROM people",
                "SELECT playerid FROM batting")


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record) + "\n")
    return path


def child_env():
    """The caller's environment (its bytecode setting included) without
    the toolkit's own settings, for a child process that imports the
    package the tests import."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("SQLEQ_CONFIG", "SQLEQ_API_KEY")}
    env["PYTHONPATH"] = str(Path(sqleq.__file__).resolve().parent.parent)
    return env


def perfbench_workloads():
    """The `perfbench/workloads.py` module, which generates the
    benchmark's inputs."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


def perfbench_texts(seed):
    """Every query text of the benchmark's three pipeline corpora."""
    workloads = perfbench_workloads()
    texts = []
    for make in (workloads.difficulty_corpus, workloads.question_corpus,
                 workloads.multi_clause_corpus):
        for record in make(seed).records:
            texts += [record["sql1"], record["sql2"]]
    return texts
