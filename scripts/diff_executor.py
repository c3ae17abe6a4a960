"""Compare this checkout's executor with another checkout's.

Usage:
    python scripts/diff_executor.py OTHER_SRC [--cases N] [--tiny]

OTHER_SRC is the `src` directory of another checkout. Its package loads
under the name `sqleq_other`, beside this checkout's `sqleq`, and both
parse and run the same statements on the same instances:
- N random `tests/queryfam.py` cases of seed 3 (default 6000),
  every second one with look-alike cells (NULL, TRUE, FALSE, 0, 1, 1.0,
  -0.0, 2.5, 'x', '1') mixed into its instance; each runs on its
  instance and on the instance with every table's rows reversed, and,
  on its instance, as the FROM item of a subquery correlated with t0,
  keyed on its first output column (`= t.a`) and unkeyed (`> t.a`):
  a scalar subquery on each row of t0, a HAVING subquery on each group
  of a grouped core over t0, so that the subquery reads the enclosing
  row from a group, and a subquery in the aggregate of such a core's
  hidden ORDER BY key, run on each member row;
- every string constant of `tests/*.py` that parses as a statement, on
  three small look-alike instances of a schema made up from the tables
  and columns it names;
- the pairs of the `perfbench` oracle sets of seed 3 on their
  instances (the benchmark's tiny sizes with --tiny), and the
  multi-clause corpus on look-alike instances of its schema.

For each run it compares what `execute` gives (the rows by `repr`, so
their order too, `column_count` and `ordered`) or the type and message
of the error raised, loading the instance included. For each pair of
runs (the two orders of a queryfam case, the two statements of a pair,
consecutive test constants) it compares what `compare_results` gives.
Every difference is printed; the exit status is 1 when there is one.

`sqleq` is this checkout's package unless a PYTHONPATH entry holds one,
as in the tests.
"""

import argparse
import ast
import importlib
import importlib.util
import os
import random
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))
if not any((Path(entry) / "sqleq" / "__init__.py").is_file()
           for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep)
           if entry):
    sys.path.insert(0, str(ROOT / "src"))

import queryfam  # noqa: E402
import workloads  # noqa: E402
from sqleq.ast_nodes import (  # noqa: E402
    ColumnRef, Cte, SelectCore, SetOp, TableRef, walk,
)
from sqleq.binder import bind, output_name  # noqa: E402
from sqleq.errors import SqleqError  # noqa: E402
from sqleq.parser import parse_sql  # noqa: E402
from sqleq.schema import schema_from_dict  # noqa: E402

LOOK_ALIKE = [None, True, False, 0, 1, 1.0, -0.0, 2.5, "x", "1"]
MODULES = ("executor", "oracle", "parser", "schema")
SEED = 3


def load_package(src, name):
    """The modules of the `sqleq` package under `src`, imported as
    `name`."""
    init = Path(src).resolve() / "sqleq" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {module: importlib.import_module(f"{name}.{module}")
            for module in MODULES}


def run(pkg, sql, schema, instance):
    """(outcome, result): what execute gave, comparable across
    packages, and the result table or None."""
    try:
        schema_def = pkg["schema"].schema_from_dict(schema)
        loaded = pkg["executor"].instance_from_dict(instance, schema_def)
        result = pkg["executor"].execute(pkg["parser"].parse_sql(sql), loaded)
    except Exception as exc:  # an error is an outcome to compare
        return ("error", type(exc).__name__, str(exc)), None
    return ("rows", repr(result.rows), result.column_count,
            result.ordered), result


def compared(pkg, r1, r2):
    if r1 is None or r2 is None:
        return None
    comparison = pkg["oracle"].compare_results(r1, r2)
    return comparison.identical, comparison.reason


class Differ:
    def __init__(self, this, other):
        self.sides = this, other
        self.runs = self.comparisons = 0
        self.differences = []

    def execute(self, where, sql, schema, instance):
        """Runs `sql` on both sides; returns both result tables."""
        (mine, r_mine), (theirs, r_theirs) = (
            run(pkg, sql, schema, instance) for pkg in self.sides)
        self.runs += 1
        if mine != theirs:
            self.differences.append((where, sql, mine, theirs))
        return r_mine, r_theirs

    def compare(self, where, sql, first, second):
        """Compares `compare_results` of two runs' result tables."""
        mine, theirs = (compared(pkg, a, b)
                        for pkg, a, b in zip(self.sides, first, second))
        self.comparisons += 1
        if mine != theirs:
            self.differences.append((where, sql, mine, theirs))


def look_alike(rng, instance):
    """`instance` with about half its cells replaced by look-alike
    ones."""
    return {"tables": {
        name: {"columns": spec["columns"],
               "rows": [[rng.choice(LOOK_ALIKE) if rng.random() < 0.5
                         else cell for cell in row] for row in spec["rows"]]}
        for name, spec in instance["tables"].items()}}


def reversed_rows(instance):
    return {"tables": {
        name: {"columns": spec["columns"], "rows": spec["rows"][::-1]}
        for name, spec in instance["tables"].items()}}


def random_instance(rng, schema):
    """Up to four rows of look-alike cells per table; a primary key
    column numbers its rows instead."""
    keys = {ref.lower() for ref in schema.get("primary_keys", ())}
    return {"tables": {
        table["name"]: {"columns": table["columns"], "rows": [
            [i if f"{table['name']}.{column}".lower() in keys
             else rng.choice(LOOK_ALIKE) for column in table["columns"]]
            for i in range(rng.randint(0, 4))]}
        for table in schema["tables"]}}


def first_output_name(sql, schema_def):
    """The name of the first output column of `sql`, None when it does
    not bind."""
    tree = parse_sql(sql)
    try:
        binding = bind(tree, schema_def)
    except SqleqError:
        return None
    body = tree.body
    while not isinstance(body, SelectCore):
        body = body.left if isinstance(body, SetOp) else body.body
    return output_name(binding.items[id(body)][0], 0)


def nested(sql, column, op):
    """`sql` as the FROM item of a scalar subquery correlated with t0
    on `q.<column> <op> t.a`."""
    return (f"SELECT t.a, (SELECT COUNT(*) FROM ({sql}) q "
            f"WHERE q.{column} {op} t.a) FROM t0 t")


def in_having(sql, column, op):
    """`sql` as the FROM item of a subquery in the HAVING of a core
    grouped on t0.a, correlated with the group on `q.<column> <op>
    t.a`."""
    return (f"SELECT t.a FROM t0 t GROUP BY t.a HAVING (SELECT COUNT(*) "
            f"FROM ({sql}) q WHERE q.{column} {op} t.a) > 0")


def in_order_key(sql, column, op):
    """`sql` as the FROM item of a subquery in a SUM that a core grouped
    on t0.a sorts by, correlated with each member row on `q.<column>
    <op> t.a`."""
    return (f"SELECT t.a FROM t0 t GROUP BY t.a ORDER BY SUM((SELECT "
            f"COUNT(*) FROM ({sql}) q WHERE q.{column} {op} t.a))")


def queryfam_cases(differ, count, seed):
    rng = random.Random(seed)
    schema = queryfam.schema_dict()
    schema_def = schema_from_dict(schema)
    for i in range(count):
        instance, _, sql = queryfam.random_case(rng)
        if i % 2:
            instance = look_alike(rng, instance)
        where = f"queryfam case {i}"
        first = differ.execute(where, sql, schema, instance)
        second = differ.execute(where + " (rows reversed)", sql, schema,
                                reversed_rows(instance))
        differ.compare(where + " (the two orders)", sql, first, second)
        column = first_output_name(sql, schema_def)
        if column is None:
            continue
        for wrap in (nested, in_having, in_order_key):
            for op, how in (("=", "keyed"), (">", "unkeyed")):
                differ.execute(f"{where} ({wrap.__name__}, {how})",
                               wrap(sql, column, op), schema, instance)


def statements_of_tests():
    """(file name, SQL, parsed tree) of the string constants of
    tests/*.py that parse as a statement."""
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    yield path.name, node.value, parse_sql(node.value)
                except SqleqError:  # not a statement
                    continue


def made_up_schema(tree):
    """A schema holding the tables `tree` reads, each with the columns
    qualified by its name or alias, unqualified ones going to the first
    table; None when it reads no table."""
    ctes = {node.name.lower() for node in walk(tree) if isinstance(node, Cte)}
    tables, aliases = {}, {}
    for node in walk(tree):
        if isinstance(node, TableRef) and node.name.lower() not in ctes:
            name = node.name.lower()
            tables.setdefault(name, [])
            aliases[(node.alias or name).lower()] = name
    if not tables:
        return None
    first = next(iter(tables))
    for node in walk(tree):
        if isinstance(node, ColumnRef) and node.column != "*":
            table = aliases.get((node.table or "").lower(), first)
            if node.column.lower() not in tables[table]:
                tables[table].append(node.column.lower())
    return {"tables": [{"name": name, "columns": columns or ["c0"]}
                       for name, columns in tables.items()],
            "foreign_keys": [], "primary_keys": []}


def constant_cases(differ):
    previous = None
    for i, (name, sql, tree) in enumerate(statements_of_tests()):
        schema = made_up_schema(tree) or {"tables": []}
        rng = random.Random(f"constant-{i}")
        for k in range(3):
            results = differ.execute(f"tests/{name}, instance {k}", sql,
                                     schema, random_instance(rng, schema))
            if previous is not None:
                differ.compare(f"tests/{name} against the previous run",
                               sql, previous, results)
            previous = results


def perfbench_cases(differ, seed, tiny):
    sets = [workloads.join_set(seed, (20, 40) if tiny else (100, 300)),
            workloads.scan_set(seed, (100, 200) if tiny else (2000, 4000))]
    for oset in sets:
        for pair in oset.pairs:
            for k, instance in enumerate(oset.instances):
                where = f"{oset.name} pair {pair.id}, instance {k}"
                first = differ.execute(where, pair.sql1, oset.schema, instance)
                second = differ.execute(where, pair.sql2, oset.schema,
                                        instance)
                differ.compare(where, f"{pair.sql1} || {pair.sql2}", first,
                               second)
    corpus = workloads.multi_clause_corpus(seed, 0.1 if tiny else 1.0)
    rng = random.Random(f"multi-clause-{seed}")
    for record in corpus.records:
        schema = corpus.schemas[record["schema"]]
        instance = random_instance(rng, schema)
        where = f"{corpus.name} pair {record['id']}"
        first = differ.execute(where, record["sql1"], schema, instance)
        second = differ.execute(where, record["sql2"], schema, instance)
        differ.compare(where, f"{record['sql1']} || {record['sql2']}", first,
                       second)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other_src", help="the src directory of the other "
                        "checkout")
    parser.add_argument("--cases", type=int, default=6000,
                        help="queryfam cases (default 6000)")
    parser.add_argument("--tiny", action="store_true",
                        help="the benchmark's tiny instance sizes")
    args = parser.parse_args(argv)
    this = {module: importlib.import_module(f"sqleq.{module}")
            for module in MODULES}
    differ = Differ(this, load_package(args.other_src, "sqleq_other"))
    warnings.simplefilter("ignore")  # compare_results on mixed orderings
    queryfam_cases(differ, args.cases, SEED)
    constant_cases(differ)
    perfbench_cases(differ, SEED, args.tiny)
    for where, sql, mine, theirs in differ.differences:
        print(f"DIFF {where}: {sql}\n  this:  {mine}\n  other: {theirs}")
    print(f"{differ.runs} runs, {differ.comparisons} comparisons, "
          f"{len(differ.differences)} differences")
    return 1 if differ.differences else 0


if __name__ == "__main__":
    sys.exit(main())
