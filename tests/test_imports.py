"""Modules of the package share only public names with each other, and
`import sqleq.cli` loads every layer module but no standard-library
module that only one path needs."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sqleq

PACKAGE = Path(sqleq.__file__).resolve().parent


def _private_imports(path):
    """(line, module, name) of each underscore name `path` imports from
    another sqleq module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "sqleq":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append((node.lineno, module, alias.name))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_private_names_imported_across_modules(path):
    assert _private_imports(path) == []


# Standard-library modules that only one path needs: the HTTP client
# and the csv report writer; and two that no path needs.
SINGLE_PATH_STDLIB = ("urllib.request", "http.client", "ssl", "csv",
                      "concurrent.futures", "logging")
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _loaded(setup, names):
    """The `names` in sys.modules of a fresh interpreter that has run
    `setup`."""
    script = (f"import json, sys\n{setup}\n"
              f"print(json.dumps([n for n in {list(names)!r} "
              f"if n in sys.modules]))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_import_loads_every_traced_module_and_no_single_path_stdlib():
    # perfbench/tracer.py rebinds its targets in the modules that
    # `import sqleq.cli` has loaded, so every one of them must be
    # among those
    traced = sorted(set(re.findall(r'"(sqleq\.\w+)"',
                                   TRACER.read_text(encoding="utf-8"))))
    assert "sqleq.oracle" in traced and "sqleq.backend" in traced
    assert _loaded("import sqleq.cli", traced) == traced
    assert _loaded("import sqleq.cli", SINGLE_PATH_STDLIB) == []


def test_oracle_run_leaves_the_http_stack_unloaded(tmp_path):
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(json.dumps({
        "id": "p1", "sql1": "SELECT a FROM t", "sql2": "SELECT a FROM t",
        "schema": "s", "label": "EQ"}) + "\n")
    schemas = tmp_path / "schemas.json"
    schemas.write_text(json.dumps({"s": {
        "tables": [{"name": "t", "columns": ["a"]}]}}))
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(
        {"tables": {"t": {"columns": ["a"], "rows": [[1], [2]]}}}))
    argv = ["oracle", "--dataset", str(pairs), "--schemas", str(schemas),
            "--instances", str(instance), "--format", "json"]
    setup = ("from sqleq.cli import main\n"
             f"assert main({argv!r}) == 0")
    assert _loaded(setup, ["http.client"]) == []


def test_mock_bench_run_loads_no_executor_pool_or_logging(tmp_path):
    # run_benchmark's workers are plain threads: concurrent.futures, and
    # the logging it imports, would cost every bench process their import
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("".join(json.dumps({
        "id": f"p{i}", "sql1": "SELECT a FROM t",
        "sql2": f"SELECT a FROM t WHERE a = {i}", "schema": "s",
        "label": "NEQ"}) + "\n" for i in range(4)))
    schemas = tmp_path / "schemas.json"
    schemas.write_text(json.dumps({"s": {
        "tables": [{"name": "t", "columns": ["a"]}]}}))
    argv = ["bench", "--dataset", str(pairs), "--schemas", str(schemas),
            "--strategy", "basic", "--backend", "mock", "--parallelism",
            "2", "--out", str(tmp_path / "report.json")]
    setup = ("from sqleq.cli import main\n"
             f"assert main({argv!r}) == 0")
    assert _loaded(setup, ["concurrent.futures", "logging"]) == []


def test_building_an_http_backend_loads_the_http_stack():
    setup = ("from sqleq.backend import HttpBackend\n"
             "assert 'http.client' not in sys.modules\n"
             "HttpBackend('http://127.0.0.1:9/')")
    assert _loaded(setup, ["http.client", "urllib.request"]) == \
        ["http.client", "urllib.request"]


def test_cli_import_loads_no_dataclasses_or_inspect():
    # the records are plain classes: building them at import would cost
    # every CLI process the dataclasses machinery and what it loads
    assert _loaded("import sqleq.cli", ["dataclasses", "inspect"]) == []


def _imported_modules(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in _imported_modules(path)
