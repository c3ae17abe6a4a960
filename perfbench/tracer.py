"""Run the sqleq CLI with a span recorded around each layer's public calls.

Usage:
    python3 perfbench/tracer.py SPANS_JSONL [sqleq arguments ...]

Before the CLI starts, every module-level binding of each target function
inside the sqleq package (including names imported with `from x import
f`) and each target method on its class is replaced with a wrapper. A
wrapper records one span: name, start and end (perf_counter nanoseconds
of this process), parent span, pair id and a few attributes of the call.
Spans stay in memory and are written as JSONL when the process exits;
the first line lists the targets that were not found, so a refactor that
removes one shows up as absent rather than as a failure. The program's
source is not modified.
"""

import atexit
import importlib
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

_spans = []
_ids = itertools.count(1)
_local = threading.local()
_main_stack = []
_absent = []
# oracle bookkeeping: which pair a query pair belongs to, which text an
# AST was parsed from
_pair_of_sql = {}
_sql_of_ast = {}


def _stack():
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _main_stack if threading.current_thread() is \
            threading.main_thread() else []
        _local.stack = stack
    return stack


def _pair_id_of_check(args, result):
    return getattr(args[0], "id", None), {"shortcut": bool(result.shortcut)}


def _pair_id_of_bundle(args, result):
    return result.meta.get("pair_id"), {"bytes": len(result.body.encode())}


def _backend_attrs(args, result):
    bundle = args[1]
    return bundle.meta.get("pair_id"), {
        "kind": type(args[0]).__name__, "attempts": result.attempts}


def _plan_attrs(args, result):
    from sqleq.plan import PLAN_ERROR_PLACEHOLDER
    return None, {"placeholder": result == PLAN_ERROR_PLACEHOLDER}


def _parse_attrs(args, result):
    _sql_of_ast[id(result)] = args[0]
    return None, {}


def _load_dataset_attrs(args, result):
    for pair in result.pairs:
        _pair_of_sql[(pair.sql1, pair.sql2)] = pair.id
    return None, {}


def _oracle_check_attrs(args, result):
    return None, {"status": result.status}


def _oracle_check_pair(args):
    return _pair_of_sql.get((args[0], args[1]))


def _execute_attrs(args, result):
    return None, {"rows": len(result.rows),
                  "sql": _sql_of_ast.get(id(args[0]))}


def _report_attrs(args, result):
    return None, {"bytes": os.path.getsize(args[2])}


# (module, attribute or Class.method, span name, attrs(args, result),
#  pair id known before the call from args)
TARGETS = [
    ("sqleq.cli", "main", "cli.main", None, None),
    ("sqleq.bench", "load_dataset", "bench.load_dataset",
     _load_dataset_attrs, None),
    ("sqleq.bench", "run_benchmark", "bench.run_benchmark", None, None),
    ("sqleq.bench", "write_report", "bench.write_report", _report_attrs,
     None),
    ("sqleq.pipeline", "check_pair", "pipeline.check_pair",
     _pair_id_of_check, lambda args: getattr(args[0], "id", None)),
    ("sqleq.normalize", "exact_match", "normalize.exact_match", None, None),
    ("sqleq.lexer", "tokenize", "lexer.tokenize", None, None),
    ("sqleq.parser", "parse_sql", "parser.parse_sql", _parse_attrs, None),
    ("sqleq.plan", "plan_or_placeholder", "plan.plan_or_placeholder",
     _plan_attrs, None),
] + [
    ("sqleq.prompts", f"build_{kind}", "prompts.build", _pair_id_of_bundle,
     None)
    for kind in ("basic", "cot", "fewshot", "explain", "decide", "classify")
] + [
    ("sqleq.backend", "MockBackend.complete", "backend.complete",
     _backend_attrs, lambda args: args[1].meta.get("pair_id")),
    ("sqleq.backend", "HttpBackend.complete", "backend.complete",
     _backend_attrs, lambda args: args[1].meta.get("pair_id")),
    ("sqleq.executor", "instance_from_dict", "executor.instance_from_dict",
     None, None),
    ("sqleq.executor", "execute", "executor.execute", _execute_attrs, None),
    ("sqleq.oracle", "oracle_check", "oracle.oracle_check",
     _oracle_check_attrs, _oracle_check_pair),
    ("sqleq.oracle", "compare_results", "oracle.compare_results", None,
     None),
]


def _wrap(func, name, attrs_of, pair_of):
    def wrapper(*args, **kwargs):
        stack = _stack()
        parent = stack[-1] if stack else None
        if parent is None and _main_stack:
            # a worker thread of the pipeline's pool: its caller is the
            # span the main thread is blocked in
            parent = _main_stack[-1]
        pair = pair_of(args) if pair_of else None
        if pair is None and parent is not None:
            pair = parent[1]
        span_id = next(_ids)
        stack.append((span_id, pair))
        start = time.perf_counter_ns()
        result = None
        error = None
        try:
            result = func(*args, **kwargs)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            record = {"id": span_id, "name": name, "start": start,
                      "end": end, "parent": parent[0] if parent else None,
                      "pair": pair}
            if error is not None:
                record["error"] = error
            elif attrs_of is not None:
                found_pair, attrs = attrs_of(args, result)
                if found_pair is not None and record["pair"] is None:
                    record["pair"] = found_pair
                record.update(attrs)
            _spans.append(record)
    wrapper.__wrapped__ = func
    return wrapper


def install():
    """Replace each target's bindings; return the targets not found."""
    importlib.import_module("sqleq.cli")   # loads every layer module
    modules = [m for n, m in list(sys.modules.items())
               if n == "sqleq" or n.startswith("sqleq.")]
    for module_name, attr, name, attrs_of, pair_of in TARGETS:
        try:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, method or attr)
        except (ImportError, AttributeError):
            _absent.append(f"{module_name}.{attr}")
            continue
        wrapped = _wrap(original, name, attrs_of, pair_of)
        if owner_name:
            setattr(owner, method, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _write(path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"absent": _absent}) + "\n")
        for record in _spans:
            f.write(json.dumps(record) + "\n")


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    install()
    atexit.register(_write, spans_path)
    import sqleq.cli
    return sqleq.cli.main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
