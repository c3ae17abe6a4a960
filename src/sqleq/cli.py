"""Command-line entry point.

Subcommands: check (one pair), bench (dataset run + report), plan,
features, prompt (exact prompt bytes), oracle (execution-based check).

Exit codes: 0 Equivalent, 1 Non-Equivalent, 2 Unknown, 64 usage error,
65 SQL that does not parse or bind, 69 backend failed after its retries
or gave an empty explanation, 70 internal or other toolkit error.
Configuration precedence: flags > environment
(SQLEQ_API_KEY, SQLEQ_CONFIG) > config file (TOML or JSON) > defaults.
Diagnostics go to stderr; stdout stays machine-parseable under
--format json.

`run` is the process entry point (the `sqleq` script and `python -m
sqleq.cli`). What a run builds (rows, results, ASTs, plans) holds no
reference cycles, so `run` gives the cyclic garbage collector little to
do: once the package is imported it moves every object into the
permanent generation (`gc.freeze()`), raises the generation-0
threshold from 700 to `GC_THRESHOLD` allocations, and freezes the heap
again after `main` returns, so interpreter teardown does not sweep it.
`run` also sets the thread switch interval (`sys.setswitchinterval`)
from CPython's 5 ms to `SWITCH_INTERVAL`. `bench` checks pairs on
`--parallelism` worker threads; with the mock backend they are all
CPU-bound, so the waiting one forces a hand-off of the GIL every 5 ms,
each a wait for the OS to wake the other thread, and `--parallelism 2`
ran about 10% slower than `--parallelism 1` on a `--with-plans` run.
A thread that waits for I/O (the HTTP backend, or the main thread
joining the workers) releases the GIL itself, so the interval only
bounds how long a CPU-bound thread may keep the GIL from a waiting one.
That includes the main thread when a signal arrives: Ctrl-C may wait up
to `SWITCH_INTERVAL` before the main thread runs.
`main` changes no process state, so in-process callers (tests, scripts,
the benchmark tracer) keep the default collector and switch interval.

Only `oracle` executes statements, so only it loads the interpreter
(`interpreter.py`), before its first pair; that is after `run`'s first
`gc.freeze()`, so the interpreter's module objects stay in the
collector's generations. `features` imports `features.py` itself.
"""

import argparse
import errno
import gc
import json
import os
import sys

from .backend import GenConfig, HttpBackend, MockBackend
from .bench import (
    UNKNOWN_POLICIES, QueryPair, fmt_metric, load_dataset, run_benchmark,
    write_report,
)
from .errors import (
    BackendError, BadExemplarSet, DatasetError, EmptyExplanation, PlanError,
    SchemaError, SqleqError, SqlSyntaxError, UnsupportedConstruct,
)
from .executor import instance_from_dict
from .oracle import oracle_check
from .parser import parse_sql
from .pipeline import (
    LABEL_EQUIVALENT, LABEL_NON_EQUIVALENT, ONE_PROMPT_STRATEGIES,
    PipelineConfig, STRATEGIES, check_pair, verdict_to_dict,
)
from .plan import pair_plans, plan_or_placeholder
from .prompts import (
    build_classify, build_decide, build_explain, build_strategy,
    exemplar_set_from_file, select_exemplars,
)
from .schema import load_schema, load_schemas

EXIT_EQUIVALENT = 0
EXIT_NON_EQUIVALENT = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_UNAVAILABLE = 69
EXIT_ERROR = 70

# allocations between generation-0 collections under `run` (CPython's
# default is 700)
GC_THRESHOLD = 10_000
# seconds a thread may hold the GIL while another waits for it, under
# `run` (CPython's default is 0.005); the smallest one tried at which two
# CPU-bound bench workers ran as fast as one
SWITCH_INTERVAL = 0.02

BACKENDS = ("mock", "http")

CONFIG_ENV = "SQLEQ_CONFIG"
API_KEY_ENV = "SQLEQ_API_KEY"

# a config-file value a setting accepts: (description, test)
_TEXT = ("text", lambda v: isinstance(v, str))
_TEXT_OR_NULL = ("text or null", lambda v: v is None or isinstance(v, str))
_INTEGER = ("an integer",
            lambda v: isinstance(v, int) and not isinstance(v, bool))
_NUMBER = ("a number",
           lambda v: isinstance(v, (int, float)) and not isinstance(v, bool))
_BOOLEAN = ("true or false", lambda v: isinstance(v, bool))


def _one_of(*choices):
    return " or ".join(map(repr, choices)), lambda v: v in choices


# setting -> (default, what a config file may set it to)
_SETTINGS = {
    "backend": ("mock", _one_of(*BACKENDS)),
    "endpoint": (None, _TEXT_OR_NULL),
    "api_key": (None, _TEXT_OR_NULL),
    "model": ("mock-model", _TEXT),
    "classifier_model": (None, _TEXT_OR_NULL),
    "temperature": (0.2, _NUMBER),
    "max_tokens": (1000, _INTEGER),
    "timeout": (30.0, _NUMBER),
    "retries": (3, _INTEGER),
    "parallelism": (4, _INTEGER),
    "seed": (0, _INTEGER),
    "exemplars": (None, _TEXT_OR_NULL),
    "mock_script": (None, _TEXT_OR_NULL),
    "mock_default": ("Unknown", _TEXT),
    "shortcut": (True, _BOOLEAN),
    "unknown_policy": ("as_neq", _one_of(*UNKNOWN_POLICIES)),
}
_DEFAULTS = {name: default for name, (default, _kind) in _SETTINGS.items()}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises UsageError for an argument it rejects: argparse would exit
    2, which `check` gives for Unknown."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


def run(argv=None):
    """Run `main` with the process's collector set for an acyclic heap
    and its switch interval set to `SWITCH_INTERVAL`; returns the exit
    code. The interval also bounds how long Ctrl-C waits for the main
    thread while a worker computes."""
    gc.freeze()
    gc.set_threshold(GC_THRESHOLD, *gc.get_threshold()[1:])
    sys.setswitchinterval(SWITCH_INTERVAL)
    try:
        return main(argv)
    finally:
        gc.freeze()


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except (UsageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SqleqError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, (SqlSyntaxError, UnsupportedConstruct, PlanError)):
            return EXIT_DATA
        if isinstance(exc, (BackendError, EmptyExplanation)):
            return EXIT_UNAVAILABLE
        return EXIT_ERROR
    except Exception as exc:  # a defect: report it in the documented way
        print(f"error: internal: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_ERROR


def _build_parser():
    parser = _Parser(
        prog="sqleq",
        description="SQL query-pair equivalence checking toolkit")
    parser.add_argument("--config", help="config file (TOML or JSON); "
                        f"also via ${CONFIG_ENV}")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("check", help="check one query pair")
    p.add_argument("--sql1", required=True)
    p.add_argument("--sql2", required=True)
    p.add_argument("--schema", required=True, help="schema JSON file")
    p.add_argument("--strategy", default="basic", choices=STRATEGIES)
    p.add_argument("--with-plans", action="store_true")
    _backend_flags(p)
    p.add_argument("--no-shortcut", action="store_true",
                   help="send exact-match pairs to the backend anyway")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bench", help="run a dataset benchmark")
    p.add_argument("--dataset", required=True, help="pairs JSONL file")
    p.add_argument("--schemas", required=True, help="schemas JSON file")
    p.add_argument("--strategy", default="basic", choices=STRATEGIES)
    p.add_argument("--with-plans", action="store_true")
    p.add_argument("--out", required=True, help="report output path")
    p.add_argument("--format", default="json",
                   choices=["json", "csv", "markdown"])
    p.add_argument("--parallelism", type=int)
    p.add_argument("--unknown-policy", choices=UNKNOWN_POLICIES)
    p.add_argument("--score-exact-matches", action="store_true")
    _backend_flags(p)
    p.add_argument("--seed", type=int, help="exemplar sampling seed")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("plan", help="print the logical plan for a query")
    p.add_argument("--sql", required=True)
    p.add_argument("--schema", required=True, help="schema JSON file")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("features", help="print a feature profile")
    p.add_argument("--sql", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("prompt", help="print exact prompt bytes")
    p.add_argument("--strategy", required=True,
                   choices=ONE_PROMPT_STRATEGIES + ("explain", "decide",
                                                    "classify"))
    p.add_argument("--sql1")
    p.add_argument("--sql2")
    p.add_argument("--schema", help="schema JSON file")
    p.add_argument("--with-plans", action="store_true")
    p.add_argument("--exemplars", help="exemplar JSON file (fewshot)")
    p.add_argument("--slot", type=int, choices=[1, 2], default=1,
                   help="query slot for the explain stage")
    p.add_argument("--expl1", help="stage-1 explanation (decide)")
    p.add_argument("--expl2", help="stage-1 explanation (decide)")
    p.add_argument("--text", help="raw text to classify")
    p.set_defaults(func=cmd_prompt)

    p = sub.add_parser("oracle", help="execution-based oracle over a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--schemas", required=True)
    p.add_argument("--instances", required=True, nargs="+",
                   help="instance JSON file(s)")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=cmd_oracle)

    return parser


def _backend_flags(p):
    p.add_argument("--backend", choices=BACKENDS)
    p.add_argument("--endpoint")
    p.add_argument("--model")
    p.add_argument("--classifier-model")
    p.add_argument("--api-key")
    p.add_argument("--mock-script", help="mock rules JSON file")
    p.add_argument("--exemplars-file", dest="exemplars",
                   help="exemplar JSON file for fewshot")


def resolve_config(args):
    """Merge flags over environment over config file over defaults."""
    merged = dict(_DEFAULTS)
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    if path:
        merged.update(_read_file(path, "config", _load_config))
    if os.environ.get(API_KEY_ENV):
        merged["api_key"] = os.environ[API_KEY_ENV]
    for key in _SETTINGS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if getattr(args, "no_shortcut", False):
        merged["shortcut"] = False
    return merged


def _load_config(path):
    if path.endswith(".toml"):
        try:
            import tomllib
        except ModuleNotFoundError:
            try:
                import tomli as tomllib
            except ModuleNotFoundError as exc:
                raise UsageError(
                    "TOML config requires Python 3.11+ or tomli") from exc
        with open(path, "rb") as f:
            config = tomllib.load(f)
    else:
        config = _load_json(path)
        if not isinstance(config, dict):
            raise TypeError("expected a JSON object of settings")
    for name, value in config.items():
        if name in _SETTINGS:
            what, accepts = _SETTINGS[name][1]
            if not accepts(value):
                raise TypeError(
                    f"setting {name!r} must be {what}, got {value!r}")
    return config


def _make_backend(conf):
    if conf["backend"] == "mock":
        if conf["mock_script"]:
            return _read_file(
                conf["mock_script"], "mock script",
                lambda path: MockBackend.from_file(
                    path, default=conf["mock_default"]))
        return MockBackend(default=conf["mock_default"])
    if not conf["endpoint"]:
        raise UsageError("http backend requires --endpoint (or config)")
    gen = _gen_config(conf, conf["model"])
    try:
        return HttpBackend(conf["endpoint"], api_key=conf["api_key"],
                           parallelism=gen.parallelism)
    except ValueError as exc:
        raise UsageError(f"bad endpoint: {exc}") from exc


# GenConfig field -> the setting that gives it
_GEN_SETTINGS = {
    "temperature": "temperature",
    "max_output_tokens": "max_tokens",
    "timeout": "timeout",
    "max_retries": "retries",
    "parallelism": "parallelism",
}


def _gen_config(conf, model):
    """Generation settings; an out-of-range value is a usage error that
    names the setting, not the GenConfig field."""
    try:
        return GenConfig(model=model, **{
            field: conf[setting] for field, setting in _GEN_SETTINGS.items()})
    except ValueError as exc:
        field, _, rest = str(exc).partition(" ")
        raise UsageError(
            f"bad setting: {_GEN_SETTINGS.get(field, field)} {rest}") from exc


def _pipeline_config(conf, dataset=None):
    classifier_model = conf["classifier_model"] or conf["model"]
    exemplars = None
    if conf["exemplars"]:
        exemplars = _read_file(conf["exemplars"], "exemplars",
                               exemplar_set_from_file)
    elif dataset is not None:
        try:
            exemplars = select_exemplars(dataset, conf["seed"])
        except SqleqError:
            exemplars = None
    return PipelineConfig(
        strategy_cfg=_gen_config(conf, conf["model"]),
        classifier_cfg=_gen_config(conf, classifier_model),
        exemplars=exemplars,
        shortcut=conf["shortcut"],
        fail_soft=True,
    )


def _read_file(path, what, load):
    """`load(path)`, with a missing or malformed file a usage error."""
    if not os.path.isfile(path):
        raise UsageError(f"{what} file not found: {path}")
    try:
        return load(path)
    except (ValueError, KeyError, TypeError, AttributeError, DatasetError,
            BadExemplarSet, SchemaError) as exc:
        raise UsageError(f"malformed {what} file {path}: {exc}") from exc


def _load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _read_dataset(args):
    schemas = _read_file(args.schemas, "schemas", load_schemas)
    return _read_file(args.dataset, "dataset",
                      lambda path: load_dataset(path, schemas))


def _ad_hoc_pair(args):
    return QueryPair(id="pair-0", sql1=args.sql1, sql2=args.sql2,
                     schema_name=args.schema, label=None)


# --- commands ---

def cmd_check(args):
    conf = resolve_config(args)
    schema = _read_file(args.schema, "schema", load_schema)
    backend = _make_backend(conf)
    cfg = _pipeline_config(conf)
    if args.strategy == "fewshot" and cfg.exemplars is None:
        raise UsageError("fewshot strategy needs --exemplars-file")
    cfg.fail_soft = False
    pair = _ad_hoc_pair(args)
    verdict = check_pair(pair, schema, args.strategy, args.with_plans,
                         backend, cfg)
    print(json.dumps(verdict_to_dict(verdict), sort_keys=True))
    if verdict.label == LABEL_EQUIVALENT:
        return EXIT_EQUIVALENT
    if verdict.label == LABEL_NON_EQUIVALENT:
        return EXIT_NON_EQUIVALENT
    return EXIT_UNKNOWN


def cmd_bench(args):
    conf = resolve_config(args)
    dataset = _read_dataset(args)
    backend = _make_backend(conf)
    cfg = _pipeline_config(
        conf, dataset=dataset if args.strategy == "fewshot" else None)
    if args.strategy == "fewshot" and cfg.exemplars is None:
        raise UsageError("fewshot strategy needs exemplars "
                         "(--exemplars-file or enough labeled pairs)")
    unwritable = _unwritable(args.out)
    if unwritable:  # found before any pair calls the backend
        raise UsageError(f"cannot write report {args.out}: "
                         f"{os.strerror(unwritable)}")
    report = run_benchmark(
        dataset, args.strategy, args.with_plans, backend, cfg,
        parallelism=conf["parallelism"],
        unknown_policy=conf["unknown_policy"],
        score_exact_matches=args.score_exact_matches,
        extra_config={"seed": conf["seed"]},
    )
    try:
        write_report(report, args.format, args.out)
    except OSError as exc:
        raise UsageError(f"cannot write report {args.out}: "
                         f"{exc.strerror or exc}") from exc
    metrics = report.metrics.as_dict()
    if args.format == "json":
        print(json.dumps({"out": args.out, "metrics": metrics},
                         sort_keys=True))
    else:
        print(f"wrote {args.out}")
        print(f"EQ {fmt_metric(metrics['eq_accuracy'])} "
              f"({metrics['eq_correct']}/{metrics['eq_total']}), "
              f"NEQ {fmt_metric(metrics['neq_accuracy'])} "
              f"({metrics['neq_correct']}/{metrics['neq_total']}), "
              f"GM {fmt_metric(metrics['gm'])}")
    return 0


def _unwritable(path):
    """The errno that opening `path` to write the report would fail
    with, as far as the file system tells without creating or truncating
    anything; 0 when none."""
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        return errno.EISDIR
    if not os.path.isdir(parent):
        return errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    target = path if os.path.exists(path) else parent
    return 0 if os.access(target, os.W_OK) else errno.EACCES


def cmd_plan(args):
    schema = _read_file(args.schema, "schema", load_schema)
    print(plan_or_placeholder(args.sql, schema))
    return 0


def cmd_features(args):
    from .features import extract_features
    profile = extract_features(parse_sql(args.sql))
    print(json.dumps(profile.as_dict(), sort_keys=True))
    return 0


def cmd_prompt(args):
    if args.strategy == "classify":
        if not args.text:
            raise UsageError("classify prompt needs --text")
        sys.stdout.write(build_classify(args.text).body)
        return 0
    if not (args.sql1 and args.sql2 and args.schema):
        raise UsageError(f"{args.strategy} prompt needs --sql1 --sql2 "
                         "--schema")

    schema = _read_file(args.schema, "schema", load_schema)
    pair = _ad_hoc_pair(args)
    plans = pair_plans(pair, schema) if args.with_plans else None
    if args.strategy == "explain":
        bundle = build_explain(args.slot, pair, schema, plans)
    elif args.strategy == "decide":
        if not (args.expl1 and args.expl2):
            raise UsageError("decide prompt needs --expl1 --expl2")
        bundle = build_decide(pair, schema, plans, expl1=args.expl1,
                              expl2=args.expl2)
    else:
        exemplars = None
        if args.strategy == "fewshot":
            if not args.exemplars:
                raise UsageError("fewshot prompt needs --exemplars")
            exemplars = _read_file(args.exemplars, "exemplars",
                                   exemplar_set_from_file)
        bundle = build_strategy(args.strategy, pair, schema, plans,
                                exemplars)
    sys.stdout.write(bundle.body)
    return 0


def cmd_oracle(args):
    dataset = _read_dataset(args)
    raw_instances = []
    for path in args.instances:
        data = _read_file(path, "instance", _load_json)
        raw_instances.extend(data if isinstance(data, list) else [data])
    if not raw_instances:
        raise UsageError("the --instances files hold no instance")
    # `execute` would import the interpreter in the first pair's run;
    # loaded here, no traced execute span pays for it
    from . import interpreter  # noqa: F401

    refuted = consistent = inconclusive = 0
    loaded = {}  # schema name -> instances, or their load errors
    for pair in dataset.pairs:
        if pair.schema_name not in loaded:
            loaded[pair.schema_name] = _loaded_instances(
                raw_instances, dataset.schema_for(pair))
        outcome = oracle_check(pair.sql1, pair.sql2,
                               loaded[pair.schema_name])
        if outcome.status == "refuted":
            refuted += 1
        elif outcome.status == "consistent":
            consistent += 1
        else:
            inconclusive += 1
        if args.format == "json":
            print(json.dumps({
                "pair_id": pair.id,
                "status": outcome.status,
                "witness_index": outcome.witness_index,
                "reason": outcome.reason,
                "errors": list(outcome.errors),
            }, sort_keys=True))
        else:
            detail = ""
            if outcome.status == "refuted":
                detail = f" (instance {outcome.witness_index}: " \
                         f"{outcome.reason})"
            elif outcome.errors:
                detail = f" ({'; '.join(outcome.errors)})"
            print(f"{pair.id}: {outcome.status.capitalize()}{detail}")
    print(f"refuted {refuted}, consistent {consistent}, "
          f"inconclusive {inconclusive}", file=sys.stderr)
    return 0


def _loaded_instances(raw_instances, schema):
    """The instances in file order, each one that does not load replaced
    by its error."""
    instances = []
    for raw in raw_instances:
        try:
            instances.append(instance_from_dict(raw, schema))
        except SqleqError as exc:
            instances.append(exc)
    return instances


if __name__ == "__main__":
    sys.exit(run())
