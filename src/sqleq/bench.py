"""Benchmark harness: dataset ingestion, runs, metrics, reports.

Datasets are JSONL, one pair per line:

    {"id": "...", "sql1": "...", "sql2": "...", "schema": "<name>",
     "label": "EQ"|"NEQ", "difficulty": "Easy|Medium|Hard|ExtraHard",
     "question": "Q1", "explanation": "..."}

(the last three fields are optional). Schema names resolve against a
schemas JSON file mapping name to schema definition.

Scoring: exact-match pairs are excluded from the scored denominators by
default; Unknown predictions count as Non-Equivalent under the default
policy ("as_neq") or as always wrong ("always_wrong"). The geometric
mean is sqrt(eq_accuracy * neq_accuracy) and is omitted when a class is
empty.
"""

import io
import json
import math
import threading
import warnings
from json.encoder import encode_basestring_ascii as _json_str

from .errors import DatasetParseError, DuplicateId, MissingSchema
from .normalize import exact_match
from .pipeline import (
    LABEL_EQUIVALENT, LABEL_NON_EQUIVALENT, LABEL_UNKNOWN, check_pair,
    verdict_to_dict,
)
from .records import Frozen
from .schema import load_schemas

# csv and datetime are imported by the functions that use them: `sqleq
# oracle` loads this module but runs neither.

DIFFICULTIES = ("Easy", "Medium", "Hard", "ExtraHard", "Unlabeled")
UNKNOWN_POLICIES = ("as_neq", "always_wrong")

_DIFFICULTY_ALIASES = {
    "easy": "Easy", "medium": "Medium", "hard": "Hard",
    "extrahard": "ExtraHard", "unlabeled": "Unlabeled",
}


class QueryPair:
    def __init__(self, id, sql1, sql2, schema_name, label,
                 difficulty="Unlabeled", question=None, explanation=None,
                 exact=None):
        self.id = id
        self.sql1 = sql1
        self.sql2 = sql2
        self.schema_name = schema_name
        self.label = label  # EQ | NEQ | None
        self.difficulty = difficulty
        self.question = question
        self.explanation = explanation
        # whether the texts normalize alike: set at load time, None until
        # then, and `pipeline.check_pair` normalizes a pair left at None
        self.exact = exact


class Dataset:
    def __init__(self, pairs, schemas):
        self.pairs = pairs
        self.schemas = schemas  # name -> SchemaDef

    def schema_for(self, pair):
        return self.schemas[pair.schema_name]


def load_dataset(path, schemas):
    """Load and validate a JSONL dataset; `schemas` is a path or dict."""
    if isinstance(schemas, (str, bytes)) or hasattr(schemas, "__fspath__"):
        schemas = load_schemas(schemas)
    pairs = []
    seen = set()
    for line_number, record in _records(path):
        pair = _pair_from_record(record, line_number, schemas)
        if pair.id in seen:
            raise DuplicateId(f"duplicate pair id {pair.id!r} "
                              f"(line {line_number})")
        seen.add(pair.id)
        pairs.append(pair)
    return Dataset(pairs=pairs, schemas=schemas)


def _records(path):
    """Yield (line number, object) for each non-blank line of a JSONL
    file; a line that is not a JSON object is a DatasetParseError."""
    with open(path, encoding="utf-8") as f:
        for line_number, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetParseError(f"invalid JSON: {exc}",
                                        line_number) from exc
            if not isinstance(record, dict):
                raise DatasetParseError("not a JSON object", line_number)
            yield line_number, record


def _pair_from_record(record, line_number, schemas):
    for required in ("id", "sql1", "sql2", "schema", "label"):
        if required not in record:
            raise DatasetParseError(f"missing field {required!r}", line_number)
    for field in ("sql1", "sql2"):
        if not isinstance(record[field], str):
            raise DatasetParseError(f"{field} must be text", line_number)
    for field in ("question", "explanation"):
        if not isinstance(record.get(field), (str, type(None))):
            raise DatasetParseError(f"{field} must be text or null",
                                    line_number)
    label = record["label"]
    if label not in ("EQ", "NEQ"):
        raise DatasetParseError(f"label must be EQ or NEQ, got {label!r}",
                                line_number)
    schema_name = record["schema"]
    if schema_name not in schemas:
        raise MissingSchema(f"line {line_number}: schema {schema_name!r} "
                            f"not in schemas file")
    difficulty = _normalize_difficulty(record.get("difficulty"), line_number)
    sql1, sql2 = record["sql1"], record["sql2"]
    return QueryPair(
        id=str(record["id"]), sql1=sql1, sql2=sql2,
        schema_name=schema_name, label=label, difficulty=difficulty,
        question=record.get("question"),
        explanation=record.get("explanation"),
        exact=exact_match(sql1, sql2),
    )


def _normalize_difficulty(value, line_number):
    if value is None:
        return "Unlabeled"
    if value.__class__ is str and value in DIFFICULTIES:
        return value  # already canonical
    key = "".join(ch for ch in str(value).lower() if ch.isalpha())
    if key.startswith("extra"):
        key = "extrahard"
    if key not in _DIFFICULTY_ALIASES:
        raise DatasetParseError(f"unknown difficulty {value!r}", line_number)
    return _DIFFICULTY_ALIASES[key]


# --- metrics ---

class Metrics(Frozen):
    def __init__(self, eq_total, neq_total, eq_correct, neq_correct,
                 unknown_predictions, errors, eq_accuracy, neq_accuracy, gm):
        object.__setattr__(self, "eq_total", eq_total)
        object.__setattr__(self, "neq_total", neq_total)
        object.__setattr__(self, "eq_correct", eq_correct)
        object.__setattr__(self, "neq_correct", neq_correct)
        object.__setattr__(self, "unknown_predictions", unknown_predictions)
        object.__setattr__(self, "errors", errors)
        # the accuracies and gm are None when a class has no scored pair
        object.__setattr__(self, "eq_accuracy", eq_accuracy)
        object.__setattr__(self, "neq_accuracy", neq_accuracy)
        object.__setattr__(self, "gm", gm)

    def as_dict(self):
        """The fields by name, in the order `__init__` declares them."""
        return dict(vars(self))


def compute_metrics(predictions, pairs, unknown_policy="as_neq",
                    error_count=0):
    """EQ/NEQ accuracy and geometric mean over scored pairs.

    `predictions` maps pair id to a pipeline label. Every scored pair
    needs a prediction. With an empty class the per-class accuracy is
    None and the geometric mean is omitted.
    """
    if unknown_policy not in UNKNOWN_POLICIES:
        raise ValueError(f"unknown policy {unknown_policy!r}")
    eq_total = neq_total = eq_correct = neq_correct = 0
    unknown = 0
    for pair in pairs:
        if pair.id not in predictions:
            raise ValueError(f"missing prediction for pair {pair.id!r}")
        predicted = predictions[pair.id]
        if predicted == LABEL_UNKNOWN:
            unknown += 1
        correct = _prediction_correct(predicted, pair.label, unknown_policy)
        if pair.label == "EQ":
            eq_total += 1
            eq_correct += correct
        elif pair.label == "NEQ":
            neq_total += 1
            neq_correct += correct
    eq_accuracy = eq_correct / eq_total if eq_total else None
    neq_accuracy = neq_correct / neq_total if neq_total else None
    gm = None
    if eq_accuracy is not None and neq_accuracy is not None:
        gm = math.sqrt(eq_accuracy * neq_accuracy)
    return Metrics(eq_total=eq_total, neq_total=neq_total,
                   eq_correct=eq_correct, neq_correct=neq_correct,
                   unknown_predictions=unknown, errors=error_count,
                   eq_accuracy=eq_accuracy, neq_accuracy=neq_accuracy, gm=gm)


# --- run execution ---

class RunReport:
    def __init__(self, strategy, plans_enabled, unknown_policy, verdicts,
                 pairs, scored_ids, metrics, by_difficulty, by_question,
                 config, started_at="", finished_at=""):
        self.strategy = strategy
        self.plans_enabled = plans_enabled
        self.unknown_policy = unknown_policy
        self.verdicts = verdicts  # sorted by pair id
        self.pairs = pairs        # QueryPair rows the run covered
        self.scored_ids = scored_ids
        self.metrics = metrics    # Metrics | None
        self.by_difficulty = by_difficulty
        self.by_question = by_question
        self.config = config
        self.started_at = started_at
        self.finished_at = finished_at

    def predictions(self):
        return {v.pair_id: v.label for v in self.verdicts}


def run_benchmark(dataset, strategy, plans_enabled, backend, cfg,
                  parallelism=4, unknown_policy="as_neq",
                  score_exact_matches=False, extra_config=None):
    """Check every pair and aggregate metrics plus breakdowns.

    Pairs run on `_check_pairs`'s worker threads, at most `parallelism`
    at a time; aggregation sorts by pair id so reports do not depend on
    scheduling. With plans, each distinct query text is planned once per
    schema in the run. Exemplar pairs (for few-shot) are dropped from the
    run entirely.
    """
    excluded = set()
    if cfg.exemplars is not None:
        excluded = set(cfg.exemplars.excluded_ids)
    pairs = [p for p in dataset.pairs if p.id not in excluded]

    plan_memo = {}  # this run's plan texts, shared by its workers
    started = _now()
    verdicts = _check_pairs(
        pairs, lambda p: check_pair(p, dataset.schema_for(p), strategy,
                                    plans_enabled, backend, cfg, plan_memo),
        parallelism)
    finished = _now()

    verdicts.sort(key=lambda v: v.pair_id)
    scored_ids = {
        p.id for p in pairs
        if p.label and (score_exact_matches or not p.exact)
    }

    report = RunReport(
        strategy=strategy, plans_enabled=plans_enabled,
        unknown_policy=unknown_policy, verdicts=verdicts, pairs=pairs,
        scored_ids=scored_ids, metrics=None, by_difficulty={},
        by_question={}, config=_config_echo(backend, cfg, plans_enabled,
                                            strategy, extra_config),
        started_at=started, finished_at=finished,
    )
    predictions = report.predictions()
    scored = [p for p in pairs if p.id in scored_ids]
    errors = sum(1 for v in verdicts
                 if v.error is not None and v.pair_id in scored_ids)
    report.metrics = compute_metrics(predictions, scored, unknown_policy,
                                     error_count=errors)
    report.by_difficulty = breakdown(report, "difficulty")
    report.by_question = breakdown(report, "question")
    return report


def _check_pairs(pairs, check, parallelism):
    """[check(p) for p in pairs], run on min(parallelism, len(pairs))
    worker threads that take the next pair, in input order, from one
    shared cursor. The calling thread only joins them, so every check runs
    on a worker.

    After the first failure no worker starts another pair; the running
    ones finish and the exception of the lowest-index failing pair is
    raised. If the join itself is interrupted (Ctrl-C), the workers start
    no further pair either.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be positive")
    results = [None] * len(pairs)
    failures = {}
    cursor = iter(range(len(pairs)))
    lock = threading.Lock()

    def work():
        nonlocal cursor
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            try:
                results[index] = check(pairs[index])
            except BaseException as exc:  # re-raised by the calling thread
                with lock:
                    failures[index] = exc
                    cursor = iter(())

    workers = [threading.Thread(target=work)
               for _ in range(min(parallelism, len(pairs)))]
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    finally:
        with lock:
            cursor = iter(())
    if failures:
        raise failures[min(failures)]
    return results


def breakdown(report, axis):
    """Per-difficulty or per-question metrics over the scored pairs."""
    if axis not in ("difficulty", "question"):
        raise ValueError(f"unknown breakdown axis {axis!r}")
    predictions = report.predictions()
    groups = {}
    for pair in report.pairs:
        if pair.id not in report.scored_ids:
            continue
        key = pair.difficulty if axis == "difficulty" \
            else (pair.question or "untagged")
        groups.setdefault(key, []).append(pair)
    ordered = {}
    for key in _axis_order(groups, axis):
        ordered[key] = compute_metrics(predictions, groups[key],
                                       report.unknown_policy)
    return ordered


def _axis_order(groups, axis):
    if axis == "difficulty":
        return [d for d in DIFFICULTIES if d in groups]
    return sorted(groups)


def _config_echo(backend, cfg, plans_enabled, strategy, extra_config):
    def gen_dict(gen):
        if gen is None:
            return None
        return {
            "model": gen.model,
            "temperature": gen.temperature,
            "max_output_tokens": gen.max_output_tokens,
            "timeout": gen.timeout,
            "max_retries": gen.max_retries,
            "parallelism": gen.parallelism,
        }

    echo = {
        "strategy": strategy,
        "plans": plans_enabled,
        "shortcut": cfg.shortcut,
        "fail_soft": cfg.fail_soft,
        "strategy_gen": gen_dict(cfg.strategy_cfg),
        "classifier_gen": gen_dict(cfg.classifier_config()),
        "backend": type(backend).__name__,
        "classifier_backend": type(backend).__name__,
    }
    if cfg.exemplars is not None:
        echo["exemplar_excluded_ids"] = sorted(cfg.exemplars.excluded_ids)
    if extra_config:
        echo.update(extra_config)
    return echo


def _now():
    from datetime import datetime, timezone
    return datetime.now(timezone.utc).isoformat()


# --- coverage comparison ---

class CoverageReport(Frozen):
    def __init__(self, supported_total, unsupported_total, supported_correct,
                 unsupported_correct):
        object.__setattr__(self, "supported_total", supported_total)
        object.__setattr__(self, "unsupported_total", unsupported_total)
        object.__setattr__(self, "supported_correct", supported_correct)
        object.__setattr__(self, "unsupported_correct", unsupported_correct)

    def as_dict(self):
        """The fields by name, in the order `__init__` declares them."""
        return dict(vars(self))


def coverage_compare(report, tool_results_path):
    """Count supported/unsupported pairs for a formal tool and, within
    each subset, how many this run predicted correctly.

    Tool results are JSONL: {pair_id, supported: bool, tool_label?}.
    Unknown pair ids warn and are ignored.
    """
    predictions = report.predictions()
    known = {p.id: p for p in report.pairs}
    supported_total = unsupported_total = 0
    supported_correct = unsupported_correct = 0
    for line_number, record in _records(tool_results_path):
        pair_id = str(record.get("pair_id"))
        if pair_id not in known:
            warnings.warn(f"tool results line {line_number}: unknown "
                          f"pair id {pair_id!r} ignored", stacklevel=2)
            continue
        pair = known[pair_id]
        correct = _prediction_correct(
            predictions.get(pair_id), pair.label, report.unknown_policy)
        if record.get("supported"):
            supported_total += 1
            supported_correct += correct
        else:
            unsupported_total += 1
            unsupported_correct += correct
    return CoverageReport(supported_total, unsupported_total,
                          supported_correct, unsupported_correct)


def _prediction_correct(predicted, label, unknown_policy):
    if label == "EQ":
        return predicted == LABEL_EQUIVALENT
    if label == "NEQ":
        if unknown_policy == "as_neq":
            return predicted in (LABEL_NON_EQUIVALENT, LABEL_UNKNOWN)
        return predicted == LABEL_NON_EQUIVALENT
    return False


# --- report emission ---

def emit_report(report, fmt):
    """Render a report as json, csv, or markdown text.

    Deterministic for a given report: pairs are ordered by id and JSON
    keys are sorted. Timestamps appear only in the JSON format.
    """
    if fmt == "json":
        return _emit_json(report)
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "markdown":
        return _emit_markdown(report)
    raise ValueError(f"unknown report format {fmt!r}")


def write_report(report, fmt, path):
    text = emit_report(report, fmt)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


def _pair_rows(report):
    pairs = {pair.id: pair for pair in report.pairs}
    rows = []
    for verdict in report.verdicts:
        pair = pairs.get(verdict.pair_id)
        row = verdict_to_dict(verdict)
        row["ground_truth"] = pair.label if pair else None
        row["difficulty"] = pair.difficulty if pair else None
        row["question"] = pair.question if pair else None
        row["scored"] = verdict.pair_id in report.scored_ids
        rows.append(row)
    return rows


def _emit_json(report):
    """The report payload as `json.dumps(payload, indent=2,
    sort_keys=True)` writes it, plus a newline; `_write_json` gives that
    text exactly."""
    out = []
    _write_json(_report_payload(report), out, "\n")
    out.append("\n")
    return "".join(out)


def _report_payload(report):
    return {
        "strategy": report.strategy,
        "plans": report.plans_enabled,
        "unknown_policy": report.unknown_policy,
        "config": report.config,
        "started_at": report.started_at,
        "finished_at": report.finished_at,
        "metrics": report.metrics.as_dict() if report.metrics else None,
        "breakdowns": {
            "difficulty": {k: m.as_dict()
                           for k, m in report.by_difficulty.items()},
            "question": {k: m.as_dict()
                         for k, m in report.by_question.items()},
        },
        "pairs": _pair_rows(report),
    }


def _write_json(value, out, newline):
    """Append to `out` the text of `json.dumps(value, indent=2,
    sort_keys=True)`, with `newline` (a line break and the indent of the
    enclosing level) starting each line of it.

    The text is exactly that of `json.dumps`, failures included, for
    values made of dicts, lists, tuples, str, int, float, bool and None
    (subclasses too), without the pure-Python encoder's generator per
    container, which `json.dumps` falls back to whenever it indents.
    Strings go through the same C escaper, ints through `int.__repr__`
    and floats through `_json_float`, and a scalar in a container is
    written there without a call of this function. The one exception:
    a container that holds itself raises RecursionError where
    `json.dumps` raises ValueError.
    """
    scalars = _JSON_SCALARS
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            text = scalars.get(item.__class__)
            if text is None:
                out.append(separator)
                _write_json(item, out, inner)
            else:
                out.append(separator + text(item))
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            key = _json_str(key if key.__class__ is str else _json_key(key))
            text = scalars.get(item.__class__)
            if text is None:
                out.append(f"{separator}{key}: ")
                _write_json(item, out, inner)
            else:
                out.append(f"{separator}{key}: {text(item)}")
            separator = "," + inner
        out.append(newline + "}")
    else:
        out.append(_json_scalar(value))


def _json_scalar(value):
    text = _JSON_SCALARS.get(value.__class__)
    if text is not None:
        return text(value)
    for kind in (str, int, float):  # a subclass; bool and None have none
        if isinstance(value, kind):
            return _JSON_SCALARS[kind](value)
    raise TypeError(f"Object of type {value.__class__.__name__} "
                    f"is not JSON serializable")


def _json_key(key):
    """A dict key as `json.dumps` turns it into text."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return _json_scalar(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _json_float(value):
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


# The text of a scalar of each exact type, by a call in C where there is
# one: `json.dumps` writes these types with these functions.
_JSON_SCALARS = {
    str: _json_str,
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _emit_csv(report):
    import csv
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["pair_id", "ground_truth", "prediction", "scored",
                     "shortcut", "difficulty", "question", "error"])
    for row in _pair_rows(report):
        writer.writerow([
            row["pair_id"], row["ground_truth"], row["label"], row["scored"],
            row["shortcut"], row["difficulty"], row["question"],
            row["error"] or "",
        ])
    metrics = report.metrics
    writer.writerow([])
    writer.writerow(["# metric", "value"])
    for key, value in metrics.as_dict().items():
        writer.writerow([f"# {key}", fmt_metric(value)])
    return buffer.getvalue()


def _emit_markdown(report):
    lines = [
        "# Equivalence benchmark report",
        "",
        f"- strategy: {report.strategy}",
        f"- logical plans in prompt: {report.plans_enabled}",
        f"- unknown policy: {report.unknown_policy}",
        f"- scored pairs: {len(report.scored_ids)}",
        "",
        "## Overall",
        "",
        "| EQ n | NEQ n | EQ acc | NEQ acc | GM |",
        "| --- | --- | --- | --- | --- |",
        _markdown_metrics_row(report.metrics),
    ]
    for title, table in (("By difficulty", report.by_difficulty),
                         ("By question", report.by_question)):
        if not table:
            continue
        lines.extend([
            "",
            f"## {title}",
            "",
            "| group | EQ n | NEQ n | EQ acc | NEQ acc | GM |",
            "| --- | --- | --- | --- | --- | --- |",
        ])
        for key, metrics in table.items():
            lines.append(f"| {key} " + _markdown_metrics_row(metrics))
    return "\n".join(lines) + "\n"


def _markdown_metrics_row(metrics):
    return (f"| {metrics.eq_total} | {metrics.neq_total} "
            f"| {fmt_metric(metrics.eq_accuracy)} "
            f"| {fmt_metric(metrics.neq_accuracy)} "
            f"| {fmt_metric(metrics.gm)} |")


def fmt_metric(value):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)
