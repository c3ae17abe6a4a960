"""Per-layer metrics from the span files of one traced pass.

A span's self time is its duration minus the part of its interval that
its child spans cover (children of one span can overlap when the
pipeline fans pairs out to threads, so covered time is a union). Times
are summed over the pass in milliseconds; counts are exact per pass.
"""

import json
from collections import defaultdict

from workloads import JOIN_FAMILIES, SCAN_FAMILIES

FAMILIES = JOIN_FAMILIES + SCAN_FAMILIES

# name -> unit, in the order they are printed
PER_LAYER = {
    "cli.main.ms": "ms",
    "bench.load_dataset.self_ms": "ms",
    "normalize.exact_match.calls": "count",
    "normalize.exact_match.self_ms": "ms",
    "pipeline.shortcut_share": "ratio",
    "parser.parse_sql.calls_per_pair": "count",
    "parser.parse_sql.self_ms": "ms",
    "lexer.tokenize.self_ms": "ms",
    "plan.plan_or_placeholder.calls": "count",
    "plan.plan_or_placeholder.self_ms": "ms",
    "plan.placeholder_share": "ratio",
    "prompts.build.self_ms": "ms",
    "prompts.build.bytes_per_pair": "bytes",
    "backend.complete.calls_per_pair": "count",
    "backend.complete.self_ms": "ms",
    "backend.complete.p50_ms": "ms",
    "backend.complete.p99_ms": "ms",
    "backend.http.connections_per_call": "count",
    "backend.http.attempts_per_call": "count",
    "backend.http.client_overhead_p50_ms": "ms",
    "pipeline.check_pair.p50_ms": "ms",
    "pipeline.check_pair.p99_ms": "ms",
    "pipeline.check_pair.self_ms": "ms",
    "bench.write_report.self_ms": "ms",
    "bench.report_bytes": "bytes",
    "executor.instance_from_dict.calls": "count",
    "executor.instance_from_dict.self_ms": "ms",
    "oracle.oracle_check.p50_ms": "ms",
    "oracle.oracle_check.p99_ms": "ms",
    "oracle.compare_results.self_ms": "ms",
    "oracle.executions_per_pair": "count",
    **{f"executor.execute.{f}.self_ms": "ms" for f in FAMILIES},
    "executor.execute.rows_out": "count",
    "oracle.status.refuted": "count",
    "oracle.status.consistent": "count",
    "oracle.status.inconclusive": "count",
    **{f"sqlite.execute.{f}.ms": "ms" for f in FAMILIES},
    "trace.overhead_share": "ratio",
}


def read_spans(path):
    """Return (absent targets, spans) of one span file."""
    with open(path, encoding="utf-8") as f:
        header = json.loads(f.readline())
        spans = [json.loads(line) for line in f]
    return header["absent"], spans


def add_self_times(spans):
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    for span in spans:
        covered = _union_length(children.get(span["id"], ()),
                                span["start"], span["end"])
        span["self"] = span["end"] - span["start"] - covered


def _union_length(intervals, lo, hi):
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def percentile(values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def per_pass_metrics(spans, pairs, family_of_sql, stub_delta=None,
                     sqlite_ms=None):
    """Per-layer metrics of one traced pass over `pairs` pairs.

    `spans` are the spans of every process of the pass with self times
    added; `stub_delta` holds the loopback stub's counters for the pass.
    Metrics of layers the workload does not reach read 0.
    """
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def count(name):
        return len(by_name[name])

    def self_ms(name, spans_of=None):
        chosen = by_name[name] if spans_of is None else spans_of
        return sum(s["self"] for s in chosen) / 1e6

    def durations_ms(name, spans_of=None):
        chosen = by_name[name] if spans_of is None else spans_of
        return [(s["end"] - s["start"]) / 1e6 for s in chosen]

    def share(name, attr):
        spans_of = by_name[name]
        return sum(bool(s.get(attr)) for s in spans_of) / len(spans_of) \
            if spans_of else 0.0

    http_calls = [s for s in by_name["backend.complete"]
                  if s.get("kind") == "HttpBackend"]
    m = {
        "cli.main.ms": sum(durations_ms("cli.main")),
        "bench.load_dataset.self_ms": self_ms("bench.load_dataset"),
        "normalize.exact_match.calls": count("normalize.exact_match"),
        "normalize.exact_match.self_ms": self_ms("normalize.exact_match"),
        "pipeline.shortcut_share": share("pipeline.check_pair", "shortcut"),
        "parser.parse_sql.calls_per_pair": count("parser.parse_sql") / pairs,
        "parser.parse_sql.self_ms": self_ms("parser.parse_sql"),
        "lexer.tokenize.self_ms": self_ms("lexer.tokenize"),
        "plan.plan_or_placeholder.calls": count("plan.plan_or_placeholder"),
        "plan.plan_or_placeholder.self_ms":
            self_ms("plan.plan_or_placeholder"),
        "plan.placeholder_share":
            share("plan.plan_or_placeholder", "placeholder"),
        "prompts.build.self_ms": self_ms("prompts.build"),
        "prompts.build.bytes_per_pair":
            sum(s.get("bytes", 0) for s in by_name["prompts.build"]) / pairs,
        "backend.complete.calls_per_pair": count("backend.complete") / pairs,
        "backend.complete.self_ms": self_ms("backend.complete"),
        "backend.complete.p50_ms":
            percentile(durations_ms("backend.complete"), 50),
        "backend.complete.p99_ms":
            percentile(durations_ms("backend.complete"), 99),
        "backend.http.connections_per_call": 0.0,
        "backend.http.attempts_per_call": 0.0,
        "backend.http.client_overhead_p50_ms": 0.0,
        "pipeline.check_pair.p50_ms":
            percentile(durations_ms("pipeline.check_pair"), 50),
        "pipeline.check_pair.p99_ms":
            percentile(durations_ms("pipeline.check_pair"), 99),
        "pipeline.check_pair.self_ms": self_ms("pipeline.check_pair"),
        "bench.write_report.self_ms": self_ms("bench.write_report"),
        "bench.report_bytes":
            sum(s.get("bytes", 0) for s in by_name["bench.write_report"]),
        "executor.instance_from_dict.calls":
            count("executor.instance_from_dict"),
        "executor.instance_from_dict.self_ms":
            self_ms("executor.instance_from_dict"),
        "oracle.oracle_check.p50_ms":
            percentile(durations_ms("oracle.oracle_check"), 50),
        "oracle.oracle_check.p99_ms":
            percentile(durations_ms("oracle.oracle_check"), 99),
        "oracle.compare_results.self_ms": self_ms("oracle.compare_results"),
        "oracle.executions_per_pair":
            count("executor.execute") / count("oracle.oracle_check")
            if count("oracle.oracle_check") else 0.0,
    }
    executions = by_name["executor.execute"]
    for family in FAMILIES:
        m[f"executor.execute.{family}.self_ms"] = self_ms(
            None, [s for s in executions
                   if family_of_sql.get(s.get("sql")) == family])
    m["executor.execute.rows_out"] = sum(s.get("rows", 0)
                                         for s in executions)
    for status in ("refuted", "consistent", "inconclusive"):
        m[f"oracle.status.{status}"] = sum(
            s.get("status") == status for s in by_name["oracle.oracle_check"])
    for family in FAMILIES:
        m[f"sqlite.execute.{family}.ms"] = (sqlite_ms or {}).get(family, 0.0)
    if http_calls and stub_delta:
        m["backend.http.connections_per_call"] = \
            stub_delta["connections"] / len(http_calls)
        m["backend.http.attempts_per_call"] = \
            stub_delta["requests"] / len(http_calls)
        m["backend.http.client_overhead_p50_ms"] = \
            percentile(durations_ms(None, http_calls), 50) - \
            percentile(stub_delta["service_ms"], 50)
    m["trace.overhead_share"] = 0.0   # set by the caller
    return m
