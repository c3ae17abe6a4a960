"""Benchmark of the sqleq command-line tool, one workload per run.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loops from one process; the pipelines use
--parallelism 2, the oracle is one client):
    pipeline-mock  `sqleq bench --backend mock` over three corpora x four
                   strategies x plans on/off
    pipeline-http  `sqleq bench --backend http` over the question corpus,
                   plans on, four strategies, against a loopback stub
    oracle-join    `sqleq oracle` over join and subquery rewrites
    oracle-scan    `sqleq oracle` over single-table and set-op rewrites

Every invocation is a fresh CLI process, as users run the tool, so no
in-process cache survives from one invocation to the next. One pass runs
each invocation of the workload once; the run repeats passes until
--seconds have passed (the first pass always completes) and takes, per
invocation, the median corrected time over the run. pairs_per_s is the
pairs of one pass over the sum of those medians.

Each invocation's wall time is corrected for the shared machine (see
speed.py and corrected_s): the time the host took from this machine's
CPUs meanwhile is taken out, and the time of a CPU-bound invocation is
scaled to a reference machine speed. Without these, host load moves the figures by
tens of percent from one run to the next, which would swamp code
changes. The uncorrected figures are printed too. setup_s is the median
of several set-ups, each scaled to the reference speed.

Every output is checked against what the seeded inputs imply; a wrong
pair counts in `failed`. With --trace 1 the run alternates untraced and
traced passes, the traced ones through perfbench/tracer.py, and reports
per-layer metrics; the merged span file of the last traced pass is
written to .perfbench_out/<workload>.spans.jsonl.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import sqlite3
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from speed import (SpeedSampler, speed_now, stolen_between,  # noqa: E402
                   stolen_s)

WORKLOADS = ("pipeline-mock", "pipeline-http", "oracle-join", "oracle-scan")
END_TO_END = {"setup_s": "s", "pairs_per_s": "pairs/s", "peak_rss_mb": "MiB"}
PARALLELISM = 2
STUB_SERVICE_MS = 2.0
SETUP_REPEATS = 9
CLI_TIMEOUT_S = 150
TINY_SCALE = 0.05


@dataclass
class Unit:
    """One CLI invocation of a pass."""
    name: str
    args: list
    pairs: int
    check: object        # (unit, stdout bytes) -> number of wrong pairs
    directory: Path      # holds the inputs; stdout and stderr go here
    out: Path = None     # report file a pipeline invocation writes
    cpu_bound: bool = True   # see corrected_s


@dataclass
class Prepared:
    units: list
    oracle_set: object = None
    stub: object = None
    extra_checks: object = None   # () -> number of wrong pairs


class Stub:
    """The loopback stub server, run as its own process."""

    def __init__(self, script_path, directory):
        port_file = directory / "stub.port"
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), str(script_path),
             str(STUB_SERVICE_MS), str(port_file)],
            cwd=ROOT, stdin=subprocess.DEVNULL)
        deadline = time.monotonic() + 30
        while not port_file.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("loopback stub did not start")
            time.sleep(0.002)
        self.base = f"http://127.0.0.1:{port_file.read_text()}"

    def stats(self):
        with urllib.request.urlopen(self.base + "/stats", timeout=30) as r:
            return json.loads(r.read())

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait(timeout=30)


# --- workload set-up ---

def prepare(workload, seed, directory, tiny):
    directory.mkdir(parents=True)
    scale = TINY_SCALE if tiny else 1.0
    if workload == "pipeline-mock":
        corpora = [wl.difficulty_corpus(seed, scale),
                   wl.question_corpus(seed, scale),
                   wl.multi_clause_corpus(seed, scale)]
        exemplars = wl.write_exemplars(directory)
        units = []
        for corpus in corpora:
            paths = corpus.write(directory)
            for strategy in wl.STRATEGIES:
                for plans in (False, True):
                    units.append(_pipeline_unit(
                        corpus, paths, strategy, plans, directory, exemplars,
                        ["--backend", "mock", "--mock-script",
                         str(paths["mock_script"])]))
        return Prepared(units)
    if workload == "pipeline-http":
        corpus = wl.question_corpus(seed, scale)
        paths = corpus.write(directory)
        exemplars = wl.write_exemplars(directory)
        script_path = directory / "stub_script.json"
        script_path.write_text(json.dumps(wl.stub_script(corpus)),
                               encoding="utf-8")
        stub = Stub(script_path, directory)
        url = stub.base + "/v1/chat/completions"
        units = [_pipeline_unit(corpus, paths, strategy, True, directory,
                                exemplars,
                                ["--backend", "http", "--endpoint", url,
                                 "--model", "stub-model"])
                 for strategy in wl.STRATEGIES]
        # waits on the stub's service time and on loopback round trips
        # make up much of the wall time, which CPU speed does not predict
        for unit in units:
            unit.cpu_bound = False
        mock_units = [_pipeline_unit(corpus, paths, strategy, True,
                                     directory, exemplars,
                                     ["--backend", "mock", "--mock-script",
                                      str(paths["mock_script"])],
                                     suffix="-mock")
                      for strategy in wl.STRATEGIES]
        prepared = Prepared(units, stub=stub)
        prepared.extra_checks = lambda: _http_matches_mock(units, mock_units)
        return prepared
    if workload in ("oracle-join", "oracle-scan"):
        if workload == "oracle-join":
            oset = wl.join_set(seed, (20, 40) if tiny else (100, 300))
        else:
            oset = wl.scan_set(seed, (100, 200) if tiny else (2000, 4000))
        paths = oset.write(directory)
        args = ["oracle", "--dataset", str(paths["dataset"]),
                "--schemas", str(paths["schemas"]),
                "--instances", *map(str, paths["instances"]),
                "--format", "json"]
        reference, _ = sqlite_run(oset)
        unit = Unit(oset.name, args, len(oset.pairs),
                    OracleCheck(oset, reference), directory)
        return Prepared([unit], oracle_set=oset)
    raise ValueError(f"unknown workload {workload!r}")


def _pipeline_unit(corpus, paths, strategy, plans, directory, exemplars,
                   backend_args, suffix=""):
    name = f"{corpus.name}-{strategy}-{'lp' if plans else 'nolp'}{suffix}"
    out = directory / f"report-{name}.json"
    args = ["bench", "--dataset", str(paths["dataset"]),
            "--schemas", str(paths["schemas"]), "--strategy", strategy,
            "--out", str(out), "--format", "json",
            "--parallelism", str(PARALLELISM), *backend_args]
    if plans:
        args.append("--with-plans")
    if strategy == "fewshot":
        args += ["--exemplars-file", str(exemplars)]
    check = PipelineCheck(corpus)
    return Unit(name, args, len(corpus.records), check, directory, out)


# --- output checks ---

class PipelineCheck:
    """Checks one invocation's report against the corpus script.

    Each pair's label and shortcut flag must be the scripted ones, the
    EQ/NEQ/GM metrics must be the ones those labels imply, and the
    report must be byte-identical across passes once its timestamps and
    per-call timings are dropped.
    """

    def __init__(self, corpus):
        self.corpus = corpus
        self.expected = corpus.expected_labels()
        self.exact = corpus.exact_ids()
        self.metrics = _expected_metrics(corpus, self.expected, self.exact)
        self.digest = None
        self.predictions = None

    def __call__(self, unit, stdout):
        del stdout
        with open(unit.out, encoding="utf-8") as f:
            report = json.load(f)
        rows = {row["pair_id"]: row for row in report["pairs"]}
        self.predictions = {pid: row["label"] for pid, row in rows.items()}
        wrong = 0
        for pid, label in self.expected.items():
            row = rows.get(pid)
            if row is None or row["label"] != label or row["error"] or \
                    row["shortcut"] != (pid in self.exact):
                wrong += 1
        if not self._metrics_match(report):
            wrong = unit.pairs
        report.pop("started_at")
        report.pop("finished_at")
        for row in report["pairs"]:
            row.pop("timings")
        digest = hashlib.sha256(
            json.dumps(report, sort_keys=True).encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            wrong = unit.pairs
        return wrong

    def _metrics_match(self, report):
        got = report["metrics"]
        want = self.metrics
        for key in ("eq_total", "neq_total", "eq_correct", "neq_correct",
                    "errors"):
            if got[key] != want[key]:
                return False
        if want["gm"] is None:
            if got["gm"] is not None:
                return False
        elif got["gm"] is None or abs(got["gm"] - want["gm"]) > 1e-12:
            return False
        if self.corpus.name == "question" and \
                len(self.corpus.records) == sum(
                    eq + neq for eq, neq in wl.QUESTION_TOTALS.values()):
            by_question = report["breakdowns"]["question"]
            for question, (eq_ok, neq_ok) in \
                    wl.SCRIPTED_QUESTION_CORRECT.items():
                got_q = by_question[question]
                if (got_q["eq_correct"], got_q["neq_correct"]) != \
                        (eq_ok, neq_ok):
                    return False
        return True


def _expected_metrics(corpus, expected, exact):
    eq_total = neq_total = eq_correct = neq_correct = 0
    for record in corpus.records:
        if record["id"] in exact:
            continue
        predicted = expected[record["id"]]
        if record["label"] == "EQ":
            eq_total += 1
            eq_correct += predicted == "Equivalent"
        else:
            neq_total += 1
            neq_correct += predicted != "Equivalent"
    gm = None
    if eq_total and neq_total:
        gm = ((eq_correct / eq_total) * (neq_correct / neq_total)) ** 0.5
    return {"eq_total": eq_total, "neq_total": neq_total,
            "eq_correct": eq_correct, "neq_correct": neq_correct,
            "errors": 0, "gm": gm}


def _http_matches_mock(http_units, mock_units):
    """Run the mock backend once per strategy on the same corpus and
    settings; every HTTP prediction must equal the mock one."""
    wrong = 0
    for http_unit, mock_unit in zip(http_units, mock_units):
        run_unit(mock_unit, traced_spans=None)
        mock_unit.check(mock_unit, b"")
        theirs = mock_unit.check.predictions
        ours = http_unit.check.predictions
        wrong += sum(ours.get(pid) != label for pid, label in theirs.items())
    return wrong


class OracleCheck:
    """Each pair's status must be the expected one (EQ pairs consistent,
    NEQ pairs refuted on the first instance) and must agree with stdlib
    sqlite3 run on the same instances."""

    def __init__(self, oset, reference):
        self.oset = oset
        self.reference = reference

    def __call__(self, unit, stdout):
        lines = [json.loads(line) for line in stdout.decode().splitlines()
                 if line.strip()]
        got = {line["pair_id"]: line for line in lines}
        wrong = 0
        for pair in self.oset.pairs:
            line = got.get(pair.id)
            expected = (("refuted", 0) if pair.label == "NEQ"
                        else ("consistent", None))
            if line is None or line["errors"] or \
                    (line["status"], line["witness_index"]) != expected or \
                    self.reference[pair.id] != expected:
                wrong += 1
        return wrong


def sqlite_run(oset, repeats=1):
    """Run every query of the set on sqlite3 over the same instances.

    Returns (outcome per pair id, milliseconds per query family); an
    outcome is ("refuted", first differing instance) or ("consistent",
    None), decided as the oracle decides: ordered comparison when both
    queries have an outer ORDER BY, multiset otherwise.
    """
    family_ms = {}
    outcomes = {}
    connections = [_sqlite_load(oset, instance) for instance in oset.instances]
    try:
        results = {}
        for pair in oset.pairs:
            for sql, family in zip((pair.sql1, pair.sql2), pair.families):
                for index, conn in enumerate(connections):
                    times = []
                    for _ in range(repeats):
                        started = time.perf_counter()
                        rows = conn.execute(sql).fetchall()
                        times.append(time.perf_counter() - started)
                    results[sql, index] = rows
                    family_ms[family] = family_ms.get(family, 0.0) + \
                        statistics.median(times) * 1000.0
        for pair in oset.pairs:
            ordered = " ORDER BY " in pair.sql1 and " ORDER BY " in pair.sql2
            outcomes[pair.id] = ("consistent", None)
            for index in range(len(connections)):
                if not _same_result(results[pair.sql1, index],
                                    results[pair.sql2, index], ordered):
                    outcomes[pair.id] = ("refuted", index)
                    break
    finally:
        for conn in connections:
            conn.close()
    return outcomes, family_ms


def _sqlite_load(oset, instance):
    conn = sqlite3.connect(":memory:")
    for name, spec in instance["tables"].items():
        types = oset.column_types[name]
        columns = ", ".join(f"{c} {t}" for c, t in zip(spec["columns"],
                                                       types))
        conn.execute(f"CREATE TABLE {name} ({columns})")
        marks = ", ".join("?" for _ in spec["columns"])
        conn.executemany(f"INSERT INTO {name} VALUES ({marks})",
                         spec["rows"])
    return conn


def _same_result(rows1, rows2, ordered):
    """Bag or list equality with reals equal within 1e-9 relative.

    Rows are sorted on values with reals rounded to nine significant
    digits, so two sums that differ only in their last bits sort alike.
    """
    if len(rows1) != len(rows2) or \
            (rows1 and len(rows1[0]) != len(rows2[0])):
        return False
    if not ordered:
        rows1, rows2 = sorted(rows1, key=_row_key), sorted(rows2, key=_row_key)
    for row1, row2 in zip(rows1, rows2):
        for a, b in zip(row1, row2):
            if isinstance(a, float) or isinstance(b, float):
                if a is None or b is None or \
                        abs(a - b) > 1e-9 * max(abs(a), abs(b), 1e-3):
                    return False
            elif a != b:
                return False
    return True


def _row_key(row):
    key = []
    for value in row:
        if value is None:
            key.append((0, 0))
        elif isinstance(value, (int, float)):
            key.append((1, float(f"{value:.9g}")))
        else:
            key.append((2, value))
    return tuple(key)


# --- running the CLI ---

def _cli_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("SQLEQ_CONFIG", "SQLEQ_API_KEY")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_unit(unit, traced_spans):
    """Run one invocation.

    Returns (wall seconds, seconds the host stole from each of this
    machine's CPUs meanwhile, machine speed meanwhile, peak RSS MiB,
    stdout); the speed is None for a unit that is not CPU-bound.

    With `traced_spans` set, the CLI runs under the tracer, which writes
    its spans to that path.
    """
    if traced_spans is None:
        cmd = [sys.executable, "-m", "sqleq.cli", *unit.args]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(traced_spans),
               *unit.args]
    out_path = unit.directory / "cli.stdout"
    err_path = unit.directory / "cli.stderr"
    if unit.out is not None:
        unit.out.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        stolen = stolen_s()
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_cli_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            if unit.cpu_bound:
                with SpeedSampler(proc.pid) as sampler:
                    _, status, usage = os.wait4(proc.pid, 0)
                    wall = time.perf_counter() - started
                speed = sampler.speed()
            else:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - started
                speed = None
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
    stolen = stolen_between(stolen, stolen_s())
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{unit.name}: sqleq exited {proc.returncode}: "
                           f"{err_path.read_text()[-2000:]}")
    return (wall, stolen, speed, usage.ru_maxrss / 1024.0,
            out_path.read_bytes())


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0


def run_pass(units, tally, samples, deadline=None, span_dir=None):
    """Run each unit once, or until the deadline has passed."""
    for index, unit in enumerate(units):
        if deadline is not None and time.perf_counter() >= deadline:
            return False
        spans = None if span_dir is None else span_dir / f"{index}.jsonl"
        wall, stolen, speed, rss, stdout = run_unit(unit, spans)
        samples.setdefault(unit.name, []).append((wall, stolen, speed))
        tally.attempted += unit.pairs
        tally.failed += unit.check(unit, stdout)
        tally.peak_rss_mb = max(tally.peak_rss_mb, rss)
    return True


def corrected_s(wall, stolen, speed):
    """Wall time less what the host took meanwhile.

    `stolen` holds the seconds the host took from each CPU; a CPU's
    stolen share of the wall time is capped at 0.9, so that tick
    rounding cannot leave a short invocation no time at all.

    A CPU-bound invocation is one chain of work: the oracle runs in one
    thread, and the pipeline's two worker threads take turns holding
    Python's global interpreter lock. Moving between the CPUs, the chain
    loses the average CPU's stolen share. The rest is scaled to the
    reference machine speed; the yardstick, a median of short loops,
    hardly sees stolen time.

    Any other invocation (speed None) waits on the stub's service time
    and on loopback round trips, which CPU speed does not predict. The
    CLI's threads and the stub hand work back and forth between the
    CPUs, so time taken from any of them delays it: only the part of the
    wall time during which the host took none of the CPUs counts, which,
    taking the CPUs as taken independently, is the product of their
    available shares.
    """
    shares = [min(s / wall, 0.9) for s in stolen]
    if speed is not None:
        return wall * (1.0 - sum(shares) / max(len(shares), 1)) * speed
    return wall * math.prod(1.0 - share for share in shares)


def pairs_per_s(units, samples, corrected=True):
    """Pairs of one pass over the sum of per-invocation median times,
    each time corrected for the shared machine (corrected_s) unless
    `corrected` is false."""
    return sum(u.pairs for u in units) / sum(
        statistics.median(corrected_s(*sample) if corrected else sample[0]
                          for sample in samples[u.name])
        for u in units)


# --- the run ---

def timed_setup(workload, seed, work, tiny, repeats):
    """Set up `repeats` times; keep the last one and return it with the
    median set-up time, scaled to the reference machine speed, and the
    median wall time."""
    times = []
    prepared = None
    for k in range(repeats):
        if prepared is not None and prepared.stub is not None:
            prepared.stub.stop()
        speed = speed_now()
        started = time.perf_counter()
        prepared = prepare(workload, seed, work / f"setup{k}", tiny)
        times.append((time.perf_counter() - started, speed))
    return (prepared, statistics.median(t * speed for t, speed in times),
            statistics.median(t for t, _ in times))


def measure(args, prepared, work, tally):
    units = prepared.units
    # fill the byte-code cache before timing; a pipeline also runs its
    # first invocation once, which warms the loopback stub too
    warm_up = units[0] if units[0].out is not None else \
        Unit("warm-up", ["features", "--sql", "SELECT 1"], 0, None,
             units[0].directory)
    run_unit(warm_up, None)

    if not args.trace:
        samples = {}
        deadline = time.perf_counter() + args.seconds
        run_pass(units, tally, samples)
        while run_pass(units, tally, samples, deadline):
            pass
        return {"pairs_per_s": pairs_per_s(units, samples),
                "wall_pairs_per_s": pairs_per_s(units, samples, False),
                "stolen_share": sum(sum(stolen) for runs in samples.values()
                                    for _, stolen, _ in runs)
                / sum(wall for runs in samples.values()
                      for wall, _, _ in runs)}

    plain, traced = {}, {}
    deadline = time.perf_counter() + args.seconds
    passes = 0
    metrics = None
    while passes == 0 or time.perf_counter() < deadline:
        run_pass(units, tally, plain)
        span_dir = work / f"spans{passes}"
        span_dir.mkdir()
        before = prepared.stub.stats() if prepared.stub else None
        run_pass(units, tally, traced, span_dir=span_dir)
        stub_delta = None
        if prepared.stub:
            after = prepared.stub.stats()
            stub_delta = {
                "requests": after["requests"] - before["requests"],
                "connections": after["connections"] - before["connections"],
                "service_ms": after["service_ms"][len(before["service_ms"]):],
            }
        sqlite_ms = None
        if prepared.oracle_set is not None:
            _, sqlite_ms = sqlite_run(prepared.oracle_set, repeats=3)
        pass_metrics, absent = _trace_metrics(
            units, span_dir, prepared, stub_delta, sqlite_ms, args.workload)
        metrics = pass_metrics if metrics is None else \
            {k: metrics[k] + v for k, v in pass_metrics.items()}
        passes += 1
    metrics = {k: v / passes for k, v in metrics.items()}
    metrics["trace.overhead_share"] = \
        1.0 - pairs_per_s(units, traced) / pairs_per_s(units, plain)
    if absent:
        print("absent trace targets: " + ", ".join(absent))
    return metrics


def _trace_metrics(units, span_dir, prepared, stub_delta, sqlite_ms,
                   workload):
    spans = []
    absent = set()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    merged = out_dir / f"{workload}.spans.jsonl"
    with open(merged, "w", encoding="utf-8") as f:
        for index, unit in enumerate(units):
            missing, unit_spans = layers.read_spans(
                span_dir / f"{index}.jsonl")
            absent.update(missing)
            layers.add_self_times(unit_spans)
            for span in unit_spans:
                span["process"] = unit.name
                f.write(json.dumps(span) + "\n")
            spans.extend(unit_spans)
    pairs = sum(u.pairs for u in units)
    family_of_sql = prepared.oracle_set.family_of_sql() \
        if prepared.oracle_set is not None else {}
    return layers.per_pass_metrics(spans, pairs, family_of_sql, stub_delta,
                                   sqlite_ms), sorted(absent)


def environment():
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, check=False)
        commit = found.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sqleq").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit, "source_sha256": digest.hexdigest()[:16]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the harness smoke check")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sqleq" / "cli.py").is_file():
        print(f"error: no sqleq source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # a terminated run still stops the stub and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    tally = Tally()
    prepared = None
    try:
        prepared, setup_s, wall_setup_s = timed_setup(
            args.workload, args.seed, work, args.tiny,
            1 if args.trace else SETUP_REPEATS)
        metrics = measure(args, prepared, work, tally)
        if prepared.extra_checks is not None:
            tally.failed += prepared.extra_checks()
    finally:
        if prepared is not None and prepared.stub is not None:
            prepared.stub.stop()
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        units = layers.PER_LAYER
    else:
        metrics.update(setup_s=setup_s, peak_rss_mb=tally.peak_rss_mb)
        units = END_TO_END
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    if not args.trace:
        print(f"  uncorrected: pairs_per_s = "
              f"{metrics['wall_pairs_per_s']:.6g} pairs/s, setup_s = "
              f"{wall_setup_s:.6g} s; CPU seconds stolen per CLI second "
              f"{metrics['stolen_share']:.3g}")
    failed_share = tally.failed / tally.attempted
    print(f"  failed_share = {failed_share:.6g} ratio "
          f"({tally.failed} of {tally.attempted} pairs)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
