"""Execution-based equivalence testing over concrete instances.

Running both queries on an instance can only refute equivalence: a
differing result is a witness of non-equivalence, while agreement on
every provided instance is just consistency. Results compare positionally
(column names ignored) under bag semantics unless both queries carry an
outer ORDER BY, in which case row order matters.

Cells compare under the executor's value model (`values.py`), with one
exception: in a real column, one that holds a float at any depth in
either result, numbers compare with `close`, inside arrays too. Rows
compare as they are unless a column mixes booleans with numbers, and
on `canon` keys, real numbers masked, only where that cannot decide.
"""

import warnings
from bisect import bisect_left, bisect_right
from collections import Counter, deque

from .errors import SqleqError
from .executor import execute
from .parser import parse_sql
from .records import Frozen
from .values import (
    REAL_ABS_TOL, REAL_REL_TOL, canon, canon_masked, cell_types, close,
    raw_keys_exact,
)


class Comparison(Frozen):
    def __init__(self, identical, reason=None):
        object.__setattr__(self, "identical", identical)
        object.__setattr__(self, "reason", reason)


class OracleOutcome(Frozen):
    def __init__(self, status, witness_index=None, reason=None, errors=()):
        # refuted | consistent | inconclusive
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness_index", witness_index)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "errors", errors)


def compare_results(r1, r2):
    """Compare two result tables under the value model of `values.py`;
    numbers in real columns match within `close`."""
    if r1.column_count != r2.column_count:
        return Comparison(False, "column count differs "
                          f"({r1.column_count} vs {r2.column_count})")
    if len(r1.rows) != len(r2.rows):
        return Comparison(False,
                          f"row count differs ({len(r1.rows)} vs {len(r2.rows)})")
    ordered = r1.ordered and r2.ordered
    if r1.ordered != r2.ordered:
        warnings.warn("comparing an ordered result against an unordered "
                      "one as multisets", stacklevel=2)
    if _same_rows(r1.rows, r2.rows, ordered):
        return Comparison(True)
    return Comparison(False, "row order differ" if ordered
                      else "multiset contents differ")


def _same_rows(rows1, rows2, ordered):
    """Whether two row lists are equal, in order or as multisets."""
    types = [cell_types(column) for column in zip(*rows1, *rows2)]
    real = [float in column for column in types]
    if raw_keys_exact(types):
        # dict equality: Counters built from lists hold no zero counts,
        # and Counter's own == walks every key in Python
        same = rows1 == rows2 if ordered \
            else dict.__eq__(Counter(rows1), Counter(rows2))
        if same or not any(real):
            return same
    keyed = _row_keys(rows1, real), _row_keys(rows2, real)
    if ordered:
        return all(key1 == key2 and all(map(close, numbers1, numbers2))
                   for (key1, numbers1), (key2, numbers2) in zip(*keyed))
    # the tolerance is not transitive, so rows are not sorted and
    # zipped: they group on their keys, and within each group the
    # numbers of the real columns must pair off one to one
    groups = {}
    for side, keys in enumerate(keyed):
        for key, numbers in keys:
            groups.setdefault(key, ([], []))[side].append(numbers)
    return all(_pair_off(left, right) for left, right in groups.values())


def oracle_check(sql1, sql2, instances):
    """Run the pair over each instance until one refutes.

    Instances carry their schema; one that did not load is given as the
    SqleqError loading it raised, and counts as that instance's error.
    Returns refuted(witness index) on the first differing instance,
    consistent when all agree, inconclusive when an instance erred and
    none refuted. Indexes are positions in `instances`.
    """
    if not instances:
        raise ValueError("oracle_check needs at least one instance")
    errors = []
    try:
        ast1 = parse_sql(sql1)
        ast2 = parse_sql(sql2)
    except SqleqError as exc:
        return OracleOutcome("inconclusive", errors=(_describe(exc),))
    for index, instance in enumerate(instances):
        if isinstance(instance, SqleqError):
            errors.append(f"instance {index}: {instance}")
            continue
        try:
            r1 = execute(ast1, instance)
            r2 = execute(ast2, instance)
        except SqleqError as exc:
            errors.append(f"instance {index}: {_describe(exc)}")
            continue
        outcome = compare_results(r1, r2)
        if not outcome.identical:
            return OracleOutcome("refuted", witness_index=index,
                                 reason=outcome.reason,
                                 errors=tuple(errors))
    if errors:
        return OracleOutcome("inconclusive", errors=tuple(errors))
    return OracleOutcome("consistent")


def _describe(exc):
    return f"{type(exc).__name__}: {exc}"


def _row_keys(rows, real):
    """(key, numbers) of each row: its `canon_row` key with every number
    in a real column (`real[i]`) masked, and the masked numbers."""
    for row in rows:
        numbers = []
        key = tuple([canon_masked(value, numbers) if masked else canon(value)
                     for value, masked in zip(row, real)])
        yield key, tuple(numbers)


def _pair_off(left, right):
    """Whether two lists of number vectors match one to one, each pair
    within tolerance: a maximum flow from the distinct left vectors to
    the close right vectors, one unit per augmenting path."""
    if len(left) != len(right):
        return False
    if sorted(left) == sorted(right):
        return True
    supply, demand = Counter(left), Counter(right)
    targets = sorted(demand)
    firsts = [t[0] for t in targets]
    near = {}
    for v in supply:
        # close values lie within this window of the first number
        try:
            reach = max(REAL_ABS_TOL, 2 * REAL_REL_TOL * abs(v[0]))
        except OverflowError:  # an int beyond float range: only itself
            reach = 0
        window = targets[bisect_left(firsts, v[0] - reach):
                         bisect_right(firsts, v[0] + reach)]
        near[v] = [t for t in window if all(map(close, v, t))]
    sent = {t: Counter() for t in targets}  # target -> units per source
    for start in supply.elements():
        # breadth-first search for a target with demand left, passing
        # back through sources that already send to a target
        source_via = {start: None}  # source -> target it was reached from
        target_via = {}             # target -> source it was reached from
        queue = deque([start])
        end = None
        while queue and end is None:
            source = queue.popleft()
            for t in near[source]:
                if t in target_via:
                    continue
                target_via[t] = source
                if demand[t]:
                    end = t
                    break
                for other in sent[t]:
                    if other not in source_via:
                        source_via[other] = t
                        queue.append(other)
        if end is None:
            return False
        demand[end] -= 1
        t = end
        while t is not None:
            source = target_via[t]
            sent[t][source] += 1
            t = source_via[source]
            if t is not None:
                sent[t][source] -= 1
                if not sent[t][source]:
                    del sent[t][source]
    return True
