"""Execution-based equivalence testing over concrete instances.

Running both queries on an instance can only refute equivalence: a
differing result is a witness of non-equivalence, while agreement on
every provided instance is just consistency. Results compare positionally
(column names ignored) under bag semantics unless both queries carry an
outer ORDER BY, in which case row order matters.
"""

import math
import warnings
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

from .executor import _is_number, execute
from .errors import SqleqError
from .parser import parse_sql

REAL_REL_TOL = 1e-9
REAL_ABS_TOL = 1e-12


@dataclass(frozen=True)
class Comparison:
    identical: bool
    reason: Optional[str] = None


@dataclass(frozen=True)
class OracleOutcome:
    status: str  # refuted | consistent | inconclusive
    witness_index: Optional[int] = None
    reason: Optional[str] = None
    errors: tuple = field(default_factory=tuple)

    @property
    def refuted(self):
        return self.status == "refuted"


def compare_results(r1, r2):
    """Compare two result tables; nulls count as equal, reals compare
    with relative tolerance."""
    if r1.column_count != r2.column_count:
        return Comparison(False, "column count differs "
                          f"({r1.column_count} vs {r2.column_count})")
    if len(r1.rows) != len(r2.rows):
        return Comparison(False,
                          f"row count differs ({len(r1.rows)} vs {len(r2.rows)})")
    if r1.ordered and r2.ordered:
        if all(map(_rows_equal, r1.rows, r2.rows)):
            return Comparison(True)
        return Comparison(False, "row order differ")
    if r1.ordered != r2.ordered:
        warnings.warn("comparing an ordered result against an unordered "
                      "one as multisets", stacklevel=2)
    if _same_multiset(r1.rows, r2.rows):
        return Comparison(True)
    return Comparison(False, "multiset contents differ")


def oracle_check(sql1, sql2, instances):
    """Run the pair over each instance until one refutes.

    Instances carry their schema. Returns refuted(witness index) on the
    first differing instance, consistent when all agree, inconclusive
    when executions erred and none refuted.
    """
    if not instances:
        raise ValueError("oracle_check needs at least one instance")
    errors = []
    try:
        ast1 = parse_sql(sql1, mode="strict")
        ast2 = parse_sql(sql2, mode="strict")
    except SqleqError as exc:
        return OracleOutcome("inconclusive", errors=(_describe(exc),))
    for index, instance in enumerate(instances):
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


def _rows_equal(row1, row2):
    for a, b in zip(row1, row2):
        if a is None and b is None:
            continue
        if a is None or b is None:
            return False
        if _both_real(a, b):
            if not math.isclose(a, b, rel_tol=REAL_REL_TOL,
                                abs_tol=REAL_ABS_TOL):
                return False
            continue
        if _is_number(a) and _is_number(b):
            if a != b:
                return False
            continue
        if isinstance(a, bool) != isinstance(b, bool):
            return False
        if type(a) is not type(b) or a != b:
            return False
    return True


def _both_real(a, b):
    return _is_number(a) and _is_number(b) and \
        (isinstance(a, float) or isinstance(b, float))


def _same_multiset(rows1, rows2):
    """Bag equality under `_rows_equal` for two equally long row lists.

    The tolerance is not transitive, so rows are not sorted and zipped.
    Rows group on an exact key of the cells outside real columns (a
    column holding a float in either result); within each group the
    numbers of the real columns must pair off one to one.
    """
    width = len(rows1[0]) if rows1 else 0
    real_at = [i for i in range(width)
               if any(isinstance(row[i], float)
                      for row in chain(rows1, rows2))]
    groups = {}
    for side, rows in enumerate((rows1, rows2)):
        for row in rows:
            key = [(type(value), value) for value in row]
            numbers = []
            for i in real_at:
                if _is_number(row[i]):
                    key[i] = "real"
                    numbers.append(row[i])
            groups.setdefault(tuple(key), ([], []))[side].append(
                tuple(numbers))
    return all(_pair_off(left, right) for left, right in groups.values())


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
    close = {}
    for v in supply:
        # close values lie within this window of the first number
        reach = max(REAL_ABS_TOL, 2 * REAL_REL_TOL * abs(v[0]))
        window = targets[bisect_left(firsts, v[0] - reach):
                         bisect_right(firsts, v[0] + reach)]
        close[v] = [t for t in window if _rows_equal(v, t)]
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
            for t in close[source]:
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
