"""The one value model, shared by the executor and the oracle.

A cell is NULL (None), a boolean, an int, a finite float, text (str) or
an array (a tuple of cells), of exactly that type. Cells are equal when
their `canon` keys are: NULL equals NULL, 1 equals 1.0, TRUE never
equals 1, and arrays are equal element by element. The keys also order
cells, null < booleans < numbers < text < arrays, so `sort_key` is
`canon`. Only the oracle, comparing two results, matches reals within a
tolerance (`close`); `=` in a query is exact.
"""

import math

from .errors import RuntimeExecError

REAL_REL_TOL = 1e-9
REAL_ABS_TOL = 1e-12

# exact type of a scalar cell -> its rank in the order; ints and floats
# share a rank, so the keys (rank, value) of 1 and 1.0 are equal
_RANKS = {bool: 1, int: 2, float: 2, str: 3}
_NUMBER = 2
_ARRAY = 4
_MASK = (_NUMBER,)  # a number left out of a key; no `canon` key equals it


def is_scalar(value):
    """Whether `value` is a boolean, a number or text."""
    return type(value) in _RANKS


def is_number(value):
    return _RANKS.get(type(value)) == _NUMBER


def values_equal(left, right):
    """Whether two non-NULL cells are equal."""
    if type(left) is type(right) is not tuple:
        return left == right
    return canon(left) == canon(right)


def canon(value):
    """The canonical key of a cell, which is also its sort key."""
    rank = _RANKS.get(type(value))
    if rank is not None:
        return (rank, value)
    if value is None:
        return (0, False)
    if type(value) is tuple:
        return (_ARRAY, tuple(map(canon, value)))
    raise RuntimeExecError(f"unsupported value {value!r}")


sort_key = canon


def canon_row(row):
    return tuple(map(canon, row))


def canon_masked(value, numbers):
    """`canon(value)` with each number in it, at any depth, left out and
    appended to `numbers`."""
    if is_number(value):
        numbers.append(value)
        return _MASK
    if type(value) is tuple:
        return (_ARRAY, tuple([canon_masked(v, numbers) for v in value]))
    return canon(value)


def close(a, b):
    """Whether two numbers match as result values: two ints exactly,
    otherwise within REAL_REL_TOL relative or REAL_ABS_TOL absolute. An
    int beyond float range is close to no float."""
    if type(a) is int and type(b) is int:
        return a == b
    try:
        return math.isclose(a, b, rel_tol=REAL_REL_TOL, abs_tol=REAL_ABS_TOL)
    except OverflowError:
        return False
