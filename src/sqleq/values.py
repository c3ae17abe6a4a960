"""The one value model, shared by the executor and the oracle.

A cell is NULL (None), a boolean, an int, a finite float, text (str) or
an array (a tuple of cells), of exactly that type. Cells are equal when
their `canon` keys are: NULL equals NULL, 1 equals 1.0, TRUE never
equals 1, and arrays are equal element by element. The keys also order
cells, null < booleans < numbers < text < arrays, so `sort_key` is
`canon`. Only the oracle, comparing two results, matches reals within a
tolerance (`close`); `=` in a query is exact.

Python's own `==` and `hash` on the cells agree with `canon` equality
in all but one case, TRUE == 1 == 1.0; its `<` agrees with the order
among numbers, among booleans and among text. So the steps that key
whole columns (the executor's GROUP BY, DISTINCT and set operations,
the oracle's comparison) key rows on themselves unless a column holds
both a boolean and a number at any array depth (`row_keys`), and ORDER
BY sorts a key column on its cells where `sorts_raw` allows. Results
are the same either way; only the `canon` keys are not built.
"""

import math

from .errors import RuntimeExecError

REAL_REL_TOL = 1e-9
REAL_ABS_TOL = 1e-12

# exact type of a scalar cell -> its rank in the order; ints and floats
# share a rank, so the keys (rank, value) of 1 and 1.0 are equal
_RANKS = {bool: 1, int: 2, float: 2, str: 3}
SCALAR_TYPES = frozenset(_RANKS)  # the exact types of a non-NULL scalar
_NUMBER = 2
_ARRAY = 4
_MASK = (_NUMBER,)  # a number left out of a key; no `canon` key equals it


def is_scalar(value):
    """Whether `value` is a boolean, a number or text."""
    return type(value) in SCALAR_TYPES


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


def cell_types(values):
    """The exact types of `values` and of the cells inside the arrays
    among them, at any depth."""
    types = set(map(type, values))
    if tuple in types:
        for value in values:
            if type(value) is tuple:
                types |= cell_types(value)
    return types


def raw_keys_exact(column_types):
    """Whether cells keyed on themselves meet exactly when their `canon`
    keys do, given the `cell_types` of each column: unless a column
    mixes booleans with numbers."""
    return not any(bool in types and (int in types or float in types)
                   for types in column_types)


def row_keys(rows):
    """Keys of `rows` that are equal exactly when their `canon_row` keys
    are: the rows themselves when `raw_keys_exact` holds, else the
    `canon_row` of each."""
    if raw_keys_exact(map(cell_types, zip(*rows))):
        return rows
    return [canon_row(row) for row in rows]


def sorts_raw(types):
    """Whether cells of these exact types, NULLs set aside, sort by
    Python's own order as they do by `sort_key`: all numbers, all
    booleans or all text."""
    types = types - {type(None)}
    return types <= {int, float} or types == {bool} or types == {str}


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
