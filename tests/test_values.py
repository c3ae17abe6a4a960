"""The value model's keys: `cell_types`, the raw-key rule and the sort
rule, against `canon_row` and `sort_key`."""

from hypothesis import given, strategies as st

from sqleq.values import (
    canon_row, cell_types, raw_keys_exact, row_keys, sort_key, sorts_raw,
)

NONE = type(None)

# cells that look alike: Python's == treats some of them as equal
_LOOKALIKES = [None, True, False, 0, 1, 2, 0.0, -0.0, 1.0, 2.0, 0.5,
               "x", "1", 10 ** 400, 1e308]
_CELLS = st.recursive(st.sampled_from(_LOOKALIKES),
                      lambda inner: st.lists(inner, max_size=3).map(tuple),
                      max_leaves=4)


def test_cell_types_reach_into_nested_arrays():
    assert cell_types([(1, ("x", (True,))), None]) == \
        {tuple, int, str, bool, NONE}
    assert cell_types([(), 2.5]) == {tuple, float}
    assert cell_types([]) == set()


def test_a_column_of_nulls():
    assert cell_types([None, None]) == {NONE}
    assert raw_keys_exact([{NONE}])
    assert sorts_raw({NONE})
    rows = [(None,), (None,)]
    assert row_keys(rows) is rows


def test_negative_zero_is_zero():
    assert cell_types([-0.0, 0.0]) == {float}
    rows = [(-0.0,), (0.0,), (0,)]
    keys = row_keys(rows)
    assert keys is rows
    assert len(set(keys)) == len(set(map(canon_row, rows))) == 1


def test_an_int_beyond_float_range_next_to_a_float():
    huge = 10 ** 400
    assert cell_types([huge, 1.5]) == {int, float}
    rows = [(huge,), (1e308,), (huge,), (1.5,)]
    assert row_keys(rows) is rows
    assert len(set(rows)) == len(set(map(canon_row, rows))) == 3
    assert sorts_raw({int, float})
    assert sorted(rows) == sorted(rows, key=lambda row: sort_key(row[0]))


def test_the_rule_fails_only_where_a_column_mixes_booleans_and_numbers():
    assert not raw_keys_exact([{bool, int}])
    assert not raw_keys_exact([{NONE, bool, float}])
    assert not raw_keys_exact([{str}, {tuple, bool, int}])
    assert raw_keys_exact([{bool, str, NONE}, {int, float, tuple}])
    assert raw_keys_exact([{bool}, {int}])  # two columns, one type each
    assert raw_keys_exact([])


def test_row_keys_fall_back_to_canon_on_a_mixed_column():
    rows = [(1, "a"), (True, "a")]
    assert row_keys(rows) == [canon_row(row) for row in rows]
    inside = [((1,),), ((True,),)]  # mixed only inside arrays
    assert row_keys(inside) == [canon_row(row) for row in inside]
    apart = [(1, False), (2, True)]  # each column has one kind
    assert row_keys(apart) is apart


def test_the_sort_rule():
    for types in ({int}, {float, NONE}, {int, float}, {bool, NONE}, {str}):
        assert sorts_raw(types), types
    for types in ({bool, int}, {bool, float}, {str, int}, {tuple},
                  {tuple, NONE}, {bool, str}):
        assert not sorts_raw(types), types


@given(st.integers(1, 3).flatmap(
    lambda width: st.lists(st.tuples(*[_CELLS] * width), max_size=8)))
def test_row_keys_meet_exactly_where_canon_keys_do(rows):
    keys = row_keys(rows)
    canon = [canon_row(row) for row in rows]
    for i in range(len(rows)):
        for j in range(len(rows)):
            assert (keys[i] == keys[j]) == (canon[i] == canon[j]), \
                (rows[i], rows[j])
    assert len(set(keys)) == len(set(canon))


@given(st.sampled_from([[None, 0, 1, 2, 0.0, -0.0, 1.0, 2.5, 10 ** 400],
                        [None, True, False], [None, "", "a", "b", "1"]])
       .flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=12)))
def test_cells_the_sort_rule_allows_sort_as_sort_key_does(cells):
    assert sorts_raw(cell_types(cells))
    present = [i for i, cell in enumerate(cells) if cell is not None]
    assert sorted(present, key=cells.__getitem__) == \
        sorted(present, key=lambda i: sort_key(cells[i]))
