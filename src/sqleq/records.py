"""Bases for the package's record classes.

Records are plain classes whose `__init__` sets each field in
declaration order. `Record` adds structural equality and a
`Name(field=value, ...)` repr over the instance's attributes, in that
order, and makes instances unhashable. `Frozen` makes assignment after
construction raise AttributeError; a frozen record's `__init__` sets
its fields with `object.__setattr__`, which keeps them in the
instance's compact attribute storage (`vars(self).update` would make a
full dict per instance).
"""


class Record:
    __slots__ = ()
    __hash__ = None

    def _fields(self):
        """The attributes that equality and repr cover."""
        return vars(self)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in self._fields().items())
        return f"{type(self).__qualname__}({fields})"


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
