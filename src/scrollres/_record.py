"""Bases for the package's value classes, in place of `dataclasses`.

A subclass names its fields in `__slots__` and sets them in its own
`__init__`.  `Record` compares and prints instances by those fields, as
a dataclass does, and leaves them mutable and unhashable; `Frozen` also
hashes them as the tuple of their fields and refuses assignment, so a
frozen subclass's `__init__` sets its fields with `object.__setattr__`.
Every cold CLI call would pay for `dataclasses`: its import pulls in
`inspect`, and it compiles each class it builds.
"""


class Record:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which a frozen instance needs
        return self.__class__, self._fields()


class Frozen(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
