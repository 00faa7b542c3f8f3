"""Plain records for the package's reports and small values.

No class of the package is a `dataclass`: importing the decorator's
module takes about 4 ms and each decorated class about 0.3 ms more, paid
again by every CLI process.  An immutable record subclasses a `frozen`
base; a mutable one subclasses `Record` and names its fields in
`__slots__`.  Both print as ClassName(field=value, ...), as a dataclass
does, and `to_json()` is their serialisation where they have one."""

from collections import namedtuple


def _eq(self, other):
    return other.__class__ is self.__class__ and tuple.__eq__(self, other)


def _unordered(self, other):
    return NotImplemented


def frozen(name: str, fields: str, defaults=None) -> type:
    """A namedtuple base for an immutable record (subclass it with
    `__slots__ = ()`).  Its instances equal and hash by their fields,
    equal no plain tuple and no other record type with the same fields,
    and are not ordered unless the subclass defines an order."""
    base = namedtuple(name, fields, defaults=defaults)
    base.__eq__, base.__ne__, base.__hash__ = _eq, object.__ne__, tuple.__hash__
    base.__lt__ = base.__le__ = base.__gt__ = base.__ge__ = _unordered
    return base


class Record:
    """Base of the mutable records: the fields are the subclass's
    `__slots__`, equality is field by field with a record of the same
    class, and a record does not hash."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"
