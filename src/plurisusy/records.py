"""Plain records for the package's reports and small values.

No class of the package is a `dataclass`: importing the decorator's
module takes about 4 ms and each decorated class about 0.3 ms more, paid
again by every CLI process.  Every record subclasses a `frozen` base
with `__slots__ = ()`: its fields cannot be reassigned, it prints as
ClassName(field=value, ...), as a dataclass does, and `to_json()` is its
serialisation where it has one.  A record that must equal only itself
sets `__eq__, __hash__ = object.__eq__, object.__hash__`."""

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

