"""Frozen value records: the part of ``dataclasses`` the package uses.

``@record`` turns a class whose body annotates its fields into an immutable
value: ``__init__`` (positional or keyword arguments, defaults from the class
body, then ``__post_init__`` when the class defines one), ``__eq__`` (same
class, then the field tuples), ``__hash__`` and ``__repr__``; with
``order=True`` also ``<``, ``<=``, ``>`` and ``>=`` over the field tuples.
Assigning or deleting an attribute raises ``FrozenRecordError``, an
``AttributeError``; ``__post_init__`` may still normalise a field with
``object.__setattr__``. Fields are the class's own annotations, in
declaration order.

Only ``__init__`` is compiled, by one ``exec`` per class, since its signature
and its argument errors are the class's own; the other methods are shared
functions over ``__record_fields__``. Every CLI command builds these classes
first, and ``dataclasses`` costs more there: importing it loads ``inspect``
(with ``ast``, ``dis`` and ``tokenize``), and up to Python 3.12 it runs one
``exec`` per method. There are no ``__slots__``, so
``functools.cached_property`` works on a record.
"""

from __future__ import annotations

import operator
from typing import Any, TypeVar

T = TypeVar("T")


class FrozenRecordError(AttributeError):
    """An assignment to, or deletion of, an attribute of a record."""


def _frozen_setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def _values(obj) -> tuple:
    return tuple([getattr(obj, name) for name in obj.__record_fields__])


def _compare(op):
    def method(self, other):
        if other.__class__ is self.__class__:
            return op(_values(self), _values(other))
        return NotImplemented

    method.__name__ = method.__qualname__ = f"__{op.__name__}__"
    return method


def _hash(self):
    return hash(_values(self))


def _repr(self):
    fields_repr = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__record_fields__)
    return f"{self.__class__.__qualname__}({fields_repr})"


_SHARED = dict(
    __eq__=_compare(operator.eq), __hash__=_hash, __repr__=_repr, __setattr__=_frozen_setattr, __delattr__=_frozen_delattr
)
_ORDERINGS = {f"__{op.__name__}__": _compare(op) for op in (operator.lt, operator.le, operator.gt, operator.ge)}


def record(cls: type[T] | None = None, *, order: bool = False):
    """Class decorator: ``@record`` or ``@record(order=True)``."""
    if cls is None:
        return lambda cls: _build(cls, order)
    return _build(cls, order)


def _build(cls: type[T], order: bool) -> type[T]:
    names = tuple(cls.__dict__.get("__annotations__", {}))
    namespace: dict[str, Any] = {"_setattr": object.__setattr__}
    namespace.update((f"_default_{name}", cls.__dict__[name]) for name in names if name in cls.__dict__)
    params = [f"{name}=_default_{name}" if name in cls.__dict__ else name for name in names]
    body = [f"    _setattr(self, {name!r}, {name})" for name in names]
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    exec("\n".join([f"def __init__(self, {', '.join(params)}):", *(body or ["    pass"])]), namespace)
    namespace["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    for method, fn in {"__init__": namespace["__init__"], **_SHARED, **(_ORDERINGS if order else {})}.items():
        setattr(cls, method, fn)
    cls.__record_fields__ = names
    return cls


def is_record(obj: Any) -> bool:
    """Whether ``obj`` is a record class or an instance of one."""
    return hasattr(obj, "__record_fields__")


def fields(cls_or_obj: Any) -> tuple[str, ...]:
    """The field names of a record class or instance, in declaration order."""
    try:
        return cls_or_obj.__record_fields__
    except AttributeError:
        raise TypeError(f"not a record: {cls_or_obj!r}") from None


def replace(obj: T, **changes: Any) -> T:
    """A copy of the record ``obj`` with some fields changed; ``__post_init__``
    runs again."""
    return obj.__class__(**dict(zip(fields(obj), _values(obj)), **changes))
