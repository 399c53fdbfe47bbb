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

All methods of a class are compiled by one ``exec``. Every CLI command
builds these classes before it does any work, and ``dataclasses`` costs
more there: importing it loads ``inspect`` (with ``ast``, ``dis`` and
``tokenize``), and up to Python 3.12 it runs one ``exec`` per method. There
are no ``__slots__``, so ``functools.cached_property`` works on a record.
"""

from __future__ import annotations

from typing import Any, TypeVar

T = TypeVar("T")


class FrozenRecordError(AttributeError):
    """An assignment to, or deletion of, an attribute of a record."""


def _frozen_setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def record(cls: type[T] | None = None, *, order: bool = False):
    """Class decorator: ``@record`` or ``@record(order=True)``."""
    if cls is None:
        return lambda cls: _build(cls, order)
    return _build(cls, order)


def _build(cls: type[T], order: bool) -> type[T]:
    names = tuple(cls.__dict__.get("__annotations__", {}))
    namespace: dict[str, Any] = {"_setattr": object.__setattr__}
    params = []
    for name in names:
        if name in cls.__dict__:
            namespace[f"_default_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
    mine = "".join(f"self.{name}," for name in names)
    theirs = "".join(f"other.{name}," for name in names)
    lines = [f"def __init__(self, {', '.join(params)}):"]
    lines += [f"    _setattr(self, {name!r}, {name})" for name in names]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    if not names:
        lines.append("    pass")
    comparisons = [("__eq__", "==")]
    if order:
        comparisons += [("__lt__", "<"), ("__le__", "<="), ("__gt__", ">"), ("__ge__", ">=")]
    for method, op in comparisons:
        lines += [
            f"def {method}(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return ({mine}) {op} ({theirs})",
            "    return NotImplemented",
        ]
    fields_repr = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
    lines += [
        "def __hash__(self):",
        f"    return hash(({mine}))",
        "def __repr__(self):",
        f"    return f'{{self.__class__.__qualname__}}({fields_repr})'",
    ]
    methods: dict[str, Any] = {}
    exec("\n".join(lines), namespace, methods)
    for method, fn in methods.items():
        fn.__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, fn)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
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
    values = {name: getattr(obj, name) for name in fields(obj)}
    values.update(changes)
    return obj.__class__(**values)
