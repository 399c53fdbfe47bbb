"""Canonical JSON interchange for every stored and served entity.

Canonical form is UTF-8 JSON with sorted keys, two-space indentation, and a
trailing newline; all lists are emitted in a deterministic order.

``canonical_dumps`` writes exactly the text of ``json.dumps(doc,
ensure_ascii=False, allow_nan=False, sort_keys=True, indent=2)`` plus the
newline, but encodes plain JSON values itself, since the stdlib takes its
slow pure-Python path whenever it indents. Plain means dicts with string
keys, lists and tuples, strings, ints, bools, ``None`` and finite floats
(written by ``float.__repr__``); strings and keys go through the stdlib's
own C string encoder. Any other value (a non-string key, NaN or infinity, a
set, a circular or too deeply nested value) is handed to that ``json.dumps``
call, so its text or its error is the stdlib's.

Decoding is strict and driven by the records themselves (``records.py``):
an object's keys are exactly its record's fields, and every key is
required; each field's type comes from the class's type hints.
Missing or unknown keys and wrong types are rejected with the JSON path of
the offending field. Identifier strings must be non-empty; only the
free-text fields (``name``, ``description``, ``role``, ``focus_label`` and
``payload_description``) may be ``""``, and a nullable field takes ``null``
or any string. A competence level is a bare integer. Referential problems
are left to the validators (violations are data, not parse failures).

One walk over each type builds both directions: every type shape (a
scalar, a list, a mapping, an enum, a record) holds its decoding and its
encoding rule side by side, so each stored entity's schema is written
once. Enums and competence levels encode as their value, and an
``Any`` field (a change's ``delta``) passes through as is, uncopied. A
frozenset, or a tuple of strings, is sorted. A tuple of records is
sorted by ``id`` when the element type has one, and otherwise by all of its
fields in declaration order; the sort is stable, so elements with equal keys
keep their input order. Any other tuple keeps its order. ``Organization`` is
the one special case: a square collaboration matrix is permuted to follow
the sorted team order, and any other matrix is left as it is.
"""

from __future__ import annotations

import json
import math
import sys
from collections import abc
from enum import Enum
from functools import cache
from operator import attrgetter, itemgetter
from types import UnionType
from typing import Any, Callable, Iterable, Union, get_args, get_origin, get_type_hints

from .changes import Annotation, ChangeProposal
from .engine import FilterResult
from .errors import DocumentError
from .model import Organization, PpcoModel, Violation
from .policy import ConnexionLevelList
from .records import fields, is_record
from .viewpoints import Actor, CompetenceLevel, Viewpoint


def canonical_dumps(doc: Any) -> str:
    out: list[str] = []
    try:
        _encode(doc, out, "\n")
    except (TypeError, ValueError, RecursionError):
        # Not plain JSON: the stdlib decides, giving its text or its error.
        try:
            return json.dumps(doc, ensure_ascii=False, allow_nan=False, sort_keys=True, indent=2) + "\n"
        except (TypeError, ValueError) as exc:
            raise DocumentError(f"value is not canonical-JSON serializable: {exc}") from None
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring  # the C function json.dumps itself uses
_INFINITIES = (math.inf, -math.inf)


def _encode(value: Any, out: list[str], indent: str) -> None:
    """Append the canonical text of ``value`` to ``out``; ``indent`` is the
    newline and indentation of the line the value starts on. Raises
    ``TypeError`` or ``ValueError`` for anything but plain JSON values."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if value != value or value in _INFINITIES:
            raise ValueError("not a finite float")
        out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _encode(item, out, inner)
            separator = "," + inner
        out.append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError("not a string key")
            out.append(separator + _encode_str(key) + ": ")
            _encode(item, out, inner)
            separator = "," + inner
        out.append(indent + "}")
    else:
        raise TypeError("not a JSON value")


def canonical_loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None
    except ValueError:  # an integer literal longer than int() parses
        raise DocumentError(f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply") from None


# Fields holding free text, the only strings that may be empty. Every other
# string field, and every string inside a list, is an identifier.
_FREE_TEXT_FIELDS = frozenset({"name", "description", "role", "focus_label", "payload_description"})

_SCALARS = {str: "a string", int: "an integer"}


class _Fault(Exception):
    """A decoding error on its way out, as the message after the JSON path:
    each enclosing list, mapping and object re-raises it with its own step
    prepended, so no path is built while decoding succeeds."""


def decode(tp: Any, value: Any, path: str) -> Any:
    """``value`` strictly decoded as a ``tp``; ``path`` is its JSON path,
    which every error message starts with."""
    try:
        return _codec(tp)[0](value)
    except _Fault as fault:
        raise DocumentError(f"{path}{fault}") from None


def _same(value: Any) -> Any:
    return value


_value = attrgetter("value")


@cache
def _codec(tp: Any, nonempty: bool = True) -> tuple[Callable[[Any], Any], Callable[[Any], Any]]:
    """The ``(decode, encode)`` pair for values of type ``tp``, built once per
    type by one walk over the record fields and their type hints. The
    decoder raises ``_Fault``, which ``decode`` turns into a
    ``DocumentError``; ``nonempty`` applies to strings only."""
    origin, args = get_origin(tp), get_args(tp)

    if tp is Any:
        return _same, _same

    if tp is CompetenceLevel:
        decode_int = _codec(int)[0]
        return (lambda value: CompetenceLevel(decode_int(value))), _value

    if tp in _SCALARS or origin in (Union, UnionType):
        nullable = tp not in _SCALARS
        kind = next(arg for arg in args if arg is not type(None)) if nullable else tp
        nonempty = nonempty and kind is str and not nullable
        expected = "a non-empty string" if nonempty else _SCALARS[kind]
        if nullable:
            expected += " or null"

        def decode_scalar(value):
            if isinstance(value, kind) and not isinstance(value, bool) and (value or not nonempty):
                return value
            if value is None and nullable:
                return None
            raise _Fault(f": expected {expected}")

        return decode_scalar, _same

    if origin in (tuple, frozenset):
        decode_item, encode_item = _codec(args[0])

        def decode_list(value):
            if not isinstance(value, list):
                raise _Fault(": expected a list")
            items = []
            try:
                for item in value:
                    items.append(decode_item(item))
            except _Fault as fault:
                raise _Fault(f"[{len(items)}]{fault}") from None
            return origin(items)

        if is_record(args[0]):
            names = fields(args[0])
            key = itemgetter("id") if "id" in names else itemgetter(*names)
        elif origin is frozenset or args[0] is str:
            key = None
        else:
            return decode_list, lambda value: list(map(encode_item, value))
        return decode_list, lambda value: sorted(map(encode_item, value), key=key)

    if origin is abc.Mapping:
        decode_value, encode_value = _codec(args[1])

        def decode_mapping(value):
            if not isinstance(value, dict):
                raise _Fault(": expected an object")
            items = {}
            try:
                for key, item in value.items():
                    items[key] = decode_value(item)
            except _Fault as fault:
                raise _Fault(f".{key}{fault}") from None
            return items

        return decode_mapping, lambda value: {key: encode_value(item) for key, item in value.items()}

    if isinstance(tp, type) and issubclass(tp, Enum):
        allowed = ", ".join(member.value for member in tp)

        def decode_enum(value):
            try:
                return tp(value)
            except ValueError:
                raise _Fault(f": expected one of [{allowed}], got {value!r}") from None

        return decode_enum, _value

    hints = get_type_hints(tp)
    codecs = tuple((name, *_codec(hints[name], name not in _FREE_TEXT_FIELDS)) for name in fields(tp))
    keys = frozenset(fields(tp))

    def decode_object(value):
        if not isinstance(value, dict):
            raise _Fault(f": expected an object, got {type(value).__name__}")
        if value.keys() != keys:
            missing = keys - set(value)
            if missing:
                raise _Fault(f": missing keys {sorted(missing)}")
            raise _Fault(f": unknown keys {sorted(set(value) - keys)}")
        values = []
        try:
            for name, decode_field, _ in codecs:
                values.append(decode_field(value[name]))
        except _Fault as fault:
            raise _Fault(f".{name}{fault}") from None
        return tp(*values)

    def encode_object(value):
        return {name: encode_field(getattr(value, name)) for name, _, encode_field in codecs}

    if tp is not Organization:
        return decode_object, encode_object

    def encode_organization(org):
        doc = encode_object(org)
        n, matrix = len(org.teams), org.collaboration_matrix
        if len(matrix) == n and all(len(row) == n for row in matrix):
            order = sorted(range(n), key=lambda i: org.teams[i].id)
            doc["collaboration_matrix"] = [[matrix[i][j] for j in order] for i in order]
        return doc

    return decode_object, encode_organization


# -- stored entities ------------------------------------------------------------

def model_to_doc(model: PpcoModel) -> dict:
    return _codec(PpcoModel)[1](model)


def model_from_doc(doc: Any) -> PpcoModel:
    return decode(PpcoModel, doc, "model")


def actor_to_doc(actor: Actor) -> dict:
    return _codec(Actor)[1](actor)


def actor_from_doc(doc: Any) -> Actor:
    return decode(Actor, doc, "actor")


def viewpoint_to_doc(vp: Viewpoint) -> dict:
    return _codec(Viewpoint)[1](vp)


def viewpoint_from_doc(doc: Any) -> Viewpoint:
    return decode(Viewpoint, doc, "viewpoint")


def change_to_doc(change: ChangeProposal) -> dict:
    return _codec(ChangeProposal)[1](change)


def change_from_doc(doc: Any) -> ChangeProposal:
    return decode(ChangeProposal, doc, "change")


def annotation_to_doc(annotation: Annotation) -> dict:
    return _codec(Annotation)[1](annotation)


def annotation_from_doc(doc: Any) -> Annotation:
    return decode(Annotation, doc, "annotation")


# -- filter results -----------------------------------------------------------
# Hand-written: they serve every filter, and the audit keeps classification order.

def connexion_list_to_doc(entries: ConnexionLevelList) -> list[dict]:
    return [
        {"batch": e.batch, "level": e.level, "provenance": sorted(e.provenance)}
        for e in entries
    ]


def filter_result_to_doc(result: FilterResult, include_audit: bool = True) -> dict:
    doc = {
        "actor_id": result.actor_id,
        "artifact_id": result.artifact_id,
        "entries": connexion_list_to_doc(result.entries),
    }
    if include_audit:
        doc["audit"] = [
            {"viewpoint_id": a.viewpoint_id, "entries": connexion_list_to_doc(a.entries)}
            for a in result.audit
        ]
    return doc


def violations_to_doc(violations: Iterable[Violation]) -> dict:
    return {"violations": [v.to_doc() for v in sorted(violations, key=lambda v: (v.code, v.subject))]}
