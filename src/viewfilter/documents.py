"""Canonical JSON interchange for every stored and served entity.

Canonical form is UTF-8 JSON with sorted keys, two-space indentation, and a
trailing newline; all lists are emitted in a deterministic order.

Decoding is strict and driven by the dataclasses themselves: an object's
keys are exactly its dataclass's field names, and every key is required.
Missing or unknown keys and wrong types are rejected with the JSON path of
the offending field. Identifier strings must be non-empty; only the
free-text fields (``name``, ``description``, ``role``, ``focus_label`` and
``payload_description``) may be ``""``, and a nullable field takes ``null``
or any string. A competence level is a bare integer. Referential problems
are left to the validators (violations are data, not parse failures).
"""

from __future__ import annotations

import dataclasses
import json
from collections import abc
from enum import Enum
from functools import cache
from types import UnionType
from typing import Any, Callable, Iterable, Union, get_args, get_origin, get_type_hints

from .changes import Annotation, ChangeProposal
from .engine import FilterResult
from .errors import DocumentError
from .model import PpcoModel, Violation
from .policy import ConnexionEntry, ConnexionLevelList
from .viewpoints import Actor, CompetenceLevel, Viewpoint


def canonical_dumps(doc: Any) -> str:
    try:
        return json.dumps(doc, ensure_ascii=False, allow_nan=False, sort_keys=True, indent=2) + "\n"
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"value is not canonical-JSON serializable: {exc}") from None


def canonical_loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None


# Fields holding free text, the only strings that may be empty. Every other
# string field, and every string inside a list, is an identifier.
_FREE_TEXT_FIELDS = frozenset({"name", "description", "role", "focus_label", "payload_description"})

_SCALARS = {str: "a string", int: "an integer"}


@cache
def _decoder(tp: Any, nonempty: bool = True) -> Callable[[Any, str], Any]:
    """The strict decoding function for values of type ``tp``.

    It is built once per type from the dataclass fields and their type hints;
    it takes the value and its JSON path, which every error message starts
    with. ``nonempty`` applies to strings only.
    """
    origin, args = get_origin(tp), get_args(tp)

    if tp is Any:
        return lambda value, path: value

    if tp is CompetenceLevel:
        decode_int = _decoder(int)
        return lambda value, path: CompetenceLevel(decode_int(value, path))

    if tp in _SCALARS or origin in (Union, UnionType):
        nullable = tp not in _SCALARS
        kind = next(arg for arg in args if arg is not type(None)) if nullable else tp
        nonempty = nonempty and kind is str and not nullable
        expected = "a non-empty string" if nonempty else _SCALARS[kind]
        if nullable:
            expected += " or null"

        def decode_scalar(value, path):
            if isinstance(value, kind) and not isinstance(value, bool) and (value or not nonempty):
                return value
            if value is None and nullable:
                return None
            raise DocumentError(f"{path}: expected {expected}")

        return decode_scalar

    if origin in (tuple, frozenset):
        decode_item = _decoder(args[0])

        def decode_list(value, path):
            if not isinstance(value, list):
                raise DocumentError(f"{path}: expected a list")
            return origin([decode_item(item, f"{path}[{idx}]") for idx, item in enumerate(value)])

        return decode_list

    if origin is abc.Mapping:
        decode_value = _decoder(args[1])

        def decode_mapping(value, path):
            if not isinstance(value, dict):
                raise DocumentError(f"{path}: expected an object")
            return {key: decode_value(item, f"{path}.{key}") for key, item in value.items()}

        return decode_mapping

    if isinstance(tp, type) and issubclass(tp, Enum):
        allowed = ", ".join(member.value for member in tp)

        def decode_enum(value, path):
            try:
                return tp(value)
            except ValueError:
                raise DocumentError(f"{path}: expected one of [{allowed}], got {value!r}") from None

        return decode_enum

    hints = get_type_hints(tp)
    fields = tuple(
        (f.name, _decoder(hints[f.name], f.name not in _FREE_TEXT_FIELDS)) for f in dataclasses.fields(tp)
    )
    keys = frozenset(name for name, _ in fields)

    def decode_object(value, path):
        if not isinstance(value, dict):
            raise DocumentError(f"{path}: expected an object, got {type(value).__name__}")
        if value.keys() != keys:
            missing = keys - set(value)
            if missing:
                raise DocumentError(f"{path}: missing keys {sorted(missing)}")
            raise DocumentError(f"{path}: unknown keys {sorted(set(value) - keys)}")
        return tp(*[decode(value[name], f"{path}.{name}") for name, decode in fields])

    return decode_object


# -- model ------------------------------------------------------------------

def model_to_doc(model: PpcoModel) -> dict:
    org = model.organization
    order = sorted(range(len(org.teams)), key=lambda i: org.teams[i].id)
    matrix = org.collaboration_matrix
    square = len(matrix) == len(org.teams) and all(len(row) == len(org.teams) for row in matrix)
    if square:
        matrix_doc = [[matrix[i][j] for j in order] for i in order]
    else:
        matrix_doc = [list(row) for row in matrix]
    return {
        "project_id": model.project_id,
        "root_artifact_id": model.root_artifact_id,
        "artifacts": [
            {
                "id": a.id,
                "name": a.name,
                "description": a.description,
                "kind": a.kind.value,
                "parent_id": a.parent_id,
            }
            for a in sorted(model.artifacts, key=lambda a: a.id)
        ],
        "interactions": [
            {
                "id": i.id,
                "endpoint_a": i.endpoint_a,
                "endpoint_b": i.endpoint_b,
                "classification": i.classification.value,
                "description": i.description,
            }
            for i in sorted(model.interactions, key=lambda i: i.id)
        ],
        "processes": [
            {
                "id": p.id,
                "name": p.name,
                "activities": [
                    {
                        "id": act.id,
                        "process_id": act.process_id,
                        "name": act.name,
                        "discipline": act.discipline,
                        "tasks": [
                            {"id": t.id, "activity_id": t.activity_id, "name": t.name}
                            for t in sorted(act.tasks, key=lambda t: t.id)
                        ],
                    }
                    for act in sorted(p.activities, key=lambda act: act.id)
                ],
            }
            for p in sorted(model.processes, key=lambda p: p.id)
        ],
        "task_flows": [
            {
                "from_task": f.from_task,
                "to_task": f.to_task,
                "payload_description": f.payload_description,
            }
            for f in sorted(model.task_flows, key=lambda f: (f.from_task, f.to_task, f.payload_description))
        ],
        "organization": {
            "teams": [
                {
                    "id": t.id,
                    "name": t.name,
                    "member_actor_ids": sorted(t.member_actor_ids),
                    "responsibility_artifact_id": t.responsibility_artifact_id,
                }
                for t in sorted(org.teams, key=lambda t: t.id)
            ],
            "collaboration_matrix": matrix_doc,
        },
    }


def model_from_doc(doc: Any) -> PpcoModel:
    return _decoder(PpcoModel)(doc, "model")


# -- actors and viewpoints ----------------------------------------------------

def actor_to_doc(actor: Actor) -> dict:
    return {
        "id": actor.id,
        "name": actor.name,
        "role": actor.role,
        "situation": actor.situation.value,
        "team_id": actor.team_id,
        "competences": {discipline: level.value for discipline, level in actor.competences.items()},
    }


def actor_from_doc(doc: Any) -> Actor:
    return _decoder(Actor)(doc, "actor")


def viewpoint_to_doc(vp: Viewpoint) -> dict:
    return {
        "id": vp.id,
        "actor_id": vp.actor_id,
        "domain": {"activity_id": vp.domain.activity_id, "discipline": vp.domain.discipline},
        "objective": {
            "focus_label": vp.objective.focus_label,
            "target_artifact_id": vp.objective.target_artifact_id,
        },
        "relationships": [
            {"other_viewpoint_id": rel.other_viewpoint_id, "kind": rel.kind.value}
            for rel in sorted(vp.relationships, key=lambda r: (r.other_viewpoint_id, r.kind.value))
        ],
        "importance": vp.importance,
    }


def viewpoint_from_doc(doc: Any) -> Viewpoint:
    return _decoder(Viewpoint)(doc, "viewpoint")


# -- filter results -----------------------------------------------------------

def connexion_list_to_doc(entries: ConnexionLevelList) -> list[dict]:
    return [
        {"batch": e.batch, "level": e.level, "provenance": sorted(e.provenance)}
        for e in entries
    ]


def connexion_list_from_doc(doc: Any, path: str = "entries") -> ConnexionLevelList:
    return ConnexionLevelList.from_entries(_decoder(tuple[ConnexionEntry, ...])(doc, path))


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


# -- change workflow ----------------------------------------------------------

def change_to_doc(change: ChangeProposal) -> dict:
    return {
        "id": change.id,
        "author_actor_id": change.author_actor_id,
        "artifact_id": change.artifact_id,
        "batch": change.batch,
        "delta": change.delta,
        "status": change.status.value,
        "concerned": sorted(change.concerned),
        "decisions": {actor: decision.value for actor, decision in change.decisions.items()},
        "created": change.created,
        "resolved": change.resolved,
    }


def change_from_doc(doc: Any) -> ChangeProposal:
    return _decoder(ChangeProposal)(doc, "change")


def annotation_to_doc(annotation: Annotation) -> dict:
    return {
        "id": annotation.id,
        "change_id": annotation.change_id,
        "actor_id": annotation.actor_id,
        "artifact_id": annotation.artifact_id,
        "batch": annotation.batch,
        "created": annotation.created,
    }


def annotation_from_doc(doc: Any) -> Annotation:
    return _decoder(Annotation)(doc, "annotation")


def violations_to_doc(violations: Iterable[Violation]) -> dict:
    return {"violations": [v.to_doc() for v in sorted(violations, key=lambda v: (v.code, v.subject))]}
