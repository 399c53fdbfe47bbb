"""Actors and their viewpoints, plus the first three filtering steps.

A viewpoint bundles four concepts: the actor who holds it, the domain it is
expressed in (an activity plus a discipline), the objective (a focus label on
a target artifact), and typed relationships to other viewpoints. Relationship
records are kept for audit only; they never change filter output.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, Sequence

from .errors import InvalidInputError, NotFoundError
from .model import PpcoModel, Violation, ancestors
from .records import record


class Situation(str, Enum):
    INTERNAL = "internal"
    EXTERNAL_PARTNER = "external_partner"


class RelationshipKind(str, Enum):
    COMPLEMENTS = "complements"
    REFINES = "refines"
    CONFLICTS = "conflicts"


@record(order=True)
class CompetenceLevel:
    """Ordinal expertise in one discipline, from 1 (novice) to 5 (expert)."""

    value: int

    def __post_init__(self):
        if not isinstance(self.value, int) or isinstance(self.value, bool) or not 1 <= self.value <= 5:
            raise InvalidInputError(f"competence level must be an integer in [1, 5], got {self.value!r}")


@record
class Actor:
    id: str
    name: str
    role: str
    situation: Situation
    team_id: str
    competences: Mapping[str, CompetenceLevel]


@record
class ViewpointDomain:
    activity_id: str
    discipline: str


@record
class ViewpointObjective:
    focus_label: str
    target_artifact_id: str


@record
class ViewpointRelationship:
    other_viewpoint_id: str
    kind: RelationshipKind


@record
class Viewpoint:
    """One actor focus: a lens on a target artifact within an activity.

    ``importance`` is recorded (1 to 5) but deliberately unused by filtering.
    """

    id: str
    actor_id: str
    domain: ViewpointDomain
    objective: ViewpointObjective
    relationships: tuple[ViewpointRelationship, ...] = ()
    importance: int = 3

    def __post_init__(self):
        if not isinstance(self.importance, int) or isinstance(self.importance, bool) or not 1 <= self.importance <= 5:
            raise InvalidInputError(f"importance must be an integer in [1, 5], got {self.importance!r}")


def lookup_actor(actors: Mapping[str, Actor], actor_id: str) -> Actor:
    """The registered actor with this id; an unknown id is ``NotFoundError``."""
    actor = actors.get(actor_id)
    if actor is None:
        raise NotFoundError(f"unknown actor: {actor_id}")
    return actor


def restitution_list_viewpoint(
    actors: Mapping[str, Actor], viewpoints: Mapping[str, Viewpoint], actor_id: str
) -> list[Viewpoint]:
    """Step 1: every registered viewpoint of the actor, sorted by viewpoint id."""
    lookup_actor(actors, actor_id)
    return sorted((vp for vp in viewpoints.values() if vp.actor_id == actor_id), key=lambda vp: vp.id)


def filtering_list_vp_artifact(model: PpcoModel, viewpoints: Sequence[Viewpoint], artifact_id: str) -> list[Viewpoint]:
    """Step 2: keep viewpoints targeting the artifact or any of its ancestors.

    A viewpoint on the whole product covers every component beneath it.
    Input order is preserved.
    """
    covering = {artifact_id, *ancestors(model, artifact_id)}
    return [vp for vp in viewpoints if vp.objective.target_artifact_id in covering]


def competence_for(actor: Actor, viewpoint: Viewpoint) -> CompetenceLevel:
    """The holding actor's competence in the viewpoint's discipline."""
    level = actor.competences.get(viewpoint.domain.discipline)
    if level is None:
        raise InvalidInputError(
            f"viewpoint {viewpoint.id}: actor {actor.id} has no competence entry "
            f"for discipline {viewpoint.domain.discipline}"
        )
    return level


def classification_vp(actors: Mapping[str, Actor], viewpoints: Sequence[Viewpoint]) -> list[Viewpoint]:
    """Step 3: order by the actor's competence, highest first; ties by id."""
    keyed = [(competence_for(lookup_actor(actors, vp.actor_id), vp), vp) for vp in viewpoints]
    return [vp for _, vp in sorted(keyed, key=lambda pair: (-pair[0].value, pair[1].id))]


def validate_registry(
    model: PpcoModel,
    actors: Mapping[str, Actor],
    batch: Mapping[str, Viewpoint],
    registered: Mapping[str, Viewpoint],
) -> list[Violation]:
    """Cross-reference checks of each viewpoint in a batch against the model,
    the actor registry and the other viewpoints, registered or in the batch.
    Registered viewpoints are not judged, so one that a later model orphaned
    never blocks a registration. An actor's team is checked when the actor is
    registered, and team members when a model is validated."""
    out: list[Violation] = []
    for vp in batch.values():
        actor = actors.get(vp.actor_id)
        if actor is None:
            out.append(Violation("viewpoint.unknown_actor", vp.id, f"actor {vp.actor_id} does not resolve"))
        elif vp.domain.discipline not in actor.competences:
            message = f"actor {actor.id} has no competence entry for {vp.domain.discipline}"
            out.append(Violation("viewpoint.discipline_not_competent", vp.id, message))
        if vp.domain.activity_id not in model.activities_by_id:
            out.append(Violation("viewpoint.unknown_activity", vp.id, f"activity {vp.domain.activity_id} does not resolve"))
        target = vp.objective.target_artifact_id
        if target not in model.artifacts_by_id:
            out.append(Violation("viewpoint.unknown_artifact", vp.id, f"artifact {target} does not resolve"))
        for rel in vp.relationships:
            other = rel.other_viewpoint_id
            if other == vp.id:
                out.append(Violation("viewpoint.relationship_self", vp.id, "relationship references the viewpoint itself"))
            elif other not in batch and other not in registered:
                out.append(Violation("viewpoint.relationship_dangling", vp.id, f"viewpoint {other} does not resolve"))
    return out
