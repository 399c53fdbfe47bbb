"""End-to-end information filtering: merge step and the five-step driver.

The merge is a meet over batch-to-level maps: union of batches, minimum level
per shared batch, union of provenance. It is idempotent, commutative, and
associative, so the final entry set does not depend on the order viewpoints
are folded in; the audit trail preserves the competence-classified order.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping

from .model import PpcoModel
from .policy import (
    ConnexionEntry,
    ConnexionLevelList,
    Policy,
    restitution_list_connexion_level,
)
from .records import record
from .viewpoints import (
    Actor,
    Viewpoint,
    classification_vp,
    filtering_list_vp_artifact,
    lookup_actor,
)


@record
class Workspace:
    """Immutable snapshot of everything a filter evaluation reads.

    What is derived from a snapshot is built on first use and kept on it, so
    it lives exactly as long as the snapshot: the by-actor viewpoint index
    and ``filter_memo``.
    """

    model: PpcoModel
    actors: Mapping[str, Actor]
    viewpoints: Mapping[str, Viewpoint]
    policy: Policy

    @cached_property
    def viewpoints_by_actor(self) -> dict[str, list[Viewpoint]]:
        """Step 1's answer for every actor at once: their viewpoints, sorted by id."""
        index: dict[str, list[Viewpoint]] = {}
        for vp in sorted(self.viewpoints.values(), key=lambda vp: vp.id):
            index.setdefault(vp.actor_id, []).append(vp)
        return index

    @cached_property
    def filter_memo(self) -> dict:
        """Served filters by (actor id, ordered covering viewpoint ids). Steps
        3 to 5 read nothing else of the snapshot, so the key decides the
        result's ``entries`` and ``audit``. The service fills it."""
        return {}


@record
class AuditEntry:
    viewpoint_id: str
    entries: ConnexionLevelList


@record
class FilterResult:
    """Merged adequate-information set for one actor on one artifact.

    ``audit`` holds the per-viewpoint batch lists in classification order;
    empty ``entries`` with empty ``audit`` is a legitimate result for an actor
    with no stake in the artifact.
    """

    actor_id: str
    artifact_id: str
    entries: ConnexionLevelList
    audit: tuple[AuditEntry, ...] = ()


def optimize_list_connexion_level(
    current: ConnexionLevelList,
    previous: ConnexionLevelList,
) -> ConnexionLevelList:
    """Step 5: merge two batch lists, keeping the fullest (minimum) level.

    Batches are unioned; per shared batch the smaller level and the union of
    provenance sets win. The result is sorted by batch name.
    """
    merged: dict[str, ConnexionEntry] = {e.batch: e for e in previous}
    for entry in current:
        existing = merged.get(entry.batch)
        if existing is None:
            merged[entry.batch] = entry
        else:
            merged[entry.batch] = ConnexionEntry(
                entry.batch,
                min(entry.level, existing.level),
                entry.provenance | existing.provenance,
            )
    return ConnexionLevelList.from_entries(merged.values())


def covering_viewpoints(ws: Workspace, artifact_id: str, actor_id: str) -> list[Viewpoint]:
    """Steps 1 and 2: the actor's viewpoints covering the artifact, sorted by
    id. Step 1 reads the by-actor index. An unknown actor is reported before
    an unknown artifact."""
    lookup_actor(ws.actors, actor_id)
    ws.model.artifact(artifact_id)
    return filtering_list_vp_artifact(ws.model, ws.viewpoints_by_actor.get(actor_id, ()), artifact_id)


def filtering_info_artifact(ws: Workspace, artifact_id: str, actor_id: str) -> FilterResult:
    """Run the full pipeline for one actor on one artifact.

    Steps: list the actor's viewpoints, keep those covering the artifact,
    order them by competence, evaluate each against the policy, then fold the
    per-viewpoint lists with the minimum-level merge (seeded with the first).
    """
    return filter_covering(ws, artifact_id, actor_id, covering_viewpoints(ws, artifact_id, actor_id))


def filter_covering(ws: Workspace, artifact_id: str, actor_id: str, covering: list[Viewpoint]) -> FilterResult:
    """Steps 3 to 5 on the covering viewpoints that steps 1 and 2 gave."""
    ordered = classification_vp(ws.actors, covering)

    per_viewpoint = [
        restitution_list_connexion_level(vp, ws.actors[vp.actor_id], ws.policy) for vp in ordered
    ]
    if not per_viewpoint:
        return FilterResult(actor_id, artifact_id, ConnexionLevelList())

    merged = per_viewpoint[0]
    for current in per_viewpoint[1:]:
        merged = optimize_list_connexion_level(current, merged)
    audit = tuple(AuditEntry(vp.id, lst) for vp, lst in zip(ordered, per_viewpoint))
    return FilterResult(actor_id, artifact_id, merged, audit)
