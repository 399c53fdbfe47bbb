"""Modification proposals and their unanimous-approval lifecycle.

A proposal targets one batch of one artifact. The actors concerned by it are
exactly those whose own filter result on that artifact contains the batch
(the author is excluded and counts as implicitly approving); the set is
frozen when the proposal is opened. Every concerned actor must approve before
the change takes effect; a single rejection ends it. The state machine here
is pure; :class:`ChangeWorkflow` wires it to a store, which publishes a new
model version at the moment a proposal becomes effective.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Any, Mapping

from .engine import Workspace, filtering_info_artifact
from .errors import (
    ConflictError,
    InvalidInputError,
    InvalidStateError,
    PermissionDeniedError,
)
from .policy import restitution_list_connexion_level
from .viewpoints import filtering_list_vp_artifact

if TYPE_CHECKING:
    from .store import Store


class ChangeStatus(str, Enum):
    PENDING = "pending"
    EFFECTIVE = "effective"
    REJECTED = "rejected"
    WITHDRAWN = "withdrawn"


class Decision(str, Enum):
    APPROVE = "approve"
    REJECT = "reject"


@dataclass(frozen=True)
class ChangeProposal:
    """One pending or resolved modification, with per-actor decisions.

    Timestamps are the store's logical sequence numbers, so documents stay
    byte-deterministic.
    """

    id: str
    author_actor_id: str
    artifact_id: str
    batch: str
    delta: Any
    status: ChangeStatus
    concerned: frozenset[str]
    decisions: Mapping[str, Decision]
    created: int
    resolved: int | None = None

    def __post_init__(self):
        if not set(self.decisions) <= self.concerned:
            raise InvalidInputError(f"change {self.id}: decisions recorded for non-concerned actors")
        approvals = {a for a, d in self.decisions.items() if d is Decision.APPROVE}
        rejected = any(d is Decision.REJECT for d in self.decisions.values())
        unanimous = approvals == self.concerned
        expectations = {
            ChangeStatus.EFFECTIVE: unanimous and not rejected,
            ChangeStatus.REJECTED: rejected,
            ChangeStatus.PENDING: not rejected and not unanimous,
            ChangeStatus.WITHDRAWN: not rejected and not unanimous,
        }
        if not expectations[self.status]:
            raise InvalidInputError(f"change {self.id}: status {self.status.value} contradicts decisions")
        if (self.resolved is None) != (self.status is ChangeStatus.PENDING):
            raise InvalidInputError(f"change {self.id}: resolved timestamp inconsistent with status")


@dataclass(frozen=True)
class Annotation:
    """Record notifying one concerned actor of one proposal; emitted once."""

    id: str
    change_id: str
    actor_id: str
    artifact_id: str
    batch: str
    created: int


def concerned_actors(
    ws: Workspace,
    artifact_id: str,
    batch: str,
    exclude_actor: str | None = None,
) -> set[str]:
    """Actors whose own filter result on the artifact contains the batch.

    The merge is a union of batches, so an actor holds the batch exactly when
    step 4 grants it to one of their viewpoints covering the artifact: one
    pass over the covering viewpoints finds them all.
    """
    ws.model.artifact(artifact_id)
    concerned = set()
    for vp in filtering_list_vp_artifact(ws.model, ws.viewpoints.values(), artifact_id):
        actor = ws.actors.get(vp.actor_id)
        if actor is None or actor.id == exclude_actor or actor.id in concerned:
            continue
        if restitution_list_connexion_level(vp, actor, ws.policy).get(batch) is not None:
            concerned.add(actor.id)
    return concerned


def open_proposal(
    ws: Workspace,
    author_actor_id: str,
    artifact_id: str,
    batch: str,
    delta: Any,
    change_id: str,
    created: int,
) -> tuple[ChangeProposal, list[Annotation]]:
    """Create a proposal plus one annotation per concerned actor.

    The author must hold the batch in their own filter result (write right);
    with no other stakeholder the proposal is immediately effective.
    """
    author_result = filtering_info_artifact(ws, artifact_id, author_actor_id)
    if author_result.entries.get(batch) is None:
        raise PermissionDeniedError(
            f"actor {author_actor_id} has no access to batch {batch} on artifact {artifact_id}"
        )
    concerned = frozenset(concerned_actors(ws, artifact_id, batch, exclude_actor=author_actor_id))
    if concerned:
        status, resolved = ChangeStatus.PENDING, None
    else:
        status, resolved = ChangeStatus.EFFECTIVE, created
    proposal = ChangeProposal(
        id=change_id,
        author_actor_id=author_actor_id,
        artifact_id=artifact_id,
        batch=batch,
        delta=delta,
        status=status,
        concerned=concerned,
        decisions={},
        created=created,
        resolved=resolved,
    )
    annotations = [
        Annotation(f"{change_id}.{actor_id}", change_id, actor_id, artifact_id, batch, created)
        for actor_id in sorted(concerned)
    ]
    return proposal, annotations


def record_decision(
    proposal: ChangeProposal,
    actor_id: str,
    decision: Decision,
    seq: int,
) -> ChangeProposal:
    """Apply one actor's decision; resolves the proposal when it settles it."""
    if proposal.status is not ChangeStatus.PENDING:
        raise InvalidStateError(f"change {proposal.id} is already {proposal.status.value}")
    if actor_id not in proposal.concerned:
        raise PermissionDeniedError(f"actor {actor_id} is not concerned by change {proposal.id}")
    if actor_id in proposal.decisions:
        raise ConflictError(f"actor {actor_id} already decided on change {proposal.id}")
    decisions = {**proposal.decisions, actor_id: decision}
    if decision is Decision.REJECT:
        return replace(proposal, decisions=decisions, status=ChangeStatus.REJECTED, resolved=seq)
    if {a for a, d in decisions.items() if d is Decision.APPROVE} == proposal.concerned:
        return replace(proposal, decisions=decisions, status=ChangeStatus.EFFECTIVE, resolved=seq)
    return replace(proposal, decisions=decisions)


def withdraw_proposal(proposal: ChangeProposal, actor_id: str, seq: int) -> ChangeProposal:
    """Author-only retraction of a still-pending proposal."""
    if proposal.status is not ChangeStatus.PENDING:
        raise InvalidStateError(f"change {proposal.id} is already {proposal.status.value}")
    if actor_id != proposal.author_actor_id:
        raise PermissionDeniedError(f"only the author may withdraw change {proposal.id}")
    return replace(proposal, status=ChangeStatus.WITHDRAWN, resolved=seq)


def staged_model_doc(delta: Any) -> dict | None:
    """The full model document staged inside a delta payload, if any."""
    if isinstance(delta, dict) and isinstance(delta.get("model"), dict):
        return delta["model"]
    return None


class ChangeWorkflow:
    """Store-backed orchestration of the proposal lifecycle.

    A new model version is published at the single point a proposal turns
    effective (the staged model from the delta when present, otherwise the
    current content is republished under the next version). Rejections and
    withdrawals publish nothing.
    """

    def __init__(self, store: "Store"):
        self.store = store

    def propose(self, author_actor_id: str, artifact_id: str, batch: str, delta: Any) -> ChangeProposal:
        from .documents import canonical_dumps

        canonical_dumps(delta)  # reject unserializable payloads before any effect
        with self.store.lock:
            ws = self.store.load_workspace()
            staged = staged_model_doc(delta)
            if staged is not None:
                self.store.check_importable(staged)
            change_id = self.store.next_change_id()
            proposal, annotations = open_proposal(
                ws, author_actor_id, artifact_id, batch, delta, change_id, self.store.next_seq()
            )
            if proposal.status is ChangeStatus.EFFECTIVE:
                self._publish(proposal)
            self.store.save_change(proposal)
            for annotation in annotations:
                self.store.save_annotation(annotation)
            return proposal

    def decide(self, change_id: str, actor_id: str, decision: Decision | str) -> ChangeProposal:
        if not isinstance(decision, Decision):
            try:
                decision = Decision(decision)
            except ValueError:
                raise InvalidInputError(f"unknown decision: {decision!r}") from None
        with self.store.lock:
            proposal = self.store.get_change(change_id)
            updated = record_decision(proposal, actor_id, decision, self.store.next_seq())
            if updated.status is ChangeStatus.EFFECTIVE:
                self._publish(updated)
            self.store.save_change(updated)
            return updated

    def withdraw(self, change_id: str, actor_id: str) -> ChangeProposal:
        with self.store.lock:
            proposal = self.store.get_change(change_id)
            updated = withdraw_proposal(proposal, actor_id, self.store.next_seq())
            self.store.save_change(updated)
            return updated

    def _publish(self, proposal: ChangeProposal) -> int:
        doc = staged_model_doc(proposal.delta)
        if doc is None:
            doc = self.store.export_model()
        return self.store.import_model(doc)
