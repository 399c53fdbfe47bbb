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
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .engine import Workspace
# Not called here: bench/traced.py counts proposal-time filters by patching this name.
from .engine import filtering_info_artifact  # noqa: F401
from .errors import (
    ConflictError,
    InvalidInputError,
    InvalidStateError,
    PermissionDeniedError,
)
from .policy import restitution_list_connexion_level
from .viewpoints import filtering_list_vp_artifact, lookup_actor

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
        settled = _settle(self.concerned, self.decisions)
        if self.status is not settled and (self.status, settled) != (ChangeStatus.WITHDRAWN, ChangeStatus.PENDING):
            raise InvalidInputError(f"change {self.id}: status {self.status.value} contradicts decisions")
        if (self.resolved is None) != (self.status is ChangeStatus.PENDING):
            raise InvalidInputError(f"change {self.id}: resolved timestamp inconsistent with status")


def _settle(concerned: frozenset[str], decisions: Mapping[str, Decision]) -> ChangeStatus:
    """The unanimity rule: one rejection rejects, approval by every concerned
    actor makes the change effective, anything else leaves it pending."""
    if Decision.REJECT in decisions.values():
        return ChangeStatus.REJECTED
    if {a for a, d in decisions.items() if d is Decision.APPROVE} == concerned:
        return ChangeStatus.EFFECTIVE
    return ChangeStatus.PENDING


@dataclass(frozen=True)
class Annotation:
    """Record notifying one concerned actor of one proposal; emitted once."""

    id: str
    change_id: str
    actor_id: str
    artifact_id: str
    batch: str
    created: int


def concerned_actors(ws: Workspace, artifact_id: str, batch: str) -> set[str]:
    """Actors whose own filter result on the artifact contains the batch.

    The merge is a union of batches, so an actor holds the batch exactly when
    step 4 grants it to one of their viewpoints covering the artifact: one
    pass over the covering viewpoints finds them all.
    """
    ws.model.artifact(artifact_id)
    concerned = set()
    for vp in filtering_list_vp_artifact(ws.model, ws.viewpoints.values(), artifact_id):
        actor = ws.actors.get(vp.actor_id)
        if actor is None or actor.id in concerned:
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

    The author must hold the batch in their own filter result (write right),
    so must be among the actors holding it; the others are concerned. With
    no other stakeholder the proposal is immediately effective.
    """
    lookup_actor(ws.actors, author_actor_id)
    holders = concerned_actors(ws, artifact_id, batch)
    if author_actor_id not in holders:
        raise PermissionDeniedError(
            f"actor {author_actor_id} has no access to batch {batch} on artifact {artifact_id}"
        )
    concerned = frozenset(holders - {author_actor_id})
    status = _settle(concerned, {})
    resolved = None if status is ChangeStatus.PENDING else created
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
    status = _settle(proposal.concerned, decisions)
    resolved = None if status is ChangeStatus.PENDING else seq
    return replace(proposal, decisions=decisions, status=status, resolved=resolved)


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
    effective (the staged model from the delta when present, validated and
    imported; otherwise a byte copy of the current version). Rejections and
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
            return self._commit(proposal, annotations)

    def decide(self, change_id: str, actor_id: str, decision: Decision | str) -> ChangeProposal:
        if not isinstance(decision, Decision):
            try:
                decision = Decision(decision)
            except ValueError:
                raise InvalidInputError(f"unknown decision: {decision!r}") from None
        with self.store.lock:
            proposal = self.store.get_change(change_id)
            return self._commit(record_decision(proposal, actor_id, decision, self.store.next_seq()))

    def withdraw(self, change_id: str, actor_id: str) -> ChangeProposal:
        with self.store.lock:
            proposal = self.store.get_change(change_id)
            return self._commit(withdraw_proposal(proposal, actor_id, self.store.next_seq()))

    def _commit(self, proposal: ChangeProposal, annotations: Sequence[Annotation] = ()) -> ChangeProposal:
        """Land an operation's outcome: publish if the proposal is now
        effective, then save the change, then its annotations."""
        if proposal.status is ChangeStatus.EFFECTIVE:
            doc = staged_model_doc(proposal.delta)
            if doc is None:
                self.store.republish_model()
            else:
                self.store.import_model(doc)
        self.store.save_change(proposal)
        for annotation in annotations:
            self.store.save_annotation(annotation)
        return proposal
