import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import unanimity_oracle
from viewfilter import changes, documents, fixture
from viewfilter.changes import (
    ChangeProposal,
    ChangeStatus,
    ChangeWorkflow,
    Decision,
    concerned_actors,
    open_proposal,
    record_decision,
    withdraw_proposal,
)
from viewfilter.engine import filtering_info_artifact
from viewfilter.errors import (
    ConflictError,
    InvalidInputError,
    InvalidStateError,
    ModelRejectedError,
    NotFoundError,
    PermissionDeniedError,
)
from viewfilter.store import Store

ACTOR_POOL = [f"A{i}" for i in range(6)]


def _pending(concerned: frozenset) -> ChangeProposal:
    effective = not concerned
    return ChangeProposal(
        id="chg-000001",
        author_actor_id="Author",
        artifact_id="CycloneVessel",
        batch="Geometry-Form",
        delta={"description": "x"},
        status=ChangeStatus.EFFECTIVE if effective else ChangeStatus.PENDING,
        concerned=concerned,
        decisions={},
        created=1,
        resolved=1 if effective else None,
    )


class TestConcernedActors:
    def test_matches_filter_recompute_for_every_actor_and_batch(self, workspace):
        batches = {"Geometry-Form", "Mechanic", "Group", "NoSuchBatch"}
        for artifact_id in ("CycloneVessel", "BarrelShell", "DustValve"):
            for batch in batches:
                expected = {
                    actor_id
                    for actor_id in workspace.actors
                    if filtering_info_artifact(workspace, artifact_id, actor_id).entries.get(batch)
                }
                assert concerned_actors(workspace, artifact_id, batch) == expected

    def test_geometry_form_on_vessel_concerns_only_actor_y(self, workspace):
        assert concerned_actors(workspace, "CycloneVessel", "Geometry-Form") - {"ActorX"} == {"ActorY"}

    def test_batch_nobody_receives(self, workspace):
        assert concerned_actors(workspace, "CycloneVessel", "NoSuchBatch") == set()

    def test_unknown_artifact(self, workspace):
        with pytest.raises(NotFoundError):
            concerned_actors(workspace, "Ghost", "Group")


class TestOpenProposal:
    def test_pending_with_annotations(self, workspace):
        proposal, annotations = open_proposal(
            workspace, "ActorX", "CycloneVessel", "Geometry-Form", {"description": "d"}, "chg-000001", 7
        )
        assert proposal.status is ChangeStatus.PENDING
        assert proposal.concerned == frozenset({"ActorY"})
        assert proposal.created == 7 and proposal.resolved is None
        assert [a.actor_id for a in annotations] == ["ActorY"]
        assert all(a.change_id == "chg-000001" and a.batch == "Geometry-Form" for a in annotations)

    def test_author_without_batch_is_denied(self, workspace):
        with pytest.raises(PermissionDeniedError):
            open_proposal(workspace, "ActorZ", "CycloneVessel", "Geometry-Form", {}, "chg-000001", 1)
        with pytest.raises(PermissionDeniedError):
            open_proposal(workspace, "ActorX", "CycloneVessel", "NoSuchBatch", {}, "chg-000001", 1)

    def test_no_stakeholders_is_immediately_effective(self, workspace):
        proposal, annotations = open_proposal(
            workspace, "ActorX", "CycloneVessel", "Mechanic", {"description": "d"}, "chg-000001", 3
        )
        assert proposal.status is ChangeStatus.EFFECTIVE
        assert proposal.concerned == frozenset()
        assert proposal.resolved == 3
        assert annotations == []


class TestDecisions:
    def test_last_approver_makes_effective(self):
        proposal = _pending(frozenset({"A1", "A2"}))
        proposal = record_decision(proposal, "A1", Decision.APPROVE, 2)
        assert proposal.status is ChangeStatus.PENDING
        proposal = record_decision(proposal, "A2", Decision.APPROVE, 3)
        assert proposal.status is ChangeStatus.EFFECTIVE
        assert proposal.resolved == 3

    def test_single_reject_rejects(self):
        proposal = record_decision(_pending(frozenset({"A1", "A2"})), "A2", Decision.REJECT, 2)
        assert proposal.status is ChangeStatus.REJECTED
        assert proposal.resolved == 2

    def test_decision_on_terminal_change(self):
        done = record_decision(_pending(frozenset({"A1"})), "A1", Decision.APPROVE, 2)
        with pytest.raises(InvalidStateError):
            record_decision(done, "A1", Decision.REJECT, 3)

    def test_non_concerned_actor_denied(self):
        with pytest.raises(PermissionDeniedError):
            record_decision(_pending(frozenset({"A1"})), "A9", Decision.APPROVE, 2)

    def test_duplicate_decision_conflicts(self):
        proposal = record_decision(_pending(frozenset({"A1", "A2"})), "A1", Decision.APPROVE, 2)
        with pytest.raises(ConflictError):
            record_decision(proposal, "A1", Decision.APPROVE, 3)

    def test_withdraw_is_author_only_and_pending_only(self):
        proposal = _pending(frozenset({"A1"}))
        with pytest.raises(PermissionDeniedError):
            withdraw_proposal(proposal, "A1", 2)
        withdrawn = withdraw_proposal(proposal, "Author", 2)
        assert withdrawn.status is ChangeStatus.WITHDRAWN
        with pytest.raises(InvalidStateError):
            withdraw_proposal(withdrawn, "Author", 3)

    @given(data=st.data())
    @settings(max_examples=300)
    def test_random_sequences_match_unanimity_oracle(self, data):
        concerned = frozenset(data.draw(st.lists(st.sampled_from(ACTOR_POOL), unique=True, max_size=6)))
        proposal = _pending(concerned)
        order = data.draw(st.permutations(sorted(concerned)))
        assigned = [(actor, data.draw(st.sampled_from(["approve", "reject"]))) for actor in order]
        prefix = data.draw(st.integers(0, len(assigned)))
        applied = []
        seq = 2
        for actor, decision in assigned[:prefix]:
            if proposal.status is not ChangeStatus.PENDING:
                break
            proposal = record_decision(proposal, actor, Decision(decision), seq)
            applied.append((actor, decision))
            seq += 1
        if concerned:
            assert proposal.status.value == unanimity_oracle(set(concerned), applied)
        else:
            assert proposal.status is ChangeStatus.EFFECTIVE

    def test_withdrawn_is_valid_only_where_pending_would_be(self):
        fields = dict(
            id="chg-000001", author_actor_id="A", artifact_id="x", batch="B", delta=None,
            status=ChangeStatus.WITHDRAWN, concerned=frozenset({"A1", "A2"}), created=1, resolved=2,
        )
        ChangeProposal(**fields, decisions={"A1": Decision.APPROVE})
        for decisions in ({"A1": Decision.APPROVE, "A2": Decision.APPROVE}, {"A1": Decision.REJECT}):
            with pytest.raises(InvalidInputError, match="status withdrawn contradicts decisions"):
                ChangeProposal(**fields, decisions=decisions)

    def test_status_invariants_enforced_on_construction(self):
        with pytest.raises(InvalidInputError):
            ChangeProposal(
                id="chg-000001", author_actor_id="A", artifact_id="x", batch="B",
                delta=None, status=ChangeStatus.EFFECTIVE, concerned=frozenset({"A1"}),
                decisions={}, created=1, resolved=1,
            )
        with pytest.raises(InvalidInputError):
            ChangeProposal(
                id="chg-000001", author_actor_id="A", artifact_id="x", batch="B",
                delta=None, status=ChangeStatus.PENDING, concerned=frozenset(),
                decisions={"A9": Decision.APPROVE}, created=1, resolved=None,
            )


class TestStoreBackedWorkflow:
    def _current_bytes(self, store):
        return documents.canonical_dumps(store.export_model())

    def test_rejected_leaves_model_byte_identical(self, seeded_store):
        workflow = ChangeWorkflow(seeded_store)
        before = self._current_bytes(seeded_store)
        versions_before = seeded_store.model_versions()
        change = workflow.propose("ActorX", "CycloneVessel", "Geometry-Form", {"description": "d"})
        workflow.decide(change.id, "ActorY", "reject")
        assert self._current_bytes(seeded_store) == before
        assert seeded_store.model_versions() == versions_before
        assert seeded_store.get_change(change.id).status is ChangeStatus.REJECTED

    def test_withdrawn_leaves_model_byte_identical(self, seeded_store):
        workflow = ChangeWorkflow(seeded_store)
        before = self._current_bytes(seeded_store)
        change = workflow.propose("ActorX", "CycloneVessel", "Geometry-Form", {"description": "d"})
        workflow.withdraw(change.id, "ActorX")
        assert self._current_bytes(seeded_store) == before
        assert seeded_store.get_change(change.id).status is ChangeStatus.WITHDRAWN

    def test_effective_publishes_exactly_one_version(self, seeded_store):
        workflow = ChangeWorkflow(seeded_store)
        assert seeded_store.model_versions() == [1]
        change = workflow.propose("ActorX", "CycloneVessel", "Geometry-Form", {"description": "d"})
        updated = workflow.decide(change.id, "ActorY", "approve")
        assert updated.status is ChangeStatus.EFFECTIVE
        assert seeded_store.model_versions() == [1, 2]
        assert seeded_store.current_version() == 2

    def test_plain_approval_copies_the_current_version(self, tmp_path):
        # ActorZ, a member of team T3, is not registered, so the model would
        # fail validation against today's registry if it were imported again.
        store = Store(tmp_path / "store")
        store.import_model(documents.model_to_doc(fixture.cyclone_vessel_model()))
        for actor in fixture.example_actors()[:2]:
            store.add_actor(documents.actor_to_doc(actor))
        store.add_viewpoints([documents.viewpoint_to_doc(vp) for vp in fixture.example_viewpoints()[:3]])
        store.set_policy(fixture.DEFAULT_POLICY_TEXT)
        token = (store.root / "model" / "TOKEN").read_bytes()
        workflow = ChangeWorkflow(store)
        change = workflow.propose("ActorX", "CycloneVessel", "Geometry-Form", {"description": "d"})
        assert workflow.decide(change.id, "ActorY", "approve").status is ChangeStatus.EFFECTIVE
        assert store.get_change(change.id).status is ChangeStatus.EFFECTIVE
        assert store.model_versions() == [1, 2]
        model = store.root / "model"
        assert (model / "v000002.json").read_bytes() == (model / "v000001.json").read_bytes()
        assert (model / "TOKEN").read_bytes() == token

    def test_unknown_decision_is_invalid_input(self, seeded_store):
        workflow = ChangeWorkflow(seeded_store)
        change = workflow.propose("ActorX", "CycloneVessel", "Geometry-Form", {"description": "d"})
        seq = (seeded_store.root / "seq").read_text()
        with pytest.raises(InvalidInputError, match="unknown decision: 'maybe'"):
            workflow.decide(change.id, "ActorY", "maybe")
        assert (seeded_store.root / "seq").read_text() == seq
        assert seeded_store.get_change(change.id) == change

    def test_staged_model_is_applied_on_approval(self, seeded_store):
        workflow = ChangeWorkflow(seeded_store)
        staged = copy.deepcopy(seeded_store.export_model())
        entry = next(a for a in staged["artifacts"] if a["id"] == "InletDuct")
        entry["description"] = "wall thickness increased to 6 mm"
        change = workflow.propose("ActorX", "InletDuct", "Geometry-Form", {"description": "d", "model": staged})
        workflow.decide(change.id, "ActorY", "approve")
        assert seeded_store.export_model() == staged
        assert seeded_store.export_model(1) != staged

    def test_invalid_staged_model_rejected_at_propose(self, seeded_store):
        staged = copy.deepcopy(seeded_store.export_model())
        staged["artifacts"][0]["parent_id"] = "Ghost"
        with pytest.raises(ModelRejectedError):
            ChangeWorkflow(seeded_store).propose(
                "ActorX", "CycloneVessel", "Geometry-Form", {"model": staged}
            )
        assert seeded_store.list_changes() == []

    def test_annotations_emitted_once_per_concerned(self, seeded_store):
        workflow = ChangeWorkflow(seeded_store)
        change = workflow.propose("ActorX", "CycloneVessel", "Geometry-Form", {"description": "d"})
        annotations = [a for a in seeded_store.list_annotations() if a.change_id == change.id]
        assert sorted(a.actor_id for a in annotations) == sorted(change.concerned)
        workflow.decide(change.id, "ActorY", "approve")
        annotations_after = [a for a in seeded_store.list_annotations() if a.change_id == change.id]
        assert annotations_after == annotations

    def test_concerned_set_frozen_at_proposal_time(self, seeded_store):
        workflow = ChangeWorkflow(seeded_store)
        change = workflow.propose("ActorX", "CycloneVessel", "Geometry-Form", {"description": "d"})
        assert change.concerned == frozenset({"ActorY"})
        seeded_store.add_actor(
            {
                "id": "ActorW", "name": "ActorW", "role": "late joiner",
                "situation": "internal", "team_id": "T2", "competences": {"geometry": 5},
            }
        )
        seeded_store.add_viewpoints(
            [
                {
                    "id": "VP9", "actor_id": "ActorW",
                    "domain": {"activity_id": "geometry-design", "discipline": "geometry"},
                    "objective": {"focus_label": "late focus", "target_artifact_id": "CycloneVessel"},
                    "relationships": [], "importance": 3,
                }
            ]
        )
        ws = seeded_store.load_workspace()
        assert "ActorW" in concerned_actors(ws, "CycloneVessel", "Geometry-Form")
        assert seeded_store.get_change(change.id).concerned == frozenset({"ActorY"})
        with pytest.raises(PermissionDeniedError):
            workflow.decide(change.id, "ActorW", "approve")

    def test_propose_runs_no_five_step_filter(self, seeded_store, monkeypatch):
        def boom(*args):
            raise AssertionError("the five-step filter ran")

        monkeypatch.setattr(changes, "filtering_info_artifact", boom)
        workflow = ChangeWorkflow(seeded_store)
        assert workflow.propose("ActorX", "CycloneVessel", "Geometry-Form", {}).concerned == frozenset({"ActorY"})
        with pytest.raises(PermissionDeniedError, match="actor ActorZ has no access to batch Geometry-Form"):
            workflow.propose("ActorZ", "CycloneVessel", "Geometry-Form", {})
        with pytest.raises(NotFoundError, match="unknown actor: Nobody"):
            workflow.propose("Nobody", "CycloneVessel", "Geometry-Form", {})

    def test_immediately_effective_proposal_bumps_version(self, seeded_store):
        change = ChangeWorkflow(seeded_store).propose(
            "ActorX", "CycloneVessel", "Mechanic", {"description": "d"}
        )
        assert change.status is ChangeStatus.EFFECTIVE
        assert seeded_store.model_versions() == [1, 2]

    def test_never_effective_without_published_version(self, seeded_store, monkeypatch):
        # Publication precedes the status write: if persisting the decision
        # dies, the store may hold an extra version but never an effective
        # change without one.
        workflow = ChangeWorkflow(seeded_store)
        change = workflow.propose("ActorX", "CycloneVessel", "Geometry-Form", {"description": "d"})

        def boom(proposal):
            raise OSError("simulated crash while writing the change document")

        monkeypatch.setattr(seeded_store, "save_change", boom)
        with pytest.raises(OSError):
            workflow.decide(change.id, "ActorY", "approve")
        monkeypatch.undo()
        assert seeded_store.get_change(change.id).status is ChangeStatus.PENDING
        assert seeded_store.model_versions() == [1, 2]
