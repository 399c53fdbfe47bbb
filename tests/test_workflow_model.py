"""Model-based test of the change workflow over a real store.

A hypothesis state machine plays proposals (plain, or staging a model that
moves a leaf), decisions, withdrawals, actor and viewpoint registrations and
policy sets against a temp-dir store seeded with the fixture. A reference in
plain dicts predicts every outcome. Its rule for who is concerned is brute
force: every actor other than the author whose five-step filter result on the
artifact holds the batch, computed on a freshly opened store so that no cache
of the store under test is shared.
"""

from __future__ import annotations

import copy
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from _oracles import unanimity_oracle
from viewfilter import fixture
from viewfilter.changes import ChangeWorkflow
from viewfilter.engine import filtering_info_artifact
from viewfilter.errors import ConflictError, InvalidStateError, NotFoundError, PermissionDeniedError
from viewfilter.store import Store

ARTIFACTS = sorted(a.id for a in fixture.cyclone_vessel_model().artifacts)
# Weighted towards batches the fixture's actors hold, so that most proposals open.
BATCHES = ["Geometry-Form", "Geometry-Form", "Group", "Mechanic", "NoSuchBatch"]
ACTIVITIES = ["geometry-design", "mechanical-design", "quality-review"]
DISCIPLINES = ["geometry", "mechanic", "quality"]
# (leaf, new parent): a staged model moves one leaf away from where the
# fixture has it, which changes who covers the leaf.
LEAF_MOVES = [
    ("DustValve", "ConeSection"),
    ("InletDuct", "BarrelSection"),
    ("MountLegs", "DustOutlet"),
    ("VortexTube", "InletAssembly"),
]
POLICIES = [
    fixture.DEFAULT_POLICY_TEXT,
    fixture.DEFAULT_POLICY_TEXT,
    fixture.DEFAULT_POLICY_TEXT.replace("competence>=2", "competence>=4"),
    "rule discipline=quality activity=* competence>=1\n  grant Group:1\n  grant Geometry-Form:2\n",
    "",
]


class WorkflowMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="viewfilter-model-"))
        self.store = fixture.seed_store(self.root / "store")
        # A second geometry expert on the whole vessel, so that proposals can
        # concern two actors from the first step.
        self.store.add_actor({
            "id": "ActorW", "name": "ActorW", "role": "late joiner", "situation": "internal",
            "team_id": "T2", "competences": {"geometry": 5},
        })
        self.store.add_viewpoints([{
            "id": "VPW", "actor_id": "ActorW",
            "domain": {"activity_id": "geometry-design", "discipline": "geometry"},
            "objective": {"focus_label": "late focus", "target_artifact_id": "CycloneVessel"},
            "relationships": [], "importance": 3,
        }])
        self.workflow = ChangeWorkflow(self.store)
        # The reference.
        self.seq = 0
        self.version = 1
        self.model_doc = self.store.export_model()
        self.competences = {a.id: dict(a.competences) for a in self.store.list_actors()}
        self.changes: dict[str, dict] = {}
        self.added = 0

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def _publish(self, staged: dict | None) -> None:
        self.version += 1
        if staged is not None:
            self.model_doc = staged

    # -- rules ----------------------------------------------------------------------

    @rule(
        data=st.data(),
        artifact=st.sampled_from(ARTIFACTS),
        batch=st.sampled_from(BATCHES),
        move=st.none() | st.sampled_from(LEAF_MOVES),
    )
    def propose(self, data, artifact, batch, move):
        author = data.draw(st.sampled_from([*sorted(self.competences), "Nobody"]))
        delta = {"description": "d"}
        staged = None
        if move is not None:
            staged = copy.deepcopy(self.model_doc)
            leaf, parent = move
            next(a for a in staged["artifacts"] if a["id"] == leaf)["parent_id"] = parent
            delta["model"] = staged
        ws = Store(self.store.root).load_workspace()
        holders = {a for a in ws.actors if filtering_info_artifact(ws, artifact, a).entries.get(batch) is not None}
        change_id = f"chg-{self.seq + 1:06d}"
        self.seq += 2  # the change id and the created stamp, taken before the author is checked
        if author not in ws.actors or author not in holders:
            with pytest.raises(NotFoundError if author not in ws.actors else PermissionDeniedError):
                self.workflow.propose(author, artifact, batch, delta)
            return
        concerned = frozenset(holders - {author})
        change = self.workflow.propose(author, artifact, batch, delta)
        status = "pending" if concerned else "effective"
        assert (change.id, change.concerned, change.status.value) == (change_id, concerned, status)
        self.changes[change_id] = {
            "author": author, "concerned": concerned, "decisions": {}, "status": status, "staged": staged,
        }
        if status == "effective":
            self._publish(staged)

    @precondition(lambda self: self.changes)
    @rule(
        data=st.data(),
        any_change=st.sampled_from([False] * 3 + [True]),
        action=st.sampled_from(["approve"] * 3 + ["reject", "withdraw"]),
    )
    def decide_or_withdraw(self, data, any_change, action):
        # One rule for both, so that swarm testing, which turns rules off per
        # example, cannot leave proposals with nobody to settle them.
        # Mostly the newest pending change, so that proposals reach a verdict.
        pending = [c for c, ref in sorted(self.changes.items()) if ref["status"] == "pending"]
        change_id = data.draw(st.sampled_from(sorted(self.changes))) if any_change or not pending else pending[-1]
        ref = self.changes[change_id]
        self.seq += 1  # taken before the operation is checked, so a refusal takes one too
        if action == "withdraw":
            self._withdraw(data, change_id, ref)
        else:
            self._decide(data, change_id, ref, action)

    def _decide(self, data, change_id, ref, decision):
        undecided = sorted(ref["concerned"] - set(ref["decisions"]))
        anyone = st.sampled_from(sorted(ref["concerned"] | {ref["author"], "ActorZ"}))
        actor = data.draw(st.sampled_from(undecided) | anyone if undecided else anyone)
        expected = None
        if ref["status"] != "pending":
            expected = InvalidStateError
        elif actor not in ref["concerned"]:
            expected = PermissionDeniedError
        elif actor in ref["decisions"]:
            expected = ConflictError
        if expected is not None:
            with pytest.raises(expected):
                self.workflow.decide(change_id, actor, decision)
            return
        ref["decisions"][actor] = decision
        ref["status"] = unanimity_oracle(set(ref["concerned"]), list(ref["decisions"].items()))
        assert self.workflow.decide(change_id, actor, decision).status.value == ref["status"]
        if ref["status"] == "effective":
            self._publish(ref["staged"])

    def _withdraw(self, data, change_id, ref):
        by_author = data.draw(st.booleans())
        actor = ref["author"] if by_author else "ActorZ" if ref["author"] != "ActorZ" else "ActorY"
        if ref["status"] != "pending" or not by_author:
            with pytest.raises(InvalidStateError if ref["status"] != "pending" else PermissionDeniedError):
                self.workflow.withdraw(change_id, actor)
            return
        ref["status"] = "withdrawn"
        assert self.workflow.withdraw(change_id, actor).status.value == "withdrawn"

    @rule(data=st.data(), action=st.sampled_from(["add_actor", "add_viewpoints", "set_policy"]))
    def change_registry(self, data, action):
        # One rule for the three, so that swarm testing turns them off together.
        self.added += 1
        if action == "add_actor":
            actor_id = f"New{self.added}"
            competences = data.draw(st.dictionaries(st.sampled_from(DISCIPLINES), st.integers(1, 5), min_size=1))
            team = data.draw(st.sampled_from(["T1", "T2", "T3"]))
            self.store.add_actor({
                "id": actor_id, "name": actor_id, "role": "late joiner", "situation": "internal",
                "team_id": team, "competences": competences,
            })
            self.competences[actor_id] = competences
        elif action == "add_viewpoints":
            actor = data.draw(st.sampled_from(sorted(self.competences)))
            discipline = data.draw(st.sampled_from(sorted(self.competences[actor])))
            self.store.add_viewpoints([{
                "id": f"NVP{self.added}", "actor_id": actor,
                "domain": {"activity_id": data.draw(st.sampled_from(ACTIVITIES)), "discipline": discipline},
                "objective": {"focus_label": "late focus", "target_artifact_id": data.draw(st.sampled_from(ARTIFACTS))},
                "relationships": [], "importance": 3,
            }])
        else:
            self.store.set_policy(data.draw(st.sampled_from(POLICIES)))

    # -- invariants -----------------------------------------------------------------

    @invariant()
    def seq_moves_as_the_reference(self):
        seq_path = self.store.root / "seq"
        assert (int(seq_path.read_text()) if seq_path.exists() else 0) == self.seq

    @invariant()
    def one_version_per_effective_change(self):
        effective = sum(ref["status"] == "effective" for ref in self.changes.values())
        assert self.version == 1 + effective
        assert self.store.model_versions() == list(range(1, self.version + 1))
        assert self.store.current_version() == self.version
        assert self.store.export_model() == self.model_doc

    @invariant()
    def status_follows_the_decisions(self):
        stored = {c.id: c for c in self.store.list_changes()}
        assert sorted(stored) == sorted(self.changes)
        for change_id, ref in self.changes.items():
            change = stored[change_id]
            decisions = {a: d.value for a, d in change.decisions.items()}
            assert (change.status.value, change.concerned, decisions) == (ref["status"], ref["concerned"], ref["decisions"])
            if ref["status"] != "withdrawn":
                assert ref["status"] == unanimity_oracle(set(change.concerned), list(decisions.items()))
        annotations = sorted((a.change_id, a.actor_id) for a in self.store.list_annotations())
        assert annotations == sorted((cid, a) for cid, ref in self.changes.items() for a in ref["concerned"])


WorkflowMachine.TestCase.settings = settings(max_examples=40, stateful_step_count=30, derandomize=True, deadline=None)
TestWorkflowModel = WorkflowMachine.TestCase
