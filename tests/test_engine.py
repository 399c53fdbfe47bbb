import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import MERGED_TABLE, VP1_TABLE, VP2_TABLE, brute_force_merge, brute_force_provenance
from _strategies import workspaces
from viewfilter.engine import (
    AuditEntry,
    FilterResult,
    covering_viewpoints,
    filtering_info_artifact,
    optimize_list_connexion_level,
)
from viewfilter.errors import NotFoundError
from viewfilter.policy import ConnexionEntry, ConnexionLevelList, restitution_list_connexion_level
from viewfilter.viewpoints import classification_vp, filtering_list_vp_artifact, restitution_list_viewpoint

BATCHES = [
    "Artifact", "Assembly", "Behavior", "Constraints", "Flows", "Function",
    "Geometry-Form", "Group", "Mechanic", "Requirements", "Sub-Artifact", "Specs",
]
VP_IDS = [f"VP{i}" for i in range(1, 9)]


@st.composite
def connexion_lists(draw):
    batches = draw(st.lists(st.sampled_from(BATCHES), unique=True, max_size=12))
    entries = [
        ConnexionEntry(
            batch,
            draw(st.integers(1, 5)),
            draw(st.frozensets(st.sampled_from(VP_IDS), min_size=1, max_size=3)),
        )
        for batch in batches
    ]
    return ConnexionLevelList.from_entries(entries)


@st.composite
def viewpoint_lists(draw):
    """Per-viewpoint lists the way the pipeline produces them: one vp each."""
    count = draw(st.integers(1, 8))
    out = []
    for i in range(count):
        levels = draw(st.dictionaries(st.sampled_from(BATCHES), st.integers(1, 5), max_size=12))
        out.append((VP_IDS[i], ConnexionLevelList.from_levels(levels, frozenset({VP_IDS[i]}))))
    return out


def _fold(lists):
    merged = lists[0]
    for current in lists[1:]:
        merged = optimize_list_connexion_level(current, merged)
    return merged


class TestMerge:
    def test_worked_example_columns_merge_to_min(self):
        vp1 = ConnexionLevelList.from_levels(VP1_TABLE, frozenset({"VP1"}))
        vp2 = ConnexionLevelList.from_levels(VP2_TABLE, frozenset({"VP2"}))
        merged = optimize_list_connexion_level(vp1, vp2)
        assert merged.levels() == MERGED_TABLE
        assert len(merged) == 11
        assert merged.get("Mechanic").provenance == frozenset({"VP2"})
        assert merged.get("Artifact").provenance == frozenset({"VP1", "VP2"})

    @given(lst=connexion_lists())
    @settings(max_examples=250)
    def test_idempotent(self, lst):
        assert optimize_list_connexion_level(lst, lst) == lst

    @given(lst=connexion_lists())
    @settings(max_examples=250)
    def test_empty_identity(self, lst):
        empty = ConnexionLevelList()
        assert optimize_list_connexion_level(lst, empty) == lst
        assert optimize_list_connexion_level(empty, lst) == lst

    @given(a=connexion_lists(), b=connexion_lists())
    @settings(max_examples=250)
    def test_commutative(self, a, b):
        assert optimize_list_connexion_level(a, b) == optimize_list_connexion_level(b, a)

    @given(a=connexion_lists(), b=connexion_lists(), c=connexion_lists())
    @settings(max_examples=250)
    def test_associative(self, a, b, c):
        left = optimize_list_connexion_level(optimize_list_connexion_level(a, b), c)
        right = optimize_list_connexion_level(a, optimize_list_connexion_level(b, c))
        assert left == right

    @given(lists=viewpoint_lists(), data=st.data())
    @settings(max_examples=250)
    def test_fold_matches_brute_force_under_any_order(self, lists, data):
        shuffled = data.draw(st.permutations(lists))
        merged = _fold([lst for _, lst in shuffled])
        assert merged.levels() == brute_force_merge([lst.levels() for _, lst in lists])
        expected_provenance = brute_force_provenance([(vp, lst.levels()) for vp, lst in lists])
        assert {e.batch: set(e.provenance) for e in merged} == expected_provenance

    @given(lists=viewpoint_lists(), extra=connexion_lists())
    @settings(max_examples=250)
    def test_adding_a_viewpoint_is_monotone(self, lists, extra):
        base = _fold([lst for _, lst in lists])
        grown = optimize_list_connexion_level(extra, base)
        assert set(base.levels()) <= set(grown.levels())
        assert all(grown.levels()[batch] <= level for batch, level in base.levels().items())


class TestPipeline:
    def test_end_to_end_worked_example(self, workspace):
        result = filtering_info_artifact(workspace, "CycloneVessel", "ActorX")
        assert result.entries.levels() == MERGED_TABLE
        assert len(result.entries) == 11
        assert [a.viewpoint_id for a in result.audit] == ["VP2", "VP1"]
        assert result.audit[0].entries.levels() == VP2_TABLE
        assert result.audit[1].entries.levels() == VP1_TABLE

    def test_component_inherits_vessel_viewpoints(self, workspace):
        assert filtering_info_artifact(workspace, "BarrelShell", "ActorX").entries.levels() == MERGED_TABLE

    def test_entries_invariant_under_audit_reordering(self, workspace):
        from itertools import permutations

        result = filtering_info_artifact(workspace, "CycloneVessel", "ActorX")
        for ordering in permutations(a.entries for a in result.audit):
            assert _fold(list(ordering)) == result.entries

    def test_single_qualifying_viewpoint_is_fold_seed(self, workspace):
        result = filtering_info_artifact(workspace, "CycloneVessel", "ActorY")
        assert result.entries.levels() == VP1_TABLE
        assert [a.viewpoint_id for a in result.audit] == ["VP3"]
        assert all(e.provenance == frozenset({"VP3"}) for e in result.entries)

    def test_no_stake_is_empty_success(self, workspace):
        result = filtering_info_artifact(workspace, "CycloneVessel", "ActorZ")
        assert len(result.entries) == 0
        assert result.audit == ()

    def test_unknown_actor(self, workspace):
        with pytest.raises(NotFoundError):
            filtering_info_artifact(workspace, "CycloneVessel", "Nobody")

    def test_unknown_artifact(self, workspace):
        with pytest.raises(NotFoundError):
            filtering_info_artifact(workspace, "Ghost", "ActorX")

    def test_unknown_actor_reported_before_unknown_artifact(self, workspace):
        with pytest.raises(NotFoundError, match="^unknown actor: Nobody$"):
            filtering_info_artifact(workspace, "Ghost", "Nobody")

    @pytest.mark.parametrize(
        "artifact_id,actor_id",
        [
            ("CycloneVessel", "ActorX"),
            ("BarrelShell", "ActorX"),
            ("CycloneVessel", "ActorY"),
            ("DustValve", "ActorZ"),
            ("DustOutlet", "ActorZ"),
        ],
    )
    def test_result_invariants_reconstruct_from_audit(self, workspace, artifact_id, actor_id):
        result = filtering_info_artifact(workspace, artifact_id, actor_id)
        audit_levels = [(a.viewpoint_id, a.entries.levels()) for a in result.audit]
        assert result.entries.levels() == brute_force_merge([levels for _, levels in audit_levels])
        provenance = brute_force_provenance(audit_levels)
        assert {e.batch: set(e.provenance) for e in result.entries} == provenance


def _five_steps_by_scan(ws, artifact_id, actor_id):
    """The five steps as separate calls, step 1 scanning every viewpoint."""
    vps = restitution_list_viewpoint(ws.actors, ws.viewpoints, actor_id)
    ordered = classification_vp(ws.actors, filtering_list_vp_artifact(ws.model, vps, artifact_id))
    per_viewpoint = [restitution_list_connexion_level(vp, ws.actors[vp.actor_id], ws.policy) for vp in ordered]
    if not per_viewpoint:
        return FilterResult(actor_id, artifact_id, ConnexionLevelList())
    audit = tuple(AuditEntry(vp.id, lst) for vp, lst in zip(ordered, per_viewpoint))
    return FilterResult(actor_id, artifact_id, _fold(per_viewpoint), audit)


class TestByActorIndex:
    @given(ws=workspaces())
    @settings(max_examples=60, deadline=None)
    def test_indexed_steps_match_the_scan(self, ws):
        for actor_id in ws.actors:
            vps = restitution_list_viewpoint(ws.actors, ws.viewpoints, actor_id)
            assert ws.viewpoints_by_actor.get(actor_id, []) == vps
            for artifact_id in ws.model.artifacts_by_id:
                assert covering_viewpoints(ws, artifact_id, actor_id) == filtering_list_vp_artifact(ws.model, vps, artifact_id)
                assert filtering_info_artifact(ws, artifact_id, actor_id) == _five_steps_by_scan(ws, artifact_id, actor_id)
