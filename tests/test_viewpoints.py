from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import sort_by_competence
from viewfilter.errors import InvalidInputError, NotFoundError
from viewfilter.viewpoints import (
    Actor,
    CompetenceLevel,
    RelationshipKind,
    Situation,
    Viewpoint,
    ViewpointDomain,
    ViewpointObjective,
    ViewpointRelationship,
    classification_vp,
    filtering_list_vp_artifact,
    restitution_list_viewpoint,
    validate_registry,
)

ARTIFACT_IDS = [
    "CycloneVessel", "InletAssembly", "BarrelSection", "BarrelShell",
    "DustOutlet", "DustValve", "MountLegs",
]


def _vp(vp_id, discipline, target="CycloneVessel", actor_id="A"):
    return Viewpoint(
        id=vp_id,
        actor_id=actor_id,
        domain=ViewpointDomain(activity_id="geometry-design", discipline=discipline),
        objective=ViewpointObjective(focus_label="focus", target_artifact_id=target),
    )


class TestCompetenceLevel:
    @pytest.mark.parametrize("value", [0, 6, -1, 3.5, True])
    def test_bounds_enforced(self, value):
        with pytest.raises(InvalidInputError):
            CompetenceLevel(value)

    def test_ordering(self):
        assert CompetenceLevel(2) < CompetenceLevel(5)


class TestRestitution:
    def test_actor_with_two_focuses(self, workspace):
        vps = restitution_list_viewpoint(workspace.actors, workspace.viewpoints, "ActorX")
        assert [vp.id for vp in vps] == ["VP1", "VP2"]

    def test_actor_without_viewpoints(self, workspace):
        registry = {k: v for k, v in workspace.viewpoints.items() if k != "VP4"}
        assert restitution_list_viewpoint(workspace.actors, registry, "ActorZ") == []

    def test_unknown_actor(self, workspace):
        with pytest.raises(NotFoundError):
            restitution_list_viewpoint(workspace.actors, workspace.viewpoints, "Nobody")

    def test_partitions_registry_by_actor(self, workspace):
        seen = []
        for actor_id in workspace.actors:
            seen.extend(vp.id for vp in restitution_list_viewpoint(workspace.actors, workspace.viewpoints, actor_id))
        assert sorted(seen) == sorted(workspace.viewpoints)


class TestArtifactFiltering:
    def test_vessel_viewpoints_cover_the_vessel(self, workspace):
        vps = [workspace.viewpoints["VP1"], workspace.viewpoints["VP2"]]
        assert filtering_list_vp_artifact(workspace.model, vps, "CycloneVessel") == vps

    def test_ancestor_target_covers_components(self, workspace):
        vps = [workspace.viewpoints["VP1"], workspace.viewpoints["VP2"]]
        assert filtering_list_vp_artifact(workspace.model, vps, "BarrelShell") == vps

    def test_descendant_target_does_not_cover_parent(self, workspace):
        vps = [workspace.viewpoints["VP4"]]  # targets DustOutlet
        assert filtering_list_vp_artifact(workspace.model, vps, "CycloneVessel") == []
        assert filtering_list_vp_artifact(workspace.model, vps, "DustValve") == vps

    def test_unrelated_subtree(self, workspace):
        assert filtering_list_vp_artifact(workspace.model, [workspace.viewpoints["VP4"]], "InletDuct") == []

    def test_empty_input(self, workspace):
        assert filtering_list_vp_artifact(workspace.model, [], "CycloneVessel") == []

    def test_unknown_artifact(self, workspace):
        with pytest.raises(NotFoundError):
            filtering_list_vp_artifact(workspace.model, [], "Ghost")

    @given(
        artifact_id=st.sampled_from(ARTIFACT_IDS),
        picks=st.lists(st.sampled_from(["VP1", "VP2", "VP3", "VP4"]), unique=True),
    )
    @settings(max_examples=100)
    def test_subset_and_idempotent(self, workspace, artifact_id, picks):
        vps = [workspace.viewpoints[vp_id] for vp_id in sorted(picks)]
        once = filtering_list_vp_artifact(workspace.model, vps, artifact_id)
        assert all(vp in vps for vp in once)
        assert filtering_list_vp_artifact(workspace.model, once, artifact_id) == once


class TestClassification:
    def test_fixture_order_mechanic_before_geometry(self, workspace):
        vps = [workspace.viewpoints["VP1"], workspace.viewpoints["VP2"]]
        ordered = classification_vp(workspace.actors, vps)
        assert [vp.id for vp in ordered] == ["VP2", "VP1"]

    def test_tie_broken_by_id(self):
        actor = Actor("A", "A", "r", Situation.INTERNAL, "T1",
                      {"d1": CompetenceLevel(3), "d2": CompetenceLevel(3)})
        vps = [_vp("VPB", "d2"), _vp("VPA", "d1")]
        ordered = classification_vp({"A": actor}, vps)
        assert [vp.id for vp in ordered] == ["VPA", "VPB"]

    def test_singleton_identity(self, workspace):
        vps = [workspace.viewpoints["VP3"]]
        assert classification_vp(workspace.actors, vps) == vps

    def test_missing_competence_names_viewpoint(self):
        actor = Actor("A", "A", "r", Situation.INTERNAL, "T1", {"d1": CompetenceLevel(3)})
        with pytest.raises(InvalidInputError, match="VPX"):
            classification_vp({"A": actor}, [_vp("VPX", "other")])

    @given(data=st.data())
    @settings(max_examples=150)
    def test_permutation_and_nonincreasing(self, data):
        n = data.draw(st.integers(0, 8))
        competences = {f"d{i}": CompetenceLevel(data.draw(st.integers(1, 5))) for i in range(n)}
        actor = Actor("A", "A", "r", Situation.INTERNAL, "T1", competences)
        vps = [_vp(f"VP{i:02d}", f"d{i}") for i in range(n)]
        shuffled = data.draw(st.permutations(vps))
        ordered = classification_vp({"A": actor}, shuffled)
        assert sorted(vp.id for vp in ordered) == sorted(vp.id for vp in vps)
        levels = [competences[vp.domain.discipline].value for vp in ordered]
        assert levels == sorted(levels, reverse=True)
        oracle = sort_by_competence([(vp.id, competences[vp.domain.discipline].value) for vp in vps])
        assert [vp.id for vp in ordered] == oracle


class TestRegistryValidation:
    def test_example_registry_is_clean(self, workspace):
        assert validate_registry(workspace.model, workspace.actors, workspace.viewpoints) == []

    def test_dangling_references_reported(self, workspace):
        bad = _vp("VPX", "geometry", target="Ghost", actor_id="Nobody")
        registry = {**workspace.viewpoints, "VPX": bad}
        codes = {v.code for v in validate_registry(workspace.model, workspace.actors, registry)}
        assert codes == {"viewpoint.unknown_actor", "viewpoint.unknown_artifact"}

    @pytest.mark.parametrize(
        ("change", "code"),
        [
            ({"domain": ViewpointDomain("no-such-activity", "geometry")}, "viewpoint.unknown_activity"),
            ({"relationships": (ViewpointRelationship("VPX", RelationshipKind.REFINES),)}, "viewpoint.relationship_self"),
        ],
        ids=["unknown_activity", "relationship_self"],
    )
    def test_single_fault_yields_exactly_its_code(self, workspace, change, code):
        bad = replace(_vp("VPX", "geometry", actor_id="ActorX"), **change)
        registry = {**workspace.viewpoints, "VPX": bad}
        violations = validate_registry(workspace.model, workspace.actors, registry)
        assert [(v.code, v.subject) for v in violations] == [(code, "VPX")]

    def test_discipline_must_be_competent(self, workspace):
        bad = _vp("VPX", "astrology", actor_id="ActorX")
        registry = {**workspace.viewpoints, "VPX": bad}
        codes = {v.code for v in validate_registry(workspace.model, workspace.actors, registry)}
        assert codes == {"viewpoint.discipline_not_competent"}

    def test_importance_bounds(self):
        with pytest.raises(InvalidInputError):
            Viewpoint(
                id="VPX",
                actor_id="A",
                domain=ViewpointDomain("geometry-design", "geometry"),
                objective=ViewpointObjective("focus", "CycloneVessel"),
                importance=7,
            )
