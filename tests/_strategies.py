"""Hypothesis strategies shared by several test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from viewfilter import fixture
from viewfilter.engine import Workspace
from viewfilter.policy import Grant, Policy, PolicyRule
from viewfilter.viewpoints import CompetenceLevel, Viewpoint, ViewpointDomain, ViewpointObjective

BATCHES = ["Artifact", "Flows", "Geometry-Form", "Group", "Mechanic", "Sub-Artifact"]


@st.composite
def workspaces(draw):
    """The fixture's model and actors with drawn viewpoints and a drawn policy.

    The viewpoints mapping is in a drawn order, not by id, and some
    viewpoints name an actor that is not registered.
    """
    base = fixture.build_workspace()
    artifacts = sorted(base.model.artifacts_by_id)
    activities = sorted(base.model.activities_by_id)
    disciplines = sorted({d for actor in base.actors.values() for d in actor.competences})
    viewpoints = []
    for i in range(draw(st.integers(0, 12))):
        actor_id = draw(st.sampled_from([*sorted(base.actors), "Ghost"]))
        actor = base.actors.get(actor_id)
        domain = ViewpointDomain(
            draw(st.sampled_from(activities)),
            draw(st.sampled_from(sorted(actor.competences) if actor else disciplines)),
        )
        objective = ViewpointObjective("focus", draw(st.sampled_from(artifacts)))
        viewpoints.append(Viewpoint(f"VP{i}", actor_id, domain, objective))
    rules = []
    for _ in range(draw(st.integers(0, 4))):
        batches = draw(st.lists(st.sampled_from(BATCHES), unique=True, min_size=1, max_size=4))
        rules.append(
            PolicyRule(
                draw(st.sampled_from([*disciplines, "*"])),
                draw(st.sampled_from([*activities, "*"])),
                CompetenceLevel(draw(st.integers(1, 5))),
                tuple(Grant(batch, draw(st.integers(1, 3))) for batch in batches),
            )
        )
    order = draw(st.permutations(viewpoints))
    return Workspace(base.model, base.actors, {vp.id: vp for vp in order}, Policy(tuple(rules)))
