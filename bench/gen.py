"""Deterministic inputs for the benchmark: the scaled store and the fixture.

Both kinds of input come out as the same plain records (an artifact parent
map, actor competences, viewpoint tuples and policy rules). The oracle works
on these records only; the program receives only the documents rendered from
them (or, for the fixture, the bundled dataset through ``fixture.seed_store``).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

DISCIPLINES = ("geometry", "mechanic", "thermal", "fluid", "electric", "quality")
BATCHES = (
    "Artifact", "Assembly", "Behavior", "Constraints", "Electric", "Flows", "Function",
    "Geometry-Form", "Group", "Mechanic", "Requirements", "Sub-Artifact", "Thermal",
)


@dataclass(frozen=True)
class Rule:
    discipline: str  # a discipline tag or "*"
    activity: str  # an activity id or "*"
    min_competence: int
    grants: tuple[tuple[str, int], ...]  # (batch, level), sorted by batch


@dataclass(frozen=True)
class Vp:
    id: str
    actor: str
    activity: str
    discipline: str
    target: str


@dataclass
class Records:
    """Everything the oracle needs; ``parent`` changes when a staged model moves a leaf."""

    parent: dict[str, str | None]
    competences: dict[str, dict[str, int]]
    viewpoints: list[Vp]
    rules: list[Rule]
    policy_text: str
    model_doc: dict | None = None
    actor_docs: list[dict] = field(default_factory=list)
    viewpoint_docs: list[dict] = field(default_factory=list)

    def children(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for aid, pid in sorted(self.parent.items()):
            if pid is not None:
                out.setdefault(pid, []).append(aid)
        return out


@dataclass(frozen=True)
class Size:
    actors: int
    viewpoints_per_actor: int
    depth: int
    branching: int
    teams: int
    rules_per_discipline: int


FULL = Size(actors=300, viewpoints_per_actor=3, depth=5, branching=3, teams=12, rules_per_discipline=2)
QUICK = Size(actors=24, viewpoints_per_actor=3, depth=3, branching=3, teams=4, rules_per_discipline=2)

# Share of viewpoints targeting each tree level (root = level 0). Few broad
# viewpoints and many on sub-assemblies keep concerned sets at a handful of
# actors while a deep leaf is still covered by tens of viewpoints.
TARGET_LEVEL_WEIGHTS = (0.005, 0.045, 0.15, 0.3, 0.3, 0.2)


def parse_policy_text(text: str) -> list[Rule]:
    """Read the policy format into rules, independently of the program's parser."""
    rules: list[Rule] = []
    header = None
    grants: dict[str, int] = {}

    def close():
        if header is not None:
            rules.append(Rule(*header, tuple(sorted(grants.items()))))

    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        m = re.fullmatch(r"rule discipline=(\S+) activity=(\S+) competence>=(\d+)\s*", line)
        if m:
            close()
            header, grants = (m.group(1), m.group(2), int(m.group(3))), {}
            continue
        m = re.fullmatch(r"\s+grant (\S+):(\d+)\s*", line)
        if not m or header is None:
            raise ValueError(f"unreadable policy line: {line!r}")
        grants[m.group(1)] = int(m.group(2))
    close()
    return rules


def render_policy(rules: list[Rule]) -> str:
    blocks = []
    for r in rules:
        lines = [f"rule discipline={r.discipline} activity={r.activity} competence>={r.min_competence}"]
        lines += [f"  grant {b}:{lvl}" for b, lvl in r.grants]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def scaled(seed: int, size: Size = FULL) -> Records:
    """A complete ``branching``-ary artifact tree of ``depth`` levels below the root,
    ``actors`` actors with 1-3 disciplines each, ``viewpoints_per_actor`` viewpoints
    per actor, and a policy of ``rules_per_discipline`` rules per discipline plus
    one wildcard rule. Counts are fixed; the seed draws everything else."""
    rng = random.Random(seed)

    levels: list[list[str]] = [["Root"]]
    parent: dict[str, str | None] = {"Root": None}
    for depth in range(1, size.depth + 1):
        row = []
        for pid in levels[-1]:
            for k in range(1, size.branching + 1):
                aid = f"N{k}" if pid == "Root" else f"{pid}-{k}"
                parent[aid] = pid
                row.append(aid)
        levels.append(row)
    all_ids = [a for row in levels for a in row]
    leaf_level = len(levels) - 1

    activities = {d: [f"{d}-{k}" for k in (1, 2)] for d in DISCIPLINES}

    rules: list[Rule] = []
    for d in DISCIPLINES:
        for k in range(size.rules_per_discipline):
            activity = "*" if k == 0 else rng.choice(activities[d])
            batches = rng.sample(BATCHES, rng.randint(3, 5))
            rules.append(Rule(d, activity, rng.randint(1, 4), tuple(sorted((b, rng.randint(1, 4)) for b in batches))))
    rules.append(Rule("*", "*", 4, (("Artifact", 3), ("Requirements", 4))))

    actor_ids = [f"U{i:04d}" for i in range(size.actors)]
    team_ids = [f"T{i:02d}" for i in range(size.teams)]
    team_of = {a: team_ids[i % size.teams] for i, a in enumerate(actor_ids)}
    competences: dict[str, dict[str, int]] = {}
    for a in actor_ids:
        ds = rng.sample(DISCIPLINES, rng.randint(1, 3))
        competences[a] = {d: rng.randint(1, 5) for d in sorted(ds)}

    weights = TARGET_LEVEL_WEIGHTS[: leaf_level + 1]
    viewpoints: list[Vp] = []
    for a in actor_ids:
        for k in range(size.viewpoints_per_actor):
            d = rng.choice(sorted(competences[a]))
            level = rng.choices(range(leaf_level + 1), weights=weights)[0]
            viewpoints.append(Vp(f"{a}-v{k}", a, rng.choice(activities[d]), d, rng.choice(levels[level])))

    artifacts_doc = [
        {
            "id": aid,
            "name": f"Artifact {aid}",
            "description": "",
            "kind": "final_product" if pid is None else ("component" if aid in levels[leaf_level] else "sub_artifact"),
            "parent_id": pid,
        }
        for aid, pid in sorted(parent.items())
    ]
    classes = ("space", "energy", "material", "information")
    interactions = []
    for i in range(len(all_ids)):
        a, b = rng.sample(all_ids, 2)
        interactions.append(
            {"id": f"I{i:05d}", "endpoint_a": a, "endpoint_b": b, "classification": rng.choice(classes), "description": ""}
        )
    processes = [
        {
            "id": f"P-{d}",
            "name": f"{d} process",
            "activities": [
                {
                    "id": act,
                    "process_id": f"P-{d}",
                    "name": act,
                    "discipline": d,
                    "tasks": [{"id": f"{act}-t1", "activity_id": act, "name": "task"}],
                }
                for act in activities[d]
            ],
        }
        for d in sorted(DISCIPLINES)
    ]
    n = size.teams
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = rng.randint(0, 5)
    model_doc = {
        "project_id": f"scaled-{seed}",
        "root_artifact_id": "Root",
        "artifacts": artifacts_doc,
        "interactions": interactions,
        "processes": processes,
        "task_flows": [
            {"from_task": f"{activities[d][0]}-t1", "to_task": f"{activities[d][1]}-t1", "payload_description": ""}
            for d in sorted(DISCIPLINES)
        ],
        "organization": {
            "teams": [
                {
                    "id": t,
                    "name": f"team {t}",
                    "member_actor_ids": sorted(a for a in actor_ids if team_of[a] == t),
                    "responsibility_artifact_id": rng.choice(levels[1]),
                }
                for t in team_ids
            ],
            "collaboration_matrix": matrix,
        },
    }
    actor_docs = [
        {
            "id": a,
            "name": a,
            "role": "engineer",
            "situation": "internal",
            "team_id": team_of[a],
            "competences": competences[a],
        }
        for a in actor_ids
    ]
    viewpoint_docs = [
        {
            "id": vp.id,
            "actor_id": vp.actor,
            "domain": {"activity_id": vp.activity, "discipline": vp.discipline},
            "objective": {"focus_label": "focus", "target_artifact_id": vp.target},
            "relationships": [],
            "importance": 3,
        }
        for vp in viewpoints
    ]
    return Records(parent, competences, viewpoints, rules, render_policy(rules), model_doc, actor_docs, viewpoint_docs)


def fixture_records() -> Records:
    """Records of the bundled cyclone-vessel dataset; rules come from the policy text."""
    from viewfilter import fixture

    model = fixture.cyclone_vessel_model()
    return Records(
        parent={a.id: a.parent_id for a in model.artifacts},
        competences={a.id: {d: c.value for d, c in a.competences.items()} for a in fixture.example_actors()},
        viewpoints=[
            Vp(vp.id, vp.actor_id, vp.domain.activity_id, vp.domain.discipline, vp.objective.target_artifact_id)
            for vp in fixture.example_viewpoints()
        ],
        rules=parse_policy_text(fixture.DEFAULT_POLICY_TEXT),
        policy_text=fixture.DEFAULT_POLICY_TEXT,
    )
