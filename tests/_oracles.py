"""Independent oracles and frozen expected values used across the test suite.

Everything here is deliberately written against raw documents or by brute
force, without reusing the engine's own code paths, so tests check two
independent routes to the same answer.
"""

from __future__ import annotations

# Frozen step-4 expectations for the bundled example: batch -> level.
VP1_TABLE = {
    "Artifact": 1,
    "Function": 2,
    "Behavior": 2,
    "Flows": 2,
    "Geometry-Form": 1,
    "Sub-Artifact": 2,
    "Assembly": 2,
    "Constraints": 1,
    "Requirements": 2,
    "Group": 1,
}

VP2_TABLE = {
    "Mechanic": 1,
    "Artifact": 2,
    "Function": 2,
    "Behavior": 2,
    "Flows": 3,
    "Geometry-Form": 2,
    "Sub-Artifact": 3,
    "Assembly": 3,
    "Constraints": 1,
    "Requirements": 3,
    "Group": 1,
}

# Frozen end-to-end expectation: per-batch minimum over the two columns.
MERGED_TABLE = {
    "Mechanic": 1,
    "Artifact": 1,
    "Flows": 2,
    "Sub-Artifact": 2,
    "Assembly": 2,
    "Requirements": 2,
    "Geometry-Form": 1,
    "Function": 2,
    "Behavior": 2,
    "Constraints": 1,
    "Group": 1,
}


def naive_validate_model_doc(doc: dict) -> set[str]:
    """Reference validator over the raw model document; returns violation codes."""
    codes: set[str] = set()
    artifacts = doc["artifacts"]
    ids = [a["id"] for a in artifacts]
    if len(ids) != len(set(ids)):
        codes.add("decomposition.duplicate_id")
    by_id = {a["id"]: a for a in artifacts}
    roots = [a for a in artifacts if a["parent_id"] is None]
    if len(roots) == 0:
        codes.add("decomposition.no_root")
    elif len(roots) > 1:
        codes.add("decomposition.multiple_roots")
    declared = doc["root_artifact_id"]
    if declared not in by_id or by_id[declared]["parent_id"] is not None:
        codes.add("decomposition.root_mismatch")
    for a in artifacts:
        if a["parent_id"] is not None and a["parent_id"] not in by_id:
            codes.add("decomposition.dangling_parent")
    for a in artifacts:
        seen = set()
        current = a["id"]
        while current is not None and current in by_id:
            if current in seen:
                codes.add("decomposition.cycle")
                break
            seen.add(current)
            current = by_id[current]["parent_id"]

    interaction_ids = [i["id"] for i in doc["interactions"]]
    if len(interaction_ids) != len(set(interaction_ids)):
        codes.add("interaction.duplicate_id")
    for i in doc["interactions"]:
        if i["endpoint_a"] not in by_id or i["endpoint_b"] not in by_id:
            codes.add("interaction.dangling_endpoint")
        if i["endpoint_a"] == i["endpoint_b"]:
            codes.add("interaction.self_loop")

    process_ids = [p["id"] for p in doc["processes"]]
    if len(process_ids) != len(set(process_ids)):
        codes.add("process.duplicate_id")
    activity_ids = [act["id"] for p in doc["processes"] for act in p["activities"]]
    if len(activity_ids) != len(set(activity_ids)):
        codes.add("activity.duplicate_id")
    task_ids = []
    for p in doc["processes"]:
        for act in p["activities"]:
            if act["process_id"] != p["id"]:
                codes.add("activity.parent_mismatch")
            for t in act["tasks"]:
                task_ids.append(t["id"])
                if t["activity_id"] != act["id"]:
                    codes.add("task.parent_mismatch")
    if len(task_ids) != len(set(task_ids)):
        codes.add("task.duplicate_id")
    for f in doc["task_flows"]:
        if f["from_task"] not in task_ids or f["to_task"] not in task_ids:
            codes.add("flow.dangling_task")
        if f["from_task"] == f["to_task"]:
            codes.add("flow.self_loop")

    org = doc["organization"]
    team_ids = [t["id"] for t in org["teams"]]
    if len(team_ids) != len(set(team_ids)):
        codes.add("organization.duplicate_team")
    matrix = org["collaboration_matrix"]
    n = len(org["teams"])
    if len(matrix) != n or any(len(row) != n for row in matrix):
        codes.add("organization.matrix_shape")
    else:
        for i in range(n):
            if matrix[i][i] != 0:
                codes.add("organization.nonzero_diagonal")
            for j in range(n):
                if matrix[i][j] != matrix[j][i]:
                    codes.add("organization.asymmetric_matrix")
    for t in org["teams"]:
        if t["responsibility_artifact_id"] not in by_id:
            codes.add("organization.dangling_responsibility")
    return codes


def naive_children(doc: dict, artifact_id: str) -> list[str]:
    """Child ids by brute scan of parent links in the raw document."""
    return sorted(a["id"] for a in doc["artifacts"] if a["parent_id"] == artifact_id)


def naive_interactions(doc: dict, artifact_id: str, classification: str | None = None) -> list[str]:
    """Interaction ids touching the artifact, by brute scan of the document."""
    return sorted(
        i["id"]
        for i in doc["interactions"]
        if artifact_id in (i["endpoint_a"], i["endpoint_b"])
        and (classification is None or i["classification"] == classification)
    )


def sort_by_competence(pairs: list[tuple[str, int]]) -> list[str]:
    """Comparison-sort oracle for classification: (vp_id, competence) pairs."""
    return [vp_id for vp_id, _ in sorted(pairs, key=lambda p: (-p[1], p[0]))]


def brute_force_merge(level_maps: list[dict[str, int]]) -> dict[str, int]:
    """One-shot union/minimum over per-viewpoint batch->level maps."""
    merged: dict[str, int] = {}
    for levels in level_maps:
        for batch, level in levels.items():
            merged[batch] = min(level, merged.get(batch, level))
    return merged


def brute_force_provenance(lists: list[tuple[str, dict[str, int]]]) -> dict[str, set[str]]:
    """Batch -> set of viewpoint ids whose list contains the batch."""
    out: dict[str, set[str]] = {}
    for vp_id, levels in lists:
        for batch in levels:
            out.setdefault(batch, set()).add(vp_id)
    return out


def unanimity_oracle(concerned: set[str], applied: list[tuple[str, str]]) -> str:
    """Final status from the decision trace: one reject kills, unanimity passes."""
    decided = set()
    for actor, decision in applied:
        if decision == "reject":
            return "rejected"
        decided.add(actor)
    return "effective" if decided == concerned else "pending"
