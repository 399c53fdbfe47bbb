"""Single-fault corruptions of the example model document.

Each entry mutates one logical fact and is expected to trigger exactly one
violation code. Shared by the validation tests and the acceptance suite.
"""

from __future__ import annotations


def _artifact(doc, artifact_id):
    return next(a for a in doc["artifacts"] if a["id"] == artifact_id)


def _interaction(doc, interaction_id):
    return next(i for i in doc["interactions"] if i["id"] == interaction_id)


def _second_root(doc):
    _artifact(doc, "BarrelSection")["parent_id"] = None


def _dangling_parent(doc):
    _artifact(doc, "MountLegs")["parent_id"] = "NoSuchPart"


def _parent_cycle(doc):
    # BarrelShell's parent is BarrelSection; pointing the parent back closes a 2-cycle.
    _artifact(doc, "BarrelSection")["parent_id"] = "BarrelShell"


def _duplicate_artifact(doc):
    doc["artifacts"].append(
        {
            "id": "MountLegs",
            "name": "Support legs (duplicate)",
            "description": "",
            "kind": "component",
            "parent_id": "MountingFrame",
        }
    )


def _root_mismatch(doc):
    doc["root_artifact_id"] = "BarrelSection"


def _dangling_endpoint(doc):
    _interaction(doc, "I01")["endpoint_b"] = "Ghost"


def _interaction_self_loop(doc):
    entry = _interaction(doc, "I02")
    entry["endpoint_b"] = entry["endpoint_a"]


def _duplicate_interaction(doc):
    _interaction(doc, "I03")["id"] = "I04"


def _asymmetric_matrix(doc):
    doc["organization"]["collaboration_matrix"][0][1] = 9


def _nonzero_diagonal(doc):
    doc["organization"]["collaboration_matrix"][1][1] = 1


def _dangling_responsibility(doc):
    doc["organization"]["teams"][2]["responsibility_artifact_id"] = "Ghost"


def _dangling_flow(doc):
    doc["task_flows"][0]["from_task"] = "TSK-NOPE"


def _flow_self_loop(doc):
    flow = doc["task_flows"][0]
    flow["to_task"] = flow["from_task"]


def _activity_parent_mismatch(doc):
    doc["processes"][0]["activities"][0]["process_id"] = "P2"


def _task_parent_mismatch(doc):
    doc["processes"][0]["activities"][0]["tasks"][0]["activity_id"] = "mechanical-design"


def _duplicate_process(doc):
    doc["processes"].append({"id": "P1", "name": "Duplicate process", "activities": []})


def _duplicate_activity(doc):
    process = doc["processes"][0]
    process["activities"].append({**process["activities"][0], "name": "Duplicate activity", "tasks": []})


def _duplicate_task(doc):
    tasks = doc["processes"][0]["activities"][0]["tasks"]
    tasks.append({**tasks[0], "name": "Duplicate task"})


def _duplicate_team(doc):
    teams = doc["organization"]["teams"]
    teams[1]["id"] = teams[0]["id"]


CORRUPTIONS = {
    "second_root": (_second_root, "decomposition.multiple_roots"),
    "dangling_parent": (_dangling_parent, "decomposition.dangling_parent"),
    "parent_cycle": (_parent_cycle, "decomposition.cycle"),
    "duplicate_artifact": (_duplicate_artifact, "decomposition.duplicate_id"),
    "root_mismatch": (_root_mismatch, "decomposition.root_mismatch"),
    "dangling_endpoint": (_dangling_endpoint, "interaction.dangling_endpoint"),
    "interaction_self_loop": (_interaction_self_loop, "interaction.self_loop"),
    "duplicate_interaction": (_duplicate_interaction, "interaction.duplicate_id"),
    "asymmetric_matrix": (_asymmetric_matrix, "organization.asymmetric_matrix"),
    "nonzero_diagonal": (_nonzero_diagonal, "organization.nonzero_diagonal"),
    "dangling_responsibility": (_dangling_responsibility, "organization.dangling_responsibility"),
    "dangling_flow": (_dangling_flow, "flow.dangling_task"),
    "flow_self_loop": (_flow_self_loop, "flow.self_loop"),
    "activity_parent_mismatch": (_activity_parent_mismatch, "activity.parent_mismatch"),
    "task_parent_mismatch": (_task_parent_mismatch, "task.parent_mismatch"),
    "duplicate_process": (_duplicate_process, "process.duplicate_id"),
    "duplicate_activity": (_duplicate_activity, "activity.duplicate_id"),
    "duplicate_task": (_duplicate_task, "task.duplicate_id"),
    "duplicate_team": (_duplicate_team, "organization.duplicate_team"),
}
