"""Product, process, and organization model with validation and query operations.

The model ties together three submodels: the product decomposition tree with
classified interactions between components, the development process graph
(processes, activities, tasks, and task flows), and the supply-chain
organization (teams plus their collaboration-frequency matrix). Instances are
immutable values; every query here is pure and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable

from .errors import InvalidInputError, NotFoundError


class ArtifactKind(str, Enum):
    FINAL_PRODUCT = "final_product"
    SUB_ARTIFACT = "sub_artifact"
    COMPONENT = "component"


class InteractionClass(str, Enum):
    SPACE = "space"
    ENERGY = "energy"
    MATERIAL = "material"
    INFORMATION = "information"


@dataclass(frozen=True)
class Artifact:
    """One node of the product decomposition tree (root has no parent)."""

    id: str
    name: str
    kind: ArtifactKind
    parent_id: str | None = None
    description: str = ""


@dataclass(frozen=True)
class Interaction:
    """A classified interaction between two distinct artifacts."""

    id: str
    endpoint_a: str
    endpoint_b: str
    classification: InteractionClass
    description: str = ""


@dataclass(frozen=True)
class Task:
    id: str
    activity_id: str
    name: str


@dataclass(frozen=True)
class Activity:
    id: str
    process_id: str
    name: str
    discipline: str
    tasks: tuple[Task, ...] = ()


@dataclass(frozen=True)
class Process:
    id: str
    name: str
    activities: tuple[Activity, ...] = ()


@dataclass(frozen=True)
class TaskFlow:
    """Directed information/data flow between two tasks (self-loops forbidden)."""

    from_task: str
    to_task: str
    payload_description: str = ""


@dataclass(frozen=True)
class Team:
    id: str
    name: str
    member_actor_ids: tuple[str, ...]
    responsibility_artifact_id: str


@dataclass(frozen=True)
class Organization:
    """Teams plus a symmetric, zero-diagonal collaboration-frequency matrix.

    ``collaboration_matrix[i][j]`` is the required collaboration frequency
    between ``teams[i]`` and ``teams[j]``.
    """

    teams: tuple[Team, ...]
    collaboration_matrix: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Violation:
    """One invariant violation, identified by a stable machine-readable code."""

    code: str
    subject: str
    detail: str

    def to_doc(self) -> dict:
        return {"code": self.code, "subject": self.subject, "detail": self.detail}


@dataclass(frozen=True)
class PpcoModel:
    """Immutable snapshot of the whole product/process/organization model."""

    project_id: str
    root_artifact_id: str
    artifacts: tuple[Artifact, ...]
    interactions: tuple[Interaction, ...]
    processes: tuple[Process, ...]
    task_flows: tuple[TaskFlow, ...]
    organization: Organization

    @cached_property
    def artifacts_by_id(self) -> dict[str, Artifact]:
        return {a.id: a for a in self.artifacts}

    @cached_property
    def children_by_parent(self) -> dict[str, tuple[Artifact, ...]]:
        children: dict[str, list[Artifact]] = {}
        for a in self.artifacts:
            if a.parent_id is not None:
                children.setdefault(a.parent_id, []).append(a)
        return {pid: tuple(sorted(cs, key=lambda a: a.id)) for pid, cs in children.items()}

    @cached_property
    def activities_by_id(self) -> dict[str, Activity]:
        return {act.id: act for p in self.processes for act in p.activities}

    @cached_property
    def tasks_by_id(self) -> dict[str, Task]:
        return {t.id: t for p in self.processes for act in p.activities for t in act.tasks}

    @cached_property
    def teams_by_id(self) -> dict[str, Team]:
        return {t.id: t for t in self.organization.teams}

    def artifact(self, artifact_id: str) -> Artifact:
        try:
            return self.artifacts_by_id[artifact_id]
        except KeyError:
            raise NotFoundError(f"unknown artifact: {artifact_id}") from None


def decompose(model: PpcoModel, artifact_id: str) -> list[Artifact]:
    """Direct children of an artifact, sorted by id; empty for a leaf."""
    model.artifact(artifact_id)
    return list(model.children_by_parent.get(artifact_id, ()))


def ancestors(model: PpcoModel, artifact_id: str) -> list[str]:
    """Ids of the artifact's ancestors, nearest first; cycle-safe."""
    model.artifact(artifact_id)
    chain: list[str] = []
    seen = {artifact_id}
    current = model.artifacts_by_id[artifact_id].parent_id
    while current is not None and current not in seen:
        chain.append(current)
        seen.add(current)
        node = model.artifacts_by_id.get(current)
        current = node.parent_id if node else None
    return chain


def interactions_of(
    model: PpcoModel,
    artifact_id: str,
    classification: InteractionClass | str | None = None,
) -> list[Interaction]:
    """All interactions touching the artifact, optionally of one class, by id."""
    model.artifact(artifact_id)
    if classification is not None and not isinstance(classification, InteractionClass):
        try:
            classification = InteractionClass(classification)
        except ValueError:
            raise InvalidInputError(f"unknown interaction class: {classification}") from None
    hits = [
        i
        for i in model.interactions
        if artifact_id in (i.endpoint_a, i.endpoint_b)
        and (classification is None or i.classification is classification)
    ]
    return sorted(hits, key=lambda i: i.id)


def team_collaboration(model: PpcoModel, team_a: str, team_b: str) -> int:
    """Collaboration frequency between two teams (symmetric, zero diagonal)."""
    org = model.organization
    index = {t.id: i for i, t in enumerate(org.teams)}
    for tid in (team_a, team_b):
        if tid not in index:
            raise NotFoundError(f"unknown team: {tid}")
    return org.collaboration_matrix[index[team_a]][index[team_b]]


def _duplicates(ids: Iterable[str]) -> list[str]:
    seen: set[str] = set()
    dups: list[str] = []
    for i in ids:
        if i in seen and i not in dups:
            dups.append(i)
        seen.add(i)
    return dups


def _validate_decomposition(model: PpcoModel, out: list[Violation]) -> None:
    ids = [a.id for a in model.artifacts]
    for dup in _duplicates(ids):
        out.append(Violation("decomposition.duplicate_id", dup, "artifact id used more than once"))
    known = set(ids)

    roots = [a.id for a in model.artifacts if a.parent_id is None]
    if not roots:
        out.append(Violation("decomposition.no_root", model.project_id, "no artifact without a parent"))
    elif len(roots) > 1:
        out.append(
            Violation("decomposition.multiple_roots", ",".join(sorted(roots)), "more than one artifact without a parent")
        )

    if model.root_artifact_id not in known:
        out.append(
            Violation("decomposition.root_mismatch", model.root_artifact_id, "declared root does not resolve")
        )
    elif model.artifacts_by_id[model.root_artifact_id].parent_id is not None:
        out.append(
            Violation("decomposition.root_mismatch", model.root_artifact_id, "declared root has a parent")
        )

    for a in model.artifacts:
        if a.parent_id is not None and a.parent_id not in known:
            out.append(Violation("decomposition.dangling_parent", a.id, f"parent {a.parent_id} does not resolve"))

    # Cycle check over parent links: walk up from every node, marking finished
    # chains so the scan stays linear.
    cleared: set[str] = set()
    flagged: set[str] = set()
    for a in model.artifacts:
        path: list[str] = []
        on_path: set[str] = set()
        current: str | None = a.id
        while current is not None and current in model.artifacts_by_id and current not in cleared:
            if current in on_path:
                cycle_ids = path[path.index(current):]
                if not flagged & set(cycle_ids):
                    out.append(
                        Violation("decomposition.cycle", ",".join(sorted(cycle_ids)), "parent links form a cycle")
                    )
                flagged.update(cycle_ids)
                break
            path.append(current)
            on_path.add(current)
            current = model.artifacts_by_id[current].parent_id
        cleared.update(path)


def _validate_interactions(model: PpcoModel, out: list[Violation]) -> None:
    for dup in _duplicates(i.id for i in model.interactions):
        out.append(Violation("interaction.duplicate_id", dup, "interaction id used more than once"))
    known = set(model.artifacts_by_id)
    for i in model.interactions:
        for endpoint in (i.endpoint_a, i.endpoint_b):
            if endpoint not in known:
                out.append(
                    Violation("interaction.dangling_endpoint", i.id, f"endpoint {endpoint} does not resolve")
                )
        if i.endpoint_a == i.endpoint_b:
            out.append(Violation("interaction.self_loop", i.id, "both endpoints are the same artifact"))


def _validate_processes(model: PpcoModel, out: list[Violation]) -> None:
    for dup in _duplicates(p.id for p in model.processes):
        out.append(Violation("process.duplicate_id", dup, "process id used more than once"))
    for dup in _duplicates(a.id for p in model.processes for a in p.activities):
        out.append(Violation("activity.duplicate_id", dup, "activity id used more than once"))
    for dup in _duplicates(t.id for p in model.processes for a in p.activities for t in a.tasks):
        out.append(Violation("task.duplicate_id", dup, "task id used more than once"))

    for p in model.processes:
        for a in p.activities:
            if a.process_id != p.id:
                out.append(
                    Violation("activity.parent_mismatch", a.id, f"declares process {a.process_id}, nested under {p.id}")
                )
            for t in a.tasks:
                if t.activity_id != a.id:
                    out.append(
                        Violation("task.parent_mismatch", t.id, f"declares activity {t.activity_id}, nested under {a.id}")
                    )

    tasks = set(model.tasks_by_id)
    for f in model.task_flows:
        subject = f"{f.from_task}->{f.to_task}"
        for endpoint in (f.from_task, f.to_task):
            if endpoint not in tasks:
                out.append(Violation("flow.dangling_task", subject, f"task {endpoint} does not resolve"))
        if f.from_task == f.to_task:
            out.append(Violation("flow.self_loop", subject, "flow starts and ends on the same task"))


def _validate_organization(model: PpcoModel, out: list[Violation], actor_ids: set[str] | None) -> None:
    org = model.organization
    for dup in _duplicates(t.id for t in org.teams):
        out.append(Violation("organization.duplicate_team", dup, "team id used more than once"))

    n = len(org.teams)
    matrix = org.collaboration_matrix
    if len(matrix) != n or any(len(row) != n for row in matrix):
        out.append(
            Violation("organization.matrix_shape", "collaboration_matrix", f"matrix is not {n}x{n}")
        )
    else:
        for i in range(n):
            if matrix[i][i] != 0:
                out.append(
                    Violation("organization.nonzero_diagonal", org.teams[i].id, f"self frequency is {matrix[i][i]}")
                )
            for j in range(i + 1, n):
                if matrix[i][j] != matrix[j][i]:
                    out.append(
                        Violation(
                            "organization.asymmetric_matrix",
                            f"{org.teams[i].id},{org.teams[j].id}",
                            f"{matrix[i][j]} != {matrix[j][i]}",
                        )
                    )
        # One report per unordered pair; lower-triangle-only negatives already
        # surface as asymmetry.
        for i in range(n):
            for j in range(i, n):
                if matrix[i][j] < 0:
                    out.append(
                        Violation(
                            "organization.negative_frequency",
                            f"{org.teams[i].id},{org.teams[j].id}",
                            f"frequency {matrix[i][j]} is negative",
                        )
                    )

    known_artifacts = set(model.artifacts_by_id)
    for t in org.teams:
        if t.responsibility_artifact_id not in known_artifacts:
            out.append(
                Violation(
                    "organization.dangling_responsibility",
                    t.id,
                    f"artifact {t.responsibility_artifact_id} does not resolve",
                )
            )
        if actor_ids is not None:
            for member in t.member_actor_ids:
                if member not in actor_ids:
                    out.append(
                        Violation("organization.unknown_member", t.id, f"actor {member} is not registered")
                    )


def validate_model(model: PpcoModel, actor_ids: set[str] | None = None) -> list[Violation]:
    """Check every model invariant; an empty report means the model is valid.

    Violations are data, not exceptions. Team-membership resolution needs the
    actor registry, so it is checked only when ``actor_ids`` is supplied.
    """
    out: list[Violation] = []
    _validate_decomposition(model, out)
    _validate_interactions(model, out)
    _validate_processes(model, out)
    _validate_organization(model, out, actor_ids)
    return out
