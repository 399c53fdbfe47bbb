"""Single-writer, file-backed store of versioned canonical documents.

Layout under the store root::

    model/        v000001.json ... + CURRENT pointer (exactly one current)
    actors/       one document per actor
    viewpoints/   one document per viewpoint
    policies/     default.policy (canonical policy text)
    changes/      one document per proposal
    annotations/  one document per emitted annotation
    seq           monotone event counter (logical timestamps, change ids)

Writes go through an in-process lock and land via write-to-temp (a temp name
unique to the writing process and thread) plus atomic rename; model version
publication additionally fsyncs, making it the single durable commit point
the change workflow relies on. Readers always see a complete document.
"""

from __future__ import annotations

import os
import re
import threading
from pathlib import Path

from . import documents
from .changes import Annotation, ChangeProposal
from .engine import Workspace
from .errors import ConflictError, InvalidInputError, ModelRejectedError, NotFoundError
from .model import PpcoModel, validate_model
from .policy import Policy, parse_policy, serialize_policy
from .viewpoints import Actor, Viewpoint, validate_registry

_SAFE_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

STORE_ENV_VAR = "VIEWFILTER_STORE"


def _check_id(entity: str, entity_id: str) -> str:
    if not _SAFE_ID.match(entity_id):
        raise InvalidInputError(f"{entity} id {entity_id!r} is not a safe identifier")
    return entity_id


class Store:
    """File-backed store rooted at a directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.lock = threading.RLock()
        self._dirs = {
            name: self.root / name
            for name in ("model", "actors", "viewpoints", "policies", "changes", "annotations")
        }
        for path in self._dirs.values():
            path.mkdir(parents=True, exist_ok=True)

    # -- low-level document I/O ----------------------------------------------

    def _write_text(self, path: Path, text: str, durable: bool = False) -> None:
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)

    def _read_doc(self, path: Path):
        return documents.canonical_loads(path.read_text(encoding="utf-8"))

    # -- sequence counter ------------------------------------------------------

    def next_seq(self) -> int:
        """Allocate the next logical event number (persisted, monotone)."""
        with self.lock:
            seq_path = self.root / "seq"
            current = int(seq_path.read_text()) if seq_path.exists() else 0
            self._write_text(seq_path, str(current + 1))
            return current + 1

    def next_change_id(self) -> str:
        return f"chg-{self.next_seq():06d}"

    # -- model versions --------------------------------------------------------

    def _version_path(self, version: int) -> Path:
        return self._dirs["model"] / f"v{version:06d}.json"

    def current_version(self) -> int:
        pointer = self._dirs["model"] / "CURRENT"
        if not pointer.exists():
            return 0
        return int(self._read_doc(pointer)["version"])

    def model_versions(self) -> list[int]:
        return sorted(
            int(p.stem[1:]) for p in self._dirs["model"].glob("v*.json")
        )

    def check_importable(self, doc) -> PpcoModel:
        """Parse and validate a model document without writing anything."""
        model = documents.model_from_doc(doc)
        actor_ids = {p.stem for p in self._dirs["actors"].glob("*.json")} or None
        violations = validate_model(model, actor_ids=actor_ids)
        if violations:
            raise ModelRejectedError(
                "model document rejected by validation",
                violations=[v.to_doc() for v in violations],
            )
        return model

    def import_model(self, doc) -> int:
        """Validate and publish a model document as the next version."""
        with self.lock:
            model = self.check_importable(doc)
            version = self.current_version() + 1
            canonical = documents.canonical_dumps(documents.model_to_doc(model))
            self._write_text(self._version_path(version), canonical, durable=True)
            self._write_text(
                self._dirs["model"] / "CURRENT",
                documents.canonical_dumps({"version": version}),
                durable=True,
            )
            return version

    def export_model(self, version: int | None = None) -> dict:
        if version is None:
            version = self.current_version()
        if version < 1:
            raise NotFoundError("no model has been imported")
        path = self._version_path(version)
        if not path.exists():
            raise NotFoundError(f"model version {version} does not exist")
        return self._read_doc(path)

    def load_model(self) -> PpcoModel:
        return documents.model_from_doc(self.export_model())

    # -- actors ------------------------------------------------------------------

    def add_actor(self, doc) -> Actor:
        actor = documents.actor_from_doc(doc)
        _check_id("actor", actor.id)
        with self.lock:
            model = self.load_model()
            if actor.team_id not in model.teams_by_id:
                raise InvalidInputError(f"actor {actor.id}: team {actor.team_id} does not resolve")
            path = self._dirs["actors"] / f"{actor.id}.json"
            if path.exists():
                raise ConflictError(f"actor {actor.id} is already registered")
            self._write_text(path, documents.canonical_dumps(documents.actor_to_doc(actor)))
            return actor

    def list_actors(self) -> list[Actor]:
        return sorted(
            (documents.actor_from_doc(self._read_doc(p)) for p in self._dirs["actors"].glob("*.json")),
            key=lambda a: a.id,
        )

    def get_actor(self, actor_id: str) -> Actor:
        path = self._dirs["actors"] / f"{_check_id('actor', actor_id)}.json"
        if not path.exists():
            raise NotFoundError(f"unknown actor: {actor_id}")
        return documents.actor_from_doc(self._read_doc(path))

    # -- viewpoints ----------------------------------------------------------------

    def add_viewpoints(self, docs: list) -> list[Viewpoint]:
        """Register a batch of viewpoints, validated jointly.

        Batching lets mutually referencing viewpoints be added together.
        """
        new = [documents.viewpoint_from_doc(doc) for doc in docs]
        for vp in new:
            _check_id("viewpoint", vp.id)
        with self.lock:
            model = self.load_model()
            actors = {a.id: a for a in self.list_actors()}
            registry = {vp.id: vp for vp in self.list_viewpoints()}
            for vp in new:
                if vp.id in registry:
                    raise ConflictError(f"viewpoint {vp.id} is already registered")
                registry[vp.id] = vp
            if len({vp.id for vp in new}) != len(new):
                raise ConflictError("duplicate viewpoint ids within one batch")
            violations = [
                v for v in validate_registry(model, actors, registry) if v.code.startswith("viewpoint.")
            ]
            if violations:
                raise InvalidInputError(
                    "viewpoint registration rejected by validation",
                    violations=[v.to_doc() for v in violations],
                )
            for vp in new:
                path = self._dirs["viewpoints"] / f"{vp.id}.json"
                self._write_text(path, documents.canonical_dumps(documents.viewpoint_to_doc(vp)))
            return new

    def list_viewpoints(self, actor_id: str | None = None) -> list[Viewpoint]:
        if actor_id is not None:
            self.get_actor(actor_id)
        vps = sorted(
            (documents.viewpoint_from_doc(self._read_doc(p)) for p in self._dirs["viewpoints"].glob("*.json")),
            key=lambda vp: vp.id,
        )
        if actor_id is None:
            return vps
        return [vp for vp in vps if vp.actor_id == actor_id]

    # -- policy ---------------------------------------------------------------------

    def set_policy(self, text: str) -> Policy:
        policy = parse_policy(text)
        with self.lock:
            self._write_text(self._dirs["policies"] / "default.policy", serialize_policy(policy))
        return policy

    def get_policy_text(self) -> str:
        path = self._dirs["policies"] / "default.policy"
        if not path.exists():
            raise NotFoundError("no policy has been set")
        return path.read_text(encoding="utf-8")

    def get_policy(self) -> Policy:
        return parse_policy(self.get_policy_text())

    # -- changes and annotations -------------------------------------------------------

    def save_change(self, proposal: ChangeProposal) -> None:
        _check_id("change", proposal.id)
        with self.lock:
            path = self._dirs["changes"] / f"{proposal.id}.json"
            self._write_text(path, documents.canonical_dumps(documents.change_to_doc(proposal)))

    def get_change(self, change_id: str) -> ChangeProposal:
        path = self._dirs["changes"] / f"{_check_id('change', change_id)}.json"
        if not path.exists():
            raise NotFoundError(f"unknown change: {change_id}")
        return documents.change_from_doc(self._read_doc(path))

    def list_changes(self) -> list[ChangeProposal]:
        return sorted(
            (documents.change_from_doc(self._read_doc(p)) for p in self._dirs["changes"].glob("*.json")),
            key=lambda c: c.id,
        )

    def save_annotation(self, annotation: Annotation) -> None:
        _check_id("annotation", annotation.id)
        with self.lock:
            path = self._dirs["annotations"] / f"{annotation.id}.json"
            self._write_text(path, documents.canonical_dumps(documents.annotation_to_doc(annotation)))

    def list_annotations(self, actor_id: str | None = None) -> list[Annotation]:
        if actor_id is not None:
            self.get_actor(actor_id)
        annotations = sorted(
            (documents.annotation_from_doc(self._read_doc(p)) for p in self._dirs["annotations"].glob("*.json")),
            key=lambda a: a.id,
        )
        if actor_id is None:
            return annotations
        return [a for a in annotations if a.actor_id == actor_id]

    # -- assembled snapshot ---------------------------------------------------------------

    def load_workspace(self) -> Workspace:
        """Current model, registries, and policy as one immutable snapshot."""
        model = self.load_model()
        actors = {a.id: a for a in self.list_actors()}
        viewpoints = {vp.id: vp for vp in self.list_viewpoints()}
        try:
            policy = self.get_policy()
        except NotFoundError:
            policy = Policy()
        return Workspace(model=model, actors=actors, viewpoints=viewpoints, policy=policy)
