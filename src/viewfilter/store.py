"""Single-writer, file-backed store of versioned canonical documents.

Layout under the store root::

    model/        v000001.json ... + CURRENT pointer (exactly one current)
    actors/       one document per actor
    viewpoints/   one document per viewpoint
    policies/     default.policy (canonical policy text)
    changes/      one document per proposal
    annotations/  one document per emitted annotation
    seq           monotone event counter (logical timestamps, change ids)
    generation    token rewritten by every write that changes the Workspace

Writes go through an in-process lock and land via write-to-temp (a temp name
unique to the writing process and thread) plus atomic rename; model version
publication additionally fsyncs, making it the single durable commit point
the change workflow relies on. Readers always see a complete document.

A ``Store`` keeps the last Workspace it loaded, keyed by the generation token.
Model imports (publications included), actor and viewpoint registrations and
policy writes put a fresh, unique token in ``generation`` after their data
has landed; ``seq``, change and annotation writes leave it alone. A reader
reads the token before the data, so a token it has seen never names data
older than what it then loads, and any writer, in this process or another,
invalidates every reader's snapshot. A writer killed between its data rename
and its token rename leaves readers on the old snapshot until the next
write. A missing or unreadable ``generation`` file turns the cache off.
"""

from __future__ import annotations

import itertools
import os
import re
import threading
import time
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

# Shared by every Store in the process: with the pid and the clock it keeps
# two tokens written in one process apart even when the clock has not moved.
_token_counter = itertools.count()


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
        self._generation_path = self.root / "generation"
        # (token, snapshot) and ((version, inode, mtime_ns), model); each is
        # replaced whole, so threads never see a key with another's value.
        self._workspace: tuple[bytes, Workspace] | None = None
        self._model: tuple[tuple[int, int, int], PpcoModel] | None = None

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

    # -- generation token --------------------------------------------------------

    def _bump_generation(self) -> None:
        """Invalidate every reader's Workspace; call after the data has landed."""
        token = f"{os.getpid()}.{time.time_ns()}.{next(_token_counter)}"
        self._write_text(self._generation_path, token)

    def _read_generation(self) -> bytes | None:
        try:
            return self._generation_path.read_bytes() or None
        except OSError:
            return None

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
            # The snapshot is stale from here on; free it before decoding another model.
            self._workspace = self._model = None
            model = self.check_importable(doc)
            version = self.current_version() + 1
            canonical = documents.canonical_dumps(documents.model_to_doc(model))
            self._write_text(self._version_path(version), canonical, durable=True)
            self._write_text(
                self._dirs["model"] / "CURRENT",
                documents.canonical_dumps({"version": version}),
                durable=True,
            )
            self._bump_generation()
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
        """The current version, decoded once per version file."""
        version = self.current_version()
        try:
            stat = self._version_path(version).stat()
            key = (version, stat.st_ino, stat.st_mtime_ns)
        except OSError:
            key = None
        cached = self._model
        if cached is not None and cached[0] == key:
            return cached[1]
        self._model = cached = None
        model = documents.model_from_doc(self.export_model(version))
        if key is not None:
            self._model = (key, model)
        return model

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
            self._bump_generation()
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
            self._bump_generation()
            return new

    def list_viewpoints(self, actor_id: str | None = None) -> list[Viewpoint]:
        """Every registered viewpoint, or one actor's, sorted by id.

        The per-actor form answers from the cached Workspace.
        """
        if actor_id is None:
            return sorted(
                (documents.viewpoint_from_doc(self._read_doc(p)) for p in self._dirs["viewpoints"].glob("*.json")),
                key=lambda vp: vp.id,
            )
        self.get_actor(actor_id)
        return sorted(
            (vp for vp in self.load_workspace().viewpoints.values() if vp.actor_id == actor_id),
            key=lambda vp: vp.id,
        )

    # -- policy ---------------------------------------------------------------------

    def set_policy(self, text: str) -> Policy:
        policy = parse_policy(text)
        with self.lock:
            self._write_text(self._dirs["policies"] / "default.policy", serialize_policy(policy))
            self._bump_generation()
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
        """Current model, registries, and policy as one immutable snapshot.

        The last snapshot is reused while the generation token is unchanged.
        On a change it is dropped before the reload, so a Store never holds
        two at once.
        """
        token = self._read_generation()
        cached = self._workspace
        if cached is not None and cached[0] == token:
            return cached[1]
        self._workspace = cached = None
        model = self.load_model()
        actors = {a.id: a for a in self.list_actors()}
        viewpoints = {vp.id: vp for vp in self.list_viewpoints()}
        try:
            policy = self.get_policy()
        except NotFoundError:
            policy = Policy()
        workspace = Workspace(model=model, actors=actors, viewpoints=viewpoints, policy=policy)
        if token is not None:
            self._workspace = (token, workspace)
        return workspace
