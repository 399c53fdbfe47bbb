"""File-backed store of versioned canonical documents, safe for concurrent
writers in any number of processes.

Layout under the store root::

    model/        v000001.json ... + CURRENT pointer (exactly one current)
    actors/       one document per actor
    viewpoints/   one document per viewpoint
    policies/     default.policy (canonical policy text)
    changes/      one document per proposal
    annotations/  one document per emitted annotation
    seq           monotone event counter (logical timestamps, change ids)
    LOCK          empty; the write lock is an ``flock`` on it

Opening a store writes nothing, so a read of a missing root creates no
directory; the first write creates the whole tree.

Every read-modify-write (``next_seq``, registrations, policy sets, model
imports, and each whole change-workflow operation) holds ``Store.lock``,
which excludes writers in other processes as well as other threads; readers
take no lock. Writes land via write-to-temp (a temp name unique to the
writing process and thread) plus atomic rename; model version publication
additionally fsyncs the version, ``CURRENT`` and the ``model/`` directory,
making it the single durable commit point the change workflow relies on.
Readers always see a complete document.

The Workspace has four parts: model, actors, viewpoints and policy. Each
part's directory holds a ``TOKEN`` that the part's writers (model imports,
actor and viewpoint registrations, policy sets) rewrite with a fresh,
unique value after their data has landed; ``seq``, change and annotation
writes touch no token, and neither does a plain approval, which copies the
current version's bytes as the next version. A ``Store`` caches each part
under its token, so a write, in any process, makes readers reload that part
alone, and a model import keeps the model it validated. A reader reads a
token before the data, so a token it has seen never names data older than
what it then loads. A writer killed between its data and token renames
leaves readers on the old part until the part's next write. A missing or
empty token turns that part's cache off until the part's next write.
"""

from __future__ import annotations

import fcntl
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
from .viewpoints import Actor, Viewpoint, lookup_actor, restitution_list_viewpoint, validate_registry

_SAFE_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

# Shared by every Store in the process: with the pid and the clock it keeps
# two tokens written in one process apart even when the clock has not moved.
_token_counter = itertools.count()


def _check_id(entity: str, entity_id: str) -> str:
    if not _SAFE_ID.match(entity_id):
        raise InvalidInputError(f"{entity} id {entity_id!r} is not a safe identifier")
    return entity_id


# Each Workspace part, by the directory holding its data and token, with its
# uncached loader (looked up on the store at each call).
_PARTS = {
    "model": lambda store: store.load_model(),
    "actors": lambda store: {a.id: a for a in store.list_actors()},
    "viewpoints": lambda store: {vp.id: vp for vp in store.list_viewpoints()},
    "policies": lambda store: store.get_policy(),
}


class _WriteLock:
    """Re-entrant write lock for threads and processes: an ``RLock`` plus an
    ``flock`` on ``<root>/LOCK`` that only the outermost ``with`` opens and
    takes, and only its exit releases and closes, so an idle Store holds no
    descriptor. The outermost ``with`` also creates the store's directories.
    Two Stores on one root exclude each other like two processes, so nesting
    their locks in one thread deadlocks."""

    def __init__(self, path: Path, dirs):
        self._path = path
        self._dirs = dirs
        self._rlock = threading.RLock()
        self._depth = 0
        self._fd: int | None = None

    def __enter__(self):
        self._rlock.acquire()
        self._depth += 1
        if self._depth == 1:
            try:
                for path in self._dirs:
                    path.mkdir(parents=True, exist_ok=True)
                self._fd = os.open(self._path, os.O_RDWR | os.O_CREAT, 0o644)
                fcntl.flock(self._fd, fcntl.LOCK_EX)
            except BaseException:
                self.__exit__()
                raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._depth -= 1
        if self._depth == 0 and self._fd is not None:
            fcntl.flock(self._fd, fcntl.LOCK_UN)  # explicit: a forked child may share the descriptor
            os.close(self._fd)
            self._fd = None
        self._rlock.release()


class Store:
    """File-backed store rooted at a directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._dirs = {
            name: self.root / name
            for name in ("model", "actors", "viewpoints", "policies", "changes", "annotations")
        }
        self.lock = _WriteLock(self.root / "LOCK", self._dirs.values())
        # Token paths as strings: every load reads all four, so each read is a bare os.read.
        self._tokens = {part: str(self._dirs[part] / "TOKEN") for part in _PARTS}
        # part -> (token, value); each entry is replaced whole, so threads
        # never see a token with another token's value.
        self._parts: dict[str, tuple[bytes, object]] = {}

    # -- low-level document I/O ----------------------------------------------

    def _write_text(self, path: Path, text: str, durable: bool = False) -> None:
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        if durable:  # the rename, too, must survive a crash
            fd = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    def _read_doc(self, path: Path):
        return documents.canonical_loads(path.read_text(encoding="utf-8"))

    def _read_all(self, kind: str, from_doc, pattern: str = "*.json") -> list:
        """Every document of a kind matching ``pattern``, decoded and sorted by id."""
        return sorted((from_doc(self._read_doc(p)) for p in self._dirs[kind].glob(pattern)), key=lambda e: e.id)

    def _save(self, kind: str, entity, to_doc) -> None:
        """Write one entity as ``<kind>/<id>.json``."""
        self._write_text(self._dirs[kind] / f"{entity.id}.json", documents.canonical_dumps(to_doc(entity)))

    # -- per-part cache ----------------------------------------------------------

    def _bump(self, part: str) -> bytes:
        """Invalidate every reader's copy of a part; call after its data has
        landed. Returns the new token."""
        token = f"{os.getpid()}.{time.time_ns()}.{next(_token_counter)}"
        self._write_text(self._dirs[part] / "TOKEN", token)
        return token.encode()

    def _part(self, part: str):
        """One Workspace part, reloaded only when its token has moved; the
        stale copy is dropped first, so a Store never holds two of a part."""
        try:
            fd = os.open(self._tokens[part], os.O_RDONLY)
            try:
                token = os.read(fd, 4096) or None
            finally:
                os.close(fd)
        except OSError:
            token = None
        cached = self._parts.get(part)
        if cached is not None and cached[0] == token:
            return cached[1]
        self._parts.pop(part, None)
        value = _PARTS[part](self)
        if token is not None:
            self._parts[part] = (token, value)
        return value

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

    def _version_file(self, version: int | None) -> Path:
        """The file of a version (default: the current one), which must exist."""
        if version is None:
            version = self.current_version()
        if version < 1:
            raise NotFoundError("no model has been imported")
        path = self._version_path(version)
        if not path.exists():
            raise NotFoundError(f"model version {version} does not exist")
        return path

    def current_version(self) -> int:
        pointer = self._dirs["model"] / "CURRENT"
        if not pointer.exists():
            return 0
        return int(self._read_doc(pointer)["version"])

    def model_versions(self) -> list[int]:
        return sorted(int(p.stem[1:]) for p in self._dirs["model"].glob("v*.json"))

    def check_importable(self, doc) -> PpcoModel:
        """Parse and validate a model document without writing anything."""
        model = documents.model_from_doc(doc)
        violations = validate_model(model, actor_ids=set(self._part("actors")) or None)
        if violations:
            raise ModelRejectedError(
                "model document rejected by validation",
                violations=[v.to_doc() for v in violations],
            )
        return model

    def _publish(self, canonical: str) -> int:
        """Write the next version and point ``CURRENT`` at it; the caller holds ``lock``."""
        version = self.current_version() + 1
        self._write_text(self._version_path(version), canonical, durable=True)
        self._write_text(
            self._dirs["model"] / "CURRENT",
            documents.canonical_dumps({"version": version}),
            durable=True,
        )
        return version

    def import_model(self, doc) -> int:
        """Validate and publish a model document as the next version, and
        keep the validated model as this Store's cached model part."""
        with self.lock:
            # The cached model is stale from here on; free it before decoding another.
            self._parts.pop("model", None)
            model = self.check_importable(doc)
            version = self._publish(documents.canonical_dumps(documents.model_to_doc(model)))
            # Its tuples keep the document's order, not the stored one; every reader looks entities up by id.
            self._parts["model"] = (self._bump("model"), model)
            return version

    def republish_model(self) -> int:
        """Publish the current version's bytes again as the next version.
        The content is unchanged, so nothing is decoded or validated and no
        token moves."""
        with self.lock:
            return self._publish(self._version_file(None).read_text(encoding="utf-8"))

    def export_model(self, version: int | None = None) -> dict:
        return self._read_doc(self._version_file(version))

    def load_model(self) -> PpcoModel:
        """The current version, decoded from its file."""
        return documents.model_from_doc(self.export_model())

    # -- actors ------------------------------------------------------------------

    def add_actor(self, doc) -> Actor:
        actor = documents.actor_from_doc(doc)
        _check_id("actor", actor.id)
        with self.lock:
            if actor.team_id not in self._part("model").teams_by_id:
                raise InvalidInputError(f"actor {actor.id}: team {actor.team_id} does not resolve")
            if (self._dirs["actors"] / f"{actor.id}.json").exists():
                raise ConflictError(f"actor {actor.id} is already registered")
            self._save("actors", actor, documents.actor_to_doc)
            self._bump("actors")
            return actor

    def list_actors(self) -> list[Actor]:
        return self._read_all("actors", documents.actor_from_doc)

    def get_actor(self, actor_id: str) -> Actor:
        return lookup_actor(self._part("actors"), _check_id("actor", actor_id))

    # -- viewpoints ----------------------------------------------------------------

    def add_viewpoints(self, docs: list) -> list[Viewpoint]:
        """Register a batch of viewpoints, validated jointly.

        Batching lets mutually referencing viewpoints be added together.
        """
        new: dict[str, Viewpoint] = {}
        for doc in docs:
            vp = documents.viewpoint_from_doc(doc)
            if _check_id("viewpoint", vp.id) in new:
                raise ConflictError(f"viewpoint {vp.id} appears twice in the batch")
            new[vp.id] = vp
        with self.lock:
            registry = self._part("viewpoints")
            for vp_id in new:
                if vp_id in registry:
                    raise ConflictError(f"viewpoint {vp_id} is already registered")
            # Only the batch is judged: a registered viewpoint that a later
            # model orphaned must not close the registry.
            violations = [
                v
                for v in validate_registry(self._part("model"), self._part("actors"), {**registry, **new})
                if v.subject in new
            ]
            if violations:
                raise InvalidInputError(
                    "viewpoint registration rejected by validation",
                    violations=[v.to_doc() for v in violations],
                )
            for vp in new.values():
                self._save("viewpoints", vp, documents.viewpoint_to_doc)
            self._bump("viewpoints")
            return list(new.values())

    def list_viewpoints(self, actor_id: str | None = None) -> list[Viewpoint]:
        """Every registered viewpoint read from disk, or one actor's from the cache, sorted by id."""
        if actor_id is None:
            return self._read_all("viewpoints", documents.viewpoint_from_doc)
        _check_id("actor", actor_id)
        return restitution_list_viewpoint(self._part("actors"), self._part("viewpoints"), actor_id)

    # -- policy ---------------------------------------------------------------------

    def set_policy(self, text: str) -> Policy:
        policy = parse_policy(text)
        with self.lock:
            self._write_text(self._dirs["policies"] / "default.policy", serialize_policy(policy))
            self._bump("policies")
        return policy

    def get_policy_text(self) -> str:
        path = self._dirs["policies"] / "default.policy"
        if not path.exists():
            raise NotFoundError("no policy has been set")
        return path.read_text(encoding="utf-8")

    def get_policy(self) -> Policy:
        """The stored policy, or the empty one when none has been set."""
        try:
            return parse_policy(self.get_policy_text())
        except NotFoundError:
            return Policy()

    # -- changes and annotations -------------------------------------------------------

    def save_change(self, proposal: ChangeProposal) -> None:
        """Write a change; the caller holds ``lock``, as the change workflow does."""
        _check_id("change", proposal.id)
        self._save("changes", proposal, documents.change_to_doc)

    def get_change(self, change_id: str) -> ChangeProposal:
        path = self._dirs["changes"] / f"{_check_id('change', change_id)}.json"
        if not path.exists():
            raise NotFoundError(f"unknown change: {change_id}")
        return documents.change_from_doc(self._read_doc(path))

    def list_changes(self) -> list[ChangeProposal]:
        return self._read_all("changes", documents.change_from_doc)

    def save_annotation(self, annotation: Annotation) -> None:
        """Write an annotation; the caller holds ``lock``, as the change workflow does."""
        _check_id("annotation", annotation.id)
        self._save("annotations", annotation, documents.annotation_to_doc)

    def list_annotations(self, actor_id: str | None = None) -> list[Annotation]:
        """Every annotation, or one actor's, sorted by id. Files are named
        ``<change-id>.<actor-id>.json``, so one actor's form reads only those
        ending in its id; the decoded ``actor_id`` decides, as ids may hold dots."""
        if actor_id is not None:
            self.get_actor(actor_id)
        pattern = "*.json" if actor_id is None else f"*.{actor_id}.json"
        annotations = self._read_all("annotations", documents.annotation_from_doc, pattern)
        return [a for a in annotations if actor_id in (None, a.actor_id)]

    # -- assembled snapshot ---------------------------------------------------------------

    def load_workspace(self) -> Workspace:
        """Current model, registries, and policy as one immutable snapshot,
        assembled from the four cached parts."""
        return Workspace(
            model=self._part("model"),
            actors=self._part("actors"),
            viewpoints=self._part("viewpoints"),
            policy=self._part("policies"),
        )
