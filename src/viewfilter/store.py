"""File-backed store of versioned canonical documents, safe for concurrent
writers in any number of processes.

Layout under the store root::

    model/        v000001.json ... + CURRENT: a token and the current version
    actors/       REGISTRY: a token, a newline and a JSON list of the actor documents
    viewpoints/   REGISTRY: the same for the viewpoints
    policies/     default.policy (canonical policy text)
    changes/      one document per proposal
    annotations/  one document per emitted annotation
    seq           monotone event counter (logical timestamps, change ids)
    LOCK          empty; the write lock is an ``flock`` on it

Opening a store writes nothing, so a read of a missing root creates no
directory; the first write creates the whole tree.

Every read-modify-write (``next_seq``, ``register``, policy sets, model
imports, and each whole change-workflow operation) holds ``Store.lock``,
which excludes writers in other processes as well as other threads; readers
take no lock. Writes land via write-to-temp (a temp name unique to the
writing process and thread) plus atomic rename; model version publication
additionally fsyncs the version, ``CURRENT`` and the ``model/`` directory,
making it the single durable commit point the change workflow relies on.
Readers always see a complete document.

The Workspace has four parts: model, actors, viewpoints and policy. One
rename commits each part, and a ``Store`` caches each part under a key read
from the file so renamed: ``CURRENT``'s token, ``REGISTRY``'s first line, or
the text of ``default.policy`` itself. A model import and ``register``
write a fresh, random token; a plain approval, which copies the current
version's bytes as the next version, copies the current token too. ``seq``,
change and annotation writes move no key. A write, in any process, so makes
readers reload that part alone, and the writing Store keeps what it wrote.
A reader reads a token before the data, so a token it has seen never names
data older than what it then loads. The policy is parsed from its key: a
text, unlike a token, can come back (A, B, then A again), so a policy read
apart from its key could be cached under the wrong text. A missing or empty
registry token turns that registry's cache off until its next ``register``.

A ``CURRENT`` written before tokens existed is keyed by its version, and
``TOKEN`` files of that time are ignored. A store written before
``REGISTRY`` existed, with one ``<id>.json`` per actor and viewpoint, is
read from those files until ``register`` writes the registry's
``REGISTRY`` from their texts plus the batch.
"""

from __future__ import annotations

import contextlib
import fcntl
import os
import re
import threading
from pathlib import Path

from . import documents
from .changes import Annotation, ChangeProposal
from .engine import Workspace
from .errors import ConflictError, DocumentError, InvalidInputError, ModelRejectedError, NotFoundError
from .model import PpcoModel, validate_model
from .policy import Policy, parse_policy, serialize_policy
from .viewpoints import Actor, Viewpoint, lookup_actor, restitution_list_viewpoint, validate_registry

_SAFE_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _decode(data: bytes, path: Path) -> str:
    """``data``, read from ``path``, as text; bytes that are not UTF-8 make a bad document."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path} is not UTF-8: {exc}") from None


def _read_text(path: Path) -> str:
    with open(path, "rb", buffering=0) as handle:  # unbuffered: every load reads CURRENT and the policy
        return _decode(handle.read(), path)


def _check_id(entity: str, entity_id: str) -> str:
    if not _SAFE_ID.match(entity_id):
        raise InvalidInputError(f"{entity} id {entity_id!r} is not a safe identifier")
    return entity_id


# Each Workspace part, by its directory: the file whose rename commits it, and
# its uncached loader (looked up on the store at each call), given its key.
_PARTS = {
    "model": ("CURRENT", lambda store, key: store.load_model()),
    "actors": ("REGISTRY", lambda store, key: {a.id: a for a in store.list_actors()}),
    "viewpoints": ("REGISTRY", lambda store, key: {vp.id: vp for vp in store.list_viewpoints()}),
    "policies": ("default.policy", lambda store, text: Policy() if text is None else parse_policy(text)),
}


def _unregistered(store: Store, entity: str, registry: dict, new: dict) -> None:
    for entity_id in new:
        if entity_id in registry:
            raise ConflictError(f"{entity} {entity_id} is already registered")


def _teams_resolve(store: Store, entity: str, registry: dict, new: dict) -> None:
    teams = store._part("model").teams_by_id
    for actor in new.values():
        if actor.team_id not in teams:
            raise InvalidInputError(f"actor {actor.id}: team {actor.team_id} does not resolve")


def _validated(store: Store, entity: str, registry: dict, new: dict) -> None:
    violations = [v.to_doc() for v in validate_registry(store._part("model"), store._part("actors"), new, registry)]
    if violations:
        raise InvalidInputError("viewpoint registration rejected by validation", violations=violations)


# Each registry, by its directory: the singular name its errors use, its document
# decoder and encoder (looked up in ``documents`` at each call, so that the spans
# bench/traced.py patches onto them see every call), and the checks a batch passes, in order.
_KINDS = {
    "actors": ("actor", "actor_from_doc", "actor_to_doc", (_teams_resolve, _unregistered)),
    "viewpoints": ("viewpoint", "viewpoint_from_doc", "viewpoint_to_doc", (_unregistered, _validated)),
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
        # A missing root is an empty store, but its nearest existing ancestor must be a directory.
        if not next(p for p in (self.root, *self.root.parents) if p.exists()).is_dir():
            raise InvalidInputError(f"store root {self.root} is not a directory")
        self._dirs = {
            name: self.root / name
            for name in ("model", "actors", "viewpoints", "policies", "changes", "annotations")
        }
        self.lock = _WriteLock(self.root / "LOCK", self._dirs.values())
        # The file whose rename commits each part; every load reads all four.
        self._commits = {part: self._dirs[part] / name for part, (name, _) in _PARTS.items()}
        # part -> (key, value); each entry is replaced whole, so threads
        # never see a key with another key's value.
        self._parts: dict[str, tuple[object, object]] = {}
        # The last Workspace built from the cached parts; dropped with any of them.
        self._snapshot: Workspace | None = None

    # -- low-level document I/O ----------------------------------------------

    def _write_text(self, path: Path, text: str, durable: bool = False) -> None:
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            with open(tmp, "wb") as handle:
                handle.write(text.encode())
                if durable:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):  # the write's own error is the one to report
                tmp.unlink()
            raise
        if durable:  # the rename, too, must survive a crash
            fd = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    def _read_doc(self, path: Path):
        return documents.canonical_loads(_read_text(path))

    def _read_all(self, kind: str, from_doc, pattern: str = "*.json") -> list:
        """Every document of a kind matching ``pattern``, decoded and sorted by id."""
        return sorted((from_doc(self._read_doc(p)) for p in self._dirs[kind].glob(pattern)), key=lambda e: e.id)

    # -- per-part cache ----------------------------------------------------------

    def _token(self, part: str):
        """The key a part is cached under, from the file whose rename commits it;
        None, which turns the cache off, while that file or a registry token is missing."""
        if part == "model":
            return self._current()[1]
        try:
            if part == "policies":
                return _read_text(self._commits[part])
            fd = os.open(self._commits[part], os.O_RDONLY)
            try:
                return os.read(fd, 4096).partition(b"\n")[0] or None
            finally:
                os.close(fd)
        except OSError:
            return None

    def _part(self, part: str):
        """One Workspace part, reloaded only when its key has moved; the
        stale copy is dropped first, so a Store never holds two of a part."""
        token = self._token(part)
        cached = self._parts.get(part)
        if cached is not None and cached[0] == token:
            return cached[1]
        del cached  # the stale copy, too, must go before its successor loads
        self._drop(part)
        value = _PARTS[part][1](self, token)
        if token is not None:
            self._parts[part] = (token, value)
        return value

    def _drop(self, part: str) -> None:
        """Forget a stale part and the snapshot that holds it, so neither
        stays alive while its successor is loaded."""
        self._snapshot = None
        self._parts.pop(part, None)

    def _keep(self, part: str, key, value) -> None:
        """Cache a part this Store has just written."""
        self._drop(part)
        self._parts[part] = (key, value)

    def _registry_text(self, kind: str) -> str:
        """The JSON list of a registry's documents as stored: ``REGISTRY`` after
        its token line or, in a store written before it, the entity files joined."""
        path = self._commits[kind]
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return f"[{','.join(map(_read_text, sorted(self._dirs[kind].glob('*.json'))))}]"
        return _decode(data.partition(b"\n")[2], path)

    def _registry(self, kind: str) -> list:
        """Every actor or viewpoint, sorted by id."""
        docs = documents.canonical_loads(self._registry_text(kind))
        if not isinstance(docs, list):
            raise DocumentError(f"{kind}: expected a list")
        return sorted(map(getattr(documents, _KINDS[kind][1]), docs), key=lambda e: e.id)

    def register(self, kind: str, docs: list) -> list:
        """Register a batch of ``"actors"`` or ``"viewpoints"``, checked as a whole (so viewpoints may name each
        other), with one ``REGISTRY`` rename, or not at all; this Store keeps what it wrote."""
        entity, decoder, encoder, checks = _KINDS[kind]
        from_doc, to_doc = getattr(documents, decoder), getattr(documents, encoder)
        if not isinstance(docs, list):
            raise DocumentError(f"{kind}: expected a list")
        new = {}
        for doc in docs:
            item = from_doc(doc)
            if _check_id(entity, item.id) in new:
                raise ConflictError(f"{entity} {item.id} appears twice in the batch")
            new[item.id] = item
        if not new:  # nothing to write, so no token moves
            return []
        with self.lock:
            registry = self._part(kind)
            for check in checks:
                check(self, entity, registry, new)
            stored = self._registry_text(kind).strip()[1:-1]
            texts = [stored] if stored.strip() else []
            texts += (documents.canonical_dumps(to_doc(item)) for item in new.values())
            token = os.urandom(12).hex()  # 96 random bits: fresh, and unique across processes
            self._write_text(self._commits[kind], f"{token}\n[{','.join(texts)}]")
            self._keep(kind, token.encode(), dict(sorted({**registry, **new}.items())))
            return list(new.values())

    # -- sequence counter ------------------------------------------------------

    def next_seq(self) -> int:
        """Allocate the next logical event number (persisted, monotone)."""
        with self.lock:
            seq_path = self.root / "seq"
            text = _read_text(seq_path) if seq_path.exists() else "0"
            count = None
            if text.isascii() and text.isdigit():
                with contextlib.suppress(ValueError):  # more digits than int() parses
                    count = int(text)
            if count is None:
                raise DocumentError(f"{seq_path}: expected a non-negative integer, got {text[:40]!r}")
            self._write_text(seq_path, str(count + 1))
            return count + 1

    def next_change_id(self) -> str:
        return f"chg-{self.next_seq():06d}"

    # -- model versions --------------------------------------------------------

    def _version_path(self, version: int) -> Path:
        return self._dirs["model"] / f"v{version:06d}.json"

    def _version_file(self, version: int | None) -> Path:
        """The file of a version (default: the current one), which must exist."""
        if version is None:
            version = self.current_version()
            if version == 0:
                raise NotFoundError("no model has been imported")
        path = self._version_path(version)
        if version < 1 or not path.exists():
            raise NotFoundError(f"model version {version} does not exist")
        return path

    def _current(self) -> tuple[int, str | None]:
        """``CURRENT``'s version (0 before any import) and the model's key:
        its token or, in a ``CURRENT`` written before tokens, its version."""
        pointer = self._commits["model"]
        try:
            doc = self._read_doc(pointer)
        except FileNotFoundError:
            return 0, None
        if isinstance(doc, dict):
            version = doc.get("version")
            token = doc.get("token", str(version))
            if type(version) is int and version > 0 and type(token) is str:
                return version, token
        raise DocumentError(f"{pointer}: expected a positive integer version and a string token")

    def current_version(self) -> int:
        return self._current()[0]

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

    def _publish(self, canonical: str, token: str) -> int:
        """Write the next version, then ``CURRENT`` under ``token``; the caller holds ``lock``."""
        version = self.current_version() + 1
        self._write_text(self._version_path(version), canonical, durable=True)
        self._write_text(
            self._commits["model"],
            documents.canonical_dumps({"token": token, "version": version}),
            durable=True,
        )
        return version

    def import_model(self, doc) -> int:
        """Validate and publish a model document as the next version, and
        keep the validated model as this Store's cached model part."""
        with self.lock:
            # The cached model is stale from here on; free it before decoding another.
            self._drop("model")
            model = self.check_importable(doc)
            token = os.urandom(12).hex()
            version = self._publish(documents.canonical_dumps(documents.model_to_doc(model)), token)
            # Its tuples keep the document's order, not the stored one; every reader looks entities up by id.
            self._keep("model", token, model)
            return version

    def republish_model(self) -> int:
        """Publish the current version's bytes again as the next version.
        The content is unchanged, so nothing is decoded or validated, and
        the current token is copied, so no key moves."""
        with self.lock:
            return self._publish(_read_text(self._version_file(None)), self._current()[1])

    def export_model(self, version: int | None = None) -> dict:
        return self._read_doc(self._version_file(version))

    def load_model(self) -> PpcoModel:
        """The current version, decoded from its file."""
        return documents.model_from_doc(self.export_model())

    # -- actors ------------------------------------------------------------------

    def add_actor(self, doc) -> Actor:
        return self.register("actors", [doc])[0]

    def list_actors(self) -> list[Actor]:
        return self._registry("actors")

    def get_actor(self, actor_id: str) -> Actor:
        return lookup_actor(self._part("actors"), _check_id("actor", actor_id))

    # -- viewpoints ----------------------------------------------------------------

    def add_viewpoints(self, docs: list) -> list[Viewpoint]:
        return self.register("viewpoints", docs)

    def list_viewpoints(self, actor_id: str | None = None) -> list[Viewpoint]:
        """Every registered viewpoint, or one actor's from the cache, sorted by id."""
        if actor_id is None:
            return self._registry("viewpoints")
        _check_id("actor", actor_id)
        return restitution_list_viewpoint(self._part("actors"), self._part("viewpoints"), actor_id)

    # -- policy ---------------------------------------------------------------------

    def set_policy(self, text: str) -> Policy:
        """Store a policy as canonical text and keep it as this Store's policy part."""
        policy = parse_policy(text)
        canonical = serialize_policy(policy)
        with self.lock:
            self._write_text(self._commits["policies"], canonical)
            self._keep("policies", canonical, policy)
        return policy

    def get_policy_text(self) -> str:
        try:
            return _read_text(self._commits["policies"])
        except FileNotFoundError:
            raise NotFoundError("no policy has been set") from None

    def get_policy(self) -> Policy:
        """The stored policy, or the empty one when none has been set."""
        return self._part("policies")

    # -- changes and annotations -------------------------------------------------------

    def save_change(self, proposal: ChangeProposal) -> None:
        """Write a change; the caller holds ``lock``, as the change workflow does."""
        path = self._dirs["changes"] / f"{_check_id('change', proposal.id)}.json"
        self._write_text(path, documents.canonical_dumps(documents.change_to_doc(proposal)))

    def get_change(self, change_id: str) -> ChangeProposal:
        path = self._dirs["changes"] / f"{_check_id('change', change_id)}.json"
        if not path.exists():
            raise NotFoundError(f"unknown change: {change_id}")
        return documents.change_from_doc(self._read_doc(path))

    def list_changes(self) -> list[ChangeProposal]:
        return self._read_all("changes", documents.change_from_doc)

    def save_annotation(self, annotation: Annotation) -> None:
        """Write an annotation; the caller holds ``lock``, as the change workflow does."""
        path = self._dirs["annotations"] / f"{_check_id('annotation', annotation.id)}.json"
        self._write_text(path, documents.canonical_dumps(documents.annotation_to_doc(annotation)))

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
        assembled from the four cached parts. The same object comes back
        until one of the parts is reloaded or written, so what is derived
        from a snapshot (its viewpoint indexes and filter memo) is built once
        and dropped along with it."""
        model, actors, viewpoints = self._part("model"), self._part("actors"), self._part("viewpoints")
        policy = self.get_policy()
        ws = self._snapshot
        if (
            ws is None
            or ws.model is not model
            or ws.actors is not actors
            or ws.viewpoints is not viewpoints
            or ws.policy is not policy
        ):
            ws = self._snapshot = Workspace(model, actors, viewpoints, policy)
        return ws
