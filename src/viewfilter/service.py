"""HTTP/JSON service exposing the engine over a store.

Responses are the same canonical documents the CLI prints; domain errors map
one-to-one onto HTTP statuses (404 not-found, 403 permission-denied, 409
conflict or invalid-state, 422 validation failure), and any other exception
is answered with a 500 ``internal`` error document. Requests the stdlib
refuses itself (a garbled request line, an oversized URI, an unsupported
method) keep its status and get an error document too. Path parameters are
percent-decoded after the route has matched. A request body may hold at most
``MAX_BODY`` bytes; a larger ``Content-Length`` is refused before any of the
body is read.

Connections are served by a fixed pool of ``WORKERS`` threads, and no
thread is started per connection. One worker at a time waits in
``accept()``; the worker that gets a connection handles it itself, after
waking the most recently idle worker to accept the next one. Every
connection carries one request (HTTP/1.0). A client that stays silent for
``IDLE_TIMEOUT`` seconds while its request is read or its response written
is disconnected, so it holds a worker for no longer than that. Connections
that arrive while every worker is busy wait in the listen backlog of
``Server.request_queue_size``. ``serve`` has all threads allocate from one
glibc malloc arena.

Every request reads the store through one resident snapshot:
``Store.load_workspace`` returns the same ``Workspace`` until one of its four
parts (model, actors, viewpoints, policy) is reloaded or written, and what is
derived from it is built on first use and dropped along with it. A filter
lists the actor's viewpoints from the snapshot's by-actor index (step 1) and
keeps those covering the artifact (step 2). Steps 3 to 5 read nothing else,
so the served ``audit`` and ``entries`` depend only on the actor and the
ordered ids of those covering viewpoints. The snapshot's filter memo keeps
their encoded text under that key; steps 3 to 5 and the encoding run only on
a miss, and the memo takes no new key once it holds ``FILTER_MEMO_CAP``. The
bytes served are those of ``canonical_dumps(filter_result_to_doc(result,
include_audit=True))`` either way.
"""

from __future__ import annotations

import contextlib
import ctypes
import re
import socket
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, unquote, urlparse

from . import documents
from .changes import ChangeWorkflow
from .engine import covering_viewpoints, filter_covering
from .errors import DocumentError, InternalError, InvalidInputError, NotFoundError
from .records import record
from .store import Store

WORKERS = 8  # threads serving connections
IDLE_TIMEOUT = 10.0  # seconds a connection may stay silent before it is closed
MAX_BODY = 16 * 1024 * 1024  # bytes a request body may hold, far above a scaled model (about 130 KB)
FILTER_MEMO_CAP = 256  # served filters one snapshot's memo keeps; a full memo takes no new key
_M_ARENA_MAX = -8  # glibc's mallopt parameter for the number of malloc arenas


def _get_model_current(store: Store, params, query, body):
    return 200, store.export_model()


def _post_model(store: Store, params, query, body):
    return 201, {"version": store.import_model(body)}


def _get_actor_viewpoints(store: Store, params, query, body):
    viewpoints = store.list_viewpoints(params["actor_id"])
    return 200, {"viewpoints": [documents.viewpoint_to_doc(vp) for vp in viewpoints]}


def _get_actor_annotations(store: Store, params, query, body):
    annotations = store.list_annotations(params["actor_id"])
    return 200, {"annotations": [documents.annotation_to_doc(a) for a in annotations]}


_memo_lock = threading.Lock()  # keeps a memo within its cap when workers miss together


def _get_filter(store: Store, params, query, body):
    """An audited filter's canonical bytes. A memo hit serves its stored
    ``audit`` and ``entries`` text after a head naming the actor and the
    artifact, which sort first among the document's keys."""
    actors = query.get("actor", [])
    if len(actors) != 1:
        raise InvalidInputError("query parameter 'actor' is required exactly once")
    actor_id, artifact_id = actors[0], params["artifact_id"]
    ws = store.load_workspace()
    covering = covering_viewpoints(ws, artifact_id, actor_id)
    key = (actor_id, tuple(vp.id for vp in covering))
    names = (documents.canonical_dumps(actor_id)[:-1], documents.canonical_dumps(artifact_id)[:-1])
    head = ('{\n  "actor_id": %s,\n  "artifact_id": %s' % names).encode("utf-8")
    memo = ws.filter_memo
    tail = memo.get(key)
    if tail is not None:
        return 200, head + tail
    result = filter_covering(ws, artifact_id, actor_id, covering)
    payload = documents.canonical_dumps(documents.filter_result_to_doc(result, include_audit=True)).encode("utf-8")
    with _memo_lock:
        if len(memo) < FILTER_MEMO_CAP:
            memo[key] = payload[len(head):]
    return 200, payload


@record
class _ProposalBody:
    author_actor_id: str
    artifact_id: str
    batch: str
    delta: Any


@record
class _DecisionBody:
    actor_id: str
    decision: str


@record
class _WithdrawBody:
    actor_id: str


def _post_changes(store: Store, params, query, body):
    if isinstance(body, dict):
        body = {"delta": {"description": ""}, **body}
    req = documents.decode(_ProposalBody, body, "body")
    change = ChangeWorkflow(store).propose(req.author_actor_id, req.artifact_id, req.batch, req.delta)
    return 201, documents.change_to_doc(change)


def _post_decision(store: Store, params, query, body):
    req = documents.decode(_DecisionBody, body, "body")
    change = ChangeWorkflow(store).decide(params["change_id"], req.actor_id, req.decision)
    return 200, documents.change_to_doc(change)


def _post_withdraw(store: Store, params, query, body):
    req = documents.decode(_WithdrawBody, body, "body")
    change = ChangeWorkflow(store).withdraw(params["change_id"], req.actor_id)
    return 200, documents.change_to_doc(change)


def _get_change(store: Store, params, query, body):
    return 200, documents.change_to_doc(store.get_change(params["change_id"]))


_ROUTES = [
    ("GET", re.compile(r"^/model/current$"), _get_model_current),
    ("POST", re.compile(r"^/model$"), _post_model),
    ("GET", re.compile(r"^/actors/(?P<actor_id>[^/]+)/viewpoints$"), _get_actor_viewpoints),
    ("GET", re.compile(r"^/actors/(?P<actor_id>[^/]+)/annotations$"), _get_actor_annotations),
    ("GET", re.compile(r"^/artifacts/(?P<artifact_id>[^/]+)/filter$"), _get_filter),
    ("POST", re.compile(r"^/changes$"), _post_changes),
    ("POST", re.compile(r"^/changes/(?P<change_id>[^/]+)/decisions$"), _post_decision),
    ("POST", re.compile(r"^/changes/(?P<change_id>[^/]+)/withdraw$"), _post_withdraw),
    ("GET", re.compile(r"^/changes/(?P<change_id>[^/]+)$"), _get_change),
]


def make_handler(store: Store):
    class Handler(BaseHTTPRequestHandler):
        server_version = "viewfilter"
        timeout = IDLE_TIMEOUT

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

        def _respond(self, status: int, doc, close: bool = False) -> None:
            """Send a document, or a document's canonical bytes as they are."""
            payload = doc if isinstance(doc, bytes) else documents.canonical_dumps(doc).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Content-Length", str(len(payload)))
            if close:
                self.send_header("Connection", "close")
            self.end_headers()
            if self.command != "HEAD":
                self.wfile.write(payload)

        def send_error(self, code, message=None, explain=None):
            """The stdlib's own refusals, as an error document under its status."""
            if len(self.requestline.split()) != 2:
                # Only a two-word line is a real HTTP/0.9 request; any other gets a status line.
                self.request_version = "HTTP/1.0"
            status = HTTPStatus(code)
            error = {"code": status.name.lower(), "message": message or status.phrase}
            self._respond(code, {"error": error}, close=True)

        def _read_body(self):
            header = self.headers.get("Content-Length", "0")
            digits = header.strip(" \t")
            if not (digits.isascii() and digits.isdigit()):  # RFC 9110: 1*DIGIT, so no sign, "_" or other digits
                raise InvalidInputError(f"Content-Length must be a non-negative integer, got {header!r}")
            significant = digits.lstrip("0") or "0"
            # More digits than MAX_BODY has is larger, and may be more than int() parses.
            length = int(significant) if len(significant) <= len(str(MAX_BODY)) else MAX_BODY + 1
            if length > MAX_BODY:
                raise InvalidInputError(f"Content-Length must be at most {MAX_BODY}, got {header!r}")
            try:
                raw = self.rfile.read(length).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DocumentError(f"request body is not UTF-8: {exc}") from None
            except TimeoutError:
                raise InvalidInputError(f"request body did not arrive within {self.timeout:g} s") from None
            return documents.canonical_loads(raw) if raw else None

        def _dispatch(self, method: str) -> None:
            parsed = urlparse(self.path)
            query = parse_qs(parsed.query)
            body = None
            try:
                if method == "POST":
                    body = self._read_body()
                for route_method, pattern, handler in _ROUTES:
                    if route_method != method:
                        continue
                    match = pattern.match(parsed.path)
                    if match:
                        params = {name: unquote(value) for name, value in match.groupdict().items()}
                        status, doc = handler(store, params, query, body)
                        self._respond(status, doc)
                        return
                raise NotFoundError(f"no route for {method} {parsed.path}")
            except Exception as exc:  # the server keeps serving; the client gets a document
                error = InternalError.report(exc)
                self._respond(error.http_status, error.to_doc())

        def do_GET(self):
            self._dispatch("GET")

        def do_POST(self):
            self._dispatch("POST")

    return Handler


class Server(HTTPServer):
    """An HTTP server whose ``serve_forever`` runs ``WORKERS`` threads until
    ``shutdown``. One worker at a time, the leader, waits in ``accept()``. A
    leader that gets a connection wakes the most recently idle worker to
    lead next and handles the connection itself, so no connection is handed
    from thread to thread, and a light load keeps reusing the same few
    threads."""

    request_queue_size = 64

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._guard = threading.Lock()
        self._stopping = False
        self._leading = False  # a worker is in accept(), or has been handed the lead
        self._idle: list[threading.Event] = []  # one per idle worker, the most recent last
        self._workers: list[threading.Thread] = []

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Serve until ``shutdown``; ``poll_interval`` is unused, since no thread polls."""
        with self._guard:
            if not self._stopping:
                self._workers = [threading.Thread(target=self._work, name=f"viewfilter-worker-{i}") for i in range(WORKERS)]
                for worker in self._workers:
                    worker.start()
        try:
            for worker in self._workers:
                worker.join()
        finally:  # an interrupt in this thread stops the workers too
            self.shutdown()

    def _work(self) -> None:
        wake = threading.Event()
        while True:
            with self._guard:
                if self._stopping:
                    return
                leads = not self._leading
                self._leading = True
                if not leads:
                    self._idle.append(wake)
            if not leads:
                wake.wait()  # until handed the lead, or shut down
                wake.clear()
                if self._stopping:
                    return
            try:
                request, client_address = self.get_request()
            except OSError:  # woken by shutdown, or a connection lost before it was accepted
                request = None
            with self._guard:
                if self._idle:  # hand the lead over; it stays taken
                    self._idle.pop().set()
                else:
                    self._leading = False
            if request is None:
                continue
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)

    def shutdown(self) -> None:
        """Stop serving: wake every worker, the leader included, and wait for
        each to finish the connection it holds. The socket accepts no
        connection after this."""
        with self._guard:
            self._stopping = True
            workers = self._workers
            for wake in self._idle:
                wake.set()
        with contextlib.suppress(OSError):  # already shut down or closed
            # On Linux this wakes a thread blocked in accept() on the socket.
            self.socket.shutdown(socket.SHUT_RDWR)
        for worker in workers:
            worker.join()

    def server_close(self) -> None:
        self.shutdown()
        super().server_close()


def create_server(store: Store, host: str = "127.0.0.1", port: int = 0) -> Server:
    """Bound, not-yet-serving HTTP server (port 0 picks a free port)."""
    return Server((host, port), make_handler(store))


def _one_malloc_arena() -> None:
    """Have every thread allocate from glibc's main malloc arena. By default
    each worker that handles a connection gets an arena of its own, which
    keeps much of what the worker freed: on the scaled benchmark store, a
    server whose eight workers took connections in turn grew by about 3 MB
    that way, and its requests were slower."""
    try:
        ctypes.CDLL(None).mallopt(_M_ARENA_MAX, 1)
    except (AttributeError, OSError):  # not glibc: leave the allocator as it is
        pass


def serve(store_root: str | Path, host: str = "127.0.0.1", port: int = 8085) -> None:
    """Run the service until interrupted."""
    _one_malloc_arena()
    server = create_server(Store(store_root), host, port)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
