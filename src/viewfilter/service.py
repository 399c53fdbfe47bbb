"""HTTP/JSON service exposing the engine over a store.

Responses are the same canonical documents the CLI prints; domain errors map
one-to-one onto HTTP statuses (404 not-found, 403 permission-denied, 409
conflict or invalid-state, 422 validation failure), and any other exception
is answered with a 500 ``internal`` error document. Path parameters are
percent-decoded after the route has matched. A request body may hold at most
``MAX_BODY`` bytes; a larger ``Content-Length`` is refused before any of the
body is read.

Each request is read straight off its socket, a line at a time, with the
limits and refusals of the stdlib's ``http.server``; each refusal gets an
error document whose ``code`` is the status name, and ``Connection: close``:

- a request line of more than ``_LINE_MAX`` bytes, its line ending
  included, gets 414;
- a three-word request line needs a version ``HTTP/<major>.<minor>``: any
  other version gets 400, and 2.0 or above gets 505;
- a two-word line is an HTTP/0.9 request, which must be a GET; every reply
  to it, a refusal included, takes the HTTP/0.9 form: the body alone, with
  no status line and no headers;
- a line of any other number of words gets 400, except a blank one, which
  ends the connection with no reply; a target that starts with ``//`` is
  read as starting with ``/``, and one that ``urlparse`` refuses gets 400;
- a header line of more than ``_LINE_MAX`` bytes gets 431 "Line too long",
  and more than ``_MAX_HEADER_LINES`` lines after the request line, the
  blank line that ends them included, get 431 "Too many headers";
- GET and POST are routed; any other method gets 501, and HEAD gets its
  status and headers with no body.

Lines may end in CRLF or LF. ``Content-Length`` is the only header
interpreted: the first line whose name, before its colon, is
``content-length`` in any case. A head that the client ends before its
blank line gets no reply. Every reply, status line to body, goes out in one
write.

Connections are served by a fixed pool of ``WORKERS`` threads, and no
thread is started per connection. One worker at a time waits in
``accept()``; the worker that gets a connection handles it itself, after
waking the most recently idle worker to accept the next one. Every
connection carries one request (HTTP/1.0). A client that stays silent for
``IDLE_TIMEOUT`` seconds while its request head is read or its response
written is disconnected with no reply; one that stays silent that long in
its body gets 422 ``invalid_input``. Either way it holds a worker for no
longer than that. Connections that arrive while every worker is busy wait
in the listen backlog of ``Server.request_queue_size``. ``serve`` has all
threads allocate from one glibc malloc arena.

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
import socketserver
import sys
import threading
import time
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
_LINE_MAX = 65536  # bytes a request line or a header line may hold, its line ending included
_MAX_HEADER_LINES = 100  # lines a head may hold after its request line, the blank line ending them included
_CHUNK = 65536  # bytes asked of one recv()
_SERVER = f"viewfilter Python/{sys.version.split()[0]}"
# The reason phrase of each status the service sends: Python 3.11's, which 3.13
# renamed for 414 and 422. A refusal's error code is its phrase in snake case.
_PHRASES = {
    200: "OK", 201: "Created", 400: "Bad Request", 403: "Forbidden", 404: "Not Found", 409: "Conflict",
    414: "Request-URI Too Long", 422: "Unprocessable Entity", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 501: "Not Implemented", 505: "HTTP Version Not Supported",
}
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


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


class _Refusal(Exception):
    """A request refused before any route runs, with its status and message."""

    def __init__(self, status: int, message: str | None = None, http09: bool = False):
        super().__init__(status)
        self.status, self.message, self.http09 = status, message, http09

    def payload(self) -> bytes:
        phrase = _PHRASES[self.status]
        error = {"code": phrase.lower().replace(" ", "_").replace("-", "_"), "message": self.message or phrase}
        return documents.canonical_dumps({"error": error}).encode("utf-8")


class _Reader:
    """The bytes of one request, received from its socket as they are needed."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.data = b""
        self.pos = 0

    def readline(self) -> bytes:
        """The next line with its ending, cut after ``_LINE_MAX + 1`` bytes so
        that a longer line shows as too long. Raises ``EOFError`` if the
        client ends the stream before the line does."""
        while True:
            end = self.data.find(b"\n", self.pos, self.pos + _LINE_MAX + 1)
            if end < 0 and len(self.data) - self.pos > _LINE_MAX:
                end = self.pos + _LINE_MAX
            if end >= 0:
                line, self.pos = self.data[self.pos:end + 1], end + 1
                return line
            chunk = self.sock.recv(_CHUNK)
            if not chunk:
                raise EOFError
            self.data, self.pos = self.data[self.pos:] + chunk, 0

    def read(self, size: int) -> bytes:
        """The next ``size`` bytes, or fewer if the client ends the stream first."""
        chunks = [self.data[self.pos:self.pos + size]]
        got = len(chunks[0])
        self.pos += got
        while got < size and (chunk := self.sock.recv(min(size - got, _CHUNK))):
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)


def _request_line(line: bytes) -> tuple[str, str, bool] | None:
    """A request line's method, target and whether it is an HTTP/0.9
    request, by ``http.server``'s rules; None for a line with no words."""
    requestline = line.decode("latin-1").rstrip("\r\n")
    words = requestline.split()
    if not words:
        return None
    if len(words) >= 3:
        version = words[-1]
        try:
            if not version.startswith("HTTP/"):
                raise ValueError
            numbers = version[5:].split(".")
            if len(numbers) != 2 or not all(n.isdigit() and len(n) <= 10 for n in numbers):
                raise ValueError
            major, _minor = (int(n) for n in numbers)
        except ValueError:  # int() refuses some of what isdigit() accepts, such as "²"
            raise _Refusal(400, f"Bad request version ({version!r})") from None
        if major >= 2:
            raise _Refusal(505, f"Invalid HTTP version ({version[5:]})")
    if len(words) > 3 or len(words) < 2:
        raise _Refusal(400, f"Bad request syntax ({requestline!r})")
    method, target = words[:2]
    if len(words) == 2 and method != "GET":
        raise _Refusal(400, f"Bad HTTP/0.9 request type ({method!r})", http09=True)
    if target.startswith("//"):  # gh-87389: a client would take //host/path for another host
        target = "/" + target.lstrip("/")
    return method, target, len(words) == 2


def _content_length(reader: _Reader) -> str | None:
    """Read the header lines up to the blank line; the first
    ``Content-Length`` value, or None."""
    length = None
    for _ in range(_MAX_HEADER_LINES):
        line = reader.readline()
        if len(line) > _LINE_MAX:
            raise _Refusal(431, "Line too long")
        if line in (b"\r\n", b"\n"):
            return length
        name, colon, value = line.partition(b":")
        if length is None and colon and name.lower() == b"content-length":
            length = value.decode("latin-1").lstrip(" \t").rstrip("\r\n")
    raise _Refusal(431, "Too many headers")


def _read_body(reader: _Reader, header: str | None):
    header = "0" if header is None else header
    digits = header.strip(" \t")
    if not (digits.isascii() and digits.isdigit()):  # RFC 9110: 1*DIGIT, so no sign, "_" or other digits
        raise InvalidInputError(f"Content-Length must be a non-negative integer, got {header!r}")
    significant = digits.lstrip("0") or "0"
    # More digits than MAX_BODY has is larger, and may be more than int() parses.
    length = int(significant) if len(significant) <= len(str(MAX_BODY)) else MAX_BODY + 1
    if length > MAX_BODY:
        raise InvalidInputError(f"Content-Length must be at most {MAX_BODY}, got {header!r}")
    try:
        raw = reader.read(length).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"request body is not UTF-8: {exc}") from None
    except TimeoutError:
        raise InvalidInputError(f"request body did not arrive within {IDLE_TIMEOUT:g} s") from None
    return documents.canonical_loads(raw) if raw else None


def _dispatch(store: Store, method: str, target: str, reader: _Reader, length: str | None) -> tuple[int, bytes]:
    """Route a GET or a POST; its status and the canonical bytes of its document."""
    try:
        parsed = urlparse(target)
    except ValueError:  # an IPv6 host without its closing bracket, say
        raise _Refusal(400, f"Bad request target ({target!r})") from None
    query = parse_qs(parsed.query)
    try:
        body = _read_body(reader, length) if method == "POST" else None
        for route_method, pattern, handler in _ROUTES:
            if route_method != method:
                continue
            match = pattern.match(parsed.path)
            if match:
                params = {name: unquote(value) for name, value in match.groupdict().items()}
                status, doc = handler(store, params, query, body)
                break
        else:
            raise NotFoundError(f"no route for {method} {parsed.path}")
    except Exception as exc:  # the server keeps serving; the client gets a document
        error = InternalError.report(exc)
        status, doc = error.http_status, error.to_doc()
    return status, doc if isinstance(doc, bytes) else documents.canonical_dumps(doc).encode("utf-8")


def _http_date() -> str:
    """The time now in the IMF-fixdate form of RFC 9110."""
    t = time.gmtime()
    return "%s, %02d %s %04d %02d:%02d:%02d GMT" % (
        _DAYS[t.tm_wday], t.tm_mday, _MONTHS[t.tm_mon - 1], t.tm_year, t.tm_hour, t.tm_min, t.tm_sec)


def _reply(status: int, payload: bytes, *, close: bool, body: bool) -> bytes:
    """A whole HTTP/1.0 reply: status line, headers and, unless ``body`` is false, the payload."""
    head = (f"HTTP/1.0 {status} {_PHRASES[status]}\r\nServer: {_SERVER}\r\nDate: {_http_date()}\r\n"
            f"Content-Type: application/json; charset=utf-8\r\nContent-Length: {len(payload)}\r\n")
    if close:
        head += "Connection: close\r\n"
    return (head + "\r\n").encode("latin-1") + (payload if body else b"")


class Server(socketserver.TCPServer):
    """An HTTP server over ``store`` whose ``serve_forever`` runs ``WORKERS``
    threads until ``shutdown``. One worker at a time, the leader, waits in
    ``accept()``. A leader that gets a connection wakes the most recently
    idle worker to lead next and handles the connection itself, so no
    connection is handed from thread to thread, and a light load keeps
    reusing the same few threads."""

    allow_reuse_address = True
    request_queue_size = 64

    def __init__(self, server_address: tuple[str, int], store: Store):
        super().__init__(server_address, None)  # no handler class: finish_request answers each connection
        self.store = store
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

    def finish_request(self, request: socket.socket, client_address) -> None:
        """Read one request off the connection and send its reply in one write."""
        request.settimeout(IDLE_TIMEOUT)
        reader = _Reader(request)
        method, http09 = "", False
        try:
            try:
                line = reader.readline()
                if len(line) > _LINE_MAX:
                    raise _Refusal(414)
                parsed = _request_line(line)
                if parsed is None:
                    return
                method, target, http09 = parsed
                length = _content_length(reader)
                if method not in ("GET", "POST"):
                    raise _Refusal(501, f"Unsupported method ({method!r})")
                status, payload = _dispatch(self.store, method, target, reader, length)
                close = False
            except _Refusal as refusal:
                status, payload, close = refusal.status, refusal.payload(), True
                http09 = http09 or refusal.http09
            request.sendall(payload if http09 else _reply(status, payload, close=close, body=method != "HEAD"))
        except (EOFError, OSError):  # the client ended its head, went silent or went away: no reply
            return

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
    return Server((host, port), store)


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
