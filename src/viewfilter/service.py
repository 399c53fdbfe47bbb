"""HTTP/JSON service exposing the engine over a store.

Responses are the same canonical documents the CLI prints; domain errors map
one-to-one onto HTTP statuses (404 not-found, 403 permission-denied, 409
conflict or invalid-state, 422 validation failure), and any other exception
is answered with a 500 ``internal`` error document. Requests the stdlib
refuses itself (a garbled request line, an oversized URI, an unsupported
method) keep its status and get an error document too. Path parameters are
percent-decoded after the route has matched.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, unquote, urlparse

from . import documents
from .changes import ChangeWorkflow
from .engine import filtering_info_artifact
from .errors import DocumentError, InternalError, InvalidInputError, NotFoundError
from .store import Store


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


def _get_filter(store: Store, params, query, body):
    actors = query.get("actor", [])
    if len(actors) != 1:
        raise InvalidInputError("query parameter 'actor' is required exactly once")
    result = filtering_info_artifact(store.load_workspace(), params["artifact_id"], actors[0])
    return 200, documents.filter_result_to_doc(result, include_audit=True)


@dataclass(frozen=True)
class _ProposalBody:
    author_actor_id: str
    artifact_id: str
    batch: str
    delta: Any


@dataclass(frozen=True)
class _DecisionBody:
    actor_id: str
    decision: str


@dataclass(frozen=True)
class _WithdrawBody:
    actor_id: str


def _post_changes(store: Store, params, query, body):
    if isinstance(body, dict):
        body = {"delta": {"description": ""}, **body}
    req = documents.decoder(_ProposalBody)(body, "body")
    change = ChangeWorkflow(store).propose(req.author_actor_id, req.artifact_id, req.batch, req.delta)
    return 201, documents.change_to_doc(change)


def _post_decision(store: Store, params, query, body):
    req = documents.decoder(_DecisionBody)(body, "body")
    change = ChangeWorkflow(store).decide(params["change_id"], req.actor_id, req.decision)
    return 200, documents.change_to_doc(change)


def _post_withdraw(store: Store, params, query, body):
    req = documents.decoder(_WithdrawBody)(body, "body")
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

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

        def _respond(self, status: int, doc, close: bool = False) -> None:
            payload = documents.canonical_dumps(doc).encode("utf-8")
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
            try:
                length = int(header)
            except ValueError:
                length = -1
            if length < 0:
                raise InvalidInputError(f"Content-Length must be a non-negative integer, got {header!r}")
            try:
                raw = self.rfile.read(length).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DocumentError(f"request body is not UTF-8: {exc}") from None
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


def create_server(store: Store, host: str = "127.0.0.1", port: int = 0) -> ThreadingHTTPServer:
    """Bound, not-yet-serving HTTP server (port 0 picks a free port)."""
    return ThreadingHTTPServer((host, port), make_handler(store))


def serve(store_root: str | Path, host: str = "127.0.0.1", port: int = 8085) -> None:
    """Run the service until interrupted."""
    server = create_server(Store(store_root), host, port)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
