import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from urllib.parse import quote

import pytest

import viewfilter
from _corruptions import CORRUPTIONS
from _oracles import MERGED_TABLE
from viewfilter import documents, fixture, service as service_module
from viewfilter.cli import main
from viewfilter.engine import covering_viewpoints, filtering_info_artifact
from viewfilter.service import create_server
from viewfilter.store import Store


def request(base, method, path, body=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    req = urllib.request.Request(base + path, method=method, data=data)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


def raw_request(base, method, path, headers, body=b""):
    """Send exactly the given header lines and body bytes; returns (status, body)."""
    host = base.removeprefix("http://").split(":")[0]
    head = "".join(f"{line}\r\n" for line in [f"{method} {path} HTTP/1.1", f"Host: {host}", *headers])
    status, _, body = raw_exchange(base, head.encode("ascii") + b"\r\n" + body)
    return status, body


def raw_exchange(base, data):
    """Send ``data`` as is; returns (status, header lines, body) of the reply.

    A reply without a status line (the stdlib's HTTP/0.9 form) is all body.
    """
    host, port = base.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(data)
        response = b""
        try:
            while chunk := sock.recv(65536):
                response += chunk
        except ConnectionResetError:  # a server closing on unread request bytes resets after its reply
            pass
    if not response.startswith(b"HTTP/"):
        return None, [], response
    head, _, body = response.partition(b"\r\n\r\n")
    status_line, *headers = head.decode("latin-1").split("\r\n")
    return int(status_line.split()[1]), headers, body


class TestModelEndpoints:
    def test_get_current_model(self, service):
        base, _ = service
        status, body = request(base, "GET", "/model/current")
        assert status == 200
        expected = documents.canonical_dumps(documents.model_to_doc(fixture.cyclone_vessel_model()))
        assert body.decode("utf-8") == expected

    def test_post_model_publishes_next_version(self, service, model_doc):
        base, store = service
        status, body = request(base, "POST", "/model", model_doc)
        assert status == 201
        assert json.loads(body) == {"version": 2}
        assert store.current_version() == 2

    def test_post_corrupted_model_is_422(self, service, model_doc):
        base, store = service
        mutate, expected_code = CORRUPTIONS["dangling_parent"]
        mutate(model_doc)
        status, body = request(base, "POST", "/model", model_doc)
        assert status == 422
        error = json.loads(body)["error"]
        assert error["code"] == "model_rejected"
        assert [v["code"] for v in error["details"]["violations"]] == [expected_code]
        assert store.current_version() == 1


class TestQueryEndpoints:
    def test_actor_viewpoints(self, service):
        base, _ = service
        status, body = request(base, "GET", "/actors/ActorX/viewpoints")
        assert status == 200
        assert [vp["id"] for vp in json.loads(body)["viewpoints"]] == ["VP1", "VP2"]

    def test_unknown_actor_is_404(self, service):
        base, _ = service
        status, body = request(base, "GET", "/actors/Nobody/viewpoints")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not_found"

    def test_filter_returns_merged_result(self, service):
        base, _ = service
        status, body = request(base, "GET", "/artifacts/CycloneVessel/filter?actor=ActorX")
        assert status == 200
        doc = json.loads(body)
        assert {e["batch"]: e["level"] for e in doc["entries"]} == MERGED_TABLE
        assert [a["viewpoint_id"] for a in doc["audit"]] == ["VP2", "VP1"]

    def test_filter_requires_actor_param(self, service):
        base, _ = service
        status, body = request(base, "GET", "/artifacts/CycloneVessel/filter")
        assert status == 422

    def test_filter_unknown_artifact_is_404(self, service):
        base, _ = service
        status, _ = request(base, "GET", "/artifacts/Ghost/filter?actor=ActorX")
        assert status == 404

    def test_filter_reports_an_unknown_actor_before_an_unknown_artifact(self, service):
        base, _ = service
        status, body = request(base, "GET", "/artifacts/Ghost/filter?actor=Nobody")
        assert status == 404
        assert json.loads(body)["error"] == {"code": "not_found", "message": "unknown actor: Nobody"}

    def test_unknown_route_is_404(self, service):
        base, _ = service
        status, _ = request(base, "GET", "/nope")
        assert status == 404


class TestChangeEndpoints:
    def _propose(self, base, batch="Geometry-Form", author="ActorX"):
        return request(
            base, "POST", "/changes",
            {"author_actor_id": author, "artifact_id": "CycloneVessel", "batch": batch,
             "delta": {"description": "d"}},
        )

    def test_lifecycle_over_http(self, service):
        base, store = service
        status, body = self._propose(base)
        assert status == 201
        change = json.loads(body)
        assert change["status"] == "pending"
        assert change["concerned"] == ["ActorY"]

        status, body = request(
            base, "POST", f"/changes/{change['id']}/decisions",
            {"actor_id": "ActorZ", "decision": "approve"},
        )
        assert status == 403

        status, body = request(
            base, "POST", f"/changes/{change['id']}/decisions",
            {"actor_id": "ActorY", "decision": "approve"},
        )
        assert status == 200
        assert json.loads(body)["status"] == "effective"
        assert store.current_version() == 2

        status, body = request(
            base, "POST", f"/changes/{change['id']}/decisions",
            {"actor_id": "ActorY", "decision": "reject"},
        )
        assert status == 409

        status, body = request(base, "GET", f"/changes/{change['id']}")
        assert status == 200
        assert json.loads(body)["status"] == "effective"

        status, body = request(base, "GET", "/actors/ActorY/annotations")
        assert status == 200
        assert [a["change_id"] for a in json.loads(body)["annotations"]] == [change["id"]]

    def test_denied_propose_is_403(self, service):
        base, _ = service
        status, body = self._propose(base, author="ActorZ")
        assert status == 403

    def test_duplicate_decision_is_409(self, service):
        base, _ = service
        _, body = self._propose(base)
        change_id = json.loads(body)["id"]
        request(base, "POST", f"/changes/{change_id}/decisions", {"actor_id": "ActorY", "decision": "approve"})
        status, _ = request(
            base, "POST", f"/changes/{change_id}/decisions", {"actor_id": "ActorY", "decision": "approve"}
        )
        assert status == 409

    def test_withdraw_endpoint(self, service):
        base, _ = service
        _, body = self._propose(base)
        change_id = json.loads(body)["id"]
        status, body = request(base, "POST", f"/changes/{change_id}/withdraw", {"actor_id": "ActorX"})
        assert status == 200
        assert json.loads(body)["status"] == "withdrawn"

    def test_unknown_change_is_404(self, service):
        base, _ = service
        status, _ = request(base, "GET", "/changes/chg-999999")
        assert status == 404

    def test_malformed_body_is_422(self, service):
        base, _ = service
        status, _ = request(base, "POST", "/changes", {"author_actor_id": "ActorX"})
        assert status == 422


class TestBodyErrors:
    def test_non_utf8_body_gets_bad_document(self, service):
        base, store = service
        status, body = raw_request(base, "POST", "/changes", ["Content-Length: 2"], b"\xff\xfe")
        assert status == 422
        assert json.loads(body)["error"]["code"] == "bad_document"
        assert store.list_changes() == []

    # Lengths above service.MAX_BODY, and any form but ASCII digits (RFC 9110), are refused
    # before any of the body is read.
    @pytest.mark.parametrize(
        "length",
        ["abc", "-5", "-1", "+82", "8_2", "1000000000000", "99999999999999999999", str(service_module.MAX_BODY + 1)],
    )
    def test_bad_content_length_gets_invalid_input(self, service, capfd, length):
        base, store = service
        status, body = raw_request(base, "POST", "/changes", [f"Content-Length: {length}"])
        assert status == 422
        error = json.loads(body)["error"]
        assert error["code"] == "invalid_input"
        assert repr(length) in error["message"]
        assert store.list_changes() == []
        assert capfd.readouterr().err == ""

    def test_a_content_length_longer_than_int_parses_gets_invalid_input(self, service, capfd, long_number):
        base, store = service
        status, body = raw_request(base, "POST", "/changes", [f"Content-Length: {long_number}"])
        assert status == 422
        error = json.loads(body)["error"]
        assert error["code"] == "invalid_input"
        assert error["message"].startswith(f"Content-Length must be at most {service_module.MAX_BODY}, got ")
        assert store.list_changes() == []
        assert capfd.readouterr().err == ""

    def test_a_body_holding_an_integer_longer_than_int_parses_gets_bad_document(self, service, capfd, long_number):
        base, store = service
        body = ('{"author_actor_id": "ActorX", "artifact_id": "CycloneVessel", "batch": "Geometry-Form", '
                '"delta": {"n": %s}}' % long_number).encode()
        status, reply = raw_request(base, "POST", "/changes", [f"Content-Length: {len(body)}"], body)
        assert status == 422
        message = f"invalid JSON: an integer has more than {len(long_number) - 1} digits"
        assert json.loads(reply) == {"error": {"code": "bad_document", "message": message}}
        assert store.list_changes() == []
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("depth", [1_500, 200_000])
    def test_a_deeply_nested_body_gets_bad_document(self, service, capfd, depth):
        base, store = service
        body = ("[" * depth + "]" * depth).encode()
        status, reply = raw_request(base, "POST", "/changes", [f"Content-Length: {len(body)}"], body)
        assert status == 422
        assert json.loads(reply) == {"error": {"code": "bad_document", "message": "invalid JSON: nested too deeply"}}
        assert store.list_changes() == []
        assert capfd.readouterr().err == ""


class TestStdlibErrors:
    """Requests the stdlib refuses before any route runs still get an error document."""

    @pytest.mark.parametrize(
        ("data", "status", "code"),
        [
            (b"DELETE /changes/chg-000001 HTTP/1.1\r\n\r\n", 501, "not_implemented"),
            (b"PUT /model HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", 501, "not_implemented"),
            (b"GET /model current HTTP/1.1\r\n\r\n", 400, "bad_request"),
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414, "request_uri_too_long"),
        ],
        ids=["DELETE", "PUT", "garbled-line", "long-uri"],
    )
    def test_refusal_gets_an_error_document(self, service, data, status, code):
        base, _ = service
        got, headers, body = raw_exchange(base, data)
        assert got == status
        assert "Content-Type: application/json; charset=utf-8" in headers
        assert f"Content-Length: {len(body)}" in headers
        error = json.loads(body)["error"]
        assert error["code"] == code
        assert documents.canonical_dumps({"error": error}).encode("utf-8") == body

    @pytest.mark.parametrize(
        ("line", "status", "code"),
        [
            (b"GARBLED", 400, "bad_request"),
            (b"GET /model/current HTTP/one", 400, "bad_request"),
            (b"GET /model/current HTTP/2.0", 505, "http_version_not_supported"),
        ],
        ids=["GARBLED", "HTTP-one", "HTTP-2.0"],
    )
    def test_a_line_without_a_usable_version_gets_its_status(self, service, line, status, code):
        base, _ = service
        got, headers, body = raw_exchange(base, line + b"\r\n\r\n")
        assert got == status
        assert f"Content-Length: {len(body)}" in headers
        assert json.loads(body)["error"]["code"] == code

    def test_a_two_word_line_is_answered_in_the_http09_form(self, service):
        # "POST /changes" is an HTTP/0.9 request line, so the refusal has no status line and no headers.
        base, _ = service
        status, _, body = raw_exchange(base, b"POST /changes\r\n\r\n")
        assert status is None
        assert json.loads(body)["error"]["code"] == "bad_request"

    def test_head_gets_the_status_and_no_body(self, service):
        base, _ = service
        status, headers, body = raw_exchange(base, b"HEAD /model/current HTTP/1.1\r\n\r\n")
        assert status == 501
        assert "Content-Type: application/json; charset=utf-8" in headers
        assert body == b""

    def test_the_server_keeps_serving(self, service):
        base, _ = service
        raw_exchange(base, b"GARBLED\r\n\r\n")
        assert request(base, "GET", "/model/current")[0] == 200


_PROPOSAL = {"author_actor_id": "ActorX", "artifact_id": "CycloneVessel", "batch": "Geometry-Form"}

# (route, body, JSON path of the wrongly typed field)
_WRONGLY_TYPED_BODIES = [
    ("/changes", {**_PROPOSAL, "author_actor_id": ["ActorX"]}, "body.author_actor_id"),
    ("/changes", {**_PROPOSAL, "artifact_id": {"id": "CycloneVessel"}}, "body.artifact_id"),
    ("/changes", {**_PROPOSAL, "batch": ["Geometry-Form"]}, "body.batch"),
    ("/changes/{id}/decisions", {"actor_id": ["ActorY"], "decision": "approve"}, "body.actor_id"),
    ("/changes/{id}/withdraw", {"actor_id": {"id": "ActorX"}}, "body.actor_id"),
]


class TestBodyTypes:
    @pytest.mark.parametrize(
        ("route", "body", "path"),
        _WRONGLY_TYPED_BODIES,
        ids=[f"{route.rsplit('/', 1)[-1]}-{path}" for route, _, path in _WRONGLY_TYPED_BODIES],
    )
    def test_wrongly_typed_field_gets_bad_document(self, service, route, body, path):
        base, store = service
        _, created = request(base, "POST", "/changes", _PROPOSAL)
        change_id = json.loads(created)["id"]

        def written():
            files = sorted((store.root / "changes").iterdir()) + [store.root / "seq"]
            return [(f.name, f.read_bytes()) for f in files]

        before = written()
        data = json.dumps(body).encode("utf-8")
        status, reply = raw_request(base, "POST", route.format(id=change_id), [f"Content-Length: {len(data)}"], data)
        assert status == 422
        error = json.loads(reply)["error"]
        assert error["code"] == "bad_document"
        assert error["message"].startswith(f"{path}: ")
        assert written() == before


class TestCliParity:
    @pytest.fixture()
    def cli_bytes(self, service, capsys):
        base, store = service

        def _run(*argv, code=0):
            assert main(["--store", str(store.root), *map(str, argv)]) == code
            return capsys.readouterr().out.encode("utf-8")

        return _run

    def test_model_export_parity(self, service, cli_bytes):
        base, _ = service
        _, body = request(base, "GET", "/model/current")
        assert cli_bytes("model", "export") == body

    def test_filter_parity(self, service, cli_bytes):
        base, _ = service
        _, body = request(base, "GET", "/artifacts/CycloneVessel/filter?actor=ActorX")
        assert cli_bytes("filter", "--actor", "ActorX", "--artifact", "CycloneVessel", "--audit") == body

    def test_filter_parity_on_an_id_that_needs_escaping(self, service, cli_bytes, model_doc):
        base, _ = service
        model_doc["artifacts"].append(
            {"id": "Dust Valve/2", "name": "Spare valve", "kind": "component", "parent_id": "DustOutlet", "description": ""}
        )
        assert request(base, "POST", "/model", model_doc)[0] == 201
        status, body = request(base, "GET", "/artifacts/Dust%20Valve%2F2/filter?actor=ActorZ")
        assert status == 200
        assert json.loads(body)["artifact_id"] == "Dust Valve/2"
        assert cli_bytes("filter", "--actor", "ActorZ", "--artifact", "Dust Valve/2", "--audit") == body

    def test_viewpoints_parity(self, service, cli_bytes):
        base, _ = service
        _, body = request(base, "GET", "/actors/ActorX/viewpoints")
        assert cli_bytes("vp", "list", "--actor", "ActorX") == body

    @pytest.mark.parametrize(
        ("route", "argv"),
        [("viewpoints", ("vp", "list", "--actor", "Nobody")), ("annotations", ("actor", "annotations", "Nobody"))],
    )
    def test_unknown_actor_parity(self, service, cli_bytes, route, argv):
        base, _ = service
        status, body = request(base, "GET", f"/actors/Nobody/{route}")
        assert status == 404
        assert cli_bytes(*argv, code=1) == body

    def test_unexpected_exception_gets_the_same_internal_document(self, service, capsys, monkeypatch):
        base, store = service

        def defect(self):
            raise RuntimeError("simulated defect")

        monkeypatch.setattr(Store, "load_workspace", defect)
        path = "/artifacts/CycloneVessel/filter?actor=ActorX"
        status, body = raw_request(base, "GET", path, [])
        assert status == 500
        assert json.loads(body) == {"error": {"code": "internal", "message": "internal error: RuntimeError"}}
        argv = ["--store", str(store.root), "filter", "--actor", "ActorX", "--artifact", "CycloneVessel", "--audit"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out.encode("utf-8") == body
        assert "RuntimeError: simulated defect" in captured.err
        monkeypatch.undo()
        assert request(base, "GET", path)[0] == 200

    def test_change_show_and_annotations_parity(self, service, cli_bytes):
        base, store = service
        _, body = request(
            base, "POST", "/changes",
            {"author_actor_id": "ActorX", "artifact_id": "CycloneVessel", "batch": "Geometry-Form"},
        )
        change_id = json.loads(body)["id"]
        _, shown = request(base, "GET", f"/changes/{change_id}")
        assert cli_bytes("change", "show", change_id) == shown
        _, annotations = request(base, "GET", "/actors/ActorY/annotations")
        assert cli_bytes("actor", "annotations", "ActorY") == annotations



def _fixture_pairs(store):
    ws = Store(store.root).load_workspace()
    return [(actor, artifact) for actor in sorted(ws.actors) for artifact in sorted(ws.model.artifacts_by_id)]


def _filter_path(actor, artifact):
    return f"/artifacts/{quote(artifact, safe='')}/filter?actor={quote(actor, safe='')}"


class TestFilterMemo:
    """The snapshot's memo serves a repeated (actor, covering viewpoints) key."""

    def test_a_memo_hit_serves_the_cli_bytes_for_every_pair(self, service, capsys, monkeypatch):
        base, store = service
        pairs = _fixture_pairs(store)
        first = {pair: request(base, "GET", _filter_path(*pair)) for pair in pairs}

        def steps_3_to_5(*args):
            raise AssertionError("a memo hit ran steps 3 to 5")

        monkeypatch.setattr(service_module, "filter_covering", steps_3_to_5)
        for actor, artifact in pairs:
            status, body = request(base, "GET", _filter_path(actor, artifact))
            assert (status, body) == first[actor, artifact]
            argv = ["--store", str(store.root), "filter", "--actor", actor, "--artifact", artifact, "--audit"]
            assert main(argv) == 0
            assert capsys.readouterr().out.encode("utf-8") == body, (actor, artifact)

    def test_the_memo_stops_growing_at_its_cap(self, service, monkeypatch):
        base, store = service
        monkeypatch.setattr(service_module, "FILTER_MEMO_CAP", 3)
        ws = Store(store.root).load_workspace()
        pairs = _fixture_pairs(store)
        keys = {(actor, tuple(vp.id for vp in covering_viewpoints(ws, artifact, actor))) for actor, artifact in pairs}
        assert len(keys) > 3
        for _ in range(2):
            for actor, artifact in pairs:
                expected = documents.filter_result_to_doc(filtering_info_artifact(ws, artifact, actor), include_audit=True)
                assert request(base, "GET", _filter_path(actor, artifact))[1] == documents.canonical_dumps(expected).encode()
        assert len(store.load_workspace().filter_memo) == 3


@pytest.fixture()
def served(seeded_store):
    """A ``viewfilter serve`` child on the seeded store, once it answers:
    its base URL, the store root, a CLI runner on that root, and the process."""
    src = str(Path(viewfilter.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    cmd = [sys.executable, "-m", "viewfilter", "--store", str(seeded_store.root)]
    proc = subprocess.Popen([*cmd, "serve", "--port", str(port)], env=env, stdout=subprocess.DEVNULL)
    base = f"http://127.0.0.1:{port}"
    try:
        deadline = time.monotonic() + 30
        while True:
            assert proc.poll() is None, "serve exited"
            try:
                request(base, "GET", "/model/current")
                break
            except OSError:
                assert time.monotonic() < deadline, "serve did not answer"
                time.sleep(0.02)

        def cli(*argv):
            subprocess.run([*cmd, *map(str, argv)], env=env, check=True, capture_output=True, timeout=60)

        yield base, seeded_store.root, cli, proc
    finally:
        if proc.poll() is None:
            proc.terminate()
            proc.wait(timeout=10)


class TestServedCache:
    """A ``serve`` child keeps its Workspace; CLI writers in other processes invalidate it."""

    def test_cli_writes_reach_a_running_server(self, served, tmp_path):
        base, root, cli, _ = served
        paths = [f"/artifacts/{artifact}/filter?actor=ActorZ" for artifact in ("DustOutlet", "CycloneVessel")]

        def served_filters():
            return [request(base, "GET", path)[1] for path in paths]

        def fresh_filters():
            ws = Store(root).load_workspace()
            return [
                documents.canonical_dumps(
                    documents.filter_result_to_doc(filtering_info_artifact(ws, artifact, "ActorZ"), include_audit=True)
                ).encode("utf-8")
                for artifact in ("DustOutlet", "CycloneVessel")
            ]

        before = served_filters()
        policy = tmp_path / "quality.policy"
        policy.write_text(fixture.DEFAULT_POLICY_TEXT + "\nrule discipline=quality activity=* competence>=1\n  grant Requirements:1\n")
        cli("policy", "set", policy)
        after_policy = served_filters()
        assert after_policy[0] != before[0]
        assert after_policy == fresh_filters()

        viewpoint = tmp_path / "vp.json"
        viewpoint.write_text(json.dumps({
            "id": "VP9", "actor_id": "ActorZ",
            "domain": {"activity_id": "quality-review", "discipline": "quality"},
            "objective": {"focus_label": "whole vessel", "target_artifact_id": "CycloneVessel"},
            "relationships": [], "importance": 3,
        }))
        cli("vp", "add", viewpoint)
        after_vp = served_filters()
        assert after_vp[1] != after_policy[1]
        assert after_vp == fresh_filters()


@contextlib.contextmanager
def _serving(store):
    """A server on ``store`` serving in a thread; shut down and closed on exit."""
    server = create_server(store)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
        assert not thread.is_alive()


class TestWorkerPool:
    """A fixed pool of workers, one at a time in ``accept()``."""

    FILTER = "/artifacts/CycloneVessel/filter?actor=ActorX"

    def _filter_bytes(self, store):
        result = filtering_info_artifact(Store(store.root).load_workspace(), "CycloneVessel", "ActorX")
        return documents.canonical_dumps(documents.filter_result_to_doc(result, include_audit=True)).encode("utf-8")

    def test_concurrent_clients_each_get_the_document(self, seeded_store):
        expected = self._filter_bytes(seeded_store)
        clients = 12
        before = threading.active_count()
        start = threading.Barrier(clients)
        replies, counts = [], []

        def client():
            start.wait(timeout=30)
            for _ in range(3):
                replies.append(request(base, "GET", self.FILTER))
                counts.append(threading.active_count())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so the lead changes hands mid-request
        try:
            with _serving(seeded_store) as base:
                threads = [threading.Thread(target=client) for _ in range(clients)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert replies == [(200, expected)] * (3 * clients)
        # Clients, the serving thread and the workers: no thread per connection.
        assert max(counts) <= before + clients + 1 + service_module.WORKERS

    def test_one_client_at_a_time_is_served_by_few_workers(self, seeded_store, monkeypatch):
        # The idle worker handed the lead is the most recently idle one, so
        # sequential requests keep to two or three threads; workers taking
        # turns would each have served five of these forty.
        names = []
        finish = service_module.Server.finish_request

        def recording(server, request, client_address):
            names.append(threading.current_thread().name)
            finish(server, request, client_address)

        monkeypatch.setattr(service_module.Server, "finish_request", recording)
        with _serving(seeded_store) as base:
            for _ in range(40):
                assert request(base, "GET", self.FILTER)[0] == 200
        assert len(names) == 40
        assert len(set(names)) < service_module.WORKERS, names

    def test_a_silent_connection_does_not_delay_another_client(self, seeded_store):
        with _serving(seeded_store) as base:
            host, port = base.removeprefix("http://").split(":")
            with socket.create_connection((host, int(port)), timeout=10):
                started = time.monotonic()
                status, _ = request(base, "GET", "/model/current")
                assert status == 200
                assert time.monotonic() - started < 1

    def test_a_silent_connection_is_closed_after_the_idle_timeout(self, seeded_store, monkeypatch):
        monkeypatch.setattr(service_module, "IDLE_TIMEOUT", 0.2)
        with _serving(seeded_store) as base:
            host, port = base.removeprefix("http://").split(":")
            with socket.create_connection((host, int(port)), timeout=10) as silent:
                started = time.monotonic()
                assert silent.recv(1) == b""  # the server closed it, with no reply
                assert time.monotonic() - started < 5
            assert request(base, "GET", "/model/current")[0] == 200

    def test_a_body_cut_short_gets_invalid_input_after_the_idle_timeout(self, seeded_store, monkeypatch):
        monkeypatch.setattr(service_module, "IDLE_TIMEOUT", 0.2)
        with _serving(seeded_store) as base:
            status, _, body = raw_exchange(base, b"POST /changes HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}")
        assert status == 422
        assert json.loads(body)["error"] == {"code": "invalid_input", "message": "request body did not arrive within 0.2 s"}

    def test_shutdown_and_close_end_every_thread(self, seeded_store):
        before = threading.active_count()
        with _serving(seeded_store) as base:
            assert request(base, "GET", self.FILTER)[0] == 200
            assert threading.active_count() == before + 1 + service_module.WORKERS
        assert threading.active_count() == before

    def test_a_served_child_exits_on_sigint(self, served):
        proc = served[-1]
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=5) == 0
