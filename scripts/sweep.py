#!/usr/bin/env python3
"""Golden transcripts: a fixed script over the bundled example, through the
CLI and through the HTTP service.

Each transcript seeds the cyclone-vessel store in a temporary directory.
The CLI transcript runs each command through ``viewfilter.cli.main``
in-process, in order: the read commands, every (actor, artifact) filter with
and without ``--audit``, proposals carried to each outcome, one error
document per error code the CLI can print (``internal`` has no known input),
and inputs holding an integer longer than ``int()`` parses. Each command is
recorded as its command line, its stdout as printed, any stderr, and its
exit code.

The HTTP transcript sends the same reads and change workflow to an
in-process ``create_server``, each request on its own connection, followed
by requests the server refuses before any route runs (unsupported methods,
garbled request lines, oversized request lines and header lines, too many
headers, bad ``Content-Length`` values and bodies). Each reply is recorded
as its status line and headers, with the values of ``Date`` and ``Server``
left out, and its body; anything the server writes to stderr is recorded
too. Both transcripts write the temporary directory as ``$TMP``.

    python scripts/sweep.py            compare with tests/golden/cli.txt and http.txt
    python scripts/sweep.py --write    regenerate both files

The comparison exits 1 and names the first differing line. Regenerate only
when a change to the printed or served bytes is intended.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import socket
import sys
import tempfile
import threading
from pathlib import Path

try:
    import viewfilter  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from viewfilter import documents, fixture
from viewfilter.cli import main as cli_main
from viewfilter.service import create_server
from viewfilter.store import Store

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden" / "cli.txt"
HTTP_GOLDEN = GOLDEN.with_name("http.txt")
LONG_DIGITS = 5000  # above the default int() limit of 4 300 digits
LONG_NUMBER = "1" * LONG_DIGITS


def _inputs(tmp: Path) -> dict[str, Path]:
    """Input files for the commands, by name, written under ``tmp/inputs``."""
    model = documents.model_to_doc(fixture.cyclone_vessel_model())
    staged = json.loads(json.dumps(model))
    next(a for a in staged["artifacts"] if a["id"] == "BarrelLiner")["parent_id"] = "ConeSection"
    rejected = json.loads(json.dumps(model))
    next(a for a in rejected["artifacts"] if a["id"] == "BarrelLiner")["parent_id"] = "Nowhere"
    texts = {
        "staged.json": json.dumps({"description": "move the barrel liner under the cone", "model": staged}),
        "rejected-model.json": json.dumps(rejected),
        "existing-actor.json": json.dumps(documents.actor_to_doc(fixture.example_actors()[0])),
        "not-json.json": "nope",
        "long-integer.json": '{"description": "d", "count": %s}' % LONG_NUMBER,
        "unparsable.policy": "rule discipline=geometry competence>=2\n  grant Artifact:1\n",
        "out-of-bounds.policy": "rule discipline=* activity=* competence>=9\n  grant Artifact:1\n",
        "long-competence.policy": f"rule discipline=* activity=* competence>={LONG_NUMBER}\n  grant Artifact:1\n",
        "long-level.policy": f"rule discipline=* activity=* competence>=1\n  grant Artifact:{LONG_NUMBER}\n",
    }
    folder = tmp / "inputs"
    folder.mkdir()
    paths = {}
    for name, text in texts.items():
        paths[name] = folder / name
        paths[name].write_text(text, encoding="utf-8")
    paths["missing.json"] = folder / "missing.json"
    return paths


def _steps(tmp: Path):
    """Each step: a command line for the CLI, or a (note, action) pair that changes the store's files."""
    store = tmp / "store"
    inputs = _inputs(tmp)

    def cli(*argv):
        return ["--store", str(store), *map(str, argv)]

    actors = [a.id for a in fixture.example_actors()]
    artifacts = sorted(a.id for a in fixture.cyclone_vessel_model().artifacts)

    yield cli("model", "export")
    yield cli("actor", "list")
    yield cli("vp", "list")
    for actor in actors:
        yield cli("vp", "list", "--actor", actor)
    yield cli("policy", "show")
    for actor in actors:
        for artifact in artifacts:
            yield cli("filter", "--actor", actor, "--artifact", artifact)
            yield cli("filter", "--actor", actor, "--artifact", artifact, "--audit")

    # A plain proposal approved by its one concerned actor: chg-000001.
    yield cli("change", "propose", "--author", "ActorX", "--artifact", "CycloneVessel", "--batch", "Geometry-Form",
              "--description", "widen the inlet")
    yield cli("change", "decide", "chg-000001", "--actor", "ActorY", "--decision", "approve")
    # A staged model, published as staged once approved: chg-000004.
    yield cli("change", "propose", "--author", "ActorY", "--artifact", "BarrelLiner", "--batch", "Geometry-Form",
              "--delta-file", inputs["staged.json"])
    yield cli("change", "decide", "chg-000004", "--actor", "ActorX", "--decision", "approve")
    yield cli("model", "export")
    yield cli("filter", "--actor", "ActorX", "--artifact", "BarrelLiner", "--audit")
    # No other actor holds Mechanic, so this one is effective at once: chg-000007.
    yield cli("change", "propose", "--author", "ActorX", "--artifact", "CycloneVessel", "--batch", "Mechanic",
              "--description", "thicker shell")
    # A rejection (chg-000009) and a withdrawal (chg-000012).
    yield cli("change", "propose", "--author", "ActorX", "--artifact", "ConeShell", "--batch", "Group",
              "--description", "regroup the cone")
    yield cli("change", "decide", "chg-000009", "--actor", "ActorY", "--decision", "reject")
    yield cli("change", "propose", "--author", "ActorY", "--artifact", "InletDuct", "--batch", "Sub-Artifact",
              "--description", "split the duct")
    yield cli("change", "withdraw", "chg-000012", "--actor", "ActorY")
    # Left pending: chg-000015.
    yield cli("change", "propose", "--author", "ActorY", "--artifact", "DustValve", "--batch", "Flows",
              "--description", "purge timing")
    for change in ("chg-000001", "chg-000004", "chg-000007", "chg-000009", "chg-000012", "chg-000015"):
        yield cli("change", "show", change)
    yield cli("change", "list")
    for actor in actors:
        yield cli("actor", "annotations", actor)
    yield cli("model", "export", "--version", "4")

    # One error document per code.
    yield cli("filter", "--actor", "Ghost", "--artifact", "CycloneVessel")  # not_found
    yield cli("filter", "--actor", "ActorX", "--artifact", "Ghost")
    yield cli("change", "show", "chg-999999")
    yield cli("model", "export", "--version", "42")
    yield cli("change", "propose", "--author", "ActorZ", "--artifact", "CycloneVessel", "--batch", "Geometry-Form",
              "--description", "d")  # permission_denied
    yield cli("change", "decide", "chg-000015", "--actor", "ActorZ", "--decision", "approve")
    yield cli("change", "withdraw", "chg-000015", "--actor", "ActorX")
    yield cli("actor", "add", inputs["existing-actor.json"])  # conflict
    yield cli("change", "decide", "chg-000009", "--actor", "ActorY", "--decision", "approve")  # invalid_state
    yield cli("model", "import", inputs["missing.json"])  # invalid_input
    yield cli("change", "show", "../seq")
    yield cli("model", "validate", inputs["not-json.json"])  # bad_document
    yield cli("policy", "check", inputs["unparsable.policy"])  # policy_parse_error
    yield cli("policy", "check", inputs["out-of-bounds.policy"])  # policy_semantic_error
    yield cli("model", "import", inputs["rejected-model.json"])  # model_rejected

    # Integers longer than int() parses.
    yield cli("change", "propose", "--author", "ActorX", "--artifact", "CycloneVessel", "--batch", "Geometry-Form",
              "--delta-file", inputs["long-integer.json"])
    yield cli("model", "validate", inputs["long-integer.json"])
    yield cli("policy", "check", inputs["long-competence.policy"])
    yield cli("policy", "check", inputs["long-level.policy"])
    yield (f"write {LONG_DIGITS} digits to $TMP/store/seq", lambda: (store / "seq").write_text(LONG_NUMBER))
    yield cli("change", "propose", "--author", "ActorX", "--artifact", "CycloneVessel", "--batch", "Geometry-Form",
              "--description", "d")
    current = '{"token": "t", "version": %s}' % LONG_NUMBER
    yield (f"write a {LONG_DIGITS}-digit version to $TMP/store/model/CURRENT",
           lambda: (store / "model" / "CURRENT").write_text(current))
    yield cli("filter", "--actor", "ActorX", "--artifact", "CycloneVessel")


def _run(argv: list[str]) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return out.getvalue(), err.getvalue(), code


def transcript() -> str:
    """The whole transcript, as ``tests/golden/cli.txt`` holds it."""
    lines: list[str] = []
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        fixture.seed_store(tmp / "store")
        for step in _steps(tmp):
            if isinstance(step, tuple):
                note, action = step
                action()
                lines.append(f"# {note}\n")
                continue
            out, err, code = _run(step)
            lines.append("$ viewfilter " + " ".join(step) + "\n")
            lines.append(out if out.endswith("\n") or not out else out + "\n[no newline at end of stdout]\n")
            lines.extend(f"stderr| {line}\n" for line in err.splitlines())
            lines.append(f"[exit {code}]\n\n")
        return "".join(lines).replace(str(tmp), "$TMP")


def _request(method: str, target: str, body=None, headers=()) -> tuple[str, bytes]:
    """A request's label and its bytes: HTTP/1.1, a Host header, the given
    header lines, and a ``Content-Length`` when there is a body. A body that
    is not bytes is sent as JSON."""
    lines = [f"{method} {target} HTTP/1.1", "Host: 127.0.0.1", *headers]
    label = f"{method} {target}"
    if body is not None:
        if not isinstance(body, bytes):
            body = json.dumps(body).encode("utf-8")
        lines.append(f"Content-Length: {len(body)}")
        shown = body.decode("latin-1")
        label += f" {shown}" if len(body) <= 200 and shown.isprintable() and shown.isascii() else f" [{len(body)}-byte body]"
    return label, "".join(f"{line}\r\n" for line in lines).encode("latin-1") + b"\r\n" + (body or b"")


def _raw(label: str, data: bytes) -> tuple[str, bytes]:
    """A request sent exactly as given."""
    return f"[raw] {label}", data


def _http_steps(tmp: Path):
    """Each step: a (label, request bytes) pair, or a (note, action) pair that changes the store's files."""
    store = tmp / "store"
    inputs = _inputs(tmp)
    actors = [a.id for a in fixture.example_actors()]
    artifacts = sorted(a.id for a in fixture.cyclone_vessel_model().artifacts)
    model = documents.model_to_doc(fixture.cyclone_vessel_model())

    def propose(author, artifact, batch, delta):
        return _request("POST", "/changes", {"author_actor_id": author, "artifact_id": artifact, "batch": batch,
                                             "delta": delta})

    def decide(change, actor, decision):
        return _request("POST", f"/changes/{change}/decisions", {"actor_id": actor, "decision": decision})

    # The CLI script's reads.
    yield _request("GET", "/model/current")
    for actor in actors:
        yield _request("GET", f"/actors/{actor}/viewpoints")
    for actor in actors:
        for artifact in artifacts:
            yield _request("GET", f"/artifacts/{artifact}/filter?actor={actor}")

    # Its change workflow, with the same change ids.
    yield propose("ActorX", "CycloneVessel", "Geometry-Form", {"description": "widen the inlet"})
    yield decide("chg-000001", "ActorY", "approve")
    yield propose("ActorY", "BarrelLiner", "Geometry-Form", json.loads(inputs["staged.json"].read_text()))
    yield decide("chg-000004", "ActorX", "approve")
    yield _request("GET", "/model/current")
    yield _request("GET", "/artifacts/BarrelLiner/filter?actor=ActorX")
    yield propose("ActorX", "CycloneVessel", "Mechanic", {"description": "thicker shell"})
    yield propose("ActorX", "ConeShell", "Group", {"description": "regroup the cone"})
    yield decide("chg-000009", "ActorY", "reject")
    yield propose("ActorY", "InletDuct", "Sub-Artifact", {"description": "split the duct"})
    yield _request("POST", "/changes/chg-000012/withdraw", {"actor_id": "ActorY"})
    yield propose("ActorY", "DustValve", "Flows", {"description": "purge timing"})
    for change in ("chg-000001", "chg-000004", "chg-000007", "chg-000009", "chg-000012", "chg-000015"):
        yield _request("GET", f"/changes/{change}")
    for actor in actors:
        yield _request("GET", f"/actors/{actor}/annotations")
    yield _request("POST", "/model", model)

    # Error documents from the routes.
    yield _request("GET", "/artifacts/CycloneVessel/filter?actor=Ghost")
    yield _request("GET", "/artifacts/Ghost/filter?actor=ActorX")
    yield _request("GET", "/artifacts/No%20Such/filter?actor=ActorX")
    yield _request("GET", "/artifacts/CycloneVessel/filter")
    yield _request("GET", "/artifacts/CycloneVessel/filter?actor=ActorX&actor=ActorY")
    yield _request("GET", "/actors/Ghost/viewpoints")
    yield _request("GET", "/changes/chg-999999")
    yield _request("GET", "/changes/..%2Fseq")
    yield _request("GET", "/actors")
    yield _request("POST", "/model/current", {})
    yield propose("ActorZ", "CycloneVessel", "Geometry-Form", {"description": "d"})
    yield decide("chg-000015", "ActorZ", "approve")
    yield _request("POST", "/changes/chg-000015/withdraw", {"actor_id": "ActorX"})
    yield decide("chg-000009", "ActorY", "approve")
    yield decide("chg-000015", "ActorY", "maybe")
    yield _request("POST", "/changes", {"author_actor_id": "ActorX"})
    yield _request("POST", "/changes", {"author_actor_id": ["ActorX"], "artifact_id": "CycloneVessel",
                                        "batch": "Geometry-Form"})
    yield _request("POST", "/model", b"nope")
    yield _request("POST", "/model", json.loads(inputs["rejected-model.json"].read_text()))

    # Request heads, the way a client can get them wrong.
    yield _raw("GET /changes/chg-000007, an HTTP/0.9 request", b"GET /changes/chg-000007\r\n\r\n")
    yield _raw("GET //changes/chg-000007, a leading // collapsed", b"GET //changes/chg-000007 HTTP/1.1\r\n\r\n")
    yield _raw("GET /changes/chg-000007, lines ended by LF alone", b"GET /changes/chg-000007 HTTP/1.1\nHost: x\n\n")
    yield _raw("DELETE", b"DELETE /changes/chg-000001 HTTP/1.1\r\n\r\n")
    yield _raw("PUT with a body", b"PUT /model HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}")
    yield _raw("HEAD", b"HEAD /model/current HTTP/1.1\r\n\r\n")
    yield _raw("get, in lower case", b"get /model/current HTTP/1.1\r\n\r\n")
    yield _raw("a four-word request line", b"GET /model current HTTP/1.1\r\n\r\n")
    yield _raw("GARBLED", b"GARBLED\r\n\r\n")
    yield _raw("version HTTP/one", b"GET /model/current HTTP/one\r\n\r\n")
    yield _raw("version HTTP/1.1.1", b"GET /model/current HTTP/1.1.1\r\n\r\n")
    yield _raw("version HTTP/2.0", b"GET /model/current HTTP/2.0\r\n\r\n")
    yield _raw("POST /changes, an HTTP/0.9 request of another method", b"POST /changes\r\n\r\n")
    yield _raw("a 70 000-byte request target", b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n")
    for count in (99, 100, 101):
        extra = b"".join(b"X-Header-%d: v\r\n" % n for n in range(count - 1))
        yield _raw(f"{count} header lines", b"GET /changes/chg-000007 HTTP/1.1\r\nHost: 127.0.0.1\r\n" + extra + b"\r\n")
    yield _raw("a 70 000-byte header line", b"GET /model/current HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n")

    # Bodies and their Content-Length.
    yield _request("POST", "/changes", b"\xff\xfe")
    for length in ["abc", "-5", "-1", "+82", "8_2", "1000000000000", "99999999999999999999", str(16 * 1024 * 1024 + 1),
                   LONG_NUMBER]:
        label, data = _request("POST", "/changes", headers=[f"Content-Length: {length}"])
        yield label + f" with Content-Length: {length if len(length) < 30 else f'[{len(length)} digits]'}", data
    yield _raw("POST /changes, a body cut short", b"POST /changes HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}")
    long_delta = ('{"author_actor_id": "ActorX", "artifact_id": "CycloneVessel", "batch": "Geometry-Form", '
                  '"delta": {"n": %s}}' % LONG_NUMBER).encode()
    yield _request("POST", "/changes", long_delta)
    depth = 200_000  # too deep for the JSON parser of every interpreter; Python 3.13 parses 1 500
    yield _request("POST", "/changes", b"[" * depth + b"]" * depth)

    # The store's files changed under the running server.
    yield (f"write {LONG_DIGITS} digits to $TMP/store/seq", lambda: (store / "seq").write_text(LONG_NUMBER))
    yield propose("ActorX", "CycloneVessel", "Geometry-Form", {"description": "d"})
    current = '{"token": "t", "version": %s}' % LONG_NUMBER
    yield (f"write a {LONG_DIGITS}-digit version to $TMP/store/model/CURRENT",
           lambda: (store / "model" / "CURRENT").write_text(current))
    yield _request("GET", "/artifacts/CycloneVessel/filter?actor=ActorX")


def _exchange(address, data: bytes) -> bytes:
    """Send ``data`` on a new connection, end the sending side, and return
    every byte the server sends before it closes."""
    reply = b""
    with socket.create_connection(address, timeout=30) as sock:
        with contextlib.suppress(OSError):  # a server refusing a request may close before reading all of it
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        with contextlib.suppress(ConnectionResetError):  # which resets the connection after its reply
            while chunk := sock.recv(65536):
                reply += chunk
    return reply


def _reply_lines(reply: bytes) -> list[str]:
    """A reply as transcript lines: the status line and headers, then the body."""
    if not reply:
        return ["[no reply]\n"]
    if reply.startswith(b"HTTP/"):
        head, _, body = reply.partition(b"\r\n\r\n")
        lines = []
        for line in head.decode("latin-1").split("\r\n"):
            name = line.partition(":")[0]
            lines.append(f"{name}: *\n" if name in ("Date", "Server") else line + "\n")
        lines.append("\n")
    else:
        body, lines = reply, ["[HTTP/0.9 reply: no status line, no headers]\n"]
    text = body.decode("utf-8", "backslashreplace")
    lines.append(text if text.endswith("\n") or not text else text + "\n[no newline at end of body]\n")
    return lines


def http_transcript() -> str:
    """The whole HTTP transcript, as ``tests/golden/http.txt`` holds it."""
    lines: list[str] = []
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        fixture.seed_store(tmp / "store")
        server = create_server(Store(tmp / "store"))
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        try:
            for label, step in _http_steps(tmp):
                if callable(step):
                    step()
                    lines.append(f"# {label}\n")
                    continue
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    reply = _exchange(server.server_address, step)
                lines.append(f"> {label}\n")
                lines.extend(_reply_lines(reply))
                lines.extend(f"stderr| {line}\n" for line in err.getvalue().splitlines())
                lines.append("\n")
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
        return "".join(lines).replace(str(tmp), "$TMP")


def first_difference(expected: str, actual: str) -> str | None:
    """The first line where two transcripts differ, described; None when they are equal."""
    old, new = expected.splitlines(), actual.splitlines()
    for number, (a, b) in enumerate(zip(old, new), start=1):
        if a != b:
            return f"line {number}: expected {a!r}, got {b!r}"
    if len(old) != len(new):
        number = min(len(old), len(new)) + 1
        return f"line {number}: expected {len(old)} lines, got {len(new)}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate the golden files instead of comparing")
    args = parser.parse_args(argv)
    differ = False
    for golden, make in ((GOLDEN, transcript), (HTTP_GOLDEN, http_transcript)):
        actual = make()
        if args.write:
            golden.parent.mkdir(parents=True, exist_ok=True)
            golden.write_text(actual, encoding="utf-8")
            print(f"wrote {golden}")
            continue
        difference = first_difference(golden.read_text(encoding="utf-8"), actual)
        print(f"{golden.name}: {difference}" if difference else f"the transcript matches {golden}")
        differ = differ or difference is not None
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
