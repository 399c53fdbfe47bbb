"""Closed-loop rounds against the program, with every output checked.

One client sends one request at a time and waits for the reply, as an actor
does. A round is a fixed recipe per workload: some GET filters, some CLI
filters, then one proposal that every concerned actor decides on, followed
by GET filters from concerned actors on the proposed artifact. Which rounds
publish, stage a model, end in a rejection or end in a withdrawal follows a
cycle of eight with fixed shares, in a seeded order.

``Run`` holds the plan and the checks; ``HttpRun`` sends the operations to a
``viewfilter serve`` child and the ``viewfilter`` CLI. The traced run in
``traced.py`` sends the same operations to the modules in-process.
"""

from __future__ import annotations

import copy
import http.client
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from statistics import median
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import quote

import gen
from oracle import Oracle

# Round kinds in each cycle of eight: 5/8 publish (2/8 with a staged model),
# 2/8 end in a rejection, 1/8 in a withdrawal by the author.
CYCLE = ("plain", "plain", "plain", "staged", "staged", "reject", "reject", "withdraw")


@dataclass(frozen=True)
class Workload:
    name: str
    scaled: bool
    reads: int  # GET filters per round, on drawn (actor, artifact) pairs
    cli: int  # CLI filters per round
    after_reads: int  # GET filters by concerned actors after the decisions


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fixture", scaled=False, reads=6, cli=1, after_reads=1),
        Workload("scaled-read", scaled=True, reads=10, cli=1, after_reads=2),
        Workload("scaled-write", scaled=True, reads=0, cli=1, after_reads=4),
    )
}


class OpFailed(Exception):
    """The program refused or dropped an operation."""


def store_bytes(root: Path) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files)


def build_store(root: Path, workload: Workload, records: gen.Records) -> None:
    """Create the workload's store through the program's public API."""
    from viewfilter import fixture
    from viewfilter.store import Store

    if not workload.scaled:
        fixture.seed_store(root)
        return
    store = Store(root)
    store.import_model(records.model_doc)
    for doc in records.actor_docs:
        store.add_actor(doc)
    store.add_viewpoints(records.viewpoint_docs)
    store.set_policy(records.policy_text)


class Run:
    """The seeded plan of one run, the expected state, and the checks."""

    def __init__(self, workload: Workload, seed: int, quick: bool, work: Path, src: Path):
        self.w = workload
        self.quick = quick
        self.work = work
        self.src = src
        self.rng = random.Random(seed)
        self.records = gen.scaled(seed, gen.QUICK if quick else gen.FULL) if workload.scaled else gen.fixture_records()
        self.oracle = Oracle(self.records)
        self.actors = sorted(self.records.competences)
        self.artifacts = sorted(self.records.parent)
        self._children = None
        self.fixture_pairs = [(a, t) for a in self.actors for t in self.artifacts]
        self.rng.shuffle(self.fixture_pairs)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rounds = 0
        self.store_root: Path | None = None

    # -- checks ---------------------------------------------------------------

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def start_state(self) -> None:
        root = self.store_root
        seq_path = root / "seq"
        self.seq = int(seq_path.read_text()) if seq_path.exists() else 0
        self.version = json.loads((root / "model" / "CURRENT").read_text())["version"]
        self.model_doc = json.loads((root / "model" / f"v{self.version:06d}.json").read_text())
        self.n_changes = len(os.listdir(root / "changes"))
        self.n_annotations = len(os.listdir(root / "annotations"))

    def check_store(self, published: bool) -> None:
        """Workflow properties, read from the store's files after each round."""
        root = self.store_root
        self.expect(int((root / "seq").read_text()) == self.seq, f"seq is not {self.seq}")
        current = json.loads((root / "model" / "CURRENT").read_text())["version"]
        self.expect(current == self.version, f"current version {current}, expected {self.version}")
        versions = len(list((root / "model").glob("v*.json")))
        self.expect(versions == self.version, f"{versions} model versions, expected {self.version}")
        if published:
            doc = json.loads((root / "model" / f"v{self.version:06d}.json").read_text())
            self.expect(doc == self.model_doc, f"version {self.version} is not the expected model")
        changes = len(os.listdir(root / "changes"))
        self.expect(changes == self.n_changes, f"{changes} change files, expected {self.n_changes}")
        annotations = len(os.listdir(root / "annotations"))
        self.expect(annotations == self.n_annotations, f"{annotations} annotation files, expected {self.n_annotations}")

    # -- operations -------------------------------------------------------------

    def op(self, metric: str | None, fn, *args):
        """Send one operation; returns its document, or None if it failed."""
        self.attempted += 1
        try:
            doc, ms = fn(*args)
        except (OpFailed, OSError, http.client.HTTPException, ValueError, subprocess.SubprocessError) as exc:
            self.failed += 1
            self.problems.append(f"{fn.__name__}{args[:3]} failed: {exc!r}"[:300])
            return None
        if metric is not None:
            self.samples[metric].append(ms)
        self.round_ms += ms
        return doc

    def read(self, actor: str, artifact: str) -> None:
        doc = self.op("filter_ms", self.filter_op, actor, artifact)
        if doc is not None:
            self.expect(doc == self.oracle.filter_doc(actor, artifact), f"filter {actor} on {artifact} differs")

    def cli_read(self, actor: str, artifact: str) -> None:
        doc = self.op("cli_filter_ms", self.cli_op, actor, artifact)
        if doc is not None:
            self.expect(
                doc == self.oracle.filter_doc(actor, artifact, audit=False), f"cli filter {actor} on {artifact} differs"
            )

    # -- the seeded plan ------------------------------------------------------------

    def children(self) -> dict[str, list[str]]:
        if self._children is None:
            self._children = self.records.children()
        return self._children

    def leaf_under(self, artifact: str) -> str:
        """A random walk down the current tree, so deep leaves are favoured."""
        kids = self.children()
        while artifact in kids:
            artifact = self.rng.choice(kids[artifact])
        return artifact

    def depth(self, artifact: str) -> int:
        d = 0
        while self.records.parent[artifact] is not None:
            artifact = self.records.parent[artifact]
            d += 1
        return d

    def next_pair(self) -> tuple[str, str]:
        if not self.w.scaled:
            pair = self.fixture_pairs[self.pair_index % len(self.fixture_pairs)]
            self.pair_index += 1
            return pair
        if self.rng.random() < 0.8:
            vp = self.rng.choice(self.records.viewpoints)
            return vp.actor, self.leaf_under(vp.target)
        return self.rng.choice(self.actors), self.rng.choice(self.artifacts)

    def draw_proposal(self, kind: str):
        """(author, leaf, batch, concerned, new parent or None) with a non-empty concerned set."""
        for _ in range(10_000):
            vp = self.rng.choice(self.records.viewpoints)
            artifact = self.leaf_under(vp.target)
            batches = self.oracle.batches(vp.actor, artifact)
            if not batches or self.records.parent[artifact] is None:
                continue
            batch = self.rng.choice(batches)
            concerned = self.oracle.concerned(artifact, batch, vp.actor)
            if not concerned:
                continue
            new_parent = None
            if kind == "staged":
                old = self.records.parent[artifact]
                level = self.depth(old)
                options = [a for a in self.artifacts if a != old and self.depth(a) == level]
                if not options:
                    continue
                new_parent = self.rng.choice(options)
            return vp.actor, artifact, batch, concerned, new_parent
        raise RuntimeError("no proposal with a concerned actor can be drawn")

    def play_round(self, index: int) -> None:
        if index % len(CYCLE) == 0:
            self.cycle = list(CYCLE)
            self.rng.shuffle(self.cycle)
        kind = self.cycle[index % len(CYCLE)]
        self.round_ms = 0.0
        for _ in range(self.w.reads):
            self.read(*self.next_pair())

        author, artifact, batch, concerned, new_parent = self.draw_proposal(kind)
        # The author reads the artifact before proposing. Timing a request
        # right after the CLI filter, while the server sat idle, read about
        # 30% slower and far less steady, so the CLI comes last in the round.
        self.read(author, artifact)
        delta: dict = {"description": f"round {index}"}
        staged = None
        if new_parent is not None:
            staged = copy.deepcopy(self.model_doc)
            for art in staged["artifacts"]:
                if art["id"] == artifact:
                    art["parent_id"] = new_parent
            delta["model"] = staged
        change_id = f"chg-{self.seq + 1:06d}"
        expected = {
            "id": change_id,
            "author_actor_id": author,
            "artifact_id": artifact,
            "batch": batch,
            "delta": delta,
            "status": "pending",
            "concerned": concerned,
            "decisions": {},
            "created": self.seq + 2,
            "resolved": None,
        }
        body = {"author_actor_id": author, "artifact_id": artifact, "batch": batch, "delta": delta}
        doc = self.op("propose_ms", self.propose_op, body)
        self.seq += 2
        self.n_changes += 1
        self.n_annotations += len(concerned)
        self.expect(doc == expected, f"proposal {change_id} differs")

        order = self.rng.sample(concerned, len(concerned))
        stop = self.rng.randrange(len(order)) if kind in ("reject", "withdraw") else len(order)
        for i, actor in enumerate(order[: stop + 1] if kind == "reject" else order[:stop]):
            decision = "reject" if kind == "reject" and i == stop else "approve"
            self.seq += 1
            expected["decisions"] = {**expected["decisions"], actor: decision}
            if decision == "reject":
                expected.update(status="rejected", resolved=self.seq)
            elif i == len(order) - 1:
                expected.update(status="effective", resolved=self.seq)
            metric = "publish_ms" if expected["status"] == "effective" else "decide_ms"
            doc = self.op(metric, self.decide_op, change_id, actor, decision)
            self.expect(doc == expected, f"decision of {actor} on {change_id} differs")
        if kind == "withdraw":
            self.seq += 1
            expected.update(status="withdrawn", resolved=self.seq)
            doc = self.op(None, self.withdraw_op, change_id, author)
            self.expect(doc == expected, f"withdrawal of {change_id} differs")

        published = expected["status"] == "effective"
        if published:
            self.version += 1
            if staged is not None:
                self.model_doc = staged
                self.records.parent[artifact] = new_parent
                self._children = None
        for actor in order[: self.w.after_reads]:
            self.read(actor, artifact)
        for _ in range(self.w.cli):
            self.cli_read(*self.next_pair())
        self.samples["round_ms"].append(self.round_ms)
        self.check_store(published)

    def measure(self, seconds: float) -> None:
        """Whole cycles of rounds until ``seconds`` have passed, so every run
        holds each round kind in the same share."""
        self.pair_index = 0
        self.start_state()
        before = store_bytes(self.store_root)
        start = time.perf_counter()
        while self.rounds % len(CYCLE) or time.perf_counter() - start < seconds:
            self.play_round(self.rounds)
            self.rounds += 1
        self.kib_per_round = (store_bytes(self.store_root) - before) / 1024 / self.rounds

    def child_env(self) -> dict:
        path = os.environ.get("PYTHONPATH")
        return {**os.environ, "PYTHONPATH": str(self.src) + (os.pathsep + path if path else "")}

    def result(self) -> dict:
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in self.metrics().items()},
        }


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def http_request(port: int, method: str, path: str, body=None) -> tuple[int, bytes, float]:
    payload = None if body is None else json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json"} if payload is not None else {}
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        start = time.perf_counter_ns()
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        data = response.read()
        ms = (time.perf_counter_ns() - start) / 1e6
    finally:
        conn.close()
    return response.status, data, ms


class Server:
    """A ``viewfilter serve`` child process on a free local port."""

    def __init__(self, store_root: Path, env: dict, log: Path):
        self.store_root = store_root
        self.env = env
        self.log = log
        self.proc = None

    def start(self) -> None:
        """Start the server and wait for its first response."""
        for _ in range(5):
            self.port = free_port()
            with open(self.log, "ab") as log:
                self.proc = subprocess.Popen(
                    [sys.executable, "-m", "viewfilter", "--store", str(self.store_root), "serve", "--port", str(self.port)],
                    env=self.env,
                    stdout=subprocess.DEVNULL,
                    stderr=log,
                )
            deadline = time.monotonic() + 60
            while self.proc.poll() is None and time.monotonic() < deadline:
                try:
                    if http_request(self.port, "GET", "/model/current")[0] == 200:
                        return
                except OSError:
                    time.sleep(0.002)
            self.stop()
        raise RuntimeError(f"viewfilter serve did not answer; see {self.log}")

    def rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmRSS line")

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None


class HttpRun(Run):
    """The end-to-end run: a served store and the CLI, with tracing off."""

    def setup(self) -> None:
        """Build a fresh store and start its server at least three times, and
        again until 1.5 s have gone into set-ups; keep the last. The median
        leaves out a first set-up slowed by file-system work left over from
        an earlier run."""
        self.server = None
        times = []
        wanted, budget = (1, 0.0) if self.quick else (3, 1.5)
        while len(times) < wanted or sum(times) < budget:
            i = len(times)
            if self.server is not None:
                self.server.stop()
            root = self.work / f"store{i}"
            shutil.rmtree(root, ignore_errors=True)
            start = time.perf_counter()
            build_store(root, self.w, self.records)
            self.server = Server(root, self.child_env(), self.work / "server.log")
            self.server.start()
            times.append(time.perf_counter() - start)
            self.store_root = root
        self.setup_s = median(times)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()

    def _call(self, method: str, path: str, body, status: int):
        code, data, ms = http_request(self.server.port, method, path, body)
        if code != status:
            raise OpFailed(f"{method} {path} answered {code}: {data[:200]!r}")
        return json.loads(data), ms

    def filter_op(self, actor, artifact):
        return self._call("GET", f"/artifacts/{quote(artifact)}/filter?actor={quote(actor)}", None, 200)

    def cli_op(self, actor, artifact):
        cmd = [sys.executable, "-m", "viewfilter", "--store", str(self.store_root), "filter", "--actor", actor, "--artifact", artifact]
        start = time.perf_counter_ns()
        proc = subprocess.run(cmd, env=self.child_env(), capture_output=True, timeout=120)
        ms = (time.perf_counter_ns() - start) / 1e6
        if proc.returncode != 0:
            raise OpFailed(f"viewfilter filter exited {proc.returncode}: {proc.stdout[:200]!r} {proc.stderr[-300:]!r}")
        return json.loads(proc.stdout), ms

    def propose_op(self, body):
        return self._call("POST", "/changes", body, 201)

    def decide_op(self, change_id, actor, decision):
        return self._call("POST", f"/changes/{change_id}/decisions", {"actor_id": actor, "decision": decision}, 200)

    def withdraw_op(self, change_id, actor):
        return self._call("POST", f"/changes/{change_id}/withdraw", {"actor_id": actor}, 200)

    def metrics(self) -> dict:
        s = self.samples
        filters = s["filter_ms"]
        return {
            "setup_s": (self.setup_s, "s"),
            "filter_ms": (median(filters), "ms"),
            "filter_p90_ms": (statistics.quantiles(filters, n=10)[-1] if len(filters) > 1 else filters[0], "ms"),
            "cli_filter_ms": (median(s["cli_filter_ms"]), "ms"),
            "rounds_per_s": (1000 / median(s["round_ms"]), "1/s"),
            "server_rss_mb": (self.rss_mb, "MB"),
            "store_kb_per_round": (self.kib_per_round, "KiB"),
        }

    def measure(self, seconds: float) -> None:
        super().measure(seconds)
        self.rss_mb = self.server.rss_mb()
