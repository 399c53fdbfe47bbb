"""The traced run: the same seeded rounds, sent to the modules in-process.

Spans are recorded from this file only: around the five pipeline steps,
which it calls in sequence, and around public functions of the store,
documents, changes and model modules, which it wraps for the length of each
operation. A span has a name, a start, an end and a parent; all of them stay
in memory and are written to ``spans.json.gz`` in the run's directory at the
end. A layer's self time is its span's duration minus its children's.
"""

from __future__ import annotations

import gzip
import json
import subprocess
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

from rounds import OpFailed, Run, Server, build_store, http_request
from viewfilter import changes, documents
from viewfilter import store as store_module
from viewfilter.changes import ChangeStatus, ChangeWorkflow
from viewfilter.engine import AuditEntry, FilterResult, filtering_info_artifact, optimize_list_connexion_level
from viewfilter.errors import DomainError, NotFoundError
from viewfilter.policy import ConnexionLevelList, restitution_list_connexion_level
from viewfilter.store import Store
from viewfilter.viewpoints import classification_vp, filtering_list_vp_artifact, restitution_list_viewpoint


class Tracer:
    """Spans in parallel arrays; counters per top-level operation."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.root = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str) -> int:
        i = len(self.start)
        parent = self.stack[-1] if self.stack else -1
        self.name.append(self._id(name))
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else i)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def rename(self, i: int, name: str) -> None:
        self.name[i] = self._id(name)

    def call(self, name: str, fn, *args):
        i = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.finish(i)

    def count(self, counter: str, value: float = 1) -> None:
        self.counts[(self.root[self.stack[-1]], counter)] += value

    def wrap(self, name: str | None, fn, note=None):
        """``fn`` inside a span named ``name`` (none if None); ``note(args, result)`` runs after it."""
        tracer = self

        def traced(*args, **kwargs):
            if name is None:
                out = fn(*args, **kwargs)
            else:
                i = tracer.begin(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.finish(i)
            if note is not None:
                note(args, out)
            return out

        return traced

    @contextmanager
    def patched(self, targets):
        saved = []
        try:
            for owner, attr, name, note in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, note))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> array:
        n = len(self.start)
        out = array("q", (self.end[i] - self.start[i] for i in range(n)))
        for i in range(n):
            if self.parent[i] >= 0:
                out[self.parent[i]] -= self.end[i] - self.start[i]
        return out

    def write(self, path) -> None:
        doc = {
            "names": self.names,
            "name": list(self.name),
            "start_ns": list(self.start),
            "end_ns": list(self.end),
            "parent": list(self.parent),
        }
        with gzip.open(path, "wt", encoding="utf-8") as out:
            json.dump(doc, out)


def _file_read(tracer: Tracer, text: str) -> None:
    tracer.count("store.files_read")
    tracer.count("store.bytes_read", len(text.encode("utf-8")))


def _merge(per_viewpoint):
    merged = per_viewpoint[0]
    for current in per_viewpoint[1:]:
        merged = optimize_list_connexion_level(current, merged)
    return merged


# (per-layer metric, span, top-level operations it is taken from); the value is
# the median over those operations of the span's summed self time per operation.
PER_OPERATION = [
    ("store.load_workspace_ms", "store.load_workspace", ("filter",)),
    ("store.load_model_ms", "store.load_model", ("filter",)),
    ("store.list_actors_ms", "store.list_actors", ("filter",)),
    ("store.list_viewpoints_ms", "store.list_viewpoints", ("filter",)),
    ("store.get_policy_ms", "store.get_policy", ("filter",)),
    ("documents.canonical_loads_ms", "documents.canonical_loads", ("filter",)),
    ("documents.model_from_doc_ms", "documents.model_from_doc", ("filter",)),
    ("documents.viewpoint_from_doc_ms", "documents.viewpoint_from_doc", ("filter",)),
    ("documents.filter_result_to_doc_ms", "documents.filter_result_to_doc", ("filter",)),
    ("documents.canonical_dumps_ms", "documents.canonical_dumps", ("filter",)),
    ("viewpoints.step1_ms", "viewpoints.step1", ("filter",)),
    ("viewpoints.step2_ms", "viewpoints.step2", ("filter",)),
    ("viewpoints.step3_ms", "viewpoints.step3", ("filter",)),
    ("policy.step4_ms", "policy.step4", ("filter",)),
    ("engine.merge_ms", "engine.merge", ("filter",)),
    ("engine.filter_ms", "engine.filter", ("filter",)),
    ("changes.concerned_actors_ms", "changes.concerned_actors", ("propose",)),
    ("changes.open_proposal_ms", "changes.open_proposal", ("propose",)),
    ("model.validate_model_ms", "model.validate_model", ("propose", "publish")),
    ("store.import_model_ms", "store.import_model", ("publish",)),
    ("store.next_seq_ms", "store.next_seq", ("decide", "publish")),
    ("store.save_change_ms", "store.save_change", ("decide", "publish")),
    ("store.save_annotation_ms", "store.save_annotation", ("propose",)),
    ("store.add_actor_ms", "store.add_actor", ("store.add_actor",)),
]

# (per-layer metric, counter, top-level operation, scale)
PER_OPERATION_COUNTS = [
    ("store.files_read_per_load", "store.files_read", "filter", 1),
    ("store.kb_read_per_load", "store.bytes_read", "filter", 1 / 1024),
    ("viewpoints.scanned_per_filter", "viewpoints.scanned", "filter", 1),
    ("viewpoints.covering_per_filter", "viewpoints.covering", "filter", 1),
    ("changes.filters_per_proposal", "changes.filters", "propose", 1),
    ("changes.concerned_per_proposal", "changes.concerned", "propose", 1),
]


class TracedRun(Run):
    """Per-layer numbers: each operation runs in-process under spans."""

    def setup(self) -> None:
        self.tracer = Tracer()
        root = self.work / "store0"
        with self.tracer.patched([(Store, "add_actor", "store.add_actor", None)]):
            build_store(root, self.w, self.records)
        self.store_root = root
        self.store = Store(root)
        self.server = Server(root, self.child_env(), self.work / "server.log")
        self.server.start()
        t = self.tracer
        self.targets = [
            (Store, "load_workspace", "store.load_workspace", None),
            (Store, "load_model", "store.load_model", None),
            (Store, "list_actors", "store.list_actors", None),
            (Store, "list_viewpoints", "store.list_viewpoints", None),
            (Store, "get_policy", "store.get_policy", None),
            (Store, "get_policy_text", None, lambda args, text: _file_read(t, text)),
            (Store, "next_seq", "store.next_seq", None),
            (Store, "save_change", "store.save_change", None),
            (Store, "save_annotation", "store.save_annotation", None),
            (Store, "import_model", "store.import_model", None),
            (documents, "canonical_loads", "documents.canonical_loads", lambda args, doc: _file_read(t, args[0])),
            (documents, "model_from_doc", "documents.model_from_doc", None),
            (documents, "viewpoint_from_doc", "documents.viewpoint_from_doc", None),
            (documents, "canonical_dumps", "documents.canonical_dumps", None),
            (changes, "open_proposal", "changes.open_proposal", None),
            (changes, "concerned_actors", "changes.concerned_actors", None),
            (changes, "filtering_info_artifact", None, lambda args, result: t.count("changes.filters")),
            (store_module, "validate_model", "model.validate_model", None),
        ]

    def close(self) -> None:
        if getattr(self, "server", None) is not None:
            self.server.stop()
        if getattr(self, "tracer", None) is not None:
            self.tracer.write(self.work / "spans.json.gz")

    def _traced(self, kind: str, fn, *args):
        """Run ``fn`` as one top-level operation; returns (result, its span index)."""
        t = self.tracer
        with t.patched(self.targets):
            i = t.begin(kind)
            try:
                return fn(*args), i
            except DomainError as exc:
                raise OpFailed(exc.to_doc()) from None
            finally:
                while t.stack:
                    t.finish(t.stack[-1])

    def _five_steps(self, ws, actor: str, artifact: str) -> FilterResult:
        """``filtering_info_artifact``, step by step, each step in its own span."""
        t = self.tracer
        i = t.begin("engine.filter")
        if actor not in ws.actors:
            raise NotFoundError(f"unknown actor: {actor}")
        ws.model.artifact(artifact)
        vps = t.call("viewpoints.step1", restitution_list_viewpoint, ws.actors, ws.viewpoints, actor)
        covering = t.call("viewpoints.step2", filtering_list_vp_artifact, ws.model, vps, artifact)
        ordered = t.call("viewpoints.step3", classification_vp, ws.actors, covering)
        per_viewpoint = [
            t.call("policy.step4", restitution_list_connexion_level, vp, ws.actors[vp.actor_id], ws.policy)
            for vp in ordered
        ]
        if per_viewpoint:
            merged = t.call("engine.merge", _merge, per_viewpoint)
            audit = tuple(AuditEntry(vp.id, lst) for vp, lst in zip(ordered, per_viewpoint))
            result = FilterResult(actor, artifact, merged, audit)
        else:
            result = FilterResult(actor, artifact, ConnexionLevelList())
        t.finish(i)
        t.count("viewpoints.scanned", len(ws.viewpoints))
        t.count("viewpoints.covering", len(covering))
        return result

    def _filter(self, actor: str, artifact: str):
        ws = self.store.load_workspace()
        result = self._five_steps(ws, actor, artifact)
        doc = self.tracer.call("documents.filter_result_to_doc", documents.filter_result_to_doc, result, True)
        return ws, result, documents.canonical_dumps(doc)

    def filter_op(self, actor, artifact):
        (ws, result, text), i = self._traced("filter", self._filter, actor, artifact)
        traced_ms = (self.tracer.end[i] - self.tracer.start[i]) / 1e6
        self.expect(result == filtering_info_artifact(ws, artifact, actor), f"five steps differ for {actor} on {artifact}")

        start = time.perf_counter_ns()
        plain = filtering_info_artifact(self.store.load_workspace(), artifact, actor)
        documents.canonical_dumps(documents.filter_result_to_doc(plain, include_audit=True))
        untraced_ms = (time.perf_counter_ns() - start) / 1e6

        code, data, http_ms = http_request(self.server.port, "GET", f"/artifacts/{artifact}/filter?actor={actor}")
        if code != 200:
            raise OpFailed(f"GET filter answered {code}")
        self.expect(data == text.encode("utf-8"), f"served filter bytes differ for {actor} on {artifact}")
        self.samples["trace.filter_untraced_ms"].append(untraced_ms)
        self.samples["service.overhead_ms"].append(http_ms - untraced_ms)
        return json.loads(text), traced_ms

    def import_probe(self):
        """A fresh interpreter importing ``viewfilter.cli``, minus a bare one."""
        times = []
        for code in ("pass", "import viewfilter.cli"):
            start = time.perf_counter_ns()
            subprocess.run([sys.executable, "-c", code], env=self.child_env(), check=True, timeout=120)
            times.append((time.perf_counter_ns() - start) / 1e6)
        return None, times[1] - times[0]

    def cli_read(self, actor, artifact):
        self.op("cli.import_ms", self.import_probe)

    def _change(self, kind: str, fn, *args):
        change, i = self._traced(kind, fn, *args)
        if change.status is ChangeStatus.EFFECTIVE and kind == "decide":
            self.tracer.rename(i, "publish")
        ms = (self.tracer.end[i] - self.tracer.start[i]) / 1e6
        return json.loads(documents.canonical_dumps(documents.change_to_doc(change))), ms

    def _propose(self, body):
        change = ChangeWorkflow(self.store).propose(body["author_actor_id"], body["artifact_id"], body["batch"], body["delta"])
        self.tracer.count("changes.concerned", len(change.concerned))
        return change

    def propose_op(self, body):
        return self._change("propose", self._propose, body)

    def decide_op(self, change_id, actor, decision):
        return self._change("decide", ChangeWorkflow(self.store).decide, change_id, actor, decision)

    def withdraw_op(self, change_id, actor):
        return self._change("withdraw", ChangeWorkflow(self.store).withdraw, change_id, actor)

    def metrics(self) -> dict:
        t = self.tracer
        self_ns = t.self_times()
        kinds = {i: t.names[t.name[i]] for i in range(len(t.start)) if t.parent[i] < 0}
        per_op: dict[tuple[int, str], int] = defaultdict(int)
        self_sum: dict[int, int] = defaultdict(int)
        for i in range(len(t.start)):
            per_op[(t.root[i], t.names[t.name[i]])] += self_ns[i]
            self_sum[t.root[i]] += self_ns[i]
        for root, kind in kinds.items():
            if kind == "filter":
                self.expect(self_sum[root] == t.end[root] - t.start[root], "self times do not add up to the filter total")
        self.expect(min(self_ns, default=0) >= 0, "a span ends after its parent")

        out = {}
        for metric, span, from_kinds in PER_OPERATION:
            values = [v for (r, name), v in per_op.items() if name == span and kinds[r] in from_kinds]
            out[metric] = (median(values) / 1e6, "ms")
        for metric, counter, kind, scale in PER_OPERATION_COUNTS:
            values = [t.counts[(r, counter)] * scale for r, k in kinds.items() if k == kind]
            out[metric] = (median(values), "KiB" if scale != 1 else "count")
        filter_roots = [r for r, k in kinds.items() if k == "filter"]
        out["trace.filter_total_ms"] = (median([(t.end[r] - t.start[r]) / 1e6 for r in filter_roots]), "ms")
        for metric in ("trace.filter_untraced_ms", "service.overhead_ms", "cli.import_ms"):
            out[metric] = (median(self.samples[metric]), "ms")
        return out

