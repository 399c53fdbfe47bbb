import copy
import fcntl
import io
import json
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest

from _corruptions import CORRUPTIONS
import viewfilter
from viewfilter import documents, fixture
from viewfilter import store as store_module
from viewfilter.changes import Annotation, ChangeStatus, ChangeWorkflow
from viewfilter.cli import main as cli_main
from viewfilter.engine import Workspace, filtering_info_artifact
from viewfilter.errors import (
    ConflictError,
    DocumentError,
    InvalidInputError,
    ModelRejectedError,
    NotFoundError,
)
from viewfilter.store import Store


def _cli_env():
    """The environment for a ``python -m viewfilter`` child that imports this checkout."""
    src = str(Path(viewfilter.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestModelVersions:
    def test_import_then_export_is_canonical_fixed_point(self, tmp_path, model_doc):
        # Give every list the encoder orders two or more entries, then scramble
        # them all, with the matrix permuted to follow the teams; the stored
        # form must be canonical anyway.
        model_doc["processes"][0]["activities"].append({
            "id": "geometry-check", "process_id": "P1", "name": "Geometry check", "discipline": "geometry",
            "tasks": [
                {"id": "TSK-C2", "activity_id": "geometry-check", "name": "Sign off"},
                {"id": "TSK-C1", "activity_id": "geometry-check", "name": "Check envelope"},
            ],
        })
        model_doc["organization"]["teams"][0]["member_actor_ids"] = ["ActorW", "ActorX"]
        teams, matrix = model_doc["organization"]["teams"], model_doc["organization"]["collaboration_matrix"]
        pairs = {(a["id"], b["id"]): matrix[i][j] for i, a in enumerate(teams) for j, b in enumerate(teams)}

        scrambled = copy.deepcopy(model_doc)
        for key in ("artifacts", "interactions", "processes", "task_flows"):
            scrambled[key].reverse()
        for process in scrambled["processes"]:
            process["activities"].reverse()
            for activity in process["activities"]:
                activity["tasks"].reverse()
        org = scrambled["organization"]
        for team in org["teams"]:
            team["member_actor_ids"].reverse()
        order = [2, 0, 1]
        org["teams"] = [org["teams"][i] for i in order]
        org["collaboration_matrix"] = [[matrix[i][j] for j in order] for i in order]

        store = Store(tmp_path / "store")
        assert store.import_model(scrambled) == 1
        exported = store.export_model()
        assert exported == documents.model_to_doc(documents.model_from_doc(model_doc))
        assert documents.model_to_doc(documents.model_from_doc(exported)) == exported

        processes, teams = exported["processes"], exported["organization"]["teams"]
        by_id = [exported["artifacts"], exported["interactions"], processes, teams]
        by_id += [p["activities"] for p in processes] + [a["tasks"] for p in processes for a in p["activities"]]
        for items in by_id:
            assert [item["id"] for item in items] == sorted(item["id"] for item in items)
        flows = [(f["from_task"], f["to_task"], f["payload_description"]) for f in exported["task_flows"]]
        assert flows == sorted(flows)
        assert teams[0]["member_actor_ids"] == ["ActorW", "ActorX"]
        matrix = exported["organization"]["collaboration_matrix"]
        assert {(a["id"], b["id"]): matrix[i][j] for i, a in enumerate(teams) for j, b in enumerate(teams)} == pairs

    def test_versions_are_sequential_and_current_is_latest(self, tmp_path, model_doc):
        store = Store(tmp_path / "store")
        assert store.import_model(model_doc) == 1
        assert store.import_model(model_doc) == 2
        assert store.model_versions() == [1, 2]
        assert store.current_version() == 2
        assert store.export_model(1) == store.export_model(2)

    def test_rejected_import_lists_violation_codes(self, tmp_path, model_doc):
        mutate, expected_code = CORRUPTIONS["second_root"]
        mutate(model_doc)
        store = Store(tmp_path / "store")
        with pytest.raises(ModelRejectedError) as exc:
            store.import_model(model_doc)
        assert [v["code"] for v in exc.value.violations] == [expected_code]
        assert store.model_versions() == []

    def test_export_missing_version(self, seeded_store):
        with pytest.raises(NotFoundError):
            seeded_store.export_model(99)

    def test_export_before_any_import(self, tmp_path):
        with pytest.raises(NotFoundError, match="^no model has been imported$"):
            Store(tmp_path / "store").export_model()

    def test_export_of_version_0_names_that_version(self, seeded_store):
        with pytest.raises(NotFoundError, match="^model version 0 does not exist$"):
            seeded_store.export_model(0)

    def test_opening_and_reading_a_missing_root_creates_nothing(self, tmp_path):
        root = tmp_path / "store"
        store = Store(root)
        with pytest.raises(NotFoundError, match="no model has been imported"):
            store.load_workspace()
        with pytest.raises(NotFoundError):
            store.get_policy_text()
        assert (store.model_versions(), store.list_changes(), store.list_annotations()) == ([], [], [])
        assert not root.exists()
        assert store.next_seq() == 1  # the first write creates the whole tree
        assert sorted(p.name for p in root.iterdir()) == [
            "LOCK", "actors", "annotations", "changes", "model", "policies", "seq", "viewpoints",
        ]

    def test_reopened_store_sees_same_state(self, seeded_store):
        reopened = Store(seeded_store.root)
        assert reopened.export_model() == seeded_store.export_model()
        assert [a.id for a in reopened.list_actors()] == ["ActorX", "ActorY", "ActorZ"]


class TestRegistries:
    def test_actor_round_trip(self, seeded_store):
        for actor in fixture.example_actors():
            assert seeded_store.get_actor(actor.id) == actor

    def test_actor_with_unknown_team_rejected(self, seeded_store):
        doc = documents.actor_to_doc(fixture.example_actors()[0])
        doc["id"], doc["team_id"] = "ActorQ", "T9"
        with pytest.raises(InvalidInputError):
            seeded_store.add_actor(doc)

    def test_duplicate_actor_rejected(self, seeded_store):
        with pytest.raises(ConflictError):
            seeded_store.add_actor(documents.actor_to_doc(fixture.example_actors()[0]))

    def test_mutually_referencing_viewpoints_need_one_batch(self, tmp_path, model_doc):
        store = Store(tmp_path / "store")
        store.import_model(model_doc)
        for actor in fixture.example_actors():
            store.add_actor(documents.actor_to_doc(actor))
        docs = [documents.viewpoint_to_doc(vp) for vp in fixture.example_viewpoints()]
        mutual = [d for d in docs if d["id"] in ("VP1", "VP2")]
        with pytest.raises(InvalidInputError):
            store.add_viewpoints([mutual[0]])
        added = store.add_viewpoints(mutual)
        assert [vp.id for vp in added] == ["VP1", "VP2"]

    def test_viewpoint_with_dangling_target_rejected(self, seeded_store):
        doc = {
            "id": "VP9", "actor_id": "ActorY",
            "domain": {"activity_id": "geometry-design", "discipline": "geometry"},
            "objective": {"focus_label": "f", "target_artifact_id": "Ghost"},
            "relationships": [], "importance": 3,
        }
        with pytest.raises(InvalidInputError) as exc:
            seeded_store.add_viewpoints([doc])
        assert any(v["code"] == "viewpoint.unknown_artifact" for v in exc.value.details["violations"])

    def test_duplicate_viewpoint_rejected(self, seeded_store):
        doc = documents.viewpoint_to_doc(fixture.example_viewpoints()[2])
        with pytest.raises(ConflictError):
            seeded_store.add_viewpoints([doc])
        fresh = {**doc, "id": "VP9"}
        with pytest.raises(ConflictError, match="viewpoint VP9 appears twice in the batch"):
            seeded_store.add_viewpoints([fresh, fresh])
        assert "VP9" not in {vp.id for vp in Store(seeded_store.root).list_viewpoints()}

    def test_registration_judges_only_the_batch(self, seeded_store):
        # A model without the dust outlet orphans VP4, which no operation removes.
        doc = seeded_store.export_model()
        gone = {"DustOutlet", "DustHopper", "DustValve"}
        doc["artifacts"] = [a for a in doc["artifacts"] if a["id"] not in gone]
        doc["interactions"] = [i for i in doc["interactions"] if not gone & {i["endpoint_a"], i["endpoint_b"]}]
        doc["organization"]["teams"][2]["responsibility_artifact_id"] = "MountingFrame"
        seeded_store.import_model(doc)
        vp9 = {**_VP_W, "actor_id": "ActorY", "objective": {"focus_label": "cone", "target_artifact_id": "ConeShell"}}
        assert [vp.id for vp in seeded_store.add_viewpoints([vp9])] == ["VP9"]
        # The batch's own faults are still reported, with references resolved against the registry.
        refs = [{"other_viewpoint_id": other, "kind": "refines"} for other in ("VP9", "VP11")]
        bad = {**vp9, "id": "VP10", "relationships": refs}
        with pytest.raises(InvalidInputError) as exc:
            seeded_store.add_viewpoints([bad])
        assert [(v["code"], v["subject"]) for v in exc.value.details["violations"]] == [
            ("viewpoint.relationship_dangling", "VP10"),
        ]

    def test_list_viewpoints_by_actor(self, seeded_store):
        assert [vp.id for vp in seeded_store.list_viewpoints("ActorX")] == ["VP1", "VP2"]
        assert [vp.id for vp in seeded_store.list_viewpoints()] == ["VP1", "VP2", "VP3", "VP4"]

    def test_list_viewpoints_by_actor_reads_only_the_actor_once_cached(self, seeded_store, monkeypatch):
        seeded_store.load_workspace()
        read = []
        real = Store._read_doc
        monkeypatch.setattr(Store, "_read_doc", lambda store, path: read.append(path.name) or real(store, path))
        assert [vp.id for vp in seeded_store.list_viewpoints("ActorX")] == ["VP1", "VP2"]
        assert read == []

    def test_list_annotations_by_actor_reads_only_the_actor_files(self, seeded_store, monkeypatch):
        # "a.b" ends in ".b", so its files match the glob for actor "b" and
        # the decoded actor id has to tell them apart.
        for actor_id in ("b", "a.b"):
            seeded_store.add_actor({**_ACTOR_W, "id": actor_id, "name": actor_id})
        for change_id in ("chg-000001", "chg-000002"):
            for actor_id in ("ActorY", "b", "a.b"):
                seeded_store.save_annotation(
                    Annotation(f"{change_id}.{actor_id}", change_id, actor_id, "CycloneVessel", "Geometry-Form", 1)
                )
        seeded_store.load_workspace()
        read = []
        real = Store._read_doc
        monkeypatch.setattr(Store, "_read_doc", lambda store, path: read.append(path.name) or real(store, path))
        assert [a.id for a in seeded_store.list_annotations("b")] == ["chg-000001.b", "chg-000002.b"]
        assert sorted(read) == ["chg-000001.a.b.json", "chg-000001.b.json", "chg-000002.a.b.json", "chg-000002.b.json"]
        read.clear()
        assert [a.id for a in seeded_store.list_annotations("a.b")] == ["chg-000001.a.b", "chg-000002.a.b"]
        assert sorted(read) == ["chg-000001.a.b.json", "chg-000002.a.b.json"]

    def test_list_viewpoints_by_actor_on_a_store_without_model(self, tmp_path):
        store = Store(tmp_path / "empty")
        with pytest.raises(NotFoundError, match="unknown actor: ActorX"):
            store.list_viewpoints("ActorX")
        with pytest.raises(InvalidInputError):
            store.list_viewpoints("../escape")

    def test_unsafe_id_rejected(self, seeded_store):
        doc = documents.actor_to_doc(fixture.example_actors()[0])
        doc["id"] = "../escape"
        with pytest.raises(InvalidInputError):
            seeded_store.add_actor(doc)

    def test_a_registered_actor_on_an_unknown_team_gets_the_team_message(self, seeded_store):
        doc = {**documents.actor_to_doc(fixture.example_actors()[0]), "team_id": "T9"}
        with pytest.raises(InvalidInputError, match=r"^actor ActorX: team T9 does not resolve$"):
            seeded_store.add_actor(doc)

    def test_a_registered_invalid_viewpoint_gets_the_conflict(self, seeded_store):
        doc = documents.viewpoint_to_doc(fixture.example_viewpoints()[2])
        doc["objective"]["target_artifact_id"] = "Ghost"
        with pytest.raises(ConflictError, match=r"^viewpoint VP3 is already registered$"):
            seeded_store.add_viewpoints([doc])

    def test_an_actor_batch_with_one_bad_team_writes_nothing(self, seeded_store):
        registry = seeded_store.root / "actors" / "REGISTRY"
        before = registry.read_bytes()
        batch = [{**_ACTOR_W, "id": actor_id, "name": actor_id} for actor_id in ("ActorU", "ActorV", "ActorW")]
        batch[1]["team_id"] = "T9"
        with pytest.raises(InvalidInputError, match=r"^actor ActorV: team T9 does not resolve$"):
            seeded_store.register("actors", batch)
        assert registry.read_bytes() == before
        assert [a.id for a in seeded_store.list_actors()] == ["ActorX", "ActorY", "ActorZ"]

    def test_an_actor_batch_that_repeats_an_id_is_a_conflict(self, seeded_store):
        registry = seeded_store.root / "actors" / "REGISTRY"
        before = registry.read_bytes()
        with pytest.raises(ConflictError, match=r"^actor ActorW appears twice in the batch$"):
            seeded_store.register("actors", [_ACTOR_W, {**_ACTOR_W, "name": "again"}])
        assert registry.read_bytes() == before

    def test_an_actor_batch_registers_in_one_write(self, seeded_store, monkeypatch):
        writes, real = [], Store._write_text
        monkeypatch.setattr(Store, "_write_text", lambda store, path, *a, **k: writes.append(path) or real(store, path, *a, **k))
        batch = [{**_ACTOR_W, "id": actor_id, "name": actor_id} for actor_id in ("ActorW", "ActorU")]
        assert [a.id for a in seeded_store.register("actors", batch)] == ["ActorW", "ActorU"]
        assert writes == [seeded_store.root / "actors" / "REGISTRY"]
        assert [a.id for a in Store(seeded_store.root).list_actors()] == ["ActorU", "ActorW", "ActorX", "ActorY", "ActorZ"]

    @pytest.mark.parametrize("kind", ["actors", "viewpoints"])
    def test_an_empty_batch_writes_nothing(self, seeded_store, monkeypatch, kind):
        monkeypatch.setattr(Store, "_write_text", lambda *a, **k: pytest.fail("an empty batch wrote"))
        assert seeded_store.register(kind, []) == []

    @pytest.mark.parametrize("kind", ["actors", "viewpoints"])
    def test_a_batch_that_is_not_a_list_is_a_bad_document(self, seeded_store, kind):
        with pytest.raises(DocumentError, match=rf"^{kind}: expected a list$"):
            seeded_store.register(kind, {"id": "x"})


class TestPolicyStorage:
    def test_policy_stored_canonically(self, seeded_store):
        text = seeded_store.get_policy_text()
        from viewfilter.policy import parse_policy, serialize_policy

        assert text == serialize_policy(parse_policy(fixture.DEFAULT_POLICY_TEXT))
        seeded_store.set_policy(text)
        assert seeded_store.get_policy_text() == text


class TestPersistedRoundTrips:
    def test_every_entity_kind_rewrites_identically(self, seeded_store):
        from viewfilter.changes import ChangeWorkflow

        workflow = ChangeWorkflow(seeded_store)
        change = workflow.propose("ActorX", "CycloneVessel", "Geometry-Form", {"description": "d"})
        workflow.decide(change.id, "ActorY", "approve")

        for subdir in ("model", "changes", "annotations"):
            for path in sorted((seeded_store.root / subdir).glob("*.json")):
                original = path.read_bytes()
                doc = documents.canonical_loads(path.read_text(encoding="utf-8"))
                assert documents.canonical_dumps(doc).encode("utf-8") == original

        # Parse into domain objects and re-serialize: still byte-identical.
        for kind, codecs in _REGISTRIES.items():
            assert _canonical_registry(seeded_store.root, kind, *codecs) == _registry_body(seeded_store.root, kind)
        for path in (seeded_store.root / "changes").glob("*.json"):
            parsed = documents.change_from_doc(documents.canonical_loads(path.read_text()))
            assert documents.canonical_dumps(documents.change_to_doc(parsed)).encode() == path.read_bytes()
        for path in (seeded_store.root / "annotations").glob("*.json"):
            parsed = documents.annotation_from_doc(documents.canonical_loads(path.read_text()))
            assert documents.canonical_dumps(documents.annotation_to_doc(parsed)).encode() == path.read_bytes()

    def test_workspace_matches_in_memory_fixture(self, seeded_store, workspace):
        loaded = seeded_store.load_workspace()
        assert documents.model_to_doc(loaded.model) == documents.model_to_doc(workspace.model)
        assert loaded.actors == workspace.actors
        assert loaded.viewpoints == workspace.viewpoints
        assert loaded.policy == workspace.policy


class TestConcurrentWriters:
    def test_stores_on_one_root_do_not_clash_on_temp_files(self, tmp_path):
        stores = [Store(tmp_path / "store") for _ in range(4)]
        errors = []

        def allocate(store):
            try:
                for _ in range(100):
                    store.next_seq()
            except Exception as exc:  # noqa: BLE001 - collected and asserted below
                errors.append(exc)

        threads = [threading.Thread(target=allocate, args=(store,)) for store in stores]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert list((tmp_path / "store").rglob("*.tmp")) == []
        assert (tmp_path / "store" / "seq").read_text() == "400"

    def test_nested_lock_is_taken_once_and_released_by_the_outermost_exit(self, tmp_path):
        store, other = Store(tmp_path / "store"), Store(tmp_path / "store")
        (tmp_path / "store").mkdir()
        probe = os.open(tmp_path / "store" / "LOCK", os.O_RDWR | os.O_CREAT)
        try:
            with store.lock:
                with store.lock:
                    assert store.next_seq() == 1
                with pytest.raises(BlockingIOError):  # still held after the inner exit
                    fcntl.flock(probe, fcntl.LOCK_EX | fcntl.LOCK_NB)
            fcntl.flock(probe, fcntl.LOCK_EX | fcntl.LOCK_NB)  # free after the outer one
            fcntl.flock(probe, fcntl.LOCK_UN)
        finally:
            os.close(probe)
        assert other.next_seq() == 2

    def test_an_idle_store_holds_no_lock_file_open(self, tmp_path):
        store = Store(tmp_path / "store")
        before = len(os.listdir("/dev/fd"))
        for _ in range(20):
            store.next_seq()
        assert len(os.listdir("/dev/fd")) == before

    @pytest.mark.parametrize("trial", range(5))
    def test_concurrent_cli_proposals_all_land(self, tmp_path, trial):
        # Eight processes each propose once; every one must get its own change id.
        root = fixture.seed_store(tmp_path / "store").root
        cmd = [sys.executable, "-m", "viewfilter", "--store", str(root), "change", "propose",
               "--author", "ActorX", "--artifact", "CycloneVessel", "--batch", "Geometry-Form"]
        procs = [subprocess.Popen(cmd, env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) for _ in range(8)]
        outputs = [proc.communicate(timeout=60) for proc in procs]
        assert [proc.returncode for proc in procs] == [0] * 8, outputs
        ids = sorted(documents.canonical_loads(out.decode())["id"] for out, _ in outputs)
        assert ids == [f"chg-{n:06d}" for n in range(1, 16, 2)]
        assert (root / "seq").read_text() == "16"
        assert sorted(p.stem for p in (root / "changes").glob("*.json")) == ids
        assert len(list((root / "annotations").glob("*.json"))) == 8

    def test_concurrent_cli_registrations_all_land(self, tmp_path):
        # Each registration rewrites the one actors file; none may be lost.
        root = fixture.seed_store(tmp_path / "store").root
        ids = [f"ActorC{n}" for n in range(8)]
        for actor_id in ids:
            (tmp_path / actor_id).write_text(json.dumps({**_ACTOR_W, "id": actor_id, "name": actor_id}))
        cmd = [sys.executable, "-m", "viewfilter", "--store", str(root), "actor", "add"]
        procs = [
            subprocess.Popen([*cmd, str(tmp_path / actor_id)], env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for actor_id in ids
        ]
        outputs = [proc.communicate(timeout=60) for proc in procs]
        assert [proc.returncode for proc in procs] == [0] * 8, outputs
        listed = json.loads(_cli(root, "actor", "list").stdout)["actors"]
        assert [a["id"] for a in listed] == [*ids, "ActorX", "ActorY", "ActorZ"]


_ACTOR_W = {
    "id": "ActorW", "name": "ActorW", "role": "late joiner",
    "situation": "internal", "team_id": "T2", "competences": {"geometry": 5},
}
_VP_W = {
    "id": "VP9", "actor_id": "ActorW",
    "domain": {"activity_id": "geometry-design", "discipline": "geometry"},
    "objective": {"focus_label": "late focus", "target_artifact_id": "DustOutlet"},
    "relationships": [], "importance": 3,
}
_VP_Y = {**_VP_W, "actor_id": "ActorY"}
_QUALITY_RULE = "\nrule discipline=quality activity=* competence>=1\n  grant Requirements:1\n"
_REGISTRIES = {
    "actors": (documents.actor_from_doc, documents.actor_to_doc),
    "viewpoints": (documents.viewpoint_from_doc, documents.viewpoint_to_doc),
}


def _registry_body(root, kind):
    """The JSON list after ``<kind>/REGISTRY``'s token line."""
    return (root / kind / "REGISTRY").read_text(encoding="utf-8").partition("\n")[2]


def _canonical_registry(root, kind, from_doc, to_doc):
    """``REGISTRY``'s list as it must be stored: each document decoded, encoded
    again and joined by commas; none may be missing."""
    docs = json.loads(_registry_body(root, kind))
    assert docs, f"{kind}/REGISTRY lists nothing"
    return "[" + ",".join(documents.canonical_dumps(to_doc(from_doc(doc))) for doc in docs) + "]"


def _to_legacy(root, snapshot=None):
    """Rewrite both registries into the layout written before ``REGISTRY``:
    one ``<id>.json`` per entity, a ``TOKEN`` and, unless ``snapshot`` is
    None, a ``SNAPSHOT`` holding ``snapshot(token, texts)``."""
    for kind in _REGISTRIES:
        registry = root / kind / "REGISTRY"
        token, _, body = registry.read_text(encoding="utf-8").partition("\n")
        texts = [documents.canonical_dumps(doc) for doc in json.loads(body)]
        for text in texts:
            (root / kind / f"{json.loads(text)['id']}.json").write_text(text, encoding="utf-8")
        (root / kind / "TOKEN").write_text(token)
        if snapshot is not None:
            (root / kind / "SNAPSHOT").write_bytes(snapshot(token.encode(), texts))
        registry.unlink()


def _filters(store):
    """Every actor's audited filter on every artifact, as served bytes."""
    return _workspace_filters(store.load_workspace())


def _workspace_filters(ws):
    return {
        (actor, artifact): documents.canonical_dumps(
            documents.filter_result_to_doc(filtering_info_artifact(ws, artifact, actor), include_audit=True)
        )
        for actor in ws.actors
        for artifact in ws.model.artifacts_by_id
    }


def _moved(store, artifact_id, parent_id):
    doc = store.export_model()
    for artifact in doc["artifacts"]:
        if artifact["id"] == artifact_id:
            artifact["parent_id"] = parent_id
    return doc


def _publish_by_decision(store):
    workflow = ChangeWorkflow(store)
    delta = {"description": "move the hopper", "model": _moved(store, "DustHopper", "MountingFrame")}
    change = workflow.propose("ActorX", "DustHopper", "Geometry-Form", delta)
    for actor in sorted(change.concerned):
        change = workflow.decide(change.id, actor, "approve")
    assert change.status is ChangeStatus.EFFECTIVE


def _approve_plainly(store):
    workflow = ChangeWorkflow(store)
    change = workflow.propose("ActorX", "CycloneVessel", "Geometry-Form", {"description": "d"})
    for actor in sorted(change.concerned):
        change = workflow.decide(change.id, actor, "approve")
    assert change.status is ChangeStatus.EFFECTIVE


_PARTS = ("model", "actors", "viewpoints", "policies")


def _tokens(store):
    return {part: store._token(part) for part in _PARTS}


def _parts(ws):
    return (ws.model, ws.actors, ws.viewpoints, ws.policy)


def _same(parts, others):
    return all(a is b for a, b in zip(parts, others))


class TestWorkspaceCache:
    """One Store stands in for a running server, another for a CLI writer."""

    def test_every_workspace_write_reaches_a_warm_reader(self, seeded_store):
        reader, writer = Store(seeded_store.root), Store(seeded_store.root)
        writes = [
            ("import_model", lambda: writer.import_model(_moved(writer, "DustValve", "MountingFrame"))),
            ("add_actor", lambda: writer.add_actor(_ACTOR_W)),
            ("add_viewpoints", lambda: writer.add_viewpoints([_VP_W])),
            ("set_policy", lambda: writer.set_policy(fixture.DEFAULT_POLICY_TEXT + _QUALITY_RULE)),
            ("publishing decision", lambda: _publish_by_decision(writer)),
        ]
        for name, write in writes:
            before = _filters(reader)
            write()
            after = _filters(reader)
            assert after != before, f"{name} changed no filter"
            assert after == _filters(Store(seeded_store.root)), f"{name} left the reader stale"

    def test_other_writes_keep_the_cached_workspace(self, seeded_store):
        reader, writer = Store(seeded_store.root), Store(seeded_store.root)
        tokens = _tokens(seeded_store)
        parts = _parts(reader.load_workspace())
        workflow = ChangeWorkflow(writer)
        writer.next_seq()
        assert _same(_parts(reader.load_workspace()), parts)
        change = workflow.propose("ActorX", "CycloneVessel", "Geometry-Form", {"description": "d"})
        assert change.status is ChangeStatus.PENDING
        assert _same(_parts(reader.load_workspace()), parts)
        assert workflow.decide(change.id, "ActorY", "reject").status is ChangeStatus.REJECTED
        assert _same(_parts(reader.load_workspace()), parts)
        assert _tokens(seeded_store) == tokens

    @pytest.mark.parametrize("damage", [None, b"", b"\xff\xfe garbled \x00"])
    def test_damaged_generation_file_still_gives_current_filters(self, seeded_store, damage):
        # Every token is damaged: CURRENT's is removed, emptied or overwritten,
        # and each registry's token line is emptied or overwritten.
        root = seeded_store.root
        reader = Store(root)
        before = _filters(reader)
        for kind in _REGISTRIES:
            registry = root / kind / "REGISTRY"
            registry.write_bytes((damage or b"") + b"\n" + registry.read_bytes().partition(b"\n")[2])
        # A model and a policy changed behind the store's back, under the
        # damaged token, show at once: the policy is keyed by its own text.
        moved = _moved(Store(root), "DustValve", "MountingFrame")
        (root / "model" / "v000002.json").write_text(documents.canonical_dumps(moved))
        current = {"version": 2} if damage is None else {"token": damage.decode("latin-1"), "version": 2}
        (root / "model" / "CURRENT").write_text(json.dumps(current))
        (root / "policies" / "default.policy").write_text(fixture.DEFAULT_POLICY_TEXT + _QUALITY_RULE)
        after = _filters(reader)
        assert after != before
        assert reader.load_workspace().model == documents.model_from_doc(moved)
        # The model and the policy stay cached; a registry with no token does not.
        first, second = _parts(reader.load_workspace()), _parts(reader.load_workspace())
        assert [a is b for a, b in zip(first, second)] == [True, bool(damage), bool(damage), True]
        assert after == _filters(Store(root))

    def test_each_writer_moves_only_its_own_token(self, seeded_store):
        assert list(seeded_store.root.rglob("TOKEN")) == []
        writer = Store(seeded_store.root)
        writes = [
            (["model"], lambda: writer.import_model(writer.export_model())),
            (["actors"], lambda: writer.add_actor(_ACTOR_W)),
            (["viewpoints"], lambda: writer.add_viewpoints([_VP_W])),
            (["policies"], lambda: writer.set_policy(fixture.DEFAULT_POLICY_TEXT + _QUALITY_RULE)),
            ([], lambda: writer.set_policy(fixture.DEFAULT_POLICY_TEXT + _QUALITY_RULE)),  # the same text
            (["model"], lambda: _publish_by_decision(writer)),
            ([], lambda: _approve_plainly(writer)),
        ]
        for parts, write in writes:
            before = _tokens(seeded_store)
            write()
            after = _tokens(seeded_store)
            assert [p for p in _PARTS if after[p] != before[p]] == parts
        assert list(seeded_store.root.rglob("TOKEN")) == []

    @pytest.mark.parametrize(
        "write, moved",
        [
            (lambda store: store.set_policy(fixture.DEFAULT_POLICY_TEXT + _QUALITY_RULE), "policies"),
            (_publish_by_decision, "model"),
        ],
        ids=["set_policy", "publishing decision"],
    )
    def test_a_warm_reader_decodes_only_the_part_that_moved(self, seeded_store, monkeypatch, write, moved):
        reader = Store(seeded_store.root)
        old = _parts(reader.load_workspace())
        write(Store(seeded_store.root))
        decoded = []
        for name in ("model_from_doc", "actor_from_doc", "viewpoint_from_doc"):
            real = getattr(documents, name)
            monkeypatch.setattr(documents, name, lambda doc, name=name, real=real: decoded.append(name) or real(doc))
        new = _parts(reader.load_workspace())
        assert decoded == (["model_from_doc"] if moved == "model" else [])
        assert [a is not b for a, b in zip(old, new)] == [part == moved for part in _PARTS]

    def test_a_tokenless_store_caches_each_part_from_its_next_write(self, seeded_store):
        # Written before tokens: per-entity registries, a CURRENT holding only
        # the version, and the TOKEN files of that time, now ignored.
        root = seeded_store.root
        _to_legacy(root)
        (root / "model" / "CURRENT").write_text(json.dumps({"version": 1}))
        for part in ("model", "policies"):
            (root / part / "TOKEN").write_text("left by an older version")
        (root / "generation").write_text("left by an older version")
        stale = {path: path.read_bytes() for path in root.rglob("TOKEN")}
        store = Store(root)
        assert not any((root / kind / "REGISTRY").exists() for kind in _REGISTRIES)
        assert store._token("model") == "1"
        writes = [
            ("model", lambda: store.import_model(store.export_model())),
            ("actors", lambda: store.add_actor(_ACTOR_W)),
            ("viewpoints", lambda: store.add_viewpoints([_VP_W])),
            ("policies", lambda: store.set_policy(fixture.DEFAULT_POLICY_TEXT + _QUALITY_RULE)),
        ]
        # The model is keyed by its version and the policy by its text from the start.
        written = ["model", "policies"]
        for part, write in [(None, lambda: None), *writes]:
            write()
            written.append(part)
            cached = [a is b for a, b in zip(_parts(store.load_workspace()), _parts(store.load_workspace()))]
            assert cached == [p in written for p in _PARTS], f"after the {part} write"
            assert _filters(store) == _filters(Store(seeded_store.root))
        assert store._token("model") != "1"
        assert {path: path.read_bytes() for path in root.rglob("TOKEN")} == stale

    def test_a_write_landing_during_a_load_is_seen_by_the_next_load(self, seeded_store, monkeypatch):
        reader, writer = Store(seeded_store.root), Store(seeded_store.root)
        old = reader.get_policy()
        real = Store.get_policy

        def get_policy_then_write(store):
            policy = real(store)
            monkeypatch.setattr(Store, "get_policy", real)
            writer.set_policy(fixture.DEFAULT_POLICY_TEXT + _QUALITY_RULE)
            return policy

        monkeypatch.setattr(Store, "get_policy", get_policy_then_write)
        assert reader.load_workspace().policy == old
        assert reader.load_workspace().policy == writer.get_policy() != old

    def test_a_write_is_seen_while_threads_read(self, seeded_store):
        store = Store(seeded_store.root)
        policies = [fixture.DEFAULT_POLICY_TEXT + _QUALITY_RULE, fixture.DEFAULT_POLICY_TEXT]
        stop = threading.Event()
        errors = []

        def read():
            try:
                while not stop.is_set():
                    filtering_info_artifact(store.load_workspace(), "DustOutlet", "ActorZ")
            except Exception as exc:  # noqa: BLE001 - collected and asserted below
                errors.append(exc)

        readers = [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            for i in range(40):
                written = store.set_policy(policies[i % 2])
                assert store.load_workspace().policy == written, f"write {i} not seen"
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert errors == []
        assert _filters(store) == _filters(Store(seeded_store.root))

    def test_an_import_keeps_the_model_it_validated(self, seeded_store, monkeypatch):
        store = Store(seeded_store.root)
        store.load_workspace()
        version = store.import_model(_moved(store, "DustValve", "MountingFrame"))
        decoded = []
        real = documents.model_from_doc
        monkeypatch.setattr(documents, "model_from_doc", lambda doc: decoded.append(1) or real(doc))
        kept = store.load_workspace().model
        assert decoded == []
        assert Store(seeded_store.root).load_workspace().model == kept
        assert decoded == [1]
        assert documents.model_to_doc(kept) == store.export_model(version)
        assert _filters(store) == _filters(Store(seeded_store.root))

    @pytest.mark.parametrize(
        "write",
        [
            lambda store: store.add_actor(_ACTOR_W),
            lambda store: store.add_viewpoints([_VP_Y]),
            lambda store: store.set_policy(fixture.DEFAULT_POLICY_TEXT + _QUALITY_RULE),
        ],
        ids=["add_actor", "add_viewpoints", "set_policy"],
    )
    def test_a_writer_keeps_what_it_wrote(self, seeded_store, monkeypatch, write):
        writer = Store(seeded_store.root)
        writer.load_workspace()
        write(writer)
        decoded = []
        for module, name in (
            (documents, "model_from_doc"), (documents, "actor_from_doc"),
            (documents, "viewpoint_from_doc"), (store_module, "parse_policy"),
        ):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda arg, name=name, real=real: decoded.append(name) or real(arg))
        kept = writer.load_workspace()
        assert decoded == []
        fresh = Store(seeded_store.root).load_workspace()
        assert (kept.actors, kept.viewpoints, kept.policy) == (fresh.actors, fresh.viewpoints, fresh.policy)
        assert (list(kept.actors), list(kept.viewpoints)) == (list(fresh.actors), list(fresh.viewpoints))
        assert _workspace_filters(kept) == _workspace_filters(fresh)

    def test_model_is_decoded_once_per_version(self, seeded_store, monkeypatch):
        decoded = []
        real = documents.model_from_doc
        monkeypatch.setattr(documents, "model_from_doc", lambda doc: decoded.append(1) or real(doc))
        store = Store(seeded_store.root)
        store.add_actor(_ACTOR_W)
        store.add_actor({**_ACTOR_W, "id": "ActorV", "name": "ActorV"})
        store.add_viewpoints([_VP_W])
        assert len(decoded) == 1
        store.import_model(store.export_model())  # validation decodes the new version once
        assert store.load_model().artifacts_by_id
        assert len(decoded) == 3


_SNAPSHOT_WRITES = {
    "import_model": lambda store: store.import_model(_moved(store, "DustValve", "MountingFrame")),
    "add_actor": lambda store: store.add_actor(_ACTOR_W),
    "add_viewpoints": lambda store: store.add_viewpoints([_VP_Y]),
    "set_policy": lambda store: store.set_policy(fixture.DEFAULT_POLICY_TEXT + _QUALITY_RULE),
    "staged publication": _publish_by_decision,
}


class TestResidentSnapshot:
    """``load_workspace`` returns one object until a part is reloaded or written."""

    def test_reads_and_a_plain_approval_keep_the_snapshot(self, seeded_store):
        writer, reader = Store(seeded_store.root), Store(seeded_store.root)
        snapshots = (writer.load_workspace(), reader.load_workspace())
        assert (writer.load_workspace(), reader.load_workspace()) == snapshots
        assert writer.load_workspace() is snapshots[0] and reader.load_workspace() is snapshots[1]
        _approve_plainly(writer)  # copies CURRENT's token, so no part moves
        assert writer.load_workspace() is snapshots[0]
        assert reader.load_workspace() is snapshots[1]

    @pytest.mark.parametrize("by", ["this Store", "another Store"])
    @pytest.mark.parametrize("write", list(_SNAPSHOT_WRITES.values()), ids=list(_SNAPSHOT_WRITES))
    def test_a_workspace_write_gives_a_new_snapshot(self, seeded_store, write, by):
        store = Store(seeded_store.root)
        old = store.load_workspace()
        old.filter_memo["key"] = b"text"
        write(store if by == "this Store" else Store(seeded_store.root))
        new = store.load_workspace()
        assert new is not old
        assert new.filter_memo == {}
        assert store.load_workspace() is new
        assert _workspace_filters(new) == _filters(Store(seeded_store.root))

    def test_the_stale_snapshot_is_gone_before_its_part_reloads(self, seeded_store, monkeypatch):
        store = Store(seeded_store.root)
        old_model = weakref.ref(store.load_workspace().model)
        Store(seeded_store.root).import_model(_moved(store, "DustValve", "MountingFrame"))
        alive = []
        real = Store.load_model
        monkeypatch.setattr(Store, "load_model", lambda self: alive.append(old_model() is not None) or real(self))
        store.load_workspace()
        assert alive == [False]


def _per_entity_filters(root):
    """The filters of a Workspace decoded from the per-entity files alone."""
    store = Store(root)
    actors, viewpoints = (
        {e.id: e for e in (from_doc(json.loads(p.read_text())) for p in (root / kind).glob("*.json"))}
        for kind, (from_doc, _) in _REGISTRIES.items()
    )
    return _workspace_filters(Workspace(store.load_model(), actors, viewpoints, store.get_policy()))


def _snapshot(token, texts):
    return token + b"\n[" + ",".join(texts).encode() + b"]"


def _damaged_entry(token, texts):
    docs = [json.loads(t) for t in texts]
    docs[0]["id"] = ""
    return token + b"\n" + json.dumps(docs).encode()


def _stale(token, texts):
    # Tagged with another token and one entity short, so using it would show.
    return _snapshot(b"1.2.3", texts[1:])


def _cli(root, *argv, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "viewfilter", "--store", str(root), *argv],
        env=_cli_env(), input=stdin, capture_output=True, text=True, timeout=60,
    )


def _registry_state(store):
    return store.list_actors(), store.list_viewpoints()


class TestRegistryFile:
    """``actors/REGISTRY`` and ``viewpoints/REGISTRY`` each hold a token, a
    newline and the JSON list of the registry's canonical documents."""

    def test_each_registry_is_one_file_of_canonical_documents(self, seeded_store):
        root = seeded_store.root
        for kind, codecs in _REGISTRIES.items():
            assert os.listdir(root / kind) == ["REGISTRY"]
            assert _canonical_registry(root, kind, *codecs) == _registry_body(root, kind)
            token = (root / kind / "REGISTRY").read_bytes().partition(b"\n")[0]
            assert token and token == seeded_store._token(kind)

    def test_a_cold_store_opens_one_file_per_registry(self, seeded_store, monkeypatch):
        root = seeded_store.root
        expected = _filters(Store(root))
        opened = []
        for module in (io, os):
            real = module.open
            monkeypatch.setattr(module, "open", lambda path, *a, real=real, **k: opened.append(Path(path)) or real(path, *a, **k))
        store = Store(root)
        assert _filters(store) == expected
        assert [a.id for a in store.list_actors()] == ["ActorX", "ActorY", "ActorZ"]
        assert [vp.id for vp in store.list_viewpoints()] == ["VP1", "VP2", "VP3", "VP4"]
        assert {(p.parent.name, p.name) for p in opened if p.parent.name in _REGISTRIES} == {
            ("actors", "REGISTRY"), ("viewpoints", "REGISTRY"),
        }

    @pytest.mark.parametrize("layout", ["registry", "legacy"])
    def test_no_read_path_writes(self, seeded_store, monkeypatch, capsys, layout):
        from viewfilter.cli import main

        root = seeded_store.root
        expected = _workspace_filters(fixture.build_workspace())
        if layout == "legacy":
            _to_legacy(root, _snapshot)
        files = sorted(p.relative_to(root) for p in root.rglob("*"))

        def refuse(store, path, *args, **kwargs):
            raise AssertionError(f"a read wrote {path}")

        monkeypatch.setattr(Store, "_write_text", refuse)
        assert _filters(Store(root)) == expected
        assert [a.id for a in Store(root).list_actors()] == ["ActorX", "ActorY", "ActorZ"]
        assert [vp.id for vp in Store(root).list_viewpoints()] == ["VP1", "VP2", "VP3", "VP4"]
        assert Store(root).get_actor("ActorY").id == "ActorY"
        assert main(["--store", str(root), "actor", "annotations", "ActorY"]) == 0
        assert json.loads(capsys.readouterr().out) == {"annotations": []}
        assert sorted(p.relative_to(root) for p in root.rglob("*")) == files

    @pytest.mark.parametrize(
        "snapshot",
        [None, lambda token, texts: b"", lambda token, texts: _snapshot(token, texts)[:200], _stale, _damaged_entry],
        ids=["removed", "empty", "cut short", "stale tag", "bad entry"],
    )
    def test_a_legacy_store_keeps_its_filters_and_entities(self, seeded_store, snapshot):
        # Written before REGISTRY: one file per entity, a TOKEN and a SNAPSHOT
        # that is not fresh, so the per-entity files decided.
        root = seeded_store.root
        expected = _filters(Store(root))
        _to_legacy(root, snapshot)
        assert _per_entity_filters(root) == expected
        store = Store(root)
        assert _filters(store) == expected
        store.add_actor(_ACTOR_W)
        store.add_viewpoints([_VP_W])
        fresh = Store(root)
        assert [a.id for a in fresh.list_actors()] == ["ActorW", "ActorX", "ActorY", "ActorZ"]
        assert [vp.id for vp in fresh.list_viewpoints()] == ["VP1", "VP2", "VP3", "VP4", "VP9"]
        assert _filters(store) == _filters(fresh) != expected
        for kind, codecs in _REGISTRIES.items():
            assert _canonical_registry(root, kind, *codecs) == _registry_body(root, kind)

    def test_a_registration_in_another_process_reaches_a_cli_filter(self, seeded_store):
        root = seeded_store.root
        assert _cli(root, "actor", "add", "-", stdin=json.dumps(_ACTOR_W)).returncode == 0
        argv = ("filter", "--actor", "ActorW", "--artifact", "DustOutlet", "--audit")
        before = _cli(root, *argv)
        assert json.loads(before.stdout)["audit"] == []
        assert _cli(root, "vp", "add", "-", stdin=json.dumps(_VP_W)).returncode == 0
        after = _cli(root, *argv)
        assert [a["viewpoint_id"] for a in json.loads(after.stdout)["audit"]] == ["VP9"]
        assert after.stdout == _filters(Store(root))[("ActorW", "DustOutlet")]
        assert [os.listdir(root / kind) for kind in _REGISTRIES] == [["REGISTRY"], ["REGISTRY"]]

    @pytest.mark.parametrize(
        "kind, damage, message",
        [
            ("actors", lambda body: "[{\n", "invalid JSON: Expecting property name enclosed in double quotes: line 2 column 1 (char 3)"),
            ("viewpoints", "VP3", "viewpoint: missing keys ['importance']"),
            ("actors", lambda body: "{}", "actors: expected a list"),
        ],
        ids=["cut short", "bad entry", "not a list"],
    )
    def test_a_corrupt_registry_gives_the_same_error_document(self, seeded_store, kind, damage, message):
        root = seeded_store.root
        registry = root / kind / "REGISTRY"
        token, _, body = registry.read_text().partition("\n")
        if callable(damage):
            body = damage(body)
        else:
            docs = json.loads(body)
            del next(doc for doc in docs if doc["id"] == damage)["importance"]
            body = json.dumps(docs)
        registry.write_text(f"{token}\n{body}")
        damaged = registry.read_bytes()
        out = _cli(root, "filter", "--actor", "ActorX", "--artifact", "CycloneVessel")
        assert out.returncode == 1
        assert json.loads(out.stdout) == {"error": {"code": "bad_document", "message": message}}
        # A registration refuses to build on it, and writes nothing.
        with pytest.raises(DocumentError) as exc:
            Store(root).add_actor(_ACTOR_W) if kind == "actors" else Store(root).add_viewpoints([_VP_Y])
        assert exc.value.message == message
        assert registry.read_bytes() == damaged


class TestNonUtf8Files:
    """A stored file that is not UTF-8 is a ``bad_document`` naming the file, never a traceback."""

    @staticmethod
    def _spoil(path):
        data = path.read_bytes()
        cut = data.index(b'"id"')  # inside the JSON, after any token line
        path.write_bytes(data[:cut] + b"\xff" + data[cut + 1:])

    @staticmethod
    def _cli_error(capsys, *argv):
        code = cli_main([str(arg) for arg in argv])
        assert code == 1
        return json.loads(capsys.readouterr().out)["error"]

    @pytest.mark.parametrize("kind", ["actors", "viewpoints"])
    def test_a_registry(self, seeded_store, capsys, kind):
        registry = seeded_store.root / kind / "REGISTRY"
        self._spoil(registry)
        error = self._cli_error(capsys, "--store", seeded_store.root, "filter", "--actor", "ActorX", "--artifact", "CycloneVessel")
        assert error["code"] == "bad_document"
        assert error["message"].startswith(f"{registry} is not UTF-8: ")
        assert capsys.readouterr().err == ""

    def test_a_change_file(self, seeded_store, capsys):
        change = ChangeWorkflow(seeded_store).propose("ActorX", "CycloneVessel", "Geometry-Form", {"description": "d"})
        path = seeded_store.root / "changes" / f"{change.id}.json"
        self._spoil(path)
        error = self._cli_error(capsys, "--store", seeded_store.root, "change", "show", change.id)
        assert error["code"] == "bad_document"
        assert error["message"].startswith(f"{path} is not UTF-8: ")
        with pytest.raises(DocumentError, match="is not UTF-8"):
            Store(seeded_store.root).list_changes()


class TestMalformedPointers:
    """``seq`` and ``model/CURRENT`` that do not decode are a ``bad_document``
    naming the file, never a traceback."""

    @pytest.mark.parametrize("text", ["abc", "", "-1", "1.5", " 7", "\u0667"])
    def test_a_seq_that_is_not_a_count(self, seeded_store, capsys, text):
        seq = seeded_store.root / "seq"
        seq.write_text(text, encoding="utf-8")
        argv = ["--store", seeded_store.root, "change", "propose", "--author", "ActorX",
                "--artifact", "CycloneVessel", "--batch", "Geometry-Form", "--description", "d"]
        assert cli_main([str(arg) for arg in argv]) == 1
        captured = capsys.readouterr()
        error = json.loads(captured.out)["error"]
        assert error["code"] == "bad_document"
        assert error["message"].startswith(f"{seq}: ")
        assert captured.err == ""
        assert seq.read_text(encoding="utf-8") == text
        assert list((seeded_store.root / "changes").iterdir()) == []

    @pytest.mark.parametrize(
        "current",
        ['{"version": "x"}', '{"version": 0}', '{"version": true}', '{"token": 5, "version": 1}', "{}", "[1]", "1"],
    )
    @pytest.mark.parametrize("argv", [("filter", "--actor", "ActorX", "--artifact", "CycloneVessel"), ("model", "export")])
    def test_a_current_that_is_not_a_pointer(self, seeded_store, capsys, current, argv):
        pointer = seeded_store.root / "model" / "CURRENT"
        pointer.write_text(current)
        assert cli_main(["--store", str(seeded_store.root), *argv]) == 1
        captured = capsys.readouterr()
        error = json.loads(captured.out)["error"]
        assert error["code"] == "bad_document"
        assert error["message"].startswith(f"{pointer}: ")
        assert captured.err == ""


class _Crash(Exception):
    """A write that fails at its rename, the commit point of every write."""


def _raise(exc):
    raise exc


_REGISTRATIONS = {
    "add_actor": lambda store: store.add_actor(_ACTOR_W),
    "add_viewpoints": lambda store: store.add_viewpoints([_VP_Y]),
}


class TestRegistrationCrashes:
    @pytest.mark.parametrize("layout", ["registry", "legacy"])
    @pytest.mark.parametrize("name", sorted(_REGISTRATIONS))
    def test_a_failed_write_changes_nothing_and_the_retry_lands(self, tmp_path, monkeypatch, name, layout):
        register, real = _REGISTRATIONS[name], Store._write_text

        def seeded(path):
            root = fixture.seed_store(path).root
            if layout == "legacy":
                _to_legacy(root, _snapshot)
            return root

        counted, writes = Store(seeded(tmp_path / "count")), []
        monkeypatch.setattr(Store, "_write_text", lambda store, path, *a, **k: writes.append(path) or real(store, path, *a, **k))
        register(counted)
        monkeypatch.setattr(Store, "_write_text", real)
        assert writes
        for k in range(1, len(writes) + 1):
            root = seeded(tmp_path / f"fail-{k}")
            writer = Store(root)
            writer.load_workspace()
            before = _registry_state(Store(root))
            calls = []

            def write(store, path, *args, k=k, **kwargs):
                calls.append(path)
                if len(calls) != k:
                    return real(store, path, *args, **kwargs)
                with monkeypatch.context() as patch:
                    patch.setattr(os, "replace", lambda src, dst: _raise(_Crash(f"write {k}: {dst}")))
                    return real(store, path, *args, **kwargs)

            monkeypatch.setattr(Store, "_write_text", write)
            with pytest.raises(_Crash):
                register(writer)
            monkeypatch.setattr(Store, "_write_text", real)
            assert _registry_state(Store(root)) == before, f"write {k} of {len(writes)}"
            assert list(root.rglob("*.tmp")) == []
            register(writer)  # the retry
            assert _registry_state(Store(root)) != before
            assert _filters(writer) == _filters(Store(root))


# name -> (the write, the part whose key it moves)
_WORKSPACE_WRITES = {
    "import_model": (lambda store: store.import_model(_moved(store, "DustValve", "MountingFrame")), "model"),
    "set_policy": (lambda store: store.set_policy(fixture.DEFAULT_POLICY_TEXT + _QUALITY_RULE), "policies"),
    "staged publication": (_publish_by_decision, "model"),
    "plain approval": (_approve_plainly, None),
}


class TestWorkspaceWriteCrashes:
    @pytest.mark.parametrize("name", list(_WORKSPACE_WRITES))
    def test_a_failed_write_leaves_warm_stores_current(self, tmp_path, monkeypatch, name):
        (write_part, moved), real = _WORKSPACE_WRITES[name], Store._write_text
        root = fixture.seed_store(tmp_path / "count").root
        moves = []

        def counted(store, path, *args, **kwargs):
            before = _tokens(Store(root))
            real(store, path, *args, **kwargs)
            after = _tokens(Store(root))
            moves.append([part for part in _PARTS if after[part] != before[part]])

        monkeypatch.setattr(Store, "_write_text", counted)
        write_part(Store(root))
        monkeypatch.setattr(Store, "_write_text", real)
        # One write moves the part's key; a plain approval moves none.
        assert [m for m in moves if m] == ([[moved]] if moved else [])
        for k in range(1, len(moves) + 1):
            root = fixture.seed_store(tmp_path / f"fail-{k}").root
            reader, writer = Store(root), Store(root)
            reader.load_workspace()
            writer.load_workspace()
            calls = []

            def write(store, path, *args, k=k, **kwargs):
                calls.append(path)
                if len(calls) == k:
                    raise _Crash(f"write {k}: {path}")
                return real(store, path, *args, **kwargs)

            monkeypatch.setattr(Store, "_write_text", write)
            with pytest.raises(_Crash):
                write_part(writer)
            monkeypatch.setattr(Store, "_write_text", real)
            for store in (reader, writer):
                assert _filters(store) == _filters(Store(root)), f"write {k} of {len(moves)}"
                assert store.load_workspace().model == documents.model_from_doc(store.export_model())
