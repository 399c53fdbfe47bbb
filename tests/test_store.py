import copy
import fcntl
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from _corruptions import CORRUPTIONS
import viewfilter
from viewfilter import documents, fixture
from viewfilter.changes import Annotation, ChangeStatus, ChangeWorkflow
from viewfilter.engine import filtering_info_artifact
from viewfilter.errors import (
    ConflictError,
    InvalidInputError,
    ModelRejectedError,
    NotFoundError,
)
from viewfilter.store import Store


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
        with pytest.raises(NotFoundError):
            Store(tmp_path / "store").export_model()

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
        assert not (seeded_store.root / "viewpoints" / "VP9.json").exists()

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

        for subdir in ("model", "actors", "viewpoints", "changes", "annotations"):
            for path in sorted((seeded_store.root / subdir).glob("*.json")):
                original = path.read_bytes()
                doc = documents.canonical_loads(path.read_text(encoding="utf-8"))
                assert documents.canonical_dumps(doc).encode("utf-8") == original

        # Parse into domain objects and re-serialize: still byte-identical.
        for path in (seeded_store.root / "actors").glob("*.json"):
            actor = documents.actor_from_doc(documents.canonical_loads(path.read_text()))
            assert documents.canonical_dumps(documents.actor_to_doc(actor)).encode() == path.read_bytes()
        for path in (seeded_store.root / "viewpoints").glob("*.json"):
            vp = documents.viewpoint_from_doc(documents.canonical_loads(path.read_text()))
            assert documents.canonical_dumps(documents.viewpoint_to_doc(vp)).encode() == path.read_bytes()
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
        src = str(Path(viewfilter.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        cmd = [sys.executable, "-m", "viewfilter", "--store", str(root), "change", "propose",
               "--author", "ActorX", "--artifact", "CycloneVessel", "--batch", "Geometry-Form"]
        procs = [subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) for _ in range(8)]
        outputs = [proc.communicate(timeout=60) for proc in procs]
        assert [proc.returncode for proc in procs] == [0] * 8, outputs
        ids = sorted(documents.canonical_loads(out.decode())["id"] for out, _ in outputs)
        assert ids == [f"chg-{n:06d}" for n in range(1, 16, 2)]
        assert (root / "seq").read_text() == "16"
        assert sorted(p.stem for p in (root / "changes").glob("*.json")) == ids
        assert len(list((root / "annotations").glob("*.json"))) == 8


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
_QUALITY_RULE = "\nrule discipline=quality activity=* competence>=1\n  grant Requirements:1\n"


def _filters(store):
    """Every actor's audited filter on every artifact, as served bytes."""
    ws = store.load_workspace()
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


_PARTS = ("model", "actors", "viewpoints", "policies")


def _tokens(store):
    return {part: (store.root / part / "TOKEN").read_bytes() for part in _PARTS}


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
        # Every part token is damaged: removed, emptied or overwritten.
        reader = Store(seeded_store.root)
        before = _filters(reader)
        for part in _PARTS:
            token = seeded_store.root / part / "TOKEN"
            if damage is None:
                token.unlink()
            else:
                token.write_bytes(damage)
        # A policy edited behind the store's back shows at once, as with no cache.
        (seeded_store.root / "policies" / "default.policy").write_text(fixture.DEFAULT_POLICY_TEXT + _QUALITY_RULE)
        after = _filters(reader)
        assert after != before
        if not damage:
            first, second = _parts(reader.load_workspace()), _parts(reader.load_workspace())
            assert not any(a is b for a, b in zip(first, second))
        assert after == _filters(Store(seeded_store.root))

    def test_each_writer_moves_only_its_own_token(self, seeded_store):
        writer = Store(seeded_store.root)
        writes = [
            ("model", lambda: writer.import_model(writer.export_model())),
            ("actors", lambda: writer.add_actor(_ACTOR_W)),
            ("viewpoints", lambda: writer.add_viewpoints([_VP_W])),
            ("policies", lambda: writer.set_policy(fixture.DEFAULT_POLICY_TEXT)),
            ("model", lambda: _publish_by_decision(writer)),
        ]
        for part, write in writes:
            before = _tokens(seeded_store)
            write()
            after = _tokens(seeded_store)
            assert [p for p in _PARTS if after[p] != before[p]] == [part]

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
        for part in _PARTS:
            (seeded_store.root / part / "TOKEN").unlink()
        (seeded_store.root / "generation").write_text("left by an older version")
        store = Store(seeded_store.root)
        assert not any((seeded_store.root / part / "TOKEN").exists() for part in _PARTS)
        writes = [
            ("model", lambda: store.import_model(store.export_model())),
            ("actors", lambda: store.add_actor(_ACTOR_W)),
            ("viewpoints", lambda: store.add_viewpoints([_VP_W])),
            ("policies", lambda: store.set_policy(fixture.DEFAULT_POLICY_TEXT + _QUALITY_RULE)),
        ]
        written = []
        for part, write in [(None, lambda: None), *writes]:
            write()
            written.append(part)
            cached = [a is b for a, b in zip(_parts(store.load_workspace()), _parts(store.load_workspace()))]
            assert cached == [p in written for p in _PARTS], f"after the {part} write"
            assert _filters(store) == _filters(Store(seeded_store.root))

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
