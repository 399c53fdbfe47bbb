import io
import json

import pytest

from _corruptions import CORRUPTIONS
from _oracles import MERGED_TABLE
from viewfilter import documents, fixture
from viewfilter.changes import ChangeWorkflow
from viewfilter.cli import main
from viewfilter.policy import parse_policy, serialize_policy


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = main([str(a) for a in argv])
        return code, capsys.readouterr().out

    return _run


@pytest.fixture()
def store_root(tmp_path):
    fixture.seed_store(tmp_path / "store")
    return tmp_path / "store"


def _write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestModelCommands:
    def test_import_creates_version(self, run, tmp_path, model_doc):
        doc_path = _write_json(tmp_path / "model.json", model_doc)
        code, out = run("--store", tmp_path / "store", "model", "import", doc_path)
        assert code == 0
        assert json.loads(out) == {"version": 1}

    def test_import_rejects_corruption_with_exit_1(self, run, tmp_path, model_doc):
        mutate, expected_code = CORRUPTIONS["dangling_endpoint"]
        mutate(model_doc)
        doc_path = _write_json(tmp_path / "model.json", model_doc)
        code, out = run("--store", tmp_path / "store", "model", "import", doc_path)
        assert code == 1
        error = json.loads(out)["error"]
        assert error["code"] == "model_rejected"
        assert [v["code"] for v in error["details"]["violations"]] == [expected_code]

    def test_export_returns_canonical_document(self, run, store_root):
        code, out = run("--store", store_root, "model", "export")
        assert code == 0
        expected = documents.canonical_dumps(
            documents.model_to_doc(fixture.cyclone_vessel_model())
        )
        assert out == expected

    def test_export_unknown_version(self, run, store_root):
        code, out = run("--store", store_root, "model", "export", "--version", "42")
        assert code == 1
        assert json.loads(out)["error"]["code"] == "not_found"

    @pytest.mark.parametrize("version", ["0", "-3"])
    def test_export_of_a_version_below_1_names_that_version(self, run, store_root, version):
        code, out = run("--store", store_root, "model", "export", "--version", version)
        error = {"code": "not_found", "message": f"model version {version} does not exist"}
        assert (code, json.loads(out)) == (1, {"error": error})

    def test_validate_clean_model_exits_0(self, run, tmp_path, model_doc):
        doc_path = _write_json(tmp_path / "model.json", model_doc)
        code, out = run("model", "validate", doc_path)
        assert code == 0
        assert json.loads(out) == {"violations": []}

    def test_validate_corrupted_model_exits_1(self, run, tmp_path, model_doc):
        CORRUPTIONS["asymmetric_matrix"][0](model_doc)
        doc_path = _write_json(tmp_path / "model.json", model_doc)
        code, out = run("model", "validate", doc_path)
        assert code == 1
        assert [v["code"] for v in json.loads(out)["violations"]] == ["organization.asymmetric_matrix"]

    def test_import_missing_file_gets_error_document(self, run, tmp_path):
        missing = tmp_path / "missing.json"
        code, out = run("--store", tmp_path / "store", "model", "import", missing)
        assert code == 1
        error = json.loads(out)["error"]
        assert error["code"] == "invalid_input"
        assert str(missing) in error["message"]

    def test_import_non_utf8_file_gets_error_document(self, run, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"\xff\xfe")
        code, out = run("--store", tmp_path / "store", "model", "import", path)
        assert code == 1
        assert json.loads(out)["error"]["code"] == "bad_document"

    @pytest.mark.parametrize("depth", [1_500, 200_000])
    def test_validate_of_a_deeply_nested_file_is_a_bad_document(self, run, tmp_path, capsys, depth):
        path = tmp_path / "model.json"
        path.write_text("[" * depth + "]" * depth, encoding="utf-8")
        code, out = run("model", "validate", path)
        assert (code, json.loads(out)) == (1, {"error": {"code": "bad_document", "message": "invalid JSON: nested too deeply"}})
        assert capsys.readouterr().err == ""

    def test_a_file_holding_an_integer_longer_than_int_parses_is_a_bad_document(
        self, run, store_root, tmp_path, capsys, long_number
    ):
        path = tmp_path / "delta.json"
        path.write_text('{"description": "d", "n": %s}' % long_number, encoding="utf-8")
        error = {"code": "bad_document", "message": f"invalid JSON: an integer has more than {len(long_number) - 1} digits"}
        propose = ("change", "propose", "--author", "ActorX", "--artifact", "CycloneVessel", "--batch", "Geometry-Form")
        assert run("--store", store_root, *propose, "--delta-file", path) == (1, json.dumps({"error": error}, indent=2) + "\n")
        assert run("model", "validate", path) == (1, json.dumps({"error": error}, indent=2) + "\n")
        assert capsys.readouterr().err == ""
        assert list((store_root / "changes").iterdir()) == []

    def test_import_reads_stdin(self, run, tmp_path, model_doc, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(model_doc)))
        code, out = run("--store", tmp_path / "store", "model", "import", "-")
        assert code == 0
        assert json.loads(out) == {"version": 1}


_ACTOR_W = {
    "id": "ActorW", "name": "ActorW", "role": "late joiner",
    "situation": "internal", "team_id": "T2", "competences": {"geometry": 5},
}
_VP9 = {
    "id": "VP9", "actor_id": "ActorY",
    "domain": {"activity_id": "geometry-design", "discipline": "geometry"},
    "objective": {"focus_label": "cone detail", "target_artifact_id": "ConeShell"},
    "relationships": [], "importance": 3,
}
_QUALITY_POLICY = fixture.DEFAULT_POLICY_TEXT + "\nrule discipline=quality activity=* competence>=1\n  grant Requirements:1\n"
_DELTA = {"description": "thicker inlet", "ticket": 7}
_PROPOSE = ("change", "propose", "--author", "ActorX", "--artifact", "CycloneVessel", "--batch", "Geometry-Form")


def _proposed_in_process(root):
    change = ChangeWorkflow(fixture.seed_store(root)).propose("ActorX", "CycloneVessel", "Geometry-Form", _DELTA)
    return documents.canonical_dumps(documents.change_to_doc(change))


# Each write command: its arguments before the input file, the input, and
# the expected output given a scratch directory.
_WRITES = {
    "actor add": (("actor", "add"), json.dumps(_ACTOR_W), lambda tmp: documents.canonical_dumps(_ACTOR_W)),
    "actor add list": (("actor", "add"), json.dumps([_ACTOR_W]), lambda tmp: documents.canonical_dumps({"actors": [_ACTOR_W]})),
    "actor add batch document": (
        ("actor", "add"),
        json.dumps({"actors": [_ACTOR_W]}),
        lambda tmp: documents.canonical_dumps({"actors": [_ACTOR_W]}),
    ),
    "vp add list": (("vp", "add"), json.dumps([_VP9]), lambda tmp: documents.canonical_dumps({"viewpoints": [_VP9]})),
    "vp add batch document": (
        ("vp", "add"),
        json.dumps({"viewpoints": [_VP9]}),
        lambda tmp: documents.canonical_dumps({"viewpoints": [_VP9]}),
    ),
    "policy set": (("policy", "set"), _QUALITY_POLICY, lambda tmp: serialize_policy(parse_policy(_QUALITY_POLICY))),
    "change propose --delta-file": ((*_PROPOSE, "--delta-file"), json.dumps(_DELTA), _proposed_in_process),
}


class TestRegistryCommands:
    @pytest.mark.parametrize("name", sorted(_WRITES))
    def test_write_command_prints_what_it_stored(self, run, store_root, tmp_path, name):
        argv, text, expected = _WRITES[name]
        source = tmp_path / "input"
        source.write_text(text, encoding="utf-8")
        code, out = run("--store", store_root, *argv, source)
        assert (code, out) == (0, expected(tmp_path / "reference"))

    def test_policy_show_without_a_policy_exits_1(self, run, tmp_path, model_doc):
        run("--store", tmp_path / "store", "model", "import", _write_json(tmp_path / "model.json", model_doc))
        code, out = run("--store", tmp_path / "store", "policy", "show")
        assert code == 1
        assert json.loads(out) == {"error": {"code": "not_found", "message": "no policy has been set"}}

    def test_actor_list(self, run, store_root):
        code, out = run("--store", store_root, "actor", "list")
        assert code == 0
        assert [a["id"] for a in json.loads(out)["actors"]] == ["ActorX", "ActorY", "ActorZ"]

    def test_vp_list_by_actor(self, run, store_root):
        code, out = run("--store", store_root, "vp", "list", "--actor", "ActorX")
        assert code == 0
        assert [vp["id"] for vp in json.loads(out)["viewpoints"]] == ["VP1", "VP2"]

    def test_vp_add_of_an_empty_batch_writes_nothing(self, run, store_root, monkeypatch):
        registry = store_root / "viewpoints" / "REGISTRY"
        before = registry.read_bytes()
        monkeypatch.setattr("sys.stdin", io.StringIO("[]"))
        code, out = run("--store", store_root, "vp", "add", "-")
        assert (code, out) == (0, documents.canonical_dumps({"viewpoints": []}))
        assert registry.read_bytes() == before

    @pytest.mark.parametrize("batch", ["5", "null", '{"id": "VP9"}', '"VP9"'])
    def test_vp_add_of_a_batch_that_is_not_a_list_is_a_bad_document(self, run, store_root, monkeypatch, batch):
        registry = store_root / "viewpoints" / "REGISTRY"
        before = registry.read_bytes()
        monkeypatch.setattr("sys.stdin", io.StringIO(f'{{"viewpoints": {batch}}}'))
        code, out = run("--store", store_root, "vp", "add", "-")
        assert code == 1
        assert out == documents.canonical_dumps(
            {"error": {"code": "bad_document", "message": "viewpoints: expected a list"}}
        )
        assert registry.read_bytes() == before

    def test_actor_add_of_an_empty_batch_writes_nothing(self, run, store_root, monkeypatch):
        registry = store_root / "actors" / "REGISTRY"
        before = registry.read_bytes()
        monkeypatch.setattr("sys.stdin", io.StringIO("[]"))
        code, out = run("--store", store_root, "actor", "add", "-")
        assert (code, out) == (0, documents.canonical_dumps({"actors": []}))
        assert registry.read_bytes() == before

    @pytest.mark.parametrize("batch", ["5", "null", '{"id": "ActorW"}', '"ActorW"'])
    def test_actor_add_of_a_batch_that_is_not_a_list_is_a_bad_document(self, run, store_root, monkeypatch, batch):
        registry = store_root / "actors" / "REGISTRY"
        before = registry.read_bytes()
        monkeypatch.setattr("sys.stdin", io.StringIO(f'{{"actors": {batch}}}'))
        code, out = run("--store", store_root, "actor", "add", "-")
        assert code == 1
        assert out == documents.canonical_dumps({"error": {"code": "bad_document", "message": "actors: expected a list"}})
        assert registry.read_bytes() == before

    def test_actor_add_of_a_batch_writes_it_whole_or_not_at_all(self, run, store_root, tmp_path):
        registry = store_root / "actors" / "REGISTRY"
        before = registry.read_bytes()
        batch = [{**_ACTOR_W, "id": "ActorU", "name": "ActorU"}, {**_ACTOR_W, "team_id": "T9"}]
        code, out = run("--store", store_root, "actor", "add", _write_json(tmp_path / "actors.json", batch))
        assert code == 1
        assert json.loads(out) == {"error": {"code": "invalid_input", "message": "actor ActorW: team T9 does not resolve"}}
        assert registry.read_bytes() == before

    def test_vp_add_rejects_dangling_reference(self, run, store_root, tmp_path):
        doc = {
            "id": "VP9", "actor_id": "ActorY",
            "domain": {"activity_id": "geometry-design", "discipline": "geometry"},
            "objective": {"focus_label": "f", "target_artifact_id": "Ghost"},
            "relationships": [], "importance": 3,
        }
        code, out = run("--store", store_root, "vp", "add", _write_json(tmp_path / "vp.json", doc))
        assert code == 1
        assert json.loads(out)["error"]["code"] == "invalid_input"

    def test_policy_check_prints_canonical_text(self, run, tmp_path):
        policy_path = tmp_path / "p.policy"
        policy_path.write_text(fixture.DEFAULT_POLICY_TEXT, encoding="utf-8")
        code, out = run("policy", "check", policy_path)
        assert code == 0
        assert out == serialize_policy(parse_policy(fixture.DEFAULT_POLICY_TEXT))

    def test_policy_check_reports_location(self, run, tmp_path):
        policy_path = tmp_path / "p.policy"
        policy_path.write_text("rule discipline=\n", encoding="utf-8")
        code, out = run("policy", "check", policy_path)
        assert code == 1
        error = json.loads(out)["error"]
        assert error["code"] == "policy_parse_error"
        assert error["details"]["line"] == 1


class TestFilterCommand:
    def test_worked_example_merge(self, run, store_root):
        code, out = run("--store", store_root, "filter", "--actor", "ActorX", "--artifact", "CycloneVessel")
        assert code == 0
        doc = json.loads(out)
        assert {e["batch"]: e["level"] for e in doc["entries"]} == MERGED_TABLE
        assert len(doc["entries"]) == 11
        assert "audit" not in doc

    def test_audit_flag_includes_classification_order(self, run, store_root):
        code, out = run(
            "--store", store_root, "filter", "--actor", "ActorX", "--artifact", "CycloneVessel", "--audit"
        )
        assert code == 0
        assert [a["viewpoint_id"] for a in json.loads(out)["audit"]] == ["VP2", "VP1"]

    def test_unknown_actor_exits_1(self, run, store_root):
        code, out = run("--store", store_root, "filter", "--actor", "NoSuchActor", "--artifact", "CycloneVessel")
        assert code == 1
        assert json.loads(out)["error"]["code"] == "not_found"

    def test_default_store_that_does_not_exist_is_not_created(self, run, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("VIEWFILTER_STORE", raising=False)
        code, out = run("filter", "--actor", "ActorX", "--artifact", "CycloneVessel")
        assert code == 1
        assert json.loads(out) == {"error": {"code": "not_found", "message": "no model has been imported"}}
        assert list(tmp_path.iterdir()) == []

    def test_missing_argument_is_usage_error(self, store_root):
        with pytest.raises(SystemExit) as exc:
            main(["--store", str(store_root), "filter", "--actor", "ActorX"])
        assert exc.value.code == 2


class TestStoreRoot:
    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "file-sub"])
    @pytest.mark.parametrize(
        "command",
        [("filter", "--actor", "ActorX", "--artifact", "CycloneVessel"), ("policy", "set"), ("change", "list")],
        ids=["read", "write", "list"],
    )
    def test_a_root_through_a_regular_file_is_a_domain_error(self, run, tmp_path, capsys, below, command):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a store\n")
        policy = tmp_path / "policy.txt"
        policy.write_text(fixture.DEFAULT_POLICY_TEXT)
        root = blocker / below if below else blocker
        code, out = run("--store", root, *command, *([policy] if command[-1] == "set" else []))
        error = {"code": "invalid_input", "message": f"store root {root} is not a directory"}
        assert (code, json.loads(out)) == (1, {"error": error})
        assert capsys.readouterr().err == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "policy.txt"]
        assert blocker.read_text() == "not a store\n"


class TestChangeCommands:
    def test_full_lifecycle(self, run, store_root):
        code, out = run(
            "--store", store_root, "change", "propose",
            "--author", "ActorX", "--artifact", "CycloneVessel",
            "--batch", "Geometry-Form", "--description", "thicker inlet",
        )
        assert code == 0
        change = json.loads(out)
        assert change["status"] == "pending"
        assert change["concerned"] == ["ActorY"]

        code, out = run(
            "--store", store_root, "change", "decide", change["id"], "--actor", "ActorY", "--decision", "approve"
        )
        assert code == 0
        assert json.loads(out)["status"] == "effective"

        code, out = run("--store", store_root, "change", "show", change["id"])
        assert code == 0
        assert json.loads(out)["status"] == "effective"

        code, out = run("--store", store_root, "change", "list")
        assert code == 0
        assert [c["id"] for c in json.loads(out)["changes"]] == [change["id"]]

        code, out = run("--store", store_root, "actor", "annotations", "ActorY")
        assert code == 0
        assert [a["change_id"] for a in json.loads(out)["annotations"]] == [change["id"]]

    def test_denied_propose_exits_1(self, run, store_root):
        code, out = run(
            "--store", store_root, "change", "propose",
            "--author", "ActorZ", "--artifact", "CycloneVessel", "--batch", "Geometry-Form",
        )
        assert code == 1
        assert json.loads(out)["error"]["code"] == "permission_denied"

    def test_withdraw(self, run, store_root):
        _, out = run(
            "--store", store_root, "change", "propose",
            "--author", "ActorX", "--artifact", "CycloneVessel", "--batch", "Geometry-Form",
        )
        change_id = json.loads(out)["id"]
        code, out = run("--store", store_root, "change", "withdraw", change_id, "--actor", "ActorX")
        assert code == 0
        assert json.loads(out)["status"] == "withdrawn"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("model", "export"),
            ("actor", "list"),
            ("vp", "list"),
            ("policy", "show"),
            ("filter", "--actor", "ActorX", "--artifact", "CycloneVessel"),
            ("filter", "--actor", "ActorX", "--artifact", "CycloneVessel", "--audit"),
            ("change", "list"),
        ],
    )
    def test_repeated_runs_are_byte_identical(self, run, store_root, argv):
        first = run("--store", store_root, *argv)
        second = run("--store", store_root, *argv)
        assert first == second
        assert first[0] == 0

    def test_store_root_from_environment(self, run, store_root, monkeypatch):
        monkeypatch.setenv("VIEWFILTER_STORE", str(store_root))
        code, out = run("actor", "list")
        assert code == 0
        assert len(json.loads(out)["actors"]) == 3
