"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report lines on success.
"""

import copy
import json
import random
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

from _corruptions import CORRUPTIONS
from _oracles import (
    MERGED_TABLE,
    VP1_TABLE,
    VP2_TABLE,
    brute_force_merge,
    unanimity_oracle,
)
from viewfilter import documents, fixture
from viewfilter.changes import ChangeStatus, ChangeWorkflow
from viewfilter.cli import main
from viewfilter.engine import optimize_list_connexion_level
from viewfilter.model import decompose, validate_model
from viewfilter.policy import (
    ConnexionLevelList,
    Grant,
    Policy,
    PolicyRule,
    parse_policy,
    restitution_list_connexion_level,
    serialize_policy,
)
from viewfilter.service import create_server
from viewfilter.viewpoints import (
    Actor,
    CompetenceLevel,
    Situation,
    Viewpoint,
    ViewpointDomain,
    ViewpointObjective,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description}")


def _fold(lists):
    merged = lists[0]
    for current in lists[1:]:
        merged = optimize_list_connexion_level(current, merged)
    return merged


def test_criterion_1_worked_example_reproduction():
    with criterion(1, "per-viewpoint batch/level columns reproduced byte-exactly in < 1 s"):
        started = time.perf_counter()
        ws = fixture.build_workspace()
        actor = ws.actors["ActorX"]
        got_vp1 = restitution_list_connexion_level(ws.viewpoints["VP1"], actor, ws.policy)
        got_vp2 = restitution_list_connexion_level(ws.viewpoints["VP2"], actor, ws.policy)
        elapsed = time.perf_counter() - started

        assert len(got_vp1) == 10 and len(got_vp2) == 11
        expected_vp1 = [
            {"batch": batch, "level": level, "provenance": ["VP1"]}
            for batch, level in sorted(VP1_TABLE.items())
        ]
        expected_vp2 = [
            {"batch": batch, "level": level, "provenance": ["VP2"]}
            for batch, level in sorted(VP2_TABLE.items())
        ]
        assert documents.canonical_dumps(documents.connexion_list_to_doc(got_vp1)) == documents.canonical_dumps(expected_vp1)
        assert documents.canonical_dumps(documents.connexion_list_to_doc(got_vp2)) == documents.canonical_dumps(expected_vp2)
        assert elapsed < 1.0, f"step-4 reproduction took {elapsed:.3f}s"


def test_criterion_2_end_to_end_merge(tmp_path, capsys):
    with criterion(2, "CLI filter yields the exact 11-entry per-batch-minimum merge"):
        fixture.seed_store(tmp_path / "store")
        code = main(["--store", str(tmp_path / "store"), "filter", "--actor", "ActorX", "--artifact", "CycloneVessel"])
        out = capsys.readouterr().out
        assert code == 0
        got = {e["batch"]: e["level"] for e in json.loads(out)["entries"]}
        oracle = brute_force_merge([VP1_TABLE, VP2_TABLE])
        assert got == oracle == MERGED_TABLE
        assert len(got) == 11


def test_criterion_3_fixture_cardinalities():
    with criterion(3, "18 components, 38 classified interactions, 3 teams with symmetric matrix"):
        model = fixture.cyclone_vessel_model()
        assert validate_model(model) == []

        visited = []
        frontier = [model.root_artifact_id]
        while frontier:
            for child in decompose(model, frontier.pop()):
                visited.append(child.id)
                frontier.append(child.id)
        assert len(visited) == 18

        assert len(model.interactions) == 38
        assert all(
            i.classification.value in {"space", "energy", "material", "information"}
            for i in model.interactions
        )

        org = model.organization
        assert len(org.teams) == 3
        matrix = org.collaboration_matrix
        assert all(matrix[i][i] == 0 for i in range(3))
        assert all(matrix[i][j] == matrix[j][i] for i in range(3) for j in range(3))


def test_criterion_4_merge_algebra_properties():
    with criterion(4, ">= 1000 randomized merge-algebra cases, zero failures, < 30 s"):
        rng = random.Random(20260808)
        batches = [
            "Artifact", "Assembly", "Behavior", "Constraints", "Flows", "Function",
            "Geometry-Form", "Group", "Mechanic", "Requirements", "Sub-Artifact", "Specs",
        ]

        def random_list(vp_id):
            chosen = rng.sample(batches, rng.randint(0, 12))
            return ConnexionLevelList.from_levels(
                {batch: rng.randint(1, 5) for batch in chosen}, frozenset({vp_id})
            )

        started = time.perf_counter()
        cases = 1000
        for _ in range(cases):
            count = rng.randint(1, 8)
            lists = [random_list(f"VP{i + 1}") for i in range(count)]
            a, b, c = (lists[rng.randrange(count)] for _ in range(3))

            assert optimize_list_connexion_level(a, a) == a
            assert optimize_list_connexion_level(a, ConnexionLevelList()) == a
            assert optimize_list_connexion_level(a, b) == optimize_list_connexion_level(b, a)
            assert optimize_list_connexion_level(optimize_list_connexion_level(a, b), c) == \
                optimize_list_connexion_level(a, optimize_list_connexion_level(b, c))

            shuffled = lists[:]
            rng.shuffle(shuffled)
            folded = _fold(shuffled)
            assert folded.levels() == brute_force_merge([lst.levels() for lst in lists])

            extra = random_list("VP9")
            grown = optimize_list_connexion_level(extra, folded)
            assert set(folded.levels()) <= set(grown.levels())
            assert all(grown.levels()[batch] <= level for batch, level in folded.levels().items())
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"merge property suite took {elapsed:.1f}s"


def test_criterion_5_policy_evaluation_properties():
    with criterion(5, ">= 500 randomized policies: order independence and competence monotonicity"):
        rng = random.Random(11)
        disciplines = ["geometry", "mechanic", "quality"]
        activities = ["geometry-design", "mechanical-design", "quality-review"]
        batches = ["Artifact", "Flows", "Geometry-Form", "Mechanic", "Requirements", "Specs"]

        def random_policy():
            rules = []
            for _ in range(rng.randint(0, 6)):
                chosen = rng.sample(batches, rng.randint(1, len(batches)))
                rules.append(
                    PolicyRule(
                        rng.choice(disciplines + ["*"]),
                        rng.choice(activities + ["*"]),
                        CompetenceLevel(rng.randint(1, 5)),
                        tuple(Grant(batch, rng.randint(1, 5)) for batch in chosen),
                    )
                )
            return Policy(tuple(rules))

        def viewpoint(discipline, activity):
            return Viewpoint(
                id="VPT",
                actor_id="A",
                domain=ViewpointDomain(activity_id=activity, discipline=discipline),
                objective=ViewpointObjective(focus_label="f", target_artifact_id="CycloneVessel"),
            )

        def actor(discipline, level):
            return Actor("A", "A", "r", Situation.INTERNAL, "T1", {discipline: CompetenceLevel(level)})

        for _ in range(500):
            policy = random_policy()
            discipline = rng.choice(disciplines)
            vp = viewpoint(discipline, rng.choice(activities))

            shuffled_rules = list(policy.rules)
            rng.shuffle(shuffled_rules)
            level = rng.randint(1, 5)
            assert restitution_list_connexion_level(vp, actor(discipline, level), policy) == \
                restitution_list_connexion_level(vp, actor(discipline, level), Policy(tuple(shuffled_rules)))

            low_level = rng.randint(1, 4)
            low = restitution_list_connexion_level(vp, actor(discipline, low_level), policy).levels()
            high = restitution_list_connexion_level(vp, actor(discipline, low_level + 1), policy).levels()
            assert set(low) <= set(high)
            assert all(high[batch] <= level for batch, level in low.items())


def _extra_reviewers():
    actors, viewpoints = [], []
    for i, actor_id in enumerate(("ActorP", "ActorQ", "ActorR")):
        actors.append(
            {
                "id": actor_id, "name": actor_id, "role": "reviewer",
                "situation": "internal", "team_id": "T2",
                "competences": {"geometry": 3 + i % 3},
            }
        )
        viewpoints.append(
            {
                "id": f"VP{5 + i}", "actor_id": actor_id,
                "domain": {"activity_id": "geometry-design", "discipline": "geometry"},
                "objective": {"focus_label": "review focus", "target_artifact_id": "CycloneVessel"},
                "relationships": [], "importance": 3,
            }
        )
    return actors, viewpoints


def test_criterion_6_workflow_state_machine(tmp_path):
    with criterion(6, ">= 500 randomized decision sequences match the unanimity oracle"):
        store = fixture.seed_store(tmp_path / "store")
        actor_docs, viewpoint_docs = _extra_reviewers()
        for doc in actor_docs:
            store.add_actor(doc)
        store.add_viewpoints(viewpoint_docs)

        workflow = ChangeWorkflow(store)
        rng = random.Random(99)
        batches = sorted(MERGED_TABLE)

        def current_bytes():
            return documents.canonical_dumps(store.export_model())

        for _ in range(500):
            batch = rng.choice(batches)
            versions_before = store.current_version()
            bytes_before = current_bytes()
            change = workflow.propose("ActorX", "CycloneVessel", batch, {"description": "change"})

            annotation_files = sorted((store.root / "annotations").glob(f"{change.id}.*.json"))
            emitted = [documents.annotation_from_doc(documents.canonical_loads(p.read_text())) for p in annotation_files]
            assert len(emitted) == len(change.concerned)
            assert sorted(a.actor_id for a in emitted) == sorted(change.concerned)

            if not change.concerned:
                assert change.status is ChangeStatus.EFFECTIVE
                assert store.current_version() == versions_before + 1
                continue

            order = sorted(change.concerned)
            rng.shuffle(order)
            assigned = [(actor_id, rng.choice(["approve", "reject"])) for actor_id in order]
            prefix = rng.randint(0, len(assigned))
            withdraw_at = rng.randint(0, prefix) if rng.random() < 0.15 else None

            applied = []
            withdrawn = False
            current = change
            for index, (actor_id, decision) in enumerate(assigned[:prefix]):
                if current.status is not ChangeStatus.PENDING:
                    break
                if withdraw_at == index:
                    current = workflow.withdraw(change.id, "ActorX")
                    withdrawn = True
                    break
                current = workflow.decide(change.id, actor_id, decision)
                applied.append((actor_id, decision))
            if not withdrawn and withdraw_at == prefix and current.status is ChangeStatus.PENDING:
                current = workflow.withdraw(change.id, "ActorX")
                withdrawn = True

            expected = "withdrawn" if withdrawn else unanimity_oracle(set(change.concerned), applied)
            assert current.status.value == expected
            assert store.get_change(change.id).status.value == expected

            if expected == "effective":
                assert store.current_version() == versions_before + 1
            else:
                assert store.current_version() == versions_before
                assert current_bytes() == bytes_before


def test_criterion_7_determinism_and_round_trips(tmp_path, capsys):
    with criterion(7, "CLI reruns byte-identical; import/export and policy round-trips are fixed points"):
        store = fixture.seed_store(tmp_path / "store")
        workflow = ChangeWorkflow(store)
        change = workflow.propose("ActorX", "CycloneVessel", "Geometry-Form", {"description": "d"})

        def run(*argv):
            code = main(["--store", str(store.root), *argv])
            out = capsys.readouterr().out
            assert code == 0
            return out

        for argv in (
            ("model", "export"),
            ("actor", "list"),
            ("vp", "list"),
            ("policy", "show"),
            ("filter", "--actor", "ActorX", "--artifact", "CycloneVessel"),
            ("filter", "--actor", "ActorX", "--artifact", "CycloneVessel", "--audit"),
            ("change", "show", change.id),
            ("change", "list"),
            ("actor", "annotations", "ActorY"),
        ):
            assert run(*argv) == run(*argv)

        exported = store.export_model()
        assert store.import_model(exported) == 2
        assert store.export_model(2) == exported

        canonical_policy = serialize_policy(parse_policy(fixture.DEFAULT_POLICY_TEXT))
        assert serialize_policy(parse_policy(canonical_policy)) == canonical_policy

        for subdir in ("model", "changes", "annotations"):
            for path in sorted((store.root / subdir).glob("*.json")):
                doc = documents.canonical_loads(path.read_text(encoding="utf-8"))
                assert documents.canonical_dumps(doc).encode("utf-8") == path.read_bytes()
        # Each registry is one file: a token line, then its documents joined by commas.
        for kind, decode, encode in (
            ("actors", documents.actor_from_doc, documents.actor_to_doc),
            ("viewpoints", documents.viewpoint_from_doc, documents.viewpoint_to_doc),
        ):
            body = (store.root / kind / "REGISTRY").read_text(encoding="utf-8").partition("\n")[2]
            texts = [documents.canonical_dumps(encode(decode(doc))) for doc in documents.canonical_loads(body)]
            assert texts and body == "[" + ",".join(texts) + "]"


def test_criterion_8_validation_completeness(tmp_path, capsys):
    with criterion(8, "every single-fault corruption yields its code, CLI exit 1, HTTP 422"):
        assert len(CORRUPTIONS) >= 8
        master = documents.model_to_doc(fixture.cyclone_vessel_model())

        store = fixture.seed_store(tmp_path / "store")
        server = create_server(store)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://{server.server_address[0]}:{server.server_address[1]}"
        try:
            for name, (mutate, expected_code) in sorted(CORRUPTIONS.items()):
                doc = copy.deepcopy(master)
                mutate(doc)

                violations = validate_model(documents.model_from_doc(doc))
                assert [v.code for v in violations] == [expected_code], name

                doc_path = tmp_path / f"{name}.json"
                doc_path.write_text(json.dumps(doc), encoding="utf-8")
                code = main(["--store", str(tmp_path / "cli-store"), "model", "import", str(doc_path)])
                out = capsys.readouterr().out
                assert code == 1, name
                error = json.loads(out)["error"]
                assert error["code"] == "model_rejected"
                assert [v["code"] for v in error["details"]["violations"]] == [expected_code], name

                request = urllib.request.Request(
                    f"{base}/model", method="POST", data=json.dumps(doc).encode("utf-8")
                )
                request.add_header("Content-Type", "application/json")
                try:
                    with urllib.request.urlopen(request):
                        raise AssertionError(f"{name}: corrupted import was accepted")
                except urllib.error.HTTPError as err:
                    assert err.code == 422, name
                    body = json.loads(err.read())["error"]
                    assert [v["code"] for v in body["details"]["violations"]] == [expected_code], name
            assert store.current_version() == 1
        finally:
            server.shutdown()
            server.server_close()
