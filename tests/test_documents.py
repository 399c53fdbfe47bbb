import copy
import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewfilter import documents, fixture
from viewfilter.changes import ChangeWorkflow
from viewfilter.errors import DocumentError


class TestCanonicalText:
    def test_sorted_keys_and_trailing_newline(self):
        text = documents.canonical_dumps({"b": 1, "a": [2, 1]})
        assert text == '{\n  "a": [\n    2,\n    1\n  ],\n  "b": 1\n}\n'

    def test_nan_rejected(self):
        with pytest.raises(DocumentError):
            documents.canonical_dumps({"x": float("nan")})

    def test_non_json_value_rejected(self):
        with pytest.raises(DocumentError):
            documents.canonical_dumps({"x": {1, 2}})

    def test_invalid_json_text_rejected(self):
        with pytest.raises(DocumentError):
            documents.canonical_loads("{not json")

    def test_an_integer_longer_than_int_parses_is_invalid_json(self, long_number):
        message = f"invalid JSON: an integer has more than {len(long_number) - 1} digits"
        with pytest.raises(DocumentError, match=message):
            documents.canonical_loads('{"n": %s}' % long_number)


def _stdlib_text(value):
    return json.dumps(value, ensure_ascii=False, allow_nan=False, sort_keys=True, indent=2) + "\n"


# Strings weighted toward what an encoder must escape: quotes, backslashes,
# control characters, and non-ASCII that stays unescaped.
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\u00e9\U0001f600'), st.characters()), max_size=8)
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | st.floats(allow_nan=False, allow_infinity=False)
    | _TEXT,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=30,
)


class _Kind(str, enum.Enum):
    PLAIN = "plain"
    QUOTED = 'qu"oted'


class TestCanonicalEncoder:
    """``canonical_dumps`` writes exactly what the stdlib's ``json.dumps`` call would."""

    @given(value=_JSON)
    @settings(max_examples=300)
    def test_any_json_value_matches_the_stdlib(self, value):
        assert documents.canonical_dumps(value) == _stdlib_text(value)

    @pytest.mark.parametrize(
        "value",
        [
            {_Kind.QUOTED: [_Kind.PLAIN], "a": _Kind.QUOTED},
            ("x", (1, 2.5), ()),
            {1: "int key", 2: []},
            {False: "f", 2.5: "x", 3: []},
            {"id": "x", "empty": {}, "nothing": [], "deep": {"delta": [True, False, None, -0.0, 1e300]}},
        ],
        ids=["str-enum", "tuple", "int-key", "bool-and-float-keys", "mixed"],
    )
    def test_values_beyond_plain_json_match_the_stdlib(self, value):
        assert documents.canonical_dumps(value) == _stdlib_text(value)

    def test_a_delta_nested_200_deep(self):
        delta = "leaf"
        for depth in range(200):
            delta = {"child": delta} if depth % 2 else [delta, depth]
        assert documents.canonical_dumps({"delta": delta}) == _stdlib_text({"delta": delta})

    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), -float("inf"), {1, 2}, {"a": 1, 2: "b"}],
        ids=["nan", "inf", "-inf", "set", "mixed-keys"],
    )
    def test_non_json_values_are_refused(self, value):
        with pytest.raises(DocumentError, match="not canonical-JSON serializable"):
            documents.canonical_dumps({"delta": [value]})

    def test_a_circular_value_is_refused(self):
        loop = []
        loop.append(loop)
        with pytest.raises(DocumentError, match="Circular reference detected"):
            documents.canonical_dumps(loop)


class TestStrictParsing:
    def test_unknown_key_rejected(self, model_doc):
        model_doc["extra"] = True
        with pytest.raises(DocumentError, match="unknown keys"):
            documents.model_from_doc(model_doc)

    def test_missing_key_rejected(self, model_doc):
        del model_doc["interactions"]
        with pytest.raises(DocumentError, match="missing keys"):
            documents.model_from_doc(model_doc)

    def test_error_names_the_json_path(self, model_doc):
        model_doc["artifacts"][3]["kind"] = "gadget"
        with pytest.raises(DocumentError, match=r"model\.artifacts\[3\]\.kind"):
            documents.model_from_doc(model_doc)

    def test_bool_is_not_an_integer(self, model_doc):
        model_doc["organization"]["collaboration_matrix"][0][1] = True
        with pytest.raises(DocumentError):
            documents.model_from_doc(model_doc)

    def test_actor_doc_round_trip(self):
        for actor in fixture.example_actors():
            doc = documents.actor_to_doc(actor)
            assert documents.actor_to_doc(documents.actor_from_doc(doc)) == doc

    def test_viewpoint_doc_round_trip(self):
        for vp in fixture.example_viewpoints():
            doc = documents.viewpoint_to_doc(vp)
            assert documents.viewpoint_to_doc(documents.viewpoint_from_doc(doc)) == doc

    def test_viewpoint_relationships_encode_sorted(self):
        doc = documents.viewpoint_to_doc(fixture.example_viewpoints()[0])
        doc["relationships"] = [
            {"other_viewpoint_id": "VP3", "kind": "refines"},
            {"other_viewpoint_id": "VP2", "kind": "refines"},
            {"other_viewpoint_id": "VP2", "kind": "complements"},
        ]
        encoded = documents.viewpoint_to_doc(documents.viewpoint_from_doc(doc))
        assert encoded["relationships"] == [doc["relationships"][i] for i in (2, 1, 0)]
        assert documents.viewpoint_to_doc(documents.viewpoint_from_doc(encoded)) == encoded


@pytest.fixture(scope="module")
def proposed(tmp_path_factory):
    """A change document and its annotation, as written by a real proposal."""
    store = fixture.seed_store(tmp_path_factory.mktemp("proposed") / "store")
    change = ChangeWorkflow(store).propose("ActorX", "CycloneVessel", "Geometry-Form", {"description": "inlet wall +2 mm"})
    (annotation,) = store.list_annotations("ActorY")
    return documents.change_to_doc(change), documents.annotation_to_doc(annotation)


class TestWorkflowRoundTrip:
    def test_change_document_round_trips_byte_for_byte(self, proposed):
        text = documents.canonical_dumps(proposed[0])
        decoded = documents.change_from_doc(documents.canonical_loads(text))
        assert documents.canonical_dumps(documents.change_to_doc(decoded)) == text

    def test_change_concerned_encodes_sorted(self, proposed):
        doc = copy.deepcopy(proposed[0])
        doc["concerned"] = ["ActorZ", "ActorY", "ActorW"]
        encoded = documents.change_to_doc(documents.change_from_doc(doc))
        assert encoded == {**doc, "concerned": ["ActorW", "ActorY", "ActorZ"]}
        assert documents.change_to_doc(documents.change_from_doc(encoded)) == encoded

    def test_annotation_document_round_trips_byte_for_byte(self, proposed):
        text = documents.canonical_dumps(proposed[1])
        decoded = documents.annotation_from_doc(documents.canonical_loads(text))
        assert documents.canonical_dumps(documents.annotation_to_doc(decoded)) == text


_DELETE = object()

# (document kind, JSON path to change, new value or _DELETE, exact message);
# a path ending in a key absent from the document adds that key.
_ERROR_TABLE = [
    # missing and unknown keys, at the root and nested
    ("model", ("interactions",), _DELETE, "model: missing keys ['interactions']"),
    ("model", ("organization", "teams"), _DELETE, "model.organization: missing keys ['teams']"),
    ("model", ("processes", 0, "activities", 0, "tasks", 1, "name"), _DELETE,
     "model.processes[0].activities[0].tasks[1]: missing keys ['name']"),
    ("actor", ("extra",), 1, "actor: unknown keys ['extra']"),
    ("viewpoint", ("objective", "extra"), 1, "viewpoint.objective: unknown keys ['extra']"),
    ("annotation", ("created",), _DELETE, "annotation: missing keys ['created']"),
    # not an object: a record names the type found, a mapping does not
    ("model", (), [], "model: expected an object, got list"),
    ("model", ("artifacts", 2), "x", "model.artifacts[2]: expected an object, got str"),
    ("model", ("organization",), None, "model.organization: expected an object, got NoneType"),
    ("viewpoint", ("domain",), 1, "viewpoint.domain: expected an object, got int"),
    ("actor", ("competences",), [], "actor.competences: expected an object"),
    ("change", ("decisions",), None, "change.decisions: expected an object"),
    # an empty identifier, at each depth and inside lists
    ("model", ("project_id",), "", "model.project_id: expected a non-empty string"),
    ("model", ("processes", 0, "activities", 0, "discipline"), "",
     "model.processes[0].activities[0].discipline: expected a non-empty string"),
    ("model", ("organization", "teams", 0, "member_actor_ids", 0), "",
     "model.organization.teams[0].member_actor_ids[0]: expected a non-empty string"),
    ("viewpoint", ("domain", "activity_id"), "", "viewpoint.domain.activity_id: expected a non-empty string"),
    ("viewpoint", ("relationships", 0, "other_viewpoint_id"), "",
     "viewpoint.relationships[0].other_viewpoint_id: expected a non-empty string"),
    ("change", ("concerned", 0), "", "change.concerned[0]: expected a non-empty string"),
    ("annotation", ("batch",), "", "annotation.batch: expected a non-empty string"),
    # a wrong type for a free-text field
    ("model", ("artifacts", 0, "name"), 5, "model.artifacts[0].name: expected a string"),
    ("actor", ("role",), None, "actor.role: expected a string"),
    ("viewpoint", ("objective", "focus_label"), [], "viewpoint.objective.focus_label: expected a string"),
    # a bool where an integer is expected
    ("viewpoint", ("importance",), True, "viewpoint.importance: expected an integer"),
    ("change", ("created",), True, "change.created: expected an integer"),
    ("annotation", ("created",), "2", "annotation.created: expected an integer"),
    # a bad enum value
    ("model", ("artifacts", 3, "kind"), "gadget",
     "model.artifacts[3].kind: expected one of [final_product, sub_artifact, component], got 'gadget'"),
    ("model", ("interactions", 0, "classification"), None,
     "model.interactions[0].classification: expected one of [space, energy, material, information], got None"),
    ("actor", ("situation",), "partner", "actor.situation: expected one of [internal, external_partner], got 'partner'"),
    ("viewpoint", ("relationships", 0, "kind"), [],
     "viewpoint.relationships[0].kind: expected one of [complements, refines, conflicts], got []"),
    ("change", ("status",), "open", "change.status: expected one of [pending, effective, rejected, withdrawn], got 'open'"),
    # string or null, integer or null
    ("model", ("artifacts", 0, "parent_id"), 3, "model.artifacts[0].parent_id: expected a string or null"),
    ("change", ("resolved",), "1", "change.resolved: expected an integer or null"),
    ("change", ("resolved",), False, "change.resolved: expected an integer or null"),
    # not a list, for a tuple field, a matrix row and a frozenset field
    ("model", ("artifacts",), {}, "model.artifacts: expected a list"),
    ("model", ("processes", 0, "activities"), None, "model.processes[0].activities: expected a list"),
    ("model", ("organization", "collaboration_matrix", 1), 4,
     "model.organization.collaboration_matrix[1]: expected a list"),
    ("viewpoint", ("relationships",), "VP2", "viewpoint.relationships: expected a list"),
    ("change", ("concerned",), "ActorY", "change.concerned: expected a list"),
    # a matrix cell and a mapping value
    ("model", ("organization", "collaboration_matrix", 0, 1), True,
     "model.organization.collaboration_matrix[0][1]: expected an integer"),
    ("model", ("organization", "collaboration_matrix", 2, 0), "3",
     "model.organization.collaboration_matrix[2][0]: expected an integer"),
    ("actor", ("competences", "geometry"), True, "actor.competences.geometry: expected an integer"),
    ("change", ("decisions", "ActorY"), "maybe", "change.decisions.ActorY: expected one of [approve, reject], got 'maybe'"),
]


def _edit(doc, path, value):
    """``doc`` with the value at ``path`` replaced (or, for _DELETE, removed)."""
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.fixture()
def sample_docs(model_doc, proposed):
    return {
        "model": (documents.model_from_doc, model_doc),
        "actor": (documents.actor_from_doc, documents.actor_to_doc(fixture.example_actors()[0])),
        "viewpoint": (documents.viewpoint_from_doc, documents.viewpoint_to_doc(fixture.example_viewpoints()[0])),
        "change": (documents.change_from_doc, copy.deepcopy(proposed[0])),
        "annotation": (documents.annotation_from_doc, copy.deepcopy(proposed[1])),
    }


class TestErrorMessages:
    @pytest.mark.parametrize(
        ("kind", "path", "value", "message"),
        _ERROR_TABLE,
        ids=[message for _, _, _, message in _ERROR_TABLE],
    )
    def test_exact_message(self, sample_docs, kind, path, value, message):
        decode, doc = sample_docs[kind]
        with pytest.raises(DocumentError) as info:
            decode(_edit(doc, path, value))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        ("kind", "path"),
        [
            ("model", ("artifacts", 0, "name")),
            ("model", ("artifacts", 0, "parent_id")),
            ("model", ("processes", 0, "activities", 0, "tasks", 0, "name")),
            ("model", ("task_flows", 0, "payload_description")),
            ("actor", ("role",)),
            ("viewpoint", ("objective", "focus_label")),
        ],
    )
    def test_free_text_and_optional_fields_may_be_empty(self, sample_docs, kind, path):
        decode, doc = sample_docs[kind]
        decode(_edit(doc, path, ""))


class TestDeltaValidation:
    def test_unserializable_delta_rejected_before_any_effect(self, seeded_store):
        workflow = ChangeWorkflow(seeded_store)
        with pytest.raises(DocumentError):
            workflow.propose("ActorX", "CycloneVessel", "Mechanic", {"bad": {1, 2}})
        assert seeded_store.list_changes() == []
        assert seeded_store.model_versions() == [1]
