"""``viewfilter.records`` against the stdlib's ``dataclasses`` as reference.

Each record class of the package gets a twin built by
``dataclasses.dataclass(frozen=True)`` from the same annotations, defaults
and ``__post_init__``; both are driven with the same arguments, and every
observation (the repr, the hash, equality, ordering, the exception raised
and its message) must agree.
"""

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from viewfilter import records
from viewfilter.changes import Annotation
from viewfilter.engine import AuditEntry
from viewfilter.model import Artifact, ArtifactKind, TaskFlow
from viewfilter.policy import ConnexionEntry, ConnexionLevelList, Grant, Policy, PolicyRule
from viewfilter.records import FrozenRecordError, record
from viewfilter.viewpoints import (
    Actor,
    CompetenceLevel,
    Situation,
    Viewpoint,
    ViewpointDomain,
    ViewpointObjective,
)


@record
class Empty:
    pass


@record(order=True)
class Pair:
    left: int
    right: str = "r"


@record
class Mirror:
    left: int
    right: str = "r"


def reference(cls, order=False):
    """The ``dataclasses`` twin of a record class."""
    own = vars(cls)
    body = {name: own[name] for name in ("__module__", "__qualname__", "__post_init__") if name in own}
    body["__annotations__"] = own.get("__annotations__", {})
    body.update((name, own[name]) for name in records.fields(cls) if name in own)
    return dataclasses.dataclass(frozen=True, order=order)(type(cls.__name__, (), body))


ORDERED = {CompetenceLevel, Pair}
CLASSES = [
    Empty, Pair, Artifact, TaskFlow, CompetenceLevel, Actor, Viewpoint, Grant, PolicyRule, Policy,
    ConnexionEntry, ConnexionLevelList, AuditEntry, Annotation,
]
TWINS = {cls: reference(cls, cls in ORDERED) for cls in CLASSES}


def observe(fn, *args, **kwargs):
    """What calling ``fn`` shows: its result's repr, or the exception's type and message."""
    try:
        return "ok", repr(fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 -- the exception is the observation
        return type(exc).__name__, str(exc)


_ID = st.text("ab-1", max_size=3)
_LEVEL = st.integers(0, 6) | st.booleans()
_GRANT = st.builds(Grant, st.sampled_from(["A", "B", "C"]), st.integers(1, 3))
_COMPETENCE = st.builds(CompetenceLevel, st.integers(1, 5))
_RULE = PolicyRule("*", "*", CompetenceLevel(1), (Grant("A", 1),))
_ENTRY = st.builds(ConnexionEntry, st.sampled_from(["A", "B", "C"]), st.integers(1, 3), st.frozensets(_ID))

# Field values per class, drawn loosely enough that __post_init__ checks fail too.
VALUES = {
    Empty: st.fixed_dictionaries({}),
    Pair: st.fixed_dictionaries({"left": st.integers(-2, 2), "right": _ID}),
    Artifact: st.fixed_dictionaries(
        {
            "id": _ID,
            "name": _ID,
            "kind": st.sampled_from(ArtifactKind),
            "parent_id": st.none() | _ID,
            "description": _ID,
        }
    ),
    TaskFlow: st.fixed_dictionaries({"from_task": _ID, "to_task": _ID, "payload_description": _ID}),
    CompetenceLevel: st.fixed_dictionaries({"value": _LEVEL}),
    Actor: st.fixed_dictionaries(
        {
            "id": _ID,
            "name": _ID,
            "role": _ID,
            "situation": st.sampled_from(Situation),
            "team_id": _ID,
            "competences": st.dictionaries(_ID, _COMPETENCE, max_size=2),
        }
    ),
    Viewpoint: st.fixed_dictionaries(
        {
            "id": _ID,
            "actor_id": _ID,
            "domain": st.builds(ViewpointDomain, _ID, _ID),
            "objective": st.builds(ViewpointObjective, _ID, _ID),
            "relationships": st.just(()),
            "importance": _LEVEL,
        }
    ),
    Grant: st.fixed_dictionaries({"batch": st.sampled_from(["A", "b.c", "", "a b"]), "level": _LEVEL}),
    PolicyRule: st.fixed_dictionaries(
        {
            "discipline": st.sampled_from(["*", "geometry"]),
            "activity_kind": st.sampled_from(["*", "design"]),
            "min_competence": _COMPETENCE,
            "grants": st.lists(_GRANT, max_size=4).map(tuple),
        }
    ),
    Policy: st.fixed_dictionaries({"rules": st.lists(st.just(_RULE), max_size=2).map(tuple)}),
    ConnexionEntry: st.fixed_dictionaries(
        {
            "batch": st.sampled_from(["A", "B", ""]),
            "level": _LEVEL,
            "provenance": st.lists(_ID, max_size=3) | st.sets(_ID, max_size=3) | st.frozensets(_ID, max_size=3),
        }
    ),
    ConnexionLevelList: st.fixed_dictionaries({"entries": st.lists(_ENTRY, max_size=3).map(tuple)}),
    AuditEntry: st.fixed_dictionaries({"viewpoint_id": _ID, "entries": st.just(ConnexionLevelList())}),
    Annotation: st.fixed_dictionaries(
        {
            "id": _ID,
            "change_id": _ID,
            "actor_id": _ID,
            "artifact_id": _ID,
            "batch": _ID,
            "created": st.integers(0, 3),
        }
    ),
}


@st.composite
def calls(draw, cls, complete=False):
    """(args, kwargs) for ``cls``: a positional prefix of the fields, the rest
    by keyword, any of them possibly left out; a required one only when not
    ``complete``."""
    values = draw(VALUES[cls])
    names = records.fields(cls)
    cut = draw(st.integers(0, len(names)))
    omissible = [name for name in names[cut:] if not complete or name in vars(cls)]
    left_out = draw(st.sets(st.sampled_from(omissible))) if omissible else set()
    args = tuple(values[name] for name in names[:cut])
    kwargs = {name: values[name] for name in names[cut:] if name not in left_out}
    return args, kwargs


@st.composite
def pairs(draw):
    """A record class and two argument lists for it."""
    cls = draw(st.sampled_from(CLASSES))
    return cls, draw(calls(cls)), draw(calls(cls))


@st.composite
def instances(draw, classes=CLASSES):
    """A record and its ``dataclasses`` twin, built from the same valid arguments."""
    cls = draw(st.sampled_from(classes))
    args, kwargs = draw(calls(cls, complete=True))
    assume(observe(cls, *args, **kwargs)[0] == "ok")
    return cls, cls(*args, **kwargs), TWINS[cls](*args, **kwargs)


def build(cls, call):
    args, kwargs = call
    return cls(*args, **kwargs)


def test_fields_are_the_annotations_in_declaration_order():
    for cls, twin in TWINS.items():
        assert records.fields(cls) == tuple(f.name for f in dataclasses.fields(twin))
        assert records.fields(cls) == tuple(vars(cls).get("__annotations__", {}))
        assert records.is_record(cls)
    assert records.fields(Pair(1)) == ("left", "right")
    assert not records.is_record(int)
    with pytest.raises(TypeError):
        records.fields(int)


@settings(max_examples=400)
@given(pairs())
def test_construction_repr_hash_and_equality_match_dataclasses(case):
    cls, first, second = case
    twin = TWINS[cls]
    assert observe(build, cls, first) == observe(build, twin, first)
    assert observe(build, cls, second) == observe(build, twin, second)
    try:
        a, b = build(cls, first), build(cls, second)
    except Exception:  # noqa: BLE001 -- the failure itself was compared above
        return
    ta, tb = build(twin, first), build(twin, second)
    assert observe(hash, a) == observe(hash, ta)
    assert (a == b, a != b, a == a) == (ta == tb, ta != tb, ta == ta)
    assert a.__eq__(object()) is NotImplemented
    assert (a == ta, ta == a) == (False, False)
    for name in records.fields(cls):
        assert getattr(a, name) == getattr(ta, name)


@settings(max_examples=200)
@given(st.builds(CompetenceLevel, st.integers(1, 5)), st.builds(CompetenceLevel, st.integers(1, 5)))
def test_ordering_matches_dataclasses(a, b):
    twin = TWINS[CompetenceLevel]
    ta, tb = twin(a.value), twin(b.value)
    assert (a < b, a <= b, a > b, a >= b) == (ta < tb, ta <= tb, ta > tb, ta >= tb)
    assert observe(lambda: a < 3) == observe(lambda: ta < 3)
    assert observe(lambda: a >= Pair(1)) == observe(lambda: ta >= Pair(1))
    assert sorted([Pair(2), Pair(1, "b"), Pair(1, "a")]) == [Pair(1, "a"), Pair(1, "b"), Pair(2)]


def test_records_without_order_do_not_compare():
    assert observe(lambda: Grant("A", 1) < Grant("B", 1)) == observe(
        lambda: TWINS[Grant]("A", 1) < TWINS[Grant]("B", 1)
    )


def test_equality_across_classes_is_false():
    assert Pair(1) != Mirror(1) and not Pair(1) == Mirror(1)
    assert TWINS[Pair](1) != reference(Mirror)(1)
    assert Empty() == Empty() and Empty() != Pair(1)
    assert hash(Empty()) == hash(TWINS[Empty]()) == hash(())


@settings(max_examples=200)
@given(instances([c for c in CLASSES if records.fields(c)]), st.data())
def test_replace_matches_dataclasses(case, data):
    cls, obj, twin = case
    changes = data.draw(VALUES[cls])
    chosen = data.draw(st.sets(st.sampled_from(records.fields(cls))))
    changes = {name: changes[name] for name in chosen}
    assert observe(records.replace, obj, **changes) == observe(dataclasses.replace, twin, **changes)
    assert records.replace(obj) == obj


def test_replace_refuses_an_unknown_field():
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        records.replace(Pair(1), bogus=2)


def test_post_init_normalises_through_object_setattr():
    rule = PolicyRule("*", "*", CompetenceLevel(1), (Grant("B", 2), Grant("A", 1)))
    assert rule.grants == (Grant("A", 1), Grant("B", 2))
    entry = ConnexionEntry("A", 1, ["vp2", "vp1", "vp2"])
    assert entry.provenance == frozenset({"vp1", "vp2"})
    assert type(entry.provenance) is frozenset
    assert hash(entry) == hash(TWINS[ConnexionEntry]("A", 1, ["vp1", "vp2"]))


@settings(max_examples=100)
@given(instances())
def test_assignment_and_deletion_raise_like_dataclasses(case):
    cls, obj, twin = case
    for name in (*records.fields(cls), "not_a_field"):
        with pytest.raises(FrozenRecordError) as assigned:
            setattr(obj, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError) as reference_assigned:
            setattr(twin, name, 1)
        assert str(assigned.value) == str(reference_assigned.value)
        with pytest.raises(FrozenRecordError) as deleted:
            delattr(obj, name)
        with pytest.raises(dataclasses.FrozenInstanceError) as reference_deleted:
            delattr(twin, name)
        assert str(deleted.value) == str(reference_deleted.value)
    assert issubclass(FrozenRecordError, AttributeError)
    assert repr(obj) == repr(twin)
