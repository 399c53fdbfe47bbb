import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import VP1_TABLE, VP2_TABLE
from viewfilter.errors import InvalidInputError, PolicyParseError, PolicySemanticError
from viewfilter.fixture import DEFAULT_POLICY_TEXT, build_workspace
from viewfilter.policy import (
    ConnexionLevelList,
    Grant,
    Policy,
    PolicyRule,
    parse_policy,
    restitution_list_connexion_level,
    serialize_policy,
)
from viewfilter.viewpoints import Actor, CompetenceLevel, Situation, Viewpoint, ViewpointDomain, ViewpointObjective

DISCIPLINES = ["geometry", "mechanic", "quality"]
ACTIVITIES = ["geometry-design", "mechanical-design", "quality-review"]
BATCHES = [
    "Artifact", "Assembly", "Behavior", "Constraints", "Flows", "Function",
    "Geometry-Form", "Group", "Mechanic", "Requirements", "Sub-Artifact", "Specs",
]


@st.composite
def policy_rules(draw):
    discipline = draw(st.sampled_from(DISCIPLINES + ["*"]))
    activity = draw(st.sampled_from(ACTIVITIES + ["*"]))
    competence = CompetenceLevel(draw(st.integers(1, 5)))
    batches = draw(st.lists(st.sampled_from(BATCHES), unique=True, min_size=1, max_size=6))
    grants = tuple(Grant(batch, draw(st.integers(1, 5))) for batch in batches)
    return PolicyRule(discipline, activity, competence, grants)


@st.composite
def policies(draw):
    return Policy(tuple(draw(st.lists(policy_rules(), max_size=6))))


def _actor(levels: dict[str, int]) -> Actor:
    return Actor(
        "A", "A", "r", Situation.INTERNAL, "T1",
        {discipline: CompetenceLevel(value) for discipline, value in levels.items()},
    )


def _vp(discipline: str, activity: str) -> Viewpoint:
    return Viewpoint(
        id="VPT",
        actor_id="A",
        domain=ViewpointDomain(activity_id=activity, discipline=discipline),
        objective=ViewpointObjective(focus_label="focus", target_artifact_id="CycloneVessel"),
    )


class TestParsing:
    def test_default_policy_has_two_rules(self):
        policy = parse_policy(DEFAULT_POLICY_TEXT)
        assert len(policy.rules) == 2
        assert [r.discipline for r in policy.rules] == ["geometry", "mechanic"]

    def test_empty_document(self):
        assert parse_policy("") == Policy()
        assert parse_policy("# only a comment\n\n") == Policy()
        assert serialize_policy(Policy()) == ""

    def test_serialize_parse_is_canonical_fixed_point(self):
        canonical = serialize_policy(parse_policy(DEFAULT_POLICY_TEXT))
        assert serialize_policy(parse_policy(canonical)) == canonical

    def test_level_zero_is_semantic_error(self):
        text = "rule discipline=geometry activity=* competence>=2\n  grant Flows:0\n"
        with pytest.raises(PolicySemanticError) as exc:
            parse_policy(text)
        assert exc.value.line == 2

    def test_duplicate_batch_is_semantic_error(self):
        text = (
            "rule discipline=geometry activity=* competence>=2\n"
            "  grant Flows:1\n"
            "  grant Flows:2\n"
        )
        with pytest.raises(PolicySemanticError) as exc:
            parse_policy(text)
        assert exc.value.line == 3

    def test_competence_out_of_bounds_is_semantic_error(self):
        text = "rule discipline=geometry activity=* competence>=9\n  grant Flows:1\n"
        with pytest.raises(PolicySemanticError) as exc:
            parse_policy(text)
        assert exc.value.line == 1

    @pytest.mark.parametrize("header,grant,line", [("competence>={n}", "Flows:1", 1), ("competence>=2", "Flows:{n}", 2)])
    def test_a_number_longer_than_int_parses_is_semantic_error(self, long_number, header, grant, line):
        text = f"rule discipline=geometry activity=* {header}\n  grant {grant}\n".replace("{n}", long_number)
        with pytest.raises(PolicySemanticError, match=f"number has more than {len(long_number) - 1} digits") as exc:
            parse_policy(text)
        assert exc.value.line == line

    def test_rule_without_grants_is_semantic_error(self):
        with pytest.raises(PolicySemanticError):
            parse_policy("rule discipline=geometry activity=* competence>=2\n")

    @pytest.mark.parametrize(
        "text,line,column",
        [
            ("regel discipline=a activity=* competence>=1\n", 1, 1),
            ("rule activity=* discipline=a competence>=1\n", 1, 5),
            ("rule discipline=a activity=* competence>=1 extra\n", 1, 43),
            ("rule discipline=a activity=* competence>=1\n  grant NoLevel\n", 2, 8),
            ("  grant Flows:1\n", 1, 1),
            ("rule discipline=a activity=* competence>=\u0663\n  grant A:1\n", 1, 29),
            ("rule discipline=a activity=* competence>=1\n  grant A:\u0661\u0660\n", 2, 8),
            ("rule discipline=a activity=* competence>=\uff12\n  grant A:1\n", 1, 29),
            ("rule discipline=a\u00a0activity=* competence>=1\n  grant A:1\n", 1, 18),
        ],
    )
    def test_syntax_errors_carry_line_and_column(self, text, line, column):
        with pytest.raises(PolicyParseError) as exc:
            parse_policy(text)
        assert (exc.value.line, exc.value.column) == (line, column)

    def test_a_grant_indented_by_an_ideographic_space_is_a_parse_error(self):
        # Not a new header, which would close the rule above with no grants.
        with pytest.raises(PolicyParseError) as exc:
            parse_policy("rule discipline=a activity=* competence>=1\n\u3000grant A:1\n")
        assert (exc.value.code, exc.value.line, exc.value.column) == ("policy_parse_error", 2, 1)

    @pytest.mark.parametrize(
        "text,line",
        [
            ("\u3000\n", 1),
            ("rule discipline=a activity=* competence>=1\n  grant A:1\n\u3000\n", 3),
        ],
        ids=["alone", "after-a-rule"],
    )
    def test_a_line_of_only_an_ideographic_space_is_not_blank(self, text, line):
        with pytest.raises(PolicyParseError) as exc:
            parse_policy(text)
        assert (exc.value.code, exc.value.line, exc.value.column) == ("policy_parse_error", line, 1)

    @given(policy=policies())
    @settings(max_examples=150)
    def test_round_trip_identity(self, policy):
        assert parse_policy(serialize_policy(policy)) == policy

    def test_grants_normalized_and_unique(self):
        with pytest.raises(InvalidInputError):
            PolicyRule("geometry", "*", CompetenceLevel(1), (Grant("Flows", 1), Grant("Flows", 2)))
        rule = PolicyRule("geometry", "*", CompetenceLevel(1), (Grant("Flows", 1), Grant("Artifact", 2)))
        assert [g.batch for g in rule.grants] == ["Artifact", "Flows"]


class TestEvaluation:
    def test_step4_reproduces_worked_example_columns(self):
        ws = build_workspace()
        actor = ws.actors["ActorX"]
        got_vp1 = restitution_list_connexion_level(ws.viewpoints["VP1"], actor, ws.policy)
        got_vp2 = restitution_list_connexion_level(ws.viewpoints["VP2"], actor, ws.policy)
        assert got_vp1.levels() == VP1_TABLE
        assert len(got_vp1) == 10
        assert got_vp2.levels() == VP2_TABLE
        assert len(got_vp2) == 11
        assert all(e.provenance == frozenset({"VP1"}) for e in got_vp1)
        assert all(e.provenance == frozenset({"VP2"}) for e in got_vp2)

    def test_viewpoint_matching_no_rule_is_empty(self):
        ws = build_workspace()
        got = restitution_list_connexion_level(ws.viewpoints["VP4"], ws.actors["ActorZ"], ws.policy)
        assert got == ConnexionLevelList()

    def test_below_min_competence_gets_nothing(self):
        policy = parse_policy("rule discipline=geometry activity=* competence>=4\n  grant Flows:1\n")
        result = restitution_list_connexion_level(
            _vp("geometry", "geometry-design"), _actor({"geometry": 3}), policy
        )
        assert len(result) == 0

    def test_activity_tag_restricts_rule(self):
        policy = parse_policy(
            "rule discipline=* activity=geometry-design competence>=1\n  grant Flows:1\n"
        )
        actor = _actor({"geometry": 3, "mechanic": 3})
        hit = restitution_list_connexion_level(_vp("geometry", "geometry-design"), actor, policy)
        miss = restitution_list_connexion_level(_vp("mechanic", "mechanical-design"), actor, policy)
        assert hit.levels() == {"Flows": 1}
        assert len(miss) == 0

    def test_matching_rules_combine_with_min(self):
        policy = parse_policy(
            "rule discipline=geometry activity=* competence>=1\n"
            "  grant Flows:3\n"
            "  grant Artifact:2\n"
            "rule discipline=* activity=* competence>=2\n"
            "  grant Flows:1\n"
        )
        result = restitution_list_connexion_level(
            _vp("geometry", "geometry-design"), _actor({"geometry": 2}), policy
        )
        assert result.levels() == {"Artifact": 2, "Flows": 1}

    def test_missing_competence_entry(self):
        with pytest.raises(InvalidInputError, match="VPT"):
            restitution_list_connexion_level(
                _vp("electric", "geometry-design"), _actor({"geometry": 2}), parse_policy("")
            )

    def test_actor_viewpoint_mismatch(self):
        other = Actor("B", "B", "r", Situation.INTERNAL, "T1", {"geometry": CompetenceLevel(2)})
        with pytest.raises(InvalidInputError):
            restitution_list_connexion_level(_vp("geometry", "geometry-design"), other, parse_policy(""))


class TestEvaluationProperties:
    @given(policy=policies(), data=st.data())
    @settings(max_examples=300)
    def test_rule_order_independence(self, policy, data):
        actor = _actor({d: data.draw(st.integers(1, 5)) for d in DISCIPLINES})
        vp = _vp(data.draw(st.sampled_from(DISCIPLINES)), data.draw(st.sampled_from(ACTIVITIES)))
        shuffled = Policy(tuple(data.draw(st.permutations(policy.rules))))
        assert restitution_list_connexion_level(vp, actor, policy) == restitution_list_connexion_level(
            vp, actor, shuffled
        )

    @given(policy=policies(), data=st.data())
    @settings(max_examples=300)
    def test_competence_monotonicity(self, policy, data):
        discipline = data.draw(st.sampled_from(DISCIPLINES))
        vp = _vp(discipline, data.draw(st.sampled_from(ACTIVITIES)))
        low_value = data.draw(st.integers(1, 4))
        low = restitution_list_connexion_level(vp, _actor({discipline: low_value}), policy).levels()
        high = restitution_list_connexion_level(vp, _actor({discipline: low_value + 1}), policy).levels()
        assert set(low) <= set(high)
        assert all(high[batch] <= level for batch, level in low.items())

    @given(policy=policies(), data=st.data())
    @settings(max_examples=100)
    def test_evaluation_is_pure(self, policy, data):
        actor = _actor({d: data.draw(st.integers(1, 5)) for d in DISCIPLINES})
        vp = _vp(data.draw(st.sampled_from(DISCIPLINES)), data.draw(st.sampled_from(ACTIVITIES)))
        first = restitution_list_connexion_level(vp, actor, policy)
        second = restitution_list_connexion_level(vp, actor, policy)
        assert first == second
