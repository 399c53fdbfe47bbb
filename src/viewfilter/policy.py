"""Declarative batch-access policy: text format, evaluator, and result type.

A policy is an ordered list of rules. Each rule names a discipline tag (or
``*``), an activity tag (or ``*``), a minimum competence, and the batches it
grants with their access levels (level 1 is fullest access; larger numbers are
more abstract). Every rule that matches a viewpoint contributes its grants;
when several matching rules grant the same batch, the smallest level wins, so
rule order never matters.

Text format, one rule per block::

    rule discipline=geometry activity=* competence>=2
      grant Artifact:1
      grant Geometry-Form:1

Canonical serialization keeps rules in file order and sorts grants by batch
name; ``parse`` and ``serialize`` round-trip losslessly.
"""

from __future__ import annotations

import re
import sys
from typing import Iterable, Iterator, Mapping

from .errors import InvalidInputError, PolicyParseError, PolicySemanticError
from .records import record
from .viewpoints import Actor, CompetenceLevel, Viewpoint, competence_for

_TAG = r"[A-Za-z0-9_.-]+"
_BATCH_RE = re.compile(rf"^{_TAG}$")

# ASCII only, so that a number is ASCII digits and a separator ASCII whitespace.
_HEADER_SEGMENTS = (
    ("keyword 'rule'", re.compile(r"rule(?=\s|$)", re.ASCII)),
    ("'discipline=<tag|*>'", re.compile(rf"\s+discipline=(\*|{_TAG})", re.ASCII)),
    ("'activity=<tag|*>'", re.compile(rf"\s+activity=(\*|{_TAG})", re.ASCII)),
    ("'competence>=<n>'", re.compile(r"\s+competence>=(\d+)", re.ASCII)),
    ("end of line", re.compile(r"\s*$", re.ASCII)),
)

_GRANT_SEGMENTS = (
    ("indentation", re.compile(r"\s+", re.ASCII)),
    ("keyword 'grant'", re.compile(r"grant(?=\s|$)", re.ASCII)),
    ("'<Batch>:<level>'", re.compile(rf"\s+({_TAG}):(\d+)", re.ASCII)),
    ("end of line", re.compile(r"\s*$", re.ASCII)),
)


def _check_batch_level(batch: str, level: int) -> None:
    if not batch or not _BATCH_RE.match(batch):
        raise InvalidInputError(f"invalid batch name: {batch!r}")
    if not isinstance(level, int) or isinstance(level, bool) or level < 1:
        raise InvalidInputError(f"batch level must be an integer >= 1, got {level!r}")


@record
class Grant:
    """One granted batch at one access level (level >= 1)."""

    batch: str
    level: int

    def __post_init__(self):
        _check_batch_level(self.batch, self.level)


@record
class PolicyRule:
    """Grants awarded to viewpoints matching (discipline, activity, competence).

    Grants are normalized to batch-name order on construction; a batch may
    appear at most once per rule.
    """

    discipline: str
    activity_kind: str
    min_competence: CompetenceLevel
    grants: tuple[Grant, ...]

    def __post_init__(self):
        if not self.grants:
            raise InvalidInputError("policy rule must grant at least one batch")
        ordered = tuple(sorted(self.grants, key=lambda g: g.batch))
        for a, b in zip(ordered, ordered[1:]):
            if a.batch == b.batch:
                raise InvalidInputError(f"duplicate batch {a.batch!r} within one rule")
        object.__setattr__(self, "grants", ordered)

    def matches(self, discipline: str, activity_id: str, competence: CompetenceLevel) -> bool:
        return (
            self.discipline in ("*", discipline)
            and self.activity_kind in ("*", activity_id)
            and competence.value >= self.min_competence.value
        )


@record
class Policy:
    rules: tuple[PolicyRule, ...] = ()


@record
class ConnexionEntry:
    """One batch with its resolved access level and contributing viewpoints."""

    batch: str
    level: int
    provenance: frozenset[str]

    def __post_init__(self):
        _check_batch_level(self.batch, self.level)
        object.__setattr__(self, "provenance", frozenset(self.provenance))


@record
class ConnexionLevelList:
    """Leveled batch entries, sorted by batch name, each batch at most once."""

    entries: tuple[ConnexionEntry, ...] = ()

    def __post_init__(self):
        names = [e.batch for e in self.entries]
        if names != sorted(set(names)):
            raise InvalidInputError("entries must be unique per batch and sorted by batch name")

    @classmethod
    def from_entries(cls, entries: Iterable[ConnexionEntry]) -> "ConnexionLevelList":
        return cls(tuple(sorted(entries, key=lambda e: e.batch)))

    @classmethod
    def from_levels(cls, levels: Mapping[str, int], provenance: frozenset[str]) -> "ConnexionLevelList":
        return cls(
            tuple(
                ConnexionEntry(batch, level, provenance)
                for batch, level in sorted(levels.items())
            )
        )

    def levels(self) -> dict[str, int]:
        return {e.batch: e.level for e in self.entries}

    def get(self, batch: str) -> ConnexionEntry | None:
        for e in self.entries:
            if e.batch == batch:
                return e
        return None

    def __iter__(self) -> Iterator[ConnexionEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _match_segments(line: str, line_no: int, segments) -> list[str]:
    groups: list[str] = []
    pos = 0
    for expected, pattern in segments:
        m = pattern.match(line, pos)
        if m is None:
            raise PolicyParseError(f"expected {expected}", line=line_no, column=pos + 1)
        groups.extend(m.groups())
        pos = m.end()
    return groups


def _number(digits: str, line_no: int) -> int:
    """A number the grammar matched; one longer than ``int()`` parses is a semantic error."""
    try:
        return int(digits)
    except ValueError:
        raise PolicySemanticError(f"number has more than {sys.get_int_max_str_digits()} digits", line=line_no) from None


def parse_policy(document: str) -> Policy:
    """Parse policy text; blank lines (empty, or only spaces and tabs) and
    ``#`` comments are ignored.

    Raises :class:`PolicyParseError` with line/column on malformed syntax and
    :class:`PolicySemanticError` on bound or duplicate violations.
    """
    rules: list[PolicyRule] = []
    header: tuple[int, str, str, int] | None = None  # line, discipline, activity, competence
    grants: list[Grant] = []
    grant_lines: dict[str, int] = {}

    def close_rule():
        nonlocal header, grants, grant_lines
        if header is None:
            return
        line_no, discipline, activity, competence = header
        if not 1 <= competence <= 5:
            raise PolicySemanticError(
                f"competence bound must be in [1, 5], got {competence}", line=line_no
            )
        if not grants:
            raise PolicySemanticError("rule grants no batches", line=line_no)
        rules.append(PolicyRule(discipline, activity, CompetenceLevel(competence), tuple(grants)))
        header, grants, grant_lines = None, [], {}

    for line_no, raw in enumerate(document.splitlines(), start=1):
        stripped = raw.strip(" \t")  # ASCII, like every separator: other spaces are not blank
        if not stripped or stripped.startswith("#"):
            continue
        if not raw[0].isspace():  # a line indented by any space is a grant line, well-formed or not
            close_rule()
            discipline, activity, competence = _match_segments(raw, line_no, _HEADER_SEGMENTS)
            header = (line_no, discipline, activity, _number(competence, line_no))
        else:
            if header is None:
                raise PolicyParseError("grant line outside any rule", line=line_no, column=1)
            batch, level_text = _match_segments(raw, line_no, _GRANT_SEGMENTS)
            level = _number(level_text, line_no)
            if level < 1:
                raise PolicySemanticError(f"grant level must be >= 1, got {level}", line=line_no)
            if batch in grant_lines:
                raise PolicySemanticError(
                    f"batch {batch!r} granted twice in one rule (first at line {grant_lines[batch]})",
                    line=line_no,
                )
            grant_lines[batch] = line_no
            grants.append(Grant(batch, level))
    close_rule()
    return Policy(tuple(rules))


def serialize_policy(policy: Policy) -> str:
    """Canonical text form: rules in order, grants sorted by batch name."""
    blocks = []
    for rule in policy.rules:
        lines = [
            f"rule discipline={rule.discipline} activity={rule.activity_kind} "
            f"competence>={rule.min_competence.value}"
        ]
        lines.extend(f"  grant {g.batch}:{g.level}" for g in rule.grants)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""


def restitution_list_connexion_level(
    viewpoint: Viewpoint,
    actor: Actor,
    policy: Policy,
) -> ConnexionLevelList:
    """Step 4: the leveled batches granted to one viewpoint.

    All matching rules contribute; per batch the minimum level wins, making
    the result independent of rule order and monotone in competence.
    """
    if viewpoint.actor_id != actor.id:
        raise InvalidInputError(
            f"viewpoint {viewpoint.id} belongs to actor {viewpoint.actor_id}, not {actor.id}"
        )
    competence = competence_for(actor, viewpoint)
    levels: dict[str, int] = {}
    for rule in policy.rules:
        if rule.matches(viewpoint.domain.discipline, viewpoint.domain.activity_id, competence):
            for grant in rule.grants:
                current = levels.get(grant.batch)
                levels[grant.batch] = grant.level if current is None else min(current, grant.level)
    return ConnexionLevelList.from_levels(levels, frozenset({viewpoint.id}))
