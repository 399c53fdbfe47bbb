#!/usr/bin/env python3
"""Golden CLI transcript: a fixed list of commands over the bundled example.

Seeds the cyclone-vessel store in a temporary directory and runs each
command through ``viewfilter.cli.main`` in-process, in order: the read
commands, every (actor, artifact) filter with and without ``--audit``,
proposals carried to each outcome, one error document per error code the
CLI can print (``internal`` has no known input), and inputs holding an
integer longer than ``int()`` parses. Each command is recorded as its
command line, its stdout as printed, any stderr, and its exit code, with
the temporary directory written as ``$TMP``.

    python scripts/sweep.py            compare with tests/golden/cli.txt
    python scripts/sweep.py --write    regenerate tests/golden/cli.txt

The comparison exits 1 and names the first differing line. Regenerate only
when a change to the printed bytes is intended.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

try:
    import viewfilter  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from viewfilter import documents, fixture
from viewfilter.cli import main as cli_main

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden" / "cli.txt"
LONG_DIGITS = 5000  # above the default int() limit of 4 300 digits
LONG_NUMBER = "1" * LONG_DIGITS


def _inputs(tmp: Path) -> dict[str, Path]:
    """Input files for the commands, by name, written under ``tmp/inputs``."""
    model = documents.model_to_doc(fixture.cyclone_vessel_model())
    staged = json.loads(json.dumps(model))
    next(a for a in staged["artifacts"] if a["id"] == "BarrelLiner")["parent_id"] = "ConeSection"
    rejected = json.loads(json.dumps(model))
    next(a for a in rejected["artifacts"] if a["id"] == "BarrelLiner")["parent_id"] = "Nowhere"
    texts = {
        "staged.json": json.dumps({"description": "move the barrel liner under the cone", "model": staged}),
        "rejected-model.json": json.dumps(rejected),
        "existing-actor.json": json.dumps(documents.actor_to_doc(fixture.example_actors()[0])),
        "not-json.json": "nope",
        "long-integer.json": '{"description": "d", "count": %s}' % LONG_NUMBER,
        "unparsable.policy": "rule discipline=geometry competence>=2\n  grant Artifact:1\n",
        "out-of-bounds.policy": "rule discipline=* activity=* competence>=9\n  grant Artifact:1\n",
        "long-competence.policy": f"rule discipline=* activity=* competence>={LONG_NUMBER}\n  grant Artifact:1\n",
        "long-level.policy": f"rule discipline=* activity=* competence>=1\n  grant Artifact:{LONG_NUMBER}\n",
    }
    folder = tmp / "inputs"
    folder.mkdir()
    paths = {}
    for name, text in texts.items():
        paths[name] = folder / name
        paths[name].write_text(text, encoding="utf-8")
    paths["missing.json"] = folder / "missing.json"
    return paths


def _steps(tmp: Path):
    """Each step: a command line for the CLI, or a (note, action) pair that changes the store's files."""
    store = tmp / "store"
    inputs = _inputs(tmp)

    def cli(*argv):
        return ["--store", str(store), *map(str, argv)]

    actors = [a.id for a in fixture.example_actors()]
    artifacts = sorted(a.id for a in fixture.cyclone_vessel_model().artifacts)

    yield cli("model", "export")
    yield cli("actor", "list")
    yield cli("vp", "list")
    for actor in actors:
        yield cli("vp", "list", "--actor", actor)
    yield cli("policy", "show")
    for actor in actors:
        for artifact in artifacts:
            yield cli("filter", "--actor", actor, "--artifact", artifact)
            yield cli("filter", "--actor", actor, "--artifact", artifact, "--audit")

    # A plain proposal approved by its one concerned actor: chg-000001.
    yield cli("change", "propose", "--author", "ActorX", "--artifact", "CycloneVessel", "--batch", "Geometry-Form",
              "--description", "widen the inlet")
    yield cli("change", "decide", "chg-000001", "--actor", "ActorY", "--decision", "approve")
    # A staged model, published as staged once approved: chg-000004.
    yield cli("change", "propose", "--author", "ActorY", "--artifact", "BarrelLiner", "--batch", "Geometry-Form",
              "--delta-file", inputs["staged.json"])
    yield cli("change", "decide", "chg-000004", "--actor", "ActorX", "--decision", "approve")
    yield cli("model", "export")
    yield cli("filter", "--actor", "ActorX", "--artifact", "BarrelLiner", "--audit")
    # No other actor holds Mechanic, so this one is effective at once: chg-000007.
    yield cli("change", "propose", "--author", "ActorX", "--artifact", "CycloneVessel", "--batch", "Mechanic",
              "--description", "thicker shell")
    # A rejection (chg-000009) and a withdrawal (chg-000012).
    yield cli("change", "propose", "--author", "ActorX", "--artifact", "ConeShell", "--batch", "Group",
              "--description", "regroup the cone")
    yield cli("change", "decide", "chg-000009", "--actor", "ActorY", "--decision", "reject")
    yield cli("change", "propose", "--author", "ActorY", "--artifact", "InletDuct", "--batch", "Sub-Artifact",
              "--description", "split the duct")
    yield cli("change", "withdraw", "chg-000012", "--actor", "ActorY")
    # Left pending: chg-000015.
    yield cli("change", "propose", "--author", "ActorY", "--artifact", "DustValve", "--batch", "Flows",
              "--description", "purge timing")
    for change in ("chg-000001", "chg-000004", "chg-000007", "chg-000009", "chg-000012", "chg-000015"):
        yield cli("change", "show", change)
    yield cli("change", "list")
    for actor in actors:
        yield cli("actor", "annotations", actor)
    yield cli("model", "export", "--version", "4")

    # One error document per code.
    yield cli("filter", "--actor", "Ghost", "--artifact", "CycloneVessel")  # not_found
    yield cli("filter", "--actor", "ActorX", "--artifact", "Ghost")
    yield cli("change", "show", "chg-999999")
    yield cli("model", "export", "--version", "42")
    yield cli("change", "propose", "--author", "ActorZ", "--artifact", "CycloneVessel", "--batch", "Geometry-Form",
              "--description", "d")  # permission_denied
    yield cli("change", "decide", "chg-000015", "--actor", "ActorZ", "--decision", "approve")
    yield cli("change", "withdraw", "chg-000015", "--actor", "ActorX")
    yield cli("actor", "add", inputs["existing-actor.json"])  # conflict
    yield cli("change", "decide", "chg-000009", "--actor", "ActorY", "--decision", "approve")  # invalid_state
    yield cli("model", "import", inputs["missing.json"])  # invalid_input
    yield cli("change", "show", "../seq")
    yield cli("model", "validate", inputs["not-json.json"])  # bad_document
    yield cli("policy", "check", inputs["unparsable.policy"])  # policy_parse_error
    yield cli("policy", "check", inputs["out-of-bounds.policy"])  # policy_semantic_error
    yield cli("model", "import", inputs["rejected-model.json"])  # model_rejected

    # Integers longer than int() parses.
    yield cli("change", "propose", "--author", "ActorX", "--artifact", "CycloneVessel", "--batch", "Geometry-Form",
              "--delta-file", inputs["long-integer.json"])
    yield cli("model", "validate", inputs["long-integer.json"])
    yield cli("policy", "check", inputs["long-competence.policy"])
    yield cli("policy", "check", inputs["long-level.policy"])
    yield (f"write {LONG_DIGITS} digits to $TMP/store/seq", lambda: (store / "seq").write_text(LONG_NUMBER))
    yield cli("change", "propose", "--author", "ActorX", "--artifact", "CycloneVessel", "--batch", "Geometry-Form",
              "--description", "d")
    current = '{"token": "t", "version": %s}' % LONG_NUMBER
    yield (f"write a {LONG_DIGITS}-digit version to $TMP/store/model/CURRENT",
           lambda: (store / "model" / "CURRENT").write_text(current))
    yield cli("filter", "--actor", "ActorX", "--artifact", "CycloneVessel")


def _run(argv: list[str]) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return out.getvalue(), err.getvalue(), code


def transcript() -> str:
    """The whole transcript, as ``tests/golden/cli.txt`` holds it."""
    lines: list[str] = []
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        fixture.seed_store(tmp / "store")
        for step in _steps(tmp):
            if isinstance(step, tuple):
                note, action = step
                action()
                lines.append(f"# {note}\n")
                continue
            out, err, code = _run(step)
            lines.append("$ viewfilter " + " ".join(step) + "\n")
            lines.append(out if out.endswith("\n") or not out else out + "\n[no newline at end of stdout]\n")
            lines.extend(f"stderr| {line}\n" for line in err.splitlines())
            lines.append(f"[exit {code}]\n\n")
        return "".join(lines).replace(str(tmp), "$TMP")


def first_difference(expected: str, actual: str) -> str | None:
    """The first line where two transcripts differ, described; None when they are equal."""
    old, new = expected.splitlines(), actual.splitlines()
    for number, (a, b) in enumerate(zip(old, new), start=1):
        if a != b:
            return f"line {number}: expected {a!r}, got {b!r}"
    if len(old) != len(new):
        number = min(len(old), len(new)) + 1
        return f"line {number}: expected {len(old)} lines, got {len(new)}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"regenerate {GOLDEN.name} instead of comparing")
    args = parser.parse_args(argv)
    actual = transcript()
    if args.write:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(actual, encoding="utf-8")
        print(f"wrote {GOLDEN}")
        return 0
    difference = first_difference(GOLDEN.read_text(encoding="utf-8"), actual)
    print(difference or f"the transcript matches {GOLDEN}")
    return 1 if difference else 0


if __name__ == "__main__":
    sys.exit(main())
