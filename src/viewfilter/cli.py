"""Command-line interface: every engine operation over a file-backed store.

All output on stdout is the canonical document form (JSON, or policy text for
policy commands). Exit codes: 0 success, 1 domain error (with a machine-
readable error document on stdout; an unexpected exception is reported as an
``internal`` error document, with its traceback on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import documents
from .changes import ChangeWorkflow
from .engine import filtering_info_artifact
from .errors import DocumentError, InternalError, InvalidInputError
from .model import validate_model
from .policy import parse_policy, serialize_policy
from .store import Store

STORE_ENV_VAR = "VIEWFILTER_STORE"


def _read_input(source: str) -> str:
    try:
        if source == "-":
            return sys.stdin.read()
        return Path(source).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidInputError(f"cannot read {source}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{source} is not UTF-8: {exc}") from None


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _emit_doc(doc) -> None:
    _emit(documents.canonical_dumps(doc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viewfilter",
        description="Viewpoint-driven information filtering over a product model store.",
    )
    parser.add_argument(
        "--store",
        default=os.environ.get(STORE_ENV_VAR, "store"),
        help=f"store root directory (default: ${STORE_ENV_VAR} or ./store)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    model = commands.add_parser("model", help="model import/export/validation")
    model_sub = model.add_subparsers(dest="subcommand", required=True)
    model_import = model_sub.add_parser("import", help="validate and publish a model document")
    model_import.add_argument("file", help="model document path, or - for stdin")
    model_export = model_sub.add_parser("export", help="print a model version")
    model_export.add_argument("--version", type=int, default=None)
    model_validate = model_sub.add_parser("validate", help="report invariant violations")
    model_validate.add_argument("file", help="model document path, or - for stdin")

    actor = commands.add_parser("actor", help="actor registry")
    actor_sub = actor.add_subparsers(dest="subcommand", required=True)
    actor_add = actor_sub.add_parser("add")
    actor_add.add_argument("file", help="actor document path, or - for stdin")
    actor_sub.add_parser("list")
    actor_annotations = actor_sub.add_parser("annotations", help="annotations addressed to an actor")
    actor_annotations.add_argument("actor_id")

    vp = commands.add_parser("vp", help="viewpoint registry")
    vp_sub = vp.add_subparsers(dest="subcommand", required=True)
    vp_add = vp_sub.add_parser("add", help="add one viewpoint or a batch")
    vp_add.add_argument("file", help="viewpoint document, list, or {\"viewpoints\": [...]}")
    vp_list = vp_sub.add_parser("list")
    vp_list.add_argument("--actor", default=None)

    policy = commands.add_parser("policy", help="batch-access policy")
    policy_sub = policy.add_subparsers(dest="subcommand", required=True)
    policy_check = policy_sub.add_parser("check", help="parse and print canonical policy text")
    policy_check.add_argument("file", help="policy text path, or - for stdin")
    policy_set = policy_sub.add_parser("set", help="store a policy document")
    policy_set.add_argument("file", help="policy text path, or - for stdin")
    policy_sub.add_parser("show", help="print the stored policy")

    filter_cmd = commands.add_parser("filter", help="run the filtering pipeline")
    filter_cmd.add_argument("--actor", required=True)
    filter_cmd.add_argument("--artifact", required=True)
    filter_cmd.add_argument("--audit", action="store_true", help="include per-viewpoint audit lists")

    change = commands.add_parser("change", help="modification proposals")
    change_sub = change.add_subparsers(dest="subcommand", required=True)
    change_propose = change_sub.add_parser("propose")
    change_propose.add_argument("--author", required=True)
    change_propose.add_argument("--artifact", required=True)
    change_propose.add_argument("--batch", required=True)
    change_propose.add_argument("--delta-file", default=None, help="JSON delta payload path")
    change_propose.add_argument("--description", default="", help="free-text delta description")
    change_decide = change_sub.add_parser("decide")
    change_decide.add_argument("change_id")
    change_decide.add_argument("--actor", required=True)
    change_decide.add_argument("--decision", required=True, choices=["approve", "reject"])
    change_withdraw = change_sub.add_parser("withdraw")
    change_withdraw.add_argument("change_id")
    change_withdraw.add_argument("--actor", required=True)
    change_show = change_sub.add_parser("show")
    change_show.add_argument("change_id")
    change_sub.add_parser("list")

    serve = commands.add_parser("serve", help="run the HTTP service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8085)

    return parser


def _run(args) -> int:
    store = Store(args.store)  # opening a store writes nothing
    if args.command == "model":
        if args.subcommand == "import":
            version = store.import_model(documents.canonical_loads(_read_input(args.file)))
            _emit_doc({"version": version})
        elif args.subcommand == "export":
            _emit_doc(store.export_model(args.version))
        else:
            model = documents.model_from_doc(documents.canonical_loads(_read_input(args.file)))
            violations = validate_model(model)
            _emit_doc(documents.violations_to_doc(violations))
            return 1 if violations else 0

    elif args.command == "actor":
        if args.subcommand == "add":
            actor = store.add_actor(documents.canonical_loads(_read_input(args.file)))
            _emit_doc(documents.actor_to_doc(actor))
        elif args.subcommand == "list":
            _emit_doc({"actors": [documents.actor_to_doc(a) for a in store.list_actors()]})
        else:
            annotations = store.list_annotations(args.actor_id)
            _emit_doc({"annotations": [documents.annotation_to_doc(a) for a in annotations]})

    elif args.command == "vp":
        if args.subcommand == "add":
            docs = documents.canonical_loads(_read_input(args.file))
            if isinstance(docs, dict) and "viewpoints" in docs:
                docs = docs["viewpoints"]
            elif not isinstance(docs, list):
                docs = [docs]
            added = store.add_viewpoints(docs)
            _emit_doc({"viewpoints": [documents.viewpoint_to_doc(vp) for vp in added]})
        else:
            vps = store.list_viewpoints(args.actor)
            _emit_doc({"viewpoints": [documents.viewpoint_to_doc(vp) for vp in vps]})

    elif args.command == "policy":
        if args.subcommand == "check":
            _emit(serialize_policy(parse_policy(_read_input(args.file))))
        elif args.subcommand == "set":
            policy = store.set_policy(_read_input(args.file))
            _emit(serialize_policy(policy))
        else:
            _emit(store.get_policy_text())

    elif args.command == "filter":
        result = filtering_info_artifact(store.load_workspace(), args.artifact, args.actor)
        _emit_doc(documents.filter_result_to_doc(result, include_audit=args.audit))

    elif args.command == "change":
        workflow = ChangeWorkflow(store)
        if args.subcommand == "propose":
            if args.delta_file is not None:
                delta = documents.canonical_loads(_read_input(args.delta_file))
            else:
                delta = {"description": args.description}
            change = workflow.propose(args.author, args.artifact, args.batch, delta)
            _emit_doc(documents.change_to_doc(change))
        elif args.subcommand == "decide":
            change = workflow.decide(args.change_id, args.actor, args.decision)
            _emit_doc(documents.change_to_doc(change))
        elif args.subcommand == "withdraw":
            change = workflow.withdraw(args.change_id, args.actor)
            _emit_doc(documents.change_to_doc(change))
        elif args.subcommand == "show":
            _emit_doc(documents.change_to_doc(store.get_change(args.change_id)))
        else:
            _emit_doc({"changes": [documents.change_to_doc(c) for c in store.list_changes()]})

    else:
        from .service import serve as run_service

        run_service(args.store, args.host, args.port)

    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:
        _emit_doc(InternalError.report(exc).to_doc())
        return 1


if __name__ == "__main__":
    sys.exit(main())
