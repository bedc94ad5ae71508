"""Command line front end. One subcommand per service verb, plus the
scenario tooling. Runs in-process against a local artifact by default;
--connect talks to a running daemon over TCP instead.

Exit status is 0 for ok responses and 1 for err responses.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys

from . import coordination as co
from . import daemon as dm
from . import guidebook as gb
from . import model, obligations, sexpr, simulate, wal
from .sexpr import Integer, SList, String, Symbol


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# --------------------------------------------------------- transports


class LocalTransport:
    def __init__(self, service: dm.KernelService):
        self.service = service

    def request(self, text: str) -> str:
        return self.service.handle(text)

    def close(self):
        pass


class SocketTransport:
    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port))
        self.rfile = self.sock.makefile("r", encoding="utf-8")

    def request(self, text: str) -> str:
        self.sock.sendall(text.encode("utf-8") + b"\n")
        reply = dm.read_form_text(self.rfile.readline)
        if reply is None:
            raise ConnectionError("daemon closed the connection")
        return reply.strip()

    def close(self):
        self.rfile.close()
        self.sock.close()


def _make_transport(args):
    if args.connect:
        host, _, port = args.connect.rpartition(":")
        return SocketTransport(host or "127.0.0.1", int(port))
    cfg = _config_from_args(args)
    return LocalTransport(dm.build_service(cfg))


def _config_from_args(args) -> dm.DaemonConfig:
    if args.config:
        cfg = dm.load_config(args.config)
    else:
        cfg = dm.DaemonConfig()
    # flags override the file
    if args.artifact:
        cfg.artifact_path = args.artifact
    if args.base_dir:
        cfg.base_dir = args.base_dir
    if args.wal_dir:
        cfg.wal_dir = args.wal_dir
    if args.friction:
        cfg.friction_path = args.friction
    if not cfg.artifact_path:
        raise SystemExit("an artifact is required: pass --artifact or --config")
    return cfg


# --------------------------------------------------------- rendering


def render_response(text: str) -> tuple[str, int]:
    """Human-readable rendering of one wire response, plus exit status."""
    form = sexpr.parse(text)
    head = form[0].text
    if head == "err":
        message = form[2].text if len(form.items) > 2 else ""
        return message, 1
    payload = form.items[1:]
    if not payload:
        return "ok", 0
    return "\n".join(_render_node(p) for p in payload), 0


def _render_node(node) -> str:
    if isinstance(node, (Symbol, String)):
        return node.text
    if isinstance(node, Integer):
        return str(node.value)
    if isinstance(node, SList) and node.items and isinstance(node[0], Symbol):
        tag = node[0].text
        if tag == "lines":
            return dm.response_lines(node)
        if tag == "verdict":
            status = node[1].text
            if status == "pass":
                return "PASS"
            for sub in node.items[2:]:
                if isinstance(sub, SList) and sub.items and sub[0] == Symbol("lines"):
                    return dm.response_lines(sub)
            return "FAIL"
        if tag in ("matrix", "report"):
            return _render_node(node[1])
    return sexpr.print_canonical(node)


# ------------------------------------------------------- verb mapping


def _request_form(args) -> SList:
    items = [Symbol(args.verb)]
    items.extend(args.build(args))
    return SList(items)


def _run_verb(args) -> int:
    transport = _make_transport(args)
    try:
        reply = transport.request(
            sexpr.print_canonical(_request_form(args)))
    finally:
        transport.close()
    text, status = render_response(reply)
    print(text)
    return status


def _verb_parser(sub, name, build, help_text, *params):
    p = sub.add_parser(name, help=help_text)
    for param in params:
        flags, kw = param
        p.add_argument(*flags, **kw)
    p.set_defaults(func=_run_verb, verb=name, build=build)
    return p


def _file_form(path_attr):
    def build(args):
        return [sexpr.parse(_read_text(getattr(args, path_attr)))]
    return build


def _no_args(args):
    return []


# ---------------------------------------------------------- commands


def cmd_simulate(args) -> int:
    policies = [simulate.BUILTIN_POLICIES[name]() for name in args.policy]
    result = simulate.run_scenario(
        policies, args.seed, args.steps, feature_count=args.features)
    print(result.report())
    return 0


def cmd_lesion(args) -> int:
    report = simulate.lesion_run()
    print(report.render())
    fully = all(report.guarded_rate(t) == 1.0 for t in report.per_type())
    return 0 if fully else 1


def cmd_validate_guidebooks(args) -> int:
    artifact = model.decode_text(_read_text(args.artifact))
    base = args.base_dir or os.path.dirname(args.artifact) or "."
    books = gb.load_guidebooks(artifact.guidebook_imports, base_dir=base)
    issues = gb.check_guidebook_consistency(
        books, registry=obligations.builtin_registry())
    for issue in issues:
        print(issue)
    if issues:
        return 1
    print(f"ok: {len(books)} guidebook(s), no issues")
    return 0


def cmd_serve(args) -> int:
    cfg = _config_from_args(args)
    if args.port:
        cfg.port = args.port
    server = dm.serve(cfg)
    host, port = server.server_address[:2]
    print(f"listening on {host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


# ------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epochd",
        description="governance gate for S-expression engineering artifacts")
    parser.add_argument("--config", default="", help="S-expression config file")
    parser.add_argument("--artifact", default="", help="artifact file")
    parser.add_argument("--base-dir", dest="base_dir", default="",
                        help="guidebook resolution root")
    parser.add_argument("--wal-dir", dest="wal_dir", default="",
                        help="write-ahead log directory")
    parser.add_argument("--friction", default="", help="friction ledger file")
    parser.add_argument("--connect", default="",
                        help="host:port of a running daemon (default: in-process)")
    sub = parser.add_subparsers(dest="command", required=True)

    _verb_parser(sub, "ping", _no_args, "daemon heartbeat")
    _verb_parser(sub, "read-system", _no_args, "dump the current artifact")
    _verb_parser(sub, "what-if", _file_form("change_set"),
                 "speculative full verification of a change set",
                 (("change_set",), {"help": "change set file"}))
    _verb_parser(sub, "precommit-check", _file_form("change_set"),
                 "incremental check of a change set",
                 (("change_set",), {"help": "change set file"}))

    def build_commit(args):
        forms = [sexpr.parse(_read_text(args.change_set))]
        if args.expect:
            forms.append(String(args.expect))
        return forms
    _verb_parser(sub, "commit-change-set", build_commit,
                 "verify and commit a change set",
                 (("change_set",), {"help": "change set file"}),
                 (("--expect",), {"default": "", "help": "expected head fingerprint"}))

    def build_claim(args):
        return [Symbol(args.agent), Symbol(args.feature)]
    _verb_parser(sub, "claim-feature", build_claim, "acquire a feature lease",
                 (("agent",), {}), (("feature",), {}))

    def build_feature(args):
        return [Symbol(args.feature)]
    _verb_parser(sub, "run-evidence-gate", build_feature,
                 "run the configured test command and record evidence",
                 (("feature",), {}))

    def build_lesson(args):
        return [Symbol(args.actor), sexpr.parse(_read_text(args.lesson))]
    _verb_parser(sub, "record-lesson", build_lesson,
                 "append a lesson to institutional memory",
                 (("actor",), {}), (("lesson",), {"help": "lesson file"}))

    def build_paths(args):
        return [String(p) for p in args.paths]
    _verb_parser(sub, "lessons-for-scope", build_paths,
                 "lessons whose scope touches the given paths",
                 (("paths",), {"nargs": "+"}))

    def build_retro(args):
        return [Integer(args.window), sexpr.parse(_read_text(args.obligation))]
    _verb_parser(sub, "retroactive-verify", build_retro,
                 "replay a candidate obligation against recent history",
                 (("window",), {"type": int}),
                 (("obligation",), {"help": "obligation file"}))

    _verb_parser(sub, "artifact-health", _no_args,
                 "run every obligation against the current state")
    _verb_parser(sub, "traceability-matrix", _no_args,
                 "requirement -> trace/component/design/feature table")
    _verb_parser(sub, "compliance-report", _no_args,
                 "per-entry delivery and obligation counts")

    def build_req(args):
        return [Symbol(args.requirement)]
    _verb_parser(sub, "impact-analysis", build_req,
                 "everything downstream of one requirement",
                 (("requirement",), {}))

    def build_agent(args):
        return [Symbol(args.agent)]
    _verb_parser(sub, "friction-score", build_agent,
                 "windowed friction score for an agent", (("agent",), {}))
    _verb_parser(sub, "tier-of", build_agent,
                 "trust tier for an agent", (("agent",), {}))

    p = sub.add_parser("simulate", help="run scripted agent policies")
    p.add_argument("--policy", action="append", required=True,
                   choices=sorted(simulate.BUILTIN_POLICIES),
                   help="repeatable; round-robin order")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--features", type=int, default=6)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("lesion", help="try to remove every element; report guards")
    p.set_defaults(func=cmd_lesion)

    p = sub.add_parser("validate-guidebooks",
                       help="resolve and consistency-check the guidebook import graph")
    p.set_defaults(func=cmd_validate_guidebooks)

    p = sub.add_parser("serve", help="run the TCP daemon")
    p.add_argument("--port", type=int, default=0)
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (OSError, ValueError, sexpr.SexprError, model.ModelError,
            gb.GuidebookError, co.CoordinationError, wal.WalError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
