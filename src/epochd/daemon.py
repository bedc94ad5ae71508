"""Service layer: every gate verb behind a request/response pair of
S-expressions, an in-process handle for tests and the CLI, and a
threaded TCP front end speaking one form per message.

Every request gets exactly one response; no verb may take the service
down. Mutating verbs funnel through the kernel's serialized gate;
reads run against immutable snapshots.
"""

from __future__ import annotations

import os
import socketserver
import threading
from dataclasses import dataclass

from . import coordination as co
from . import evidence as ev
from . import guidebook as gb
from . import kernel as kn
from . import lessons as ls
from . import model, obligations, sexpr, wal
from .sexpr import TEXT, Integer, SList, String, Symbol

MAX_REQUEST_BYTES = 256 * 1024


def _disk_reader(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


@dataclass
class DaemonConfig:
    artifact_path: str = ""
    base_dir: str = ""
    wal_dir: str = ""
    friction_path: str = ""
    host: str = "127.0.0.1"
    port: int = 7700
    witnesses: tuple = ()
    theta1: float = co.DEFAULT_THETA1
    theta2: float = co.DEFAULT_THETA2
    window: int = co.DEFAULT_WINDOW
    runner_template: tuple = ("python3", "-m", "pytest", "-q", "{test_paths}")


def load_config(path: str) -> DaemonConfig:
    form = sexpr.parse(_disk_reader(path))

    def fail(message):
        return ValueError(f"{path}: {message}")

    sexpr.read_head(form, "epochd-config", (), fail)
    r = sexpr.Record(form, 1, fail)
    cfg = DaemonConfig(artifact_path=r.one("artifact", TEXT))
    cfg.base_dir = r.one("base-dir", TEXT, cfg.base_dir)
    cfg.wal_dir = r.one("wal-dir", TEXT, cfg.wal_dir)
    cfg.friction_path = r.one("friction", TEXT, cfg.friction_path)
    listen = r.form("listen")
    if listen is not None:
        cfg.host, cfg.port = sexpr.read_head(listen, "listen", (TEXT, Integer), fail, exact=True)
    cfg.witnesses = r.many("witnesses", TEXT)
    thresholds = r.form("thresholds")
    if thresholds is not None:
        t = sexpr.Record(thresholds, 1, fail)
        cfg.theta1 = float(t.one("theta1", Integer, cfg.theta1))
        cfg.theta2 = float(t.one("theta2", Integer, cfg.theta2))
        cfg.window = t.one("window", Integer, cfg.window)
        t.done()
    cfg.runner_template = r.many("runner", TEXT) or cfg.runner_template
    r.done()
    return cfg


def build_service(cfg: DaemonConfig) -> "KernelService":
    """Load artifact, guidebooks, prior WAL, and friction from disk;
    refuse startup on guidebook inconsistency or a broken chain."""
    artifact = model.decode_text(_disk_reader(cfg.artifact_path))
    base_dir = cfg.base_dir or os.path.dirname(cfg.artifact_path) or "."
    ledger = co.FrictionLedger()
    if cfg.friction_path and os.path.exists(cfg.friction_path):
        ledger = co.load_ledger(cfg.friction_path)
    resume = None
    if cfg.wal_dir and os.path.isdir(cfg.wal_dir):
        names = [n for n in os.listdir(cfg.wal_dir) if n.endswith(wal.ENTRY_SUFFIX)]
        if names:
            resume = wal.load_history(cfg.wal_dir)
    witnesses = obligations.DEFAULT_WITNESSES | frozenset(cfg.witnesses)
    kernel = kn.Kernel(
        artifact, base_dir=base_dir, wal_dir=cfg.wal_dir or None,
        ledger=ledger, witnesses=witnesses, theta1=cfg.theta1,
        theta2=cfg.theta2, window=cfg.window, resume_history=resume)
    runner = ev.make_command_runner(list(cfg.runner_template))
    return KernelService(kernel, runner=runner, friction_path=cfg.friction_path)


# ----------------------------------------------------------- encoding


def ok(*payload) -> str:
    return sexpr.print_canonical(SList([Symbol("ok")] + list(payload)))


def err(code: str, message: str, *payload) -> str:
    items = [Symbol("err"), Symbol(code), String(message)]
    items.extend(payload)
    return sexpr.print_canonical(SList(items))


def _violations_form(violations) -> SList:
    rows = [
        SList((Symbol("violation"), Symbol(v.obligation_id), Symbol(v.kind),
               String(v.subject), String(v.message)))
        for v in violations
    ]
    return SList([Symbol("violations")] + rows)


def _lines_form(text: str) -> SList:
    return SList([Symbol("lines")] + [String(line) for line in text.splitlines()])


def response_lines(form) -> str:
    """Rejoin a (lines "…" …) payload into the original text."""
    return "\n".join(n.text for n in form.items[1:] if isinstance(n, String))


class ServiceError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class KernelService:
    """One artifact's verbs behind handle(text) -> text."""

    def __init__(self, kernel: kn.Kernel, *, runner=None, file_reader=None,
                 friction_path: str = ""):
        self.kernel = kernel
        self.runner = runner if runner is not None else (lambda paths: (False, "no runner configured"))
        self.file_reader = file_reader
        self.friction_path = friction_path
        self._verbs = {
            "ping": self._ping,
            "read-system": self._read_system,
            "what-if": self._what_if,
            "precommit-check": self._precommit,
            "commit-change-set": self._commit,
            "claim-feature": self._claim,
            "run-evidence-gate": self._evidence_gate,
            "record-lesson": self._record_lesson,
            "lessons-for-scope": self._lessons_for_scope,
            "retroactive-verify": self._retroactive,
            "artifact-health": self._health,
            "traceability-matrix": self._matrix,
            "compliance-report": self._report,
            "impact-analysis": self._impact,
            "friction-score": self._friction_score,
            "tier-of": self._tier_of,
        }

    # ------------------------------------------------------- plumbing

    def handle(self, text: str) -> str:
        try:
            form = sexpr.parse(text)
        except sexpr.SexprError as e:
            return err("parse", str(e))
        if not isinstance(form, SList) or not form.items or not isinstance(form[0], Symbol):
            return err("parse", "request must be (verb args...)")
        verb = form[0].text
        handler = self._verbs.get(verb)
        if handler is None:
            return err("unknown-verb", verb)
        try:
            return handler(form.items[1:])
        except ServiceError as e:
            return err(e.code, str(e))
        except (model.ModelError, ls.LessonError, ev.EvidenceError,
                co.CoordinationError, wal.WalError, gb.GuidebookError) as e:
            return err("bad-args", str(e))
        except Exception as e:  # totality: no verb may kill the service
            return err("internal", f"{type(e).__name__}: {e}")

    def _persist_friction(self):
        if self.friction_path:
            co.save_ledger(self.friction_path, self.kernel.ledger)

    def _arg(self, args, index, what):
        if index >= len(args):
            raise ServiceError("bad-args", f"missing {what}")
        return args[index]

    def _arg_text(self, args, index, what) -> str:
        node = self._arg(args, index, what)
        if not isinstance(node, TEXT):
            raise ServiceError("bad-args", f"{what} must be text")
        return node.text

    def _change_set(self, args, index) -> model.ChangeSet:
        return model.change_set_from_sexpr(self._arg(args, index, "change set"))

    # ----------------------------------------------------------- verbs

    def _ping(self, args):
        return ok(Symbol("pong"))

    def _read_system(self, args):
        return ok(model.encode(self.kernel.artifact))

    def _verdict_payload(self, verdict):
        if verdict.passed:
            return ok(SList((Symbol("verdict"), Symbol("pass"))))
        return ok(SList((Symbol("verdict"), Symbol("fail"),
                         _violations_form(verdict.violations),
                         _lines_form(obligations.render_verdict(verdict)))))

    def _what_if(self, args):
        return self._verdict_payload(self.kernel.what_if(self._change_set(args, 0)))

    def _precommit(self, args):
        return self._verdict_payload(
            self.kernel.precommit_check(self._change_set(args, 0)))

    def _commit(self, args):
        cs = self._change_set(args, 0)
        expected = None
        if len(args) > 1:
            expected = self._arg_text(args, 1, "expected fingerprint")
        result = self.kernel.commit_change_set(cs, expected)
        self._persist_friction()
        if result.accepted:
            head = self.kernel.history.head
            return ok(SList((
                Symbol("committed"),
                SList((Symbol("index"), Integer(head.index))),
                SList((Symbol("digest"), String(head.entry_digest))),
            )))
        if result.reason == "stale-state":
            return err("stale-state", "head moved; re-read and retry")
        return err("rejected", obligations.render_verdict(result.verdict),
                   _violations_form(result.verdict.violations))

    def _claim(self, args):
        agent = self._arg_text(args, 0, "agent")
        feature_id = self._arg_text(args, 1, "feature id")
        out = co.claim_feature(
            self.kernel.artifact, self.kernel.ledger, agent, feature_id,
            self.kernel.clock(), theta1=self.kernel.theta1,
            theta2=self.kernel.theta2, window=self.kernel.window)
        if isinstance(out, co.Refusal):
            self._persist_friction()
            return err("refused", f"{out.reason}: {out.detail}")
        result = self.kernel.commit_change_set(out)
        self._persist_friction()
        if not result.accepted:
            return err("rejected", obligations.render_verdict(result.verdict),
                       _violations_form(result.verdict.violations))
        claim = self.kernel.artifact.claim_on(feature_id)
        return ok(SList((Symbol("claimed"), Symbol(feature_id),
                         SList((Symbol("lease"), String(claim.lease_expires))))))

    def _evidence_gate(self, args):
        feature_id = self._arg_text(args, 0, "feature id")
        stamp = model.format_rfc3339(self.kernel.clock())
        out = ev.run_evidence_gate(
            self.kernel.artifact, feature_id, self.runner,
            reader=self.file_reader, timestamp=stamp)
        if isinstance(out, ev.GateFailure):
            return err("gate-failed", out.detail)
        result = self.kernel.commit_change_set(out)
        self._persist_friction()
        if not result.accepted:
            return err("rejected", obligations.render_verdict(result.verdict),
                       _violations_form(result.verdict.violations))
        record = self.kernel.artifact.evidence[-1]
        return ok(SList((Symbol("evidence"), Symbol(feature_id),
                         SList((Symbol("hash"), String(record.hash))))))

    def _record_lesson(self, args):
        actor = self._arg_text(args, 0, "actor")
        lesson = model.decode_lesson(self._arg(args, 1, "lesson form"))
        cs = ls.record_lesson(self.kernel.artifact, lesson, actor=actor)
        result = self.kernel.commit_change_set(cs)
        if not result.accepted:
            self._persist_friction()
            return err("rejected", obligations.render_verdict(result.verdict),
                       _violations_form(result.verdict.violations))
        # crystallizing a failure earns standing credit
        self.kernel.ledger.record(
            "lesson_recorded", actor,
            model.format_rfc3339(self.kernel.clock()))
        self._persist_friction()
        return ok(SList((Symbol("recorded"), Symbol(lesson.id))))

    def _lessons_for_scope(self, args):
        paths = [self._arg_text(args, i, "path") for i in range(len(args))]
        hits = ls.lessons_for_scope(self.kernel.artifact, paths)
        return ok(SList([Symbol("lessons")]
                        + [model.encode_lesson(l) for l in hits]))

    def _retroactive(self, args):
        node = self._arg(args, 0, "window size")
        if not isinstance(node, Integer):
            raise ServiceError("bad-args", "window size must be an integer")
        candidate = model.decode_obligation(self._arg(args, 1, "obligation form"))
        verdict = wal.retroactive_verify(
            self.kernel.history, candidate, node.value,
            registry=self.kernel.registry, witnesses=self.kernel.witnesses)
        if verdict.safe:
            return ok(SList((Symbol("safe"),)))
        entries = SList([Symbol("entries")]
                        + [Integer(i) for i, _ in verdict.findings])
        return ok(SList((Symbol("over-constrained"), entries)))

    def _health(self, args):
        effective = self.kernel.effective()
        verdict = obligations.evaluate(
            self.kernel.artifact, effective, registry=self.kernel.registry,
            history=self.kernel.history, probes=self.kernel._probes(),
            witnesses=self.kernel.witnesses, now=self.kernel.clock())
        count = Integer(len(effective))
        if verdict.passed:
            return ok(SList((Symbol("pass"), count)))
        return ok(SList((Symbol("fail"), count,
                         _violations_form(verdict.violations))))

    def _matrix(self, args):
        rows = wal.traceability_matrix(self.kernel.artifact)
        return ok(SList((Symbol("matrix"), _lines_form(wal.render_matrix(rows)))))

    def _report(self, args):
        report = wal.compliance_report(self.kernel.history)
        return ok(SList((Symbol("report"), _lines_form(report.render()))))

    def _impact(self, args):
        req_id = self._arg_text(args, 0, "requirement id")
        impact = wal.impact_analysis(self.kernel.artifact, req_id)

        def group(name, values):
            return SList([Symbol(name)] + [Symbol(v) for v in sorted(values)])

        return ok(SList((
            Symbol("impact"),
            group("components", impact.components),
            group("design-elements", impact.design_elements),
            group("features", impact.features),
            group("workflows", impact.workflows),
        )))

    def _friction_score(self, args):
        agent = self._arg_text(args, 0, "agent")
        score = co.friction_score(self.kernel.ledger, agent, self.kernel.window)
        return ok(SList((Symbol("score"), String(f"{score:g}"))))

    def _tier_of(self, args):
        agent = self._arg_text(args, 0, "agent")
        tier = co.tier_of(self.kernel.ledger, agent, self.kernel.theta1,
                          self.kernel.theta2, self.kernel.window)
        return ok(SList((Symbol("tier"), Symbol(tier))))


# ----------------------------------------------------------- framing


def _incomplete(error: sexpr.SexprError) -> bool:
    return isinstance(error, (sexpr.UnbalancedParens, sexpr.UnterminatedString))


def read_form_text(readline) -> str | None:
    """Accumulate lines until they parse as one complete form. Returns
    the raw text, or None when the stream ends cleanly. Hopeless input
    is returned as-is so the handler can answer (err parse ...)."""
    buf = ""
    while True:
        line = readline()
        if not line:
            return buf if buf.strip() else None
        buf += line if isinstance(line, str) else line.decode("utf-8")
        if not buf.strip():
            buf = ""
            continue
        try:
            sexpr.parse(buf)
            return buf
        except sexpr.SexprError as e:
            if _incomplete(e) and len(buf) <= MAX_REQUEST_BYTES:
                continue
            return buf


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        while True:
            text = read_form_text(self.rfile.readline)
            if text is None:
                return
            response = self.server.service.handle(text.strip())
            self.wfile.write(response.encode("utf-8") + b"\n")
            self.wfile.flush()


class DaemonServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, service: KernelService):
        super().__init__(address, _Handler)
        self.service = service


def serve(cfg: DaemonConfig, *, service: KernelService | None = None,
          ready: threading.Event | None = None) -> DaemonServer:
    """Bind and serve until shutdown(); returns the server object so
    callers (and tests) own its lifecycle."""
    svc = service if service is not None else build_service(cfg)
    server = DaemonServer((cfg.host, cfg.port), svc)
    if ready is not None:
        ready.set()
    return server


__all__ = [
    "DaemonConfig", "DaemonServer", "KernelService", "ServiceError",
    "build_service", "err", "load_config", "ok", "read_form_text",
    "response_lines", "serve",
]
