"""The mutation gate.

Every change to the governed artifact flows through one Kernel:
speculative what_if, incremental precommit_check, and the verifying
commit_change_set that appends to the hash-chained log only after the
candidate state passes every effective obligation, the immutability
guard, and the monotonic ratchets. Rejected states never persist.
"""

from __future__ import annotations

import resource
import threading
import time
from dataclasses import dataclass

from . import coordination, guidebook as gb, model, obligations, wal
from .model import (
    AddOp,
    Artifact,
    ChangeSet,
    ModelError,
    Trace,
    UpdateOp,
    apply_change_set,
    artifact_fingerprint,
    change_set_fingerprint,
    encode_feature,
    encode_trace,
    feature_ids_touched,
    format_rfc3339,
    sections_touched,
)
from .obligations import RuntimeProbes, Verdict, Violation, synthetic_obligation

FATAL_GUIDEBOOK_ISSUES = frozenset({
    "unsat", "joint-unsat", "mixed-scope", "unregistered-kind",
})


class KernelError(Exception):
    pass


class GuidebookInconsistent(KernelError):
    def __init__(self, issues):
        super().__init__("; ".join(str(i) for i in issues))
        self.issues = tuple(issues)


@dataclass(frozen=True)
class RatchetState:
    requirement_count: int
    obligation_count: int
    delivered: frozenset
    lesson_count: int

    @classmethod
    def of(cls, a: Artifact) -> "RatchetState":
        return cls(
            requirement_count=len(a.requirements),
            obligation_count=len(a.obligations),
            delivered=a.delivered_ids(),
            lesson_count=len(a.lessons),
        )


def ratchet_violations(before: RatchetState, after: RatchetState) -> list:
    out = []
    def flag(subject, message):
        out.append(Violation("RATCHET", "ratchet", subject, message))
    if after.requirement_count < before.requirement_count:
        flag("requirements",
             f"requirement count would drop {before.requirement_count} -> "
             f"{after.requirement_count}")
    if after.obligation_count < before.obligation_count:
        flag("proof-obligations",
             f"obligation count would drop {before.obligation_count} -> "
             f"{after.obligation_count}")
    lost = before.delivered - after.delivered
    if lost:
        flag("features", "delivered features would revert: " + ", ".join(sorted(lost)))
    if after.lesson_count < before.lesson_count:
        flag("lessons",
             f"lesson count would drop {before.lesson_count} -> {after.lesson_count}")
    return out


@dataclass(frozen=True)
class CommitResult:
    accepted: bool
    verdict: Verdict
    attestation: wal.Attestation | None = None
    reason: str = ""


def _heap_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Kernel:
    """Single-writer gate over one artifact, its guidebooks, its WAL,
    and its friction ledger."""

    def __init__(self, artifact: Artifact, *, guidebook_reader=None, base_dir: str = ".",
                 registry=None, witnesses=None, wal_dir: str | None = None,
                 clock=None, probe_source=None, ledger=None,
                 theta1: float = coordination.DEFAULT_THETA1,
                 theta2: float = coordination.DEFAULT_THETA2,
                 window: int = coordination.DEFAULT_WINDOW,
                 verify_initial: bool = True,
                 resume_history: wal.History | None = None):
        self._lock = threading.Lock()
        self.registry = registry if registry is not None else obligations.builtin_registry()
        self.witnesses = frozenset(witnesses) if witnesses else obligations.DEFAULT_WITNESSES
        self.clock = clock if clock is not None else model.utcnow
        self.probe_source = probe_source
        self.ledger = ledger if ledger is not None else coordination.FrictionLedger()
        self.theta1, self.theta2, self.window = theta1, theta2, window
        self.wal_dir = wal_dir
        self._reader = guidebook_reader
        self._base_dir = base_dir
        self._last_verification_ms = 0
        self._approvals: set = set()  # (actor, change_set fingerprint) passed what_if
        self.warnings: tuple = ()

        self.history = resume_history or wal.History()
        if self.history.head is not None:
            artifact = self.history.artifact_at(self.history.head.index)
        self.artifact = artifact
        self.books = self._resolve_books(artifact)
        self._check_books(self.books)
        if self.history.head is None:
            self._record_genesis(verify_initial)
        self.history.validate()  # start only on a chain whose digests all check

    def _record_genesis(self, verify_initial: bool):
        if verify_initial:
            verdict = obligations.evaluate(
                self.artifact, self.effective(), registry=self.registry,
                witnesses=self.witnesses, now=self.clock(),
            )
            if not verdict.passed:
                raise KernelError(
                    "initial state fails verification:\n"
                    + obligations.render_verdict(verdict),
                )
        genesis = wal.Attestation(
            agent="kernel", features=(), verdict="pass",
            fingerprint_before=wal.ZERO_DIGEST,
            fingerprint_after=self.head_fingerprint(),
            timestamp=format_rfc3339(self.clock()),
            intent="genesis",
        )
        entry = self.history.append(self.artifact, genesis)
        if self.wal_dir:
            wal.save_entry(self.wal_dir, entry)

    # ------------------------------------------------------- plumbing

    def _resolve_books(self, a: Artifact) -> tuple:
        if not a.guidebook_imports:
            return ()
        return gb.load_guidebooks(a.guidebook_imports, base_dir=self._base_dir,
                                  reader=self._reader)

    def _check_books(self, books):
        issues = gb.check_guidebook_consistency(books, registry=self.registry)
        fatal = [i for i in issues if i.kind in FATAL_GUIDEBOOK_ISSUES]
        if fatal:
            raise GuidebookInconsistent(fatal)
        self.warnings = tuple(i for i in issues if i.kind not in FATAL_GUIDEBOOK_ISSUES)

    def effective(self, artifact: Artifact | None = None, books=None) -> tuple:
        a = artifact if artifact is not None else self.artifact
        b = books if books is not None else self.books
        return gb.effective_obligations(a.obligations, b)

    def head_fingerprint(self) -> str:
        return artifact_fingerprint(self.artifact)

    def _probes(self) -> RuntimeProbes:
        if self.probe_source is not None:
            return self.probe_source(self)
        head = self.history.head
        return RuntimeProbes(
            heap_bytes=_heap_bytes(),
            last_verification_ms=self._last_verification_ms,
            in_memory_fingerprint=self.head_fingerprint(),
            wal_head_fingerprint=head.state_digest if head else self.head_fingerprint(),
        )

    def _fail(self, ob_id: str, kind: str, subject: str, message: str) -> Verdict:
        carrier = synthetic_obligation(ob_id, kind)
        return Verdict(((carrier, (Violation(ob_id, kind, subject, message),)),))

    # ----------------------------------------------------- evaluation

    def _gate_verdict(self, cs: ChangeSet, kinds) -> tuple:
        """(verdict, candidate, books). kinds=None means full."""
        started = time.monotonic()
        try:
            candidate = apply_change_set(self.artifact, cs)
        except ModelError as err:
            return (self._fail("CHANGE-SET", "change-set-application",
                               cs.actor, str(err)), None, None)

        books = self.books
        if "guidebooks" in sections_touched(cs):
            try:
                books = self._resolve_books(candidate)
            except gb.GuidebookError as err:
                return (self._fail("GUIDEBOOK-RESOLVE", "guidebook-resolution",
                                   cs.actor, str(err)), None, None)
            issues = gb.check_guidebook_consistency(books, registry=self.registry)
            fatal = [i for i in issues if i.kind in FATAL_GUIDEBOOK_ISSUES]
            if fatal:
                carrier = synthetic_obligation("GUIDEBOOK-CONSISTENCY", "guidebook-consistency")
                vs = tuple(
                    Violation("GUIDEBOOK-CONSISTENCY", "guidebook-consistency",
                              i.constraint_id or i.guidebook, str(i))
                    for i in fatal
                )
                return (Verdict(((carrier, vs),)), None, None)

        effective = self.effective(candidate, books)
        try:
            verdict = obligations.evaluate_kinds(
                candidate, effective, kinds, registry=self.registry,
                baseline=self.artifact, change_set=cs, history=self.history,
                probes=self._probes(), witnesses=self.witnesses, now=self.clock(),
            )
        except obligations.UnregisteredKind as err:
            return (self._fail("REGISTRY", "unregistered-kind", cs.actor, str(err)),
                    None, None)

        # gate-level guards ride the verdict only when they fire, so a
        # clean run renders exactly the effective obligation rows
        guard = obligations.immutability_guard(self.artifact.obligations,
                                               candidate.obligations)
        if guard:
            verdict = verdict.extend(
                synthetic_obligation("IMMUTABILITY-GUARD", "immutable-obligations"),
                guard,
            )
        ratchets = ratchet_violations(RatchetState.of(self.artifact),
                                      RatchetState.of(candidate))
        if ratchets:
            verdict = verdict.extend(synthetic_obligation("RATCHET", "ratchet"),
                                     ratchets)
        tiers = self._tier_violations(cs, candidate)
        if tiers:
            verdict = verdict.extend(synthetic_obligation("TIER-GATE", "trust-tier"),
                                     tiers)
        self._last_verification_ms = int((time.monotonic() - started) * 1000)
        return verdict, candidate, books

    def _tier_violations(self, cs: ChangeSet, candidate: Artifact) -> list:
        before = {c.feature: c for c in self.artifact.claims}
        out = []
        for c in candidate.claims:
            if before.get(c.feature) == c:
                continue
            tier = coordination.tier_of(self.ledger, c.agent,
                                        self.theta1, self.theta2, self.window)
            if tier == coordination.TIER_RESTRICTED:
                out.append(Violation(
                    "TIER-GATE", "trust-tier", c.feature,
                    f"agent {c.agent} is restricted and may not hold claims",
                ))
        return out

    def _supervision_violations(self, cs: ChangeSet) -> list:
        tier = coordination.tier_of(self.ledger, cs.actor,
                                    self.theta1, self.theta2, self.window)
        if tier != coordination.TIER_SUPERVISED:
            return []
        if (cs.actor, change_set_fingerprint(cs)) in self._approvals:
            return []
        return [Violation(
            "SUPERVISED-COMMIT", "trust-tier", cs.actor,
            "supervised actor must run what_if on this exact change set first",
        )]

    # --------------------------------------------------------- public

    def what_if(self, cs: ChangeSet) -> Verdict:
        """Full speculative evaluation; persists nothing and records
        no friction. A pass is remembered as the supervised-commit
        approval for this exact change set."""
        with self._lock:
            verdict, _, _ = self._gate_verdict(cs, None)
            if verdict.passed:
                self._approvals.add((cs.actor, change_set_fingerprint(cs)))
            return verdict

    def precommit_check(self, cs: ChangeSet) -> Verdict:
        """Incremental check: only obligation kinds the touched
        sections can affect, plus the always-run kinds and the cheap
        gate-level guards."""
        with self._lock:
            kinds = obligations.kinds_for_sections(sections_touched(cs))
            verdict, _, _ = self._gate_verdict(cs, kinds)
            return verdict

    def commit_change_set(self, cs: ChangeSet,
                          expected_fingerprint: str | None = None) -> CommitResult:
        with self._lock:
            if (expected_fingerprint is not None
                    and expected_fingerprint != self.head_fingerprint()):
                return CommitResult(False, Verdict(), None, "stale-state")

            verdict, candidate, books = self._gate_verdict(cs, None)
            supervision = self._supervision_violations(cs)
            if supervision:
                verdict = verdict.extend(
                    synthetic_obligation("SUPERVISED-COMMIT", "trust-tier"), supervision,
                )
            now = self.clock()
            stamp = format_rfc3339(now)

            if not verdict.passed:
                failing = sorted({v.kind for v in verdict.violations})
                self.ledger.record("agent_rejection", cs.actor, stamp,
                                   po_kinds=failing,
                                   feature=next(iter(feature_ids_touched(cs)), ""))
                return CommitResult(False, verdict, None, "rejected")

            before_fp = self.head_fingerprint()
            before_delivered = self.artifact.delivered_ids()
            self.artifact = candidate
            self.books = books
            after_fp = self.head_fingerprint()
            attestation = wal.Attestation(
                agent=cs.actor,
                features=tuple(feature_ids_touched(cs)),
                verdict="pass",
                fingerprint_before=before_fp,
                fingerprint_after=after_fp,
                timestamp=stamp,
                intent=cs.intent,
            )
            entry = self.history.append(candidate, attestation)
            if self.wal_dir:
                wal.save_entry(self.wal_dir, entry)

            kinds = obligations.kinds_for_sections(sections_touched(cs))
            if kinds is None:
                kinds = frozenset(ob.kind for ob, _ in verdict.results)
            credited = sorted(kinds)
            self.ledger.record("probe_success", cs.actor, stamp,
                               po_kinds=credited,
                               feature=next(iter(feature_ids_touched(cs)), ""))
            self._credit_collaborators(cs, candidate, before_delivered, credited, stamp)
            return CommitResult(True, verdict, attestation, "committed")

    def _credit_collaborators(self, cs: ChangeSet, candidate: Artifact,
                              before_delivered: frozenset, credited, stamp: str):
        newly = candidate.delivered_ids() - before_delivered
        if not newly:
            return
        for fid in sorted(newly):
            feat = candidate.feature(fid)
            reqs = set(feat.scope.requirements) if feat else set()
            for claim in candidate.claims:
                if claim.agent == cs.actor:
                    continue
                other = candidate.feature(claim.feature)
                if other is None:
                    continue
                overlap = claim.feature == fid or (reqs & set(other.scope.requirements))
                if overlap:
                    self.ledger.record("probe_success", claim.agent, stamp,
                                       po_kinds=credited, feature=fid)

    # ---------------------------------------------------------- repair

    def verified_repair_search(self, cs: ChangeSet, failed: Verdict) -> list:
        """Template-based fixes for the failure kinds that have one;
        every returned ChangeSet has passed what_if."""
        extra_ops = []
        candidate_state = None
        try:
            candidate_state = apply_change_set(self.artifact, cs)
        except ModelError:
            return []
        for v in failed.violations:
            ops = self._repair_ops(v, candidate_state, len(extra_ops))
            extra_ops.extend(ops)
        if not extra_ops:
            return []
        repaired = ChangeSet(
            ops=cs.ops + tuple(extra_ops),
            actor=cs.actor,
            intent=cs.intent + " (with verified repair)",
        )
        verdict, _, _ = self._gate_verdict(repaired, None)
        if verdict.passed:
            self._approvals.add((repaired.actor, change_set_fingerprint(repaired)))
            return [repaired]
        return []

    def _repair_ops(self, v: Violation, state: Artifact, salt: int) -> list:
        if v.kind == "traceability-complete" and state.requirement(v.subject):
            components = [t.component for t in state.traces
                          if t.component in state.component_names()]
            designs = [t.design_element for t in state.traces
                       if t.design_element in state.design_names() | state.workflow_names()]
            component = (max(set(components), key=components.count) if components
                         else next(iter(c.name for c in state.components), None))
            design = (max(set(designs), key=designs.count) if designs
                      else next(iter(d.name for d in state.design_elements), None))
            if component is None or design is None:
                return []
            trace_ids = {t.id for t in state.traces}
            n = salt + 1
            while f"TR-AUTO-{n}" in trace_ids:
                n += 1
            return [AddOp("traceability", encode_trace(
                Trace(f"TR-AUTO-{n}", v.subject, component, design)))]
        if v.kind in ("feature-code-test-symmetry", "delivery-cascade"):
            feat = state.feature(v.subject)
            if feat is None or feat.scope.test_paths or not feat.scope.code_paths:
                return []
            derived = []
            for path in feat.scope.code_paths:
                stem = path.rsplit("/", 1)[-1]
                stem = stem[:-3] if stem.endswith(".py") else stem
                derived.append(f"tests/test_{stem}.py")
            import dataclasses as dc
            new = dc.replace(feat, scope=dc.replace(feat.scope, test_paths=tuple(derived)))
            return [UpdateOp("features", feat.id, encode_feature(new))]
        if v.kind == "connector-integrity":
            if any(c.key == v.subject for c in state.connectors):
                return [model.RemoveOp("architecture", v.subject)]
        return []


__all__ = [
    "CommitResult", "GuidebookInconsistent", "Kernel", "KernelError",
    "RatchetState", "ratchet_violations",
]
