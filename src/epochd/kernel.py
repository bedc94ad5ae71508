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
from contextlib import contextmanager
from dataclasses import dataclass

from . import coordination, guidebook as gb, lessons, model, obligations, wal
from .model import (
    Artifact,
    ChangeSet,
    Lesson,
    ModelError,
    apply_change_set,
    artifact_fingerprint,
    change_set_fingerprint,
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
    entry: wal.WalEntry | None = None  # the log entry an accepted commit wrote
    reason: str = ""


def _heap_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Kernel:
    """Single-writer gate over one artifact, its guidebooks, its WAL,
    and its friction ledger. Every public call holds the gate lock
    while it reads or changes any of them."""

    def __init__(self, artifact: Artifact, *, guidebook_reader=None, base_dir: str = ".",
                 registry=None, witnesses=None, wal_dir: str | None = None,
                 friction_path: str = "", clock=None, probe_source=None, ledger=None,
                 theta1: float = coordination.DEFAULT_THETA1,
                 theta2: float = coordination.DEFAULT_THETA2,
                 window: int = coordination.DEFAULT_WINDOW,
                 verify_initial: bool = True,
                 resume_history: wal.History | None = None):
        self._lock = threading.RLock()
        self._depth = 0  # nesting of the gate lock held by its owner
        self.registry = registry if registry is not None else obligations.builtin_registry()
        self.witnesses = frozenset(witnesses) if witnesses else obligations.DEFAULT_WITNESSES
        self.clock = clock if clock is not None else model.utcnow
        self.probe_source = probe_source
        self.ledger = ledger if ledger is not None else coordination.FrictionLedger()
        self.theta1, self.theta2, self.window = theta1, theta2, window
        self.wal_dir = wal_dir
        self.friction_path = friction_path
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
        self.history.append(self.artifact, genesis, self.wal_dir)

    # ------------------------------------------------------- plumbing

    @contextmanager
    def _gate(self):
        """Hold the gate lock. The outermost holder writes the friction
        ledger on its way out, once, if an event was recorded inside."""
        with self._lock:
            self._depth += 1
            events = len(self.ledger)
            try:
                yield
            finally:
                self._depth -= 1
                if not self._depth and self.friction_path and len(self.ledger) != events:
                    coordination.save_ledger(self.friction_path, self.ledger)

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
        return RuntimeProbes(
            heap_bytes=_heap_bytes(),
            last_verification_ms=self._last_verification_ms,
            in_memory_fingerprint=self.head_fingerprint(),
            wal_head_fingerprint=self.history.head.state_digest,
        )

    def _fail(self, ob_id: str, kind: str, subject: str, message: str) -> Verdict:
        carrier = synthetic_obligation(ob_id, kind)
        return Verdict(((carrier, (Violation(ob_id, kind, subject, message),)),))

    # ----------------------------------------------------- evaluation

    def _gate_verdict(self, cs: ChangeSet, touched) -> tuple:
        """(verdict, candidate, books). touched=None means full."""
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
                candidate, effective, touched, registry=self.registry,
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
        with self._gate():
            verdict, _, _ = self._gate_verdict(cs, None)
            if verdict.passed:
                self._approvals.add((cs.actor, change_set_fingerprint(cs)))
            return verdict

    def precommit_check(self, cs: ChangeSet) -> Verdict:
        """Incremental check: only the obligations whose declared reads
        meet the touched sections or include runtime probes, plus the
        cheap gate-level guards."""
        with self._gate():
            verdict, _, _ = self._gate_verdict(cs, sections_touched(cs))
            return verdict

    def commit_change_set(self, cs: ChangeSet,
                          expected_fingerprint: str | None = None) -> CommitResult:
        with self._gate():
            if (expected_fingerprint is not None
                    and expected_fingerprint != self.head_fingerprint()):
                return CommitResult(False, Verdict(), None, "stale-state")

            verdict, candidate, books = self._gate_verdict(cs, None)
            supervision = self._supervision_violations(cs)
            if supervision:
                verdict = verdict.extend(
                    synthetic_obligation("SUPERVISED-COMMIT", "trust-tier"), supervision,
                )
            stamp = format_rfc3339(self.clock())
            touched = feature_ids_touched(cs)

            if not verdict.passed:
                failing = sorted({v.kind for v in verdict.violations})
                self.ledger.record("agent_rejection", cs.actor, stamp,
                                   po_kinds=failing, feature=next(iter(touched), ""))
                return CommitResult(False, verdict, None, "rejected")

            before_delivered = self.artifact.delivered_ids()
            attestation = wal.Attestation(
                agent=cs.actor,
                features=tuple(touched),
                verdict="pass",
                fingerprint_before=self.head_fingerprint(),
                fingerprint_after=artifact_fingerprint(candidate),
                timestamp=stamp,
                intent=cs.intent,
            )
            # the entry is on disk before the gate serves the new state
            entry = self.history.append(candidate, attestation, self.wal_dir)
            self.artifact, self.books = candidate, books
            self._approvals.clear()  # each approval was for the old head

            sections = sections_touched(cs)
            credited = sorted({ob.kind for ob, _ in verdict.results
                               if not self.registry.reads(ob).isdisjoint(sections)})
            self.ledger.record("probe_success", cs.actor, stamp,
                               po_kinds=credited, feature=next(iter(touched), ""))
            self._credit_collaborators(cs, candidate, before_delivered, credited, stamp)
            return CommitResult(True, verdict, entry, "committed")

    def claim(self, agent: str, feature_id: str):
        """Claim a feature for an agent: a Refusal, or the result of
        committing the claim. Taking over a lapsed lease records a
        lease_expiry event against the previous holder."""
        with self._gate():
            out = coordination.claim_feature(
                self.artifact, self.ledger, agent, feature_id, self.clock(),
                theta1=self.theta1, theta2=self.theta2, window=self.window)
            if isinstance(out, coordination.Refusal):
                return out
            return self.commit_change_set(out)

    def record_lesson(self, actor: str, lesson: Lesson) -> CommitResult:
        """Commit a lesson; an accepted one earns its actor standing
        credit in the friction ledger."""
        with self._gate():
            result = self.commit_change_set(
                lessons.record_lesson(self.artifact, lesson, actor=actor))
            if result.accepted:
                self.ledger.record("lesson_recorded", actor,
                                   format_rfc3339(self.clock()))
            return result

    def health(self) -> tuple:
        """(effective obligation count, full verdict with runtime
        probes) for the head state."""
        with self._gate():
            effective = self.effective()
            verdict = obligations.evaluate(
                self.artifact, effective, registry=self.registry,
                history=self.history, probes=self._probes(),
                witnesses=self.witnesses, now=self.clock())
            return len(effective), verdict

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


__all__ = [
    "CommitResult", "GuidebookInconsistent", "Kernel", "KernelError",
    "RatchetState", "ratchet_violations",
]
