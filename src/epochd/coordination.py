"""Agent coordination: lease-backed claims, the friction ledger
sidecar, trust tiers, per-kind reputation, routing, and the decay
detector that proposes new obligations from repeated failures.

The ledger is append-only and lives outside the governed artifact, so
recording friction never has to pass the mutation gate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime, timedelta

from . import sexpr
from .model import (
    AddOp,
    Artifact,
    ChangeSet,
    Claim,
    Feature,
    ProofObligation,
    Scope,
    UpdateOp,
    encode_claim,
    encode_feature,
    encode_obligation,
    format_rfc3339,
)
from .obligations import SECTION_KINDS
from .sexpr import TEXT, Record, SList, String, Symbol, read_head

EVENT_KINDS = ("agent_rejection", "probe_success", "abandonment", "lease_expiry")

WEIGHT_REJECTION_PER_KIND = 1.0
WEIGHT_ABANDONMENT = 2.0
WEIGHT_LEASE_EXPIRY = 1.0
WEIGHT_SUCCESS = -0.5
WEIGHT_LESSON = -1.0

DEFAULT_THETA1 = 3.0
DEFAULT_THETA2 = 10.0
DEFAULT_WINDOW = 50
DEFAULT_LEASE = timedelta(hours=24)

TIER_UNRESTRICTED = "unrestricted"
TIER_SUPERVISED = "supervised"
TIER_RESTRICTED = "restricted"


class CoordinationError(Exception):
    pass


class DuplicateId(CoordinationError):
    pass


class UnknownFeature(CoordinationError):
    def __init__(self, feature_id: str):
        super().__init__(f"no feature {feature_id}")
        self.feature_id = feature_id


@dataclass(frozen=True)
class FrictionEvent:
    id: str
    kind: str
    agent: str
    timestamp: str
    po_kinds: tuple = ()
    feature: str = ""

    def __post_init__(self):
        if self.kind not in EVENT_KINDS and self.kind != "lesson_recorded":
            raise CoordinationError(f"unknown friction event kind {self.kind}")


def event_weight(e: FrictionEvent) -> float:
    if e.kind == "agent_rejection":
        return WEIGHT_REJECTION_PER_KIND * max(1, len(e.po_kinds))
    if e.kind == "abandonment":
        return WEIGHT_ABANDONMENT
    if e.kind == "lease_expiry":
        return WEIGHT_LEASE_EXPIRY
    if e.kind == "probe_success":
        return WEIGHT_SUCCESS
    return WEIGHT_LESSON


class FrictionLedger:
    def __init__(self, events=()):
        self.events: list = []
        self._ids: set = set()
        for e in events:
            self.append(e)

    def __len__(self):
        return len(self.events)

    def append(self, e: FrictionEvent) -> FrictionEvent:
        if e.id in self._ids:
            raise DuplicateId(e.id)
        self.events.append(e)
        self._ids.add(e.id)
        return e

    def record(self, kind: str, agent: str, timestamp: str,
               po_kinds=(), feature: str = "") -> FrictionEvent:
        n = len(self.events) + 1
        while f"FX-{n:02d}" in self._ids:
            n += 1
        return self.append(FrictionEvent(
            f"FX-{n:02d}", kind, agent, timestamp, tuple(po_kinds), feature,
        ))

    def events_for(self, agent: str) -> list:
        return [e for e in self.events if e.agent == agent]


def friction_score(ledger: FrictionLedger, agent: str,
                   window: int = DEFAULT_WINDOW) -> float:
    mine = ledger.events_for(agent)[-window:]
    return max(0.0, sum(event_weight(e) for e in mine))


def tier_of(ledger: FrictionLedger, agent: str, theta1: float = DEFAULT_THETA1,
            theta2: float = DEFAULT_THETA2, window: int = DEFAULT_WINDOW) -> str:
    score = friction_score(ledger, agent, window)
    if score < theta1:
        return TIER_UNRESTRICTED
    if score < theta2:
        return TIER_SUPERVISED
    return TIER_RESTRICTED


# ----------------------------------------------------------- sidecar


def ledger_to_text(ledger: FrictionLedger) -> str:
    rows = []
    for e in ledger.events:
        items = [
            Symbol("friction-event"), Symbol(e.id),
            SList((Symbol("kind"), Symbol(e.kind))),
            SList((Symbol("agent"), Symbol(e.agent))),
            SList((Symbol("timestamp"), String(e.timestamp))),
        ]
        if e.po_kinds:
            items.append(SList([Symbol("po-kinds")] + [Symbol(k) for k in e.po_kinds]))
        if e.feature:
            items.append(SList((Symbol("feature"), Symbol(e.feature))))
        rows.append(SList(items))
    form = SList((
        Symbol("agent-friction-ledger"),
        SList([Symbol("events")] + rows),
    ))
    return sexpr.print_canonical(form)


def ledger_from_text(text: str) -> FrictionLedger:
    form = sexpr.parse(text)
    read_head(form, "agent-friction-ledger", (), CoordinationError)
    r = Record(form, 1, CoordinationError)
    events = [_event_from_sexpr(row) for row in r.many("events", SList)]
    r.done()
    return FrictionLedger(events)


def _event_from_sexpr(row) -> FrictionEvent:
    eid, = read_head(row, "friction-event", (Symbol,), CoordinationError)
    r = Record(row, 2, lambda message: CoordinationError(f"{eid}: {message}"))
    event = FrictionEvent(eid, r.one("kind", Symbol), r.one("agent", TEXT, ""),
                          r.one("timestamp", String, ""), r.many("po-kinds", Symbol),
                          r.one("feature", Symbol, ""))
    r.done()
    return event


def save_ledger(path: str, ledger: FrictionLedger):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ledger_to_text(ledger) + "\n")


def load_ledger(path: str) -> FrictionLedger:
    with open(path, "r", encoding="utf-8") as fh:
        return ledger_from_text(fh.read())


# ------------------------------------------------------------ claims


@dataclass(frozen=True)
class Refusal:
    reason: str  # restricted-tier | active-lease | not-claimable
    detail: str = ""


def claim_feature(a: Artifact, ledger: FrictionLedger, agent: str, feature_id: str,
                  now: datetime, lease: timedelta = DEFAULT_LEASE,
                  theta1: float = DEFAULT_THETA1, theta2: float = DEFAULT_THETA2,
                  window: int = DEFAULT_WINDOW):
    """Build the coordination ChangeSet that claims a feature, or
    refuse. A takeover of a lapsed lease records a lease_expiry event
    against the previous holder."""
    feat = a.feature(feature_id)
    if feat is None:
        raise UnknownFeature(feature_id)
    if tier_of(ledger, agent, theta1, theta2, window) == TIER_RESTRICTED:
        return Refusal("restricted-tier", f"{agent} may not claim features")
    existing = a.claim_on(feature_id)
    if existing is not None and existing.agent != agent and not existing.expired(now):
        return Refusal("active-lease",
                       f"{existing.agent} holds the lease until {existing.lease_expires}")
    if feat.status == "delivered":
        return Refusal("not-claimable", "feature is already delivered")
    if existing is not None and existing.expired(now):
        ledger.record("lease_expiry", existing.agent, format_rfc3339(now),
                      feature=feature_id)
    new_claim = Claim(agent=agent, feature=feature_id,
                      lease_expires=format_rfc3339(now + lease))
    ops = []
    if feat.status != "claimed":
        ops.append(UpdateOp("features", feature_id,
                            encode_feature(replace(feat, status="claimed"))))
    if existing is None:
        ops.append(AddOp("coordination", encode_claim(new_claim)))
    else:
        ops.append(UpdateOp("coordination", feature_id, encode_claim(new_claim)))
    return ChangeSet(ops=tuple(ops), actor=agent,
                     intent=f"claim {feature_id}")


# -------------------------------------------------------- reputation


def reputation(ledger: FrictionLedger, agent: str) -> dict:
    """po_kind -> (successes, failures) from the agent's whole record."""
    rep: dict = {}
    for e in ledger.events_for(agent):
        if e.kind == "probe_success":
            for k in e.po_kinds:
                s, f = rep.get(k, (0, 0))
                rep[k] = (s + 1, f)
        elif e.kind == "agent_rejection":
            for k in e.po_kinds:
                s, f = rep.get(k, (0, 0))
                rep[k] = (s, f + 1)
    return rep


def implied_kinds(scope: Scope) -> frozenset:
    """Obligation kinds a feature's scope puts in play, via the same
    section map the incremental verifier uses: requirement ids touch
    the requirements section, code paths the features section, test
    paths the coordination section."""
    sections = []
    if scope.requirements:
        sections.append("requirements")
    if scope.code_paths:
        sections.append("features")
    if scope.test_paths:
        sections.append("coordination")
    kinds: set = set()
    for s in sections:
        kinds |= SECTION_KINDS[s]
    return frozenset(kinds)


def routing_score_for_kinds(rep: dict, kinds) -> float:
    score = 1.0
    for k in sorted(kinds):
        s, f = rep.get(k, (0, 0))
        score *= (s + 1) / (s + f + 2)
    return score


def routing_score(rep: dict, scope: Scope) -> float:
    return routing_score_for_kinds(rep, implied_kinds(scope))


def preflight_warnings(rep: dict, scope: Scope) -> list:
    """(po_kind, smoothed failure rate) for historically failed kinds,
    worst first."""
    out = []
    for k in sorted(implied_kinds(scope)):
        s, f = rep.get(k, (0, 0))
        rate = (f + 1) / (s + f + 2)
        if rate > 0.5:
            out.append((k, rate))
    out.sort(key=lambda pair: (-pair[1], pair[0]))
    return out


# ----------------------------------------------------- decay detector

# Repeated scope-symmetry failures historically motivated a standing
# delivery obligation, so that kind maps to a cascade candidate.
_CANDIDATE_KIND = {"feature-code-test-symmetry": "delivery-cascade"}

_TEMPLATED_KINDS = frozenset({
    "traceability-complete", "connector-integrity", "connector-existence",
    "dag-enforcement", "feature-code-test-symmetry", "delivery-cascade",
    "evidence-provenance", "claim-before-dispatch",
})


def decay_detect(a: Artifact, ledger: FrictionLedger, what_if_check,
                 threshold: int = 5, window: int = DEFAULT_WINDOW,
                 actor: str = "decay-detector", now: str = "") -> list:
    """Propose obligations for failure kinds that keep recurring.
    Each candidate is verified against the current state through the
    injected what_if checker; failing candidates are dropped."""
    recent = ledger.events[-window:]
    counts: dict = {}
    for e in recent:
        if e.kind != "agent_rejection":
            continue
        for k in e.po_kinds:
            counts[k] = counts.get(k, 0) + 1
    proposals = []
    existing_kinds = {ob.kind for ob in a.obligations}
    for kind in sorted(counts):
        if counts[kind] < threshold:
            continue
        target = _CANDIDATE_KIND.get(kind, kind)
        if target not in _TEMPLATED_KINDS or target in existing_kinds:
            continue
        po = ProofObligation(
            id=f"PO-{target.upper()}",
            kind=target,
            description=f"Adopted after repeated {kind} rejections",
        )
        if any(ob.id == po.id for ob in a.obligations):
            continue
        proposal_feature = Feature(
            id=f"F-ADOPT-{target.upper()}",
            name=f"Adopt {po.id}",
            status="open",
            scope=Scope(),
        )
        if a.feature(proposal_feature.id) is not None:
            continue
        cs = ChangeSet(
            ops=(
                AddOp("proof-obligations", encode_obligation(po)),
                AddOp("features", encode_feature(proposal_feature)),
            ),
            actor=actor,
            intent=f"adopt {po.id} after {counts[kind]} {kind} rejections",
        )
        if what_if_check(cs):
            proposals.append(cs)
    return proposals


__all__ = [
    "DEFAULT_LEASE", "DEFAULT_THETA1", "DEFAULT_THETA2", "DEFAULT_WINDOW",
    "CoordinationError", "DuplicateId", "EVENT_KINDS", "FrictionEvent",
    "FrictionLedger", "Refusal", "TIER_RESTRICTED", "TIER_SUPERVISED",
    "TIER_UNRESTRICTED", "UnknownFeature", "claim_feature", "decay_detect",
    "event_weight", "friction_score", "implied_kinds", "ledger_from_text",
    "ledger_to_text", "load_ledger", "preflight_warnings", "reputation",
    "routing_score", "routing_score_for_kinds", "save_ledger", "tier_of",
]
