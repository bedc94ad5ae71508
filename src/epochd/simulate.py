"""Scripted-agent scenarios against an in-process gate, plus the
lesion runner that tries to remove every element of a sandbox and
reports which obligation kind blocked each attempt.

Policies are deterministic given a seed; the clock is simulated, so
two runs with equal seeds produce byte-identical reports.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from dataclasses import dataclass, field
from datetime import timedelta

from . import coordination as co
from . import evidence as ev
from . import kernel as kn
from . import model, obligations, sandbox
from .model import (
    AddOp,
    ChangeSet,
    EvidenceRecord,
    RemoveOp,
    UpdateOp,
    encode_record,
    format_rfc3339,
    parse_rfc3339,
)

SCENARIO_START = "2026-03-10T12:00:00Z"
SCENARIO_WITNESSES = obligations.DEFAULT_WITNESSES | frozenset(sandbox.GATE_WITNESSES)

GATE_LADDER = ("FI-0", "FI-0b", "FI-0c", "FI-1")
GATE_WITNESS_OF = dict(zip(GATE_LADDER, sandbox.GATE_WITNESSES))


class SimClock:
    def __init__(self, start: str = SCENARIO_START):
        self.now = parse_rfc3339(start)

    def __call__(self):
        return self.now

    def tick(self, seconds: int = 60):
        self.now += timedelta(seconds=seconds)

    @property
    def stamp(self) -> str:
        return format_rfc3339(self.now)


class SimWorld:
    """Shared state one scenario's policies act against."""

    def __init__(self, artifact, seed: int, *, files=None):
        self.clock = SimClock()
        self.rng = random.Random(seed)
        self.files = dict(files or {})
        for f in artifact.features:
            for path in f.scope.test_paths:
                self.files.setdefault(path, b"assert True\n")
        self.kernel = kn.Kernel(
            artifact, witnesses=SCENARIO_WITNESSES, clock=self.clock)
        self.refused_claims = Counter()     # agent -> refusals
        self.fabrications = Counter()       # agent -> fabricated submissions

    @property
    def ledger(self):
        return self.kernel.ledger

    def read_file(self, path: str) -> bytes:
        return self.files[path]

    def claim(self, agent: str, feature_id: str):
        out = self.kernel.claim(agent, feature_id)
        if isinstance(out, co.Refusal):
            self.refused_claims[agent] += 1
        return out

    def submit_gate_evidence(self, agent: str, feature_id: str, witness: str):
        cs = ev.run_evidence_gate(
            self.kernel.artifact, feature_id, lambda paths: (True, "ok"),
            reader=self.read_file, timestamp=self.clock.stamp, witness=witness)
        if isinstance(cs, ev.GateFailure):
            return cs
        cs = dataclasses.replace(cs, actor=agent)
        return self.kernel.commit_change_set(cs)

    def fabricate_evidence(self, agent: str, feature_id: str):
        self.fabrications[agent] += 1
        fake = EvidenceRecord(
            feature=feature_id, witness="governance-audit", status="passed",
            hash=f"{self.rng.getrandbits(256):064x}", server_computed=True,
            timestamp=self.clock.stamp)
        cs = ChangeSet(ops=(AddOp("coordination", encode_record(fake)),),
                       actor=agent, intent=f"evidence for {feature_id}")
        return self.kernel.commit_change_set(cs)

    def deliver(self, agent: str, feature_id: str):
        feat = self.kernel.artifact.feature(feature_id)
        done = dataclasses.replace(feat, status="delivered")
        cs = ChangeSet(
            ops=(UpdateOp("features", feature_id, encode_record(done)),),
            actor=agent, intent=f"deliver {feature_id}")
        return self.kernel.commit_change_set(cs)

    def abandon(self, agent: str, feature_id: str):
        self.ledger.record("abandonment", agent, self.clock.stamp,
                           feature=feature_id)

    def open_features(self):
        return [f.id for f in self.kernel.artifact.features if f.status == "open"]

    def my_claims(self, agent: str):
        return [c.feature for c in self.kernel.artifact.claims if c.agent == agent]


class Policy:
    name = "policy"

    def agent(self, index: int) -> str:
        return f"{self.name}-{index}"

    def act(self, world: SimWorld, agent: str, step: int):
        raise NotImplementedError


class Compliant(Policy):
    """Claims a feature, walks the full gate ladder with registered
    witnesses, then delivers. Never rejected."""

    name = "compliant"

    def __init__(self):
        self.stage: dict = {}

    def act(self, world, agent, step):
        state = self.stage.get(agent)
        if state is None:
            mine = [f for f in world.my_claims(agent)
                    if world.kernel.artifact.feature(f).status != "delivered"]
            if mine:
                self.stage[agent] = (mine[0], 0)
            else:
                open_ids = [f for f in world.open_features()
                            if not world.kernel.artifact.claim_on(f)]
                if not open_ids:
                    return
                world.claim(agent, open_ids[0])
                self.stage[agent] = (open_ids[0], 0)
            return
        feature_id, gate_index = state
        if gate_index < len(GATE_LADDER):
            witness = GATE_WITNESS_OF[GATE_LADDER[gate_index]]
            world.submit_gate_evidence(agent, feature_id, witness)
            self.stage[agent] = (feature_id, gate_index + 1)
            return
        world.deliver(agent, feature_id)
        self.stage[agent] = None


class Fabricator(Policy):
    """Pushes hand-written governance-audit evidence at the gate until
    the tiers lock it out, then keeps trying to claim."""

    name = "fabricator"

    def act(self, world, agent, step):
        tier = co.tier_of(world.ledger, agent,
                          world.kernel.theta1, world.kernel.theta2,
                          world.kernel.window)
        if tier == co.TIER_RESTRICTED:
            targets = world.open_features()
            if targets:
                world.claim(agent, targets[0])
            return
        targets = world.open_features() or [world.kernel.artifact.features[0].id]
        world.fabricate_evidence(agent, targets[0])


class GateSkipper(Policy):
    """Claims properly, submits only the final gate's evidence, and
    keeps attempting delivery with the ladder unwalked."""

    name = "gate-skipper"

    def __init__(self):
        self.claimed: dict = {}

    def act(self, world, agent, step):
        feature_id = self.claimed.get(agent)
        if feature_id is None:
            mine = world.my_claims(agent)
            open_ids = mine or [f for f in world.open_features()
                                if not world.kernel.artifact.claim_on(f)]
            if not open_ids:
                return
            feature_id = open_ids[0]
            if not mine:
                world.claim(agent, feature_id)
            self.claimed[agent] = feature_id
            return
        if not any(r.feature == feature_id and r.witness == GATE_WITNESS_OF["FI-1"]
                   for r in world.kernel.artifact.evidence):
            world.submit_gate_evidence(agent, feature_id, GATE_WITNESS_OF["FI-1"])
            return
        world.deliver(agent, feature_id)


class Abandoner(Policy):
    """Claims features and walks away from them; never rejected at the
    gate but bleeds abandonment friction."""

    name = "abandoner"

    def __init__(self):
        self.holding: dict = {}

    def act(self, world, agent, step):
        held = self.holding.get(agent)
        if held:
            world.abandon(agent, held)
            self.holding[agent] = None
            return
        candidates = [f for f in world.open_features()
                      if not world.kernel.artifact.claim_on(f)]
        if not candidates:
            return
        out = world.claim(agent, candidates[0])
        if isinstance(out, kn.CommitResult) and out.accepted:
            self.holding[agent] = candidates[0]


BUILTIN_POLICIES = {
    "compliant": Compliant,
    "fabricator": Fabricator,
    "gate-skipper": GateSkipper,
    "abandoner": Abandoner,
}


@dataclass
class ScenarioResult:
    seed: int
    steps: int
    history: object
    ledger: object
    agents: tuple
    tier_track: dict           # agent -> tuple of tiers, one per step
    actions: Counter = field(default_factory=Counter)
    fabrications: Counter = field(default_factory=Counter)
    refused_claims: Counter = field(default_factory=Counter)

    def rejection_kinds(self, agent: str) -> Counter:
        out = Counter()
        for e in self.ledger.events:
            if e.agent == agent and e.kind == "agent_rejection":
                out.update(e.po_kinds)
        return out

    def fabrications_in_wal(self) -> int:
        """Evidence records in any recorded state that lack a
        registered witness or a server-computed hash."""
        found = 0
        for i in range(len(self.history)):
            a = self.history.artifact_at(i)
            for r in a.evidence:
                if (r.witness not in SCENARIO_WITNESSES
                        or not r.server_computed or not r.hash):
                    found += 1
        return found

    def final_tier(self, agent: str) -> str:
        return self.tier_track[agent][-1] if self.tier_track[agent] else ""

    def report(self) -> str:
        lines = [f"scenario seed={self.seed} steps={self.steps}"
                 f" wal-entries={len(self.history)}"
                 f" head={self.history.head.entry_digest}"]
        for agent in self.agents:
            rejected = self.rejection_kinds(agent)
            kinds = ",".join(f"{k}:{n}" for k, n in sorted(rejected.items())) or "-"
            lines.append(
                f"  {agent}: actions={self.actions[agent]}"
                f" tier={self.final_tier(agent)}"
                f" rejections={sum(rejected.values())} by-kind={kinds}"
                f" fabrications={self.fabrications[agent]}"
                f" refused-claims={self.refused_claims[agent]}")
        lines.append(f"  fabrications-in-wal={self.fabrications_in_wal()}")
        return "\n".join(lines)


def scenario_artifact(feature_count: int = 6):
    """Simulation sandbox plus the ordered gate ladder, no standing
    claims."""
    base = sandbox.simulation_artifact(feature_count)
    gate_po = model.ProofObligation(
        "PO-GATES", "gate-sequence",
        "Deliveries walk the gate ladder in order",
        immutable=True, params=sandbox.GATE_PARAMS)
    return dataclasses.replace(base, obligations=base.obligations + (gate_po,))


def run_scenario(policies, seed: int, steps: int, *, artifact=None,
                 feature_count: int = 6) -> ScenarioResult:
    """Round-robin the policies for `steps` turns each against one
    shared gate. Policy failures are data, never exceptions."""
    world = SimWorld(artifact if artifact is not None else
                     scenario_artifact(feature_count), seed)
    roster = []
    for i, policy in enumerate(policies):
        roster.append((policy, policy.agent(i)))
    tier_track = {agent: [] for _, agent in roster}
    actions = Counter()
    for step in range(steps):
        for policy, agent in roster:
            policy.act(world, agent, step)
            actions[agent] += 1
            tier_track[agent].append(co.tier_of(
                world.ledger, agent, world.kernel.theta1,
                world.kernel.theta2, world.kernel.window))
            world.clock.tick()
    return ScenarioResult(
        seed=seed, steps=steps, history=world.kernel.history,
        ledger=world.ledger, agents=tuple(a for _, a in roster),
        tier_track={a: tuple(t) for a, t in tier_track.items()},
        actions=actions, fabrications=world.fabrications,
        refused_claims=world.refused_claims.copy(),
    )


# ------------------------------------------------------------- lesion


@dataclass(frozen=True)
class LesionRow:
    element_type: str
    target: str
    rejected: bool
    guardian_kinds: tuple


@dataclass(frozen=True)
class LesionReport:
    rows: tuple

    def per_type(self) -> dict:
        out: dict = {}
        for r in self.rows:
            guarded, total, kinds = out.get(r.element_type, (0, 0, set()))
            out[r.element_type] = (
                guarded + (1 if r.rejected else 0), total + 1,
                kinds | set(r.guardian_kinds))
        return out

    def guarded_rate(self, element_type: str) -> float:
        guarded, total, _ = self.per_type()[element_type]
        return guarded / total if total else 0.0

    def render(self) -> str:
        lines = ["lesion report"]
        for element_type, (guarded, total, kinds) in sorted(self.per_type().items()):
            lines.append(
                f"  {element_type}: {guarded}/{total} guarded"
                f" by {', '.join(sorted(kinds)) or '-'}")
        return "\n".join(lines)


def _lesion_targets(a):
    """(element type, section, key) of each element a lesion removes."""
    for element_type, records in (
            ("trace", a.traces), ("component", a.components),
            ("design-element", a.design_elements), ("requirement", a.requirements),
            ("connector", a.connectors),
            ("proof-obligation", [ob for ob in a.obligations if ob.immutable])):
        for record in records:
            yield (element_type, *model.address(record))


def lesion_run(artifact=None) -> LesionReport:
    """Attempt to remove every element of the sandbox through the
    gate; a rejected removal's violation kinds name its guardians."""
    a = artifact if artifact is not None else sandbox.lesion_artifact()
    clock = SimClock()
    kernel = kn.Kernel(a, clock=clock)
    rows = []
    for n, (element_type, section, target) in enumerate(_lesion_targets(a)):
        # one actor per attempt: accumulated friction must not demote
        # the prober into a tier whose gate checks mask the guardians
        cs = ChangeSet(
            ops=(RemoveOp(section, target),),
            actor=f"lesioner-{n}", intent=f"remove {element_type} {target}")
        result = kernel.commit_change_set(cs)
        kinds = tuple(sorted({v.kind for v in result.verdict.violations}))
        rows.append(LesionRow(element_type, target, not result.accepted, kinds))
    return LesionReport(tuple(rows))


__all__ = [
    "Abandoner", "BUILTIN_POLICIES", "Compliant", "Fabricator", "GateSkipper",
    "LesionReport", "LesionRow", "Policy", "ScenarioResult", "SimClock",
    "SimWorld", "lesion_run", "run_scenario", "scenario_artifact",
]
