"""The benchmark's three workloads, generated from a seed.

Each workload is an initial set of files (artifact, guidebooks,
friction ledger, test files), an optional pre-built history written
through the program's own commit path, and a fixed stream of wire
requests. The mix of each stream is fixed: the seed only picks the
order, the actors and the targets. Every request carries the reply
class it must get, known by construction: careful agents send only
valid change sets, sloppy agents only invalid ones, and a rejection
must name the obligation the generator broke.

Request classes, by verb:
  mutating  commit-change-set, claim-feature, run-evidence-gate, record-lesson
  check     what-if, precommit-check
  read      every other verb
"""

from __future__ import annotations

import dataclasses
import os
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

from epochd import coordination, evidence, kernel, model, obligations, sandbox, sexpr, solver
from epochd.model import (
    AddOp,
    Artifact,
    ChangeSet,
    Claim,
    Component,
    DesignElement,
    EvidenceRecord,
    Feature,
    Lesson,
    ProofObligation,
    Requirement,
    Scope,
    Trace,
    UpdateOp,
    Workflow,
    Transition,
)
from epochd.sexpr import Integer, SList, String, Symbol

MUTATING = frozenset({"commit-change-set", "claim-feature", "run-evidence-gate",
                      "record-lesson"})
CHECKS = frozenset({"what-if", "precommit-check"})

ARTIFACT_PATH = "project/artifact.epoch"
FRICTION_PATH = "friction.epoch"
WAL_DIR = "wal"
FAR_LEASE = "2099-01-01T00:00:00Z"


def group_of(verb: str) -> str:
    if verb in MUTATING:
        return "commit"
    if verb in CHECKS:
        return "check"
    return "read"


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least 10 of `count` samples
    above it (nearest-rank), or 0 when there are too few samples."""
    p = 100 * (count - 10) // count if count > 10 else 0
    while p > 0 and count - rank(p, count) < 10:
        p -= 1
    return p


def rank(p: int, count: int) -> int:
    """1-based nearest-rank position of the p-th percentile."""
    return max(1, -(-p * count // 100))


@dataclass(frozen=True)
class Request:
    verb: str
    text: str
    expect: tuple  # reply class, see bench.check_reply

    @property
    def group(self) -> str:
        return group_of(self.verb)


@dataclass
class Workload:
    name: str
    files: dict                      # path relative to a round directory -> text
    requests: list
    artifact: Artifact
    prebuild: object = None          # fn(directory) -> entries beyond genesis

    def mix(self) -> dict:
        counts: dict = {}
        for r in self.requests:
            counts[r.verb] = counts.get(r.verb, 0) + 1
        return dict(sorted(counts.items()))

    def group_counts(self) -> dict:
        counts = {"commit": 0, "check": 0, "read": 0}
        for r in self.requests:
            counts[r.group] += 1
        return counts


# ------------------------------------------------------------ text


def _print(node) -> str:
    return sexpr.print_canonical(node)


def pretty(node, indent: int = 0, width: int = 72) -> str:
    """Multi-line layout: a list too wide for one line puts each
    element after its head on its own indented line."""
    flat = _print(node)
    if not isinstance(node, SList) or len(node) < 2 or indent + len(flat) <= width:
        return flat
    lines = ["(" + _print(node[0])]
    for item in node.items[1:]:
        lines.append(" " * (indent + 2) + pretty(item, indent + 2, width))
    return "\n".join(lines) + ")"


def _request(verb: str, args, expect: tuple, multiline: bool = False) -> Request:
    form = SList([Symbol(verb)] + list(args))
    return Request(verb, pretty(form) if multiline else _print(form), expect)


def commit(cs: ChangeSet, expect: tuple, multiline: bool = False) -> Request:
    return _request("commit-change-set", [model.change_set_to_sexpr(cs)], expect, multiline)


def check(verb: str, cs: ChangeSet, expect: tuple) -> Request:
    return _request(verb, [model.change_set_to_sexpr(cs)], expect)


def request(verb: str, *args, expect: tuple) -> Request:
    nodes = [Symbol(a) if isinstance(a, str) else a for a in args]
    return _request(verb, nodes, expect)


def update_feature(feat: Feature, actor: str, intent: str, **changes) -> ChangeSet:
    new = dataclasses.replace(feat, **changes)
    return ChangeSet((UpdateOp("features", feat.id, model.encode_feature(new)),),
                     actor, intent)


def without_tests(feat: Feature) -> Feature:
    return dataclasses.replace(feat, status="delivered",
                               scope=dataclasses.replace(feat.scope, test_paths=()))


def requirement_with_trace(rid: str, tid: str, component: str, design: str,
                           actor: str) -> ChangeSet:
    return ChangeSet((
        AddOp("requirements", model.encode_requirement(
            Requirement(rid, "functional", "bench", f"capability {rid} is provided"))),
        AddOp("traceability", model.encode_trace(Trace(tid, rid, component, design))),
    ), actor, f"trace {rid}")


def orphan_requirement(rid: str, actor: str) -> ChangeSet:
    return ChangeSet((AddOp("requirements", model.encode_requirement(
        Requirement(rid, "functional", "bench", f"untraced {rid}"))),),
        actor, f"orphan {rid}")


def _schedule(rng: random.Random, bag: list, feasible):
    """Shuffle the action bag, then yield at each step the first action
    whose precondition holds in the state the caller has reached."""
    rng.shuffle(bag)
    while bag:
        i = next((i for i, action in enumerate(bag) if feasible(action)), None)
        if i is None:
            raise RuntimeError(f"no feasible action among {sorted(set(map(str, bag)))}")
        yield bag.pop(i)


def _counts(spec: dict) -> list:
    return [name for name, n in spec.items() for _ in range(n)]


# -------------------------------------------------------- wide-gate

WIDE_FEATURES = 400
WIDE_OBLIGATIONS = 250
WIDE_KINDS = ("traceability-complete", "connector-integrity",
              "feature-code-test-symmetry", "dag-enforcement",
              "immutable-obligations", "ratchet", "delivery-cascade",
              "evidence-provenance")
WIDE_MIX = {"deliver": 26, "deliver-no-tests": 12, "requirement": 16,
            "orphan": 6, "precommit": 24, "what-if": 4, "artifact-health": 16,
            "tier-of": 6}


def wide_artifact(n_features: int = WIDE_FEATURES,
                  n_obligations: int = WIDE_OBLIGATIONS) -> Artifact:
    """The criterion-12 wide artifact, keeping only the obligations
    whose kind has a registered evaluator."""
    reqs, feats, traces = [], [], []
    for i in range(n_features):
        rid = f"R-{i:03d}"
        reqs.append(Requirement(rid, "functional", "gen", f"capability {i}"))
        traces.append(Trace(f"T-{i:03d}", rid, "Core", "Rec"))
        feats.append(Feature(f"F-{i:03d}", f"capability {i}", "open",
                             Scope((rid,), (f"src/m_{i}.py",), (f"tests/test_m_{i}.py",))))
    registered = obligations.builtin_registry().registered_kinds()
    obs = tuple(
        ProofObligation(f"PO-{i:03d}", WIDE_KINDS[i % len(WIDE_KINDS)], f"generated {i}")
        for i in range(n_obligations)
        if WIDE_KINDS[i % len(WIDE_KINDS)] in registered
    )
    return Artifact(
        name="wide-load", requirements=tuple(reqs),
        components=(Component("Core", "everything"),),
        design_elements=(DesignElement("value-object", "Rec"),),
        features=tuple(feats), traces=tuple(traces), obligations=obs)


def _first_of_kind(a: Artifact, kind: str) -> str:
    return next(ob.id for ob in a.obligations if ob.kind == kind)


def wide_gate(seed: int) -> Workload:
    rng = random.Random(seed)
    art = wide_artifact()
    symmetry = _first_of_kind(art, "feature-code-test-symmetry")
    trace_ob = _first_of_kind(art, "traceability-complete")
    picks = rng.sample(list(art.features), WIDE_MIX["deliver"] + WIDE_MIX["deliver-no-tests"]
                       + WIDE_MIX["precommit"] + WIDE_MIX["what-if"])
    good = [f"agent-{c}" for c in "abcd"]
    sloppy = [f"sloppy-{c}" for c in "xy"]
    index = 0
    counter = {"req": 0, "orphan": 0}
    requests = []

    def next_index():
        nonlocal index
        index += 1
        return index

    def build(action):
        if action == "deliver":
            feat = picks.pop()
            cs = update_feature(feat, rng.choice(good), f"deliver {feat.id}", status="delivered")
            return commit(cs, ("committed", next_index()))
        if action == "deliver-no-tests":
            feat = picks.pop()
            new = without_tests(feat)
            cs = update_feature(feat, rng.choice(sloppy), f"deliver {feat.id}",
                                status=new.status, scope=new.scope)
            return commit(cs, ("rejected", symmetry))
        if action == "requirement":
            counter["req"] += 1
            n = counter["req"]
            cs = requirement_with_trace(f"R-N{n:03d}", f"T-N{n:03d}", "Core", "Rec",
                                        rng.choice(good))
            return commit(cs, ("committed", next_index()))
        if action == "orphan":
            counter["orphan"] += 1
            cs = orphan_requirement(f"R-O{counter['orphan']:03d}", rng.choice(sloppy))
            return commit(cs, ("rejected", trace_ob))
        if action == "precommit":
            feat = picks.pop()
            cs = update_feature(feat, rng.choice(good), f"deliver {feat.id}", status="delivered")
            return check("precommit-check", cs, ("pass",))
        if action == "artifact-health":
            return request("artifact-health", expect=("ok", "pass", len(art.obligations)))
        if action == "tier-of":
            return request("tier-of", rng.choice(good + sloppy), expect=("ok", "tier"))
        feat = picks.pop()
        new = without_tests(feat)
        cs = update_feature(feat, rng.choice(sloppy), f"deliver {feat.id}",
                            status=new.status, scope=new.scope)
        return check("what-if", cs, ("fail", symmetry))

    bag = _counts(WIDE_MIX)
    bag.remove("deliver")
    for action in _schedule(rng, bag, lambda a: True):
        requests.append(build(action))
    requests.append(build("deliver"))  # end on an accepted commit
    return Workload(
        name="wide-gate",
        files={ARTIFACT_PATH: model.encode_text(art)},
        requests=requests, artifact=art)


# ---------------------------------------------------- agent-chatter

CHATTER_FEATURES = 40
CHATTER_WORKFLOWS = 4
CHATTER_CAREFUL = tuple(f"agent-{c}" for c in "abcdef")
CHATTER_SUPERVISED = ("agent-s1", "agent-s2")
CHATTER_SLOPPY = ("agent-x1", "agent-x2", "agent-x3")
SUPERVISED_CLAIMS = 3
SUPERVISED_SEED_REJECTIONS = 8
# Enumeration work of a release guard: its first model sets the last
# k variables true, so the propositional check visits 2**k assignments.
RELEASE_TAIL = (8, 9, 10, 11)
RELEASE_HEAD = 3  # clauses over the other variables, true when they are false
CHATTER_MIX = {
    "claim": 30, "contested-claim": 8, "deliver": 20, "rename": 40,
    "guard-edit": 20, "sloppy-deliver": 16, "unsat-guard": 10,
    "fabricated-evidence": 10, "conflicting-import": 4, "evidence-gate": 16,
    "lesson": 24, "supervised": 30, "precommit": 30, "sloppy-precommit": 10,
    "lessons-for-scope": 80, "tier-of": 70, "friction-score": 70, "ping": 70,
}
CONFLICT_GUIDEBOOK = """\
;; Contradicts GC-SCOPE-COMPLETENESS: importing it must be refused.
(guidebook-constraint GC-FAST-TRACK
  (z3_formula (and feature_delivered (not has_test_paths)))
  (po-kind feature-code-test-symmetry)
  (description "Deliver first, test later"))
"""
CONFLICT_IMPORT = "../conflict.guidebook.epoch"


def _lia_guard(rng: random.Random):
    hi = rng.randint(3, 9)
    return sexpr.parse(
        f"(and (>= attempts 0) (<= attempts {hi}) (< (+ attempts backoff) {hi + 12})"
        f" (> backoff 1))")


def _release_guard(rng: random.Random, terms: int, tail: int):
    """Satisfiable release condition over `terms` variables whose first
    model in enumeration order is 'all false, then the last `tail`
    variables true'."""
    names = [f"rel_{i:02d}" for i in range(terms)]
    head, last = names[:terms - tail], names[terms - tail:]
    parts = []
    for i, v in enumerate(head):
        other = rng.choice(names)
        shape = rng.randrange(3)
        if shape == 0:
            parts.append(f"(not {v})" if i % 4 else f"(implies {v} {other})")
        elif shape == 1:
            parts.append(f"(implies {v} {other})")
        else:
            parts.append(f"(or (not {v}) {other})")
    parts.extend(last)
    return sexpr.parse("(and " + " ".join(parts) + ")")


def _unsat_guard(rng: random.Random):
    lo = rng.randint(4, 9)
    return solver.formula_from_sexpr(
        sexpr.parse(f"(and (> attempts {lo}) (< attempts {lo - rng.randint(0, 3)}))"))


def _workflow(name: str, lia, release) -> Workflow:
    return Workflow(name, ("draft", "review", "released"), "draft", (
        Transition("draft", "review", solver.formula_from_sexpr(lia)),
        Transition("review", "released", solver.formula_from_sexpr(release)),
    ))


def _chatter_test_file(i: int) -> str:
    return f"def test_capability_{i}():\n    assert {i} == {i}\n"


def chatter_artifact(rng: random.Random):
    base = sandbox.demo_artifact()
    feats = []
    claims = list(base.claims)
    supervised_features = {}
    first_supervised = CHATTER_FEATURES - SUPERVISED_CLAIMS * len(CHATTER_SUPERVISED) + 1
    for i in range(1, CHATTER_FEATURES + 1):
        fid = f"AF-{i:02d}"
        status = "open"
        if i >= first_supervised:
            agent = CHATTER_SUPERVISED[(i - first_supervised) // SUPERVISED_CLAIMS]
            supervised_features[fid] = agent
            claims.append(Claim(agent, fid, FAR_LEASE))
            status = "claimed"
        feats.append(Feature(fid, f"Chatter capability {i}", status, Scope(
            ("UR-01", "FR-01"), (f"src/af_{i:02d}.py",), (f"tests/test_af_{i:02d}.py",))))
    flows = []
    guards = {}
    for w in range(CHATTER_WORKFLOWS):
        name = f"release-{w + 1}"
        tail = RELEASE_TAIL[w % len(RELEASE_TAIL)]
        terms = tail + RELEASE_HEAD
        guards[name] = (terms, tail)
        flows.append(_workflow(name, _lia_guard(rng), _release_guard(rng, terms, tail)))
    art = dataclasses.replace(
        base, features=base.features + tuple(feats), claims=tuple(claims),
        workflows=base.workflows + tuple(flows))
    return art, supervised_features, guards


def chatter_friction() -> str:
    ledger = coordination.ledger_from_text(sandbox.DEMO_FRICTION)
    for agent in CHATTER_SUPERVISED:
        for k in range(SUPERVISED_SEED_REJECTIONS):
            ledger.record("agent_rejection", agent, f"2026-03-09T2{k % 10}:00:00Z",
                          po_kinds=["feature-code-test-symmetry"])
    return coordination.ledger_to_text(ledger) + "\n"


def agent_chatter(seed: int) -> Workload:
    rng = random.Random(seed)
    art, supervised_features, guards = chatter_artifact(rng)
    files = {
        ARTIFACT_PATH: model.encode_text(art),
        sandbox.DEMO_GUIDEBOOK_NAME: sandbox.DEMO_GUIDEBOOK,
        "conflict.guidebook.epoch": CONFLICT_GUIDEBOOK,
        FRICTION_PATH: chatter_friction(),
    }
    for i in range(1, CHATTER_FEATURES + 1):
        files[f"tests/test_af_{i:02d}.py"] = _chatter_test_file(i)

    features = {f.id: f for f in art.features if f.id.startswith("AF-")}
    holder = dict(supervised_features)
    delivered: set = set()
    owners = {f"release-{w + 1}": CHATTER_CAREFUL[w % len(CHATTER_CAREFUL)]
              for w in range(CHATTER_WORKFLOWS)}
    workflows = {w.name: w for w in art.workflows}
    state = {"index": 0, "rename": 0, "lesson": 0}

    def next_index():
        state["index"] += 1
        return state["index"]

    def careful_held():
        return sorted(fid for fid, who in holder.items()
                      if who in CHATTER_CAREFUL and fid not in delivered)

    def open_features():
        return sorted(fid for fid in features if fid not in holder)

    def undelivered():
        return sorted(fid for fid in features if fid not in delivered)

    def supervised_targets():
        return sorted(fid for fid, who in holder.items() if who in CHATTER_SUPERVISED)

    def feasible(action):
        if action == "claim":
            return bool(open_features())
        if action in ("contested-claim", "deliver", "rename"):
            return bool(careful_held())
        return True

    def renamed(fid, actor):
        state["rename"] += 1
        return update_feature(features[fid], actor, f"rename {fid}",
                              name=f"{features[fid].name} r{state['rename']}")

    def edit_guard(name, actor, release):
        old = workflows[name]
        new = dataclasses.replace(old, transitions=(
            old.transitions[0], dataclasses.replace(old.transitions[1], guard=release)))
        return ChangeSet((UpdateOp("workflows", name, model.encode_workflow(new)),),
                         actor, f"edit guard of {name}"), new

    def build(action):
        multiline = rng.random() < 0.25
        if action == "claim":
            fid = rng.choice(open_features())
            agent = rng.choice(CHATTER_CAREFUL)
            holder[fid] = agent
            features[fid] = dataclasses.replace(features[fid], status="claimed")
            return request("claim-feature", agent, fid, expect=("claimed", fid, next_index()))
        if action == "contested-claim":
            fid = rng.choice(careful_held())
            agent = rng.choice([a for a in CHATTER_CAREFUL if a != holder[fid]])
            return request("claim-feature", agent, fid, expect=("refused",))
        if action == "deliver":
            fid = rng.choice(careful_held())
            cs = update_feature(features[fid], holder[fid], f"deliver {fid}", status="delivered")
            features[fid] = dataclasses.replace(features[fid], status="delivered")
            delivered.add(fid)
            return commit(cs, ("committed", next_index()), multiline)
        if action == "rename":
            fid = rng.choice(careful_held())
            cs = renamed(fid, holder[fid])
            features[fid] = dataclasses.replace(
                features[fid], name=f"{features[fid].name} r{state['rename']}")
            return commit(cs, ("committed", next_index()), multiline)
        if action == "guard-edit":
            name = rng.choice(sorted(owners))
            terms, tail = guards[name]
            release = solver.formula_from_sexpr(_release_guard(rng, terms, tail))
            cs, new = edit_guard(name, owners[name], release)
            workflows[name] = new
            return commit(cs, ("committed", next_index()), multiline)
        if action == "sloppy-deliver":
            fid = rng.choice(undelivered())
            new = without_tests(features[fid])
            cs = update_feature(features[fid], rng.choice(CHATTER_SLOPPY), f"deliver {fid}",
                                status=new.status, scope=new.scope)
            return commit(cs, ("rejected", "GC-SCOPE-COMPLETENESS"), multiline)
        if action == "unsat-guard":
            cs, _ = edit_guard(rng.choice(sorted(owners)), rng.choice(CHATTER_SLOPPY),
                               _unsat_guard(rng))
            return commit(cs, ("rejected", "PO-WF-01"), multiline)
        if action == "fabricated-evidence":
            fid = rng.choice(sorted(features))
            record = EvidenceRecord(fid, "ci-pipeline", "passed", hash=f"{rng.getrandbits(64):016x}")
            cs = ChangeSet((AddOp("coordination", model.encode_evidence(record)),),
                           rng.choice(CHATTER_SLOPPY), f"evidence for {fid}")
            return commit(cs, ("rejected", "GC-EVIDENCE-PROVENANCE"), multiline)
        if action == "conflicting-import":
            cs = ChangeSet((AddOp("guidebooks", SList(
                (Symbol("imports"), String(CONFLICT_IMPORT)))),),
                rng.choice(CHATTER_SLOPPY), "import fast-track guidebook")
            return commit(cs, ("rejected", "GUIDEBOOK-CONSISTENCY"), multiline)
        if action == "evidence-gate":
            fid = rng.choice(sorted(features))
            paths = features[fid].scope.test_paths
            digest = evidence.hash_test_paths(
                paths, reader=lambda p: files[p].encode("utf-8"))
            return request("run-evidence-gate", fid, expect=("evidence", fid, digest, next_index()))
        if action == "lesson":
            state["lesson"] += 1
            lid = f"LSN-{state['lesson']:03d}"
            i = rng.randint(1, CHATTER_FEATURES)
            lesson = Lesson(lid, failure=f"capability {i} shipped untested",
                            root_cause="delivery skipped the test gate",
                            fix="deliver with test paths", obligation="GC-SCOPE-COMPLETENESS",
                            affected_scope=(f"src/af_{i:02d}.py",), severity=2)
            return request("record-lesson", rng.choice(CHATTER_CAREFUL), model.encode_lesson(lesson),
                        expect=("recorded", lid, next_index()))
        if action == "precommit":
            name = rng.choice(sorted(owners))
            terms, tail = guards[name]
            release = solver.formula_from_sexpr(_release_guard(rng, terms, tail))
            cs, _ = edit_guard(name, owners[name], release)
            return check("precommit-check", cs, ("pass",))
        if action == "sloppy-precommit":
            cs, _ = edit_guard(rng.choice(sorted(owners)), rng.choice(CHATTER_SLOPPY),
                               _unsat_guard(rng))
            return check("precommit-check", cs, ("fail", "PO-WF-01"))
        if action == "lessons-for-scope":
            paths = [String(f"src/af_{rng.randint(1, CHATTER_FEATURES):02d}.py")
                     for _ in range(rng.randint(1, 3))]
            return request("lessons-for-scope", *paths, expect=("ok", "lessons"))
        if action == "tier-of":
            return request("tier-of", rng.choice(_all_chatter_agents()), expect=("ok", "tier"))
        if action == "friction-score":
            return request("friction-score", rng.choice(_all_chatter_agents()),
                        expect=("ok", "score"))
        return request("ping", expect=("ok", "pong"))

    requests = []
    for action in _schedule(rng, _counts(CHATTER_MIX), feasible):
        if action == "supervised":
            fid = rng.choice(supervised_targets())
            agent = holder[fid]
            cs = renamed(fid, agent)
            features[fid] = dataclasses.replace(
                features[fid], name=f"{features[fid].name} r{state['rename']}")
            requests.append(check("what-if", cs, ("pass",)))
            requests.append(commit(cs, ("committed", next_index())))
        else:
            requests.append(build(action))
    fid = rng.choice(sorted(features))
    requests.append(commit(renamed(fid, CHATTER_CAREFUL[0]), ("committed", next_index())))
    return Workload(
        name="agent-chatter", files=files, requests=requests, artifact=art)


def _all_chatter_agents():
    return CHATTER_CAREFUL + CHATTER_SUPERVISED + CHATTER_SLOPPY


# ---------------------------------------------------- history-audit

HISTORY_FEATURES = 32
HISTORY_MIX = {"claim": 24, "rename": 24, "deliver": 16, "evidence": 12,
               "lesson": 10, "requirement": 10}
# As many reads cost less than artifact-health as cost more, so the
# read median sits inside the artifact-health cluster.
AUDIT_MIX = {"requirement": 22, "precommit": 12, "what-if": 8,
             "impact-analysis": 30, "traceability-matrix": 30, "artifact-health": 60,
             "read-system": 24, "compliance-report": 25}
# Candidate obligations replayed over recent history. A call-graph-dag
# obligation without a module graph rejects every state it sees.
RETRO_OVER_KIND = "call-graph-dag"
# retroactive-verify requests as (window, candidate kind), in stream
# order. They sit at fixed, evenly spaced places: the read tail is the
# cheapest of them, and its cost grows with the log, so a place drawn
# from the seed would move the tail from seed to seed.
AUDIT_RETROS = (
    (1, "traceability-complete"), (2, "feature-code-test-symmetry"),
    (1, "evidence-provenance"), (3, RETRO_OVER_KIND),
    (1, "feature-code-test-symmetry"), (2, "traceability-complete"),
    (1, RETRO_OVER_KIND), (2, "evidence-provenance"),
    (1, "traceability-complete"), (3, "feature-code-test-symmetry"),
    (2, RETRO_OVER_KIND),
)
HISTORY_START = datetime(2026, 3, 10, 12, 0, tzinfo=timezone.utc)


class _StepClock:
    def __init__(self, start: datetime):
        self.now = start

    def __call__(self) -> datetime:
        self.now += timedelta(minutes=1)
        return self.now


def history_actions(rng: random.Random, art: Artifact) -> list:
    """Steps of the pre-built history, each of which the gate accepts."""
    agents = ("agent-h1", "agent-h2", "agent-h3")
    open_ids = [f.id for f in art.features]
    rng.shuffle(open_ids)
    held: dict = {}
    delivered: list = []
    counters = {"req": 0, "lesson": 0, "rename": 0}

    def feasible(action):
        if action == "claim":
            return bool(open_ids)
        if action in ("rename", "deliver"):
            return any(f not in delivered for f in held)
        if action == "evidence":
            return bool(delivered)
        return True

    steps = []
    for action in _schedule(rng, _counts(HISTORY_MIX), feasible):
        if action == "claim":
            fid = open_ids.pop()
            agent = rng.choice(agents)
            held[fid] = agent
            steps.append(("claim", fid, agent))
        elif action in ("rename", "deliver"):
            fid = rng.choice(sorted(f for f in held if f not in delivered))
            if action == "deliver":
                delivered.append(fid)
            counters["rename"] += 1
            steps.append((action, fid, held[fid], counters["rename"]))
        elif action == "evidence":
            steps.append(("evidence", rng.choice(delivered)))
        elif action == "lesson":
            counters["lesson"] += 1
            steps.append(("lesson", counters["lesson"], rng.randint(1, HISTORY_FEATURES)))
        else:
            counters["req"] += 1
            steps.append(("requirement", counters["req"], rng.choice(agents)))
    return steps


def write_history(directory: str, art: Artifact, steps) -> int:
    """Commit the pre-built history through an in-process kernel into
    directory/wal and directory/friction.epoch; returns the number of
    entries beyond genesis."""
    clock = _StepClock(HISTORY_START)
    k = kernel.Kernel(art, wal_dir=os.path.join(directory, WAL_DIR), clock=clock,
                      base_dir=os.path.join(directory, "project"))
    for step in steps:
        kind = step[0]
        if kind == "claim":
            cs = coordination.claim_feature(k.artifact, k.ledger, step[2], step[1], clock.now)
        elif kind in ("rename", "deliver"):
            _, fid, agent, n = step
            feat = k.artifact.feature(fid)
            changes = {"name": f"{feat.name} r{n}"}
            if kind == "deliver":
                changes["status"] = "delivered"
            cs = update_feature(feat, agent, f"{kind} {fid}", **changes)
        elif kind == "evidence":
            fid = step[1]
            record = EvidenceRecord(fid, evidence.GATE_WITNESS, "passed",
                                    hash=sexpr.fingerprint_text(fid), server_computed=True,
                                    timestamp=model.format_rfc3339(clock.now))
            cs = ChangeSet((AddOp("coordination", model.encode_evidence(record)),),
                           evidence.GATE_WITNESS, f"evidence for {fid}")
        elif kind == "lesson":
            _, n, i = step
            lesson = Lesson(f"LSN-H{n:03d}", failure=f"capability {i} regressed",
                            root_cause="scope drifted", fix="re-trace the requirement",
                            obligation="PO-TRACE", affected_scope=(f"src/cap_{i}.py",))
            cs = ChangeSet((AddOp("lessons", model.encode_lesson(lesson)),),
                           "agent-h1", f"record lesson {lesson.id}")
        else:
            _, n, agent = step
            cs = requirement_with_trace(f"SR-H{n:03d}", f"ST-H{n:03d}", "Engine", "Record",
                                        agent)
        result = k.commit_change_set(cs)
        if not result.accepted:
            raise RuntimeError(f"pre-built history step {step} was rejected:\n"
                               + obligations.render_verdict(result.verdict))
    coordination.save_ledger(os.path.join(directory, FRICTION_PATH), k.ledger)
    return len(k.history) - 1


def _candidate(ob_id: str, kind: str) -> SList:
    return model.encode_obligation(ProofObligation(ob_id, kind, "retroactive candidate"))


def history_audit(seed: int) -> Workload:
    rng = random.Random(seed)
    art = sandbox.simulation_artifact(feature_count=HISTORY_FEATURES)
    steps = history_actions(rng, art)
    length = 1 + len(steps)  # entries in the log when the timed phase starts
    counters = {"req": 0}
    requirement_ids = [r.id for r in art.requirements]
    requests = []
    effective = len(art.obligations)

    def build(action):
        nonlocal length
        if action == "requirement":
            counters["req"] += 1
            n = counters["req"]
            cs = requirement_with_trace(f"SR-A{n:03d}", f"ST-A{n:03d}", "Engine", "Record",
                                        "agent-auditor")
            length += 1
            return commit(cs, ("committed", length - 1))
        if action in ("precommit", "what-if"):
            n = counters["req"] + 1
            cs = requirement_with_trace(f"SR-A{n:03d}", f"ST-A{n:03d}", "Engine", "Record",
                                        "agent-auditor")
            return check("precommit-check" if action == "precommit" else "what-if", cs,
                         ("pass",))
        if isinstance(action, tuple):
            _, window, kind = action
            if kind == RETRO_OVER_KIND:
                form = _candidate("PO-CAND-GRAPH", kind)
                expect = ("over", tuple(range(length - window, length)))
            else:
                form = _candidate(f"PO-CAND-{kind.upper()}", kind)
                expect = ("safe",)
            return request("retroactive-verify", Integer(window), form, expect=expect)
        if action == "impact-analysis":
            return request("impact-analysis", rng.choice(requirement_ids),
                           expect=("ok", "impact"))
        if action == "artifact-health":
            return request("artifact-health", expect=("ok", "pass", effective))
        head = {"compliance-report": "report", "traceability-matrix": "matrix",
                "read-system": "nidus-system"}[action]
        return request(action, expect=("ok", head))

    bag = _counts(AUDIT_MIX)
    bag.remove("requirement")
    order = list(_schedule(rng, bag, lambda a: True))
    step = len(order) / len(AUDIT_RETROS)
    for k in reversed(range(len(AUDIT_RETROS))):
        order.insert(round((k + 0.5) * step), ("retro",) + AUDIT_RETROS[k])
    for action in order:
        requests.append(build(action))
    requests.append(build("requirement"))  # end on an accepted commit

    def prebuild(directory: str) -> int:
        return write_history(directory, art, steps)

    return Workload(
        name="history-audit",
        files={ARTIFACT_PATH: model.encode_text(art)},
        requests=requests, artifact=art, prebuild=prebuild)


WORKLOADS = {
    "wide-gate": wide_gate,
    "agent-chatter": agent_chatter,
    "history-audit": history_audit,
}
