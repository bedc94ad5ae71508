"""Acceptance gate. One test per shipping criterion; each prints a
single pass line with its measured numbers (visible with -s; the -v
test row itself is the pass/fail record otherwise). Every tolerance
and time budget is asserted here, not in the unit suites."""

import dataclasses
import random
import time
import warnings

import numpy as np
import pytest

from epochd import coordination as co
from epochd import evidence as ev
from epochd import guidebook as gb
from epochd import kernel as kn
from epochd import lessons as ls
from epochd import model, obligations, sandbox, simulate, solver, wal
from epochd.model import (
    AddOp,
    Artifact,
    ChangeSet,
    Component,
    Connector,
    DesignElement,
    EvidenceRecord,
    Feature,
    ProofObligation,
    RemoveOp,
    Requirement,
    Scope,
    Trace,
    UpdateOp,
    encode_evidence,
    encode_feature,
    encode_obligation,
    encode_requirement,
    encode_trace,
    parse_rfc3339,
)
from epochd.solver import (
    And,
    Atom,
    Implies,
    LinearConstraint,
    LinTerm,
    Not,
    Or,
    Var,
    check_sat_lia,
    eval_ground,
    minimal_unsat_subset,
)

NOW = parse_rfc3339(sandbox.DEMO_NOW)


def report(n: int, detail: str):
    print(f"[criterion {n:02d}] PASS - {detail}")


def demo_kernel(**kw):
    a = model.decode_text(sandbox.DEMO_ARTIFACT)
    reader = {"epoch.guidebook.epoch": sandbox.DEMO_GUIDEBOOK}.__getitem__
    kw.setdefault("clock", lambda: NOW)
    return kn.Kernel(a, guidebook_reader=reader, base_dir="project", **kw)


def deliver_feat01(test_paths=("tests/test_brain.py",), actor="opus-a1b2"):
    a = model.decode_text(sandbox.DEMO_ARTIFACT)
    feat = a.feature("FEAT-01")
    new = dataclasses.replace(
        feat, status="delivered",
        scope=dataclasses.replace(feat.scope, test_paths=tuple(test_paths)))
    return ChangeSet(
        ops=(UpdateOp("features", "FEAT-01", encode_feature(new)),),
        actor=actor, intent="deliver FEAT-01")


# --------------------------------------------------------------- 1


def test_criterion_01_demo_delivery_gate_exact():
    """No-tests delivery rejected with exactly one violation pinned to
    the inherited scope-completeness constraint and six passing rows;
    declaring the test path flips the same commit to accepted. <1s."""
    t0 = time.perf_counter()
    k = demo_kernel()

    rejected = k.commit_change_set(deliver_feat01(test_paths=()))
    assert not rejected.accepted
    statuses = [(ob.id, "FAIL" if vs else "PASS")
                for ob, vs in rejected.verdict.results]
    assert statuses == [
        ("PO-TRACE-01", "PASS"),
        ("PO-CONN-01", "PASS"),
        ("PO-DAG-01", "PASS"),
        ("PO-WF-01", "PASS"),
        ("GC-SCOPE-COMPLETENESS", "FAIL"),
        ("GC-MODULE-DAG", "PASS"),
        ("GC-EVIDENCE-PROVENANCE", "PASS"),
    ]
    assert len(rejected.verdict.violations) == 1
    text = obligations.render_verdict(rejected.verdict)
    assert text.count("PASS") == 6 and text.count("FAIL") == 1
    assert "REJECTED: 1 violation (GC-SCOPE-COMPLETENESS)" in text

    accepted = k.commit_change_set(deliver_feat01())
    assert accepted.accepted
    assert all(not vs for _, vs in accepted.verdict.results)
    assert k.artifact.feature("FEAT-01").status == "delivered"

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"6 PASS + 1 FAIL exact, then accepted with tests "
              f"({elapsed:.2f}s)")


# --------------------------------------------------------------- 2


def test_criterion_02_self_governance_sequence():
    """An added immutable obligation is live on the very next commit,
    rejects the mutation it forbids under its own id, and blocks its
    own removal."""
    k = demo_kernel()
    po = ProofObligation("PO-FROZEN", "connector-existence",
                         "every traced component stays wired",
                         immutable=True)

    step1 = k.commit_change_set(ChangeSet(
        ops=(AddOp("proof-obligations", encode_obligation(po)),),
        actor="architect", intent="freeze wiring"))
    assert step1.accepted
    assert any(ob.id == "PO-FROZEN" and ob.immutable
               for ob in k.artifact.obligations)

    step2 = k.commit_change_set(ChangeSet(
        ops=(RemoveOp("architecture", "Interceptor->Brain"),),
        actor="vandal", intent="drop the connector"))
    assert not step2.accepted
    assert "PO-FROZEN" in step2.verdict.core

    step3 = k.commit_change_set(ChangeSet(
        ops=(RemoveOp("proof-obligations", "PO-FROZEN"),),
        actor="vandal", intent="remove the blocker"))
    assert not step3.accepted
    kinds = {v.kind for v in step3.verdict.violations}
    assert "immutable-obligations" in kinds
    assert any(v.subject == "PO-FROZEN" for v in step3.verdict.violations)

    report(2, "add->active, violate->rejected by PO-FROZEN, "
              "remove->rejected by immutability guard")


# --------------------------------------------------------------- 3


def test_criterion_03_lesion_full_guarded_rate():
    """Every removable element on the >=5-per-type sandbox is guarded;
    rate 100% per element type, attributed to guardian kinds. <10s."""
    t0 = time.perf_counter()
    rep = simulate.lesion_run()
    per = rep.per_type()
    expected_types = {"trace", "component", "design-element",
                      "requirement", "connector", "proof-obligation"}
    assert set(per) == expected_types
    for element_type, (guarded, total, kinds) in per.items():
        assert total >= 5, f"{element_type}: fixture too small ({total})"
        assert guarded == total, f"{element_type}: unguarded removal"
        assert kinds, f"{element_type}: no guardian recorded"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    summary = "; ".join(
        f"{t} {per[t][0]}/{per[t][1]} via {','.join(sorted(per[t][2]))}"
        for t in sorted(per))
    report(3, f"{summary} ({elapsed:.2f}s)")


# --------------------------------------------------------------- 4


def _fuzz_ops(rng, k, actors):
    """One randomly chosen change set, mixed valid/invalid."""
    a = k.artifact
    actor = rng.choice(actors)
    pick = rng.randrange(10)
    features = [f.id for f in a.features]
    if pick == 0:
        out = co.claim_feature(a, k.ledger, actor, rng.choice(features),
                               k.clock())
        return out if isinstance(out, ChangeSet) else None
    if pick == 1:
        fid = rng.choice(features)
        feat = a.feature(fid)
        new = dataclasses.replace(feat, status="delivered")
        return ChangeSet(ops=(UpdateOp("features", fid, encode_feature(new)),),
                         actor=actor, intent=f"deliver {fid}")
    if pick == 2:
        delivered = [f.id for f in a.features if f.status == "delivered"]
        if not delivered:
            return None
        fid = rng.choice(delivered)
        new = dataclasses.replace(a.feature(fid), status="open")
        return ChangeSet(ops=(UpdateOp("features", fid, encode_feature(new)),),
                         actor=actor, intent=f"revert {fid}")
    if pick == 3:
        rid = rng.choice([r.id for r in a.requirements])
        return ChangeSet(ops=(RemoveOp("requirements", rid),),
                         actor=actor, intent=f"drop {rid}")
    if pick == 4:
        pid = rng.choice([ob.id for ob in a.obligations])
        return ChangeSet(ops=(RemoveOp("proof-obligations", pid),),
                         actor=actor, intent=f"drop {pid}")
    if pick == 5:
        n = rng.randrange(10_000)
        req = Requirement(f"FZ-{n:05d}", "functional", "fuzz", f"fuzz {n}")
        ops = [AddOp("requirements", encode_requirement(req))]
        if rng.random() < 0.7:  # otherwise: orphan requirement, rejected
            ops.append(AddOp("traceability", encode_trace(
                Trace(f"TZ-{n:05d}", req.id, "Engine", "Record"))))
        return ChangeSet(ops=tuple(ops), actor=actor, intent=f"grow {n}")
    if pick == 6:
        witness = rng.choice(["governance-audit", ev.GATE_WITNESS])
        record = EvidenceRecord(
            feature=rng.choice(features), witness=witness, status="passed",
            hash=f"{rng.getrandbits(256):064x}",
            server_computed=(witness == ev.GATE_WITNESS),
            timestamp=sandbox.DEMO_NOW)
        return ChangeSet(ops=(AddOp("coordination", encode_evidence(record)),),
                         actor=actor, intent="submit evidence")
    if pick == 7:
        tid = rng.choice([t.id for t in a.traces]) if a.traces else None
        if tid is None:
            return None
        return ChangeSet(ops=(RemoveOp("traceability", tid),),
                         actor=actor, intent=f"drop {tid}")
    if pick == 8:
        n = rng.randrange(10_000)
        po = ProofObligation(f"PZ-{n:05d}", "traceability-complete",
                             f"fuzz obligation {n}",
                             immutable=rng.random() < 0.5)
        return ChangeSet(ops=(AddOp("proof-obligations", encode_obligation(po)),),
                         actor=actor, intent=f"add po {n}")
    return ChangeSet(  # malformed: section that does not exist
        ops=(AddOp("telemetry", model.parse_sexpr("(counter 1)")
                   if hasattr(model, "parse_sexpr") else
                   encode_requirement(Requirement("X-1", "functional", "f", "x"))),),
        actor=actor, intent="garbage")


def test_criterion_04_fuzz_invariants_hold():
    """1000 mixed change sets through the gate. After every step the
    new head re-verifies, the founding immutable obligations are still
    present, and the ratchet never moves backwards; at the end every
    recorded snapshot re-verifies against its own obligation set. <60s."""
    t0 = time.perf_counter()
    rng = random.Random(2026)
    clock = simulate.SimClock()
    witnesses = obligations.DEFAULT_WITNESSES | frozenset(["governance-audit-not"])
    k = kn.Kernel(sandbox.simulation_artifact(4), clock=clock,
                  witnesses=witnesses)
    founding_immutables = {ob.id for ob in k.artifact.obligations if ob.immutable}
    actors = [f"fuzzer-{i}" for i in range(6)]

    accepted = rejected = stale = 0
    prev_ratchet = kn.RatchetState.of(k.artifact)
    steps = 0
    while steps < 1000:
        cs = _fuzz_ops(rng, k, actors)
        clock.tick()
        if cs is None:
            continue
        steps += 1
        expected = None
        if rng.random() < 0.05:
            expected = "f" * 64  # deliberately stale
        head_before = len(k.history)
        result = k.commit_change_set(cs, expected)
        if result.reason == "stale-state":
            stale += 1
            assert len(k.history) == head_before
            continue
        if result.accepted:
            accepted += 1
            assert len(k.history) == head_before + 1
            state = k.artifact
            assert founding_immutables <= {ob.id for ob in state.obligations}
            ratchet = kn.RatchetState.of(state)
            assert ratchet.requirement_count >= prev_ratchet.requirement_count
            assert ratchet.obligation_count >= prev_ratchet.obligation_count
            assert ratchet.delivered >= prev_ratchet.delivered
            assert ratchet.lesson_count >= prev_ratchet.lesson_count
            prev_ratchet = ratchet
            verdict = obligations.evaluate(
                state, witnesses=witnesses, now=clock(), history=k.history)
            assert verdict.passed, obligations.render_verdict(verdict)
        else:
            rejected += 1
            assert len(k.history) == head_before

    assert accepted > 50, "fuzzer never exercised the accept path"
    assert rejected > 50, "fuzzer never exercised the reject path"
    assert stale > 0

    for i in range(len(k.history)):
        state = k.history.artifact_at(i)
        verdict = obligations.evaluate(
            state, witnesses=witnesses, now=clock(), history=k.history)
        assert verdict.passed, f"snapshot {i} fails its own obligations"
        assert founding_immutables <= {ob.id for ob in state.obligations}
    k.history.validate()

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(4, f"1000 change sets: {accepted} accepted, {rejected} rejected, "
              f"{stale} stale; {len(k.history)} snapshots re-verify "
              f"({elapsed:.1f}s)")


# --------------------------------------------------------------- 5


def test_criterion_05_guidebook_consistency():
    """Contradictions are caught at import with the constraint id; the
    demo trio is jointly satisfiable; parent obligations embed into
    every importing child's effective set."""
    registry = obligations.builtin_registry()

    bad = gb.parse_guidebook(
        '(guidebook-constraint GC-IMPOSSIBLE'
        ' (z3_formula (and p (not p)))'
        ' (po-kind feature-code-test-symmetry))', "bad.epoch")
    issues = gb.check_guidebook_consistency([bad], registry=registry)
    assert any(i.kind == "unsat" and i.constraint_id == "GC-IMPOSSIBLE"
               for i in issues)

    trio = gb.parse_guidebook(sandbox.DEMO_GUIDEBOOK, "epoch.guidebook.epoch")
    trio_issues = gb.check_guidebook_consistency([trio], registry=registry)
    assert trio_issues == []
    assert len(trio.constraints) == 3

    child_text = ('(imports "parent.epoch")'
                  '(guidebook-constraint GC-CHILD'
                  ' (z3_formula (implies feature_delivered has_test_paths))'
                  ' (po-kind feature-code-test-symmetry))')
    parent_text = ('(guidebook-constraint GC-PARENT'
                   ' (z3_formula (implies evidence_submitted witness_registered))'
                   ' (po-kind evidence-provenance))')
    files = {"child.epoch": child_text, "parent.epoch": parent_text}
    child_books = gb.load_guidebooks(["child.epoch"], reader=files.__getitem__)
    parent_books = gb.load_guidebooks(["parent.epoch"], reader=files.__getitem__)
    child_ids = {ob.id for ob in gb.effective_obligations((), child_books)}
    parent_ids = {ob.id for ob in gb.effective_obligations((), parent_books)}
    assert parent_ids <= child_ids and "GC-CHILD" in child_ids

    report(5, "UNSAT flagged at import, demo trio jointly Sat, "
              "parent set embeds in child set")


# --------------------------------------------------------------- 6


def test_criterion_06_fabrications_never_reach_the_log():
    """Across 100 seeded runs every fabricated evidence record bounces
    off the gate; the fused evidence path only ever writes
    provenance-passing records, and a failing runner writes nothing."""
    total_fabrications = 0
    for seed in range(100):
        result = simulate.run_scenario([simulate.Fabricator()],
                                       seed=seed, steps=8)
        fabricated = result.fabrications["fabricator-0"]
        assert fabricated > 0, f"seed {seed} never fabricated"
        total_fabrications += fabricated
        assert result.fabrications_in_wal() == 0, f"seed {seed} leaked"

    files = {"tests/test_brain.py": b"def test_ok(): pass\n"}
    k = demo_kernel()
    declared = deliver_feat01()  # delivered with a real test path
    assert k.commit_change_set(declared).accepted
    gate_cs = ev.run_evidence_gate(
        k.artifact, "FEAT-01", lambda paths: (True, "1 passed"),
        reader=files.__getitem__, timestamp=sandbox.DEMO_NOW)
    assert isinstance(gate_cs, ChangeSet)
    assert k.commit_change_set(gate_cs).accepted
    record = k.artifact.evidence[-1]
    assert record.server_computed and record.witness == ev.GATE_WITNESS
    health = obligations.evaluate(
        k.artifact, k.effective(), registry=k.registry, history=k.history,
        witnesses=k.witnesses, now=k.clock())
    assert health.passed

    k2 = demo_kernel()
    assert k2.commit_change_set(deliver_feat01()).accepted
    failed = ev.run_evidence_gate(
        k2.artifact, "FEAT-01", lambda paths: (False, "2 failed"),
        reader=files.__getitem__, timestamp=sandbox.DEMO_NOW)
    assert isinstance(failed, ev.GateFailure) and not failed
    assert len(k2.artifact.evidence) == 0
    assert len(k2.history) == 2  # genesis + delivery, nothing else

    report(6, f"{total_fabrications} fabrications over 100 seeds, 0 in WAL; "
              "fused gate emits only provenance-passing records")


# --------------------------------------------------------------- 7


def _gate_delivery(a, witnesses_used):
    feat = a.feature("SF-01")
    ops = [UpdateOp("features", "SF-01",
                    encode_feature(dataclasses.replace(feat, status="delivered")))]
    for witness in witnesses_used:
        ops.append(AddOp("coordination", encode_evidence(EvidenceRecord(
            "SF-01", witness, status="passed", hash="cd" * 32,
            server_computed=True, timestamp=sandbox.DEMO_NOW))))
    return ChangeSet(ops=tuple(ops), actor="agent-main", intent="deliver SF-01")


def test_criterion_07_gate_sequence_order():
    """Skipping the formal-verification gate names the missing
    prerequisite; the full ladder is accepted."""
    witnesses = obligations.DEFAULT_WITNESSES | frozenset(sandbox.GATE_WITNESSES)

    k = kn.Kernel(sandbox.gate_artifact(), witnesses=witnesses,
                  clock=lambda: NOW)
    partial = _gate_delivery(k.artifact, ["lint", "unit-sim", "verilator-sim"])
    result = k.commit_change_set(partial)
    assert not result.accepted
    messages = [v.message for v in result.verdict.violations]
    assert any("requires FI-0c to pass first" in m for m in messages)

    complete = _gate_delivery(k.artifact, list(sandbox.GATE_WITNESSES))
    assert k.commit_change_set(complete).accepted
    assert k.artifact.feature("SF-01").status == "delivered"

    report(7, 'skipped gate rejected with "requires FI-0c to pass first"; '
              "full ladder accepted")


# --------------------------------------------------------------- 8


def test_criterion_08_tier_differentiation():
    """Behavioral signatures, not model identities: the fabricator is
    contained quickly and locked out of claims; the compliant agent is
    never demoted; the two remaining policies fail differently."""
    fab = simulate.run_scenario([simulate.Fabricator()], seed=7, steps=20)
    track = fab.tier_track["fabricator-0"]
    assert "restricted" in track
    assert track.index("restricted") < 15
    assert fab.refused_claims["fabricator-0"] > 0
    assert fab.final_tier("fabricator-0") == "restricted"

    good = simulate.run_scenario([simulate.Compliant()], seed=3, steps=50)
    assert len(good.tier_track["compliant-0"]) == 50
    assert set(good.tier_track["compliant-0"]) == {"unrestricted"}
    assert sum(good.rejection_kinds("compliant-0").values()) == 0

    skipper = simulate.run_scenario([simulate.GateSkipper()], seed=5, steps=20)
    quitter = simulate.run_scenario([simulate.Abandoner()], seed=5, steps=20)
    sk = skipper.rejection_kinds("gate-skipper-0")
    ab = quitter.rejection_kinds("abandoner-0")
    assert set(sk) != set(ab)
    assert sk["gate-sequence"] > 0 and ab["gate-sequence"] == 0

    report(8, f"fabricator restricted at action "
              f"{track.index('restricted') + 1} with claims refused; "
              f"compliant clean for 50; signatures "
              f"{sorted(sk)} vs {sorted(ab)}")


# --------------------------------------------------------------- 9


def _retro_history():
    reqs = (Requirement("R-1", "functional", "RAD", "base requirement"),)
    filler = Feature("FEAT-OK", "ok", "open",
                     Scope(("R-1",), ("src/ok.py",), ("tests/test_ok.py",)))
    full = Scope(("R-1",), ("src/empty.py",), ("tests/test_empty.py",))
    h = wal.History()
    for i in range(10):
        status = "delivered" if i >= 4 else "open"
        scope = full if i >= 5 else Scope()
        state = Artifact(
            name="retro-fixture", requirements=reqs,
            features=(filler, Feature("FEAT-EMPTY", "empty", status, scope)))
        before = h.head.state_digest if h.head else wal.ZERO_DIGEST
        h.append(state, wal.Attestation(
            agent="agent-1", fingerprint_before=before,
            fingerprint_after=model.artifact_fingerprint(state),
            timestamp=sandbox.DEMO_NOW, intent=f"state {i}"))
    return h


def test_criterion_09_retroactive_verification():
    """The cascade candidate pinpoints the one empty-scope delivered
    state; a window that misses it reports Safe."""
    h = _retro_history()
    candidate = obligations.synthetic_obligation("PO-CASCADE", "delivery-cascade")

    verdict = wal.retroactive_verify(h, candidate, 10)
    assert not verdict.safe
    assert [i for i, _ in verdict.findings] == [4]
    (_, violations) = verdict.findings[0]
    assert any(v.subject == "FEAT-EMPTY" for v in violations)

    recent = wal.retroactive_verify(h, candidate, 3)
    assert recent.safe

    report(9, "full window -> OverConstrained at entry 4 only; "
              "n=3 -> Safe")


# --------------------------------------------------------------- 10


def _random_lia(rng, names):
    def atom():
        coeffs = {v: rng.randint(-5, 5) for v in names}
        const = rng.randint(-20, 20)
        op = rng.choice(["<", ">", "<=", ">=", "=", "!="])
        return Atom(LinearConstraint(op, LinTerm.of(coeffs, 0),
                                     LinTerm.of({}, const)))

    def build(d):
        if d == 0:
            return atom()
        pick = rng.randrange(4)
        if pick == 0:
            return Not(build(d - 1))
        if pick == 1:
            return And([build(d - 1) for _ in range(2)])
        if pick == 2:
            return Or([build(d - 1) for _ in range(2)])
        return Implies(build(d - 1), build(d - 1))

    return build(rng.randrange(1, 3))


def _grid_models(phi, names, bound=50):
    """Vectorized ground truth: does any point of [-bound, bound]^k
    satisfy the formula?"""
    axis = np.arange(-bound, bound + 1, dtype=np.int64)
    shape = [1] * len(names)
    env = {}
    for i, name in enumerate(names):
        view = shape.copy()
        view[i] = axis.size
        env[name] = axis.reshape(view)

    def term(t):
        total = np.int64(t.const)
        for var, coeff in t.coeffs:
            total = total + coeff * env[var]
        return total

    ops = {"<": np.less, ">": np.greater, "<=": np.less_equal,
           ">=": np.greater_equal, "=": np.equal, "!=": np.not_equal}

    def ev_formula(f):
        if isinstance(f, Atom):
            c = f.constraint
            return ops[c.op](term(c.lhs), term(c.rhs))
        if isinstance(f, Not):
            return np.logical_not(ev_formula(f.inner))
        if isinstance(f, And):
            out = ev_formula(f.items[0])
            for sub in f.items[1:]:
                out = np.logical_and(out, ev_formula(sub))
            return out
        if isinstance(f, Or):
            out = ev_formula(f.items[0])
            for sub in f.items[1:]:
                out = np.logical_or(out, ev_formula(sub))
            return out
        if isinstance(f, Implies):
            return np.logical_or(np.logical_not(ev_formula(f.left)),
                                 ev_formula(f.right))
        raise TypeError(f"unexpected node {f!r}")

    return bool(np.any(ev_formula(phi)))


def test_criterion_10_solver_matches_grid_oracle():
    """1000 random linear-integer formulas against an independent
    numpy grid enumeration, plus deletion-minimality of every core."""
    rng = random.Random(42)
    disagreements = 0
    sat_seen = unsat_seen = 0
    for _ in range(1000):
        names = ["x", "y", "z"][: rng.randrange(1, 4)]
        phi = _random_lia(rng, names)
        grid_sat = _grid_models(phi, names)
        got = check_sat_lia(phi)
        assert got.status != "unknown", solver.format_formula(phi)
        if grid_sat:
            sat_seen += 1
            if not got.is_sat:
                disagreements += 1
            else:
                assert eval_ground(phi, got.model, got.int_model)
        elif got.is_sat:
            # legitimate only when the witness lies outside the grid
            assert eval_ground(phi, got.model, got.int_model)
            values = [abs(v) for v in got.int_model.values()]
            if values and max(values) <= 50:
                disagreements += 1
        else:
            unsat_seen += 1
    assert disagreements == 0
    assert sat_seen > 100 and unsat_seen > 20, "degenerate formula mix"

    cores_checked = 0
    core_rng = random.Random(4242)
    while cores_checked < 25:
        names = ["x", "y"][: core_rng.randrange(1, 3)]
        batch = [_random_lia(core_rng, names) for _ in range(4)]
        if not check_sat_lia(And(tuple(batch))).is_unsat:
            continue
        core = minimal_unsat_subset(batch)
        assert check_sat_lia(And(tuple(core))).is_unsat
        for member in core:
            rest = tuple(g for g in core if g is not member)
            if rest:
                assert check_sat_lia(And(rest)).is_sat, "core not minimal"
        cores_checked += 1

    report(10, f"1000 formulas, 0 disagreements ({sat_seen} grid-sat, "
               f"{unsat_seen} both-unsat); {cores_checked} minimal cores")


# --------------------------------------------------------------- 11


def test_criterion_11_lesson_soundness():
    """With the preventive obligation assumed, the recorded failure
    mode is unreachable; without it, the solver exhibits the failing
    precondition."""
    pre = And((Var("commit_path_mode"), Var("z3_called_per_feature")))
    ctx = Implies(Var("commit_path_mode"), Not(Var("z3_called_per_feature")))
    lesson = model.Lesson(
        id="LSN-OOM", failure="memory exhaustion in batch verification",
        root_cause="solver invoked per feature x constraint",
        fix="verify once per commit", obligation="single solver pass",
        affected_scope=("src/verify.py",), severity=3)

    prevented = ls.check_lesson_soundness(lesson, ctx, pre)
    assert prevented.prevented
    assert isinstance(prevented, ls.Prevented)

    uncovered = ls.check_lesson_soundness(lesson, ctx, pre,
                                          assume_obligation=False)
    assert not uncovered.prevented
    assert uncovered.model["commit_path_mode"] is True
    assert uncovered.model["z3_called_per_feature"] is True

    report(11, "obligation assumed -> Prevented (UNSAT); dropped -> "
               "NotCovered with precondition-true model")


# --------------------------------------------------------------- 12


def _synthetic_big_artifact(n_features=400, n_obligations=250):
    reqs, feats, traces = [], [], []
    for i in range(n_features):
        rid = f"R-{i:03d}"
        reqs.append(Requirement(rid, "functional", "gen", f"capability {i}"))
        traces.append(Trace(f"T-{i:03d}", rid, "Core", "Rec"))
        feats.append(Feature(
            f"F-{i:03d}", f"capability {i}", "open",
            Scope((rid,), (f"src/m_{i}.py",), (f"tests/test_m_{i}.py",))))
    kinds = ["traceability-complete", "connector-integrity",
             "feature-code-test-symmetry", "dag-enforcement",
             "immutable-obligations", "ratchet", "delivery-cascade",
             "evidence-provenance"]
    obs = tuple(ProofObligation(f"PO-{i:03d}", kinds[i % len(kinds)],
                                f"generated {i}")
                for i in range(n_obligations))
    return Artifact(
        name="wide-load", requirements=tuple(reqs),
        components=(Component("Core", "everything"),),
        design_elements=(DesignElement("value-object", "Rec"),),
        features=tuple(feats), traces=tuple(traces), obligations=obs)


def test_criterion_12_incremental_verification():
    """Features-only commits never invoke the workflow solver; the
    incremental verdict agrees with full evaluation on this suite's
    fixtures; wide-artifact latency is measured and reported."""
    k = demo_kernel()
    k.registry.invocations.clear()
    verdict = k.precommit_check(deliver_feat01())
    assert verdict.passed
    assert k.registry.invocations.get("workflow-satisfiability", 0) == 0
    assert k.registry.invocations.get("feature-code-test-symmetry", 0) >= 1

    fixtures = [
        deliver_feat01(),
        deliver_feat01(test_paths=()),
        ChangeSet(ops=(AddOp("proof-obligations", encode_obligation(
            ProofObligation("PO-FROZEN", "connector-existence", "wired",
                            immutable=True))),),
                  actor="architect", intent="freeze"),
        ChangeSet(ops=(RemoveOp("traceability", "TR-01"),),
                  actor="vandal", intent="unhook"),
        ChangeSet(ops=(AddOp("requirements", encode_requirement(
            Requirement("FR-02", "functional", "RAD", "respond fast"))),),
                  actor="pm", intent="orphan requirement"),
    ]
    for cs in fixtures:
        quick = k.precommit_check(cs)
        full = k.what_if(cs)
        assert quick.passed == full.passed
        assert {(v.obligation_id, v.subject) for v in quick.violations} == \
               {(v.obligation_id, v.subject) for v in full.violations}

    # Its unregistered kinds (immutable-obligations, ratchet) fail every
    # gate alike, precommit included; latency is taken without them.
    wide = _synthetic_big_artifact()
    feat = wide.feature("F-000")
    cs = ChangeSet(
        ops=(UpdateOp("features", "F-000", encode_feature(
            dataclasses.replace(feat, status="delivered"))),),
        actor="speedrun", intent="deliver F-000")
    unregistered = kn.Kernel(wide, clock=lambda: NOW, verify_initial=False)
    assert unregistered.precommit_check(cs).core == unregistered.what_if(cs).core == \
        unregistered.commit_change_set(cs).verdict.core == ("REGISTRY",)

    registered = obligations.builtin_registry().registered_kinds()
    big = kn.Kernel(dataclasses.replace(wide, obligations=tuple(
        ob for ob in wide.obligations if ob.kind in registered)),
        clock=lambda: NOW, verify_initial=False)
    t0 = time.perf_counter()
    verdict = big.precommit_check(cs)
    latency_ms = (time.perf_counter() - t0) * 1000
    assert verdict.passed
    budget = "within" if latency_ms < 500 else "OVER"
    warnings.warn(
        f"precommit on {len(big.artifact.obligations)}-obligation/400-feature artifact: "
        f"{latency_ms:.0f} ms ({budget} the 500 ms soft budget); "
        "reported, not asserted", stacklevel=1)

    report(12, f"workflow solver not invoked; incremental == full on 5 "
               f"fixtures; wide precommit {latency_ms:.0f} ms (soft budget)")
