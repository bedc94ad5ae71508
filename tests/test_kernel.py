"""The mutation gate end to end: verify-before-write, immutability,
ratchets, tiers, supervision, claims, lesson credit, and WAL
persistence."""

import dataclasses
import errno

import pytest

from epochd import coordination as co
from epochd import kernel as kn
from epochd import model, obligations, sandbox, sexpr, solver, wal
from epochd.model import (
    AddOp,
    Artifact,
    ChangeSet,
    Component,
    Connector,
    Feature,
    ProofObligation,
    RemoveOp,
    Requirement,
    Scope,
    Trace,
    Transition,
    UpdateOp,
    Workflow,
    encode_feature,
    encode_obligation,
    encode_requirement,
    encode_trace,
    encode_workflow,
    parse_rfc3339,
)

NOW = parse_rfc3339(sandbox.DEMO_NOW)


def demo_kernel(**kw):
    a = model.decode_text(sandbox.DEMO_ARTIFACT)
    reader = {"epoch.guidebook.epoch": sandbox.DEMO_GUIDEBOOK}.__getitem__
    kw.setdefault("clock", lambda: NOW)
    return kn.Kernel(a, guidebook_reader=reader, base_dir="project", **kw)


def tiny_kernel(**kw):
    a = Artifact(
        name="tiny",
        requirements=(Requirement("R-1", "functional", "t", "works"),),
        components=(Component("Core", "does the thing"),),
        design_elements=kw.pop("design_elements", ()),
        features=(Feature("F-1", "thing", "open",
                          Scope(("R-1",), ("src/core.py",), ("tests/test_core.py",))),),
    )
    kw.setdefault("clock", lambda: NOW)
    return kn.Kernel(a, **kw)


def deliver_feat01(extra_tests=("tests/test_brain.py",)):
    a = model.decode_text(sandbox.DEMO_ARTIFACT)
    feat = a.feature("FEAT-01")
    new = dataclasses.replace(
        feat, status="delivered",
        scope=dataclasses.replace(feat.scope, test_paths=tuple(extra_tests)))
    return ChangeSet(
        ops=(UpdateOp("features", "FEAT-01", encode_feature(new)),),
        actor="opus-a1b2", intent="deliver FEAT-01")


# -------------------------------------------------------------- startup


def test_genesis_entry_written():
    k = tiny_kernel()
    assert len(k.history) == 1
    genesis = k.history[0]
    assert genesis.attestation.agent == "kernel"
    assert genesis.attestation.intent == "genesis"
    assert genesis.state_digest == k.history[0].state_digest
    k.history.validate()


def test_bad_initial_state_refused():
    a = Artifact(
        name="broken",
        connectors=(Connector("Ghost", "AlsoGhost"),),
        obligations=(ProofObligation("PO-C", "connector-integrity"),),
    )
    with pytest.raises(kn.KernelError):
        kn.Kernel(a, clock=lambda: NOW)


def test_contradictory_guidebook_refused():
    a = dataclasses.replace(
        model.decode_text(sandbox.DEMO_ARTIFACT), guidebook_imports=("bad.epoch",))
    book = ('(guidebook-constraint GC-IMPOSSIBLE'
            ' (z3_formula (and p (not p))) (po-kind conformance))')
    with pytest.raises(kn.GuidebookInconsistent) as exc:
        kn.Kernel(a, guidebook_reader={"bad.epoch": book}.__getitem__,
                  clock=lambda: NOW)
    assert any(i.constraint_id == "GC-IMPOSSIBLE" for i in exc.value.issues)


# ----------------------------------------------- verify-before-write


def test_rejected_commit_leaves_no_trace_in_state_or_wal():
    k = demo_kernel()
    before_fp = k.head_fingerprint()
    result = k.commit_change_set(deliver_feat01(extra_tests=()))
    assert not result.accepted and result.reason == "rejected"
    assert k.head_fingerprint() == before_fp
    assert len(k.history) == 1
    assert [e.kind for e in k.ledger.events] == ["agent_rejection"]
    assert k.ledger.events[0].po_kinds == ("feature-code-test-symmetry",)


def test_demo_delivery_rejection_renders_single_violation():
    k = demo_kernel()
    result = k.commit_change_set(deliver_feat01(extra_tests=()))
    text = obligations.render_verdict(result.verdict)
    assert result.verdict.core == ("GC-SCOPE-COMPLETENESS",)
    assert text.count("FAIL") == 1
    assert text.count("PASS") == 6
    assert "REJECTED: 1 violation (GC-SCOPE-COMPLETENESS)" in text


def test_demo_delivery_with_tests_accepted():
    k = demo_kernel()
    result = k.commit_change_set(deliver_feat01())
    assert result.accepted
    assert len(k.history) == 2
    assert k.artifact.feature("FEAT-01").status == "delivered"
    assert result.entry.attestation.fingerprint_after == k.head_fingerprint()
    assert result.entry.attestation.features == ("FEAT-01",)
    kinds = [e.kind for e in k.ledger.events]
    assert "probe_success" in kinds and "agent_rejection" not in kinds


def test_what_if_persists_nothing():
    k = demo_kernel()
    verdict = k.what_if(deliver_feat01())
    assert verdict.passed
    assert len(k.history) == 1
    assert k.ledger.events == []
    assert k.artifact.feature("FEAT-01").status == "claimed"


def test_malformed_change_set_rejected_with_carrier():
    k = tiny_kernel()
    cs = ChangeSet(ops=(RemoveOp("features", "F-404"),), actor="a", intent="oops")
    result = k.commit_change_set(cs)
    assert not result.accepted
    assert result.verdict.core == ("CHANGE-SET",)
    assert k.ledger.events[0].po_kinds == ("change-set-application",)


def test_stale_fingerprint_is_refused_without_friction():
    k = demo_kernel()
    stale = "0" * 64
    result = k.commit_change_set(deliver_feat01(), expected_fingerprint=stale)
    assert not result.accepted and result.reason == "stale-state"
    assert k.ledger.events == []
    fresh = k.commit_change_set(deliver_feat01(),
                                expected_fingerprint=k.head_fingerprint())
    assert fresh.accepted


# ---------------------------------------------------- self-amendment


def immutable_po_cs():
    po = ProofObligation(
        "PO-FROZEN", "connector-existence",
        "every traced component stays wired", immutable=True)
    return ChangeSet(ops=(AddOp("proof-obligations", encode_obligation(po)),),
                     actor="architect", intent="freeze wiring")


def test_added_obligation_is_immediately_active_and_protected():
    k = demo_kernel()

    step1 = k.commit_change_set(immutable_po_cs())
    assert step1.accepted
    assert any(ob.id == "PO-FROZEN" for ob in k.artifact.obligations)

    # violating mutation: drop the only connector, leaving traced
    # components unwired; rejected by the new obligation's id
    step2 = k.commit_change_set(ChangeSet(
        ops=(RemoveOp("architecture", "Interceptor->Brain"),),
        actor="vandal", intent="unwire"))
    assert not step2.accepted
    assert "PO-FROZEN" in step2.verdict.core

    # removal of the obligation itself: immutability guard fires
    step3 = k.commit_change_set(ChangeSet(
        ops=(RemoveOp("proof-obligations", "PO-FROZEN"),),
        actor="vandal", intent="unfreeze"))
    assert not step3.accepted
    assert "IMMUTABILITY-GUARD" in step3.verdict.core
    assert any(v.kind == "immutable-obligations" for v in step3.verdict.violations)


def test_weakening_immutable_obligation_rejected():
    k = demo_kernel()
    assert k.commit_change_set(immutable_po_cs()).accepted
    weakened = ProofObligation("PO-FROZEN", "conformance", "now toothless",
                               immutable=True)
    result = k.commit_change_set(ChangeSet(
        ops=(UpdateOp("proof-obligations", "PO-FROZEN",
                      encode_obligation(weakened)),),
        actor="vandal", intent="soften"))
    assert not result.accepted
    assert any("weakened" in v.message for v in result.verdict.violations)


def test_requirement_removal_hits_ratchet():
    k = demo_kernel()
    result = k.commit_change_set(ChangeSet(
        ops=(RemoveOp("requirements", "FR-01"),),
        actor="a", intent="trim"))
    assert not result.accepted
    assert "RATCHET" in result.verdict.core or "PO-TRACE-01" in result.verdict.core
    ratchet = [v for v in result.verdict.violations if v.kind == "ratchet"]
    assert ratchet and "requirement count" in ratchet[0].message


def test_delivered_feature_cannot_revert():
    k = demo_kernel()
    assert k.commit_change_set(deliver_feat01()).accepted
    feat = k.artifact.feature("FEAT-01")
    reopened = dataclasses.replace(feat, status="open")
    result = k.commit_change_set(ChangeSet(
        ops=(UpdateOp("features", "FEAT-01", encode_feature(reopened)),),
        actor="a", intent="reopen"))
    assert not result.accepted
    assert any("revert" in v.message for v in result.verdict.violations)


# ------------------------------------------------------ tiers at gate


def rejections(ledger, agent, n, kind="dag-enforcement"):
    for _ in range(n):
        ledger.record("agent_rejection", agent, sandbox.DEMO_NOW, po_kinds=(kind,))


def test_restricted_agent_cannot_acquire_claim_through_gate():
    k = tiny_kernel()
    rejections(k.ledger, "felon", 10)
    cs = co.claim_feature(k.artifact, co.FrictionLedger(), "felon", "F-1", NOW)
    assert isinstance(cs, ChangeSet)  # bypassing claim_feature's own tier check
    result = k.commit_change_set(cs)
    assert not result.accepted
    assert any(v.kind == "trust-tier" for v in result.verdict.violations)


def test_supervised_agent_needs_prior_what_if():
    k = tiny_kernel()
    rejections(k.ledger, "shaky", 3)  # score 3.0 -> supervised
    cs = ChangeSet(
        ops=(AddOp("requirements",
                   encode_requirement(Requirement("R-2", "functional", "t", "more"))),),
        actor="shaky", intent="add requirement")
    blind = k.commit_change_set(cs)
    assert not blind.accepted
    assert "SUPERVISED-COMMIT" in blind.verdict.core

    assert k.what_if(cs).passed
    approved = k.commit_change_set(cs)
    assert approved.accepted


def test_supervised_approval_is_per_change_set():
    k = tiny_kernel()
    rejections(k.ledger, "shaky", 3)
    cs_a = ChangeSet(
        ops=(AddOp("requirements",
                   encode_requirement(Requirement("R-2", "functional", "t", "a"))),),
        actor="shaky", intent="a")
    cs_b = ChangeSet(
        ops=(AddOp("requirements",
                   encode_requirement(Requirement("R-3", "functional", "t", "b"))),),
        actor="shaky", intent="b")
    assert k.what_if(cs_a).passed
    assert not k.commit_change_set(cs_b).accepted
    assert k.commit_change_set(cs_a).accepted


def test_supervised_approval_lapses_when_another_commit_lands():
    k = tiny_kernel()
    rejections(k.ledger, "shaky", 3)
    cs = ChangeSet(
        ops=(AddOp("requirements",
                   encode_requirement(Requirement("R-2", "functional", "t", "a"))),),
        actor="shaky", intent="a")
    other = ChangeSet(
        ops=(AddOp("requirements",
                   encode_requirement(Requirement("R-3", "functional", "t", "b"))),),
        actor="fresh", intent="b")
    assert k.what_if(cs).passed
    assert k.commit_change_set(other).accepted
    late = k.commit_change_set(cs)
    assert not late.accepted
    assert late.verdict.core == ("SUPERVISED-COMMIT",)


def test_unrestricted_agent_commits_without_what_if():
    k = tiny_kernel()
    cs = ChangeSet(
        ops=(AddOp("requirements",
                   encode_requirement(Requirement("R-2", "functional", "t", "more"))),),
        actor="fresh", intent="add")
    assert k.commit_change_set(cs).accepted


# -------------------------------------------------- collaborative credit


def test_overlapping_claim_holders_share_success_credit():
    k = demo_kernel()
    helper_claim = model.Claim(agent="helper", feature="FEAT-01",
                               lease_expires="2026-03-20T14:00:00Z")
    # opus-a1b2 already holds FEAT-01; park a second agent on the same
    # feature by giving it its own claim record keyed differently
    a = k.artifact
    side = Feature("FEAT-02", "sidecar", "claimed",
                   Scope(("UR-01",), ("src/side.py",), ("tests/test_side.py",)))
    grow = ChangeSet(
        ops=(AddOp("features", encode_feature(side)),
             AddOp("coordination", model.encode_record(
                 model.Claim(agent="helper", feature="FEAT-02",
                             lease_expires="2026-03-20T14:00:00Z"))),
             AddOp("traceability",
                   encode_trace(Trace("TR-03", "UR-01", "Brain", "Verdict")))),
        actor="helper", intent="add sidecar feature")
    assert k.commit_change_set(grow).accepted

    result = k.commit_change_set(deliver_feat01())
    assert result.accepted
    credited = [e.agent for e in k.ledger.events if e.kind == "probe_success"]
    # actor credited for its own delivery; helper's claimed feature
    # shares UR-01 with the delivered scope
    assert credited.count("opus-a1b2") >= 1
    assert "helper" in credited


def test_commit_credits_the_kinds_that_read_what_it_touched():
    k = demo_kernel()
    assert k.commit_change_set(deliver_feat01()).accepted
    credit = [e for e in k.ledger.events if e.kind == "probe_success"]
    # features: the scope formula's kind reads them; trace, connector,
    # DAG and workflow kinds do not
    assert [(e.po_kinds, e.feature) for e in credit] == [
        (("feature-code-test-symmetry",), "FEAT-01")]
    cs = ChangeSet(ops=(RemoveOp("workflows", "classify-flow"),),
                   actor="opus-a1b2", intent="drop the workflow")
    assert k.commit_change_set(cs).accepted
    assert k.ledger.events[-1].po_kinds == ("traceability-complete",
                                            "workflow-satisfiability")


def test_commit_workflow_with_wide_disjunctive_guard():
    # 13 disjunctions: 2**13 sign patterns, every one satisfiable.
    text = "(and " + " ".join(f"(or (> x{i} {i}) (< x{i} {-i}))" for i in range(13)) + ")"
    guard = solver.formula_from_sexpr(sexpr.parse(text))
    wf = Workflow("wide-flow", ("draft", "released"), "draft",
                  (Transition("draft", "released", guard),))
    k = demo_kernel()
    result = k.commit_change_set(ChangeSet(
        ops=(AddOp("workflows", encode_workflow(wf)),),
        actor="opus-a1b2", intent="add wide-flow"))
    assert result.accepted, result.verdict.violations
    assert k.artifact.workflows[-1].name == "wide-flow"


def test_commit_workflow_guard_over_variable_cap_is_undecided():
    guard = solver.Or([solver.Var(f"v{i}") for i in range(70)])
    wf = Workflow("capped-flow", ("draft", "released"), "draft",
                  (Transition("draft", "released", guard),))
    k = demo_kernel()
    result = k.commit_change_set(ChangeSet(
        ops=(AddOp("workflows", encode_workflow(wf)),),
        actor="opus-a1b2", intent="add capped-flow"))
    assert not result.accepted
    [violation] = result.verdict.violations
    assert violation.kind == "workflow-satisfiability"
    assert "guard satisfiability undecided: 70 variables exceeds cap 64" in violation.message


# -------------------------------------------------------- incremental


def test_features_only_commit_skips_workflow_solver():
    k = demo_kernel()
    k.registry.invocations.clear()
    verdict = k.precommit_check(deliver_feat01())
    assert verdict.passed
    assert k.registry.invocations.get("workflow-satisfiability", 0) == 0
    assert k.registry.invocations.get("feature-code-test-symmetry", 0) >= 1


def test_precommit_verdict_matches_full_evaluation():
    k = demo_kernel()
    for cs in (deliver_feat01(), deliver_feat01(extra_tests=())):
        quick = k.precommit_check(cs)
        full = k.what_if(cs)
        assert quick.passed == full.passed
        assert {(v.obligation_id, v.subject) for v in quick.violations} == \
               {(v.obligation_id, v.subject) for v in full.violations}


# -------------------------------------------------------- persistence


def test_wal_directory_round_trip(tmp_path):
    k = demo_kernel(wal_dir=str(tmp_path))
    assert k.commit_change_set(deliver_feat01()).accepted
    loaded = wal.load_history(str(tmp_path))
    assert len(loaded) == 2
    assert loaded.head.entry_digest == k.history.head.entry_digest
    assert loaded.artifact_at(1).feature("FEAT-01").status == "delivered"


def test_failed_entry_write_changes_neither_memory_nor_disk(tmp_path, monkeypatch):
    k = demo_kernel(wal_dir=str(tmp_path))
    on_disk = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    head, events = k.artifact, list(k.ledger.events)

    def disk_full(directory, entry):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(wal, "save_entry", disk_full)
    with pytest.raises(OSError):
        k.commit_change_set(deliver_feat01())
    assert len(k.history) == 1
    assert k.artifact is head and k.artifact.feature("FEAT-01").status == "claimed"
    assert k.ledger.events == events
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == on_disk

    monkeypatch.undo()
    result = k.commit_change_set(deliver_feat01())
    assert result.accepted and result.entry.index == 1
    assert wal.load_history(str(tmp_path)).entries == k.history.entries


def count_codec_calls(monkeypatch) -> dict:
    """Count model.encode_text and model.decode_text calls at every
    binding site from here on."""
    calls = {"encode": 0, "decode": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(model, "encode_text", counted("encode", model.encode_text))
    decode = counted("decode", model.decode_text)
    monkeypatch.setattr(model, "decode_text", decode)
    monkeypatch.setattr(obligations, "decode_text", decode)
    return calls


def test_accepted_commit_encodes_once_and_decodes_nothing(tmp_path, monkeypatch):
    k = demo_kernel(wal_dir=str(tmp_path))
    cs = deliver_feat01()
    calls = count_codec_calls(monkeypatch)
    result = k.commit_change_set(cs)
    assert result.accepted
    assert calls == {"encode": 1, "decode": 0}
    assert k.history.head.snapshot == k.artifact.text


def test_retroactive_verify_on_loaded_history_decodes_nothing(tmp_path, monkeypatch):
    k = demo_kernel(wal_dir=str(tmp_path))
    assert k.commit_change_set(deliver_feat01()).accepted
    assert k.commit_change_set(ChangeSet(
        ops=(AddOp("requirements", encode_requirement(
                 Requirement("FR-09", "functional", "DDD", "log every verdict"))),
             AddOp("traceability", encode_trace(Trace("TR-09", "FR-09", "Brain", "Verdict")))),
        actor="opus-a1b2", intent="add FR-09")).accepted
    loaded = wal.load_history(str(tmp_path))
    calls = count_codec_calls(monkeypatch)
    for kind in ("spec-precedes-code", "delivery-cascade"):
        candidate = obligations.synthetic_obligation("PO-CAND", kind)
        assert wal.retroactive_verify(loaded, candidate, len(loaded)).safe
    assert calls == {"encode": 0, "decode": 0}


def test_guidebook_mutation_is_reresolved_at_gate():
    from epochd import sexpr
    k = demo_kernel()
    # import a nonexistent guidebook: resolution fails at the gate
    cs = ChangeSet(
        ops=(AddOp("guidebooks", sexpr.parse('(imports "missing.epoch")')),),
        actor="a", intent="extend imports")
    result = k.commit_change_set(cs)
    assert not result.accepted
    assert result.verdict.core == ("GUIDEBOOK-RESOLVE",)
