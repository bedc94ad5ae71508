import dataclasses

import pytest

from epochd import guidebook as gb
from epochd import model, obligations, sandbox, sexpr, solver
from epochd.model import (
    AddOp,
    ChangeSet,
    Claim,
    Component,
    Connector,
    EvidenceRecord,
    Feature,
    ProofObligation,
    RemoveOp,
    Requirement,
    Scope,
    Transition,
    UpdateOp,
    Workflow,
    apply_change_set,
    encode_feature,
    encode_record,
    encode_requirement,
    parse_rfc3339,
)

NOW = parse_rfc3339(sandbox.DEMO_NOW)


def demo_with_guidebook():
    a = sandbox.demo_artifact()
    books = gb.load_guidebooks(
        a.guidebook_imports, base_dir="project",
        reader={"epoch.guidebook.epoch": sandbox.DEMO_GUIDEBOOK}.__getitem__,
    )
    return a, gb.effective_obligations(a.obligations, books)


def deliver_feat01(extra_tests=()):
    a = sandbox.demo_artifact()
    feat = a.feature("FEAT-01")
    new = dataclasses.replace(
        feat, status="delivered",
        scope=dataclasses.replace(feat.scope, test_paths=tuple(extra_tests)),
    )
    cs = ChangeSet(
        ops=(UpdateOp("features", "FEAT-01", encode_feature(new)),),
        actor="opus-a1b2", intent="deliver FEAT-01",
    )
    return a, apply_change_set(a, cs), cs


def test_demo_local_obligations_pass():
    a = sandbox.demo_artifact()
    verdict = obligations.evaluate(a)
    assert verdict.passed
    assert [ob.id for ob, _ in verdict.results] == [
        "PO-TRACE-01", "PO-CONN-01", "PO-DAG-01", "PO-WF-01",
    ]


def test_demo_with_guidebook_passes_at_rest():
    a, effective = demo_with_guidebook()
    assert [ob.id for ob in effective] == [
        "PO-TRACE-01", "PO-CONN-01", "PO-DAG-01", "PO-WF-01",
        "GC-SCOPE-COMPLETENESS", "GC-MODULE-DAG", "GC-EVIDENCE-PROVENANCE",
    ]
    assert obligations.evaluate(a, effective).passed


def test_delivery_without_test_paths_rejected_by_inherited_constraint():
    a, effective = demo_with_guidebook()
    base, candidate, cs = deliver_feat01()
    verdict = obligations.evaluate(
        candidate, effective, baseline=base, change_set=cs, now=NOW,
    )
    assert not verdict.passed
    assert len(verdict.violations) == 1
    v = verdict.violations[0]
    assert v.obligation_id == "GC-SCOPE-COMPLETENESS"
    assert v.subject == "FEAT-01"
    assert v.message == "has code-paths, missing test-paths"
    passes = [ob.id for ob, vs in verdict.results if not vs]
    assert len(passes) == 6


def test_delivery_with_test_paths_accepted():
    _, effective = demo_with_guidebook()
    base, candidate, cs = deliver_feat01(extra_tests=("tests/test_brain.py",))
    verdict = obligations.evaluate(
        candidate, effective, baseline=base, change_set=cs, now=NOW,
    )
    assert verdict.passed


def test_render_matches_expected_layout():
    _, effective = demo_with_guidebook()
    base, candidate, cs = deliver_feat01()
    verdict = obligations.evaluate(candidate, effective, baseline=base, change_set=cs)
    text = obligations.render_verdict(
        verdict, header="commit_change_set: verify FEAT-01 delivery",
    )
    lines = text.splitlines()
    assert lines[0] == "commit_change_set: verify FEAT-01 delivery"
    assert sum(1 for ln in lines if ln.endswith("PASS")) == 6
    assert sum(1 for ln in lines if ln.endswith("FAIL")) == 1
    assert "  -- inherited from epoch.guidebook.epoch --" in lines
    assert "    FEAT-01: has code-paths, missing test-paths" in lines
    assert any(ln.startswith("    z3: ") and ln.endswith("-> UNSAT") for ln in lines)
    assert lines[-1] == "REJECTED: 1 violation (GC-SCOPE-COMPLETENESS)"


def test_render_accepted_line():
    a = sandbox.demo_artifact()
    text = obligations.render_verdict(obligations.evaluate(a))
    assert text.splitlines()[-1] == "ACCEPTED: all obligations hold"


# -------------------------------------------------- per-kind checks


def test_untraced_requirement_flagged():
    a = sandbox.demo_artifact()
    cs = ChangeSet(
        ops=(AddOp("requirements", encode_requirement(
            Requirement("FR-02", kind="functional", source="DDD", shall="x"))),),
        actor="a", intent="add req",
    )
    verdict = obligations.evaluate(apply_change_set(a, cs))
    assert verdict.core == ("PO-TRACE-01",)
    assert verdict.violations[0].subject == "FR-02"


def test_trace_removal_breaks_traceability():
    a = sandbox.demo_artifact()
    cs = ChangeSet(ops=(RemoveOp("traceability", "TR-02"),), actor="a", intent="x")
    verdict = obligations.evaluate(apply_change_set(a, cs))
    assert [v.subject for v in verdict.violations] == ["FR-01"]


def test_trace_to_missing_design_element_not_counted():
    a = sandbox.lesion_artifact()
    cs = ChangeSet(ops=(RemoveOp("design", "Shape-3"),), actor="a", intent="x")
    verdict = obligations.evaluate(apply_change_set(a, cs))
    assert ("R-03" in [v.subject for v in verdict.violations])
    assert all(v.kind == "traceability-complete" for v in verdict.violations)


def test_workflow_name_counts_as_design_target():
    a = sandbox.demo_artifact()
    trace = sexpr.parse("(trace TR-03 FR-01 Brain classify-flow)")
    cs = ChangeSet(ops=(AddOp("traceability", trace),), actor="a", intent="x")
    assert obligations.evaluate(apply_change_set(a, cs)).passed


def test_component_removal_breaks_connector_integrity():
    a = sandbox.demo_artifact()
    cs = ChangeSet(ops=(RemoveOp("architecture", "Brain"),), actor="a", intent="x")
    verdict = obligations.evaluate(apply_change_set(a, cs))
    assert "PO-CONN-01" in verdict.core
    conn = [v for v in verdict.violations if v.kind == "connector-integrity"]
    assert conn[0].subject == "Interceptor->Brain"
    assert "Brain" in conn[0].message


def test_connector_removal_breaks_connector_existence():
    a = sandbox.lesion_artifact()
    cs = ChangeSet(ops=(RemoveOp("architecture", "Hub->Leaf-2"),), actor="a", intent="x")
    verdict = obligations.evaluate(apply_change_set(a, cs))
    assert verdict.core == ("PO-CONNEX",)
    assert [v.subject for v in verdict.violations] == ["T-02"]


def test_connector_cycle_rejected():
    a = sandbox.demo_artifact()
    cs = ChangeSet(
        ops=(AddOp("architecture", encode_record(
            Connector("Brain", "Interceptor", flow="LOOP", protocol="synchronous"))),),
        actor="a", intent="x",
    )
    verdict = obligations.evaluate(apply_change_set(a, cs))
    assert verdict.core == ("PO-DAG-01",)
    assert "->" in verdict.violations[0].subject


def test_self_loop_rejected():
    a = dataclasses.replace(
        sandbox.demo_artifact(),
        connectors=(Connector("Brain", "Brain"),),
    )
    verdict = obligations.evaluate(a)
    assert "PO-DAG-01" in verdict.core


def test_unsatisfiable_guard_rejected():
    guard = solver.formula_from_sexpr(sexpr.parse("(and (> x 0) (< x 0))"))
    wf = Workflow("bad-flow", states=("a", "b"), initial="a",
                  transitions=(Transition("a", "b", guard),))
    a = dataclasses.replace(sandbox.demo_artifact(), workflows=(wf,))
    verdict = obligations.evaluate(a)
    assert verdict.core == ("PO-WF-01",)
    assert verdict.violations[0].subject == "bad-flow/a->b"


def test_symmetry_vacuous_for_claimed_feature():
    a = sandbox.demo_artifact()  # FEAT-01 claimed, no test paths
    _, effective = demo_with_guidebook()
    assert obligations.evaluate(a, effective).passed


def test_call_graph_dag_params_cycle():
    po = ProofObligation("PO-MODS", "call-graph-dag", params=sexpr.parse("(modules (a b) (b a))"))
    a = dataclasses.replace(sandbox.demo_artifact())
    verdict = obligations.evaluate(a, (po,))
    assert verdict.core == ("PO-MODS",)
    assert "cycle" in verdict.violations[0].message


def test_call_graph_dag_missing_params_is_config_error():
    po = ProofObligation("PO-MODS", "call-graph-dag")
    verdict = obligations.evaluate(sandbox.demo_artifact(), (po,))
    assert "missing module graph" in verdict.violations[0].message


def test_module_cycle_trips_inherited_formula():
    a, effective = demo_with_guidebook()
    po = ProofObligation("PO-MODS", "call-graph-dag",
                         params=sexpr.parse("(modules (a b) (b a))"))
    a = dataclasses.replace(a, obligations=a.obligations + (po,))
    effective = gb.effective_obligations(
        a.obligations,
        gb.load_guidebooks(a.guidebook_imports, base_dir="p",
                           reader=lambda _: sandbox.DEMO_GUIDEBOOK),
    )
    verdict = obligations.evaluate(a, effective)
    assert "GC-MODULE-DAG" in verdict.core
    assert "PO-MODS" in verdict.core


# ------------------------------------------- evidence and dispatch


def evidence_artifact(record):
    base = sandbox.simulation_artifact()
    return dataclasses.replace(base, evidence=(record,))


def test_evidence_unregistered_witness_flagged():
    rec = EvidenceRecord("SF-01", "governance-audit", status="passed",
                         hash="ab" * 32, server_computed=True)
    verdict = obligations.evaluate(evidence_artifact(rec))
    assert verdict.core == ("PO-PROV",)
    assert "governance-audit" in verdict.violations[0].message


def test_evidence_registered_witness_passes():
    rec = EvidenceRecord("SF-01", "kernel-test-gate", status="passed",
                         hash="ab" * 32, server_computed=True)
    assert obligations.evaluate(evidence_artifact(rec)).passed


@pytest.mark.parametrize("rec,needle", [
    (EvidenceRecord("SF-01", "kernel-test-gate", hash="", server_computed=True), "hash missing"),
    (EvidenceRecord("SF-01", "kernel-test-gate", hash="ab" * 32, server_computed=False),
     "server-side"),
])
def test_evidence_hash_rules(rec, needle):
    verdict = obligations.evaluate(evidence_artifact(rec))
    assert needle in verdict.violations[0].message


def claim_cs(actor, fid="SF-01"):
    a = sandbox.simulation_artifact()
    feat = a.feature(fid)
    new = dataclasses.replace(feat, status="claimed")
    return a, ChangeSet(
        ops=(UpdateOp("features", fid, encode_feature(new)),),
        actor=actor, intent="claim",
    )


def test_dispatch_without_claim_flagged():
    a, cs = claim_cs("x-999")
    candidate = apply_change_set(a, cs)
    verdict = obligations.evaluate(candidate, baseline=a, change_set=cs, now=NOW)
    assert verdict.core == ("PO-CLAIM",)
    assert "x-999" in verdict.violations[0].message


def test_dispatch_with_claim_passes():
    a, cs = claim_cs("agent-7")
    cs = ChangeSet(
        ops=cs.ops + (AddOp("coordination", model.encode_record(
            Claim("agent-7", "SF-01", "2026-03-11T00:00:00Z"))),),
        actor="agent-7", intent="claim",
    )
    candidate = apply_change_set(a, cs)
    verdict = obligations.evaluate(candidate, baseline=a, change_set=cs, now=NOW)
    assert verdict.passed


def test_dispatch_with_expired_claim_flagged():
    a, cs = claim_cs("agent-7")
    cs = ChangeSet(
        ops=cs.ops + (AddOp("coordination", model.encode_record(
            Claim("agent-7", "SF-01", "2026-03-01T00:00:00Z"))),),
        actor="agent-7", intent="claim",
    )
    candidate = apply_change_set(a, cs)
    verdict = obligations.evaluate(candidate, baseline=a, change_set=cs, now=NOW)
    assert "expired" in verdict.violations[0].message


def test_foreign_claim_flagged():
    a, cs = claim_cs("intruder")
    with_claim = dataclasses.replace(
        a, claims=(Claim("owner", "SF-01", "2030-01-01T00:00:00Z"),),
    )
    candidate = apply_change_set(with_claim, cs)
    verdict = obligations.evaluate(candidate, baseline=with_claim, change_set=cs, now=NOW)
    assert "held by owner" in verdict.violations[0].message


def test_noop_update_is_not_dispatch():
    a = sandbox.simulation_artifact()
    feat = a.feature("SF-01")
    cs = ChangeSet(
        ops=(UpdateOp("features", "SF-01", encode_feature(feat)),),
        actor="x-999", intent="touch",
    )
    candidate = apply_change_set(a, cs)
    verdict = obligations.evaluate(candidate, baseline=a, change_set=cs, now=NOW)
    assert verdict.passed


# -------------------------------------------------- gate sequencing


def deliver_sf01(a, evidence):
    feat = a.feature("SF-01")
    new = dataclasses.replace(feat, status="delivered")
    ops = [UpdateOp("features", "SF-01", encode_feature(new))]
    for witness in evidence:
        ops.append(AddOp("coordination", model.encode_evidence(EvidenceRecord(
            "SF-01", witness, status="passed", hash="cd" * 32,
            server_computed=True, timestamp=sandbox.DEMO_NOW,
        ))))
    cs = ChangeSet(ops=tuple(ops), actor="agent-main", intent="deliver")
    return apply_change_set(a, cs), cs


def gate_witnesses_registry():
    return obligations.DEFAULT_WITNESSES | frozenset(sandbox.GATE_WITNESSES)


def test_gate_missing_prerequisite_rejected():
    a = sandbox.gate_artifact()
    candidate, cs = deliver_sf01(a, ["lint", "unit-sim", "verilator-sim"])
    verdict = obligations.evaluate(
        candidate, baseline=a, change_set=cs, now=NOW,
        witnesses=gate_witnesses_registry(),
    )
    messages = [v.message for v in verdict.violations]
    assert any("requires FI-0c to pass first" in m for m in messages)
    assert all(v.obligation_id == "PO-GATES" for v in verdict.violations)


def test_gate_full_ladder_accepted():
    a = sandbox.gate_artifact()
    candidate, cs = deliver_sf01(a, list(sandbox.GATE_WITNESSES))
    verdict = obligations.evaluate(
        candidate, baseline=a, change_set=cs, now=NOW,
        witnesses=gate_witnesses_registry(),
    )
    assert verdict.passed


def test_gate_cycle_is_config_violation():
    params = sexpr.parse(
        "(gates (gate A (witness \"w1\") (depends-on B))"
        " (gate B (witness \"w2\") (depends-on A)))"
    )
    po = ProofObligation("PO-GATES", "gate-sequence", params=params)
    verdict = obligations.evaluate(sandbox.simulation_artifact(), (po,))
    assert "cycle" in verdict.violations[0].message


def test_gate_check_vacuous_at_rest():
    a = sandbox.gate_artifact()
    verdict = obligations.evaluate(a, witnesses=gate_witnesses_registry())
    assert verdict.passed


# ------------------------------------------ history-backed evaluator


class FakeHistory:
    def __init__(self, known=(), length=1):
        self.known = set(known)
        self.length = length

    def __len__(self):
        return self.length

    def first_index_with_feature(self, fid):
        return 0 if fid in self.known else None


def test_spec_precedes_code_rejects_same_commit_declare_and_deliver():
    a = sandbox.simulation_artifact()
    po = ProofObligation("PO-SPEC", "spec-precedes-code")
    new_feat = Feature("SF-99", name="drive-by", status="delivered",
                       scope=Scope(("SR-01",), ("src/x.py",), ("tests/test_x.py",)))
    cs = ChangeSet(ops=(AddOp("features", encode_feature(new_feat)),),
                   actor="a", intent="x")
    candidate = apply_change_set(a, cs)
    verdict = obligations.evaluate(
        candidate, a.obligations + (po,), baseline=a, change_set=cs,
        history=FakeHistory(known=["SF-01"]),
    )
    assert "PO-SPEC" in verdict.core


def test_spec_precedes_code_passes_when_feature_predates():
    a = sandbox.simulation_artifact()
    po = ProofObligation("PO-SPEC", "spec-precedes-code")
    feat = a.feature("SF-01")
    cs = ChangeSet(
        ops=(UpdateOp("features", "SF-01",
                      encode_feature(dataclasses.replace(feat, status="delivered"))),),
        actor="a", intent="x",
    )
    candidate = apply_change_set(a, cs)
    verdict = obligations.evaluate(
        candidate, (po,), baseline=a, change_set=cs,
        history=FakeHistory(known=["SF-01"]),
    )
    assert verdict.passed


def test_spec_precedes_code_vacuous_on_empty_history():
    a = sandbox.simulation_artifact()
    po = ProofObligation("PO-SPEC", "spec-precedes-code")
    verdict = obligations.evaluate(a, (po,), history=FakeHistory(length=0))
    assert verdict.passed


# ------------------------------------------------- self-governance


def probes(**kw):
    base = dict(heap_bytes=10_000, last_verification_ms=3,
                in_memory_fingerprint="f" * 64, wal_head_fingerprint="f" * 64)
    base.update(kw)
    return obligations.RuntimeProbes(**base)


def governance_obligations():
    return (
        ProofObligation("PO-MEM", "memory-ceiling"),
        ProofObligation("PO-LAT", "latency-bound"),
        ProofObligation("PO-FRESH", "state-freshness"),
    )


def test_probes_within_thresholds_pass():
    verdict = obligations.evaluate(
        sandbox.demo_artifact(), governance_obligations(), probes=probes(),
    )
    assert verdict.passed


def test_heap_over_ceiling_flagged():
    verdict = obligations.evaluate(
        sandbox.demo_artifact(), governance_obligations(),
        probes=probes(heap_bytes=obligations.DEFAULT_HEAP_CEILING_BYTES + 1),
    )
    assert verdict.core == ("PO-MEM",)


def test_heap_threshold_param_respected():
    po = ProofObligation("PO-MEM", "memory-ceiling",
                         params=sexpr.parse("((threshold-bytes 5000))"))
    verdict = obligations.evaluate(
        sandbox.demo_artifact(), (po,), probes=probes(heap_bytes=5001),
    )
    assert not verdict.passed


def test_latency_over_bound_flagged():
    verdict = obligations.evaluate(
        sandbox.demo_artifact(), governance_obligations(),
        probes=probes(last_verification_ms=5001),
    )
    assert verdict.core == ("PO-LAT",)


def test_diverged_fingerprints_flagged():
    verdict = obligations.evaluate(
        sandbox.demo_artifact(), governance_obligations(),
        probes=probes(wal_head_fingerprint="0" * 64),
    )
    assert verdict.core == ("PO-FRESH",)


def test_missing_probes_are_vacuous():
    verdict = obligations.evaluate(sandbox.demo_artifact(), governance_obligations())
    assert verdict.passed


# ------------------------------------------------------ conformance


def test_conformance_passes_on_demo():
    po = ProofObligation("PO-CONF", "conformance")
    assert obligations.evaluate(sandbox.demo_artifact(), (po,)).passed


def test_conformance_catches_duplicate_ids():
    a = sandbox.demo_artifact()
    dup = dataclasses.replace(a, obligations=a.obligations + (a.obligations[0],))
    po = ProofObligation("PO-CONF", "conformance")
    verdict = obligations.evaluate(dup, (po,))
    assert not verdict.passed
    assert "re-encoding failed" in verdict.violations[0].message


# ------------------------------------------------- immutability


def test_immutable_removal_flagged():
    current = sandbox.lesion_artifact().obligations
    candidate = tuple(ob for ob in current if ob.id != "PO-DAG")
    out = obligations.immutability_guard(current, candidate)
    assert [v.obligation_id for v in out] == ["PO-DAG"]
    assert "removed" in out[0].message


def test_immutable_param_change_flagged():
    current = (ProofObligation("PO-X", "memory-ceiling", immutable=True,
                               params=sexpr.parse("((threshold-bytes 10))")),)
    candidate = (ProofObligation("PO-X", "memory-ceiling", immutable=True,
                                 params=sexpr.parse("((threshold-bytes 99))")),)
    out = obligations.immutability_guard(current, candidate)
    assert "weakened" in out[0].message


def test_immutable_description_edit_allowed():
    current = (ProofObligation("PO-X", "dag-enforcement", "old", immutable=True),)
    candidate = (ProofObligation("PO-X", "dag-enforcement", "new", immutable=True),)
    assert obligations.immutability_guard(current, candidate) == []


def test_unflagging_immutable_is_weakening():
    current = (ProofObligation("PO-X", "dag-enforcement", immutable=True),)
    candidate = (ProofObligation("PO-X", "dag-enforcement", immutable=False),)
    assert len(obligations.immutability_guard(current, candidate)) == 1


def test_mutable_removal_not_guarded():
    current = (ProofObligation("PO-X", "dag-enforcement"),)
    assert obligations.immutability_guard(current, ()) == []


# ------------------------------------------------ incremental mode


def test_features_only_kinds_skip_workflow_satisfiability():
    a, effective = demo_with_guidebook()
    registry = obligations.builtin_registry()
    obligations.evaluate_kinds(a, effective, ["features"], registry=registry)
    assert registry.invocations["workflow-satisfiability"] == 0
    assert registry.invocations["traceability-complete"] == 0
    assert registry.invocations["feature-code-test-symmetry"] == 1


def test_all_kinds_equals_full_evaluation():
    a, effective = demo_with_guidebook()
    full = obligations.evaluate(a, effective)
    again = obligations.evaluate_kinds(a, effective, None)
    assert full == again


def test_empty_kinds_runs_only_always_run():
    """A change that touches nothing reaches only the probe readers; one
    that touches any section also reaches conformance, which reads all."""
    a = sandbox.demo_artifact()
    extra = (ProofObligation("PO-CONF", "conformance"),
             ProofObligation("PO-MEM", "memory-ceiling"))
    registry = obligations.builtin_registry()
    verdict = obligations.evaluate_kinds(
        a, a.obligations + extra, frozenset(), registry=registry,
    )
    assert [ob.id for ob, _ in verdict.results] == ["PO-MEM"]
    verdict = obligations.evaluate_kinds(a, a.obligations + extra, ["lessons"])
    assert [ob.id for ob, _ in verdict.results] == ["PO-CONF", "PO-MEM"]


def test_kinds_for_sections():
    registry = obligations.builtin_registry()
    assert registry.kinds_reading(["lessons"]) == {"conformance"}
    got = registry.kinds_reading(["features", "coordination"])
    assert "gate-sequence" in got and "workflow-satisfiability" not in got
    # what traceability-complete reads through component and workflow names
    assert "traceability-complete" in registry.kinds_reading(["architecture"])
    assert "traceability-complete" in registry.kinds_reading(["workflows"])
    # touching the obligations themselves evaluates every one
    a = sandbox.demo_artifact()
    for touched in (["proof-obligations"], ["guidebooks"], ["lessons", "guidebooks"]):
        verdict = obligations.evaluate_kinds(a, None, touched)
        assert [ob for ob, _ in verdict.results] == list(a.obligations)


def test_formula_reads_add_to_kind_reads():
    registry = obligations.builtin_registry()
    formula = solver.formula_from_sexpr(
        sexpr.parse("(implies feature_delivered has_code_paths)"))
    ob = ProofObligation("PO-X", "call-graph-dag", formula=formula)
    assert registry.reads(ob) == {"features", "proof-obligations"}
    assert registry.reads(dataclasses.replace(ob, formula=None)) == frozenset()
    dispatch = solver.formula_from_sexpr(
        sexpr.parse("(implies work_dispatched feature_claimed_by_agent)"))
    ob = ProofObligation("PO-Y", "evidence-provenance", formula=dispatch)
    assert registry.reads(ob) == {"coordination", "features", "change-set", "clock",
                                  "proof-obligations"}
    assert registry.reads(ProofObligation("PO-Z", "clock-domain-crossing")) == frozenset()


def test_unregistered_kind_raises():
    po = ProofObligation("PO-ALIEN", "clock-domain-crossing")
    with pytest.raises(obligations.UnregisteredKind):
        obligations.evaluate(sandbox.demo_artifact(), (po,))


def test_work_counter_scales_linearly_with_requirements():
    a = sandbox.lesion_artifact()
    reg1 = obligations.builtin_registry()
    obligations.evaluate(a, registry=reg1)
    doubled = dataclasses.replace(
        a,
        requirements=a.requirements + tuple(
            dataclasses.replace(r, id=f"{r.id}-B") for r in a.requirements
        ),
        traces=a.traces + tuple(
            dataclasses.replace(t, id=f"{t.id}-B", requirement=f"{t.requirement}-B")
            for t in a.traces
        ),
    )
    reg2 = obligations.builtin_registry()
    obligations.evaluate(doubled, registry=reg2)
    assert reg2.work_units["traceability-complete"] == 2 * reg1.work_units["traceability-complete"]


def test_monotone_violation_detection():
    a, _, _ = deliver_feat01()
    _, effective = demo_with_guidebook()
    base, candidate, cs = deliver_feat01()
    small = obligations.evaluate(candidate, effective, baseline=base, change_set=cs)
    more = effective + (ProofObligation("PO-CONF", "conformance"),)
    big = obligations.evaluate(candidate, more, baseline=base, change_set=cs)
    assert set(small.violations) <= set(big.violations)


def test_merged_routes_report_one_violation_per_subject():
    _, effective = demo_with_guidebook()
    base, candidate, cs = deliver_feat01()
    verdict = obligations.evaluate(candidate, effective, baseline=base, change_set=cs)
    subjects = [(v.obligation_id, v.subject) for v in verdict.violations]
    assert len(subjects) == len(set(subjects))
