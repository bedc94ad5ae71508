"""Each distinct check runs once per verdict.

Obligations with equal kind, params and formula share one evaluation.
The grouped verdict must equal the per-obligation reference, where
each obligation is evaluated in a call of its own: the same rows, the
same rendered text and the same (obligation_id, subject) pairs. The
checks run over the dependency oracle's change-set stream, with every
obligation repeated under other ids, and over fixtures that name the
obligation's own id as a subject."""

import dataclasses

from epochd import obligations, sandbox, sexpr, solver
from epochd.model import (
    EvidenceRecord,
    ModelError,
    ProofObligation,
    Requirement,
    Trace,
    apply_change_set,
    sections_touched,
)
from test_dependencies import STREAMS, widened_stream


def per_obligation(artifact, obs, touched=None, **kw) -> obligations.Verdict:
    """Reference: every obligation evaluated in a call of its own."""
    results = ()
    for ob in obs:
        results += obligations.evaluate_kinds(artifact, (ob,), touched, **kw).results
    return obligations.Verdict(results)


def pairs(verdict) -> set:
    return {(v.obligation_id, v.subject) for v in verdict.violations}


def assert_matches_reference(artifact, obs, touched=None, **kw) -> obligations.Verdict:
    grouped = obligations.evaluate_kinds(artifact, obs, touched, **kw)
    reference = per_obligation(artifact, obs, touched, **kw)
    assert obligations.render_verdict(grouped) == obligations.render_verdict(reference)
    assert pairs(grouped) == pairs(reference)
    assert grouped == reference
    return grouped


def twins(obs, copies=2) -> tuple:
    """Each obligation, then `copies` more of it under other ids."""
    return tuple(obs) + tuple(dataclasses.replace(ob, id=f"{ob.id}-TWIN{n}")
                              for n in range(copies) for ob in obs)


def formula(text: str):
    return solver.formula_from_sexpr(sexpr.parse(text))


def demo():
    return dataclasses.replace(sandbox.demo_artifact(), guidebook_imports=())


# ------------------------------------------------------------ stream


def test_grouped_evaluation_matches_reference_over_the_stream():
    checked = failing = 0
    for base, seed in STREAMS:
        for k, cs in widened_stream(base(), seed, 40):
            try:
                candidate = apply_change_set(k.artifact, cs)
            except ModelError:
                continue
            obs = twins(k.effective(candidate))
            kw = dict(baseline=k.artifact, change_set=cs, history=k.history,
                      witnesses=k.witnesses, now=k.clock())
            for touched in (None, sections_touched(cs)):
                verdict = assert_matches_reference(candidate, obs, touched, **kw)
                failing += not verdict.passed
            checked += 1
    assert checked > 200
    assert failing > 50  # the stream breaks states as well as keeping them


# ---------------------------------------------------------- fixtures


def test_results_naming_their_own_obligation_match_reference():
    mixed = formula("(and feature_delivered evidence_submitted)")
    obs = twins((
        ProofObligation("PO-GRAPH-NONE", "call-graph-dag"),
        ProofObligation("PO-GRAPH-BAD", "call-graph-dag", params=sexpr.parse("(modules 7)")),
        ProofObligation("PO-GRAPH-CYCLE", "call-graph-dag",
                        params=sexpr.parse("(modules (a b) (b a))")),
        ProofObligation("PO-GRAPH-RULE", "call-graph-dag",
                        formula=formula("(not parse_imports_query)")),
        ProofObligation("PO-GATES-NONE", "gate-sequence"),
        ProofObligation("PO-GATES-BAD", "gate-sequence", params=sexpr.parse("(gates 1)")),
        ProofObligation("PO-GATES-CYCLE", "gate-sequence", params=sexpr.parse(
            "(gates (gate G1 (depends-on G2)) (gate G2 (depends-on G1)))")),
        ProofObligation("PO-MIXED", "dag-enforcement", formula=mixed),
    ))
    verdict = assert_matches_reference(demo(), obs)
    subjects = {v.subject for v in verdict.violations}
    assert {"PO-GRAPH-NONE-TWIN0", "PO-GATES-BAD-TWIN1", "PO-MIXED-TWIN0"} <= subjects
    assert "a -> b -> a" in subjects


def test_gate_sequence_findings_are_shared_per_delivered_feature():
    gates = sexpr.parse('(gates (gate G1 (witness "ci-pipeline"))'
                        ' (gate G2 (witness "kernel-test-gate") (depends-on G1)))')
    before = demo()
    feat = dataclasses.replace(before.features[0], status="delivered")
    after = dataclasses.replace(
        before, features=(feat,),
        evidence=(EvidenceRecord(feat.id, "ci-pipeline", "passed", "ab", True),))
    obs = twins((ProofObligation("PO-GATES", "gate-sequence", params=gates),), copies=3)
    verdict = assert_matches_reference(after, obs, baseline=before)
    assert pairs(verdict) == {(ob.id, feat.id) for ob in obs}


def test_traceability_groups_match_reference_passing_and_failing():
    obs = twins((ProofObligation("PO-T1", "traceability-complete"),
                 ProofObligation("PO-T2", "traceability-complete", "same check")), copies=3)
    passing = demo()
    assert assert_matches_reference(passing, obs).passed
    orphan = Requirement("FR-09", "functional", "DDD", "orphan")
    dangling = Trace("TR-09", "FR-10", "Ghost", "Verdict")
    failing = dataclasses.replace(
        passing, requirements=passing.requirements + (orphan, Requirement("FR-10")),
        traces=passing.traces + (dangling,))
    verdict = assert_matches_reference(failing, obs)
    assert pairs(verdict) == {(ob.id, r) for ob in obs for r in ("FR-09", "FR-10")}


def test_a_subject_equal_to_the_first_id_is_still_attributed_per_obligation():
    obs = (ProofObligation("PO-T1", "traceability-complete"),
           ProofObligation("PO-T2", "traceability-complete"))
    a = demo()
    a = dataclasses.replace(a, requirements=a.requirements + (Requirement("PO-T1"),))
    verdict = assert_matches_reference(a, obs)
    assert pairs(verdict) == {("PO-T1", "PO-T1"), ("PO-T2", "PO-T1")}


def test_each_distinct_check_is_dispatched_once():
    registry = obligations.builtin_registry()
    obs = twins((ProofObligation("PO-T", "traceability-complete"),
                 ProofObligation("PO-C", "connector-integrity")), copies=4)
    a = demo()
    obligations.evaluate(a, obs, registry=registry)
    assert registry.invocations == {"traceability-complete": 1, "connector-integrity": 1}
    assert registry.work_units["traceability-complete"] == len(a.requirements)
