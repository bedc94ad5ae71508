"""Friction ledger arithmetic, trust tiers, lease-backed claims,
reputation routing, and the decay detector."""

import errno

import pytest

from epochd import coordination as co
from epochd import model, sandbox
from epochd.model import Scope, parse_rfc3339

NOW = parse_rfc3339(sandbox.DEMO_NOW)
STAMP = sandbox.DEMO_NOW


def demo():
    return model.decode_text(sandbox.DEMO_ARTIFACT)


def ledger_with(agent, *specs):
    """specs: (kind, po_kinds) pairs appended in order."""
    ledger = co.FrictionLedger()
    for kind, po_kinds in specs:
        ledger.record(kind, agent, STAMP, po_kinds=po_kinds)
    return ledger


# ------------------------------------------------------------ scoring


def test_three_single_kind_rejections_score_three():
    ledger = ledger_with("a", *[("agent_rejection", ("dag-enforcement",))] * 3)
    assert co.friction_score(ledger, "a") == 3.0


def test_rejection_weight_scales_with_failing_kinds():
    ledger = ledger_with("a", ("agent_rejection",
                               ("dag-enforcement", "connector-integrity",
                                "traceability-complete")))
    assert co.friction_score(ledger, "a") == 3.0


def test_successes_offset_rejections_floored_at_zero():
    specs = [("agent_rejection", ("dag-enforcement",))] * 3
    specs += [("probe_success", ("dag-enforcement",))] * 6
    ledger = ledger_with("a", *specs)
    assert co.friction_score(ledger, "a") == 0.0


def test_abandonment_and_lease_expiry_weights():
    ledger = ledger_with("a", ("abandonment", ()), ("lease_expiry", ()))
    assert co.friction_score(ledger, "a") == 3.0


def test_lesson_recording_earns_credit():
    ledger = ledger_with("a", ("abandonment", ()), ("lesson_recorded", ()))
    assert co.friction_score(ledger, "a") == 1.0


def test_score_only_counts_window():
    specs = [("probe_success", ())] * 50
    specs += [("agent_rejection", ("dag-enforcement",))] * 10
    ledger = ledger_with("a", *specs)
    # narrow window sees only the recent rejections
    assert co.friction_score(ledger, "a", window=10) == 10.0
    # full window lets the old successes cancel them out
    assert co.friction_score(ledger, "a", window=60) == 0.0


def test_score_ignores_other_agents():
    ledger = co.FrictionLedger()
    ledger.record("agent_rejection", "b", STAMP, po_kinds=("dag-enforcement",))
    assert co.friction_score(ledger, "a") == 0.0


def test_event_ids_unique_and_duplicates_refused():
    ledger = ledger_with("a", ("abandonment", ()), ("abandonment", ()))
    ids = [e.id for e in ledger.events]
    assert len(set(ids)) == 2
    with pytest.raises(co.DuplicateId):
        ledger.append(co.FrictionEvent(ids[0], "abandonment", "a", STAMP))


def test_unknown_event_kind_refused():
    with pytest.raises(co.CoordinationError):
        co.FrictionEvent("FX-01", "vibes", "a", STAMP)


# -------------------------------------------------------------- tiers


def test_tier_boundaries():
    assert co.tier_of(co.FrictionLedger(), "fresh") == co.TIER_UNRESTRICTED
    just_below = ledger_with("a", *[("agent_rejection", ())] * 2)
    assert co.tier_of(just_below, "a") == co.TIER_UNRESTRICTED
    at_theta1 = ledger_with("b", *[("agent_rejection", ())] * 3)
    assert co.tier_of(at_theta1, "b") == co.TIER_SUPERVISED
    at_theta2 = ledger_with("c", *[("agent_rejection", ())] * 10)
    assert co.tier_of(at_theta2, "c") == co.TIER_RESTRICTED


# -------------------------------------------------------------- claims


def test_claim_unknown_feature_raises():
    with pytest.raises(co.UnknownFeature):
        co.claim_feature(demo(), co.FrictionLedger(), "a", "FEAT-404", NOW)


def test_restricted_agent_claim_refused():
    ledger = ledger_with("a", *[("agent_rejection", ())] * 10)
    out = co.claim_feature(demo(), ledger, "a", "FEAT-01", NOW)
    assert isinstance(out, co.Refusal) and out.reason == "restricted-tier"


def test_active_foreign_lease_refused():
    # demo claim by opus-a1b2 is live at DEMO_NOW
    out = co.claim_feature(demo(), co.FrictionLedger(), "intruder", "FEAT-01", NOW)
    assert isinstance(out, co.Refusal) and out.reason == "active-lease"


def test_holder_may_renew_own_lease():
    out = co.claim_feature(demo(), co.FrictionLedger(), "opus-a1b2", "FEAT-01", NOW)
    assert isinstance(out, model.ChangeSet)


def test_delivered_feature_not_claimable():
    import dataclasses
    a = demo()
    feat = a.feature("FEAT-01")
    done = dataclasses.replace(
        feat, status="delivered",
        scope=dataclasses.replace(feat.scope, test_paths=("tests/test_brain.py",)))
    a = dataclasses.replace(
        a, features=tuple(done if f.id == feat.id else f for f in a.features),
        claims=())
    out = co.claim_feature(a, co.FrictionLedger(), "a", "FEAT-01", NOW)
    assert isinstance(out, co.Refusal) and out.reason == "not-claimable"


def test_expired_lease_takeover_records_expiry_against_old_holder():
    late = parse_rfc3339("2026-03-21T00:00:00Z")  # past the demo lease
    ledger = co.FrictionLedger()
    cs = co.claim_feature(demo(), ledger, "successor", "FEAT-01", late)
    assert isinstance(cs, model.ChangeSet)
    assert [(e.kind, e.agent) for e in ledger.events] == [("lease_expiry", "opus-a1b2")]
    after = model.apply_change_set(demo(), cs)
    claim = after.claim_on("FEAT-01")
    assert claim.agent == "successor"
    assert parse_rfc3339(claim.lease_expires) == late + co.DEFAULT_LEASE


def test_fresh_claim_marks_feature_claimed():
    import dataclasses
    a = demo()
    a = dataclasses.replace(
        a,
        features=tuple(dataclasses.replace(f, status="open") for f in a.features),
        claims=())
    cs = co.claim_feature(a, co.FrictionLedger(), "a", "FEAT-01", NOW)
    after = model.apply_change_set(a, cs)
    assert after.feature("FEAT-01").status == "claimed"
    assert after.claim_on("FEAT-01").agent == "a"
    assert cs.actor == "a"


# ---------------------------------------------------------- reputation


def test_reputation_counts_per_kind():
    ledger = co.FrictionLedger()
    for _ in range(9):
        ledger.record("probe_success", "a", STAMP, po_kinds=("dag-enforcement",))
    ledger.record("agent_rejection", "a", STAMP, po_kinds=("dag-enforcement",))
    ledger.record("agent_rejection", "a", STAMP, po_kinds=("connector-integrity",))
    rep = co.reputation(ledger, "a")
    assert rep["dag-enforcement"] == (9, 1)
    assert rep["connector-integrity"] == (0, 1)


def test_routing_score_laplace_smoothing():
    rep = {"dag-enforcement": (9, 1)}
    score = co.routing_score_for_kinds(rep, ("dag-enforcement",))
    assert score == pytest.approx(10 / 12)
    assert co.routing_score_for_kinds({}, ()) == 1.0


def test_routing_score_multiplies_kinds():
    rep = {"dag-enforcement": (9, 1), "connector-integrity": (0, 2)}
    score = co.routing_score_for_kinds(
        rep, ("dag-enforcement", "connector-integrity"))
    assert score == pytest.approx((10 / 12) * (1 / 4))


def test_implied_kinds_by_scope_sections():
    kinds = co.implied_kinds(Scope(requirements=("R-1",)))
    assert kinds == {"traceability-complete", "conformance"}
    kinds = co.implied_kinds(Scope(code_paths=("src/x.py",)))
    assert "delivery-cascade" in kinds and "evidence-provenance" not in kinds
    kinds = co.implied_kinds(Scope(test_paths=("tests/test_x.py",)))
    assert "evidence-provenance" in kinds and "delivery-cascade" not in kinds
    assert co.implied_kinds(Scope()) == frozenset()


def test_preflight_warns_only_on_failing_history():
    scope = Scope(requirements=("R-1",))
    # fresh agent: every implied kind smooths to exactly 0.5, no warning
    assert co.preflight_warnings({}, scope) == []
    rep = {"traceability-complete": (0, 3)}
    warned = co.preflight_warnings(rep, scope)
    assert warned and warned[0][0] == "traceability-complete"
    assert warned[0][1] == pytest.approx(4 / 5)


# ------------------------------------------------------------- decay


def reject_n_times(ledger, kind, n):
    for _ in range(n):
        ledger.record("agent_rejection", "a", STAMP, po_kinds=(kind,))


def test_decay_detect_proposes_cascade_after_threshold():
    a = demo()
    ledger = co.FrictionLedger()
    reject_n_times(ledger, "feature-code-test-symmetry", 5)
    proposals = co.decay_detect(a, ledger, lambda cs: True, threshold=5)
    assert len(proposals) == 1
    cs = proposals[0]
    sections = [op.section for op in cs.ops]
    assert sections == ["proof-obligations", "features"]
    after = model.apply_change_set(a, cs)
    assert any(ob.id == "PO-DELIVERY-CASCADE" for ob in after.obligations)
    adopt = after.feature("F-ADOPT-DELIVERY-CASCADE")
    assert adopt is not None and adopt.status == "open" and adopt.scope.empty


def test_decay_detect_below_threshold_proposes_nothing():
    ledger = co.FrictionLedger()
    reject_n_times(ledger, "feature-code-test-symmetry", 4)
    assert co.decay_detect(demo(), ledger, lambda cs: True, threshold=5) == []


def test_decay_detect_drops_candidates_failing_what_if():
    ledger = co.FrictionLedger()
    reject_n_times(ledger, "feature-code-test-symmetry", 5)
    assert co.decay_detect(demo(), ledger, lambda cs: False, threshold=5) == []


def test_decay_detect_skips_already_present_kind():
    ledger = co.FrictionLedger()
    reject_n_times(ledger, "dag-enforcement", 5)
    # demo artifact already carries a dag-enforcement obligation
    assert co.decay_detect(demo(), ledger, lambda cs: True, threshold=5) == []


def test_decay_detect_ignores_untemplated_kinds():
    ledger = co.FrictionLedger()
    reject_n_times(ledger, "memory-ceiling", 5)
    assert co.decay_detect(demo(), ledger, lambda cs: True, threshold=5) == []


# ------------------------------------------------------------ sidecar


def test_ledger_text_round_trip():
    ledger = co.FrictionLedger()
    ledger.record("agent_rejection", "a", STAMP,
                  po_kinds=("dag-enforcement",), feature="FEAT-01")
    ledger.record("probe_success", "b", STAMP)
    back = co.ledger_from_text(co.ledger_to_text(ledger))
    assert back.events == ledger.events


def test_demo_friction_fixture_decodes():
    ledger = co.ledger_from_text(sandbox.DEMO_FRICTION)
    assert len(ledger) == 1
    e = ledger.events[0]
    assert (e.id, e.kind, e.agent) == ("FX-01", "agent_rejection", "gemini-8536")
    assert co.friction_score(ledger, "gemini-8536") == 1.0


def test_ledger_file_round_trip(tmp_path):
    ledger = co.FrictionLedger()
    ledger.record("abandonment", "a", STAMP, feature="FEAT-01")
    path = str(tmp_path / "friction.epoch")
    co.save_ledger(path, ledger)
    assert co.load_ledger(path).events == ledger.events


def test_failed_ledger_write_leaves_previous_file_whole(tmp_path, monkeypatch):
    path = str(tmp_path / "friction.epoch")
    ledger = co.FrictionLedger()
    ledger.record("abandonment", "a", STAMP, feature="FEAT-01")
    co.save_ledger(path, ledger)
    saved = open(path, encoding="utf-8").read()
    ledger.record("probe_success", "b", STAMP)

    class DiskFillsMidWrite:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(co, "open", lambda *a, **kw: DiskFillsMidWrite(open(*a, **kw)),
                        raising=False)
    with pytest.raises(OSError):
        co.save_ledger(path, ledger)
    monkeypatch.undo()
    assert open(path, encoding="utf-8").read() == saved
    assert co.load_ledger(path).events == ledger.events[:1]


def test_ledger_rejects_wrong_tag():
    with pytest.raises(co.CoordinationError):
        co.ledger_from_text("(not-a-ledger)")
