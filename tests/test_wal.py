"""Hash-chained log: append, tamper detection, persistence, the
retroactive obligation check, and the report projections."""

import dataclasses
import random

import pytest

from epochd import kernel as kn
from epochd import model, obligations, sandbox, sexpr, simulate, wal
from epochd.model import Artifact, Feature, Requirement, Scope, Trace

STAMP = "2026-03-10T12:00:00Z"


def demo():
    return model.decode_text(sandbox.DEMO_ARTIFACT)


def push(h, artifact, agent="agent-1", intent="step"):
    before = h.head.state_digest if h.head else wal.ZERO_DIGEST
    return h.append(artifact, wal.Attestation(
        agent=agent, fingerprint_before=before,
        fingerprint_after=model.artifact_fingerprint(artifact),
        timestamp=STAMP, intent=intent,
    ))


# ----------------------------------------------------------- encoding


def test_attestation_round_trip():
    at = wal.Attestation(
        agent="agent-7", features=("FEAT-01", "FEAT-02"), verdict="pass",
        fingerprint_before="a" * 64, fingerprint_after="b" * 64,
        timestamp=STAMP, intent="deliver both",
    )
    back = wal.attestation_from_sexpr(wal.attestation_to_sexpr(at))
    assert back == at


def test_entry_round_trip_preserves_digests():
    e = wal.make_entry(0, wal.ZERO_DIGEST, sandbox.DEMO_ARTIFACT,
                       wal.Attestation(agent="kernel", intent="genesis"))
    text = sexpr.print_canonical(wal.entry_to_sexpr(e))
    back = wal.entry_from_sexpr(sexpr.parse(text))
    assert back == e


def test_attestation_requires_tag():
    with pytest.raises(wal.WalError):
        wal.attestation_from_sexpr(sexpr.parse("(not-an-attestation)"))


def test_entry_rejects_field_without_value():
    with pytest.raises(wal.WalError):
        wal.entry_from_sexpr(sexpr.parse("(wal-entry (index))"))


def test_entry_rejects_unknown_field():
    e = wal.make_entry(0, wal.ZERO_DIGEST, "(artifact x)",
                       wal.Attestation(agent="a"))
    form = wal.entry_to_sexpr(e)
    bad = sexpr.SList(form.items + (sexpr.parse("(surprise 1)"),))
    with pytest.raises(wal.WalError):
        wal.entry_from_sexpr(bad)


# -------------------------------------------------------------- chain


def test_append_links_parent_digests():
    h = wal.History()
    a = demo()
    e0 = push(h, a)
    e1 = push(h, a)
    assert e0.parent_digest == wal.ZERO_DIGEST
    assert e1.parent_digest == e0.entry_digest
    assert len(h) == 2
    h.validate()


def test_append_rejects_stale_parent_fingerprint():
    h = wal.History()
    a = demo()
    push(h, a)
    with pytest.raises(wal.ChainMismatch):
        h.append(a, wal.Attestation(agent="x", fingerprint_before=wal.ZERO_DIGEST))


def test_tampered_snapshot_breaks_validation():
    h = wal.History()
    a = demo()
    push(h, a)
    push(h, a)
    honest = h.entries[1]
    h.entries[1] = dataclasses.replace(
        honest, snapshot=honest.snapshot.replace("FEAT-01", "FEAT-66"))
    with pytest.raises(wal.ChainMismatch):
        h.validate()


def test_tampered_parent_breaks_validation():
    h = wal.History()
    a = demo()
    push(h, a)
    push(h, a)
    h.entries[1] = dataclasses.replace(h.entries[1], parent_digest="f" * 64)
    with pytest.raises(wal.ChainMismatch):
        h.validate()


def test_rewritten_attestation_breaks_validation():
    # changing who signed changes the entry digest
    h = wal.History()
    push(h, demo())
    e = h.entries[0]
    h.entries[0] = dataclasses.replace(
        e, attestation=dataclasses.replace(e.attestation, agent="impostor"))
    with pytest.raises(wal.ChainMismatch):
        h.validate()


def test_history_feature_indexes():
    base = demo()
    h = wal.History()
    push(h, base)
    feat = base.feature("FEAT-01")
    delivered = dataclasses.replace(
        feat, status="delivered",
        scope=dataclasses.replace(feat.scope, test_paths=("tests/test_brain.py",)))
    after = dataclasses.replace(
        base, features=tuple(delivered if f.id == "FEAT-01" else f
                             for f in base.features))
    push(h, after)
    assert h.first_index_with_feature("FEAT-01") == 0
    assert h.first_index_with_feature("FEAT-99") is None
    assert h.artifact_at(0).feature("FEAT-01").status != "delivered"


# --------------------------------------------------------------- disk


def test_save_and_load_round_trip(tmp_path):
    h = wal.History()
    a = demo()
    for i in range(3):
        wal.save_entry(str(tmp_path), push(h, a, intent=f"step {i}"))
    loaded = wal.load_history(str(tmp_path))
    assert len(loaded) == 3
    assert loaded.head.entry_digest == h.head.entry_digest
    assert loaded.artifact_at(2).name == a.name


def test_load_detects_head_disagreement(tmp_path):
    h = wal.History()
    for _ in range(2):
        wal.save_entry(str(tmp_path), push(h, demo()))
    (tmp_path / wal.HEAD_NAME).write_text(f"1 {'c' * 64}\n")
    with pytest.raises(wal.ChainMismatch):
        wal.load_history(str(tmp_path))


def test_load_detects_edited_entry_file(tmp_path):
    h = wal.History()
    for _ in range(2):
        wal.save_entry(str(tmp_path), push(h, demo()))
    target = tmp_path / f"000001{wal.ENTRY_SUFFIX}"
    target.write_text(target.read_text().replace("agent-1", "agent-2"))
    with pytest.raises(wal.ChainMismatch):
        wal.load_history(str(tmp_path))


@pytest.mark.parametrize("keep", [0.0, 0.01, 0.5, 0.99, -2])
def test_load_names_torn_last_entry(tmp_path, keep):
    h = wal.History()
    for _ in range(2):
        wal.save_entry(str(tmp_path), push(h, demo()))
    target = tmp_path / f"000001{wal.ENTRY_SUFFIX}"
    data = target.read_bytes()
    cut = len(data) + keep if keep < 0 else int(len(data) * keep)
    target.write_bytes(data[:cut])
    with pytest.raises(wal.WalError, match=target.name):
        wal.load_history(str(tmp_path))


def test_load_names_entry_whose_snapshot_will_not_decode(tmp_path):
    entry = wal.make_entry(0, wal.ZERO_DIGEST, "(nidus-system 3)", wal.Attestation(agent="a"))
    wal.save_entry(str(tmp_path), entry)
    with pytest.raises(wal.WalError, match=f"000000{wal.ENTRY_SUFFIX}: artifact: "):
        wal.load_history(str(tmp_path))


def test_load_refuses_entry_out_of_sequence(tmp_path):
    wal.save_entry(str(tmp_path), wal.make_entry(5, wal.ZERO_DIGEST, sandbox.DEMO_ARTIFACT,
                                                 wal.Attestation(agent="a")))
    with pytest.raises(wal.ChainMismatch, match="index 5 out of sequence"):
        wal.load_history(str(tmp_path))


# --------------------------------------------------- retroactive check


def retro_history():
    """Ten states. The feature is delivered with an empty scope at
    index 4 (the bad state) and the scope is backfilled from index 5
    on, so exactly one recorded state exhibits the gap."""
    reqs = (Requirement("R-1", "functional", "RAD", "base requirement"),)
    filler = Feature("FEAT-OK", "ok", "open",
                     Scope(("R-1",), ("src/ok.py",), ("tests/test_ok.py",)))
    full = Scope(("R-1",), ("src/empty.py",), ("tests/test_empty.py",))
    h = wal.History()
    for i in range(10):
        status = "delivered" if i >= 4 else "open"
        scope = full if i >= 5 else Scope()
        state = Artifact(
            name="retro-fixture",
            requirements=reqs,
            features=(filler, Feature("FEAT-EMPTY", "empty", status, scope)),
        )
        push(h, state, intent=f"state {i}")
    return h


def test_retroactive_over_constrained_pinpoints_entry():
    h = retro_history()
    candidate = obligations.synthetic_obligation("PO-CASCADE", "delivery-cascade")
    verdict = wal.retroactive_verify(h, candidate, 10)
    assert not verdict.safe
    assert [idx for idx, _ in verdict.findings] == [4]
    (_, violations) = verdict.findings[0]
    assert any(v.subject == "FEAT-EMPTY" for v in violations)


def test_retroactive_recent_window_is_safe():
    h = retro_history()
    candidate = obligations.synthetic_obligation("PO-CASCADE", "delivery-cascade")
    assert wal.retroactive_verify(h, candidate, 3).safe


def test_retroactive_replay_sees_only_earlier_entries():
    """spec-precedes-code replayed at entry i sees the first i entries:
    a feature is flagged only where it is declared and delivered at
    once, never when an earlier entry declared it, even if a later one
    removed it again."""
    reqs = (Requirement("R-1", "functional", "RAD", "base requirement"),)
    scope = Scope(("R-1",), ("src/x.py",), ("tests/test_x.py",))

    def feat(fid, status="open"):
        return Feature(fid, fid.lower(), status, scope)

    a, b = feat("FEAT-A", "delivered"), feat("FEAT-B", "delivered")
    states = [
        (),
        (a,),                                 # A declared and delivered at once
        (a, feat("FEAT-B")),                  # B declared
        (a, b),                               # B delivered
        (a, b, feat("FEAT-C")),               # C declared
        (a, b),                               # C removed
        (a, b, feat("FEAT-C", "delivered")),  # C re-added and delivered
    ]
    h = wal.History()
    for i, features in enumerate(states):
        push(h, Artifact(name="replay-fixture", requirements=reqs, features=features),
             intent=f"state {i}")
    candidate = obligations.synthetic_obligation("PO-SPEC", "spec-precedes-code")
    verdict = wal.retroactive_verify(h, candidate, len(h))
    assert [idx for idx, _ in verdict.findings] == [1]
    assert [v.subject for v in verdict.findings[0][1]] == ["FEAT-A"]
    assert wal.retroactive_verify(h, candidate, len(h) - 2).safe


def test_retroactive_n_clamped_to_history():
    h = retro_history()
    candidate = obligations.synthetic_obligation("PO-CASCADE", "delivery-cascade")
    verdict = wal.retroactive_verify(h, candidate, 999)
    assert [idx for idx, _ in verdict.findings] == [4]


def test_restart_reads_back_the_states_the_log_keeps(tmp_path):
    """Differential oracle over the criterion-4 fuzz stream: the log a
    kernel writes, loaded back, holds the very states the kernel kept
    in memory, each under its recorded digest, and replay over either
    finds the same violations."""
    from test_acceptance import _fuzz_ops

    rng = random.Random(2026)
    clock = simulate.SimClock()
    witnesses = obligations.DEFAULT_WITNESSES | frozenset(["governance-audit-not"])
    k = kn.Kernel(sandbox.simulation_artifact(4), clock=clock, witnesses=witnesses,
                  wal_dir=str(tmp_path))
    actors = [f"fuzzer-{i}" for i in range(6)]
    steps = 0
    while steps < 300:
        cs = _fuzz_ops(rng, k, actors)
        clock.tick()
        if cs is not None:
            steps += 1
            k.commit_change_set(cs)

    kept = k.history
    loaded = wal.load_history(str(tmp_path))
    assert loaded.entries == kept.entries
    assert len(kept) > 50
    for i in range(len(kept)):
        state = loaded.artifact_at(i)
        assert state == kept.artifact_at(i), f"entry {i}"
        assert model.artifact_fingerprint(state) == loaded.entries[i].state_digest

    cyclic = model.ProofObligation("PO-CYCLE", "call-graph-dag", "cyclic candidate",
                                   params=sexpr.parse("(modules (a b) (b a))"))
    candidates = (
        (obligations.synthetic_obligation("PO-PROV", "evidence-provenance"),
         frozenset(["ci-pipeline"])),
        (cyclic, None),
        (obligations.synthetic_obligation("PO-SPEC", "spec-precedes-code"), None),
    )
    flagged = []
    for candidate, narrowed in candidates:
        in_memory = wal.retroactive_verify(kept, candidate, len(kept), witnesses=narrowed)
        on_disk = wal.retroactive_verify(loaded, candidate, len(loaded), witnesses=narrowed)
        assert on_disk == in_memory, candidate.id
        flagged.append(len(in_memory.findings))
    assert 0 < flagged[0] < len(kept)
    assert flagged[1:] == [len(kept), 0]


# -------------------------------------------------------- projections


def test_traceability_matrix_demo():
    rows = wal.traceability_matrix(demo())
    assert [r.requirement for r in rows] == ["UR-01", "FR-01"]
    by_id = {r.requirement: r for r in rows}
    assert by_id["UR-01"].traces == ("TR-01",)
    assert by_id["UR-01"].components == ("Brain",)
    assert by_id["UR-01"].design_elements == ("Verdict",)
    assert by_id["UR-01"].features == ("FEAT-01",)
    assert by_id["FR-01"].traces == ("TR-02",)
    assert not any(r.untraced for r in rows)


def test_matrix_flags_untraced_requirement():
    a = demo()
    widened = dataclasses.replace(
        a, requirements=a.requirements + (Requirement("REQ-99", "functional"),))
    rows = wal.traceability_matrix(widened)
    by_id = {r.requirement: r for r in rows}
    assert by_id["REQ-99"].untraced
    text = wal.render_matrix(rows)
    assert "REQ-99: - | - | -  UNTRACED" in text


def test_compliance_report_counts_and_head():
    h = retro_history()
    report = wal.compliance_report(h)
    assert report.artifact_name == "retro-fixture"
    assert len(report.rows) == 10
    assert report.head_digest == h.head.entry_digest
    assert [r.delivered_count for r in report.rows] == [0] * 4 + [1] * 6
    rendered = report.render()
    assert "entries: 10" in rendered
    assert "[0004]" in rendered


def test_impact_analysis_splits_design_and_workflows():
    a = demo()
    with_wf_trace = dataclasses.replace(
        a, traces=a.traces + (Trace("TR-03", "UR-01", "Brain", "classify-flow"),))
    impact = wal.impact_analysis(with_wf_trace, "UR-01")
    assert impact.components == frozenset({"Brain"})
    assert impact.design_elements == frozenset({"Verdict"})
    assert impact.workflows == frozenset({"classify-flow"})
    assert impact.features == frozenset({"FEAT-01"})


def test_impact_analysis_unknown_requirement():
    with pytest.raises(model.UnknownId):
        wal.impact_analysis(demo(), "REQ-404")
