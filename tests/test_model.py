"""Artifact decode/encode round trips and pure change application."""

import hashlib
from datetime import timezone

import pytest
from hypothesis import given, settings, strategies as st

from epochd import model, sandbox, sexpr, simulate, solver
from epochd.model import (
    AddOp,
    ChangeSet,
    DuplicateId,
    RemoveOp,
    SchemaError,
    UnknownId,
    UnknownSection,
    UpdateOp,
    apply_change_set,
    artifact_fingerprint,
    change_set_from_sexpr,
    change_set_to_sexpr,
    decode,
    decode_text,
    encode,
    encode_text,
    sections_touched,
)
from epochd.sexpr import Integer, SList, String, Symbol, parse
from test_acceptance import _synthetic_big_artifact


@pytest.fixture
def demo():
    return sandbox.demo_artifact()


def test_decode_demo_counts(demo):
    assert demo.name == "Interceptor"
    assert len(demo.requirements) == 2
    assert len(demo.components) == 2
    assert len(demo.connectors) == 1
    assert len(demo.workflows) == 1
    assert len(demo.features) == 1
    assert len(demo.traces) == 2
    assert len(demo.obligations) == 4
    assert len(demo.claims) == 1
    assert demo.guidebook_imports == ("../epoch.guidebook.epoch",)


def test_decode_demo_details(demo):
    ur = demo.requirement("UR-01")
    assert ur.kind == "sovereignty" and ur.source == "RAD"
    assert ur.constraint is not None
    feat = demo.feature("FEAT-01")
    assert feat.status == "claimed"
    assert feat.scope.requirements == ("UR-01", "FR-01")
    assert feat.scope.code_paths == ("src/brain.py",)
    assert feat.scope.test_paths == ()
    wf = demo.workflows[0]
    assert wf.initial == "idle"
    assert len(wf.transitions) == 2
    assert wf.transitions[0].guard is not None
    claim = demo.claims[0]
    assert claim.agent == "opus-a1b2"
    assert not claim.expired(model.parse_rfc3339(sandbox.DEMO_NOW))


def test_minimal_artifact():
    a = decode_text('(nidus-system "X")')
    assert a.name == "X"
    assert a.requirements == ()
    assert encode_text(a) == '(nidus-system "X")'


def test_wrong_head_symbol():
    with pytest.raises(SchemaError):
        decode_text('(other-system "X")')


def test_duplicate_requirement_id():
    with pytest.raises(DuplicateId):
        decode_text('(nidus-system "X" (requirements (req A-1) (req A-1)))')


def test_encode_decode_round_trip(demo):
    assert decode(encode(demo)) == demo


def test_fingerprint_stable_under_round_trip(demo):
    once = artifact_fingerprint(demo)
    again = artifact_fingerprint(decode_text(encode_text(demo)))
    assert once == again


def test_unknown_section_preserved():
    text = '(nidus-system "X" (requirements (req A-1)) (future-notes (note n1 "keep me")))'
    a = decode_text(text)
    assert a.extra_sections[0][0] == "future-notes"
    again = decode_text(encode_text(a))
    assert again == a
    assert "future-notes" in encode_text(a)


def test_lease_timestamp_validated():
    bad = '(nidus-system "X" (coordination (claim (agent a) (feature F) (lease-expires "gibberish"))))'
    with pytest.raises(SchemaError):
        decode_text(bad)


def test_evidence_decoding():
    text = """(nidus-system "X"
      (coordination
        (evidence (feature F-1) (witness "kernel-test-gate") (status passed)
          (hash "abc123") (server-computed t) (timestamp "2026-03-10T00:00:00Z"))))"""
    a = decode_text(text)
    rec = a.evidence[0]
    assert rec.witness == "kernel-test-gate"
    assert rec.server_computed is True
    assert decode(encode(a)) == a


def test_lesson_round_trip():
    text = """(nidus-system "X"
      (lessons
        (lesson LSN-1 (failure "OOM") (root-cause "per-feature solver calls")
          (fix "hoist the call") (obligation "solver runs once per commit")
          (affected-scope "src/verify.py") (cost "6h") (commits "ab12" "cd34")
          (severity 3))))"""
    a = decode_text(text)
    lesson = a.lessons[0]
    assert lesson.severity == 3
    assert lesson.commits == ("ab12", "cd34")
    assert decode(encode(a)) == a


def test_lesson_severity_defaults_to_one():
    a = decode_text('(nidus-system "X" (lessons (lesson L-1 (failure "x"))))')
    assert a.lessons[0].severity == 1


# ------------------------------------------------------- application


NEW_REQ = parse('(req FR-02 (kind functional) (shall "Respond within 100ms"))')


def test_apply_add(demo):
    cs = ChangeSet([AddOp("requirements", NEW_REQ)], actor="a1", intent="add FR-02")
    out = apply_change_set(demo, cs)
    assert len(out.requirements) == 3
    assert len(demo.requirements) == 2  # input untouched
    assert out.requirement("FR-02").shall == "Respond within 100ms"


def test_apply_empty_identity(demo):
    out = apply_change_set(demo, ChangeSet([], actor="a1"))
    assert out == demo


def test_apply_update_status(demo):
    form = parse("""(feature FEAT-01 (name "Local classification engine")
        (status delivered)
        (scope (requirements UR-01 FR-01) (code-paths "src/brain.py")))""")
    cs = ChangeSet([UpdateOp("features", "FEAT-01", form)], actor="opus-a1b2")
    out = apply_change_set(demo, cs)
    assert out.feature("FEAT-01").status == "delivered"
    assert demo.feature("FEAT-01").status == "claimed"


def test_apply_remove_connector_by_pair_key(demo):
    cs = ChangeSet([RemoveOp("architecture", "Interceptor->Brain")], actor="a1")
    out = apply_change_set(demo, cs)
    assert out.connectors == ()
    assert len(out.components) == 2


def test_apply_remove_unknown_id(demo):
    with pytest.raises(UnknownId):
        apply_change_set(demo, ChangeSet([RemoveOp("requirements", "NOPE-9")], actor="a1"))


def test_apply_unknown_section(demo):
    with pytest.raises(UnknownSection):
        apply_change_set(demo, ChangeSet([AddOp("mysteries", parse("(x)"))], actor="a1"))


def test_apply_duplicate_add(demo):
    dup = parse("(req UR-01 (kind sovereignty))")
    with pytest.raises(DuplicateId):
        apply_change_set(demo, ChangeSet([AddOp("requirements", dup)], actor="a1"))


def test_apply_claim_add_and_remove(demo):
    add = AddOp("coordination", parse(
        '(claim (agent "x-9") (feature FEAT-02) (lease-expires "2026-04-01T00:00:00Z"))'))
    out = apply_change_set(demo, ChangeSet([add], actor="x-9"))
    assert out.claim_on("FEAT-02").agent == "x-9"
    back = apply_change_set(out, ChangeSet([RemoveOp("coordination", "FEAT-02")], actor="x-9"))
    assert back.claim_on("FEAT-02") is None


def test_apply_batch_equals_single_steps(demo):
    ops = [
        AddOp("requirements", NEW_REQ),
        AddOp("traceability", parse("(trace TR-03 FR-02 Brain Verdict)")),
    ]
    batch = apply_change_set(demo, ChangeSet(ops, actor="a1"))
    stepped = demo
    for op in ops:
        stepped = apply_change_set(stepped, ChangeSet([op], actor="a1"))
    assert batch == stepped


def test_sections_touched_order():
    cs = ChangeSet([
        AddOp("traceability", parse("(trace T R C D)")),
        AddOp("requirements", NEW_REQ),
        RemoveOp("traceability", "T"),
    ], actor="a1")
    assert sections_touched(cs) == ["traceability", "requirements"]


def test_change_set_wire_round_trip(demo):
    cs = ChangeSet([
        AddOp("requirements", NEW_REQ),
        RemoveOp("traceability", "TR-02"),
        UpdateOp("features", "FEAT-01", parse('(feature FEAT-01 (status open))')),
    ], actor="agent-7", intent="rework")
    wire = sexpr.print_canonical(change_set_to_sexpr(cs))
    again = change_set_from_sexpr(sexpr.parse(wire))
    assert again.actor == "agent-7"
    assert again.intent == "rework"
    assert [op.verb for op in again.ops] == ["add", "remove", "update"]
    assert apply_change_set(demo, again) == apply_change_set(demo, cs)


def test_change_set_fingerprint_distinguishes(demo):
    a = ChangeSet([AddOp("requirements", NEW_REQ)], actor="x")
    b = ChangeSet([AddOp("requirements", NEW_REQ)], actor="y")
    assert model.change_set_fingerprint(a) != model.change_set_fingerprint(b)
    assert model.change_set_fingerprint(a) == model.change_set_fingerprint(
        ChangeSet([AddOp("requirements", NEW_REQ)], actor="x"))


# ----------------------------------------------------- generated data


IDENT = st.from_regex(r"[A-Z]{1,3}-[0-9]{1,3}", fullmatch=True)
SYM = st.from_regex(r"[a-z][a-z0-9-]{0,5}", fullmatch=True)
PROSE = st.text(max_size=8)
NODE = st.recursive(
    st.one_of(SYM.map(Symbol), PROSE.map(String),
              st.integers(sexpr.INT64_MIN, sexpr.INT64_MAX).map(Integer)),
    lambda kids: st.lists(kids, max_size=3).map(SList), max_leaves=5)
GUARDS = [solver.formula_from_sexpr(parse(t)) for t in (
    "(> priority 0)", "(and p (not q))", "(implies (>= x 1) (or a b))", "true")]
STAMP = st.datetimes(timezones=st.just(timezone.utc)).map(model.format_rfc3339)


def _maybe(strategy, absent):
    return st.one_of(st.just(absent), strategy)


@st.composite
def generated_artifacts(draw):
    """An artifact with records of every type and every field kind."""
    ids = draw(st.lists(IDENT, max_size=6, unique=True))
    names = draw(st.lists(SYM, max_size=5, unique=True))
    reqs = tuple(model.Requirement(
        i, draw(_maybe(SYM, "")), draw(_maybe(SYM, "")), draw(PROSE),
        draw(_maybe(NODE, None))) for i in ids)
    components = tuple(model.Component(n, draw(PROSE)) for n in names)
    pairs = draw(st.lists(st.tuples(SYM, SYM), max_size=3, unique=True))
    connectors = tuple(model.Connector(a, b, draw(_maybe(SYM, "")), draw(_maybe(SYM, "")))
                       for a, b in pairs)
    design = tuple(model.DesignElement(draw(SYM), n, tuple(draw(st.lists(NODE, max_size=2))))
                   for n in names)
    workflows = tuple(model.Workflow(
        n, tuple(draw(st.lists(SYM, max_size=3))), draw(_maybe(SYM, "")),
        tuple(model.Transition(draw(SYM), draw(SYM), draw(_maybe(st.sampled_from(GUARDS), None)))
              for _ in range(draw(st.integers(0, 2))))) for n in names)
    features = tuple(model.Feature(
        i, draw(PROSE), draw(st.sampled_from(model.FEATURE_STATUSES)), model.Scope(
            tuple(draw(st.lists(IDENT, max_size=2))), tuple(draw(st.lists(PROSE, max_size=2))),
            tuple(draw(st.lists(PROSE, max_size=2))))) for i in ids)
    traces = tuple(model.Trace(i, i, draw(SYM), draw(SYM)) for i in ids)
    obligations = tuple(model.ProofObligation(
        i, draw(SYM), draw(PROSE), draw(st.booleans()), draw(_maybe(NODE, None))) for i in ids)
    claims = tuple(model.Claim(draw(PROSE), i, draw(STAMP)) for i in ids[:2])
    evidence = tuple(model.EvidenceRecord(
        draw(IDENT), draw(PROSE), draw(SYM), draw(PROSE), draw(st.booleans()), draw(PROSE))
        for _ in range(draw(st.integers(0, 2))))
    lessons = tuple(model.Lesson(
        i, draw(PROSE), draw(PROSE), draw(PROSE), draw(PROSE),
        tuple(draw(st.lists(PROSE, max_size=2))), draw(PROSE),
        tuple(draw(st.lists(PROSE, max_size=2))),
        draw(st.integers(sexpr.INT64_MIN, sexpr.INT64_MAX))) for i in ids)
    imports = tuple(draw(st.lists(PROSE, max_size=3, unique=True)))
    return model.Artifact(
        "Gen", reqs, components, connectors, design, workflows, features, traces,
        obligations, claims, evidence, lessons, imports)


@settings(max_examples=60, deadline=None)
@given(generated_artifacts())
def test_generated_requirements_round_trip(a):
    """Every record type round-trips, through the tree and through its text."""
    assert decode(encode(a)) == a
    text = encode_text(a)
    assert encode_text(decode_text(text)) == text


def test_sandbox_artifacts_round_trip():
    for a in (sandbox.lesion_artifact(), sandbox.simulation_artifact(), sandbox.gate_artifact()):
        assert decode(encode(a)) == a


# ------------------------------------------------------- pinned bytes

# sha256 of encode_text for fixed states. The canonical text is what
# the gate hashes, so these bytes must not move.
PINNED = {
    "demo": (sandbox.demo_artifact,
             "aa1e06c1d0533e3359aaaade6a4c72cce2b2ac942130173b581a235b13a3f7ce"),
    "lesion": (sandbox.lesion_artifact,
               "c266c927aa4d1d52d7f2fbad4ec0f212a87dfb56195dce4a60e45c377265f43a"),
    "simulation": (sandbox.simulation_artifact,
                   "76d8978e2d7b1ed391267528b306d561544490e98fa4cff73470aaf8df55df5d"),
    "gate": (sandbox.gate_artifact,
             "e43f759891d62cee5f0bfe4d15d1d048240b20130b7416c0ae9c3b2d3bfd21c2"),
    "scenario": (simulate.scenario_artifact,
                 "dfdfa8218ecf57b7f2a2eaedffe61945383a739c68c0a0a3ad9a38298ef93955"),
    "synthetic-big": (_synthetic_big_artifact,
                      "b9e11f785e6d623db1b9a79f463cf045e740adcdd21812b1a79ea7746d6bebbf"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_encoded_bytes_are_pinned(name):
    build, digest = PINNED[name]
    assert hashlib.sha256(encode_text(build()).encode("utf-8")).hexdigest() == digest


# ------------------------------------------------------- key namespace


def test_a_section_has_one_key_namespace():
    """A component named A->B and the connector A B share one key."""
    arch = "(component A) (component B) (connector A B)"
    with pytest.raises(DuplicateId) as exc:
        decode_text(f'(nidus-system "X" (architecture (component A->B) {arch}))')
    assert (exc.value.section, exc.value.element_id) == ("architecture", "A->B")
    base = decode_text(f'(nidus-system "X" (architecture {arch}))')

    def apply(a, op):
        return apply_change_set(a, ChangeSet([op], actor="a1"))

    with pytest.raises(DuplicateId):
        apply(base, AddOp("architecture", parse("(component A->B)")))
    with pytest.raises(DuplicateId):
        apply(base, UpdateOp("architecture", "A", parse("(component A->B)")))
    gone = apply(base, RemoveOp("architecture", "A->B"))
    assert gone.connectors == () and gone.component_names() == {"A", "B"}
    with pytest.raises(UnknownId):
        apply(gone, RemoveOp("architecture", "A->B"))
    renamed = apply(gone, AddOp("architecture", parse("(component A->B)")))
    assert apply(renamed, RemoveOp("architecture", "A->B")) == gone
    with pytest.raises(DuplicateId):
        apply(renamed, AddOp("architecture", parse("(connector A B)")))
