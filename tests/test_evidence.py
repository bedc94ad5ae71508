"""Evidence pipeline: content hashing, the default witnesses, and the fused
run-then-record gate that makes fabricated evidence unrepresentable."""

import dataclasses

import pytest

from epochd import evidence as ev
from epochd import kernel as kn
from epochd import model, obligations, sandbox
from epochd.model import AddOp, ChangeSet, EvidenceRecord, UpdateOp, parse_rfc3339

NOW = parse_rfc3339(sandbox.DEMO_NOW)

# sha256 of b"tests/test_brain.py" + NUL + b"def test_ok(): pass\n" + NUL,
# frozen from an independent run of the stdlib hasher
BRAIN_DIGEST = "b7eb40816bec072d4c8829e2f1ef7bec5366f1d010f50a098e7516470c0a6c74"

FILES = {"tests/test_brain.py": b"def test_ok(): pass\n"}


def reader(files):
    return lambda path: files[path]


def passing_runner(paths):
    return True, "all green"


def failing_runner(paths):
    return False, "1 failed"


# ------------------------------------------------------------ hashing


def test_empty_path_set_yields_empty_digest():
    assert ev.hash_test_paths(set()) == ev.EMPTY_DIGEST


def test_pinned_fixture_digest():
    got = ev.hash_test_paths(["tests/test_brain.py"], reader(FILES))
    assert got == BRAIN_DIGEST


def test_hash_is_order_independent_and_path_sensitive():
    files = {"a.py": b"1", "b.py": b"2"}
    fwd = ev.hash_test_paths(["a.py", "b.py"], reader(files))
    rev = ev.hash_test_paths(["b.py", "a.py"], reader(files))
    assert fwd == rev
    swapped = ev.hash_test_paths(["a.py", "b.py"],
                                 reader({"a.py": b"2", "b.py": b"1"}))
    assert swapped != fwd


def test_one_byte_change_changes_digest():
    before = ev.hash_test_paths(["t.py"], reader({"t.py": b"assert True"}))
    after = ev.hash_test_paths(["t.py"], reader({"t.py": b"assert Trux"}))
    assert before != after


def test_missing_file_raises():
    with pytest.raises(ev.MissingFile) as exc:
        ev.hash_test_paths(["gone.py"], reader({}))
    assert exc.value.path == "gone.py"


def test_disk_reader_used_by_default(tmp_path):
    target = tmp_path / "test_x.py"
    target.write_bytes(b"ok")
    got = ev.hash_test_paths([str(target)])
    assert len(got) == 64 and got != ev.EMPTY_DIGEST


# --------------------------------------------------------- witnesses


def test_default_witnesses():
    for name in ("kernel-test-gate", "ci-pipeline", "human-review"):
        assert name in obligations.DEFAULT_WITNESSES
    assert "governance-audit" not in obligations.DEFAULT_WITNESSES


# --------------------------------------------------------- fused gate


def demo_with_tests():
    a = model.decode_text(sandbox.DEMO_ARTIFACT)
    feat = a.feature("FEAT-01")
    scoped = dataclasses.replace(
        feat, scope=dataclasses.replace(feat.scope,
                                        test_paths=("tests/test_brain.py",)))
    return dataclasses.replace(
        a, features=tuple(scoped if f.id == feat.id else f for f in a.features))


def test_passing_run_emits_signed_record():
    cs = ev.run_evidence_gate(demo_with_tests(), "FEAT-01", passing_runner,
                              reader=reader(FILES), timestamp=sandbox.DEMO_NOW)
    assert isinstance(cs, ChangeSet)
    assert len(cs.ops) == 1 and cs.ops[0].section == "coordination"
    after = model.apply_change_set(demo_with_tests(), cs)
    (record,) = after.evidence
    assert record.feature == "FEAT-01"
    assert record.witness == "kernel-test-gate"
    assert record.status == "passed"
    assert record.server_computed is True
    assert record.hash == BRAIN_DIGEST


def test_failing_run_yields_no_record():
    out = ev.run_evidence_gate(demo_with_tests(), "FEAT-01", failing_runner,
                               reader=reader(FILES))
    assert isinstance(out, ev.GateFailure)
    assert not out
    assert out.detail == "1 failed"


def test_gate_requires_test_paths():
    a = model.decode_text(sandbox.DEMO_ARTIFACT)  # FEAT-01 has no tests yet
    with pytest.raises(ev.NoTestPaths):
        ev.run_evidence_gate(a, "FEAT-01", passing_runner)


def test_gate_unknown_feature():
    with pytest.raises(ev.UnknownFeature):
        ev.run_evidence_gate(demo_with_tests(), "FEAT-404", passing_runner)


def test_crashing_runner_is_an_error_not_a_record():
    def bomb(paths):
        raise RuntimeError("segfault")
    with pytest.raises(ev.RunnerError):
        ev.run_evidence_gate(demo_with_tests(), "FEAT-01", bomb,
                             reader=reader(FILES))


def test_no_record_without_runner_invocation():
    calls = []

    def counting_runner(paths):
        calls.append(tuple(paths))
        return True, ""

    cs = ev.run_evidence_gate(demo_with_tests(), "FEAT-01", counting_runner,
                              reader=reader(FILES))
    assert calls == [("tests/test_brain.py",)]
    assert isinstance(cs, ChangeSet)


def test_rerun_after_edit_changes_recorded_hash():
    a = demo_with_tests()
    first = ev.run_evidence_gate(a, "FEAT-01", passing_runner, reader=reader(FILES))
    edited = {"tests/test_brain.py": b"def test_ok(): pass  # edited\n"}
    second = ev.run_evidence_gate(a, "FEAT-01", passing_runner, reader=reader(edited))
    h1 = model.apply_change_set(a, first).evidence[0].hash
    h2 = model.apply_change_set(a, second).evidence[0].hash
    assert h1 != h2


def test_review_evidence_covers_code_and_tests():
    files = dict(FILES)
    files["src/brain.py"] = b"print('brain')\n"
    cs = ev.review_evidence(demo_with_tests(), "FEAT-01", operator="op",
                            reader=reader(files))
    after = model.apply_change_set(demo_with_tests(), cs)
    (record,) = after.evidence
    assert record.witness == "human-review"
    assert record.server_computed is True
    expected = ev.hash_test_paths(["src/brain.py", "tests/test_brain.py"],
                                  reader(files))
    assert record.hash == expected


# ------------------------------------------------------ command runner


def test_command_runner_expands_paths_and_maps_exit_status():
    seen = {}

    class FakeProc:
        def __init__(self, code):
            self.returncode = code
            self.stdout = "out"
            self.stderr = ""

    def fake_run(argv, capture_output, text):
        seen["argv"] = argv
        return FakeProc(0 if "tests/test_ok.py" in argv else 1)

    runner = ev.make_command_runner(
        ["python3", "-m", "pytest", "{test_paths}"], run=fake_run)
    passed, detail = runner(("tests/test_ok.py",))
    assert passed and detail == "out"
    assert seen["argv"] == ["python3", "-m", "pytest", "tests/test_ok.py"]
    passed, _ = runner(("tests/test_other.py",))
    assert not passed


# ------------------------------------------------- through the kernel


def kernel_with_tests(files=None):
    reader_fn = {"epoch.guidebook.epoch": sandbox.DEMO_GUIDEBOOK}.__getitem__
    return kn.Kernel(demo_with_tests(), guidebook_reader=reader_fn,
                     base_dir="project", clock=lambda: NOW)


def test_gate_evidence_passes_provenance_end_to_end():
    k = kernel_with_tests()
    cs = ev.run_evidence_gate(k.artifact, "FEAT-01", passing_runner,
                              reader=reader(FILES), timestamp=sandbox.DEMO_NOW)
    assert k.commit_change_set(cs).accepted

    feat = k.artifact.feature("FEAT-01")
    deliver = ChangeSet(
        ops=(UpdateOp("features", "FEAT-01", model.encode_feature(
            dataclasses.replace(feat, status="delivered"))),),
        actor="opus-a1b2", intent="deliver")
    result = k.commit_change_set(deliver)
    assert result.accepted


def test_fabricated_witness_rejected_at_gate():
    k = kernel_with_tests()
    fake = EvidenceRecord(feature="FEAT-01", witness="governance-audit",
                          status="passed", hash="ab" * 32,
                          server_computed=True, timestamp=sandbox.DEMO_NOW)
    cs = ChangeSet(ops=(AddOp("coordination", model.encode_evidence(fake)),),
                   actor="fabricator", intent="fake it")
    result = k.commit_change_set(cs)
    assert not result.accepted
    assert result.verdict.core == ("GC-EVIDENCE-PROVENANCE",)
    assert len(k.history) == 1


def test_agent_computed_hash_rejected_at_gate():
    k = kernel_with_tests()
    fake = EvidenceRecord(feature="FEAT-01", witness="kernel-test-gate",
                          status="passed", hash="ab" * 32,
                          server_computed=False, timestamp=sandbox.DEMO_NOW)
    cs = ChangeSet(ops=(AddOp("coordination", model.encode_evidence(fake)),),
                   actor="fabricator", intent="fake it")
    result = k.commit_change_set(cs)
    assert not result.accepted
    assert any("server-side" in v.message for v in result.verdict.violations)
