"""Evidence pipeline: server-side content hashing and the fused gate
that runs tests and submits the record in one step. A record only
exists if the runner actually ran. Which witnesses count is the
kernel's `witnesses` set.
"""

from __future__ import annotations

import hashlib
import subprocess
from dataclasses import dataclass

from .model import AddOp, Artifact, ChangeSet, EvidenceRecord, encode_record

GATE_WITNESS = "kernel-test-gate"
REVIEW_WITNESS = "human-review"

# SHA-256 of zero bytes; the digest an empty path set must produce
EMPTY_DIGEST = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


class EvidenceError(Exception):
    pass


class MissingFile(EvidenceError):
    def __init__(self, path: str):
        super().__init__(f"cannot read test path: {path}")
        self.path = path


class NoTestPaths(EvidenceError):
    def __init__(self, feature_id: str):
        super().__init__(f"feature {feature_id} has no test paths to run")
        self.feature_id = feature_id


class UnknownFeature(EvidenceError):
    def __init__(self, feature_id: str):
        super().__init__(f"no feature {feature_id}")
        self.feature_id = feature_id


class RunnerError(EvidenceError):
    pass


def _disk_reader(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def hash_test_paths(paths, reader=None) -> str:
    """SHA-256 over (path, 0x00, contents, 0x00) for each path in
    lexicographic order. Deterministic for a given tree state."""
    read = reader if reader is not None else _disk_reader
    h = hashlib.sha256()
    for path in sorted(set(paths)):
        try:
            data = read(path)
        except (FileNotFoundError, OSError, KeyError) as err:
            raise MissingFile(path) from err
        h.update(path.encode("utf-8"))
        h.update(b"\x00")
        h.update(data)
        h.update(b"\x00")
    return h.hexdigest()


@dataclass(frozen=True)
class GateFailure:
    feature_id: str
    detail: str

    def __bool__(self):
        return False


def run_evidence_gate(a: Artifact, feature_id: str, runner, *,
                      reader=None, timestamp: str = "",
                      witness: str = GATE_WITNESS):
    """Run the feature's tests and submit evidence as one atomic step.

    runner(test_paths) -> (passed: bool, detail: str). Returns the
    coordination ChangeSet carrying the signed record on success, a
    GateFailure (and no record anywhere) otherwise.
    """
    feat = a.feature(feature_id)
    if feat is None:
        raise UnknownFeature(feature_id)
    paths = tuple(feat.scope.test_paths)
    if not paths:
        raise NoTestPaths(feature_id)
    try:
        passed, detail = runner(paths)
    except Exception as err:  # runner crash is a failed run, not a record
        raise RunnerError(str(err)) from err
    if not passed:
        return GateFailure(feature_id, detail or "test run failed")
    digest = hash_test_paths(paths, reader)
    record = EvidenceRecord(
        feature=feature_id, witness=witness, status="passed",
        hash=digest, server_computed=True, timestamp=timestamp,
    )
    return ChangeSet(
        ops=(AddOp("coordination", encode_record(record)),),
        actor=witness,
        intent=f"evidence for {feature_id}",
    )


def review_evidence(a: Artifact, feature_id: str, *, operator: str,
                    reader=None, timestamp: str = ""):
    """human-review record over the feature's reviewed paths; still
    hash-anchored and server-computed."""
    feat = a.feature(feature_id)
    if feat is None:
        raise UnknownFeature(feature_id)
    paths = tuple(feat.scope.code_paths) + tuple(feat.scope.test_paths)
    digest = hash_test_paths(paths, reader)
    record = EvidenceRecord(
        feature=feature_id, witness=REVIEW_WITNESS, status="passed",
        hash=digest, server_computed=True, timestamp=timestamp,
    )
    return ChangeSet(
        ops=(AddOp("coordination", encode_record(record)),),
        actor=operator,
        intent=f"human review of {feature_id}",
    )


def make_command_runner(template, *, run=None):
    """Build a runner from a command template. The template is a list
    of argv tokens; the literal token {test_paths} expands to the path
    list. Exit status 0 means pass."""
    exec_fn = run if run is not None else subprocess.run

    def runner(test_paths):
        argv = []
        for token in template:
            if token == "{test_paths}":
                argv.extend(test_paths)
            else:
                argv.append(token)
        proc = exec_fn(argv, capture_output=True, text=True)
        passed = proc.returncode == 0
        detail = (proc.stdout or "") + (proc.stderr or "")
        return passed, detail.strip()

    return runner


__all__ = [
    "EMPTY_DIGEST", "EvidenceError", "GateFailure",
    "GATE_WITNESS", "MissingFile", "NoTestPaths", "RunnerError",
    "UnknownFeature", "hash_test_paths",
    "make_command_runner", "review_evidence", "run_evidence_gate",
]
