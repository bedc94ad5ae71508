"""Lesson recording, scope surfacing, and the solver-backed proof
that a lesson's obligation actually forecloses its failure."""

import dataclasses

import pytest

from epochd import lessons as ls
from epochd import model, sexpr, solver
from epochd.model import Artifact, Lesson
from epochd.solver import And, Implies, Not, Var

OOM_TEXT = """\
(lesson LSN-OOM-Z3-PER-FEATURE
  (failure "160GB OOM: solver called per feature x constraint")
  (root-cause "Constraint satisfiability is guidebook-level")
  (fix "Removed per-feature solver loop")
  (obligation "skip-guidebooks at commit time")
  (affected-scope "lisp/epochd-proof-guidebook.lisp")
  (cost "160GB OOM, 4 daemon crashes")
  (commits "ce3e50d" "2ddd721"))
"""

OOM = model.decode_record(Lesson, sexpr.parse(OOM_TEXT))

PRE = And([Var("commit_path_mode"), Var("z3_called_per_feature")])
CTX = Implies(Var("commit_path_mode"), Not(Var("z3_called_per_feature")))


def artifact_with(*lessons):
    return Artifact(name="lessons-fixture", lessons=tuple(lessons))


# ----------------------------------------------------------- recording


def test_record_lesson_builds_add_op():
    cs = ls.record_lesson(artifact_with(), OOM, actor="scribe")
    assert [op.section for op in cs.ops] == ["lessons"]
    after = model.apply_change_set(artifact_with(), cs)
    assert after.lessons == (OOM,)
    assert cs.actor == "scribe"


def test_record_duplicate_id_refused():
    with pytest.raises(ls.DuplicateId):
        ls.record_lesson(artifact_with(OOM), OOM, actor="scribe")


def test_empty_affected_scope_is_schema_error():
    bare = dataclasses.replace(OOM, affected_scope=())
    with pytest.raises(ls.SchemaError):
        ls.record_lesson(artifact_with(), bare, actor="scribe")


@pytest.mark.parametrize("field", ["failure", "root_cause", "fix", "obligation"])
def test_required_fields_enforced(field):
    bad = dataclasses.replace(OOM, **{field: ""})
    with pytest.raises(ls.SchemaError):
        ls.validate_lesson(bad)


def test_nonpositive_severity_refused():
    with pytest.raises(ls.SchemaError):
        ls.validate_lesson(dataclasses.replace(OOM, severity=0))


# ----------------------------------------------------------- surfacing


def test_exact_path_surfaces_lesson():
    hits = ls.lessons_for_scope(artifact_with(OOM),
                                ["lisp/epochd-proof-guidebook.lisp"])
    assert hits == [OOM]


def test_directory_prefix_surfaces_lesson():
    hits = ls.lessons_for_scope(artifact_with(OOM), ["lisp/"])
    assert hits == [OOM]
    hits = ls.lessons_for_scope(artifact_with(OOM), ["lisp"])
    assert hits == [OOM]


def test_scoped_directory_contains_edited_file():
    dir_lesson = dataclasses.replace(OOM, id="LSN-DIR", affected_scope=("lisp/",))
    hits = ls.lessons_for_scope(artifact_with(dir_lesson),
                                ["lisp/epochd-kernel.lisp"])
    assert hits == [dir_lesson]


def test_disjoint_paths_surface_nothing():
    assert ls.lessons_for_scope(artifact_with(OOM), ["src/brain.py"]) == []


def test_prefix_requires_path_boundary():
    # "lisp-utils" is not inside "lisp/"
    assert ls.lessons_for_scope(artifact_with(OOM), ["lisp-utils/x.lisp"]) == []


def test_surfacing_is_stable_and_deterministic():
    second = dataclasses.replace(OOM, id="LSN-SECOND",
                                 affected_scope=("lisp/other.lisp",))
    a = artifact_with(OOM, second)
    paths = ["lisp/"]
    assert ls.lessons_for_scope(a, paths) == ls.lessons_for_scope(a, paths)
    assert [l.id for l in ls.lessons_for_scope(a, paths)] == \
           ["LSN-OOM-Z3-PER-FEATURE", "LSN-SECOND"]


# ------------------------------------------------------------ soundness


def test_oom_encoding_is_prevented():
    out = ls.check_lesson_soundness(OOM, CTX, PRE)
    assert isinstance(out, ls.Prevented)
    assert out.prevented
    assert out.lesson_id == OOM.id


def test_dropping_obligation_leaves_failure_uncovered():
    out = ls.check_lesson_soundness(OOM, CTX, PRE, assume_obligation=False)
    assert isinstance(out, ls.NotCovered)
    assert not out.prevented
    # the witnessing model exhibits the precondition
    assert out.model["commit_path_mode"] is True
    assert out.model["z3_called_per_feature"] is True


def test_partial_obligation_is_not_covered():
    # fix only forbids one conjunct combination; leaves another path
    weak_ctx = Implies(Var("commit_path_mode"), Var("commit_path_mode"))
    out = ls.check_lesson_soundness(OOM, weak_ctx, PRE)
    assert isinstance(out, ls.NotCovered)


def test_false_context_prevents_vacuously():
    false_ctx = And([Var("p"), Not(Var("p"))])
    out = ls.check_lesson_soundness(OOM, false_ctx, PRE)
    assert isinstance(out, ls.Prevented)


def test_soundness_agrees_with_truth_tables():
    # enumerate all assignments over the three atoms by hand
    names = ("commit_path_mode", "z3_called_per_feature", "failure_occurs")

    def truth_table_sat(assume):
        for bits in range(8):
            env = {n: bool(bits >> i & 1) for i, n in enumerate(names)}
            pre = env["commit_path_mode"] and env["z3_called_per_feature"]
            fail = env["failure_occurs"]
            ctx = (not env["commit_path_mode"]) or (not env["z3_called_per_feature"])
            ok = (not pre or fail) and (not fail or pre) and fail
            if assume:
                ok = ok and ctx
            if ok:
                return True
        return False

    for assume in (True, False):
        out = ls.check_lesson_soundness(OOM, CTX, PRE, assume_obligation=assume)
        assert out.prevented == (not truth_table_sat(assume))
