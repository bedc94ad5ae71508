"""Negative-constraint ledger: validate and record lessons, surface
them by path-scope intersection, and prove (propositionally) that a
lesson's obligation actually rules out the failure it documents.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import solver
from .model import AddOp, Artifact, ChangeSet, Lesson, encode_record
from .solver import Implies, Var


class LessonError(Exception):
    pass


class SchemaError(LessonError):
    pass


class DuplicateId(LessonError):
    pass


_REQUIRED = ("id", "failure", "root_cause", "fix", "obligation")


def validate_lesson(lesson: Lesson) -> None:
    for field in _REQUIRED:
        if not getattr(lesson, field):
            raise SchemaError(f"lesson field {field} must be non-empty")
    if not lesson.affected_scope:
        raise SchemaError("lesson affected-scope must be non-empty")
    if lesson.severity < 1:
        raise SchemaError("lesson severity must be >= 1")


def record_lesson(a: Artifact, lesson: Lesson, *, actor: str) -> ChangeSet:
    """ChangeSet adding the lesson; feed it to the gate like any other
    mutation. Recording credit is the caller's job (one lesson_recorded
    friction event for the actor)."""
    validate_lesson(lesson)
    if any(l.id == lesson.id for l in a.lessons):
        raise DuplicateId(lesson.id)
    return ChangeSet(
        ops=(AddOp("lessons", encode_record(lesson)),),
        actor=actor,
        intent=f"record lesson {lesson.id}",
    )


def _covers(scope_path: str, path: str) -> bool:
    # exact match, or either side names a directory containing the other
    if scope_path == path:
        return True
    if path.startswith(scope_path.rstrip("/") + "/"):
        return True
    if scope_path.startswith(path.rstrip("/") + "/"):
        return True
    return False


def lessons_for_scope(a: Artifact, paths) -> list:
    """Lessons whose affected scope intersects the given code paths,
    by exact equality or directory-prefix containment. Stable order."""
    wanted = [p for p in paths if p]
    out = []
    for lesson in a.lessons:
        if any(_covers(s, p) for s in lesson.affected_scope for p in wanted):
            out.append(lesson)
    return out


@dataclass(frozen=True)
class Prevented:
    lesson_id: str

    @property
    def prevented(self) -> bool:
        return True


@dataclass(frozen=True)
class NotCovered:
    lesson_id: str
    model: dict

    @property
    def prevented(self) -> bool:
        return False


def check_lesson_soundness(lesson: Lesson, context, precondition, *,
                           failure=None, assume_obligation: bool = True):
    """Does the lesson's obligation (context) rule out the recorded
    failure?

    The failure is tied to its root cause in both directions: the
    precondition brings it about, and it does not arise otherwise.
    Asserting the failure alongside the enforced context then asks for
    a world where the fix is in force yet the incident recurs. Unsat
    means no such world: Prevented. Sat hands back the uncovered path.

    assume_obligation=False drops the context from the set, modeling a
    state where the obligation was never adopted.
    """
    # Asserting ctx->not(pre) here as well would contradict fail->pre
    # outright for every satisfiable context, making any fix "verify";
    # whether the context excludes the precondition must come from the
    # context formula itself.
    fail = failure if failure is not None else Var("failure_occurs")
    forms = [Implies(precondition, fail), Implies(fail, precondition)]
    if assume_obligation:
        forms.append(context)
    forms.append(fail)
    res = solver.check_sat_prop(forms)
    if res.is_unsat:
        return Prevented(lesson.id)
    if res.is_sat:
        return NotCovered(lesson.id, dict(res.model or {}))
    raise LessonError(f"soundness check undecided: {res.reason}")


__all__ = [
    "DuplicateId", "LessonError", "NotCovered", "Prevented", "SchemaError",
    "check_lesson_soundness", "lessons_for_scope", "record_lesson",
    "validate_lesson",
]
