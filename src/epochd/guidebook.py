"""Importable constraint bundles.

A guidebook file is a sequence of top-level forms:

    (guidebook-constraint ID (z3_formula F) (po-kind K) (description "..."))
    (imports "relative/path" ...)
    (modules name ...)

Projects inherit constraints through their artifact's guidebooks
section; inheritance is monotonic because imported constraints are
appended to the local obligation set, never filtered.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass
from functools import partial

from . import predicates, sexpr, solver
from .model import ProofObligation
from .sexpr import Record, SList, String, Symbol, read_head, read_values


class GuidebookError(Exception):
    pass


class GuidebookSyntaxError(GuidebookError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class MissingGuidebook(GuidebookError):
    def __init__(self, path: str):
        super().__init__(f"guidebook not found: {path}")
        self.path = path


class ImportCycle(GuidebookError):
    def __init__(self, chain):
        super().__init__("import cycle: " + " -> ".join(chain))
        self.chain = tuple(chain)


@dataclass(frozen=True)
class GuidebookConstraint:
    id: str
    formula: object
    po_kind: str
    description: str = ""


@dataclass(frozen=True)
class Guidebook:
    path: str
    constraints: tuple = ()
    imports: tuple = ()
    module_decls: tuple = ()


def _parse_constraint(form: SList, path: str) -> GuidebookConstraint:
    cid, = read_head(form, "guidebook-constraint", (Symbol,),
                     partial(GuidebookSyntaxError, path))

    def fail(message):
        return GuidebookSyntaxError(path, f"{cid}: {message}")

    r = Record(form, 2, fail)
    formula = r.subtree("z3_formula")
    if formula is None:
        raise fail("missing z3_formula")
    try:
        formula = solver.formula_from_sexpr(formula)
    except solver.SolverError as err:
        raise fail(f"bad formula: {err}") from err
    constraint = GuidebookConstraint(cid, formula, r.one("po-kind", Symbol),
                                     r.one("description", String, ""))
    r.done()
    return constraint


def parse_guidebook(text: str, path: str = "<memory>") -> Guidebook:
    try:
        forms = sexpr.parse_all(text)
    except sexpr.SexprError as err:
        raise GuidebookSyntaxError(path, str(err)) from err
    fail = partial(GuidebookSyntaxError, path)
    r = Record(SList(forms), 0, fail)
    constraints = [_parse_constraint(form, path) for form in r.each("guidebook-constraint")]
    imports = [p for form in r.each("imports") for p in read_values(form, String, fail)]
    modules = [m for form in r.each("modules") for m in read_values(form, Symbol, fail)]
    unexpected = r.rest()
    if unexpected:
        raise fail(f"unexpected top-level form {unexpected[0].items[0].text}")
    seen = set()
    for c in constraints:
        if c.id in seen:
            raise GuidebookSyntaxError(path, f"duplicate constraint id {c.id}")
        seen.add(c.id)
    return Guidebook(path, tuple(constraints), tuple(imports), tuple(modules))


def _disk_reader(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def load_guidebooks(import_paths, base_dir: str = ".", reader=None) -> tuple:
    """Resolve the transitive import closure depth-first, importer
    before imported, deduplicated by normalized path."""
    if reader is None:
        reader = _disk_reader
    done: dict = {}
    order: list = []
    stack: list = []

    def visit(rel_path: str, cur_dir: str):
        path = posixpath.normpath(posixpath.join(cur_dir, rel_path))
        if path in stack:
            raise ImportCycle(stack[stack.index(path):] + [path])
        if path in done:
            return
        try:
            text = reader(path)
        except (FileNotFoundError, OSError, KeyError) as err:
            raise MissingGuidebook(path) from err
        book = parse_guidebook(text, path)
        done[path] = book
        order.append(book)
        stack.append(path)
        for sub in book.imports:
            visit(sub, posixpath.dirname(path) or ".")
        stack.pop()

    for p in import_paths:
        visit(p, base_dir)
    return tuple(order)


def effective_obligations(local_obligations, guidebooks) -> tuple:
    """Local obligations plus one derived obligation per imported
    constraint. The first definition of an id wins, so a project
    cannot shadow an inherited constraint away but an already-imported
    one is not duplicated."""
    out = list(local_obligations)
    taken = {ob.id for ob in out}
    for book in guidebooks:
        for c in book.constraints:
            if c.id in taken:
                continue
            taken.add(c.id)
            out.append(ProofObligation(
                id=c.id, kind=c.po_kind, description=c.description,
                immutable=False, params=None, formula=c.formula,
                origin=book.path,
            ))
    return tuple(out)


@dataclass(frozen=True)
class ConsistencyIssue:
    guidebook: str
    constraint_id: str
    kind: str  # unsat | joint-unsat | unbound | mixed-scope | unregistered-kind | duplicate
    message: str
    core: tuple = ()

    def __str__(self):
        where = f"{self.guidebook}:{self.constraint_id}" if self.constraint_id else self.guidebook
        return f"{where}: [{self.kind}] {self.message}"


def check_guidebook_consistency(guidebooks, registry=None) -> list:
    """Flag constraints that can never hold, jointly contradictory
    sets, unknown predicates, scope mixing, id collisions across
    books, and unregistered evaluator kinds."""
    issues: list = []
    seen_ids: dict = {}
    sat_checkable: list = []
    for book in guidebooks:
        for c in book.constraints:
            if c.id in seen_ids and seen_ids[c.id] != book.path:
                issues.append(ConsistencyIssue(
                    book.path, c.id, "duplicate",
                    f"constraint id also defined in {seen_ids[c.id]}",
                ))
            seen_ids.setdefault(c.id, book.path)

            res = solver.check_sat([c.formula])
            if res.status == "unsat":
                issues.append(ConsistencyIssue(
                    book.path, c.id, "unsat",
                    f"formula is unsatisfiable: {solver.format_formula(c.formula)}",
                ))
            else:
                sat_checkable.append((c, book))

            names = solver.prop_vars(c.formula)
            unknown = sorted(n for n in names if n not in predicates.KNOWN_PREDICATES)
            if unknown:
                issues.append(ConsistencyIssue(
                    book.path, c.id, "unbound",
                    "unknown predicates: " + ", ".join(unknown),
                ))
            try:
                predicates.formula_scope(names)
            except predicates.MixedScopeError as err:
                issues.append(ConsistencyIssue(book.path, c.id, "mixed-scope", str(err)))

            if registry is not None and c.po_kind not in registry.registered_kinds():
                issues.append(ConsistencyIssue(
                    book.path, c.id, "unregistered-kind",
                    f"no evaluator registered for kind {c.po_kind}",
                ))

    if sat_checkable:
        joint = solver.check_sat([c.formula for c, _ in sat_checkable])
        if joint.status == "unsat":
            try:
                core = solver.minimal_unsat_subset([c.formula for c, _ in sat_checkable])
            except solver.SolverError:
                core = [c.formula for c, _ in sat_checkable]
            core_ids = tuple(
                c.id for c, _ in sat_checkable
                if any(c.formula is f for f in core)
            )
            issues.append(ConsistencyIssue(
                sat_checkable[0][1].path, "", "joint-unsat",
                "constraint set is jointly unsatisfiable",
                core=core_ids,
            ))
    return issues


__all__ = [
    "ConsistencyIssue", "Guidebook", "GuidebookConstraint", "GuidebookError",
    "GuidebookSyntaxError", "ImportCycle", "MissingGuidebook",
    "check_guidebook_consistency", "effective_obligations", "load_guidebooks",
    "parse_guidebook",
]
