"""Bindings from artifact state to the boolean variables guidebook
formulas are written over.

Formulas quantify implicitly: a formula over feature predicates is
checked once per feature, one over evidence predicates once per
record, and one over dispatch predicates once per feature the change
set touches. Graph probes are global. Mixing feature, evidence, and
dispatch variables in one formula has no sensible instantiation and is
reported as a load error by the guidebook consistency check.
"""

from __future__ import annotations

from .model import Artifact, ChangeSet, feature_ids_touched
from .sexpr import SList, Symbol

FEATURE_PREDICATES = frozenset({
    "feature_delivered", "has_code_paths", "has_test_paths", "has_requirements",
})
EVIDENCE_PREDICATES = frozenset({
    "evidence_submitted", "witness_registered", "hash_present",
})
DISPATCH_PREDICATES = frozenset({
    "work_dispatched", "feature_claimed_by_agent",
})
GRAPH_PREDICATES = frozenset({
    "parse_imports_query", "mutate_imports_query", "verify_imports_query",
})

KNOWN_PREDICATES = FEATURE_PREDICATES | EVIDENCE_PREDICATES | DISPATCH_PREDICATES | GRAPH_PREDICATES


class MixedScopeError(ValueError):
    pass


def formula_scope(names) -> str:
    """Classify a formula by the predicate families it uses."""
    names = set(names)
    used = [
        label
        for label, family in (
            ("feature", FEATURE_PREDICATES),
            ("evidence", EVIDENCE_PREDICATES),
            ("dispatch", DISPATCH_PREDICATES),
        )
        if names & family
    ]
    if len(used) > 1:
        raise MixedScopeError(f"formula mixes {' and '.join(used)} predicates")
    return used[0] if used else "global"


# ----------------------------------------------------------- graphs


def find_cycle(edges: dict) -> list | None:
    """First cycle in a directed graph as a node path, or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in edges}
    stack: list = []

    def visit(node):
        color[node] = GRAY
        stack.append(node)
        for nxt in edges.get(node, ()):
            if nxt not in color:
                continue
            if color[nxt] == GRAY:
                return stack[stack.index(nxt):] + [nxt]
            if color[nxt] == WHITE:
                found = visit(nxt)
                if found:
                    return found
        stack.pop()
        color[node] = BLACK
        return None

    for node in list(edges):
        if color[node] == WHITE:
            found = visit(node)
            if found:
                return found
    return None


def parse_module_graph(params) -> dict | None:
    """Read a declared module-import graph from an obligation's params
    subtree: a list of (module imports...) rows, optionally headed by
    the symbol `modules`."""
    if params is None or not isinstance(params, SList):
        return None
    rows = list(params.items)
    if rows and isinstance(rows[0], Symbol) and rows[0].text == "modules":
        rows = rows[1:]
    graph: dict = {}
    for row in rows:
        if not isinstance(row, SList) or not row.items:
            return None
        names = []
        for node in row.items:
            if not isinstance(node, Symbol):
                return None
            names.append(node.text)
        graph.setdefault(names[0], [])
        for imported in names[1:]:
            graph[names[0]].append(imported)
            graph.setdefault(imported, [])
    return graph


def declared_module_graph(a: Artifact) -> dict | None:
    """The module graph declared by any local call-graph-dag
    obligation, if one exists."""
    for ob in a.obligations:
        if ob.kind == "call-graph-dag" and ob.params is not None:
            graph = parse_module_graph(ob.params)
            if graph is not None:
                return graph
    return None


def _graph_env(a: Artifact) -> dict:
    graph = declared_module_graph(a)
    has_back_edge = bool(graph) and find_cycle(graph) is not None
    return {name: has_back_edge for name in GRAPH_PREDICATES}


def _feature_env(feature) -> dict:
    return {
        "feature_delivered": feature.status == "delivered",
        "has_code_paths": bool(feature.scope.code_paths),
        "has_test_paths": bool(feature.scope.test_paths),
        "has_requirements": bool(feature.scope.requirements),
    }


def _evidence_env(record, witnesses) -> dict:
    return {
        "evidence_submitted": True,
        "witness_registered": record.witness in witnesses,
        "hash_present": bool(record.hash) and record.server_computed,
    }


def _dispatch_env(a: Artifact, feature_id: str, cs: ChangeSet, now) -> dict:
    claim = a.claim_on(feature_id)
    held = (
        claim is not None
        and claim.agent == cs.actor
        and (now is None or not claim.expired(now))
    )
    return {"work_dispatched": True, "feature_claimed_by_agent": held}


def formula_instances(a: Artifact, formula_vars, *, change_set=None,
                      witnesses=frozenset(), now=None) -> list:
    """(subject, env) pairs the formula must hold for. The env covers
    the formula's own scope plus all global predicates."""
    scope = formula_scope(formula_vars)
    base = _graph_env(a)
    if scope == "feature":
        return [(f.id, {**base, **_feature_env(f)}) for f in a.features]
    if scope == "evidence":
        return [
            (f"{r.feature}/{r.witness}", {**base, **_evidence_env(r, witnesses)})
            for r in a.evidence
        ]
    if scope == "dispatch":
        if change_set is None:
            return []
        return [
            (fid, {**base, **_dispatch_env(a, fid, change_set, now)})
            for fid in feature_ids_touched(change_set)
        ]
    return [(a.name, base)]
