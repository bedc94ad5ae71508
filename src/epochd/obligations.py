"""Proof-obligation engine: evaluator registry, built-in checks, and
verdict rendering.

Every obligation names a kind; the registry maps kinds to evaluator
functions. Obligations carrying a formula are additionally checked by
instantiating the formula's predicates against the artifact, so a
constraint can be enforced both structurally and declaratively without
double-reporting a subject.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from . import predicates, sexpr, solver
from .model import (
    SECTION_ORDER,
    Artifact,
    ChangeSet,
    ModelError,
    ProofObligation,
    UpdateOp,
    decode_text,
)
from .sexpr import Integer, Record, SList, String, Symbol, read_head

DEFAULT_WITNESSES = frozenset({"kernel-test-gate", "ci-pipeline", "human-review"})

DEFAULT_HEAP_CEILING_BYTES = 8 * 1024 ** 3
DEFAULT_LATENCY_BOUND_MS = 5000


class UnregisteredKind(KeyError):
    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind

    def __str__(self):
        return f"no evaluator registered for kind {self.kind}"


@dataclass(frozen=True)
class Violation:
    obligation_id: str
    kind: str
    subject: str
    message: str

    def __str__(self):
        return f"{self.subject}: {self.message}"


@dataclass(frozen=True)
class RuntimeProbes:
    heap_bytes: int = 0
    last_verification_ms: int = 0
    in_memory_fingerprint: str = ""
    wal_head_fingerprint: str = ""


@dataclass(frozen=True)
class Verdict:
    # ((obligation, (violation, ...)), ...) in evaluation order
    results: tuple = ()

    @property
    def passed(self) -> bool:
        return all(not v for _, v in self.results)

    @property
    def violations(self) -> tuple:
        return tuple(v for _, vs in self.results for v in vs)

    @property
    def core(self) -> tuple:
        """Failing obligation ids, deduplicated, in evaluation order."""
        seen: list = []
        for ob, vs in self.results:
            if vs and ob.id not in seen:
                seen.append(ob.id)
        return tuple(seen)

    def extend(self, obligation: ProofObligation, violations) -> "Verdict":
        return Verdict(self.results + ((obligation, tuple(violations)),))


@dataclass
class EvalContext:
    artifact: Artifact
    obligation: ProofObligation
    baseline: Artifact | None = None
    change_set: ChangeSet | None = None
    history: object | None = None
    probes: RuntimeProbes | None = None
    witnesses: frozenset = DEFAULT_WITNESSES
    now: object = None
    work: Counter = field(default_factory=Counter)

    def violation(self, subject: str, message: str) -> Violation:
        return Violation(self.obligation.id, self.obligation.kind, subject, message)

    def tally(self, units: int = 1):
        self.work[self.obligation.kind] += units


class EvaluatorRegistry:
    """Kind -> evaluator dispatch with invocation and work counters.
    Each kind declares what its evaluator reads: artifact sections
    (model.SECTION_ORDER, of the candidate or the baseline), and
    `change-set`, `clock`, `history` or `probes` where it uses them."""

    def __init__(self):
        self._evaluators: dict = {}
        self._reads: dict = {}
        self.invocations: Counter = Counter()
        self.work_units: Counter = Counter()

    def register(self, kind: str, fn, reads):
        self._evaluators[kind] = fn
        self._reads[kind] = frozenset(reads)

    def registered_kinds(self) -> frozenset:
        return frozenset(self._evaluators)

    def evaluator_for(self, kind: str):
        try:
            return self._evaluators[kind]
        except KeyError:
            raise UnregisteredKind(kind) from None

    def reads(self, ob: ProofObligation) -> frozenset:
        """What evaluating `ob` reads: its kind's declaration plus that
        of its formula's predicates. An unregistered kind reads nothing."""
        own = self._reads.get(ob.kind, frozenset())
        if ob.formula is None:
            return own
        return own | predicates.formula_reads(solver.prop_vars(ob.formula))

    def kinds_reading(self, sections) -> frozenset:
        """Registered kinds whose evaluators read any of `sections`."""
        return frozenset(k for k, r in self._reads.items() if not r.isdisjoint(sections))

    def dispatch(self, ctx: EvalContext) -> list:
        fn = self.evaluator_for(ctx.obligation.kind)
        self.invocations[ctx.obligation.kind] += 1
        ctx.work = self.work_units
        return fn(ctx)


# ------------------------------------------------------ structural


def eval_traceability_complete(ctx: EvalContext) -> list:
    a = ctx.artifact
    components = a.component_names()
    targets = a.design_names() | a.workflow_names()
    out = []
    for req in a.requirements:
        ctx.tally()
        covered = any(
            t.requirement == req.id
            and t.component in components
            and t.design_element in targets
            for t in a.traces
        )
        if not covered:
            out.append(ctx.violation(
                req.id,
                "no trace links this requirement to an existing component and design element",
            ))
    return out


def eval_connector_integrity(ctx: EvalContext) -> list:
    a = ctx.artifact
    components = a.component_names()
    out = []
    for c in a.connectors:
        ctx.tally()
        for end in (c.source, c.target):
            if end not in components:
                out.append(ctx.violation(c.key, f"references missing component {end}"))
    return out


def eval_connector_existence(ctx: EvalContext) -> list:
    a = ctx.artifact
    components = a.component_names()
    incident = set()
    for c in a.connectors:
        incident.add(c.source)
        incident.add(c.target)
    out = []
    for t in a.traces:
        ctx.tally()
        if t.component in components and t.component not in incident:
            out.append(ctx.violation(
                t.id, f"component {t.component} has no connector",
            ))
    return out


def eval_dag_enforcement(ctx: EvalContext) -> list:
    a = ctx.artifact
    edges: dict = {c.name: [] for c in a.components}
    for c in a.connectors:
        edges.setdefault(c.source, []).append(c.target)
        edges.setdefault(c.target, [])
        ctx.tally()
    cycle = predicates.find_cycle(edges)
    if cycle:
        path = " -> ".join(cycle)
        return [ctx.violation(path, f"connector cycle: {path}")]
    return []


def eval_call_graph_dag(ctx: EvalContext) -> list:
    ob = ctx.obligation
    if ob.params is None:
        if ob.formula is not None:
            return []  # declarative route carries the check
        return [ctx.violation(ob.id, "missing module graph")]
    graph = predicates.parse_module_graph(ob.params)
    if graph is None:
        return [ctx.violation(ob.id, "malformed module graph")]
    ctx.tally(len(graph))
    cycle = predicates.find_cycle(graph)
    if cycle:
        path = " -> ".join(cycle)
        return [ctx.violation(path, f"module import cycle: {path}")]
    return []


def eval_workflow_satisfiability(ctx: EvalContext) -> list:
    out = []
    for wf in ctx.artifact.workflows:
        for tr in wf.transitions:
            ctx.tally()
            if tr.guard is None:
                continue
            res = solver.check_sat([tr.guard])
            if res.status == "sat":
                continue
            subject = f"{wf.name}/{tr.source}->{tr.target}"
            if res.status == "unsat":
                out.append(ctx.violation(subject, "guard is unsatisfiable"))
            else:
                out.append(ctx.violation(subject, f"guard satisfiability undecided: {res.reason}"))
    return out


def _scope_gap_message(scope) -> str:
    parts = [
        "has code-paths" if scope.code_paths else "missing code-paths",
        "has test-paths" if scope.test_paths else "missing test-paths",
    ]
    if not scope.requirements:
        parts.append("missing requirements")
    return ", ".join(parts)


def _delivered_scope_violations(ctx: EvalContext) -> list:
    out = []
    for f in ctx.artifact.features:
        ctx.tally()
        if f.status != "delivered":
            continue
        if f.scope.requirements and f.scope.code_paths and f.scope.test_paths:
            continue
        out.append(ctx.violation(f.id, _scope_gap_message(f.scope)))
    return out


def eval_feature_code_test_symmetry(ctx: EvalContext) -> list:
    return _delivered_scope_violations(ctx)


def eval_delivery_cascade(ctx: EvalContext) -> list:
    return _delivered_scope_violations(ctx)


def eval_evidence_provenance(ctx: EvalContext) -> list:
    out = []
    for r in ctx.artifact.evidence:
        ctx.tally()
        problems = []
        if r.witness not in ctx.witnesses:
            problems.append(f"witness {r.witness} is not registered")
        if not r.hash:
            problems.append("hash missing")
        elif not r.server_computed:
            problems.append("hash was not computed server-side")
        if problems:
            out.append(ctx.violation(f"{r.feature}/{r.witness}", "; ".join(problems)))
    return out


def eval_claim_before_dispatch(ctx: EvalContext) -> list:
    cs = ctx.change_set
    if cs is None:
        return []
    a = ctx.artifact
    out = []
    for op in cs.ops:
        if op.section != "features" or not isinstance(op, UpdateOp):
            continue
        fid = op.target
        ctx.tally()
        if ctx.baseline is not None:
            old = ctx.baseline.feature(fid)
            new = a.feature(fid)
            if old is not None and new is not None and (
                old.status == new.status and old.scope == new.scope
            ):
                continue  # no dispatch-relevant change
        claim = a.claim_on(fid)
        if claim is None:
            out.append(ctx.violation(fid, f"actor {cs.actor} holds no claim on this feature"))
        elif claim.agent != cs.actor:
            out.append(ctx.violation(fid, f"claim is held by {claim.agent}, not {cs.actor}"))
        elif ctx.now is not None and claim.expired(ctx.now):
            out.append(ctx.violation(fid, f"claim by {cs.actor} expired at {claim.lease_expires}"))
    return out


@dataclass(frozen=True)
class GateSpec:
    id: str
    witness: str
    depends: tuple = ()


def _gate_from_sexpr(row) -> GateSpec:
    gid, = read_head(row, "gate", (Symbol,), ValueError)
    r = Record(row, 2, ValueError)
    r.subtree("description")  # for readers of the artifact; not checked
    gate = GateSpec(gid, r.one("witness", String, ""), r.many("depends-on", Symbol))
    r.done()
    return gate


def parse_gates(params) -> list | None:
    """Read the gate DAG from an obligation's params subtree; None when
    it is malformed."""
    if not isinstance(params, SList):
        return None
    rows = params.items
    if rows and isinstance(rows[0], Symbol) and rows[0].text == "gates":
        rows = rows[1:]
    try:
        return [_gate_from_sexpr(row) for row in rows]
    except ValueError:
        return None


def _newly_delivered(ctx: EvalContext) -> list:
    if ctx.baseline is None:
        return []
    before = ctx.baseline.delivered_ids()
    return [f.id for f in ctx.artifact.features
            if f.status == "delivered" and f.id not in before]


def eval_gate_sequence(ctx: EvalContext) -> list:
    ob = ctx.obligation
    gates = parse_gates(ob.params) if ob.params is not None else None
    if gates is None:
        return [ctx.violation(ob.id, "missing or malformed gate declaration")]
    edges = {g.id: list(g.depends) for g in gates}
    for g in gates:
        for d in g.depends:
            edges.setdefault(d, [])
    cycle = predicates.find_cycle(edges)
    if cycle:
        return [ctx.violation(ob.id, "gate dependencies form a cycle: " + " -> ".join(cycle))]
    out = []
    by_id = {g.id: g for g in gates}
    for fid in _newly_delivered(ctx):
        passed = {
            g.id
            for g in gates
            for r in ctx.artifact.evidence
            if r.feature == fid and r.witness == g.witness and r.status == "passed"
        }
        ctx.tally(len(gates))
        for g in gates:
            missing_dep = next(
                (d for d in g.depends if d in by_id and d not in passed), None,
            )
            if missing_dep is not None:
                out.append(ctx.violation(
                    fid, f"feature {fid} gate {g.id} requires {missing_dep} to pass first",
                ))
            elif g.id not in passed:
                out.append(ctx.violation(
                    fid, f"feature {fid} gate {g.id} has no passing evidence",
                ))
    return out


def eval_spec_precedes_code(ctx: EvalContext) -> list:
    h = ctx.history
    if h is None or len(h) == 0:
        return []
    out = []
    for fid in _newly_delivered(ctx):
        ctx.tally()
        if h.first_index_with_feature(fid) is None:
            out.append(ctx.violation(
                fid, "feature is delivered in the same commit that first declares it",
            ))
    return out


def eval_conformance(ctx: EvalContext) -> list:
    ctx.tally()
    try:
        decode_text(ctx.artifact.text)
    except ModelError as err:
        return [ctx.violation(ctx.artifact.name, f"re-encoding failed validation: {err}")]
    return []


def _param_int(params, key: str) -> int | None:
    if not isinstance(params, SList):
        return None
    for node in params.items:
        if (isinstance(node, SList) and len(node) == 2
                and isinstance(node[0], Symbol) and node[0].text == key
                and isinstance(node[1], Integer)):
            return node[1].value
    return None


def eval_memory_ceiling(ctx: EvalContext) -> list:
    if ctx.probes is None:
        return []
    ctx.tally()
    ceiling = _param_int(ctx.obligation.params, "threshold-bytes")
    if ceiling is None:
        ceiling = DEFAULT_HEAP_CEILING_BYTES
    if ctx.probes.heap_bytes > ceiling:
        return [ctx.violation(
            "runtime", f"heap {ctx.probes.heap_bytes} bytes exceeds ceiling {ceiling}",
        )]
    return []


def eval_latency_bound(ctx: EvalContext) -> list:
    if ctx.probes is None:
        return []
    ctx.tally()
    bound = _param_int(ctx.obligation.params, "threshold-ms")
    if bound is None:
        bound = DEFAULT_LATENCY_BOUND_MS
    if ctx.probes.last_verification_ms > bound:
        return [ctx.violation(
            "runtime",
            f"verification took {ctx.probes.last_verification_ms} ms, bound is {bound}",
        )]
    return []


def eval_state_freshness(ctx: EvalContext) -> list:
    if ctx.probes is None:
        return []
    ctx.tally()
    p = ctx.probes
    if p.in_memory_fingerprint != p.wal_head_fingerprint:
        return [ctx.violation(
            "runtime",
            "in-memory artifact diverged from the log head "
            f"({p.in_memory_fingerprint[:12]}.. vs {p.wal_head_fingerprint[:12]}..)",
        )]
    return []


def builtin_registry() -> EvaluatorRegistry:
    reg = EvaluatorRegistry()
    for kind, fn, reads in (
        ("traceability-complete", eval_traceability_complete,
         ("requirements", "architecture", "design", "workflows", "traceability")),
        ("connector-integrity", eval_connector_integrity, ("architecture",)),
        ("connector-existence", eval_connector_existence, ("architecture", "traceability")),
        ("dag-enforcement", eval_dag_enforcement, ("architecture",)),
        ("call-graph-dag", eval_call_graph_dag, ()),  # its graph is its own params
        ("workflow-satisfiability", eval_workflow_satisfiability, ("workflows",)),
        ("feature-code-test-symmetry", eval_feature_code_test_symmetry, ("features",)),
        ("delivery-cascade", eval_delivery_cascade, ("features",)),
        ("evidence-provenance", eval_evidence_provenance, ("coordination",)),
        ("claim-before-dispatch", eval_claim_before_dispatch,
         ("features", "coordination", "change-set", "clock")),
        ("gate-sequence", eval_gate_sequence, ("features", "coordination")),
        ("spec-precedes-code", eval_spec_precedes_code, ("features", "history")),
        ("conformance", eval_conformance, SECTION_ORDER),
        ("memory-ceiling", eval_memory_ceiling, ("probes",)),
        ("latency-bound", eval_latency_bound, ("probes",)),
        ("state-freshness", eval_state_freshness, ("probes",)),
    ):
        reg.register(kind, fn, reads)
    return reg


# ------------------------------------------------------ formula route


def _formula_violations(ctx: EvalContext) -> list:
    ob = ctx.obligation
    names = solver.prop_vars(ob.formula)
    try:
        instances = predicates.formula_instances(ctx, names)
    except predicates.MixedScopeError as err:
        return [ctx.violation(ob.id, str(err))]
    out = []
    for subject, env in instances:
        ctx.tally()
        try:
            holds = solver.eval_ground(ob.formula, env, {})
        except solver.UnboundVariable as err:
            out.append(ctx.violation(subject, f"formula uses unknown predicate: {err}"))
            continue
        if not holds:
            out.append(ctx.violation(
                subject, f"formula falsified: {solver.format_formula(ob.formula)}",
            ))
    return out


def _merge_routes(structural: list, declarative: list) -> tuple:
    """One violation per subject; the structural message wins."""
    merged = list(structural)
    seen = {v.subject for v in structural}
    for v in declarative:
        if v.subject not in seen:
            merged.append(v)
            seen.add(v.subject)
    return tuple(merged)


# ------------------------------------------------------ entry points


def evaluate(artifact: Artifact, obligations=None, *, registry: EvaluatorRegistry = None,
             baseline: Artifact | None = None, change_set: ChangeSet | None = None,
             history=None, probes: RuntimeProbes | None = None,
             witnesses: frozenset = DEFAULT_WITNESSES, now=None) -> Verdict:
    return evaluate_kinds(
        artifact, obligations, None, registry=registry, baseline=baseline,
        change_set=change_set, history=history, probes=probes,
        witnesses=witnesses, now=now,
    )


def evaluate_kinds(artifact: Artifact, obligations, touched, *,
                   registry: EvaluatorRegistry = None, baseline: Artifact | None = None,
                   change_set: ChangeSet | None = None, history=None,
                   probes: RuntimeProbes | None = None,
                   witnesses: frozenset = DEFAULT_WITNESSES, now=None) -> Verdict:
    """Evaluate the obligations a change to the `touched` sections can
    affect: those whose declared reads meet them or include probes.
    None, or touching the obligations themselves, evaluates all."""
    if obligations is None:
        obligations = artifact.obligations
    if registry is None:
        registry = builtin_registry()
    live = None  # changing the obligations in effect evaluates them all
    if touched is not None and {"proof-obligations", "guidebooks"}.isdisjoint(touched):
        live = {*touched, "probes"}
    results = []
    for ob in obligations:
        if live is not None and live.isdisjoint(registry.reads(ob)):
            continue
        ctx = EvalContext(
            artifact=artifact, obligation=ob, baseline=baseline,
            change_set=change_set, history=history, probes=probes,
            witnesses=witnesses, now=now,
        )
        structural = registry.dispatch(ctx)
        if ob.formula is not None:
            violations = _merge_routes(structural, _formula_violations(ctx))
        else:
            violations = tuple(structural)
        results.append((ob, violations))
    return Verdict(tuple(results))


def immutability_guard(current, candidate) -> list:
    """Immutable obligations must survive a mutation with the same
    kind and params; description edits are allowed."""
    def payload(ob):
        params = sexpr.print_canonical(ob.params) if ob.params is not None else ""
        return (ob.kind, params)

    candidate_by_id = {ob.id: ob for ob in candidate}
    out = []
    for ob in current:
        if not ob.immutable:
            continue
        after = candidate_by_id.get(ob.id)
        if after is None:
            out.append(Violation(
                ob.id, "immutable-obligations", ob.id,
                "immutable obligation removed",
            ))
        elif payload(after) != payload(ob) or not after.immutable:
            out.append(Violation(
                ob.id, "immutable-obligations", ob.id,
                "immutable obligation weakened (kind, params, or flag changed)",
            ))
    return out


# ------------------------------------------------------ rendering


def render_verdict(verdict: Verdict, header: str | None = None) -> str:
    lines = []
    if header:
        lines.append(header)
    rows = verdict.results
    id_w = max((len(ob.id) for ob, _ in rows), default=0)
    kind_w = max((len(ob.kind) for ob, _ in rows), default=0)
    current_origin = None
    for ob, violations in rows:
        if ob.origin != current_origin:
            current_origin = ob.origin
            if ob.origin is not None:
                base = ob.origin.rsplit("/", 1)[-1]
                lines.append(f"  -- inherited from {base} --")
        status = "FAIL" if violations else "PASS"
        lines.append(f"  {ob.id:<{id_w}}  {ob.kind:<{kind_w}}  {status}")
        for v in violations:
            lines.append(f"    {v.subject}: {v.message}")
        if violations and ob.formula is not None:
            lines.append(f"    z3: {solver.format_formula(ob.formula)} -> UNSAT")
    core = verdict.core
    if verdict.passed:
        lines.append("ACCEPTED: all obligations hold")
    else:
        n = len(verdict.violations)
        noun = "violation" if n == 1 else "violations"
        lines.append(f"REJECTED: {n} {noun} ({', '.join(core)})")
    return "\n".join(lines)


def synthetic_obligation(ob_id: str, kind: str) -> ProofObligation:
    """Carrier for gate-level checks (ratchets, immutability,
    supervision) so they can ride in a Verdict."""
    return ProofObligation(id=ob_id, kind=kind, description="", immutable=False)


__all__ = [
    "DEFAULT_WITNESSES", "EvalContext", "EvaluatorRegistry",
    "GateSpec", "RuntimeProbes", "UnregisteredKind", "Verdict",
    "Violation", "builtin_registry", "evaluate", "evaluate_kinds",
    "immutability_guard", "parse_gates", "render_verdict", "synthetic_obligation",
]
