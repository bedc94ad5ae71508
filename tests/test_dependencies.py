"""Declared reads against observed ones.

Each evaluator declares what it reads, and precommit skips the
obligations whose reads a change does not meet. Two oracles keep the
declarations honest: a differential one, where precommit, what-if and
plain evaluation must agree over a stream of changes whose every head
passes in full, and a recording one, where every evaluator and formula
family runs on views of the stream's states that note each section and
call input read, and the notes must stay inside the declarations."""

import dataclasses
import random

from epochd import kernel as kn
from epochd import obligations, predicates, sandbox, sexpr, simulate, solver
from epochd.model import (
    SECTION_ORDER,
    AddOp,
    Artifact,
    ChangeSet,
    Component,
    Connector,
    DesignElement,
    ModelError,
    ProofObligation,
    RemoveOp,
    Requirement,
    Trace,
    Transition,
    UpdateOp,
    Workflow,
    apply_change_set,
    encode_record,
    encode_requirement,
    encode_trace,
    encode_workflow,
)
from test_acceptance import _fuzz_ops


# Binds the dispatch predicates under a kind that reads neither
# features nor change sets, so only the formula's reads can reach it.
DISPATCH_CONSTRAINT = """
(guidebook-constraint GC-CLAIMED-DISPATCH
  (z3_formula (implies work_dispatched feature_claimed_by_agent))
  (po-kind dag-enforcement)
  (description "Dispatched work is claimed by its actor"))
"""


def demo_without_import() -> Artifact:
    return dataclasses.replace(sandbox.demo_artifact(), guidebook_imports=())


def demo_with_guidebook() -> Artifact:
    return sandbox.demo_artifact()


READER = {"epoch.guidebook.epoch": sandbox.DEMO_GUIDEBOOK + DISPATCH_CONSTRAINT}.__getitem__


def formula(text: str):
    return solver.formula_from_sexpr(sexpr.parse(text))


# ------------------------------------------------------------ stream


def _structural_op(rng, a: Artifact, actor: str):
    """An add, remove or rename in architecture, design, workflows or
    traceability; None when there is nothing to pick."""
    n = rng.randrange(10_000)
    action = rng.choice(["add", "remove", "rename"])
    section = rng.choice(["architecture", "connectors", "design", "workflows", "traceability"])
    components = [c.name for c in a.components]
    targets = [d.name for d in a.design_elements] + [w.name for w in a.workflows]
    if section == "connectors":
        if action == "add":
            if len(components) < 2:
                return None
            op = AddOp("architecture", encode_record(Connector(*rng.sample(components, 2))))
        elif not a.connectors:
            return None
        else:
            c = rng.choice(a.connectors)
            op = RemoveOp("architecture", c.key) if action == "remove" else UpdateOp(
                "architecture", c.key,
                encode_record(dataclasses.replace(c, target=rng.choice(components))))
        return ChangeSet((op,), actor, f"{action} connector")
    pools = {
        "architecture": (a.components, encode_record,
                         lambda name: Component(name, "fuzz")),
        "design": (a.design_elements, encode_record,
                   lambda name: DesignElement("value-object", name)),
        "workflows": (a.workflows, encode_workflow,
                      lambda name: Workflow(name, ("a", "b"), "a", (Transition(
                          "a", "b", formula(rng.choice(["(> x 0)", "(and (> x 0) (< x 0))"]))),))),
        "traceability": (a.traces, encode_trace, None),
    }
    elements, encode, fresh = pools[section]
    if section == "traceability":
        reqs = [r.id for r in a.requirements]
        trace = Trace(f"TX-{n:04d}", rng.choice(reqs), rng.choice(components + ["Ghost"]),
                      rng.choice(targets + ["Ghost"]))
        if action == "add":
            ops = [AddOp("traceability", encode_trace(trace))]
            if rng.random() < 0.5:  # a new requirement that only this trace covers
                req = Requirement(f"RX-{n:04d}", "functional", "fuzz", f"fuzz {n}")
                ops = [AddOp("requirements", encode_requirement(req)),
                       AddOp("traceability", encode_trace(dataclasses.replace(
                           trace, requirement=req.id)))]
            return ChangeSet(tuple(ops), actor, "add trace")
        if not elements:
            return None
        t = rng.choice(elements)
        if action == "remove":
            return ChangeSet((RemoveOp("traceability", t.id),), actor, "drop trace")
        moved = dataclasses.replace(t, component=trace.component) if rng.random() < 0.5 \
            else dataclasses.replace(t, design_element=trace.design_element)
        return ChangeSet((UpdateOp("traceability", t.id, encode_trace(moved)),), actor,
                         "retarget trace")
    name = f"{section[0].upper()}X-{n:04d}"
    if action == "add":
        return ChangeSet((AddOp(section, encode(fresh(name))),), actor, f"add {name}")
    if not elements:
        return None
    old = rng.choice(elements)
    if action == "remove":
        return ChangeSet((RemoveOp(section, old.name),), actor, f"drop {old.name}")
    return ChangeSet((UpdateOp(section, old.name, encode(dataclasses.replace(old, name=name))),),
                     actor, f"rename {old.name}")


def widened_stream(artifact: Artifact, seed: int, steps: int):
    """Yield (kernel, change set) for `steps` change sets, half from the
    criterion-4 fuzzer and half structural, then commit each one."""
    rng = random.Random(seed)
    clock = simulate.SimClock()
    k = kn.Kernel(artifact, clock=clock, guidebook_reader=READER, base_dir="project")
    actors = [f"fuzzer-{i}" for i in range(4)]
    done = 0
    while done < steps:
        clock.tick()
        actor = rng.choice(actors)
        cs = _fuzz_ops(rng, k, actors) if rng.random() < 0.5 else \
            _structural_op(rng, k.artifact, actor)
        if cs is None:
            continue
        done += 1
        yield k, cs
        k.commit_change_set(cs)


STREAMS = [(base, seed) for base in (demo_without_import, sandbox.lesion_artifact,
                                     demo_with_guidebook) for seed in (1, 2)]


# ----------------------------------------------------- differential


def pairs(violations) -> set:
    return {(v.obligation_id, v.subject) for v in violations}


def disagreement(k: kn.Kernel, cs: ChangeSet):
    """Why precommit, what-if and plain evaluation disagree on cs, or
    None."""
    quick, full = k.precommit_check(cs), k.what_if(cs)
    if pairs(quick.violations) != pairs(full.violations):
        return f"precommit {sorted(pairs(quick.violations))} vs what-if " \
               f"{sorted(pairs(full.violations))}"
    try:
        candidate = apply_change_set(k.artifact, cs)
    except ModelError:
        return None
    effective = k.effective(candidate)
    plain = obligations.evaluate(candidate, effective, baseline=k.artifact, change_set=cs,
                                 history=k.history, witnesses=k.witnesses, now=k.clock())
    ids = {ob.id for ob in effective}
    gated = {(v.obligation_id, v.subject) for ob, vs in full.results if ob.id in ids for v in vs}
    if pairs(plain.violations) != gated:
        return f"plain {sorted(pairs(plain.violations))} vs what-if {sorted(gated)}"
    return None


def test_precommit_what_if_and_plain_evaluation_agree_on_widened_stream():
    found, heads = [], 0
    for base, seed in STREAMS:
        for k, cs in widened_stream(base(), seed, 150):
            verdict = obligations.evaluate(k.artifact, k.effective(), history=k.history,
                                           witnesses=k.witnesses, now=k.clock())
            assert verdict.passed, obligations.render_verdict(verdict)
            heads += 1
            why = disagreement(k, cs)
            if why is not None:
                found.append(f"{base.__name__}/{seed} {[str(op) for op in cs.ops]}: {why}")
    assert heads == 900
    assert not found, f"{len(found)} disagreements, first: " + "\n".join(found[:3])


def test_precommit_sees_a_removed_workflow_that_a_trace_names():
    a = demo_without_import()
    tr = dataclasses.replace(a.traces[1], design_element="classify-flow")
    k = kn.Kernel(dataclasses.replace(a, traces=(a.traces[0], tr)))
    cs = ChangeSet((RemoveOp("workflows", "classify-flow"),), "pm", "drop the workflow")
    assert k.precommit_check(cs).core == k.what_if(cs).core == ("PO-TRACE-01",)
    assert disagreement(k, cs) is None


def test_precommit_sees_a_removed_component_that_only_a_trace_names():
    a = demo_without_import()
    tr = dataclasses.replace(a.traces[1], component="Cache")
    k = kn.Kernel(dataclasses.replace(
        a, components=a.components + (Component("Cache", "unconnected"),),
        traces=(a.traces[0], tr)))
    cs = ChangeSet((RemoveOp("architecture", "Cache"),), "pm", "drop the cache")
    assert k.precommit_check(cs).core == k.what_if(cs).core == ("PO-TRACE-01",)
    assert disagreement(k, cs) is None


# --------------------------------------------------------- recording

# Artifact field -> the section it is read from. The name and unknown
# sections are left out: no change set can touch them.
FIELD_SECTIONS = {
    "requirements": "requirements", "components": "architecture",
    "connectors": "architecture", "design_elements": "design", "workflows": "workflows",
    "features": "features", "traces": "traceability", "obligations": "proof-obligations",
    "claims": "coordination", "evidence": "coordination", "lessons": "lessons",
    "guidebook_imports": "guidebooks",
}
CONTEXT_INPUTS = {"change_set": "change-set", "now": "clock", "history": "history",
                  "probes": "probes"}


class RecordingArtifact(Artifact):
    """An artifact that notes in its `seen` set each section read from it."""

    def __getattribute__(self, name):
        if name in FIELD_SECTIONS:
            object.__getattribute__(self, "seen").add(FIELD_SECTIONS[name])
        return object.__getattribute__(self, name)


class RecordingContext(obligations.EvalContext):
    """An evaluation context that notes in its `seen` set each call
    input read from it."""

    def __getattribute__(self, name):
        if name in CONTEXT_INPUTS:
            object.__getattribute__(self, "seen").add(CONTEXT_INPUTS[name])
        return object.__getattribute__(self, name)


def recording(a: Artifact, seen: set) -> RecordingArtifact:
    view = RecordingArtifact(**{f.name: getattr(a, f.name) for f in dataclasses.fields(Artifact)})
    object.__setattr__(view, "seen", seen)  # the view is frozen like the artifact
    return view


FAMILY_FORMULAS = {
    "feature": "(implies feature_delivered (and has_code_paths has_test_paths))",
    "evidence": "(implies evidence_submitted (and witness_registered hash_present))",
    "dispatch": "(implies work_dispatched feature_claimed_by_agent)",
    "global": "(not parse_imports_query)",
}

PARAMS = {
    "call-graph-dag": "(modules (a b) (b c))",
    "gate-sequence": '(gates (gate G1 (witness "ci-pipeline"))'
                     ' (gate G2 (witness "kernel-test-gate") (depends-on G1)))',
}


def undeclared_reads(registry, k: kn.Kernel, cs: ChangeSet) -> set:
    """(route, read) pairs that running each evaluator and each formula
    family on recording views of cs's candidate reads undeclared."""
    try:
        candidate = apply_change_set(k.artifact, cs)
    except ModelError:
        return set()
    out = set()

    def run(ob, route, declared, label):
        seen = set()
        ctx = RecordingContext(
            artifact=recording(candidate, seen), obligation=ob,
            baseline=recording(k.artifact, seen), change_set=cs, history=k.history,
            probes=obligations.RuntimeProbes(), witnesses=k.witnesses, now=k.clock())
        ctx.seen = seen
        route(ctx)
        out.update((label, read) for read in seen - declared)

    for kind in sorted(registry.registered_kinds()):
        params = sexpr.parse(PARAMS[kind]) if kind in PARAMS else None
        ob = ProofObligation(f"PO-{kind}", kind, params=params)
        run(ob, registry.dispatch, registry.reads(ob), kind)
    for family, text in FAMILY_FORMULAS.items():
        phi = formula(text)
        ob = ProofObligation(family, "call-graph-dag", formula=phi)
        run(ob, obligations._formula_violations,
            predicates.formula_reads(solver.prop_vars(phi)), family)
    return out


def recorded_over_stream(registry) -> set:
    found = set()
    for base, seed in STREAMS:
        for k, cs in widened_stream(base(), seed, 60):
            found |= undeclared_reads(registry, k, cs)
    return found


def test_recorded_reads_stay_inside_declared_reads():
    assert set(FIELD_SECTIONS.values()) == set(SECTION_ORDER)
    assert set(FIELD_SECTIONS) | {"name", "extra_sections"} == \
        {f.name for f in dataclasses.fields(Artifact)}
    assert recorded_over_stream(obligations.builtin_registry()) == set()


def test_recording_catches_an_undeclared_read():
    declared = obligations.builtin_registry().reads(
        ProofObligation("PO", "traceability-complete"))
    for dropped in ("workflows", "architecture"):
        registry = obligations.builtin_registry()
        registry.register("traceability-complete", obligations.eval_traceability_complete,
                          declared - {dropped})
        assert recorded_over_stream(registry) == {("traceability-complete", dropped)}

