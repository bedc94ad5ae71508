"""Built-in demo corpus: a small worked example plus generated
sandboxes used by the simulator, the lesion runner, and the test
suite. The demo artifact is an interception service whose single
feature is claimed but not yet delivered."""

from __future__ import annotations

import os
from dataclasses import replace

from . import model
from .model import (
    Artifact,
    Claim,
    Component,
    Connector,
    DesignElement,
    Feature,
    ProofObligation,
    Requirement,
    Scope,
    Trace,
)
from .sexpr import parse

DEMO_ARTIFACT = """\
(nidus-system "Interceptor"
  (requirements
    (req UR-01 (kind sovereignty) (source RAD)
      (shall "All classification executes locally")
      (constraint (never (payload-egress data))))
    (req FR-01 (kind functional) (source DDD)
      (shall "Verdict is one of ALLOW BLOCK WARN")))
  (architecture
    (component Interceptor
      (responsibility "Intercept and route traffic"))
    (component Brain
      (responsibility "Local classification"))
    (connector Interceptor Brain
      (flow CLASSIFY)
      (protocol synchronous)))
  (design
    (value-object Verdict (values ALLOW BLOCK WARN)))
  (workflows
    (workflow classify-flow
      (states idle classifying decided)
      (initial idle)
      (transition idle classifying
        (guard (> priority 0)))
      (transition classifying decided
        (guard (< elapsed 100)))))
  (features
    (feature FEAT-01
      (name "Local classification engine")
      (status claimed)
      (scope (requirements UR-01 FR-01)
        (code-paths "src/brain.py"))))
  (traceability
    (trace TR-01 UR-01 Brain Verdict)
    (trace TR-02 FR-01 Brain Verdict))
  (proof-obligations
    (proof PO-TRACE-01
      (kind traceability-complete)
      (description "Every requirement has a trace"))
    (proof PO-CONN-01
      (kind connector-integrity)
      (description "Connectors reference components"))
    (proof PO-DAG-01
      (kind dag-enforcement)
      (description "No dependency cycles"))
    (proof PO-WF-01
      (kind workflow-satisfiability)
      (description "Workflow guards are satisfiable")))
  (coordination
    (claim (agent opus-a1b2) (feature FEAT-01)
      (lease-expires "2026-03-20T14:00:00Z")))
  (guidebooks
    (imports "../epoch.guidebook.epoch")))
"""

DEMO_GUIDEBOOK = """\
;; Organization-wide constraints imported by project artifacts.

(guidebook-constraint GC-SCOPE-COMPLETENESS
  (z3_formula (implies feature_delivered
               (and has_code_paths has_test_paths
                    has_requirements)))
  (po-kind feature-code-test-symmetry)
  (description "Delivered features must have
    code-paths, test-paths, and requirements"))

(guidebook-constraint GC-MODULE-DAG
  (z3_formula (and (not parse_imports_query)
                   (not mutate_imports_query)
                   (not verify_imports_query)))
  (po-kind call-graph-dag)
  (description "Module DAG: no back-edges"))

(guidebook-constraint GC-EVIDENCE-PROVENANCE
  (z3_formula (implies evidence_submitted
               (and witness_registered hash_present)))
  (po-kind evidence-provenance)
  (description "Evidence requires registered
    witness and server-computed hash"))
"""

DEMO_FRICTION = """\
(agent-friction-ledger
  (events
    (friction-event FX-01
      (kind agent_rejection)
      (agent gemini-8536)
      (timestamp "2026-03-09T21:42:03Z"))))
"""

DEMO_ARTIFACT_NAME = "interceptor.epoch"
DEMO_GUIDEBOOK_NAME = "epoch.guidebook.epoch"

# A moment at which the demo claim lease is still current.
DEMO_NOW = "2026-03-10T12:00:00Z"


def write_demo_tree(root: str) -> str:
    """Write the demo artifact under root/project/ with its guidebook
    one directory up, exactly as the import path expects. Returns the
    artifact path."""
    project = os.path.join(root, "project")
    os.makedirs(project, exist_ok=True)
    artifact_path = os.path.join(project, DEMO_ARTIFACT_NAME)
    with open(artifact_path, "w", encoding="utf-8") as fh:
        fh.write(DEMO_ARTIFACT)
    with open(os.path.join(root, DEMO_GUIDEBOOK_NAME), "w", encoding="utf-8") as fh:
        fh.write(DEMO_GUIDEBOOK)
    return artifact_path


def demo_artifact() -> Artifact:
    return model.decode_text(DEMO_ARTIFACT)


def _immutable(pid: str, kind: str, description: str, params=None) -> ProofObligation:
    return ProofObligation(pid, kind, description, immutable=True, params=params)


def lesion_artifact(size: int = 5) -> Artifact:
    """Star-topology sandbox where every element is load-bearing:
    each requirement is traced through exactly one trace to its own
    leaf component and design element, every leaf has exactly one
    connector, and all obligations are immutable."""
    requirements = []
    components = [Component("Hub", "Routing core")]
    connectors = []
    design = []
    traces = []
    for i in range(1, size + 1):
        requirements.append(Requirement(
            id=f"R-{i:02d}", kind="functional", source="RAD",
            shall=f"Leaf {i} behavior is specified",
        ))
        components.append(Component(f"Leaf-{i}", f"Handles flow {i}"))
        connectors.append(Connector("Hub", f"Leaf-{i}", flow=f"FLOW-{i}", protocol="synchronous"))
        design.append(DesignElement("value-object", f"Shape-{i}", (parse(f"(fields f{i})"),)))
        traces.append(Trace(f"T-{i:02d}", f"R-{i:02d}", f"Leaf-{i}", f"Shape-{i}"))
    feature = Feature(
        id="F-CORE", name="Core delivery", status="claimed",
        scope=Scope(
            requirements=tuple(r.id for r in requirements),
            code_paths=("src/core.py",),
            test_paths=("tests/test_core.py",),
        ),
    )
    obligations = [
        _immutable("PO-TRACE", "traceability-complete", "Every requirement has a complete trace"),
        _immutable("PO-CONN", "connector-integrity", "Connectors reference existing components"),
        _immutable("PO-CONNEX", "connector-existence", "Traced components stay connected"),
        _immutable("PO-DAG", "dag-enforcement", "Component graph is acyclic"),
        _immutable("PO-SYM", "feature-code-test-symmetry", "Delivered scope is symmetric"),
    ]
    claim = Claim(agent="agent-main", feature="F-CORE", lease_expires="2030-01-01T00:00:00Z")
    return Artifact(
        name="LesionSandbox",
        requirements=tuple(requirements),
        components=tuple(components),
        connectors=tuple(connectors),
        design_elements=tuple(design),
        features=(feature,),
        traces=tuple(traces),
        obligations=tuple(obligations),
        claims=(claim,),
    )


def simulation_artifact(feature_count: int = 6) -> Artifact:
    """Sandbox for agent-policy scenarios: several open features with
    full scopes, plus the coordination obligations the policies are
    meant to trip over."""
    requirements = []
    traces = []
    features = []
    for i in range(1, feature_count + 1):
        rid = f"SR-{i:02d}"
        requirements.append(Requirement(id=rid, kind="functional", source="RAD",
                                        shall=f"Capability {i} is provided"))
        traces.append(Trace(f"ST-{i:02d}", rid, "Engine", "Record"))
        features.append(Feature(
            id=f"SF-{i:02d}", name=f"Capability {i}", status="open",
            scope=Scope(
                requirements=(rid,),
                code_paths=(f"src/cap_{i}.py",),
                test_paths=(f"tests/test_cap_{i}.py",),
            ),
        ))
    obligations = (
        _immutable("PO-PROV", "evidence-provenance",
                   "Evidence needs a registered witness and server hash"),
        _immutable("PO-CLAIM", "claim-before-dispatch",
                   "Feature mutations need an unexpired claim"),
        _immutable("PO-SYM", "feature-code-test-symmetry",
                   "Delivered scope must be symmetric"),
        _immutable("PO-TRACE", "traceability-complete",
                   "Every requirement has a complete trace"),
    )
    return Artifact(
        name="ScenarioSandbox",
        requirements=tuple(requirements),
        components=(Component("Engine", "Does the work"), Component("Store", "Keeps results")),
        connectors=(Connector("Engine", "Store", flow="PERSIST", protocol="internal"),),
        design_elements=(DesignElement("value-object", "Record"),),
        features=tuple(features),
        traces=tuple(traces),
        obligations=obligations,
    )


GATE_PARAMS = parse("""
(gates
  (gate FI-0 (description "Lint") (witness "lint"))
  (gate FI-0b (description "Unit sim") (witness "unit-sim"))
  (gate FI-0c (description "Formal verification") (witness "formal-verify"))
  (gate FI-1 (description "Pre-synth") (witness "verilator-sim")
    (depends-on FI-0 FI-0b FI-0c)))
""")

GATE_WITNESSES = ("lint", "unit-sim", "formal-verify", "verilator-sim")


def gate_artifact() -> Artifact:
    """Sandbox with an ordered evidence-gate ladder on delivery."""
    base = simulation_artifact(feature_count=1)
    gate_po = _immutable("PO-GATES", "gate-sequence",
                         "Deliveries walk the gate ladder in order", params=GATE_PARAMS)
    claim = Claim(agent="agent-main", feature="SF-01", lease_expires="2030-01-01T00:00:00Z")
    return replace(base, name="GateSandbox", obligations=base.obligations + (gate_po,),
                   claims=(claim,))
