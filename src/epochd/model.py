"""Typed view of a .epoch artifact and pure change application.

An artifact file is one `(nidus-system "Name" ...)` form whose child
sections hold requirements, architecture, design elements, workflows,
features, traces, proof obligations, coordination records, lessons and
guidebook imports. Sections this module does not recognize are carried
through decode/encode untouched so older daemons can read newer files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime, timezone

from . import sexpr, solver
from .sexpr import Integer, SList, String, Symbol

SECTION_ORDER = (
    "requirements",
    "architecture",
    "design",
    "workflows",
    "features",
    "traceability",
    "proof-obligations",
    "coordination",
    "lessons",
    "guidebooks",
)

FEATURE_STATUSES = ("open", "claimed", "delivered")

HEAD_SYMBOL = "nidus-system"

ARTIFACT_SUFFIX = ".epoch"
GUIDEBOOK_SUFFIX = ".guidebook.epoch"
FRICTION_SUFFIX = ".friction.epoch"


class ModelError(Exception):
    pass


class SchemaError(ModelError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class DuplicateId(ModelError):
    def __init__(self, section: str, element_id: str):
        super().__init__(f"duplicate id {element_id!r} in section {section}")
        self.section = section
        self.element_id = element_id


class UnknownSection(ModelError):
    def __init__(self, name: str):
        super().__init__(f"unknown section {name!r}")
        self.name = name


class UnknownId(ModelError):
    def __init__(self, section: str, element_id: str):
        super().__init__(f"no element {element_id!r} in section {section}")
        self.section = section
        self.element_id = element_id


# ------------------------------------------------------------- time


def parse_rfc3339(text: str) -> datetime:
    try:
        raw = text[:-1] + "+00:00" if text.endswith("Z") else text
        stamp = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise SchemaError("timestamp", f"bad RFC 3339 timestamp {text!r}") from exc
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp


def format_rfc3339(stamp: datetime) -> str:
    return stamp.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def utcnow() -> datetime:
    return datetime.now(timezone.utc)


# ------------------------------------------------------------ types


@dataclass(frozen=True)
class Requirement:
    id: str
    kind: str = ""
    source: str = ""
    shall: str = ""
    constraint: object | None = None  # opaque subtree


@dataclass(frozen=True)
class Component:
    name: str
    responsibility: str = ""


@dataclass(frozen=True)
class Connector:
    source: str
    target: str
    flow: str = ""
    protocol: str = ""

    @property
    def key(self) -> str:
        return f"{self.source}->{self.target}"


@dataclass(frozen=True)
class DesignElement:
    kind: str
    name: str
    attributes: tuple = ()


@dataclass(frozen=True)
class Transition:
    source: str
    target: str
    guard: object | None = None  # solver formula


@dataclass(frozen=True)
class Workflow:
    name: str
    states: tuple = ()
    initial: str = ""
    transitions: tuple = ()


@dataclass(frozen=True)
class Scope:
    requirements: tuple = ()
    code_paths: tuple = ()
    test_paths: tuple = ()

    @property
    def empty(self) -> bool:
        return not (self.requirements or self.code_paths or self.test_paths)


@dataclass(frozen=True)
class Feature:
    id: str
    name: str = ""
    status: str = "open"
    scope: Scope = Scope()

    def __post_init__(self):
        if self.status not in FEATURE_STATUSES:
            raise SchemaError(f"feature {self.id}", f"bad status {self.status!r}")


@dataclass(frozen=True)
class Trace:
    id: str
    requirement: str
    component: str
    design_element: str


@dataclass(frozen=True)
class ProofObligation:
    id: str
    kind: str
    description: str = ""
    immutable: bool = False
    params: object | None = None  # opaque subtree
    formula: object | None = None  # attached by guidebook inheritance
    origin: str | None = None      # guidebook path, None for local


@dataclass(frozen=True)
class Claim:
    agent: str
    feature: str
    lease_expires: str

    @property
    def key(self) -> str:
        return self.feature

    def expired(self, now: datetime) -> bool:
        return parse_rfc3339(self.lease_expires) <= now


@dataclass(frozen=True)
class EvidenceRecord:
    feature: str
    witness: str
    status: str = "passed"
    hash: str = ""
    server_computed: bool = False
    timestamp: str = ""


@dataclass(frozen=True)
class Lesson:
    id: str
    failure: str
    root_cause: str
    fix: str
    obligation: str
    affected_scope: tuple = ()
    cost: str = ""
    commits: tuple = ()
    severity: int = 1


@dataclass(frozen=True)
class Artifact:
    name: str
    requirements: tuple = ()
    components: tuple = ()
    connectors: tuple = ()
    design_elements: tuple = ()
    workflows: tuple = ()
    features: tuple = ()
    traces: tuple = ()
    obligations: tuple = ()
    claims: tuple = ()
    evidence: tuple = ()
    lessons: tuple = ()
    guidebook_imports: tuple = ()
    extra_sections: tuple = ()  # (name, SList) pairs kept opaque

    def feature(self, feature_id: str) -> Feature | None:
        for f in self.features:
            if f.id == feature_id:
                return f
        return None

    def requirement(self, req_id: str) -> Requirement | None:
        for r in self.requirements:
            if r.id == req_id:
                return r
        return None

    def claim_on(self, feature_id: str) -> Claim | None:
        for c in self.claims:
            if c.feature == feature_id:
                return c
        return None

    def component_names(self) -> set:
        return {c.name for c in self.components}

    def design_names(self) -> set:
        return {d.name for d in self.design_elements}

    def workflow_names(self) -> set:
        return {w.name for w in self.workflows}

    def delivered_ids(self) -> frozenset:
        return frozenset(f.id for f in self.features if f.status == "delivered")


# ----------------------------------------------------------- decode


def _expect_symbol(node, path: str) -> str:
    if not isinstance(node, Symbol):
        raise SchemaError(path, f"expected symbol, got {sexpr.print_canonical(node)}")
    return node.text


def _expect_string(node, path: str) -> str:
    if not isinstance(node, String):
        raise SchemaError(path, f"expected string, got {sexpr.print_canonical(node)}")
    return node.text


def _expect_list(node, path: str) -> SList:
    if not isinstance(node, SList):
        raise SchemaError(path, f"expected list, got {sexpr.print_canonical(node)}")
    return node


def _text(node, path: str) -> str:
    """Accept either a string or a symbol where prose may appear."""
    if isinstance(node, String):
        return node.text
    if isinstance(node, Symbol):
        return node.text
    raise SchemaError(path, f"expected text, got {sexpr.print_canonical(node)}")


def _fields(form: SList, start: int, path: str) -> dict:
    """Read `(key value...)` subforms into a dict of item tuples."""
    out = {}
    for item in form.items[start:]:
        pair = _expect_list(item, path)
        if len(pair) < 1:
            raise SchemaError(path, "empty field form")
        key = _expect_symbol(pair[0], path)
        if key in out:
            raise SchemaError(path, f"repeated field {key}")
        out[key] = pair.items[1:]
    return out


def _flag(values, path: str) -> bool:
    if len(values) != 1:
        raise SchemaError(path, "flag takes one value")
    text = _expect_symbol(values[0], path)
    if text in ("t", "true"):
        return True
    if text in ("nil", "false"):
        return False
    raise SchemaError(path, f"bad flag value {text}")


def decode_requirement(form: SList) -> Requirement:
    path = "requirements"
    if len(form) < 2 or _expect_symbol(form[0], path) != "req":
        raise SchemaError(path, "expected (req ID ...)")
    rid = _expect_symbol(form[1], path)
    fields = _fields(form, 2, f"req {rid}")
    known = {"kind", "source", "shall", "constraint"}
    unknown = set(fields) - known
    if unknown:
        raise SchemaError(f"req {rid}", f"unknown fields {sorted(unknown)}")
    return Requirement(
        id=rid,
        kind=_expect_symbol(fields["kind"][0], rid) if fields.get("kind") else "",
        source=_expect_symbol(fields["source"][0], rid) if fields.get("source") else "",
        shall=_expect_string(fields["shall"][0], rid) if fields.get("shall") else "",
        constraint=fields["constraint"][0] if fields.get("constraint") else None,
    )


def decode_architecture_element(form: SList):
    path = "architecture"
    head = _expect_symbol(form[0], path) if len(form) else ""
    if head == "component":
        name = _expect_symbol(form[1], path)
        fields = _fields(form, 2, f"component {name}")
        resp = _expect_string(fields["responsibility"][0], name) if fields.get("responsibility") else ""
        return Component(name, resp)
    if head == "connector":
        if len(form) < 3:
            raise SchemaError(path, "connector needs two endpoints")
        src = _expect_symbol(form[1], path)
        dst = _expect_symbol(form[2], path)
        fields = _fields(form, 3, f"connector {src}->{dst}")
        flow = _expect_symbol(fields["flow"][0], path) if fields.get("flow") else ""
        proto = _expect_symbol(fields["protocol"][0], path) if fields.get("protocol") else ""
        return Connector(src, dst, flow, proto)
    raise SchemaError(path, f"unexpected form {sexpr.print_canonical(form)}")


def decode_design_element(form: SList) -> DesignElement:
    path = "design"
    if len(form) < 2:
        raise SchemaError(path, "design element needs kind and name")
    kind = _expect_symbol(form[0], path)
    name = _expect_symbol(form[1], path)
    return DesignElement(kind, name, tuple(form.items[2:]))


def decode_workflow(form: SList) -> Workflow:
    path = "workflows"
    if len(form) < 2 or _expect_symbol(form[0], path) != "workflow":
        raise SchemaError(path, "expected (workflow NAME ...)")
    name = _expect_symbol(form[1], path)
    states: tuple = ()
    initial = ""
    transitions = []
    for item in form.items[2:]:
        sub = _expect_list(item, f"workflow {name}")
        head = _expect_symbol(sub[0], name)
        if head == "states":
            states = tuple(_expect_symbol(s, name) for s in sub.items[1:])
        elif head == "initial":
            initial = _expect_symbol(sub[1], name)
        elif head == "transition":
            if len(sub) < 3:
                raise SchemaError(name, "transition needs two states")
            src = _expect_symbol(sub[1], name)
            dst = _expect_symbol(sub[2], name)
            guard = None
            for extra in sub.items[3:]:
                pair = _expect_list(extra, name)
                if _expect_symbol(pair[0], name) == "guard":
                    try:
                        guard = solver.formula_from_sexpr(pair[1])
                    except solver.SolverError as exc:
                        raise SchemaError(f"workflow {name}", str(exc)) from exc
            transitions.append(Transition(src, dst, guard))
        else:
            raise SchemaError(f"workflow {name}", f"unknown form {head}")
    return Workflow(name, states, initial, tuple(transitions))


def decode_feature(form: SList) -> Feature:
    path = "features"
    if len(form) < 2 or _expect_symbol(form[0], path) != "feature":
        raise SchemaError(path, "expected (feature ID ...)")
    fid = _expect_symbol(form[1], path)
    fields = _fields(form, 2, f"feature {fid}")
    scope = Scope()
    if fields.get("scope"):
        reqs: tuple = ()
        code: tuple = ()
        test: tuple = ()
        for item in fields["scope"]:
            sub = _expect_list(item, fid)
            head = _expect_symbol(sub[0], fid)
            if head == "requirements":
                reqs = tuple(_expect_symbol(s, fid) for s in sub.items[1:])
            elif head == "code-paths":
                code = tuple(_expect_string(s, fid) for s in sub.items[1:])
            elif head == "test-paths":
                test = tuple(_expect_string(s, fid) for s in sub.items[1:])
            else:
                raise SchemaError(f"feature {fid}", f"unknown scope part {head}")
        scope = Scope(reqs, code, test)
    return Feature(
        id=fid,
        name=_expect_string(fields["name"][0], fid) if fields.get("name") else "",
        status=_expect_symbol(fields["status"][0], fid) if fields.get("status") else "open",
        scope=scope,
    )


def decode_trace(form: SList) -> Trace:
    path = "traceability"
    if len(form) != 5 or _expect_symbol(form[0], path) != "trace":
        raise SchemaError(path, "expected (trace ID REQ COMPONENT DESIGN)")
    return Trace(
        id=_expect_symbol(form[1], path),
        requirement=_expect_symbol(form[2], path),
        component=_expect_symbol(form[3], path),
        design_element=_expect_symbol(form[4], path),
    )


def decode_obligation(form: SList) -> ProofObligation:
    path = "proof-obligations"
    if len(form) < 2 or _expect_symbol(form[0], path) != "proof":
        raise SchemaError(path, "expected (proof ID ...)")
    pid = _expect_symbol(form[1], path)
    fields = _fields(form, 2, f"proof {pid}")
    if "kind" not in fields:
        raise SchemaError(f"proof {pid}", "missing kind")
    return ProofObligation(
        id=pid,
        kind=_expect_symbol(fields["kind"][0], pid),
        description=_expect_string(fields["description"][0], pid) if fields.get("description") else "",
        immutable=_flag(fields["immutable"], pid) if fields.get("immutable") else False,
        params=fields["params"][0] if fields.get("params") else None,
    )


def decode_claim(form: SList) -> Claim:
    path = "coordination"
    fields = _fields(form, 1, "claim")
    for need in ("agent", "feature", "lease-expires"):
        if need not in fields:
            raise SchemaError("claim", f"missing {need}")
    lease = _expect_string(fields["lease-expires"][0], path)
    parse_rfc3339(lease)
    return Claim(
        agent=_text(fields["agent"][0], path),
        feature=_expect_symbol(fields["feature"][0], path),
        lease_expires=lease,
    )


def decode_evidence(form: SList) -> EvidenceRecord:
    path = "coordination"
    fields = _fields(form, 1, "evidence")
    for need in ("feature", "witness"):
        if need not in fields:
            raise SchemaError("evidence", f"missing {need}")
    return EvidenceRecord(
        feature=_expect_symbol(fields["feature"][0], path),
        witness=_text(fields["witness"][0], path),
        status=_expect_symbol(fields["status"][0], path) if fields.get("status") else "passed",
        hash=_expect_string(fields["hash"][0], path) if fields.get("hash") else "",
        server_computed=_flag(fields["server-computed"], path) if fields.get("server-computed") else False,
        timestamp=_expect_string(fields["timestamp"][0], path) if fields.get("timestamp") else "",
    )


def decode_lesson(form: SList) -> Lesson:
    path = "lessons"
    if len(form) < 2 or _expect_symbol(form[0], path) != "lesson":
        raise SchemaError(path, "expected (lesson ID ...)")
    lid = _expect_symbol(form[1], path)
    fields = _fields(form, 2, f"lesson {lid}")

    def txt(key):
        return _expect_string(fields[key][0], lid) if fields.get(key) else ""

    severity = 1
    if fields.get("severity"):
        node = fields["severity"][0]
        if not isinstance(node, Integer):
            raise SchemaError(f"lesson {lid}", "severity must be an integer")
        severity = node.value
    return Lesson(
        id=lid,
        failure=txt("failure"),
        root_cause=txt("root-cause"),
        fix=txt("fix"),
        obligation=txt("obligation"),
        affected_scope=tuple(_expect_string(s, lid) for s in fields.get("affected-scope", ())),
        cost=txt("cost"),
        commits=tuple(_expect_string(s, lid) for s in fields.get("commits", ())),
        severity=severity,
    )


def _check_unique(section: str, keys) -> None:
    seen = set()
    for key in keys:
        if key is None:
            continue
        if key in seen:
            raise DuplicateId(section, key)
        seen.add(key)


def decode(tree) -> Artifact:
    """Build the typed view. The head symbol must be nidus-system and
    the second element the artifact name."""
    form = _expect_list(tree, "artifact")
    if len(form) < 2 or not isinstance(form[0], Symbol) or form[0].text != HEAD_SYMBOL:
        raise SchemaError("artifact", f"expected ({HEAD_SYMBOL} \"name\" ...)")
    name = _expect_string(form[1], "artifact")

    parts: dict = {key: [] for key in SECTION_ORDER}
    extra = []
    seen_sections = set()
    for section_form in form.items[2:]:
        section = _expect_list(section_form, "artifact")
        if len(section) < 1:
            raise SchemaError("artifact", "empty section form")
        sname = _expect_symbol(section[0], "artifact")
        if sname in seen_sections:
            raise SchemaError("artifact", f"repeated section {sname}")
        seen_sections.add(sname)
        if sname in parts:
            parts[sname] = list(section.items[1:])
        else:
            extra.append((sname, section))

    requirements = tuple(decode_requirement(_expect_list(x, "requirements")) for x in parts["requirements"])
    arch = [decode_architecture_element(_expect_list(x, "architecture")) for x in parts["architecture"]]
    components = tuple(e for e in arch if isinstance(e, Component))
    connectors = tuple(e for e in arch if isinstance(e, Connector))
    design = tuple(decode_design_element(_expect_list(x, "design")) for x in parts["design"])
    workflows = tuple(decode_workflow(_expect_list(x, "workflows")) for x in parts["workflows"])
    features = tuple(decode_feature(_expect_list(x, "features")) for x in parts["features"])
    traces = tuple(decode_trace(_expect_list(x, "traceability")) for x in parts["traceability"])
    obligations = tuple(decode_obligation(_expect_list(x, "proof-obligations")) for x in parts["proof-obligations"])

    claims = []
    evidence = []
    for x in parts["coordination"]:
        sub = _expect_list(x, "coordination")
        head = _expect_symbol(sub[0], "coordination")
        if head == "claim":
            claims.append(decode_claim(sub))
        elif head == "evidence":
            evidence.append(decode_evidence(sub))
        else:
            raise SchemaError("coordination", f"unknown form {head}")

    lessons = tuple(decode_lesson(_expect_list(x, "lessons")) for x in parts["lessons"])

    imports = []
    for x in parts["guidebooks"]:
        sub = _expect_list(x, "guidebooks")
        if _expect_symbol(sub[0], "guidebooks") != "imports":
            raise SchemaError("guidebooks", "expected (imports \"path\" ...)")
        imports.extend(_expect_string(p, "guidebooks") for p in sub.items[1:])

    _check_unique("requirements", (r.id for r in requirements))
    _check_unique("architecture", (c.name for c in components))
    _check_unique("architecture", (c.key for c in connectors))
    _check_unique("design", (d.name for d in design))
    _check_unique("workflows", (w.name for w in workflows))
    _check_unique("features", (f.id for f in features))
    _check_unique("traceability", (t.id for t in traces))
    _check_unique("proof-obligations", (o.id for o in obligations))
    _check_unique("coordination", (c.feature for c in claims))
    _check_unique("lessons", (l.id for l in lessons))
    _check_unique("guidebooks", imports)

    return Artifact(
        name=name,
        requirements=requirements,
        components=components,
        connectors=connectors,
        design_elements=design,
        workflows=workflows,
        features=features,
        traces=traces,
        obligations=obligations,
        claims=tuple(claims),
        evidence=tuple(evidence),
        lessons=tuple(lessons),
        guidebook_imports=tuple(imports),
        extra_sections=tuple(extra),
    )


def decode_text(text: str) -> Artifact:
    return decode(sexpr.parse(text))


# ----------------------------------------------------------- encode


def _field(key: str, *values) -> SList:
    return SList([Symbol(key)] + list(values))


def encode_requirement(r: Requirement) -> SList:
    items = [Symbol("req"), Symbol(r.id)]
    if r.kind:
        items.append(_field("kind", Symbol(r.kind)))
    if r.source:
        items.append(_field("source", Symbol(r.source)))
    if r.shall:
        items.append(_field("shall", String(r.shall)))
    if r.constraint is not None:
        items.append(_field("constraint", r.constraint))
    return SList(items)


def encode_component(c: Component) -> SList:
    items = [Symbol("component"), Symbol(c.name)]
    if c.responsibility:
        items.append(_field("responsibility", String(c.responsibility)))
    return SList(items)


def encode_connector(c: Connector) -> SList:
    items = [Symbol("connector"), Symbol(c.source), Symbol(c.target)]
    if c.flow:
        items.append(_field("flow", Symbol(c.flow)))
    if c.protocol:
        items.append(_field("protocol", Symbol(c.protocol)))
    return SList(items)


def encode_design_element(d: DesignElement) -> SList:
    return SList([Symbol(d.kind), Symbol(d.name)] + list(d.attributes))


def encode_workflow(w: Workflow) -> SList:
    items = [Symbol("workflow"), Symbol(w.name)]
    if w.states:
        items.append(SList([Symbol("states")] + [Symbol(s) for s in w.states]))
    if w.initial:
        items.append(_field("initial", Symbol(w.initial)))
    for t in w.transitions:
        sub = [Symbol("transition"), Symbol(t.source), Symbol(t.target)]
        if t.guard is not None:
            sub.append(_field("guard", solver.formula_to_sexpr(t.guard)))
        items.append(SList(sub))
    return SList(items)


def encode_feature(f: Feature) -> SList:
    items = [Symbol("feature"), Symbol(f.id)]
    if f.name:
        items.append(_field("name", String(f.name)))
    items.append(_field("status", Symbol(f.status)))
    scope_items = []
    if f.scope.requirements:
        scope_items.append(SList([Symbol("requirements")] + [Symbol(r) for r in f.scope.requirements]))
    if f.scope.code_paths:
        scope_items.append(SList([Symbol("code-paths")] + [String(p) for p in f.scope.code_paths]))
    if f.scope.test_paths:
        scope_items.append(SList([Symbol("test-paths")] + [String(p) for p in f.scope.test_paths]))
    if scope_items:
        items.append(SList([Symbol("scope")] + scope_items))
    return SList(items)


def encode_trace(t: Trace) -> SList:
    return SList([
        Symbol("trace"), Symbol(t.id), Symbol(t.requirement),
        Symbol(t.component), Symbol(t.design_element),
    ])


def encode_obligation(o: ProofObligation) -> SList:
    items = [Symbol("proof"), Symbol(o.id), _field("kind", Symbol(o.kind))]
    if o.description:
        items.append(_field("description", String(o.description)))
    if o.immutable:
        items.append(_field("immutable", Symbol("t")))
    if o.params is not None:
        items.append(_field("params", o.params))
    return SList(items)


def encode_claim(c: Claim) -> SList:
    return SList([
        Symbol("claim"),
        _field("agent", String(c.agent)),
        _field("feature", Symbol(c.feature)),
        _field("lease-expires", String(c.lease_expires)),
    ])


def encode_evidence(e: EvidenceRecord) -> SList:
    items = [
        Symbol("evidence"),
        _field("feature", Symbol(e.feature)),
        _field("witness", String(e.witness)),
        _field("status", Symbol(e.status)),
    ]
    if e.hash:
        items.append(_field("hash", String(e.hash)))
    if e.server_computed:
        items.append(_field("server-computed", Symbol("t")))
    if e.timestamp:
        items.append(_field("timestamp", String(e.timestamp)))
    return SList(items)


def encode_lesson(l: Lesson) -> SList:
    items = [Symbol("lesson"), Symbol(l.id)]
    for key, value in (
        ("failure", l.failure), ("root-cause", l.root_cause),
        ("fix", l.fix), ("obligation", l.obligation),
    ):
        if value:
            items.append(_field(key, String(value)))
    if l.affected_scope:
        items.append(SList([Symbol("affected-scope")] + [String(p) for p in l.affected_scope]))
    if l.cost:
        items.append(_field("cost", String(l.cost)))
    if l.commits:
        items.append(SList([Symbol("commits")] + [String(c) for c in l.commits]))
    if l.severity != 1:
        items.append(_field("severity", Integer(l.severity)))
    return SList(items)


def encode(a: Artifact) -> SList:
    items = [Symbol(HEAD_SYMBOL), String(a.name)]

    def section(name, forms):
        if forms:
            items.append(SList([Symbol(name)] + list(forms)))

    section("requirements", [encode_requirement(r) for r in a.requirements])
    section("architecture",
            [encode_component(c) for c in a.components]
            + [encode_connector(c) for c in a.connectors])
    section("design", [encode_design_element(d) for d in a.design_elements])
    section("workflows", [encode_workflow(w) for w in a.workflows])
    section("features", [encode_feature(f) for f in a.features])
    section("traceability", [encode_trace(t) for t in a.traces])
    section("proof-obligations", [encode_obligation(o) for o in a.obligations if o.origin is None])
    section("coordination",
            [encode_claim(c) for c in a.claims]
            + [encode_evidence(e) for e in a.evidence])
    section("lessons", [encode_lesson(l) for l in a.lessons])
    if a.guidebook_imports:
        section("guidebooks", [SList([Symbol("imports")] + [String(p) for p in a.guidebook_imports])])
    for _, form in a.extra_sections:
        items.append(form)
    return SList(items)


def encode_text(a: Artifact) -> str:
    return sexpr.print_canonical(encode(a))


def artifact_fingerprint(a: Artifact) -> str:
    return sexpr.fingerprint_text(encode_text(a))


# -------------------------------------------------------- change sets


@dataclass(frozen=True)
class AddOp:
    section: str
    element: object  # SExpr form

    verb = "add"


@dataclass(frozen=True)
class RemoveOp:
    section: str
    target: str

    verb = "remove"


@dataclass(frozen=True)
class UpdateOp:
    section: str
    target: str
    element: object

    verb = "update"


@dataclass(frozen=True)
class ChangeSet:
    ops: tuple
    actor: str
    intent: str = ""

    def __init__(self, ops, actor, intent=""):
        object.__setattr__(self, "ops", tuple(ops))
        object.__setattr__(self, "actor", actor)
        object.__setattr__(self, "intent", intent)


def sections_touched(cs: ChangeSet) -> list:
    out = []
    for op in cs.ops:
        if op.section not in out:
            out.append(op.section)
    return out


def feature_ids_touched(cs: ChangeSet, a: Artifact | None = None) -> list:
    out = []
    for op in cs.ops:
        if op.section != "features":
            continue
        if isinstance(op, (RemoveOp, UpdateOp)):
            fid = op.target
        else:
            try:
                fid = decode_feature(_expect_list(op.element, "features")).id
            except ModelError:
                continue
        if fid not in out:
            out.append(fid)
    return out


_SECTION_DECODERS = {
    "requirements": decode_requirement,
    "architecture": decode_architecture_element,
    "design": decode_design_element,
    "workflows": decode_workflow,
    "features": decode_feature,
    "traceability": decode_trace,
    "proof-obligations": decode_obligation,
}


def _element_key(section: str, element) -> str | None:
    if section == "architecture":
        return element.key if isinstance(element, Connector) else element.name
    if section in ("design", "workflows"):
        return element.name
    if section == "coordination":
        return element.feature if isinstance(element, Claim) else None
    return element.id


def _decode_element(section: str, form):
    form = _expect_list(form, section)
    if section == "coordination":
        head = _expect_symbol(form[0], section)
        if head == "claim":
            return decode_claim(form)
        if head == "evidence":
            return decode_evidence(form)
        raise SchemaError(section, f"unknown coordination form {head}")
    if section == "lessons":
        return decode_lesson(form)
    if section == "guidebooks":
        if isinstance(form, SList) and len(form) >= 1 and isinstance(form[0], Symbol) and form[0].text == "imports":
            return tuple(_expect_string(p, section) for p in form.items[1:])
        raise SchemaError(section, "expected (imports \"path\" ...)")
    decoder = _SECTION_DECODERS.get(section)
    if decoder is None:
        raise UnknownSection(section)
    return decoder(form)


class _Draft:
    """Mutable working copy used only inside apply_change_set."""

    def __init__(self, a: Artifact):
        self.a = a
        self.requirements = list(a.requirements)
        self.components = list(a.components)
        self.connectors = list(a.connectors)
        self.design_elements = list(a.design_elements)
        self.workflows = list(a.workflows)
        self.features = list(a.features)
        self.traces = list(a.traces)
        self.obligations = list(a.obligations)
        self.claims = list(a.claims)
        self.evidence = list(a.evidence)
        self.lessons = list(a.lessons)
        self.guidebook_imports = list(a.guidebook_imports)

    def bucket(self, section: str, element=None) -> list:
        if section == "architecture":
            return self.connectors if isinstance(element, Connector) else self.components
        if section == "coordination":
            return self.evidence if isinstance(element, EvidenceRecord) else self.claims
        return {
            "requirements": self.requirements,
            "design": self.design_elements,
            "workflows": self.workflows,
            "features": self.features,
            "traceability": self.traces,
            "proof-obligations": self.obligations,
            "lessons": self.lessons,
        }[section]

    def existing_keys(self, section: str) -> dict:
        """key -> (bucket, index) for addressable elements."""
        out = {}
        if section == "architecture":
            for i, c in enumerate(self.components):
                out[c.name] = (self.components, i)
            for i, c in enumerate(self.connectors):
                out[c.key] = (self.connectors, i)
        elif section == "coordination":
            for i, c in enumerate(self.claims):
                out[c.feature] = (self.claims, i)
        elif section == "guidebooks":
            for i, p in enumerate(self.guidebook_imports):
                out[p] = (self.guidebook_imports, i)
        else:
            bucket = self.bucket(section)
            for i, e in enumerate(bucket):
                out[_element_key(section, e)] = (bucket, i)
        return out

    def freeze(self) -> Artifact:
        return Artifact(
            name=self.a.name,
            requirements=tuple(self.requirements),
            components=tuple(self.components),
            connectors=tuple(self.connectors),
            design_elements=tuple(self.design_elements),
            workflows=tuple(self.workflows),
            features=tuple(self.features),
            traces=tuple(self.traces),
            obligations=tuple(self.obligations),
            claims=tuple(self.claims),
            evidence=tuple(self.evidence),
            lessons=tuple(self.lessons),
            guidebook_imports=tuple(self.guidebook_imports),
            extra_sections=self.a.extra_sections,
        )


def apply_change_set(a: Artifact, cs: ChangeSet) -> Artifact:
    """Apply ops in order and return a new artifact. The input value is
    never mutated; the first bad op aborts the whole application."""
    draft = _Draft(a)
    for op in cs.ops:
        if op.section not in SECTION_ORDER:
            raise UnknownSection(op.section)
        if isinstance(op, AddOp):
            if op.section == "guidebooks":
                for path in _decode_element("guidebooks", op.element):
                    if path in draft.guidebook_imports:
                        raise DuplicateId("guidebooks", path)
                    draft.guidebook_imports.append(path)
                continue
            element = _decode_element(op.section, op.element)
            key = _element_key(op.section, element)
            if key is not None and key in draft.existing_keys(op.section):
                raise DuplicateId(op.section, key)
            draft.bucket(op.section, element).append(element)
        elif isinstance(op, RemoveOp):
            keys = draft.existing_keys(op.section)
            if op.target not in keys:
                raise UnknownId(op.section, op.target)
            bucket, index = keys[op.target]
            del bucket[index]
        elif isinstance(op, UpdateOp):
            if op.section == "guidebooks":
                raise SchemaError("guidebooks", "imports are added or removed, not updated")
            keys = draft.existing_keys(op.section)
            if op.target not in keys:
                raise UnknownId(op.section, op.target)
            element = _decode_element(op.section, op.element)
            key = _element_key(op.section, element)
            bucket, index = keys[op.target]
            if key != op.target and key in draft.existing_keys(op.section):
                raise DuplicateId(op.section, key)
            old = bucket[index]
            if type(old) is not type(element):
                # architecture and coordination mix element types;
                # an update must stay within the same type.
                raise SchemaError(op.section, f"update changes element type of {op.target}")
            bucket[index] = element
        else:
            raise ModelError(f"unknown op {op!r}")
    return draft.freeze()


# --------------------------------------------------- change set wire


def change_set_to_sexpr(cs: ChangeSet) -> SList:
    ops = []
    for op in cs.ops:
        if isinstance(op, AddOp):
            ops.append(SList([Symbol("add"), Symbol(op.section), op.element]))
        elif isinstance(op, RemoveOp):
            ops.append(SList([Symbol("remove"), Symbol(op.section), Symbol(op.target)]))
        else:
            ops.append(SList([Symbol("update"), Symbol(op.section), Symbol(op.target), op.element]))
    return SList([
        Symbol("change-set"),
        _field("actor", String(cs.actor)),
        _field("intent", String(cs.intent)),
        SList([Symbol("ops")] + ops),
    ])


def change_set_from_sexpr(form) -> ChangeSet:
    form = _expect_list(form, "change-set")
    if len(form) < 1 or _expect_symbol(form[0], "change-set") != "change-set":
        raise SchemaError("change-set", "expected (change-set ...)")
    fields = _fields(form, 1, "change-set")
    if "actor" not in fields:
        raise SchemaError("change-set", "missing actor")
    actor = _text(fields["actor"][0], "change-set")
    intent = _text(fields["intent"][0], "change-set") if fields.get("intent") else ""
    ops = []
    for raw in fields.get("ops", ()):
        triple = _expect_list(raw, "change-set")
        verb = _expect_symbol(triple[0], "change-set")
        section = _expect_symbol(triple[1], "change-set")
        if verb == "add":
            ops.append(AddOp(section, triple[2]))
        elif verb == "remove":
            ops.append(RemoveOp(section, _expect_symbol(triple[2], "change-set")))
        elif verb == "update":
            ops.append(UpdateOp(section, _expect_symbol(triple[2], "change-set"), triple[3]))
        else:
            raise SchemaError("change-set", f"unknown op verb {verb}")
    return ChangeSet(ops, actor, intent)


def change_set_fingerprint(cs: ChangeSet) -> str:
    return sexpr.fingerprint(change_set_to_sexpr(cs))
