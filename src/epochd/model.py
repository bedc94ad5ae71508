"""Typed view of a .epoch artifact and pure change application.

An artifact file is one `(nidus-system "Name" ...)` form whose child
sections hold requirements, architecture, design elements, workflows,
features, traces, proof obligations, coordination records, lessons and
guidebook imports. Sections this module does not recognize are carried
through decode/encode untouched so older daemons can read newer files.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property, partial

from . import sexpr, solver
from .sexpr import TEXT, Integer, Record, SList, String, Symbol, read_head, read_values

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


@dataclass(frozen=True, slots=True)
class Requirement:
    id: str
    kind: str = ""
    source: str = ""
    shall: str = ""
    constraint: object | None = None  # opaque subtree


@dataclass(frozen=True, slots=True)
class Component:
    name: str
    responsibility: str = ""


@dataclass(frozen=True, slots=True)
class Connector:
    source: str
    target: str
    flow: str = ""
    protocol: str = ""

    @property
    def key(self) -> str:
        return f"{self.source}->{self.target}"


@dataclass(frozen=True, slots=True)
class DesignElement:
    kind: str
    name: str
    attributes: tuple = ()


@dataclass(frozen=True, slots=True)
class Transition:
    source: str
    target: str
    guard: object | None = None  # solver formula


@dataclass(frozen=True, slots=True)
class Workflow:
    name: str
    states: tuple = ()
    initial: str = ""
    transitions: tuple = ()


@dataclass(frozen=True, slots=True)
class Scope:
    requirements: tuple = ()
    code_paths: tuple = ()
    test_paths: tuple = ()

    @property
    def empty(self) -> bool:
        return not (self.requirements or self.code_paths or self.test_paths)


@dataclass(frozen=True, slots=True)
class Feature:
    id: str
    name: str = ""
    status: str = "open"
    scope: Scope = Scope()

    def __post_init__(self):
        if self.status not in FEATURE_STATUSES:
            raise SchemaError(f"feature {self.id}", f"bad status {self.status!r}")


@dataclass(frozen=True, slots=True)
class Trace:
    id: str
    requirement: str
    component: str
    design_element: str


@dataclass(frozen=True, slots=True)
class ProofObligation:
    id: str
    kind: str
    description: str = ""
    immutable: bool = False
    params: object | None = None  # opaque subtree
    formula: object | None = None  # attached by guidebook inheritance
    origin: str | None = None      # guidebook path, None for local


@dataclass(frozen=True, slots=True)
class Claim:
    agent: str
    feature: str
    lease_expires: str

    @property
    def key(self) -> str:
        return self.feature

    def expired(self, now: datetime) -> bool:
        return parse_rfc3339(self.lease_expires) <= now


@dataclass(frozen=True, slots=True)
class EvidenceRecord:
    feature: str
    witness: str
    status: str = "passed"
    hash: str = ""
    server_computed: bool = False
    timestamp: str = ""


@dataclass(frozen=True, slots=True)
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

    @cached_property
    def text(self) -> str:
        """Canonical text of this state, encoded at most once."""
        return encode_text(self)


# ----------------------------------------------------------- decode


def _flag(text: str, fail) -> bool:
    if text in ("t", "true"):
        return True
    if text in ("nil", "false"):
        return False
    raise fail(f"bad flag value {text}")


def decode_requirement(form: SList) -> Requirement:
    rid, = read_head(form, "req", (Symbol,), partial(SchemaError, "requirements"))
    r = Record(form, 2, partial(SchemaError, f"req {rid}"))
    req = Requirement(rid, r.one("kind", Symbol, ""), r.one("source", Symbol, ""),
                      r.one("shall", String, ""), r.subtree("constraint"))
    r.done()
    return req


def decode_architecture_element(form: SList):
    fail = partial(SchemaError, "architecture")
    kind, = read_head(form, None, (), fail)
    if kind == "component":
        name, = read_head(form, "component", (Symbol,), fail)
        r = Record(form, 2, partial(SchemaError, f"component {name}"))
        element = Component(name, r.one("responsibility", String, ""))
    elif kind == "connector":
        src, dst = read_head(form, "connector", (Symbol, Symbol), fail)
        r = Record(form, 3, partial(SchemaError, f"connector {src}->{dst}"))
        element = Connector(src, dst, r.one("flow", Symbol, ""), r.one("protocol", Symbol, ""))
    else:
        raise fail(f"unexpected form {sexpr.print_canonical(form)}")
    r.done()
    return element


def decode_design_element(form: SList) -> DesignElement:
    kind, name = read_head(form, None, (Symbol,), partial(SchemaError, "design"))
    return DesignElement(kind, name, form.items[2:])


def _decode_transition(form: SList, fail) -> Transition:
    src, dst = read_head(form, "transition", (Symbol, Symbol), fail)
    r = Record(form, 3, fail)
    guard = r.subtree("guard")
    r.done()
    if guard is not None:
        try:
            guard = solver.formula_from_sexpr(guard)
        except solver.SolverError as exc:
            raise fail(str(exc)) from exc
    return Transition(src, dst, guard)


def decode_workflow(form: SList) -> Workflow:
    name, = read_head(form, "workflow", (Symbol,), partial(SchemaError, "workflows"))
    fail = partial(SchemaError, f"workflow {name}")
    r = Record(form, 2, fail)
    workflow = Workflow(name, r.many("states", Symbol), r.one("initial", Symbol, ""),
                        tuple([_decode_transition(t, fail) for t in r.each("transition")]))
    r.done()
    return workflow


def _decode_scope(form: SList, fail) -> Scope:
    r = Record(form, 1, fail)
    scope = Scope(r.many("requirements", Symbol), r.many("code-paths", String),
                  r.many("test-paths", String))
    r.done()
    return scope


def decode_feature(form: SList) -> Feature:
    fid, = read_head(form, "feature", (Symbol,), partial(SchemaError, "features"))
    fail = partial(SchemaError, f"feature {fid}")
    r = Record(form, 2, fail)
    scope = r.form("scope")
    feature = Feature(fid, r.one("name", String, ""), r.one("status", Symbol, "open"),
                      Scope() if scope is None else _decode_scope(scope, fail))
    r.done()
    return feature


def decode_trace(form: SList) -> Trace:
    return Trace(*read_head(form, "trace", (Symbol, Symbol, Symbol, Symbol),
                            partial(SchemaError, "traceability"), exact=True))


def decode_obligation(form: SList) -> ProofObligation:
    pid, = read_head(form, "proof", (Symbol,), partial(SchemaError, "proof-obligations"))
    fail = partial(SchemaError, f"proof {pid}")
    r = Record(form, 2, fail)
    ob = ProofObligation(pid, r.one("kind", Symbol), r.one("description", String, ""),
                         _flag(r.one("immutable", Symbol, "nil"), fail), r.subtree("params"))
    r.done()
    return ob


def decode_claim(form: SList) -> Claim:
    fail = partial(SchemaError, "claim")
    read_head(form, "claim", (), fail)
    r = Record(form, 1, fail)
    claim = Claim(r.one("agent", TEXT), r.one("feature", Symbol), r.one("lease-expires", String))
    r.done()
    parse_rfc3339(claim.lease_expires)
    return claim


def decode_evidence(form: SList) -> EvidenceRecord:
    fail = partial(SchemaError, "evidence")
    read_head(form, "evidence", (), fail)
    r = Record(form, 1, fail)
    record = EvidenceRecord(
        r.one("feature", Symbol), r.one("witness", TEXT), r.one("status", Symbol, "passed"),
        r.one("hash", String, ""), _flag(r.one("server-computed", Symbol, "nil"), fail),
        r.one("timestamp", String, ""))
    r.done()
    return record


def _decode_coordination(form: SList):
    fail = partial(SchemaError, "coordination")
    kind, = read_head(form, None, (), fail)
    if kind == "claim":
        return decode_claim(form)
    if kind == "evidence":
        return decode_evidence(form)
    raise fail(f"unknown coordination form {kind}")


def decode_lesson(form: SList) -> Lesson:
    lid, = read_head(form, "lesson", (Symbol,), partial(SchemaError, "lessons"))
    r = Record(form, 2, partial(SchemaError, f"lesson {lid}"))
    lesson = Lesson(
        lid, r.one("failure", String, ""), r.one("root-cause", String, ""),
        r.one("fix", String, ""), r.one("obligation", String, ""),
        r.many("affected-scope", String), r.one("cost", String, ""),
        r.many("commits", String), r.one("severity", Integer, 1))
    r.done()
    return lesson


def _decode_imports(form: SList) -> tuple:
    fail = partial(SchemaError, "guidebooks")
    read_head(form, "imports", (), fail)
    return read_values(form, String, fail)


# One decoder per section; each checks its element's head and fields.
_SECTION_DECODERS = {
    "requirements": decode_requirement,
    "architecture": decode_architecture_element,
    "design": decode_design_element,
    "workflows": decode_workflow,
    "features": decode_feature,
    "traceability": decode_trace,
    "proof-obligations": decode_obligation,
    "coordination": _decode_coordination,
    "lessons": decode_lesson,
    "guidebooks": _decode_imports,
}


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
    fail = partial(SchemaError, "artifact")
    name, = read_head(tree, HEAD_SYMBOL, (String,), fail)
    sections = Record(tree, 2, fail)
    parts = {section: tuple([read(x) for x in sections.many(section, SList)])
             for section, read in _SECTION_DECODERS.items()}
    arch, coordination = parts["architecture"], parts["coordination"]
    a = Artifact(
        name=name,
        requirements=parts["requirements"],
        components=tuple(e for e in arch if isinstance(e, Component)),
        connectors=tuple(e for e in arch if isinstance(e, Connector)),
        design_elements=parts["design"],
        workflows=parts["workflows"],
        features=parts["features"],
        traces=parts["traceability"],
        obligations=parts["proof-obligations"],
        claims=tuple(e for e in coordination if isinstance(e, Claim)),
        evidence=tuple(e for e in coordination if isinstance(e, EvidenceRecord)),
        lessons=parts["lessons"],
        guidebook_imports=tuple(p for paths in parts["guidebooks"] for p in paths),
        extra_sections=tuple((item.items[0].text, item) for item in sections.rest()),
    )
    _check_unique("requirements", (r.id for r in a.requirements))
    _check_unique("architecture", (c.name for c in a.components))
    _check_unique("architecture", (c.key for c in a.connectors))
    _check_unique("design", (d.name for d in a.design_elements))
    _check_unique("workflows", (w.name for w in a.workflows))
    _check_unique("features", (f.id for f in a.features))
    _check_unique("traceability", (t.id for t in a.traces))
    _check_unique("proof-obligations", (o.id for o in a.obligations))
    _check_unique("coordination", (c.feature for c in a.claims))
    _check_unique("lessons", (l.id for l in a.lessons))
    _check_unique("guidebooks", a.guidebook_imports)
    return a


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
    return sexpr.fingerprint_text(a.text)


# -------------------------------------------------------- change sets


@dataclass(frozen=True, slots=True)
class AddOp:
    section: str
    element: object  # SExpr form

    verb = "add"


@dataclass(frozen=True, slots=True)
class RemoveOp:
    section: str
    target: str

    verb = "remove"


@dataclass(frozen=True, slots=True)
class UpdateOp:
    section: str
    target: str
    element: object

    verb = "update"


@dataclass(frozen=True, slots=True)
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


def feature_ids_touched(cs: ChangeSet) -> list:
    out = []
    for op in cs.ops:
        if op.section != "features":
            continue
        if isinstance(op, (RemoveOp, UpdateOp)):
            fid = op.target
        else:
            try:
                fid = decode_feature(op.element).id
            except ModelError:
                continue
        if fid not in out:
            out.append(fid)
    return out


def _element_key(section: str, element) -> str | None:
    if section == "architecture":
        return element.key if isinstance(element, Connector) else element.name
    if section in ("design", "workflows"):
        return element.name
    if section == "coordination":
        return element.feature if isinstance(element, Claim) else None
    return element.id


def _decode_element(section: str, form):
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


def _op_from_sexpr(op, fail):
    verb, = read_head(op, None, (), fail)
    if verb == "add":
        return AddOp(*read_head(op, "add", (Symbol, SList), fail, exact=True))
    if verb == "remove":
        return RemoveOp(*read_head(op, "remove", (Symbol, Symbol), fail, exact=True))
    if verb == "update":
        return UpdateOp(*read_head(op, "update", (Symbol, Symbol, SList), fail, exact=True))
    raise fail(f"unknown op verb {verb}")


def change_set_from_sexpr(form) -> ChangeSet:
    fail = partial(SchemaError, "change-set")
    read_head(form, "change-set", (), fail)
    r = Record(form, 1, fail)
    cs = ChangeSet([_op_from_sexpr(op, fail) for op in r.many("ops", SList)],
                   r.one("actor", TEXT), r.one("intent", TEXT, ""))
    r.done()
    return cs


def change_set_fingerprint(cs: ChangeSet) -> str:
    return sexpr.fingerprint(change_set_to_sexpr(cs))
