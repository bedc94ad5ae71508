"""Typed view of a .epoch artifact, its format table, and pure change
application.

An artifact file is one `(nidus-system "Name" ...)` form whose child
sections hold requirements, architecture, design elements, workflows,
features, traces, proof obligations, coordination records, lessons and
guidebook imports. `FORMAT` declares each record type's wire shape and
the section, Artifact field and key it belongs to; one reader and one
writer serve every record, and decode, encode and apply_change_set
loop over that table. Sections this module does not recognize are
carried through decode/encode untouched so older daemons can read
newer files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import cached_property, partial
from operator import attrgetter

from . import sexpr, solver
from .sexpr import TEXT, Integer, Record, SList, String, Symbol, read_head, read_values

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
    utc = stamp.astimezone(timezone.utc)
    return f"{utc.year:04d}" + utc.strftime("-%m-%dT%H:%M:%SZ")  # %Y drops a year's leading zeros


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


# ----------------------------------------------------------- format
#
# The artifact format is declared once. `_Shape` gives a record type's
# wire form: its head tag, the attributes of its positional symbols and
# its `(key value…)` fields in written order. `FORMAT` says, section by
# section, which record types a section holds, the Artifact field each
# goes in and the key that addresses one. `decode_record` and
# `encode_record` read and write every record; `decode`, `encode` and
# `apply_change_set` loop over `FORMAT`.


class _Field:
    """A `(key value…)` field filling attribute `attr` (the key with
    `-` as `_`). It is written when `always`, or else unless it equals
    its default."""

    def __init__(self, key, kind=None, default=None, attr=None, always=False):
        self.key, self.sym, self.kind = key, Symbol(key), kind
        self.attr = attr or key.replace("-", "_")
        self.default, self.always = default, always

    def write(self, value, items):
        if self.always or value != self.default:
            items.append(SList((self.sym,) + self.nodes(value)))


class _One(_Field):
    """One symbol, string or integer, required when it has no default.
    A prose value (TEXT) is written as a string."""

    def __init__(self, key, kind, default=None, always=False):
        super().__init__(key, kind, default, always=always or default is None)
        self.node = String if kind is TEXT else kind

    def read(self, r, fail):
        return r.one(self.key, self.kind, self.default)

    def nodes(self, value):
        return (self.node(value),)


class _Stamp(_One):
    """A required RFC 3339 timestamp, kept as its string."""

    def __init__(self, key):
        super().__init__(key, String)

    def read(self, r, fail):
        text = r.one(self.key, String)
        parse_rfc3339(text)
        return text


class _Flag(_Field):
    """`t` when true and absent when false; `true`, `nil` and `false`
    read too."""

    def __init__(self, key):
        super().__init__(key, Symbol, False)

    def read(self, r, fail):
        text = r.one(self.key, Symbol, "nil")
        if text not in ("t", "true", "nil", "false"):
            raise fail(f"bad flag value {text}")
        return text in ("t", "true")

    def nodes(self, value):
        return (_TRUE,)


class _Many(_Field):
    """Any number of values of one node kind; () when absent."""

    def __init__(self, key, kind):
        super().__init__(key, kind, ())

    def read(self, r, fail):
        return r.many(self.key, self.kind)

    def nodes(self, value):
        return tuple([self.kind(v) for v in value])


class _Tree(_Field):
    """One node of any kind, kept opaque; None when absent."""

    def read(self, r, fail):
        return r.subtree(self.key)

    def nodes(self, value):
        return (value,)


class _Guard(_Tree):
    """A solver formula, read and written as its S-expression."""

    def read(self, r, fail):
        tree = r.subtree(self.key)
        if tree is None:
            return None
        try:
            return solver.formula_from_sexpr(tree)
        except solver.SolverError as exc:
            raise fail(str(exc)) from exc

    def nodes(self, value):
        return (solver.formula_to_sexpr(value),)


class _Nested(_Field):
    """A sub-record of `shape` under the field's key, absent when empty."""

    def __init__(self, shape):
        super().__init__(shape.tag, default=shape.cls())
        self.shape = shape

    def read(self, r, fail):
        form = r.form(self.key)
        return self.default if form is None else _read(self.shape, form, fail)

    def write(self, value, items):
        if value != self.default:
            items.append(_write(self.shape, value))


class _Each(_Field):
    """One sub-record of `shape` per element, its key repeated."""

    def __init__(self, shape, attr):
        super().__init__(shape.tag, default=(), attr=attr)
        self.shape = shape

    def read(self, r, fail):
        return tuple([_read(self.shape, form, fail) for form in r.each(self.key)])

    def write(self, value, items):
        items.extend([_write(self.shape, x) for x in value])


class _Shape:
    """A record type's wire form: `(tag S1 … Sn field…)` where the
    symbols Si fill `head[i]`, then the fields fill the next parameters
    of `cls` in order. A tag of None takes any symbol as the first head
    value. With `rest`, the items after the head are kept opaque in
    that attribute instead of being read as fields."""

    def __init__(self, cls, tag, head=(), *fields, rest=None):
        self.cls, self.tag, self.head, self.fields, self.rest = cls, tag, head, fields, rest
        self.sym = None if tag is None else Symbol(tag)
        self.kinds = (Symbol,) * (len(head) - (tag is None))
        self.start = len(self.kinds) + 1  # index of the first item after the head


def _refuse(tag, head, message):
    return SchemaError(f"{tag} {'->'.join(head)}" if head else tag, message)


def _read(shape: _Shape, form, fail, label=False):
    """Read a record; with `label`, a bad field is refused under the
    record's tag and head values, as for a record of a section."""
    head = read_head(form, shape.tag, shape.kinds, fail,
                     exact=not (shape.fields or shape.rest))
    if shape.rest is not None:
        return shape.cls(*head, form.items[shape.start:])
    if not shape.fields:
        return shape.cls(*head)
    if label:
        fail = partial(_refuse, shape.tag, head)
    r = Record(form, shape.start, fail)
    values = list(head)
    for f in shape.fields:
        values.append(f.read(r, fail))
    record = shape.cls(*values)
    r.done()
    return record


def _write(shape: _Shape, record) -> SList:
    items = [] if shape.sym is None else [shape.sym]
    for attr in shape.head:
        items.append(Symbol(getattr(record, attr)))
    for f in shape.fields:
        f.write(getattr(record, f.attr), items)
    if shape.rest is not None:
        items.extend(getattr(record, shape.rest))
    return SList(items)


@dataclass(frozen=True, slots=True)
class _Row:
    section: str
    field: str    # the Artifact attribute its records go in
    key: object   # record -> its id in the section; None: not addressable
    shape: _Shape


_TRUE = Symbol("t")
_TRANSITION = _Shape(Transition, "transition", ("source", "target"), _Guard("guard"))
_SCOPE = _Shape(Scope, "scope", (), _Many("requirements", Symbol), _Many("code-paths", String),
                _Many("test-paths", String))

# Sections in written order; a section's keys share one namespace.
FORMAT = (
    _Row("requirements", "requirements", attrgetter("id"), _Shape(
        Requirement, "req", ("id",), _One("kind", Symbol, ""), _One("source", Symbol, ""),
        _One("shall", String, ""), _Tree("constraint"))),
    _Row("architecture", "components", attrgetter("name"), _Shape(
        Component, "component", ("name",), _One("responsibility", String, ""))),
    _Row("architecture", "connectors", attrgetter("key"), _Shape(
        Connector, "connector", ("source", "target"), _One("flow", Symbol, ""),
        _One("protocol", Symbol, ""))),
    _Row("design", "design_elements", attrgetter("name"), _Shape(
        DesignElement, None, ("kind", "name"), rest="attributes")),
    _Row("workflows", "workflows", attrgetter("name"), _Shape(
        Workflow, "workflow", ("name",), _Many("states", Symbol), _One("initial", Symbol, ""),
        _Each(_TRANSITION, "transitions"))),
    _Row("features", "features", attrgetter("id"), _Shape(
        Feature, "feature", ("id",), _One("name", String, ""),
        _One("status", Symbol, "open", always=True), _Nested(_SCOPE))),
    _Row("traceability", "traces", attrgetter("id"), _Shape(
        Trace, "trace", ("id", "requirement", "component", "design_element"))),
    _Row("proof-obligations", "obligations", attrgetter("id"), _Shape(
        ProofObligation, "proof", ("id",), _One("kind", Symbol), _One("description", String, ""),
        _Flag("immutable"), _Tree("params"))),
    _Row("coordination", "claims", attrgetter("feature"), _Shape(
        Claim, "claim", (), _One("agent", TEXT), _One("feature", Symbol), _Stamp("lease-expires"))),
    _Row("coordination", "evidence", None, _Shape(
        EvidenceRecord, "evidence", (), _One("feature", Symbol), _One("witness", TEXT),
        _One("status", Symbol, "passed", always=True), _One("hash", String, ""),
        _Flag("server-computed"), _One("timestamp", String, ""))),
    _Row("lessons", "lessons", attrgetter("id"), _Shape(
        Lesson, "lesson", ("id",), _One("failure", String, ""), _One("root-cause", String, ""),
        _One("fix", String, ""), _One("obligation", String, ""), _Many("affected-scope", String),
        _One("cost", String, ""), _Many("commits", String), _One("severity", Integer, 1))),
    # one (imports "path"…) form lists many paths; a path is its own key
    _Row("guidebooks", "guidebook_imports", str, _Shape(str, "imports")),
)
SECTION_ORDER = tuple(dict.fromkeys(row.section for row in FORMAT))
SECTIONS = {section: tuple(row for row in FORMAT if row.section == section)
            for section in SECTION_ORDER}
_SECTION_SYMBOLS = {section: Symbol(section) for section in SECTION_ORDER}
_SECTION_FAIL = {section: partial(SchemaError, section) for section in SECTION_ORDER}
_ROW_OF = {row.shape.cls: row for row in FORMAT}
_HEAD = Symbol(HEAD_SYMBOL)


# ----------------------------------------------------------- codec


def decode_record(cls, form):
    """The one reader: a record of the section type `cls` from its form.
    A bad head is refused under the section's name."""
    row = _ROW_OF[cls]
    return _read(row.shape, form, _SECTION_FAIL[row.section], label=True)


def encode_record(record) -> SList:
    """The one writer: the form of a section's record."""
    return _write(_ROW_OF[type(record)].shape, record)


# Change sets in perfbench are built through these names.
encode_requirement = encode_workflow = encode_feature = encode_trace = encode_record
encode_obligation = encode_evidence = encode_lesson = encode_record


def address(record) -> tuple:
    """The section and key by which a change set names `record`."""
    row = _ROW_OF[type(record)]
    return row.section, row.key(record)


def _decode_element(section: str, form) -> tuple:
    """The row and the records of one element form of `section`: one
    record, or every path of a guidebook import."""
    rows = SECTIONS.get(section)
    if rows is None:
        raise UnknownSection(section)
    fail = _SECTION_FAIL[section]
    row = rows[0]
    if len(rows) > 1:
        tag, = read_head(form, None, (), fail)
        row = next((x for x in rows if x.shape.tag == tag), None)
        if row is None:
            raise fail(f"unknown {section} form {tag}")
    if row.shape.cls is str:
        read_head(form, row.shape.tag, (), fail)
        return row, read_values(form, String, fail)
    return row, (_read(row.shape, form, fail, label=True),)


def _index(section: str, records) -> dict:
    """Key -> (row, position) of every addressable record of `section`,
    where `records(row)` lists a row's records. The rows of a section
    share one namespace: a key used twice is refused."""
    out = {}
    for row in SECTIONS[section]:
        if row.key is None:
            continue
        for i, record in enumerate(records(row)):
            key = row.key(record)
            if key in out:
                raise DuplicateId(section, key)
            out[key] = (row, i)
    return out


def decode(tree) -> Artifact:
    """Build the typed view. The head symbol must be nidus-system and
    the second element the artifact name."""
    fail = partial(SchemaError, "artifact")
    name, = read_head(tree, HEAD_SYMBOL, (String,), fail)
    sections = Record(tree, 2, fail)
    fields = {row.field: [] for row in FORMAT}
    for section in SECTIONS:
        for form in sections.many(section, SList):
            row, records = _decode_element(section, form)
            fields[row.field].extend(records)
    extra = tuple((item.items[0].text, item) for item in sections.rest())
    for section in SECTIONS:
        _index(section, lambda row: fields[row.field])
    return Artifact(name, **{field: tuple(v) for field, v in fields.items()},
                    extra_sections=extra)


def decode_text(text: str) -> Artifact:
    return decode(sexpr.parse(text))


def encode(a: Artifact) -> SList:
    items = [_HEAD, String(a.name)]
    for section, rows in SECTIONS.items():
        forms = []
        for row in rows:
            shape, records = row.shape, getattr(a, row.field)
            if shape.cls is str:
                if records:
                    forms.append(SList([shape.sym] + [String(p) for p in records]))
            elif shape.cls is ProofObligation:  # an inherited obligation is not written
                forms.extend([_write(shape, o) for o in records if o.origin is None])
            else:
                forms.extend([_write(shape, x) for x in records])
        if forms:
            items.append(SList([_SECTION_SYMBOLS[section]] + forms))
    items.extend([form for _, form in a.extra_sections])
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
                fid = decode_record(Feature, op.element).id
            except ModelError:
                continue
        if fid not in out:
            out.append(fid)
    return out


def apply_change_set(a: Artifact, cs: ChangeSet) -> Artifact:
    """Apply ops in order and return a new artifact. The input value is
    never mutated; the first bad op aborts the whole application."""
    fields = {}  # Artifact field -> its working copy, made on first touch

    def records(row) -> list:
        if row.field not in fields:
            fields[row.field] = list(getattr(a, row.field))
        return fields[row.field]

    for op in cs.ops:
        if op.section not in SECTIONS:
            raise UnknownSection(op.section)
        keys = _index(op.section, records)
        if isinstance(op, AddOp):
            row, new = _decode_element(op.section, op.element)
            for record in new:  # an import form may list several paths
                if row.key is not None:
                    key = row.key(record)
                    if key in keys:
                        raise DuplicateId(op.section, key)
                    keys[key] = (row, len(records(row)))
                records(row).append(record)
        elif isinstance(op, RemoveOp):
            if op.target not in keys:
                raise UnknownId(op.section, op.target)
            row, index = keys[op.target]
            del records(row)[index]
        elif isinstance(op, UpdateOp):
            if op.section == "guidebooks":
                raise SchemaError("guidebooks", "imports are added or removed, not updated")
            if op.target not in keys:
                raise UnknownId(op.section, op.target)
            row, (record,) = _decode_element(op.section, op.element)
            key = None if row.key is None else row.key(record)
            old_row, index = keys[op.target]
            if key != op.target and key in keys:
                raise DuplicateId(op.section, key)
            if row is not old_row:
                # architecture and coordination hold two record types;
                # an update must keep the type it replaces.
                raise SchemaError(op.section, f"update changes element type of {op.target}")
            records(row)[index] = record
        else:
            raise ModelError(f"unknown op {op!r}")
    return replace(a, **{field: tuple(v) for field, v in fields.items()})


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
        SList((Symbol("actor"), String(cs.actor))),
        SList((Symbol("intent"), String(cs.intent))),
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
