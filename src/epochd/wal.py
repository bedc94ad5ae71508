"""Hash-chained append-only log of verified artifact states, and the
report projections derivable from it.

Each entry stores a full canonical snapshot, so any historical state
is readable without replay and every report is a pure query over the
chain. In memory the log keeps each entry beside the state it records:
the artifact the gate accepted, or the one decoded from its file when
the log was loaded. Retroactive replay reads those states in place.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import model, sexpr
from .model import Artifact
from .sexpr import TEXT, Integer, Record, SList, String, Symbol, read_head

ZERO_DIGEST = "0" * 64
ENTRY_SUFFIX = ".entry"
HEAD_NAME = "HEAD"


class WalError(Exception):
    pass


class ChainMismatch(WalError):
    def __init__(self, index: int, message: str):
        super().__init__(f"entry {index}: {message}")
        self.index = index


@dataclass(frozen=True)
class Attestation:
    agent: str
    features: tuple = ()
    verdict: str = "pass"
    fingerprint_before: str = ZERO_DIGEST
    fingerprint_after: str = ""
    timestamp: str = ""
    intent: str = ""


def attestation_to_sexpr(at: Attestation) -> SList:
    items = [
        Symbol("attestation"),
        SList((Symbol("agent"), String(at.agent))),
        SList([Symbol("features")] + [Symbol(f) for f in at.features]),
        SList((Symbol("verdict"), Symbol(at.verdict))),
        SList((Symbol("fingerprint-before"), String(at.fingerprint_before))),
        SList((Symbol("fingerprint-after"), String(at.fingerprint_after))),
        SList((Symbol("timestamp"), String(at.timestamp))),
        SList((Symbol("intent"), String(at.intent))),
    ]
    return SList(items)


def attestation_from_sexpr(form) -> Attestation:
    read_head(form, "attestation", (), WalError)
    r = Record(form, 1, WalError)
    at = Attestation(
        agent=r.one("agent", TEXT, ""),
        features=r.many("features", TEXT),
        verdict=r.one("verdict", TEXT, "pass"),
        fingerprint_before=r.one("fingerprint-before", TEXT, ZERO_DIGEST),
        fingerprint_after=r.one("fingerprint-after", TEXT, ""),
        timestamp=r.one("timestamp", TEXT, ""),
        intent=r.one("intent", TEXT, ""),
    )
    r.done()
    return at


@dataclass(frozen=True)
class WalEntry:
    index: int
    parent_digest: str
    state_digest: str
    snapshot: str
    attestation: Attestation
    entry_digest: str


def _digest_form(index: int, parent_digest: str, state_digest: str,
                 attestation: Attestation) -> SList:
    return SList((
        Integer(index), String(parent_digest), String(state_digest),
        attestation_to_sexpr(attestation),
    ))


def make_entry(index: int, parent_digest: str, snapshot: str,
               attestation: Attestation) -> WalEntry:
    state_digest = sexpr.fingerprint_text(snapshot)
    entry_digest = sexpr.fingerprint(
        _digest_form(index, parent_digest, state_digest, attestation),
    )
    return WalEntry(index, parent_digest, state_digest, snapshot, attestation, entry_digest)


def entry_to_sexpr(e: WalEntry) -> SList:
    return SList((
        Symbol("wal-entry"),
        SList((Symbol("index"), Integer(e.index))),
        SList((Symbol("parent"), String(e.parent_digest))),
        SList((Symbol("state"), String(e.state_digest))),
        SList((Symbol("digest"), String(e.entry_digest))),
        attestation_to_sexpr(e.attestation),
        SList((Symbol("snapshot"), String(e.snapshot))),
    ))


def entry_from_sexpr(form) -> WalEntry:
    read_head(form, "wal-entry", (), WalError)
    r = Record(form, 1, WalError)
    entry = WalEntry(
        index=r.one("index", Integer),
        parent_digest=r.one("parent", String),
        state_digest=r.one("state", String),
        snapshot=r.one("snapshot", String),
        attestation=attestation_from_sexpr(r.form("attestation")),
        entry_digest=r.one("digest", String),
    )
    r.done()
    return entry


class History:
    """In-memory chain. Entry i is kept beside states[i], the artifact
    state it records, each held once; the first index at which each
    feature id appears is derived as entries are admitted."""

    def __init__(self):
        self.entries: list = []
        self.states: list = []
        self._first_seen: dict = {}

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, index: int) -> WalEntry:
        return self.entries[index]

    @property
    def head(self) -> WalEntry | None:
        return self.entries[-1] if self.entries else None

    def _admit(self, entry: WalEntry, state: Artifact):
        idx = len(self.entries)
        self.entries.append(entry)
        self.states.append(state)
        for f in state.features:
            self._first_seen.setdefault(f.id, idx)

    def artifact_at(self, index: int) -> Artifact:
        return self.states[index]

    def first_index_with_feature(self, fid: str) -> int | None:
        return self._first_seen.get(fid)

    def append(self, artifact: Artifact, attestation: Attestation,
               directory: str | None = None) -> WalEntry:
        """Chain a new entry for `artifact`, saved to `directory` if one
        is given before it is admitted: a failed write changes nothing."""
        parent = self.head.entry_digest if self.head else ZERO_DIGEST
        expected_before = self.head.state_digest if self.head else ZERO_DIGEST
        if attestation.fingerprint_before != expected_before:
            raise ChainMismatch(len(self.entries),
                                "attestation parent fingerprint does not match head")
        entry = make_entry(len(self.entries), parent, artifact.text, attestation)
        if directory:
            save_entry(directory, entry)
        self._admit(entry, artifact)
        return entry

    def validate(self):
        """Recompute every digest; any single tampered byte anywhere
        breaks either a state digest or the parent chain."""
        parent = ZERO_DIGEST
        for i, e in enumerate(self.entries):
            if e.index != i:
                raise ChainMismatch(i, f"index {e.index} out of sequence")
            if e.parent_digest != parent:
                raise ChainMismatch(i, "parent digest does not match previous entry")
            if sexpr.fingerprint_text(e.snapshot) != e.state_digest:
                raise ChainMismatch(i, "snapshot does not match state digest")
            recomputed = sexpr.fingerprint(
                _digest_form(e.index, e.parent_digest, e.state_digest, e.attestation),
            )
            if recomputed != e.entry_digest:
                raise ChainMismatch(i, "entry digest does not match contents")
            parent = e.entry_digest


@dataclass(frozen=True)
class _Prefix:
    """The first `length` entries of a history, read in place: what
    an obligation evaluated at entry `length` sees of the log."""
    history: History
    length: int

    def __len__(self):
        return self.length

    def first_index_with_feature(self, fid: str) -> int | None:
        idx = self.history.first_index_with_feature(fid)
        return idx if idx is not None and idx < self.length else None


# ------------------------------------------------------------- disk


def entry_path(directory: str, index: int) -> str:
    return os.path.join(directory, f"{index:06d}{ENTRY_SUFFIX}")


def save_entry(directory: str, entry: WalEntry):
    os.makedirs(directory, exist_ok=True)
    text = sexpr.print_canonical(entry_to_sexpr(entry)) + "\n"
    with open(entry_path(directory, entry.index), "w", encoding="utf-8") as fh:
        fh.write(text)
    head_tmp = os.path.join(directory, HEAD_NAME + ".tmp")
    with open(head_tmp, "w", encoding="utf-8") as fh:
        fh.write(f"{entry.index} {entry.entry_digest}\n")
    os.replace(head_tmp, os.path.join(directory, HEAD_NAME))


def load_history(directory: str) -> History:
    names = sorted(
        n for n in os.listdir(directory) if n.endswith(ENTRY_SUFFIX)
    )
    history = History()
    for name in names:
        path = os.path.join(directory, name)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = entry_from_sexpr(sexpr.parse(fh.read()))
            history._admit(entry, model.decode_text(entry.snapshot))
        except (UnicodeDecodeError, sexpr.SexprError, WalError, model.ModelError) as err:
            raise WalError(f"{path}: {err}") from err
    history.validate()
    head_file = os.path.join(directory, HEAD_NAME)
    if os.path.exists(head_file) and history.head is not None:
        with open(head_file, "r", encoding="utf-8") as fh:
            recorded = fh.read().split()
        if len(recorded) == 2 and recorded[1] != history.head.entry_digest:
            raise ChainMismatch(history.head.index, "HEAD pointer disagrees with chain")
    return history


# ------------------------------------------------- retroactive check


RETRO_SAFE = "safe"
RETRO_OVER_CONSTRAINED = "over-constrained"


@dataclass(frozen=True)
class RetroVerdict:
    status: str
    findings: tuple = ()  # ((index, (violation, ...)), ...)

    @property
    def safe(self) -> bool:
        return self.status == RETRO_SAFE


def retroactive_verify(history: History, candidate, n: int, *,
                       registry=None, witnesses=None) -> RetroVerdict:
    """Evaluate a candidate obligation against the last n recorded
    states. Safe means the candidate would not have rejected any of
    them; over-constrained lists the states it would have rejected.
    State i is evaluated against the first i entries of the same
    history, read in place: nothing is re-validated or decoded."""
    from . import obligations as ob_mod

    if witnesses is None:
        witnesses = ob_mod.DEFAULT_WITNESSES
    total = len(history)
    n = max(0, min(n, total))
    findings = []
    for index in range(total - n, total):
        artifact = history.artifact_at(index)
        baseline = history.artifact_at(index - 1) if index > 0 else None
        verdict = ob_mod.evaluate(
            artifact, (candidate,), registry=registry, baseline=baseline,
            history=_Prefix(history, index), witnesses=witnesses,
        )
        if not verdict.passed:
            findings.append((index, verdict.violations))
    if findings:
        return RetroVerdict(RETRO_OVER_CONSTRAINED, tuple(findings))
    return RetroVerdict(RETRO_SAFE)


# ------------------------------------------------------- projections


@dataclass(frozen=True)
class MatrixRow:
    requirement: str
    traces: tuple
    components: tuple
    design_elements: tuple
    features: tuple

    @property
    def untraced(self) -> bool:
        return not self.traces


def traceability_matrix(a: Artifact) -> tuple:
    rows = []
    for r in a.requirements:
        traces = tuple(t for t in a.traces if t.requirement == r.id)
        rows.append(MatrixRow(
            requirement=r.id,
            traces=tuple(t.id for t in traces),
            components=tuple(dict.fromkeys(t.component for t in traces)),
            design_elements=tuple(dict.fromkeys(t.design_element for t in traces)),
            features=tuple(f.id for f in a.features if r.id in f.scope.requirements),
        ))
    return tuple(rows)


def render_matrix(rows) -> str:
    lines = []
    for row in rows:
        cells = [
            ", ".join(row.components) or "-",
            ", ".join(row.design_elements) or "-",
            ", ".join(row.features) or "-",
        ]
        flag = "  UNTRACED" if row.untraced else ""
        lines.append(f"{row.requirement}: {' | '.join(cells)}{flag}")
    return "\n".join(lines)


@dataclass(frozen=True)
class ComplianceRow:
    index: int
    agent: str
    intent: str
    features: tuple
    requirement_count: int
    obligation_count: int
    delivered_count: int


@dataclass(frozen=True)
class ComplianceReport:
    artifact_name: str
    head_digest: str
    rows: tuple

    def render(self) -> str:
        lines = [
            f"compliance report for {self.artifact_name}",
            f"entries: {len(self.rows)}  head: {self.head_digest}",
        ]
        for r in self.rows:
            lines.append(
                f"  [{r.index:04d}] agent={r.agent or '-'} reqs={r.requirement_count}"
                f" obligations={r.obligation_count} delivered={r.delivered_count}"
                f" intent={r.intent!r}"
            )
        return "\n".join(lines)


def compliance_report(history: History) -> ComplianceReport:
    history.validate()
    rows = []
    name = ""
    for e in history.entries:
        a = history.artifact_at(e.index)
        name = a.name
        rows.append(ComplianceRow(
            index=e.index,
            agent=e.attestation.agent,
            intent=e.attestation.intent,
            features=e.attestation.features,
            requirement_count=len(a.requirements),
            obligation_count=len(a.obligations),
            delivered_count=len(a.delivered_ids()),
        ))
    head = history.head.entry_digest if history.head else ZERO_DIGEST
    return ComplianceReport(name, head, tuple(rows))


@dataclass(frozen=True)
class ImpactSet:
    components: frozenset
    design_elements: frozenset
    features: frozenset
    workflows: frozenset


def impact_analysis(a: Artifact, req_id: str) -> ImpactSet:
    if a.requirement(req_id) is None:
        raise model.UnknownId("requirements", req_id)
    traces = [t for t in a.traces if t.requirement == req_id]
    workflow_names = a.workflow_names()
    design = {t.design_element for t in traces if t.design_element not in workflow_names}
    flows = {t.design_element for t in traces if t.design_element in workflow_names}
    return ImpactSet(
        components=frozenset(t.component for t in traces),
        design_elements=frozenset(design),
        features=frozenset(f.id for f in a.features if req_id in f.scope.requirements),
        workflows=frozenset(flows),
    )


__all__ = [
    "Attestation", "ChainMismatch", "ComplianceReport", "History", "ImpactSet",
    "MatrixRow", "RETRO_OVER_CONSTRAINED", "RETRO_SAFE", "RetroVerdict", "WalEntry",
    "WalError", "ZERO_DIGEST", "attestation_from_sexpr", "attestation_to_sexpr",
    "compliance_report", "entry_from_sexpr", "entry_to_sexpr", "impact_analysis",
    "load_history", "make_entry", "render_matrix", "retroactive_verify",
    "save_entry", "traceability_matrix",
]
