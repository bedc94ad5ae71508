"""Reader/printer round trips, canonical text, and fingerprints."""

import dataclasses
import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from epochd import coordination as co
from epochd import daemon as dm
from epochd import guidebook as gb
from epochd import model, obligations, sandbox, sexpr, wal
from epochd.sexpr import (
    Integer,
    SList,
    String,
    Symbol,
    TrailingGarbage,
    UnbalancedParens,
    UnterminatedString,
    fingerprint,
    parse,
    parse_all,
    print_canonical,
)

# Externally computed: sha256 of the three bytes "(a)".
FINGERPRINT_OF_A = "f89bf797c3b1dda4ee48380783e5e979067686a6a9540c5a40e8d75ae5f3d199"


def reference_tokens(text: str):
    """Independent tokenizer used as an oracle: strips comments, then
    splits into parens, strings, and atoms."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            out.append(ch)
            i += 1
        elif ch == '"':
            j = i + 1
            buf = []
            while text[j] != '"':
                if text[j] == "\\":
                    buf.append(text[j + 1])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            out.append('"' + "".join(buf))
            i = j + 1
        else:
            m = re.match(r'[^\s()";]+', text[i:])
            out.append(m.group(0))
            i += len(m.group(0))
    return out


def test_parse_atoms():
    assert parse("hello") == Symbol("hello")
    assert parse('"a b"') == String("a b")
    assert parse("-42") == Integer(-42)
    assert parse("()") == SList()


def test_parse_nested():
    node = parse('(req FR-01 (shall "classify"))')
    assert isinstance(node, SList)
    assert node[0] == Symbol("req")
    assert node[2][1] == String("classify")


def test_comments_skipped():
    node = parse(";; top note\n(a ;; inline\n b)\n;; tail\n")
    assert node == SList([Symbol("a"), Symbol("b")])


def test_canonical_print_minimal():
    assert print_canonical(parse("( a   1 )")) == "(a 1)"
    assert print_canonical(parse("(a (b c) -7)")) == "(a (b c) -7)"


def test_string_escapes_minimal():
    node = String('x"y\\z')
    text = print_canonical(node)
    assert text == '"x\\"y\\\\z"'
    assert parse(text) == node


def test_newline_inside_string_survives():
    node = parse('"line one\nline two"')
    assert node == String("line one\nline two")
    assert parse(print_canonical(node)) == node


def test_unbalanced_parens():
    with pytest.raises(UnbalancedParens):
        parse("(a (b)")
    with pytest.raises(UnbalancedParens):
        parse(")")


def test_unterminated_string():
    with pytest.raises(UnterminatedString):
        parse('"abc')


def test_trailing_garbage():
    with pytest.raises(TrailingGarbage):
        parse("(a) (b)")
    assert [print_canonical(n) for n in parse_all("(a) (b)")] == ["(a)", "(b)"]


def test_integer_range_enforced():
    assert parse(str(2**63 - 1)) == Integer(2**63 - 1)
    with pytest.raises(sexpr.SexprError):
        parse(str(2**63))
    with pytest.raises(ValueError):
        Integer(2**63)


def test_symbol_rejects_ambiguous_text():
    with pytest.raises(ValueError):
        Symbol("42")
    with pytest.raises(ValueError):
        Symbol("has space")
    with pytest.raises(ValueError):
        Symbol("semi;colon")


def test_fingerprint_pinned_value():
    assert fingerprint(parse("(a)")) == FINGERPRINT_OF_A


def test_fingerprint_ignores_surface_whitespace():
    assert fingerprint(parse("(a   1)")) == fingerprint(parse("(a\n 1)"))
    assert fingerprint(parse("(a 1)")) != fingerprint(parse("(a 2)"))


SYMBOL_CHARS = st.sampled_from("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ-_<>=!?*+./:0123456789")


def symbols():
    return st.builds(
        "".join, st.lists(SYMBOL_CHARS, min_size=1, max_size=12)
    ).filter(lambda t: not re.fullmatch(r"[+-]?[0-9]+", t)).map(Symbol)


def strings():
    return st.text(max_size=20).map(String)


def integers():
    return st.integers(min_value=sexpr.INT64_MIN, max_value=sexpr.INT64_MAX).map(Integer)


def trees():
    return st.recursive(
        st.one_of(symbols(), strings(), integers()),
        lambda inner: st.lists(inner, max_size=6).map(SList),
        max_leaves=40,
    )


@settings(max_examples=300, deadline=None)
@given(trees())
def test_round_trip_identity(tree):
    assert parse(print_canonical(tree)) == tree


@settings(max_examples=200, deadline=None)
@given(trees())
def test_canonical_print_stable(tree):
    once = print_canonical(tree)
    assert print_canonical(parse(once)) == once


def test_token_stream_preserved_under_round_trip():
    text = """
    ;; demo artifact fragment
    (nidus-system "Interceptor"
      (requirements
        (req UR-01 (kind sovereignty) (shall "All inference local")))
      (architecture (component Brain (responsibility "Classify"))))
    """
    reprinted = print_canonical(parse(text))
    assert reference_tokens(reprinted) == reference_tokens(text)


# ------------------------------------------------------------ records


class Refused(Exception):
    pass


def record(text, start=1):
    return sexpr.Record(parse(text), start, Refused)


def test_record_reads_each_accessor():
    r = record('(r (name "n") (size 3) (tags a b) (body (x y)) (step 1) (step 2))')
    assert r.one("name", String) == "n"
    assert r.one("size", sexpr.Integer) == 3
    assert r.many("tags", Symbol) == ("a", "b")
    assert r.subtree("body") == parse("(x y)")
    assert r.each("step") == [parse("(step 1)"), parse("(step 2)")]
    r.done()


def test_record_missing_field_with_and_without_default():
    r = record("(r)")
    assert r.one("name", sexpr.TEXT, "anon") == "anon"
    assert r.subtree("body") is None
    assert r.many("tags", Symbol) == ()
    assert r.each("step") == []
    with pytest.raises(Refused, match="missing name"):
        r.one("name", sexpr.TEXT)


@pytest.mark.parametrize("text, read, needle", [
    ("(r (a 1) (a 2))", lambda r: r.one("a", Integer), "repeated field a"),
    ("(r (a 1) (a 2))", lambda r: r.subtree("a"), "repeated field a"),
    ("(r (a 1) (a 2))", lambda r: r.many("a", Integer), "repeated field a"),
    ("(r (a 1) (a 2))", lambda r: r.done(), "unexpected field a"),
    ("(r (a 1 2))", lambda r: r.one("a", Integer), "takes one integer"),
    ("(r (a))", lambda r: r.one("a", Integer), "takes one integer"),
    ("(r (a))", lambda r: r.subtree("a"), "takes one value"),
    ('(r (a "x"))', lambda r: r.one("a", Integer), "takes one integer"),
    ('(r (a x "y"))', lambda r: r.many("a", Symbol), "takes symbol values"),
    ("(r (a 1) (b 2))", lambda r: (r.one("a", Integer), r.done()), "unexpected field b"),
])
def test_record_refusals(text, read, needle):
    with pytest.raises(Refused, match=re.escape(needle)):
        read(record(text))


@pytest.mark.parametrize("node", [Symbol("r"), Integer(1), String("r"), None])
def test_record_refuses_a_non_list_record(node):
    with pytest.raises(Refused, match="expected a list"):
        sexpr.Record(node, 1, Refused)


@pytest.mark.parametrize("text", ["(r x)", "(r ())", "(r (1 2))", '(r ("a" 1))'])
def test_record_refuses_a_field_that_is_not_a_keyed_list(text):
    with pytest.raises(Refused, match=r"expected \(key value \.\.\.\) fields in \(r \.\.\.\)"):
        record(text)


def test_read_head():
    form = parse("(trace T R C D)")
    assert sexpr.read_head(form, "trace", (Symbol,) * 4, Refused, exact=True) == ("T", "R", "C", "D")
    assert sexpr.read_head(form, None, (Symbol,), Refused) == ("trace", "T")
    for tag, kinds, exact in (("req", (Symbol,), False), ("trace", (String,), False),
                              ("trace", (Symbol,) * 5, False), ("trace", (Symbol,), True)):
        with pytest.raises(Refused, match="expected"):
            sexpr.read_head(form, tag, kinds, Refused, exact=exact)
    for node in (Symbol("trace"), SList(), parse("((trace) T)"), None):
        with pytest.raises(Refused, match="expected"):
            sexpr.read_head(node, None, (), Refused)


# Canonical encodings of every record format, each with its reader and
# the typed errors that reader may raise.
DEMO = sandbox.demo_artifact()
RICH = dataclasses.replace(
    DEMO,
    evidence=(model.EvidenceRecord("FEAT-01", "kernel-test-gate", "passed", "ab" * 32, True,
                                   sandbox.DEMO_NOW),),
    lessons=(model.Lesson("LSN-1", "f", "r", "x", "o", ("src/brain.py",), "c", ("c1",), 2),),
    obligations=DEMO.obligations + (model.ProofObligation(
        "PO-GATES", "gate-sequence", "ladder", True, sandbox.GATE_PARAMS),),
)
CHANGE_SET = model.ChangeSet([
    model.AddOp("requirements", parse('(req FR-02 (kind functional) (shall "s") (constraint (x)))')),
    model.RemoveOp("traceability", "TR-02"),
    model.UpdateOp("features", "FEAT-01", model.encode_feature(DEMO.features[0])),
    model.AddOp("coordination", model.encode_evidence(RICH.evidence[0])),
    model.AddOp("guidebooks", parse('(imports "other.guidebook.epoch")')),
], actor="agent-7", intent="rework")
ATTESTATION = wal.Attestation("agent-7", ("FEAT-01",), "pass", "a" * 64, "b" * 64,
                              sandbox.DEMO_NOW, "step")
LEDGER = co.FrictionLedger()
LEDGER.record("agent_rejection", "a", sandbox.DEMO_NOW, ("dag-enforcement",), "FEAT-01")
LEDGER.record("probe_success", "b", sandbox.DEMO_NOW)
CONFIG = """(epochd-config (artifact "a.epoch") (base-dir "b") (wal-dir "w") (friction "f")
  (listen "127.0.0.1" 7700) (witnesses lint "unit-sim")
  (thresholds (theta1 3) (theta2 8) (window 50)) (runner python3 -m pytest))"""
CONSTRAINT = '(guidebook-constraint GC-X (z3_formula (implies a b)) (po-kind k) (description "d"))'


def load_config_text(text):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "epochd.conf")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return dm.load_config(path)


READERS = [
    ("artifact", model.encode(RICH), model.decode, model.ModelError),
    ("change-set", model.change_set_to_sexpr(CHANGE_SET),
     lambda t: model.apply_change_set(RICH, model.change_set_from_sexpr(t)), model.ModelError),
    ("wal-entry", wal.entry_to_sexpr(wal.make_entry(0, wal.ZERO_DIGEST, sandbox.DEMO_ARTIFACT,
                                                    ATTESTATION)),
     wal.entry_from_sexpr, wal.WalError),
    ("attestation", wal.attestation_to_sexpr(ATTESTATION), wal.attestation_from_sexpr,
     wal.WalError),
    ("friction-ledger", parse(co.ledger_to_text(LEDGER)),
     lambda t: co.ledger_from_text(print_canonical(t)), co.CoordinationError),
    ("config", parse(CONFIG), lambda t: load_config_text(print_canonical(t)), ValueError),
    ("guidebook-constraint", parse(CONSTRAINT),
     lambda t: gb.parse_guidebook(print_canonical(t)), gb.GuidebookError),
    ("gates", sandbox.GATE_PARAMS, obligations.parse_gates, ()),
]


def _list_paths(node, path=()):
    if isinstance(node, SList):
        yield path
        for i, child in enumerate(node.items):
            yield from _list_paths(child, path + (i,))


def _at(node, path):
    for i in path:
        node = node.items[i]
    return node


def _replaced(node, path, new):
    if not path:
        return new
    items = list(node.items)
    items[path[0]] = _replaced(items[path[0]], path[1:], new)
    return SList(items)


def _other_kind(node):
    if isinstance(node, Symbol):
        return String(node.text)
    if isinstance(node, String):
        return Integer(7)
    if isinstance(node, Integer):
        return Symbol("seven")
    return Symbol("flat")


def test_every_reader_accepts_its_canonical_encoding():
    for name, tree, read, _ in READERS:
        assert read(tree) is not None, name


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_every_reader_refuses_one_mutation_with_its_own_error(data):
    """One mutation of a canonical record is read or refused with the
    format's own error; never IndexError, TypeError or AttributeError."""
    name, tree, read, errors = data.draw(st.sampled_from(READERS), label="reader")
    path = data.draw(st.sampled_from(list(_list_paths(tree))), label="path")
    items = list(_at(tree, path).items)
    mutation = data.draw(st.sampled_from(
        ["drop", "repeat", "swap-kind", "unknown-field", "empty-list", "bare-symbol"]),
        label="mutation")
    if mutation == "unknown-field" or not items:
        items.append(parse("(zz-unknown 1)"))
    else:
        i = data.draw(st.integers(0, len(items) - 1), label="index")
        if mutation == "drop":
            del items[i]
        elif mutation == "repeat":
            items.insert(i, items[i])
        elif mutation == "swap-kind":
            items[i] = _other_kind(items[i])
        else:
            items[i] = SList() if mutation == "empty-list" else Symbol("oops")
    try:
        read(_replaced(tree, path, SList(items)))
    except errors:
        pass
