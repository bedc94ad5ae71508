"""S-expression reader, canonical printer, content fingerprint, and
the one reader of record fields.

Everything the daemon stores or exchanges is one of four node kinds:
symbols, double-quoted strings, signed 64-bit integers, and nested
lists. The canonical printed form (single spaces between siblings,
minimal escaping) is the hashing surface: two trees are identical
exactly when their canonical texts are identical.

Every record format (artifact elements, change sets, WAL entries,
attestations, friction events, daemon config, guidebook constraints,
gate declarations) is a list with a positional head, read by
`read_head`, followed by `(key value...)` fields, read by `Record`.
All of them follow one field policy: a field appears at most once,
takes exactly its arity, and an unknown field is refused. A refusal
is the exception the format's own `fail(message)` factory builds.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# Characters that terminate a symbol token. Semicolons are excluded
# from symbols so comments can never hide inside a round-tripped atom.
_DELIMS = set('()";')
_INT_RE = re.compile(r"[+-]?[0-9]+\Z")


class SexprError(Exception):
    """Base error for malformed S-expression text."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class UnbalancedParens(SexprError):
    pass


class UnterminatedString(SexprError):
    pass


class TrailingGarbage(SexprError):
    pass


@dataclass(frozen=True)
class Symbol:
    text: str

    def __post_init__(self):
        if not self.text:
            raise ValueError("empty symbol")
        for ch in self.text:
            if ch.isspace() or ch in _DELIMS:
                raise ValueError(f"illegal character {ch!r} in symbol {self.text!r}")
        if _INT_RE.match(self.text):
            raise ValueError(f"symbol {self.text!r} would re-read as an integer")


@dataclass(frozen=True)
class String:
    text: str


@dataclass(frozen=True)
class Integer:
    value: int

    def __post_init__(self):
        if not (INT64_MIN <= self.value <= INT64_MAX):
            raise ValueError(f"integer {self.value} outside signed 64-bit range")


@dataclass(frozen=True)
class SList:
    items: tuple

    def __init__(self, items=()):
        object.__setattr__(self, "items", tuple(items))

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, i):
        return self.items[i]


SExpr = object  # union of Symbol | String | Integer | SList


def _skip_blank(text: str, i: int) -> int:
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        else:
            break
    return i


def _read(text: str, i: int):
    n = len(text)
    i = _skip_blank(text, i)
    if i >= n:
        raise UnbalancedParens("unexpected end of input", i)
    ch = text[i]
    if ch == "(":
        items = []
        i += 1
        while True:
            i = _skip_blank(text, i)
            if i >= n:
                raise UnbalancedParens("unclosed list", i)
            if text[i] == ")":
                return SList(items), i + 1
            node, i = _read(text, i)
            items.append(node)
    if ch == ")":
        raise UnbalancedParens("unmatched close paren", i)
    if ch == '"':
        return _read_string(text, i)
    return _read_atom(text, i)


def _read_string(text: str, i: int):
    n = len(text)
    start = i
    i += 1
    out = []
    while i < n:
        ch = text[i]
        if ch == "\\":
            if i + 1 >= n:
                raise UnterminatedString("dangling escape", i)
            nxt = text[i + 1]
            if nxt not in ('"', "\\"):
                raise SexprError(f"unsupported escape \\{nxt}", i)
            out.append(nxt)
            i += 2
        elif ch == '"':
            return String("".join(out)), i + 1
        else:
            out.append(ch)
            i += 1
    raise UnterminatedString("unterminated string literal", start)


def _read_atom(text: str, i: int):
    n = len(text)
    start = i
    while i < n:
        ch = text[i]
        if ch.isspace() or ch in _DELIMS:
            break
        i += 1
    token = text[start:i]
    if _INT_RE.match(token):
        value = int(token)
        if not (INT64_MIN <= value <= INT64_MAX):
            raise SexprError(f"integer literal {token} outside 64-bit range", start)
        return Integer(value), i
    return Symbol(token), i


def parse(text: str):
    """Read exactly one S-expression; anything besides trailing blanks
    and comments after it is an error."""
    node, i = _read(text, 0)
    i = _skip_blank(text, i)
    if i < len(text):
        raise TrailingGarbage(f"trailing content at offset {i}", i)
    return node


def parse_all(text: str) -> list:
    """Read a whole file as a sequence of top-level S-expressions."""
    nodes = []
    i = _skip_blank(text, 0)
    while i < len(text):
        node, i = _read(text, i)
        nodes.append(node)
        i = _skip_blank(text, i)
    return nodes


# Framing modes, each with the characters that can end or change it.
_FRAME_STOPS = {
    "blank": re.compile(r"\S"),        # before the first form
    "list": re.compile(r'[()";]'),
    "string": re.compile(r'["\\]'),
    "escape": re.compile(r".", re.S),
    "comment": re.compile(r"\n"),
}


class Framer:
    """Finds where the first top-level form ends in text that arrives
    piece by piece, by the lexical rules of `parse`. Mode and depth carry
    over between pieces, so each is scanned once. Escapes and integer
    ranges are left to `parse`, once the form is framed."""

    def __init__(self):
        self.mode, self.depth, self.done = "blank", 0, False

    def feed(self, text: str) -> bool:
        """Scan the next piece; True once the first form has ended."""
        i = 0
        while not self.done and (m := _FRAME_STOPS[self.mode].search(text, i)):
            i, ch, mode = m.end(), m.group(), self.mode
            if mode == "escape":
                self.mode = "string"
            elif mode == "comment":
                self.mode = "list" if self.depth else "blank"
            elif mode == "string":
                self.mode = "escape" if ch == "\\" else "list"
                self.done = ch == '"' and self.depth == 0
            elif ch in ';"':
                self.mode = "comment" if ch == ";" else "string"
            elif ch == "(":
                self.mode, self.depth = "list", self.depth + 1
            elif ch == ")" and self.depth:
                self.depth -= 1
                self.done = self.depth == 0
            else:
                self.done = True  # an atom, or a leading ')', ends the form
        return self.done


def escape_string(raw: str) -> str:
    return raw.replace("\\", "\\\\").replace('"', '\\"')


def print_canonical(node) -> str:
    if isinstance(node, Symbol):
        return node.text
    if isinstance(node, String):
        return '"' + escape_string(node.text) + '"'
    if isinstance(node, Integer):
        return str(node.value)
    if isinstance(node, SList):
        return "(" + " ".join(print_canonical(it) for it in node.items) + ")"
    raise TypeError(f"not an S-expression node: {node!r}")


def fingerprint(node) -> str:
    """SHA-256 of the canonical text, lowercase hex."""
    return hashlib.sha256(print_canonical(node).encode("utf-8")).hexdigest()


def fingerprint_text(text: str) -> str:
    """SHA-256 of already-canonical text, lowercase hex."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------- records

# Node kinds of a prose value: a quoted string or a bare symbol.
TEXT = (String, Symbol)


def _kind_names(kinds) -> str:
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    return "|".join("list" if k is SList else k.__name__.lower() for k in kinds)


def _show(node) -> str:
    return "nothing" if node is None else print_canonical(node)


def _value(node):
    """An atom's Python value; a list stands for itself."""
    kind = type(node)
    if kind is String or kind is Symbol:
        return node.text
    return node.value if kind is Integer else node


def read_head(form, tag, kinds, fail, exact=False) -> tuple:
    """Check that `form` is a list `(tag X1 ... Xn ...)` whose Xi have
    node kinds `kinds[i]`, and return the values of X1 ... Xn. A tag of
    None admits any symbol and returns it first. With `exact`, nothing
    may follow Xn."""
    items = form.items if type(form) is SList else ()
    n = len(kinds) + 1
    if (len(items) >= n and (len(items) == n or not exact) and type(items[0]) is Symbol
            and (tag is None or items[0].text == tag)):
        values = [items[0].text] if tag is None else []
        for i in range(1, n):
            node = items[i]
            if not isinstance(node, kinds[i - 1]):
                break
            kind = type(node)
            values.append(node.text if kind is String or kind is Symbol else _value(node))
        else:
            return tuple(values)
    shape = " ".join([tag or "symbol"] + [_kind_names(k) for k in kinds])
    raise fail(f"expected ({shape}{'' if exact else ' ...'}), got {_show(form)}")


def read_values(form: SList, kinds, fail) -> tuple:
    """The values of every item of `form` after its head, each of one
    of the node kinds `kinds`."""
    values = []
    for node in form.items[1:]:
        if not isinstance(node, kinds):
            raise fail(f"{form.items[0].text} takes {_kind_names(kinds)} values, "
                       f"got {print_canonical(node)}")
        values.append(_value(node))
    return tuple(values)


class Record:
    """The `(key value...)` fields of `form` from index `start` on.

    Each field must be a list headed by a symbol. A field appears at
    most once: every accessor but `each` refuses a repeated key. Each
    accessor consumes its key; `done` refuses whatever is left, so an
    unknown field is never dropped silently. Every refusal raises
    `fail(message)`."""

    __slots__ = ("_fields", "_repeats", "_fail")

    def __init__(self, form, start: int, fail):
        if type(form) is not SList:
            raise fail(f"expected a list, got {_show(form)}")
        fields = {}
        repeats = None
        for item in form.items[start:]:
            if type(item) is not SList or not item.items or type(item.items[0]) is not Symbol:
                where = f" in ({print_canonical(form.items[0])} ...)" if start else ""
                raise fail(f"expected (key value ...) fields{where}, got {print_canonical(item)}")
            key = item.items[0].text
            if key in fields:
                if repeats is None:
                    repeats = {}
                repeats.setdefault(key, [fields[key]]).append(item)
            else:
                fields[key] = item
        self._fields = fields
        self._repeats = repeats
        self._fail = fail

    def form(self, key: str):
        """The whole `(key ...)` form of a field, or None when absent."""
        item = self._fields.pop(key, None)
        if item is not None and self._repeats is not None and key in self._repeats:
            raise self._fail(f"repeated field {key}")
        return item

    def one(self, key: str, kinds, default=None):
        """The value of a one-value field whose node has one of `kinds`.
        Without a default the field is required."""
        item = self._fields.pop(key, None)
        if item is None:
            if default is None:
                raise self._fail(f"missing {key}")
            return default
        if self._repeats is not None and key in self._repeats:
            raise self._fail(f"repeated field {key}")
        items = item.items
        if len(items) != 2 or not isinstance(items[1], kinds):
            raise self._fail(f"field {key} takes one {_kind_names(kinds)}, "
                             f"got {print_canonical(item)}")
        node = items[1]
        kind = type(node)
        return node.text if kind is String or kind is Symbol else _value(node)

    def subtree(self, key: str):
        """The one node of an opaque field, of any kind, or None."""
        item = self.form(key)
        if item is None:
            return None
        if len(item.items) != 2:
            raise self._fail(f"field {key} takes one value, got {print_canonical(item)}")
        return item.items[1]

    def many(self, key: str, kinds) -> tuple:
        """The values of a field of any arity whose nodes all have one of
        `kinds`; () when absent."""
        item = self.form(key)
        return () if item is None else read_values(item, kinds, self._fail)

    def each(self, key: str) -> list:
        """Every `(key ...)` form of a key that may repeat, in order."""
        item = self._fields.pop(key, None)
        if item is None:
            return []
        if self._repeats is not None and key in self._repeats:
            return self._repeats[key]
        return [item]

    def rest(self) -> list:
        """The forms of the fields no accessor read, in order."""
        if self._repeats is not None:
            for key in self._fields:
                if key in self._repeats:
                    raise self._fail(f"repeated field {key}")
        rest = list(self._fields.values())
        self._fields.clear()
        return rest

    def done(self):
        """Refuse every field no accessor read."""
        if self._fields:
            raise self._fail("unexpected field " + ", ".join(self._fields))
