"""S-expression reader, canonical printer, and content fingerprint.

Everything the daemon stores or exchanges is one of four node kinds:
symbols, double-quoted strings, signed 64-bit integers, and nested
lists. The canonical printed form (single spaces between siblings,
minimal escaping) is the hashing surface: two trees are identical
exactly when their canonical texts are identical.
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
