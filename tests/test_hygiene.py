"""Source hygiene: every module under src/epochd uses each name it
imports, and reads another object's private `_name` only if it
defines that name itself (static checks with the standard library's
ast module). Every evaluator and predicate family declares what it
reads in the known vocabulary, and every frozen record type but
Artifact is slotted."""

import ast
import dataclasses
import pathlib

import pytest

from epochd import model, obligations, predicates, sexpr
from epochd.model import SECTION_ORDER, ProofObligation

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "epochd"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> dict:
    """Name bound by each import statement -> its line number."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def used_names(tree: ast.Module) -> set:
    """Names read anywhere, including inside quoted annotations and
    the strings listed in __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted(name for name in imported_names(tree) if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = ("from dataclasses import dataclass, field\n"
              "import os.path\n"
              "import json as js\n"
              "@dataclass\nclass A:\n    x: 'js.Any' = 0\n")
    assert unused_imports(source) == ["field", "os"]


def foreign_private_reads(source: str) -> list:
    """(line, name) of each `obj._name` read where the module defines
    no `_name` of its own: no def, class, assignment or attribute store."""
    tree = ast.parse(source)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            defined.add(node.attr)
    return sorted(
        (node.lineno, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_") and not node.attr.startswith("__")
        and node.attr not in defined
    )


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_only_private_names_it_defines(path):
    assert foreign_private_reads(path.read_text(encoding="utf-8")) == []


def test_foreign_private_read_is_reported():
    source = ("class A:\n"
              "    def _own(self):\n"
              "        self._seen = self._own()\n"
              "        return self._seen, self.kernel._probes(), self.__class__\n")
    assert foreign_private_reads(source) == [(4, "_probes")]


@pytest.mark.parametrize("module", [model, sexpr], ids=["model", "sexpr"])
def test_frozen_records_are_slotted(module):
    """Artifact alone keeps a __dict__: its text is a cached_property."""
    frozen = [cls for cls in vars(module).values()
              if dataclasses.is_dataclass(cls) and isinstance(cls, type)
              and cls.__module__ == module.__name__ and cls.__dataclass_params__.frozen]
    assert len(frozen) > 3
    assert [cls.__name__ for cls in frozen if "__slots__" not in vars(cls)] == \
        (["Artifact"] if module is model else [])


# Inputs an evaluator may read besides the artifact's sections.
CALL_INPUTS = frozenset({"change-set", "clock", "history", "probes"})


def test_every_builtin_kind_declares_known_reads():
    registry = obligations.builtin_registry()
    for kind in sorted(registry.registered_kinds()):
        reads = registry.reads(ProofObligation("PO", kind))
        assert reads <= set(SECTION_ORDER) | CALL_INPUTS, (kind, reads)


def test_every_known_predicate_belongs_to_a_family_with_declared_reads():
    allowed = set(SECTION_ORDER) | CALL_INPUTS
    declared = set(predicates.GRAPH_PREDICATES)
    assert predicates.GRAPH_READS <= allowed
    for _, family, reads in predicates.FAMILIES:
        assert reads and reads <= allowed, reads
        declared |= family
    assert predicates.KNOWN_PREDICATES <= declared
