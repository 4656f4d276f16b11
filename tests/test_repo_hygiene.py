"""Repo-level invariants a unit test cannot see: one production path,
and docs that only cite evidence that exists.

* The per-message path has one implementation under ``src/``; naive
  forms live in ``tests/oracle.py``.  The retired mode switch must not
  come back under another import, in a bench, or in the Makefile, and
  ``repro/hotpath.py`` — imported by everything — holds no module state.
* One tenant protocol: under ``src/repro/serve/`` placement is compared
  to a literal in exactly one place — where a life's transport is
  chosen — and the retired per-placement paths stay gone.
* README.md / DESIGN.md / EXPERIMENTS.md may name a results file, a
  bench node or a make target only if it is there to be opened or run.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

RETIRED = re.compile(r"reference_mode|reference_enabled|match_reference")
RETIRED_TENANT_PATHS = re.compile(
    r"\bInlineHandle\b|\b_pump\b|_supervise_process"
)


def _text_files(*roots: str):
    for root in roots:
        path = ROOT / root
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for file in files:
            if file.is_file() and "__pycache__" not in file.parts:
                try:
                    yield file, file.read_text(encoding="utf-8")
                except UnicodeDecodeError:
                    continue


def test_no_reference_mode_switch_outside_tests():
    hits = [
        f"{file.relative_to(ROOT)}:{n}: {line.strip()}"
        for file, text in _text_files("src", "benchmarks", "Makefile")
        for n, line in enumerate(text.splitlines(), 1)
        if RETIRED.search(line)
    ]
    assert not hits, "\n".join(hits)


def test_hotpath_module_holds_no_state():
    """Imports and functions only: no module-level binding to mutate,
    no ``global`` to mutate it with."""
    tree = ast.parse((ROOT / "src/repro/hotpath.py").read_text())
    docstring, *body = tree.body
    assert isinstance(docstring, ast.Expr)
    stateful = [
        f"line {node.lineno}: {type(node).__name__}"
        for node in body
        if not isinstance(node, (ast.Import, ast.ImportFrom, ast.FunctionDef))
    ] + [
        f"line {node.lineno}: global {', '.join(node.names)}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Global, ast.Nonlocal))
    ]
    assert not stateful, stateful


def _names_placement(node) -> bool:
    name = getattr(node, "id", None) or getattr(node, "attr", "")
    return "placement" in name


def _is_str_literal(node) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(map(_is_str_literal, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def test_placement_is_read_in_one_place():
    """Placement decides only where a life runs: one comparison picks
    the transport, and no per-placement path comes back."""
    compares = [
        f"{file.relative_to(ROOT)}:{node.lineno}"
        for file in sorted((ROOT / "src/repro/serve").glob("*.py"))
        for node in ast.walk(ast.parse(file.read_text()))
        if isinstance(node, ast.Compare)
        and any(map(_names_placement, [node.left, *node.comparators]))
        and any(map(_is_str_literal, [node.left, *node.comparators]))
    ]
    assert len(compares) == 1, compares
    retired = [
        f"{file.relative_to(ROOT)}:{n}: {line.strip()}"
        for file, text in _text_files("src")
        for n, line in enumerate(text.splitlines(), 1)
        if RETIRED_TENANT_PATHS.search(line)
    ]
    assert not retired, "\n".join(retired)


def _make_targets() -> set[str]:
    makefile = (ROOT / "Makefile").read_text()
    return set(re.findall(r"^([A-Za-z][\w-]*):", makefile, re.MULTILINE))


def _bench_tests(name: str) -> set[str]:
    path = ROOT / "benchmarks" / name
    if not path.exists():
        return set()
    return {
        node.name
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
    }


@pytest.mark.parametrize("doc", DOCS)
def test_docs_cite_only_what_exists(doc):
    text = (ROOT / doc).read_text()
    missing = [
        f"results file {name}"
        for name in re.findall(r"\bresults/([\w.-]+\.txt)", text)
        if not (ROOT / "benchmarks/results" / name).exists()
    ]
    missing += [
        f"bench node {bench}::{test}"
        for bench, test in re.findall(r"\b(bench_\w+\.py)::(\w+)", text)
        if test not in _bench_tests(bench)
    ]
    # Code spans and command lines only: prose says "make one" too.
    targets = _make_targets()
    missing += [
        f"make target {target}"
        for target in re.findall(r"(?:`|^\s*)make ([a-z][\w-]*)", text, re.M)
        if target not in targets
    ]
    assert not missing, f"{doc} cites: " + "; ".join(sorted(set(missing)))
