"""Repo-level invariants a unit test cannot see: one production path,
and docs that only cite evidence that exists.

* The per-message path has one implementation under ``src/``; naive
  forms live in ``tests/oracle.py``.  The retired mode switch must not
  come back under another import, in a bench, or in the Makefile, and
  ``repro/hotpath.py`` — imported by everything — holds no module state.
* One tenant protocol: under ``src/repro/serve/`` placement is compared
  to a literal in exactly one place — where a life's transport is
  chosen — and the retired per-placement paths stay gone; likewise only
  ``TenantLife`` reads ``poll_interval``, so both transports share one
  idle-wait rule.
* The docs may name a results file, a bench node, a make target or a
  ``src/repro`` module only if it is there to be opened or run.
* Reachability ratchet: every ``src/repro`` module is in the static
  import closure of an entry point, so code nothing runs does not come
  back as a library nobody calls.
* Knob ratchet: the field sets of the config dataclasses and the option
  set of every CLI subcommand are pinned, so a knob is added or removed
  only on purpose, and retired knobs (and retired fault seams) stay gone
  from ``src/``.
* Product / lab boundary: the serve daemon and its worker never import
  the simulator, the baselines or the evaluation code.
* One way to read a log: ``syslog/`` decodes bytes in exactly one place,
  ``cli.py`` opens no file itself, and the retired readers and feed merge
  stay gone from code and docs.
* Live state is counted once: no metric-name constant in
  ``obs/registry.py`` names a series ``publish_health`` derives from the
  documented health keys, so a hand-written registry mirror cannot
  come back beside the health dict it would copy.
"""

from __future__ import annotations

import argparse
import ast
import re
from dataclasses import fields
from functools import cache
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.core.config import DigestConfig, IngestConfig
from repro.core.stream import HEALTH_KEYS
from repro.obs import MetricsRegistry, publish_health
from repro.obs import registry as obs_registry
from repro.serve import ServeConfig
from repro.serve.tenant import BUDGET_HEALTH_KEYS, TenantBudget, TenantSpec
from repro.syslog.ingest import INGEST_HEALTH_KEYS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/PAPER_MAPPING.md")

RETIRED = re.compile(r"reference_mode|reference_enabled|match_reference")
RETIRED_READERS = re.compile(
    r"read_source|resilient_read_log|SourceFailed|merge_streams|split_by_day"
)
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


#: Calls that wait: a transport's idle wait goes through one of these.
WAITS = {"sleep", "poll_frame", "select", "wait_for"}


def _called_name(call: ast.Call) -> str:
    return getattr(call.func, "attr", None) or getattr(call.func, "id", "")


def _poll_interval_reads(tree: ast.Module):
    """``(enclosing class, node)`` for every read of ``poll_interval``:
    an attribute load or a ``["poll_interval"]`` subscript."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.ClassDef) else owner
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "poll_interval"
                and isinstance(child.ctx, ast.Load)
            ) or (
                isinstance(child, ast.Subscript)
                and isinstance(child.slice, ast.Constant)
                and child.slice.value == "poll_interval"
            ):
                yield owner, child
            yield from walk(child, inner)

    yield from walk(tree, None)


def test_one_idle_wait_rule():
    """How long an idle tenant waits is decided in one place for both
    transports: only ``TenantLife`` reads ``poll_interval`` (the daemon
    hands its config value to a life's init, once), and no sleep or
    frame poll is handed ``poll_interval`` directly."""
    outside = []
    direct = []
    for file in sorted((ROOT / "src/repro/serve").glob("*.py")):
        tree = ast.parse(file.read_text())
        where = file.relative_to(ROOT)
        for owner, node in _poll_interval_reads(tree):
            if owner != "TenantLife":
                outside.append((f"{where}", ast.unparse(node)))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and _called_name(node) in WAITS
                and "poll_interval" in ast.unparse(node)
            ):
                direct.append(f"{where}:{node.lineno}: {ast.unparse(node)}")
    assert outside == [
        ("src/repro/serve/daemon.py", "self.config.poll_interval")
    ], outside
    assert not direct, "\n".join(direct)


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


@cache
def _modules() -> dict[str, Path]:
    """Dotted name -> file of every ``src/repro`` module and package."""
    out = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


@cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _is_package(module: str) -> bool:
    return _modules()[module].name == "__init__.py"


def _from_base(node: ast.ImportFrom, module: str | None) -> str | None:
    """The absolute module a ``from ... import`` reads from."""
    if not node.level:
        return node.module
    if module is None:  # a script's relative import never names repro
        return None
    parts = module.split(".")
    if not _is_package(module):
        parts.pop()
    parts = parts[: len(parts) - node.level + 1]
    return ".".join(parts + ([node.module] if node.module else []))


def _defining_module(base: str, name: str) -> str | None:
    """The module that defines ``name`` as imported from ``base``: a
    package's re-export resolves to its source, not to the package."""
    modules = _modules()
    if f"{base}.{name}" in modules:
        return f"{base}.{name}"
    if base not in modules:
        return None
    if _is_package(base):
        for node in _tree(modules[base]).body:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        source = _from_base(node, base)
                        return _defining_module(source, alias.name)
    return base


def _imports(path: Path, module: str | None):
    """Every ``repro`` module ``path`` imports, function bodies too."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name in _modules())
        elif isinstance(node, ast.ImportFrom):
            base = _from_base(node, module)
            for alias in node.names if base else ():
                if alias.name == "*":
                    target = base if base in _modules() else None
                else:
                    target = _defining_module(base, alias.name)
                if target:
                    yield target


def import_closure(entries) -> set[str]:
    """The ``src/repro`` modules the ``entries`` reach by static import.

    An entry is a dotted module name or a script path.  Nothing is
    executed: the closure is read from the ``ast``.  A package counts as
    reached with any module under it, but its own re-exports are not
    followed — a name imported through it reaches the module that
    defines it, not the whole package.
    """
    reached: set[str] = set()
    todo = [entry for entry in entries if isinstance(entry, str)]
    for entry in entries:
        if isinstance(entry, Path):
            todo.extend(_imports(entry, None))
    while todo:
        module = todo.pop()
        if module in reached:
            continue
        parts = module.split(".")
        reached.update(".".join(parts[:n]) for n in range(1, len(parts) + 1))
        if not _is_package(module):
            todo.extend(_imports(_modules()[module], module))
    return reached


def entry_points() -> list:
    """What runs: the CLI (``repro serve`` included), the worker module
    placement launches with ``-m``, the benches and the ledger, and the
    examples the README documents."""
    return [
        "repro.cli",
        "repro.serve.worker",
        *sorted((ROOT / "benchmarks").glob("*.py")),
        *(
            path
            for path in sorted((ROOT / "benchmarks/ledger").glob("*.py"))
            if path.name != "test_ledger.py"
        ),
        *sorted((ROOT / "examples").glob("*.py")),
    ]


#: Modules no entry point reaches that stay anyway, each with its reason.
UNREACHED_ALLOWED = {
    "repro.netsim.validate": "the simulator's invariant check, run on the "
    "shipped datasets by tests/test_netsim_validate.py",
}


#: What the product must never import: the simulator, the baselines it is
#: compared against, and the scoring of its output.
LAB = ("repro.netsim", "repro.baselines", "repro.evaluation")


def test_product_never_imports_the_lab():
    """The daemon and its worker reach fault injection only through the
    one seam (``repro.utils.inject``) — never the simulator's profiles."""
    closure = import_closure(["repro.serve.daemon", "repro.serve.worker"])
    lab = sorted(
        module
        for module in closure
        if any(module == p or module.startswith(p + ".") for p in LAB)
    )
    assert not lab, f"the product imports the lab: {lab}"


def test_every_module_is_reachable():
    unreached = set(_modules()) - import_closure(entry_points())
    assert unreached == set(UNREACHED_ALLOWED), (
        f"not reached from any entry point: {sorted(unreached)}; delete "
        "them, or allowlist one with its reason in UNREACHED_ALLOWED"
    )


def _package_names(package: str) -> set[str]:
    """Names a package's ``__init__`` imports or defines."""
    names = set()
    for node in _tree(_modules()[package]).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(getattr(t, "id", "") for t in node.targets)
    return names


def _cites_module(dotted: str) -> bool:
    """``repro.a.b.rest`` exists down to its first non-package segment:
    ``a`` and ``b`` are modules or names their package exports."""
    package = "repro"
    for name in dotted.split(".")[1:3]:
        if f"{package}.{name}" not in _modules():
            return name in _package_names(package)
        package = f"{package}.{name}"
        if not _is_package(package):
            return True
    return True


def _module_citations(text: str) -> list[str]:
    """``src/repro`` modules the text names: ``[src/][repro/]pkg/mod.py``
    paths, ``repro.pkg.mod`` anywhere, and code spans that are exactly
    ```pkg.mod``` (longer spans are ledger row names, not modules)."""
    packages = "|".join(
        name.rsplit(".", 1)[1]
        for name in _modules()
        if name.count(".") == 1 and _is_package(name)
    )
    path_re = rf"(?<![\w./-])(?:src/)?(?:repro/)?((?:{packages})/[\w/]+\.py)"
    missing = [
        f"module path {path}"
        for path in re.findall(path_re, text)
        if not (SRC / "repro" / path).exists()
    ]
    missing += [
        f"module {dotted}"
        for dotted in re.findall(r"\brepro(?:\.\w+)+", text)
        + [
            f"repro.{span}"
            for span in re.findall(rf"`((?:{packages})\.\w+)`", text)
        ]
        if not _cites_module(dotted)
    ]
    return missing


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
    missing += _module_citations(text)
    assert not missing, f"{doc} cites: " + "; ".join(sorted(set(missing)))


CONFIG_FIELDS = {
    DigestConfig: (
        "tree_k tree_min_support max_messages_per_code window sp_min "
        "conf_min temporal cross_router_window enable_temporal "
        "enable_rules enable_cross_router idle_flush skew_tolerance "
        "n_workers stream_workers max_open_messages"
    ),
    IngestConfig: (
        "max_reorder_delay max_buffer_messages dedup_window "
        "admit_soft_limit admit_hard_limit"
    ),
    TenantSpec: (
        "name sources workdir kb_path store_dir "
        "checkpoint_every max_reorder_delay dedup_window "
        "degraded_max_open quarantine_max_bytes placement budget"
    ),
    TenantBudget: "max_open_messages journal_max_bytes rpc_deadline",
    ServeConfig: (
        "tenants host port workdir poll_interval once max_restarts "
        "base_delay progress_deadline drain_deadline http_read_deadline "
        "http_max_header_bytes http_max_body_bytes max_longpoll_waiters "
        "longpoll_max_wait faults"
    ),
}

CLI_OPTIONS = {
    "generate": "--dataset --days --out --scale --seed --start",
    "learn": "--configs --kb --log --no-fit --store",
    "digest": (
        "--dedup-window --ingest --kb --log --max-reorder-delay --metrics "
        "--quarantine --source --store --top --workers"
    ),
    "serve": "--config --once --placement --port",
    "resume": "--checkpoint --kb --log --metrics --store --top",
    "report": "--kb --log --metrics --workers",
    "stats": (
        "--checkpoint --checkpoint-interval --format --kb --log "
        "--quarantine --store --stream --workers"
    ),
    "sources": (
        "--dedup-window --journal --kb --log --max-reorder-delay --metrics "
        "--store --workers"
    ),
    "requeue": "--kb --keep --quarantine --store --top --workers",
    "refresh": "--canary --configs --half-life --log --note --store",
    "promote": "--canary --candidate --note --store",
    "rollback": "--store --to",
    "kb-log": "--json --store",
    "trends": "--kb --log --min-factor --top",
    "rhythms": "--kb --log --top",
}

RETIRED_KNOBS = re.compile(
    r"\b(swap_now|with_swap_policy|with_checkpointing|_maybe_checkpoint"
    r"|shed_policy|swap_policy|batch_size"
    r"|install_fault_hook|step_fault_hook|crash_after|pump_fault"
    r"|durable_fault_from_dict|stream_fault_hook"
    r"|max_stream_procs|stream_procs|stall_timeout|record_failure"
    r"|probe_base_delay|probe_max_retries|breaker_failure_threshold"
    r"|seq_gaps|sequence_gaps|budget-clamped"
    r"|record_metrics|publish_budgets|BUDGET_GAUGES)\b"
)


@pytest.mark.parametrize("config", CONFIG_FIELDS, ids=lambda c: c.__name__)
def test_config_fields_are_pinned(config):
    assert [f.name for f in fields(config)] == CONFIG_FIELDS[config].split()


def test_cli_options_are_pinned():
    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = {
        name: " ".join(
            sorted(
                flag
                for action in parser._actions
                for flag in action.option_strings
                if flag not in ("-h", "--help")
            )
        )
        for name, parser in subparsers.choices.items()
    }
    assert options == {
        name: " ".join(sorted(flags.split()))
        for name, flags in CLI_OPTIONS.items()
    }


def test_retired_knobs_stay_gone():
    hits = [
        f"{file.relative_to(ROOT)}:{n}: {line.strip()}"
        for file, text in _text_files("src")
        for n, line in enumerate(text.splitlines(), 1)
        if RETIRED_KNOBS.search(line)
    ]
    assert not hits, "\n".join(hits)


def test_no_metric_constant_mirrors_a_health_key():
    derived = MetricsRegistry()
    for section, keys in (
        ("stream", HEALTH_KEYS),
        ("ingest", INGEST_HEALTH_KEYS),
        ("budget", BUDGET_HEALTH_KEYS),
    ):
        publish_health(derived, section, dict.fromkeys(keys, 0))
    names = {name for name, _ in derived.gauges()}
    assert len(names) == (
        len(HEALTH_KEYS) + len(INGEST_HEALTH_KEYS) + len(BUDGET_HEALTH_KEYS)
    )
    constants = {
        attr: value
        for attr, value in vars(obs_registry).items()
        if attr.isupper() and isinstance(value, str)
    }
    assert "STAGE_SECONDS" in constants
    mirrors = sorted(
        attr
        for attr, value in constants.items()
        if value in names or value.removesuffix("_total") in names
    )
    assert not mirrors, f"health keys mirrored by hand: {mirrors}"


def test_one_way_to_read_a_log():
    retired = [
        f"{file.relative_to(ROOT)}:{n}: {line.strip()}"
        for file, text in _text_files("src", "benchmarks", "examples", *DOCS)
        for n, line in enumerate(text.splitlines(), 1)
        if RETIRED_READERS.search(line)
    ]
    assert not retired, "\n".join(retired)
    decodes = [
        f"{file.relative_to(ROOT)}:{n}"
        for file, text in _text_files("src/repro/syslog")
        for n, line in enumerate(text.splitlines(), 1)
        if ".decode(" in line
    ]
    assert len(decodes) == 1, decodes
    opens = [
        f"cli.py:{node.lineno}"
        for node in ast.walk(_tree(SRC / "repro/cli.py"))
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "open"
    ]
    assert not opens, f"logs are read through repro.syslog.stream: {opens}"
