"""Architecture fitness: the lower layers never import the upper ones.

ROADMAP item 3 ("Remove code the system does not need") asks for a
layering fitness test: crypto → chain → core → rpc never reach up into
the facade, the simulator, the reports or the CLI.  This is what keeps
the one service loop, :meth:`repro.core.session.SessionEngine.serve`,
below the facade: :mod:`repro.rpc` drives it directly and never imports
:mod:`repro.dragoon`.

Every ``import`` and ``from … import`` statement counts, including the
ones inside functions (a deferred import is still a dependency), and
relative imports are resolved against their package.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, Iterator

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

LOWER = (
    "repro.crypto",
    "repro.ledger",
    "repro.storage",
    "repro.chain",
    "repro.core",
    "repro.store",
    "repro.rpc",
    "repro.lightclient",
)
UPPER = ("repro.dragoon", "repro.sim", "repro.reporting", "repro.cli")


def _within(name: str, prefixes) -> bool:
    return any(name == p or name.startswith(p + ".") for p in prefixes)


def module_name(path: pathlib.Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def imported_names(source: str, module: str, is_package: bool) -> Iterator[str]:
    """Every module an AST's import statements name (``from a import b``
    yields both ``a`` and ``a.b``: ``b`` may be a submodule)."""
    package = module if is_package else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            yield base
            for alias in node.names:
                yield "%s.%s" % (base, alias.name)


def lower_modules() -> Dict[str, pathlib.Path]:
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        name = module_name(path)
        if _within(name, LOWER):
            found[name] = path
    return found


LOWER_MODULES = lower_modules()


def test_every_lower_layer_is_scanned():
    scanned = set(LOWER_MODULES)
    for layer in LOWER:
        assert any(_within(name, [layer]) for name in scanned), layer
    assert "repro.core.session" in scanned
    assert "repro.rpc.harness" in scanned


def test_the_scanner_sees_deferred_and_relative_imports():
    source = (
        "import os\n"
        "def late():\n"
        "    from repro import dragoon\n"
        "    from ..sim import runner\n"
    )
    names = set(imported_names(source, "repro.rpc.harness", False))
    assert "repro.dragoon" in names
    assert "repro.sim.runner" in names


@pytest.mark.parametrize("module", sorted(LOWER_MODULES))
def test_lower_layers_never_import_upward(module):
    path = LOWER_MODULES[module]
    source = path.read_text(encoding="utf-8")
    upward = sorted(
        {
            name
            for name in imported_names(
                source, module, path.name == "__init__.py"
            )
            if _within(name, UPPER)
        }
    )
    assert not upward, "%s imports %s" % (module, ", ".join(upward))


def test_cli_families_share_only_the_common_module():
    """Each CLI family declares its flags beside its own handlers; the
    one part of ``repro.cli`` a family may import is ``repro.cli.common``."""
    families = sorted((SRC / "repro" / "cli").glob("*.py"))
    assert {path.name for path in families} >= {"common.py", "node.py"}
    for path in families:
        if path.name in ("__init__.py", "__main__.py", "common.py"):
            continue
        module = module_name(path)
        reached = {
            name
            for name in imported_names(path.read_text(encoding="utf-8"), module, False)
            if _within(name, ["repro.cli"])
        }
        assert all(_within(name, ["repro.cli.common"]) for name in reached), (
            "%s imports %s" % (module, ", ".join(sorted(reached)))
        )
