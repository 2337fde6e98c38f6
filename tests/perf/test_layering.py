"""The harness depends on the product, never the reverse.

``repro.perf`` is measurement code; nothing else under ``src/repro/`` may
import it (a server that needs the benchmark harness to build its models
keeps the harness alive by accident).  Module names are resolved from
the AST, not grepped: ``repro.arch`` has its own ``perf.py``.
"""

import ast
import pathlib

import repro

PACKAGE_ROOT = pathlib.Path(repro.__file__).resolve().parent


def imported_modules(path: pathlib.Path):
    """Absolute dotted names of everything ``path`` imports."""
    package = ("repro",) + path.relative_to(PACKAGE_ROOT).parts[:-1]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            # level 1 is this file's package, each further dot one up
            base = (package[:len(package) + 1 - node.level]
                    if node.level else ())
            module = ".".join(base + ((node.module,) if node.module else ()))
            yield module
            # ``from .. import perf`` names the submodule in the alias
            for alias in node.names:
                yield f"{module}.{alias.name}"


def test_nothing_outside_the_harness_imports_repro_perf():
    offenders = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        if path.relative_to(PACKAGE_ROOT).parts[0] == "perf":
            continue
        offenders += [f"{path.relative_to(PACKAGE_ROOT)}: {name}"
                      for name in imported_modules(path)
                      if name == "repro.perf"
                      or name.startswith("repro.perf.")]
    assert not offenders, offenders
