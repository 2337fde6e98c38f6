#!/usr/bin/env python
"""Docs drift gate: the docs must exist, be reachable, and stay complete.

Thirteen rules, each failing the check set (exit 1) the way a broken test
would:

1. ``README.md`` and ``docs/architecture.md`` exist and mention every
   package directory under ``src/repro/*`` as a qualified name
   (``repro.<package>`` or ``repro/<package>`` — a bare substring would
   be vacuously satisfied for short names like ``nn`` or ``core``).
2. Every ``docs/*.md`` file is linked from ``README.md`` (an undocumented
   doc is an unreachable doc).
3. Every ``python -m repro`` subcommand appears in the docs corpus
   (``README.md`` + ``docs/*.md``) as ``repro <subcommand>`` — adding an
   experiment without telling operators it exists fails the gate.
4. Every long flag of the ``serve`` option group (the serving CLI
   surface, including the HTTP front end's flags) appears literally in
   the corpus — the wire/operator docs cannot silently trail the CLI.
5. Every wire error code of ``repro.serving.ERROR_CODES`` appears
   backticked in the corpus — the error reference of ``docs/serving.md``
   cannot silently trail the protocol.
6. Every runtime execution backend of ``repro.runtime.BACKENDS`` appears
   backticked in the corpus, along with the ``FORMS_BACKEND`` override —
   adding an execution tier without documenting when it wins fails the
   gate.
7. Every metric name of ``repro.obs.METRIC_CATALOG`` appears backticked
   in ``docs/observability.md`` specifically — the exported ``/metrics``
   surface and its operator reference cannot drift apart.
8. Every SSE event type of ``repro.serving.wire.STREAM_EVENTS`` appears
   backticked in ``docs/serving.md`` specifically — the streaming
   protocol's event vocabulary and its operator reference cannot drift
   apart (the front end refuses to emit an undocumented type; this rule
   keeps "documented" honest).
9. Every backticked token ending in ``.py`` or ``.sh`` in ``README.md``,
   ``docs/*.md`` and ``benchmarks/README.md``, and every ``*.md`` name in
   the code of ``src/`` and ``examples/`` (a quoted string literal such as
   an output file name excepted), resolves — exactly, as a path suffix, or
   as a glob — to a tracked file: deleting or renaming a script or a
   document without sweeping the prose that sends readers to it fails the
   gate.  (``benchmarks/e2e/README.md`` is outside the corpus: only a
   benchmark PR may edit that directory.)
10. Every key of an empty ``ServerStats().snapshot(queue_depth=0)`` (the
    ``GET /v1/stats`` body) appears backticked in ``docs/serving.md``,
    and every ``/v1/usage`` cell field (``ServerStats().usage()``) in
    ``docs/observability.md`` — a count added to the one stats store
    cannot reach the wire undocumented.
11. The set of ``"FORMS_..."`` string literals in ``src/**/*.py`` (the
    environment variables the code reads) equals the set of backticked
    ``FORMS_...`` names in the corpus — an undocumented variable and a
    documented one that nothing reads both fail the gate.
12. The backticked, slash-separated rung list in the
    ``forms_engine_profile_seconds`` row of ``docs/observability.md``
    equals the names of ``repro.reram.TIERS``, in ladder order — the
    ``tier`` label's documented values cannot trail the dispatch ladder.
13. Every Sphinx cross-reference to a ``repro.…`` name in ``src/**/*.py``
    (``:class:``, ``:func:``, ``:meth:``, ``:mod:``, ``:data:``,
    ``:attr:``, ``:exc:``; a reference broken across lines included) and
    every backticked dotted ``repro.…`` name in ``README.md`` and
    ``docs/*.md`` resolves by import plus ``getattr`` (a dataclass field
    counts) — deleting or renaming a module, class or function without
    sweeping the prose that names it fails the gate.

Rules 3-8, 10, 12 and 13 introspect the real parser
(``repro.cli.build_parser``), the real wire contract
(``repro.serving.wire.ERROR_CODES``), the real
executor surface (``repro.runtime.BACKENDS``), the real metric
catalog (``repro.obs.metric_names``), the real event vocabulary
(``repro.serving.wire.STREAM_EVENTS``), the real stats store
(``repro.serving.ServerStats``) and the real dispatch ladder
(``repro.reram.TIERS``), so the gate tracks the code by
construction.  Run by ``scripts/checks.sh``.
"""

import dataclasses
import fnmatch
import importlib
import pathlib
import re
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

REQUIRED_DOCS = ("README.md", "docs/architecture.md")


def packages() -> list:
    src = REPO_ROOT / "src" / "repro"
    return sorted(p.name for p in src.iterdir()
                  if p.is_dir() and (p / "__init__.py").exists())


def docs_files() -> list:
    return sorted((REPO_ROOT / "docs").glob("*.md"))


def read_if_exists(path: pathlib.Path) -> str:
    """Missing files read as empty: rule 1 already reports the absence,
    so the later rules degrade to failures, not tracebacks."""
    return path.read_text(encoding="utf-8") if path.exists() else ""


def docs_corpus() -> str:
    """README plus every docs page — where rules 3-4 look for coverage."""
    texts = [read_if_exists(REPO_ROOT / "README.md")]
    texts += [path.read_text(encoding="utf-8") for path in docs_files()]
    return "\n".join(texts)


def cli_surface():
    """(subcommands, serve flags) introspected from the live parser."""
    from repro.cli import build_parser
    parser = build_parser()
    subcommands, serve_flags = [], []
    for group in parser._action_groups:
        for action in group._group_actions:
            if not action.option_strings and action.choices:
                subcommands = sorted(action.choices)
            elif group.title == "serve options":
                serve_flags.extend(opt for opt in action.option_strings
                                   if opt.startswith("--"))
    return subcommands, sorted(serve_flags)


def check_packages(failures: list) -> int:
    names = packages()
    if not names:
        failures.append("no packages found under src/repro")
        return 0
    for rel in REQUIRED_DOCS:
        path = REPO_ROOT / rel
        if not path.exists():
            failures.append(f"{rel}: missing")
            continue
        text = path.read_text(encoding="utf-8")
        missing = [name for name in names
                   if not re.search(rf"\brepro[./]{re.escape(name)}\b", text)]
        if missing:
            failures.append(f"{rel}: no mention of package(s) "
                            f"{', '.join(missing)}")
    return len(names)


def check_docs_linked(failures: list) -> int:
    readme = read_if_exists(REPO_ROOT / "README.md")
    pages = docs_files()
    for path in pages:
        if f"docs/{path.name}" not in readme:
            failures.append(f"README.md: docs/{path.name} is not linked "
                            "(every docs page must be reachable from the "
                            "README)")
    return len(pages)


def check_cli_coverage(failures: list):
    corpus = docs_corpus()
    subcommands, serve_flags = cli_surface()
    for name in subcommands:
        # must appear as an invocation, e.g. "python -m repro fig8"
        if not re.search(rf"\brepro\s+{re.escape(name)}\b", corpus):
            failures.append(f"docs corpus: subcommand `python -m repro "
                            f"{name}` is undocumented")
    for flag in serve_flags:
        if flag not in corpus:
            failures.append(f"docs corpus: serve flag `{flag}` is "
                            "undocumented")
    return subcommands, serve_flags


def check_error_codes(failures: list) -> int:
    """Rule 5: every stable wire error code is in the error reference."""
    from repro.serving.wire import ERROR_CODES
    corpus = docs_corpus()
    for code in ERROR_CODES:
        if f"`{code}`" not in corpus:
            failures.append(f"docs corpus: wire error code `{code}` is "
                            "undocumented (docs/serving.md error reference)")
    return len(ERROR_CODES)


def check_backends(failures: list) -> int:
    """Rule 6: every execution backend (and its env override) is documented."""
    from repro.runtime import BACKEND_ENV, BACKENDS
    corpus = docs_corpus()
    for backend in BACKENDS:
        if f"`{backend}`" not in corpus:
            failures.append(f"docs corpus: runtime backend `{backend}` is "
                            "undocumented (docs/architecture.md runtime "
                            "section)")
    if BACKEND_ENV not in corpus:
        failures.append(f"docs corpus: the {BACKEND_ENV} environment "
                        "override is undocumented")
    return len(BACKENDS)


def check_metric_names(failures: list) -> int:
    """Rule 7: every catalogued metric is in the observability reference."""
    from repro.obs import metric_names
    names = metric_names()
    text = read_if_exists(REPO_ROOT / "docs" / "observability.md")
    for name in names:
        if f"`{name}`" not in text:
            failures.append(f"docs/observability.md: metric `{name}` is "
                            "undocumented (the METRIC_CATALOG and the "
                            "metrics-catalog tables must match)")
    return len(names)


def check_stream_events(failures: list) -> int:
    """Rule 8: every SSE event type is in the serving streaming section."""
    from repro.serving.wire import STREAM_EVENTS
    text = read_if_exists(REPO_ROOT / "docs" / "serving.md")
    for event in STREAM_EVENTS:
        if f"`{event}`" not in text:
            failures.append(f"docs/serving.md: SSE event type `{event}` is "
                            "undocumented (STREAM_EVENTS and the streaming "
                            "section must match)")
    return len(STREAM_EVENTS)


def check_stats_fields(failures: list) -> int:
    """Rule 10: every /v1/stats key and /v1/usage cell field is documented."""
    from repro.serving import ServerStats
    stats = ServerStats()
    count = 0
    for page, fields in (("serving.md", stats.snapshot(queue_depth=0)),
                         ("observability.md", stats.usage()["totals"])):
        text = read_if_exists(REPO_ROOT / "docs" / page)
        for name in fields:
            count += 1
            if f"`{name}`" not in text:
                failures.append(f"docs/{page}: stats field `{name}` is "
                                "undocumented (ServerStats and its wire "
                                "reference must match)")
    return count


#: a FORMS_* environment variable name as a quoted literal in code
ENV_LITERAL = r"[\"'](FORMS_[A-Z0-9_]+)[\"']"
#: ... and as a backticked name in prose
ENV_DOCUMENTED = r"`(FORMS_[A-Z0-9_]+)`"


def check_env_vars(failures: list) -> int:
    """Rule 11: the FORMS_* variables in src/ are exactly the documented."""
    read = set()
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        read.update(re.findall(ENV_LITERAL, read_if_exists(path)))
    documented = set(re.findall(ENV_DOCUMENTED, docs_corpus()))
    for name in sorted(read - documented):
        failures.append(f"src/: environment variable `{name}` is read but "
                        "documented nowhere in README.md or docs/")
    for name in sorted(documented - read):
        failures.append(f"docs corpus: `{name}` is documented but no code "
                        "in src/ reads it")
    return len(read)


#: the backticked, slash-separated rung list of the engine-profile row
RUNG_LIST = r"((?:`\w+` / )+`\w+`)"


def check_tier_names(failures: list) -> int:
    """Rule 12: the engine-profile row lists exactly the TIERS rungs."""
    from repro.reram import TIERS
    names = [name for name, _, _ in TIERS]
    row = next((line for line in read_if_exists(
        REPO_ROOT / "docs" / "observability.md").splitlines()
        if line.startswith("| `forms_engine_profile_seconds` |")), "")
    listed = re.search(RUNG_LIST, row)
    documented = re.findall(r"`(\w+)`", listed.group(1)) if listed else []
    if documented != names:
        failures.append(f"docs/observability.md: the "
                        f"`forms_engine_profile_seconds` row lists rungs "
                        f"{documented}, but repro.reram.TIERS is {names}")
    return len(names)


#: a Sphinx cross-reference to a repro name, possibly broken across lines
CODE_NAME = r":(?:class|func|meth|mod|data|attr|exc):`~?(repro\.[\w.\s]+?)`"
#: a backticked dotted repro name in prose
PROSE_NAME = r"`(repro(?:\.\w+)+)`"


def resolves(name: str) -> bool:
    """Whether a dotted name imports: its longest importable module
    prefix, then ``getattr`` down the rest (or a dataclass field)."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if hasattr(obj, attr):
                obj = getattr(obj, attr)
            else:
                return (dataclasses.is_dataclass(obj) and attr in
                        {f.name for f in dataclasses.fields(obj)})
        return True
    return False


def check_names(failures: list) -> int:
    """Rule 13: every repro name in docstrings and docs resolves."""
    sources = ([(path, CODE_NAME)
                for path in sorted((REPO_ROOT / "src").rglob("*.py"))]
               + [(REPO_ROOT / "README.md", PROSE_NAME)]
               + [(path, PROSE_NAME) for path in docs_files()])
    count = 0
    for path, pattern in sources:
        for token in re.findall(pattern, read_if_exists(path)):
            count += 1
            name = re.sub(r"\s+", "", token)
            if not resolves(name):
                failures.append(f"{path.relative_to(REPO_ROOT)}: `{name}` "
                                "names nothing importable")
    return count


def tracked_files() -> list:
    """What git tracks; outside a checkout, what is on disk."""
    try:
        listed = subprocess.run(["git", "ls-files"], cwd=REPO_ROOT,
                                capture_output=True, text=True, check=True)
        return listed.stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return [str(path.relative_to(REPO_ROOT))
                for path in REPO_ROOT.rglob("*") if path.is_file()]


#: a backticked script name in prose
SCRIPT_REFERENCE = r"`([^`\s]+\.(?:py|sh))`"
#: a document name in code, not directly after a quote or inside a word
DOC_REFERENCE = r"(?<![\w./*\"'-])([\w./-]+\.md)\b"


def check_references(failures: list) -> int:
    """Rule 9: every referenced script or document names a tracked file."""
    tracked = tracked_files()
    pages = [REPO_ROOT / "README.md", *docs_files(),
             REPO_ROOT / "benchmarks" / "README.md"]
    code = [*sorted((REPO_ROOT / "src").rglob("*.py")),
            *sorted((REPO_ROOT / "examples").glob("*.py"))]
    sources = ([(page, SCRIPT_REFERENCE) for page in pages]
               + [(path, DOC_REFERENCE) for path in code])
    count = 0
    for path, pattern in sources:
        for token in re.findall(pattern, read_if_exists(path)):
            count += 1
            if not any(fnmatch.fnmatch(name, token)
                       or fnmatch.fnmatch(name, f"*/{token}")
                       for name in tracked):
                failures.append(f"{path.relative_to(REPO_ROOT)}: `{token}` "
                                "names no tracked file")
    return count


def main() -> int:
    failures: list = []
    n_packages = check_packages(failures)
    n_docs = check_docs_linked(failures)
    subcommands, serve_flags = check_cli_coverage(failures)
    n_codes = check_error_codes(failures)
    n_backends = check_backends(failures)
    n_metrics = check_metric_names(failures)
    n_events = check_stream_events(failures)
    n_fields = check_stats_fields(failures)
    n_references = check_references(failures)
    n_env = check_env_vars(failures)
    n_tiers = check_tier_names(failures)
    n_names = check_names(failures)
    if failures:
        for failure in failures:
            print(f"ERROR: {failure}", file=sys.stderr)
        return 1
    print(f"docs check: {len(REQUIRED_DOCS)} docs cover {n_packages} "
          f"packages, {n_docs} docs page(s) linked from README, "
          f"{len(subcommands)} subcommands, {len(serve_flags)} serve "
          f"flags, {n_codes} wire error codes, {n_backends} runtime "
          f"backends, {n_metrics} catalogued metrics, {n_events} "
          f"stream event types, {n_fields} stats fields, {n_env} "
          f"environment variables and {n_tiers} dispatch rungs "
          f"documented; {n_references} script and "
          f"document references and {n_names} repro names resolve")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
