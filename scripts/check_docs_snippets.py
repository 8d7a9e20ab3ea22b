"""Docs snippet checker: keep README/docs code blocks compilable and honest.

Walks every fenced code block in ``README.md`` and ``docs/*.md`` and checks:

* ``python`` blocks **compile**, and every ``import``/``from`` of a
  ``repro.*`` module resolves against the real package — including the
  imported attribute names — so a renamed class or moved module fails the
  docs build instead of rotting silently;
* ``bash`` blocks: every ``python -m repro.cli ...`` invocation (env-var
  prefixes and line continuations stripped) **parses against the actual
  argument parser**, so a documented flag that no longer exists fails here;
  plain ``python <path>`` invocations must point at files that exist;
* the "Engine options" table of ``docs/ARCHITECTURE.md`` is, row for row,
  the one :func:`repro.options.docs_table` derives from the options table.

Usage::

    PYTHONPATH=src python scripts/check_docs_snippets.py

Exit code 0 when every snippet passes, 1 otherwise (failures listed with
``file:line`` of the offending block).
"""

from __future__ import annotations

import ast
import importlib
import shlex
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]


def iter_code_blocks(path: Path):
    """Yield ``(language, start line, code)`` for each fenced block."""
    language = None
    start = 0
    lines: list[str] = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("```"):
            if language is None:
                language = stripped[3:].strip().lower() or "text"
                start = number + 1
                lines = []
            else:
                yield language, start, "\n".join(lines)
                language = None
        elif language is not None:
            lines.append(line)


def check_python_block(code: str, where: str) -> list[str]:
    try:
        tree = ast.parse(code)
    except SyntaxError as error:
        return [f"{where}: python block does not compile: {error}"]
    failures = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            if not node.module.startswith("repro"):
                continue
            try:
                module = importlib.import_module(node.module)
            except ImportError as error:
                failures.append(f"{where}: import of {node.module!r} fails: {error}")
                continue
            for alias in node.names:
                if alias.name != "*" and not hasattr(module, alias.name):
                    try:
                        importlib.import_module(f"{node.module}.{alias.name}")
                    except ImportError:
                        failures.append(
                            f"{where}: {node.module!r} has no attribute "
                            f"{alias.name!r}"
                        )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if not alias.name.startswith("repro"):
                    continue
                try:
                    importlib.import_module(alias.name)
                except ImportError as error:
                    failures.append(
                        f"{where}: import of {alias.name!r} fails: {error}"
                    )
    return failures


def _logical_lines(code: str):
    """Bash lines with comments dropped and ``\\`` continuations joined."""
    pending = ""
    for raw in code.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        yield (pending + line).strip()
        pending = ""
    if pending.strip():
        yield pending.strip()


def check_bash_block(code: str, where: str) -> list[str]:
    failures = []
    for line in _logical_lines(code):
        tokens = shlex.split(line, comments=True)
        # Strip leading VAR=value environment prefixes.
        while tokens and "=" in tokens[0] and not tokens[0].startswith("-"):
            tokens = tokens[1:]
        if not tokens or tokens[0] != "python":
            continue
        if tokens[1:3] == ["-m", "repro.cli"]:
            cli_args = tokens[3:]
            from repro.cli import build_parser

            try:
                # argparse prints its usage message on failure; keep the
                # checker's output to the one-line failure below.
                import contextlib
                import io

                with contextlib.redirect_stderr(io.StringIO()):
                    build_parser().parse_args(cli_args)
            except SystemExit:
                failures.append(
                    f"{where}: CLI invocation does not parse: "
                    f"`python -m repro.cli {' '.join(cli_args)}`"
                )
        elif len(tokens) > 1 and tokens[1].endswith(".py"):
            if not (REPO_ROOT / tokens[1]).exists():
                failures.append(
                    f"{where}: `python {tokens[1]}` points at a missing file"
                )
    return failures


def check_options_table() -> list[str]:
    """The documented engine-options table must be the derived one."""
    from repro.options import docs_table

    text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
    _, _, section = text.partition("\n## Engine options\n")
    section = section.partition("\n## ")[0]
    documented = [line for line in section.splitlines() if line.startswith("|")]
    if documented == docs_table():
        return []
    return [
        "docs/ARCHITECTURE.md: the 'Engine options' table differs from "
        "repro.options.docs_table() — regenerate it from the options table"
    ]


def main() -> int:
    failures: list[str] = check_options_table()
    blocks = 0
    for path in DOC_FILES:
        if not path.exists():
            failures.append(f"{path}: documented file is missing")
            continue
        rel = path.relative_to(REPO_ROOT)
        for language, start, code in iter_code_blocks(path):
            where = f"{rel}:{start}"
            if language == "python":
                blocks += 1
                failures.extend(check_python_block(code, where))
            elif language in ("bash", "sh", "shell"):
                blocks += 1
                failures.extend(check_bash_block(code, where))
    if failures:
        for failure in failures:
            print(f"DOCS SNIPPET FAIL — {failure}", file=sys.stderr)
        return 1
    print(f"docs snippets ok: {blocks} code blocks checked across "
          f"{len(DOC_FILES)} files")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
