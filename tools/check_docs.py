#!/usr/bin/env python3
"""Documentation consistency checks (stdlib only; used by CI and tier-1).

Four guarantees, so the docs cannot silently rot as the code moves:

1. every relative (internal) markdown link in ``docs/*.md`` and
   ``README.md`` resolves to an existing file;
2. every ``src/...`` module path mentioned in ``docs/architecture.md``
   (and the other docs pages) exists in the tree;
3. load-bearing sections — ones other docs, runbooks or tests point
   at — are present under their exact headings (``REQUIRED_SECTIONS``),
   so a rewrite cannot silently drop the drain runbook or the
   exactly-once quota contract;
4. every ``--flag`` named in a code span or fenced block is one some
   parser in ``src/``, ``perfbench/``, ``tools/`` or ``examples/``
   declares with ``add_argument("--flag"``, so a removed option cannot
   linger in the docs.

Run from anywhere::

    python tools/check_docs.py            # exit 0 = consistent
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown files whose internal links are checked.
DOC_FILES = (
    "README.md",
    "docs/architecture.md",
    "docs/protocol.md",
    "docs/serving.md",
    "docs/observability.md",
    "docs/sharding.md",
    "docs/attacks.md",
)

#: Section headings that must exist verbatim, per doc file.  These are
#: the sections runbooks and tests link to by anchor; dropping one in a
#: rewrite breaks operators silently, so the checker pins them.
REQUIRED_SECTIONS: dict[str, tuple[str, ...]] = {
    "docs/sharding.md": (
        "## Retries and deadlines",
        "## Graceful drain and live resharding",
        "## Exactly-once quota for split frames",
        "## The shared quota store",
        "## Merged fleet telemetry",
    ),
}

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_MODULE_PATH = re.compile(r"`(src/[A-Za-z0-9_./-]+?)/?`")
_SCHEMES = ("http://", "https://", "mailto:")
#: Directories whose argparse declarations define the flags docs may name.
FLAG_SOURCES = ("src", "perfbench", "tools", "examples")
_DECLARED_FLAG = re.compile(r"""add_argument\(\s*["'](--[A-Za-z0-9][A-Za-z0-9-]*)["']""")
_FENCED_BLOCK = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_INLINE_CODE = re.compile(r"`([^`\n]+)`")
_DOC_FLAG = re.compile(r"(?<![\w-])(--[A-Za-z0-9][A-Za-z0-9-]*)")


def doc_files(root: Path = REPO_ROOT) -> list[Path]:
    """The markdown files under check; missing ones are themselves errors."""
    return [root / name for name in DOC_FILES]


def _label(path: Path) -> str:
    """Repo-relative display name (absolute for files outside the repo)."""
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def check_links(path: Path) -> list[str]:
    """Problems with *path*'s internal links (empty list = consistent)."""
    problems = []
    if not path.is_file():
        return [f"{_label(path)}: documentation file is missing"]
    for target in _LINK.findall(path.read_text(encoding="utf-8")):
        if target.startswith(_SCHEMES) or target.startswith("#"):
            continue  # external links and in-page anchors are not ours to check
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            problems.append(f"{_label(path)}: broken internal link -> {target}")
    return problems


def check_module_paths(path: Path) -> list[str]:
    """Problems with *path*'s ``src/...`` module references."""
    problems = []
    if not path.is_file():
        return [f"{_label(path)}: documentation file is missing"]
    for module in _MODULE_PATH.findall(path.read_text(encoding="utf-8")):
        if not (REPO_ROOT / module).exists():
            problems.append(f"{_label(path)}: references missing module -> {module}")
    return problems


def check_required_sections(path: Path, required: tuple[str, ...]) -> list[str]:
    """Problems with *path*'s required section headings.

    A heading counts only as a whole line (``## Title`` exactly), so a
    mention of the title in prose cannot mask a dropped section.
    """
    if not path.is_file():
        return [f"{_label(path)}: documentation file is missing"]
    headings = {line.strip() for line in path.read_text(encoding="utf-8").splitlines()}
    return [
        f"{_label(path)}: missing required section -> {heading}"
        for heading in required
        if heading not in headings
    ]


def declared_flags(root: Path = REPO_ROOT) -> set[str]:
    """Every ``--flag`` an ``add_argument`` call declares under
    :data:`FLAG_SOURCES` (the regex spans multi-line calls)."""
    return {
        flag
        for directory in FLAG_SOURCES
        for source in (root / directory).rglob("*.py")
        for flag in _DECLARED_FLAG.findall(source.read_text(encoding="utf-8"))
    }


def check_flags(path: Path, known: set[str]) -> list[str]:
    """Problems with the ``--flags`` *path*'s code spans and blocks name."""
    if not path.is_file():
        return [f"{_label(path)}: documentation file is missing"]
    text = path.read_text(encoding="utf-8")
    code = _FENCED_BLOCK.findall(text)
    code += _INLINE_CODE.findall(_FENCED_BLOCK.sub("", text))
    named = {flag for snippet in code for flag in _DOC_FLAG.findall(snippet)}
    return [
        f"{_label(path)}: names a flag no parser declares -> {flag}"
        for flag in sorted(named - known)
    ]


def check_all(root: Path = REPO_ROOT) -> list[str]:
    """Every documentation problem found (empty list = consistent)."""
    problems = []
    known = declared_flags(root)
    for path in doc_files(root):
        problems.extend(check_links(path))
        problems.extend(check_module_paths(path))
        problems.extend(check_flags(path, known))
    for name, required in REQUIRED_SECTIONS.items():
        problems.extend(check_required_sections(root / name, required))
    return problems


def main() -> int:
    problems = check_all()
    for problem in problems:
        print(f"ERROR: {problem}", file=sys.stderr)
    checked = ", ".join(DOC_FILES)
    if problems:
        print(f"{len(problems)} documentation problem(s) in: {checked}", file=sys.stderr)
        return 1
    print(f"docs consistent: {checked}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
