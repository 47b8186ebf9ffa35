"""The documentation stays consistent with the tree (tools/check_docs.py).

The same checks run as a standalone CI job; running them in tier-1 as well
means a PR that moves a module or breaks a docs link fails locally first.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


def test_documentation_files_exist():
    for path in check_docs.doc_files():
        assert path.is_file(), f"missing documentation file: {path}"


def test_internal_links_resolve():
    problems = [p for path in check_docs.doc_files() for p in check_docs.check_links(path)]
    assert problems == []


def test_architecture_module_list_matches_the_tree():
    problems = [
        p for path in check_docs.doc_files() for p in check_docs.check_module_paths(path)
    ]
    assert problems == []


def test_checker_detects_a_broken_link(tmp_path):
    broken = tmp_path / "broken.md"
    broken.write_text("see [missing](no/such/file.md) and `src/repro/ghost.py`")
    assert any("broken internal link" in p for p in check_docs.check_links(broken))
    assert any("missing module" in p for p in check_docs.check_module_paths(broken))


def test_docs_name_only_declared_flags():
    known = check_docs.declared_flags()
    problems = [
        p for path in check_docs.doc_files() for p in check_docs.check_flags(path, known)
    ]
    assert problems == []


def test_checker_detects_an_unknown_flag(tmp_path):
    doc = tmp_path / "flags.md"
    doc.write_text(
        "Serve with `--max-batch 64`.\n\n```\nrun --port 8414 --max-linger-ms 5\n```\n"
        "Prose -- and --prose-only outside code are not checked.\n"
    )
    problems = check_docs.check_flags(doc, {"--max-batch", "--port"})
    assert problems == [f"{doc}: names a flag no parser declares -> --max-linger-ms"]
    assert "--max-batch" in check_docs.declared_flags()


def test_required_sections_are_present():
    problems = [
        p
        for name, required in check_docs.REQUIRED_SECTIONS.items()
        for p in check_docs.check_required_sections(check_docs.REPO_ROOT / name, required)
    ]
    assert problems == []


def test_required_section_files_are_link_checked_too():
    # A required-section entry for a file the link checker skips would
    # let that file rot; every entry must also be in DOC_FILES.
    assert set(check_docs.REQUIRED_SECTIONS) <= set(check_docs.DOC_FILES)


def test_checker_detects_a_dropped_section(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("# Title\n\nThe drain runbook is mentioned but not a heading.\n")
    required = ("## Drain runbook",)
    problems = check_docs.check_required_sections(doc, required)
    assert any("missing required section" in p for p in problems)
    doc.write_text("# Title\n\n## Drain runbook\n\ncontent\n")
    assert check_docs.check_required_sections(doc, required) == []
