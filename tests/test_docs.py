"""Documentation suite checks: required files exist, relative links resolve.

The acceptance criterion of the docs satellite: ``README.md`` and the
``docs/`` deep dives must exist and stay link-check clean.  The check runs
in tier-1 (and as the CI ``docs`` job) so a renamed file or a moved anchor
target breaks the build instead of silently 404ing for readers.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Every markdown file the suite must contain and keep link-clean.
REQUIRED_DOCS = (
    "README.md",
    "docs/architecture.md",
    "docs/serving.md",
    "docs/snapshot-format.md",
    "ROADMAP.md",
    "CHANGES.md",
)

#: ``[text](target)`` — good enough for the plain links these docs use.
_LINK_PATTERN = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")

#: Link schemes that are not local files and are not checked here.
_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")


def _markdown_files():
    return [REPO_ROOT / name for name in REQUIRED_DOCS]


def test_required_documentation_exists():
    missing = [str(path) for path in _markdown_files() if not path.is_file()]
    assert not missing, f"documentation files missing: {missing}"


@pytest.mark.parametrize("name", REQUIRED_DOCS)
def test_relative_links_resolve(name):
    """Every relative link in ``name`` points at an existing file/directory."""
    path = REPO_ROOT / name
    text = path.read_text(encoding="utf-8")
    broken = []
    for match in _LINK_PATTERN.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL_PREFIXES) or target.startswith("#"):
            continue
        # Drop an in-page fragment; the file part is what must exist.
        file_part = target.split("#", 1)[0]
        if not file_part:
            continue
        resolved = (path.parent / file_part).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{name}: broken relative links: {broken}"


def test_readme_documents_the_layers_and_cli():
    """The README keeps its promised sections: install, quickstart, layers."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for needle in (
        "## Install",
        "## Quickstart",
        "graph (repro.graph)",
        "tspg serve",
        "docs/architecture.md",
        "docs/serving.md",
        "docs/snapshot-format.md",
    ):
        assert needle in text, f"README.md lost its {needle!r} section/link"


def test_roadmap_stays_a_planning_doc():
    """ROADMAP's architecture prose lives in docs/ now — only pointers remain."""
    text = (REPO_ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    assert "docs/architecture.md" in text
    assert "docs/serving.md" in text
    assert "docs/snapshot-format.md" in text
    # The slimmed section should stay an order of magnitude smaller than
    # the documentation it points to.
    architecture = text.split("## Architecture", 1)[1].split("## Open items", 1)[0]
    assert len(architecture) < 3500, (
        "ROADMAP's Architecture section is growing back into a reference "
        "document; move the prose into docs/ and keep pointers here"
    )


#: Markdown files whose pytest node references must resolve.  CHANGES.md
#: is history: it names tests as they were when each change landed.
NODE_CHECKED_DOCS = ("README.md", "ROADMAP.md") + tuple(
    str(path.relative_to(REPO_ROOT))
    for path in sorted((REPO_ROOT / "docs").glob("*.md"))
)

#: Fenced code blocks, inline code spans (a run of backticks closed by a
#: run of the same length), and the two node forms written inside either:
#: ``tests/<file>.py::[Class::]name`` and ``TestClass::test_name``.
_FENCED = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_INLINE = re.compile(r"(?<!`)(`+)(?!`)(.+?)(?<!`)\1(?!`)", re.DOTALL)
_FILE_NODE = re.compile(r"(tests/[\w/]+\.py)((?:::\w+)+)")
_CLASS_NODE = re.compile(r"(?<![\w:/.])(Test\w+)::(test_\w+)")


@pytest.fixture(scope="module")
def defined_tests():
    """``{file: {class or "": set of function names}}`` for every test file."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    definitions = {}
    for path in sorted((REPO_ROOT / "tests").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = {"": {node.name for node in tree.body if isinstance(node, functions)}}
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                scopes[node.name] = {
                    item.name for item in node.body if isinstance(item, functions)
                }
        definitions[str(path.relative_to(REPO_ROOT))] = scopes
    return definitions


def _code_spans(text):
    """Every fenced block and inline code span of a markdown ``text``."""
    fenced = _FENCED.findall(text)
    inline = [code for _, code in _INLINE.findall(_FENCED.sub("", text))]
    return fenced + inline


def _unresolved_nodes(text, definitions):
    """The pytest node references in ``text`` that name nothing."""
    missing = []
    for span in _code_spans(text):
        for file_name, tail in _FILE_NODE.findall(span):
            parts = tail.split("::")[1:]
            scopes = definitions.get(file_name)
            if scopes is None:
                missing.append(file_name + tail)
            elif len(parts) == 1:
                if parts[0] not in scopes and parts[0] not in scopes[""]:
                    missing.append(file_name + tail)
            elif parts[1] not in scopes.get(parts[0], ()):
                missing.append(file_name + tail)
        for class_name, function in _CLASS_NODE.findall(span):
            if not any(
                function in scopes.get(class_name, ())
                for scopes in definitions.values()
            ):
                missing.append(f"{class_name}::{function}")
    return missing


@pytest.mark.parametrize("name", NODE_CHECKED_DOCS)
def test_pytest_node_references_resolve(name, defined_tests):
    """Every backticked ``tests/…::…`` or ``TestClass::test_…`` names a test."""
    text = (REPO_ROOT / name).read_text(encoding="utf-8")
    missing = _unresolved_nodes(text, defined_tests)
    assert not missing, f"{name}: references to tests that do not exist: {missing}"


def test_the_stated_snapshot_header_size_is_the_real_one():
    """The snapshot module docstring and the format doc state HEADER_SIZE."""
    from repro.store import HEADER_SIZE, snapshot

    module = snapshot.__doc__
    doc = (REPO_ROOT / "docs" / "snapshot-format.md").read_text(encoding="utf-8")
    stated = {
        "module: fixed header": re.findall(r"fixed header \((\d+) bytes", module),
        "module: file size": re.findall(r"file size == (\d+) \+ payload", module),
        "doc: header struct": re.findall(r"`>8sHQQQQQI`,\s+(\d+) bytes", doc),
        "doc: table offset": re.findall(r"offset (\d+):\s+table header", doc),
    }
    for where, sizes in stated.items():
        assert sizes, f"{where}: no header size stated"
        assert {int(size) for size in sizes} == {HEADER_SIZE}, (where, sizes)
