#!/usr/bin/env python3
"""Docs link check: every relative markdown link and every repo-path
reference in README.md and docs/*.md must resolve to a real file, every
qualified symbol name must name something in src/, and no reference may
point at a line number.

Checked:
  - markdown links [text](target): http(s) and pure-fragment targets are
    skipped; everything else resolves relative to the containing file
    (fragments are stripped first).
  - inline-code repo paths like `src/datalog/relation.h` or
    `scripts/foo.sh`: recognized by a known top-level prefix, resolved
    from the repo root. `{a,b}` alternation is expanded; references
    containing placeholders (<...>, *, $) are ignored.
  - line pointers like `src/core/engine.cpp:474`, in code spans or bare
    text: always broken, because line numbers go stale with every edit
    and nothing notices. Name the file plus the symbol instead.
  - qualified symbol names like `Evaluator::Evaluate` or
    `Engine::Options::fixpoint.tc_kernel` inside code spans: the last
    `::` component must occur as an identifier somewhere under src/, so
    a renamed or deleted symbol cannot stay cited (`std::` names are
    skipped).

Exit status: 0 = all references resolve, 1 = at least one is broken.
"""

import itertools
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

DOC_FILES = sorted(
    [REPO / "README.md", *(REPO / "docs").glob("*.md")]
)

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN = re.compile(r"`([^`\n]+)`")
# A code span is treated as a repo path when it starts with one of these.
PATH_PREFIXES = (
    "src/", "docs/", "scripts/", "bench/", "tests/", "examples/",
    ".github/", ".claude/",
)
LINE_POINTER = re.compile(
    r"(?<![\w/.-])(?:%s)[\w/.{},-]*:\d+"
    % "|".join(re.escape(p) for p in PATH_PREFIXES)
)

# `A::B` (any depth) inside a code span; `~` admits destructors.
QUALIFIED = re.compile(r"[A-Za-z_]\w*(?:::~?[A-Za-z_]\w*)+")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def source_identifiers():
    """Every identifier token in the C++ sources under src/."""
    names = set()
    for path in (REPO / "src").rglob("*"):
        if path.suffix in (".h", ".cpp"):
            names.update(IDENTIFIER.findall(path.read_text(encoding="utf-8")))
    return names


def expand_braces(ref):
    """`a.{h,cpp}` -> [`a.h`, `a.cpp`] (single level is all docs use)."""
    m = re.search(r"\{([^}]+)\}", ref)
    if not m:
        return [ref]
    alts = m.group(1).split(",")
    return list(
        itertools.chain.from_iterable(
            expand_braces(ref[: m.start()] + alt + ref[m.end():])
            for alt in alts
        )
    )


def check_file(doc, identifiers):
    broken = []
    text = doc.read_text(encoding="utf-8")
    for target in MD_LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = (doc.parent / path).resolve()
        if not resolved.is_relative_to(REPO):
            continue  # GitHub web path (e.g. the ../../actions CI badge)
        if not resolved.exists():
            broken.append(f"{doc.relative_to(REPO)}: link target `{target}`")
    for pointer in LINE_POINTER.findall(text):
        broken.append(
            f"{doc.relative_to(REPO)}: line pointer `{pointer}` "
            "(name the symbol instead)"
        )
    for span in CODE_SPAN.findall(text):
        for name in QUALIFIED.findall(span):
            last = name.rsplit("::", 1)[1].lstrip("~")
            if not name.startswith("std::") and last not in identifiers:
                broken.append(
                    f"{doc.relative_to(REPO)}: symbol reference `{name}` "
                    f"(`{last}` occurs nowhere under src/)"
                )
        if not span.startswith(PATH_PREFIXES):
            continue
        if any(c in span for c in "<>*$ ()|"):
            continue  # placeholder / glob / prose, not a concrete path
        # A `:line` suffix is reported above; check the path part here.
        ref = re.sub(r":\d+(-\d+)?$", "", span)
        for candidate in expand_braces(ref):
            if not (REPO / candidate).exists():
                broken.append(
                    f"{doc.relative_to(REPO)}: path reference `{span}`"
                )
                break
    return broken


def main():
    missing_docs = [d for d in DOC_FILES if not d.exists()]
    if missing_docs or not DOC_FILES:
        print(f"check_docs: doc set incomplete: {missing_docs}")
        return 1
    broken = []
    identifiers = source_identifiers()
    for doc in DOC_FILES:
        broken.extend(check_file(doc, identifiers))
    if broken:
        print(f"check_docs: FAIL — {len(broken)} broken reference(s):")
        for b in broken:
            print(f"  {b}")
        return 1
    print(f"check_docs: OK ({len(DOC_FILES)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
