#!/usr/bin/env python3
"""Fails if src/ serializes a document to compare it in memory.

`VersionStore::SerializeAnnotated` builds the store's canonical bytes:
about 9 ms for a 1 MB document. It belongs only where bytes leave the
process or come from disk. Every in-memory equality check uses
`xml::Document::SameAnnotated`, which decides the same question without
writing the bytes. This check lists each call site of
`SerializeAnnotated(` under src/ by file and enclosing function, and
fails on any site outside ALLOWED.

    serialize_allowlist_check.py [repo-root]

Before checking the tree it plants a call in a scratch copy of one
allowlisted file and requires that it be caught, so the check cannot
pass by matching nothing.
"""

import re
import shutil
import sys
import tempfile
from pathlib import Path

CALL = "SerializeAnnotated("

# (file under src/, enclosing function): why the bytes are needed.
ALLOWED = {
    ("store/version.h", "SerializeAnnotated"): "the declaration",
    ("store/version.cc", "SerializeAnnotated"): "the definition",
    ("store/version.cc", "CheckoutXml"): "returns the bytes",
    ("store/branch.cc", "CheckoutXmlBranch"): "returns the bytes",
}

# A line that opens a function definition or declaration at column 0
# (return type first), e.g. "Status VersionStore::Init(const ...".
FUNCTION_START = re.compile(r"^[A-Za-z_][\w:<>,*& ]*?\b(\w+)\(")
DECLARATION = re.compile(r"^\s*static\b.*\b(SerializeAnnotated)\(")


def enclosing_function(lines, index):
    """Name of the function whose body holds lines[index]."""
    match = DECLARATION.match(lines[index])
    if match:
        return match.group(1)
    for line in reversed(lines[: index + 1]):
        match = FUNCTION_START.match(line)
        if match:
            return match.group(1)
    return None


def call_sites(src):
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        lines = path.read_text(encoding="utf-8").splitlines()
        for index, line in enumerate(lines):
            code = line.split("//", 1)[0]
            if CALL in code:
                rel = path.relative_to(src).as_posix()
                yield rel, index + 1, enclosing_function(lines, index)


def violations(src):
    return [
        (rel, lineno, function)
        for rel, lineno, function in call_sites(src)
        if (rel, function) not in ALLOWED
    ]


def planted_call_is_caught(src):
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "src"
        target = copy / "store" / "version.cc"
        target.parent.mkdir(parents=True)
        shutil.copy(src / "store" / "version.cc", target)
        with target.open("a", encoding="utf-8") as out:
            out.write(
                "\nbool Planted(const xml::Document& a) {\n"
                "  return SerializeAnnotated(a).ok();\n}\n"
            )
        planted = len(target.read_text(encoding="utf-8").splitlines()) - 1
        return ("store/version.cc", planted, "Planted") in violations(copy)


def main(argv):
    here = Path(__file__).resolve()
    root = Path(argv[1]) if len(argv) > 1 else here.parents[2]
    src = root / "src"
    if not planted_call_is_caught(src):
        print("serialize_allowlist_check: a planted call was not caught",
              file=sys.stderr)
        return 1
    found = violations(src)
    for rel, lineno, function in found:
        print(
            f"src/{rel}:{lineno}: SerializeAnnotated in {function}; compare "
            "documents with xml::Document::SameAnnotated instead",
            file=sys.stderr,
        )
    sites = {(rel, function) for rel, _, function in call_sites(src)}
    for stale in sorted(set(ALLOWED) - sites):
        print(f"serialize_allowlist_check: allowlisted site {stale} no "
              "longer calls SerializeAnnotated; drop it from ALLOWED",
              file=sys.stderr)
    if found or set(ALLOWED) - sites:
        return 1
    print(f"serialize_allowlist_check: {len(sites)} allowlisted sites, "
          "no others")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
