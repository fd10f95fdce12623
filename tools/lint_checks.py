#!/usr/bin/env python3
"""Repo lint checks (wired into the CI lint job).

Four rules:

1. no-bare-assert: `assert(...)` is compiled out by -DNDEBUG in release
   builds, which is exactly where scheme bugs bite. Invariants must use
   CATS_CHECK (src/check/check.hpp), which stays on and formats a message.
   (`static_assert` is fine.)

2. memory-order-comments: every non-default std::memory_order argument must
   carry a `// order:` comment on the same line or within the two lines
   above (a comment covers a contiguous run of atomic lines below it), so
   the pairing that justifies the relaxation is written down where it can
   rot visibly. A comment block counts: the `// order:` head of a
   contiguous `//` block governs uses up to two code lines below the
   block. The comment must also *name* every order it covers
   (order-comment-mismatch): a `// order: relaxed ...` note over an
   acquire load is a stale justification, which is worse than none.
   src/analysis/ is exempt — the model checker manipulates memory orders
   as first-class *data* (weakening lattices, per-site overrides, name
   tables); those mentions are not relaxations to justify.

3. standalone-headers: every src/**/*.hpp must compile on its own
   (g++ -std=c++20 -fsyntax-only -I src), so headers keep their includes
   and no header silently depends on its inclusion context.

4. options-table: every field of `struct RunOptions` (src/core/options.hpp)
   has a row in README's "`RunOptions` in full" table, and every row names
   a live field, so the user-facing option reference cannot drift from the
   struct. `static` members are compatibility constants, not settable
   options, and need no row.

Exit status 0 = clean, 1 = findings (printed as file:line: rule: message).
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
OPTIONS_HPP = SRC / "core" / "options.hpp"
README = REPO / "README.md"
OPTIONS_TABLE_HEAD = "`RunOptions` in full:"

BARE_ASSERT = re.compile(r"(?<![_\w])assert\s*\(")
MEMORY_ORDER = re.compile(
    r"memory_order_(relaxed|acquire|release|acq_rel|consume)")
ORDER_COMMENT = re.compile(r"//\s*order:")
LINE_COMMENT = re.compile(r"//.*$")


def strip_comment(line: str) -> str:
    return LINE_COMMENT.sub("", line)


def check_bare_assert(path: Path, lines: list[str], findings: list[str]) -> None:
    for ln, line in enumerate(lines, 1):
        code = strip_comment(line)
        if "static_assert" in code:
            code = code.replace("static_assert", "")
        if BARE_ASSERT.search(code):
            findings.append(
                f"{path.relative_to(REPO)}:{ln}: no-bare-assert: use "
                f"CATS_CHECK (check/check.hpp); assert() vanishes under "
                f"-DNDEBUG")


def order_comment_text(line: str) -> str | None:
    m = ORDER_COMMENT.search(line)
    return line[m.start():] if m else None


def is_comment_line(line: str) -> bool:
    return line.lstrip().startswith("//")


def governing_comment(lines: list[str], ln: int) -> str | None:
    """The `// order:` comment governing the use at 1-indexed `ln`: on the
    line itself, or heading a contiguous comment block that ends within two
    code lines above it (the block's full text is returned so multi-line
    justifications count for the mismatch check)."""
    t = order_comment_text(lines[ln - 1])
    if t:
        return t
    i = ln - 2
    code_steps = 0
    while i >= 0 and code_steps < 2:
        if is_comment_line(lines[i]):
            j = i
            while j >= 0 and is_comment_line(lines[j]):
                j -= 1
            block = "\n".join(lines[j + 1:i + 1])
            m = ORDER_COMMENT.search(block)
            return block[m.start():] if m else None
        i -= 1
        code_steps += 1
    return None


def check_memory_order(path: Path, lines: list[str],
                       findings: list[str]) -> None:
    governing: str | None = None  # comment text covering a contiguous run
    for ln, line in enumerate(lines, 1):
        orders = MEMORY_ORDER.findall(strip_comment(line))
        if not orders:
            governing = None
            continue
        comment = governing_comment(lines, ln)
        if comment is None:
            comment = governing  # contiguous run under one comment
        if comment is None:
            findings.append(
                f"{path.relative_to(REPO)}:{ln}: memory-order-comments: "
                f"non-default memory_order needs a `// order:` comment on "
                f"this line or within the 2 lines above")
            continue
        governing = comment
        missing = sorted(
            o for o in set(orders)
            if not re.search(rf"\b{o}\b", comment))
        if missing:
            findings.append(
                f"{path.relative_to(REPO)}:{ln}: order-comment-mismatch: "
                f"`// order:` comment does not name "
                f"{'/'.join(missing)} used on this line — stale "
                f"justification?")


def check_standalone_headers(findings: list[str]) -> None:
    headers = sorted(SRC.rglob("*.hpp"))
    for h in headers:
        r = subprocess.run(
            ["g++", "-std=c++20", "-fsyntax-only", "-I", str(SRC), str(h)],
            capture_output=True, text=True)
        if r.returncode != 0:
            first = (r.stderr.strip().splitlines() or ["unknown error"])[0]
            findings.append(
                f"{h.relative_to(REPO)}:1: standalone-headers: header does "
                f"not compile on its own: {first}")


# A data member declaration: type tokens, then the name, then `= init` or
# `;`. Function declarations (parentheses) and `static`/`using`/`friend`
# members never match.
FIELD_DECL = re.compile(
    r"^(?!\s*(?:static|using|friend|enum|struct|class)\b)\s*"
    r"[^;()=]*?\b([A-Za-z_]\w*)\s*(?:=[^;]*)?;")


def run_options_fields() -> dict[str, int] | None:
    """RunOptions data-member names -> 1-indexed line in options.hpp, or
    None when the struct cannot be found."""
    lines = OPTIONS_HPP.read_text().splitlines()
    fields: dict[str, int] = {}
    depth = 0
    inside = False
    for ln, line in enumerate(lines, 1):
        code = strip_comment(line)
        if not inside:
            if re.match(r"^\s*struct\s+RunOptions\s*\{", code):
                inside = True
                depth = 1
            continue
        if depth == 1:
            m = FIELD_DECL.match(code)
            if m:
                fields[m.group(1)] = ln
        depth += code.count("{") - code.count("}")
        if depth <= 0:
            return fields
    return None


def options_table_rows() -> list[tuple[int, list[str]]] | None:
    """(1-indexed README line, field names in the row's first cell) for the
    rows of the "`RunOptions` in full" table, or None when it is missing."""
    lines = README.read_text().splitlines()
    try:
        start = next(i for i, line in enumerate(lines)
                     if line.strip() == OPTIONS_TABLE_HEAD)
    except StopIteration:
        return None
    rows: list[tuple[int, list[str]]] = []
    in_table = False
    for i in range(start + 1, len(lines)):
        line = lines[i].strip()
        if not line.startswith("|"):
            if in_table:
                break
            continue
        in_table = True
        first = line.strip("|").split("|")[0].strip()
        if first == "Field" or set(first) <= set("-: "):
            continue  # header / separator
        rows.append((i + 1, re.findall(r"`(\w+)`", first)))
    return rows


def check_options_table(findings: list[str]) -> None:
    opt_rel = OPTIONS_HPP.relative_to(REPO)
    readme_rel = README.relative_to(REPO)
    fields = run_options_fields()
    if fields is None:
        findings.append(f"{opt_rel}:1: options-table: struct RunOptions "
                        f"not found")
        return
    rows = options_table_rows()
    if rows is None:
        findings.append(f"{readme_rel}:1: options-table: no "
                        f"\"{OPTIONS_TABLE_HEAD}\" table")
        return
    documented: set[str] = set()
    for ln, names in rows:
        if not names:
            findings.append(f"{readme_rel}:{ln}: options-table: row names "
                            f"no `field`")
        for name in names:
            documented.add(name)
            if name not in fields:
                findings.append(
                    f"{readme_rel}:{ln}: options-table: row names `{name}`, "
                    f"which is not a RunOptions field")
    for name, ln in fields.items():
        if name not in documented:
            findings.append(
                f"{opt_rel}:{ln}: options-table: RunOptions::{name} has no "
                f"row in README's \"{OPTIONS_TABLE_HEAD}\" table")


def main() -> int:
    findings: list[str] = []
    for path in sorted(SRC.rglob("*")):
        if path.suffix not in (".hpp", ".cpp"):
            continue
        lines = path.read_text().splitlines()
        check_bare_assert(path, lines, findings)
        if (SRC / "analysis") not in path.parents:
            check_memory_order(path, lines, findings)
    check_standalone_headers(findings)
    check_options_table(findings)
    for f in findings:
        print(f)
    print(f"lint_checks: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
