#!/usr/bin/env python3
"""lvplint — project-specific static analysis for lvpsim.

The simulator's value rests on properties the C++ compiler cannot
check: bit-identical results across runs and ``--jobs N`` (the
determinism gate), zero steady-state allocations in the cycle loop
(the throughput work in docs/performance.md), and Table III constants
that match DESIGN.md.  lvplint turns those invariants into a static
gate that runs in milliseconds, with no network access and no
libclang dependency — plain lexical analysis over the tree.

Checks (see docs/static_analysis.md for the rationale of each):

  determinism     banned nondeterminism sources in src/: C rand(),
                  std::random_device, wall-clock reads, iteration
                  hazards from std::unordered_map/set declarations,
                  pointer-keyed containers.
  hotpath-alloc   node-based containers (std::deque/list/map/
                  unordered_*) in src/pipeline/ and src/core/; the
                  hot path must use ring_buffer.hh / flat_map.hh.
  config-sync     the Table III constants in
                  src/pipeline/core_config.hh match every statement
                  of them in DESIGN.md.
  header-hygiene  #pragma once, no `using namespace` at namespace
                  scope in headers, include-order sanity.
  state-snapshot  every data member of a checkpointable class (one
                  declaring both saveState and restoreState) is
                  mentioned in both bodies, and every data member of
                  a struct defining fields() is named in its body, or
                  carries a justified suppression — forgetting a
                  member silently breaks checkpoint/restore
                  bit-identity or drops it from the on-disk format.
  lock-discipline raw std:: mutex/lock types outside common/sync.hh
                  (they are invisible to Clang thread-safety
                  analysis), and members of mutex-holding classes
                  that are neither GUARDED_BY a declared mutex nor
                  atomic/const.
  layering        quote-include edges between src/ modules against
                  the dependency DAG pinned in
                  tools/lint/layering.manifest.
  stale-suppression  ``lvplint: allow`` comments whose check no
                  longer fires on the suppressed line — dead
                  suppressions misdocument the code and mask future
                  regressions.

The last three run on a cross-TU *project model* (class ProjectModel):
the resolved quote-include graph plus a per-class member index that
understands the annotation macros of common/thread_annotations.hh.
Still plain lexical analysis — no libclang, no compile step.

Findings print as ``file:line: [check-id] message`` and the tool
exits nonzero; ``--json`` emits the machine-readable equivalent.

Suppressions: append ``// lvplint: allow(check-id) -- justification``
to the offending line (or put it on the line directly above).  The
justification is mandatory; a suppression without one is itself a
finding (check-id ``suppression``), so every exception in the tree
documents why it is sound.

Adding a check: subclass Check, set ``check_id``/``description``,
implement ``run(tree)`` yielding Finding tuples, and decorate with
``@register``.  The fixture suite under tests/lint_fixtures/ expects
one seeded-violation fixture per check — add one for yours.
"""

import argparse
import json
import os
import re
import sys
from typing import (
    Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple,
)

SCAN_DIRS = ("src", "bench", "tests")
CXX_EXTENSIONS = (".cc", ".hh")

# ---------------------------------------------------------------------------
# Source model


class Finding(NamedTuple):
    path: str  # repo-relative, forward slashes
    line: int  # 1-based; 0 = whole file
    check: str
    message: str


class Suppression(NamedTuple):
    line: int
    target: int  # line the suppression covers (== line, or the first
    #              code line after a comment-only suppression)
    checks: Tuple[str, ...]
    justification: str


SUPPRESS_RE = re.compile(
    r"//\s*lvplint:\s*allow\(([^)]*)\)(?:\s*--\s*(.*\S))?\s*$"
)


class SourceFile:
    """One scanned file: raw text, comment/string-stripped text (line
    structure preserved), and its lvplint suppressions."""

    def __init__(self, path: str, relpath: str):
        self.relpath = relpath
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            self.text = f.read()
        self.lines = self.text.splitlines()
        self.code = strip_comments_and_strings(self.text)
        self.code_lines = self.code.splitlines()
        self.suppressions: List[Suppression] = []
        for i, line in enumerate(self.lines, start=1):
            m = SUPPRESS_RE.search(line)
            if not m:
                continue
            checks = tuple(
                c.strip() for c in m.group(1).split(",") if c.strip()
            )
            # A suppression on a comment-only line covers the first
            # code line below it (continuation comment lines in the
            # justification are skipped); one written at the end of a
            # code line covers that line.
            target = i
            while (
                target <= len(self.code_lines)
                and not self.code_lines[target - 1].strip()
            ):
                target += 1
            self.suppressions.append(
                Suppression(i, target, checks, (m.group(2) or "").strip())
            )

    def is_header(self) -> bool:
        return self.relpath.endswith(".hh")

    def suppressed(self, check_id: str, line: int) -> bool:
        for s in self.suppressions:
            if check_id in s.checks and line in (s.line, s.target):
                return True
        return False


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literal contents, keeping
    newlines so line numbers survive.  Good enough for C++ that does
    not hide quotes in macros."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string literal: R"delim( ... )delim"
                if text[i - 1 : i] == "R" and (
                    i < 2 or not text[i - 2].isalnum()
                ):
                    m = re.match(r'"([^\s()\\]{0,16})\(', text[i:])
                    if m:
                        raw_delim = ")" + m.group(1) + '"'
                        state = "raw"
                        out.append('"')
                        i += 1
                        continue
                state = "str"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append("'")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            elif c == "\\" and nxt == "\n":
                out.append(" \n")
                i += 1
            else:
                out.append(" ")
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
            i += 1
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            else:
                out.append(c if c == "\n" else " ")
            i += 1
        elif state == "raw":
            if text.startswith(raw_delim, i):
                out.append(raw_delim)
                i += len(raw_delim)
                state = "code"
                continue
            out.append(c if c == "\n" else " ")
            i += 1
    return "".join(out)


class Tree:
    """The scanned tree plus lazy file access for checks that read
    files outside the scan set (DESIGN.md, docs/)."""

    def __init__(self, root: str, files: List[SourceFile]):
        self.root = root
        self.files = files

    def read(self, relpath: str) -> Optional[str]:
        path = os.path.join(self.root, relpath)
        if not os.path.isfile(path):
            return None
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            return f.read()


# ---------------------------------------------------------------------------
# Check framework

CHECKS: List["Check"] = []


def register(cls):
    CHECKS.append(cls())
    return cls


class Check:
    check_id = "?"
    description = "?"

    def run(self, tree: Tree) -> Iterator[Finding]:
        raise NotImplementedError


def grep_findings(
    sf: SourceFile,
    patterns: Iterable[Tuple[re.Pattern, str]],
    check_id: str,
) -> Iterator[Finding]:
    for lineno, line in enumerate(sf.code_lines, start=1):
        for pat, why in patterns:
            if pat.search(line):
                yield Finding(sf.relpath, lineno, check_id, why)


# ---------------------------------------------------------------------------
# Check 1: determinism


@register
class DeterminismCheck(Check):
    """Simulation results must be a pure function of (workload, seed,
    config).  Ban ambient-entropy and wall-clock sources, plus the
    iteration-order hazard of unordered containers, in src/.  Only
    the seeded xoshiro RNG in common/random.hh is legal."""

    check_id = "determinism"
    description = (
        "no rand()/random_device/wall-clock/unordered-iteration "
        "hazards in src/ (seeded common/random.hh RNG only)"
    )

    ALLOWLIST = ("src/common/random.hh",)

    PATTERNS = [
        (
            re.compile(r"(?<![\w:])s?rand\s*\("),
            "C rand()/srand() is ambient state; use the seeded RNG "
            "in common/random.hh",
        ),
        (
            re.compile(r"std\s*::\s*random_device"),
            "std::random_device draws ambient entropy; use the "
            "seeded RNG in common/random.hh",
        ),
        (
            re.compile(
                r"std\s*::\s*chrono\s*::\s*"
                r"(system_clock|steady_clock|high_resolution_clock)"
            ),
            "wall-clock reads make results run-dependent; only "
            "timing fields excluded from determinism diffs may use "
            "them (suppress with justification)",
        ),
        (
            re.compile(r"\b(gettimeofday|clock_gettime|timespec_get)\b"),
            "wall-clock reads make results run-dependent",
        ),
        (
            re.compile(r"(?<![\w:])time\s*\(\s*(NULL|nullptr|0)\s*\)"),
            "time() is a wall-clock read",
        ),
        (
            re.compile(r"std\s*::\s*unordered_(map|set|multimap|multiset)\s*<"),
            "std::unordered_* iteration order is unspecified and can "
            "leak into output; use FlatMap/sorted containers, or "
            "suppress with proof the container is never iterated",
        ),
        (
            re.compile(
                r"std\s*::\s*(map|set|multimap|multiset)\s*<"
                r"[^<>]*\*\s*[,>]"
            ),
            "pointer-keyed container: iteration order depends on "
            "allocation addresses",
        ),
        (
            re.compile(
                r"std\s*::\s*(mt19937(_64)?|default_random_engine|"
                r"minstd_rand0?|ranlux(24|48)(_base)?|knuth_b)\b"
                r"\s*\w+\s*(;|\{\s*\}|\(\s*\))"
            ),
            "default-constructed standard RNG engine hides its seed "
            "from the (workload, seed, config) contract; thread the "
            "run seed through common/random.hh instead",
        ),
        (
            re.compile(r"std\s*::\s*(transform_)?reduce\s*\("),
            "std::reduce/std::transform_reduce may reassociate the "
            "accumulation, so floating-point results depend on the "
            "implementation's partitioning; use std::accumulate or "
            "a fixed-order loop, or suppress with proof the "
            "operands are integral",
        ),
    ]

    def run(self, tree: Tree) -> Iterator[Finding]:
        for sf in tree.files:
            if not sf.relpath.startswith("src/"):
                continue
            if sf.relpath in self.ALLOWLIST:
                continue
            yield from grep_findings(sf, self.PATTERNS, self.check_id)


# ---------------------------------------------------------------------------
# Check 2: hot-path allocation


@register
class HotPathAllocCheck(Check):
    """The cycle loop is allocation-free in steady state (see
    docs/performance.md and tests/test_alloc_free.cc).  Node-based
    standard containers allocate per insert; the pipeline and
    predictor state must use ring_buffer.hh / flat_map.hh."""

    check_id = "hotpath-alloc"
    description = (
        "no node-based std:: containers (deque/list/map/unordered_*) "
        "in src/pipeline/ and src/core/; use ring_buffer.hh / "
        "flat_map.hh"
    )

    HOT_DIRS = ("src/pipeline/", "src/core/")

    PATTERNS = [
        (
            re.compile(r"std\s*::\s*deque\s*<"),
            "std::deque allocates per block; use "
            "common/ring_buffer.hh",
        ),
        (
            re.compile(r"std\s*::\s*list\s*<"),
            "std::list allocates per node; use a vector or "
            "common/ring_buffer.hh",
        ),
        (
            re.compile(r"std\s*::\s*(map|multimap|multiset)\s*<"),
            "node-based ordered container allocates per insert; use "
            "common/flat_map.hh or a sorted vector",
        ),
        (
            re.compile(r"std\s*::\s*unordered_(map|set|multimap|multiset)\s*<"),
            "node-based std::unordered_* allocates per insert; use "
            "common/flat_map.hh",
        ),
    ]

    def run(self, tree: Tree) -> Iterator[Finding]:
        for sf in tree.files:
            if not sf.relpath.startswith(self.HOT_DIRS):
                continue
            yield from grep_findings(sf, self.PATTERNS, self.check_id)


# ---------------------------------------------------------------------------
# Check 3: config-paper sync


@register
class ConfigSyncCheck(Check):
    """The paper's Table III core parameters live in
    src/pipeline/core_config.hh and are restated in DESIGN.md prose.
    Every restatement must match the header's defaults, and the
    headline parameters must actually be stated somewhere."""

    check_id = "config-sync"
    description = (
        "Table III constants in src/pipeline/core_config.hh match "
        "every statement of them in DESIGN.md"
    )

    CONFIG_HH = "src/pipeline/core_config.hh"
    DESIGN_MD = "DESIGN.md"

    FIELDS = (
        "fetchWidth",
        "issueWidth",
        "lsLanes",
        "retireWidth",
        "robSize",
        "iqSize",
        "ldqSize",
        "stqSize",
        "fetchToExecute",
    )

    # (field, regex with one capture group, required-in-DESIGN.md)
    PROSE = [
        ("robSize", re.compile(r"\bROB\s+(\d+)\b"), True),
        ("iqSize", re.compile(r"\bIQ\s+(\d+)\b"), True),
        ("ldqSize", re.compile(r"\bLDQ\s+(\d+)\b"), True),
        ("stqSize", re.compile(r"\bSTQ\s+(\d+)\b"), True),
        ("fetchWidth", re.compile(r"\b(\d+)-wide\s+fetch"), True),
        ("issueWidth", re.compile(r"\b(\d+)-wide\s+issue"), True),
        ("lsLanes", re.compile(r"\b(\d+)\s+LS\s+lanes"), True),
        (
            "fetchToExecute",
            re.compile(r"\b(\d+)-cycle\s+fetch-to-execute"),
            True,
        ),
        (
            "fetchToExecute",
            re.compile(r"\b(\d+)-cycle\s+front\s+end"),
            False,
        ),
    ]

    FIELD_RE = re.compile(
        r"^\s*(?:unsigned|Cycle|std::uint\d+_t|int)\s+(\w+)\s*=\s*(\d+)\s*;",
        re.M,
    )

    def run(self, tree: Tree) -> Iterator[Finding]:
        hh = tree.read(self.CONFIG_HH)
        md = tree.read(self.DESIGN_MD)
        if hh is None or md is None:
            # Cross-file checks are inert in trees that lack their
            # subjects; the seeded fixtures under tests/lint_fixtures
            # rely on this.
            return
        values: Dict[str, int] = {}
        for m in self.FIELD_RE.finditer(strip_comments_and_strings(hh)):
            values[m.group(1)] = int(m.group(2))
        for field in self.FIELDS:
            if field not in values:
                yield Finding(
                    self.CONFIG_HH, 0, self.check_id,
                    "Table III field '%s' not found (integer "
                    "member with literal default expected)" % field,
                )

        md_lines = md.splitlines()
        for field, pat, required in self.PROSE:
            if field not in values:
                continue
            seen = False
            for lineno, line in enumerate(md_lines, start=1):
                for m in pat.finditer(line):
                    seen = True
                    stated = int(m.group(1))
                    if stated != values[field]:
                        yield Finding(
                            self.DESIGN_MD, lineno, self.check_id,
                            "%s states %s = %d but %s has %s = %d"
                            % (
                                self.DESIGN_MD, m.group(0), stated,
                                self.CONFIG_HH, field, values[field],
                            ),
                        )
            if required and not seen:
                yield Finding(
                    self.DESIGN_MD, 0, self.check_id,
                    "Table III parameter %s (= %d) is never stated "
                    "(pattern %r not found)"
                    % (field, values[field], pat.pattern),
                )

        yield from self.check_spec_grammar(tree)

    # ------------------------------------------------------------------
    # Second sync pair: the synth: kernel-spec grammar vocabulary
    # (kSpecGrammarFields in src/trace/kernel_spec.cc) against the
    # field table in docs/kernel_dsl.md. Set equality both ways: a
    # key added to the parser must be documented, and a documented
    # key must exist in the parser.

    SPEC_CC = "src/trace/kernel_spec.cc"
    SPEC_MD = "docs/kernel_dsl.md"

    SPEC_ARRAY_RE = re.compile(
        r"kSpecGrammarFields\[\]\s*=\s*\{(.*?)\};", re.S
    )
    SPEC_NAME_RE = re.compile(r'"(\w+)"')
    # Table rows: the leading backticked token of a | `key` | ... row.
    SPEC_ROW_RE = re.compile(r"^\|\s*`(\w+)`\s*\|")

    def check_spec_grammar(self, tree: Tree) -> Iterator[Finding]:
        cc = tree.read(self.SPEC_CC)
        md = tree.read(self.SPEC_MD)
        if cc is None or md is None:
            # Inert without both subjects, like the Table III pair.
            return
        m = self.SPEC_ARRAY_RE.search(cc)
        if m is None:
            yield Finding(
                self.SPEC_CC, 0, self.check_id,
                "kSpecGrammarFields[] initializer not found",
            )
            return
        in_code = {n.group(1) for n in
                   self.SPEC_NAME_RE.finditer(m.group(1))}
        in_doc: Dict[str, int] = {}
        for lineno, line in enumerate(md.splitlines(), start=1):
            row = self.SPEC_ROW_RE.match(line)
            if row:
                in_doc.setdefault(row.group(1), lineno)
        for name in sorted(in_code - set(in_doc)):
            yield Finding(
                self.SPEC_MD, 0, self.check_id,
                "grammar key '%s' (kSpecGrammarFields, %s) has no "
                "`%s` table row in %s"
                % (name, self.SPEC_CC, name, self.SPEC_MD),
            )
        for name in sorted(set(in_doc) - in_code):
            yield Finding(
                self.SPEC_MD, in_doc[name], self.check_id,
                "documented grammar key '%s' is not in "
                "kSpecGrammarFields (%s)" % (name, self.SPEC_CC),
            )


# ---------------------------------------------------------------------------
# Check 4: header hygiene


@register
class HeaderHygieneCheck(Check):
    """Headers: #pragma once (no classic guards), no `using
    namespace` at namespace scope, and include-order sanity — in a
    contiguous run of #include lines, <angle> includes precede
    "quote" includes and each group is alphabetically sorted."""

    check_id = "header-hygiene"
    description = (
        "#pragma once, no using-namespace at namespace scope in "
        "headers, include-order sanity"
    )

    INCLUDE_RE = re.compile(r'^\s*#\s*include\s*([<"])([^>"]+)[>"]')
    USING_RE = re.compile(r"^\s*using\s+namespace\s+[\w:]+\s*;")

    def run(self, tree: Tree) -> Iterator[Finding]:
        for sf in tree.files:
            if not sf.is_header():
                continue
            if "#pragma once" not in sf.code:
                yield Finding(
                    sf.relpath, 1, self.check_id,
                    "header does not use #pragma once",
                )
            yield from self.check_using(sf)
            yield from self.check_include_order(sf)

    NS_TAIL_RE = re.compile(r"(^|\s)(inline\s+)?namespace(\s+[\w:]+)?\s*$")
    NS_LINE_RE = re.compile(r"^(inline\s+)?namespace(\s+[\w:]+)?$")

    def check_using(self, sf: SourceFile) -> Iterator[Finding]:
        # Stack of open braces: True = opened by a namespace, False =
        # anything else (class, function, enum, ...).  `using
        # namespace` is only a finding when every enclosing brace is
        # a namespace (file scope counts: empty stack).
        stack: List[bool] = []
        pending_ns = False
        for lineno, line in enumerate(sf.code_lines, start=1):
            if self.USING_RE.match(line) and all(stack):
                yield Finding(
                    sf.relpath, lineno, self.check_id,
                    "`using namespace` at namespace scope in a "
                    "header leaks into every includer",
                )
            for i, ch in enumerate(line):
                if ch == "{":
                    stack.append(
                        pending_ns
                        or bool(self.NS_TAIL_RE.search(line[:i]))
                    )
                    pending_ns = False
                elif ch == "}":
                    if stack:
                        stack.pop()
            stripped = line.strip()
            if stripped:
                pending_ns = bool(self.NS_LINE_RE.match(stripped))

    def check_include_order(self, sf: SourceFile) -> Iterator[Finding]:
        # A "block" is a contiguous run of #include lines; any other
        # line (blank included) ends it, so the conventional layout —
        # own header / blank / <system> block / blank / "project"
        # block — is three independently checked blocks.
        run: List[Tuple[int, str, str]] = []  # (line, kind, path)
        for lineno, raw in enumerate(sf.lines, start=1):
            # Parse the raw line (the stripper blanks "quoted" paths)
            # but only count it when the stripped line is still a
            # preprocessor directive, so commented-out includes are
            # ignored.
            code = sf.code_lines[lineno - 1]
            m = self.INCLUDE_RE.match(raw)
            if m and code.lstrip().startswith("#"):
                kind = "angle" if m.group(1) == "<" else "quote"
                run.append((lineno, kind, m.group(2)))
                continue
            yield from self.check_run(sf, run)
            run = []
        yield from self.check_run(sf, run)

    def check_run(
        self, sf: SourceFile, run: List[Tuple[int, str, str]]
    ) -> Iterator[Finding]:
        if len(run) < 2:
            return
        seen_quote = False
        prev: Dict[str, Tuple[int, str]] = {}
        for lineno, kind, path in run:
            if kind == "quote":
                seen_quote = True
            elif seen_quote:
                yield Finding(
                    sf.relpath, lineno, self.check_id,
                    "<%s> after a \"quoted\" include in the same "
                    "block; put system headers first or split the "
                    "blocks" % path,
                )
            if kind in prev and path.lower() < prev[kind][1].lower():
                yield Finding(
                    sf.relpath, lineno, self.check_id,
                    "include %r breaks alphabetical order (after "
                    "%r); sort the block" % (path, prev[kind][1]),
                )
            prev[kind] = (lineno, path)


# ---------------------------------------------------------------------------
# Check 5: state-snapshot completeness


def find_matching_brace(text: str, open_idx: int) -> Optional[int]:
    """Index of the '}' closing the '{' at open_idx, or None."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return None


CLASS_RE = re.compile(r"\b(class|struct)\s+([A-Za-z_]\w*)")


def iter_class_bodies(code: str) -> Iterator[Tuple[str, int, int]]:
    """(name, body_start, body_end) for every class/struct definition
    in stripped code, nested ones included."""
    for m in CLASS_RE.finditer(code):
        i = m.end()
        while i < len(code) and code[i].isspace():
            i += 1
        if code.startswith("final", i):
            i += len("final")
        # Only a base clause or an immediate body counts as a
        # definition; anything else (forward declaration,
        # `template <class T>`, elaborated type) is skipped.
        if i >= len(code) or code[i] not in ":{":
            continue
        while i < len(code) and code[i] not in "{;":
            i += 1
        if i >= len(code) or code[i] == ";":
            continue
        close = find_matching_brace(code, i)
        if close is None:
            continue
        yield m.group(2), i + 1, close


@register
class StateSnapshotCheck(Check):
    """Checkpoint/restore (pipe::Core::saveState and friends) is only
    bit-identical if every piece of mutable state reaches the
    snapshot, and the on-disk format only carries what a ``fields()``
    list names.  A new data member that is forgotten in either
    compiles silently and corrupts restored runs in ways only the
    differential tests can catch, long after the edit.  This check
    makes the invariant static: in any class that declares both
    saveState and restoreState, every data member must be mentioned
    by name in both bodies; in any struct that defines ``fields``,
    every data member must be named in its body — or carry a
    justified ``// lvplint: allow(state-snapshot)`` explaining why it
    is not checkpointed state (construction-time config, external
    wiring, scratch buffers)."""

    check_id = "state-snapshot"
    description = (
        "every data member of a class declaring saveState/"
        "restoreState appears in both bodies, and every data member "
        "of a struct defining fields() appears in its body (or is "
        "suppressed with justification)"
    )

    # Each group must be declared in full for its bodies to be
    # cross-checked against the member list.
    FUNCTION_GROUPS = (("saveState", "restoreState"), ("fields",))

    MEMBER_SKIP = {
        "using", "typedef", "friend", "static", "template", "enum",
        "class", "struct", "union", "operator", "virtual", "explicit",
        "extern", "namespace", "public", "private", "protected",
    }

    def run(self, tree: Tree) -> Iterator[Finding]:
        for sf in tree.files:
            if not (
                sf.relpath.startswith("src/") and sf.is_header()
            ):
                continue
            for name, start, end in iter_class_bodies(sf.code):
                yield from self.check_class(
                    tree, sf, name, sf.code[start:end], start
                )

    def check_class(
        self,
        tree: Tree,
        sf: SourceFile,
        cls: str,
        body: str,
        body_off: int,
    ) -> Iterator[Finding]:
        members, declared = self.scan_members(body, body_off)
        for group in self.FUNCTION_GROUPS:
            if not declared.issuperset(group):
                continue
            bodies = [
                self.function_body(tree, cls, body, fn) for fn in group
            ]
            if None in bodies:
                # Declared but not defined anywhere in the scan set:
                # nothing to cross-check (and nothing to anchor a
                # line number to), so stay inert rather than guess.
                continue
            for name, off in members:
                pat = re.compile(r"\b%s\b" % re.escape(name))
                missing = [
                    fn for fn, fn_body in zip(group, bodies)
                    if not pat.search(fn_body)
                ]
                if missing:
                    line = sf.code.count("\n", 0, off) + 1
                    yield Finding(
                        sf.relpath, line, self.check_id,
                        "data member '%s' of '%s' is not mentioned in "
                        "%s; checkpoint it there or justify with a "
                        "suppression"
                        % (name, cls, " or ".join(missing)),
                    )

    def scan_members(
        self, body: str, body_off: int
    ) -> Tuple[List[Tuple[str, int]], Set[str]]:
        """Depth-1 member declarations as (name, code offset), plus
        which FUNCTION_GROUPS functions are declared or defined."""
        members: List[Tuple[str, int]] = []
        declared: Set[str] = set()

        def note_functions(stmt: str) -> None:
            for group in self.FUNCTION_GROUPS:
                for fn in group:
                    if re.search(r"\b%s\s*\(" % fn, stmt):
                        declared.add(fn)

        def flush(stmt: str, start: Optional[int]) -> None:
            note_functions(stmt)
            # Any parenthesis marks a function declaration (possibly
            # a trailing fragment of one whose brace-initialized
            # default argument reset the statement) or a call-style
            # initializer; neither is a plain data member.
            if "(" in stmt or ")" in stmt or "[[" in stmt:
                return
            s = re.sub(r"\b(public|private|protected)\s*:", " ", stmt)
            s = re.sub(r"=.*$", "", s, flags=re.S)
            tokens = re.findall(r"[A-Za-z_]\w*", s)
            if len(tokens) < 2 or tokens[0] in self.MEMBER_SKIP:
                return
            if start is not None:
                members.append((tokens[-1], start))

        depth = 1
        stmt = ""
        start: Optional[int] = None
        i = 0
        while i < len(body):
            c = body[i]
            if c == "{":
                if depth == 1:
                    # Function definition opening, or a brace
                    # initializer / nested type body; either way the
                    # statement so far may declare the snapshot pair.
                    note_functions(stmt)
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 1:
                    # Keep the statement only when it continues into
                    # a ';' (brace-initialized member, `struct X {}
                    # y;`); a function body ends the statement.
                    j = i + 1
                    while j < len(body) and body[j].isspace():
                        j += 1
                    if j >= len(body) or body[j] != ";":
                        stmt, start = "", None
            elif depth == 1:
                if c == ";":
                    flush(stmt, start)
                    stmt, start = "", None
                else:
                    if start is None and not c.isspace():
                        start = body_off + i
                    stmt += c
            i += 1
        return members, declared

    def function_body(
        self, tree: Tree, cls: str, class_body: str, fn: str
    ) -> Optional[str]:
        """The body text of `fn`, defined inline in the class or
        out-of-line as `cls::fn` anywhere in the scan set."""
        m = re.search(
            r"\b%s\s*\([^)]*\)\s*(?:const)?\s*\{" % fn, class_body
        )
        if m:
            close = find_matching_brace(class_body, m.end() - 1)
            if close is not None:
                return class_body[m.end():close]
        qualified = re.compile(r"\b%s\s*::\s*%s\s*\(" % (cls, fn))
        for other in tree.files:
            for qm in qualified.finditer(other.code):
                open_idx = other.code.find("{", qm.end())
                if open_idx < 0:
                    continue
                close = find_matching_brace(other.code, open_idx)
                if close is not None:
                    return other.code[open_idx + 1:close]
        return None


# ---------------------------------------------------------------------------
# Cross-TU project model (lock-discipline, layering)


class IncludeRef(NamedTuple):
    line: int  # 1-based line of the #include in the including file
    spec: str  # the path as written between the quotes
    resolved: Optional[str]  # repo-relative target, None if external


class MemberInfo(NamedTuple):
    name: str
    line: int  # 1-based in the declaring file
    decl: str  # statement text, annotation macros included
    guards: Tuple[str, ...]  # (PT_)GUARDED_BY arguments, in order
    kind: str  # mutex | cv | atomic | once | plain


class ClassIndex(NamedTuple):
    name: str
    path: str  # repo-relative declaring file
    line: int  # 1-based line of the class keyword
    members: Tuple[MemberInfo, ...]


QUOTE_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
GUARD_ARG_RE = re.compile(
    r"\b(?:PT_)?GUARDED_BY\s*\(\s*([A-Za-z_]\w*)\s*\)"
)
ANNOTATION_RE = re.compile(
    r"\b(?:PT_)?GUARDED_BY\s*\([^()]*\)"
    r"|\bACQUIRED_(?:BEFORE|AFTER)\s*\([^()]*\)"
)
MUTEX_TYPE_RE = re.compile(
    r"\b(?:std\s*::\s*)?"
    r"(?:recursive_mutex|shared_mutex|timed_mutex|mutex"
    r"|SharedMutex|Mutex)\b"
)


class ProjectModel:
    """Cross-TU facts the per-file checks cannot see: the resolved
    quote-include graph over the scan set, and a per-class index of
    depth-1 data members classified by synchronization role.  Built
    lazily, once per Tree (``project_model(tree)``); still lexical —
    quote includes are resolved against src/ (the single include
    root, see CMakeLists.txt) and then against the including file's
    directory."""

    MEMBER_SKIP = StateSnapshotCheck.MEMBER_SKIP

    def __init__(self, tree: Tree):
        known = {sf.relpath for sf in tree.files}
        self.includes: Dict[str, List[IncludeRef]] = {}
        self.classes: List[ClassIndex] = []
        for sf in tree.files:
            refs = []
            # Parse raw lines: the stripper blanks "quoted" paths.
            # Commented-out includes are excluded by requiring the
            # stripped line to still be a preprocessor directive.
            for lineno, raw in enumerate(sf.lines, start=1):
                m = QUOTE_INCLUDE_RE.match(raw)
                if not m:
                    continue
                code = sf.code_lines[lineno - 1]
                if not code.lstrip().startswith("#"):
                    continue
                spec = m.group(1)
                refs.append(IncludeRef(
                    lineno, spec,
                    self.resolve(tree, sf.relpath, spec, known),
                ))
            self.includes[sf.relpath] = refs
            for name, start, end in iter_class_bodies(sf.code):
                members = self.scan_members(
                    sf.code, sf.code[start:end], start
                )
                self.classes.append(ClassIndex(
                    name, sf.relpath,
                    sf.code.count("\n", 0, start) + 1,
                    tuple(members),
                ))

    @staticmethod
    def resolve(
        tree: Tree, includer: str, spec: str, known: set
    ) -> Optional[str]:
        src_rooted = "src/" + spec
        rel_to_dir = os.path.normpath(
            os.path.join(os.path.dirname(includer), spec)
        ).replace(os.sep, "/")
        for cand in (src_rooted, rel_to_dir, spec):
            if cand in known or os.path.isfile(
                os.path.join(tree.root, cand)
            ):
                return cand
        return None

    def scan_members(
        self, code: str, body: str, body_off: int
    ) -> List[MemberInfo]:
        """Depth-1 data members of one class body.  Unlike the
        state-snapshot scanner this understands the thread-safety
        annotation macros, whose parentheses would otherwise make an
        annotated member look like a function declaration."""
        members: List[MemberInfo] = []

        def flush(stmt: str, start: Optional[int]) -> None:
            if start is None:
                return
            guards = tuple(GUARD_ARG_RE.findall(stmt))
            s = ANNOTATION_RE.sub(" ", stmt)
            s = re.sub(r"\b(public|private|protected)\s*:", " ", s)
            s = re.sub(r"=.*$", "", s, flags=re.S)
            if "(" in s or ")" in s or "[[" in s:
                return
            tokens = re.findall(r"[A-Za-z_]\w*", s)
            if len(tokens) < 2 or tokens[0] in self.MEMBER_SKIP:
                return
            if "condition_variable" in stmt:
                kind = "cv"
            elif "once_flag" in stmt:
                kind = "once"
            elif re.search(r"\batomic\b", stmt):
                kind = "atomic"
            elif MUTEX_TYPE_RE.search(s):
                kind = "mutex"
            else:
                kind = "plain"
            members.append(MemberInfo(
                tokens[-1], code.count("\n", 0, start) + 1,
                stmt.strip(), guards, kind,
            ))

        depth = 1
        stmt = ""
        start: Optional[int] = None
        i = 0
        while i < len(body):
            c = body[i]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 1:
                    j = i + 1
                    while j < len(body) and body[j].isspace():
                        j += 1
                    if j >= len(body) or body[j] != ";":
                        stmt, start = "", None
            elif depth == 1:
                if c == ";":
                    flush(stmt, start)
                    stmt, start = "", None
                else:
                    if start is None and not c.isspace():
                        start = body_off + i
                    stmt += c
            i += 1
        return members


def project_model(tree: Tree) -> ProjectModel:
    model = getattr(tree, "_project_model", None)
    if model is None:
        model = ProjectModel(tree)
        tree._project_model = model
    return model


def module_of(relpath: str) -> Optional[str]:
    """src/<module>/... -> module name; None outside src/."""
    parts = relpath.split("/")
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None


@register
class LockDisciplineCheck(Check):
    """The thread-safety contracts (docs/static_analysis.md) only
    bite if (a) every lock in model code is one of the annotated
    wrappers from common/sync.hh — raw std:: mutexes carry no
    capability attributes, so Clang's analysis silently ignores them
    — and (b) shared state actually declares its guard.  Half (b) is
    structural: in any class holding a Mutex/SharedMutex member,
    every plain data member must be GUARDED_BY one of the class's
    declared mutexes, or be inherently safe (atomic, const,
    condition variable, once_flag), or carry a justified
    suppression explaining the protocol that makes it safe."""

    check_id = "lock-discipline"
    description = (
        "annotated sync wrappers only in src/, and every member of "
        "a mutex-holding class guarded, atomic/const, or justified"
    )

    RAW_STD_RE = re.compile(
        r"\bstd\s*::\s*(recursive_mutex|shared_mutex|timed_mutex"
        r"|mutex|lock_guard|unique_lock|shared_lock|scoped_lock)\b"
    )

    # The wrappers themselves are built from the raw primitives.
    EXEMPT_FILES = ("src/common/sync.hh",)

    def run(self, tree: Tree) -> Iterator[Finding]:
        for sf in tree.files:
            if not sf.relpath.startswith("src/"):
                continue
            if sf.relpath in self.EXEMPT_FILES:
                continue
            for lineno, line in enumerate(sf.code_lines, start=1):
                m = self.RAW_STD_RE.search(line)
                if m:
                    yield Finding(
                        sf.relpath, lineno, self.check_id,
                        "raw std::%s is invisible to thread-safety "
                        "analysis; use the annotated wrappers in "
                        "common/sync.hh (Mutex/SharedMutex, "
                        "MutexLock/UniqueLock, ReaderLock/WriterLock)"
                        % m.group(1),
                    )
        for ci in project_model(tree).classes:
            if not ci.path.startswith("src/"):
                continue
            yield from self.check_class(ci)

    def check_class(self, ci: ClassIndex) -> Iterator[Finding]:
        mutexes = {m.name for m in ci.members if m.kind == "mutex"}
        if not mutexes:
            return
        for m in ci.members:
            for g in m.guards:
                if g not in mutexes:
                    yield Finding(
                        ci.path, m.line, self.check_id,
                        "GUARDED_BY(%s) on '%s' does not name a "
                        "mutex member of '%s' (declared: %s)"
                        % (g, m.name, ci.name,
                           ", ".join(sorted(mutexes))),
                    )
            if m.kind != "plain" or m.guards:
                continue
            if re.search(r"\bconst\b", m.decl):
                continue
            yield Finding(
                ci.path, m.line, self.check_id,
                "member '%s' of mutex-holding class '%s' is neither "
                "GUARDED_BY a declared mutex nor atomic/const; "
                "annotate it (common/thread_annotations.hh) or "
                "justify a suppression" % (m.name, ci.name),
            )


@register
class LayeringCheck(Check):
    """The module DAG (common -> trace -> branch/memory/core ->
    pipeline -> sim -> qa) is what keeps the predictor layer
    reusable outside the pipeline and the qa harness able to wrap
    everything.  It is pinned in tools/lint/layering.manifest; this
    check walks the resolved quote-include graph and flags any src/
    edge the manifest does not allow, plus drift in the manifest
    itself (unknown modules, undeclared modules, cycles).  A tree
    without a manifest (the lint fixtures) has no layering contract
    and is left alone."""

    check_id = "layering"
    description = (
        "src/ module include edges respect the DAG pinned in "
        "tools/lint/layering.manifest"
    )

    MANIFEST = "tools/lint/layering.manifest"

    def run(self, tree: Tree) -> Iterator[Finding]:
        text = tree.read(self.MANIFEST)
        if text is None:
            return
        allowed: Dict[str, set] = {}
        deferred: List[Tuple[int, str, str]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" not in line:
                yield Finding(
                    self.MANIFEST, lineno, self.check_id,
                    "manifest line is not 'module: dep dep ...'",
                )
                continue
            mod, deps = line.split(":", 1)
            mod = mod.strip()
            allowed[mod] = set()
            for dep in deps.split():
                allowed[mod].add(dep)
                deferred.append((lineno, mod, dep))
        for lineno, mod, dep in deferred:
            if dep not in allowed:
                yield Finding(
                    self.MANIFEST, lineno, self.check_id,
                    "dependency '%s' of module '%s' is not itself "
                    "declared in the manifest" % (dep, mod),
                )
        cycle = self.find_cycle(allowed)
        if cycle:
            yield Finding(
                self.MANIFEST, 0, self.check_id,
                "manifest allows a dependency cycle: %s"
                % " -> ".join(cycle),
            )
            return
        model = project_model(tree)
        undeclared: set = set()
        for sf in tree.files:
            mod = module_of(sf.relpath)
            if mod is None:
                continue
            if mod not in allowed:
                if mod not in undeclared:
                    undeclared.add(mod)
                    yield Finding(
                        self.MANIFEST, 0, self.check_id,
                        "module 'src/%s' (e.g. %s) is not declared "
                        "in the layering manifest"
                        % (mod, sf.relpath),
                    )
                continue
            for ref in model.includes[sf.relpath]:
                if ref.resolved is None:
                    continue
                dep = module_of(ref.resolved)
                if dep is None or dep == mod or dep in allowed[mod]:
                    continue
                yield Finding(
                    sf.relpath, ref.line, self.check_id,
                    "module '%s' must not include \"%s\" (module "
                    "'%s'); allowed dependencies: %s — see "
                    "tools/lint/layering.manifest"
                    % (mod, ref.spec, dep,
                       ", ".join(sorted(allowed[mod])) or "none"),
                )

    @staticmethod
    def find_cycle(allowed: Dict[str, set]) -> Optional[List[str]]:
        state: Dict[str, int] = {}  # 1 = on stack, 2 = done

        def dfs(mod: str, path: List[str]) -> Optional[List[str]]:
            state[mod] = 1
            path.append(mod)
            for dep in sorted(allowed.get(mod, ())):
                if dep not in allowed:
                    continue
                if state.get(dep) == 1:
                    return path[path.index(dep):] + [dep]
                if state.get(dep) is None:
                    found = dfs(dep, path)
                    if found:
                        return found
            path.pop()
            state[mod] = 2
            return None

        for mod in sorted(allowed):
            if state.get(mod) is None:
                found = dfs(mod, [])
                if found:
                    return found
        return None


@register
class StaleSuppressionCheck(Check):
    """A ``// lvplint: allow(...)`` whose check no longer fires on
    its line is worse than dead weight: the justification keeps
    describing a hazard that is gone, and if the hazard ever comes
    back in a different form the stale blanket hides it.  This check
    re-derives every *raw* (pre-suppression) finding and flags each
    well-formed suppression that covers none of them.  Malformed
    suppressions (no justification, unknown check-id) are already
    findings of class ``suppression`` and are skipped here."""

    check_id = "stale-suppression"
    description = (
        "every lvplint suppression still matches a finding on its "
        "target line"
    )

    def run(self, tree: Tree) -> Iterator[Finding]:
        # Driven by run_checks(), which hands in the raw findings of
        # every other check; standalone run() has nothing to compare
        # against.
        return iter(())

    def run_with_raw(
        self, tree: Tree, raw: List[Finding]
    ) -> Iterator[Finding]:
        hits: Dict[Tuple[str, str], set] = {}
        for f in raw:
            hits.setdefault((f.path, f.check), set()).add(f.line)
        known = {c.check_id for c in CHECKS}
        for sf in tree.files:
            for s in sf.suppressions:
                if not s.justification:
                    continue
                if any(c not in known for c in s.checks):
                    continue
                for c in s.checks:
                    lines = hits.get((sf.relpath, c), set())
                    if {s.line, s.target} & lines:
                        continue
                    yield Finding(
                        sf.relpath, s.line, self.check_id,
                        "suppression for '%s' matches no finding on "
                        "line %d; the check would not fire here — "
                        "delete the stale allow()" % (c, s.target),
                    )


# ---------------------------------------------------------------------------
# Driver


def collect_files(root: str) -> List[SourceFile]:
    files: List[SourceFile] = []
    for d in SCAN_DIRS:
        top = os.path.join(root, d)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            rel_dir = os.path.relpath(dirpath, root)
            if "lint_fixtures" in rel_dir.split(os.sep):
                # Fixtures *below this root* contain seeded
                # violations by design; they are linted one at a
                # time via --root (which may itself be a fixture).
                dirnames[:] = []
                continue
            for name in sorted(filenames):
                if not name.endswith(CXX_EXTENSIONS):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                files.append(SourceFile(path, rel))
    return files


def apply_suppressions(
    tree: Tree, findings: List[Finding]
) -> List[Finding]:
    by_path = {sf.relpath: sf for sf in tree.files}
    kept = []
    for f in findings:
        sf = by_path.get(f.path)
        if sf is not None and sf.suppressed(f.check, f.line):
            continue
        kept.append(f)
    # Malformed suppressions are findings themselves: a justification
    # is mandatory, and the check-id must exist.
    known = {c.check_id for c in CHECKS}
    for sf in tree.files:
        for s in sf.suppressions:
            if not s.justification:
                kept.append(
                    Finding(
                        sf.relpath, s.line, "suppression",
                        "suppression without justification; write "
                        "`// lvplint: allow(%s) -- <why this is "
                        "sound>`" % ", ".join(s.checks),
                    )
                )
            for c in s.checks:
                if c not in known:
                    kept.append(
                        Finding(
                            sf.relpath, s.line, "suppression",
                            "unknown check-id %r in suppression "
                            "(known: %s)" % (c, ", ".join(sorted(known))),
                        )
                    )
    return sorted(kept)


def run_checks(root: str, only: Optional[List[str]]) -> List[Finding]:
    tree = Tree(root, collect_files(root))
    # Two phases: every ordinary check runs unconditionally (their
    # raw, pre-suppression findings are what stale-suppression
    # compares the tree's allow() comments against), then --check
    # filters what is reported.  The whole pass is milliseconds, so
    # always running phase 1 costs nothing and keeps staleness exact.
    stale = next(
        c for c in CHECKS if isinstance(c, StaleSuppressionCheck)
    )
    raw: List[Finding] = []
    for check in CHECKS:
        if check is stale:
            continue
        raw.extend(check.run(tree))
    findings = [f for f in raw if not only or f.check in only]
    if not only or stale.check_id in only:
        findings.extend(stale.run_with_raw(tree, raw))
    return apply_suppressions(tree, findings)


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="lvplint", description=__doc__.splitlines()[0]
    )
    ap.add_argument(
        "--root",
        default=os.path.normpath(
            os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "..", "..")
        ),
        help="tree to lint (default: the repo containing this script)",
    )
    ap.add_argument(
        "--check",
        action="append",
        metavar="ID",
        help="run only this check (repeatable)",
    )
    ap.add_argument(
        "--json",
        action="store_true",
        help="emit findings as JSON on stdout",
    )
    ap.add_argument(
        "--list-checks", action="store_true",
        help="list check ids and exit",
    )
    ap.add_argument(
        "--expect",
        metavar="ID",
        help="fixture mode: succeed iff there is at least one finding "
        "and every finding has this check-id",
    )
    ap.add_argument(
        "--expect-clean",
        action="store_true",
        help="fixture mode: succeed iff there are no findings",
    )
    args = ap.parse_args(argv)

    if args.list_checks:
        for c in CHECKS:
            print("%-16s %s" % (c.check_id, c.description))
        return 0

    # "suppression" is the framework's own finding class (malformed
    # `lvplint: allow` comments), valid for --expect but not --check.
    known = {c.check_id for c in CHECKS} | {"suppression"}
    for cid in (args.check or []) + ([args.expect] if args.expect else []):
        if cid not in known:
            print("lvplint: unknown check id %r" % cid, file=sys.stderr)
            return 2

    findings = run_checks(args.root, args.check)

    if args.json:
        doc = {
            "schema_version": 1,
            "tool": "lvplint",
            "root": args.root,
            "checks": sorted(
                c.check_id
                for c in CHECKS
                if not args.check or c.check_id in args.check
            ),
            "findings": [
                {
                    "file": f.path,
                    "line": f.line,
                    "check": f.check,
                    "message": f.message,
                }
                for f in findings
            ],
        }
        print(json.dumps(doc, indent=2, sort_keys=False))
    else:
        for f in findings:
            print("%s:%d: [%s] %s" % (f.path, f.line, f.check, f.message))
        if findings:
            print(
                "lvplint: %d finding%s"
                % (len(findings), "" if len(findings) == 1 else "s"),
                file=sys.stderr,
            )

    if args.expect_clean:
        if findings:
            print(
                "lvplint: expected a clean tree, got %d finding(s)"
                % len(findings),
                file=sys.stderr,
            )
            return 1
        return 0
    if args.expect:
        bad = [f for f in findings if f.check != args.expect]
        if not findings:
            print(
                "lvplint: expected at least one [%s] finding, got none"
                % args.expect,
                file=sys.stderr,
            )
            return 1
        if bad:
            print(
                "lvplint: expected only [%s] findings, also got: %s"
                % (args.expect, ", ".join(sorted({f.check for f in bad}))),
                file=sys.stderr,
            )
            return 1
        return 0

    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
