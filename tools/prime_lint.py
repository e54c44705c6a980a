#!/usr/bin/env python3
"""PRIME-specific lint: project invariants no generic analyzer knows.

A registered-rule framework: every check is a Rule with an id, a
severity, a human description and a file scope.  Run with no flags to
lint the repository, `--list-rules` to see the registry, `--self-test`
to run every rule against its embedded positive/negative fixtures, and
`--report out.json` to write a machine-readable rule-level report (the
CI artifact).

Suppressions
------------
A finding can be suppressed inline, and only with a reason:

    // prime-lint: disable=<rule>[,<rule>...] reason=<non-empty text>

The comment suppresses findings of the named rules on its own line, on
any immediately following `//` comment lines (so the reason can wrap),
and on the first code line after the comment block.  A suppression
without a reason, or naming an unknown rule, is itself a finding
(rule `suppression`) -- the gate cannot be waved through silently.

Rules
-----
span-in-kernel
    PRIME_SPAN must never appear under src/reram/: spans are
    command/transfer granular, and the crossbar MVM inner loops are
    exactly the per-element kernels the tracing layer promises to stay
    out of (see trace_session.hh).

command-spans
    Every Table-I command (mapping::CommandOp) must have a "cmd."
    mnemonic in commandOpName() and a handler case in
    PrimeController::execute(), which itself must open a span through
    commandOpName -- so every executed command shows up in traces.

stats-naming
    StatGroup name literals (stats, histograms, formulas -- the one
    declaration the metrics sampler reads too) follow the dotted
    group.metric convention (lowercase snake segments, >= 1 dot), and
    the files of STAT_NAMESPACES stay inside their namespace (the
    serving path in "serving.").

span-in-sampler
    PRIME_SPAN must never appear in the metrics sampler implementation
    (src/common/telemetry/metrics.cc): the sampler thread runs
    concurrently with every traced phase, and tracing the observer
    would perturb the lanes it is observing.

tsa-raw-mutex
    No raw std::mutex / std::shared_mutex / std::condition_variable
    declarations in src/ outside common/mutex.hh: all lock state
    funnels through the prime::Mutex capability types so the Clang
    Thread Safety Analysis (clang-tsa preset) can check GUARDED_BY /
    REQUIRES contracts.  Template arguments (std::unique_lock<
    std::mutex>) are exempt; the wrapper's own raw_ member carries the
    one blessed suppression.

atomic-order
    Every std::atomic load/store/exchange/fetch_*/compare_exchange
    call spells its memory_order explicitly: stat shards and
    pipeline state words are hot paths where an implicit seq_cst is
    either a silent performance bug or an undocumented ordering
    dependency.  The argument scan is balanced-paren and multi-line.

sampler-lock
    No mutex acquisition inside StatGroup formula closures: a formula
    runs under the registry and group mutexes on the sampler thread
    (lock inversions deadlock it -- only documented leaf locks are
    allowed, via suppression).

Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import dataclasses
import fnmatch
import json
import os
import re
import sys
from typing import Callable, Iterable, Iterator

# --------------------------------------------------------------------------
# Framework
# --------------------------------------------------------------------------


@dataclasses.dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str
    severity: str = "error"
    suppressed: bool = False

    def render(self) -> str:
        tag = f"[{self.rule}]"
        if self.suppressed:
            tag += " (suppressed)"
        return f"{self.path}:{self.line}: {tag} {self.message}"


def strip_comments(text: str) -> str:
    """Replace // and /* */ comment bodies with spaces, preserving the
    line structure (offsets and line numbers stay valid) and skipping
    over string/char literals so a quoted "//" is not a comment."""
    out = list(text)
    i, n = 0, len(text)
    state = "code"  # code | string | char | line | block
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                state = "string"
            elif c == "'":
                state = "char"
        elif state in ("string", "char"):
            if c == "\\":
                i += 2
                continue
            if c == ('"' if state == "string" else "'"):
                state = "code"
        elif state == "line":
            if c == "\n":
                state = "code"
            else:
                out[i] = " "
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c != "\n":
                out[i] = " "
        i += 1
    return "".join(out)


class SourceFile:
    """One file the rules see: repo-relative path + content."""

    def __init__(self, path: str, text: str):
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self._code: str | None = None

    @property
    def code(self) -> str:
        """The text with comment bodies blanked (same offsets)."""
        if self._code is None:
            self._code = strip_comments(self.text)
        return self._code

    @property
    def code_lines(self) -> list[str]:
        return self.code.splitlines()

    def line_of_offset(self, offset: int) -> int:
        return self.text.count("\n", 0, offset) + 1


class Repo:
    """File access for rules: a directory tree or in-memory fixtures."""

    def __init__(self, root: str | None = None,
                 fixtures: dict[str, str] | None = None):
        self.root = root
        self.fixtures = fixtures

    def files(self, subdir: str,
              exts: tuple[str, ...]) -> Iterator[SourceFile]:
        if self.fixtures is not None:
            prefix = subdir.rstrip("/") + "/"
            for path in sorted(self.fixtures):
                if path.startswith(prefix) and path.endswith(exts):
                    yield SourceFile(path, self.fixtures[path])
            return
        assert self.root is not None
        base = os.path.join(self.root, subdir)
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(exts):
                    full = os.path.join(dirpath, name)
                    with open(full, encoding="utf-8") as f:
                        yield SourceFile(os.path.relpath(full, self.root),
                                         f.read())

    def file(self, relpath: str) -> SourceFile | None:
        if self.fixtures is not None:
            text = self.fixtures.get(relpath)
            return SourceFile(relpath, text) if text is not None else None
        assert self.root is not None
        full = os.path.join(self.root, relpath)
        if not os.path.isfile(full):
            return None
        with open(full, encoding="utf-8") as f:
            return SourceFile(relpath, f.read())


CheckFn = Callable[[Repo], Iterator[Finding]]


@dataclasses.dataclass(frozen=True)
class Rule:
    id: str
    severity: str  # "error" | "warning"
    description: str
    scope: str  # human-readable file scope
    check: CheckFn


RULES: dict[str, Rule] = {}


def rule(id: str, severity: str, description: str,
         scope: str) -> Callable[[CheckFn], CheckFn]:
    def wrap(fn: CheckFn) -> CheckFn:
        if id in RULES:
            raise ValueError(f"duplicate rule id {id}")
        RULES[id] = Rule(id, severity, description, scope, fn)
        return fn

    return wrap


def emit(sf: SourceFile, line: int, rule_id: str,
         message: str) -> Finding:
    return Finding(sf.path, line, rule_id, message, RULES[rule_id].severity)


# --------------------------------------------------------------------------
# Suppressions
# --------------------------------------------------------------------------

SUPPRESS_RE = re.compile(
    r"prime-lint:\s*disable=(?P<rules>[\w,-]+)"
    r"(?:\s+reason=(?P<reason>.*))?")


def suppression_map(sf: SourceFile) -> tuple[dict[int, set[str]],
                                             list[Finding]]:
    """Line -> rule-ids suppressed there, plus malformed-suppression
    findings.  A suppression covers its comment line, any directly
    following //-comment lines, and the first code line after them."""
    covered: dict[int, set[str]] = {}
    problems: list[Finding] = []
    for lineno, text in enumerate(sf.lines, 1):
        m = SUPPRESS_RE.search(text)
        if not m:
            continue
        names = {n for n in m.group("rules").split(",") if n}
        reason = (m.group("reason") or "").strip()
        if not reason:
            problems.append(Finding(
                sf.path, lineno, "suppression",
                f"suppression of {sorted(names)} lacks a reason"
                f" (reason=<why this finding is acceptable> is"
                f" mandatory)"))
        unknown = sorted(n for n in names
                         if n not in RULES and n != "suppression")
        if unknown:
            problems.append(Finding(
                sf.path, lineno, "suppression",
                f"suppression names unknown rule(s) {unknown}"))
            names -= set(unknown)
        if not names:
            continue
        # Reach: the comment block itself (lines lineno..end) plus the
        # first code line after it (end + 1).
        end = lineno
        while end < len(sf.lines) and \
                sf.lines[end].lstrip().startswith("//"):
            end += 1
        for covered_line in range(lineno, end + 2):
            covered.setdefault(covered_line, set()).update(names)
    return covered, problems


# --------------------------------------------------------------------------
# Ported rules: span placement, command coverage, naming
# --------------------------------------------------------------------------


@rule("span-in-kernel", "error",
      "PRIME_SPAN is banned from the per-element kernel layer",
      "src/reram/**")
def check_span_in_kernel(repo: Repo) -> Iterator[Finding]:
    for sf in repo.files("src/reram", (".hh", ".cc")):
        for lineno, code in enumerate(sf.code_lines, 1):
            if "PRIME_SPAN" in code:
                yield emit(
                    sf, lineno, "span-in-kernel",
                    "PRIME_SPAN in the crossbar/composing kernel layer;"
                    " spans are command/transfer granular"
                    " (trace_session.hh contract)")


ENUM_RE = re.compile(r"enum\s+class\s+CommandOp[^{]*\{(?P<body>.*?)\}",
                     re.DOTALL)
ENUMERATOR_RE = re.compile(r"^\s*(?P<name>[A-Z]\w*)\s*=", re.MULTILINE)


@rule("command-spans", "error",
      "every CommandOp has a cmd.* mnemonic and a spanned execute case",
      "src/mapping/commands.{hh,cc}, src/prime/controller.cc")
def check_command_spans(repo: Repo) -> Iterator[Finding]:
    commands_hh = repo.file("src/mapping/commands.hh")
    if commands_hh is None:
        return
    m = ENUM_RE.search(commands_hh.text)
    if not m:
        yield Finding("src/mapping/commands.hh", 1, "command-spans",
                      "could not locate 'enum class CommandOp'")
        return
    ops = ENUMERATOR_RE.findall(m.group("body"))

    commands_cc = repo.file("src/mapping/commands.cc")
    if commands_cc is not None:
        for op in ops:
            case_re = re.compile(
                r"case\s+CommandOp::%s\s*:\s*\n?\s*return\s+"
                r"\"(?P<name>[^\"]+)\"" % re.escape(op))
            cm = case_re.search(commands_cc.text)
            if not cm:
                yield Finding(
                    commands_cc.path, 1, "command-spans",
                    f"commandOpName has no case returning a name for"
                    f" CommandOp::{op}")
            elif not cm.group("name").startswith("cmd."):
                yield Finding(
                    commands_cc.path, 1, "command-spans",
                    f"commandOpName for CommandOp::{op} is"
                    f" '{cm.group('name')}'; span names must start with"
                    f" 'cmd.'")

    controller_cc = repo.file("src/prime/controller.cc")
    if controller_cc is None:
        return
    execute_m = re.search(
        r"PrimeController::execute\b.*?\n\{(?P<body>.*?)\n\}",
        controller_cc.text, re.DOTALL)
    if not execute_m:
        yield Finding(controller_cc.path, 1, "command-spans",
                      "could not locate PrimeController::execute")
        return
    body = execute_m.group("body")
    if not re.search(r"PRIME_SPAN\([^;]*commandOpName", body, re.DOTALL):
        yield Finding(
            controller_cc.path, 1, "command-spans",
            "PrimeController::execute does not open a span through"
            " commandOpName: executed commands would be invisible in"
            " traces")
    for op in ops:
        if not re.search(r"case\s+CommandOp::%s\s*:" % re.escape(op),
                         body):
            yield Finding(
                controller_cc.path, 1, "command-spans",
                f"PrimeController::execute has no case for"
                f" CommandOp::{op}")


STAT_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")
STAT_CALL_RE = re.compile(
    r"(?:\.|->)(?P<fn>get|histogram|formula)\(\s*\"(?P<name>[^\"]*)\"")
# Path glob -> the namespace every stat name in those files must use.
STAT_NAMESPACES = {
    "src/serve/**": "serving",
    "bench/bench_serving.cc": "serving",
}


@rule("stats-naming", "error",
      "StatGroup name literals follow dotted group.metric convention"
      " and stay in their file's namespace",
      "src/** (except common/stats.cc), bench/bench_serving.cc")
def check_stats_naming(repo: Repo) -> Iterator[Finding]:
    # The registry itself (common/stats.cc) manipulates raw names; the
    # table's single files outside src/ are scanned too.
    files = [sf for sf in repo.files("src", (".hh", ".cc"))
             if not sf.path.endswith(os.path.join("common", "stats.cc"))]
    files += [sf for sf in map(repo.file, STAT_NAMESPACES)
              if sf is not None and not sf.path.startswith("src/")]
    for sf in files:
        path = sf.path.replace(os.sep, "/")
        ns = next((n for glob, n in STAT_NAMESPACES.items()
                   if fnmatch.fnmatch(path, glob)), None)
        for lineno, text in enumerate(sf.lines, 1):
            for m in STAT_CALL_RE.finditer(text):
                name = m.group("name")
                if not STAT_NAME_RE.match(name):
                    yield emit(
                        sf, lineno, "stats-naming",
                        f"stat name '{name}' does not follow the dotted"
                        f" group.metric convention (lowercase snake"
                        f" segments, >= 1 dot)")
                elif ns is not None and not name.startswith(ns + "."):
                    yield emit(
                        sf, lineno, "stats-naming",
                        f"stat '{name}' in {path} must use the dotted"
                        f" '{ns}.*' namespace")


@rule("span-in-sampler", "error",
      "no PRIME_SPAN in the metrics sampler implementation",
      "src/common/telemetry/metrics.cc")
def check_span_in_sampler(repo: Repo) -> Iterator[Finding]:
    sf = repo.file("src/common/telemetry/metrics.cc")
    if sf is None:
        return
    for lineno, code in enumerate(sf.code_lines, 1):
        if "PRIME_SPAN" in code:
            yield emit(
                sf, lineno, "span-in-sampler",
                "PRIME_SPAN in the metrics sampler: the observer thread"
                " must not write to the trace lanes it observes")


# --------------------------------------------------------------------------
# Concurrency rules
# --------------------------------------------------------------------------

RAW_MUTEX_RE = re.compile(
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex"
    r"|recursive_timed_mutex|shared_timed_mutex"
    r"|condition_variable(?:_any)?)\b")


@rule("tsa-raw-mutex", "error",
      "no raw std::mutex/std::condition_variable declarations; use the"
      " annotated prime::Mutex capability types (common/mutex.hh)",
      "src/** (common/mutex.hh funnels the raw members)")
def check_tsa_raw_mutex(repo: Repo) -> Iterator[Finding]:
    for sf in repo.files("src", (".hh", ".cc")):
        for lineno, code in enumerate(sf.code_lines, 1):
            for m in RAW_MUTEX_RE.finditer(code):
                # Template arguments (std::unique_lock<std::mutex>) name
                # the type without declaring unannotated lock state.
                before = code[:m.start()].rstrip()
                after = code[m.end():].lstrip()
                if before.endswith("<") or after.startswith(">"):
                    continue
                yield emit(
                    sf, lineno, "tsa-raw-mutex",
                    f"raw {m.group(0)} is invisible to the Thread Safety"
                    f" Analysis; declare a prime::Mutex/CondVar"
                    f" (common/mutex.hh) so GUARDED_BY contracts are"
                    f" machine-checked, or suppress with a reason")


ATOMIC_OP_RE = re.compile(
    r"(?:\.|->)(?P<op>load|store|exchange|fetch_add|fetch_sub|fetch_and"
    r"|fetch_or|fetch_xor|compare_exchange_weak|compare_exchange_strong)"
    r"\s*\(")


def balanced_args(text: str, open_paren: int) -> str | None:
    """The argument list starting at text[open_paren] == '(', crossing
    lines, or None when unbalanced (truncated file)."""
    depth = 0
    for i in range(open_paren, len(text)):
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1:i]
    return None


@rule("atomic-order", "error",
      "std::atomic operations spell their memory_order explicitly",
      "src/**, bench/**")
def check_atomic_order(repo: Repo) -> Iterator[Finding]:
    for subdir in ("src", "bench"):
        for sf in repo.files(subdir, (".hh", ".cc")):
            for m in ATOMIC_OP_RE.finditer(sf.code):
                args = balanced_args(sf.code, m.end() - 1)
                if args is None or "memory_order" in args:
                    continue
                lineno = sf.line_of_offset(m.start())
                yield emit(
                    sf, lineno, "atomic-order",
                    f".{m.group('op')}() without an explicit"
                    f" memory_order: implicit seq_cst on a hot path is"
                    f" either a performance bug or an undocumented"
                    f" ordering dependency -- spell it (relaxed /"
                    f" acquire / release / seq_cst) so the contract is"
                    f" reviewable")


LOCK_ACQ_RE = re.compile(
    r"\b(?:MutexLock|UniqueLock|std::lock_guard|std::unique_lock"
    r"|std::scoped_lock)\b|\.lock\(\)")
FORMULA_RE = re.compile(r"(?:\.|->)formula\s*\(")


@rule("sampler-lock", "error",
      "no mutex acquisition inside StatGroup formula closures",
      "formula declaration sites")
def check_sampler_lock(repo: Repo) -> Iterator[Finding]:
    # Formula closures: a tick calls every formula of a watched group
    # while holding the registry and group mutexes on the sampler
    # thread; only documented leaf locks (suppressed with a reason) are
    # tolerable there.
    for sf in repo.files("src", (".hh", ".cc")):
        for m in FORMULA_RE.finditer(sf.code):
            args = balanced_args(sf.code, m.end() - 1)
            if args is None or "[" not in args:
                continue  # no closure argument at this site
            for lm in LOCK_ACQ_RE.finditer(args):
                lineno = sf.line_of_offset(m.end() + lm.start())
                yield emit(
                    sf, lineno, "sampler-lock",
                    f"mutex acquisition ({lm.group(0)}) inside a"
                    f" formula closure: formulas run under the registry"
                    f" and group mutexes on the sampler thread -- only a"
                    f" leaf lock with a reasoned suppression is safe")


# String-keyed StatGroup lookup with at least one argument (so
# unique_ptr/shared_ptr .get() does not match).
STAT_LOOKUP_RE = re.compile(
    r"(?:\.|->)(?:get|histogram|formula)\s*\(\s*[^)\s]")
# Column-0 method-definition line in the repo's style (return type on
# its own line, qualified name starting the next): captures the
# qualified name of the enclosing function.
FUNC_DEF_RE = re.compile(r"^((?:\w+(?:<[^(;]*>)?::)*~?\w+)\s*\(")
# Memory: every function is, or is called from, a request path except
# the publication-only ones (matched on the last name component).
MEM_STATS_ALLOWED = {"MainMemory", "stats", "syncStats"}
# PRIME: the per-command, per-tile and per-stage-step functions (fnmatch
# patterns on the qualified name); constructors, buildStages and
# bindBatchStats bind the stats they use.
PRIME_HOT_FUNCS = ("PrimeController::execute",
                   "PrimeController::computeMat*",
                   "BufferSubarray::read", "BufferSubarray::write*",
                   "PrimeSystem::tiledMvm", "PrimeSystem::runFc",
                   "PrimeSystem::runConv", "PrimeSystem::run",
                   "PrimeSystem::runBatch", "PrimeSystem::stageStep")


def hot_path(path: str, func: str) -> bool:
    """Whether @func in @path runs per request, command or tile."""
    if path.startswith(os.path.join("src", "memory") + os.sep):
        return func.split("::")[-1] not in MEM_STATS_ALLOWED
    if path.startswith(os.path.join("src", "prime") + os.sep):
        return any(fnmatch.fnmatchcase(func, pat)
                   for pat in PRIME_HOT_FUNCS)
    return False


@rule("hot-path-stats", "error",
      "memory request paths and the PRIME command/tile path use bound"
      " Stat pointers or shard counters, never string-keyed StatGroup"
      " lookups",
      "src/memory/**, src/prime/**")
def check_hot_path_stats(repo: Repo) -> Iterator[Finding]:
    # A string-keyed registry lookup costs a map walk (and, past the
    # SSO length, a heap allocation for the key) on every call, and the
    # memory request path runs once per 64-byte burst.  Memory functions
    # sample into their controller's books and the per-bank occupancy
    # Stats bound once; only the MainMemory constructor (which binds
    # them) and stat *publication* (stats()/syncStats) touch the
    # registry.  PRIME's hot functions use the Stat pointers their
    # constructors / buildStages bound.
    for subdir in ("src/memory", "src/prime"):
        for sf in repo.files(subdir, (".hh", ".cc")):
            current = ""
            for lineno, code in enumerate(sf.code_lines, 1):
                m = FUNC_DEF_RE.match(code)
                if m:
                    current = m.group(1)
                if STAT_LOOKUP_RE.search(code) and \
                        hot_path(sf.path, current):
                    yield emit(
                        sf, lineno, "hot-path-stats",
                        f"string-keyed StatGroup lookup in hot function"
                        f" '{current}': bind the Stat once (constructor,"
                        f" buildStages) or sample into the memory bank"
                        f" shard; only the publication paths may touch"
                        f" the registry")


# --------------------------------------------------------------------------
# Runner
# --------------------------------------------------------------------------


def apply_suppressions(repo: Repo,
                       findings: list[Finding]) -> list[Finding]:
    """Mark suppressed findings; append malformed-suppression findings."""
    by_path: dict[str, tuple[dict[int, set[str]], list[Finding]]] = {}

    def maps_for(path: str):
        if path not in by_path:
            sf = repo.file(path)
            by_path[path] = (suppression_map(sf) if sf is not None
                             else ({}, []))
        return by_path[path]

    for f in findings:
        covered, _ = maps_for(f.path)
        if f.rule in covered.get(f.line, set()):
            f.suppressed = True

    # Scan every file (not just ones with findings) for malformed
    # suppressions, so a reason-less disable= fails even when the
    # suppressed rule would not have fired.
    extra: list[Finding] = []
    seen: set[tuple[str, int]] = set()
    scanned: set[str] = set()
    for subdir in ("src", "tools", "bench", "tests"):
        for sf in repo.files(subdir, (".hh", ".cc", ".cpp")):
            scanned.add(sf.path)
            _, problems = suppression_map(sf)
            for p in problems:
                key = (p.path, p.line)
                if key not in seen:
                    seen.add(key)
                    extra.append(p)
    return findings + extra


def run_rules(repo: Repo, rule_ids: Iterable[str]) -> list[Finding]:
    findings: list[Finding] = []
    for rid in rule_ids:
        findings.extend(RULES[rid].check(repo))
    return apply_suppressions(repo, findings)


def summarize(findings: list[Finding],
              rule_ids: list[str]) -> tuple[str, int]:
    """Per-rule pass/fail table + the count of blocking findings."""
    active: dict[str, list[Finding]] = {rid: [] for rid in rule_ids}
    active.setdefault("suppression", [])
    for f in findings:
        active.setdefault(f.rule, []).append(f)
    lines = ["prime_lint: rule summary"]
    blocking = 0
    for rid in sorted(active):
        fs = active[rid]
        live = [f for f in fs if not f.suppressed]
        supp = len(fs) - len(live)
        severity = RULES[rid].severity if rid in RULES else "error"
        if live and severity == "error":
            blocking += len(live)
        status = "FAIL" if live else "PASS"
        note = f"{len(live)} finding(s)"
        if supp:
            note += f", {supp} suppressed"
        lines.append(f"  {status}  {rid:<16} {note}")
    return "\n".join(lines), blocking


def write_report(path: str, findings: list[Finding],
                 rule_ids: list[str]) -> None:
    per_rule = {}
    for rid in sorted(set(rule_ids) | {f.rule for f in findings}):
        fs = [f for f in findings if f.rule == rid]
        per_rule[rid] = {
            "severity": (RULES[rid].severity if rid in RULES
                         else "error"),
            "description": (RULES[rid].description if rid in RULES
                            else "suppression hygiene"),
            "findings": len([f for f in fs if not f.suppressed]),
            "suppressed": len([f for f in fs if f.suppressed]),
        }
    doc = {
        "rules": per_rule,
        "findings": [dataclasses.asdict(f) for f in findings],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


# --------------------------------------------------------------------------
# Self-test fixtures
# --------------------------------------------------------------------------


def fixture_repo(files: dict[str, str]) -> Repo:
    return Repo(fixtures=files)


def expect(failures: list[str], label: str, findings: list[Finding],
           live: int, suppressed: int = 0) -> None:
    got_live = len([f for f in findings if not f.suppressed])
    got_supp = len([f for f in findings if f.suppressed])
    if (got_live, got_supp) != (live, suppressed):
        rendered = "; ".join(f.render() for f in findings) or "none"
        failures.append(
            f"{label}: expected {live} live / {suppressed} suppressed"
            f" finding(s), got {got_live}/{got_supp}: {rendered}")


def self_test() -> int:
    failures: list[str] = []

    # ---- naming rules (ported fixtures) ----
    good_naming = fixture_repo({"src/a.cc": "\n".join([
        'stats.formula("pipeline.stage0.state", fn);',
        'occupancy_.formula("mem.bank0.reads", fn, MetricKind::Counter);',
        'stats.histogram("a.b_c.d2");',
        'stats.get("run.tiled_mvms").increment();',
    ])})
    expect(failures, "naming/good",
           run_rules(good_naming, ["stats-naming"]), 0)

    bad_naming = fixture_repo({"src/a.cc": "\n".join([
        'stats.formula("Depth", fn);',
        'stats.formula("mem.", fn, MetricKind::Counter);',
        'stats.histogram("mem.Bank0.reads");',
        'stats->get("pipeline ring");',
        'stats.get("inferences").add(1);',
    ])})
    expect(failures, "naming/bad",
           run_rules(bad_naming, ["stats-naming"]), 5)

    serving_good = fixture_repo({"src/serve/a.cc": "\n".join([
        'stats_.histogram("serving.e2e_latency_ns");',
        'stats_.formula("serving.queue.depth", fn);',
        'stats.get("serving.sweep.point0.p99_ms").add(v);',
    ])})
    expect(failures, "serving/good",
           run_rules(serving_good, ["stats-naming"]), 0)

    serving_bad = fixture_repo({"src/serve/a.cc": "\n".join([
        'stats_.histogram("latency.e2e_ns");',
        'stats_.formula("serving.Depth", fn);',
        'stats_.formula("serving", fn, MetricKind::Counter);',
        'stats.get("serve.queue.depth").add(1);',
    ])})
    expect(failures, "serving/bad",
           run_rules(serving_bad, ["stats-naming"]), 4)

    # ---- span placement ----
    span_bad = fixture_repo({
        "src/reram/kernel.cc":
            "void mvm() {\n    PRIME_SPAN(trace, \"x\", \"k\");\n}\n",
        "src/common/telemetry/metrics.cc":
            "void tick() {\n    PRIME_SPAN(trace, \"y\", \"m\");\n}\n",
    })
    expect(failures, "span/bad",
           run_rules(span_bad, ["span-in-kernel", "span-in-sampler"]), 2)

    # ---- tsa-raw-mutex ----
    raw_mutex_bad = fixture_repo({"src/x.hh": "\n".join([
        "class C {",
        "    std::mutex m_;",                      # finding
        "    std::condition_variable cv_;",        # finding
        "    std::unique_lock<std::mutex> l_;",    # exempt: template arg
        "    // std::mutex in a comment is fine",
        "    Mutex ok_;",
        "};",
    ])})
    expect(failures, "tsa-raw-mutex/bad",
           run_rules(raw_mutex_bad, ["tsa-raw-mutex"]), 2)

    raw_mutex_suppressed = fixture_repo({"src/x.hh": "\n".join([
        "class C {",
        "    // prime-lint: disable=tsa-raw-mutex reason=capability",
        "    // wrapper implementation detail",
        "    std::mutex raw_;",
        "};",
    ])})
    expect(failures, "tsa-raw-mutex/suppressed",
           run_rules(raw_mutex_suppressed, ["tsa-raw-mutex"]), 0, 1)

    no_reason = fixture_repo({"src/x.hh": "\n".join([
        "class C {",
        "    // prime-lint: disable=tsa-raw-mutex",
        "    std::mutex raw_;",
        "};",
    ])})
    # The mutex finding IS suppressed, but the reason-less suppression
    # itself is a live finding: the gate never passes silently.
    expect(failures, "suppression/no-reason",
           run_rules(no_reason, ["tsa-raw-mutex"]), 1, 1)

    unknown_rule = fixture_repo({"src/x.cc": "\n".join([
        "// prime-lint: disable=no-such-rule reason=testing",
        "int x;",
    ])})
    expect(failures, "suppression/unknown-rule",
           run_rules(unknown_rule, []), 1)

    # ---- atomic-order ----
    atomic_bad = fixture_repo({"src/a.cc": "\n".join([
        "void f() {",
        "    x_.load();",                          # finding
        "    x_.store(1);",                        # finding
        "    c_.fetch_add(1);",                    # finding
        "}",
    ])})
    expect(failures, "atomic-order/bad",
           run_rules(atomic_bad, ["atomic-order"]), 3)

    atomic_good = fixture_repo({"src/a.cc": "\n".join([
        "void f() {",
        "    x_.load(std::memory_order_acquire);",
        "    x_.store(1, std::memory_order_release);",
        "    c_.fetch_add(1,",
        "                 std::memory_order_relaxed);",  # multi-line
        "    if (t_.compare_exchange_weak(",
        "            v, v + 1, std::memory_order_acq_rel,",
        "            std::memory_order_relaxed))",
        "        return;",
        "    queue.pop_front();  // non-atomic member is untouched",
        "}",
    ])})
    expect(failures, "atomic-order/good",
           run_rules(atomic_good, ["atomic-order"]), 0)

    # ---- sampler-lock ----
    sampler_bad = fixture_repo({"src/m.cc": "\n".join([
        "void f(StatGroup &stats) {",
        "    stats.formula(\"a.b\", [this] {",
        "        std::lock_guard<std::mutex> lock(m_);",  # finding
        "        return value_;",
        "    });",
        "}",
    ])})
    expect(failures, "sampler-lock/bad",
           run_rules(sampler_bad, ["sampler-lock"]), 1)

    sampler_suppressed = fixture_repo({"src/m.cc": "\n".join([
        "void f(StatGroup &stats) {",
        "    stats.formula(\"a.b\", [sh] {",
        "        // prime-lint: disable=sampler-lock reason=leaf lock",
        "        MutexLock lock(sh->mutex);",
        "        return sh->value;",
        "    });",
        "}",
    ])})
    expect(failures, "sampler-lock/suppressed",
           run_rules(sampler_suppressed, ["sampler-lock"]), 0, 1)

    sampler_good = fixture_repo({"src/m.cc": "\n".join([
        "void f(StatGroup &stats) {",
        "    stats.formula(\"a.b\", [this] {",
        "        return depth_.load(std::memory_order_relaxed);",
        "    });",
        "}",
    ])})
    expect(failures, "sampler-lock/good",
           run_rules(sampler_good, ["sampler-lock"]), 0)

    # ---- hot-path-stats ----
    hot_stats_bad = fixture_repo({
        "src/memory/ctrl.cc": "\n".join([
            "RequestResult",
            "MemoryController::access(const Request &r)",
            "{",
            "    stats_.get(\"mem.reads\").increment();",     # finding
            "    stats_.histogram(name).sample(v);",          # finding
            "}",
        ]),
        "src/prime/controller.cc": "\n".join([
            "void",
            "PrimeController::execute(const mapping::Command &c)",
            "{",
            "    stats_->get(\"controller.commands\").increment();",  # finding
            "}",
            "void",
            "PrimeController::computeMats(std::span<const int> m)",
            "{",
            "    stats_->get(\"controller.mat_mvms\").increment();",  # finding
            "}",
            "nn::Tensor",
            "PrimeSystem::run(const nn::Tensor &input)",
            "{",
            "    stats_.get(\"run.inferences\").increment();",  # finding
            "}",
            "std::vector<nn::Tensor>",
            "PrimeSystem::runBatch(std::span<const nn::Tensor> in)",
            "{",
            "    stats_.get(\"pipeline.batches\").increment();",  # finding
            "}",
        ]),
    })
    expect(failures, "hot-path-stats/bad",
           run_rules(hot_stats_bad, ["hot-path-stats"]), 6)

    hot_stats_good = fixture_repo({
        "src/memory/mm.cc": "\n".join([
            "void",
            "MainMemory::syncStats()",
            "{",
            "    stats_.get(prefix + \"reads\").increment();",
            "    stats_.histogram(\"mem.service_ns\").merge(h);",
            "}",
            "RequestResult",
            "MemoryController::access(const Request &r)",
            "{",
            "    sh.reads += 1;  // shard counter, no registry",
            "    return controllers_[0].get()->access(r);",  # ptr .get()
            "}",
        ]),
        "src/prime/controller.cc": "\n".join([
            "PrimeController::PrimeController(StatGroup *stats)",
            "{",
            "    commandsStat_ = &stats->get(\"controller.commands\");",
            "}",
            "void",
            "PrimeController::execute(const mapping::Command &c)",
            "{",
            "    commandsStat_->increment();",
            "}",
            "void",
            "PrimeSystem::buildStages()",
            "{",
            "    inferences_ = &stats_.get(\"run.inferences\");",
            "}",
            "void",
            "PrimeSystem::bindBatchStats()",
            "{",
            "    batches_ = &stats_.get(\"pipeline.batches\");",
            "}",
        ]),
    })
    expect(failures, "hot-path-stats/good",
           run_rules(hot_stats_good, ["hot-path-stats"]), 0)

    hot_stats_elsewhere = fixture_repo({"src/sim/x.cc": "\n".join([
        "void",
        "PrimeController::execute(const mapping::Command &c)",
        "{",
        "    stats_.get(\"a.b\").increment();",  # outside both scopes
        "}",
    ])})
    expect(failures, "hot-path-stats/elsewhere",
           run_rules(hot_stats_elsewhere, ["hot-path-stats"]), 0)

    for f in failures:
        print(f"prime_lint self-test: {f}", file=sys.stderr)
    if failures:
        return 1
    print(f"prime_lint: self-test clean ({len(RULES)} rules registered)")
    return 0


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=None,
                        help="repository root (default: the tool's"
                             " parent)")
    parser.add_argument("--self-test", action="store_true",
                        help="run every rule against embedded fixtures"
                             " and exit")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule registry and exit")
    parser.add_argument("--rule", action="append", default=None,
                        help="run only the named rule (repeatable)")
    parser.add_argument("--report", default=None,
                        help="write a JSON rule-level report (CI"
                             " artifact)")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.list_rules:
        for r in sorted(RULES.values(), key=lambda r: r.id):
            print(f"{r.id:<16} {r.severity:<8} {r.scope}")
            print(f"{'':16} {r.description}")
        return 0

    root = args.repo or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"prime_lint: no src/ under {root}", file=sys.stderr)
        return 2

    rule_ids = args.rule or list(RULES)
    unknown = [rid for rid in rule_ids if rid not in RULES]
    if unknown:
        print(f"prime_lint: unknown rule(s) {unknown}", file=sys.stderr)
        return 2

    repo = Repo(root=root)
    findings = run_rules(repo, rule_ids)

    for f in findings:
        print(f.render())
    table, blocking = summarize(findings, rule_ids)
    print(table)
    if args.report:
        write_report(args.report, findings, rule_ids)
    if blocking:
        print(f"prime_lint: {blocking} blocking finding(s)",
              file=sys.stderr)
        return 1
    print("prime_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
