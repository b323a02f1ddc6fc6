#!/usr/bin/env python3
"""pandora-lint: repo-specific static analysis for the Pandora codebase.

The simulator's correctness rests on invariants that generic tools do not
know about.  This pass enforces the ones that have bitten us or would be
expensive to debug:

  awaiter-retained-address
      No address of an awaiter subobject may be retained across a suspension
      point.  GCC 12 materializes co_await operand temporaries on the stack
      and copies them into the coroutine frame around the suspension point,
      so a pointer captured into an awaiter during await_suspend may dangle
      by await_resume (see the note at the top of src/runtime/channel.h).
      Flagged: taking the address of an awaiter data member inside
      await_suspend.

  suspension-borrow
      The generalization of awaiter-retained-address to whole coroutine
      bodies, and the static form of the PR 3 Circuit* use-after-free: a raw
      pointer, reference or iterator borrowed from scheduler-, pool- or
      map-owned state (FindCircuit(), table_.Find(), it->second.get(),
      container.find()/begin(), container[i], WireRef::get(), ...) must not
      be used after a co_await unless it was re-fetched since the
      suspension.  Today a stale borrow is a logic bug only when the owner
      mutates during the wait; under the sharded M:N scheduler (ROADMAP
      item 1) every one of these is a cross-thread use-after-free.  Flagged:
      a use of a borrowed pointer/reference/iterator with a suspension point
      between it and its latest (re)binding, including uses reached through
      a loop back edge; and range-for loops over owned containers whose body
      suspends.  Fix by re-fetching after each co_await (atm.cc ForwardProc
      is the model) or copying the data out before suspending; a borrow
      whose owner is provably immortal carries a NOLINT with the reason.

  unordered-iteration
      Iteration order of std::unordered_{map,set} depends on hash seeding,
      insertion history and libstdc++ version.  Any loop over an unordered
      container whose order can reach dispatch, trace output or golden
      hashes makes runs irreproducible — and under sharding, per-shard
      nondeterminism.  src/ currently has no unordered containers; this
      rule keeps it that way unless iteration is provably order-independent
      (NOLINT with the reason) or runs over a sorted snapshot.

  thread-primitives
      src/ runs on sequential discrete-event schedulers; determinism is part
      of the design (reproducible experiments, exact-seed replay).  OS
      threads, locks and blocking sleeps would silently break that.
      Flagged: std::thread/mutex/condition_variable/future/async/semaphore,
      <thread>-family includes, pthread_*, sleep()/usleep()/nanosleep().
      The sharded M:N scheduler's worker pool (src/runtime/shard_set.*,
      THREAD_SANCTIONED_FILES) is the one sanctioned exception: its barrier
      protocol is what lets every other src/ file stay sequential.

  include-path
      All project includes are written full-from-root ("src/...", "tests/...",
      "bench/...", "examples/...", "tools/...") so that a file's dependencies
      are visible at a glance and builds do not depend on -I order.

  include-guard
      Headers under src/ use guards derived from their path:
      src/runtime/channel.h -> PANDORA_SRC_RUNTIME_CHANNEL_H_.

  raw-new-delete
      All payload memory comes from the reference-counted BufferPool
      (paper section 3.4); everything else uses containers or unique_ptr.
      Raw new/delete outside src/buffer/ is almost always a leak or a
      double-free waiting to happen.

  std-function-member
      The engine hot path (src/runtime/) is allocation-free in steady state:
      timers, channels and process records all recycle through intrusive
      free lists, and the timer path carries its callable in a fixed-size
      InlineCallback (src/runtime/callback.h).  A std::function member
      re-introduces a type-erased heap allocation per stored callable and
      silently undoes that work.  Flagged: std::function variable/member
      declarations in src/runtime/.  Function parameters (cold-path
      predicates like Scheduler::KillProcesses) are fine and do not match;
      a deliberate cold-path member carries a NOLINT with a reason.

  bare-assert
      assert() vanishes under -DNDEBUG; invariants in src/ must use
      PANDORA_CHECK/PANDORA_DCHECK from src/runtime/check.h, which are
      never silently compiled out (DCHECK still parses its expression).

  trace-macros
      All instrumentation goes through the PANDORA_TRACE_* macros
      (src/trace/trace.h); the macros own the enabled-guards, lazy site
      interning and the compile-out path, so a direct call to
      TraceRecorder::Record* outside src/trace/ silently loses the
      zero-overhead-when-disabled guarantee.  Intern*/Enable/ExportJson
      calls are fine anywhere (they are cold-path setup).

  fault-hooks
      Mid-run impairment of network state (AtmNetwork::SetPortUp /
      RestartPort / SetCircuitQuality / SetCircuitUp) is
      reserved to the fault layer.  Anywhere else these mutators bypass the
      FaultDriver's snapshot/restore bookkeeping, so the run stops being
      reproducible from (plan, seed) and nothing puts the parameters back.
      Script the episode in a FaultPlan instead (src/fault/plan.h).  Outside
      src/fault/ and src/net/ the only sanctioned caller is the box crash
      lifecycle (PandoraBox::Crash/Restart parking its own port), which
      carries per-line NOLINT exemptions.

  segment-channels
      The data plane moves refcounted handles, never segments by value: a
      Channel<Segment> deep-copies header + payload at every rendezvous,
      which is exactly the per-hop copying the wire refactor (DESIGN.md
      section 9) removed.  Inside src/, plumb Channel<SegmentRef> (decoded,
      pool-backed) or NetTx/NetRx wire handles (encoded bytes) instead.

  pooled-segment-assign
      A BufferPool slot keeps its segment's heap capacity across reuse
      (PoolRecycle clears, never frees), which is what lets the data path
      run without allocating.  Assigning a whole new Segment into the slot
      throws that capacity away: `*ref = MakeAudioSegment(...)` /
      `MakeVideoSegment(...)` and `*ref = std::move(segment)` both move a
      freshly allocated payload in and free the slot's.  Flagged in src/:
      the Make* form through any dereference, and the std::move form into a
      name the file declares as a SegmentRef.  Fill the slot in place
      (FillAudioSegment / FillVideoSegment / DecodeSegmentInto), std::swap a
      scratch segment in, or copy-assign.

The mutable-global audit (every non-const static in src/ must carry a
PANDORA_SHARD_LOCAL / PANDORA_SHARD_SHARED annotation) is the cross-file
sibling of this tool: tools/lint/shard_audit.py.

Suppress a finding by appending "// NOLINT(pandora-<rule>)" (or a bare
"// NOLINT") to the offending line, with a reason:

    std::mutex m;  // NOLINT(pandora-thread-primitives): host-side tool

Usage:
    pandora_lint.py [--root DIR]      # lint src/ tests/ bench/ examples/
    pandora_lint.py --timing ...      # also print per-rule wall time
    pandora_lint.py --self-test       # run against tools/lint/testdata/
"""

import argparse
import os
import re
import sys
import time

SCAN_DIRS = ("src", "tests", "bench", "examples")
SOURCE_EXTS = (".h", ".cc", ".cpp")

ALLOWED_INCLUDE_PREFIXES = ("src/", "tests/", "bench/", "examples/", "tools/")

# One alternation so the per-line scan is a single regex pass.
THREAD_PRIMITIVES_RE = re.compile(
    r"std::(?:j?thread|timed_mutex|recursive_mutex|shared_mutex|mutex|"
    r"condition_variable|counting_semaphore|binary_semaphore|latch|barrier|"
    r"future|promise|async|this_thread)\b"
    r"|\bpthread_\w+"
    r"|(?<![\w.:])(?:sleep|usleep|nanosleep)\s*\("
)

# std::function declaration that ends its statement (rule
# std-function-member).  A parameter list has ')' between the name and the
# ';', so cold-path predicate parameters do not match.
STD_FUNCTION_MEMBER_RE = re.compile(
    r"std::function\s*<.*>\s*&?\s*[A-Za-z_]\w*\s*(=[^;]*)?;")

# Direct TraceRecorder::Record* call (member access syntax only, so the
# recorder's own definitions and e.g. Simulation::RecordStream stay clean).
TRACE_RECORD_RE = re.compile(
    r"(?:\.|->)\s*Record"
    r"(?:Begin|End|Complete|Instant(?:Args)?|Counter|Async(?:Begin|End)|Histogram)"
    r"\s*\("
)

# Impairment mutators owned by the fault layer (rule fault-hooks).  Plain
# word match: the definitions live in src/net/ and the driver in src/fault/,
# both exempt, so any other occurrence is a call site to flag.
FAULT_HOOK_RE = re.compile(
    r"\b(?:SetPortUp|RestartPort|SetCircuitQuality|SetCircuitUp)\s*\("
)
FAULT_HOOK_ALLOWED = ("src/fault/", "src/net/")

# By-value segment rendezvous (rule segment-channels).  SegmentRef/WireRef
# channels are the sanctioned shapes; matching the bare value type keeps the
# regex from firing on them (">" can't appear in "SegmentRef").
SEGMENT_CHANNEL_RE = re.compile(r"\bChannel\s*<\s*Segment\s*>")

# Whole-segment assignment through a dereference (rule pooled-segment-assign).
# The lookbehind keeps multiplication ("a * b = ...") from matching.
MAKE_SEGMENT_ASSIGN_RE = re.compile(
    r"(?<![\w)\]])\*+\s*[A-Za-z_][\w.]*\s*=\s*Make(?:Audio|Video)Segment\s*\(")
MOVE_ASSIGN_RE = re.compile(r"(?<![\w)\]])\*+\s*([A-Za-z_]\w*)\s*=\s*std::move\s*\(")
# Names declared with a SegmentRef type: locals, parameters, members and
# std::optional<SegmentRef> wrappers.
SEGMENT_REF_DECL_RE = re.compile(
    r"\b(?:SegmentRef|PoolRef\s*<\s*Segment\s*>)\s*>?\s*[&*]*\s*([A-Za-z_]\w*)\s*[;=,)({]")

THREAD_INCLUDES = [
    "<thread>",
    "<mutex>",
    "<condition_variable>",
    "<shared_mutex>",
    "<semaphore>",
    "<latch>",
    "<barrier>",
    "<future>",
]
THREAD_INCLUDE_RE = re.compile(
    r"\s*#\s*include\s+(" + "|".join(re.escape(i) for i in THREAD_INCLUDES) + ")")

# The sharded M:N scheduler (ROADMAP item 1) is the single sanctioned home of
# OS threading inside src/: its worker pool and conservative-sync barrier are
# exactly the machinery that keeps every *other* src/ file on a sequential
# per-shard event loop.  Everything outside this list still gets flagged, so
# a stray mutex in a protocol file cannot ride in on the sharding precedent.
THREAD_SANCTIONED_FILES = frozenset((
    "src/runtime/shard_set.h",
    "src/runtime/shard_set.cc",
))

BARE_ASSERT_RE = re.compile(r"(?<!static_)\bassert\s*\(")
ASSERT_INCLUDE_RE = re.compile(r"\s*#\s*include\s+<(cassert|assert\.h)>")
INCLUDE_RE = re.compile(r'\s*#\s*include\s+"([^"]+)"')


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [pandora-{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line layout.

    Replacement uses spaces (and keeps newlines) so that line/column numbers
    of the surviving code are unchanged.
    """
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw_string
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == "R" and nxt == '"':
                m = re.match(r'R"([^(\s\\"]*)\(', text[i:])
                if m:
                    state = "raw_string"
                    raw_delim = ")" + m.group(1) + '"'
                    out.append(" " * m.end())
                    i += m.end()
                else:
                    out.append(c)
                    i += 1
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                if i > 0 and text[i - 1].isdigit() and nxt.isdigit():
                    # C++14 digit separator (64'000), not a char literal.
                    out.append("'")
                    i += 1
                else:
                    state = "char"
                    out.append(" ")
                    i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == "raw_string":
            if text.startswith(raw_delim, i):
                state = "code"
                out.append(" " * len(raw_delim))
                i += len(raw_delim)
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        else:  # string or char
            if c == "\\":
                out.append("  ")
                i += 2
            elif (state == "string" and c == '"') or (state == "char" and c == "'"):
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def nolint_rules(raw_line):
    """Returns None (no suppression), "all", or a set of suppressed rules."""
    m = re.search(r"//\s*NOLINT(?:\(([^)]*)\))?", raw_line)
    if not m:
        return None
    if m.group(1) is None:
        return "all"
    rules = set()
    for entry in m.group(1).split(","):
        entry = entry.strip()
        if entry.startswith("pandora-"):
            entry = entry[len("pandora-"):]
        rules.add(entry)
    return rules


def find_matching_brace(text, open_idx):
    """Index of the '}' matching the '{' at open_idx, or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


def line_of(text, idx):
    return text.count("\n", 0, idx) + 1


# --- shared per-file context -------------------------------------------------
#
# Every rule works off one FileContext: the file is read once, comment/string-
# stripped once and split once, and the more expensive derived structures
# (function bodies, loop extents) are computed lazily and shared.  Rules must
# not re-read or re-strip the file.

FN_HEAD_KEYWORDS = frozenset((
    "if", "for", "while", "switch", "catch", "return", "co_await", "co_yield",
    "co_return", "sizeof", "alignof", "decltype", "noexcept", "assert",
))

FN_BODY_RE = re.compile(r"\)[^;{}()]*\{")
# A lambda with no parameter list ("[&] { ... }") has no ')' before its body;
# its brace follows the capture list directly.
LAMBDA_NOPAREN_RE = re.compile(r"\]\s*(?:mutable\s*)?(?:noexcept\s*)?\{")
LOOP_HEAD_RE = re.compile(r"\b(for|while)\s*\(")
DO_LOOP_RE = re.compile(r"\bdo\s*\{")
CO_AWAIT_RE = re.compile(r"\bco_(?:await|yield)\b")


class FileContext:
    def __init__(self, relpath, text):
        self.relpath = relpath
        self.text = text
        self.raw_lines = text.split("\n")
        self.code = strip_comments_and_strings(text)
        self.code_lines = self.code.split("\n")
        self.in_src = relpath.startswith("src/")
        self.is_header = relpath.endswith(".h")
        self._fn_bodies = None

    def function_bodies(self):
        """Spans (open_brace_idx, close_brace_idx) of function-like bodies:
        free/member functions and lambdas, excluding control-flow blocks."""
        if self._fn_bodies is None:
            self._fn_bodies = self._find_function_bodies()
        return self._fn_bodies

    def _find_function_bodies(self):
        code = self.code
        bodies = []
        for m in FN_BODY_RE.finditer(code):
            open_brace = m.end() - 1
            # Walk back to the '(' matching the ')' that opened this match.
            depth = 0
            i = m.start()
            while i >= 0:
                if code[i] == ")":
                    depth += 1
                elif code[i] == "(":
                    depth -= 1
                    if depth == 0:
                        break
                i -= 1
            if i < 0:
                continue
            head = code[:i].rstrip()
            kw = re.search(r"([A-Za-z_]\w*)\s*$", head)
            if kw and kw.group(1) in FN_HEAD_KEYWORDS:
                continue  # if (...) { / while (...) { / ... are not functions
            close = find_matching_brace(code, open_brace)
            if close < 0:
                continue
            bodies.append((open_brace, close))
        for m in LAMBDA_NOPAREN_RE.finditer(code):
            open_brace = m.end() - 1
            close = find_matching_brace(code, open_brace)
            if close >= 0:
                bodies.append((open_brace, close))
        return bodies


# --- rule: awaiter-retained-address -----------------------------------------

MEMBER_RE = re.compile(
    r"^\s*(?!return\b|if\b|for\b|while\b|switch\b|else\b|using\b|typedef\b|"
    r"static_assert\b|public\b|private\b|protected\b|friend\b|template\b|"
    r"struct\b|class\b|enum\b)"
    r"[A-Za-z_][\w:<>,*&\s]*?[\s&*]"
    r"([A-Za-z_]\w*)\s*(?:=[^;]*|\{[^;]*\})?;\s*$",
    re.MULTILINE,
)


def awaiter_members(struct_body):
    """Best-effort list of data member names declared in a struct body."""
    # Only look at top brace level of the struct: blank out nested braces.
    flat = []
    depth = 0
    for c in struct_body:
        if c == "{":
            depth += 1
            flat.append(" ")
        elif c == "}":
            depth -= 1
            flat.append(" ")
        else:
            flat.append(c if depth == 0 else (" " if c != "\n" else "\n"))
    flat = "".join(flat)
    return {m.group(1) for m in MEMBER_RE.finditer(flat)}


def rule_awaiter_retained_address(ctx, report):
    """Rule awaiter-retained-address (see module docstring).

    Runs everywhere: tests define awaiters too."""
    code = ctx.code
    # Find struct/class bodies that define await_suspend.
    for m in re.finditer(r"\b(?:struct|class)\s+([A-Za-z_]\w*)[^;{]*\{", code):
        open_idx = m.end() - 1
        close_idx = find_matching_brace(code, open_idx)
        if close_idx < 0:
            continue
        body = code[open_idx + 1:close_idx]
        if "await_suspend" not in body:
            continue
        members = awaiter_members(body)
        if not members:
            continue
        # Locate the await_suspend function body within the struct.
        fm = re.search(r"await_suspend\s*\([^)]*\)[^{;]*\{", body)
        if not fm:
            continue
        fopen = fm.end() - 1
        fclose = find_matching_brace(body, fopen)
        if fclose < 0:
            continue
        fbody = body[fopen + 1:fclose]
        fbody_abs = open_idx + 1 + fopen + 1  # offset of fbody within `code`
        for am in re.finditer(r"&\s*(?:this\s*->\s*)?([A-Za-z_]\w*)\b", fbody):
            # Skip &&, operator&, and reference-parameter declarations.
            before = fbody[:am.start()].rstrip()
            if before.endswith("&") or before.endswith("operator"):
                continue
            name = am.group(1)
            if name not in members:
                continue
            idx = fbody_abs + am.start()
            report(
                line_of(code, idx),
                "awaiter-retained-address",
                f"address of awaiter member '{name}' taken inside "
                "await_suspend; awaiter frames may be relocated across the "
                "suspension point (GCC 12) — park values in heap-stable "
                "state instead (see src/runtime/channel.h)",
            )


# --- rule: suspension-borrow -------------------------------------------------
#
# A per-coroutine dataflow approximation.  Within each function body that
# contains a suspension point:
#
#   1. Collect "borrow" variables: pointer/reference/iterator locals whose
#      initializer reaches into owned state (BORROW_SOURCE_RE below).
#   2. Collect every (re)binding position of each borrow (declaration plus
#      plain assignments — the ForwardProc re-fetch idiom).
#   3. Flag a use when a suspension point lies between the textually latest
#      binding and the use (straight-line staleness), or when the use sits in
#      a loop that suspends and neither the loop tail after its last
#      suspension nor the loop head before the use re-binds the borrow (the
#      back-edge case: iteration N+1 reads a pointer fetched before
#      iteration N's co_await).
#   4. Flag range-for statements whose range expression is a plain member /
#      deref chain (borrowing the container in place, not a returned
#      temporary) and whose body suspends: the hidden begin/end iterators
#      live across every suspension in the body.
#
# One finding per variable per function (the first stale use) keeps the
# output actionable.

BORROW_SOURCE_RE = re.compile(
    r"(?:\.|->)get\s*\(\s*\)"                        # WireRef::get(), unique_ptr::get()
    r"|\bFind\w*\s*\("                               # FindCircuit(), table_.Find()
    r"|->\s*second\b"                                # map-iterator payload
    r"|(?:\.|->)(?:find|begin|cbegin|end|cend|lower_bound|upper_bound)\s*\("
    r"|(?:\.|->)(?:front|back|data)\s*\(\s*\)"
    r"|\]\s*$"                                       # container element: path[i]
)

PTR_REF_DECL_RE = re.compile(
    r"(?:^|(?<=[;{}]))\s*"
    r"(?:const\s+)?(?:[A-Za-z_][\w:]*(?:<[^<>;]*>)?|auto)\s*[*&]+\s*"
    r"(?P<name>[A-Za-z_]\w*)\s*=\s*(?P<init>[^;]*);"
)

AUTO_DECL_RE = re.compile(
    r"(?:^|(?<=[;{}]))\s*(?:const\s+)?auto\s+(?P<name>[A-Za-z_]\w*)\s*=\s*(?P<init>[^;]*);"
)

RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?[\w:<>\[\]]+(?:\s*[*&]+\s*|\s+[*&]?\s*)"
    r"[A-Za-z_]\w*\s*:\s*(?P<range>[^)]*)\)\s*\{"
)

# A range expression that borrows the container in place: a member / deref /
# index chain with no function call (a call's return value is a temporary the
# range-for itself owns).
RANGE_BORROW_RE = re.compile(r"^[\w.\->\[\]_\s*&]+$")
RANGE_OWNED_RE = re.compile(r"->|\.|\w_\b|\w_\.")


JUMP_TAIL_RE = re.compile(r"(?:\bcontinue|\bbreak|\bco_return\b[^;{}]*|\breturn\b[^;{}]*)\s*;\s*$")


def _jump_terminated_blocks(body):
    """(open, close) spans of brace blocks whose last statement jumps."""
    blocks = []
    stack = []
    for i, c in enumerate(body):
        if c == "{":
            stack.append(i)
        elif c == "}" and stack:
            bs = stack.pop()
            if JUMP_TAIL_RE.search(body[bs + 1:i].rstrip()):
                blocks.append((bs, i))
    return blocks


def _loop_spans(body):
    """(start, end) spans of loop bodies within `body` (local offsets)."""
    spans = []
    for m in LOOP_HEAD_RE.finditer(body):
        # Skip the loop head's parenthesised clause, then expect '{'.
        depth = 0
        i = m.end() - 1
        n = len(body)
        while i < n:
            if body[i] == "(":
                depth += 1
            elif body[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if i >= n:
            continue
        j = i + 1
        while j < n and body[j].isspace():
            j += 1
        if j >= n or body[j] != "{":
            continue  # single-statement loop body: nothing suspends in one stmt
        close = find_matching_brace(body, j)
        if close < 0:
            continue
        spans.append((j, close))
    for m in DO_LOOP_RE.finditer(body):
        open_idx = m.end() - 1
        close = find_matching_brace(body, open_idx)
        if close >= 0:
            spans.append((open_idx, close))
    return spans


def rule_suspension_borrow(ctx, report):
    if not ctx.in_src:
        return
    code = ctx.code
    bodies = ctx.function_bodies()
    for (open_brace, close_brace) in bodies:
        body = code[open_brace + 1:close_brace]
        if not CO_AWAIT_RE.search(body):
            continue
        # Mask nested function-like bodies (lambdas, local structs): they are
        # separate coroutine scopes and are analyzed on their own.
        masked = body
        for (o2, c2) in bodies:
            if open_brace < o2 and c2 < close_brace:
                s = o2 - (open_brace + 1)
                e = c2 - (open_brace + 1) + 1
                masked = masked[:s] + re.sub(r"[^\n]", " ", masked[s:e]) + masked[e:]
        # A suspension "takes effect" at the end of its statement: the
        # co_await operand expression is evaluated before suspending, so a
        # borrow used inside the operand is not stale yet.
        suspensions = []
        for m in CO_AWAIT_RE.finditer(masked):
            stmt_end = masked.find(";", m.end())
            suspensions.append(stmt_end if stmt_end >= 0 else m.start())
        if not suspensions:
            continue
        loops = [(ls, le) for (ls, le) in _loop_spans(masked)
                 if any(ls < s < le for s in suspensions)]
        # Blocks whose last statement jumps (continue/break/return/co_return)
        # never fall through: a suspension inside one cannot precede a use
        # beyond its closing brace on any straight-line path.
        jump_blocks = _jump_terminated_blocks(masked)
        base = open_brace + 1  # offset of body within code

        # ---- borrowed locals --------------------------------------------
        borrows = {}  # name -> decl position (local offset)
        for decl_re in (PTR_REF_DECL_RE, AUTO_DECL_RE):
            for m in decl_re.finditer(masked):
                init = m.group("init").rstrip()
                if BORROW_SOURCE_RE.search(init):
                    name = m.group("name")
                    if name not in borrows or m.start("name") < borrows[name]:
                        borrows[name] = m.start("name")

        for name, decl_pos in sorted(borrows.items(), key=lambda kv: kv[1]):
            bind_re = re.compile(r"(?<![\w.])" + re.escape(name) + r"\s*=(?![=])")
            bindings = sorted({decl_pos} |
                              {m.start() for m in bind_re.finditer(masked)})
            use_re = re.compile(r"\b" + re.escape(name) + r"\b")
            flagged = False
            for um in use_re.finditer(masked):
                u = um.start()
                if u <= decl_pos:
                    continue
                if any(b <= u < b + len(name) + 4 for b in bindings):
                    continue  # this occurrence is a (re)binding, not a use
                latest = max((b for b in bindings if b < u), default=decl_pos)
                stale = any(
                    latest < s < u and not any(
                        bs < s < be < u for (bs, be) in jump_blocks)
                    for s in suspensions)
                if not stale:
                    for (ls, le) in loops:
                        if not (ls < u < le):
                            continue
                        s_last = max(s for s in suspensions if ls < s < le)
                        rebinds_tail = any(s_last < b < le for b in bindings)
                        rebinds_head = any(ls < b < u for b in bindings)
                        if not rebinds_tail and not rebinds_head:
                            stale = True
                            break
                if stale:
                    report(
                        line_of(code, base + u),
                        "suspension-borrow",
                        f"'{name}' borrows owned state (declared at line "
                        f"{line_of(code, base + decl_pos)}) and is used after "
                        "a co_await without being re-fetched; the owner can "
                        "mutate during the suspension — and will, once shards "
                        "run in parallel (ROADMAP item 1).  Re-fetch after "
                        "every suspension (see AtmNetwork::ForwardProc), copy "
                        "the data out first, or NOLINT with the reason the "
                        "owner is stable",
                    )
                    flagged = True
                    break  # one finding per borrow per function
            del flagged

        # ---- range-for over owned containers ----------------------------
        for m in RANGE_FOR_RE.finditer(masked):
            range_expr = m.group("range").strip()
            if not RANGE_BORROW_RE.match(range_expr):
                continue  # call result: a temporary owned by the loop itself
            if not RANGE_OWNED_RE.search(range_expr):
                continue  # plain local: frame-owned, safe across suspension
            fopen = m.end() - 1
            fclose = find_matching_brace(masked, fopen)
            if fclose < 0:
                continue
            if not CO_AWAIT_RE.search(masked[fopen:fclose]):
                continue
            report(
                line_of(code, base + m.start()),
                "suspension-borrow",
                f"range-for over '{range_expr}' holds iterators into owned "
                "state across the suspension points in its body; growth, "
                "repack or teardown during a wait invalidates them.  Iterate "
                "by index with a per-step bounds check, copy the element out "
                "before suspending, or NOLINT with the reason the container "
                "cannot change",
            )


# --- rule: unordered-iteration ----------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*[;{=(]"
)
ANY_RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*(?P<range>[^)]*)\)")


def rule_unordered_iteration(ctx, report):
    if not ctx.in_src:
        return
    code = ctx.code
    names = {m.group("name") for m in UNORDERED_DECL_RE.finditer(code)}
    if not names:
        return
    name_alt = "|".join(re.escape(n) for n in sorted(names))
    begin_re = re.compile(r"\b(" + name_alt + r")\s*(?:\.|->)\s*c?begin\s*\(")
    member_re = re.compile(r"\b(" + name_alt + r")\b")
    msg = (
        "iterates an unordered container ('{}'); the visit order depends on "
        "hash seed and insertion history, so anything it feeds — dispatch, "
        "trace output, golden hashes — goes nondeterministic (and per-shard "
        "divergent under ROADMAP item 1).  Iterate a sorted snapshot, use "
        "std::map, or NOLINT with the reason order cannot escape"
    )
    for m in ANY_RANGE_FOR_RE.finditer(code):
        hit = member_re.search(m.group("range"))
        if hit:
            report(line_of(code, m.start()), "unordered-iteration",
                   msg.format(hit.group(1)))
    for m in begin_re.finditer(code):
        report(line_of(code, m.start()), "unordered-iteration",
               msg.format(m.group(1)))


# --- line-scan rules ---------------------------------------------------------


def rule_include_path(ctx, report):
    for i, raw in enumerate(ctx.raw_lines, 1):
        m = INCLUDE_RE.match(raw)
        if m and not m.group(1).startswith(ALLOWED_INCLUDE_PREFIXES):
            report(
                i, "include-path",
                f'include "{m.group(1)}" is not written full-from-root '
                "(expected a src/, tests/, bench/, examples/ or tools/ prefix)",
            )


def rule_include_guard(ctx, report):
    if not (ctx.in_src and ctx.is_header):
        return
    relpath = ctx.relpath
    expected = (
        "PANDORA_" + relpath[:-len(".h")].upper().replace("/", "_").replace(".", "_")
        + "_H_"
    )
    gm = re.search(r"#\s*ifndef\s+(\S+)\s*\n\s*#\s*define\s+(\S+)", ctx.code)
    if not gm:
        report(1, "include-guard",
               f"missing include guard (expected {expected})")
    elif gm.group(1) != expected or gm.group(2) != expected:
        report(line_of(ctx.code, gm.start()), "include-guard",
               f"include guard {gm.group(1)} does not match path "
               f"(expected {expected})")


def rule_thread_primitives(ctx, report):
    if not ctx.in_src or ctx.relpath in THREAD_SANCTIONED_FILES:
        return
    for i, line in enumerate(ctx.code_lines, 1):
        for m in THREAD_PRIMITIVES_RE.finditer(line):
            report(i, "thread-primitives",
                   f"'{m.group(0).strip()}' breaks the deterministic "
                   "single-threaded scheduler contract of src/")
        im = THREAD_INCLUDE_RE.match(ctx.raw_lines[i - 1])
        if im:
            report(i, "thread-primitives",
                   f"include of {im.group(1)} in src/ (threading primitives "
                   "are banned inside the simulator)")


def rule_bare_assert(ctx, report):
    if not ctx.in_src:
        return
    for i, line in enumerate(ctx.code_lines, 1):
        if BARE_ASSERT_RE.search(line):
            report(i, "bare-assert",
                   "assert() is compiled out under -DNDEBUG; use "
                   "PANDORA_CHECK/PANDORA_DCHECK (src/runtime/check.h)")
        if ASSERT_INCLUDE_RE.match(ctx.raw_lines[i - 1]):
            report(i, "bare-assert",
                   "include of <cassert> in src/; use "
                   "src/runtime/check.h instead")


def rule_std_function_member(ctx, report):
    if not ctx.relpath.startswith("src/runtime/"):
        return
    for i, line in enumerate(ctx.code_lines, 1):
        if STD_FUNCTION_MEMBER_RE.search(line):
            report(i, "std-function-member",
                   "std::function stored in src/runtime/ heap-"
                   "allocates its callable; use InlineCallback "
                   "(src/runtime/callback.h) or an intrusive hook, "
                   "or NOLINT a documented cold path")


def rule_segment_channels(ctx, report):
    if not ctx.in_src:
        return
    for i, line in enumerate(ctx.code_lines, 1):
        if SEGMENT_CHANNEL_RE.search(line):
            report(i, "segment-channels",
                   "Channel<Segment> copies header+payload at every "
                   "rendezvous; pass Channel<SegmentRef> (pool handles) "
                   "or NetTx/NetRx wire handles instead (DESIGN.md §9)")


def rule_pooled_segment_assign(ctx, report):
    if not ctx.in_src:
        return
    refs = set(SEGMENT_REF_DECL_RE.findall(ctx.code))
    for i, line in enumerate(ctx.code_lines, 1):
        if MAKE_SEGMENT_ASSIGN_RE.search(line):
            report(i, "pooled-segment-assign",
                   "assigning a Make*Segment result through a pointer frees "
                   "the pooled payload's capacity; fill the slot in place "
                   "with FillAudioSegment/FillVideoSegment")
        for m in MOVE_ASSIGN_RE.finditer(line):
            if m.group(1) in refs:
                report(i, "pooled-segment-assign",
                       f"move-assigning a whole Segment into SegmentRef "
                       f"'{m.group(1)}' frees the pooled payload's capacity; "
                       "decode/fill in place, std::swap a scratch segment in, "
                       "or copy-assign")


def rule_raw_new_delete(ctx, report):
    # Placement new included; the only exemption is the buffer allocator.
    if not ctx.in_src or ctx.relpath.startswith("src/buffer/"):
        return
    for i, line in enumerate(ctx.code_lines, 1):
        if re.search(r"\bnew\b", line):
            report(i, "raw-new-delete",
                   "raw 'new' outside src/buffer/ — memory comes "
                   "from BufferPool or standard containers")
        if re.search(r"\bdelete\b(?!\s*;)", line):
            report(i, "raw-new-delete",
                   "raw 'delete' outside src/buffer/ — memory comes "
                   "from BufferPool or standard containers")


def rule_trace_macros(ctx, report):
    if ctx.relpath.startswith("src/trace/"):
        return
    for i, line in enumerate(ctx.code_lines, 1):
        if TRACE_RECORD_RE.search(line):
            report(i, "trace-macros",
                   "direct TraceRecorder::Record* call; use the "
                   "PANDORA_TRACE_* macros (src/trace/trace.h), which "
                   "own the enabled-guard and compile-out path")


def rule_fault_hooks(ctx, report):
    if ctx.relpath.startswith(FAULT_HOOK_ALLOWED):
        return
    for i, line in enumerate(ctx.code_lines, 1):
        m = FAULT_HOOK_RE.search(line)
        if m:
            name = m.group(0).rstrip("( \t")
            report(i, "fault-hooks",
                   f"direct impairment call '{name}' outside src/fault/ "
                   "and src/net/ bypasses the FaultDriver's restore "
                   "bookkeeping; script it in a FaultPlan "
                   "(src/fault/plan.h) so the run stays reproducible")


# Registry: (rule id used for timing, function).  A function may report
# findings under more than one closely-related message but always under the
# id it is registered with.
RULES = [
    ("include-path", rule_include_path),
    ("include-guard", rule_include_guard),
    ("thread-primitives", rule_thread_primitives),
    ("bare-assert", rule_bare_assert),
    ("std-function-member", rule_std_function_member),
    ("segment-channels", rule_segment_channels),
    ("pooled-segment-assign", rule_pooled_segment_assign),
    ("raw-new-delete", rule_raw_new_delete),
    ("trace-macros", rule_trace_macros),
    ("fault-hooks", rule_fault_hooks),
    ("awaiter-retained-address", rule_awaiter_retained_address),
    ("suspension-borrow", rule_suspension_borrow),
    ("unordered-iteration", rule_unordered_iteration),
]

# rule id -> accumulated seconds across all linted files this run.
RULE_TIMES = {}


def lint_file(relpath, text):
    """Lints one file; returns a list of Findings (after NOLINT filtering)."""
    ctx = FileContext(relpath, text)
    findings = []

    def report(line, rule, message):
        findings.append(Finding(relpath, line, rule, message))

    for rule_id, fn in RULES:
        started = time.perf_counter()
        fn(ctx, report)
        RULE_TIMES[rule_id] = RULE_TIMES.get(rule_id, 0.0) + (
            time.perf_counter() - started)

    kept = []
    for f in findings:
        raw = ctx.raw_lines[f.line - 1] if 0 < f.line <= len(ctx.raw_lines) else ""
        suppressed = nolint_rules(raw)
        if suppressed == "all" or (suppressed and f.rule in suppressed):
            continue
        kept.append(f)
    return kept


def print_rule_times(out=sys.stdout):
    total = sum(RULE_TIMES.values())
    print("pandora-lint per-rule timing:", file=out)
    for rule_id, secs in sorted(RULE_TIMES.items(), key=lambda kv: -kv[1]):
        share = (100.0 * secs / total) if total > 0 else 0.0
        print(f"  {rule_id:<26} {secs * 1000:8.2f} ms  {share:5.1f}%", file=out)
    print(f"  {'total':<26} {total * 1000:8.2f} ms", file=out)


def iter_source_files(root, dirs):
    for d in dirs:
        base = os.path.join(root, d)
        for dirpath, _, filenames in os.walk(base):
            for fn in sorted(filenames):
                if fn.endswith(SOURCE_EXTS):
                    full = os.path.join(dirpath, fn)
                    yield os.path.relpath(full, root).replace(os.sep, "/"), full


def run_lint(root, dirs=SCAN_DIRS):
    all_findings = []
    count = 0
    for relpath, full in iter_source_files(root, dirs):
        count += 1
        with open(full, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        all_findings.extend(lint_file(relpath, text))
    return all_findings, count


EXPECT_RE = re.compile(r"//\s*EXPECT-LINT:\s*([\w-]+)")


def run_self_test(testdata):
    """known-bad fixtures must produce exactly their EXPECT-LINT findings;
    known-good fixtures must be clean."""
    failures = []
    checked = 0
    for relpath, full in iter_source_files(testdata, ["good", "bad"]):
        checked += 1
        with open(full, encoding="utf-8") as fh:
            text = fh.read()
        # Fixtures live under good/<scope>/... and bad/<scope>/...; lint them
        # as if they sat at <scope>/... in the repo.
        kind, _, virtual = relpath.partition("/")
        findings = lint_file(virtual, text)
        expected = {}  # line -> set of rules
        for i, line in enumerate(text.split("\n"), 1):
            for m in EXPECT_RE.finditer(line):
                expected.setdefault(i, set()).add(m.group(1))
        got = {}
        for f in findings:
            got.setdefault(f.line, set()).add(f.rule)
        if kind == "good":
            if findings:
                for f in findings:
                    failures.append(f"{relpath}: unexpected finding: {f}")
        else:
            if got != expected:
                for line in sorted(set(expected) | set(got)):
                    want = expected.get(line, set())
                    have = got.get(line, set())
                    if want != have:
                        failures.append(
                            f"{relpath}:{line}: expected {sorted(want) or 'none'}, "
                            f"got {sorted(have) or 'none'}")
    return failures, checked


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels up from this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="lint the known-good/known-bad fixtures in testdata/")
    parser.add_argument("--timing", action="store_true",
                        help="print per-rule wall time after the run")
    parser.add_argument("paths", nargs="*",
                        help="specific files to lint (relative to --root)")
    args = parser.parse_args(argv)

    script_dir = os.path.dirname(os.path.abspath(__file__))
    root = args.root or os.path.dirname(os.path.dirname(script_dir))

    if args.self_test:
        failures, checked = run_self_test(os.path.join(script_dir, "testdata"))
        if args.timing:
            print_rule_times()
        if failures:
            print("\n".join(failures))
            print(f"pandora-lint self-test: FAILED ({len(failures)} mismatches "
                  f"across {checked} fixtures)")
            return 1
        print(f"pandora-lint self-test: OK ({checked} fixtures)")
        return 0

    if args.paths:
        findings = []
        count = 0
        for rel in args.paths:
            full = os.path.join(root, rel)
            count += 1
            try:
                with open(full, encoding="utf-8", errors="replace") as fh:
                    text = fh.read()
            except OSError as e:
                print(f"pandora-lint: error: cannot read {rel}: {e.strerror}", file=sys.stderr)
                return 2
            findings.extend(lint_file(rel.replace(os.sep, "/"), text))
    else:
        findings, count = run_lint(root)

    for f in findings:
        print(f)
    if args.timing:
        print_rule_times()
    if findings:
        print(f"pandora-lint: {len(findings)} finding(s) in {count} files")
        return 1
    print(f"pandora-lint: OK ({count} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
