#!/usr/bin/env python3
"""papyrus_lint — the repo-wide correctness lint gate.

Rules (each can be silenced per line with the named escape comment):

  raw-mutex          Raw synchronization primitives (std::mutex,
                     std::shared_mutex, pthread_mutex_t, std::lock_guard,
                     std::unique_lock, std::scoped_lock, std::shared_lock,
                     std::condition_variable, or including <mutex> /
                     <shared_mutex>) anywhere outside the annotated wrapper
                     in src/common/mutex.{h,cc}.  All locking must go
                     through papyrus::Mutex so the thread-safety analysis
                     and the lock-order validator see it.
                     Escape: // lint:allow-raw-mutex

  unguarded-mutex    A Mutex/SharedMutex data member that no thread-safety
                     annotation (GUARDED_BY / PT_GUARDED_BY / REQUIRES /
                     ACQUIRE / RELEASE / EXCLUDES / ...) in the same file
                     references.  A mutex nothing is annotated against
                     protects nothing the compiler can check.
                     Escape: // lint:unguarded-ok

  using-namespace    `using namespace` at namespace scope in a header —
                     it leaks into every includer.

  include-guard      A header without `#pragma once`.

  naked-recv         A blocking Recv()/RecvInternal() call in src/ outside
                     the comm module (src/net/comm.{h,cc}).  Unbounded
                     receives hang forever when a peer dies or a message is
                     lost; production code must use the deadline variants
                     (RecvFor / BarrierFor) or the runtime's retry helpers
                     (RequestReply).  Tests, benches, examples and tools
                     are exempt — they run under a watchdog.
                     Escape: // lint:allow-blocking-recv, or the protocol
                     analyzer's // analyze:allow-proto-deadlock (one escape
                     vocabulary for both tools), on the flagged line or in
                     the comment block directly above it.

  direct-send        A direct Communicator Send (receiver named *comm*) in
                     src/core/ or src/repl/ outside the async pipeline.
                     Remote requests from the KV layer must go through the
                     submission/completion pipeline (src/async/) or the
                     runtime's SendRequest/SendResponse helpers so they get
                     batching, per-op metrics, flight-recorder events and
                     bounded retries; a raw Send gets none of those — and a
                     replication frame sent raw would race the pipeline's
                     per-destination ordering.
                     Escape: // lint:allow-direct-send

  trace-add          A direct TraceBuffer Add/AddEvent call (receiver named
                     *trace*) outside src/obs/.  Raw Add bypasses the span
                     machinery: no trace/span/parent ids, no TLS context,
                     no flow events — the event merges as an orphan.
                     Instrumentation must go through obs::OpSpan,
                     obs::TraceSpan or obs::RecordSpan.  Tests of the
                     buffer itself live in tests/obs and are exempt.
                     Escape: // lint:allow-trace-add

Usage:
  tools/papyrus_lint.py [paths...]      # default: src tests tools bench examples
  tools/papyrus_lint.py --self-test     # run against the seeded fixture

Exit status: 0 clean, 1 violations found, 2 usage/internal error.
"""

import os
import re
import sys

HEADER_EXTS = (".h", ".hpp")
SOURCE_EXTS = (".h", ".hpp", ".cc", ".cpp")

# The annotated wrapper itself is the one place raw primitives may live.
RAW_MUTEX_ALLOWLIST = (
    os.path.join("src", "common", "mutex.h"),
    os.path.join("src", "common", "mutex.cc"),
)

RAW_MUTEX_RE = re.compile(
    r"std::(?:recursive_|shared_|timed_)?mutex\b"
    r"|std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|std::condition_variable(?:_any)?\b"
    r"|\bpthread_(?:mutex|rwlock|cond)_t\b"
    r"|#\s*include\s*<(?:mutex|shared_mutex)>"
)

# `Mutex foo_;` / `mutable SharedMutex mu_{"name"};` data-member declarations.
MUTEX_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:papyrus::)?(?:Shared)?Mutex\s+(\w+)\s*(?:\{|;|=)"
)

# Any thread-safety annotation that can reference a mutex member.
TSA_ANNOTATION_RE = re.compile(
    r"\b(?:PT_)?GUARDED_BY\s*\(([^)]*)\)"
    r"|\bREQUIRES(?:_SHARED)?\s*\(([^)]*)\)"
    r"|\bACQUIRE(?:_SHARED)?\s*\(([^)]*)\)"
    r"|\bRELEASE(?:_SHARED|_GENERIC)?\s*\(([^)]*)\)"
    r"|\bTRY_ACQUIRE(?:_SHARED)?\s*\([^,]*,\s*([^)]*)\)"
    r"|\bEXCLUDES\s*\(([^)]*)\)"
    r"|\bASSERT_CAPABILITY\s*\(([^)]*)\)"
    r"|\bRETURN_CAPABILITY\s*\(([^)]*)\)"
)

USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\s+[\w:]+\s*;")

# Blocking receives.  \b keeps RecvFor/TryRecv out: the word
# boundary only matches when "Recv(" / "RecvInternal(" stands alone.
NAKED_RECV_RE = re.compile(r"\b(?:Recv|RecvInternal)\s*\(")

# The comm module defines Recv and may call it internally.
NAKED_RECV_ALLOWLIST = (
    os.path.join("src", "net", "comm.h"),
    os.path.join("src", "net", "comm.cc"),
)

# First path components where blocking receives are acceptable (test code
# runs under ctest timeouts; tools/benches are interactive).
NAKED_RECV_EXEMPT_ROOTS = ("tests", "bench", "examples", "tools")

# Direct Communicator sends: a Send call whose receiver mentions "comm"
# (req_comm_, resp_comm_, barrier_comm(), ...).  Receiver-name matching
# keeps pipeline.Send-alikes and unrelated Send methods out of scope.
DIRECT_SEND_RE = re.compile(
    r"\b\w*[Cc]omm\w*\s*(?:\(\s*\))?\s*(?:\.|->)\s*Send\s*\(")

# Only the KV core and the replication layer are constrained; the async
# pipeline and the net layer are the two legitimate senders.  src/repl/ is
# in scope because a replication frame that skips the pipeline loses the
# per-destination ordering its epoch/seq protocol depends on.
DIRECT_SEND_SCOPE_PREFIXES = (
    os.path.join("src", "core") + os.sep,
    os.path.join("src", "repl") + os.sep,
)

# Direct TraceBuffer writes: an Add/AddEvent call whose receiver mentions
# "trace" (trace_, trace(), tls_trace, CurrentTrace(), ...).  Receiver-name
# matching keeps builder.Add / bloom.Add / gauge.Add out of scope.
TRACE_ADD_RE = re.compile(
    r"\b\w*[Tt]race\w*\s*(?:\(\s*\))?\s*(?:\.|->)\s*Add(?:Event)?\s*\(")

# The span machinery itself, and the unit tests that poke the buffer raw.
TRACE_ADD_EXEMPT_PREFIXES = (
    os.path.join("src", "obs") + os.sep,
    os.path.join("tests", "obs") + os.sep,
)

COMMENT_LINE_RE = re.compile(r"^\s*(?://|\*)")

# The lint and the protocol analyzer (tools/analyzer/protocol_checks.py)
# share one escape vocabulary for blocking receives: either the lint's own
# tag or the analyzer's deadlock escape silences naked-recv, on the flagged
# line or in the contiguous pure-comment block directly above it.
RECV_ESCAPE_TOKENS = ("lint:allow-blocking-recv",
                      "analyze:allow-proto-deadlock")


def recv_escaped(lines, i, comment):
    """True when line i (1-based) carries a blocking-recv escape."""
    if any(tok in comment for tok in RECV_ESCAPE_TOKENS):
        return True
    j = i - 1
    while j >= 1 and COMMENT_LINE_RE.match(lines[j - 1]):
        if any(tok in lines[j - 1] for tok in RECV_ESCAPE_TOKENS):
            return True
        j -= 1
    return False


def strip_block_comments(text):
    """Blanks /* ... */ spans (keeps line structure for line numbers)."""
    out = []
    in_block = False
    for line in text.splitlines():
        if in_block:
            end = line.find("*/")
            if end < 0:
                out.append("")
                continue
            line = " " * (end + 2) + line[end + 2:]
            in_block = False
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + " " * (end + 2 - start) + line[end + 2:]
        out.append(line)
    return out


def lint_file(path, relpath):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        return [(relpath, 0, "io", str(e))]

    violations = []
    lines = strip_block_comments(text)

    # include-guard: headers need #pragma once.
    if relpath.endswith(HEADER_EXTS):
        if not any(re.match(r"^\s*#\s*pragma\s+once\b", ln) for ln in lines):
            violations.append(
                (relpath, 1, "include-guard", "header missing #pragma once"))

    in_raw_allowlist = any(relpath.endswith(p) for p in RAW_MUTEX_ALLOWLIST)
    recv_exempt = (
        any(relpath.endswith(p) for p in NAKED_RECV_ALLOWLIST)
        or relpath.split(os.sep)[0] in NAKED_RECV_EXEMPT_ROOTS)
    trace_add_exempt = any(
        relpath.startswith(p) for p in TRACE_ADD_EXEMPT_PREFIXES)
    direct_send_scoped = (relpath.startswith(DIRECT_SEND_SCOPE_PREFIXES)
                          or os.sep not in relpath)  # fixture files

    mutex_decls = {}       # member name -> line number
    annotated_names = set()  # identifiers referenced by any TSA annotation

    for i, line in enumerate(lines, start=1):
        code, _, comment = line.partition("//")

        # raw-mutex ------------------------------------------------------
        if (not in_raw_allowlist
                and "lint:allow-raw-mutex" not in comment
                and not COMMENT_LINE_RE.match(line)):
            m = RAW_MUTEX_RE.search(code)
            if m:
                violations.append(
                    (relpath, i, "raw-mutex",
                     "raw primitive '%s' — use papyrus::Mutex "
                     "(src/common/mutex.h)" % m.group(0).strip()))

        # naked-recv -----------------------------------------------------
        if (not recv_exempt
                and not COMMENT_LINE_RE.match(line)
                and NAKED_RECV_RE.search(code)
                and not recv_escaped(lines, i, comment)):
            violations.append(
                (relpath, i, "naked-recv",
                 "blocking Recv without a deadline — use RecvFor/"
                 "BarrierFor or RequestReply (src/net/comm.h)"))

        # direct-send ----------------------------------------------------
        if (direct_send_scoped
                and "lint:allow-direct-send" not in comment
                and not COMMENT_LINE_RE.match(line)
                and DIRECT_SEND_RE.search(code)):
            violations.append(
                (relpath, i, "direct-send",
                 "direct Communicator Send from core — route through the "
                 "async pipeline (src/async/pipeline.h) or the runtime's "
                 "SendRequest/SendResponse"))

        # trace-add ------------------------------------------------------
        if (not trace_add_exempt
                and "lint:allow-trace-add" not in comment
                and not COMMENT_LINE_RE.match(line)
                and TRACE_ADD_RE.search(code)):
            violations.append(
                (relpath, i, "trace-add",
                 "direct TraceBuffer Add bypasses span machinery — use "
                 "obs::OpSpan / obs::TraceSpan / obs::RecordSpan "
                 "(src/obs/trace.h)"))

        # using-namespace (headers only) ---------------------------------
        if relpath.endswith(HEADER_EXTS) and USING_NAMESPACE_RE.match(code):
            violations.append(
                (relpath, i, "using-namespace",
                 "'using namespace' in a header leaks into every includer"))

        # collect Mutex member declarations and annotation references ----
        if not COMMENT_LINE_RE.match(line):
            dm = MUTEX_DECL_RE.match(code)
            if dm and "lint:unguarded-ok" not in comment:
                # Only class members / globals follow the trailing-underscore
                # or named-lock convention; locals in functions still match,
                # so require the declaration to look like a member (ends in _)
                # or carry a brace initializer with a name string.
                name = dm.group(1)
                if name.endswith("_") or "{\"" in code:
                    mutex_decls[name] = i
            for am in TSA_ANNOTATION_RE.finditer(code):
                for group in am.groups():
                    if group:
                        for ident in re.findall(r"[\w.]+", group):
                            annotated_names.add(ident.split(".")[-1])

    # unguarded-mutex ----------------------------------------------------
    for name, lineno in sorted(mutex_decls.items(), key=lambda kv: kv[1]):
        if name not in annotated_names:
            violations.append(
                (relpath, lineno, "unguarded-mutex",
                 "Mutex '%s' is never referenced by a thread-safety "
                 "annotation (GUARDED_BY/REQUIRES/...) in this file" % name))

    return violations


def iter_sources(roots):
    for root in roots:
        if os.path.isfile(root):
            yield root
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames
                           if d not in ("build", ".git", "lint_fixture")
                           and not d.startswith("build-")]
            for fn in sorted(filenames):
                if fn.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, fn)


def run(roots, repo_root):
    all_violations = []
    nfiles = 0
    for path in iter_sources(roots):
        nfiles += 1
        rel = os.path.relpath(path, repo_root)
        all_violations.extend(lint_file(path, rel))
    for rel, lineno, rule, msg in all_violations:
        print("%s:%d: [%s] %s" % (rel, lineno, rule, msg))
    print("papyrus_lint: %d file(s), %d violation(s)"
          % (nfiles, len(all_violations)))
    return all_violations


def self_test(repo_root):
    """The seeded fixture must trip every rule; the escapes must not."""
    fixture = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "lint_fixture")
    expected = {
        ("bad_raw_mutex.cc", "raw-mutex"),
        ("bad_unguarded.h", "unguarded-mutex"),
        ("bad_header.h", "using-namespace"),
        ("bad_header.h", "include-guard"),
        ("bad_naked_recv.cc", "naked-recv"),
        ("bad_trace_add.cc", "trace-add"),
        ("bad_direct_send.cc", "direct-send"),
    }
    got = set()
    escaped_files = set()
    for path in iter_sources([fixture]):
        base = os.path.basename(path)
        vs = lint_file(path, base)
        for rel, _, rule, _ in vs:
            got.add((rel, rule))
        if base.startswith("good_") and vs:
            print("self-test FAIL: %s should be clean, got %s" % (base, vs))
            return 1
        if base.startswith("good_"):
            escaped_files.add(base)
    missing = expected - got
    extra = {g for g in got if g not in expected
             and not g[0].startswith("good_")}
    if missing:
        print("self-test FAIL: rules not triggered: %s" % sorted(missing))
        return 1
    if extra:
        print("self-test FAIL: unexpected violations: %s" % sorted(extra))
        return 1
    if len(escaped_files) < 2:
        print("self-test FAIL: expected >=2 good_ escape fixtures, saw %s"
              % sorted(escaped_files))
        return 1
    print("papyrus_lint self-test: OK (%d seeded rules, %d escape files)"
          % (len(expected), len(escaped_files)))
    return 0


def main(argv):
    repo_root = os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if len(argv) > 1 and argv[1] == "--self-test":
        return self_test(repo_root)
    if len(argv) > 1:
        roots = [os.path.join(repo_root, a) if not os.path.isabs(a) else a
                 for a in argv[1:]]
    else:
        roots = [os.path.join(repo_root, d)
                 for d in ("src", "tests", "tools", "bench", "examples")]
    for r in roots:
        if not os.path.exists(r):
            print("papyrus_lint: no such path: %s" % r, file=sys.stderr)
            return 2
    violations = run(roots, repo_root)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
