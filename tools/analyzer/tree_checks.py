"""tree_checks — the five papyrus_analyze rules that read every source root.

The semantic and protocol families model src/ only; these rules run over
every file under papyrus_analyze.TREE_ROOTS (src tests tools bench
examples), on the same sanitized cxx_model view — comments and string
contents are already blanked, so a rule token inside either never fires.
Escapes use the shared grammar `// analyze:allow-<rule>[: reason]` on the
flagged line or the contiguous pure-comment block above it.

Rules:
  raw-mutex          Raw synchronization primitives (std::mutex,
                     std::shared_mutex, pthread_mutex_t, std::lock_guard,
                     std::unique_lock, std::scoped_lock, std::shared_lock,
                     std::condition_variable, or including <mutex> /
                     <shared_mutex>) anywhere outside the annotated wrapper
                     in src/common/mutex.{h,cc}.  All locking goes through
                     papyrus::Mutex so the thread-safety analysis and the
                     lock-order validator see it.
  unguarded-mutex    A Mutex/SharedMutex class member that no thread-safety
                     annotation (GUARDED_BY / PT_GUARDED_BY / REQUIRES /
                     ACQUIRE / RELEASE / EXCLUDES / ...) in its class
                     references.  A mutex nothing is annotated against
                     protects nothing the compiler can check.
  using-namespace    `using namespace` in a header — it leaks into every
                     includer.
  include-guard      A header without `#pragma once`.
  trace-add          A direct TraceBuffer Add/AddEvent call (receiver named
                     *trace*) outside src/obs/ and tests/obs/.  Raw Add
                     bypasses the span machinery: no trace/span/parent ids,
                     no TLS context, no flow events — the event merges as
                     an orphan.  Instrument through obs::OpSpan,
                     obs::TraceSpan or obs::RecordSpan.
"""

import re

from checks import Violation

HEADER_EXTS = (".h", ".hpp")

# The annotated wrapper itself is the one place raw primitives may live.
RAW_MUTEX_ALLOWLIST = ("src/common/mutex.h", "src/common/mutex.cc")
RAW_MUTEX_RE = re.compile(
    r"std::(?:recursive_|shared_|timed_)?mutex\b"
    r"|std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|std::condition_variable(?:_any)?\b"
    r"|\bpthread_(?:mutex|rwlock|cond)_t\b"
    r"|#\s*include\s*<(?:mutex|shared_mutex)>")

USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\s+[\w:]+\s*;")
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")

# Receiver-name matching (trace_, trace(), tls_trace, CurrentTrace(), ...)
# keeps builder.Add / bloom.Add / gauge.Add out of scope.
TRACE_ADD_RE = re.compile(
    r"\b\w*[Tt]race\w*\s*(?:\(\s*\))?\s*(?:\.|->)\s*Add(?:Event)?\s*\(")
# The span machinery itself, and the unit tests that poke the buffer raw.
TRACE_ADD_EXEMPT = ("src/obs/", "tests/obs/")


def _lines(fm):
    """(lineno, text) over the sanitized code with directives restored."""
    for idx, text in enumerate(fm.code):
        yield idx + 1, fm.directives.get(idx + 1, text)


def _flag(out, fm, rule, lineno, msg):
    if not fm.escape(lineno, rule):
        out.append(Violation(rule, fm.relpath, lineno,
                             "%s@%d" % (rule, lineno), msg))


def check_file(fm):
    out = []
    header = fm.relpath.endswith(HEADER_EXTS)
    raw_ok = fm.relpath in RAW_MUTEX_ALLOWLIST
    trace_ok = fm.relpath.startswith(TRACE_ADD_EXEMPT)
    if header and not any(PRAGMA_ONCE_RE.match(d)
                          for d in fm.directives.values()):
        _flag(out, fm, "include-guard", 1, "header missing #pragma once")
    for lineno, text in _lines(fm):
        m = None if raw_ok else RAW_MUTEX_RE.search(text)
        if m:
            _flag(out, fm, "raw-mutex", lineno,
                  "raw primitive '%s' — use papyrus::Mutex "
                  "(src/common/mutex.h)" % m.group(0).strip())
        if header and USING_NAMESPACE_RE.match(text):
            _flag(out, fm, "using-namespace", lineno,
                  "'using namespace' in a header leaks into every includer")
        if not trace_ok and TRACE_ADD_RE.search(text):
            _flag(out, fm, "trace-add", lineno,
                  "direct TraceBuffer Add bypasses span machinery — use "
                  "obs::OpSpan / obs::TraceSpan / obs::RecordSpan "
                  "(src/obs/trace.h)")
    return out


def check_unguarded_mutex(model):
    out = []
    for cls in model.classes.values():
        for name in sorted(cls.mutexes - cls.annotated):
            field = cls.fields[name]
            _flag(out, model.files[field.relpath], "unguarded-mutex",
                  field.line,
                  "Mutex '%s::%s' is never referenced by a thread-safety "
                  "annotation (GUARDED_BY/REQUIRES/...) in its class"
                  % (cls.name, name))
    return out


def run_all(model):
    out = []
    for _, fm in sorted(model.files.items()):
        out.extend(check_file(fm))
    out.extend(check_unguarded_mutex(model))
    return out
