"""checks — the five papyrus_analyze semantic rules.

Each check takes the Model from cxx_model and yields Violation objects.
Every rule has a per-line escape comment `// analyze:allow-<rule>[:
reason]`, honored on the violating line or in the contiguous
pure-comment block above it.

Rules:
  guarded-by         A member field directly written while a *sibling*
                     papyrus::Mutex/SharedMutex is held must carry
                     GUARDED_BY/PT_GUARDED_BY.  Clang TSA only checks
                     fields that are annotated; this closes the
                     annotation-gap blind spot.  Atomic fields are exempt
                     (self-synchronizing); only direct writes (=, op=,
                     ++/--) are considered, so false positives stay near
                     zero at the cost of missing container mutations.
  status-discard     (a) `(void)` discards and (b) `.IgnoreError()` calls
                     need a why-comment on the same or previous line (the
                     core/papyruskv.h mandate); (c) a bare expression
                     statement calling a function that every known
                     declaration says returns Status is a silent drop.
  codec-symmetry     Every EncodeX/DecodeX pair in one file must append/
                     consume the same field sequence in the same order
                     (loops compared as groups; the frame-header and
                     record-list helpers count as one field each), and
                     every decoded count
                     that flows into reserve()/resize() must pass through
                     ReserveBound (the fuzz-found bad_alloc class).
  pipeline-blocking  Call-graph reachability: no blocking call (Recv,
                     any Barrier, Drain, Wait, ...) may be reachable from
                     AsyncPipeline::ProcessCycle — the pipeline thread
                     must never block on collectives or its own fence.
  wire-version       A diff that edits the body of a versioned wire-frame
                     codec (one naming the version byte or writing/reading
                     the frame header) must also touch the version byte or
                     the byte-pin tests (run with --diff-base/--diff-file).
"""

import re

# ---------------------------------------------------------------------------
# Repo-specific configuration (fixture self-tests override via parameters).
# ---------------------------------------------------------------------------

# Roots of the pipeline-blocking reachability walk.
PIPELINE_ROOTS = ("ProcessCycle",)

# Call names that block (or deadlock) when reached from the pipeline
# thread: unbounded receives, every barrier flavor (bounded or not — a
# collective from the pipeline thread deadlocks the rank), the pipeline's
# own completion fence, and completion-handle waits.
BLOCKING_CALLS = frozenset({
    "Recv", "RecvInternal",
    "Barrier", "BarrierFor", "CollectiveBarrier", "RestartBarrier",
    "SignalWait", "WaitEvent", "Wait", "WaitDrained",
    "Drain", "Fence",
})

# Files whose change "proves version awareness" for wire-version, plus the
# token that marks the version byte itself.
WIRE_GUARD_FILES = ("src/core/wire.h", "tests/async/batch_wire_test.cc")
WIRE_VERSION_TOKEN = "kBatchVersion"
WIRE_HEADER_CALL_RE = re.compile(r"\b(?:PutHeader|GetHeader)\s*\(")


class Violation:
    def __init__(self, rule, relpath, line, token, msg):
        self.rule = rule
        self.relpath = relpath
        self.line = line
        self.token = token   # stable identity (the --json `key`)
        self.msg = msg

    @property
    def key(self):
        return "%s|%s|%s" % (self.rule, self.relpath, self.token)

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.relpath, self.line, self.rule,
                                   self.msg)


# ---------------------------------------------------------------------------
# Rule 1: guarded-by completeness.
# ---------------------------------------------------------------------------

_RAII_LOCK_RE = re.compile(
    r"\b(?:MutexLock|WriterMutexLock|ReaderMutexLock)\s+\w+\s*"
    r"[({]\s*&\s*([\w.\->]+)\s*[)}]")
_MANUAL_LOCK_RE = re.compile(r"\b([\w]+)\s*(?:\.|->)\s*(?:Reader)?Lock\s*\(")
_MANUAL_UNLOCK_RE = re.compile(
    r"\b([\w]+)\s*(?:\.|->)\s*(?:Reader)?Unlock\s*\(")
_WRITE_RE = re.compile(
    r"(?:^|[^\w.>:&])(\w+_)\s*"
    r"(?:=(?![=])|\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<=|>>=|\+\+|--)")
_INC_PRE_RE = re.compile(r"(?:\+\+|--)\s*(\w+_)\b")


def _member_name(expr):
    """`&shard.mu` -> mu (non-sibling; filtered by class membership),
    `&mu_` -> mu_, `&obj->m_` -> m_."""
    return re.split(r"\.|->", expr)[-1]


def check_guarded_by(model):
    out = []
    for fn in model.functions:
        cls = model.classes.get(fn.class_name) if fn.class_name else None
        if cls is None or not cls.mutexes:
            continue
        fm = model.files[fn.relpath]
        annots = cls.method_annots.get(fn.name, {})
        # Mutexes held at entry: REQUIRES(...) and RELEASE(...) (a RELEASE
        # function enters with the lock held and drops it itself).
        entry_held = {m for m in annots.get("requires", [])
                      if m in cls.mutexes}
        entry_held |= {m for m in annots.get("release", [])
                       if m in cls.mutexes}

        # Per-line held-set computation over the body.
        n = len(fn.body)
        held_at = [set() for _ in range(n)]
        manual = dict.fromkeys(entry_held, 0)  # mutex -> acquire line idx
        raii = []  # (mutex, start_idx, end_idx)
        for i, (lineno, text) in enumerate(fn.body):
            for m in _RAII_LOCK_RE.finditer(text):
                mu = _member_name(m.group(1))
                if mu in cls.mutexes:
                    # Scope: until depth drops below this line's depth.
                    d = fn.depth[i]
                    end = n - 1
                    for j in range(i + 1, n):
                        if fn.depth[j] < d:
                            end = j - 1
                            break
                    raii.append((mu, i, end))
            for m in _MANUAL_LOCK_RE.finditer(text):
                mu = m.group(1)
                if mu in cls.mutexes:
                    manual[mu] = i
            for m in _MANUAL_UNLOCK_RE.finditer(text):
                mu = m.group(1)
                if mu in manual:
                    for j in range(manual[mu], i + 1):
                        held_at[j].add(mu)
                    del manual[mu]
        for mu, start in manual.items():
            for j in range(start, n):
                held_at[j].add(mu)
        for mu, start, end in raii:
            for j in range(start, end + 1):
                held_at[j].add(mu)

        for i, (lineno, text) in enumerate(fn.body):
            if not held_at[i]:
                continue
            targets = {m.group(1) for m in _WRITE_RE.finditer(text)}
            targets |= {m.group(1) for m in _INC_PRE_RE.finditer(text)}
            for name in sorted(targets):
                field = cls.fields.get(name)
                if field is None or name in cls.mutexes:
                    continue
                if field.annotated or field.is_atomic:
                    continue
                if fm.escape(lineno, "guarded-by"):
                    continue
                decl_fm = model.files.get(field.relpath)
                if decl_fm and decl_fm.escape(field.line, "guarded-by"):
                    continue
                out.append(Violation(
                    "guarded-by", fn.relpath, lineno,
                    "%s.%s" % (cls.name, name),
                    "field '%s' written in %s while %s held but its "
                    "declaration (%s:%d) has no GUARDED_BY — TSA cannot "
                    "check what is not annotated" %
                    (name, fn.qualname, "/".join(sorted(held_at[i])),
                     field.relpath, field.line)))
    return out


# ---------------------------------------------------------------------------
# Rule 2: status discards.
# ---------------------------------------------------------------------------

_VOID_CAST_RE = re.compile(r"\(\s*void\s*\)\s*[\w(]")
_IGNORE_ERROR_RE = re.compile(r"(?:\.|->)\s*IgnoreError\s*\(")
_BARE_CALL_RE = re.compile(
    r"^\s*(?:[\w:]+(?:\.|->))?(\w+)\s*\(.*\)\s*;\s*$")


def check_status_discard(model):
    out = []
    for relpath, fm in sorted(model.files.items()):
        for idx, text in enumerate(fm.code):
            lineno = idx + 1
            if _VOID_CAST_RE.search(text):
                if not fm.has_comment(lineno) and \
                        not fm.escape(lineno, "status-discard"):
                    out.append(Violation(
                        "status-discard", relpath, lineno,
                        "void-cast@%d" % lineno,
                        "(void) discard without a why-comment — "
                        "core/papyruskv.h mandates \"cast to (void) only "
                        "with a comment saying why\""))
            if _IGNORE_ERROR_RE.search(text):
                if not fm.has_comment(lineno) and \
                        not fm.escape(lineno, "status-discard"):
                    out.append(Violation(
                        "status-discard", relpath, lineno,
                        "ignore-error@%d" % lineno,
                        ".IgnoreError() without a why-comment — say what "
                        "makes this drop safe (or handle/log the failure)"))
            # Lines already using (void)/IgnoreError are covered by the
            # two subrules above — don't double-flag them as bare drops.
            if _VOID_CAST_RE.search(text) or _IGNORE_ERROR_RE.search(text):
                continue
            m = _BARE_CALL_RE.match(text)
            if m and m.group(1) in model.status_fn_names:
                if not fm.escape(lineno, "status-discard"):
                    out.append(Violation(
                        "status-discard", relpath, lineno,
                        "dropped-call:%s@%d" % (m.group(1), lineno),
                        "result of Status-returning '%s' is silently "
                        "discarded — handle it, or (void)/IgnoreError it "
                        "with a why-comment" % m.group(1)))
    return out


# ---------------------------------------------------------------------------
# Rule 3: codec symmetry.
# ---------------------------------------------------------------------------

_ENC_OPS = (
    (re.compile(r"\bPutHeader\s*\("), "hdr"),
    (re.compile(r"\bPutRecords\s*\("), "records"),
    (re.compile(r"\bPutFixed32\s*\("), "u32"),
    (re.compile(r"\bPutFixed64\s*\("), "u64"),
    (re.compile(r"\bPutLengthPrefixed\s*\("), "lp"),
    (re.compile(r"\bout\s*\.\s*push_back\s*\("), "u8"),
)
_DEC_OPS = (
    (re.compile(r"\bGetHeader\s*\("), "hdr"),
    (re.compile(r"\bGetRecords\s*\("), "records"),
    (re.compile(r"\bGetFixed32\s*\("), "u32"),
    (re.compile(r"\bGetFixed64\s*\("), "u64"),
    (re.compile(r"\bGetLengthPrefixed\s*\("), "lp"),
    (re.compile(r"\bremove_prefix\s*\(\s*(\d+)\s*\)"), "u8xN"),
)
_LOOP_RE = re.compile(r"^\s*(?:for|while)\s*\(")
_DECODED_VAR_RE = re.compile(
    r"\bGet(?:Fixed32|Fixed64|Varint32|Varint64)\s*\(\s*&?\w+\s*,\s*&(\w+)\s*\)")
_RESERVE_RE = re.compile(r"(?:\.|->)\s*(reserve|resize)\s*\(([^;]*)\)")


def _codec_sequence(fn, ops):
    """Flattened op list; ops inside a loop body become one ('rep', [...])
    group.  A single-line `for (...) Op(...);` counts as a loop too."""
    seq = []
    n = len(fn.body)
    loop_end = -1  # body index until which we are inside a loop
    group = None
    for i, (lineno, text) in enumerate(fn.body):
        in_loop = i <= loop_end
        if _LOOP_RE.match(text) and i > loop_end:
            d = fn.depth[i]
            end = i
            for j in range(i + 1, n):
                if fn.depth[j] <= d and not fn.body[j][1].strip() == "":
                    # Loop body ends when depth returns to the loop line's
                    # depth (the closing brace line) — or same-line loop.
                    if fn.depth[j] <= d:
                        end = j - 1
                        break
            else:
                end = n - 1
            if end < i:
                end = i
            # Braceless single-line loop: ops sit on the loop line itself.
            loop_end = max(end, i)
            group = []
            seq.append(("rep", group))
            in_loop = True
        line_ops = []
        for rx, kind in ops:
            for m in rx.finditer(text):
                if kind == "u8xN":
                    line_ops.append((m.start(), ["u8"] * int(m.group(1))))
                else:
                    line_ops.append((m.start(), [kind]))
        line_ops.sort(key=lambda p: p[0])
        flat = [k for _, kinds in line_ops for k in kinds]
        if in_loop and group is not None:
            group.extend(flat)
        else:
            seq.extend(flat)
        if i > loop_end:
            group = None
    return seq


def _seq_str(seq):
    parts = []
    for item in seq:
        if isinstance(item, tuple) and item[0] == "rep":
            parts.append("N*[%s]" % " ".join(item[1]))
        else:
            parts.append(item)
    return " ".join(parts) if parts else "(empty)"


def check_codec_symmetry(model):
    out = []
    # Pair Encode<X>/Decode<X> per file.
    by_file = {}
    for fn in model.functions:
        m = re.match(r"(Encode|Decode)(\w+)$", fn.name)
        if m and fn.class_name is None:
            by_file.setdefault(fn.relpath, {}).setdefault(
                m.group(2), {})[m.group(1)] = fn
    for relpath, pairs in sorted(by_file.items()):
        fm = model.files[relpath]
        for what, sides in sorted(pairs.items()):
            enc, dec = sides.get("Encode"), sides.get("Decode")
            if enc is None or dec is None:
                continue
            if fm.escape(enc.start_line, "codec-symmetry") or \
                    fm.escape(dec.start_line, "codec-symmetry"):
                continue
            eseq = _codec_sequence(enc, _ENC_OPS)
            dseq = _codec_sequence(dec, _DEC_OPS)
            if _normalize(eseq) != _normalize(dseq):
                out.append(Violation(
                    "codec-symmetry", relpath, dec.start_line,
                    "pair:%s" % what,
                    "Encode%s appends [%s] but Decode%s consumes [%s] — "
                    "the wire sequences must match field-for-field" %
                    (what, _seq_str(eseq), what, _seq_str(dseq))))
    # Reserve-cap subrule: decoded counts must be capped before
    # pre-allocation.
    for fn in model.functions:
        if not fn.name.startswith("Decode"):
            continue
        fm = model.files[fn.relpath]
        decoded = set()
        for lineno, text in fn.body:
            for m in _DECODED_VAR_RE.finditer(text):
                decoded.add(m.group(1))
            for m in _RESERVE_RE.finditer(text):
                arg = m.group(2)
                used = {w for w in re.findall(r"\w+", arg) if w in decoded}
                if used and "ReserveBound" not in arg:
                    if fm.escape(lineno, "codec-symmetry"):
                        continue
                    out.append(Violation(
                        "codec-symmetry", fn.relpath, lineno,
                        "uncapped:%s:%s" % (fn.name, "/".join(sorted(used))),
                        "%s(%s) pre-allocates from untrusted decoded count "
                        "'%s' without a ReserveBound cap — a lying count "
                        "throws bad_alloc before the element loop can "
                        "reject it" % (m.group(1), arg.strip(),
                                       "/".join(sorted(used)))))
    return out


def _normalize(seq):
    """Collapses consecutive plain ops and rep groups to comparable form."""
    out = []
    for item in seq:
        if isinstance(item, tuple):
            out.append(("rep", tuple(item[1])))
        else:
            out.append(item)
    return out


# ---------------------------------------------------------------------------
# Rule 4: pipeline blocking.
# ---------------------------------------------------------------------------

def _field_type_class(model, cls, recv):
    """Class name a member-field receiver resolves to, if the field's
    declaration text mentions a modeled class (covers T, T*, unique_ptr<T>,
    shared_ptr<T>)."""
    field = cls.fields.get(recv) if cls else None
    if field is None:
        return None
    for w in re.findall(r"[A-Za-z_]\w*", field.decl_text):
        if w != field.name and w in model.classes:
            return w
    return None


def _resolve_edges(model, fn, name, kind, recv):
    """Call-graph targets for one call site.  Receiver-aware to keep
    collision edges (every `x.count()` linking to some class's count())
    out of the reachability walk:
      - repo convention: traversed functions are PascalCase (lowercase
        names are accessors/std calls — never part of the blocking graph)
      - scope calls resolve within the named class
      - member calls resolve through the receiver field's declared type
      - plain calls resolve to the caller's own class and free functions
      - computed/untypeable receivers resolve only when the name has
        exactly one definition repo-wide (unambiguous)."""
    if not name[0].isupper():
        return ()
    cands = model.by_name.get(name, ())
    if not cands:
        return ()
    if kind == "scope":
        return [t for t in cands if t.class_name == recv]
    if kind == "member":
        tc = _field_type_class(
            model, model.classes.get(fn.class_name) if fn.class_name
            else None, recv)
        if tc is not None:
            return [t for t in cands if t.class_name == tc]
        return cands if len(cands) == 1 else ()
    if kind == "plain":
        return [t for t in cands
                if t.class_name == fn.class_name or t.class_name is None]
    return cands if len(cands) == 1 else ()  # unknown receiver


def check_pipeline_blocking(model, roots=PIPELINE_ROOTS,
                            blocking=BLOCKING_CALLS):
    out = []
    for root in [fn for fn in model.functions if fn.name in roots]:
        seen = set()
        # stack entries: (fn, chain) where chain is the qualname path
        stack = [(root, (root.qualname,))]
        while stack:
            fn, chain = stack.pop()
            if fn.qualname in seen:
                continue
            seen.add(fn.qualname)
            fm = model.files[fn.relpath]
            for lineno, callee, kind, recv in fn.calls_ex():
                if callee in blocking:
                    if fm.escape(lineno, "pipeline-blocking"):
                        continue
                    out.append(Violation(
                        "pipeline-blocking", fn.relpath, lineno,
                        "%s->%s" % (root.qualname, callee),
                        "blocking call '%s' reachable from %s via %s — "
                        "the pipeline thread must never block on receives, "
                        "barriers, fences, or completion waits" %
                        (callee, root.qualname,
                         " -> ".join(chain + (callee,)))))
                    continue
                for target in _resolve_edges(model, fn, callee, kind, recv):
                    if target.qualname not in seen:
                        stack.append((target, chain + (target.qualname,)))
    return out


# ---------------------------------------------------------------------------
# Rule 5: wire-version discipline.
# ---------------------------------------------------------------------------

_HUNK_RE = re.compile(r"^@@ -\d+(?:,\d+)? \+(\d+)(?:,(\d+))? @@")


def parse_unified_diff(diff_text):
    """Returns {new_path: (set(new_line_numbers_touched),
    [changed_line_contents])}."""
    files = {}
    cur = None
    new_line = 0
    for raw in diff_text.splitlines():
        if raw.startswith("+++ "):
            path = raw[4:].strip()
            if path.startswith("b/"):
                path = path[2:]
            cur = files.setdefault(path, (set(), []))
            continue
        if cur is None:
            continue
        m = _HUNK_RE.match(raw)
        if m:
            new_line = int(m.group(1))
            continue
        if raw.startswith("+") and not raw.startswith("+++"):
            cur[0].add(new_line)
            cur[1].append(raw[1:])
            new_line += 1
        elif raw.startswith("-") and not raw.startswith("---"):
            # Deletion: the surrounding new-file position is touched.
            cur[0].add(new_line)
            cur[1].append(raw[1:])
        elif not raw.startswith("\\"):
            new_line += 1
    return files


def check_wire_version(model, diff_text, guard_files=WIRE_GUARD_FILES,
                       version_token=WIRE_VERSION_TOKEN):
    out = []
    if not diff_text:
        return out
    touched = parse_unified_diff(diff_text)
    # Version-aware edits: a guard file changed, or any changed line
    # mentions the version token, or an explicit escape rides the diff.
    aware = any(g in touched for g in guard_files)
    for _, (_, contents) in touched.items():
        for line in contents:
            if version_token in line or "analyze:allow-wire-version" in line:
                aware = True
    if aware:
        return out
    # Versioned codec bodies: functions that emit/consume the version byte,
    # directly or through the frame-header helpers.
    for fn in model.functions:
        if fn.relpath not in touched:
            continue
        body_text = " ".join(t for _, t in fn.body)
        if version_token not in body_text and \
                not WIRE_HEADER_CALL_RE.search(body_text):
            continue
        lines, _ = touched[fn.relpath]
        hit = sorted(ln for ln in lines
                     if fn.start_line <= ln <= fn.end_line)
        if hit:
            out.append(Violation(
                "wire-version", fn.relpath, hit[0],
                "versioned:%s" % fn.name,
                "diff edits versioned frame codec %s (line %d) without "
                "touching %s or the byte-pin tests (%s) — bump the "
                "version byte or re-pin the bytes" %
                (fn.name, hit[0], version_token,
                 ", ".join(guard_files))))
    return out


def run_all(model, diff_text=None):
    out = []
    out.extend(check_guarded_by(model))
    out.extend(check_status_discard(model))
    out.extend(check_codec_symmetry(model))
    out.extend(check_pipeline_blocking(model))
    out.extend(check_wire_version(model, diff_text))
    return out
