"""cxx_model — the analyzer's built-in structural C++ frontend.

Produces the micro-AST ("Model") that the semantic checks in checks.py
consume: classes with their fields, thread-safety annotations and mutex
members; function definitions (free, qualified out-of-line, and inline
methods) with their body lines, brace-depth profile and call tokens; and
per-line side tables for comments (escape comments and why-comments live
in comments, which the code view strips) and preprocessor directives.

This frontend is deliberately *structural*, not a full parser: it
tokenizes accurately enough for the papyrus_analyze rules (string/
char/comment-safe brace matching, statement accumulation, one level of
class nesting) and leans on the repo's own conventions (member fields end
in `_`, locking goes through papyrus::Mutex + MutexLock).  It needs no
compiler toolchain, so the gate works on toolchain-poor builders too.
"""

import os
import re

HEADER_EXTS = (".h", ".hpp")
SOURCE_EXTS = (".h", ".hpp", ".cc", ".cpp")

_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "assert",
    "alignof", "decltype", "throw", "new", "delete", "defined", "not",
}

CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
CALL_EX_RE = re.compile(r"(?:\b(\w+)\s*(\.|->|::)\s*)?\b([A-Za-z_]\w*)\s*\(")


class FileModel:
    """One sanitized source file: code lines + comment and directive
    side tables."""

    def __init__(self, path, relpath):
        self.path = path
        self.relpath = relpath
        self.code = []       # code with comments/strings blanked, 0-indexed
        self.comments = {}   # lineno (1-based) -> comment text on that line
        self.directives = {}  # lineno (1-based) -> sanitized `#...` line

    def comment(self, lineno):
        return self.comments.get(lineno, "")

    def has_comment(self, lineno):
        """True if `lineno` carries a comment (same line) or the previous
        line is a pure comment line — the two spellings the why-comment
        mandate in core/papyruskv.h accepts."""
        if self.comments.get(lineno, "").strip():
            return True
        prev = lineno - 1
        if prev >= 1 and self.comments.get(prev, "").strip():
            # Pure comment line: no code besides whitespace.
            if prev - 1 < len(self.code) and not self.code[prev - 1].strip():
                return True
        return False

    def escape(self, lineno, tag):
        """True if `// analyze:allow-<tag>` appears on the line or in the
        contiguous block of pure-comment lines immediately above it (a
        multi-line justification counts as one escape)."""
        needle = "analyze:allow-" + tag
        if needle in self.comments.get(lineno, ""):
            return True
        prev = lineno - 1
        while (prev >= 1 and prev - 1 < len(self.code)
               and not self.code[prev - 1].strip()
               and self.comments.get(prev, "").strip()):
            if needle in self.comments[prev]:
                return True
            prev -= 1
        return False


class Field:
    def __init__(self, name, decl_text, relpath, line):
        self.name = name
        self.decl_text = decl_text
        self.relpath = relpath
        self.line = line
        self.guarded_by = None   # mutex name from GUARDED_BY/PT_GUARDED_BY
        m = re.search(r"\b(?:PT_)?GUARDED_BY\s*\(\s*([\w.\->]+)\s*\)",
                      decl_text)
        if m:
            self.guarded_by = m.group(1).split(".")[-1].split(">")[-1]

    @property
    def annotated(self):
        return self.guarded_by is not None

    @property
    def is_atomic(self):
        return "atomic" in self.decl_text


class ClassModel:
    def __init__(self, name, relpath, line):
        self.name = name
        self.relpath = relpath
        self.line = line
        self.fields = {}          # name -> Field
        self.mutexes = set()      # names of Mutex/SharedMutex members
        self.annotated = set()    # identifiers any TSA annotation names
        self.method_annots = {}   # method name -> {"requires": [...],
        #                           "release": [...], "acquire": [...]}

    def merge(self, other):
        """Same class seen in another file (fwd decl / reopen): merge."""
        self.fields.update(other.fields)
        self.mutexes.update(other.mutexes)
        self.annotated.update(other.annotated)
        for k, v in other.method_annots.items():
            self.method_annots.setdefault(k, v)


class FunctionModel:
    def __init__(self, name, class_name, relpath, decl_text, start_line):
        self.name = name                  # unqualified
        self.class_name = class_name      # enclosing/qualifying class or None
        self.relpath = relpath
        self.decl_text = decl_text        # header text up to the opening {
        self.start_line = start_line      # line of the opening {
        self.end_line = start_line
        self.body = []                    # [(lineno, code_text)]
        self.depth = []                   # brace depth at start of each body line
        self._calls = None

    @property
    def qualname(self):
        return (self.class_name + "::" + self.name) if self.class_name \
            else self.name

    @property
    def returns_status(self):
        # Return type = decl text before the (qualified) function name.
        idx = self.decl_text.find(self.name + "(")
        if idx < 0:
            idx = self.decl_text.find(self.name)
        head = self.decl_text[:idx] if idx >= 0 else self.decl_text
        return re.search(r"\bStatus\b", head) is not None

    def calls(self):
        """Ordered (lineno, callee_token) pairs, keyword-filtered."""
        if self._calls is None:
            self._calls = []
            for lineno, text in self.body:
                for m in CALL_RE.finditer(text):
                    tok = m.group(1)
                    if tok not in _KEYWORDS:
                        self._calls.append((lineno, tok))
        return self._calls

    def calls_ex(self):
        """Receiver-aware call sites: (lineno, name, kind, receiver).

        kind is one of:
          plain    unqualified call (`Foo(...)`, `this->Foo(...)`)
          member   `recv.Foo(...)` / `recv->Foo(...)` with an identifier
                   receiver (resolvable when recv is a typed member field)
          scope    `Cls::Foo(...)`
          unknown  call on a computed expression (`x.a().Foo(...)`)
        """
        out = []
        for lineno, text in self.body:
            for m in CALL_EX_RE.finditer(text):
                name = m.group(3)
                if name in _KEYWORDS:
                    continue
                recv, sep = m.group(1), m.group(2)
                if sep == "::":
                    kind = "scope"
                elif sep in (".", "->"):
                    if recv == "this":
                        kind, recv = "plain", None
                    else:
                        kind = "member"
                else:
                    before = text[:m.start()].rstrip()
                    if before.endswith((".", "->", "::", ")")):
                        kind, recv = "unknown", None
                    else:
                        kind, recv = "plain", None
                out.append((lineno, name, kind, recv))
        return out


class Model:
    def __init__(self):
        self.files = {}       # relpath -> FileModel
        self.classes = {}     # class name -> ClassModel
        self.functions = []   # [FunctionModel]
        self.by_name = {}     # simple function name -> [FunctionModel]
        # Function names whose every known declaration returns Status.
        self.status_fn_names = set()
        self._status_yes = {}
        self._status_no = set()

    def add_function(self, fn):
        self.functions.append(fn)
        self.by_name.setdefault(fn.name, []).append(fn)

    def note_return_type(self, name, returns_status):
        if returns_status:
            self._status_yes[name] = True
        else:
            self._status_no.add(name)

    def finalize(self):
        for fn in self.functions:
            self.note_return_type(fn.name, fn.returns_status)
        # Unambiguous only: every sighting of the name returns Status.
        self.status_fn_names = {
            n for n in self._status_yes if n not in self._status_no}


# ---------------------------------------------------------------------------
# Sanitizer: strip comments / strings / preprocessor, keep a comment table.
# ---------------------------------------------------------------------------

# What ends a run of plain characters in each sanitizer state.
_SANITIZE_STOP = {
    "code": re.compile(r"//|/\*|[\"'\n]"),
    "line_comment": re.compile(r"\n"),
    "block_comment": re.compile(r"\*/|\n"),
    "string": re.compile(r"[\\\"\n]"),
    "char": re.compile(r"[\\'\n]"),
}
_OPENS = {"//": "line_comment", "/*": "block_comment", '"': "string",
          "'": "char"}


def sanitize(text):
    """Returns (code_lines, comments, directives) where code_lines have
    comments, string/char literal contents and preprocessor lines blanked
    (line structure preserved), comments maps 1-based line -> comment text
    and directives maps 1-based line -> the blanked preprocessor line."""
    code = []
    comments = {}
    line = []
    comment_buf = []
    state = "code"  # code | line_comment | block_comment | string | char

    def flush_line():
        code.append("".join(line))
        note = "".join(comment_buf)
        if note:
            comments[len(code)] = comments.get(len(code), "") + note
        line.clear()
        comment_buf.clear()

    i = 0
    while i < len(text):
        m = _SANITIZE_STOP[state].search(text, i)
        run = text[i:m.start() if m else len(text)]
        if state == "code":
            line.append(run)
        elif state == "line_comment":
            comment_buf.append(run)
        else:
            line.append(" " * len(run))
            if state == "block_comment":
                comment_buf.append(run)
        if m is None:
            break
        tok = m.group()
        i = m.end()
        if tok == "\n":
            if state == "line_comment":
                state = "code"
            flush_line()
        elif state == "code":
            state = _OPENS[tok]
            if tok != "//":
                line.append("  " if tok == "/*" else tok)
        elif tok == "*/":
            state = "code"
            line.append("  ")
        elif tok == "\\":
            # An escape blanks itself and the character after it (a
            # newline included, which then does not end the line).
            line.append("  ")
            i += 1
        else:  # the closing quote
            state = "code"
            line.append(tok)
    if "".join(line) or "".join(comment_buf):
        flush_line()
    # Blank preprocessor lines (a #define with an unbalanced brace would
    # desynchronize the structural scan).
    directives = {}
    for idx, ln in enumerate(code):
        if re.match(r"\s*#", ln):
            directives[idx + 1] = ln
            code[idx] = ""
    return code, comments, directives


# ---------------------------------------------------------------------------
# Structural scan.
# ---------------------------------------------------------------------------

_ACCESS_LABELS = ("public", "private", "protected")
_BRACE_RE = re.compile(r"[{}]")
_STOP_RE = re.compile(r"[;{}]")
_CLASS_STOP_RE = re.compile(r"[;{}:]")
_MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:papyrus::)?(?:common::)?(?:Shared)?Mutex\s+(\w+)")
_FIELD_RE = re.compile(r"\b(\w+_)\s*(?:GUARDED_BY|PT_GUARDED_BY|=|\{|;|$)")
_METHOD_NAME_RE = re.compile(r"(~?\w+)\s*\($")
_FN_HEAD_RE = re.compile(
    r"(?:(\w+)\s*::\s*)?(~?\w+)\s*\(")


_ANNOTATION_MACRO_RE = re.compile(
    r"\b(?:(?:PT_)?GUARDED_BY|REQUIRES(?:_SHARED)?|ACQUIRE(?:_SHARED)?"
    r"|RELEASE(?:_SHARED|_GENERIC)?|TRY_ACQUIRE(?:_SHARED)?|EXCLUDES"
    r"|ASSERT_CAPABILITY|RETURN_CAPABILITY|LOCKABLE|SCOPED_LOCKABLE"
    r"|NO_THREAD_SAFETY_ANALYSIS)\s*(?:\(([^)]*)\))?")


def _strip_annotations(text):
    """Removes thread-safety annotation macros so their parens don't make
    a field declaration look like a method declaration."""
    return _ANNOTATION_MACRO_RE.sub("", text)


def _annotation_refs(text):
    """Every identifier named inside a thread-safety annotation in text."""
    return {ident for m in _ANNOTATION_MACRO_RE.finditer(text)
            if m.group(1) for ident in re.findall(r"\w+", m.group(1))}


def _method_annotations(decl_text):
    out = {"requires": [], "release": [], "acquire": []}
    for kind, key in (("REQUIRES(?:_SHARED)?", "requires"),
                      ("RELEASE(?:_SHARED|_GENERIC)?", "release"),
                      ("ACQUIRE(?:_SHARED)?", "acquire")):
        for m in re.finditer(r"\b%s\s*\(([^)]*)\)" % kind, decl_text):
            for ident in re.findall(r"[\w.\->]+", m.group(1)):
                out[key].append(ident.split(".")[-1].split(">")[-1])
    return out


class _Scanner:
    """Single pass over sanitized lines, classifying every `{` it meets."""

    def __init__(self, fm, model):
        self.fm = fm
        self.model = model
        self.lines = fm.code
        self.pos_line = 0   # 0-based
        self.pos_col = 0

    def scan(self):
        self._scan_region(class_ctx=None, stop_at_close=False)

    def _braces(self):
        """Yields (lineno0, match-or-None) for every `{`/`}` from the
        current position on, advancing past each one; None marks an end of
        line (the position then moves to the next line)."""
        while self.pos_line < len(self.lines):
            lnum = self.pos_line
            m = _BRACE_RE.search(self.lines[lnum], self.pos_col)
            if m is None:
                self.pos_line += 1
                self.pos_col = 0
            else:
                self.pos_col = m.end()
            yield lnum, m

    def _skip_balanced(self):
        """Consumes code until the brace opened just before balances."""
        depth = 1
        for _, m in self._braces():
            if m is None:
                continue
            depth += 1 if m.group() == "{" else -1
            if depth == 0:
                return

    def _capture_function(self, fn, open_line0):
        """Captures body lines with per-line brace depth (depth relative to
        the function body; opening { is depth 0 -> 1).  Each body line runs
        to its end plus one space (the statement scan's token separator);
        the last one stops just before the closing `}`."""
        depth = 1
        fn.body = []
        fn.depth = []
        line_start_depth = depth
        col = self.pos_col  # the rest of the opening line is body too
        for lnum, m in self._braces():
            ln = self.lines[lnum]
            if m is None:
                if lnum + 1 == len(self.lines):
                    return  # unbalanced at EOF: the open line is dropped
                fn.body.append((lnum + 1, ln[col:] + " "))
                fn.depth.append(line_start_depth)
                line_start_depth = depth
                col = 0
                continue
            depth += 1 if m.group() == "{" else -1
            if depth == 0:
                fn.body.append((lnum + 1, ln[col:m.start()]))
                fn.depth.append(line_start_depth)
                fn.end_line = lnum + 1
                return

    def _scan_region(self, class_ctx, stop_at_close):
        """Scans a namespace/global or class body, dispatching on braces."""
        stmt = []          # accumulated header text since last ; { }
        stmt_line = None   # 1-based line where the accumulation started
        stop_re = _CLASS_STOP_RE if class_ctx is not None else _STOP_RE
        while self.pos_line < len(self.lines):
            lnum = self.pos_line
            ln = self.lines[lnum]
            m = stop_re.search(ln, self.pos_col)
            chunk = ln[self.pos_col:m.start() if m else len(ln)]
            if stmt_line is None and chunk.strip():
                stmt_line = lnum + 1
            stmt.append(chunk)
            if m is None:
                # A space at each end of line keeps a multi-line
                # statement's tokens apart.
                stmt.append(" ")
                self.pos_line += 1
                self.pos_col = 0
                continue
            self.pos_col = m.end()
            c = m.group()
            if c == ";":
                text = "".join(stmt)
                if text:
                    if class_ctx is not None:
                        self._class_member(class_ctx, text,
                                           stmt_line or lnum + 1)
                    else:
                        self._free_decl(" ".join(text.split()))
                stmt = []
                stmt_line = None
            elif c == "}":
                if stop_at_close:
                    return
                stmt = []
                stmt_line = None
            elif c == ":":
                if "".join(stmt).strip() in _ACCESS_LABELS:
                    # An access label ends no statement, but the member
                    # after it starts on its own line.
                    stmt = []
                    stmt_line = None
                else:
                    stmt_line = stmt_line or lnum + 1
                    stmt.append(c)
            else:
                text = " ".join("".join(stmt).split())
                line1 = stmt_line or (lnum + 1)
                stmt = []
                stmt_line = None
                self._dispatch_brace(text, line1, lnum, class_ctx)

    def _dispatch_brace(self, text, decl_line, open_line0, class_ctx):
        # namespace / extern "C" -> recurse transparently
        if re.match(r"(?:inline\s+)?namespace\b", text) or \
                text.startswith("extern"):
            self._scan_region(class_ctx, stop_at_close=True)
            return
        # enum: skip entirely
        if re.match(r"(?:typedef\s+)?enum\b", text):
            self._skip_balanced()
            return
        # class/struct/union definition (not a fn returning struct ptr):
        m = re.match(
            r"(?:template\s*<[^{]*>\s*)?(?:typedef\s+)?"
            r"(?:class|struct|union)\s+(?:alignas\s*\([^)]*\)\s*)?(\w+)",
            text)
        if m and "(" not in text.split(":", 1)[0]:
            cname = m.group(1)
            cm = ClassModel(cname, self.fm.relpath, decl_line)
            if cname in self.model.classes:
                self.model.classes[cname].merge(cm)
                cm = self.model.classes[cname]
            else:
                self.model.classes[cname] = cm
            self._scan_region(cm, stop_at_close=True)
            return
        # Inside a class, a brace that is not a method body is a member's
        # brace initializer (`Mutex mu_{"name"};`): consume it and record
        # the member from the accumulated decl text.
        if class_ctx is not None and "(" not in _strip_annotations(text):
            self._skip_balanced()
            if text:
                self._class_member(class_ctx, text, decl_line)
            return
        # function definition: header text contains a parameter list
        fh = self._parse_fn_head(text, class_ctx)
        if fh is not None:
            name, qual_class = fh
            fn = FunctionModel(name, qual_class, self.fm.relpath, text,
                               decl_line)
            self._capture_function(fn, open_line0)
            self.model.add_function(fn)
            if class_ctx is not None:
                class_ctx.method_annots.setdefault(
                    name, _method_annotations(text))
                class_ctx.annotated |= _annotation_refs(text)
            return
        # anything else (array init, lambda-ish, control at odd scope): skip
        self._skip_balanced()

    def _parse_fn_head(self, text, class_ctx):
        if "(" not in text:
            return None
        if re.match(r"(?:if|for|while|switch|do)\b", text):
            return None
        # Strip trailing annotations/specifiers after the param list:
        #   void F(int x) const noexcept REQUIRES(mu_) -> find name before (
        # Take the identifier directly before the FIRST '(' that follows the
        # (optionally qualified) name; constructor init lists follow ')'.
        m = _FN_HEAD_RE.search(text)
        if not m:
            return None
        qual, name = m.group(1), m.group(2)
        if name in _KEYWORDS:
            return None
        # `= [](...)` lambdas or assignments are not definitions.
        if "=" in text.split("(", 1)[0]:
            return None
        cls = qual if qual else (class_ctx.name if class_ctx else None)
        return name, cls

    def _free_decl(self, text):
        """Namespace-scope statement ending in ';' — if it reads as a free
        function declaration, record its return type so status_fn_names
        covers declared-but-not-defined-here functions too."""
        stripped = _strip_annotations(text)
        if "(" not in stripped:
            return
        fh = self._parse_fn_head(stripped, None)
        if fh is None:
            return
        name, _ = fh
        head = stripped.split(name + "(", 1)[0] if name + "(" in stripped \
            else stripped.split("(", 1)[0]
        self.model.note_return_type(
            name, re.search(r"\bStatus\b", head) is not None)

    def _class_member(self, cm, text, line):
        text = " ".join(text.split())
        if not text or text.startswith(("friend", "using", "typedef",
                                        "static_assert", "template")):
            return
        cm.annotated |= _annotation_refs(text)
        mm = _MUTEX_MEMBER_RE.match(text)
        if mm:
            cm.mutexes.add(mm.group(1))
            cm.fields[mm.group(1)] = Field(mm.group(1), text,
                                           self.fm.relpath, line)
            return
        # Pure method declaration (no body in this file): record its
        # annotations and return type.  Annotation macros carry parens of
        # their own, so the method test runs on the stripped text.
        if "(" in _strip_annotations(text):
            fh = self._parse_fn_head(_strip_annotations(text), cm)
            if fh is not None:
                name, _ = fh
                cm.method_annots.setdefault(name, _method_annotations(text))
                head = text.split(name + "(", 1)[0] if name + "(" in text \
                    else text.split("(", 1)[0]
                self.model.note_return_type(
                    name, re.search(r"\bStatus\b", head) is not None)
            return
        fm = _FIELD_RE.search(_strip_annotations(text) + " ")
        if fm:
            name = fm.group(1)
            cm.fields[name] = Field(name, text, self.fm.relpath, line)


# ---------------------------------------------------------------------------
# Public entry points.
# ---------------------------------------------------------------------------

def parse_file(path, relpath, model):
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    fm = FileModel(path, relpath)
    fm.code, fm.comments, fm.directives = sanitize(text)
    model.files[relpath] = fm
    _Scanner(fm, model).scan()
    return fm


def iter_sources(roots, skip_dirs=("build", ".git", "fixture")):
    for root in roots:
        if os.path.isfile(root):
            yield root
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames
                           if d not in skip_dirs and not d.startswith("build")]
            for fn in sorted(filenames):
                if fn.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, fn)


def build_model(roots, repo_root):
    model = Model()
    for path in iter_sources(roots):
        parse_file(path, os.path.relpath(path, repo_root), model)
    model.finalize()
    return model
