#!/usr/bin/env python3
"""papyrus_analyze — the static analyzer for the PapyrusKV tree.

Fifteen repo-specific rules in one catalogue (ALL_CHECKS), three
families.  Intra-process (checks.py, DESIGN.md §10): guarded-by
completeness, status-discard discipline, codec symmetry,
pipeline-blocking reachability, wire-version discipline.  Message-flow
(protocol_checks.py, DESIGN.md §11): proto-handler opcode coverage,
proto-resp-tag discipline, proto-deadlock shapes, proto-spec-drift
against the committed PROTOCOL.json / docs/PROTOCOL.md, and direct-send.
Tree hygiene (tree_checks.py, DESIGN.md §7): raw-mutex, unguarded-mutex,
using-namespace, include-guard, trace-add.

Scope: the intra-process and message-flow rules model the files under
src/ only; the tree-hygiene rules read every given file.  With no path
arguments the roots are src tests tools bench examples.

Frontend: the built-in structural C++ model (cxx_model.py — a real
tokenizer/scoper, not line regexes).  It needs no compiler toolchain, so
the gate never skips this stage.

Usage:
  papyrus_analyze.py [paths...]            analyze (default: TREE_ROOTS)
  papyrus_analyze.py --self-test           run the fixture suite
  papyrus_analyze.py --diff-base REF       also run wire-version vs git REF
  papyrus_analyze.py --diff-file F         wire-version against a saved diff
  papyrus_analyze.py --write-spec          regenerate PROTOCOL.json + docs
  papyrus_analyze.py --json FILE           also write findings as JSON

Exit codes: 0 clean, 1 violations, 2 usage/environment error (stable —
CI and the --json archive rely on them).

Escapes: `// analyze:allow-<rule>[: reason]` on the violating line or in
the contiguous pure-comment block above it — the one way to silence a
finding.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks
import cxx_model
import protocol_checks
import protocol_model
import tree_checks

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "fixture")
TREE_ROOTS = ("src", "tests", "tools", "bench", "examples")
# The semantic model (intra-process + message-flow rules) covers src/ only.
SRC_PREFIX = "src/"
SPEC_JSON = os.path.join(REPO_ROOT, "PROTOCOL.json")
SPEC_MD = os.path.join(REPO_ROOT, "docs", "PROTOCOL.md")
# The spec-drift gate only makes sense on a model that actually contains
# the wire layer; path-scoped runs (papyrus_analyze.py src/obs) skip it.
SPEC_SOURCE = "src/core/wire.h"

# The rule catalogue.  --self-test requires the bad_* fixtures to trip
# exactly this set.
ALL_CHECKS = (
    # checks.py — intra-process
    "guarded-by", "status-discard", "codec-symmetry", "pipeline-blocking",
    "wire-version",
    # protocol_checks.py — message flow
    "proto-handler", "proto-resp-tag", "proto-deadlock", "proto-spec-drift",
    "direct-send",
    # tree_checks.py — tree hygiene
    "raw-mutex", "unguarded-mutex", "using-namespace", "include-guard",
    "trace-add",
)
# Rules with no source-line escape: wire-version's escape rides the diff it
# reads, and spec drift is cleared by regenerating the spec.
NO_LINE_ESCAPE = ("wire-version", "proto-spec-drift")


def git_diff(base):
    try:
        proc = subprocess.run(
            ["git", "-C", REPO_ROOT, "diff", base, "--", "src", "tests"],
            capture_output=True, text=True, timeout=60, check=False)
    except (OSError, subprocess.TimeoutExpired) as exc:
        print("papyrus_analyze: git diff %s failed: %s" % (base, exc),
              file=sys.stderr)
        sys.exit(2)
    if proc.returncode != 0:
        print("papyrus_analyze: git diff %s failed:\n%s"
              % (base, proc.stderr.strip()), file=sys.stderr)
        sys.exit(2)
    return proc.stdout


def split_sources(roots):
    """Source files under roots: (files under src/, every other file)."""
    src, rest = [], []
    for path in cxx_model.iter_sources(roots):
        rel = os.path.relpath(path, REPO_ROOT)
        (src if rel.startswith(SRC_PREFIX) else rest).append(path)
    return src, rest


def run_rules(model, diff_text=None, spec_json=None, spec_md=None):
    """Every rule in the catalogue over one model."""
    vs = checks.run_all(model, diff_text)
    proto = protocol_model.build_protocol_model(model)
    vs.extend(protocol_checks.run_all(model, proto, spec_json, spec_md))
    vs.extend(tree_checks.run_all(model))
    return vs


def analyze(src, rest, diff_text):
    model = cxx_model.build_model(src, REPO_ROOT)
    has_wire = SPEC_SOURCE in model.files
    violations = run_rules(model, diff_text,
                           SPEC_JSON if has_wire else None,
                           SPEC_MD if has_wire else None)
    violations.extend(
        tree_checks.run_all(cxx_model.build_model(rest, REPO_ROOT)))
    return violations


def write_spec(paths):
    model = cxx_model.build_model(paths, REPO_ROOT)
    if SPEC_SOURCE not in model.files:
        print("papyrus_analyze: --write-spec needs %s in the analyzed "
              "paths (run without path arguments)" % SPEC_SOURCE,
              file=sys.stderr)
        return 2
    proto = protocol_model.build_protocol_model(model)
    spec = protocol_model.build_spec(proto)
    with open(SPEC_JSON, "w", encoding="utf-8") as f:
        f.write(protocol_model.canonical_json(spec))
    os.makedirs(os.path.dirname(SPEC_MD), exist_ok=True)
    with open(SPEC_MD, "w", encoding="utf-8") as f:
        f.write(protocol_model.render_markdown(spec) + "\n")
    print("papyrus_analyze: wrote %s and %s (%d opcodes, %d frames)"
          % (os.path.relpath(SPEC_JSON, REPO_ROOT),
             os.path.relpath(SPEC_MD, REPO_ROOT),
             len(spec["opcodes"]), len(spec["frames"])))
    return 0


def write_json(path, violations):
    report = {
        "version": 1,
        "count": len(violations),
        "findings": [
            {"rule": v.rule, "file": v.relpath, "line": v.line,
             "token": v.token, "message": v.msg, "key": v.key}
            for v in sorted(violations, key=lambda v: v.key)],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# Self-test: the bad_* fixtures trip exactly the catalogue, the good_*
# fixtures stay clean, and every escape in a good_* fixture is load-bearing.
# ---------------------------------------------------------------------------

def _fixture_run(name, diff_name=None, spec_json=None, root=FIXTURE_DIR):
    """Runs the whole catalogue over one fixture file under root.  A
    fixture's path relative to root is its path for the scoped rules, so
    fixture/src/core/ is inside the direct-send scope."""
    diff_text = None
    if diff_name:
        with open(os.path.join(FIXTURE_DIR, diff_name),
                  encoding="utf-8") as f:
            diff_text = f.read()
    model = cxx_model.build_model([os.path.join(root, name)], root)
    return run_rules(model, diff_text,
                     os.path.join(FIXTURE_DIR, spec_json)
                     if spec_json else None)


_ESCAPE_RE = re.compile(r"analyze:allow-([\w-]+)")


def _idle_escapes(name, diff_name, spec_json):
    """(rules escaped in the fixture, those whose escape silences nothing):
    with every escape in the file disabled, each escaped rule must trip."""
    with open(os.path.join(FIXTURE_DIR, name), encoding="utf-8") as f:
        text = f.read()
    escaped = set(_ESCAPE_RE.findall(text))
    if not escaped:
        return escaped, set()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text.replace("analyze:allow-", "analyze:disabled-"))
        tripped = {v.rule for v in
                   _fixture_run(name, diff_name, spec_json, root=tmp)}
    return escaped, escaped - tripped


# (fixture, optional diff, optional spec json, the rules it trips)
BAD_CASES = [
    ("bad_guarded_by.h", None, None, {"guarded-by"}),
    ("bad_status_discard.cc", None, None, {"status-discard"}),
    ("bad_codec_asym.cc", None, None, {"codec-symmetry"}),
    ("bad_codec_records.cc", None, None, {"codec-symmetry"}),
    ("bad_pipeline_block.cc", None, None,
     {"pipeline-blocking", "proto-deadlock"}),
    ("wire_fixture.cc", "bad_wire_version.diff", None, {"wire-version"}),
    ("bad_proto_orphan.cc", None, None, {"proto-handler"}),
    ("bad_proto_resp_tag.cc", None, None, {"proto-resp-tag"}),
    ("bad_proto_collective.cc", None, None, {"proto-deadlock"}),
    ("bad_proto_recv_cycle.cc", None, None, {"proto-deadlock"}),
    ("proto_fixture.cc", None, "bad_proto_spec.json", {"proto-spec-drift"}),
    ("src/core/bad_direct_send.cc", None, None, {"direct-send"}),
    ("bad_raw_mutex.cc", None, None, {"raw-mutex"}),
    ("bad_unguarded.h", None, None, {"unguarded-mutex"}),
    ("bad_header.h", None, None, {"using-namespace", "include-guard"}),
    ("bad_trace_add.cc", None, None, {"trace-add"}),
]
GOOD_CASES = [
    ("good_annotated.h", None, None),
    ("good_escapes.cc", None, None),
    ("good_escapes.h", None, None),
    ("good_codec.cc", None, None),
    ("good_pipeline.cc", None, None),
    ("wire_fixture.cc", "good_wire_version.diff", None),
    ("good_proto.cc", None, None),
    ("src/core/good_direct_send.cc", None, None),
    ("proto_fixture.cc", None, "good_proto_spec.json"),
]


def self_test():
    if not os.path.isdir(FIXTURE_DIR):
        print("papyrus_analyze: fixture dir missing: %s" % FIXTURE_DIR,
              file=sys.stderr)
        return 2

    failures = []
    tripped = set()
    for name, diff, spec, want in BAD_CASES:
        got = {v.rule for v in _fixture_run(name, diff, spec)}
        tripped |= got
        if got != want:
            failures.append("fixture %s: expected exactly %s, got %s"
                            % (name, sorted(want), sorted(got)))
    escaped = set()
    for name, diff, spec in GOOD_CASES:
        vs = _fixture_run(name, diff, spec)
        if vs:
            failures.append("fixture %s: expected clean, got:\n  %s"
                            % (name, "\n  ".join(str(v) for v in vs)))
        rules, idle = _idle_escapes(name, diff, spec)
        escaped |= rules
        if idle:
            failures.append("fixture %s: escape(s) for %s silence nothing"
                            % (name, sorted(idle)))

    # Coverage comes from the catalogue: a rule added without a bad_*
    # fixture, or without an exercised escape, fails here.
    catalogue = set(ALL_CHECKS)
    if tripped != catalogue:
        failures.append("bad_* fixtures never trip %s; unknown rules %s"
                        % (sorted(catalogue - tripped),
                           sorted(tripped - catalogue)))
    unescaped = catalogue - set(NO_LINE_ESCAPE) - escaped
    if unescaped:
        failures.append("no good_* fixture exercises the escape for %s"
                        % sorted(unescaped))

    if failures:
        print("papyrus_analyze --self-test FAILED:", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    print("papyrus_analyze --self-test OK: %d rules, %d bad fixtures, %d "
          "good fixtures\n  %s" % (len(ALL_CHECKS), len(BAD_CASES),
                                   len(GOOD_CASES), " ".join(ALL_CHECKS)))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="papyrus_analyze.py",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*",
                    help="files or directories (default: %s)"
                    % " ".join(TREE_ROOTS))
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture suite and exit")
    ap.add_argument("--write-spec", action="store_true",
                    help="regenerate PROTOCOL.json + docs/PROTOCOL.md "
                         "from the source and exit")
    ap.add_argument("--json", metavar="FILE",
                    help="also write findings (rule, file, line, message) "
                         "as JSON to FILE")
    ap.add_argument("--diff-base", metavar="REF",
                    help="run wire-version against `git diff REF`")
    ap.add_argument("--diff-file", metavar="FILE",
                    help="run wire-version against a saved unified diff")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()

    roots = args.paths or [os.path.join(REPO_ROOT, r) for r in TREE_ROOTS]
    for r in roots:
        if not os.path.exists(r):
            print("papyrus_analyze: no such path: %s" % r, file=sys.stderr)
            return 2

    diff_text = None
    if args.diff_file:
        with open(args.diff_file, encoding="utf-8") as f:
            diff_text = f.read()
    elif args.diff_base:
        diff_text = git_diff(args.diff_base)

    src, rest = split_sources(roots)
    if args.write_spec:
        return write_spec(src)
    violations = analyze(src, rest, diff_text)

    if args.json:
        write_json(args.json, violations)
    for v in violations:
        print(v)
    if violations:
        print("papyrus_analyze: %d violation(s)" % len(violations),
              file=sys.stderr)
        return 1
    print("papyrus_analyze: clean (%d file(s))" % (len(src) + len(rest)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
