#!/usr/bin/env python3
"""papyrus_analyze — semantic analyzer for the PapyrusKV tree.

Nine repo-specific checks the regex lint (tools/papyrus_lint.py) cannot
express.  Intra-process (checks.py, DESIGN.md §10): guarded-by
completeness, status-discard discipline, codec symmetry,
pipeline-blocking reachability, wire-version discipline.  Message-flow
(protocol_checks.py, DESIGN.md §11): proto-handler opcode coverage,
proto-resp-tag discipline, proto-deadlock shapes, and proto-spec-drift
against the committed PROTOCOL.json / docs/PROTOCOL.md.

Frontend seam: the analyzer always runs on the built-in structural C++
frontend (cxx_model.py — a real tokenizer/scoper, not line regexes).
When python clang bindings AND a compile_commands.json are available
(`--frontend clang`, or `auto` when importable), clang.cindex refines the
Status-returning-function set with true type information; everything
else is frontend-independent.  The container gate therefore never skips
this stage — clang only sharpens it.

Usage:
  papyrus_analyze.py [paths...]            analyze (default roots: src)
  papyrus_analyze.py --self-test           run the full fixture suite
  papyrus_analyze.py --self-test-protocol  protocol fixtures only
  papyrus_analyze.py --diff-base REF       also run wire-version vs git REF
  papyrus_analyze.py --diff-file F         wire-version against a saved diff
  papyrus_analyze.py --baseline FILE       suppress known findings
  papyrus_analyze.py --write-baseline      rewrite baseline from findings
  papyrus_analyze.py --write-spec          regenerate PROTOCOL.json + docs
  papyrus_analyze.py --json FILE           also write findings as JSON
  papyrus_analyze.py --frontend auto|text|clang

Exit codes: 0 clean, 1 violations, 2 usage/environment error (stable —
CI and the --json archive rely on them).

Escapes: `// analyze:allow-<rule>[: reason]` on the violating line or the
immediately preceding pure-comment line.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks
import cxx_model
import protocol_checks
import protocol_model

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "fixture")
DEFAULT_BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "baseline.txt")
DEFAULT_ROOTS = ("src",)
SPEC_JSON = os.path.join(REPO_ROOT, "PROTOCOL.json")
SPEC_MD = os.path.join(REPO_ROOT, "docs", "PROTOCOL.md")
# The spec-drift gate only makes sense on a model that actually contains
# the wire layer; path-scoped runs (papyrus_analyze.py src/obs) skip it.
SPEC_SOURCE = "src/core/wire.h"


def load_baseline(path):
    keys = set()
    if not os.path.exists(path):
        return keys
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                keys.add(line)
    return keys


def write_baseline(path, violations):
    with open(path, "w", encoding="utf-8") as f:
        f.write("# papyrus_analyze baseline — one `rule|path|token` per "
                "line.\n")
        f.write("# Findings listed here are suppressed; burn this file "
                "down, don't grow it.\n")
        for v in sorted(violations, key=lambda v: v.key):
            f.write(v.key + "\n")


def resolve_frontend(requested):
    """Returns (name, refine_fn or None).  clang refinement is optional
    and additive; 'text' is always available."""
    if requested == "text":
        return "text", None
    try:
        import clang_frontend
        if clang_frontend.available():
            return "clang", clang_frontend.refine
        if requested == "clang":
            print("papyrus_analyze: --frontend clang requested but "
                  "clang.cindex or compile_commands.json is unavailable",
                  file=sys.stderr)
            sys.exit(2)
    except Exception as exc:  # pragma: no cover - defensive
        if requested == "clang":
            print("papyrus_analyze: clang frontend failed: %s" % exc,
                  file=sys.stderr)
            sys.exit(2)
    return "text", None


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


def analyze(paths, diff_text, refine):
    model = cxx_model.build_model(paths, REPO_ROOT)
    if refine is not None:
        try:
            refine(model, REPO_ROOT)
        except Exception as exc:  # refinement must never break the run
            print("papyrus_analyze: clang refinement failed (%s); "
                  "continuing with text frontend" % exc, file=sys.stderr)
    violations = checks.run_all(model, diff_text)
    proto = protocol_model.build_protocol_model(model)
    has_wire = SPEC_SOURCE in model.files
    violations.extend(protocol_checks.run_all(
        model, proto,
        spec_json_path=SPEC_JSON if has_wire else None,
        spec_md_path=SPEC_MD if has_wire else None))
    return violations


def write_spec(paths, refine):
    model = cxx_model.build_model(paths, REPO_ROOT)
    if refine is not None:
        try:
            refine(model, REPO_ROOT)
        except Exception:
            pass
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


def write_json(path, violations, frontend):
    report = {
        "version": 1,
        "frontend": frontend,
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
# Self-test: every rule trips on its bad_ fixture, good_ fixtures and
# escapes stay clean — same contract as papyrus_lint.py --self-test.
# ---------------------------------------------------------------------------

def _fixture_run(name, diff_name=None, spec_json=None, spec_md=None):
    """Runs both check families over one fixture file."""
    path = os.path.join(FIXTURE_DIR, name)
    diff_text = None
    if diff_name:
        with open(os.path.join(FIXTURE_DIR, diff_name),
                  encoding="utf-8") as f:
            diff_text = f.read()
    model = cxx_model.build_model([path], FIXTURE_DIR)
    vs = checks.run_all(model, diff_text)
    proto = protocol_model.build_protocol_model(model)
    vs.extend(protocol_checks.run_all(
        model, proto,
        spec_json_path=os.path.join(FIXTURE_DIR, spec_json)
        if spec_json else None,
        spec_md_path=os.path.join(FIXTURE_DIR, spec_md)
        if spec_md else None))
    return vs


# (fixture, optional diff, optional spec json, rules that MUST trip)
INTRA_BAD_CASES = [
    ("bad_guarded_by.h", None, None, {"guarded-by"}),
    ("bad_status_discard.cc", None, None, {"status-discard"}),
    ("bad_codec_asym.cc", None, None, {"codec-symmetry"}),
    ("bad_codec_records.cc", None, None, {"codec-symmetry"}),
    ("bad_pipeline_block.cc", None, None, {"pipeline-blocking"}),
    ("bad_sampler_lock.cc", None, None, {"pipeline-blocking"}),
    ("wire_fixture.cc", "bad_wire_version.diff", None, {"wire-version"}),
]
PROTO_BAD_CASES = [
    ("bad_proto_orphan.cc", None, None, {"proto-handler"}),
    ("bad_proto_resp_tag.cc", None, None, {"proto-resp-tag"}),
    ("bad_proto_collective.cc", None, None, {"proto-deadlock"}),
    ("bad_proto_recv_cycle.cc", None, None, {"proto-deadlock"}),
    ("proto_fixture.cc", None, "bad_proto_spec.json",
     {"proto-spec-drift"}),
]
INTRA_GOOD_CASES = [
    ("good_annotated.h", None, None),
    ("good_escapes.cc", None, None),
    ("good_codec.cc", None, None),
    ("good_pipeline.cc", None, None),
    ("good_sampler.cc", None, None),
    ("wire_fixture.cc", "good_wire_version.diff", None),
]
PROTO_GOOD_CASES = [
    ("good_proto.cc", None, None),
    ("proto_fixture.cc", None, "good_proto_spec.json"),
]


def self_test(protocol_only=False):
    if not os.path.isdir(FIXTURE_DIR):
        print("papyrus_analyze: fixture dir missing: %s" % FIXTURE_DIR,
              file=sys.stderr)
        return 2

    failures = []
    bad_cases = PROTO_BAD_CASES if protocol_only \
        else INTRA_BAD_CASES + PROTO_BAD_CASES
    good_cases = PROTO_GOOD_CASES if protocol_only \
        else INTRA_GOOD_CASES + PROTO_GOOD_CASES

    for name, diff, spec, want in bad_cases:
        got = {v.rule for v in _fixture_run(name, diff, spec)}
        missing = want - got
        if missing:
            failures.append("fixture %s: expected rule(s) %s did not trip "
                            "(got: %s)" % (name, sorted(missing),
                                           sorted(got) or "nothing"))
    for name, diff, spec in good_cases:
        vs = _fixture_run(name, diff, spec)
        if vs:
            failures.append("fixture %s: expected clean, got:\n  %s"
                            % (name, "\n  ".join(str(v) for v in vs)))

    # The escape fixtures must actually contain escapes — for >=3
    # intra-process rules and >=2 protocol rules — so a regression that
    # stops honoring escapes cannot silently pass.
    if not protocol_only:
        with open(os.path.join(FIXTURE_DIR, "good_escapes.cc"),
                  encoding="utf-8") as f:
            escape_text = f.read()
        escape_rules = {r for r in checks.ALL_CHECKS
                        if "analyze:allow-" + r in escape_text}
        if len(escape_rules) < 3:
            failures.append("good_escapes.cc must exercise escapes for >=3 "
                            "rules, found %s" % sorted(escape_rules))
    with open(os.path.join(FIXTURE_DIR, "good_proto.cc"),
              encoding="utf-8") as f:
        proto_escape_text = f.read()
    proto_escape_rules = {r for r in protocol_checks.PROTO_CHECKS
                          if "analyze:allow-" + r in proto_escape_text}
    if len(proto_escape_rules) < 2:
        failures.append("good_proto.cc must exercise escapes for >=2 "
                        "protocol rules, found %s"
                        % sorted(proto_escape_rules))

    if failures:
        print("papyrus_analyze --self-test FAILED:", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    n_rules = (len(protocol_checks.PROTO_CHECKS) if protocol_only
               else len(checks.ALL_CHECKS)
               + len(protocol_checks.PROTO_CHECKS))
    print("papyrus_analyze --self-test%s OK (%d rules, %d bad fixtures, "
          "%d good fixtures)" % ("-protocol" if protocol_only else "",
                                 n_rules, len(bad_cases), len(good_cases)))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="papyrus_analyze.py",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*",
                    help="files or directories (default: src)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture suite and exit")
    ap.add_argument("--self-test-protocol", action="store_true",
                    help="run only the protocol fixture suite and exit")
    ap.add_argument("--baseline", default=DEFAULT_BASELINE,
                    help="suppression file (default: %(default)s)")
    ap.add_argument("--write-baseline", action="store_true",
                    help="rewrite the baseline file from current findings")
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
    ap.add_argument("--frontend", choices=("auto", "text", "clang"),
                    default="auto",
                    help="C++ frontend (default: auto — clang refinement "
                         "when available, text otherwise)")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.self_test_protocol:
        return self_test(protocol_only=True)

    roots = args.paths or [os.path.join(REPO_ROOT, r)
                           for r in DEFAULT_ROOTS]
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

    frontend, refine = resolve_frontend(args.frontend)
    if args.write_spec:
        return write_spec(roots, refine)
    violations = analyze(roots, diff_text, refine)

    if args.json:
        write_json(args.json, violations, frontend)

    if args.write_baseline:
        write_baseline(args.baseline, violations)
        print("papyrus_analyze: wrote %d suppression(s) to %s"
              % (len(violations), args.baseline))
        return 0

    baseline = load_baseline(args.baseline)
    fresh = [v for v in violations if v.key not in baseline]
    stale = baseline - {v.key for v in violations}

    for v in fresh:
        print(v)
    if stale:
        print("papyrus_analyze: %d stale baseline entr%s (fixed — remove "
              "from %s):" % (len(stale), "y" if len(stale) == 1 else "ies",
                             os.path.relpath(args.baseline, REPO_ROOT)),
              file=sys.stderr)
        for k in sorted(stale):
            print("  " + k, file=sys.stderr)
    if fresh:
        print("papyrus_analyze: %d violation(s) [frontend: %s]"
              % (len(fresh), frontend), file=sys.stderr)
        return 1
    print("papyrus_analyze: clean (%d file(s), frontend: %s, %d "
          "baseline-suppressed)" % (
              len({f for f in
                   cxx_model.iter_sources(roots)}),
              frontend, len(violations) - len(fresh)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
