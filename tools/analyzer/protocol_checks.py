"""protocol_checks — the five papyrus_analyze message-flow rules.

Each check consumes the ProtocolModel from protocol_model.py (plus the
cxx_model Model for escapes/comments) and yields checks.Violation objects.
Escape grammar is shared with the intra-process rules:
`// analyze:allow-<rule>[: reason]` on the line or the contiguous
pure-comment block above it.

Rules:
  proto-handler     Every opcode sent on the request communicator must
                    have a dispatch arm in the handler switch whose decode
                    frame matches an encode in the sending function; arms
                    without a send site and opcodes that are neither sent
                    nor dispatched (orphans) are flagged; two enumerators
                    sharing a value shadow each other.
  proto-resp-tag    Every request frame's resp_tag must come from
                    AllocRespTag(): a fresh tag per request, so a retry's
                    reply can never alias an earlier attempt's late one.
  proto-deadlock    (a) an unbounded Recv/RecvInternal outside the comm
                    module can wedge a rank forever — the classic MPI
                    wait-cycle edge with no timeout bound; (b) sibling
                    branches conditioned on rank-dependent state (rank,
                    crashed(), IsSuspect) must issue the same collective
                    sequence in the same order, or ranks diverge into
                    different collectives and deadlock.
  proto-spec-drift  The committed PROTOCOL.json / docs/PROTOCOL.md must
                    match what the extractor reads from the source —
                    regenerate with `papyrus_analyze.py --write-spec`.
  direct-send       A direct Communicator Send (receiver named *comm*) in
                    src/core/ or src/repl/.  Remote requests from the KV
                    layer go through the async pipeline (src/async/) or
                    the runtime's SendRequest/SendResponse helpers, which
                    add batching, per-op metrics, flight-recorder events
                    and bounded retries; a replication frame sent raw
                    would also race the pipeline's per-destination order.
"""

import json
import os
import re

import protocol_model
from checks import Violation

# The only layers direct-send constrains: the async pipeline and the net
# layer are the two legitimate senders.
DIRECT_SEND_SCOPE = ("src/core/", "src/repl/")


def _fm(model, fn):
    return model.files[fn.relpath]


# ---------------------------------------------------------------------------
# Rule A: handler coverage.
# ---------------------------------------------------------------------------

def check_handler_coverage(model, proto):
    out = []
    if not proto.opcodes or proto.handler is None:
        # No dispatcher in this source set (e.g. a fixture without one):
        # nothing to cover.
        return out
    sent = {}
    for s in proto.sends:
        if s.channel != "request":
            continue
        for tok in s.op_tokens:
            sent.setdefault(tok, []).append(s)

    # Shadowed opcodes: two enumerators with the same value.
    by_value = {}
    for name, (value, relpath, line) in sorted(proto.opcodes.items()):
        if value is None:
            continue
        if value in by_value:
            out.append(Violation(
                "proto-handler", relpath, line, "shadow:%s" % name,
                "opcode %s aliases %s (both = %d) — the dispatch switch "
                "can only serve one of them" % (name, by_value[value],
                                                value)))
        else:
            by_value[value] = name

    for tok, sites in sorted(sent.items()):
        if tok not in proto.opcodes:
            continue
        if tok not in proto.arms:
            for s in sites:
                fm = _fm(model, s.fn)
                if fm.escape(s.line, "proto-handler"):
                    continue
                out.append(Violation(
                    "proto-handler", s.fn.relpath, s.line,
                    "unhandled:%s" % tok,
                    "%s sends %s on the request communicator but the "
                    "handler switch (%s) has no arm for it — the message "
                    "would hit the unknown-opcode default" %
                    (s.fn.qualname, tok,
                     proto.handler.qualname)))
            continue
        # Frame match: the sending function's Encode frames must include
        # one of the frames the arm decodes (skipped when the payload is
        # built elsewhere — no Encode call in the sender to compare).
        arm = proto.arms[tok]
        if not arm.decoders:
            continue
        for s in sites:
            enc_frames = {e.frame for e in proto.encode_calls
                          if e.fn is s.fn}
            enc_frames.update(
                re.findall(r"\bEncode(\w+)\s*\(",
                           " ".join(t for _, t in s.fn.body)))
            if not enc_frames:
                continue
            if not enc_frames & set(arm.decoders):
                fm = _fm(model, s.fn)
                if fm.escape(s.line, "proto-handler"):
                    continue
                out.append(Violation(
                    "proto-handler", s.fn.relpath, s.line,
                    "frame-mismatch:%s" % tok,
                    "%s sends %s with Encode frame(s) [%s] but the arm "
                    "decodes [%s] — encode and decode must agree on the "
                    "frame" % (s.fn.qualname, tok,
                               ", ".join(sorted(enc_frames)),
                               ", ".join(arm.decoders))))

    hfm = model.files[proto.handler.relpath]
    for tok, arm in sorted(proto.arms.items()):
        if tok not in sent and not hfm.escape(arm.line, "proto-handler"):
            out.append(Violation(
                "proto-handler", proto.handler.relpath, arm.line,
                "no-sender:%s" % tok,
                "dispatch arm for %s has no in-tree send site — dead "
                "opcode, or a sender the extractor cannot see (escape "
                "with why if intentional)" % tok))
    for name, (value, relpath, line) in sorted(proto.opcodes.items()):
        if name in sent or name in proto.arms:
            continue
        efm = model.files.get(relpath)
        if efm is not None and efm.escape(line, "proto-handler"):
            continue
        out.append(Violation(
            "proto-handler", relpath, line, "orphan:%s" % name,
            "opcode %s is declared but never sent and never dispatched — "
            "orphan wire surface" % name))
    return out


# ---------------------------------------------------------------------------
# Rule B: resp-tag discipline.
# ---------------------------------------------------------------------------

def check_resp_tag(model, proto):
    out = []
    for e in proto.encode_calls:
        if e.tag_source == "dynamic":
            continue
        if _fm(model, e.fn).escape(e.line, "proto-resp-tag"):
            continue
        out.append(Violation(
            "proto-resp-tag", e.fn.relpath, e.line,
            "unknown:%s:%s" % (e.fn.name, e.frame),
            "Encode%s in %s sources resp_tag from '%s' which the "
            "analyzer cannot trace to AllocRespTag() — route the tag "
            "through a local assigned from AllocRespTag(), or escape "
            "with why" % (e.frame, e.fn.qualname, e.tag_text.strip())))
    return out


# ---------------------------------------------------------------------------
# Rule C: deadlock shapes.
# ---------------------------------------------------------------------------

def _branch_blocks(joined):
    """Yields (conds_text, [(char_lo, char_hi), ...sibling blocks]) for
    every if/else chain in the joined body text, by character-level brace
    matching (line depths cannot split `} else {`).  When an if-block with
    no else exits early (return/continue/break), the rest of the function
    is the implicit sibling."""
    for m in re.finditer(r"\bif\s*\(", joined):
        head = joined[:m.start()].rstrip()
        if head.endswith("else"):
            continue  # chain tail — walked from its head `if`
        conds = []
        blocks = []
        pos = m.start()
        while True:
            ci = joined.find("(", pos)
            if ci < 0:
                break
            cend = protocol_model.match_paren(joined, ci)
            conds.append(joined[ci + 1:cend])
            # Branch body: brace block or single statement.
            j = cend + 1
            while j < len(joined) and joined[j].isspace():
                j += 1
            if j < len(joined) and joined[j] == "{":
                bend = protocol_model.match_paren(joined, j, "{", "}")
            else:
                bend = joined.find(";", j)
                bend = len(joined) - 1 if bend < 0 else bend
            blocks.append((j, bend))
            # else / else-if chain?
            k = bend + 1
            while k < len(joined) and joined[k].isspace():
                k += 1
            if not joined.startswith("else", k):
                break
            k += 4
            while k < len(joined) and joined[k].isspace():
                k += 1
            if joined.startswith("if", k):
                pos = k  # else-if: loop parses its cond + body
                continue
            if joined[k:k + 1] == "{":
                bend2 = protocol_model.match_paren(joined, k, "{", "}")
            else:
                bend2 = joined.find(";", k)
                bend2 = len(joined) - 1 if bend2 < 0 else bend2
            blocks.append((k, bend2))
            break
        if len(blocks) == 1:
            lo, hi = blocks[0]
            if re.search(r"\b(?:return|continue|break)\b",
                         joined[lo:hi + 1]):
                blocks.append((hi + 1, len(joined) - 1))
        if len(blocks) >= 2:
            yield " ".join(conds), blocks


def check_deadlock(model, proto):
    out = []
    # (a) unbounded receives outside the comm module.
    for r in proto.recvs:
        if r.bounded or r.name not in ("Recv", "RecvInternal"):
            continue
        fm = _fm(model, r.fn)
        if fm.escape(r.line, "proto-deadlock"):
            continue
        out.append(Violation(
            "proto-deadlock", r.fn.relpath, r.line,
            "unbounded-recv:%s@%d" % (r.fn.name, r.line),
            "unbounded %s in %s — a lost message or dead peer wedges this "
            "rank forever (no timeout-bounded edge out of the wait); use "
            "RecvFor/RequestReply or escape with why blocking is safe" %
            (r.name, r.fn.qualname)))

    # (b) rank-divergent collective ordering between sibling branches.
    for fn in model.functions:
        sites = proto.collectives.get(fn.qualname)
        if not sites:
            continue
        fm = _fm(model, fn)
        joined, index, starts = protocol_model._joined_body(
            fn, with_starts=True)
        idx_of_line = {ln: i for i, (ln, _) in enumerate(fn.body)}
        site_pos = []  # (char_offset, lineno, name), program order
        for ln, name in sites:
            i = idx_of_line.get(ln)
            if i is None:
                continue
            col = fn.body[i][1].find(name)
            site_pos.append((starts[i] + max(col, 0), ln, name))
        for cond, blocks in _branch_blocks(joined):
            if not protocol_model._RANK_COND_RE.search(cond):
                continue
            seqs = [[name for off, _, name in site_pos if a <= off <= b]
                    for a, b in blocks]
            if not any(seqs):
                continue
            if any(seq != seqs[0] for seq in seqs[1:]):
                bidx = index[min(blocks[0][0], len(index) - 1)]
                line = fn.body[bidx][0]
                if fm.escape(line, "proto-deadlock"):
                    continue
                out.append(Violation(
                    "proto-deadlock", fn.relpath, line,
                    "collective-order:%s@%d" % (fn.name, line),
                    "%s issues different collective sequences (%s) in "
                    "sibling branches of rank-dependent condition (%s) — "
                    "ranks taking different branches meet different "
                    "collectives and deadlock" %
                    (fn.qualname,
                     " vs ".join("[%s]" % " -> ".join(s) for s in seqs),
                     " ".join(cond.split())[:60])))
    return out


# ---------------------------------------------------------------------------
# Rule D: spec drift.
# ---------------------------------------------------------------------------

def check_spec_drift(proto, spec_json_path, spec_md_path=None):
    out = []
    rel_json = os.path.basename(spec_json_path)
    gen = protocol_model.build_spec(proto)
    if not os.path.exists(spec_json_path):
        out.append(Violation(
            "proto-spec-drift", rel_json, 1, "missing",
            "committed protocol spec %s is missing — generate it with "
            "`python3 tools/analyzer/papyrus_analyze.py --write-spec`"
            % rel_json))
        return out
    try:
        with open(spec_json_path, encoding="utf-8") as f:
            committed = json.load(f)
    except ValueError as exc:
        out.append(Violation(
            "proto-spec-drift", rel_json, 1, "unparseable",
            "%s is not valid JSON (%s) — regenerate with --write-spec"
            % (rel_json, exc)))
        return out
    if json.dumps(committed, sort_keys=True) != \
            json.dumps(gen, sort_keys=True):
        diff_keys = sorted(
            k for k in set(gen) | set(committed)
            if json.dumps(gen.get(k), sort_keys=True) !=
            json.dumps(committed.get(k), sort_keys=True))
        out.append(Violation(
            "proto-spec-drift", rel_json, 1, "drift",
            "source message flow drifted from the committed %s (sections: "
            "%s) — regenerate with `python3 tools/analyzer/"
            "papyrus_analyze.py --write-spec` and review the diff"
            % (rel_json, ", ".join(diff_keys))))
        return out
    if spec_md_path is not None:
        gen_md = protocol_model.render_markdown(gen)
        committed_md = ""
        if os.path.exists(spec_md_path):
            with open(spec_md_path, encoding="utf-8") as f:
                committed_md = f.read()
        if committed_md.strip() != gen_md.strip():
            out.append(Violation(
                "proto-spec-drift", os.path.basename(spec_md_path), 1,
                "md-drift",
                "generated docs/PROTOCOL.md is out of date — regenerate "
                "with `python3 tools/analyzer/papyrus_analyze.py "
                "--write-spec`"))
    return out


# ---------------------------------------------------------------------------
# Rule E: direct sends.
# ---------------------------------------------------------------------------

def check_direct_send(model, proto):
    out = []
    for s in proto.sends:
        if s.via != "Send" or not s.fn.relpath.startswith(DIRECT_SEND_SCOPE):
            continue
        if _fm(model, s.fn).escape(s.line, "direct-send"):
            continue
        out.append(Violation(
            "direct-send", s.fn.relpath, s.line,
            "direct-send:%s@%d" % (s.fn.name, s.line),
            "direct Communicator Send in %s — route through the async "
            "pipeline (src/async/pipeline.h) or the runtime's "
            "SendRequest/SendResponse" % s.fn.qualname))
    return out


def run_all(model, proto, spec_json_path=None, spec_md_path=None):
    out = []
    out.extend(check_handler_coverage(model, proto))
    out.extend(check_resp_tag(model, proto))
    out.extend(check_deadlock(model, proto))
    if spec_json_path is not None:
        out.extend(check_spec_drift(proto, spec_json_path, spec_md_path))
    out.extend(check_direct_send(model, proto))
    return out
