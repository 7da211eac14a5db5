"""protocol_model — whole-program message-flow model for the wire layer.

Built on top of the cxx_model structural frontend (which deliberately skips
enum bodies, so the WireOp enum is re-parsed here from the sanitized code
lines).  The model captures everything protocol_checks.py needs:

  * the WireOp opcode space (names, values, declaration sites), plus
    kOpMax / kDynamicRespTagBase;
  * every send site, classified by channel (request / response / signal /
    other) from the receiver communicator name or the runtime helper used
    (SendRequest / SendResponse / RequestReply), with the opcode tokens the
    call carries (directly, or assigned to the opcode variable it passes)
    and whether the site sits inside a retry loop;
  * every receive site (Recv / RecvInternal / RecvFor / BarrierFor), with
    its boundedness;
  * the KvRuntime-style handler dispatch switch (switch on a message tag
    with >= 2 opcode case arms), each arm's handler functions and the
    Decode<Frame> frames they consume;
  * every Encode<Frame> call whose codec declaration carries a resp_tag
    parameter, with the tag argument classified as dynamic
    (AllocRespTag-sourced) or unknown;
  * every collective call site (receiver-typed for the generic names), in
    program order per function, for the sibling-branch ordering check;
  * the per-frame wire layout, read from the structured comment block that
    precedes each Encode* declaration in src/core/wire.h.

`build_spec()` flattens the model into the committed PROTOCOL.json /
docs/PROTOCOL.md artifacts.  The spec is deliberately line-number-free
(sites are identified by function qualname + file) so it only drifts when
the message flow itself changes, not when unrelated edits move code.
"""

import json
import re

# ---------------------------------------------------------------------------
# Repo conventions (fixtures rely on the same ones).
# ---------------------------------------------------------------------------

# The comm module implements the primitives; its internal sends/recvs are
# transport, not protocol.
COMM_MODULE_FILES = ("src/net/comm.h", "src/net/comm.cc")

# Collective operations.  The generic comm names require a communicator
# receiver (so `store.Barrier()` / `db->Barrier()` — KV-level fences — stay
# out); the runtime's own bounded wrappers are collectives by name.
COLLECTIVE_COMM_NAMES = frozenset({"Barrier", "BarrierFor", "Allgather"})
COLLECTIVE_PLAIN_NAMES = frozenset({"CollectiveBarrier", "RestartBarrier"})

# A branch condition that can evaluate differently on different ranks.
# (negative lookbehind keeps `nranks`/`snap_nranks` — SPMD-uniform counts —
# from matching).
_RANK_COND_RE = re.compile(
    r"(?<![A-Za-z0-9_])(?:my_)?rank(?:_\b|\b|\s*\()"
    r"|\bcrashed\s*\(|\bIsSuspect\s*\(|\bsuspect", re.IGNORECASE)

_ENUM_RE = re.compile(r"\benum\s+(?:class\s+)?(\w+)\s*(?::[^{]*)?\{")
_ENUM_ENTRY_RE = re.compile(r"^\s*(k\w+)\s*(?:=\s*([^,}]+))?\s*(?:,|$)")
_CONSTEXPR_INT_RE = re.compile(
    r"\bconstexpr\s+(?:int|uint32_t|uint8_t)\s+(\w+)\s*=\s*([\w']+)\s*;")
_LOOP_RE = re.compile(r"^\s*(?:for|while)\s*\(")
_CASE_RE = re.compile(r"\bcase\s+(?:\w+::)*(\w+)\s*:")
_SWITCH_RE = re.compile(r"\bswitch\s*\(\s*([\w.\->]+)\s*\)")
_ALLOC_TAG_RE = re.compile(
    r"([\w.\->\[\]]+)\s*=\s*(?:[\w.\->]*\.|->)?\s*(?:\w+\s*\.\s*|\w+\s*->\s*)?"
    r"AllocRespTag\s*\(")
_OP_TOKEN_RE = re.compile(r"\bkOp\w+\b")


class SendSite:
    def __init__(self, fn, line, channel, op_tokens, in_retry, via):
        self.fn = fn              # FunctionModel
        self.line = line
        self.channel = channel    # request | response | signal | other
        self.op_tokens = op_tokens
        self.in_retry = in_retry
        self.via = via            # call name used (Send/SendRequest/...)


class RecvSite:
    def __init__(self, fn, line, name, receiver, bounded):
        self.fn = fn
        self.line = line
        self.name = name
        self.receiver = receiver
        self.bounded = bounded


class EncodeCall:
    def __init__(self, fn, line, frame, tag_source, tag_text):
        self.fn = fn
        self.line = line
        self.frame = frame          # e.g. "PutBatch"
        self.tag_source = tag_source  # dynamic | unknown
        self.tag_text = tag_text


class HandlerArm:
    def __init__(self, op_token, line, callees, decoders):
        self.op_token = op_token
        self.line = line
        self.callees = callees      # called handler function names
        self.decoders = decoders    # Decode frame suffixes consumed


class ProtocolModel:
    def __init__(self):
        self.opcodes = {}       # name -> (value, relpath, line)
        self.op_max = None
        self.dynamic_base = None
        self.enum_relpath = None
        self.sends = []         # [SendSite]
        self.recvs = []         # [RecvSite]
        self.encode_calls = []  # [EncodeCall]
        self.handler = None     # FunctionModel of the dispatch loop
        self.arms = {}          # op_token -> HandlerArm
        self.collectives = {}   # fn.qualname -> [(body_idx, line, name)]
        self.frame_layouts = {}  # frame -> layout string (from wire.h)
        self.resp_tag_encoders = set()  # Encode frames carrying a resp_tag

    def opcode_values(self):
        return {v[0] for v in self.opcodes.values() if v[0] is not None}


# ---------------------------------------------------------------------------
# Enum + constant parsing (cxx_model skips enum bodies by design).
# ---------------------------------------------------------------------------

def _parse_enums(fm, proto):
    value = 0
    in_enum = False
    known = {}
    for idx, text in enumerate(fm.code):
        lineno = idx + 1
        if not in_enum:
            m = _ENUM_RE.search(text)
            if m and m.group(1) == "WireOp":
                in_enum = True
                value = 0
                proto.enum_relpath = fm.relpath
            continue
        if "}" in text:
            in_enum = False
            continue
        m = _ENUM_ENTRY_RE.match(text)
        if not m:
            continue
        name, expr = m.group(1), m.group(2)
        if expr is not None:
            expr = expr.strip()
            try:
                value = int(expr, 0)
            except ValueError:
                value = known.get(expr)
        proto.opcodes[name] = (value, fm.relpath, lineno)
        known[name] = value
        if value is not None:
            value += 1
    # Named integer constants for the spec's tag spaces.
    joined = "\n".join(fm.code)
    for m in _CONSTEXPR_INT_RE.finditer(joined):
        name, expr = m.group(1), m.group(2)
        try:
            v = int(expr, 0)
        except ValueError:
            v = known.get(expr)
            if v is None and name == "kOpMax" and expr in proto.opcodes:
                v = proto.opcodes[expr][0]
        if name == "kOpMax":
            proto.op_max = v
        elif name == "kDynamicRespTagBase":
            proto.dynamic_base = v
        known[name] = v


# ---------------------------------------------------------------------------
# Function-body helpers.
# ---------------------------------------------------------------------------

def loop_regions(fn):
    """Body-index ranges [(start, end)] covered by for/while loops."""
    regions = []
    n = len(fn.body)
    for i, (_, text) in enumerate(fn.body):
        if not _LOOP_RE.match(text):
            continue
        d = fn.depth[i]
        end = i
        for j in range(i + 1, n):
            if fn.depth[j] <= d and fn.body[j][1].strip():
                end = j - 1
                break
        else:
            end = n - 1
        regions.append((i, max(end, i)))
    return regions


def _in_regions(idx, regions):
    return any(a <= idx <= b for a, b in regions)


def _joined_body(fn, with_starts=False):
    """Body text joined on one line with a char-offset -> body-index map
    (and optionally a body-index -> char-offset map)."""
    parts = []
    index = []
    starts = []
    off = 0
    for i, (_, text) in enumerate(fn.body):
        starts.append(off)
        parts.append(text)
        index.extend([i] * (len(text) + 1))
        parts.append(" ")
        off += len(text) + 1
    joined = "".join(parts)
    if with_starts:
        return joined, index, starts
    return joined, index


def match_paren(text, open_idx, open_ch="(", close_ch=")"):
    """Index of the bracket closing the one at open_idx, or len(text)."""
    depth = 0
    for j in range(open_idx, len(text)):
        if text[j] == open_ch:
            depth += 1
        elif text[j] == close_ch:
            depth -= 1
            if depth == 0:
                return j
    return len(text)


def _balanced_args(text, open_idx):
    """Argument text of the call whose '(' is at open_idx."""
    depth = 0
    for j in range(open_idx, len(text)):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return text[open_idx + 1:j]
    return text[open_idx + 1:]


# ---------------------------------------------------------------------------
# Extraction passes.
# ---------------------------------------------------------------------------

def _channel_of(name, recv):
    recv = recv or ""
    if name in ("SendRequest", "RequestReply"):
        return "request"
    if name == "SendResponse":
        return "response"
    if name == "Send" and "comm" in recv.lower():
        if "req" in recv:
            return "request"
        if "resp" in recv:
            return "response"
        if "signal" in recv:
            return "signal"
        return "other"
    return None


def _assigned_ops(var, bodies):
    """kOp tokens assigned to `var` (`x.var = ...` too) in any of bodies."""
    ops = set()
    for body in bodies:
        for am in re.finditer(r"\b%s\s*=(?!=)([^;]*);" % var, body):
            ops.update(_OP_TOKEN_RE.findall(am.group(1)))
    return ops


def _scan_sends_recvs(proto, model):
    for fn in model.functions:
        if fn.relpath in COMM_MODULE_FILES:
            continue
        regions = loop_regions(fn)
        joined, index = _joined_body(fn)
        body_line = {i: ln for i, (ln, _) in enumerate(fn.body)}
        for m in re.finditer(
                r"(?:\b([\w]+)\s*(?:\(\s*\))?\s*(?:\.|->)\s*)?"
                r"\b(Send|SendRequest|SendResponse|RequestReply|Recv|"
                r"RecvInternal|RecvFor)\s*\(", joined):
            recv_name, call = m.group(1), m.group(2)
            open_idx = m.end() - 1
            bidx = index[min(m.start(2), len(index) - 1)]
            line = body_line.get(bidx, fn.start_line)
            args = _balanced_args(joined, open_idx)
            if call in ("Send", "SendRequest", "SendResponse",
                        "RequestReply"):
                channel = _channel_of(call, recv_name)
                if channel is None:
                    continue
                ops = set(_OP_TOKEN_RE.findall(args))
                parts = _split_args(args)
                if not ops and len(parts) > 1:
                    # An opcode variable (`f.op`): take the kOp tokens
                    # assigned to it anywhere in this function, else
                    # anywhere in this file (a frame encoded by one helper
                    # and sent by another).
                    var = re.split(r"\.|->", parts[1].strip())[-1]
                    if re.match(r"\w+$", var):
                        ops.update(_assigned_ops(var, [joined]))
                        if not ops:
                            ops.update(_assigned_ops(var, [
                                _joined_body(other)[0]
                                for other in model.functions
                                if other.relpath == fn.relpath]))
                ops = sorted(ops)
                proto.sends.append(SendSite(
                    fn, line, channel, ops, _in_regions(bidx, regions),
                    call))
                # RequestReply also waits for the reply (bounded).
                if call == "RequestReply":
                    proto.recvs.append(RecvSite(fn, line, call, recv_name,
                                                bounded=True))
            else:
                bounded = call == "RecvFor"
                proto.recvs.append(RecvSite(fn, line, call, recv_name,
                                            bounded))


def _scan_handler(proto, model):
    """Finds the dispatch switch: switch on a *.tag with >= 2 opcode arms."""
    for fn in model.functions:
        joined, index = _joined_body(fn)
        sw = _SWITCH_RE.search(joined)
        if not sw or not sw.group(1).endswith("tag"):
            continue
        # Case arms with opcode tokens, in order; the arm region runs to the
        # next case/default label.
        labels = []
        for m in _CASE_RE.finditer(joined):
            if m.group(1) in proto.opcodes:
                labels.append((m.start(), m.group(1)))
        if len(labels) < 2:
            continue
        default = joined.find("default")
        bounds = [p for p, _ in labels] + \
            [default if default >= 0 else len(joined)]
        body_line = {i: ln for i, (ln, _) in enumerate(fn.body)}
        for li, (pos, tok) in enumerate(labels):
            arm_text = joined[pos:bounds[li + 1]]
            callees = [c for c in re.findall(r"\b([A-Z]\w+)\s*\(", arm_text)
                       if c in model.by_name]
            decoders = set()
            for c in callees:
                for target in model.by_name[c]:
                    for _, t in target.body:
                        decoders.update(
                            re.findall(r"\bDecode(\w+)\s*\(", t))
            decoders.update(re.findall(r"\bDecode(\w+)\s*\(", arm_text))
            line = body_line.get(index[min(pos, len(index) - 1)],
                                 fn.start_line)
            proto.arms[tok] = HandlerArm(tok, line, callees,
                                         sorted(decoders))
        proto.handler = fn
        return


def _scan_encodes(proto, model):
    """Encode<Frame> calls for frames whose codec carries a resp_tag.

    The resp_tag-carrying frames are discovered from the Encode
    declarations/definitions themselves (a `resp_tag` parameter name)."""
    for fn in model.functions:
        m = re.match(r"Encode(\w+)$", fn.name)
        if m and "resp_tag" in fn.decl_text:
            proto.resp_tag_encoders.add(m.group(1))
    for fm in model.files.values():
        joined = "\n".join(fm.code)
        for m in re.finditer(
                r"\bEncode(\w+)\s*\(([^;{]*?resp_tag[^;{]*?)\)\s*;", joined):
            proto.resp_tag_encoders.add(m.group(1))

    for fn in model.functions:
        if fn.name.startswith(("Encode", "Decode")):
            continue
        joined, index = _joined_body(fn)
        body_line = {i: ln for i, (ln, _) in enumerate(fn.body)}
        # lvalues assigned from AllocRespTag() anywhere in this function —
        # normalized to their last path component (f.tag -> tag).
        dynamic = set()
        for am in _ALLOC_TAG_RE.finditer(joined):
            lhs = am.group(1)
            dynamic.add(re.split(r"\.|->", lhs)[-1])
        for m in re.finditer(r"\bEncode(\w+)\s*\(", joined):
            frame = m.group(1)
            if frame not in proto.resp_tag_encoders:
                continue
            args = _balanced_args(joined, m.end() - 1)
            # resp_tag is the 2nd parameter of every resp-tag codec.
            parts = _split_args(args)
            tag_text = parts[1].strip() if len(parts) > 1 else ""
            idents = re.findall(r"\w+", tag_text)
            source = ("dynamic" if "AllocRespTag" in tag_text or
                      any(i in dynamic for i in idents) else "unknown")
            bidx = index[min(m.start(), len(index) - 1)]
            proto.encode_calls.append(EncodeCall(
                fn, body_line.get(bidx, fn.start_line), frame, source,
                tag_text))


def _split_args(args):
    # `->` would unbalance the <> depth tracking (the `>` has no opener);
    # the arrow is just a member access here, so flatten it to `.`.
    args = args.replace("->", ".")
    out = []
    depth = 0
    cur = []
    for c in args:
        if c in "(<[":
            depth += 1
        elif c in ")>]":
            depth -= 1
        if c == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    out.append("".join(cur))
    return out


def _scan_collectives(proto, model):
    for fn in model.functions:
        if fn.relpath in COMM_MODULE_FILES:
            continue
        sites = []
        for lineno, name, kind, recv in fn.calls_ex():
            if name in COLLECTIVE_PLAIN_NAMES:
                sites.append((lineno, name))
            elif name in COLLECTIVE_COMM_NAMES and \
                    recv and "comm" in recv.lower():
                sites.append((lineno, name))
        if sites:
            proto.collectives[fn.qualname] = sites


_LAYOUT_LINE_RE = re.compile(r"^\s*\[")


def _scan_frame_layouts(proto, model):
    """Reads `// [trace hdr?][u32 dbid]...` comment blocks above Encode
    declarations in the enum-bearing header."""
    fm = model.files.get(proto.enum_relpath)
    if fm is None:
        return
    joined = "\n".join(fm.code)
    for m in re.finditer(r"\bEncode(\w+)\s*\(", joined):
        frame = m.group(1)
        if frame in proto.frame_layouts:
            continue
        decl_line = joined[:m.start()].count("\n") + 1
        # The layout comment sits above the declaration, possibly separated
        # from it by helper structs/constants (GetResp, GetMultiOp).  Search
        # upward for the nearest `[...]` line, bounded by the previous
        # Encode declaration.
        start = None
        for ln in range(decl_line - 1, max(0, decl_line - 30), -1):
            if re.search(r"\bEncode\w+\s*\(", fm.code[ln - 1]):
                break
            if _LAYOUT_LINE_RE.match(fm.comments.get(ln, "")):
                start = ln
                while (start > 1 and
                       _LAYOUT_LINE_RE.match(fm.comments.get(start - 1, ""))):
                    start -= 1
                break
        if start is None:
            continue
        layout = []
        for c in range(start, decl_line):
            text = fm.comments.get(c, "")
            if _LAYOUT_LINE_RE.match(text) or (layout and
                                               text.strip().startswith(
                                                   ("count", "["))):
                layout.append(" ".join(text.split()))
            elif layout:
                break
        if layout:
            proto.frame_layouts[frame] = " ".join(layout)


# ---------------------------------------------------------------------------
# Entry point + spec emission.
# ---------------------------------------------------------------------------

def build_protocol_model(model):
    proto = ProtocolModel()
    for fm in model.files.values():
        if "WireOp" in "\n".join(fm.code):
            _parse_enums(fm, proto)
    _scan_sends_recvs(proto, model)
    _scan_handler(proto, model)
    _scan_encodes(proto, model)
    _scan_collectives(proto, model)
    _scan_frame_layouts(proto, model)
    return proto


def build_spec(proto):
    """Flattens the model into the committed PROTOCOL.json structure.
    Line-number-free: sites are (file, function) so the spec drifts only
    when the message flow changes."""
    ops = {}
    for name, (value, relpath, _) in sorted(proto.opcodes.items()):
        arm = proto.arms.get(name)
        senders = sorted({
            "%s (%s)" % (s.fn.qualname, s.fn.relpath)
            for s in proto.sends
            if s.channel == "request" and name in s.op_tokens})
        ops[name] = {
            "value": value,
            "senders": senders,
            "handler": {
                "dispatch": proto.handler.qualname if proto.handler else None,
                "callees": sorted(set(arm.callees)) if arm else [],
                "decodes": arm.decoders if arm else [],
            } if arm else None,
        }
    frames = {f: proto.frame_layouts.get(f, "")
              for f in sorted(set(proto.frame_layouts)
                              | proto.resp_tag_encoders)}
    collectives = {qn: [name for _, name in sites]
                   for qn, sites in sorted(proto.collectives.items())}
    retry_fns = sorted({
        "%s (%s)" % (s.fn.qualname, s.fn.relpath)
        for s in proto.sends if s.in_retry and s.channel == "request"})
    return {
        "version": 1,
        "opcodes": ops,
        "op_max": proto.op_max,
        "dynamic_resp_tag_base": proto.dynamic_base,
        "frames": frames,
        "retry_paths": retry_fns,
        "collectives": collectives,
    }


def canonical_json(spec):
    return json.dumps(spec, sort_keys=True, indent=2) + "\n"


def render_markdown(spec):
    """docs/PROTOCOL.md — generated; regenerate with --write-spec."""
    out = []
    w = out.append
    w("# PapyrusKV wire protocol")
    w("")
    w("<!-- GENERATED FILE — do not edit by hand.")
    w("     Regenerate with: python3 tools/analyzer/papyrus_analyze.py "
      "--write-spec -->")
    w("")
    w("Requests travel on the request communicator with `tag = opcode`; "
      "responses on the response communicator with the tag the requester "
      "wrote into the request header (see `src/core/wire.h`).")
    w("")
    w("## Tag spaces")
    w("")
    w("| space | range |")
    w("|---|---|")
    w("| opcodes | 1 .. %s |" % spec["op_max"])
    w("| response tags | %s .. (AllocRespTag) |"
      % spec["dynamic_resp_tag_base"])
    w("")
    w("## Opcodes")
    w("")
    for name, info in sorted(spec["opcodes"].items(),
                             key=lambda kv: (kv[1]["value"] or 0, kv[0])):
        w("### `%s` = %s" % (name, info["value"]))
        w("")
        if info["senders"]:
            w("Senders:")
            w("")
            for s in info["senders"]:
                w("- `%s`" % s)
        else:
            w("Senders: none in-tree.")
        w("")
        h = info["handler"]
        if h:
            w("Dispatch: `%s` -> %s" % (
                h["dispatch"],
                ", ".join("`%s`" % c for c in h["callees"]) or "(inline)"))
            if h["decodes"]:
                w("")
                w("Decodes: %s" % ", ".join(
                    "`Decode%s`" % d for d in h["decodes"]))
        else:
            w("Dispatch: none (no handler arm).")
        w("")
    w("## Frame layouts")
    w("")
    for frame, layout in sorted(spec["frames"].items()):
        w("- `%s`: `%s`" % (frame, layout or "(opaque)"))
    w("")
    w("## Retry paths (request senders inside bounded retry loops)")
    w("")
    for fn in spec["retry_paths"]:
        w("- `%s`" % fn)
    w("")
    w("## Collective call sites (program order per function)")
    w("")
    for qn, names in sorted(spec["collectives"].items()):
        w("- `%s`: %s" % (qn, " -> ".join(names)))
    w("")
    w("## Flow")
    w("")
    w("```")
    w("app/dispatcher/pipeline          owner rank")
    w("        |  req_comm tag=kOp*        |")
    w("        |-------------------------->| HandlerLoop switch(tag)")
    w("        |                           |   -> Handle* -> Decode*")
    w("        |  resp_comm tag=resp_tag   |")
    w("        |<--------------------------| SendResponse(Encode*)")
    w("```")
    w("")
    return "\n".join(out)
