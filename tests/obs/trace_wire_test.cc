// The trace context in the frame header (core/wire.h): a sampled context
// must round-trip through every frame kind, an absent or unsampled one must
// encode as the bare two-byte header, and a truncated header must be
// rejected rather than misparsed as a body.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/wire.h"

namespace papyrus::core {
namespace {

obs::TraceContext MakeCtx() {
  obs::TraceContext ctx;
  ctx.trace_id = 0x0002000000000007ull;  // rank-1-salted ids
  ctx.span_id = 0x0002000000000009ull;
  ctx.sampled = true;
  return ctx;
}

std::vector<KvRecord> SampleRecords() {
  std::vector<KvRecord> records(2);
  records[0].key = "alpha";
  records[0].value = "value-a";
  records[1].key = "beta";
  records[1].tombstone = true;
  return records;
}

void ExpectCtx(const obs::TraceContext& got) {
  EXPECT_TRUE(got.valid());
  EXPECT_EQ(got.trace_id, MakeCtx().trace_id);
  EXPECT_EQ(got.span_id, MakeCtx().span_id);
}

TEST(TraceWireTest, ContextRoundTripsThroughEveryMessageKind) {
  const obs::TraceContext ctx = MakeCtx();
  uint32_t dbid = 0, resp_tag = 0, u32 = 0;
  uint64_t epoch = 0, seq = 0;
  bool b1 = false, b2 = false, b3 = false;
  std::string str;
  obs::TraceContext got;
  {
    std::vector<KvRecord> out;
    ASSERT_TRUE(DecodePutBatch(EncodePutBatch(4, 120, SampleRecords(), ctx),
                               &dbid, &resp_tag, &out, &got));
    EXPECT_EQ(dbid, 4u);
    EXPECT_EQ(resp_tag, 120u);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].value, "value-a");
    EXPECT_TRUE(out[1].tombstone);
    ExpectCtx(got);
  }
  {
    std::vector<int32_t> statuses;
    ASSERT_TRUE(DecodePutBatchAck(EncodePutBatchAck({PAPYRUSKV_ERR}, ctx),
                                  &statuses, &got));
    EXPECT_EQ(statuses, (std::vector<int32_t>{PAPYRUSKV_ERR}));
    ExpectCtx(got);
  }
  {
    std::vector<GetMultiOp> ops;
    ASSERT_TRUE(DecodeGetMulti(EncodeGetMulti(9, 130, 1, {{"key", true}}, ctx),
                               &dbid, &resp_tag, &u32, &ops, &got));
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].key, "key");
    ExpectCtx(got);
  }
  {
    GetMultiResult r;
    r.resp.found = true;
    r.resp.same_group = true;
    r.resp.latest_ssid = 42;
    r.resp.ssids = {42, 41};
    r.resp.value = "payload";
    std::vector<GetMultiResult> out;
    ASSERT_TRUE(DecodeGetMultiResp(EncodeGetMultiResp({r}, ctx), &out, &got));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].resp.found);
    EXPECT_EQ(out[0].resp.ssids, r.resp.ssids);
    EXPECT_EQ(out[0].resp.value, "payload");
    ExpectCtx(got);
  }
  {
    ReplAppendMeta meta;
    meta.primary = 2;
    meta.epoch = 3;
    meta.first_seq = 10;
    meta.reset = true;
    ReplAppendMeta out_meta;
    std::vector<KvRecord> out;
    ASSERT_TRUE(DecodeReplAppend(
        EncodeReplAppend(5, 140, meta, SampleRecords(), ctx), &dbid,
        &resp_tag, &out_meta, &out, &got));
    EXPECT_EQ(out_meta.first_seq, 10u);
    EXPECT_TRUE(out_meta.reset);
    EXPECT_EQ(out.size(), 2u);
    ExpectCtx(got);
  }
  ASSERT_TRUE(DecodeReplAppendAck(EncodeReplAppendAck(3, 11, true, ctx),
                                  &epoch, &seq, &b1, &got));
  EXPECT_EQ(seq, 11u);
  ExpectCtx(got);
  ASSERT_TRUE(DecodeReplQuery(EncodeReplQuery(5, 150, 2, true, ctx), &dbid,
                              &resp_tag, &u32, &b1, &got));
  EXPECT_TRUE(b1);
  ExpectCtx(got);
  ASSERT_TRUE(DecodeReplQueryResp(EncodeReplQueryResp(3, 12, true, ctx),
                                  &epoch, &seq, &b1, &got));
  EXPECT_EQ(seq, 12u);
  ExpectCtx(got);
  ASSERT_TRUE(DecodeReplRead(EncodeReplRead(5, 160, 2, "rk", ctx), &dbid,
                             &resp_tag, &u32, &str, &got));
  EXPECT_EQ(str, "rk");
  ExpectCtx(got);
  ASSERT_TRUE(DecodeReplReadResp(EncodeReplReadResp(true, true, false, "rv",
                                                    ctx),
                                 &b1, &b2, &b3, &str, &got));
  EXPECT_EQ(str, "rv");
  ExpectCtx(got);
}

TEST(TraceWireTest, DecodersAcceptNullContextOut) {
  // Context-oblivious caller: the header's ids are consumed and the body
  // still decodes.
  const std::string wire = EncodeGetMulti(5, 140, 0, {{"k", false}}, MakeCtx());
  uint32_t dbid = 0, resp_tag = 0, caller_group = 0;
  std::vector<GetMultiOp> ops;
  ASSERT_TRUE(DecodeGetMulti(wire, &dbid, &resp_tag, &caller_group, &ops));
  EXPECT_EQ(dbid, 5u);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].key, "k");
}

TEST(TraceWireTest, TruncatedTraceHeaderIsRejected) {
  // [ver][flags=1][u64 trace][u64 span]: any cut inside the ids must fail
  // loudly instead of sliding the cursor into the body.
  const std::string wire =
      EncodeGetMulti(5, 150, 0, {{"key", false}}, MakeCtx());
  for (size_t len = 0; len < 18; ++len) {
    uint32_t dbid = 0, resp_tag = 0, caller_group = 0;
    std::vector<GetMultiOp> ops;
    EXPECT_FALSE(DecodeGetMulti(std::string(wire, 0, len), &dbid, &resp_tag,
                                &caller_group, &ops))
        << "prefix length " << len;
  }
}

TEST(TraceWireTest, UnsampledContextEncodesNothing) {
  obs::TraceContext ctx = MakeCtx();
  ctx.sampled = false;
  const std::string wire = EncodeGetMulti(2, 160, 0, {{"k", false}}, ctx);
  EXPECT_EQ(wire, EncodeGetMulti(2, 160, 0, {{"k", false}}));
  // The bare header: version, then flags with the context bit clear.
  EXPECT_EQ(static_cast<uint8_t>(wire[0]), kBatchVersion);
  EXPECT_EQ(wire[1], 0);
  obs::TraceContext got = MakeCtx();  // must be reset by the decoder
  uint32_t dbid = 0, resp_tag = 0, caller_group = 0;
  std::vector<GetMultiOp> ops;
  ASSERT_TRUE(
      DecodeGetMulti(wire, &dbid, &resp_tag, &caller_group, &ops, &got));
  EXPECT_FALSE(got.valid());
}

}  // namespace
}  // namespace papyrus::core
