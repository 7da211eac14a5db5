// Versioned frame codec (core/wire.h, DESIGN.md §9): byte-for-byte pins of
// the v2 frame layouts (the shared header, the shared record list, the
// per-key GetResp body), round trips with and without a trace context, and
// negative decodes — truncation at every prefix length, an unknown version
// byte, trailing garbage, and a deterministic random-bytes fuzz that must
// reject (or cleanly accept) without crashing.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/coding.h"
#include "core/wire.h"

namespace papyrus::core {
namespace {

obs::TraceContext MakeCtx() {
  obs::TraceContext ctx;
  ctx.trace_id = 0x0001000000000011ull;
  ctx.span_id = 0x0001000000000013ull;
  ctx.sampled = true;
  return ctx;
}

std::vector<KvRecord> SampleRecords() {
  std::vector<KvRecord> records(3);
  records[0].key = "alpha";
  records[0].value = "value-a";
  records[1].key = "beta";
  records[1].value = "value-b";
  records[2].key = "gone";
  records[2].tombstone = true;
  return records;
}

// ---- Byte-for-byte pins ----------------------------------------------------
// Hand-built v2 frames, exactly what the encoders must write.  If any of
// these pins break, the wire format changed: bump kBatchVersion instead.

// [u8 ver=2][u8 flags=0]: the header of a frame without a trace context.
std::string PinnedHeader() { return std::string("\x02\x00", 2); }

void PinRecords(std::string* out, const std::vector<KvRecord>& records) {
  PutFixed32(out, static_cast<uint32_t>(records.size()));
  for (const KvRecord& r : records) {
    PutLengthPrefixed(out, r.key);
    PutLengthPrefixed(out, r.value);
    out->push_back(r.tombstone ? 1 : 0);
  }
}

TEST(BatchWireTest, PutBatchPinnedBytes) {
  const auto records = SampleRecords();
  std::string pinned = PinnedHeader();
  PutFixed32(&pinned, 7);    // dbid
  PutFixed32(&pinned, 120);  // resp_tag
  PinRecords(&pinned, records);
  EXPECT_EQ(EncodePutBatch(7, 120, records), pinned);
}

TEST(BatchWireTest, TracedHeaderPinnedBytes) {
  // flags bit 0 set, then the trace and span ids, then the body.
  std::string pinned("\x02\x01", 2);
  PutFixed64(&pinned, MakeCtx().trace_id);
  PutFixed64(&pinned, MakeCtx().span_id);
  PutFixed32(&pinned, 1);  // count
  PutFixed32(&pinned, static_cast<uint32_t>(PAPYRUSKV_SUCCESS));
  EXPECT_EQ(EncodePutBatchAck({PAPYRUSKV_SUCCESS}, MakeCtx()), pinned);
}

TEST(BatchWireTest, ReplAppendSharesTheRecordList) {
  ReplAppendMeta meta;
  meta.primary = 1;
  meta.epoch = 4;
  meta.first_seq = 17;
  meta.flushed_through = 9;
  meta.reset = true;
  const auto records = SampleRecords();
  std::string pinned = PinnedHeader();
  PutFixed32(&pinned, 7);    // dbid
  PutFixed32(&pinned, 120);  // resp_tag
  PutFixed32(&pinned, 1);    // primary
  PutFixed64(&pinned, 4);    // epoch
  PutFixed64(&pinned, 17);   // first_seq
  PutFixed64(&pinned, 9);    // flushed_through
  pinned.push_back(1);       // reset
  PinRecords(&pinned, records);
  EXPECT_EQ(EncodeReplAppend(7, 120, meta, records), pinned);
}

TEST(BatchWireTest, PutBatchAckPinnedBytes) {
  const std::vector<int32_t> statuses = {PAPYRUSKV_SUCCESS, PAPYRUSKV_ERR,
                                         PAPYRUSKV_SUCCESS};
  std::string pinned = PinnedHeader();
  PutFixed32(&pinned, 3);
  for (int32_t s : statuses) PutFixed32(&pinned, static_cast<uint32_t>(s));
  EXPECT_EQ(EncodePutBatchAck(statuses), pinned);
}

TEST(BatchWireTest, GetMultiPinnedBytes) {
  std::vector<GetMultiOp> ops(2);
  ops[0].key = "k0";
  ops[1].key = "k1";
  ops[1].full_search = true;
  std::string pinned = PinnedHeader();
  PutFixed32(&pinned, 9);    // dbid
  PutFixed32(&pinned, 130);  // resp_tag
  PutFixed32(&pinned, 2);    // caller_group
  PutFixed32(&pinned, 2);    // count
  PutLengthPrefixed(&pinned, "k0");
  pinned.push_back(0);
  PutLengthPrefixed(&pinned, "k1");
  pinned.push_back(static_cast<char>(kGetFullSearch));
  EXPECT_EQ(EncodeGetMulti(9, 130, 2, ops), pinned);
}

TEST(BatchWireTest, GetMultiRespEmbedsLegacyGetRespBodies) {
  GetMultiResult hit;
  hit.resp.found = true;
  hit.resp.value = "payload";
  GetMultiResult miss;
  miss.status = PAPYRUSKV_NOT_FOUND;
  miss.resp.same_group = true;
  miss.resp.latest_ssid = 42;
  miss.resp.ssids = {42, 41};

  // Per-key body: found, tombstone, same_group, latest_ssid, ssid list,
  // value.
  auto body = [](const GetResp& r) {
    std::string out;
    out.push_back(r.found ? 1 : 0);
    out.push_back(r.tombstone ? 1 : 0);
    out.push_back(r.same_group ? 1 : 0);
    PutFixed64(&out, r.latest_ssid);
    PutFixed32(&out, static_cast<uint32_t>(r.ssids.size()));
    for (uint64_t ssid : r.ssids) PutFixed64(&out, ssid);
    PutLengthPrefixed(&out, r.value);
    return out;
  };
  std::string pinned = PinnedHeader();
  PutFixed32(&pinned, 2);
  PutFixed32(&pinned, static_cast<uint32_t>(PAPYRUSKV_SUCCESS));
  PutLengthPrefixed(&pinned, body(hit.resp));
  PutFixed32(&pinned, static_cast<uint32_t>(PAPYRUSKV_NOT_FOUND));
  PutLengthPrefixed(&pinned, body(miss.resp));
  EXPECT_EQ(EncodeGetMultiResp({hit, miss}), pinned);
}

// ---- Round trips -----------------------------------------------------------

TEST(BatchWireTest, PutBatchRoundTripsWithAndWithoutContext) {
  const auto records = SampleRecords();
  for (const bool with_ctx : {false, true}) {
    const std::string wire =
        with_ctx ? EncodePutBatch(7, 120, records, MakeCtx())
                 : EncodePutBatch(7, 120, records);
    uint32_t dbid = 0, resp_tag = 0;
    std::vector<KvRecord> out;
    obs::TraceContext got = MakeCtx();  // must be reset on the no-ctx path
    ASSERT_TRUE(DecodePutBatch(wire, &dbid, &resp_tag, &out, &got));
    EXPECT_EQ(dbid, 7u);
    EXPECT_EQ(resp_tag, 120u);
    ASSERT_EQ(out.size(), records.size());
    EXPECT_EQ(out[0].key, "alpha");
    EXPECT_EQ(out[0].value, "value-a");
    EXPECT_FALSE(out[0].tombstone);
    EXPECT_EQ(out[2].key, "gone");
    EXPECT_TRUE(out[2].tombstone);
    EXPECT_EQ(got.valid(), with_ctx);
  }
}

TEST(BatchWireTest, AckAndGetMultiRoundTrip) {
  const std::vector<int32_t> statuses = {PAPYRUSKV_SUCCESS, PAPYRUSKV_ERR,
                                         PAPYRUSKV_NOT_FOUND};
  std::vector<int32_t> got_statuses;
  ASSERT_TRUE(
      DecodePutBatchAck(EncodePutBatchAck(statuses, MakeCtx()),
                        &got_statuses));
  EXPECT_EQ(got_statuses, statuses);

  std::vector<GetMultiOp> ops(2);
  ops[0].key = "k0";
  ops[1].key = "k1";
  ops[1].full_search = true;
  uint32_t dbid = 0, resp_tag = 0, group = 0;
  std::vector<GetMultiOp> got_ops;
  ASSERT_TRUE(DecodeGetMulti(EncodeGetMulti(9, 130, 2, ops, MakeCtx()),
                             &dbid, &resp_tag, &group, &got_ops));
  EXPECT_EQ(dbid, 9u);
  EXPECT_EQ(group, 2u);
  ASSERT_EQ(got_ops.size(), 2u);
  EXPECT_FALSE(got_ops[0].full_search);
  EXPECT_TRUE(got_ops[1].full_search);

  GetMultiResult hit;
  hit.resp.found = true;
  hit.resp.value = "payload";
  GetMultiResult miss;
  miss.status = PAPYRUSKV_NOT_FOUND;
  miss.resp.same_group = true;
  miss.resp.ssids = {42, 41};
  std::vector<GetMultiResult> got_results;
  ASSERT_TRUE(DecodeGetMultiResp(EncodeGetMultiResp({hit, miss}, MakeCtx()),
                                 &got_results));
  ASSERT_EQ(got_results.size(), 2u);
  EXPECT_EQ(got_results[0].status, PAPYRUSKV_SUCCESS);
  EXPECT_EQ(got_results[0].resp.value, "payload");
  EXPECT_EQ(got_results[1].status, PAPYRUSKV_NOT_FOUND);
  EXPECT_TRUE(got_results[1].resp.same_group);
  EXPECT_EQ(got_results[1].resp.ssids, (std::vector<uint64_t>{42, 41}));
}

TEST(BatchWireTest, EmptyBatchesRoundTrip) {
  uint32_t dbid = 0, resp_tag = 0;
  std::vector<KvRecord> records;
  ASSERT_TRUE(
      DecodePutBatch(EncodePutBatch(1, 100, {}), &dbid, &resp_tag, &records));
  EXPECT_TRUE(records.empty());
  std::vector<int32_t> statuses;
  ASSERT_TRUE(DecodePutBatchAck(EncodePutBatchAck({}), &statuses));
  EXPECT_TRUE(statuses.empty());
}

// ---- Negative decodes ------------------------------------------------------

TEST(BatchWireTest, TruncationAtEveryLengthIsRejected) {
  // Every proper prefix of a valid frame must fail to decode — no prefix
  // may parse as a shorter valid frame (count precedes the records, so a
  // cut body can never masquerade as a complete smaller batch).
  const std::string wire = EncodePutBatch(7, 120, SampleRecords(), MakeCtx());
  for (size_t len = 0; len < wire.size(); ++len) {
    uint32_t dbid = 0, resp_tag = 0;
    std::vector<KvRecord> records;
    EXPECT_FALSE(DecodePutBatch(Slice(wire.data(), len), &dbid, &resp_tag,
                                &records))
        << "prefix length " << len;
  }
  const std::string resp = EncodeGetMultiResp(
      {GetMultiResult{}, GetMultiResult{}}, MakeCtx());
  for (size_t len = 0; len < resp.size(); ++len) {
    std::vector<GetMultiResult> results;
    EXPECT_FALSE(DecodeGetMultiResp(Slice(resp.data(), len), &results))
        << "prefix length " << len;
  }
}

TEST(BatchWireTest, UnknownVersionIsRejected) {
  std::string wire = EncodePutBatch(7, 120, SampleRecords());
  wire[0] = 1;  // the retired v1 layout
  uint32_t dbid = 0, resp_tag = 0;
  std::vector<KvRecord> records;
  EXPECT_FALSE(DecodePutBatch(wire, &dbid, &resp_tag, &records));
  std::string ack = EncodePutBatchAck({PAPYRUSKV_SUCCESS});
  ack[0] = 0;
  std::vector<int32_t> statuses;
  EXPECT_FALSE(DecodePutBatchAck(ack, &statuses));
}

TEST(BatchWireTest, TrailingGarbageIsRejected) {
  std::string wire = EncodePutBatch(7, 120, SampleRecords());
  wire += "x";
  uint32_t dbid = 0, resp_tag = 0;
  std::vector<KvRecord> records;
  EXPECT_FALSE(DecodePutBatch(wire, &dbid, &resp_tag, &records));
}

TEST(BatchWireTest, RandomBytesNeverCrashTheDecoders) {
  // Deterministic xorshift fuzz: decoders must reject (or, vanishingly
  // rarely, accept) arbitrary payloads without crashing or overreading.
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 2000; ++round) {
    std::string noise;
    const size_t len = next() % 64;
    noise.reserve(len + 1);
    for (size_t i = 0; i < len; ++i) {
      noise.push_back(static_cast<char>(next() & 0xff));
    }
    // Half the rounds lead with a valid version byte so the field parsers
    // after the version check also see fuzzed input.
    if (round % 2 == 0) {
      noise.insert(noise.begin(), static_cast<char>(kBatchVersion));
    }
    uint32_t a = 0, b = 0, c = 0;
    std::vector<KvRecord> records;
    std::vector<int32_t> statuses;
    std::vector<GetMultiOp> ops;
    std::vector<GetMultiResult> results;
    (void)DecodePutBatch(noise, &a, &b, &records);
    (void)DecodePutBatchAck(noise, &statuses);
    (void)DecodeGetMulti(noise, &a, &b, &c, &ops);
    (void)DecodeGetMultiResp(noise, &results);
  }
}

}  // namespace
}  // namespace papyrus::core
