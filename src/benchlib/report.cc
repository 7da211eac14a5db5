#include "benchlib/report.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/coding.h"
#include "common/logging.h"
#include "core/runtime.h"
#include "obs/export.h"

namespace papyrus::bench {

RankStats GatherStats(const net::Communicator& comm, double mine) {
  uint64_t mine_bits;
  memcpy(&mine_bits, &mine, sizeof(mine_bits));
  char buf[8];
  EncodeFixed64(buf, mine_bits);
  std::vector<std::string> all;
  comm.Allgather(Slice(buf, 8), &all);
  RankStats out;
  out.min = 1e300;
  out.max = -1e300;
  double sum = 0;
  for (const auto& s : all) {
    const uint64_t bits = DecodeFixed64(s.data());
    double v;
    memcpy(&v, &bits, sizeof(v));
    sum += v;
    out.min = std::min(out.min, v);
    out.max = std::max(out.max, v);
  }
  out.avg = sum / static_cast<double>(all.size());
  return out;
}

void WriteBenchMetrics(const net::Communicator& comm,
                       const std::string& bench_name) {
  // Current() is the rank's registry while the runtime is up (the bench
  // calls this between the measured phase and papyruskv_finalize).
  const std::string mine =
      obs::SnapshotToJson(obs::Current().TakeSnapshot(), obs::StatsMeta());
  const std::string agg = core::RollUpStats(comm, mine);
  if (comm.rank() != 0) return;
  const std::string path = "BENCH_" + bench_name + ".json";
  Status s = obs::WriteTextFile(path, agg);
  if (s.ok()) {
    printf("[metrics] wrote %s\n", path.c_str());
  } else {
    PLOG_WARN << "bench metrics dump failed: " << s.ToString();
  }
}

std::string HumanSize(uint64_t bytes) {
  char buf[32];
  if (bytes >= (1u << 20) && bytes % (1u << 20) == 0) {
    snprintf(buf, sizeof(buf), "%" PRIu64 "MB", bytes >> 20);
  } else if (bytes >= (1u << 10) && bytes % (1u << 10) == 0) {
    snprintf(buf, sizeof(buf), "%" PRIu64 "KB", bytes >> 10);
  } else {
    snprintf(buf, sizeof(buf), "%" PRIu64 "B", bytes);
  }
  return buf;
}

Table::Table(std::string title, std::vector<std::string> headers)
    : title_(std::move(title)), headers_(std::move(headers)) {}

void Table::AddRow(const std::vector<std::string>& cells) {
  rows_.push_back(cells);
}

std::string Table::Num(double v, int precision) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void Table::Print() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  printf("\n== %s ==\n", title_.c_str());
  for (size_t c = 0; c < headers_.size(); ++c) {
    printf("%-*s  ", static_cast<int>(widths[c]), headers_[c].c_str());
  }
  printf("\n");
  for (size_t c = 0; c < headers_.size(); ++c) {
    printf("%s  ", std::string(widths[c], '-').c_str());
  }
  printf("\n");
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
    }
    printf("\n");
  }
  fflush(stdout);
}

}  // namespace papyrus::bench
