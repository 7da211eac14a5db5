// Error codes and the Status value type used across the PapyrusKV
// reproduction.
//
// The paper (Table 1, §2.2) specifies that every API function returns a
// 32-bit integer error code such as PAPYRUSKV_SUCCESS, PAPYRUSKV_INVALID_DB,
// PAPYRUSKV_NOT_FOUND.  The C API in core/papyruskv.h returns these raw
// integers; internal C++ code passes them around wrapped in Status so that
// call sites can attach context messages without allocating on the success
// path.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

// Raw error codes, exactly as the public C API exposes them.
enum : int32_t {
  PAPYRUSKV_SUCCESS = 0,
  PAPYRUSKV_ERR = -1,              // generic failure
  PAPYRUSKV_NOT_FOUND = -2,        // key absent or tombstoned
  PAPYRUSKV_INVALID_DB = -3,       // bad/closed database descriptor
  PAPYRUSKV_INVALID_ARG = -4,      // null/ill-formed argument
  PAPYRUSKV_OUT_OF_MEMORY = -5,    // allocation or pool exhaustion
  PAPYRUSKV_IO_ERROR = -6,         // POSIX-level storage failure
  PAPYRUSKV_NETWORK_ERROR = -7,    // transport failure between ranks
  PAPYRUSKV_PROTECTED = -8,        // op forbidden by protection attribute
  PAPYRUSKV_INVALID_EVENT = -9,    // unknown event handle in wait
  PAPYRUSKV_CORRUPTED = -10,       // checksum / format mismatch on NVM
  PAPYRUSKV_TIMEOUT = -11,         // reply/signal wait exceeded its deadline
  PAPYRUSKV_CLOSED = -12,          // runtime already finalized
};

// Spelling used by the fault/recovery docs and tests for the timeout code
// surfaced when a remote peer stops replying (DESIGN.md §8).
inline constexpr int32_t PAPYRUSKV_ERR_TIMEOUT = PAPYRUSKV_TIMEOUT;

namespace papyrus {

// Human-readable name for an error code ("PAPYRUSKV_NOT_FOUND", ...).
const char* ErrorName(int32_t code);

// A cheap value type carrying an error code plus an optional message.
// Success carries no message and never allocates.
//
// [[nodiscard]]: silently dropping a Status hides I/O and network failures
// (exactly the bug class the analyzer gate exists for).  The rare call site
// that genuinely cannot act on the error calls IgnoreError() to say so.
class [[nodiscard]] Status {
 public:
  Status() : code_(PAPYRUSKV_SUCCESS) {}
  explicit Status(int32_t code) : code_(code) {}
  Status(int32_t code, std::string_view msg) : code_(code), msg_(msg) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string_view m = {}) {
    return Status(PAPYRUSKV_NOT_FOUND, m);
  }
  static Status InvalidArg(std::string_view m = {}) {
    return Status(PAPYRUSKV_INVALID_ARG, m);
  }
  static Status IOError(std::string_view m = {}) {
    return Status(PAPYRUSKV_IO_ERROR, m);
  }
  static Status Corrupted(std::string_view m = {}) {
    return Status(PAPYRUSKV_CORRUPTED, m);
  }
  static Status Network(std::string_view m = {}) {
    return Status(PAPYRUSKV_NETWORK_ERROR, m);
  }
  static Status Protected(std::string_view m = {}) {
    return Status(PAPYRUSKV_PROTECTED, m);
  }
  static Status Timeout(std::string_view m = {}) {
    return Status(PAPYRUSKV_TIMEOUT, m);
  }

  bool ok() const { return code_ == PAPYRUSKV_SUCCESS; }
  bool IsNotFound() const { return code_ == PAPYRUSKV_NOT_FOUND; }
  bool IsTimeout() const { return code_ == PAPYRUSKV_TIMEOUT; }
  int32_t code() const { return code_; }
  const std::string& message() const { return msg_; }

  // Full rendering, e.g. "PAPYRUSKV_IO_ERROR: open failed".
  std::string ToString() const;

  // Explicit escape hatch for call sites that deliberately drop the
  // status (best-effort cleanup paths).  Grep-able, unlike a void cast.
  void IgnoreError() const {}

 private:
  int32_t code_;
  std::string msg_;
};

}  // namespace papyrus
