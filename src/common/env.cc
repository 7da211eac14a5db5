#include "common/env.h"

#include <cstdlib>

namespace papyrus {

std::optional<std::string> EnvString(const char* name) {
  const char* v = std::getenv(name);
  if (!v || !*v) return std::nullopt;
  return std::string(v);
}

std::optional<int64_t> EnvInt(const char* name) {
  auto s = EnvString(name);
  if (!s) return std::nullopt;
  char* end = nullptr;
  long long v = strtoll(s->c_str(), &end, 10);
  if (end == s->c_str() || *end != '\0') return std::nullopt;
  return static_cast<int64_t>(v);
}

std::optional<bool> EnvBool(const char* name) {
  auto v = EnvInt(name);
  if (!v) return std::nullopt;
  return *v != 0;
}

}  // namespace papyrus
