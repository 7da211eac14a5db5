// Environment-variable getters.
//
// The paper's artifact appendix drives experiments through PAPYRUSKV_*
// environment variables (PAPYRUSKV_REPOSITORY, PAPYRUSKV_GROUP_SIZE,
// PAPYRUSKV_CONSISTENCY, PAPYRUSKV_BIN_SEARCH, PAPYRUSKV_CACHE_REMOTE,
// PAPYRUSKV_FORCE_REDISTRIBUTE, ...).  Each layer reads the variables it
// owns through these getters and layers them under programmatic options,
// so the bench scripts in bench/ can be written in the artifact's style.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace papyrus {

// Typed getters; nullopt when the variable is unset or unparsable.
std::optional<std::string> EnvString(const char* name);
std::optional<int64_t> EnvInt(const char* name);
std::optional<bool> EnvBool(const char* name);

}  // namespace papyrus
