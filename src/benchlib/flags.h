// Tiny command-line flag parsing for the bench binaries.
//
// Every figure bench accepts the same core knobs so sweeps can be resized
// to the host machine:
//   --ranks=N        max emulated ranks (default 8, or the bench's own)
//   --iters=N        operations per rank per phase (default: per bench)
//   --keylen=N       key size in bytes (default 16, the paper's)
//   --vallen=N       value size in bytes (where the bench doesn't sweep it)
//   --scale=F        device/interconnect time scale (default: per bench)
//   --repo=PATH      scratch directory (default /tmp/papyrus_bench)
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace papyrus::bench {

struct Flags {
  int ranks = 8;
  int iters = 0;  // 0 = bench default
  size_t keylen = 16;
  size_t vallen = 0;  // 0 = bench default
  double scale = -1;  // <0 = bench default
  std::string repo = "/tmp/papyrus_bench";

  static Flags Parse(int argc, char** argv) {
    return Parse(argc, argv, Flags());
  }
  // `f` carries the bench's own defaults; the command line overrides them.
  static Flags Parse(int argc, char** argv, Flags f) {
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      auto val = [&](const char* prefix) -> const char* {
        const size_t n = strlen(prefix);
        return strncmp(a, prefix, n) == 0 ? a + n : nullptr;
      };
      if (const char* v = val("--ranks=")) {
        f.ranks = atoi(v);
      } else if (const char* v = val("--iters=")) {
        f.iters = atoi(v);
      } else if (const char* v = val("--keylen=")) {
        f.keylen = static_cast<size_t>(atoll(v));
      } else if (const char* v = val("--vallen=")) {
        f.vallen = static_cast<size_t>(atoll(v));
      } else if (const char* v = val("--scale=")) {
        f.scale = atof(v);
      } else if (const char* v = val("--repo=")) {
        f.repo = v;
      } else if (strcmp(a, "--help") == 0) {
        fprintf(stderr,
                "flags: --ranks=N --iters=N --keylen=N --vallen=N "
                "--scale=F --repo=PATH\n");
        exit(0);
      } else {
        fprintf(stderr, "unknown flag: %s\n", a);
        exit(2);
      }
    }
    return f;
  }
};

}  // namespace papyrus::bench
