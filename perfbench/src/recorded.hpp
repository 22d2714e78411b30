// Digests recorded for the default seed and the held-out seed.  A run on
// one of these seeds must reproduce its digest exactly; other seeds are
// checked for determinism within the run instead.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

inline constexpr std::uint64_t kDefaultSeed = 7;
inline constexpr std::uint64_t kHeldOutSeed = 1993;

/// The recorded digest for (workload, seed), or "" when none is recorded.
///   trace_stream:  verdict-stream digest of the 1M-op trace (seed 7 is
///                  the digest ROADMAP pins for `ssm trace check`; an
///                  all-OK stream's digest depends only on its length, so
///                  both seeds share it);
///   fuzz_campaign: FNV-1a of fuzz::run_fuzz's report JSON for the first
///                  kReportCases cases.
inline std::string recorded_digest(std::string_view workload,
                                   std::uint64_t seed) {
  struct Entry {
    std::string_view workload;
    std::uint64_t seed;
    std::string_view digest;
  };
  static constexpr Entry kTable[] = {
      {"trace_stream", kDefaultSeed, "a5d419075367677d"},
      {"trace_stream", kHeldOutSeed, "a5d419075367677d"},
      {"fuzz_campaign", kDefaultSeed, "cbd069d5900ed01a"},
      {"fuzz_campaign", kHeldOutSeed, "7ab68fe7c63679c3"},
  };
  for (const Entry& e : kTable) {
    if (e.workload == workload && e.seed == seed) return std::string(e.digest);
  }
  return "";
}

}  // namespace perfbench
