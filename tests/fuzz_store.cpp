// fuzz_store — seeded random corruption of hi::store logs (plus the
// scenario JSON round-trip and CRC-32 oracle properties) as a
// standalone binary.  Each seed
// fabricates a store from a generated scenario, then mutilates copies of
// it (truncations, bit flips, garbage tails) and asserts the recovery
// contract: never crash, never serve altered data, always compact back
// to a byte-clean file.  Exits nonzero on any violation, so ctest can
// gate on it (smoke run under tier1, long sweep under `extended`).
//
//   fuzz_store [--seed S] [--scenarios N] [--trials T] [--dir D]
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "check/scenario_gen.hpp"
#include "check/store_props.hpp"

namespace {

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  out = v;
  return true;
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--seed S] [--scenarios N] [--trials T] [--dir D]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  int scenarios = 10;
  int trials = 8;
  std::string dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::uint64_t value = 0;
    if (arg == "--seed" && i + 1 < argc && parse_u64(argv[++i], value)) {
      seed = value;
    } else if (arg == "--scenarios" && i + 1 < argc &&
               parse_u64(argv[++i], value)) {
      scenarios = static_cast<int>(value);
    } else if (arg == "--trials" && i + 1 < argc &&
               parse_u64(argv[++i], value)) {
      trials = static_cast<int>(value);
    } else if (arg == "--dir" && i + 1 < argc) {
      dir = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }

  int failures = 0;
  for (int i = 0; i < scenarios; ++i) {
    const std::uint64_t s = seed + static_cast<std::uint64_t>(i);
    std::vector<std::string> violations =
        hi::check::check_store_recovery(s, dir, trials);
    const std::vector<std::string> roundtrip =
        hi::check::check_scenario_roundtrip(
            hi::check::make_scenario(s).scenario);
    violations.insert(violations.end(), roundtrip.begin(), roundtrip.end());
    const std::vector<std::string> crc = hi::check::check_crc32(s);
    violations.insert(violations.end(), crc.begin(), crc.end());
    if (!violations.empty()) {
      ++failures;
      std::cout << "seed " << s << ": " << violations.size()
                << " violation(s)\n";
      for (const std::string& v : violations) {
        std::cout << "  " << v << "\n";
      }
      std::cout << "  replay: fuzz_store --seed " << s << " --scenarios 1\n";
    }
  }
  std::cout << "fuzz_store: " << scenarios << " scenario(s), " << failures
            << " failing\n";
  return failures == 0 ? 0 : 1;
}
