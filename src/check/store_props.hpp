// hi-opt: durability properties for hi::store (DESIGN.md §10).
//
// Four checks, same contract as properties.hpp (a list of violations;
// empty = the property held):
//
//   round-trip     scenario → JSON → scenario is a fingerprint-preserving
//                  fixed point, so a campaign definition on disk denotes
//                  the same design space forever.
//   warm start     a store-warmed Algorithm 1 run is bit-identical to the
//                  cold run that populated the store — optima, history,
//                  milp.* counters — except for the documented accounting
//                  shift: dse.simulations(warm) + dse.store_hits(warm)
//                  == dse.simulations(cold).  Checked at a caller-chosen
//                  thread count, because the store layering must not
//                  disturb the thread-determinism guarantee either.
//   recovery       random corruption (truncation, bit flips, garbage
//                  tails) of a populated store file must never crash the
//                  reader, never surface an evaluation that differs from
//                  what was stored, and always leave a compactable file
//                  that audits clean afterwards.
//   CRC-32         store::crc32, the checksum every frame carries,
//                  equals a plain bit-at-a-time CRC-32 (no table) at
//                  every length and start alignment its word-wide
//                  fast path can meet, and the published check values.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/scenario_gen.hpp"
#include "model/design_space.hpp"

namespace hi::check {

/// scenario_to_json / scenario_from_json round-trip: parse succeeds, the
/// scenario fingerprint survives, and serialize-of-parse is a fixed
/// point (reason strings are cosmetic and excluded by contract).
[[nodiscard]] std::vector<std::string> check_scenario_roundtrip(
    const model::Scenario& sc);

/// Cold vs store-warmed Algorithm 1 on `spec` at `threads` workers; see
/// the file comment.  Creates (and overwrites) the store at
/// `store_path`; the caller owns cleanup.
[[nodiscard]] std::vector<std::string> check_warm_start_determinism(
    const ScenarioSpec& spec, const std::string& store_path, int threads);

/// Builds a store of fabricated evaluations for the generator scenario
/// of `seed`, then runs `trials` random corruption rounds against copies
/// under `scratch_dir` (created files are removed on success); see the
/// file comment for the properties enforced.
[[nodiscard]] std::vector<std::string> check_store_recovery(
    std::uint64_t seed, const std::string& scratch_dir, int trials = 8);

/// store::crc32 against the bit-at-a-time oracle on a random buffer
/// drawn from `seed`: every length 0-1,100 at every start offset 0-15,
/// plus the IEEE 802.3 check values; see the file comment.
[[nodiscard]] std::vector<std::string> check_crc32(std::uint64_t seed);

}  // namespace hi::check
