// hi-opt: canonical, versioned serialization for the durable store.
//
// Three layers live here:
//
//   bytes        ByteWriter / ByteReader — a little-endian binary codec.
//                Doubles travel as their IEEE-754 bit patterns, so every
//                value round-trips exactly: a result read back from disk
//                is bit-identical to the one the simulator produced,
//                which is what lets a store-warmed run reproduce a cold
//                run bit for bit (DESIGN.md §10).
//
//   fingerprints SHA-256 digests over the canonical byte form.
//                settings_fingerprint() covers everything an Evaluation
//                depends on besides the design point itself — Tsim, the
//                replication count, the experiment seed root, the
//                channel-realization root, CSMA timing, and a caller-
//                supplied channel tag naming the channel factory (a
//                std::function cannot be hashed) — so a stored result is
//                only ever served to an evaluator with identical
//                settings.  A 64-bit design_key() is never trusted
//                across processes: stored records carry the canonical
//                config and the store re-verifies equality on every hit.
//                scenario_fingerprint() identifies the design space a
//                campaign sweeps (component library, constraints,
//                application profile); cosmetic strings (chip name,
//                constraint reasons) are excluded so renaming a
//                constraint does not orphan a checkpoint.
//
//   scenario     scenario_to_json / scenario_from_json — a human-
//   JSON         readable interchange form for model::Scenario, so
//                campaign definitions can live next to the store.
//                Doubles are printed shortest-round-trip; parse →
//                serialize → parse is a fixed point and fingerprints
//                survive the trip (reason strings, which the fingerprint
//                ignores, are emitted for readability but parsed back as
//                empty — CoverageConstraint::reason is a non-owning
//                const char*).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "dse/evaluator.hpp"
#include "dse/explorer.hpp"
#include "model/design_space.hpp"

namespace hi::store {

/// Bump when any canonical byte layout below changes; the record log
/// embeds it in the file header, so an old store fails loudly instead of
/// being misparsed.
inline constexpr std::uint32_t kFormatVersion = 1;

/// A 256-bit content digest (SHA-256).
struct Digest {
  std::array<std::uint8_t, 32> bytes{};

  /// Lowercase hex rendering, e.g. for log lines and JSON.
  [[nodiscard]] std::string hex() const;

  friend bool operator==(const Digest&, const Digest&) = default;
  friend auto operator<=>(const Digest&, const Digest&) = default;
};

/// SHA-256 of `data` (FIPS 180-4; self-contained, no dependencies).
[[nodiscard]] Digest sha256(std::string_view data);

/// Little-endian binary writer; see the file comment.
class ByteWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i32(std::int32_t v) { put_u32(static_cast<std::uint32_t>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  /// IEEE-754 bit pattern — exact round-trip, including -0.0 and NaN.
  void put_f64(double v);
  /// u32 length + raw bytes.
  void put_string(std::string_view s);
  void put_digest(const Digest& d);

  [[nodiscard]] const std::string& bytes() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  template <typename T>
  void put_word(T v);

  std::string buf_;
};

/// Sticky-failure binary reader: any read past the end (or a malformed
/// length) sets ok() to false and returns zero values from then on, so
/// record decoders can run to completion and check ok() once — a corrupt
/// payload is reported, never a crash.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint16_t get_u16();
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] std::int32_t get_i32() {
    return static_cast<std::int32_t>(get_u32());
  }
  [[nodiscard]] bool get_bool() { return get_u8() != 0; }
  [[nodiscard]] double get_f64();
  [[nodiscard]] std::string get_string();
  [[nodiscard]] Digest get_digest();

  /// True while every read so far stayed in bounds.
  [[nodiscard]] bool ok() const { return ok_; }
  /// True when the whole payload was consumed (trailing garbage is a
  /// version-mismatch symptom record decoders treat as corruption).
  [[nodiscard]] bool at_end() const { return ok_ && pos_ == data_.size(); }

 private:
  [[nodiscard]] bool take(std::size_t n);
  template <typename T>
  [[nodiscard]] T get_word();

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- canonical binary codecs -------------------------------------------

/// Full design point (ν, χ): every field of model::NetworkConfig.
void write_config(ByteWriter& w, const model::NetworkConfig& cfg);
[[nodiscard]] bool read_config(ByteReader& r, model::NetworkConfig& cfg);

/// Full dse::Evaluation including the averaged SimResult detail
/// (per-node stats, medium stats, kernel event count), so a preloaded
/// result is indistinguishable from a freshly simulated one.
void write_evaluation(ByteWriter& w, const dse::Evaluation& ev);
[[nodiscard]] bool read_evaluation(ByteReader& r, dse::Evaluation& ev);

// --- fingerprints -------------------------------------------------------

/// Identity of an evaluation context; see the file comment.  Two
/// evaluators with equal fingerprints produce bit-identical Evaluations
/// for the same design point (common random numbers included), provided
/// `channel_tag` truthfully names the channel factory.
[[nodiscard]] Digest settings_fingerprint(const dse::EvaluatorSettings& s,
                                          std::string_view channel_tag);

/// Identity of the design space a campaign sweeps; see the file comment.
[[nodiscard]] Digest scenario_fingerprint(const model::Scenario& sc);

/// Identity of the explorer knobs that can change a cell's outcome:
/// the strategy itself, the budget, and the strategy's own parameters
/// (Algorithm 1: termination bound + kappa; annealing: seed, schedule,
/// penalty).  Threads, metrics, progress hooks, and MILP solver tuning
/// are excluded — results are bit-identical across those by contract.
[[nodiscard]] Digest options_fingerprint(const dse::ExplorationOptions& opt,
                                         dse::ExplorerKind kind);

// --- scenario JSON ------------------------------------------------------

/// Pretty-printed JSON form of a scenario; see the file comment.
[[nodiscard]] std::string scenario_to_json(const model::Scenario& sc);

/// Parses scenario_to_json output (field order free; unknown keys
/// rejected so typos fail loudly).  On failure returns nullopt and, when
/// `error` is non-null, a one-line description.
[[nodiscard]] std::optional<model::Scenario> scenario_from_json(
    std::string_view json, std::string* error = nullptr);

}  // namespace hi::store
