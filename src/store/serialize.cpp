#include "store/serialize.hpp"

#include <algorithm>

#include "store/json.hpp"
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

namespace hi::store {

namespace {

// --- SHA-256 (FIPS 180-4) ----------------------------------------------

constexpr std::array<std::uint32_t, 64> kSha256K = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void sha256_block(std::array<std::uint32_t, 8>& h, const std::uint8_t* p) {
  std::array<std::uint32_t, 64> w{};
  for (int i = 0; i < 16; ++i) {
    w[static_cast<std::size_t>(i)] =
        (static_cast<std::uint32_t>(p[4 * i]) << 24) |
        (static_cast<std::uint32_t>(p[4 * i + 1]) << 16) |
        (static_cast<std::uint32_t>(p[4 * i + 2]) << 8) |
        static_cast<std::uint32_t>(p[4 * i + 3]);
  }
  for (std::size_t i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
  std::uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = hh + s1 + ch + kSha256K[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    hh = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
  h[5] += f;
  h[6] += g;
  h[7] += hh;
}

}  // namespace

Digest sha256(std::string_view data) {
  std::array<std::uint32_t, 8> h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                    0xa54ff53a, 0x510e527f, 0x9b05688c,
                                    0x1f83d9ab, 0x5be0cd19};
  const auto* p = reinterpret_cast<const std::uint8_t*>(data.data());
  std::size_t n = data.size();
  while (n >= 64) {
    sha256_block(h, p);
    p += 64;
    n -= 64;
  }
  // Final block(s): message tail + 0x80 + zero pad + 64-bit bit length.
  std::array<std::uint8_t, 128> tail{};
  std::memcpy(tail.data(), p, n);
  tail[n] = 0x80;
  const std::size_t blocks = n + 9 <= 64 ? 1 : 2;
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[blocks * 64 - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  }
  sha256_block(h, tail.data());
  if (blocks == 2) {
    sha256_block(h, tail.data() + 64);
  }
  Digest out;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) {
      out.bytes[static_cast<std::size_t>(4 * i + j)] =
          static_cast<std::uint8_t>(h[static_cast<std::size_t>(i)] >>
                                    (24 - 8 * j));
    }
  }
  return out;
}

std::string Digest::hex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

// --- ByteWriter / ByteReader -------------------------------------------

// Words travel little-endian, which on a little-endian host is their
// memory image: each put appends, and each get copies, one whole word.
static_assert(std::endian::native == std::endian::little,
              "the byte codec assumes a little-endian host");

template <typename T>
void ByteWriter::put_word(T v) {
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  buf_.append(bytes, sizeof v);
}

void ByteWriter::put_u16(std::uint16_t v) { put_word(v); }

void ByteWriter::put_u32(std::uint32_t v) { put_word(v); }

void ByteWriter::put_u64(std::uint64_t v) { put_word(v); }

void ByteWriter::put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::put_string(std::string_view s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

void ByteWriter::put_digest(const Digest& d) {
  buf_.append(reinterpret_cast<const char*>(d.bytes.data()), d.bytes.size());
}

bool ByteReader::take(std::size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t ByteReader::get_u8() {
  if (!take(1)) return 0;
  return static_cast<std::uint8_t>(data_[pos_++]);
}

template <typename T>
T ByteReader::get_word() {
  if (!take(sizeof(T))) return 0;  // whole-width bounds check: fail -> 0
  T v;
  std::memcpy(&v, data_.data() + pos_, sizeof v);
  pos_ += sizeof v;
  return v;
}

std::uint16_t ByteReader::get_u16() { return get_word<std::uint16_t>(); }

std::uint32_t ByteReader::get_u32() { return get_word<std::uint32_t>(); }

std::uint64_t ByteReader::get_u64() { return get_word<std::uint64_t>(); }

double ByteReader::get_f64() { return std::bit_cast<double>(get_u64()); }

std::string ByteReader::get_string() {
  const std::uint32_t n = get_u32();
  if (!take(n)) return {};
  std::string out(data_.substr(pos_, n));
  pos_ += n;
  return out;
}

Digest ByteReader::get_digest() {
  Digest d;
  if (!take(d.bytes.size())) return d;
  std::memcpy(d.bytes.data(), data_.data() + pos_, d.bytes.size());
  pos_ += d.bytes.size();
  return d;
}

// --- canonical binary codecs -------------------------------------------

namespace {

/// Decodes a 0/1 enum byte; anything else marks the payload corrupt by
/// pushing the reader past its end (sticky failure).
template <typename E>
bool get_enum01(ByteReader& r, E zero, E one, E& out) {
  const std::uint8_t v = r.get_u8();
  if (!r.ok() || v > 1) return false;
  out = v == 0 ? zero : one;
  return true;
}

}  // namespace

void write_config(ByteWriter& w, const model::NetworkConfig& cfg) {
  w.put_u16(cfg.topology.mask());
  w.put_f64(cfg.radio.fc_hz);
  w.put_f64(cfg.radio.bit_rate_bps);
  w.put_f64(cfg.radio.tx_dbm);
  w.put_f64(cfg.radio.tx_mw);
  w.put_f64(cfg.radio.rx_dbm);
  w.put_f64(cfg.radio.rx_mw);
  w.put_i32(cfg.tx_level_index);
  w.put_u8(cfg.mac.protocol == model::MacProtocol::kTdma ? 1 : 0);
  w.put_i32(cfg.mac.buffer_packets);
  w.put_u8(cfg.mac.access_mode == model::CsmaAccessMode::kPersistent ? 1 : 0);
  w.put_f64(cfg.mac.slot_s);
  w.put_u8(cfg.routing.protocol == model::RoutingProtocol::kMesh ? 1 : 0);
  w.put_i32(cfg.routing.coordinator);
  w.put_i32(cfg.routing.max_hops);
  w.put_f64(cfg.app.baseline_mw);
  w.put_i32(cfg.app.packet_bytes);
  w.put_f64(cfg.app.throughput_pps);
  w.put_f64(cfg.battery_j);
}

bool read_config(ByteReader& r, model::NetworkConfig& cfg) {
  cfg.topology = model::Topology::from_mask(r.get_u16());
  cfg.radio.fc_hz = r.get_f64();
  cfg.radio.bit_rate_bps = r.get_f64();
  cfg.radio.tx_dbm = r.get_f64();
  cfg.radio.tx_mw = r.get_f64();
  cfg.radio.rx_dbm = r.get_f64();
  cfg.radio.rx_mw = r.get_f64();
  cfg.tx_level_index = r.get_i32();
  if (!get_enum01(r, model::MacProtocol::kCsma, model::MacProtocol::kTdma,
                  cfg.mac.protocol)) {
    return false;
  }
  cfg.mac.buffer_packets = r.get_i32();
  if (!get_enum01(r, model::CsmaAccessMode::kNonPersistent,
                  model::CsmaAccessMode::kPersistent, cfg.mac.access_mode)) {
    return false;
  }
  cfg.mac.slot_s = r.get_f64();
  if (!get_enum01(r, model::RoutingProtocol::kStar,
                  model::RoutingProtocol::kMesh, cfg.routing.protocol)) {
    return false;
  }
  cfg.routing.coordinator = r.get_i32();
  cfg.routing.max_hops = r.get_i32();
  cfg.app.baseline_mw = r.get_f64();
  cfg.app.packet_bytes = r.get_i32();
  cfg.app.throughput_pps = r.get_f64();
  cfg.battery_j = r.get_f64();
  return r.ok();
}

void write_evaluation(ByteWriter& w, const dse::Evaluation& ev) {
  w.put_f64(ev.pdr);
  w.put_f64(ev.power_mw);
  w.put_f64(ev.nlt_s);
  const net::SimResult& d = ev.detail;
  w.put_f64(d.pdr);
  w.put_f64(d.worst_power_mw);
  w.put_f64(d.mean_power_mw);
  w.put_f64(d.nlt_s);
  w.put_f64(d.duration_s);
  w.put_u64(d.events);
  w.put_u64(d.medium.transmissions);
  w.put_u64(d.medium.deliveries_offered);
  w.put_u64(d.medium.below_sensitivity);
  w.put_u32(static_cast<std::uint32_t>(d.nodes.size()));
  for (const net::NodeResult& n : d.nodes) {
    w.put_i32(n.location);
    w.put_f64(n.pdr);
    w.put_f64(n.power_mw);
    w.put_u64(n.app_sent);
    w.put_u64(n.radio.tx_packets);
    w.put_u64(n.radio.rx_ok);
    w.put_u64(n.radio.rx_corrupted);
    w.put_u64(n.radio.rx_missed);
    w.put_u64(n.radio.rx_aborted);
    w.put_u64(n.mac.enqueued);
    w.put_u64(n.mac.sent);
    w.put_u64(n.mac.dropped_buffer);
    w.put_u64(n.mac.backoffs);
    w.put_u64(n.routing.originated);
    w.put_u64(n.routing.delivered);
    w.put_u64(n.routing.duplicates);
    w.put_u64(n.routing.relayed);
  }
  if (d.latency.collected || d.crowd.present) {
    // Conditional tail: latency-off evaluations keep the exact byte
    // image every pre-latency store holds, and readers detect the tail
    // by not being at_end() after the legacy fields.  Crowd records need
    // the tail even with latency off (the crowd tail below sits after
    // it), so they emit it with all-zero samples; the marker then tells
    // the reader whether latency was actually collected.
    w.put_u64(d.latency.samples);
    w.put_f64(d.latency.mean_s);
    w.put_f64(d.latency.p50_s);
    w.put_f64(d.latency.p95_s);
    w.put_f64(d.latency.max_s);
  }
  if (d.crowd.present) {
    // Crowd tail, marker-guarded: single-body records (the entire
    // pre-crowd store population) never reach this block, so their
    // bytes are unchanged; crowd records are only ever read back by
    // crowd-aware binaries, which require the marker.
    w.put_string("hi.crowd.tail.v1");
    w.put_bool(d.latency.collected);
    w.put_i32(d.crowd.bodies);
    w.put_f64(d.crowd.min_body_pdr);
    w.put_u64(d.crowd.cross_offered);
    w.put_u64(d.crowd.cross_below_sensitivity);
    w.put_u64(d.crowd.foreign_heard);
    w.put_u64(d.crowd.foreign_decoded);
  }
}

bool read_evaluation(ByteReader& r, dse::Evaluation& ev) {
  ev.pdr = r.get_f64();
  ev.power_mw = r.get_f64();
  ev.nlt_s = r.get_f64();
  net::SimResult& d = ev.detail;
  d.pdr = r.get_f64();
  d.worst_power_mw = r.get_f64();
  d.mean_power_mw = r.get_f64();
  d.nlt_s = r.get_f64();
  d.duration_s = r.get_f64();
  d.events = r.get_u64();
  d.medium.transmissions = r.get_u64();
  d.medium.deliveries_offered = r.get_u64();
  d.medium.below_sensitivity = r.get_u64();
  const std::uint32_t n_nodes = r.get_u32();
  if (!r.ok() || n_nodes > 64) return false;  // > kNumLocations: corrupt
  d.nodes.clear();
  d.nodes.reserve(n_nodes);
  for (std::uint32_t i = 0; i < n_nodes; ++i) {
    net::NodeResult n;
    n.location = r.get_i32();
    n.pdr = r.get_f64();
    n.power_mw = r.get_f64();
    n.app_sent = r.get_u64();
    n.radio.tx_packets = r.get_u64();
    n.radio.rx_ok = r.get_u64();
    n.radio.rx_corrupted = r.get_u64();
    n.radio.rx_missed = r.get_u64();
    n.radio.rx_aborted = r.get_u64();
    n.mac.enqueued = r.get_u64();
    n.mac.sent = r.get_u64();
    n.mac.dropped_buffer = r.get_u64();
    n.mac.backoffs = r.get_u64();
    n.routing.originated = r.get_u64();
    n.routing.delivered = r.get_u64();
    n.routing.duplicates = r.get_u64();
    n.routing.relayed = r.get_u64();
    d.nodes.push_back(n);
  }
  if (r.ok() && !r.at_end()) {
    d.latency.collected = true;
    d.latency.samples = r.get_u64();
    d.latency.mean_s = r.get_f64();
    d.latency.p50_s = r.get_f64();
    d.latency.p95_s = r.get_f64();
    d.latency.max_s = r.get_f64();
  }
  if (r.ok() && !r.at_end()) {
    // Crowd tail; anything after the latency fields must carry the
    // marker or the record is from a future (unknown) format.
    if (r.get_string() != "hi.crowd.tail.v1") return false;
    d.latency.collected = r.get_bool();
    d.crowd.present = true;
    d.crowd.bodies = r.get_i32();
    d.crowd.min_body_pdr = r.get_f64();
    d.crowd.cross_offered = r.get_u64();
    d.crowd.cross_below_sensitivity = r.get_u64();
    d.crowd.foreign_heard = r.get_u64();
    d.crowd.foreign_decoded = r.get_u64();
    if (!r.at_end()) return false;
  }
  return r.ok();
}

// --- fingerprints -------------------------------------------------------

Digest settings_fingerprint(const dse::EvaluatorSettings& s,
                            std::string_view channel_tag) {
  ByteWriter w;
  w.put_string("hi.settings.v1");
  w.put_f64(s.sim.duration_s);
  w.put_f64(s.sim.gen_guard_s);
  w.put_u64(s.sim.seed);
  w.put_u64(s.sim.channel_seed);
  w.put_f64(s.sim.capture_db);
  w.put_f64(s.sim.csma.turnaround_s);
  w.put_f64(s.sim.csma.backoff_max_s);
  w.put_f64(s.sim.csma.persistent_poll_s);
  w.put_i32(s.runs);
  w.put_string(channel_tag);
  if (s.sim.collect_latency) {
    // Latency collection does not perturb the simulation, but it does
    // decide whether records carry the latency tail, so warmed runs must
    // not mix the two.  Appended only when on — every pre-latency digest
    // (and thus every existing store) is preserved bit for bit.
    w.put_string("hi.latency.v1");
  }
  return sha256(w.bytes());
}

Digest scenario_fingerprint(const model::Scenario& sc) {
  ByteWriter w;
  w.put_string("hi.scenario.v1");
  w.put_f64(sc.chip.fc_hz);
  w.put_f64(sc.chip.bit_rate_bps);
  w.put_f64(sc.chip.rx_dbm);
  w.put_f64(sc.chip.rx_mw);
  w.put_u32(static_cast<std::uint32_t>(sc.chip.tx_levels.size()));
  for (const model::TxLevel& l : sc.chip.tx_levels) {
    w.put_f64(l.dbm);
    w.put_f64(l.mw);
  }
  w.put_f64(sc.app.baseline_mw);
  w.put_i32(sc.app.packet_bytes);
  w.put_f64(sc.app.throughput_pps);
  w.put_f64(sc.battery_j);
  w.put_i32(sc.coordinator);
  w.put_i32(sc.max_hops);
  w.put_f64(sc.tdma_slot_s);
  w.put_i32(sc.mac_buffer_packets);
  w.put_u32(static_cast<std::uint32_t>(sc.required_locations.size()));
  for (int loc : sc.required_locations) w.put_i32(loc);
  w.put_u32(static_cast<std::uint32_t>(sc.coverage.size()));
  for (const model::CoverageConstraint& c : sc.coverage) {
    w.put_u32(static_cast<std::uint32_t>(c.locations.size()));
    for (int loc : c.locations) w.put_i32(loc);
  }
  w.put_u32(static_cast<std::uint32_t>(sc.dependencies.size()));
  for (const model::DependencyConstraint& d : sc.dependencies) {
    w.put_i32(d.if_used);
    w.put_i32(d.then_used);
  }
  w.put_i32(sc.min_nodes);
  w.put_i32(sc.max_nodes);
  return sha256(w.bytes());
}

Digest options_fingerprint(const dse::ExplorationOptions& opt,
                           dse::ExplorerKind kind) {
  ByteWriter w;
  w.put_string("hi.expopt.v1");
  w.put_u8(static_cast<std::uint8_t>(kind));
  w.put_i32(opt.budget);
  switch (kind) {
    case dse::ExplorerKind::kAlgorithm1:
      // Two fields from when "terminate early" was its own bool: kNone
      // hashes exactly as that bool switched off did.
      w.put_bool(opt.bound != dse::TerminationBound::kNone);
      w.put_u8(opt.bound == dse::TerminationBound::kPaperAlpha ? 1 : 0);
      w.put_f64(opt.alpha_kappa);
      break;
    case dse::ExplorerKind::kAnnealing:
      // dse/annealing.cpp's constant start/end temperatures and penalty
      // slope: hashed so existing store keys stay valid.
      w.put_u64(opt.seed);
      w.put_f64(2.0);
      w.put_f64(0.005);
      w.put_f64(50.0);
      break;
    case dse::ExplorerKind::kExhaustive:
      break;
    case dse::ExplorerKind::kFastIlp:
      // dse/level_walk.cpp's constant patience, likewise.
      w.put_i32(2);
      break;
  }
  if (opt.robust.active()) {
    // Inactive robustness appends nothing, so every pre-robust digest
    // (and thus every existing store) is preserved bit for bit.
    w.put_string("hi.robust.v1");
    w.put_i32(opt.robust.gamma);
    w.put_i32(opt.robust.realizations);
    w.put_f64(opt.robust.confidence);
  }
  return sha256(w.bytes());
}

// --- scenario JSON ------------------------------------------------------

// The JSON machinery (parser, typed accessors, shortest-round-trip
// double formatting) lives in store/json.hpp so the crowd codec and the
// CLI report writers share one implementation.
namespace {

using detail::JsonParser;
using detail::JsonValue;
using detail::fmt_double;
using detail::json_string;
using ScenarioBuilder = detail::ObjectReader;

}  // namespace

std::string scenario_to_json(const model::Scenario& sc) {
  std::string out;
  out += "{\n  \"format\": \"hi-scenario-v1\",\n";
  out += "  \"chip\": {\n    \"name\": ";
  out += json_string(sc.chip.name);
  out += ",\n    \"fc_hz\": " + fmt_double(sc.chip.fc_hz);
  out += ",\n    \"bit_rate_bps\": " + fmt_double(sc.chip.bit_rate_bps);
  out += ",\n    \"rx_dbm\": " + fmt_double(sc.chip.rx_dbm);
  out += ",\n    \"rx_mw\": " + fmt_double(sc.chip.rx_mw);
  out += ",\n    \"tx_levels\": [";
  for (std::size_t i = 0; i < sc.chip.tx_levels.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"dbm\": " + fmt_double(sc.chip.tx_levels[i].dbm) +
           ", \"mw\": " + fmt_double(sc.chip.tx_levels[i].mw) + "}";
  }
  out += "]\n  },\n";
  out += "  \"app\": {\"baseline_mw\": " + fmt_double(sc.app.baseline_mw) +
         ", \"packet_bytes\": " + std::to_string(sc.app.packet_bytes) +
         ", \"throughput_pps\": " + fmt_double(sc.app.throughput_pps) +
         "},\n";
  out += "  \"battery_j\": " + fmt_double(sc.battery_j) + ",\n";
  out += "  \"coordinator\": " + std::to_string(sc.coordinator) + ",\n";
  out += "  \"max_hops\": " + std::to_string(sc.max_hops) + ",\n";
  out += "  \"tdma_slot_s\": " + fmt_double(sc.tdma_slot_s) + ",\n";
  out += "  \"mac_buffer_packets\": " + std::to_string(sc.mac_buffer_packets) +
         ",\n";
  out += "  \"required_locations\": [";
  for (std::size_t i = 0; i < sc.required_locations.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(sc.required_locations[i]);
  }
  out += "],\n  \"coverage\": [";
  for (std::size_t i = 0; i < sc.coverage.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\n    {\"locations\": [";
    for (std::size_t j = 0; j < sc.coverage[i].locations.size(); ++j) {
      if (j > 0) out += ", ";
      out += std::to_string(sc.coverage[i].locations[j]);
    }
    out += "], \"reason\": ";
    out += json_string(sc.coverage[i].reason);
    out += "}";
  }
  if (!sc.coverage.empty()) out += "\n  ";
  out += "],\n  \"dependencies\": [";
  for (std::size_t i = 0; i < sc.dependencies.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\n    {\"if_used\": " + std::to_string(sc.dependencies[i].if_used) +
           ", \"then_used\": " + std::to_string(sc.dependencies[i].then_used) +
           ", \"reason\": ";
    out += json_string(sc.dependencies[i].reason);
    out += "}";
  }
  if (!sc.dependencies.empty()) out += "\n  ";
  out += "],\n";
  out += "  \"min_nodes\": " + std::to_string(sc.min_nodes) + ",\n";
  out += "  \"max_nodes\": " + std::to_string(sc.max_nodes) + "\n}\n";
  return out;
}

std::optional<model::Scenario> scenario_from_json(std::string_view json,
                                                  std::string* error) {
  std::optional<JsonValue> root = JsonParser(json).parse(error);
  if (!root) return std::nullopt;
  ScenarioBuilder b(error);
  if (root->kind != JsonValue::Kind::kObject) {
    b.fail("top-level JSON value must be an object");
    return std::nullopt;
  }
  b.check_keys(*root,
               {"format", "chip", "app", "battery_j", "coordinator",
                "max_hops", "tdma_slot_s", "mac_buffer_packets",
                "required_locations", "coverage", "dependencies", "min_nodes",
                "max_nodes"});
  if (b.str(*root, "format") != "hi-scenario-v1" && !b.failed()) {
    b.fail("unsupported format (want \"hi-scenario-v1\")");
  }

  model::Scenario sc;
  if (const JsonValue* chip = b.require(*root, "chip"); chip != nullptr) {
    b.check_keys(*chip,
                 {"name", "fc_hz", "bit_rate_bps", "rx_dbm", "rx_mw",
                  "tx_levels"});
    sc.chip.name = b.str(*chip, "name");
    sc.chip.fc_hz = b.num(*chip, "fc_hz");
    sc.chip.bit_rate_bps = b.num(*chip, "bit_rate_bps");
    sc.chip.rx_dbm = b.num(*chip, "rx_dbm");
    sc.chip.rx_mw = b.num(*chip, "rx_mw");
    sc.chip.tx_levels.clear();
    if (const JsonValue* levels = b.require(*chip, "tx_levels");
        levels != nullptr && levels->kind == JsonValue::Kind::kArray) {
      for (const JsonValue& l : levels->items) {
        b.check_keys(l, {"dbm", "mw"});
        model::TxLevel level;
        level.dbm = b.num(l, "dbm");
        level.mw = b.num(l, "mw");
        sc.chip.tx_levels.push_back(level);
      }
    }
  }
  if (const JsonValue* app = b.require(*root, "app"); app != nullptr) {
    b.check_keys(*app, {"baseline_mw", "packet_bytes", "throughput_pps"});
    sc.app.baseline_mw = b.num(*app, "baseline_mw");
    sc.app.packet_bytes = b.integer(*app, "packet_bytes");
    sc.app.throughput_pps = b.num(*app, "throughput_pps");
  }
  sc.battery_j = b.num(*root, "battery_j");
  sc.coordinator = b.integer(*root, "coordinator");
  sc.max_hops = b.integer(*root, "max_hops");
  sc.tdma_slot_s = b.num(*root, "tdma_slot_s");
  sc.mac_buffer_packets = b.integer(*root, "mac_buffer_packets");
  sc.required_locations = b.int_array(*root, "required_locations");
  sc.coverage.clear();
  if (const JsonValue* cov = b.require(*root, "coverage");
      cov != nullptr && cov->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& group : cov->items) {
      b.check_keys(group, {"locations", "reason"});
      model::CoverageConstraint c;
      c.locations = b.int_array(group, "locations");
      // reason is a non-owning const char*; the JSON text would dangle.
      // Fingerprints ignore reasons, so parsing it back as "" is lossless
      // for every identity the store depends on.
      c.reason = "";
      (void)b.str(group, "reason");
      sc.coverage.push_back(std::move(c));
    }
  }
  sc.dependencies.clear();
  if (const JsonValue* deps = b.require(*root, "dependencies");
      deps != nullptr && deps->kind == JsonValue::Kind::kArray) {
    for (const JsonValue& dep : deps->items) {
      b.check_keys(dep, {"if_used", "then_used", "reason"});
      model::DependencyConstraint d;
      d.if_used = b.integer(dep, "if_used");
      d.then_used = b.integer(dep, "then_used");
      d.reason = "";
      (void)b.str(dep, "reason");
      sc.dependencies.push_back(d);
    }
  }
  sc.min_nodes = b.integer(*root, "min_nodes");
  sc.max_nodes = b.integer(*root, "max_nodes");
  if (b.failed()) return std::nullopt;
  return sc;
}

}  // namespace hi::store
