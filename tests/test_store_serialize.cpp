// hi::store serialization: binary codec round-trips, fingerprint
// sensitivity (and insensitivity to cosmetic strings), and the scenario
// JSON interchange form.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "channel/channel.hpp"
#include "check/scenario_gen.hpp"
#include "check/store_props.hpp"
#include "dse/evaluator.hpp"
#include "model/design_space.hpp"
#include "store/serialize.hpp"

namespace {

using namespace hi;
using store::ByteReader;
using store::ByteWriter;
using store::Digest;

/// The scenario examples/custom_scenario.cpp builds — a customized chip,
/// an extra required location, and a tighter node budget — so the JSON
/// round-trip is exercised on a hand-written (not generated) instance.
model::Scenario custom_example_scenario() {
  model::RadioChip thrifty;
  thrifty.name = "hypothetical sub-mW WBAN radio";
  thrifty.fc_hz = 2.4e9;
  thrifty.bit_rate_bps = 250e3;
  thrifty.rx_dbm = -100.0;
  thrifty.rx_mw = 6.0;
  thrifty.tx_levels = {{-16.0, 4.2}, {-8.0, 5.5}, {0.0, 8.9}};

  model::Scenario scenario;
  scenario.chip = thrifty;
  scenario.required_locations = {0, 8};
  scenario.coverage = {
      {{1, 2}, "gait (hip)"},
      {{3, 4}, "gait (foot)"},
      {{5, 6}, "vitals (wrist)"},
  };
  scenario.dependencies = {{7, 8, "head strap needs a neck relay"}};
  scenario.min_nodes = 5;
  scenario.max_nodes = 6;
  scenario.app.throughput_pps = 5.0;
  scenario.tdma_slot_s = 4e-3;
  return scenario;
}

TEST(StoreSerialize, ByteCodecRoundTripsPrimitives) {
  ByteWriter w;
  w.put_u8(0xAB);
  w.put_u16(0xBEEF);
  w.put_u32(0xDEADBEEFu);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i32(-42);
  w.put_bool(true);
  w.put_f64(-0.0);
  w.put_f64(1.0 / 3.0);
  w.put_string(std::string_view("nul\0safe", 8));  // length-prefixed
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u16(), 0xBEEF);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i32(), -42);
  EXPECT_TRUE(r.get_bool());
  const double neg_zero = r.get_f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // -0.0 survives (bit pattern)
  EXPECT_EQ(r.get_f64(), 1.0 / 3.0);
  EXPECT_EQ(r.get_string(), std::string("nul\0safe", 8));
  EXPECT_TRUE(r.at_end());
}

// The round trip above passes even if writer and reader both switch
// byte order; literal byte strings pin the little-endian wire format.
TEST(StoreSerialize, ByteCodecWireFormatIsLittleEndian) {
  using namespace std::string_literals;
  ByteWriter w;
  w.put_u16(0xBEEF);
  EXPECT_EQ(w.bytes(), "\xEF\xBE"s);
  w = ByteWriter{};
  w.put_u32(0xDEADBEEFu);
  EXPECT_EQ(w.bytes(), "\xEF\xBE\xAD\xDE"s);
  w = ByteWriter{};
  w.put_u64(0x0123456789ABCDEFull);
  EXPECT_EQ(w.bytes(), "\xEF\xCD\xAB\x89\x67\x45\x23\x01"s);
  w = ByteWriter{};
  w.put_i32(-42);
  EXPECT_EQ(w.bytes(), "\xD6\xFF\xFF\xFF"s);
  w = ByteWriter{};
  w.put_f64(1.0);  // 0x3FF0000000000000
  EXPECT_EQ(w.bytes(), "\0\0\0\0\0\0\xF0\x3F"s);
  w = ByteWriter{};
  w.put_f64(-2.5);  // 0xC004000000000000
  EXPECT_EQ(w.bytes(), "\0\0\0\0\0\0\x04\xC0"s);

  const std::string wire =
      "\xEF\xBE"                          // u16
      "\xEF\xBE\xAD\xDE"                  // u32
      "\xEF\xCD\xAB\x89\x67\x45\x23\x01"  // u64
      "\xD6\xFF\xFF\xFF"                  // i32
      "\0\0\0\0\0\0\x04\xC0"s;           // f64
  ByteReader r(wire);
  EXPECT_EQ(r.get_u16(), 0xBEEF);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i32(), -42);
  EXPECT_EQ(r.get_f64(), -2.5);
  EXPECT_TRUE(r.at_end());
}

TEST(StoreSerialize, ByteReaderFailureIsSticky) {
  ByteWriter w;
  w.put_u32(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u64(), 0u);  // read past the end
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.get_u32(), 0u);  // stays failed even though 4 bytes exist
  EXPECT_FALSE(r.at_end());
}

TEST(StoreSerialize, ConfigBinaryRoundTrip) {
  const model::Scenario sc;
  const std::vector<model::NetworkConfig> configs = sc.feasible_configs();
  ASSERT_FALSE(configs.empty());
  for (std::size_t i = 0; i < configs.size(); i += 97) {
    ByteWriter w;
    store::write_config(w, configs[i]);
    ByteReader r(w.bytes());
    model::NetworkConfig back;
    ASSERT_TRUE(store::read_config(r, back));
    EXPECT_TRUE(r.at_end());
    EXPECT_EQ(back, configs[i]);
    EXPECT_EQ(back.design_key(), configs[i].design_key());
  }
}

TEST(StoreSerialize, EvaluationBinaryRoundTripIsBitExact) {
  const check::ScenarioSpec spec = check::make_scenario(3, /*shrink_level=*/2);
  dse::Evaluator eval(spec.settings);
  const std::vector<model::NetworkConfig> configs =
      spec.scenario.feasible_configs();
  ASSERT_FALSE(configs.empty());
  const dse::Evaluation ev = eval.simulate_uncached(configs.front());

  ByteWriter w;
  store::write_evaluation(w, ev);
  ByteReader r(w.bytes());
  dse::Evaluation back;
  ASSERT_TRUE(store::read_evaluation(r, back));
  EXPECT_TRUE(r.at_end());
  // Bit-exactness made testable: re-serializing yields the same bytes.
  ByteWriter w2;
  store::write_evaluation(w2, back);
  EXPECT_EQ(w.bytes(), w2.bytes());
  EXPECT_EQ(back.pdr, ev.pdr);
  EXPECT_EQ(back.power_mw, ev.power_mw);
  EXPECT_EQ(back.nlt_s, ev.nlt_s);
  EXPECT_EQ(back.detail.nodes.size(), ev.detail.nodes.size());
}

TEST(StoreSerialize, SettingsFingerprintCoversEverySimKnob) {
  const dse::EvaluatorSettings base;
  const Digest fp = store::settings_fingerprint(base, "default");
  EXPECT_EQ(fp, store::settings_fingerprint(base, "default"));
  EXPECT_EQ(fp.hex().size(), 64u);

  auto differs = [&](auto mutate) {
    dse::EvaluatorSettings s;
    mutate(s);
    return store::settings_fingerprint(s, "default") != fp;
  };
  EXPECT_TRUE(differs([](auto& s) { s.sim.duration_s += 1.0; }));
  EXPECT_TRUE(differs([](auto& s) { s.sim.seed += 1; }));
  EXPECT_TRUE(differs([](auto& s) { s.sim.channel_seed = 99; }));
  EXPECT_TRUE(differs([](auto& s) { s.sim.capture_db += 0.5; }));
  EXPECT_TRUE(differs([](auto& s) { s.runs += 1; }));
  EXPECT_NE(store::settings_fingerprint(base, "harsh-channel"), fp);
  // Threads and metrics are execution details, not result inputs.
  EXPECT_FALSE(differs([](auto& s) { s.threads = 7; }));
}

TEST(StoreSerialize, ScenarioFingerprintIgnoresCosmeticStrings) {
  model::Scenario a;
  const Digest fp = store::scenario_fingerprint(a);
  model::Scenario renamed;
  renamed.chip.name = "same silicon, new marketing";
  renamed.coverage[0].reason = "different words, same constraint";
  EXPECT_EQ(store::scenario_fingerprint(renamed), fp);

  model::Scenario deeper;
  deeper.max_hops = 3;
  EXPECT_NE(store::scenario_fingerprint(deeper), fp);
  model::Scenario tighter;
  tighter.max_nodes = 5;
  EXPECT_NE(store::scenario_fingerprint(tighter), fp);
}

TEST(StoreSerialize, OptionsFingerprintSeparatesStrategies) {
  const dse::ExplorationOptions opt;
  const Digest alg1 =
      store::options_fingerprint(opt, dse::ExplorerKind::kAlgorithm1);
  EXPECT_NE(alg1,
            store::options_fingerprint(opt, dse::ExplorerKind::kExhaustive));
  EXPECT_NE(alg1,
            store::options_fingerprint(opt, dse::ExplorerKind::kAnnealing));

  dse::ExplorationOptions bounded = opt;
  bounded.bound = dse::TerminationBound::kPaperAlpha;
  EXPECT_NE(store::options_fingerprint(bounded, dse::ExplorerKind::kAlgorithm1),
            alg1);
  // The annealer's seed matters to the annealer only.
  dse::ExplorationOptions reseeded = opt;
  reseeded.seed += 1;
  EXPECT_EQ(
      store::options_fingerprint(reseeded, dse::ExplorerKind::kAlgorithm1),
      alg1);
  EXPECT_NE(
      store::options_fingerprint(reseeded, dse::ExplorerKind::kAnnealing),
      store::options_fingerprint(opt, dse::ExplorerKind::kAnnealing));
  // Observability hooks never change what a cell computes.
  dse::ExplorationOptions observed = opt;
  observed.threads = 4;
  EXPECT_EQ(
      store::options_fingerprint(observed, dse::ExplorerKind::kAlgorithm1),
      alg1);
}

TEST(StoreSerialize, ScenarioJsonRoundTripPaperDefault) {
  EXPECT_EQ(check::check_scenario_roundtrip(model::Scenario{}),
            std::vector<std::string>{});
}

TEST(StoreSerialize, ScenarioJsonRoundTripCustomExample) {
  EXPECT_EQ(check::check_scenario_roundtrip(custom_example_scenario()),
            std::vector<std::string>{});
}

TEST(StoreSerialize, ScenarioJsonRoundTripGeneratorScenarios) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const check::ScenarioSpec spec = check::make_scenario(seed);
    EXPECT_EQ(check::check_scenario_roundtrip(spec.scenario),
              std::vector<std::string>{})
        << spec.summary();
  }
}

TEST(StoreSerialize, ScenarioJsonRejectsUnknownKeysAndGarbage) {
  std::string err;
  EXPECT_FALSE(store::scenario_from_json("{", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(store::scenario_from_json("[1,2,3]", &err).has_value());

  std::string json = store::scenario_to_json(model::Scenario{});
  const std::string key = "\"max_hops\"";
  json.replace(json.find(key), key.size(), "\"max_hopz\"");
  EXPECT_FALSE(store::scenario_from_json(json, &err).has_value());
  EXPECT_NE(err.find("max_hopz"), std::string::npos);

  // Deep nesting is a clean parse error, not a stack overflow.
  const std::string deep =
      std::string(200'000, '[') + std::string(200'000, ']');
  EXPECT_FALSE(store::scenario_from_json(deep, &err).has_value());
  EXPECT_NE(err.find("nesting"), std::string::npos) << err;

  // An integral array item beyond int range is rejected, not cast.
  json = store::scenario_to_json(model::Scenario{});
  const std::size_t at = json.find("\"required_locations\": [");
  ASSERT_NE(at, std::string::npos);
  const std::size_t open = json.find('[', at);
  json.replace(open, json.find(']', open) - open + 1, "[2147483648]");
  EXPECT_FALSE(store::scenario_from_json(json, &err).has_value());
  EXPECT_NE(err.find("required_locations"), std::string::npos) << err;
}

}  // namespace
