#include "check/store_props.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "check/properties.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "dse/explorer.hpp"
#include "store/record_log.hpp"
#include "store/serialize.hpp"
#include "store/store.hpp"

namespace hi::check {

namespace {

template <typename... Parts>
void fail(std::vector<std::string>& out, Parts&&... parts) {
  std::ostringstream oss;
  (oss << ... << parts);
  out.push_back(oss.str());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

void write_file(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

/// One byte through the reflected IEEE CRC-32 register, a bit at a
/// time: the textbook definition, independent of any table.
std::uint32_t crc32_bit_step(std::uint32_t c, std::uint8_t byte) {
  c ^= byte;
  for (int k = 0; k < 8; ++k) {
    c = (c & 1) != 0 ? (c >> 1) ^ 0xEDB88320u : c >> 1;
  }
  return c;
}

std::uint32_t crc32_oracle(std::string_view data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : data) {
    c = crc32_bit_step(c, static_cast<std::uint8_t>(ch));
  }
  return c ^ 0xFFFFFFFFu;
}

/// Canonical byte form of an evaluation — "bit-identical" made testable.
std::string eval_bytes(const dse::Evaluation& ev) {
  store::ByteWriter w;
  store::write_evaluation(w, ev);
  return w.take();
}

}  // namespace

std::vector<std::string> check_scenario_roundtrip(const model::Scenario& sc) {
  std::vector<std::string> out;
  const store::Digest fp = store::scenario_fingerprint(sc);
  const std::string json = store::scenario_to_json(sc);
  std::string err;
  const auto parsed = store::scenario_from_json(json, &err);
  if (!parsed) {
    fail(out, "scenario JSON failed to parse back: ", err);
    return out;
  }
  if (store::scenario_fingerprint(*parsed) != fp) {
    fail(out, "scenario fingerprint changed across the JSON round-trip");
  }
  // Parse → serialize → parse must be a fixed point (the first trip may
  // legitimately drop cosmetic reason strings; after that, nothing may
  // change).
  const std::string json2 = store::scenario_to_json(*parsed);
  const auto parsed2 = store::scenario_from_json(json2, &err);
  if (!parsed2) {
    fail(out, "re-serialized scenario JSON failed to parse: ", err);
    return out;
  }
  if (store::scenario_to_json(*parsed2) != json2) {
    fail(out, "scenario JSON is not a fixed point under parse/serialize");
  }
  if (store::scenario_fingerprint(*parsed2) != fp) {
    fail(out, "scenario fingerprint changed on the second round-trip");
  }
  return out;
}

std::vector<std::string> check_warm_start_determinism(
    const ScenarioSpec& spec, const std::string& store_path, int threads) {
  std::vector<std::string> out;
  std::remove(store_path.c_str());
  dse::ExplorationOptions opt;
  opt.pdr_min = 0.8;
  opt.threads = threads;

  // Cold run, write-through into a fresh store.
  dse::ExplorationResult cold;
  std::size_t stored = 0;
  {
    store::EvalStore st(store_path, {});
    dse::Evaluator eval(spec.settings);
    const store::WarmStartStats warm = store::warm_start(eval, st);
    if (warm.preloaded != 0) {
      fail(out, "fresh store preloaded ", warm.preloaded, " evaluations");
    }
    cold = dse::run_algorithm1(spec.scenario, eval, opt);
    if (cold.metrics.counter("dse.store_hits") != 0) {
      fail(out, "cold run reported ", cold.metrics.counter("dse.store_hits"),
           " store hits");
    }
    stored = st.eval_count();
  }
  if (stored != cold.simulations) {
    fail(out, "write-through stored ", stored, " evaluations but the cold run",
         " simulated ", cold.simulations);
  }

  // Warmed run: a fresh evaluator (a new process, morally) preloaded
  // from the store the cold run left behind.
  dse::ExplorationResult warm;
  {
    store::EvalStore st(store_path, {});
    if (!st.recovery().clean()) {
      fail(out, "store written by the cold run did not recover clean");
    }
    dse::Evaluator eval(spec.settings);
    const store::WarmStartStats ws = store::warm_start(eval, st);
    if (ws.preloaded != stored) {
      fail(out, "preloaded ", ws.preloaded, " of ", stored,
           " stored evaluations");
    }
    warm = dse::run_algorithm1(spec.scenario, eval, opt);
    if (st.eval_count() != stored) {
      fail(out, "warmed run grew the store: ", stored, " -> ",
           st.eval_count(), " evaluations (write-through re-announced a",
           " preloaded point)");
    }
  }

  // Bit-identical outcome.  Exact double comparisons throughout:
  // determinism is bit-identical or broken.
  if (cold.feasible != warm.feasible) {
    fail(out, "feasibility differs warm vs cold");
  }
  if (cold.feasible && cold.best.design_key() != warm.best.design_key()) {
    fail(out, "best design differs warm vs cold: ", cold.best.label(),
         " vs ", warm.best.label());
  }
  if (cold.best_power_mw != warm.best_power_mw ||
      cold.best_pdr != warm.best_pdr || cold.best_nlt_s != warm.best_nlt_s) {
    fail(out, "best metrics differ warm vs cold");
  }
  if (cold.iterations != warm.iterations) {
    fail(out, "iteration counts differ warm vs cold: ", cold.iterations,
         " vs ", warm.iterations);
  }
  if (cold.milp_bnb_nodes != warm.milp_bnb_nodes) {
    fail(out, "milp_bnb_nodes differ warm vs cold");
  }
  if (cold.history.size() != warm.history.size()) {
    fail(out, "history lengths differ warm vs cold: ", cold.history.size(),
         " vs ", warm.history.size());
  } else {
    for (std::size_t i = 0; i < cold.history.size(); ++i) {
      const dse::CandidateRecord& a = cold.history[i];
      const dse::CandidateRecord& b = warm.history[i];
      if (a.cfg.design_key() != b.cfg.design_key() || a.sim_pdr != b.sim_pdr ||
          a.sim_power_mw != b.sim_power_mw || a.sim_nlt_s != b.sim_nlt_s) {
        fail(out, "history entry ", i, " differs warm vs cold");
        break;
      }
    }
  }

  // The accounting shift — and nothing but the accounting shift.
  const std::uint64_t hits = warm.metrics.counter("dse.store_hits");
  if (warm.simulations + hits != cold.simulations) {
    fail(out, "accounting broken: warm simulations (", warm.simulations,
         ") + store hits (", hits, ") != cold simulations (",
         cold.simulations, ")");
  }
  if (warm.simulations != 0) {
    fail(out, "warmed replay of an identical run paid for ",
         warm.simulations, " fresh simulations");
  }
  // net.* / des.* scale with the simulations actually executed and
  // exec.* with scheduling; everything else (milp.*, dse.cache_hits, …)
  // must match exactly.
  std::vector<std::string> diffs =
      diff_counters(cold.metrics, warm.metrics,
                    {"net.", "des.", "exec.", "dse.simulations",
                     "dse.store_hits"});
  out.insert(out.end(), diffs.begin(), diffs.end());
  return out;
}

std::vector<std::string> check_store_recovery(std::uint64_t seed,
                                              const std::string& scratch_dir,
                                              int trials) {
  std::vector<std::string> out;
  Rng rng = Rng{seed}.fork("check.store.recovery");
  const ScenarioSpec spec = make_scenario(seed, /*shrink_level=*/2);
  const store::Digest fp =
      store::settings_fingerprint(spec.settings, "default");

  // Fabricate a store: real configs, synthetic evaluation values (the
  // recovery machinery never interprets them, it only frames bytes).
  std::vector<std::pair<model::NetworkConfig, dse::Evaluation>> originals;
  {
    const std::vector<model::NetworkConfig> configs =
        spec.scenario.feasible_configs();
    if (configs.empty()) {
      fail(out, "scenario has an empty feasible design space");
      return out;
    }
    const std::size_t n = std::min<std::size_t>(configs.size(), 12);
    for (std::size_t i = 0; i < n; ++i) {
      dse::Evaluation ev;
      ev.pdr = rng.uniform();
      ev.power_mw = rng.uniform(0.1, 20.0);
      ev.nlt_s = rng.uniform(1e3, 1e7);
      originals.emplace_back(configs[i], ev);
    }
  }
  // The pid keeps concurrent fuzzers (ctest -j runs the smoke and
  // extended sweeps side by side) off each other's scratch files.
  const std::string base_path = scratch_dir + "/recovery-" +
                                std::to_string(::getpid()) + "-" +
                                std::to_string(seed) + ".store";
  std::remove(base_path.c_str());
  {
    store::EvalStore st(base_path, {});
    for (const auto& [cfg, ev] : originals) {
      st.put(fp, cfg, ev);
    }
    store::CellKey key{store::scenario_fingerprint(spec.scenario), fp,
                       store::Digest{}, 0.9};
    store::CellResult res;
    res.feasible = true;
    res.best = originals.front().first;
    st.put_cell(key, res);
  }
  const std::string base = read_file(base_path);
  constexpr std::size_t kFileHeader = 12;  // magic + format version
  if (base.size() <= kFileHeader) {
    fail(out, "fabricated store is implausibly small: ", base.size(),
         " bytes");
    return out;
  }

  const std::string trial_path = base_path + ".trial";
  for (int t = 0; t < trials; ++t) {
    std::string hurt = base;
    const int mode = static_cast<int>(rng.uniform_index(4));
    std::string what;
    bool header_damage = false;
    if (mode == 0) {  // torn write: cut anywhere after the file header
      const std::size_t cut =
          kFileHeader + 1 +
          rng.uniform_index(hurt.size() - kFileHeader - 1);
      hurt.resize(cut);
      what = "truncate@" + std::to_string(cut);
    } else if (mode == 1) {  // bit flip in the record region
      const std::size_t at =
          kFileHeader + rng.uniform_index(hurt.size() - kFileHeader);
      hurt[at] = static_cast<char>(
          hurt[at] ^ static_cast<char>(1u << rng.uniform_index(8)));
      what = "bitflip@" + std::to_string(at);
    } else if (mode == 2) {  // bit flip anywhere, file header included
      const std::size_t at = rng.uniform_index(hurt.size());
      header_damage = at < kFileHeader;
      hurt[at] = static_cast<char>(
          hurt[at] ^ static_cast<char>(1u << rng.uniform_index(8)));
      what = "headerflip@" + std::to_string(at);
    } else {  // garbage tail (a torn append of noise)
      const std::size_t extra = 1 + rng.uniform_index(64);
      for (std::size_t i = 0; i < extra; ++i) {
        hurt.push_back(static_cast<char>(rng.uniform_index(256)));
      }
      what = "garbage+" + std::to_string(extra);
    }
    write_file(trial_path, hurt);

    try {
      obs::MetricsRegistry metrics;
      store::StoreOptions opt;
      opt.metrics = &metrics;
      store::EvalStore st(trial_path, opt);
      const store::RecoveryStats& rec = st.recovery();
      if (st.eval_count() > originals.size()) {
        fail(out, what, ": recovery invented evaluations (",
             st.eval_count(), " > ", originals.size(), ")");
      }
      for (const auto& [cfg, ev] : originals) {
        const dse::Evaluation* got = st.find(fp, cfg);
        if (got != nullptr && eval_bytes(*got) != eval_bytes(ev)) {
          fail(out, what, ": recovered evaluation for ", cfg.label(),
               " differs from what was stored");
        }
      }
      const std::uint64_t dropped =
          metrics.snapshot().counter("store.corrupt_dropped");
      if (dropped != rec.corrupt_dropped) {
        fail(out, what, ": store.corrupt_dropped counter (", dropped,
             ") != recovery stats (", rec.corrupt_dropped, ")");
      }
      // The write-mode open truncated tail damage; a compaction pass
      // must flush the rest and leave a byte-clean file.
      const std::size_t live = st.eval_count() + st.cell_count();
      const auto cstats = store::EvalStore::compact(trial_path);
      if (cstats.records_after != live) {
        fail(out, what, ": compaction kept ", cstats.records_after,
             " records, expected ", live);
      }
      const store::RecoveryStats audit = store::EvalStore::audit(trial_path);
      if (!audit.clean() || audit.records != live) {
        fail(out, what, ": compacted store does not audit clean");
      }
    } catch (const Error& e) {
      // Refusing a damaged *file header* is the documented behaviour;
      // anything else must recover, not throw.
      if (!header_damage) {
        fail(out, what, ": open threw: ", e.what());
      }
    }
  }
  if (out.empty()) {
    std::remove(trial_path.c_str());
    std::remove(base_path.c_str());
  }
  return out;
}

std::vector<std::string> check_crc32(std::uint64_t seed) {
  std::vector<std::string> out;
  struct Known {
    std::string_view text;
    std::uint32_t crc;
  };
  constexpr Known kKnown[] = {
      {"", 0x00000000u},
      {"a", 0xE8B7BE43u},
      {"abc", 0x352441C2u},
      {"123456789", 0xCBF43926u},  // the standard check value
      {"The quick brown fox jumps over the lazy dog", 0x414FA339u},
  };
  for (const Known& k : kKnown) {
    if (crc32_oracle(k.text) != k.crc) {
      fail(out, "CRC oracle gives ", crc32_oracle(k.text), " for \"", k.text,
           "\", want ", k.crc);
    }
    if (store::crc32(k.text) != k.crc) {
      fail(out, "store::crc32 gives ", store::crc32(k.text), " for \"",
           k.text, "\", want ", k.crc);
    }
  }

  constexpr std::size_t kMaxLen = 1100;
  constexpr std::size_t kOffsets = 16;
  Rng rng = Rng{seed}.fork("check.store.crc32");
  std::string buf(kOffsets + kMaxLen, '\0');
  for (char& ch : buf) {
    ch = static_cast<char>(rng.next_u64());
  }
  // The oracle runs once per offset and is finalised at every length.
  for (std::size_t off = 0; off < kOffsets; ++off) {
    std::uint32_t reg = 0xFFFFFFFFu;
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      if (len > 0) {
        reg = crc32_bit_step(reg,
                             static_cast<std::uint8_t>(buf[off + len - 1]));
      }
      const std::uint32_t want = reg ^ 0xFFFFFFFFu;
      const std::uint32_t got = store::crc32({buf.data() + off, len});
      if (got != want) {
        fail(out, "store::crc32 at offset ", off, " length ", len, " gives ",
             got, ", the bitwise oracle ", want);
        if (out.size() >= 8) return out;  // enough to diagnose
      }
    }
  }
  return out;
}

}  // namespace hi::check
