#include "store/store.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/assert.hpp"

namespace hi::store {

namespace {

/// Record type tags (first payload byte).  Append-only: new kinds get
/// new tags; unknown tags are treated as corruption, because the format
/// version in the file header already gates incompatible readers.
constexpr std::uint8_t kEvalRecord = 1;
constexpr std::uint8_t kCellRecord = 2;

std::string encode_eval(const Digest& settings_fp,
                        const model::NetworkConfig& cfg,
                        const dse::Evaluation& ev) {
  ByteWriter w;
  w.put_u8(kEvalRecord);
  w.put_digest(settings_fp);
  write_config(w, cfg);
  write_evaluation(w, ev);
  return w.take();
}

std::string encode_cell(const CellKey& key, const CellResult& res) {
  ByteWriter w;
  w.put_u8(kCellRecord);
  w.put_digest(key.scenario_fp);
  w.put_digest(key.settings_fp);
  w.put_digest(key.options_fp);
  w.put_f64(key.pdr_min);
  w.put_bool(res.feasible);
  write_config(w, res.best);
  w.put_f64(res.best_power_mw);
  w.put_f64(res.best_pdr);
  w.put_f64(res.best_nlt_s);
  w.put_u64(res.simulations);
  w.put_i32(res.iterations);
  return w.take();
}

}  // namespace

EvalStore::EvalStore(std::string path, StoreOptions opt)
    : opt_(std::move(opt)) {
  std::uint64_t decode_failures = 0;
  RecordLogOptions log_opt;
  log_opt.mode = opt_.read_only ? OpenMode::kReadOnly : OpenMode::kReadWrite;
  log_opt.fsync = opt_.fsync;
  log_opt.metrics = opt_.metrics;
  log_ = std::make_unique<RecordLog>(
      path,
      [this, &decode_failures](std::uint64_t offset,
                               std::string_view payload) {
        ByteReader r(payload);
        const std::uint8_t type = r.get_u8();
        bool ok = false;
        if (type == kEvalRecord) {
          const Digest fp = r.get_digest();
          StoredEval se;
          ok = read_config(r, se.cfg) && read_evaluation(r, se.ev) &&
               r.at_end();
          if (ok) {
            // Later duplicates (e.g. two concurrent campaigns racing on
            // the same miss) supersede earlier ones: identical content
            // by construction, and compaction keeps only the survivor.
            evals_.insert_or_assign(EvalKey{fp, se.cfg.design_key()},
                                    std::pair{std::move(se), offset});
          }
        } else if (type == kCellRecord) {
          CellKey key;
          key.scenario_fp = r.get_digest();
          key.settings_fp = r.get_digest();
          key.options_fp = r.get_digest();
          key.pdr_min = r.get_f64();
          CellResult res;
          res.feasible = r.get_bool();
          ok = read_config(r, res.best);
          res.best_power_mw = r.get_f64();
          res.best_pdr = r.get_f64();
          res.best_nlt_s = r.get_f64();
          res.simulations = r.get_u64();
          res.iterations = r.get_i32();
          ok = ok && r.at_end();
          if (ok) {
            cells_.insert_or_assign(key, std::pair{res, offset});
          }
        }
        if (!ok) {
          ++decode_failures;  // CRC-valid but undecodable: corrupt
        }
      },
      log_opt);
  recovery_ = log_->recovery();
  recovery_.records -= decode_failures;
  recovery_.corrupt_dropped += decode_failures;
  if (opt_.metrics != nullptr && decode_failures > 0) {
    opt_.metrics->counter("store.corrupt_dropped").add(decode_failures);
  }
  if (opt_.metrics != nullptr) {
    opt_.metrics->counter("store.records_loaded").add(recovery_.records);
  }
}

const dse::Evaluation* EvalStore::find(const Digest& settings_fp,
                                       const model::NetworkConfig& cfg) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = evals_.find(EvalKey{settings_fp, cfg.design_key()});
  if (it == evals_.end()) {
    return nullptr;
  }
  HI_REQUIRE(it->second.first.cfg == cfg,
             "design_key collision in store '"
                 << log_->path() << "': key " << cfg.design_key()
                 << " maps both " << it->second.first.cfg.label() << " and "
                 << cfg.label()
                 << " — the stored result would be wrong for one of them");
  return &it->second.first.ev;
}

bool EvalStore::put(const Digest& settings_fp, const model::NetworkConfig& cfg,
                    const dse::Evaluation& ev) {
  std::lock_guard<std::mutex> lock(mu_);
  const EvalKey key{settings_fp, cfg.design_key()};
  if (const auto it = evals_.find(key); it != evals_.end()) {
    HI_REQUIRE(it->second.first.cfg == cfg,
               "design_key collision in store '" << log_->path() << "' on put("
                   << cfg.label() << ")");
    return false;  // idempotent: already stored
  }
  // The log enforces the fsync policy itself (kAlways syncs in append).
  const std::uint64_t offset = log_->append(encode_eval(settings_fp, cfg, ev));
  if (opt_.metrics != nullptr) {
    opt_.metrics->counter("store.evals_appended").add(1);
  }
  evals_.emplace(key, std::pair{StoredEval{cfg, ev}, offset});
  return true;
}

std::size_t EvalStore::eval_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evals_.size();
}

std::optional<CellResult> EvalStore::find_cell(const CellKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = cells_.find(key);
  if (it == cells_.end()) {
    return std::nullopt;
  }
  return it->second.first;
}

void EvalStore::put_cell(const CellKey& key, const CellResult& result) {
  std::lock_guard<std::mutex> lock(mu_);
  // A checkpoint must never be durable without its evaluations;
  // append_checkpoint's sync covers every frame appended before it.
  const std::uint64_t offset = log_->append_checkpoint(encode_cell(key, result));
  if (opt_.metrics != nullptr) {
    opt_.metrics->counter("store.cells_appended").add(1);
  }
  cells_.insert_or_assign(key, std::pair{result, offset});
}

std::size_t EvalStore::cell_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cells_.size();
}

void EvalStore::sync() { log_->sync(); }

std::size_t EvalStore::preload_into(dse::Evaluator& eval,
                                    const Digest& settings_fp) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (auto it = evals_.lower_bound(EvalKey{settings_fp, 0});
       it != evals_.end() && it->first.first == settings_fp; ++it) {
    if (eval.preload(it->second.first.cfg, it->second.first.ev)) {
      ++n;
    }
  }
  return n;
}

EvalStore::CompactStats EvalStore::compact(const std::string& path) {
  CompactStats stats;
  // Read the current state (recovery included) ...
  EvalStore old(path, StoreOptions{.read_only = true});
  stats.records_before = old.recovery_.records;
  stats.bytes_before = old.log_->size_bytes() + old.recovery_.truncated_bytes;
  // ... rewrite the live records into a fresh log ...
  const std::string tmp = path + ".compacting";
  std::remove(tmp.c_str());
  {
    RecordLog fresh(tmp, nullptr,
                    {.mode = OpenMode::kReadWrite, .fsync = FsyncPolicy::kNone});
    for (const auto& [key, value] : old.evals_) {
      fresh.append(encode_eval(key.first, value.first.cfg, value.first.ev));
    }
    for (const auto& [key, value] : old.cells_) {
      fresh.append(encode_cell(key, value.first));
    }
    fresh.sync();
    stats.records_after = old.evals_.size() + old.cells_.size();
    stats.bytes_after = fresh.size_bytes();
  }
  // ... and atomically swap it in.
  HI_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
             "store compaction rename failed: " << std::strerror(errno));
  return stats;
}

RecoveryStats EvalStore::audit(const std::string& path) {
  const EvalStore probe(path, StoreOptions{.read_only = true});
  return probe.recovery_;
}

WarmStartStats warm_start(dse::Evaluator& eval, EvalStore& store) {
  WarmStartStats out;
  out.settings_fp = settings_fingerprint(eval.settings(), store.channel_tag());
  out.preloaded = store.preload_into(eval, out.settings_fp);
  const Digest fp = out.settings_fp;
  eval.set_store_sink([&store, fp](const model::NetworkConfig& cfg,
                                   const dse::Evaluation& ev) {
    store.put(fp, cfg, ev);
  });
  return out;
}

WarmStartStats warm_start(dse::Evaluator& eval, EvalStore& store,
                          int realizations) {
  HI_REQUIRE(realizations >= 1,
             "warm_start needs >= 1 realization, got " << realizations);
  WarmStartStats out = warm_start(eval, store);
  for (int k = 1; k < realizations; ++k) {
    dse::Evaluator& child = eval.realization(k);
    const Digest fp =
        settings_fingerprint(child.settings(), store.channel_tag());
    out.preloaded += store.preload_into(child, fp);
    child.set_store_sink([&store, fp](const model::NetworkConfig& cfg,
                                      const dse::Evaluation& ev) {
      store.put(fp, cfg, ev);
    });
    ++out.realizations;
  }
  return out;
}

}  // namespace hi::store
